"""Critical-path extraction and what-if projection
(``repro.critpath-report/1`` / ``repro.whatif-report/1``).

The profiler (:mod:`repro.obs.profile`) answers "where did the cycles
go?" with aggregate busy/stall trees, but aggregates cannot say which
resource actually *bound* runtime: a cluster can show 40% memory
stall while the true limiter is a single address generator.  This
module answers the causal question from an **event DAG** the
simulator records as it runs (see
:class:`~repro.core.processor.ImagineProcessor`): one node per
instruction lifetime event (host issue, execution begin, completion)
plus a source and an end node, and one typed, weighted edge per
timing constraint --

====================  =================================================
edge type             constraint it models
====================  =================================================
``program_start``     run start -> first host issue
``host_issue``        host interface rate limit between issues
``host_dependency``   host blocked on a completion + round trip
``scoreboard_slot``   host waited for a free scoreboard slot
``resident``          issue -> begin through one controller window
``data_dep``          scoreboard data dependency -> begin
``cluster_busy``      previous kernel occupied the cluster array
``loader_busy``       previous explicit microcode load serialised
``ag_busy``           a freed AG lane enabled this memory stream
``controller_issue``  one stream-controller issue window per begin
``kernel_exec``       kernel begin -> completion (VLIW schedule)
``mem_stream``        memory-stream begin -> completion (DRAM model)
``microcode_load``    explicit microcode-load begin -> completion
``host_op``           register/sync/host-read execution (1 cycle)
``retire``            completion -> run end
====================  =================================================

The graph is stored as columns (:class:`EventGraph`): typed arrays
for node times, kind codes and instruction indices and for edge
sources, targets, type codes and weights, a list of node labels, and
a sparse edge-index -> detail table for the few edges that carry
detail (kernel execution, memory streams, microcode loads).  Node
kinds and edge types are closed vocabularies (:data:`NODE_KINDS`,
:data:`EDGE_TYPES`) whose positions are the codes.  The same columns
are appended to while simulating, pickled as raw buffers, and read by
NumPy without a copy; ``graph.nodes``/``graph.edges`` are read-only
row views for inspection.

The critical path is recovered by walking backwards from the end
node, always following the incoming edge with the latest arrival
time (``t_src + weight``); each segment's **elapsed** time
(``t_dst - t_src``) telescopes, so the path length equals total run
cycles *exactly* -- the conservation check.  Every critical cycle is
attributed to one ``component.side.leaf`` in the PR 5 profile
vocabulary, and per-leaf critical cycles are cross-validated against
that leaf's busy+stall cycles in the profile tree (a critical cycle
cannot exceed the cycles the profiler says the resource consumed).

The **what-if projector** replays the recorded DAG forwards with
scaled edge weights (``dram=2x`` shortens memory-stream service,
``ags=3`` removes AG-serialisation edges, ...) to predict speedup,
and :func:`whatif_configs` maps the same scaling onto a real
machine/board change so :meth:`repro.engine.Session.whatif` can rerun
the simulator and report prediction error.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence, Sized
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, TypeVar, overload

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import BoardConfig, MachineConfig
    from repro.core.processor import RunResult

#: Version tag for the critical-path report layout.
CRITPATH_SCHEMA = "repro.critpath-report/1"
#: Version tag for the what-if projection layout.
WHATIF_SCHEMA = "repro.whatif-report/1"

# Edge-type vocabulary (docstring table above).
EDGE_PROGRAM_START = "program_start"
EDGE_HOST_ISSUE = "host_issue"
EDGE_HOST_DEPENDENCY = "host_dependency"
EDGE_SCOREBOARD_SLOT = "scoreboard_slot"
EDGE_RESIDENT = "resident"
EDGE_DATA_DEP = "data_dep"
EDGE_CLUSTER_BUSY = "cluster_busy"
EDGE_LOADER_BUSY = "loader_busy"
EDGE_AG_BUSY = "ag_busy"
EDGE_CONTROLLER_ISSUE = "controller_issue"
EDGE_KERNEL_EXEC = "kernel_exec"
EDGE_MEM_STREAM = "mem_stream"
EDGE_MICROCODE_LOAD = "microcode_load"
EDGE_HOST_OP = "host_op"
EDGE_RETIRE = "retire"

#: The closed edge-type vocabulary; an edge's type code is its
#: position here.  The order is also the tie-break order when several
#: incoming edges share the maximal arrival time: most-specific cause
#: first (execution beats serialisation beats host bookkeeping), so
#: the extracted path is deterministic and blames the narrowest
#: constraint -- a lower code wins a tie.
EDGE_TYPES = (
    EDGE_KERNEL_EXEC, EDGE_MEM_STREAM, EDGE_MICROCODE_LOAD,
    EDGE_HOST_OP, EDGE_DATA_DEP, EDGE_CLUSTER_BUSY,
    EDGE_LOADER_BUSY, EDGE_AG_BUSY, EDGE_CONTROLLER_ISSUE,
    EDGE_RESIDENT, EDGE_HOST_DEPENDENCY, EDGE_SCOREBOARD_SLOT,
    EDGE_HOST_ISSUE, EDGE_RETIRE, EDGE_PROGRAM_START,
)
#: Edge type -> type code.
EDGE_CODE = {name: code for code, name in enumerate(EDGE_TYPES)}

#: The closed node-kind vocabulary; a node's kind code is its
#: position here.
NODE_KINDS = ("source", "issue", "begin", "complete", "end")
#: Node kind -> kind code.
NODE_CODE = {name: code for code, name in enumerate(NODE_KINDS)}

#: Leaf for critical cycles no recorded constraint explains exactly
#: (fault back-off windows, slot-loss gaps); bounded in tests, never
#: checked against the profile tree.
UNATTRIBUTED_LEAF = "unattributed.wait"

#: Resource scalings the projector understands.  ``dram``, ``ags``,
#: ``host``, ``microcode`` and ``srf`` can also be *validated* by a
#: rerun (see :func:`whatif_configs`); ``clusters`` is predict-only.
KNOWN_SCALES = ("ags", "clusters", "dram", "host", "microcode", "srf")

#: Conservation tolerance for path length vs total cycles (relative).
PATH_TOLERANCE = 1e-6


class CritpathError(ValueError):
    """The event graph or report is malformed, or a scaling spec /
    projection request cannot be honoured."""


# ----------------------------------------------------------------------
# The event DAG (recorded by the simulator, pickled with RunResult).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GraphNode:
    """One lifetime event: ``source``/``issue``/``begin``/
    ``complete``/``end`` (a row of :attr:`EventGraph.nodes`)."""

    ident: int
    kind: str
    index: int          # instruction index; -1 for source/end
    t: float
    label: str = ""


@dataclass(frozen=True)
class GraphEdge:
    """One timing constraint between two events (a row of
    :attr:`EventGraph.edges`)."""

    src: int
    dst: int
    type: str
    weight: float
    detail: dict[str, Any] = field(default_factory=dict)


_R = TypeVar("_R")


class _Rows(Sequence[_R]):
    """Read-only sequence of rows built on demand from columns."""

    __slots__ = ("_size", "_row")

    def __init__(self, size: Sized, row: Callable[[int], _R]) -> None:
        self._size = size
        self._row = row

    def __len__(self) -> int:
        return len(self._size)

    @overload
    def __getitem__(self, key: int) -> _R: ...

    @overload
    def __getitem__(self, key: slice) -> list[_R]: ...

    def __getitem__(self, key: int | slice) -> _R | list[_R]:
        rows = range(len(self._size))
        if isinstance(key, slice):
            return [self._row(i) for i in rows[key]]
        return self._row(rows[key])


#: Shared empty detail for edges recorded without any; never mutated.
_NO_DETAIL: dict[str, Any] = {}


class EventGraph:
    """Append-only event DAG stored as columns.

    Nodes are created in simulation order and every edge points from
    an earlier node to a later one, so the graph is acyclic by
    construction.  Node ``i`` is row ``i`` of the ``node_*`` columns
    and edge ``j`` row ``j`` of the ``edge_*`` columns; kinds and
    types are codes into :data:`NODE_KINDS` and :data:`EDGE_TYPES`.
    The typed columns pickle as raw buffers and NumPy reads them
    without a copy.  :attr:`nodes` and :attr:`edges` are read-only
    row views for inspection; nothing on a hot path iterates them.
    """

    #: Memoized critical-path walk, keyed by ``(nodes, edges)`` count
    #: so an append invalidates it; never pickled (a result-cache
    #: entry stores it beside the graph, see :func:`walk_columns`).
    _walk_memo: tuple[tuple[int, int], _Walk] | None = None

    def __init__(self, meta: dict[str, float] | None = None) -> None:
        self.node_t: array[float] = array("d")
        self.node_kind: array[int] = array("B")
        self.node_index: array[int] = array("i")
        self.node_label: list[str] = []
        self.edge_src: array[int] = array("i")
        self.edge_dst: array[int] = array("i")
        self.edge_type: array[int] = array("B")
        self.edge_weight: array[float] = array("d")
        #: Edge index -> detail, only for edges recorded with detail.
        self.edge_detail: dict[int, dict[str, Any]] = {}
        #: Machine facts the projector needs (``num_ags``,
        #: ``issue_overhead``, ``host_issue_cycles``, ``total_cycles``).
        self.meta: dict[str, float] = {} if meta is None else meta

    def __getstate__(self) -> dict[str, Any]:
        # The memo is derived data: keep it out of pickles (result
        # cache entries, worker results) so their bytes do not depend
        # on whether a report was built first.
        state = self.__dict__.copy()
        state.pop("_walk_memo", None)
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventGraph):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def add_node(self, kind: str, index: int, t: float,
                 label: str = "") -> int:
        code = NODE_CODE.get(kind)
        if code is None:
            raise CritpathError(f"unknown node kind {kind!r}")
        ident = len(self.node_label)
        self.node_t.append(float(t))
        self.node_kind.append(code)
        self.node_index.append(index)
        self.node_label.append(label)
        return ident

    def add_edge(self, src: int, dst: int, type: str, weight: float,
                 **detail: Any) -> None:
        if src < 0 or dst >= len(self.node_label) or src >= dst:
            raise CritpathError(
                f"edge {src}->{dst} violates creation order "
                f"({len(self.node_label)} nodes)")
        code = EDGE_CODE.get(type)
        if code is None:
            raise CritpathError(f"unknown edge type {type!r}")
        if detail:
            self.edge_detail[len(self.edge_src)] = detail
        self.edge_src.append(src)
        self.edge_dst.append(dst)
        self.edge_type.append(code)
        self.edge_weight.append(float(weight))

    def node(self, ident: int) -> GraphNode:
        return GraphNode(ident, NODE_KINDS[self.node_kind[ident]],
                         self.node_index[ident], self.node_t[ident],
                         self.node_label[ident])

    def edge(self, index: int) -> GraphEdge:
        return GraphEdge(self.edge_src[index], self.edge_dst[index],
                         EDGE_TYPES[self.edge_type[index]],
                         self.edge_weight[index],
                         dict(self.edge_detail.get(index, _NO_DETAIL)))

    @property
    def nodes(self) -> Sequence[GraphNode]:
        return _Rows(self.node_label, self.node)

    @property
    def edges(self) -> Sequence[GraphEdge]:
        return _Rows(self.edge_src, self.edge)

    @property
    def shape(self) -> tuple[int, int]:
        """``(nodes, edges)``: what is derived from the graph is keyed
        by it, so an append invalidates it."""
        return (len(self.node_label), len(self.edge_src))

    @property
    def end(self) -> GraphNode:
        if (not self.node_label
                or self.node_kind[-1] != NODE_CODE["end"]):
            raise CritpathError("event graph has no end node")
        return self.node(len(self.node_label) - 1)


# ----------------------------------------------------------------------
# Attribution: edge + elapsed -> profile-vocabulary leaves.
# ----------------------------------------------------------------------
#: ``kernel_exec`` detail key -> leaf, in split order.
_KERNEL_PARTS = (
    ("operations", "clusters.busy.operations"),
    ("main_loop_overhead", "clusters.busy.kernel_main_loop_overhead"),
    ("non_main_loop", "clusters.busy.kernel_non_main_loop"),
    ("stall", "clusters.stall.srf_starve"),
    ("microcode", "microcontroller.busy.load"),
)
#: Edge types whose elapsed time is split over one leaf by weight.
_WEIGHT_LEAF = {
    EDGE_MICROCODE_LOAD: "microcontroller.busy.load",
    EDGE_HOST_ISSUE: "host.busy.issue",
    EDGE_HOST_DEPENDENCY: "host.busy.round_trip",
    **dict.fromkeys((EDGE_RESIDENT, EDGE_DATA_DEP, EDGE_CLUSTER_BUSY,
                     EDGE_LOADER_BUSY, EDGE_AG_BUSY,
                     EDGE_CONTROLLER_ISSUE), "controller.busy.issue"),
}
#: Leaf of ``host_op`` edges and of memory streams without a lane.
_DISPATCH_LEAF = "controller.busy.dispatch"


def _lane_leaf(lane: Any) -> str:
    return (f"ag{lane}.busy.stream_transfer" if lane is not None
            else _DISPATCH_LEAF)


#: Leaves every graph can name, then lanes as found; ids into this
#: list are the columns of :func:`_attribute`'s slot tables.
_FIXED_LEAVES = tuple(dict.fromkeys((
    *(leaf for _, leaf in _KERNEL_PARTS), *_WEIGHT_LEAF.values(),
    _DISPATCH_LEAF, UNATTRIBUTED_LEAF)))
_KERNEL_LEAF_IDS = [_FIXED_LEAVES.index(leaf) for _, leaf in _KERNEL_PARTS]
#: Type code -> its ``_WEIGHT_LEAF`` leaf id, or -1.
_WEIGHT_LEAF_OF_CODE = np.array(
    [_FIXED_LEAVES.index(_WEIGHT_LEAF[name]) if name in _WEIGHT_LEAF
     else -1 for name in EDGE_TYPES], dtype=np.intp)


def _attribute(code: np.ndarray, weight: np.ndarray,
               elapsed: np.ndarray, details: list[dict[str, Any]]
               ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Attribute each edge's ``elapsed`` cycles to
    ``component.side.leaf`` paths from the profile vocabulary, as
    array passes, one edge-type group at a time.

    A kernel edge splits its elapsed time over the kernel's parts, and
    an edge with a ``_WEIGHT_LEAF`` over its own weight: each part
    (``max(part, 0.0)``, summed left to right) gets its share of at
    most the parts' total, and time beyond it is unexplained wait.  A
    memory stream's time goes to its AG lane (or dispatch), a host
    op's to dispatch, and a bookkeeping edge's (program start,
    scoreboard slot, retire) is an unexplained gap.  Per edge there is
    one slot per kernel part (a single-part split uses the first),
    then one for unexplained wait.  ``details`` are the edges' detail
    dicts.  Returns the leaf names in order of first appearance (edge
    by edge, slots in order), and per (edge, leaf) the cycles and
    whether the leaf is present -- a present leaf may hold 0.0.
    """
    rows = len(code)
    parts_per_edge = len(_KERNEL_PARTS)
    names = {leaf: lid for lid, leaf in enumerate(_FIXED_LEAVES)}
    leaf = np.full((rows, parts_per_edge + 1), names[UNATTRIBUTED_LEAF],
                   dtype=np.intp)
    value = np.zeros((rows, parts_per_edge + 1))
    present = np.zeros((rows, parts_per_edge + 1), dtype=bool)

    # Split edges: the kernel's five parts or the edge's own weight,
    # split over the elapsed time, and any excess as wait.
    parts = np.zeros((rows, parts_per_edge))
    single = _WEIGHT_LEAF_OF_CODE[code]
    weighted = single >= 0
    parts[weighted, 0] = weight[weighted]
    leaf[weighted, 0] = single[weighted]
    kernel = np.flatnonzero(code == EDGE_CODE[EDGE_KERNEL_EXEC])
    parts[kernel] = np.array(
        [[float(details[row].get(key, 0.0)) for key, _ in _KERNEL_PARTS]
         for row in kernel.tolist()]).reshape(-1, parts_per_edge)
    leaf[kernel, :parts_per_edge] = _KERNEL_LEAF_IDS
    split = weighted.copy()
    split[kernel] = True
    # Left to right, each part as ``max(part, 0.0)`` picks it.
    total = np.zeros(rows)
    for column in np.where(0.0 > parts, 0.0, parts).T:
        total += column
    shared = split & (total > 0.0)
    usable = np.where(total < elapsed, total, elapsed)
    share = (parts * usable[:, None]
             / np.where(shared, total, 1.0)[:, None])
    value[:, :parts_per_edge] = share
    present[:, :parts_per_edge] = shared[:, None] & (parts > 0.0)
    rest = elapsed - usable
    value[:, -1] = np.where(shared, rest, elapsed)
    present[:, -1] = np.where(shared, rest > 1e-9,
                              split & (elapsed > 0.0))

    # Memory streams: all elapsed time to the lane (or dispatch).
    stream = np.flatnonzero(code == EDGE_CODE[EDGE_MEM_STREAM])
    leaf[stream, 0] = [
        names.setdefault(_lane_leaf(details[row].get("lane")), len(names))
        for row in stream.tolist()]
    value[stream, 0] = elapsed[stream]
    present[stream, 0] = elapsed[stream] > 0.0
    host_op = code == EDGE_CODE[EDGE_HOST_OP]
    leaf[host_op, 0] = names[_DISPATCH_LEAF]
    value[host_op, 0] = elapsed[host_op]
    present[host_op, 0] = elapsed[host_op] != 0.0
    # Bookkeeping edges: any elapsed time is an unexplained gap.
    other = ~(split | host_op)
    other[stream] = False
    present[other, -1] = elapsed[other] > 1e-9

    # Compact to the leaves present, as columns in first-appearance
    # order.
    row, slot = np.nonzero(present)
    ids = leaf[row, slot]
    found, first = np.unique(ids, return_index=True)
    order = found[np.argsort(first)]
    column = np.empty(len(names), dtype=np.intp)
    column[order] = np.arange(len(order))
    vocabulary = list(names)
    cycles = np.zeros((rows, len(order)))
    mask = np.zeros((rows, len(order)), dtype=bool)
    cycles[row, column[ids]] = value[row, slot]
    mask[row, column[ids]] = True
    return tuple(vocabulary[lid] for lid in order.tolist()), cycles, mask


#: Edge type -> the machine resource its constraint belongs to (for
#: slack aggregation).  ``mem_stream`` is absent: its resource is the
#: AG lane named in the edge detail (see :func:`_edge_resource`).
_EDGE_RESOURCE = {
    EDGE_KERNEL_EXEC: "clusters",
    EDGE_CLUSTER_BUSY: "clusters",
    EDGE_MICROCODE_LOAD: "microcontroller",
    EDGE_LOADER_BUSY: "microcontroller",
    EDGE_HOST_ISSUE: "host",
    EDGE_HOST_DEPENDENCY: "host",
    EDGE_AG_BUSY: "ags",
    EDGE_HOST_OP: "controller",
    EDGE_RESIDENT: "controller",
    EDGE_DATA_DEP: "controller",
    EDGE_CONTROLLER_ISSUE: "controller",
    EDGE_SCOREBOARD_SLOT: "scoreboard",
}
#: The same table by type code, as ids into the resource names
#: (-1: no resource, or a ``mem_stream`` lane resolved per edge).
_RESOURCE_NAMES = tuple(dict.fromkeys(_EDGE_RESOURCE.values()))
_RESOURCE_OF_CODE = np.array(
    [_RESOURCE_NAMES.index(_EDGE_RESOURCE[name])
     if name in _EDGE_RESOURCE else -1 for name in EDGE_TYPES],
    dtype=np.intp)


def _stream_resource(detail: dict[str, Any]) -> str:
    """A memory stream's resource: the AG lane it ran on, else the
    controller."""
    lane = detail.get("lane")
    return f"ag{lane}" if lane is not None else "controller"


def _edge_resources(code: np.ndarray, details: dict[int, dict]
                    ) -> tuple[np.ndarray, dict[str, int]]:
    """Per edge, the id of the resource its constraint belongs to (-1
    for pure bookkeeping), and the resource names to ids."""
    resource = _RESOURCE_OF_CODE[code]
    resource_ids = {name: rid for rid, name in enumerate(_RESOURCE_NAMES)}
    streams = np.flatnonzero(code == EDGE_CODE[EDGE_MEM_STREAM])
    for edge in streams.tolist():
        name = _stream_resource(details.get(edge, _NO_DETAIL))
        resource[edge] = resource_ids.setdefault(name, len(resource_ids))
    return resource, resource_ids


def _edge_resource(type: str, detail: dict[str, Any]) -> str | None:
    """Which machine resource an edge's constraint belongs to (for
    slack aggregation); ``None`` for pure bookkeeping."""
    if type == EDGE_MEM_STREAM:
        return _stream_resource(detail)
    return _EDGE_RESOURCE.get(type)


def _leaf_component(leaf: str) -> str:
    return leaf.split(".", 1)[0]


# ----------------------------------------------------------------------
# Extraction.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Walk:
    """One critical-path walk: the path as indices of edges the graph
    owns, plus the aggregates every report reads.  Per-segment dicts
    are not kept; :func:`build_critpath` assembles them."""

    path: list[int]
    path_cycles: float
    #: Critical cycles per leaf, in ``(-cycles, leaf)`` order.
    leaves: dict[str, float]
    #: Elapsed cycles per edge type, in ``(-cycles, type)`` order.
    edge_types: dict[str, float]
    #: Memory-stream elapsed cycles by limiting driver, sorted.
    memory_driver: dict[str, float]
    resources: dict[str, dict[str, float | int]]
    #: Resource names by critical cycles, ``unattributed`` excluded.
    ranked: list[str]
    #: Per path edge, its elapsed cycles.
    elapsed: np.ndarray = field(default_factory=lambda: np.zeros(0),
                                compare=False, repr=False)
    #: The leaves the path names, sorted.
    leaf_names: tuple[str, ...] = ()
    #: The path edges' leaf attribution (see :func:`_attribute`) as
    #: sparse cells: path position, column into ``leaf_names`` and
    #: cycles, by position and then leaf name.  A cell may hold 0.0;
    #: :func:`build_critpath`'s segments read them.
    cell_row: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int32),
        compare=False, repr=False)
    cell_leaf: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int32),
        compare=False, repr=False)
    cell_cycles: np.ndarray = field(default_factory=lambda: np.zeros(0),
                                    compare=False, repr=False)


def _best_incoming(t: np.ndarray, src: np.ndarray, dst: np.ndarray,
                   code: np.ndarray, weight: np.ndarray) -> list[int]:
    """Per node, the index of its incoming edge with the latest
    arrival (``t_src + weight``), or -1 when it has none.

    Ties go to the lower type code, then the later source time, then
    the higher source id, then the lower edge index -- one lexsort
    whose last row per destination is the winner.
    """
    t_src = t[src]
    order = np.lexsort((-np.arange(len(src)), src, t_src,
                        -code.astype(np.intp), t_src + weight, dst))
    ranked = dst[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = ranked[1:] != ranked[:-1]
    best = np.full(len(t), -1, dtype=np.intp)
    best[ranked[last]] = order[last]
    return best.tolist()


def _walk(graph: EventGraph) -> _Walk:
    """Walk backwards from the end node along latest-arrival edges
    and aggregate the path (uncached; see :func:`_cached_walk`)."""
    if not graph.node_label:
        raise CritpathError("empty event graph")
    end = graph.end
    times, sources, targets = graph.node_t, graph.edge_src, graph.edge_dst
    types, weights = graph.edge_type, graph.edge_weight
    details = graph.edge_detail
    t = np.asarray(times)
    src = np.asarray(sources)
    dst = np.asarray(targets)
    code = np.asarray(types)
    weight = np.asarray(weights)
    best = _best_incoming(t, src, dst, code, weight)

    path: list[int] = []
    current = end.ident
    while current != 0:
        edge = best[current]
        if edge < 0:
            raise CritpathError(
                f"node {current} "
                f"({NODE_KINDS[graph.node_kind[current]]}) has no "
                f"incoming edges; the DAG is disconnected")
        path.append(edge)
        current = sources[edge]
    path.reverse()

    on_path = np.array(path, dtype=np.intp)
    path_code = code[on_path]
    elapsed = t[dst[on_path]] - t[src[on_path]]
    path_details = [details.get(edge, _NO_DETAIL) for edge in path]
    leaf_names, leaf_cycles, leaf_present = _attribute(
        path_code, weight[on_path], elapsed, path_details)
    by_name = sorted(range(len(leaf_names)), key=leaf_names.__getitem__)
    cell_row, cell_leaf = np.nonzero(leaf_present[:, by_name])
    cell_cycles = leaf_cycles[:, by_name][cell_row, cell_leaf]
    sorted_names = tuple(leaf_names[lid] for lid in by_name)
    # Per-leaf sums add in path order (a weighted bincount is
    # sequential), as a per-edge loop would; keyed in first-appearance
    # order, which the per-component sums below rely on.
    totals = dict(zip(sorted_names, np.bincount(
        cell_leaf, weights=cell_cycles,
        minlength=len(leaf_names)).tolist()))
    leaves = {leaf: totals[leaf] for leaf in leaf_names}
    type_cycles = np.bincount(path_code, weights=elapsed,
                              minlength=len(EDGE_TYPES)).tolist()
    edge_types = {EDGE_TYPES[type]: type_cycles[type]
                  for type in np.unique(path_code).tolist()}
    memory_driver: dict[str, float] = {}
    for index in np.flatnonzero(
            (path_code == EDGE_CODE[EDGE_MEM_STREAM])
            & (elapsed > 0.0)).tolist():
        detail = path_details[index]
        cycles = float(elapsed[index])
        startup = min(float(detail.get("startup", 0.0)), cycles)
        drivers = (
            ("dram", float(detail.get("dram_cycles", 0.0))),
            ("ag", float(detail.get("ag_cycles", 0.0))),
            ("controller_port",
             float(detail.get("controller_cycles", 0.0))),
        )
        driver = max(drivers, key=lambda item: item[1])[0]
        memory_driver["startup"] = (
            memory_driver.get("startup", 0.0) + startup)
        memory_driver[driver] = (
            memory_driver.get(driver, 0.0) + cycles - startup)

    # Slack: how much later each non-path edge's constraint could
    # have arrived without moving its destination, minimised and
    # counted per resource (both exact in any order).
    resource, resource_ids = _edge_resources(code, details)
    local = t[dst] - (t[src] + weight)
    local = np.where(local < 0.0, 0.0, local)
    local[path] = 0.0
    counted = resource >= 0
    owner = resource[counted]
    counts = np.bincount(owner, minlength=len(resource_ids))
    lowest = np.full(len(resource_ids), np.inf)
    np.minimum.at(lowest, owner, local[counted])
    slack = {name: float(lowest[rid]) for name, rid in resource_ids.items()
             if counts[rid]}
    resource_edges = {name: int(counts[rid])
                      for name, rid in resource_ids.items()}

    # Components sum their leaves in first-appearance order.
    by_component: dict[str, float] = {}
    for leaf, cycles in leaves.items():
        component = _leaf_component(leaf)
        by_component[component] = (by_component.get(component, 0.0)
                                   + cycles)
    total = end.t
    resources: dict[str, dict[str, float | int]] = {}
    for name in sorted(set(by_component) | set(slack)):
        resources[name] = {
            "critical_cycles": by_component.get(name, 0.0),
            "share": (by_component.get(name, 0.0) / total
                      if total > 0 else 0.0),
            "min_slack": slack.get(name, 0.0),
            "edges": resource_edges.get(name, 0),
        }
    ranked = sorted(
        (name for name in resources if name != "unattributed"),
        key=lambda name: (-resources[name]["critical_cycles"], name))

    return _Walk(
        path=path,
        path_cycles=sum(elapsed.tolist()),
        leaves={leaf: leaves[leaf]
                for leaf in sorted(leaves,
                                   key=lambda key: (-leaves[key], key))},
        edge_types={name: edge_types[name]
                    for name in sorted(edge_types,
                                       key=lambda key: (-edge_types[key],
                                                        key))},
        memory_driver={name: memory_driver[name]
                       for name in sorted(memory_driver)},
        resources=resources,
        ranked=ranked,
        elapsed=elapsed,
        leaf_names=sorted_names,
        cell_row=cell_row.astype(np.int32),
        cell_leaf=cell_leaf.astype(np.int32),
        cell_cycles=cell_cycles,
    )


def _cached_walk(graph: EventGraph) -> _Walk:
    """The graph's walk, computed once per graph shape and shared by
    the profile's ``critpath`` block, :func:`critpath_summary` and
    :func:`build_critpath`.  Callers copy before returning anything
    from it."""
    key = graph.shape
    memo = graph._walk_memo
    if memo is None or memo[0] != key:
        memo = graph._walk_memo = (key, _walk(graph))
    return memo[1]


#: :class:`_Walk` fields a cache entry stores as they are.
_STORED_AS_IS = ("path_cycles", "leaves", "edge_types", "memory_driver",
                 "resources", "ranked", "leaf_names")


def walk_columns(graph: EventGraph) -> dict[str, Any]:
    """The graph's walk as the compact columns a result-cache entry
    stores: the path's edge indices (int32) and its leaf cells
    (int32 position and leaf column, float64 cycles) as raw bytes, and
    the sorted leaf names and aggregates as they are.  Per-edge
    elapsed cycles are left out; :func:`_attach_walk` reads them from
    the graph."""
    walk = _cached_walk(graph)
    return {name: getattr(walk, name) for name in _STORED_AS_IS} | {
        "path": np.asarray(walk.path, dtype=np.int32).tobytes(),
        "cell_row": walk.cell_row.tobytes(),
        "cell_leaf": walk.cell_leaf.tobytes(),
        "cell_cycles": walk.cell_cycles.tobytes(),
    }


def _attach_walk(graph: EventGraph, columns: dict[str, Any]) -> None:
    """Memoize on ``graph`` the walk :func:`walk_columns` stored for
    it.  The cells become read-only views of the stored bytes."""
    path = np.frombuffer(columns["path"], dtype=np.int32)
    t = np.asarray(graph.node_t)
    graph._walk_memo = (graph.shape, _Walk(
        **{name: columns[name] for name in _STORED_AS_IS},
        path=path.tolist(),
        elapsed=(t[np.asarray(graph.edge_dst)[path]]
                 - t[np.asarray(graph.edge_src)[path]]),
        cell_row=np.frombuffer(columns["cell_row"], dtype=np.int32),
        cell_leaf=np.frombuffer(columns["cell_leaf"], dtype=np.int32),
        cell_cycles=np.frombuffer(columns["cell_cycles"]),
    ))


def _result_walk(result: "RunResult") -> _Walk:
    """The walk of ``result``'s graph: the memoized one, else the one
    derived with the run (:class:`repro.obs.profile.Derived`), else a
    fresh walk."""
    graph = result.event_graph
    derived = getattr(result, "derived", None)
    memo = graph._walk_memo
    if (derived is not None and derived.shape == graph.shape
            and (memo is None or memo[0] != derived.shape)):
        _attach_walk(graph, derived.walk)
    return _cached_walk(graph)


def _top_resources(walk: _Walk) -> list[dict[str, Any]]:
    return [{
        "resource": name,
        "critical_cycles": walk.resources[name]["critical_cycles"],
        "share": walk.resources[name]["share"],
        "min_slack": walk.resources[name]["min_slack"],
    } for name in walk.ranked[:3]]


def _segments(graph: EventGraph, walk: _Walk) -> list[dict[str, Any]]:
    """One report dict per path edge, with its leaf attribution."""
    path = np.array(walk.path, dtype=np.intp)
    src = np.asarray(graph.edge_src)[path]
    dst = np.asarray(graph.edge_dst)[path]
    kinds = np.asarray(graph.node_kind)
    indices = np.asarray(graph.node_index)
    times = np.asarray(graph.node_t)
    labels = graph.node_label

    def points(nodes: np.ndarray) -> list[dict[str, Any]]:
        return [{"id": node, "kind": NODE_KINDS[kind], "index": index,
                 "t": t, "label": labels[node]}
                for node, kind, index, t in zip(
                    nodes.tolist(), kinds[nodes].tolist(),
                    indices[nodes].tolist(), times[nodes].tolist())]

    # Each edge's leaves in name order: the cells are sorted so.
    leaves: list[dict[str, float]] = [{} for _ in walk.path]
    names = walk.leaf_names
    for index, name, value in zip(walk.cell_row.tolist(),
                                  walk.cell_leaf.tolist(),
                                  walk.cell_cycles.tolist()):
        leaves[index][names[name]] = value
    return [{
        "src": src_point,
        "dst": dst_point,
        "type": EDGE_TYPES[type],
        "weight": weight,
        "elapsed": elapsed,
        "leaves": seg_leaves,
    } for src_point, dst_point, type, weight, elapsed, seg_leaves in zip(
        points(src), points(dst),
        np.asarray(graph.edge_type)[path].tolist(),
        np.asarray(graph.edge_weight)[path].tolist(),
        walk.elapsed.tolist(), leaves)]


def critpath_summary(result: "RunResult") -> dict[str, Any] | None:
    """Compact critical-path block for profile reports and history
    lines; ``None`` when the run recorded no event graph."""
    graph = getattr(result, "event_graph", None)
    if graph is None or not graph.nodes:
        return None
    walk = _result_walk(result)
    top = _top_resources(walk)
    return {
        "path_cycles": walk.path_cycles,
        "binding_resource": top[0]["resource"] if top else None,
        "top_resources": top,
        "unattributed_cycles": walk.leaves.get(UNATTRIBUTED_LEAF, 0.0),
    }


def partial_critpath_summary(graph: "EventGraph | None"
                             ) -> dict[str, Any] | None:
    """Best-effort attribution for an *unfinished* run.

    A killed or stuck run has no end node, so no path can be
    extracted; what the graph does hold is every timing constraint
    recorded so far.  Summing recorded edge weights per resource
    (and per profile leaf) says which resource had consumed the most
    constrained cycles when the run died -- the watchdog attaches
    this to its :class:`~repro.core.watchdog.DiagnosticBundle` so a
    livelock report names a suspect, not just a cycle count.
    """
    if graph is None or not graph.edge_src:
        return None
    code = np.asarray(graph.edge_type)
    weight = np.asarray(graph.edge_weight, dtype=float)
    details = graph.edge_detail
    resource, resource_ids = _edge_resources(code, details)
    kept = np.flatnonzero(resource >= 0)
    if not len(kept):
        return None
    # Sums in edge order (a weighted bincount is sequential).
    owner = resource[kept]
    totals = np.bincount(owner, weights=weight[kept],
                         minlength=len(resource_ids)).tolist()
    counted = np.bincount(owner, minlength=len(resource_ids))
    resources = {name: totals[rid] for name, rid in resource_ids.items()
                 if counted[rid]}
    # Each edge's leaves, as if its whole weight had elapsed.
    leaf_names, leaf_cycles, leaf_present = _attribute(
        code[kept], weight[kept], weight[kept],
        [details.get(edge, _NO_DETAIL) for edge in kept.tolist()])
    row, column = np.nonzero(leaf_present)
    leaves = dict(zip(leaf_names, np.bincount(
        column, weights=leaf_cycles[row, column],
        minlength=len(leaf_names)).tolist()))
    ranked = sorted(resources,
                    key=lambda name: (-resources[name], name))
    top = graph.edge(int(kept[np.argmax(weight[kept])]))
    return {
        "kind": "partial",
        "edges": len(graph.edge_src),
        "binding_resource": ranked[0],
        "resource_cycles": {name: resources[name]
                            for name in ranked},
        "top_segment": {
            "type": top.type,
            "weight": top.weight,
            "resource": _edge_resource(top.type, top.detail),
        },
        "top_leaves": {
            leaf: leaves[leaf]
            for leaf in sorted(leaves,
                               key=lambda key: (-leaves[key],
                                                key))[:5]},
    }


def build_critpath(result: "RunResult") -> dict[str, Any]:
    """Full ``repro.critpath-report/1`` for a finished run, including
    the conservation and profile-bounds cross-checks.

    Deterministic for a given run: maps are emitted in sorted or
    rank order and nothing wall-clock dependent is included.
    """
    from repro.obs.profile import profile_components, stored_profile

    graph = getattr(result, "event_graph", None)
    if graph is None or not graph.nodes:
        raise CritpathError(
            f"run {result.name!r} carries no event graph (produced "
            f"by an older simulator build?)")
    walk = _result_walk(result)
    total = float(result.metrics.total_cycles)
    path_cycles = walk.path_cycles
    residual = abs(path_cycles - total)
    conservation_ok = residual <= PATH_TOLERANCE * max(total, 1.0)

    profile = stored_profile(result)
    bounds = _profile_bounds(
        walk.leaves, (profile["components"] if profile is not None
                      else profile_components(result)), total)

    manifest = result.manifest
    return {
        "schema": CRITPATH_SCHEMA,
        "kind": "run",
        "program": result.name,
        "board_mode": result.board.mode,
        "request_digest": (manifest.request_digest
                           if manifest is not None else None),
        "total_cycles": total,
        "path_cycles": path_cycles,
        "graph": {"nodes": len(graph.node_label),
                  "edges": len(graph.edge_src)},
        "segments": _segments(graph, walk),
        "critical_leaves": dict(walk.leaves),
        "critical_edge_types": dict(walk.edge_types),
        "memory_driver": dict(walk.memory_driver),
        "resources": {name: dict(entry)
                      for name, entry in walk.resources.items()},
        "top_resources": _top_resources(walk),
        "unattributed_cycles": walk.leaves.get(UNATTRIBUTED_LEAF, 0.0),
        "checks": {
            "conservation": {
                "ok": conservation_ok,
                "path_cycles": path_cycles,
                "total_cycles": total,
                "residual": residual,
            },
            "profile_bounds": bounds,
        },
    }


def _profile_bounds(critical_leaves: dict[str, float],
                    components: dict[str, dict[str, Any]], total: float
                    ) -> dict[str, Any]:
    """Cross-validate: critical cycles per leaf cannot exceed the
    cycles the profile tree attributes to that leaf."""
    tolerance = 1e-6 * max(total, 1.0) + 1e-6
    checked = 0
    violations = []
    for leaf, critical in critical_leaves.items():
        if leaf == UNATTRIBUTED_LEAF:
            continue
        component, side, name = leaf.split(".", 2)
        tree = components.get(component, {}).get(side, {})
        if name not in tree:
            violations.append({"leaf": leaf, "critical": critical,
                               "bound": None,
                               "reason": "leaf missing from profile"})
            continue
        checked += 1
        bound = float(tree[name])
        if critical > bound + tolerance:
            violations.append({"leaf": leaf, "critical": critical,
                               "bound": bound,
                               "reason": "critical exceeds profile"})
    return {"ok": not violations, "checked": checked,
            "violations": violations}


def validate_critpath(report: Any) -> None:
    """Schema + conservation check for a critpath report; raises
    :class:`CritpathError`."""
    if not isinstance(report, dict):
        raise CritpathError("critpath report must be an object")
    if report.get("schema") != CRITPATH_SCHEMA:
        raise CritpathError(
            f"schema is {report.get('schema')!r}, expected "
            f"{CRITPATH_SCHEMA!r}")
    for key in ("total_cycles", "path_cycles", "segments",
                "critical_leaves", "resources", "checks"):
        if key not in report:
            raise CritpathError(f"critpath report missing {key!r}")
    checks = report["checks"]
    if not checks.get("conservation", {}).get("ok"):
        raise CritpathError(
            f"conservation check failed: path "
            f"{report['path_cycles']} vs total "
            f"{report['total_cycles']}")
    attributed = sum(report["critical_leaves"].values())
    if abs(attributed - report["path_cycles"]) > 1e-6 * max(
            report["path_cycles"], 1.0) + 1e-6:
        raise CritpathError(
            f"critical leaves sum to {attributed}, path is "
            f"{report['path_cycles']}")


def render_critpath(report: dict[str, Any]) -> str:
    """Human-readable view: binding resources, leaves, checks."""
    from repro.analysis.report import render_table

    total = max(report["total_cycles"], 1e-30)
    lines = [
        f"critical path of {report['program']} "
        f"({report['board_mode']}): {report['path_cycles']:.0f} of "
        f"{report['total_cycles']:.0f} cycles over "
        f"{len(report['segments'])} segments",
    ]
    rows = [[entry["resource"],
             f"{entry['critical_cycles']:.0f}",
             f"{entry['share'] * 100:.1f}%",
             f"{entry['min_slack']:.0f}"]
            for entry in report["top_resources"]]
    lines.append(render_table(
        "Binding resources",
        ["resource", "critical cycles", "share", "min slack"], rows))
    leaf_rows = [[leaf, f"{cycles:.0f}",
                  f"{cycles / total * 100:.1f}%"]
                 for leaf, cycles
                 in report["critical_leaves"].items()]
    lines.append(render_table(
        "Critical cycles by cause leaf",
        ["leaf", "cycles", "of total"], leaf_rows))
    checks = report["checks"]
    conservation = checks["conservation"]
    lines.append(
        f"conservation: "
        f"{'ok' if conservation['ok'] else 'FAILED'} "
        f"(residual {conservation['residual']:.3g} cycles); "
        f"profile bounds: "
        f"{'ok' if checks['profile_bounds']['ok'] else 'VIOLATED'} "
        f"({checks['profile_bounds']['checked']} leaves checked)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# What-if projection.
# ----------------------------------------------------------------------
def parse_scales(spec: str) -> dict[str, float]:
    """Parse ``"dram=2x,ags=3"`` into ``{"dram": 2.0, "ags": 3.0}``.

    A trailing ``x`` marks a speed factor; for ``ags`` the value is a
    lane *count*.  Unknown resources raise :class:`CritpathError`.
    """
    scales: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        name = name.strip().lower()
        if not sep or not value.strip():
            raise CritpathError(
                f"bad scale {part!r}: expected NAME=FACTOR "
                f"(e.g. dram=2x)")
        try:
            factor = float(value.strip().lower().rstrip("x"))
        except ValueError:
            raise CritpathError(
                f"bad scale factor in {part!r}") from None
        if not math.isfinite(factor) or factor <= 0:
            raise CritpathError(
                f"scale factor must be positive, got {part!r}")
        if name not in KNOWN_SCALES:
            raise CritpathError(
                f"unknown resource {name!r}; choose from "
                f"{', '.join(KNOWN_SCALES)}")
        scales[name] = factor
    if not scales:
        raise CritpathError("empty scale spec")
    return scales


def _scaled_weights(graph: EventGraph, scales: dict[str, float]
                    ) -> np.ndarray:
    """Per-edge scaled weights; ``-inf`` drops an edge entirely (it
    can never set an arrival)."""
    num_ags = int(graph.meta.get("num_ags", 0))
    host_rate = float(graph.meta.get("host_issue_cycles", 0.0))
    dram = scales.get("dram", 1.0)
    host = scales.get("host", 1.0)
    microcode = scales.get("microcode", 1.0)
    srf = scales.get("srf", 1.0)
    clusters = scales.get("clusters", 1.0)
    code = np.asarray(graph.edge_type)
    weight = np.array(graph.edge_weight)
    raw, details = graph.edge_weight, graph.edge_detail

    def of(type: str) -> np.ndarray:
        return code == EDGE_CODE[type]

    if scales.get("ags", 0.0) > num_ags > 0:
        weight[of(EDGE_AG_BUSY)] = -np.inf
    # Only the pure host-rate spacing of a host issue scales with
    # MIPS; any excess in the gap is blocked/back-off time a faster
    # host cannot shrink.
    issue = of(EDGE_HOST_ISSUE)
    gaps = weight[issue]
    if host_rate > 0.0:
        pure = np.minimum(gaps, host_rate)
        weight[issue] = pure / host + (gaps - pure)
    else:
        weight[issue] = gaps / host
    weight[of(EDGE_MICROCODE_LOAD)] /= microcode
    for edge in np.flatnonzero(of(EDGE_KERNEL_EXEC)).tolist():
        detail = details.get(edge, _NO_DETAIL)
        busy = (float(detail.get("operations", 0.0))
                + float(detail.get("main_loop_overhead", 0.0))
                + float(detail.get("non_main_loop", 0.0)))
        stall = float(detail.get("stall", 0.0))
        load = float(detail.get("microcode", 0.0))
        parts = busy + stall + load
        rest = max(raw[edge] - parts, 0.0)
        weight[edge] = (busy / clusters + stall / srf
                        + load / microcode + rest)
    if dram == 1.0:
        return weight
    for edge in np.flatnonzero(of(EDGE_MEM_STREAM)).tolist():
        detail = details.get(edge, _NO_DETAIL)
        w = raw[edge]
        startup = min(float(detail.get("startup", 0.0)), w)
        d = float(detail.get("dram_cycles", 0.0))
        a = float(detail.get("ag_cycles", 0.0))
        # Scaling the DRAM clock also scales the controller port
        # (mem_peak_words_per_cycle = channels / clock_ratio).
        c = float(detail.get("controller_cycles", 0.0))
        base = max(d, a, c)
        if base > 0.0:
            scaled = max(d / dram, a, c / dram)
            weight[edge] = startup + (w - startup) * scaled / base
    return weight


def _replay(graph: EventGraph, weight: np.ndarray) -> float:
    """Forward-propagate node times over the DAG under ``weight``.

    Edges are visited in destination order (creation order within a
    destination), so every source time is final before it is read.
    """
    order = np.argsort(np.asarray(graph.edge_dst), kind="stable")
    times = [0.0] * len(graph.node_label)
    for src, dst, w in zip(np.asarray(graph.edge_src)[order].tolist(),
                           np.asarray(graph.edge_dst)[order].tolist(),
                           weight[order].tolist()):
        arrival = times[src] + w
        if arrival > times[dst]:
            times[dst] = arrival
    return times[graph.end.ident]


def project_whatif(graph: EventGraph, scales: dict[str, float]
                   ) -> dict[str, Any]:
    """Replay the DAG with scaled weights and predict the speedup.

    The unscaled replay calibrates the projection: any structural
    error in the recorded constraints (shared-resource rate changes
    the replay cannot see) shows up as ``replay_fidelity`` != 1 and
    is divided out of the prediction.
    """
    unknown = set(scales) - set(KNOWN_SCALES)
    if unknown:
        raise CritpathError(
            f"unknown resource(s) {sorted(unknown)}; choose from "
            f"{', '.join(KNOWN_SCALES)}")
    total = float(graph.meta.get("total_cycles", graph.end.t))
    baseline = _replay(graph, np.asarray(graph.edge_weight))
    scaled = _replay(graph, _scaled_weights(graph, scales))
    calibration = total / baseline if baseline > 0 else 1.0
    predicted = scaled * calibration
    return {
        "baseline_cycles": total,
        "replay_cycles": baseline,
        "replay_fidelity": baseline / total if total > 0 else 1.0,
        "scaled_replay_cycles": scaled,
        "predicted_cycles": predicted,
        "predicted_speedup": (total / predicted
                              if predicted > 0 else math.inf),
    }


def whatif_configs(machine: "MachineConfig", board: "BoardConfig",
                   scales: dict[str, float]
                   ) -> "tuple[MachineConfig, BoardConfig]":
    """Map a scaling spec onto a real machine/board change for
    validation reruns.  Raises :class:`CritpathError` for scalings
    the simulator cannot realise (``clusters``, fractional DRAM
    ratios, AG counts below the recorded machine)."""
    from dataclasses import replace

    for name in sorted(scales):
        factor = scales[name]
        if name == "dram":
            ratio = machine.dram.clock_ratio / factor
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise CritpathError(
                    f"dram={factor:g}x needs an integer clock ratio; "
                    f"{machine.dram.clock_ratio} / {factor:g} is not")
            machine = replace(
                machine,
                dram=replace(machine.dram,
                             clock_ratio=int(round(ratio))))
        elif name == "ags":
            count = int(round(factor))
            if count < 1 or abs(count - factor) > 1e-9:
                raise CritpathError(
                    f"ags={factor:g} must be a positive lane count")
            machine = replace(machine, num_ags=count)
        elif name == "host":
            board = board.with_host_mips(board.host_mips * factor)
        elif name == "microcode":
            machine = replace(
                machine,
                microcode_load_cycles_per_word=(
                    machine.microcode_load_cycles_per_word / factor))
        elif name == "srf":
            machine = replace(
                machine,
                srf_prime_cycles=max(
                    0, int(round(machine.srf_prime_cycles / factor))))
        else:
            raise CritpathError(
                f"a {name!r} scaling cannot be validated by rerun "
                f"(predict-only)")
    return machine, board


def build_whatif(result: "RunResult", scales: dict[str, float],
                 validated: "RunResult | None" = None
                 ) -> dict[str, Any]:
    """One ``repro.whatif-report/1`` document: the projection, plus
    measured speedup and prediction error when a validation rerun is
    supplied."""
    graph = getattr(result, "event_graph", None)
    if graph is None or not graph.nodes:
        raise CritpathError(
            f"run {result.name!r} carries no event graph")
    projection = project_whatif(graph, scales)
    report: dict[str, Any] = {
        "schema": WHATIF_SCHEMA,
        "program": result.name,
        "board_mode": result.board.mode,
        "request_digest": (result.manifest.request_digest
                           if result.manifest is not None else None),
        "scales": {name: scales[name] for name in sorted(scales)},
        **projection,
        "validated": False,
    }
    if validated is not None:
        actual = float(validated.metrics.total_cycles)
        report["validated"] = True
        report["actual_cycles"] = actual
        report["actual_speedup"] = (
            projection["baseline_cycles"] / actual if actual > 0
            else math.inf)
        report["prediction_error"] = (
            abs(projection["predicted_cycles"] - actual) / actual
            if actual > 0 else math.inf)
    return report


def render_whatif(report: dict[str, Any]) -> str:
    """One-paragraph human-readable projection summary."""
    scales = ", ".join(f"{name}={factor:g}"
                       for name, factor in report["scales"].items())
    lines = [
        f"what-if {scales} on {report['program']} "
        f"({report['board_mode']}): "
        f"{report['baseline_cycles']:.0f} -> "
        f"{report['predicted_cycles']:.0f} predicted cycles "
        f"(speedup {report['predicted_speedup']:.2f}x, replay "
        f"fidelity {report['replay_fidelity'] * 100:.2f}%)",
    ]
    if report["validated"]:
        lines.append(
            f"validated: {report['actual_cycles']:.0f} actual cycles "
            f"(speedup {report['actual_speedup']:.2f}x); prediction "
            f"error {report['prediction_error'] * 100:.2f}%")
    else:
        lines.append("not validated against a rerun (--validate)")
    return "\n".join(lines)


__all__ = [
    "CRITPATH_SCHEMA",
    "WHATIF_SCHEMA",
    "KNOWN_SCALES",
    "UNATTRIBUTED_LEAF",
    "CritpathError",
    "EventGraph",
    "GraphEdge",
    "GraphNode",
    "build_critpath",
    "build_whatif",
    "critpath_summary",
    "parse_scales",
    "partial_critpath_summary",
    "project_whatif",
    "render_critpath",
    "render_whatif",
    "validate_critpath",
    "walk_columns",
    "whatif_configs",
]
