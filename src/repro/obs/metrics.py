"""Labeled metrics: Counter / Gauge / Histogram + Prometheus text.

The serving layer needs *live* observability: the PR 1 probe
registry describes one finished run, but a long-running
:class:`~repro.serve.service.ExperimentService` must be scrapeable
while load tests run.  This module is the stdlib-only metrics plane
under that:

* :class:`Counter`, :class:`Gauge` and :class:`Histogram` with
  **frozen label sets** -- the label *names* are declared at
  registration and every ``labels(...)`` call must bind exactly
  those names, so series cardinality is a reviewable constant;
* a thread-safe :class:`MetricsRegistry` with get-or-create
  registration (identical re-registration returns the same metric,
  a conflicting one raises), :meth:`~MetricsRegistry.snapshot` and
  :meth:`~MetricsRegistry.reset`;
* :func:`render_prometheus` -- Prometheus text exposition format
  v0.0.4, family names sorted and children ordered by label values,
  so two scrapes of identical state are **byte-identical**;
* :func:`parse_prometheus` -- the strict parser the tests and the CI
  soak job validate scrapes with;
* :func:`probes_from_metrics` -- the bridge into the PR 1
  :class:`~repro.obs.registry.ProbeRegistry` vocabulary.

Every metric carries a unit.  When none is passed explicitly the
name is looked up in :data:`repro.obs.registry.COUNTER_UNITS`; a
name missing from that vocabulary raises :class:`MetricError`, so an
unregistered unit fails tier-1 the moment the metric is built.

Histogram bucket boundaries are fixed at construction (defaults:
:data:`LATENCY_BUCKETS_MS`), so exposition output is deterministic
under seeded load -- the same observations always land in the same
buckets.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricError",
    "MetricsRegistry",
    "counter_count",
    "counter_totals",
    "parse_prometheus",
    "probes_from_metrics",
    "render_prometheus",
]

#: Content-Type for ``GET /metrics`` responses.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Fixed latency bucket upper bounds, in milliseconds.  Spanning
#: sub-millisecond artifact hits through multi-minute cold
#: simulations; fixed so seeded load produces deterministic bucket
#: assignment.
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0, 120000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"        # sample name
    r"(?:\{(.*)\})?"                       # optional label block
    r" (\S+)$")                            # value
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_KINDS = ("counter", "gauge", "histogram")


class MetricError(ValueError):
    """Bad metric name, label set, unit, or registration conflict."""


def _resolve_unit(name: str, unit: str | None) -> str:
    if unit is not None:
        return unit
    from repro.obs.registry import COUNTER_UNITS

    try:
        return COUNTER_UNITS[name]
    except KeyError:
        raise MetricError(
            f"metric {name!r} has no unit registered in "
            f"repro.obs.registry.COUNTER_UNITS and none was passed; "
            f"add one to the vocabulary") from None


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Deterministic sample formatting: integers bare, floats repr."""
    if value != value:                      # pragma: no cover - NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_le(bound: float) -> str:
    return "+Inf" if bound == math.inf else _fmt(bound)


class _Child:
    """One labeled series of a metric."""

    __slots__ = ("_lock", "value", "buckets", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] | None) -> None:
        self._lock = threading.Lock()
        self.value = 0.0
        if bounds is not None:
            self.buckets = [0] * len(bounds)
            self.sum = 0.0
            self.count = 0

    # Counter / Gauge -------------------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counter series cannot decrease")
        super().inc(amount)


class _HistogramChild(_Child):
    __slots__ = ("_bounds",)

    def __init__(self, bounds: tuple[float, ...]) -> None:
        super().__init__(bounds)
        self._bounds = bounds

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self._bounds):
                if value <= bound:
                    self.buckets[index] += 1
                    break

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts, one per bound (last == count)."""
        total = 0
        out = []
        for n in self.buckets:
            total += n
            out.append(total)
        return out

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile (the smallest
        bucket boundary whose cumulative count covers ``q`` of the
        observations); 0.0 on an empty series."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        for bound, cum in zip(self._bounds, self.cumulative()):
            if cum >= rank:
                return bound
        return self._bounds[-1]


class Metric:
    """A named metric family with a frozen label-name set."""

    kind = "untyped"
    _child_cls: type = _Child

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str] = (),
                 unit: str | None = None,
                 buckets: Sequence[float] | None = None) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"bad metric name {name!r}")
        label_names = tuple(label_names)
        for label in label_names:
            if not _LABEL_RE.match(label) or label == "le":
                raise MetricError(
                    f"bad label name {label!r} on metric {name!r}")
        if len(set(label_names)) != len(label_names):
            raise MetricError(
                f"duplicate label names on metric {name!r}")
        self.name = name
        self.help = help
        self.unit = _resolve_unit(name, unit)
        self.label_names = label_names
        self._bounds: tuple[float, ...] | None = None
        if self.kind == "histogram":
            bounds = tuple(float(b) for b in
                           (buckets if buckets is not None
                            else LATENCY_BUCKETS_MS))
            if list(bounds) != sorted(bounds) or len(set(bounds)) \
                    != len(bounds):
                raise MetricError(
                    f"histogram {name!r} buckets must be strictly "
                    f"increasing")
            if not bounds or bounds[-1] != math.inf:
                bounds = bounds + (math.inf,)
            self._bounds = bounds
        elif buckets is not None:
            raise MetricError(
                f"buckets are only valid on histograms ({name!r})")
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], _Child] = {}

    # ------------------------------------------------------------------
    def signature(self) -> tuple:
        return (self.kind, self.label_names, self.unit, self._bounds)

    def labels(self, **labels: str) -> Any:
        """The child series for exactly this metric's label names."""
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes labels "
                f"{list(self.label_names)}, got {sorted(labels)}")
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = (_HistogramChild(self._bounds)
                             if self._bounds is not None
                             else self._child_cls(None))
                    self._children[key] = child
        return child

    def _default(self) -> Any:
        if self.label_names:
            raise MetricError(
                f"metric {self.name!r} is labeled "
                f"({list(self.label_names)}); call .labels(...)")
        return self.labels()

    def children(self) -> Iterator[tuple[tuple[str, ...], _Child]]:
        """Children sorted by label values (deterministic)."""
        with self._lock:
            items = sorted(self._children.items())
        return iter(items)

    def reset(self) -> None:
        with self._lock:
            self._children.clear()


class Counter(Metric):
    """Monotonically increasing count (enforced per child series)."""

    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)


class Gauge(Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)


class Histogram(Metric):
    """Observations bucketed at fixed boundaries."""

    kind = "histogram"

    def observe(self, value: float) -> None:
        self._default().observe(value)


class MetricsRegistry:
    """Thread-safe, name-unique collection of metric families.

    Registration is get-or-create: asking again with the same
    signature (kind, labels, unit, buckets) returns the existing
    family -- that is what lets every worker-thread engine session
    share the service's registry -- while a conflicting signature
    raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------
    def _register(self, cls: type, name: str, help: str,
                  labels: Sequence[str], unit: str | None,
                  buckets: Sequence[float] | None = None) -> Any:
        candidate = (cls(name, help, labels, unit, buckets)
                     if cls is Histogram
                     else cls(name, help, labels, unit))
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                self._metrics[name] = candidate
                return candidate
            if (type(existing) is cls
                    and existing.signature() == candidate.signature()):
                return existing
            raise MetricError(
                f"metric {name!r} already registered with a "
                f"different signature ({existing.signature()} vs "
                f"{candidate.signature()})")

    def counter(self, name: str, help: str,
                labels: Sequence[str] = (),
                unit: str | None = None) -> Counter:
        return self._register(Counter, name, help, labels, unit)

    def gauge(self, name: str, help: str,
              labels: Sequence[str] = (),
              unit: str | None = None) -> Gauge:
        return self._register(Gauge, name, help, labels, unit)

    def histogram(self, name: str, help: str,
                  labels: Sequence[str] = (),
                  unit: str | None = None,
                  buckets: Sequence[float] | None = None) -> Histogram:
        return self._register(Histogram, name, help, labels, unit,
                              buckets)

    # ------------------------------------------------------------------
    # Inspection.
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Metric:
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def collect(self) -> Iterator[Metric]:
        """Families in name order (the exposition order)."""
        with self._lock:
            families = [self._metrics[name]
                        for name in sorted(self._metrics)]
        return iter(families)

    def snapshot(self) -> dict[str, dict]:
        """Deterministic ``name -> {type, help, unit, samples}``."""
        out: dict[str, dict] = {}
        for metric in self.collect():
            samples = []
            for key, child in metric.children():
                labels = dict(zip(metric.label_names, key))
                if metric.kind == "histogram":
                    assert isinstance(child, _HistogramChild)
                    samples.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            _fmt_le(bound): cum
                            for bound, cum in zip(child._bounds,
                                                  child.cumulative())},
                    })
                else:
                    samples.append({"labels": labels,
                                    "value": child.value})
            out[metric.name] = {"type": metric.kind,
                                "help": metric.help,
                                "unit": metric.unit,
                                "samples": samples}
        return out

    def reset(self) -> None:
        """Zero every family (registrations survive)."""
        for metric in self.collect():
            metric.reset()

    def render(self) -> str:
        return render_prometheus(self)


def _labels_text(names: Sequence[str], values: Sequence[str],
                 extra: str | None = None) -> str:
    pairs = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(names, values)]
    if extra is not None:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format v0.0.4.

    Families are name-sorted and children label-sorted, so rendering
    the same registry state twice is byte-identical -- the contract
    the CI soak job's ``cmp`` of idle scrapes rests on.
    """
    lines: list[str] = []
    for metric in registry.collect():
        lines.append(f"# HELP {metric.name} "
                     f"{_escape_help(metric.help)} "
                     f"(unit: {metric.unit})")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for key, child in metric.children():
            if metric.kind == "histogram":
                assert isinstance(child, _HistogramChild)
                for bound, cum in zip(child._bounds,
                                      child.cumulative()):
                    extra = f'le="{_fmt_le(bound)}"'
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_labels_text(metric.label_names, key, extra)}"
                        f" {_fmt(cum)}")
                base = _labels_text(metric.label_names, key)
                lines.append(f"{metric.name}_sum{base} "
                             f"{_fmt(child.sum)}")
                lines.append(f"{metric.name}_count{base} "
                             f"{_fmt(child.count)}")
            else:
                lines.append(
                    f"{metric.name}"
                    f"{_labels_text(metric.label_names, key)} "
                    f"{_fmt(child.value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Strict parsing (tests + the CI scrape validation).
# ----------------------------------------------------------------------
class ExpositionError(ValueError):
    """The text does not conform to the exposition format."""


def _parse_labels(blob: str | None) -> dict[str, str]:
    if not blob:
        return {}
    labels: dict[str, str] = {}
    rest = blob
    while rest:
        match = _LABEL_PAIR_RE.match(rest)
        if match is None:
            raise ExpositionError(f"bad label block {blob!r}")
        name, raw = match.groups()
        if name in labels:
            raise ExpositionError(f"duplicate label {name!r}")
        labels[name] = (raw.replace('\\"', '"')
                        .replace("\\n", "\n").replace("\\\\", "\\"))
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise ExpositionError(f"bad label block {blob!r}")
    return labels


def parse_prometheus(text: str) -> dict[str, dict]:
    """Strictly parse exposition text; raise :class:`ExpositionError`
    on anything malformed.

    Enforces the exporter's guarantees: every family announced by a
    ``# HELP`` + ``# TYPE`` pair before its samples, known types,
    family names in strictly sorted order, parseable finite values,
    and per-histogram coherence (cumulative buckets non-decreasing,
    ``+Inf`` bucket == ``_count``).  Returns
    ``name -> {type, help, samples: [{name, labels, value}]}``.
    """
    if not text.endswith("\n"):
        raise ExpositionError("exposition must end with a newline")
    families: dict[str, dict] = {}
    current: str | None = None
    pending_help: str | None = None
    last_name = ""
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            raise ExpositionError(f"line {number}: blank line")
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = parts[0]
            if name in families:
                raise ExpositionError(
                    f"line {number}: duplicate family {name!r}")
            if name <= last_name:
                raise ExpositionError(
                    f"line {number}: family {name!r} out of sorted "
                    f"order (after {last_name!r})")
            pending_help = parts[1] if len(parts) > 1 else ""
            current = name
            last_name = name
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2 or parts[0] != current:
                raise ExpositionError(
                    f"line {number}: TYPE must follow HELP for the "
                    f"same family")
            if parts[1] not in _KINDS:
                raise ExpositionError(
                    f"line {number}: unknown type {parts[1]!r}")
            families[parts[0]] = {"type": parts[1],
                                  "help": pending_help or "",
                                  "samples": []}
            pending_help = None
            continue
        if line.startswith("#"):
            raise ExpositionError(
                f"line {number}: unknown comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionError(f"line {number}: bad sample {line!r}")
        sample_name, label_blob, raw_value = match.groups()
        if current is None or current not in families:
            raise ExpositionError(
                f"line {number}: sample before any family header")
        family = families[current]
        allowed = {current}
        if family["type"] == "histogram":
            allowed = {current + "_bucket", current + "_sum",
                       current + "_count"}
        if sample_name not in allowed:
            raise ExpositionError(
                f"line {number}: sample {sample_name!r} does not "
                f"belong to family {current!r}")
        if raw_value == "+Inf":
            value = math.inf
        else:
            try:
                value = float(raw_value)
            except ValueError:
                raise ExpositionError(
                    f"line {number}: bad value {raw_value!r}") from None
        if value != value:
            raise ExpositionError(f"line {number}: NaN value")
        family["samples"].append({"name": sample_name,
                                  "labels": _parse_labels(label_blob),
                                  "value": value})
    _check_histograms(families)
    return families


def _check_histograms(families: Mapping[str, dict]) -> None:
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        series: dict[tuple, dict[str, float]] = {}
        counts: dict[tuple, float] = {}
        for sample in family["samples"]:
            labels = dict(sample["labels"])
            le = labels.pop("le", None)
            key = tuple(sorted(labels.items()))
            if sample["name"].endswith("_bucket"):
                if le is None:
                    raise ExpositionError(
                        f"{name}: bucket sample without 'le'")
                series.setdefault(key, {})[le] = sample["value"]
            elif sample["name"].endswith("_count"):
                counts[key] = sample["value"]
        for key, buckets in series.items():
            ordered = sorted(
                buckets.items(),
                key=lambda kv: (math.inf if kv[0] == "+Inf"
                                else float(kv[0])))
            values = [v for _, v in ordered]
            if values != sorted(values):
                raise ExpositionError(
                    f"{name}: cumulative buckets decrease")
            if "+Inf" not in buckets:
                raise ExpositionError(f"{name}: missing +Inf bucket")
            if key in counts and buckets["+Inf"] != counts[key]:
                raise ExpositionError(
                    f"{name}: +Inf bucket ({buckets['+Inf']}) != "
                    f"_count ({counts[key]})")


def counter_count(metrics: MetricsRegistry, name: str,
                  **labels: str) -> int:
    """The count in a counter family, summed over every series whose
    labels match ``labels`` (all series when none are given); 0 when
    the family is unregistered.  Read-only: unlike ``labels(...)`` it
    never creates a series, so reading leaves scrapes unchanged."""
    if name not in metrics:
        return 0
    metric = metrics.get(name)
    return int(sum(
        child.value for key, child in metric.children()
        if all(dict(zip(metric.label_names, key)).get(label) == value
               for label, value in labels.items())))


def counter_totals(families: Mapping[str, dict]) -> dict[str, float]:
    """Flatten a parsed exposition's counter samples to
    ``name{label="v",...} -> value`` -- the determinism surface the
    CI soak job compares across seeded reruns (counters are counted,
    not timed; histograms and gauges are excluded)."""
    totals: dict[str, float] = {}
    for name, family in sorted(families.items()):
        if family["type"] != "counter":
            continue
        for sample in family["samples"]:
            labels = ",".join(f'{k}="{v}"' for k, v in
                              sorted(sample["labels"].items()))
            totals[f"{name}{{{labels}}}"] = sample["value"]
    return totals


# ----------------------------------------------------------------------
# Bridge into the PR 1 probe registry.
# ----------------------------------------------------------------------
def probes_from_metrics(metrics: MetricsRegistry) -> Any:
    """Export a metrics registry as a :class:`ProbeRegistry`.

    Each counter/gauge child becomes one probe named
    ``<metric>{label=value,...}`` with the metric's unit (drawn from
    the shared ``COUNTER_UNITS`` vocabulary at registration time);
    histograms export their ``_count`` and ``_sum``.
    """
    from repro.obs.registry import ProbeRegistry

    registry = ProbeRegistry()
    for metric in metrics.collect():
        for key, child in metric.children():
            labels = ",".join(
                f"{name}={value}"
                for name, value in zip(metric.label_names, key))
            suffix = f"{{{labels}}}" if labels else ""
            base = f"{metric.name}{suffix}"
            if metric.kind == "histogram":
                registry.add(f"{base}.count", float(child.count),
                             "observations", metric.help)
                registry.add(f"{base}.sum", float(child.sum),
                             metric.unit, metric.help)
            else:
                registry.add(base, float(child.value), metric.unit,
                             metric.help)
    return registry
