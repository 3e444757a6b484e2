"""Metric registry: counters, gauges, and histograms for the hot paths.

Producers never format or export anything; they bump plain Python ints.
Two access patterns keep the hot paths honest:

* **Guarded call sites** — ordinary code checks :func:`metrics_enabled`
  once per coarse event (a run, a frame, a serialization) and then calls
  ``registry.counter(name).inc(n)``.
* **Boxed cells for generated code** — the compiled engine bakes
  ``cell[0] += k`` statements into its generated functions, where
  ``cell`` is :attr:`Counter.cell`, a one-element list shared with the
  registry. Codegen only emits those statements into units built with
  metrics enabled, so a disabled run executes source with no counting
  statement — zero overhead by construction.

Metric names are dotted strings (``fastpath.known_hits``,
``shadow.stale_evictions``, ``compress.dict_hits``); the taxonomy is
documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations


class Counter:
    """Monotonic counter. ``cell`` is the boxed int for generated code."""

    __slots__ = ("name", "cell")

    def __init__(self, name: str):
        self.name = name
        self.cell: list = [0]

    @property
    def value(self) -> int:
        return self.cell[0]

    def inc(self, amount: int = 1) -> None:
        self.cell[0] += amount

    def reset(self) -> None:
        self.cell[0] = 0


class Gauge:
    """Last-write-wins scalar (ratios, utilizations, throughputs)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Summary statistics over recorded observations (no buckets needed)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Name → metric map; creation is idempotent, iteration is sorted."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    def to_dict(self) -> dict:
        """JSON-serializable snapshot with sorted, stable key order."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    def reset(self) -> None:
        for metric in self._counters.values():
            metric.reset()
        for metric in self._gauges.values():
            metric.reset()
        for metric in self._histograms.values():
            metric.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


_registry = MetricsRegistry()
_enabled = False


def metrics_enabled() -> bool:
    """Hot-path guard: should producers feed the registry?"""
    return _enabled


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (always available; may be disabled)."""
    return _registry


def set_metrics(
    registry: MetricsRegistry | None = None, enabled: bool = True
) -> tuple[MetricsRegistry, bool]:
    """Install a registry + enabled flag; returns the previous pair."""
    global _registry, _enabled
    previous = (_registry, _enabled)
    if registry is not None:
        _registry = registry
    _enabled = enabled
    return previous


class collecting_metrics:
    """Context manager: collect into a (fresh) registry for a scope.

    ::

        with collecting_metrics() as metrics:
            profile, run = session.profile(program)
        print(metrics.to_dict()["counters"]["fastpath.known_hits"])
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous: tuple[MetricsRegistry, bool] | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_metrics(self.registry, enabled=True)
        return self.registry

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._previous is not None
        set_metrics(self._previous[0], enabled=self._previous[1])
