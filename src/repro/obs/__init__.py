"""Pipeline observability: structured tracing, metrics, self-profiling.

Kremlin's whole pitch is gprof-style visibility into *other* programs;
this package turns the same lens on the pipeline itself (frontend →
instrument → interp/codegen → KremLib HCPA → compress → plan), in the
spirit of GAPP and TaskProf: when a profile run is slow you should be able
to see *which stage* the wall-clock went to and what the hot-path counters
were doing, without re-running under an external profiler.

Three zero-dependency pieces:

* :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer`: nested,
  deterministic-under-a-fake-clock spans around each pipeline stage
  (``lex``, ``parse``, ``lower``, ``verify``, ``instrument``, ``prepare``,
  ``run``, ``hcpa-finalize``, ``compress``, ``aggregate``, ``plan``, ...);
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms fed
  from the hot paths (fast-path hit/miss in the compiled engine, shadow
  slot allocations/evictions, dictionary-compressor hit ratio, bytes
  serialized, instructions retired per engine);
* :mod:`repro.obs.export` — exporters: a human-readable span tree, JSON
  lines, and the Chrome ``trace_event`` format loadable in
  ``about:tracing`` / Perfetto.

Overhead contract
-----------------
Disabled observability must be (nearly) free. Two mechanisms enforce it:

* spans are only placed at **stage granularity** — never per retired
  instruction — and the disabled path is a module-level singleton
  :class:`~repro.obs.trace.NullTracer` whose ``span()`` returns a cached
  no-op context manager;
* hot-path counters in the compiled engine are **codegen-time gated**:
  the increment lines are emitted only into units built with metrics
  enabled, so a disabled run executes generated source with no counting
  statement at all — its overhead is zero by construction. An enabled
  run differs only by those increment lines (one per counter per
  segment flush), never by a different code path.

Profiles stay **byte-identical** with observability enabled: spans and
counters observe the pipeline, they never feed back into timestamps, work,
critical paths, or the compression dictionary (the differential fuzz
matrix is the oracle for this).
"""

from repro.obs.export import (
    chrome_trace,
    render_metrics,
    render_tree,
    spans_to_jsonl,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting_metrics,
    get_metrics,
    metrics_enabled,
    set_metrics,
)
from repro.obs.trace import (
    NULL_TRACER,
    FakeClock,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "NULL_TRACER",
    "Counter",
    "FakeClock",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "collecting_metrics",
    "get_metrics",
    "get_tracer",
    "metrics_enabled",
    "render_metrics",
    "render_tree",
    "set_metrics",
    "set_tracer",
    "spans_to_jsonl",
    "tracing",
    "validate_chrome_trace",
]
