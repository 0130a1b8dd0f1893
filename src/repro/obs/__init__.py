"""Unified observability: structured tracing + metrics for the whole stack.

``repro.obs`` is a Layer-0 subsystem (it imports nothing else from the
package) that every other layer instruments itself with:

- :class:`~repro.obs.trace.Tracer` — per-rank append-only buffers of typed
  spans and instant events, virtual-time aware (any zero-arg clock,
  including a DES environment's ``now``), bounded memory with optional
  JSONL spill;
- :class:`~repro.obs.metrics.MetricsRegistry` — counters / gauges /
  histograms: the one record of every number a rank reports, which result
  structs read back as views;
- exporters — Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
  Perfetto), a per-rank/per-phase text summary, and a critical-path /
  straggler report that recomputes the paper's Fig. 5 utilisation numbers
  from the trace alone.

Tracing is zero-cost when disabled (the shared :data:`NULL_TRACER` answers
``enabled = False`` and every hot path is gated on that flag) and
bit-preserving when enabled: instrumentation only observes, never alters,
the data path.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SimClock,
    TickClock,
    Tracer,
    TraceSession,
    current_tracer,
    set_current_tracer,
)
from repro.obs.export import (
    assert_valid_chrome_trace,
    chrome_trace,
    text_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.report import (
    critical_path_report,
    phase_durations,
    shuffle_traffic,
    stage_breakdown,
    utilization_report,
)

__all__ = [
    "Tracer",
    "TraceSession",
    "NullTracer",
    "NULL_TRACER",
    "TickClock",
    "SimClock",
    "current_tracer",
    "set_current_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "assert_valid_chrome_trace",
    "text_summary",
    "critical_path_report",
    "phase_durations",
    "shuffle_traffic",
    "stage_breakdown",
    "utilization_report",
]
