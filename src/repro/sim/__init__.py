"""Unified discrete-event simulation kernel.

``repro.sim`` is the substrate both FL engines run on:

* :mod:`repro.sim.events` — the deterministic event queue;
* :mod:`repro.sim.kernel` — :class:`SimKernel`: clock, event queue,
  root + per-client RNG streams, and the transfer/compute accounting
  both engines share;
* :mod:`repro.sim.trace` — the typed :class:`EventTrace` telemetry bus
  with pluggable sinks (ring buffer, JSONL writer, streaming summary);
* :mod:`repro.sim.faults` — composable fault models (client crashes,
  payload corruption, stale/duplicate uploads, server outages) grouped
  into a :class:`FaultPlan`, all driven by kernel-derived RNG streams;
* :mod:`repro.sim.retry` — :class:`RetryPolicy`, the deterministic
  backoff/max-attempt schedule both engines use for transfer legs;
* :mod:`repro.sim.analysis` — per-client timelines, drop-reason
  breakdowns, and straggler attribution derived from recorded traces.

The package is deliberately FL-agnostic: nothing here imports
``repro.fl``.  The metrics reducer that folds a trace back into
``RoundRecord``/``RunResult`` lives in :mod:`repro.fl.metrics`.
"""

from repro.sim.analysis import (
    ClientTimeline,
    SummarySink,
    format_summary,
    load_trace,
    summarize_trace,
)
from repro.sim.events import Event, EventQueue
from repro.sim.faults import (
    ClientCrashModel,
    FaultPlan,
    PayloadCorruptionModel,
    ServerOutageModel,
    StaleUploadModel,
)
from repro.sim.kernel import LegResult, SimKernel
from repro.sim.retry import RetryPolicy
from repro.sim.trace import (
    AGGREGATED,
    COUNTED_DROP_REASONS,
    REJECTED_DROP_REASONS,
    DOWNLINK_END,
    DOWNLINK_START,
    DROP_REASONS,
    DROPPED,
    EVALUATED,
    EVENT_TYPES,
    EventTrace,
    HALTED,
    JsonlSink,
    RingBufferSink,
    RUN_END,
    RUN_START,
    SELECTED,
    TraceEvent,
    TRAIN_END,
    TRAIN_START,
    UPLINK_END,
    UPLINK_START,
    WOKEN,
)

__all__ = [
    "Event",
    "EventQueue",
    "SimKernel",
    "LegResult",
    "RetryPolicy",
    "FaultPlan",
    "ClientCrashModel",
    "PayloadCorruptionModel",
    "StaleUploadModel",
    "ServerOutageModel",
    "EventTrace",
    "TraceEvent",
    "RingBufferSink",
    "JsonlSink",
    "SummarySink",
    "ClientTimeline",
    "load_trace",
    "summarize_trace",
    "format_summary",
    "EVENT_TYPES",
    "DROP_REASONS",
    "COUNTED_DROP_REASONS",
    "REJECTED_DROP_REASONS",
    "RUN_START",
    "RUN_END",
    "SELECTED",
    "DOWNLINK_START",
    "DOWNLINK_END",
    "TRAIN_START",
    "TRAIN_END",
    "UPLINK_START",
    "UPLINK_END",
    "DROPPED",
    "HALTED",
    "WOKEN",
    "AGGREGATED",
    "EVALUATED",
]
