"""Unified observability layer: metrics, trace, timelines, spans.

The one import site for instrumentation: endpoints take a
:class:`Telemetry` handle (defaulting to the no-op :data:`NULL_TELEMETRY`)
and emit lifecycle events, metrics, per-path samples, and causal spans
through it.  :class:`RunAggregate` is the mergeable fleet-rollup
primitive.  See ``docs/telemetry.md``.
"""

from .aggregate import (
    STAGES,
    RunAggregate,
    decompose_spans,
    worst_frames,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .spans import NULL_SPANS, NullSpanRecorder, Span, SpanRecorder
from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry
from .timeline import DEFAULT_SAMPLE_INTERVAL, PathSample, PathTimelineSampler, sample_path
from .trace import (
    ACK,
    APP_IN,
    CC_LOSS,
    DECODED,
    EVENT_KINDS,
    EXPIRED,
    INGRESS_DROP,
    LINK_DROP,
    QOE_LOSS,
    RANGE_FORMED,
    RECOVERY_TX,
    SCHEDULED,
    TX,
    TraceBuffer,
    TraceEvent,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Span",
    "SpanRecorder",
    "NullSpanRecorder",
    "NULL_SPANS",
    "RunAggregate",
    "STAGES",
    "decompose_spans",
    "worst_frames",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "TraceBuffer",
    "TraceEvent",
    "PathSample",
    "PathTimelineSampler",
    "sample_path",
    "DEFAULT_SAMPLE_INTERVAL",
    "EVENT_KINDS",
    "APP_IN",
    "INGRESS_DROP",
    "SCHEDULED",
    "TX",
    "ACK",
    "QOE_LOSS",
    "CC_LOSS",
    "RANGE_FORMED",
    "RECOVERY_TX",
    "DECODED",
    "EXPIRED",
    "LINK_DROP",
    "read_jsonl",
    "write_jsonl",
]
