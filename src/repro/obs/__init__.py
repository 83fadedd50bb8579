"""Unified observability: tracing and metrics primitives.

See ``docs/OBSERVABILITY.md`` for the span taxonomy, the metrics
glossary and how to open an exported trace in Perfetto.
"""

from repro.obs.metrics import Gauge, Histogram
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Gauge",
    "Histogram",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
