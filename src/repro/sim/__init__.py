"""Deterministic discrete-event simulation substrate."""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Request, Resource, Store
from .trace import TraceRecord, Tracer, summarize

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "summarize",
]
