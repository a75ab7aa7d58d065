"""Deterministic discrete-event simulation substrate."""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Race,
    SimulationError,
    Timeout,
)
from .resources import Request, Resource, Store
from .trace import summarize

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Race",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "summarize",
]
