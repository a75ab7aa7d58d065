"""repro.faults — seeded fault injection, invariant checking, soak runs.

* :mod:`repro.faults.models` — composable RNG-seeded fault models: network
  loss (independent and Gilbert–Elliott bursty), reordering, duplication,
  deterministic drop schedules, and pin-service faults (transient ENOMEM,
  slow-pin jitter);
* :mod:`repro.faults.plan` — :class:`FaultPlan`, a declarative seed-derived
  bundle of the above, applied to a cluster in one call;
* :mod:`repro.faults.invariants` — the protocol invariant checker
  (liveness, integrity, pin accounting, leaked frames, notifiers);
* :mod:`repro.faults.chaos` and :mod:`repro.faults.torture` — the two
  seeded soaks, network storms and pin-path attacks, on one shared soak
  machinery in ``chaos`` (``python -m repro.faults.chaos --seed N``);
* :mod:`repro.faults.shrink` — the ``--until-failure`` hunt that shrinks a
  violating seed to a short repro command.
"""

from repro.faults.invariants import InvariantChecker, Violation
from repro.faults.models import (
    BernoulliLoss,
    Blackout,
    DropNth,
    Duplicate,
    FaultModel,
    FrameMatch,
    GilbertElliott,
    PeriodicDrop,
    PinFaults,
    Reorder,
    payload_kind,
)
from repro.faults.plan import AppliedFaultPlan, FaultPlan

__all__ = [
    "AppliedFaultPlan",
    "BernoulliLoss",
    "Blackout",
    "DropNth",
    "Duplicate",
    "FaultModel",
    "FaultPlan",
    "FrameMatch",
    "GilbertElliott",
    "InvariantChecker",
    "PeriodicDrop",
    "PinFaults",
    "Reorder",
    "Violation",
    "payload_kind",
]
