"""Soak seeds that pin the completion spin's holds to the golden digests.

``OmxLib._spin`` keeps its claim on the core across empty poll slices and
must end each hold where the slice loop would have given the core back.
Each seed below runs into a case a hold can get wrong, and the wrong hold
stalls the run or changes its digest:

* chaos 595: a ``cancel()`` during a hold, which must wake it;
* torture 60, 390, 460, 740, 863 and 884: a request that completed while
  its waiter was queued for the core, which must spin one plain slice;
* torture 77: a run whose digest moves when a hold ends at the wrong
  boundary.

Two waiters of one lib hold the core together in a *pair hold*.  Counted
over every golden soak and sharded seed, a pair hold ends by the doorbell
in the holder's or the partner's slice or by a kernel-priority claim's
wake at a boundary owned by either; none ends by a user-priority claim or
by a finished request, which ``tests/property/test_poll_spin_props.py``
covers instead.  The seeds below run into every one of those four ends:

* chaos 7 and torture 883: digests move when the partner's slice is not
  handed to the partner, or slices are given to the wrong waiter;
* chaos 106, chaos 560, torture 827 and torture 883: digests move when a
  pair hold makes each slice's timer straight from the last one's instead
  of two dispatches on, where the slice loop made it.

The goldens are read, never written.
"""

import json
from pathlib import Path

import pytest

from repro.faults.chaos import run_chaos
from repro.faults.torture import run_torture

GOLDENS = Path(__file__).resolve().parents[2] / "benchmarks/e2e/goldens.json"


def _golden(workload, name):
    return json.loads(GOLDENS.read_text())[workload][name][0]


def test_cancel_during_a_hold_matches_golden():
    result = run_chaos(595, steps=12)
    assert result.finished
    assert result.digest.startswith(_golden("chaos_soak", "chaos/595"))


@pytest.mark.parametrize("seed", [60, 77, 390, 460, 740, 863, 884])
def test_torture_digest_matches_golden(seed):
    result = run_torture(seed, steps=10)
    assert result.finished
    assert result.digest.startswith(_golden("pin_torture", f"torture/{seed}"))


@pytest.mark.parametrize("seed", [7, 106, 560])
def test_pair_hold_chaos_digest_matches_golden(seed):
    result = run_chaos(seed, steps=12)
    assert result.finished
    assert result.digest.startswith(_golden("chaos_soak", f"chaos/{seed}"))


@pytest.mark.parametrize("seed", [827, 883])
def test_pair_hold_torture_digest_matches_golden(seed):
    result = run_torture(seed, steps=10)
    assert result.finished
    assert result.digest.startswith(_golden("pin_torture", f"torture/{seed}"))
