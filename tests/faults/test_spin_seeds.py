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
