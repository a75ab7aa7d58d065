"""Shared benchmark configuration.

The paper's shape checks (``test_bench_{table1,figure6,figure7,table2,
overlap_miss,motivation,reuse_sweep,ablations}.py``) assert on one run of
the sweep that ``python -m repro.experiments`` prints: the session-scoped
``sweep`` fixture runs every artifact of
:data:`repro.experiments.runner.SWEEP` once, on the usable cores, through
the CLI's default result cache (``.repro-cache/``, keyed by each task and
the source fingerprint).  So after ``python -m repro.experiments --cache``
on the same tree the checks replay that run's results instead of
computing them again.  Set ``REPRO_FULL=1`` to sweep the paper's complete
message size axis instead of the quick subset, as ``--full`` does.
"""

import os

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.figures67 import FAST_SIZES, FIGURE_SIZES
from repro.experiments.runner import SWEEP, run_artifacts
from repro.sim.pdes import host_core_count


def full_sweep() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(scope="session")
def sweep():
    """Each artifact's built results (``SWEEP[name].build``), by name."""
    sizes = FIGURE_SIZES if full_sweep() else FAST_SIZES
    return run_artifacts(list(SWEEP), sizes, jobs=host_core_count(),
                         cache=ResultCache())
