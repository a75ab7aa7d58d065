"""Debug twins: the checked engine reproduces real protocol traffic.

``Environment(debug=True)`` dispatches every event through ``step()``,
checking waiter accounting and wheel-slot order on the way, while a plain
environment runs ``run()``'s inlined loop.  The micro property tests
compare the two on synthetic traces; here one chaos seed and one torture
seed run on full clusters both ways and must produce the same digest.
"""

import pytest

import repro.cluster.builder as builder
from repro.faults.chaos import run_chaos
from repro.faults.torture import run_torture
from repro.sim import Environment


@pytest.mark.parametrize("run", [
    lambda: run_chaos(seed=3, steps=6),
    lambda: run_torture(4, steps=8),
], ids=["chaos-seed3", "torture-seed4"])
def test_debug_engine_reproduces_the_plain_digest(run, monkeypatch):
    plain = run()
    envs = []

    def debug_environment():
        envs.append(Environment(debug=True))
        return envs[-1]

    monkeypatch.setattr(builder, "Environment", debug_environment)
    checked = run()
    assert envs and all(env._debug for env in envs)
    assert plain.clean and checked.clean
    assert checked.digest == plain.digest
