"""Determinism of the parallel fan-out, the result cache, and chaos digests.

These tests pin the PR's central contract: ``--jobs N`` and ``--cache``
never change any simulated result — not a digest, not a metric total, not
a byte of JSON.  They also pin eight golden chaos digests and four golden
torture digests so an engine "optimization" that perturbs event ordering
fails loudly here instead of silently shifting every downstream number.
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache, code_fingerprint
from repro.experiments.parallel import parallel_map, run_task
from repro.experiments.runner import to_jsonable
from repro.faults.chaos import run_chaos
from repro.faults.torture import run_torture
from repro.obs.metrics import MetricRegistry, current_registry, use_registry
from repro.openmx.config import PinningMode

# Golden digests: seeds 0-7 at steps=6, mode rotating by seed (the CLI
# default).  Captured from a serial run and verified byte-identical under
# --jobs 4.  If an engine change alters any of these, it changed simulated
# behavior — that is a bug in the change, not in this table.
GOLDEN = [
    (0, "pin-per-comm",
     "feb9056332d3592ff646e32009cbce746424e0bb46a62a247c05ca20ca9962f9"),
    (1, "permanent",
     "2ebc6d3dfe203b50c7a00a7c5ab29b5732218737be86498153b17fde06569270"),
    (2, "cache",
     "864b7d568cf52e6109d8ca5c0991026482d080731e1066c52fd6fd27d011fcf8"),
    (3, "overlap",
     "b94df388f08bbb2f1fd440b6cf7eb9ba688b4ce807cd9f93533c7f915542725d"),
    (4, "overlap-cache",
     "f96e2107d83f34b496d7a20e7287cce5d9034ad17ddcdeeba7b55d177ac4e0a3"),
    (5, "pin-per-comm",
     "9654568dc99bd4425df1fb0db6a6f316d33354ce481b3ed85a1cef092dec42a4"),
    (6, "permanent",
     "8b271832db4989485c05eb68309f42e8669606e08ae3cc1f250212b7bca64d46"),
    (7, "cache",
     "c303480200aa05dd28ad79627c5f0ba14ce1199b6317d0491ad4abf20617d005"),
]


# Golden torture digests: seeds 0-3 at steps=10, mode rotating by seed.
# Same rule as GOLDEN: a change that moves one changed simulated behavior.
TORTURE_GOLDEN = [
    (0, "pin-per-comm",
     "a9ef224136bdd37e861690ca0552c32d3304e7fc9943cc674e9c328e6ea333c7"),
    (1, "permanent",
     "4519b8a6b7e1ef02c82ccdee79c12ba8fdb777484fa5937e686d221eb8f92e9a"),
    (2, "cache",
     "183286b47147f2f5964bc19f9ddf2e28c507f1cfb30efde7fccc5656147408b5"),
    (3, "overlap",
     "393c9fc0843019d135e5197ab6267a3dc8d668eb30ecfbd9f4bc6127bbd7d6a0"),
]


def _chaos_tasks(seeds, steps=6):
    return [(run_chaos, {"seed": s, "steps": steps, "mode": None})
            for s in seeds]


@pytest.mark.parametrize("seed,mode,digest", GOLDEN[:4])
def test_golden_chaos_digests(seed, mode, digest):
    result = run_chaos(seed=seed, steps=6)
    assert result.clean
    assert result.mode == mode
    assert result.digest == digest


@pytest.mark.parametrize("seed,mode,digest", TORTURE_GOLDEN)
def test_golden_torture_digests(seed, mode, digest):
    result = run_torture(seed, steps=10)
    assert result.clean
    assert result.mode == mode
    assert result.digest == digest


def test_parallel_matches_serial_and_golden():
    seeds = [s for s, _, _ in GOLDEN]
    serial_reg, fork_reg = MetricRegistry(), MetricRegistry()
    with use_registry(serial_reg):
        serial = parallel_map(_chaos_tasks(seeds), jobs=1)
    with use_registry(fork_reg):
        forked = parallel_map(_chaos_tasks(seeds), jobs=4)
    # Results come back in submission order, bit-identical to serial and
    # to the golden table, and the merged metric snapshots agree too.
    assert [r.seed for r in forked] == seeds
    assert [(r.seed, r.mode, r.digest) for r in forked] == GOLDEN
    assert [r.as_dict() for r in forked] == [r.as_dict() for r in serial]
    assert to_jsonable(forked) == to_jsonable(serial)
    assert fork_reg.snapshot() == serial_reg.snapshot()


def test_chaos_results_survive_pickling():
    # The fork pool ships results back pickled; the round trip must be
    # lossless or --jobs would silently degrade the report.
    result = run_chaos(seed=1, steps=4)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.as_dict() == result.as_dict()


# -- parallel_map semantics on a synthetic workload ---------------------------


def _instrumented_square(x):
    reg = current_registry()
    reg.counter("pd_calls").inc()
    reg.gauge("pd_last").set(x)
    return x * x


def test_parallel_map_order_and_metric_merge():
    tasks = [(_instrumented_square, {"x": x}) for x in (3, 1, 4, 1, 5, 9)]
    serial_reg, fork_reg = MetricRegistry(), MetricRegistry()
    with use_registry(serial_reg):
        serial = parallel_map(tasks, jobs=1)
    with use_registry(fork_reg):
        forked = parallel_map(tasks, jobs=3)
    assert serial == forked == [9, 1, 16, 1, 25, 81]
    # Counters sum across workers; gauges keep the last value in
    # submission order — same totals either way.
    assert serial_reg.counter("pd_calls").value == 6
    assert serial_reg.gauge("pd_last").value == 9
    assert fork_reg.snapshot() == serial_reg.snapshot()


def test_run_task_isolates_registry():
    ambient = MetricRegistry()
    with use_registry(ambient):
        result, task_reg = run_task((_instrumented_square, {"x": 2}))
    assert result == 4
    # The task wrote only to its own fresh registry, never the ambient one.
    assert task_reg.counter("pd_calls").value == 1
    assert "pd_calls" not in ambient.snapshot()["metrics"]


# A map in which task #1 SIGKILLs its own worker.  It runs in a subprocess
# so that, should the map ever hang again, the test times out instead of
# hanging the suite.
_KILLED_WORKER_MAP = """
import os, signal
from repro.experiments.parallel import parallel_map

def echo(x):
    return x

def die():
    os.kill(os.getpid(), signal.SIGKILL)

try:
    parallel_map([(echo, {"x": 1}), (die, {}), (echo, {"x": 3})], jobs=2)
except Exception as exc:
    print(type(exc).__name__, exc)
    raise SystemExit(3)
"""


def test_killed_worker_fails_the_map_and_names_its_task():
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_WORKER_MAP],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the map and its workers
        proc.communicate()
        pytest.fail("parallel_map hung after a worker was SIGKILLed")
    assert proc.returncode == 3, out
    assert out.startswith("BrokenProcessPool")
    assert "#1 __main__.die(**{})" in out


def _boom(x):
    raise ValueError(f"boom {x}")


def _unpicklable(x):
    return threading.Lock()


@pytest.mark.parametrize("fn, cause", [
    (_boom, "ValueError: boom 2"),
    (_unpicklable, "TypeError: cannot pickle '_thread.lock' object"),
])
def test_failing_task_fails_the_map_and_names_it(fn, cause):
    tasks = [(_instrumented_square, {"x": 1}), (fn, {"x": 2})]
    with pytest.raises(RuntimeError) as exc:
        parallel_map(tasks, jobs=2)
    message = str(exc.value)
    assert f"task #1 {__name__}.{fn.__name__}(**{{'x': 2}}) of 2" in message
    assert message.endswith(f"failed: {cause}")
    assert exc.value.__cause__ is not None


# -- result cache -------------------------------------------------------------


def test_cache_roundtrip_replays_result_and_metrics(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    tasks = _chaos_tasks([0, 1], steps=4)

    cold_reg, warm_reg = MetricRegistry(), MetricRegistry()
    with use_registry(cold_reg):
        cold = parallel_map(tasks, jobs=1, cache=cache)
    assert (cache.hits, cache.misses) == (0, 2)

    with use_registry(warm_reg):
        warm = parallel_map(tasks, jobs=1, cache=cache)
    assert (cache.hits, cache.misses) == (2, 2)
    # Warm run replays both the results and the metric aggregation.
    assert [r.as_dict() for r in warm] == [r.as_dict() for r in cold]
    assert warm_reg.snapshot() == cold_reg.snapshot()


def test_cache_distinguishes_arguments(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    a = parallel_map([(run_chaos, {"seed": 2, "steps": 4,
                                   "mode": PinningMode.CACHE})],
                     cache=cache)[0]
    b = parallel_map([(run_chaos, {"seed": 2, "steps": 4,
                                   "mode": PinningMode.OVERLAP})],
                     cache=cache)[0]
    assert cache.misses == 2  # different kwargs never collide
    assert a.digest != b.digest


def test_cache_tolerates_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    task = (_instrumented_square, {"x": 6})
    with use_registry(MetricRegistry()):
        parallel_map([task], cache=cache)
    # Truncate the entry: the next get() must miss, not crash.
    (entry,) = cache.directory.glob("*.pkl")
    entry.write_bytes(b"\x80")
    assert cache.get(task) is None
    with use_registry(MetricRegistry()):
        assert parallel_map([task], cache=cache) == [36]


def test_code_fingerprint_is_stable():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64
