"""Tests for the NPB IS skeleton."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.openmx import OpenMXConfig, PinningMode
from repro.workloads import IsConfig, run_is
from repro.workloads.npb_is import received_keys_ok


def make_cluster(mode=PinningMode.CACHE):
    return build_cluster(nhosts=2, procs_per_host=2,
                         config=OpenMXConfig(pinning_mode=mode, use_ioat=True))


def test_is_runs_and_verifies():
    result = run_is(make_cluster(), IsConfig(total_keys=1 << 18, iterations=2))
    assert result.verified
    assert result.nranks == 4
    assert result.elapsed_ns > 0
    assert result.per_iteration_ns == result.elapsed_ns / 2


def test_is_deterministic():
    cfg = IsConfig(total_keys=1 << 18, iterations=2)
    r1 = run_is(make_cluster(), cfg)
    r2 = run_is(make_cluster(), cfg)
    assert r1.elapsed_ns == r2.elapsed_ns


def test_is_moves_real_bytes_through_alltoall():
    cluster = make_cluster()
    run_is(cluster, IsConfig(total_keys=1 << 18, iterations=1))
    moved = sum(node.driver.counters["pull_bytes"] for node in cluster.nodes)
    # 4 ranks exchange (size-1)/size of their keys via rendezvous; most of
    # the key volume crosses the large-message path.
    assert moved > (1 << 18)  # at least 1 byte per key went rendezvous


def test_is_scales_with_problem_size():
    small = run_is(make_cluster(), IsConfig(total_keys=1 << 17, iterations=1))
    large = run_is(make_cluster(), IsConfig(total_keys=1 << 19, iterations=1))
    assert large.elapsed_ns > 2 * small.elapsed_ns


def test_is_two_ranks():
    cluster = build_cluster(nhosts=2, procs_per_host=1,
                            config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    result = run_is(cluster, IsConfig(total_keys=1 << 16, iterations=1))
    assert result.verified
    assert result.nranks == 2


def _alltoall_of_sorted_keys(size=4, chunk_keys=16):
    rng = np.random.default_rng(7)
    sorted_keys = [np.sort(rng.integers(0, size * 1000, size=size * chunk_keys,
                                        dtype=np.uint32))
                   for _ in range(size)]
    received = [np.concatenate([keys[r * chunk_keys:(r + 1) * chunk_keys]
                                for keys in sorted_keys])
                for r in range(size)]
    return sorted_keys, received


def test_received_keys_check_accepts_the_alltoall_result():
    sorted_keys, received = _alltoall_of_sorted_keys()
    assert all(received_keys_ok(buf, sorted_keys, rank, 16)
               for rank, buf in enumerate(received))
    # Another rank's slice is not this rank's.
    assert not received_keys_ok(received[1], sorted_keys, 2, 16)


@pytest.mark.parametrize("chunk", range(4))
def test_received_keys_check_rejects_a_corrupted_chunk(chunk):
    sorted_keys, received = _alltoall_of_sorted_keys()
    corrupted = received[2].copy()
    corrupted[chunk * 16 + 5] ^= 1
    assert not received_keys_ok(corrupted, sorted_keys, 2, 16)
    # A chunk that arrived from the wrong source fails too.
    swapped = received[2].copy()
    swapped[chunk * 16:(chunk + 1) * 16] = received[2][
        ((chunk + 1) % 4) * 16:((chunk + 1) % 4 + 1) * 16]
    assert not received_keys_ok(swapped, sorted_keys, 2, 16)
