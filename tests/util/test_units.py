"""Tests for unit helpers."""

import pytest

from repro.util.units import (
    GIB,
    KIB,
    MIB,
    SECOND,
    fmt_size,
    fmt_time,
    gbit_rate_bytes_per_sec,
    throughput_mib_s,
    transfer_time_ns,
)


def test_gbit_rate():
    assert gbit_rate_bytes_per_sec(10.0) == pytest.approx(1.25e9)
    assert gbit_rate_bytes_per_sec(1.0) == pytest.approx(1.25e8)


def test_transfer_time_rounds_up():
    assert transfer_time_ns(1, 1e9) == 1
    assert transfer_time_ns(1, 3e9) == 1  # 0.33ns -> 1
    assert transfer_time_ns(3, 3e9) == 1
    assert transfer_time_ns(1250, 1.25e9) == 1000


def test_transfer_time_rejects_bad_rate():
    for _ in range(3):  # on every call: the memo never holds an error
        with pytest.raises(ValueError, match="rate must be positive, got 0"):
            transfer_time_ns(100, 0)
        with pytest.raises(ValueError):
            transfer_time_ns(100, -5)


def test_memoized_transfer_time_equals_the_formula():
    # The memo must return exactly what the ceiling formula gives, for
    # sizes and rates on and off exact nanosecond boundaries, and must not
    # mix up int and float arguments of equal value.
    rates = [1e9, 3e9, 1.25e9, 1.25e9 / 3, 2.5e8, 6.4e9, 7, 1234567.891]
    sizes = [0, 1, 2, 3, 63, 64, 1000, 1250, 4096, 8192, 8224, 9000,
             65536, 10**6, 16 * MIB, 2**40 + 1]
    for _ in range(2):  # second pass: served from the memo
        for rate in rates:
            for nbytes in sizes:
                ns = nbytes * 1e9 / rate
                want = int(ns) + (0 if ns == int(ns) else 1)
                assert transfer_time_ns(nbytes, rate) == want, (nbytes, rate)
                assert transfer_time_ns(float(nbytes), rate) == want
                assert type(transfer_time_ns(nbytes, rate)) is int
    assert transfer_time_ns.cache_info().hits > 0
    assert transfer_time_ns.cache_info().maxsize is not None  # bounded


def test_throughput_mib_s():
    assert throughput_mib_s(MIB, SECOND) == pytest.approx(1.0)
    assert throughput_mib_s(16 * MIB, SECOND // 2) == pytest.approx(32.0)
    assert throughput_mib_s(100, 0) == 0.0


def test_fmt_size_paper_conventions():
    assert fmt_size(64 * KIB) == "64kB"
    assert fmt_size(MIB) == "1MB"
    assert fmt_size(16 * MIB) == "16MB"
    assert fmt_size(100) == "100B"
    assert fmt_size(1536) == "1536B"  # not a clean multiple


def test_fmt_time_scales():
    assert fmt_time(50) == "50ns"
    assert fmt_time(1500) == "1.50us"
    assert fmt_time(2_500_000) == "2.500ms"
    assert fmt_time(3 * SECOND) == "3.000s"


def test_constants():
    assert KIB == 1024 and MIB == 1024**2 and GIB == 1024**3
