"""Unit helpers: sizes, times and rates.

All simulation time is integer nanoseconds; all sizes are integer bytes.
Rates convert between the two.  Keeping conversions in one place avoids the
classic GB-vs-GiB and Gb-vs-GB mistakes that plague network modelling.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "GB",
    "GIB",
    "KB",
    "KIB",
    "MB",
    "MIB",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "bytes_per_ns",
    "fmt_rate_mib_s",
    "fmt_size",
    "fmt_time",
    "gbit_rate_bytes_per_sec",
    "throughput_mib_s",
    "transfer_time_ns",
]

KB = 1000
MB = 1000**2
GB = 1000**3
KIB = 1024
MIB = 1024**2
GIB = 1024**3

MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000


def gbit_rate_bytes_per_sec(gbits: float) -> float:
    """Link rate in bytes/second for a given gigabit/s figure (10 for 10GigE)."""
    return gbits * 1e9 / 8.0


def bytes_per_ns(bytes_per_sec: float) -> float:
    return bytes_per_sec / 1e9


# A run moves a few distinct frame and copy sizes at a few fixed rates, but
# asks for their wire and copy times once per frame: memoize.  Bounded, so
# a sweep over many sizes cannot grow it without limit.  A non-positive
# rate raises on every call (lru_cache never caches an exception).
@lru_cache(maxsize=4096)
def transfer_time_ns(nbytes: int, bytes_per_sec: float) -> int:
    """Integer nanoseconds to move ``nbytes`` at the given rate (ceiling)."""
    if bytes_per_sec <= 0:
        raise ValueError(f"rate must be positive, got {bytes_per_sec}")
    ns = nbytes * 1e9 / bytes_per_sec
    return int(ns) + (0 if ns == int(ns) else 1)


def throughput_mib_s(nbytes: int, elapsed_ns: int) -> float:
    """Throughput in MiB/s, the unit of the paper's figures 6 and 7."""
    if elapsed_ns <= 0:
        return 0.0
    return nbytes / (elapsed_ns / 1e9) / MIB


def fmt_size(nbytes: int) -> str:
    """Human string using the paper's conventions (64kB, 1MB, 16MB)."""
    if nbytes >= MIB and nbytes % MIB == 0:
        return f"{nbytes // MIB}MB"
    if nbytes >= KIB and nbytes % KIB == 0:
        return f"{nbytes // KIB}kB"
    return f"{nbytes}B"


def fmt_time(ns: int) -> str:
    if ns >= SECOND:
        return f"{ns / SECOND:.3f}s"
    if ns >= MILLISECOND:
        return f"{ns / MILLISECOND:.3f}ms"
    if ns >= MICROSECOND:
        return f"{ns / MICROSECOND:.2f}us"
    return f"{ns}ns"


def fmt_rate_mib_s(rate: float) -> str:
    return f"{rate:8.1f} MiB/s"
