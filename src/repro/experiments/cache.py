"""On-disk result cache for experiment tasks.

A cache entry is keyed by *what would run*: the task's fully-qualified
function name, a canonical JSON rendering of its keyword arguments, and a
fingerprint of every ``repro`` source file.  Any code change anywhere in
the package invalidates the whole cache — deliberately coarse, because the
simulator is one tightly-coupled artifact and a stale hit would silently
mask a behavior change (the exact failure mode the determinism tests
exist to catch).

Entries store the full ``(result, MetricRegistry)`` pair produced by
:func:`repro.experiments.parallel.run_task`, so a warm run replays both
the ``--json`` results and the ``--metrics`` aggregation byte-for-byte.

CLI: ``python -m repro.experiments --cache [DIR]`` (default
``.repro-cache/``).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Any

__all__ = ["ResultCache", "code_fingerprint", "task_key"]

_PKG_ROOT = Path(__file__).resolve().parents[1]  # src/repro
_fingerprint_cache: dict[Path, str] = {}


def code_fingerprint(root: Path = _PKG_ROOT) -> str:
    """SHA-256 over every ``*.py`` under ``root`` (path + contents)."""
    cached = _fingerprint_cache.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _fingerprint_cache[root] = value
    return value


def _canonical_args(kwargs: dict[str, Any]) -> str:
    # default=repr canonicalizes enums, dataclasses and anything else the
    # experiments pass around; repr is stable for all of them.
    return json.dumps(kwargs, sort_keys=True, default=repr)


def task_key(task: tuple) -> str:
    """What a task runs: its function's qualified name and canonical args.

    Two tasks with one key compute the same result, so the cache stores
    one entry for them and :func:`repro.experiments.parallel.parallel_map`
    runs them once.
    """
    fn, kwargs = task
    return f"{fn.__module__}.{fn.__qualname__}\n{_canonical_args(kwargs)}"


class ResultCache:
    """Pickle-file-per-entry cache under one directory."""

    def __init__(self, directory: str | Path = ".repro-cache"):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, task: tuple) -> Path:
        key = f"{task_key(task)}\n{code_fingerprint()}"
        return self.directory / (hashlib.sha256(key.encode()).hexdigest() + ".pkl")

    def get(self, task: tuple) -> Any | None:
        path = self._path(task)
        try:
            with path.open("rb") as fh:
                pair = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return pair

    def put(self, task: tuple, pair: Any) -> None:
        path = self._path(task)
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(pair, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)  # atomic: concurrent runs never see half a file
