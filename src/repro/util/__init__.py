"""Shared utilities: units, formatting, reporting, frozen records."""

import dataclasses

from .units import (
    GB,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    fmt_rate_mib_s,
    fmt_size,
    fmt_time,
    gbit_rate_bytes_per_sec,
    throughput_mib_s,
    transfer_time_ns,
)

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
    "fmt_rate_mib_s",
    "fmt_size",
    "fmt_time",
    "frozen_record",
    "gbit_rate_bytes_per_sec",
    "throughput_mib_s",
    "transfer_time_ns",
]


def frozen_record(cls):
    """Give a frozen dataclass an ``__init__`` that fills ``self.__dict__``.

    Apply it above ``@dataclass(frozen=True)``.  The generated
    ``__init__`` of a frozen dataclass stores each field through
    ``object.__setattr__``, which costs about twice what plain dict writes
    do, and wire records are built once per simulated frame.  The
    replacement is generated once from ``dataclasses.fields(cls)`` with the
    same signature and defaults, so ``==``, ``hash``, ``repr``, ``fields``,
    ``replace`` and pickling stay the dataclass's own, and assigning an
    attribute still raises ``FrozenInstanceError``.  A field without
    ``init`` or with a ``default_factory``, and a ``__post_init__``, are
    refused rather than silently skipped.
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__qualname__}: __post_init__ is not supported")
    params: list[str] = []
    body: list[str] = []
    namespace: dict[str, object] = {}
    for f in dataclasses.fields(cls):
        if not f.init or f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{cls.__qualname__}.{f.name}: only init fields "
                            "with a plain default are supported")
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    d[{f.name!r}] = {f.name}")
    source = "\n".join([f"def __init__(self, {', '.join(params)}):",
                        "    d = self.__dict__", *body])
    # A file name of its own keeps profilers from folding every record's
    # constructor into one ('<string>', 2, '__init__') entry.
    name = f"{cls.__module__}.{cls.__qualname__}"
    exec(compile(source, f"<frozen_record {name}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
