"""Tests for experiment result persistence."""

from dataclasses import dataclass

import pytest

from repro.experiments.runner import (
    load_results,
    save_results,
    to_jsonable,
)
from repro.experiments.table1 import Table1Row
from repro.openmx import PinningMode


@dataclass(frozen=True)
class Nested:
    name: str
    values: tuple


def test_to_jsonable_handles_dataclasses_and_enums():
    row = Table1Row(cpu="X", ghz=3.16, base_us=1.3, per_page_ns=150.0,
                    throughput_gb_s=26.5)
    out = to_jsonable({"row": row, "mode": PinningMode.CACHE,
                       "data": b"\x01\x02"})
    assert out["row"]["__type__"] == "Table1Row"
    assert out["row"]["ghz"] == 3.16
    # Enums serialize by *name* (stable identifier), not by value.
    assert out["mode"] == "CACHE"
    assert out["data"] == "0102"


def test_roundtrip_through_file(tmp_path):
    rows = [Table1Row("a", 1.0, 2.0, 3.0, 4.0), Table1Row("b", 5.0, 6.0, 7.0, 8.0)]
    path = tmp_path / "results.json"
    save_results(path, {"table1": rows})
    loaded = load_results(path)
    assert loaded["table1"][1]["cpu"] == "b"
    assert loaded["table1"][0]["throughput_gb_s"] == 4.0


def test_nested_tuples():
    out = to_jsonable(Nested("n", ((1, 2.5), "s")))
    assert out["values"] == [[1, 2.5], "s"]
