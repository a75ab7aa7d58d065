"""The golden gate: it names every soak and sharded seed whose digest
moved."""

import json

import benchmarks.check_soak_goldens as gate


def test_recorded_seeds_match():
    assert gate.find_mismatches(range(2)) == []


def test_recorded_sharded_seed_matches():
    assert gate.find_mismatches(range(0),
                                sharded_seeds=range(2009, 2010)) == []


def test_every_differing_seed_is_named(tmp_path, monkeypatch, capsys):
    goldens = json.loads(gate.GOLDENS.read_text())
    goldens["chaos_soak"]["chaos/1"][0] = "0" * 16
    goldens["pin_torture"]["torture/0"][0] = "0" * 16
    goldens["openmx_sharded"]["openmx/2010"][0] = "0" * 16
    fake = tmp_path / "goldens.json"
    fake.write_text(json.dumps(goldens))
    monkeypatch.setattr(gate, "GOLDENS", fake)
    monkeypatch.setattr(gate, "SEEDS", range(2))
    monkeypatch.setattr(gate, "SHARDED_SEEDS", range(2009, 2011))
    monkeypatch.setattr(gate, "host_core_count", lambda: 1)
    assert gate.main() == 1
    assert capsys.readouterr().err.split(": ")[-1].split() == [
        "chaos/1", "torture/0", "openmx/2010"]
