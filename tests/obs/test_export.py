"""Exporters: JSON round-trip, CSV rows, Prometheus text, the file writer,
and the snapshot-rendering CLI."""

import json

import pytest

from repro.obs import cli
from repro.obs.export import (
    load_snapshot,
    snapshot_to_csv,
    snapshot_to_json,
    snapshot_to_prometheus,
    write_snapshot,
)
from repro.obs.metrics import MetricRegistry


def make_registry() -> MetricRegistry:
    reg = MetricRegistry()
    reg.counter("rx_frames", "frames received", labelnames=("nic",)) \
        .labels(nic="h0").inc(7)
    reg.gauge("pinned_pages").set(42)
    h = reg.histogram("lat_ns", "latency")
    for v in (1, 3, 100):
        h.observe(v)
    return reg


def test_json_snapshot_roundtrip(tmp_path):
    reg = make_registry()
    text = snapshot_to_json(reg)
    snap = json.loads(text)
    assert snap["schema"] == "repro.obs/v1"
    assert snap["metrics"]["rx_frames"]["samples"][0]["value"] == 7
    path = write_snapshot(tmp_path / "m.json", reg)
    assert load_snapshot(path) == snap


def test_csv_has_one_row_per_scalar():
    reg = make_registry()
    lines = snapshot_to_csv(reg).strip().splitlines()
    assert lines[0] == "metric,kind,labels,field,value"
    assert "rx_frames,counter,nic=h0,value,7" in lines
    assert "pinned_pages,gauge,,value,42" in lines
    assert "lat_ns,histogram,,count,3" in lines
    assert "lat_ns,histogram,,sum,104" in lines
    # One bucket row per occupied bucket: 1, 4, 128.
    assert sum(1 for l in lines if ",bucket_le_" in l) == 3


def test_prometheus_text_format():
    reg = make_registry()
    text = snapshot_to_prometheus(reg)
    assert "# HELP rx_frames frames received" in text
    assert "# TYPE rx_frames counter" in text
    assert 'rx_frames{nic="h0"} 7' in text
    assert "pinned_pages 42" in text
    # Buckets are cumulative and end with +Inf == count.
    assert 'lat_ns_bucket{le="1"} 1' in text
    assert 'lat_ns_bucket{le="4"} 2' in text
    assert 'lat_ns_bucket{le="128"} 3' in text
    assert 'lat_ns_bucket{le="+Inf"} 3' in text
    assert "lat_ns_count 3" in text


def test_write_snapshot_formats_from_suffix(tmp_path):
    reg = make_registry()
    assert write_snapshot(tmp_path / "a.csv", reg).read_text().startswith("metric,")
    assert "# TYPE" in write_snapshot(tmp_path / "a.prom", reg).read_text()
    assert json.loads(write_snapshot(tmp_path / "a.json", reg).read_text())
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "a.json", reg, fmt="xml")


def test_rejects_non_snapshot_input():
    with pytest.raises(ValueError):
        snapshot_to_json({"schema": "other/v9", "metrics": {}})


# -- CLI ----------------------------------------------------------------------

def test_cli_renders_tables(tmp_path, capsys):
    path = write_snapshot(tmp_path / "m.json", make_registry())
    assert cli.main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "Counters and gauges" in out
    assert "rx_frames" in out
    assert "Histograms" in out
    assert "lat_ns" in out


def test_cli_grep_filters_metrics(tmp_path, capsys):
    path = write_snapshot(tmp_path / "m.json", make_registry())
    assert cli.main([str(path), "--grep", "rx_"]) == 0
    out = capsys.readouterr().out
    assert "rx_frames" in out
    assert "pinned_pages" not in out


def test_cli_other_formats(tmp_path, capsys):
    path = write_snapshot(tmp_path / "m.json", make_registry())
    assert cli.main([str(path), "--format", "prom"]) == 0
    assert "# TYPE rx_frames counter" in capsys.readouterr().out
    assert cli.main([str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("metric,")


def test_cli_help_exits_zero_without_reading(capsys, monkeypatch):
    def no_reads(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "load_snapshot", no_reads)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "--format" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["m.json", "--bogus"],
    ["m.json", "--format", "xml"],
    ["--format", "csv"],  # no snapshot
])
def test_cli_bad_arguments_exit_2_before_reading(argv, capsys, monkeypatch):
    def no_reads(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "load_snapshot", no_reads)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_missing_or_bad_snapshot_exits_2(tmp_path, capsys):
    assert cli.main([str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert cli.main([str(garbage)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"schema": "other/v9", "metrics": {}}')
    assert cli.main([str(wrong), "--format", "csv"]) == 2
    assert capsys.readouterr().err.count("error:") == 2
