"""CLI tests: config parsing, serialization round-trip, command outputs,
deterministic reruns, and the seed-offset environment knob."""

import csv

import numpy as np
import pytest

from metasyn.cli import (
    ConfigError,
    RunConfig,
    execute,
    main,
    parse_config,
    seed_offset,
    serialize_config,
)

TINY = """
n_in = 16
n_out = 16
seeds = 0
n_patterns = 8
size_grid = 16
c_grid = 0.25
f_grid = 0.25, 0.5
"""


# ---- parsing --------------------------------------------------------------------


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.n_in == 128 and cfg.connectivity == 0.25
    assert cfg.seeds == tuple(range(10))


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# heading\n\nn_in = 64  # trailing note\n")
    assert cfg.n_in == 64


def test_round_trip_every_field():
    cfg = parse_config(
        "n_in = 48\nmodel = binary\nhardware = true\nseeds = 1, 2, 3\n"
        "c_grid = 0.2, 0.4\nsigma = 0.1\nout_dir = results\n"
    )
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config(serialize_config(RunConfig())) == RunConfig()


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'frobnicate'"):
        parse_config("n_in = 4\nfrobnicate = 1\n")


def test_out_of_range_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 1: 'connectivity'"):
        parse_config("connectivity = 1.5")
    with pytest.raises(ConfigError, match=r"line 3"):
        parse_config("n_in = 8\nn_out = 8\nactivity = 0\n")


def test_malformed_value_reports_key():
    with pytest.raises(ConfigError, match=r"invalid value for 'n_in'"):
        parse_config("n_in = twelve")
    with pytest.raises(ConfigError, match=r"expected 'key = value'"):
        parse_config("just some words")
    with pytest.raises(ConfigError, match=r"'hardware'"):
        parse_config("hardware = yes")


def test_model_choices_checked():
    assert parse_config("model = gradient").model == "gradient"
    with pytest.raises(ConfigError, match="model"):
        parse_config("model = quantum")


def test_last_assignment_wins():
    assert parse_config("n_in = 4\nn_in = 32\n").n_in == 32


# ---- seed offset ------------------------------------------------------------------


def test_seed_offset_default_zero(monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    assert seed_offset() == 0


def test_seed_offset_reads_env(monkeypatch):
    monkeypatch.setenv("METASYN_SEED_OFFSET", "17")
    assert seed_offset() == 17


def test_seed_offset_rejects_garbage(monkeypatch):
    monkeypatch.setenv("METASYN_SEED_OFFSET", "many")
    with pytest.raises(ConfigError):
        seed_offset()


# ---- command execution ---------------------------------------------------------------


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_writes_traces_and_summary(tmp_path, monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(TINY + f"out_dir = {tmp_path / 'out'}\n")
    assert execute("run", cfg) == 0
    rows = read_csv(tmp_path / "out" / "traces.csv")
    assert rows[0] == ["model", "seed", "pattern_index", "learning_acc", "mean_acc"]
    assert rows[1][0] == "multistate" and rows[1][2] == "1"
    assert len(rows) == 1 + 8  # one model, one seed, eight patterns
    summary = read_csv(tmp_path / "out" / "summary.csv")
    assert summary[0] == ["model", "crossing_mean", "crossing_std", "ratio_vs_binary"]
    assert (tmp_path / "out" / "accuracy.svg").exists()


def test_rerun_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(TINY + f"out_dir = {tmp_path / 'out'}\n")
    execute("compare", cfg)
    first = {
        p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
    }
    execute("compare", cfg)
    second = {
        p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
    }
    assert first == second
    assert set(first) == {"traces.csv", "summary.csv", "accuracy.svg"}


def test_seed_offset_changes_outputs(tmp_path, monkeypatch):
    cfg = parse_config(TINY + f"out_dir = {tmp_path / 'out'}\n")
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    execute("run", cfg)
    base = (tmp_path / "out" / "traces.csv").read_bytes()
    monkeypatch.setenv("METASYN_SEED_OFFSET", "3")
    execute("run", cfg)
    shifted = (tmp_path / "out" / "traces.csv").read_bytes()
    assert base != shifted
    rows = read_csv(tmp_path / "out" / "traces.csv")
    assert rows[1][1] == "3"  # seed column reflects the shift


def test_sweep_cf_csv_schema(tmp_path, monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(TINY + f"out_dir = {tmp_path / 'out'}\n")
    assert execute("sweep-cf", cfg) == 0
    rows = read_csv(tmp_path / "out" / "cf_grid.csv")
    assert rows[0] == ["connectivity", "activity", "mean_acc_at_100", "valid_flag"]
    assert len(rows) == 1 + 2  # 1x2 grid
    assert all(r[3] == "1" for r in rows[1:])


def test_sweep_size_csv_schema(tmp_path, monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(TINY + f"out_dir = {tmp_path / 'out'}\n")
    assert execute("sweep-size", cfg) == 0
    rows = read_csv(tmp_path / "out" / "size_grid.csv")
    assert rows[0][0] == "size"
    assert rows[1][0] == "16"


def test_calibrate_device_table(tmp_path, monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(f"out_dir = {tmp_path / 'out'}\n")
    assert execute("calibrate-device", cfg) == 0
    rows = read_csv(tmp_path / "out" / "metastate_table.csv")
    assert rows[0] == ["efficacy", "metalevel", "x_plateau", "conductance_S"]
    assert len(rows) == 1 + 6
    xs = [float(r[2]) for r in rows[1:]]
    assert xs == sorted(xs)
    assert [r[0] for r in rows[1:]] == ["low"] * 3 + ["high"] * 3


def test_dump_trace_events(tmp_path, monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(
        "n_in = 5\nn_out = 3\nconnectivity = 0.6\nactivity = 0.5\n"
        f"n_patterns = 3\nout_dir = {tmp_path / 'out'}\n"
    )
    assert execute("dump-trace", cfg) == 0
    rows = read_csv(tmp_path / "out" / "events.csv")
    assert rows[0] == [
        "step",
        "phase",
        "row",
        "col",
        "x_before",
        "x_after",
        "meta_before",
        "meta_after",
    ]
    assert len(rows) > 1
    for r in rows[1:]:
        assert r[1] in ("potentiate", "depress")
        assert r[6][0] in "LH" and r[7][0] in "LH"


# At C = f = 0.25 programming noise moves none of the five accuracies of a
# 16x16 run; at C = f = 0.5 it does.
HW_TINY = (
    "n_in = 16\nn_out = 16\nconnectivity = 0.5\nactivity = 0.5\n"
    "seeds = 0\nn_patterns = 5\nhardware = true\n"
)


def _hw_compare_traces(out, extra: str = "") -> bytes:
    assert execute("compare", parse_config(HW_TINY + extra + f"out_dir = {out}\n")) == 0
    return (out / "traces.csv").read_bytes()


@pytest.mark.parametrize(
    "extra",
    ["sigma = 0.0\n", "noise = false\n", "k_off = 8.0e6\nk_on = -8.0e6\n"],
    ids=["sigma", "noise", "k_pair"],
)
def test_hardware_compare_honours_device_and_noise_keys(tmp_path, monkeypatch, extra):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    default = _hw_compare_traces(tmp_path / "default")
    changed = _hw_compare_traces(tmp_path / "changed", extra)
    assert changed != default
    # the behavioral rows do not see the device, only the hw_ rows move
    keep = lambda text: [r for r in text.decode().splitlines() if not r.startswith("hw_")]
    assert keep(changed) == keep(default)


# ---- entry point ----------------------------------------------------------------------


def test_main_errors_on_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_errors_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("connectivity = 9\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "connectivity" in err


def test_main_runs_with_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfgfile = tmp_path / "ok.cfg"
    cfgfile.write_text(TINY + f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["run", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "traces.csv" in out
