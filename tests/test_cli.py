"""CLI tests: config parsing, serialization round-trip, command outputs,
deterministic reruns, and the seed-offset environment knob."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from metasyn import cli, experiments
from metasyn.device import DeviceParams
from metasyn.experiments import ExperimentSpec
from metasyn.network import AccuracyTrace, Model, NetworkConfig
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
    assert cfg.base.n_in == 128 and cfg.base.connectivity == 0.25
    assert cfg.seeds == tuple(range(10))


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# heading\n\nn_in = 64  # trailing note\n")
    assert cfg.base.n_in == 64


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
    assert parse_config("model = gradient").base.model == "gradient"
    with pytest.raises(ConfigError, match="model"):
        parse_config("model = quantum")


def test_last_assignment_wins():
    assert parse_config("n_in = 4\nn_in = 32\n").base.n_in == 32


# The accepted keys, in serialization order.
KEYS = [
    "n_in", "n_out", "connectivity", "activity", "n_levels", "model", "seed",
    "updates_per_pattern", "q", "learning_rate",
    "seeds", "n_patterns", "mean_threshold", "hardware", "size_grid", "c_grid",
    "f_grid",
    "g_on", "g_off", "v_off", "v_on", "k_off", "k_on", "alpha_off", "alpha_on",
    "d_thickness", "tau", "p_exp",
    "sigma", "noise",
    "out_dir",
]

# one out-of-range or malformed value per key
BAD = {
    "n_in": "0", "n_out": "0", "connectivity": "1.5", "activity": "1.0",
    "n_levels": "0", "model": "quantum", "seed": "-1", "updates_per_pattern": "0",
    "q": "0.0", "learning_rate": "-0.1",
    "seeds": "0, -1", "n_patterns": "0", "mean_threshold": "1.0", "hardware": "yes",
    "size_grid": "16, 0", "c_grid": "1.5", "f_grid": "0.0",
    "g_on": "1e-8", "g_off": "-1e-9", "v_off": "-0.5", "v_on": "0.5",
    "k_off": "-1.0", "k_on": "1.0", "alpha_off": "-1.0", "alpha_on": "-1.0",
    "d_thickness": "0.0", "tau": "-1.0", "p_exp": "3.0",
    "sigma": "-0.1", "noise": "maybe",
    "out_dir": "",
}


def test_key_set_is_pinned():
    keys = [line.split(" = ")[0] for line in serialize_config(RunConfig()).splitlines()]
    assert keys == KEYS and len(KEYS) == 31
    assert sorted(BAD) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_every_key_range_checked(key):
    with pytest.raises(ConfigError, match=rf"^line 2: .*'{key}'"):
        parse_config(f"n_in = 32\n{key} = {BAD[key]}\n")


@pytest.mark.parametrize(
    "build",
    [
        lambda: NetworkConfig(learning_rate=-0.1),
        lambda: NetworkConfig(seed=-1),
        lambda: DeviceParams(alpha_off=-1.0),
        lambda: DeviceParams(tau=-1.0),
        lambda: ExperimentSpec(c_grid=(1.5,)),
        lambda: ExperimentSpec(f_grid=(float("nan"),)),
        lambda: ExperimentSpec(sigma=float("nan")),
    ],
    ids=["learning_rate", "seed", "alpha_off", "tau", "c_grid", "f_nan", "sigma_nan"],
)
def test_library_rejects_what_the_cli_rejects(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("doc", ["g_on = 5e-8\ng_off = 1e-8\n", "g_off = 1e-8\ng_on = 5e-8\n"])
def test_cross_field_values_checked_together(doc):
    params = parse_config(doc).params
    assert (params.g_on, params.g_off) == (5e-8, 1e-8)


def test_cross_field_error_names_the_key():
    # g_on below the default g_off: rejected at parse time, not at run time
    with pytest.raises(ConfigError, match=r"^line 1: 'g_on'"):
        parse_config("g_on = 1e-8\n")


def test_rejected_value_blames_the_key_that_breaks_it():
    # the joint g_on/g_off pair is valid; only tau is out of range
    with pytest.raises(ConfigError, match=r"^line 1: 'tau'"):
        parse_config("tau = -1.0\ng_on = 5e-8\ng_off = 1e-8\n")


# ---- every key reaches the run --------------------------------------------------------

# every network, device and noise key away from its default
EVERY_KEY = """
n_in = 24
n_out = 20
connectivity = 0.3
activity = 0.35
n_levels = 2
model = binary
seed = 4
updates_per_pattern = 2
q = 0.9
learning_rate = 0.2
seeds = 3, 5
n_patterns = 6
hardware = true
size_grid = 12, 16
c_grid = 0.3, 0.6
f_grid = 0.35
g_on = 2e-05
g_off = 2e-07
v_off = 0.9
v_on = -0.8
k_off = 8000000.0
k_on = -9000000.0
alpha_off = 2.0
alpha_on = 4.0
d_thickness = 1.5
tau = 1.5
p_exp = 4.0
sigma = 0.1
noise = false
"""
EVERY_BASE = NetworkConfig(
    n_in=24, n_out=20, connectivity=0.3, activity=0.35, n_levels=2,
    model=Model.BINARY, seed=4, updates_per_pattern=2, q=0.9, learning_rate=0.2,
)
EVERY_PARAMS = DeviceParams(
    g_on=2e-05, g_off=2e-07, v_off=0.9, v_on=-0.8, k_off=8.0e6, k_on=-9.0e6,
    alpha_off=2.0, alpha_on=4.0, d_thickness=1.5, tau=1.5, p_exp=4.0,
)

# command -> (the config fields its cells set, the (kind, values) of every call)
EXPECTED_CALLS = {
    "compare": (
        ("model", "seed"),
        [("sw", (m, s)) for m in Model for s in (3, 5)]
        + [("hw", (m, s)) for m in (Model.BINARY, Model.MULTISTATE) for s in (3, 5)],
    ),
    "sweep-size": (
        ("n_in", "n_out", "seed"),
        [("hw", (n, n, s)) for n in (12, 16) for s in (3, 5)],
    ),
    "sweep-cf": (
        ("connectivity", "activity", "seed"),
        [("hw", (c, 0.35, s)) for c in (0.3, 0.6) for s in (3, 5)],
    ),
    "dump-trace": (("seed",), [("hw", (4,))]),
}


@pytest.mark.parametrize("cmd", sorted(EXPECTED_CALLS))
def test_every_key_reaches_the_run(tmp_path, monkeypatch, cmd):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    calls = []

    def recorder(kind):
        def run(cfg, n_patterns=100, **kwargs):
            calls.append((kind, cfg, n_patterns, kwargs))
            ones = np.ones(n_patterns)
            return AccuracyTrace(learning=ones, mean=ones)

        return run

    monkeypatch.setattr(experiments, "run_lifetime", recorder("sw"))
    monkeypatch.setattr(experiments, "run_lifetime_hw", recorder("hw"))
    monkeypatch.setattr(cli, "run_lifetime_hw", recorder("hw"))
    assert execute(cmd, parse_config(EVERY_KEY + f"out_dir = {tmp_path}\n")) == 0

    varied, expected = EXPECTED_CALLS[cmd]
    got = [(kind, tuple(getattr(cfg, k) for k in varied)) for kind, cfg, _, _ in calls]
    assert got == expected
    for kind, cfg, n_patterns, kwargs in calls:
        assert replace(cfg, **{k: getattr(EVERY_BASE, k) for k in varied}) == EVERY_BASE
        assert n_patterns == 6
        if kind == "hw":
            assert kwargs["params"] == EVERY_PARAMS
            assert (kwargs["noise"].sigma, kwargs["noise"].enabled) == (0.1, False)


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
