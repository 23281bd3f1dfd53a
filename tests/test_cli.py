"""CLI tests: config parsing, serialization round-trip, command outputs,
deterministic reruns, and the seed-offset environment knob."""

import csv
import dataclasses
import hashlib
import importlib
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import metasyn
from metasyn import cli, experiments
from metasyn.crossbar import Crossbar, EventLog, init_crossbar
from metasyn.device import DeviceParams, NoiseModel, calibrate_metastate_table
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
    "g_on", "g_off", "v_off", "k_off", "alpha_off", "tau", "p_exp",
    "sigma",
    "out_dir",
]

# one out-of-range or malformed value per key
BAD = {
    "n_in": "0", "n_out": "0", "connectivity": "1.5", "activity": "1.0",
    "n_levels": "0", "model": "quantum", "seed": "-1", "updates_per_pattern": "0",
    "q": "0.0", "learning_rate": "-0.1",
    "seeds": "0, -1", "n_patterns": "0", "mean_threshold": "1.0", "hardware": "yes",
    "size_grid": "16, 0", "c_grid": "1.5", "f_grid": "0.0",
    "g_on": "1e-8", "g_off": "-1e-9", "v_off": "-0.5", "k_off": "-1.0",
    "alpha_off": "-1.0", "tau": "-1.0", "p_exp": "3.0",
    "sigma": "-0.1",
    "out_dir": "",
}


def test_key_set_is_pinned():
    keys = [line.split(" = ")[0] for line in serialize_config(RunConfig()).splitlines()]
    assert keys == KEYS and len(KEYS) == 26
    assert sorted(BAD) == sorted(KEYS)


def test_readme_key_list_matches_the_keys():
    """The README's "Keys cover ..." paragraph names every config key, and
    only those, so a key added or removed cannot leave the docs behind."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Keys cover"):].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == set(cli._KEYS)


def test_readme_removed_names_stay_removed():
    """Every `module.name` or `Class.name` in the left column of the README's
    "Removed APIs" table is absent from the package: not a module or class
    attribute, not a dataclass field, and not set on a Crossbar instance."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("Removed APIs, with what replaces them:"):].split("\n\n")[1]
    removed = [
        token
        for row in table.splitlines()[2:]
        for token in re.findall(r"`(\w+)\.(\w+)[`(]", row.split("|")[1])
    ]
    assert len(removed) >= 35
    crossbar = init_crossbar(NetworkConfig(n_in=5, n_out=3), noise=NoiseModel.off())
    for owner, name in removed:
        if owner[0].islower():
            present = set(dir(importlib.import_module(f"metasyn.{owner}")))
        else:
            cls = getattr(metasyn, owner)
            present = set(dir(cls))
            if dataclasses.is_dataclass(cls):
                present |= {f.name for f in dataclasses.fields(cls)}
            if cls is Crossbar:
                present |= set(vars(crossbar))
        assert name not in present, f"{owner}.{name}"


@pytest.mark.parametrize("key", KEYS)
def test_every_key_range_checked(key):
    with pytest.raises(ConfigError, match=rf"^line 2: .*'{key}'"):
        parse_config(f"n_in = 32\n{key} = {BAD[key]}\n")


@pytest.mark.parametrize(
    "build",
    [
        lambda: NetworkConfig(learning_rate=-0.1),
        lambda: NetworkConfig(learning_rate=float("inf")),
        lambda: NetworkConfig(seed=-1),
        lambda: DeviceParams(alpha_off=-1.0),
        lambda: DeviceParams(alpha_off=0.0),
        lambda: DeviceParams(tau=-1.0),
        lambda: ExperimentSpec(c_grid=(1.5,)),
        lambda: ExperimentSpec(f_grid=(float("nan"),)),
        lambda: ExperimentSpec(sigma=float("nan")),
        lambda: ExperimentSpec(sigma=float("inf")),
        lambda: NoiseModel(sigma=float("inf")),
        lambda: DeviceParams(g_on=float("inf")),
        lambda: DeviceParams(k_off=float("inf")),
        lambda: DeviceParams(tau=float("inf")),
        lambda: ExperimentSpec(seeds=(0, 1, 0)),
        lambda: ExperimentSpec(size_grid=(8, 8)),
        lambda: ExperimentSpec(c_grid=(0.5, 0.5)),
        lambda: ExperimentSpec(f_grid=(0.25, 0.5, 0.25)),
    ],
    ids=[
        "learning_rate", "learning_rate_inf", "seed", "alpha_off", "alpha_off_zero", "tau",
        "c_grid", "f_nan", "sigma_nan", "sigma_inf", "noise_sigma_inf", "g_on_inf",
        "k_off_inf", "tau_inf",
        "seeds_repeat", "size_grid_repeat", "c_grid_repeat", "f_grid_repeat",
    ],
)
def test_library_rejects_what_the_cli_rejects(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "key, value",
    [("sigma", "inf"), ("g_on", "inf"), ("k_off", "inf"), ("tau", "inf"),
     ("learning_rate", "inf")],
)
def test_infinite_value_rejected_at_its_line(key, value):
    # sigma = inf used to parse and then give NaN states; infinite k_off
    # or tau surfaced only later, as a misleading calibration error; an
    # infinite learning_rate jumped every gradient step's weight to 0 or 1
    with pytest.raises(ConfigError, match=rf"^line 2: '{key}' rejected: .*finite"):
        parse_config(f"n_in = 32\n{key} = {value}\n")


@pytest.mark.parametrize(
    "key, value, repeated",
    [("seeds", "0, 0", "0"), ("size_grid", "8, 16, 8", "8"), ("c_grid", "0.5, 0.5", "0.5"),
     ("f_grid", "0.25, 0.1, 0.25", "0.25")],
)
def test_repeated_entry_rejected_at_its_line(key, value, repeated):
    # seeds = 0, 0 used to run seed 0 twice, and size_grid = 8, 8 to write
    # two identical rows under one plotted line
    with pytest.raises(ConfigError, match=rf"^line 2: '{key}' rejected: .*repeat.* {repeated} twice"):
        parse_config(f"n_in = 32\n{key} = {value}\n")


@pytest.mark.parametrize("doc", ["g_on = 5e-8\ng_off = 1e-8\n", "g_off = 1e-8\ng_on = 5e-8\n"])
def test_cross_field_values_checked_together(doc):
    params = parse_config(doc).params
    assert (params.g_on, params.g_off) == (5e-8, 1e-8)


def test_cross_field_error_names_the_key():
    # g_on below the default g_off: rejected at parse time, not at run time
    with pytest.raises(ConfigError, match=r"^line 1: 'g_on'"):
        parse_config("g_on = 1e-8\n")


def test_target_activity_rejection_names_the_line():
    # activity 0.3 on one output rounds to no active target bit; the config
    # used to parse and the run to fail later, in pattern generation
    with pytest.raises(ConfigError, match=r"^line 1: 'n_out' rejected: .*target patterns"):
        parse_config("n_out = 1\nactivity = 0.3\n")


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
k_off = 8000000.0
alpha_off = 2.0
tau = 1.5
p_exp = 4.0
sigma = 0.1
"""
EVERY_BASE = NetworkConfig(
    n_in=24, n_out=20, connectivity=0.3, activity=0.35, n_levels=2,
    model=Model.BINARY, seed=4, updates_per_pattern=2, q=0.9, learning_rate=0.2,
)
EVERY_PARAMS = DeviceParams(
    g_on=2e-05, g_off=2e-07, v_off=0.9, k_off=8.0e6, alpha_off=2.0, tau=1.5, p_exp=4.0,
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
    # one share: every run goes through this process, where the spies are
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    calls = []

    def recorder(kind):
        def run(cfg, n_patterns=100, **kwargs):
            ones = np.ones(n_patterns)
            if isinstance(cfg, NetworkConfig):
                calls.append((kind, cfg, n_patterns, kwargs))
                return AccuracyTrace(learning=ones, mean=ones)
            # a lockstep group: one entry per run
            calls.extend((kind, c, n_patterns, kwargs) for c in cfg)
            return [AccuracyTrace(learning=ones, mean=ones) for _ in cfg]

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
            # unbound, so each run's crossbar draws from its own seed's stream
            assert kwargs["noise"] == NoiseModel(sigma=0.1)


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


@pytest.mark.parametrize("cmd", ["run", "dump-trace"])
def test_negative_seed_offset_names_the_variable(tmp_path, capsys, monkeypatch, cmd):
    """An offset that takes a seed below 0 is blamed on the variable, with its
    value and the first seed it makes negative, before any run or output."""
    cfgfile = tmp_path / "shift.cfg"
    cfgfile.write_text(
        TINY + f"seeds = 3, 0, 1\nseed = 0\nout_dir = {tmp_path / 'out'}\n", encoding="utf-8"
    )
    monkeypatch.setenv("METASYN_SEED_OFFSET", "-1")
    assert main([cmd, str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert "error: METASYN_SEED_OFFSET = -1 makes seed 0 negative" in err
    assert not any((tmp_path / "out").iterdir())


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


@pytest.mark.parametrize("cmd", ["compare", "sweep-cf"])
def test_outputs_do_not_depend_on_the_share_count(tmp_path, monkeypatch, cmd):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    outputs = []
    for shares in (1, 2, 3):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: shares)
        out = tmp_path / str(shares)
        cfg = parse_config(TINY + f"seeds = 0, 1, 2\nout_dir = {out}\n")
        assert execute(cmd, cfg) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_failed_share_worker_fails_the_command(tmp_path, monkeypatch, capsys):
    """Seed 1's behavioral runs go to the worker, whose error ends the
    command with status 1 and its own message; no output is written."""
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    real = experiments.run_lifetime

    def run(cfg, **kwargs):
        if cfg.seed == 1:
            raise ValueError("seed 1 cannot run")
        return real(cfg, **kwargs)

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "run_lifetime", run)
    cfgfile = tmp_path / "two_seeds.cfg"
    cfgfile.write_text(TINY + f"seeds = 0, 1\nout_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["compare", str(cfgfile)]) == 1
    assert "error: seed 1 cannot run" in capsys.readouterr().err
    assert not (tmp_path / "out" / "traces.csv").exists()
    assert multiprocessing.active_children() == []


def test_dump_trace_forks_nothing(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("dump-trace forked")

    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = parse_config(f"n_in = 5\nn_out = 3\nn_patterns = 2\nout_dir = {tmp_path}\n")
    assert execute("dump-trace", cfg) == 0


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


def test_calibrate_device_writes_the_table_hardware_runs_use(tmp_path, monkeypatch):
    """A binary model programs on the one-level table, so that is the table
    calibrate-device writes, whatever n_levels says."""
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(f"model = binary\nn_levels = 4\nout_dir = {tmp_path}\n")
    assert execute("calibrate-device", cfg) == 0
    rows = read_csv(tmp_path / "metastate_table.csv")
    table = calibrate_metastate_table(cfg.params, n_levels=1)
    assert [r[:2] for r in rows[1:]] == [["low", "0"], ["high", "0"]]
    assert [float(r[2]) for r in rows[1:]] == table.plateaus.tolist()
    hardware = init_crossbar(cfg.base, params=cfg.params).table
    assert hardware.plateaus.tolist() == table.plateaus.tolist()


def test_calibrate_device_writes_a_table_outside_the_ratio_bounds(tmp_path, capsys, monkeypatch):
    """At g_off = 1e-6 the (high, 0)/(low, 0) ratio is 3.266, which the
    library's calibration used to reject by default; run and dump-trace
    program that table, so calibrate-device writes it too and reports the
    ratio, and the library returns the same table."""
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(TINY + f"hardware = true\ng_off = 1e-6\nout_dir = {tmp_path}\n")
    assert execute("calibrate-device", cfg) == 0
    assert "conductance ratio 3.266" in capsys.readouterr().err
    rows = read_csv(tmp_path / "metastate_table.csv")
    hardware = init_crossbar(cfg.base, params=cfg.params).table
    assert [float(r[2]) for r in rows[1:]] == hardware.plateaus.tolist()
    assert calibrate_metastate_table(DeviceParams(g_off=1e-6)) is hardware


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


def test_events_csv_equals_a_csv_writer_reference(tmp_path):
    """The one-pass writer gives the bytes csv.writer gave: every label of a
    3-level chain, both phases, and floats that need 17 digits."""
    x0 = np.array([0.1 + 0.2, 1 / 3, 2.0**-60, 0.0, 1.0, 0.9796196140021615])
    x1 = np.array([0.0026056418574144646, 1e-300, 0.5, 2 / 3, 0.3, 1.0 - 2.0**-53])
    log = EventLog()
    log.blocks.append(
        (0, "potentiate", np.arange(6), np.arange(6)[::-1], x0, x1, np.arange(6), np.arange(6)[::-1])
    )
    log.blocks.append(
        (7, "depress", np.array([4]), np.array([2]), x1[:1], x0[:1], np.array([5]), np.array([0]))
    )
    cli.write_events_csv(tmp_path / "events.csv", log, n_levels=3)

    labels = ["L2", "L1", "L0", "H0", "H1", "H2"]
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["step", "phase", "row", "col", "x_before", "x_after", "meta_before", "meta_after"])
        for step, phase, row, col, a, b, i, j in log.rows():
            w.writerow([step, phase, row, col, repr(float(a)), repr(float(b)), labels[i], labels[j]])
    written = (tmp_path / "events.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert b"0.30000000000000004" in written and written.count(b"\n") == 8


def test_sweep_cf_bytes_with_target_only_invalid_cells(tmp_path, monkeypatch):
    """f = 0.1 gives 2 active input bits but no active target bit on 4
    outputs; those cells are invalid by NetworkConfig's rule alone.  The
    digest is that of the output before the rule moved there."""
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(
        "n_in = 16\nn_out = 4\nconnectivity = 0.5\nseeds = 0, 1\nn_patterns = 5\n"
        f"c_grid = 0.25, 0.5\nf_grid = 0.1, 0.5\nout_dir = {tmp_path}\n"
    )
    assert execute("sweep-cf", cfg) == 0
    digest = hashlib.sha256((tmp_path / "cf_grid.csv").read_bytes()).hexdigest()
    assert digest == "59ee24d57460db2afe53a3000786b847650a12df8254d87e4d1e35b81b1a4c6f"


def test_sweep_size_bytes(tmp_path, monkeypatch):
    """Two sizes over two seeds, one of which never crosses at 16x16, so the
    censored crossing reaches the file."""
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfg = parse_config(
        "seeds = 0, 1\nn_patterns = 12\nsize_grid = 8, 16\n" f"out_dir = {tmp_path}\n"
    )
    assert execute("sweep-size", cfg) == 0
    digest = hashlib.sha256((tmp_path / "size_grid.csv").read_bytes()).hexdigest()
    assert digest == "99dfdf31c1e85de910797e7131abe84c59767acdda6b85c86c96579608265ca2"


def test_metastate_table_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    assert execute("calibrate-device", parse_config(f"out_dir = {tmp_path}\n")) == 0
    digest = hashlib.sha256((tmp_path / "metastate_table.csv").read_bytes()).hexdigest()
    assert digest == "e9e18dfbc96037dec85c6b73954109b2425c0852c0f97c9f830c0a1af7f480e7"


def test_run_with_chain_past_int8(tmp_path, capsys, monkeypatch):
    # chain indices are int8, so a chain past 64 levels is a config error
    # on its own line, not a traceback from deep inside a run
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    text = TINY + f"n_levels = 65\nout_dir = {tmp_path / 'out'}\n"
    cfgfile = tmp_path / "long.cfg"
    cfgfile.write_text(text, encoding="utf-8")
    assert main(["run", str(cfgfile)]) == 1
    out, err = capsys.readouterr()
    line = text.splitlines().index("n_levels = 65") + 1
    assert err.startswith(f"error: line {line}: 'n_levels' rejected: n_levels must lie in [1, 64]")
    assert "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


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
    ["sigma = 0.0\n", "k_off = 8.0e6\n"],  # k_off sets the rate pair (k_off, -k_off)
    ids=["sigma", "k_pair"],
)
def test_hardware_compare_honours_device_and_noise_keys(tmp_path, monkeypatch, extra):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    default = _hw_compare_traces(tmp_path / "default")
    changed = _hw_compare_traces(tmp_path / "changed", extra)
    assert changed != default
    # the behavioral rows do not see the device, only the hw_ rows move
    keep = lambda text: [r for r in text.decode().splitlines() if not r.startswith("hw_")]
    assert keep(changed) == keep(default)


def test_heatmap_labels_follow_the_cell_labels(tmp_path):
    """0.5 and 0.5000001 both print as 0.5 under :g; the axis labels use the
    rule of the CSV's cell labels."""
    path = tmp_path / "heat.svg"
    cli.svg_heatmap(path, np.full((2, 2), 0.5), (0.5, 0.5000001), (0.25, 0.2500001), "t")
    text = path.read_text(encoding="utf-8")
    for label in ("0.5", "0.5000001", "0.25", "0.2500001"):
        assert text.count(f">{label}</text>") == 1


def test_default_grid_heatmap_bytes(tmp_path):
    spec = ExperimentSpec()
    grid = np.linspace(0.0, 1.0, 25).reshape(5, 5)
    grid[0, 0] = np.nan
    path = tmp_path / "heat.svg"
    cli.svg_heatmap(path, grid, spec.c_grid, spec.f_grid, "mean accuracy")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "546adda496c714d59c2bdb96a364907762a97341d985ead18c6c352dc0ba3034"


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


def test_main_names_a_size_grid_entry_it_cannot_build(tmp_path, capsys):
    cfgfile = tmp_path / "sizes.cfg"
    cfgfile.write_text(
        TINY + f"size_grid = 1, 8\nout_dir = {tmp_path / 'out'}\n", encoding="utf-8"
    )
    assert main(["sweep-size", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert "error: size_grid entry 1 gives no network: activity too low" in err
    assert not (tmp_path / "out" / "size_grid.csv").exists()


def test_main_rejects_gradient_hardware_run(tmp_path, capsys):
    cfgfile = tmp_path / "gd.cfg"
    cfgfile.write_text(
        TINY + f"model = gradient\nhardware = true\nout_dir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfgfile)]) == 1
    assert "error: the gradient model has no crossbar realization" in capsys.readouterr().err
    assert not (tmp_path / "out" / "traces.csv").exists()


def test_main_rejects_gradient_calibrate_device(tmp_path, capsys, monkeypatch):
    # calibrate-device used to exit 0 with the 6-state table of a chain that
    # no crossbar programs; it is rejected before any calibration
    def calibrate(*args, **kwargs):
        raise AssertionError("calibrated a gradient model")

    monkeypatch.setattr(cli, "calibrate_metastate_table", calibrate)
    cfgfile = tmp_path / "gd.cfg"
    cfgfile.write_text(
        TINY + f"model = gradient\nout_dir = {tmp_path / 'out'}\n", encoding="utf-8"
    )
    assert main(["calibrate-device", str(cfgfile)]) == 1
    assert "error: the gradient model has no crossbar realization" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metastate_table.csv").exists()


@pytest.mark.parametrize(
    "cmd, device, message",
    [
        ("calibrate-device", "v_off = 1.5\n", "programming amplitude must exceed v_off"),
        ("run", "v_off = 1.5\n", "programming amplitude must exceed v_off"),
        # k_off keeps the 1.2 V drive near the default's, so the table calibrates
        ("run", "v_off = 0.5\nk_off = 2.0e4\n", "half-select voltage must stay below v_off"),
        # every read is at 0.3 V, so a threshold below it would be moved by reads
        ("run", "v_off = 0.25\nk_off = 1.0e3\n", "v_off must exceed the 0.3 V read voltage"),
    ],
    ids=["calibrate-pulse", "run-pulse", "run-half-select", "run-read"],
)
def test_main_rejects_a_device_the_depress_side_breaks(tmp_path, capsys, cmd, device, message):
    # the reset threshold is -v_off: at v_off = 1.5 the -1.2 V depress pulse
    # would move nothing, and at v_off = 0.5 the -0.6 V half-select of the
    # depress phase would disturb the held rows
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text(
        TINY + f"hardware = true\n{device}out_dir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main([cmd, str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "v_read" not in err
    assert not any((tmp_path / "out").glob("*.csv"))


def test_main_names_the_upper_rail_when_the_pulse_is_too_strong(tmp_path, capsys):
    # at v_off = 0.7 the half select (0.6 V) holds, but the 1.2 V pulse drives
    # plateaus 1-5 onto one float64 next to x = 1
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text(
        TINY + f"hardware = true\nv_off = 0.7\nout_dir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert "error: plateaus are not strictly increasing at n_levels = 3: plateau 1" in err
    assert (
        "the pulse drives the top 5 plateaus into the upper rail, and fewer levels, "
        "a lower k_off or a higher v_off separates them" in err
    )
    assert not any((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "key, value",
    [("v_on", -1.0), ("k_on", -7.0e6), ("alpha_on", 3.0)],
    ids=["v_on", "k_on", "alpha_on"],
)
def test_main_rejects_a_depress_side_key(tmp_path, capsys, key, value):
    # the reset side mirrors the set side by construction; each of these
    # keys had exactly one value under which a depress pulse retraced a
    # potentiating one
    text = TINY + f"hardware = true\n{key} = {value}\nout_dir = {tmp_path / 'out'}\n"
    with pytest.raises(ConfigError, match=rf"^line 10: unknown key '{key}'$"):
        parse_config(text)
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text(text, encoding="utf-8")
    assert main(["run", str(cfgfile)]) == 1
    assert f"error: line 10: unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["alpha_off"])
def test_main_rejects_a_zero_alpha_at_its_line(tmp_path, capsys, key):
    # at alpha = 0 the drive was k below threshold (0 ** 0 == 1), and a
    # hardware run silently ended far below the behavioral
    cfgfile = tmp_path / "dev.cfg"
    cfgfile.write_text(
        TINY + f"hardware = true\n{key} = 0\nout_dir = {tmp_path / 'out'}\n", encoding="utf-8"
    )
    assert main(["run", str(cfgfile)]) == 1
    assert f"error: line 10: '{key}' rejected: {key} must be > 0" in capsys.readouterr().err
    assert not any((tmp_path / "out").glob("*.csv"))


def test_main_runs_with_config(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("METASYN_SEED_OFFSET", raising=False)
    cfgfile = tmp_path / "ok.cfg"
    cfgfile.write_text(TINY + f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["run", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "traces.csv" in out


def _fresh_python(code: str) -> str:
    """What code prints in a new interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_importing_the_cli_loads_no_executor():
    """Every command pays its imports, and concurrent.futures costs about
    8 ms: a pulse call imports it only when it draws noise ahead, and it
    and multiprocessing are imported otherwise only by an experiment that
    runs more than one share."""
    code = (
        "import sys, metasyn.cli; "
        "print([m in sys.modules for m in ('concurrent.futures', 'multiprocessing')])"
    )
    assert _fresh_python(code) == "[False, False]"


def test_serial_pulse_calls_load_no_executor():
    """A pulse call stays off the executor's import unless it draws noise
    ahead: noise off at any size and noise on below the gate load nothing,
    so `compare` with hardware and `dump-trace` never pay it; a noisy call
    at the gate does."""
    code = """
import sys, metasyn.cli
import numpy as np
from metasyn.device import _DRAW_AHEAD_DEVICES as gate
from metasyn.device import DeviceParams, NoiseModel, PulseSpec, integrate_pulse

def loaded(n, noise):
    integrate_pulse(np.full(n, 0.5), PulseSpec(1.2), DeviceParams(), noise)
    return 'concurrent.futures' in sys.modules

print(loaded(2 * gate, NoiseModel.off()), loaded(gate - 1, NoiseModel(0.25, rng_seed=1)),
      loaded(gate, NoiseModel(0.25, rng_seed=1)))
"""
    assert _fresh_python(code) == "False False True"
