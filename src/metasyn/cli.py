"""Command-line front end: config parsing, experiment dispatch, CSV/SVG output.

The config format is line-oriented `key = value` text with `#` comments.
Every key has a default, unknown keys are rejected, and all values are
range-checked at parse time with errors naming the key and line.  Outputs
are pure functions of the config document plus the METASYN_SEED_OFFSET
environment variable, so reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .crossbar import ProgramEvent, run_lifetime_hw
from .device import (
    CalibrationError,
    DeviceParams,
    MetastateTable,
    NoiseModel,
    calibrate_metastate_table,
    conductance,
)
from .experiments import (
    ExperimentSpec,
    SweepResult,
    Variant,
    run_comparison,
    sweep_cf,
    sweep_size,
)
from .network import Model, NetworkConfig, seed_streams

SEED_OFFSET_VAR = "METASYN_SEED_OFFSET"

COMMANDS = (
    "run",
    "compare",
    "sweep-size",
    "sweep-cf",
    "calibrate-device",
    "dump-trace",
)


class ConfigError(ValueError):
    """Config document rejected: unknown key, bad value, or bad range."""


@dataclass(frozen=True)
class RunConfig:
    """Flat key = value surface of one invocation.

    Mirrors the network configuration, the experiment grids, the device
    constants and the programming noise, plus the output directory.  Every
    command that touches hardware honours the device and noise keys:
    calibrate-device, dump-trace, and run, compare and the sweeps with
    hardware = true.
    """

    # network
    n_in: int = 128
    n_out: int = 128
    connectivity: float = 0.25
    activity: float = 0.25
    n_levels: int = 3
    model: str = "multistate"
    seed: int = 0
    updates_per_pattern: int = 1
    q: float = 1.0
    learning_rate: float = 0.1
    # experiment
    seeds: tuple[int, ...] = tuple(range(10))
    n_patterns: int = 100
    mean_threshold: float = 0.75
    hardware: bool = False
    size_grid: tuple[int, ...] = (32, 64, 128, 256)
    c_grid: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    f_grid: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    # device
    g_on: float = DeviceParams.default().g_on
    g_off: float = DeviceParams.default().g_off
    v_off: float = DeviceParams.default().v_off
    v_on: float = DeviceParams.default().v_on
    k_off: float = DeviceParams.default().k_off
    k_on: float = DeviceParams.default().k_on
    alpha_off: float = DeviceParams.default().alpha_off
    alpha_on: float = DeviceParams.default().alpha_on
    d_thickness: float = DeviceParams.default().d_thickness
    tau: float = DeviceParams.default().tau
    p_exp: float = DeviceParams.default().p_exp
    # noise
    sigma: float = 0.25
    noise: bool = True
    # output
    out_dir: str = "out"


# ---- key table ------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t == "true":
        return True
    if t == "false":
        return False
    raise ValueError("expected 'true' or 'false'")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in text.split(","))


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(tok.strip()) for tok in text.split(","))


def _parse_model(text: str) -> str:
    t = text.strip().lower()
    choices = {m.value for m in Model}
    if t not in choices:
        raise ValueError(f"expected one of {sorted(choices)}")
    return t


def _chk_pos_int(v: int) -> str | None:
    return None if v >= 1 else "must be a positive integer"


def _chk_seed(v: int) -> str | None:
    return None if v >= 0 else "must be >= 0"


def _chk_unit_open(v: float) -> str | None:
    return None if 0.0 < v < 1.0 else "must lie in (0, 1)"


def _chk_unit_half_open(v: float) -> str | None:
    return None if 0.0 < v <= 1.0 else "must lie in (0, 1]"


def _chk_pos(v: float) -> str | None:
    return None if v > 0.0 else "must be positive"


def _chk_neg(v: float) -> str | None:
    return None if v < 0.0 else "must be negative"


def _chk_nonneg(v: float) -> str | None:
    return None if v >= 0.0 else "must be >= 0"


def _chk_none(v) -> str | None:
    return None


def _chk_each(check: Callable) -> Callable:
    def run(vals) -> str | None:
        if len(vals) == 0:
            return "must not be empty"
        for v in vals:
            msg = check(v)
            if msg is not None:
                return f"has an entry that {msg}"
        return None

    return run


# key -> (value parser, range check)
_KEYS: dict[str, tuple[Callable[[str], object], Callable[[object], str | None]]] = {
    "n_in": (int, _chk_pos_int),
    "n_out": (int, _chk_pos_int),
    "connectivity": (float, _chk_unit_half_open),
    "activity": (float, _chk_unit_open),
    "n_levels": (int, _chk_pos_int),
    "model": (_parse_model, _chk_none),
    "seed": (int, _chk_seed),
    "updates_per_pattern": (int, _chk_pos_int),
    "q": (float, _chk_unit_half_open),
    "learning_rate": (float, _chk_pos),
    "seeds": (_parse_int_tuple, _chk_each(_chk_seed)),
    "n_patterns": (int, _chk_pos_int),
    "mean_threshold": (float, _chk_unit_open),
    "hardware": (_parse_bool, _chk_none),
    "size_grid": (_parse_int_tuple, _chk_each(_chk_pos_int)),
    "c_grid": (_parse_float_tuple, _chk_each(_chk_unit_half_open)),
    "f_grid": (_parse_float_tuple, _chk_each(_chk_unit_open)),
    "g_on": (float, _chk_pos),
    "g_off": (float, _chk_nonneg),
    "v_off": (float, _chk_pos),
    "v_on": (float, _chk_neg),
    "k_off": (float, _chk_pos),
    "k_on": (float, _chk_neg),
    "alpha_off": (float, _chk_nonneg),
    "alpha_on": (float, _chk_nonneg),
    "d_thickness": (float, _chk_pos),
    "tau": (float, _chk_nonneg),
    "p_exp": (float, _chk_pos),
    "sigma": (float, _chk_nonneg),
    "noise": (_parse_bool, _chk_none),
    "out_dir": (str.strip, lambda v: None if v else "must not be empty"),
}


def parse_config(text: str) -> RunConfig:
    """Parse a config document into a fully-defaulted RunConfig.

    Later assignments to the same key override earlier ones.
    """
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        parser, check = _KEYS[key]
        try:
            parsed = parser(value.strip())
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: invalid value for '{key}': {exc}"
            ) from None
        msg = check(parsed)
        if msg is not None:
            raise ConfigError(f"line {lineno}: '{key}' {msg}")
        overrides[key] = parsed
    return replace(RunConfig(), **overrides)


def _fmt_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ", ".join(_fmt_value(e) for e in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    """Render every key with its current value; parse() inverts it."""
    lines = [f"{f.name} = {_fmt_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


# ---- derived objects -------------------------------------------------------


def to_network_config(cfg: RunConfig, seed: int | None = None) -> NetworkConfig:
    return NetworkConfig(
        n_in=cfg.n_in,
        n_out=cfg.n_out,
        connectivity=cfg.connectivity,
        activity=cfg.activity,
        n_levels=cfg.n_levels,
        model=Model(cfg.model),
        seed=cfg.seed if seed is None else seed,
        updates_per_pattern=cfg.updates_per_pattern,
        q=cfg.q,
        learning_rate=cfg.learning_rate,
    )


def to_device_params(cfg: RunConfig) -> DeviceParams:
    return DeviceParams(
        g_on=cfg.g_on,
        g_off=cfg.g_off,
        v_off=cfg.v_off,
        v_on=cfg.v_on,
        k_off=cfg.k_off,
        k_on=cfg.k_on,
        alpha_off=cfg.alpha_off,
        alpha_on=cfg.alpha_on,
        d_thickness=cfg.d_thickness,
        tau=cfg.tau,
        p_exp=cfg.p_exp,
    )


def to_experiment_spec(
    cfg: RunConfig,
    variant: Variant,
    seed_shift: int = 0,
    models: tuple[Model, ...] | None = None,
) -> ExperimentSpec:
    return ExperimentSpec(
        base=to_network_config(cfg),
        variant=variant,
        seeds=tuple(s + seed_shift for s in cfg.seeds),
        n_patterns=cfg.n_patterns,
        mean_threshold=cfg.mean_threshold,
        hardware=cfg.hardware,
        models=models
        if models is not None
        else (Model.BINARY, Model.MULTISTATE, Model.GRADIENT),
        size_grid=cfg.size_grid,
        c_grid=cfg.c_grid,
        f_grid=cfg.f_grid,
        params=to_device_params(cfg),
        sigma=cfg.sigma,
        noise=cfg.noise,
    )


def seed_offset() -> int:
    """Replication shift applied to every seed, from the environment."""
    raw = os.environ.get(SEED_OFFSET_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{SEED_OFFSET_VAR} must be an integer, got {raw!r}"
        ) from None


# ---- CSV output ------------------------------------------------------------


def _fnum(v: float) -> str:
    return repr(float(v))


def _open_csv(path: Path):
    return open(path, "w", newline="", encoding="utf-8")


def write_traces_csv(path: Path, result: SweepResult, seeds: tuple[int, ...]) -> None:
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["model", "seed", "pattern_index", "learning_acc", "mean_acc"])
        for label in result.grid[0]:
            for seed, trace in zip(seeds, result.traces[label]):
                for t in range(trace.learning.size):
                    w.writerow(
                        [
                            label,
                            seed,
                            t + 1,
                            _fnum(trace.learning[t]),
                            _fnum(trace.mean[t]),
                        ]
                    )


def write_summary_csv(path: Path, result: SweepResult) -> None:
    ratio = "" if result.ratio_vs_binary is None else _fnum(result.ratio_vs_binary)
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["model", "crossing_mean", "crossing_std", "ratio_vs_binary"])
        for label in result.grid[0]:
            mean, std = result.crossing_stats(label)
            w.writerow([label, _fnum(mean), _fnum(std), ratio])


def write_cf_grid_csv(path: Path, result: SweepResult) -> None:
    c_vals, f_vals = result.grid
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["connectivity", "activity", "mean_acc_at_100", "valid_flag"])
        for i, c in enumerate(c_vals):
            for j, f in enumerate(f_vals):
                valid = bool(result.valid[i, j])
                mean = _fnum(result.mean_at_end[i, j]) if valid else ""
                w.writerow([_fnum(c), _fnum(f), mean, int(valid)])


def write_size_grid_csv(path: Path, result: SweepResult) -> None:
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            [
                "size",
                "learning_acc_at_100",
                "mean_acc_at_100",
                "crossing_mean",
                "crossing_std",
            ]
        )
        for i, n in enumerate(result.grid[0]):
            mean, std = result.crossing_stats(str(n))
            w.writerow(
                [
                    n,
                    _fnum(result.learning_at_end[i]),
                    _fnum(result.mean_at_end[i]),
                    _fnum(mean),
                    _fnum(std),
                ]
            )


def write_metastate_table_csv(
    path: Path, table: MetastateTable, params: DeviceParams
) -> None:
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["efficacy", "metalevel", "x_plateau", "conductance_S"])
        for state in table.chain_states():
            x = table.x_for(state)
            w.writerow(
                [
                    "high" if state.efficacy else "low",
                    state.metalevel,
                    _fnum(x),
                    _fnum(conductance(x, params)),
                ]
            )


def _meta_label(state) -> str:
    return f"{'H' if state.efficacy else 'L'}{state.metalevel}"


def write_events_csv(path: Path, events: list[ProgramEvent]) -> None:
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            [
                "step",
                "phase",
                "row",
                "col",
                "x_before",
                "x_after",
                "meta_before",
                "meta_after",
            ]
        )
        for ev in events:
            w.writerow(
                [
                    ev.step,
                    ev.phase,
                    ev.row,
                    ev.col,
                    _fnum(ev.x_before),
                    _fnum(ev.x_after),
                    _meta_label(ev.meta_before),
                    _meta_label(ev.meta_after),
                ]
            )


# ---- SVG output ------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_W, _H, _M = 640, 420, 50


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def svg_line_plot(path: Path, series: dict[str, np.ndarray], title: str) -> None:
    """Dependency-free polyline plot of curves over the pattern index,
    with the y axis fixed to [0, 1]."""
    lines = _svg_open(title)
    x0, y0, x1, y1 = _M, _H - _M, _W - _M, _M
    lines.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="black"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        y = y0 - frac * (y0 - y1)
        lines.append(
            f'<text x="{x0 - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{frac:g}</text>'
        )
    for k, (label, values) in enumerate(series.items()):
        n = len(values)
        pts = " ".join(
            f"{x0 + (x1 - x0) * (i / max(n - 1, 1)):.2f},"
            f"{y0 - (y0 - y1) * min(max(float(v), 0.0), 1.0):.2f}"
            for i, v in enumerate(values)
        )
        color = _PALETTE[k % len(_PALETTE)]
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{x1 - 4}" y="{y1 + 16 + 14 * k}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell_color(v: float) -> str:
    if math.isnan(v):
        return "#c0c0c0"
    level = int(round(255 * (1.0 - min(max(v, 0.0), 1.0))))
    return f"#{level:02x}{level:02x}ff"


def svg_heatmap(
    path: Path,
    grid: np.ndarray,
    rows: tuple[float, ...],
    cols: tuple[float, ...],
    title: str,
) -> None:
    """Grid heatmap; invalid (NaN) cells render gray."""
    lines = _svg_open(title)
    x0, y0 = _M + 20, _H - _M
    cw = (_W - x0 - _M) / len(cols)
    ch = (y0 - _M) / len(rows)
    for i in range(len(rows)):
        for j in range(len(cols)):
            x = x0 + j * cw
            y = y0 - (i + 1) * ch
            lines.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
                f'fill="{_cell_color(float(grid[i, j]))}" stroke="black" stroke-width="0.5"/>'
            )
    for i, r in enumerate(rows):
        lines.append(
            f'<text x="{x0 - 6}" y="{y0 - (i + 0.5) * ch + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{r:g}</text>'
        )
    for j, c in enumerate(cols):
        lines.append(
            f'<text x="{x0 + (j + 0.5) * cw:.2f}" y="{y0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{c:g}</text>'
        )
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---- command dispatch -------------------------------------------------------


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(paths: list[Path]) -> int:
    for p in paths:
        print(p)
    return 0


def _mean_curves(result: SweepResult) -> dict[str, np.ndarray]:
    return {
        str(label): result.aggregate(str(label))[2] for label in result.grid[0]
    }


def execute(cmd: str, cfg: RunConfig) -> int:
    """Dispatch one command; returns a process exit status."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shift = seed_offset()
    if shift:
        _note(f"applying seed offset {shift} from {SEED_OFFSET_VAR}")

    if cmd in ("run", "compare"):
        models = (Model(cfg.model),) if cmd == "run" else None
        spec = to_experiment_spec(cfg, Variant.COMPARE_MODELS, shift, models)
        _note(
            f"{cmd}: {len(spec.models)} model(s) x {len(spec.seeds)} seed(s), "
            f"hardware={'on' if spec.hardware else 'off'}"
        )
        result = run_comparison(spec)
        paths = [out / "traces.csv", out / "summary.csv", out / "accuracy.svg"]
        write_traces_csv(paths[0], result, spec.seeds)
        write_summary_csv(paths[1], result)
        svg_line_plot(paths[2], _mean_curves(result), "mean accuracy")
        if result.ratio_vs_binary is not None:
            _note(f"multistate/binary crossing ratio: {result.ratio_vs_binary:.3f}")
        return _emit(paths)

    if cmd == "sweep-size":
        spec = to_experiment_spec(cfg, Variant.SWEEP_SIZE, shift)
        _note(f"sweep-size: sizes {spec.size_grid} x {len(spec.seeds)} seed(s)")
        result = sweep_size(spec)
        paths = [out / "size_grid.csv", out / "size_grid.svg"]
        write_size_grid_csv(paths[0], result)
        svg_line_plot(paths[1], _mean_curves(result), "mean accuracy by size")
        return _emit(paths)

    if cmd == "sweep-cf":
        spec = to_experiment_spec(cfg, Variant.SWEEP_CF, shift)
        _note(
            f"sweep-cf: {len(spec.c_grid)}x{len(spec.f_grid)} grid x "
            f"{len(spec.seeds)} seed(s), hardware={'on' if spec.hardware else 'off'}"
        )
        result = sweep_cf(spec)
        paths = [out / "cf_grid.csv", out / "cf_grid.svg"]
        write_cf_grid_csv(paths[0], result)
        svg_heatmap(
            paths[1],
            result.mean_at_end,
            result.grid[0],
            result.grid[1],
            "mean accuracy at end of run",
        )
        return _emit(paths)

    if cmd == "calibrate-device":
        params = to_device_params(cfg)
        _note(f"calibrating {2 * cfg.n_levels}-state chain")
        table = calibrate_metastate_table(params, n_levels=cfg.n_levels)
        paths = [out / "metastate_table.csv"]
        write_metastate_table_csv(paths[0], table, params)
        return _emit(paths)

    if cmd == "dump-trace":
        seed = cfg.seed + shift
        net_cfg = to_network_config(cfg, seed=seed)
        params = to_device_params(cfg)
        noise = NoiseModel(sigma=cfg.sigma, enabled=cfg.noise, rng_seed=seed_streams(seed)["noise"])
        _note(
            f"dump-trace: {cfg.n_in}x{cfg.n_out} hardware run, "
            f"{cfg.n_patterns} pattern(s), seed {seed}"
        )
        events: list[ProgramEvent] = []
        run_lifetime_hw(
            net_cfg,
            n_patterns=cfg.n_patterns,
            params=params,
            noise=noise,
            event_log=events,
        )
        paths = [out / "events.csv"]
        write_events_csv(paths[0], events)
        _note(f"logged {len(events)} programming event(s)")
        return _emit(paths)

    raise ConfigError(f"unknown command '{cmd}'")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="metasyn",
        description="Simulate metaplastic memristive synaptic networks.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "config",
        nargs="?",
        default=None,
        help="path to a key = value config file (defaults apply if omitted)",
    )
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        cfg = parse_config(text)
        return execute(args.command, cfg)
    except (ConfigError, CalibrationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
