"""Command-line front end: config parsing, experiment dispatch, CSV/SVG output.

The config format is line-oriented `key = value` text with `#` comments.
The keys are the fields of the dataclasses a run is built from, with their
defaults.  Unknown keys are rejected, and all values are range-checked at
parse time by those dataclasses, with errors naming the key and line.  Outputs
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

from .crossbar import EventLog, _require_crossbar_model, run_lifetime_hw
from .device import (
    CalibrationError,
    DeviceParams,
    MetastateTable,
    NoiseModel,
    calibrate_metastate_table,
    conductance,
    metastate_ratio,
)
from .experiments import (
    ExperimentSpec,
    SweepResult,
    _grid_label,
    run_comparison,
    sweep_cf,
    sweep_size,
)
from .network import Model, NetworkConfig
from .synapse import chain_state

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
class RunConfig(ExperimentSpec):
    """One invocation: the experiment spec plus the output directory.

    Every field of the spec's base NetworkConfig and DeviceParams, and every
    other spec field, is one config key of the same name.  Every command
    that touches hardware honours the device keys: calibrate-device,
    dump-trace, and run, compare and the sweeps with hardware = true.  All
    but calibrate-device, whose calibration is noise-free, honour sigma.
    """

    out_dir: str = "out"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.out_dir:
            raise ValueError("out_dir must not be empty")


# ---- key table ------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    t = text.lower()
    if t not in ("true", "false"):
        raise ValueError("expected 'true' or 'false'")
    return t == "true"


def _parse_model(text: str) -> Model:
    try:
        return Model(text.lower())
    except ValueError:
        raise ValueError(f"expected one of {sorted(m.value for m in Model)}") from None


# field annotation -> value parser
_PARSERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "Model": _parse_model,
    "tuple[int, ...]": lambda text: tuple(int(tok) for tok in text.split(",")),
    "tuple[float, ...]": lambda text: tuple(float(tok) for tok in text.split(",")),
}


# spec fields whose own fields are keys: field name -> their dataclass
_NESTED = {"base": NetworkConfig, "params": DeviceParams}


def _key_table() -> dict[str, tuple[str | None, str]]:
    """key -> (the spec field holding it, or None for the spec's own
    fields; the field annotation its value is parsed by)."""
    keys: dict[str, tuple[str | None, str]] = {}
    for f in fields(RunConfig):
        if f.name in _NESTED:
            keys.update((g.name, (f.name, g.type)) for g in fields(_NESTED[f.name]))
        else:
            keys[f.name] = (None, f.type)
    return keys


_KEYS = _key_table()


def _build(cls: type, assigned: dict[str, tuple[int, object]], **fixed):
    """cls built from the assigned (line, value) pairs over its defaults.

    A rejected value is reported at the latest line whose key, put back to
    its default, lets the rest pass (the latest assigned line if none does).
    """
    values = {key: value for key, (_, value) in assigned.items()}

    def accepts(drop: str) -> bool:
        try:
            cls(**fixed, **{k: v for k, v in values.items() if k != drop})
        except ValueError:
            return False
        return True

    try:
        return cls(**fixed, **values)
    except ValueError as exc:
        latest = sorted(assigned, key=lambda k: assigned[k][0], reverse=True)
        key = next((k for k in latest if accepts(k)), latest[0])
        raise ConfigError(f"line {assigned[key][0]}: '{key}' rejected: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse a config document into a fully-defaulted RunConfig.

    Later assignments to the same key override earlier ones; the values are
    range-checked together, by the dataclasses they set.
    """
    assigned: dict[str | None, dict[str, tuple[int, object]]] = {
        owner: {} for owner, _ in _KEYS.values()
    }
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
        owner, annotation = _KEYS[key]
        try:
            assigned[owner][key] = (lineno, _PARSERS[annotation](value.strip()))
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: invalid value for '{key}': {exc}"
            ) from None
    nested = {name: _build(cls, assigned[name]) for name, cls in _NESTED.items()}
    return _build(RunConfig, assigned[None], **nested)


def _value(cfg: RunConfig, key: str) -> object:
    owner, _ = _KEYS[key]
    return getattr(cfg if owner is None else getattr(cfg, owner), key)


def _fmt_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Model):
        return v.value
    if isinstance(v, tuple):
        return ", ".join(_fmt_value(e) for e in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    """Render every key with its current value; parse() inverts it."""
    return "".join(f"{key} = {_fmt_value(_value(cfg, key))}\n" for key in _KEYS)


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


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_traces_csv(path: Path, result: SweepResult, seeds: tuple[int, ...]) -> None:
    rows = (
        [label, seed, t + 1, _fnum(learning), _fnum(mean)]
        for label in result.grid[0]
        for seed, trace in zip(seeds, result.traces[label])
        for t, (learning, mean) in enumerate(zip(trace.learning, trace.mean))
    )
    _write_csv(path, ["model", "seed", "pattern_index", "learning_acc", "mean_acc"], rows)


def write_summary_csv(path: Path, result: SweepResult) -> None:
    ratio = "" if result.ratio_vs_binary is None else _fnum(result.ratio_vs_binary)
    rows = (
        [label, *map(_fnum, result.crossing_stats(label)), ratio] for label in result.grid[0]
    )
    _write_csv(path, ["model", "crossing_mean", "crossing_std", "ratio_vs_binary"], rows)


def write_cf_grid_csv(path: Path, result: SweepResult) -> None:
    c_vals, f_vals = result.grid
    points = ((c, f) for c in c_vals for f in f_vals)  # row-major, as the arrays
    cells = zip(points, result.mean_at_end.flat, result.valid.flat)
    rows = ([_fnum(c), _fnum(f), _fnum(m) if ok else "", int(ok)] for (c, f), m, ok in cells)
    _write_csv(path, ["connectivity", "activity", "mean_acc_at_100", "valid_flag"], rows)


def write_size_grid_csv(path: Path, result: SweepResult) -> None:
    cells = zip(result.grid[0], result.learning_at_end, result.mean_at_end)
    rows = (
        [n, _fnum(learning), _fnum(mean), *map(_fnum, result.crossing_stats(str(n)))]
        for n, learning, mean in cells
    )
    header = ["size", "learning_acc_at_100", "mean_acc_at_100", "crossing_mean", "crossing_std"]
    _write_csv(path, header, rows)


def write_metastate_table_csv(
    path: Path, table: MetastateTable, params: DeviceParams
) -> None:
    states = (chain_state(i, table.n_levels) for i in range(len(table.plateaus)))
    rows = (
        ["high" if s.efficacy else "low", s.metalevel, _fnum(x), _fnum(conductance(x, params))]
        for s, x in zip(states, table.plateaus)
    )
    _write_csv(path, ["efficacy", "metalevel", "x_plateau", "conductance_S"], rows)


def _meta_label(state) -> str:
    return f"{'H' if state.efficacy else 'L'}{state.metalevel}"


def write_events_csv(path: Path, events: EventLog, n_levels: int) -> None:
    """One row per event, formatted directly: no field needs quoting (ints,
    the phase words, float reprs as _fnum writes them, and H/L labels)."""
    labels = [_meta_label(chain_state(i, n_levels)) for i in range(2 * n_levels)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("step,phase,row,col,x_before,x_after,meta_before,meta_after\n")
        fh.writelines(
            f"{step},{phase},{row},{col},{x0!r},{x1!r},{labels[i0]},{labels[i1]}\n"
            for step, phase, row, col, x0, x1, i0, i1 in events.rows()
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
            f'font-family="sans-serif" font-size="11">{_grid_label(r)}</text>'
        )
    for j, c in enumerate(cols):
        lines.append(
            f'<text x="{x0 + (j + 0.5) * cw:.2f}" y="{y0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_grid_label(c)}</text>'
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
    seeds = (cfg.base.seed,) if cmd == "dump-trace" else cfg.seeds
    negative = [s for s in seeds if s + shift < 0]
    if cmd != "calibrate-device" and negative:
        raise ConfigError(f"{SEED_OFFSET_VAR} = {shift} makes seed {negative[0]} negative")

    if cmd == "calibrate-device":
        _require_crossbar_model(cfg.base)
        levels = cfg.base.effective_levels  # the table this config's hardware runs use
        _note(f"calibrating {2 * levels}-state chain")
        # unbounded, like every hardware run, which programs any ratio
        table = calibrate_metastate_table(cfg.params, n_levels=levels, ratio_bounds=None)
        _note(f"(high, 0)/(low, 0) conductance ratio {metastate_ratio(table, cfg.params):.3f}")
        paths = [out / "metastate_table.csv"]
        write_metastate_table_csv(paths[0], table, cfg.params)
        return _emit(paths)

    if cmd == "dump-trace":
        net_cfg = replace(cfg.base, seed=cfg.base.seed + shift)
        _note(
            f"dump-trace: {net_cfg.n_in}x{net_cfg.n_out} hardware run, "
            f"{cfg.n_patterns} pattern(s), seed {net_cfg.seed}"
        )
        events = EventLog()
        run_lifetime_hw(
            net_cfg,
            n_patterns=cfg.n_patterns,
            params=cfg.params,
            noise=NoiseModel(sigma=cfg.sigma),
            event_log=events,
        )
        paths = [out / "events.csv"]
        write_events_csv(paths[0], events, net_cfg.effective_levels)
        _note(f"logged {len(events)} programming event(s)")
        return _emit(paths)

    spec = replace(cfg, seeds=tuple(s + shift for s in cfg.seeds))

    if cmd in ("run", "compare"):
        models = (cfg.base.model,) if cmd == "run" else tuple(Model)
        _note(
            f"{cmd}: {len(models)} model(s) x {len(spec.seeds)} seed(s), "
            f"hardware={'on' if spec.hardware else 'off'}"
        )
        result = run_comparison(spec, models)
        paths = [out / "traces.csv", out / "summary.csv", out / "accuracy.svg"]
        write_traces_csv(paths[0], result, spec.seeds)
        write_summary_csv(paths[1], result)
        svg_line_plot(paths[2], _mean_curves(result), "mean accuracy")
        if result.ratio_vs_binary is not None:
            _note(f"multistate/binary crossing ratio: {result.ratio_vs_binary:.3f}")
        return _emit(paths)

    if cmd == "sweep-size":
        _note(f"sweep-size: sizes {spec.size_grid} x {len(spec.seeds)} seed(s)")
        result = sweep_size(spec)
        paths = [out / "size_grid.csv", out / "size_grid.svg"]
        write_size_grid_csv(paths[0], result)
        svg_line_plot(paths[1], _mean_curves(result), "mean accuracy by size")
        return _emit(paths)

    if cmd == "sweep-cf":
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
