"""Span tracing installed from outside the program, around its public calls.

Each traced name is wrapped where the program looks it up: a module global
(``metasyn.crossbar.integrate_pulse`` is the name ``run_lifetime_hw``'s
crossbar calls, not the definition in ``metasyn.device``) or a class
attribute (``Crossbar.infer_batch``).  A wrapper records one span per call:
name, parent span, start, end and an optional work count.  Spans stay in
memory until the run ends.

A metric whose lookup names are not all present is reported as unmeasured
(value None) instead of failing, so a refactor that deletes or renames a
public function loses that layer's numbers, not the whole benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import time
from typing import Callable

# span name -> lookups wrapped under that name; "module:Class" targets a
# class attribute, "module" a module global.  A "re:" attribute wraps every
# matching global of the module.
LOOKUPS: dict[str, list[tuple[str, str]]] = {
    "cli.parse_config": [("metasyn.cli", "parse_config")],
    "cli.write": [("metasyn.cli", r"re:^(write_\w+_csv|svg_\w+)$")],
    "experiments.run": [
        ("metasyn.cli", "run_comparison"),
        ("metasyn.cli", "sweep_size"),
        ("metasyn.cli", "sweep_cf"),
    ],
    "experiments.lifetime_run": [
        ("metasyn.experiments", "run_lifetime"),
        ("metasyn.experiments", "run_lifetime_hw"),
        ("metasyn.cli", "run_lifetime_hw"),
    ],
    "network.lifetime_loop": [
        ("metasyn.network", "lifetime_loop"),
        ("metasyn.crossbar", "lifetime_loop"),
    ],
    "network.forward_batch": [("metasyn.network:BehavioralNetwork", "forward_batch")],
    "network.train_on_pattern": [
        ("metasyn.network:BehavioralNetwork", "train_on_pattern")
    ],
    "network.setup": [
        ("metasyn.network", "make_pattern_set"),
        ("metasyn.crossbar", "make_pattern_set"),
        ("metasyn.network:BehavioralNetwork", "initialize"),
    ],
    "synapse.transition_arrays": [("metasyn.network", "transition_arrays")],
    "device.calibrate": [
        ("metasyn.crossbar", "calibrate_metastate_table"),
        ("metasyn.cli", "calibrate_metastate_table"),
    ],
    "device.integrate_pulse": [("metasyn.crossbar", "integrate_pulse")],
    "device.decode_index": [("metasyn.device:MetastateTable", "decode_index")],
    "crossbar.init": [("metasyn.crossbar", "init_crossbar")],
    "crossbar.infer_batch": [("metasyn.crossbar:Crossbar", "infer_batch")],
    "crossbar.train_two_phase": [("metasyn.crossbar:Crossbar", "train_two_phase")],
}

# The lifetime loop's callbacks are wrapped per call so that the loop's self
# time is its bookkeeping alone.
CALLBACK = "network.lifetime_loop.callback"


def _rows(args, kwargs):
    n = len(args[1]) if len(args) > 1 else 0
    return lambda result: n


def _devices(args, kwargs):
    n = int(getattr(args[0], "size", 1))
    return lambda result: n


def _file_bytes(args, kwargs):
    return lambda result: os.path.getsize(args[0])


def _events(args, kwargs):
    log = kwargs.get("log", args[2] if len(args) > 2 else None)
    before = 0 if log is None else len(log)
    return lambda result: 0 if log is None else len(log) - before


# span name -> hook called before the call; it returns the function that
# gives the span's work count from the result.
COUNTS: dict[str, Callable] = {
    "cli.write": _file_bytes,
    "network.forward_batch": _rows,
    "crossbar.infer_batch": _rows,
    "device.integrate_pulse": _devices,
    "crossbar.train_two_phase": _events,
}

# metric -> (unit, span name, statistic)
METRICS: dict[str, tuple[str, str, str]] = {
    "cli.parse_config.busy_s": ("s", "cli.parse_config", "busy"),
    "cli.write.busy_s": ("s", "cli.write", "busy"),
    "cli.write.bytes": ("bytes", "cli.write", "count"),
    "experiments.self_s": ("s", "experiments.run", "self"),
    "experiments.lifetime_runs": ("count", "experiments.lifetime_run", "calls"),
    "network.lifetime_loop.self_s": ("s", "network.lifetime_loop", "self"),
    "network.forward_batch.busy_s": ("s", "network.forward_batch", "busy"),
    "network.forward_batch.rows": ("count", "network.forward_batch", "count"),
    "network.train_on_pattern.busy_s": ("s", "network.train_on_pattern", "busy"),
    "network.setup.busy_s": ("s", "network.setup", "busy"),
    "synapse.transition_arrays.calls": ("count", "synapse.transition_arrays", "calls"),
    "synapse.transition_arrays.busy_s": ("s", "synapse.transition_arrays", "busy"),
    "device.calibrate.calls": ("count", "device.calibrate", "calls"),
    "device.calibrate.busy_s": ("s", "device.calibrate", "busy"),
    "device.integrate_pulse.calls": ("count", "device.integrate_pulse", "calls"),
    "device.integrate_pulse.busy_s": ("s", "device.integrate_pulse", "busy"),
    "device.device_pulses": ("count", "device.integrate_pulse", "count"),
    "device.decode_index.calls": ("count", "device.decode_index", "calls"),
    "device.decode_index.busy_s": ("s", "device.decode_index", "busy"),
    "crossbar.init.self_s": ("s", "crossbar.init", "self"),
    "crossbar.infer_batch.busy_s": ("s", "crossbar.infer_batch", "busy"),
    "crossbar.infer_batch.rows": ("count", "crossbar.infer_batch", "count"),
    "crossbar.train_two_phase.self_s": ("s", "crossbar.train_two_phase", "self"),
    "crossbar.events_logged": ("count", "crossbar.train_two_phase", "count"),
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        # one [name, parent index, start, end, count] list per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: dict[str, list[str]] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        count_hook = COUNTS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "network.lifetime_loop":
                args, kwargs = self._wrap_callbacks(args, kwargs)
            after = count_hook(args, kwargs) if count_hook else None
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                rec[4] = after(result)
            return result

        return traced

    def _wrap_callbacks(self, args, kwargs):
        args = tuple(self.wrap(CALLBACK, a) if i < 2 else a for i, a in enumerate(args))
        for key in ("net_step", "infer_batch"):
            if key in kwargs:
                kwargs = {**kwargs, key: self.wrap(CALLBACK, kwargs[key])}
        return args, kwargs

    def install(self) -> None:
        """Wrap every lookup in LOOKUPS that exists; record the rest."""
        for name, lookups in LOOKUPS.items():
            for target, attr in lookups:
                if not self._install_one(name, target, attr):
                    self.missing.setdefault(name, []).append(f"{target}.{attr}")

    def _install_one(self, name: str, target: str, attr: str) -> bool:
        module_name, _, cls_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        if cls_name:
            owner = getattr(owner, cls_name, None)
            if not isinstance(owner, type):
                return False
        if attr.startswith("re:"):
            pattern = re.compile(attr[3:])
            attrs = [a for a in list(vars(owner)) if pattern.match(a)]
        else:
            attrs = [attr] if attr in vars(owner) else []
        for a in attrs:
            value = vars(owner)[a]
            if isinstance(value, classmethod):
                setattr(owner, a, classmethod(self.wrap(name, value.__func__)))
            elif callable(value):
                setattr(owner, a, self.wrap(name, value))
            else:
                return False
        return bool(attrs)

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics from the recorded spans; None where a lookup
        the metric depends on was missing."""
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        for i, (name, parent, t0, t1, count) in enumerate(self.spans):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + count
            self_time[name] = self_time.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - dur
            if not self._inside(parent, name):
                busy[name] = busy.get(name, 0.0) + dur
        stats = {"busy": busy, "self": self_time, "calls": calls, "count": counts}
        out = {}
        for metric, (unit, span, stat) in METRICS.items():
            value = None if span in self.missing else stats[stat].get(span, 0)
            out[metric] = {"value": value, "unit": unit}
        pulses = out["device.device_pulses"]["value"]
        pulse_s = out["device.integrate_pulse.busy_s"]["value"]
        if pulses is None or pulse_s is None:
            per_pulse = None
        else:
            per_pulse = 1e6 * pulse_s / pulses if pulses else 0.0
        out["device.us_per_device_pulse"] = {"value": per_pulse, "unit": "us"}
        return out

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][1]
        return False

    def write(self, path: str) -> None:
        """Write the spans as JSON: [name, parent, start_s, end_s, count]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)
