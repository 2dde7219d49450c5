"""Spans around the public calls between netqsim's layers.

The tracer patches the public entry points of `graphs`, `load`, `traffic`
and `sim` (and the CLI sweeps) from outside the program. A function is
replaced at every netqsim module attribute that holds it, which covers the
defining module and the name `netqsim.cli` imported it under; a method is
replaced on its class. Everything is restored when the block ends.

Each call gets a span: name, start, end, parent and cell. The cell span
opens at each `progress` callback of the sweep, and every span inside that
cell carries its id. Per-step calls (`ErramilliSource.next_bit`, `bits`,
`on_count`) would give millions of spans, so their calls are summed into
one aggregate span per parent, with a call count and the summed time.
Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "cell", "start", "end", "dur", "calls", "attrs", "hot")

    def __init__(self, sid, name, parent, cell, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.cell = cell
        self.start = start
        self.end = start
        self.dur = 0.0
        self.calls = 1
        self.attrs = {}
        self.hot = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def record(self, t0: float) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "cell": self.cell,
            "start": self.start - t0, "end": self.end - t0, "dur": self.dur,
            "calls": self.calls, **self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.cell = 0

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.cell, clock())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        top = self.stack.pop()
        if top is not span and top.name == "cli.cell":
            self._end(top)  # the last cell ends with its sweep
            top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed while {top.name} is open")
        self._end(span)

    @staticmethod
    def _end(span: Span) -> None:
        span.end = clock()
        span.dur = span.end - span.start

    def aggregate(self, parent: Span, name: str, t0: float) -> Span:
        """The aggregate span of `name` calls under `parent`."""
        if parent.hot is None:
            parent.hot = {}
        agg = parent.hot.get(name)
        if agg is None:
            agg = parent.hot[name] = Span(len(self.spans), name, parent.id, parent.cell, t0)
            agg.calls = 0
            self.spans.append(agg)
        return agg

    def progress(self, _message: str) -> None:
        """Sweep progress callback: the previous cell ends, a new one starts."""
        if self.stack[-1].name == "cli.cell":
            self.close(self.stack[-1])
        self.cell += 1
        self.open("cli.cell")

    # -- patching ------------------------------------------------------------

    def wrap(self, fn, name: str, probe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = probe(args, kwargs) if probe else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if finish:
                span.attrs.update(finish(result))
            return result

        return wrapper

    def wrap_hot(self, fn, name: str):
        tracer, stack = self, self.stack
        last = [None, None]  # parent span, its aggregate span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                parent = stack[-1]
                if parent is not last[0]:
                    last[0], last[1] = parent, tracer.aggregate(parent, name, t0)
                agg = last[1]
                agg.calls += 1
                agg.dur += t1 - t0
                agg.end = t1

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        import netqsim  # noqa: F401 - loads every layer module
        undo = []
        try:
            for module, qualname, name, kind, probe in TARGETS:
                owner = sys.modules[module]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(owner, cls_name)
                    places = [(owner, attr)]
                else:
                    attr = qualname
                    fn = getattr(owner, attr)
                    places = [
                        (mod, key)
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name == "netqsim" or mod_name.startswith("netqsim.")
                        for key, value in vars(mod).items()
                        if value is fn
                    ]
                fn = getattr(*places[0])
                wrapper = self.wrap_hot(fn, name) if kind == "hot" else self.wrap(fn, name, probe)
                for place in places:
                    undo.append((place, getattr(*place)))
                    setattr(*place, wrapper)
            yield self
        finally:
            for (owner, attr), fn in reversed(undo):
                setattr(owner, attr, fn)


# -- probes: called with the call's arguments, they return a function that
# turns the result into span attributes (computed sizes and counts) -----------


def _giant_probe(args, kwargs):
    return lambda result: {"n_giant": result[0].n_vertices}


def _apsp_probe(args, kwargs):
    n = args[0].n_vertices
    return lambda result: {"apsp_bytes": 4 * n * n}


def _load_probe(args, kwargs):
    g = args[0]
    scans = 4 * g.n_vertices * g.n_edges
    return lambda result: {"edge_scans": scans}


def _estimate_rate_probe(args, kwargs):
    import netqsim.traffic

    bound = inspect.signature(netqsim.traffic.estimate_rate).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    steps = a["n_orbits"] * (a["burn_in"] + a["samples"])
    return lambda result: {"map_steps": steps}


def _hosts_probe(args, kwargs):
    return lambda result: {"hosts": len(result)}


def _forwards(state) -> int:
    return sum(sum(row) for row in state.link_counts)


def _run_steps_probe(args, kwargs):
    state = args[0]
    count = args[1] if len(args) > 1 else kwargs["count"]
    before = _forwards(state)
    return lambda result: {"steps": count, "forwards": _forwards(state) - before}


def _run_probe(args, kwargs):
    config = args[0] if args else kwargs["config"]

    def finish(m):
        series = m.queue_length_timeseries
        return {
            "generated": m.generated,
            "measure_steps": config.measure_steps,
            "max_queue": m.max_queue,
            "in_flight_end": m.in_flight_at_end,
            "mean_in_flight": sum(series) / len(series) if series else 0.0,
        }

    return finish


# (defining module, function or Class.method, span name, kind, probe)
TARGETS = [
    ("netqsim.graphs", "generate_static_model", "graphs.generate", "span", None),
    ("netqsim.graphs", "giant_component", "graphs.giant", "span", _giant_probe),
    ("netqsim.graphs", "all_pairs_hop_distances", "graphs.apsp", "span", _apsp_probe),
    ("netqsim.graphs", "characteristic_path_length", "graphs.cpl", "span", None),
    ("netqsim.load", "compute_load", "load.compute_load", "span", _load_probe),
    ("netqsim.load", "load_stats", "load.stats", "span", None),
    ("netqsim.traffic", "calibrate_d", "traffic.calibrate_d", "span", None),
    ("netqsim.traffic", "estimate_rate", "traffic.estimate_rate", "span", _estimate_rate_probe),
    ("netqsim.traffic", "ErramilliSource.__init__", "traffic.source_init", "span", None),
    ("netqsim.traffic", "ErramilliSource.next_bit", "traffic.next_bit", "hot", None),
    ("netqsim.traffic", "ErramilliSource.bits", "traffic.bits", "hot", None),
    ("netqsim.traffic", "ErramilliSource.on_count", "traffic.on_count", "hot", None),
    ("netqsim.sim", "assign_hosts", "sim.assign_hosts", "span", _hosts_probe),
    ("netqsim.sim", "SimState.__init__", "sim.state_init", "span", None),
    ("netqsim.sim", "SimState.run_steps", "sim.run_steps", "span", _run_steps_probe),
    ("netqsim.sim", "run", "sim.run", "span", _run_probe),
    ("netqsim.cli", "run_fig12_sweep", "cli.sweep", "span", None),
    ("netqsim.cli", "run_fig34_sweep", "cli.sweep", "span", None),
]


def layer_metrics(tracer: Tracer, sweep_s: float) -> dict:
    """Per-layer numbers of one traced sweep (values only; units live in
    BENCHMARK.json)."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    child_dur = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_dur[s.parent] += s.dur

    def self_time(s):
        return s.dur - child_dur[s.id]

    def named(name):
        return [s for s in spans if s.name == name]

    def dur(name):
        return sum(s.dur for s in named(name))

    def calls(name):
        return sum(s.calls for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in named(name)), default=0)

    def layer_self(layer):
        return sum(self_time(s) for s in spans if s.layer == layer)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    # Source constructors of the simulator; calibration's own sources are
    # inside traffic.calibrate_d_s.
    sim_source_init = sum(
        s.dur for s in named("traffic.source_init")
        if s.parent is not None and by_id[s.parent].layer == "sim"
    )
    sim_self = layer_self("sim")
    sim_run = dur("sim.run")
    steps = attr_sum("sim.run_steps", "steps")
    forwards = attr_sum("sim.run_steps", "forwards")
    calibrate = dur("traffic.calibrate_d")
    map_steps = attr_sum("traffic.estimate_rate", "map_steps")
    compute_load = dur("load.compute_load")
    edge_scans = attr_sum("load.compute_load", "edge_scans")
    hosts_of_run = {s.parent: s.attrs["hosts"] for s in named("sim.assign_hosts")}
    host_slots = sum(
        s.attrs["measure_steps"] * hosts_of_run.get(s.id, 0) for s in named("sim.run")
    )
    layers = ("graphs", "load", "traffic", "sim", "cli")
    covered = sum(layer_self(layer) for layer in layers)
    return {
        "graphs.generate_s": dur("graphs.generate"),
        "graphs.giant_s": dur("graphs.giant"),
        "graphs.apsp_s": dur("graphs.apsp"),
        "graphs.cpl_s": dur("graphs.cpl"),
        "graphs.self_s": layer_self("graphs"),
        "graphs.n_giant": attr_max("graphs.giant", "n_giant"),
        "graphs.apsp_bytes": attr_max("graphs.apsp", "apsp_bytes"),
        "load.compute_load_s": compute_load,
        "load.edge_scans": edge_scans,
        "load.edge_scans_per_s": rate(edge_scans, compute_load),
        "load.self_s": layer_self("load"),
        "traffic.next_bit_calls": calls("traffic.next_bit"),
        "traffic.next_bit_s": dur("traffic.next_bit"),
        "traffic.bits_calls": calls("traffic.bits"),
        "traffic.source_init_s": sim_source_init,
        "traffic.calibrate_d_s": calibrate,
        "traffic.estimate_rate_calls": calls("traffic.estimate_rate"),
        "traffic.calib_map_steps_per_s": rate(map_steps, calibrate),
        "traffic.self_s": layer_self("traffic"),
        "sim.run_s": sim_run,
        "sim.self_s": sim_self,
        "sim.steps": steps,
        "sim.steps_per_s": rate(steps, sim_run),
        "sim.forwards": forwards,
        "sim.forwards_per_s": rate(forwards, sim_self),
        "sim.max_queue": attr_max("sim.run", "max_queue"),
        "sim.in_flight_end": attr_max("sim.run", "in_flight_end"),
        "sim.mean_in_flight": attr_max("sim.run", "mean_in_flight"),
        "sim.offered_rate": rate(attr_sum("sim.run", "generated"), host_slots),
        "cli.self_s": layer_self("cli"),
        "cli.cells": len(named("cli.cell")),
        "trace.spans": len(spans),
        "trace.sweep_s": sweep_s,
        "trace.coverage": covered / sweep_s,
    }
