"""Span tracing for the benchmark's traced invocations, from outside ``src/``.

Capture: ``install(tracer)`` replaces the public layer functions of
opinionflow with wrappers, in every opinionflow namespace that holds them
(the defining module and each module that imported the name), and on the
classes for methods. A span records (name, start, end, parent, op id) into
one flat ``array('d')``; spans stay in memory until ``dump``. The op id
advances on each call of a workload's op-start function, so every span
knows which raster cell, trial or evolution step it served.

Analysis: ``layer_metrics`` turns a dumped trace into the per-layer
metrics. A span's self time is its duration minus its direct children's
durations, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter

REC = 5                                   # name, start, end, parent, op
BUILD = "dynamics.kernel_for.build"       # a kernel_for call that built a kernel

# Spans: (module, attribute or Class.method, span name).
SPANS = [
    ("opinionflow.dynamics", "run_to_convergence", "dynamics.run_to_convergence"),
    ("opinionflow.dynamics", "migrate_step", "dynamics.migrate_step"),
    ("opinionflow.dynamics", "kernel_for", "dynamics.kernel_for"),
    ("opinionflow.dynamics", "classify_fixed_point", "dynamics.classify_fixed_point"),
    ("opinionflow.harness", "monte_carlo_convergence", "harness.monte_carlo_convergence"),
    ("opinionflow.harness", "basin_map", "harness.basin_map"),
    ("opinionflow.harness", "verify_type_bound", "harness.verify_type_bound"),
    ("opinionflow.evolution", "run_evolution", "evolution.run_evolution"),
    ("opinionflow.evolution", "evolution_step", "evolution.evolution_step"),
    ("opinionflow.evolution", "death_phase", "evolution.death_phase"),
    ("opinionflow.graph", "InfluenceGraph.add_type", "graph.add_type"),
    ("opinionflow.graph", "InfluenceGraph.remove_type", "graph.remove_type"),
    ("opinionflow.graph", "InfluenceGraph.is_connected", "graph.is_connected"),
    ("opinionflow.graph", "InfluenceGraph.connected_components", "graph.connected_components"),
    ("opinionflow.seeding", "RunStreams.stream", "seeding.stream"),
    ("opinionflow.evolution", "Timeline.to_jsonl", "cli.serialize.to_jsonl"),
    ("opinionflow.evolution", "Timeline.summary_csv", "cli.serialize.summary_csv"),
    ("opinionflow.harness", "BasinMap.to_csv", "cli.serialize.to_csv"),
    ("opinionflow.harness", "BasinMap.to_pgm", "cli.serialize.to_pgm"),
]

# Per-call counters without a span: too frequent to time one by one.
COUNTS = [
    ("opinionflow.dynamics", "potential_phi", "dynamics.potential_phi.calls"),
    ("opinionflow.influence", "InfluenceAssignment.function_for",
     "influence.function_for.calls"),
]

# Functions whose call starts a new operation, per span name.
OP_START = {"dynamics.run_to_convergence", "evolution.evolution_step"}


def _clock() -> float:
    return time.perf_counter()


class Tracer:
    """In-memory span and counter store for one traced invocation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rec = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.rtc: list[tuple[int, bool]] = []     # (iterations, converged) per call
        self.trials: list[dict] = []              # convergence artifacts, trial order
        self.trial_root_seed: int | None = None
        self.births = self.deaths = self.max_cascade = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self.name_id(name)
        rec, stack = self.rec, self.stack
        op_start = name in OP_START

        def traced(*args, **kwargs):
            if op_start:
                self.op += 1
            idx = len(rec) // REC
            rec.extend((nid, _clock(), 0.0, stack[-1], self.op))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[idx * REC + 2] = _clock()
                stack.pop()
            if on_return is not None:
                on_return(idx, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def root(self, fn, *args):
        """Run ``fn`` as the root span ``cli.main``."""
        return self.wrap("cli.main", fn)(*args)

    # -- return hooks: counts read at the boundary where the work happens ----

    def _on_kernel_for(self, idx, args, kwargs, out):
        passed = args[2] if len(args) > 2 else kwargs.get("kernel")
        if out is not passed:
            self.rec[idx * REC] = self.name_id(BUILD)

    def _on_rtc(self, idx, args, kwargs, out):
        self.rtc.append((int(out.iterations), bool(out.converged)))

    def _on_step(self, idx, args, kwargs, out):
        record = out[1]
        self.births += record.birth is not None
        self.deaths += len(record.deaths)
        self.max_cascade = max(self.max_cascade, len(record.deaths))

    def _on_convergence(self, idx, args, kwargs, out):
        # the CLI drops stats.artifacts right after this returns
        self.trials = [dict(a) for a in out.artifacts]
        self.trial_root_seed = int(args[3] if len(args) > 3 else kwargs.get("root_seed", 0))

    def dump(self, out_dir: str, main_wall_s: float) -> None:
        """Write spans (flat float64, REC per span) and side data."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "spans.bin"), "wb") as fh:
            self.rec.tofile(fh)
        trials = []
        if self.trials:
            from opinionflow.seeding import trial_seed
            for i, art in enumerate(self.trials):
                trials.append({**art, "trial": i,
                               "trial_seed": trial_seed(self.trial_root_seed, i)})
        side = {"names": self.names, "counts": dict(self.counts), "rtc": self.rtc,
                "trials": trials, "births": self.births, "deaths": self.deaths,
                "max_cascade": self.max_cascade, "main_wall_s": main_wall_s}
        with open(os.path.join(out_dir, "trace.json"), "w") as fh:
            json.dump(side, fh)


def _replace_everywhere(original, wrapper) -> None:
    """Point every opinionflow module attribute that holds ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("opinionflow"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer function in SPANS and COUNTS (opinionflow already imported)."""
    hooks = {"dynamics.kernel_for": tracer._on_kernel_for,
             "dynamics.run_to_convergence": tracer._on_rtc,
             "evolution.evolution_step": tracer._on_step,
             "harness.monte_carlo_convergence": tracer._on_convergence}
    targets = [(m, a, n, False) for m, a, n in SPANS] + [(m, a, n, True) for m, a, n in COUNTS]
    for mod_name, attr, name, count_only in targets:
        owner = sys.modules[mod_name]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
            attr = meth
        original = getattr(owner, attr)
        wrapper = (tracer.count(name, original) if count_only
                   else tracer.wrap(name, original, hooks.get(name)))
        if cls_name:
            setattr(owner, attr, wrapper)
        else:
            _replace_everywhere(original, wrapper)


# -- analysis ------------------------------------------------------------------

def load(trace_dir: str):
    import numpy as np
    spans = np.fromfile(os.path.join(trace_dir, "spans.bin"), dtype=np.float64).reshape(-1, REC)
    with open(os.path.join(trace_dir, "trace.json")) as fh:
        side = json.load(fh)
    return spans, side


def tail_percentile(values) -> tuple[float, float]:
    """(value, pct) at the highest percentile with at least 10 samples beyond it.

    With fewer than 20 samples no such percentile exists; the maximum is
    reported at pct 100.
    """
    import numpy as np
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    for pct in (99.99, 99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(values, pct)), pct
    return float(np.max(values)), 100.0


def layer_metrics(spans, side) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (values without units)."""
    import numpy as np
    names = side["names"]
    nid = spans[:, 0].astype(np.int64)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(np.int64)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child_sum
    span_name = np.array(names, dtype=object)[nid] if len(nid) else np.array([], dtype=object)

    def mask(*wanted):
        ids = [names.index(w) for w in wanted if w in names]
        return np.isin(nid, ids)

    def busy(*wanted):
        return float(dur[mask(*wanted)].sum())

    def calls(*wanted):
        return int(mask(*wanted).sum())

    def layer_self(prefix):
        m = np.array([s.startswith(prefix + ".") for s in span_name], dtype=bool)
        return float(self_t[m].sum()) if len(m) else 0.0

    root = mask("cli.main")
    wall = float(dur[root].sum())

    rtc = side["rtc"]
    rtc_steps = sum(it + 1 if conv else it for it, conv in rtc)
    migrate_calls = calls("dynamics.migrate_step")
    steps = rtc_steps + migrate_calls
    step_self = float(self_t[mask("dynamics.run_to_convergence", "dynamics.migrate_step")].sum())

    # connectivity walks: outermost is_connected / connected_components calls
    conn = mask("graph.is_connected", "graph.connected_components")
    nested = np.zeros(len(nid), dtype=bool)
    nested[conn & has_parent] = conn[parent[conn & has_parent]]
    walks = conn & ~nested

    trials = side["trials"]
    if trials:
        iters = [t["iterations"] for t in trials]
        settle = sum(t["iterations"] - it for t, (it, conv) in zip(trials, rtc) if conv)
        unresolved = sum(1 for t in trials if not t["converged"])
    else:
        iters = [it for it, _ in rtc]
        settle = 0
        unresolved = sum(1 for _, conv in rtc if not conv)
    top = sorted(iters, reverse=True)[:max(1, -(-len(iters) // 100))] if iters else []

    op_ms = dur[mask("dynamics.run_to_convergence", "evolution.run_evolution")] * 1e3
    tail, tail_pct = tail_percentile(op_ms)
    evo_steps = calls("evolution.evolution_step")
    deaths = side["deaths"]
    builds = busy(BUILD)
    conn_s = float(dur[walks].sum())

    return {
        "dynamics.steps": steps,
        "dynamics.step_us": step_self / steps * 1e6 if steps else 0.0,
        "dynamics.run_to_convergence.busy_s": busy("dynamics.run_to_convergence"),
        "dynamics.migrate_step.busy_s": busy("dynamics.migrate_step"),
        "dynamics.kernel_for.calls": calls("dynamics.kernel_for", BUILD),
        "dynamics.kernel_builds": calls(BUILD),
        "dynamics.kernel_build_s": builds,
        "dynamics.kernel_build_share": builds / wall if wall else 0.0,
        "dynamics.potential_phi.calls": side["counts"].get("dynamics.potential_phi.calls", 0),
        "dynamics.classify_fixed_point.calls": calls("dynamics.classify_fixed_point"),
        "dynamics.classify_fixed_point.busy_s": busy("dynamics.classify_fixed_point"),
        "seeding.streams": calls("seeding.stream"),
        "seeding.stream_s": busy("seeding.stream"),
        "harness.settle_steps": settle,
        "harness.iters_p50": float(np.median(iters)) if iters else 0.0,
        "harness.iters_max": max(iters) if iters else 0,
        "harness.iters_top1pct_share": sum(top) / sum(iters) if iters and sum(iters) else 0.0,
        "harness.unresolved": unresolved,
        "harness.op_calls": len(op_ms),
        "harness.op_ms_p50": float(np.median(op_ms)) if len(op_ms) else 0.0,
        "harness.op_ms_tail": tail,
        "harness.op_ms_tail_pct": tail_pct,
        "harness.self_s": layer_self("harness"),
        "graph.add_type.busy_s": busy("graph.add_type"),
        "graph.remove_type.busy_s": busy("graph.remove_type"),
        "graph.connectivity_walks": int(walks.sum()),
        "graph.connectivity_s": conn_s,
        "graph.connectivity_share": conn_s / wall if wall else 0.0,
        "graph.walks_per_death": int(walks.sum()) / deaths if deaths else 0.0,
        "influence.function_for.calls": side["counts"].get("influence.function_for.calls", 0),
        "evolution.step_us": busy("evolution.evolution_step") / evo_steps * 1e6 if evo_steps else 0.0,
        "evolution.self_s": layer_self("evolution"),
        "evolution.death_phase.busy_s": busy("evolution.death_phase"),
        "evolution.births": side["births"],
        "evolution.deaths": deaths,
        "evolution.max_cascade": side["max_cascade"],
        "cli.serialize_s": float(dur[np.array([s.startswith("cli.serialize.") for s in span_name],
                                              dtype=bool)].sum()) if len(nid) else 0.0,
        "trace.wall_s": wall,
        "trace.self_sum_s": float(self_t.sum()),
    }
