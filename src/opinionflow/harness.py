"""Monte Carlo drivers that check the model's probabilistic claims at desk scale.

Each verifier instantiates one theorem: it validates the theorem's
hypothesis against the config (rejecting with the failed inequality named),
runs seeded trials, and compares the empirical success frequency against
the theorem's probability bound minus a 3-sigma statistical slack, with a
Wilson 95% interval reported alongside. Probability-one claims are checked
as ">= 99.5% of trials" by convention: finite precision and iteration caps
make the literal claim untestable.

Trials are embarrassingly parallel; per-trial seeds come from the root seed
by spawn index, so results never depend on worker count.
"""

from __future__ import annotations

import math
import os
import pickle
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby

import numpy as np

from . import evolution, seeding
from .dynamics import (MAX_ITERS, STOP_REASONS, THETA_ACTIVE, TOL_STEP, PopulationState,
                       classify_fixed_point, kernel_for, run_to_convergence)
from .errors import ConfigurationError, HypothesisError, NotAFixedPointError
from .graph import InfluenceGraph
from .influence import InfluenceAssignment, validate

CONVERGENCE_SUCCESS_BAR = 0.995   # empirical stand-in for "probability one"


# -- sampling -----------------------------------------------------------------

def sample_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform point on the n-simplex: n standard exponentials, normalized."""
    if n < 1:
        raise ValueError("n must be at least 1")
    draws = rng.exponential(scale=1.0, size=n)
    return draws / draws.sum()


def sample_state(graph: InfluenceGraph, rng: np.random.Generator) -> PopulationState:
    ids = tuple(graph.vertex_list())
    return PopulationState(graph, ids, sample_simplex(rng, len(ids)))


# -- statistics ---------------------------------------------------------------

def wilson95(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def three_sigma_slack(bound: float, trials: int) -> float:
    """3 standard errors of a proportion estimated at the paper's bound."""
    return 3.0 * math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)


@dataclass
class TrialStats:
    """Aggregated outcome of a seeded trial sweep."""

    trials: int
    successes: int
    estimate: float
    wilson: tuple[float, float]
    paper_bound: float | None = None
    slack: float = 0.0
    verdict: str | None = None           # "pass" | "fail" | "vacuous"
    artifacts: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "wilson95": list(self.wilson),
            "paper_bound": self.paper_bound,
            "slack": self.slack,
            "verdict": self.verdict,
            **self.extras,
        }


def _finish(successes: int, trials: int, bound: float | None,
            artifacts: list, extras: dict, vacuous: bool = False) -> TrialStats:
    estimate = successes / trials
    slack = three_sigma_slack(bound, trials) if bound is not None else 0.0
    if vacuous:
        verdict = "vacuous"
    elif bound is None:
        verdict = None
    else:
        verdict = "pass" if estimate >= bound - slack else "fail"
    return TrialStats(trials, successes, estimate, wilson95(successes, trials),
                      bound, slack, verdict, artifacts, extras)


BATCH_BUDGET = 1 << 17   # most row x (n + m) cells in one run_to_convergence batch:
                         # a row holds n masses and m edge flows


def _workers(jobs: int) -> int:
    """The worker processes for ``jobs``, capped at the CPU count: a forked
    pool starts all of its workers at once."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _pmap(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], in order, on ``_workers(jobs)`` processes.

    Runs in-process for ``jobs == 1`` or at most one item. Otherwise rejects
    items that cannot be pickled before any pool starts, and only then imports
    and starts the pool: the process-pool stack (multiprocessing, socket,
    subprocess, logging) loads only in a run that uses it.
    """
    workers = _workers(jobs)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        pickle.dumps(items[0])
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ConfigurationError(f"a trial's inputs cannot be sent to worker "
                                 f"processes ({exc}); run with jobs=1") from exc
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (4 * workers))
        return list(pool.map(fn, items, chunksize=chunk))


def _map_rows(fn, rows, args: tuple, jobs: int) -> list:
    """fn((batch, *args)) of each batch of rows, in order, where args[0] is the
    graph of n types and m edges. A batch holds at most max(1, BATCH_BUDGET //
    (n + m)) rows, and there is at least one batch per worker (``_workers(jobs)``)
    where rows allow; a row's result does not depend on its batch.
    """
    workers = _workers(jobs)
    graph = args[0]
    cap = max(1, BATCH_BUDGET // (len(graph) + len(graph.edges())))
    size = min(cap, max(1, -(-len(rows) // workers)))
    items = [(rows[lo:lo + size], *args) for lo in range(0, len(rows), size)]
    return _pmap(fn, items, jobs)


def _label(active) -> str:
    """Basin label of a sorted active set: its "+"-joined ids, or "none"."""
    return "+".join(map(str, active)) or "none"


# -- convergence to independent sets -------------------------------------------

def _settled_limit(state: PopulationState, applied: int, assignment, max_iters: int):
    """Iterate past the step-size stop of an uncertified row, which has taken
    ``applied`` steps, until its limit classifies structurally.

    The L1-step criterion can fire while a vanishing type still sits above
    THETA_ACTIVE (its decay is slow when its absorbing neighbor is small),
    which would misread the limit's support. Such states fail the equal-mass
    component test, so we keep iterating, within the same total budget of
    max_iters steps, until the state classifies as a fixed point. The flow
    gate is TOL_STEP: a limit accepted at L1 step < TOL_STEP carries residual
    flows of that scale. Returns (state, iterations, settled), where
    iterations is the index of the last step applied, or max_iters when the
    budget ran out, as ``run_to_convergence`` counts.

    The state is checked right after the L1 stop and then once per 1024
    steps, a chunk that the budget may cut short. The chunk at whose end the
    state first classifies is then replayed from its start, bit for bit,
    and the first state in it that classifies is the limit. Only a state
    whose largest |flow| is below TOL_STEP can classify, so only those are
    tested. A settled row's limit and iterations are thus those of the
    first step at which it classifies, whatever max_iters is beyond it.
    """
    kernel = kernel_for(state, assignment)

    def classifies(x) -> PopulationState | None:
        limit = PopulationState(state.graph, state.ids, x)
        try:
            classify_fixed_point(limit, assignment, tol_flow=TOL_STEP)
            return limit
        except NotAFixedPointError:
            return None

    x, start, steps = state.x, None, 0
    while (limit := classifies(x)) is None:
        if applied >= max_iters:
            return PopulationState(state.graph, state.ids, x), max_iters, False
        start, steps = x, min(1024, max_iters - applied)
        x = kernel.advance(x, steps)[0]
        applied += steps
    if start is not None:       # the chunk's start does not classify; each later state may
        y = kernel.step(start)[0]
        for k in range(applied - steps + 1, applied):   # y is the state after k steps
            y_next, flows = kernel.step(y)
            if np.abs(flows).max() < TOL_STEP and (first := classifies(y)) is not None:
                return first, k - 1, True
            y = y_next
    return limit, applied - 1, True


def _convergence_batch(args) -> list[dict]:
    seeds, graph, assignment, max_iters = args
    ids = tuple(graph.vertex_list())
    starts = np.array([sample_simplex(seeding.generator(s), len(ids)) for s in seeds])
    res = run_to_convergence(PopulationState(graph, ids, starts), assignment,
                             max_iters=max_iters, certify=True)
    artifacts = []
    for x, stop, reason, s in zip(res.limit.x, res.stops.tolist(), res.reasons.tolist(),
                                  res.support):
        if reason == "certified":
            active, settled = [ids[k] for k in np.flatnonzero(s).tolist()], True
        else:
            limit, settled = PopulationState(graph, ids, x), reason == "l1"
            if settled:         # the row has taken stop + 1 steps
                limit, stop, settled = _settled_limit(limit, stop + 1, assignment, max_iters)
            active, reason = sorted(limit.active_set()), "l1" if settled else "budget"
        artifacts.append({"converged": settled, "iterations": stop, "active": active,
                          "independent": graph.is_independent_set(active),
                          "label": _label(active), "stop": reason})
    return artifacts


def monte_carlo_convergence(graph: InfluenceGraph, assignment: InfluenceAssignment,
                            trials: int, root_seed: int = 0, max_iters: int = MAX_ITERS,
                            jobs: int = 1) -> TrialStats:
    """Estimate how often uniform starts reach an independent active set.

    Requires sup|F| < 1/2 on the graph's edges (the regime in which the
    almost-sure claim holds), and F strictly increasing on every edge
    (``validate``'s grid check): across an edge with a flat F, such as
    linear with a = 0, no mass moves, and its two ends may keep unequal
    masses forever. A trial stops when the invariant of
    ``_EdgeKernel.certificate`` proves its limit support, or else at its
    L1 stop (TOL_STEP) and a settle past it (``_settled_limit``), or at the
    budget; its limit support is the types above THETA_ACTIVE.
    A trial's ``iterations`` is the index of the last step it applied; for
    a trial that settles, that is the first step after which its state
    classifies, whatever max_iters is beyond it.
    Unconverged trials count as failures. The extras carry a basin census
    (limit label -> trial count), the count of trials per stop reason, and
    every unresolved trial (unconverged, or on a non-independent set) with
    the seed its start was drawn from.
    """
    sup = assignment.sup_abs(graph)
    if not sup < 0.5:
        raise HypothesisError("sup|F| < 1/2", f"sup|F| = {sup:g} >= 1/2")
    flat = {id(f) for f in assignment.functions(graph) if not validate(f).strictly_increasing}
    for u, v in graph.edges():
        f = assignment.function_for(u, v)
        if id(f) in flat:
            name = "custom" if f.family == "custom" else f"{f.family}:{f.a:g}"
            raise HypothesisError("F strictly increasing on every edge",
                                  f"F = {name} on edge {u}-{v} is not strictly increasing")
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    seeds = [seeding.trial_seed(root_seed, i) for i in range(trials)]
    artifacts = [a for part in _map_rows(_convergence_batch, seeds,
                                         (graph, assignment, max_iters), jobs)
                 for a in part]
    successes = sum(1 for a in artifacts if a["converged"] and a["independent"])
    census = Counter(a["label"] for a in artifacts if a["converged"])
    stops = Counter(a["stop"] for a in artifacts)
    extras = {"census": dict(sorted(census.items())),
              "unconverged": sum(1 for a in artifacts if not a["converged"]),
              "stops": {reason: stops[reason] for reason in STOP_REASONS},
              "unresolved": [{"trial": i, "trial_seed": seed, "label": a["label"],
                              "stop": a["stop"]}
                             for i, (seed, a) in enumerate(zip(seeds, artifacts))
                             if not (a["converged"] and a["independent"])]}
    return _finish(successes, trials, CONVERGENCE_SUCCESS_BAR, artifacts, extras)


# -- basin map ------------------------------------------------------------------

@dataclass
class BasinMap:
    """Raster of limit labels over the 2-simplex of a 3-type graph.

    Row i fixes the first coordinate at i/resolution; cell j within the row
    sets the second to j/resolution and the third to the remainder. Labels
    are "+"-joined active ids of the limit, or "unresolved". ``counts`` holds
    the cells of each label, labels sorted; the legend numbers the labels in
    that order.
    """

    ids: tuple[int, int, int]
    resolution: int
    rows: list[list[str]]
    counts: dict[str, int]

    @property
    def legend(self) -> dict[str, int]:
        return {lab: k for k, lab in enumerate(self.counts)}

    def cell_count(self) -> int:
        return sum(self.counts.values())

    def label_fractions(self) -> dict[str, float]:
        total = self.cell_count()
        return {lab: count / total for lab, count in self.counts.items()}

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self.rows) + "\n"

    def to_pgm(self) -> str:
        """Plain portable graymap; cells outside the simplex are 0."""
        levels = max(len(self.counts) - 1, 1)
        grays = {lab: str(int(round(40 + (255 - 40) * k / levels)))
                 for k, lab in enumerate(self.counts)}
        side = self.resolution + 1
        lines = ["P2", f"{side} {side}", "255"]
        for i in range(side):
            row = self.rows[i] if i < len(self.rows) else []
            lines.append(" ".join([*map(grays.__getitem__, row), *["0"] * (side - len(row))]))
        return "\n".join(lines) + "\n"


def _basin_batch(args) -> np.ndarray:
    """Each cell's code: the bits of its active types' places in the graph's
    vertex order, or 8 if its stop reached max_iters."""
    starts, graph, assignment, tol, max_iters = args
    ids = tuple(graph.vertex_list())
    res = run_to_convergence(PopulationState(graph, ids, starts), assignment, tol,
                             max_iters, certify=True)
    bits = np.array([1, 2, 4])
    certified, active = res.support @ bits, (res.limit.x > THETA_ACTIVE) @ bits  # S is never empty
    return np.where(res.stops < max_iters, np.where(certified > 0, certified, active), 8)


def basin_map(graph: InfluenceGraph, assignment: InfluenceAssignment,
              resolution: int = 400, tol: float = TOL_STEP,
              max_iters: int = MAX_ITERS, jobs: int = 1) -> BasinMap:
    """Run every barycentric grid cell to convergence and label its basin.

    Boundary cells are included: the simplex boundary is invariant under
    the dynamics, so they are legitimate starts. Cells run in raster order
    as batches of at most ``BATCH_BUDGET // (3 + m)`` cells on m edges (see
    ``_map_rows`` and ``run_to_convergence``), split among ``jobs`` workers;
    each cell's limit is the one it reaches alone, so the raster does not
    depend on ``jobs``. A cell is labelled by its certified support (see
    ``monte_carlo_convergence``) or else by its types above THETA_ACTIVE at
    the L1 stop; a cell whose stop reaches ``max_iters`` is "unresolved".
    """
    if len(graph) != 3:
        raise ConfigurationError("basin_map needs a graph of exactly 3 types")
    if resolution < 1:
        raise ConfigurationError("resolution must be at least 1")
    # integer numerators over one denominator keep diagonal ties exact,
    # so tie cells legitimately converge to split limits
    i, i_plus_j = np.triu_indices(resolution + 1)
    starts = np.stack([i, i_plus_j - i, resolution - i_plus_j], axis=1) / resolution
    codes = np.concatenate(_map_rows(_basin_batch, starts,
                                     (graph, assignment, tol, max_iters), jobs))
    ids = tuple(graph.vertex_list())
    names = [_label(v for k, v in enumerate(ids) if bits >> k & 1) for bits in range(8)]
    names.append("unresolved")
    counts = np.bincount(codes, minlength=len(names))
    labels = np.array(names, dtype=object)[codes].tolist()
    ends = np.cumsum(np.arange(resolution + 1, 0, -1)).tolist()
    rows = [labels[lo:hi] for lo, hi in zip([0] + ends, ends)]
    return BasinMap(ids, resolution, rows,
                    dict(sorted((names[c], counts[c].item()) for c in np.flatnonzero(counts))))


# -- stability windows -----------------------------------------------------------

@dataclass(frozen=True)
class StableWindow:
    """Maximal run of steps whose migration phase moved no mass.

    Covers steps start .. start+duration inclusive (duration = length-1,
    matching the inclusive-range definition of stability windows).
    """

    start: int
    duration: int

    @property
    def length(self) -> int:
        return self.duration + 1


def detect_stable_windows(timeline: evolution.Timeline) -> list[StableWindow]:
    """All maximal windows of migration-inactive steps, in order."""
    windows = []
    for active, run in groupby(timeline.records, key=lambda record: record.migration_active):
        if not active:
            run = list(run)
            first, last = run[0], run[-1]
            windows.append(StableWindow(first.step, last.step + last.repeat - 1 - first.step))
    return windows


def required_window_length(p: float) -> int:
    """Steps covered by a window of extent 1/(3p): floor(1/(3p)) + 1."""
    if p <= 0:
        raise ValueError("p must be positive")
    return int(math.floor(1.0 / (3.0 * p))) + 1


# -- theorem: long quiet periods under infrequent births --------------------------

def _evolution_trial(args):
    config, graph, start, seed_run, seed_x0, summarize = args
    if start == "adversarial":
        x0 = PopulationState.uniform(graph)
    else:
        x0 = sample_state(graph, seeding.generator(seed_x0))
    return summarize(evolution.run_evolution(x0, replace(config, seed=seed_run)))


def _run_seeds(trials: int, root_seed: int) -> list[int]:
    """The run seed of each trial of an evolution sweep: trial_seed(root_seed, 2i)
    for trial i."""
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    return [seeding.trial_seed(root_seed, 2 * i) for i in range(trials)]


def _evolution_sweep(summarize, config: evolution.EvolutionConfig,
                     graph: InfluenceGraph | None, trials: int, root_seed: int, jobs: int,
                     start: str = "random") -> list:
    """summarize(timeline) of each trial, in order: trial i runs with seed
    trial_seed(root_seed, 2i) on ``graph`` (default path:4) from equal masses
    ("adversarial") or from a simplex point drawn with trial_seed(root_seed, 2i+1)."""
    graph = graph or InfluenceGraph.path(4)
    items = [(config, graph, start, seed_run, seeding.trial_seed(root_seed, 2 * i + 1),
              summarize) for i, seed_run in enumerate(_run_seeds(trials, root_seed))]
    return _pmap(_evolution_trial, items, jobs)


def _best_window(timeline: evolution.Timeline, needed: int) -> dict:
    windows = detect_stable_windows(timeline)
    best = max((w.length for w in windows), default=0)
    return {"best_window": best, "windows": len(windows),
            "births": timeline.birth_count(), "success": best >= needed}


def verify_stability_theorem(config: evolution.EvolutionConfig, trials: int,
                             initial_graph: InfluenceGraph | None = None,
                             root_seed: int = 0, jobs: int = 1) -> TrialStats:
    """Check: with prob >= 1-e^(-tp/6) a quiet window of extent 1/(3p) starts by t.

    Hypothesis (rejected with the failed inequality named):
      p < min(eps*delta^3*alpha_min / (3*beta_max), 2/3)  and  p > 0
      horizon > 1 / (eps*delta^3*alpha_min - 3*p*beta_max)
    """
    alpha_min, _ = config.assignment.alpha_bounds()
    gain = config.epsilon * config.delta**3 * alpha_min
    if config.p <= 0:
        raise HypothesisError("p > 0", "the 1/(3p) window needs a positive birth rate")
    p_cap = min(gain / (3.0 * config.beta_max), 2.0 / 3.0)
    if not config.p < p_cap:
        why = ("; eps*delta^3*alpha_min is 0 because delta is 0: set --delta"
               if config.delta == 0 else "")
        raise HypothesisError(
            "p < min(eps*delta^3*alpha_min/(3*beta_max), 2/3)",
            f"p = {config.p:g} >= {p_cap:g}{why}")
    drift = gain - 3.0 * config.p * config.beta_max
    if not config.horizon > 1.0 / drift:
        raise HypothesisError(
            "t > 1/(eps*delta^3*alpha_min - 3*p*beta_max)",
            f"horizon = {config.horizon} <= {1.0 / drift:g}")

    needed = required_window_length(config.p)
    artifacts = _evolution_sweep(partial(_best_window, needed=needed), config,
                                 initial_graph, trials, root_seed, jobs)
    successes = sum(1 for a in artifacts if a["success"])
    bound = 1.0 - math.exp(-config.horizon * config.p / 6.0)
    extras = {"required_window": needed,
              "mean_best_window": float(np.mean([a["best_window"] for a in artifacts]))}
    return _finish(successes, trials, bound, artifacts, extras)


# -- theorem: the number of types stays logarithmic --------------------------------

def _type_counts(timeline: evolution.Timeline, bound_types: float, cap: int) -> dict:
    final = timeline.last_step().type_count
    peak = timeline.max_type_count()
    return {"final_types": final, "peak_types": peak,
            "cap_ok": peak <= cap, "success": final <= bound_types}


def verify_type_bound(config: evolution.EvolutionConfig, trials: int, start: str = "random",
                      initial_graph: InfluenceGraph | None = None,
                      root_seed: int = 0, jobs: int = 1) -> TrialStats:
    """Check: at the horizon, the type count is <= 72*ln(1/eps) w.p. >= 1-3*eps.

    Hypothesis: alpha_max <= p/512 and horizon >= (16/p)*ln(1/eps)^2.
    When 72*ln(1/eps) already exceeds the hard floor(1/eps) cap the bound
    says nothing; the sweep still runs but the verdict is "vacuous".
    ``start`` is "random" (uniform simplex point) or "adversarial" (equal
    masses) on ``initial_graph``, by default path:8.
    """
    if start not in ("random", "adversarial"):
        raise ConfigurationError(f"start must be 'random' or 'adversarial', got {start!r}")
    _, alpha_max = config.assignment.alpha_bounds()
    if not alpha_max <= config.p / 512.0:
        raise HypothesisError("alpha_max <= p/512",
                              f"alpha_max = {alpha_max:g} > {config.p / 512.0:g}")
    log_inv_eps = math.log(1.0 / config.epsilon)
    t_min = (16.0 / config.p) * log_inv_eps**2
    if not config.horizon >= t_min:
        raise HypothesisError("t >= (16/p)*log^2(1/eps)",
                              f"horizon = {config.horizon} < {t_min:g}")

    bound_types = 72.0 * log_inv_eps
    cap = config.max_types()
    graph = initial_graph or InfluenceGraph.path(8)
    artifacts = _evolution_sweep(partial(_type_counts, bound_types=bound_types, cap=cap),
                                 config, graph, trials, root_seed, jobs, start)
    successes = sum(1 for a in artifacts if a["success"])
    bound = 1.0 - 3.0 * config.epsilon
    extras = {"type_bound": bound_types, "hard_cap": cap,
              "cap_violations": sum(1 for a in artifacts if not a["cap_ok"]),
              "max_final_types": max(a["final_types"] for a in artifacts),
              "start": start}
    return _finish(successes, trials, bound, artifacts, extras,
                   vacuous=bound_types >= cap)


# -- per-step potential bounds -------------------------------------------------------

@dataclass
class PhiBoundsReport:
    steps: int
    migration_checks: int
    birth_checks: int
    migration_bound: float            # 2*alpha_min*eps*delta^3
    birth_bound: float                # 2*beta_max
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {"steps": self.steps, "migration_checks": self.migration_checks,
                "birth_checks": self.birth_checks,
                "migration_bound": self.migration_bound,
                "birth_bound": self.birth_bound,
                "violations": self.violations, "ok": self.ok}


def verify_phi_bounds(timeline: evolution.Timeline,
                      config: evolution.EvolutionConfig) -> PhiBoundsReport:
    """Check the per-phase potential bounds on a finished run.

    Every migration phase that moved mass while all types held at least
    epsilon must have raised the potential by at least 2*alpha_min*eps*
    delta^3; every birth may lower it by at most 2*beta_max. Each bound
    holds with a slack of 1e-12, the rounding of a potential. A record with
    ``repeat`` > 1 counts, and fails, once per step it stands for; the logs of
    its cycle, quiet steps, are never checked.
    """
    alpha_min, _ = config.assignment.alpha_bounds()
    migration_bound = 2.0 * alpha_min * config.epsilon * config.delta**3
    birth_bound = 2.0 * config.beta_max
    migration_checks = birth_checks = 0
    violations = []
    for r in timeline.records:
        steps = range(r.step, r.step + r.repeat)
        if r.migration_active and r.min_mass_before >= config.epsilon:
            migration_checks += r.repeat
            gain = r.phi_after_migration - r.phi_before
            if gain < migration_bound - 1e-12:
                violations.extend({"step": s, "kind": "migration",
                                   "delta_phi": gain, "bound": migration_bound} for s in steps)
        if r.birth is not None:
            birth_checks += r.repeat
            drop = r.phi_after_migration - r.phi_after_birth
            if drop > birth_bound + 1e-12:
                violations.extend({"step": s, "kind": "birth",
                                   "delta_phi": -drop, "bound": birth_bound} for s in steps)
    return PhiBoundsReport(len(timeline), migration_checks, birth_checks,
                           migration_bound, birth_bound, violations)


def verify_phi_bounds_sweep(config: evolution.EvolutionConfig, trials: int,
                            initial_graph: InfluenceGraph | None = None,
                            root_seed: int = 0, jobs: int = 1) -> TrialStats:
    """``verify_phi_bounds`` on seeded runs from random starts; the artifacts are
    the per-run reports. The bounds hold at every step: the paper bound is 1."""
    reports = _evolution_sweep(partial(verify_phi_bounds, config=config), config,
                               initial_graph, trials, root_seed, jobs)
    return _finish(sum(r.ok for r in reports), trials, 1.0, reports,
                   {"total_violations": sum(len(r.violations) for r in reports)})


# -- birth-count concentration ----------------------------------------------------

def verify_birth_counts(config: evolution.EvolutionConfig, trials: int,
                        root_seed: int = 0) -> dict:
    """Empirical check of the Chernoff bounds on births over the horizon.

    Trial i counts the births of the run with seed trial_seed(root_seed, 2i),
    the seed the other evolution verifiers give their trial i. A step's birth
    depends on its coin alone, so the counts come from ``birth_counts``, which
    draws the coins of all trials together, and no evolution is run: the
    start and the graph play no part.

    Returns both one-sided stats: births >= t*p/2 against 1-e^(-tp/8), and
    births <= 3*t*p/2 against 1-e^(-tp/6).
    """
    t, p = config.horizon, config.p
    births = evolution.birth_counts(config, _run_seeds(trials, root_seed))
    low_ok = int(np.sum(births >= t * p / 2.0))
    high_ok = int(np.sum(births <= 3.0 * t * p / 2.0))
    lower = _finish(low_ok, trials, 1.0 - math.exp(-t * p / 8.0), [],
                    {"threshold": t * p / 2.0, "side": "at_least"})
    upper = _finish(high_ok, trials, 1.0 - math.exp(-t * p / 6.0), [],
                    {"threshold": 3.0 * t * p / 2.0, "side": "at_most"})
    return {"lower": lower, "upper": upper,
            "mean_births": float(births.mean()), "trials": trials}
