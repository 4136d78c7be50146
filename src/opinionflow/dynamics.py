"""The deterministic migration map on the population simplex.

Each step moves mass x_u*x_v*F_uv(x_u - x_v) into the larger endpoint of
every edge, simultaneously for all edges, from the current state. The sum
of squares of the masses acts as a global potential: it never decreases,
and strictly increases off fixed points, which is what drives every
trajectory to a fixed point.

Defaults pinned here and used package-wide:
  TOL_STEP   = 1e-10  L1 step size below which a trajectory counts as converged
  TOL_FLOW   = 1e-12  max |edge flow| below which a state counts as fixed
  THETA_ACTIVE = 1e-9 mass above which a type counts as active
  MAX_ITERS  = 10**6
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NotAFixedPointError
from .graph import InfluenceGraph
from .influence import InfluenceAssignment

TOL_STEP = 1e-10
TOL_FLOW = 1e-12
THETA_ACTIVE = 1e-9
MAX_ITERS = 10**6

_RENORM_TOL = 1e-12


def _drift_error(residual: float) -> ArithmeticError:
    return ArithmeticError(f"mass drifted by {residual:g} in one step; check that sup|F| <= 1")


@dataclass
class PopulationState:
    """Masses on the simplex, tied to a graph snapshot.

    ``ids`` is the sorted vertex list of the graph at construction time and
    fixes the coordinate order of ``x``, which may also hold a batch ``(B, n)``
    of states for ``run_to_convergence``.
    """

    graph: InfluenceGraph
    ids: tuple[int, ...]
    x: np.ndarray
    t: int = 0

    @classmethod
    def from_masses(cls, graph: InfluenceGraph,
                    masses: Mapping[int, float] | Sequence[float],
                    t: int = 0, normalize: bool = False) -> "PopulationState":
        ids = tuple(graph.vertex_list())
        if isinstance(masses, Mapping):
            missing = set(ids) - set(masses)
            extra = set(masses) - set(ids)
            if missing or extra:
                raise ValueError(f"mass keys do not match graph (missing={missing}, extra={extra})")
            x = np.array([float(masses[v]) for v in ids])
        else:
            x = np.asarray(masses, dtype=float).copy()
            if x.shape != (len(ids),):
                raise ValueError(f"expected {len(ids)} masses, got {x.shape}")
        if np.any(x < 0) or np.any(x > 1):
            raise ValueError("masses must lie in [0, 1]")
        total = x.sum()
        if normalize:
            if total <= 0:
                raise ValueError("cannot normalize all-zero masses")
            x /= total
        elif abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1 (got {total!r})")
        return cls(graph, ids, x, t)

    @classmethod
    def uniform(cls, graph: InfluenceGraph, t: int = 0) -> "PopulationState":
        n = len(graph)
        return cls(graph, tuple(graph.vertex_list()), np.full(n, 1.0 / n), t)

    def index_of(self, v: int) -> int:
        try:
            return self.ids.index(v)
        except ValueError:
            raise ValueError(f"unknown vertex id {v}") from None

    def mass(self, v: int) -> float:
        return float(self.x[self.index_of(v)])

    def as_dict(self) -> dict[int, float]:
        return {v: float(m) for v, m in zip(self.ids, self.x)}

    def active_set(self, theta_active: float = THETA_ACTIVE) -> set[int]:
        if theta_active <= 0:
            raise ValueError("theta_active must be positive")
        return {v for v, m in zip(self.ids, self.x) if m > theta_active}


class _EdgeKernel:
    """Vectorized edge evaluation for one (graph, assignment) snapshot.

    Edges are grouped by influence family so that the per-step work is a
    handful of array operations regardless of how many edges share a family.
    ``flows``, ``net`` and ``step`` also take a batch ``(B, n)`` and compute
    each row as alone.

    Edges are ordered by (larger endpoint, smaller endpoint). ``np.bincount``
    sums each vertex's bin in array order, and this order hands every vertex
    its edges in ascending neighbor order, as the canonical ``graph.edges()``
    order does, so the sums keep their bits. It also makes a newborn's edges
    (the newborn has the largest id) an append, which lets ``add_type`` and
    ``remove_type`` edit the graph and follow the edit in place: a followed
    kernel equals a fresh build, array for array. A kernel that was already
    stale stays stale, and ``kernel_for`` rebuilds it.
    """

    def __init__(self, graph: InfluenceGraph, assignment: InfluenceAssignment):
        self.graph = graph
        self.assignment = assignment
        self.version = graph.version
        self.ids = tuple(graph.vertex_list())
        self.n = len(self.ids)
        self.iu = self.iv = self._code = np.empty(0, dtype=np.intp)
        self._fns: list = []            # influence function of each edge code
        self._insert(graph.edges())

    def _insert(self, pairs) -> None:
        """Add edges (u, v) of ids, u < v, at their (v, u) place, then regroup."""
        if pairs:
            ends = np.array([bisect_left(self.ids, w) for e in pairs for w in e],
                            dtype=np.intp).reshape(-1, 2)
            code = [self._code_of(self.assignment.function_for(u, v)) for u, v in pairs]
            self.iu = np.concatenate([self.iu, ends[:, 0]])
            self.iv = np.concatenate([self.iv, ends[:, 1]])
            self._code = np.concatenate([self._code, np.array(code, dtype=np.intp)])
            order = np.argsort(self.iv * self.n + self.iu, kind="stable")
            self.iu, self.iv, self._code = self.iu[order], self.iv[order], self._code[order]
        self.m = len(self.iu)
        groups = [(f, (self._code == k).nonzero()[0]) for k, f in enumerate(self._fns)]
        self._groups = [(f, idx) for f, idx in groups if len(idx)]
        # Per-edge plan (u, v, a, is_soft) for the float path of ``advance``,
        # which gives the bits of ``step`` because:
        # - d = xu - xv, xu * xv * F(d) (left to right), x + (in - out) and
        #   / total are single IEEE-754 operations in numpy and in Python
        #   floats; neither contracts them into FMAs, and both keep
        #   subnormals. F is a*d (linear) or a*d/(1.0+abs(d)) (soft) in both.
        #   cubic's d**3 may take numpy's SIMD power, which can differ from
        #   Python's in the last bit, and a custom F is arbitrary numpy code.
        # - np.bincount starts from zeros and adds the weights in array
        #   order, as the per-vertex accumulators do in kernel edge order.
        # - numpy sums fewer than 8 contiguous float64 values left to right
        #   (pairwise_sum's n < 8 branch); from 8 on it keeps 8 partial sums.
        #   So n < 8 is a correctness boundary, not a tuned size.
        if self.n < 8 and all(f.family in ("linear", "soft") for f, _ in self._groups):
            fns = [(float(f.a), f.family == "soft") for f in self._fns]
            self._plan = [(u, v, *fns[c]) for u, v, c in
                          zip(self.iu.tolist(), self.iv.tolist(), self._code.tolist())]
        else:
            self._plan = None

    def _code_of(self, f) -> int:
        for k, g in enumerate(self._fns):
            if g is f:
                return k
        self._fns.append(f)
        return len(self._fns) - 1

    def add_type(self, neighbors) -> int:
        """``graph.add_type``, followed in place if this kernel was current."""
        current = self.version == self.graph.version
        new_id = self.graph.add_type(neighbors)
        if current:                     # ids never come back, so new_id sorts last
            self.ids += (new_id,)
            self.n += 1
            self._insert([(u, new_id) for u in sorted(self.graph.neighbors(new_id))])
            self.version = self.graph.version
        return new_id

    def remove_type(self, v: int, rewiring: str = "neighbor-path") -> list[tuple[int, int]]:
        """``graph.remove_type``, followed in place if this kernel was current."""
        current = self.version == self.graph.version
        repairs = self.graph.remove_type(v, rewiring)
        if current:
            i = self.ids.index(v)
            keep = (self.iu != i) & (self.iv != i)
            self.iu, self.iv, self._code = self.iu[keep], self.iv[keep], self._code[keep]
            self.iu -= self.iu > i
            self.iv -= self.iv > i
            self.ids = self.ids[:i] + self.ids[i + 1:]
            self.n -= 1
            self._insert(repairs)
            self.version = self.graph.version
        return repairs

    def values(self, d: np.ndarray) -> np.ndarray:
        """F_uv(d) per edge."""
        if len(self._groups) == 1:
            return np.asarray(self._groups[0][0]._eval_unchecked(d), dtype=float)
        out = np.empty_like(d)
        for f, idx in self._groups:
            out[..., idx] = f._eval_unchecked(d[..., idx])
        return out

    def derivs(self, d: np.ndarray) -> np.ndarray:
        """F'_uv(d) per edge."""
        if len(self._groups) == 1:
            return np.asarray(self._groups[0][0]._deriv_unchecked(d), dtype=float)
        out = np.empty_like(d)
        for f, idx in self._groups:
            out[idx] = f._deriv_unchecked(d[idx])
        return out

    def flows(self, x: np.ndarray, delta: float = 0.0) -> np.ndarray:
        """Per-edge flow into the u endpoint: x_u*x_v*F_uv(x_u-x_v).

        A positive dead-zone zeroes every edge whose mass difference does
        not exceed delta.
        """
        if x.ndim == 1:     # x[..., iu] costs a few times more than x[iu]
            xu, xv = x[self.iu], x[self.iv]
        else:
            xu, xv = x[:, self.iu], x[:, self.iv]
        d = xu - xv
        flows = xu * xv * self.values(d)
        if delta > 0.0 and self.m:
            flows[np.abs(d) <= delta] = 0.0
        return flows

    def net(self, flows: np.ndarray) -> np.ndarray:
        """Net inflow per vertex from per-edge flows."""
        if flows.ndim == 1:
            return np.bincount(self.iu, flows, self.n) - np.bincount(self.iv, flows, self.n)
        # one bincount over row*n + col bins: each bin sums its row's edges in edge order
        rows, w = np.arange(len(flows))[:, None] * self.n, flows.ravel()
        size = len(flows) * self.n
        return (np.bincount((rows + self.iu).ravel(), w, size)
                - np.bincount((rows + self.iv).ravel(), w, size)).reshape(-1, self.n)

    def raw_update(self, x: np.ndarray, delta: float = 0.0) -> np.ndarray:
        """One application of the update map, no renormalization."""
        return x + self.net(self.flows(x, delta))

    def step(self, x: np.ndarray, delta: float = 0.0):
        """One synchronous migration step, renormalized: (x_new, flows, residual).

        All flows come from ``x`` and apply at once. ``residual`` is the
        largest |sum - 1| before renormalization: the model conserves mass,
        so drift beyond 1e-12 is a real bug and raises.
        """
        flows = self.flows(x, delta)
        x_new = x + self.net(flows)
        if x.ndim == 1:     # scalar arithmetic for one state
            total = x_new.sum()
            residual = abs(total - 1.0)
        else:
            total = x_new.sum(axis=1, keepdims=True)
            residual = float(np.abs(total - 1.0).max())
        if residual > _RENORM_TOL:
            raise _drift_error(residual)
        x_new /= total
        return x_new, flows, residual

    def advance(self, x: np.ndarray, steps: int, tol: float = 0.0, delta: float = 0.0):
        """Up to ``steps`` steps of one state, as ``step`` gives them, bit for bit.

        Stops after the first step whose L1 size is below ``tol``. Returns
        (x, applied, residual_max, active, stopped): the new state, the
        number of steps applied, the largest residual, whether the last
        step carried a nonzero flow, and whether the ``tol`` stop fired.
        Runs as Python float arithmetic when the kernel has a float plan:
        on a few types that costs a fraction of numpy's per-call overhead.
        """
        if self._plan is not None:
            x, applied, residual_max, active, stopped = self._advance_floats(
                x.tolist(), steps, tol, delta)
            return np.array(x), applied, residual_max, active, stopped
        residual_max, stopped = 0.0, False
        for applied in range(1, steps + 1):
            x_new, flows, residual = self.step(x, delta)
            residual_max = max(residual_max, residual)
            stopped = tol > 0.0 and float(np.abs(x_new - x).sum()) < tol
            x = x_new
            if stopped:
                break
        return x, applied, residual_max, bool(np.any(flows != 0.0)), stopped

    def _advance_floats(self, x: list, steps: int, tol: float, delta: float):
        """``advance`` on a list of floats through the plan (see ``_insert``)."""
        plan, n, dead = self._plan, self.n, delta > 0.0
        residual_max, stopped = 0.0, False
        for applied in range(1, steps + 1):
            inflow, outflow, active = [0.0] * n, [0.0] * n, False
            for u, v, a, soft in plan:
                xu = x[u]
                xv = x[v]
                d = xu - xv
                if soft:
                    f = xu * xv * (a * d / (1.0 + abs(d)))
                else:
                    f = xu * xv * (a * d)
                if dead and abs(d) <= delta:
                    f = 0.0
                elif f:
                    active = True
                inflow[u] += f
                outflow[v] += f
            # left to right, as numpy sums below 8 values; sum() compensates from 3.12
            x_new, total = [], 0.0
            for xk, i, o in zip(x, inflow, outflow):
                y = xk + (i - o)
                x_new.append(y)
                total += y
            residual = abs(total - 1.0)
            if residual > _RENORM_TOL:
                raise _drift_error(residual)
            if residual > residual_max:
                residual_max = residual
            step_l1 = 0.0
            for k, xk in enumerate(x):
                y = x_new[k] / total
                x_new[k] = y
                step_l1 += abs(y - xk)
            x = x_new
            if step_l1 < tol:
                stopped = True
                break
        return x, applied, residual_max, active, stopped


def kernel_for(state: PopulationState, assignment: InfluenceAssignment,
               kernel: _EdgeKernel | None = None) -> _EdgeKernel:
    if (kernel is None or kernel.graph is not state.graph
            or kernel.version != state.graph.version
            or kernel.assignment is not assignment):
        return _EdgeKernel(state.graph, assignment)
    return kernel


def flow(state: PopulationState, u: int, v: int,
         assignment: InfluenceAssignment, delta: float = 0.0) -> float:
    """Mass moving from v into u this step (negative = the other way)."""
    if not state.graph.has_edge(u, v):
        raise ValueError(f"no edge {u}-{v}")
    xu, xv = state.mass(u), state.mass(v)
    d = xu - xv
    if abs(d) <= delta:
        return 0.0
    f = assignment.function_for(u, v)
    return xu * xv * float(f._eval_unchecked(np.asarray(d)))


class StepOutcome(NamedTuple):
    state: PopulationState
    active: bool        # True iff any edge carried nonzero flow
    residual: float     # |sum(x) - 1| before renormalization


def migrate_step(state: PopulationState, assignment: InfluenceAssignment,
                 delta: float = 0.0, kernel: _EdgeKernel | None = None) -> StepOutcome:
    """Apply one synchronous migration step (see ``_EdgeKernel.advance``)."""
    kernel = kernel_for(state, assignment, kernel)
    x_new, _, residual, active, _ = kernel.advance(state.x, 1, delta=delta)
    return StepOutcome(PopulationState(state.graph, state.ids, x_new, state.t + 1),
                       active, residual)


def potential_phi(state: PopulationState) -> float:
    """Sum of squared masses; ranges over [1/n, 1] on the simplex."""
    return float(np.dot(state.x, state.x))


def local_potential_psi(state: PopulationState, p: PopulationState) -> float:
    """Mass deficit of ``state`` on the support of ``p``.

    Near a limit point p this quantity is nonnegative, zero only at p, and
    non-increasing along the trajectory, which is what upgrades set-wise
    convergence to convergence to the single point p.
    """
    if state.ids != p.ids:
        raise ValueError("states live on different vertex sets")
    mask = p.x > 0.0
    return float(np.sum(p.x[mask] - state.x[mask]))


def is_fixed_point(state: PopulationState, assignment: InfluenceAssignment,
                   tol_flow: float = TOL_FLOW, kernel: _EdgeKernel | None = None) -> bool:
    """True iff every edge flow (dead-zone off) is below tol_flow in magnitude."""
    if tol_flow <= 0:
        raise ValueError("tol_flow must be positive")
    kernel = kernel_for(state, assignment, kernel)
    flows = kernel.flows(state.x, 0.0)
    return bool(flows.size == 0 or np.max(np.abs(flows)) < tol_flow)


@dataclass
class ConvergenceResult:
    limit: PopulationState
    iterations: int
    converged: bool
    phi_trace: np.ndarray
    residual_max: float = 0.0
    trajectory: list[np.ndarray] | None = None
    stops: np.ndarray | None = None


def run_to_convergence(x0: PopulationState, assignment: InfluenceAssignment,
                       tol: float = TOL_STEP, max_iters: int = MAX_ITERS,
                       record_trajectory: bool = False,
                       record_phi: bool = True) -> ConvergenceResult:
    """Iterate the migration map (dead-zone off) until the L1 step is < tol.

    ``iterations`` is the index of the step whose L1 size fell below tol,
    or max_iters when the budget ran out (then ``converged`` is False).
    phi_trace holds the potential at x0 and after every applied step
    (empty if record_phi is off, which bulk sweeps use).

    ``x0.x`` may also be a batch ``(B, n)``, which records neither phi nor
    a trajectory. Row b leaves the batch at its own stop ``stops[b]`` with
    the limit and stop it gets alone, bit for bit, and converged exactly
    when ``stops[b] < max_iters``; ``iterations`` is ``stops.max()`` and
    ``converged`` says whether every row converged. The last live row goes
    on as one state through ``_EdgeKernel.advance``, which costs less per
    step than a batch of one.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    batch = x0.x.ndim == 2
    if batch and (record_phi or record_trajectory):
        raise ValueError("phi and trajectory recording need a single state")
    kernel = kernel_for(x0, assignment)
    x = x0.x.reshape(-1, len(x0.ids))
    out, stops, live = x.copy(), np.full(len(x), max_iters), np.arange(len(x))
    phi_trace = [float(x0.x @ x0.x)] if record_phi else None
    trajectory = [x0.x.copy()] if record_trajectory else None
    residual_max, t = 0.0, 0
    while t < max_iters and len(live) > 1:
        x_new, _, residual = kernel.step(x)
        residual_max = max(residual_max, residual)
        done = np.abs(x_new - x).sum(axis=1) < tol
        x = x_new
        if done.any():
            out[live[done]], stops[live[done]] = x[done], t
            x, live = x[~done], live[~done]
        t += 1
    if len(live) == 1:
        # one call, or one per step when recording: x @ x is a BLAS dot on the ndarray
        x, chunk = x[0], 1 if record_phi or record_trajectory else max_iters
        while t < max_iters:
            x, applied, residual, _, stopped = kernel.advance(x, min(chunk, max_iters - t), tol)
            residual_max = max(residual_max, residual)
            t += applied
            if phi_trace is not None:
                phi_trace.append(float(x @ x))
            if trajectory is not None:
                trajectory.append(x)
            if stopped:
                stops[live[0]] = t - 1
                break
    out[live] = x
    iterations = int(stops.max(initial=0))
    converged = bool(np.all(stops < max_iters))
    applied = iterations + 1 if converged else max_iters
    limit = PopulationState(x0.graph, x0.ids, out if batch else out[0], x0.t + applied)
    return ConvergenceResult(limit, iterations, converged, np.array(phi_trace or []),
                             residual_max, trajectory, stops if batch else None)


def active_set(state: PopulationState, theta_active: float = THETA_ACTIVE) -> set[int]:
    """Types holding more than theta_active of mass."""
    return state.active_set(theta_active)


@dataclass
class FixedPointClassification:
    components: list[tuple[frozenset[int], float]] = field(default_factory=list)
    independent: bool = True


def classify_fixed_point(state: PopulationState, assignment: InfluenceAssignment,
                         theta_active: float = THETA_ACTIVE,
                         tol_mass: float = 1e-6,
                         tol_flow: float = TOL_FLOW,
                         kernel: _EdgeKernel | None = None) -> FixedPointClassification:
    """Group the active types of a fixed point into equal-mass components.

    At any fixed point the active types split into connected components of
    the induced subgraph, each internally at a common mass. A spread above
    tol_mass inside a component means the state is not actually fixed.
    ``kernel``, if current for the state's graph, spares a kernel build.
    """
    if not is_fixed_point(state, assignment, tol_flow, kernel):
        raise NotAFixedPointError("state is not a fixed point at tol_flow")
    active = state.active_set(theta_active)
    components = []
    for comp in state.graph.induced_components(active):
        masses = [state.mass(v) for v in comp]
        spread = max(masses) - min(masses)
        if spread >= tol_mass:
            raise NotAFixedPointError(
                f"component {sorted(comp)} has mass spread {spread:g} >= {tol_mass:g}")
        components.append((frozenset(comp), float(np.mean(masses))))
    return FixedPointClassification(components, state.graph.is_independent_set(active))
