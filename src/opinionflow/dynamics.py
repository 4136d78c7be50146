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
  CERT_STRIDE = 16    steps between certificate tests of a batch row, up to step 512
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, NotAFixedPointError
from .graph import InfluenceGraph
from .influence import InfluenceAssignment

TOL_STEP = 1e-10
TOL_FLOW = 1e-12
THETA_ACTIVE = 1e-9
MAX_ITERS = 10**6
CERT_STRIDE = 16
STOP_REASONS = ("certified", "l1", "budget")

_RENORM_TOL = 1e-12     # compared as "not residual <= _RENORM_TOL": a NaN residual raises
_CERT_FAMILIES = ("linear", "cubic", "soft")


# The float path of ``_EdgeKernel.advance`` runs on kernels with at most
# FLOAT_MAX_TYPES types (a correctness bound: ``_pairwise_sum``) and at most
# FLOAT_MAX_EDGES edges (a speed gate: its loop costs time per edge, numpy a
# fixed time per call). Per step, float against ndarray path, on random
# connected graphs, a 2-core Xeon, Python 3.11, numpy 2.4:
#   types/edges         11/20      15/28      19/36      29/36      23/44
#   one step, delta 0   7.9/12.8              11.8/12.8  14.1/12.5  14.4/13.2
#   50-step call                   9.8/10.4   12.5/11.1             13.7/10.6
# A dead zone skips most edges: at delta 0.3 one step on 39/76 is 15.9/15.6.
# evolve-quiet steps on 12-28 edges; churn on 49-86 stays on numpy.
FLOAT_MAX_TYPES = 128
FLOAT_MAX_EDGES = 32


def _pairwise_sum(v: list) -> float:
    """``np.add.reduce`` of up to 128 contiguous float64 values, bit for bit.

    numpy's pairwise_sum adds fewer than 8 values left to right. From 8 to
    128 it keeps 8 strided partial sums r0..r7, seeded with the first 8
    values, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then
    adds the remainder in order; above 128 it recurses. The reduction adds
    the result to its 0.0 identity, which only turns a -0.0 into 0.0.
    Python's sum() is compensated from 3.12, so it never stands in.
    """
    n = len(v)
    if n < 8:
        s = 0.0
        for y in v:
            s += y
        return s
    r0, r1, r2, r3, r4, r5, r6, r7 = v[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = v[i:i + 8]
        r0 += a0
        r1 += a1
        r2 += a2
        r3 += a3
        r4 += a4
        r5 += a5
        r6 += a6
        r7 += a7
    s = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for y in v[tail:]:
        s += y
    return s


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
        if not np.all((x >= 0.0) & (x <= 1.0)):      # a NaN fails both
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

    def _insert(self, pairs, last: bool = False) -> None:
        """Add edges (u, v) of ids, u < v, at their (v, u) place, then regroup.

        ``last`` says the pairs, as given, sort after every edge held (a
        newborn's edges), so they are appended without a sort.
        """
        if pairs:
            ends = np.array([bisect_left(self.ids, w) for e in pairs for w in e],
                            dtype=np.intp).reshape(-1, 2)
            code = [self._code_of(self.assignment.function_for(u, v)) for u, v in pairs]
            self.iu = np.concatenate([self.iu, ends[:, 0]])
            self.iv = np.concatenate([self.iv, ends[:, 1]])
            self._code = np.concatenate([self._code, np.array(code, dtype=np.intp)])
            if not last:
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
        # - ``_pairwise_sum`` copies numpy's sum of up to 128 values (see
        #   there), so FLOAT_MAX_TYPES is a correctness bound. FLOAT_MAX_EDGES
        #   is tuned: the loop costs time per edge (see its measurement).
        if (self.n <= FLOAT_MAX_TYPES and self.m <= FLOAT_MAX_EDGES
                and all(f.family in ("linear", "soft") for f, _ in self._groups)):
            fns = [(float(f.a), f.family == "soft") for f in self._fns]
            self._plan = [(u, v, *fns[c]) for u, v, c in
                          zip(self.iu.tolist(), self.iv.tolist(), self._code.tolist())]
        else:
            self._plan = None
        self._cert = None               # built by the first ``certificate`` call

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
            self._insert([(u, new_id) for u in sorted(self.graph.neighbors(new_id))], last=True)
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
        if not residual <= _RENORM_TOL:
            raise _drift_error(residual)
        x_new /= total
        return x_new, flows, residual

    def advance(self, x: np.ndarray, steps: int, tol: float = 0.0, delta: float = 0.0):
        """Up to ``steps`` steps of one state or a batch, as ``step`` gives them, bit for bit.

        Stops after the first step at which some row's L1 size is below
        ``tol``. Returns (x, applied, residual_max, active, stopped): the new
        state, the number of steps applied, the largest residual, whether the
        last step carried a nonzero flow, and whether the ``tol`` stop fired,
        as a per-row mask for a batch. One state, or a batch of one, runs as
        Python float arithmetic when the kernel has a float plan: on a few
        types that costs a fraction of numpy's per-call overhead.
        """
        if x.ndim == 2 and len(x) == 1:     # one state costs less per step than a batch of one
            x1, applied, residual_max, active, stopped = self.advance(x[0], steps, tol, delta)
            return x1[None], applied, residual_max, active, np.array([stopped])
        if self._plan is not None and x.ndim == 1:
            x, applied, residual_max, active, stopped = self._advance_floats(
                x.tolist(), steps, tol, delta)
            return np.array(x), applied, residual_max, active, stopped
        residual_max, stopped = 0.0, np.zeros(x.shape[:-1], dtype=bool)
        for applied in range(1, steps + 1):
            x_new, flows, residual = self.step(x, delta)
            residual_max = max(residual_max, residual)
            if tol > 0.0:
                stopped = np.abs(x_new - x).sum(axis=-1) < tol
            x = x_new
            if tol > 0.0 and stopped.any():
                break
        return x, applied, residual_max, bool(np.any(flows != 0.0)), \
            stopped if x.ndim == 2 else bool(stopped)

    def _advance_floats(self, x: list, steps: int, tol: float, delta: float):
        """``advance`` on a list of floats through the plan (see ``_insert``)."""
        plan, n, dead = self._plan, self.n, delta > 0.0
        residual_max, stopped = 0.0, False
        for applied in range(1, steps + 1):
            inflow, outflow, active = [0.0] * n, [0.0] * n, False
            # A zero flow is not added: x + 0.0 == x unless x is -0.0, and an
            # accumulator that starts at 0.0 never becomes -0.0.
            for u, v, a, soft in plan:
                xu = x[u]
                xv = x[v]
                d = xu - xv
                if dead and abs(d) <= delta:
                    continue
                f = xu * xv * (a * d / (1.0 + abs(d)) if soft else a * d)
                if f:
                    active = True
                    inflow[u] += f
                    outflow[v] += f
            x_new = [xk + (i - o) for xk, i, o in zip(x, inflow, outflow)]
            total = _pairwise_sum(x_new)
            residual = abs(total - 1.0)
            if not residual <= _RENORM_TOL:
                raise _drift_error(residual)
            if residual > residual_max:
                residual_max = residual
            if tol > 0.0:
                moves = []
                for k, xk in enumerate(x):
                    y = x_new[k] = x_new[k] / total
                    moves.append(abs(y - xk))
                stopped = _pairwise_sum(moves) < tol
            else:
                x_new = [y / total for y in x_new]
            x = x_new
            if stopped:
                break
        return x, applied, residual_max, active, stopped

    @property
    def certifiable(self) -> bool:
        """Whether every edge's F admits ``certificate``: linear, cubic or soft
        with 0 < sup|F| <= 1."""
        if self._cert is None:
            fns = [f for f, _ in self._groups]
            if all(f.family in _CERT_FAMILIES and 0.0 < f.sup_abs() <= 1.0 for f in fns):
                # closed neighbourhoods grouped by type: type k's run starts at starts[k]
                ends = np.concatenate([np.arange(self.n), self.iu, self.iv])
                near = np.concatenate([np.arange(self.n), self.iv, self.iu])
                order = np.argsort(ends, kind="stable")
                self._cert = near[order], np.searchsorted(ends[order], np.arange(self.n))
            else:
                self._cert = False
        return self._cert is not False

    def certificate(self, x: np.ndarray, theta: float) -> np.ndarray | None:
        """The certified limit support S of each row of a batch ``x``, or None.

        Returns a (B, n) mask: S on a row that certifies, all False on the
        others. None means the kernel admits no certificate: some edge's F is
        custom, or has a = 0, or sup|F| > 1 (off the simplex). The built-in
        families with 0 < sup|F| <= 1 are odd, strictly increasing and keep
        the simplex, which is all the proof below uses.

        S is a top-k set of the row (highest masses, ties by index) with
          1. no edge inside S (S is independent),
          2. an edge from every vertex outside S into S (S dominates),
          3. m < min S, where m is the sum of the masses outside S (summed,
             not taken as 1 - sum S), and
          4. min S > theta.

        Proof that the limit's support, and its theta-active set, is exactly
        S. Every outside mass is at most m < min S, so every edge between S
        and the outside carries mass into S, and no edge joins two S types:
        the S masses never fall, m never rises, and 1.-4. hold at every later
        step. An outside type w with an S neighbour u sends it
        x_u * x_w * F(x_u - x_w) >= min S * x_w * F(min S - m) per step, and
        flows between outside types leave m as it is. So
        m_t <= m * (1 - c)^t with c = min S * F(min S - m), F the weakest
        influence function of the kernel: m falls to 0, the S masses stay
        above theta, and every outside mass is below theta after at most
        log(theta / m) / log(1 - c) steps. At most one k certifies, since each
        names the limit's support.

        The proof is in exact arithmetic. The float steps round each mass by
        a relative 1e-16, which the strict inequalities absorb except within
        a few ulps of a tie. A certified row whose masses sum to 1 only within
        more than 1e-12 raises, as its next step would.

        One stable argsort ranks each row. The top k are independent while
        k is at most the smallest, over edges, of the larger end's rank; they
        dominate while every type ranked k or later has a closed neighbour
        ranked below k (a suffix max over positions); suffix sums of the
        sorted masses give m for every k.
        """
        if not self.certifiable:
            return None
        near, starts = self._cert
        n, rows = self.n, np.arange(len(x))[:, None]
        order = np.argsort(-x, axis=1, kind="stable")       # heaviest first, ties by index
        xs = x[rows, order]
        rank = np.empty_like(order)
        rank[rows, order] = np.arange(n)
        sizes = np.arange(1, n + 1)
        independent = np.maximum(rank[:, self.iu], rank[:, self.iv]).min(axis=1, initial=n)
        ok = (sizes <= independent[:, None]) & (xs > theta)
        reach = np.minimum.reduceat(rank[:, near], starts, axis=1)[rows, order]
        worst = np.maximum.accumulate(reach[:, ::-1], axis=1)[:, ::-1]  # over positions >= p
        tail = np.cumsum(xs[:, ::-1], axis=1)[:, ::-1]                  # likewise, summed
        ok[:, :-1] &= (worst[:, 1:] < sizes[:-1]) & (tail[:, 1:] < xs[:, :-1])
        hit = ok.any(axis=1)
        if hit.any():
            residual = float(np.abs(tail[hit, 0] - 1.0).max())
            if not residual <= _RENORM_TOL:
                raise _drift_error(residual)
        return (rank < ok.argmax(axis=1)[:, None] + 1) & hit[:, None]


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
    residual_max: float = 0.0
    trajectory: list[np.ndarray] | None = None
    stops: np.ndarray | None = None
    reasons: np.ndarray | None = None       # per row: one of STOP_REASONS
    support: np.ndarray | None = None       # per row: its certified S, else all False


def _cert_stride(t: int) -> int:
    """Steps from a certificate test at step t to the next: CERT_STRIDE up to
    step 512, then a 16th of t's power of two, so 16 tests per doubling of t."""
    return max(CERT_STRIDE, (1 << t.bit_length()) >> 5)


def run_to_convergence(x0: PopulationState, assignment: InfluenceAssignment,
                       tol: float = TOL_STEP, max_iters: int = MAX_ITERS,
                       record_trajectory: bool = False,
                       certify: float | None = None) -> ConvergenceResult:
    """Iterate the migration map (dead-zone off) until the L1 step is < tol.

    ``iterations`` is the index of the step whose L1 size fell below tol,
    or max_iters when the budget ran out (then ``converged`` is False).
    ``trajectory``, if recorded, holds x0 and the state after every
    applied step.

    ``x0.x`` may also be a batch ``(B, n)``, which records no trajectory;
    one state runs as a batch of one. Row b leaves the batch at its own stop
    ``stops[b]`` with the limit and stop it gets alone, bit for bit, and
    converged exactly when ``stops[b] < max_iters``; ``iterations`` is
    ``stops.max()`` and ``converged`` says whether every row converged.
    ``reasons[b]`` is "l1" or "budget".

    ``certify``, the activity threshold theta, adds a second stop to a
    batch: ``_EdgeKernel.certificate`` tests every live row at step 0 and
    then every CERT_STRIDE steps, a stride that doubles with t from step
    512 on (``_cert_stride``), and each row once more at its L1 stop.
    A row that passes has reason "certified" and its limit support S in
    ``support``. The stride test stops it at once, with ``stops[b]`` the
    number of steps it took; the L1-stop test keeps its L1 stop. A row's
    tests fall on the same steps in any batch, so its stop and reason still
    do not depend on the rows beside it.
    """
    if not tol > 0:
        raise ConfigurationError(f"tol must be positive, got {tol!r}")
    if max_iters < 0:
        raise ConfigurationError(f"max_iters must be at least 0, got {max_iters!r}")
    batch = x0.x.ndim == 2
    if batch and record_trajectory:
        raise ValueError("trajectory recording needs a single state")
    if certify is not None and not batch:
        raise ValueError("certified stops need a batch")
    kernel = kernel_for(x0, assignment)
    x = x0.x.reshape(-1, len(x0.ids))
    out, stops, live = x.copy(), np.full(len(x), max_iters), np.arange(len(x))
    support = np.zeros(x.shape, dtype=bool)
    check = certify is not None and kernel.certifiable
    trajectory = [x0.x.copy()] if record_trajectory else None
    residual_max, t = 0.0, 0
    while t < max_iters and len(live):
        if check and t % _cert_stride(t) == 0:
            s = kernel.certificate(x, certify)
            hit = s.any(axis=1)
            out[live[hit]], stops[live[hit]], support[live[hit]] = x[hit], t, s[hit]
            x, live = x[~hit], live[~hit]
            if not len(live):
                break
        # one call per step when recording, else one per certificate test or to the budget
        chunk = 1 if record_trajectory else _cert_stride(t) if check else max_iters
        x, applied, residual, _, stopped = kernel.advance(
            x, min(chunk - t % chunk, max_iters - t), tol)
        residual_max = max(residual_max, residual)
        t += applied
        if trajectory is not None:
            trajectory.append(x[0])
        if stopped.any():
            out[live[stopped]], stops[live[stopped]] = x[stopped], t - 1
            x, live = x[~stopped], live[~stopped]
    out[live] = x
    if check:       # the L1-stop test, in one call for every row that stopped so
        l1 = np.flatnonzero((stops < max_iters) & ~support.any(axis=1))
        support[l1] = kernel.certificate(out[l1], certify)
    iterations = int(stops.max(initial=0))
    converged = bool(np.all(stops < max_iters))
    applied = iterations + 1 if converged else max_iters
    limit = PopulationState(x0.graph, x0.ids, out if batch else out[0], x0.t + applied)
    reasons = np.where(support.any(axis=1), "certified",
                       np.where(stops < max_iters, "l1", "budget"))
    return ConvergenceResult(limit, iterations, converged, residual_max, trajectory,
                             stops, reasons, support)


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
