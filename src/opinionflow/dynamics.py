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
  TOL_MASS   = 1e-6   mass spread inside an active component above which a state is not fixed
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
TOL_MASS = 1e-6
MAX_ITERS = 10**6
CERT_STRIDE = 16
STOP_REASONS = ("certified", "l1", "budget")

_RENORM_TOL = 1e-12     # compared as "not residual <= _RENORM_TOL": a NaN residual raises
_CERT_FAMILIES = ("linear", "cubic", "soft")


def _drift_error(residual: float) -> ArithmeticError:
    return ArithmeticError(f"mass drifted by {residual:g} in one step; check that sup|F| <= 1")


def _simplex_error(sup: float) -> ConfigurationError:
    return ConfigurationError(f"sup|F| = {sup:g} > 1: the update map would leave the simplex")


@dataclass
class PopulationState:
    """Masses on the simplex, tied to a graph snapshot.

    ``ids`` is the sorted vertex list of the graph at construction time and
    fixes the coordinate order of ``x``, which may also hold a batch ``(B, n)``
    of states for ``run_to_convergence``. A state keeps no step count: a run
    counts its own steps.
    """

    graph: InfluenceGraph
    ids: tuple[int, ...]
    x: np.ndarray

    @classmethod
    def from_masses(cls, graph: InfluenceGraph,
                    masses: Mapping[int, float] | Sequence[float]) -> "PopulationState":
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
        if not abs(total - 1.0) <= _RENORM_TOL:       # the step's own drift bound
            raise ValueError(f"masses must sum to 1 (got {float(total)!r})")
        return cls(graph, ids, x)

    @classmethod
    def uniform(cls, graph: InfluenceGraph) -> "PopulationState":
        n = len(graph)
        return cls(graph, tuple(graph.vertex_list()), np.full(n, 1.0 / n))

    def index_of(self, v: int) -> int:
        try:
            return self.ids.index(v)
        except ValueError:
            raise ValueError(f"unknown vertex id {v}") from None

    def mass(self, v: int) -> float:
        return float(self.x[self.index_of(v)])

    def as_dict(self) -> dict[int, float]:
        return {v: float(m) for v, m in zip(self.ids, self.x)}

    def masses_json(self) -> dict[str, float]:
        """The masses as the JSON outputs write them: {"<id>": mass}, ids ascending."""
        return {str(v): m for v, m in sorted(self.as_dict().items())}

    def active_set(self) -> set[int]:
        """Types holding more than THETA_ACTIVE of mass."""
        return {v for v, m in zip(self.ids, self.x) if m > THETA_ACTIVE}


class _EdgeKernel:
    """Vectorized edge evaluation for one (graph, assignment) snapshot.

    Edges are grouped by influence function so that the per-step work is a
    handful of array operations regardless of how many edges share a function.
    ``flows``, ``net`` and ``step`` take one state or a batch ``(B, n)`` and
    compute each row as alone. ``advance`` steps both through ``step``, dead-zone off.

    Edges are ordered by (larger endpoint, smaller endpoint). ``np.bincount``
    sums each vertex's bin in array order, and this order hands every vertex
    its edges in ascending neighbor order, as the canonical ``graph.edges()``
    order does, so the sums keep their bits. An evolution run (``evolution._Run``)
    edits its kernel's arrays at each birth (``_append``: a newborn's edges sort
    last) and death (``_remove``), so they equal a fresh build of its graph.
    """

    def __init__(self, graph: InfluenceGraph, assignment: InfluenceAssignment):
        self.graph = graph
        self.assignment = assignment
        self.ids = tuple(graph.vertex_list())
        self.n = len(self.ids)
        self.iu = self.iv = np.empty(0, dtype=np.intp)
        # each edge's function code, kept only if some edge has a function of its own
        self._code = np.empty(0, dtype=np.intp) if assignment._per_edge else None
        self._fns: list = []            # influence function of each edge code
        ends = [bisect_left(self.ids, w) for e in graph.edges() for w in e]
        self._insert(ends[0::2], ends[1::2])

    def _insert(self, iu: list[int], iv: list[int], last: bool = False) -> None:
        """Add the edges at indices ``iu`` < ``iv`` of ``ids`` at their (v, u)
        place, then regroup. With ``last`` they sort, as given, after every edge
        held, and are appended without a sort. Without codes every edge has the
        default function: one group, indexed by ``slice(None)``."""
        if len(iu):
            self.iu = np.concatenate((self.iu, iu))
            self.iv = np.concatenate((self.iv, iv))
            if self._code is not None:
                ids, function_for = self.ids, self.assignment.function_for
                code = [self._code_of(function_for(ids[a], ids[b])) for a, b in zip(iu, iv)]
                self._code = np.concatenate((self._code, np.array(code, dtype=np.intp)))
            if not last:
                order = (self.iv * self.n + self.iu).argsort(kind="stable")
                self.iu, self.iv = self.iu[order], self.iv[order]
                if self._code is not None:
                    self._code = self._code[order]
        self.m = len(self.iu)
        if self._code is None:
            self._groups = [(self.assignment.default, slice(None))] if self.m else []
        else:
            groups = [(f, (self._code == k).nonzero()[0]) for k, f in enumerate(self._fns)]
            self._groups = [(f, idx) for f, idx in groups if len(idx)]
        self._bins = None               # built by the first batch ``net`` call
        self._cert = None               # built by the first ``certificate`` call

    def _append(self, new_id: int, near: list[int]) -> None:
        """Add vertex ``new_id``, whose id sorts last, joined to the vertices at
        the indices ``near``, ascending."""
        self.ids += (new_id,)
        self.n += 1
        self._insert(near, [self.n - 1] * len(near), last=True)

    def _remove(self, i: int, repairs: list[tuple[int, int]]) -> np.ndarray:
        """Drop the vertex at index ``i`` and its edges, shift the indices above it
        down, and insert ``repairs``, the edges ``graph.remove_type`` added among
        its former neighbors. Returns those neighbors' new indices, ascending."""
        iu, iv = self.iu, self.iv
        lo, hi = iv.searchsorted((i, i + 1))            # the edges (u, i), u < i
        dropped = iu == i                               # and the edges (i, w), w > i
        near = np.concatenate((iu[lo:hi], iv[dropped] - 1))
        dropped[lo:hi] = True
        keep = (~dropped).nonzero()[0]                  # a take costs less than a mask
        iu, iv = iu[keep], iv[keep]
        if self._code is not None:
            self._code = self._code[keep]
        iu -= iu > i
        iv[lo:] -= 1                                    # every kept edge from lo on
        self.iu, self.iv = iu, iv
        self.ids = self.ids[:i] + self.ids[i + 1:]
        self.n -= 1
        at = {self.ids[j]: j for j in near.tolist()}
        self._insert([at[a] for a, _ in repairs], [at[b] for _, b in repairs])
        return near

    def _code_of(self, f) -> int:
        for k, g in enumerate(self._fns):
            if g is f:
                return k
        self._fns.append(f)
        return len(self._fns) - 1

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
        # one bincount over row*n + col bins: each bin sums its row's edges in edge
        # order. The bins of B rows are a prefix of those of any larger batch, so
        # the bins of the largest batch yet are kept and sliced.
        w, size = flows.ravel(), len(flows) * self.n
        if self._bins is None or len(self._bins[0]) < w.size:
            rows = np.arange(len(flows))[:, None] * self.n
            self._bins = (rows + self.iu).ravel(), (rows + self.iv).ravel()
        bu, bv = self._bins
        return (np.bincount(bu[:w.size], w, size)
                - np.bincount(bv[:w.size], w, size)).reshape(-1, self.n)

    def step(self, x: np.ndarray, delta: float = 0.0):
        """One synchronous migration step, renormalized: (x_new, flows).

        All flows come from ``x`` and apply at once. The model conserves
        mass, so a largest |sum - 1| before renormalization beyond 1e-12 is
        a real bug and raises.
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
        return x_new, flows

    def advance(self, x: np.ndarray, steps: int, tol: float = 0.0):
        """Up to ``steps`` steps of one state or a batch, as ``step`` gives them, bit for bit.

        Stops after the first step at which some row's L1 size is below
        ``tol``. Returns (x, applied, stopped): the new state, the number of
        steps applied, and whether the ``tol`` stop fired, as a per-row mask
        for a batch.
        """
        if x.ndim == 2 and len(x) == 1:     # one state costs less per step than a batch of one
            x1, applied, stopped = self.advance(x[0], steps, tol)
            return x1[None], applied, np.array([stopped])
        stopped = np.zeros(x.shape[:-1], dtype=bool)
        for applied in range(1, steps + 1):
            x_new = self.step(x)[0]
            if tol > 0.0:
                stopped = np.abs(x_new - x).sum(axis=-1) < tol
            x = x_new
            if tol > 0.0 and stopped.any():
                break
        return x, applied, stopped if x.ndim == 2 else bool(stopped)

    @property
    def certifiable(self) -> bool:
        """Whether every edge's F admits ``certificate``: linear, cubic or soft
        with 0 < sup|F| <= 1."""
        if self._cert is None:
            fns = [f for f, _ in self._groups]
            if all(f.family in _CERT_FAMILIES and 0.0 < f.sup_abs() <= 1.0 for f in fns):
                # closed neighbourhoods as columns of padded tables, one table per
                # size class [2^(c-1), 2^c); a short column repeats its own type
                ends = np.concatenate([np.arange(self.n), self.iu, self.iv])
                near = np.concatenate([np.arange(self.n), self.iv, self.iu])
                order = ends.argsort(kind="stable")
                ends, near = ends[order], near[order]
                slot = np.arange(len(ends)) - ends.searchsorted(ends)
                size = np.bincount(ends, minlength=self.n)
                cls = np.frexp(size)[1]
                self._cert = []
                for c in np.flatnonzero(np.bincount(cls)):
                    types = np.flatnonzero(cls == c)
                    table = np.tile(types, (size[types].max(), 1))
                    on = cls[ends] == c
                    table[slot[on], types.searchsorted(ends[on])] = near[on]
                    self._cert.append(table)
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

        The batch is worked on transposed, one row per place, so that every
        reduction over types is an elementwise operation across rows. One
        stable argsort ranks each row, in the smallest integer type that holds
        n. A top-k set that dominates keeps dominating as k grows, and one
        that is independent stays so as k shrinks; a dominating top-k set
        also covers the type ranked k, so at most one k gives both: the
        smallest that dominates. That k is one more than the largest, over
        types, of the lowest rank in the type's closed neighbourhood, read as
        column minima of the neighbourhood tables (``certifiable``), which
        hold at most twice the n + 2m entries. The top k are independent
        while k is at most the smallest, over edges, of the larger end's
        rank, and suffix sums of the sorted masses, from the lightest up,
        give m.
        """
        if not self.certifiable:
            return None
        n, cols = self.n, np.arange(len(x))
        order = np.argsort(-x.T, axis=0, kind="stable")     # heaviest first, ties by index
        xs = x[cols, order]
        rank = np.empty(order.shape, dtype=np.min_scalar_type(n))
        rank[order, cols] = np.arange(n)[:, None]
        independent = np.maximum(rank[self.iu], rank[self.iv]).min(axis=0, initial=n)
        k = np.concatenate([rank[table].min(axis=0) for table in self._cert]).max(axis=0) + 1
        tail = np.zeros((n + 1, len(x)))                    # tail[k]: the mass ranked k or later
        np.cumsum(xs[::-1], axis=0, out=tail[n - 1::-1])
        light = xs[k - 1, cols]
        hit = (k <= independent) & (light > theta) & (tail[k, cols] < light)
        if hit.any():
            residual = float(np.abs(tail[0, hit] - 1.0).max())
            if not residual <= _RENORM_TOL:
                raise _drift_error(residual)
        return ((rank < k) & hit).T


def kernel_for(state: PopulationState, assignment: InfluenceAssignment) -> _EdgeKernel:
    """A fresh kernel for the state's graph. The benchmark tracer counts these
    calls; an evolution run builds its kernel through ``_EdgeKernel.__init__``
    (``evolution._Run.of``), which the count does not see."""
    return _EdgeKernel(state.graph, assignment)


class StepOutcome(NamedTuple):
    state: PopulationState
    active: bool        # True iff any edge carried nonzero flow


def migrate_step(state: PopulationState, assignment: InfluenceAssignment,
                 delta: float = 0.0) -> StepOutcome:
    """Apply one synchronous migration step (see ``_EdgeKernel.step``)."""
    x_new, flows = kernel_for(state, assignment).step(state.x, delta)
    return StepOutcome(PopulationState(state.graph, state.ids, x_new),
                       bool(np.count_nonzero(flows)))


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
                   tol_flow: float = TOL_FLOW) -> bool:
    """True iff every edge flow (dead-zone off) is below tol_flow in magnitude."""
    if not tol_flow > 0:            # a NaN fails too
        raise ValueError(f"tol_flow must be positive, got {tol_flow!r}")
    flows = kernel_for(state, assignment).flows(state.x, 0.0)
    return bool(flows.size == 0 or np.max(np.abs(flows)) < tol_flow)


@dataclass
class ConvergenceResult:
    limit: PopulationState
    iterations: int
    converged: bool
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
                       certify: bool = False) -> ConvergenceResult:
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

    ``certify`` adds a second stop to a batch: ``_EdgeKernel.certificate``,
    at the activity threshold THETA_ACTIVE, tests every live row at step 0 and
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
    if certify and not batch:
        raise ValueError("certified stops need a batch")
    kernel = kernel_for(x0, assignment)
    sup = max((f.sup_abs() for f, _ in kernel._groups), default=0.0)
    if sup > 1.0:       # a NaN sup passes, and its first step's drift check raises
        raise _simplex_error(sup)
    x = x0.x.reshape(-1, len(x0.ids))
    out, stops, live = x.copy(), np.full(len(x), max_iters), np.arange(len(x))
    support = np.zeros(x.shape[::-1], dtype=bool).T     # column-major: each any(axis=1)
                                                        # runs across columns, not per row
    check = certify and kernel.certifiable
    trajectory = [x0.x.copy()] if record_trajectory else None
    t = 0
    while t < max_iters and len(live):
        if check and t % _cert_stride(t) == 0:
            s = kernel.certificate(x, THETA_ACTIVE)
            hit = s.any(axis=1)
            out[live[hit]], stops[live[hit]], support[live[hit]] = x[hit], t, s[hit]
            x, live = x[~hit], live[~hit]
            if not len(live):
                break
        # one call per step when recording, else one per certificate test or to the budget
        chunk = 1 if record_trajectory else _cert_stride(t) if check else max_iters
        x, applied, stopped = kernel.advance(x, min(chunk - t % chunk, max_iters - t), tol)
        t += applied
        if trajectory is not None:
            trajectory.append(x[0])
        if stopped.any():
            out[live[stopped]], stops[live[stopped]] = x[stopped], t - 1
            x, live = x[~stopped], live[~stopped]
    out[live] = x
    if check:       # the L1-stop test, in one call for every row that stopped so
        l1 = np.flatnonzero((stops < max_iters) & ~support.any(axis=1))
        support[l1] = kernel.certificate(out[l1], THETA_ACTIVE)
    iterations = int(stops.max(initial=0))
    converged = bool(np.all(stops < max_iters))
    limit = PopulationState(x0.graph, x0.ids, out if batch else out[0])
    code = np.where(support.any(axis=1), 0, np.where(stops < max_iters, 1, 2))
    reasons = np.array(STOP_REASONS)[code]
    return ConvergenceResult(limit, iterations, converged, trajectory, stops, reasons, support)


@dataclass
class FixedPointClassification:
    components: list[tuple[frozenset[int], float]] = field(default_factory=list)
    independent: bool = True


def classify_fixed_point(state: PopulationState, assignment: InfluenceAssignment,
                         tol_flow: float = TOL_FLOW) -> FixedPointClassification:
    """Group the active types (``active_set``) of a fixed point into equal-mass components.

    At any fixed point the active types split into connected components of
    the induced subgraph, each internally at a common mass. A spread of
    TOL_MASS or more inside a component means the state is not actually fixed.
    """
    if not is_fixed_point(state, assignment, tol_flow):
        raise NotAFixedPointError("state is not a fixed point at tol_flow")
    active = state.active_set()
    components = []
    for comp in state.graph.induced_components(active):
        masses = [state.mass(v) for v in comp]
        spread = max(masses) - min(masses)
        if spread >= TOL_MASS:
            raise NotAFixedPointError(
                f"component {sorted(comp)} has mass spread {spread:g} >= {TOL_MASS:g}")
        components.append((frozenset(comp), float(np.mean(masses))))
    return FixedPointClassification(components, state.graph.is_independent_set(active))
