"""Jacobian and spectral classification of migration fixed points.

The Jacobian of the update map always has column sums exactly 1 (mass
conservation), hence always carries the eigenvalue 1 with left eigenvector
all-ones. Stability is therefore judged on the projected map obtained by
substituting one coordinate with 1 - sum(others): its Jacobian drops
exactly one copy of that conservation eigenvalue and keeps every other
eigenvalue, so "spectral radius of the projection <= 1" is the meaningful
linear-stability test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TOL_FLOW, PopulationState, is_fixed_point, kernel_for
from .errors import EigenSolveError, NotAFixedPointError
from .influence import InfluenceAssignment

STABILITY_SLACK = 1e-9  # eigensolver noise absorbed into the radius <= 1 test


def jacobian(state: PopulationState, assignment: InfluenceAssignment) -> np.ndarray:
    """Analytic Jacobian of the update map at ``state`` (dead-zone treated as 0).

    Row u, column v is d(new x_u)/d(x_v). Zero for non-edges; every column
    sums to 1.
    """
    kernel = kernel_for(state, assignment)
    x = state.x
    n = kernel.n
    J = np.zeros((n, n))
    np.fill_diagonal(J, 1.0)
    if kernel.m == 0:
        return J
    iu, iv = kernel.iu, kernel.iv
    d = x[iu] - x[iv]
    F = kernel.values(d)
    Fp = kernel.derivs(d)
    # Off-diagonal: d g_u / d x_v = x_u [F_uv(d) - x_v F'_uv(d)], and the
    # mirrored edge uses F_vu(-d) = -F_uv(d), F'_vu(-d) = F'_uv(d).
    J[iu, iv] = x[iu] * (F - x[iv] * Fp)
    J[iv, iu] = x[iv] * (-F - x[iu] * Fp)
    # Diagonal: 1 + sum over neighbors of x_v [F_uv(d) + x_u F'_uv(d)].
    diag = np.zeros(n)
    np.add.at(diag, iu, x[iv] * (F + x[iu] * Fp))
    np.add.at(diag, iv, x[iu] * (-F + x[iv] * Fp))
    J[np.arange(n), np.arange(n)] += diag
    return J


def jacobian_fd(state: PopulationState, assignment: InfluenceAssignment) -> np.ndarray:
    """Central-difference Jacobian of the raw (un-renormalized) update map, step 1e-6.

    Testing oracle for the analytic formulas; perturbs each coordinate off
    the simplex, which the update map tolerates in a neighborhood.
    """
    kernel = kernel_for(state, assignment)
    shift = np.eye(kernel.n) * 1e-6         # row j moves coordinate j: one batch
    return (kernel.raw_update(state.x + shift)
            - kernel.raw_update(state.x - shift)).T / 2e-6


def projected_jacobian(J: np.ndarray, eliminated: int) -> np.ndarray:
    """Jacobian of the map with coordinate ``eliminated`` substituted out.

    By the chain rule the entries are J[v, w] - J[v, eliminated] with the
    eliminated row and column removed; the result has the same eigenvalues
    as J minus one copy of the conservation eigenvalue 1.
    """
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    if J.shape != (n, n):
        raise ValueError("J must be square")
    if not 0 <= eliminated < n:
        raise ValueError(f"eliminated index {eliminated} out of range for n={n}")
    keep = [i for i in range(n) if i != eliminated]
    return J[np.ix_(keep, keep)] - J[np.ix_(keep, [eliminated])]


@dataclass
class Spectrum:
    values: np.ndarray          # complex eigenvalues, unordered
    spectral_radius: float

    def __len__(self) -> int:
        return len(self.values)


def eigenvalues(M: np.ndarray) -> Spectrum:
    """All eigenvalues of a dense real matrix.

    Delegates to LAPACK's balanced Hessenberg + shifted-QR path; a
    non-converged solve is re-raised with matrix diagnostics attached.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("eigenvalues needs a square matrix")
    try:
        vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(
            f"eigensolver failed on {M.shape[0]}x{M.shape[0]} matrix "
            f"(max|entry|={np.max(np.abs(M)):g}): {exc}") from exc
    radius = float(np.max(np.abs(vals))) if len(vals) else 0.0
    return Spectrum(vals, radius)


def check_diagonal_dominance(J: np.ndarray) -> bool:
    """True iff J^T is strictly diagonally dominant (columns of J).

    Holds for every simplex state when sup|F| < 1/2, which is what makes
    the update map locally invertible there.
    """
    J = np.asarray(J, dtype=float)
    abs_J = np.abs(J)
    diag = np.diag(abs_J)
    col_rest = abs_J.sum(axis=0) - diag
    return bool(np.all(diag - col_rest > 0.0))


@dataclass
class StabilityReport:
    spectral_radius_projected: float
    linearly_stable: bool
    active_independent: bool
    eliminated_id: int
    spectrum_projected: Spectrum
    diffeo_hypothesis: bool     # sup|F| < 1/2 held, so the classification
                                # sits inside the invertibility regime

    def to_json_dict(self, state: PopulationState) -> dict:
        return {
            "fixed_point": state.masses_json(),
            "spectrum": [[float(z.real), float(z.imag)]
                         for z in self.spectrum_projected.values],
            "spectral_radius_projected": self.spectral_radius_projected,
            "linearly_stable": self.linearly_stable,
            "active_independent": self.active_independent,
            "eliminated_id": self.eliminated_id,
            "diffeo_hypothesis": self.diffeo_hypothesis,
        }


def classify_stability(p: PopulationState, assignment: InfluenceAssignment,
                       tol_flow: float = TOL_FLOW,
                       eliminate: int | None = None) -> StabilityReport:
    """Linear stability of a fixed point, judged on the projected Jacobian.

    ``eliminate`` picks the substituted-out vertex id (default: highest id;
    the spectrum does not depend on the choice). Raises if ``p`` is not a
    fixed point at tol_flow. Types above THETA_ACTIVE count as active.
    """
    if not is_fixed_point(p, assignment, tol_flow):
        raise NotAFixedPointError("stability classification needs a fixed point")
    if eliminate is None:
        eliminate = max(p.ids)
    k = p.index_of(eliminate)
    J = jacobian(p, assignment)
    spec = eigenvalues(projected_jacobian(J, k))
    active = p.active_set()
    return StabilityReport(
        spectral_radius_projected=spec.spectral_radius,
        linearly_stable=spec.spectral_radius <= 1.0 + STABILITY_SLACK,
        active_independent=p.graph.is_independent_set(active),
        eliminated_id=eliminate,
        spectrum_projected=spec,
        diffeo_hypothesis=assignment.sup_abs(p.graph) < 0.5,
    )
