"""Edge influence functions and per-edge assignments.

An influence function maps the mass difference across an edge to a flow
factor. Admissible functions are odd, increasing, continuously
differentiable, and vanish at 0. Two strength classes matter downstream:
sup|F| <= 1 keeps the update on the simplex, and sup|F| < 1/2 additionally
makes the update map locally invertible, which the convergence-to-
independent-sets analysis needs.

Built-in families:
  linear  F(x) = a*x          F'(x) = a
  cubic   F(x) = a*x^3        F'(x) = 3*a*x^2
  soft    F(x) = a*x/(1+|x|)  F'(x) = a/(1+|x|)^2   (bounded, nonconstant F')
Custom callables are supported with grid-based validation and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, coerce

FAMILIES = ("linear", "cubic", "soft", "custom")

_DEFAULT_GRID = 10001   # grid points of sup_abs and deriv_range for a custom F


def _as_array(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class InfluenceFunction:
    """One influence function: family tag, coefficient, optional custom fns."""

    family: str = "linear"
    a: float = 0.5
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    dfn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown influence family {self.family!r}")
        if self.family == "custom":
            if self.fn is None:
                raise ConfigurationError("custom influence needs fn=")
        elif not 0.0 <= self.a < np.inf:
            raise ConfigurationError(f"coefficient a must be finite and nonnegative, "
                                     f"got {self.a!r}")

    # -- evaluation ----------------------------------------------------------

    def eval(self, x):
        """F(x) for x in [-1, 1] (scalar or array)."""
        self._check_domain(x)
        return self._eval_unchecked(_as_array(x))

    def eval_deriv(self, x):
        """F'(x) for x in [-1, 1] (scalar or array)."""
        self._check_domain(x)
        return self._deriv_unchecked(_as_array(x))

    __call__ = eval

    def _eval_unchecked(self, x: np.ndarray):
        if self.family == "linear":
            out = self.a * x
        elif self.family == "cubic":
            out = self.a * x**3
        elif self.family == "soft":
            out = self.a * x / (1.0 + np.abs(x))
        else:
            out = _as_array(self.fn(x))
        return float(out) if np.ndim(out) == 0 else out

    def _deriv_unchecked(self, x: np.ndarray):
        if self.family == "linear":
            out = np.full_like(x, self.a) if np.ndim(x) else self.a
        elif self.family == "cubic":
            out = 3.0 * self.a * x**2
        elif self.family == "soft":
            out = self.a / (1.0 + np.abs(x)) ** 2
        else:
            if self.dfn is not None:
                out = _as_array(self.dfn(x))
            else:
                out = self._fd_deriv(x)
        return float(out) if np.ndim(out) == 0 else out

    def _fd_deriv(self, x: np.ndarray):
        """Central difference of ``fn`` with step 1e-6, clipped to [-1, 1]."""
        lo = np.clip(_as_array(x) - 1e-6, -1.0, 1.0)
        hi = np.clip(_as_array(x) + 1e-6, -1.0, 1.0)
        return (_as_array(self.fn(hi)) - _as_array(self.fn(lo))) / (hi - lo)

    @staticmethod
    def _check_domain(x) -> None:
        x = _as_array(x)
        if np.any(np.abs(x) > 1.0 + 1e-12):
            raise ValueError("influence functions are defined on [-1, 1]")

    # -- bounds ----------------------------------------------------------------

    def sup_abs(self) -> float:
        """sup of |F| on [-1, 1]; analytic for built-ins."""
        if self.family == "linear":
            return self.a
        if self.family == "cubic":
            return self.a
        if self.family == "soft":
            return self.a / 2.0
        grid = np.linspace(-1.0, 1.0, _DEFAULT_GRID)
        return float(np.max(np.abs(self._eval_unchecked(grid))))

    def deriv_range(self) -> tuple[float, float]:
        """(min, max) of F' over [-1, 1]; analytic for built-ins."""
        if self.family == "linear":
            return self.a, self.a
        if self.family == "cubic":
            return 0.0, 3.0 * self.a
        if self.family == "soft":
            return self.a / 4.0, self.a
        grid = np.linspace(-1.0, 1.0, _DEFAULT_GRID)
        d = _as_array(self._deriv_unchecked(grid))
        return float(d.min()), float(d.max())

    def to_json_dict(self) -> dict:
        if self.family == "custom":
            raise ConfigurationError("custom influence functions are not serializable")
        return {"family": self.family, "a": self.a}

    @classmethod
    def from_json_dict(cls, data: dict) -> "InfluenceFunction":
        try:
            return cls(family=str(data["family"]), a=coerce("a", float, data.get("a", 0.5)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed influence entry: {exc}") from exc


def linear(a: float) -> InfluenceFunction:
    return InfluenceFunction("linear", a)


def cubic(a: float) -> InfluenceFunction:
    return InfluenceFunction("cubic", a)


def soft(a: float) -> InfluenceFunction:
    return InfluenceFunction("soft", a)


@dataclass
class AdmissibilityReport:
    """Grid-checked admissibility of one influence function."""

    zero_at_origin: bool
    odd: bool
    monotone: bool
    strictly_increasing: bool           # every grid step raises F: mass crosses every gap
    deriv_nonnegative: bool
    sup_abs: float
    diffeomorphism_admissible: bool     # sup|F| < 1/2 and all structure checks
    simplex_admissible: bool            # sup|F| <= 1 and all structure checks
    failures: list[str] = field(default_factory=list)


def validate(f: InfluenceFunction) -> AdmissibilityReport:
    """Check the structural axioms on a uniform grid of 101 points over [-1, 1].

    The model assumes these properties rather than proving them per
    function, so a grid check is the practical gate for custom families.
    """
    grid = np.linspace(-1.0, 1.0, 101)
    vals = _as_array(f._eval_unchecked(grid))
    derivs = _as_array(f._deriv_unchecked(grid))

    failures = []
    zero_at_origin = abs(float(f._eval_unchecked(np.asarray(0.0)))) == 0.0
    if not zero_at_origin:
        failures.append("F(0) != 0")
    odd = bool(np.all(np.abs(vals + vals[::-1]) <= 1e-12))
    if not odd:
        failures.append("F is not odd")
    steps = np.diff(vals)
    monotone = bool(np.all(steps >= -1e-12))
    if not monotone:
        failures.append("F is not non-decreasing")
    strictly_increasing = bool(np.all(steps > 0.0))
    if monotone and not strictly_increasing:
        failures.append("F is not strictly increasing")
    deriv_nonnegative = bool(np.all(derivs >= -1e-12))
    if not deriv_nonnegative:
        failures.append("F' < 0 somewhere")
    sup = float(np.max(np.abs(vals)))

    structural = zero_at_origin and odd and strictly_increasing and deriv_nonnegative
    return AdmissibilityReport(
        zero_at_origin=zero_at_origin,
        odd=odd,
        monotone=monotone,
        strictly_increasing=strictly_increasing,
        deriv_nonnegative=deriv_nonnegative,
        sup_abs=sup,
        diffeomorphism_admissible=structural and sup < 0.5,
        simplex_admissible=structural and sup <= 1.0,
        failures=failures,
    )


class InfluenceAssignment:
    """Map from edges to influence functions, with a shared default.

    Functions are stored once per unordered edge, so F_uv == F_vu by
    construction. Edges created later (births, rewiring) fall back to the
    default, which keeps the assignment total on an evolving graph.
    """

    def __init__(self, default: InfluenceFunction,
                 per_edge: dict[tuple[int, int], InfluenceFunction] | None = None):
        self.default = default
        self._per_edge: dict[tuple[int, int], InfluenceFunction] = {}
        for (u, v), f in (per_edge or {}).items():
            self._per_edge[self._key(u, v)] = f

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def function_for(self, u: int, v: int) -> InfluenceFunction:
        return self._per_edge.get(self._key(u, v), self.default)

    def functions(self, graph=None) -> list[InfluenceFunction]:
        """Distinct functions in play; restricted to a graph's edges if given."""
        if graph is None:
            fns = [self.default, *self._per_edge.values()]
        else:
            fns = [self.function_for(u, v) for u, v in graph.edges()] or [self.default]
        seen, out = set(), []
        for f in fns:
            if id(f) not in seen:
                seen.add(id(f))
                out.append(f)
        return out

    def sup_abs(self, graph=None) -> float:
        return max(f.sup_abs() for f in self.functions(graph))

    def alpha_bounds(self, graph=None) -> tuple[float, float]:
        """(alpha_min, alpha_max): extremes of F' over edges and [-1, 1].

        These are the global slope constants the birth/death-phase bounds
        are stated in: alpha_min * x <= F(x) - F(0) <= alpha_max * x.
        """
        ranges = [f.deriv_range() for f in self.functions(graph)]
        return min(r[0] for r in ranges), max(r[1] for r in ranges)

    def to_json_dict(self) -> dict:
        out = {"default": self.default.to_json_dict()}
        if self._per_edge:
            out["per_edge"] = [
                {"u": u, "v": v, **f.to_json_dict()}
                for (u, v), f in sorted(self._per_edge.items())
            ]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "InfluenceAssignment":
        if "family" in data:  # bare function literal as global default
            return cls(InfluenceFunction.from_json_dict(data))
        try:
            default = InfluenceFunction.from_json_dict(data["default"])
        except KeyError as exc:
            raise ConfigurationError("influence config needs 'default' or 'family'") from exc
        entries = data.get("per_edge", [])
        if not isinstance(entries, list):
            raise ConfigurationError(f"per_edge must be a list, got {entries!r}")
        per_edge = {}
        for entry in entries:
            try:
                edge = (coerce("u", int, entry["u"]), coerce("v", int, entry["v"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"per_edge entry {entry!r} needs integer 'u' and 'v'") from exc
            per_edge[edge] = InfluenceFunction.from_json_dict(entry)
        return cls(default, per_edge)
