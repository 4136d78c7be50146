"""Stochastic extension: migration -> birth -> death, every step.

Birth: with probability p a new type appears, takes an independent
Z_u-fraction of every existing type's mass (Z_u drawn from a bounded
distribution on [beta_min, beta_max]), and attaches to a nonempty set of
existing types. Death: any type at or below the epsilon threshold hands its
mass to its neighbors in equal shares and disappears, with the graph
rewired to stay connected. Deaths cascade within the phase, lowest mass
first, until nothing is at or below threshold (mass only flows upward in
the phase, so the loop terminates).

Randomness is drawn from per-(step, phase) counter streams, making every
run a pure function of (config, seed).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .dynamics import PopulationState, _EdgeKernel, kernel_for, migrate_step, potential_phi
from .errors import ConfigurationError, coerce
from .graph import InfluenceGraph, choose_attachment, REWIRING_POLICIES
from .influence import InfluenceAssignment, InfluenceFunction
from .seeding import PHASE_ATTACH, PHASE_BIRTH, RunStreams

_RENORM_TOL = 1e-12

ATTACHMENT_POLICIES = ("random-subset", "connect-to-all")


@dataclass(frozen=True)
class BirthDistribution:
    """Distribution of the absorbed fraction Z, supported in [beta_min, beta_max].

    "uniform" spans the whole interval; "point" is a point mass (handy for
    hand-checkable composite steps); "triangular" peaks at ``mode``.
    """

    name: str = "uniform"
    value: float | None = None   # point mass location
    mode: float | None = None    # triangular peak

    def validate(self, beta_min: float, beta_max: float) -> None:
        if self.name not in ("uniform", "point", "triangular"):
            raise ConfigurationError(f"unknown birth distribution {self.name!r}")
        if self.name == "point":
            v = self.value if self.value is not None else 0.5 * (beta_min + beta_max)
            if not beta_min <= v <= beta_max:
                raise ConfigurationError("point-mass value outside [beta_min, beta_max]")
        if self.name == "triangular" and self.mode is not None:
            if not beta_min <= self.mode <= beta_max:
                raise ConfigurationError("triangular mode outside [beta_min, beta_max]")

    def sample(self, rng: np.random.Generator, size: int,
               beta_min: float, beta_max: float) -> np.ndarray:
        if self.name == "uniform":
            return rng.uniform(beta_min, beta_max, size)
        if self.name == "point":
            v = self.value if self.value is not None else 0.5 * (beta_min + beta_max)
            return np.full(size, float(v))
        mode = self.mode if self.mode is not None else 0.5 * (beta_min + beta_max)
        return rng.triangular(beta_min, mode, beta_max, size)

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.value is not None:
            out["value"] = self.value
        if self.mode is not None:
            out["mode"] = self.mode
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "BirthDistribution":
        if not isinstance(data, dict):
            raise ConfigurationError(f"distribution must be a JSON object, got {data!r}")
        value, mode = data.get("value"), data.get("mode")
        return cls(name=str(data.get("name", "uniform")),
                   value=None if value is None else coerce("distribution.value", float, value),
                   mode=None if mode is None else coerce("distribution.mode", float, mode))


@dataclass
class EvolutionConfig:
    """All parameters of one stochastic run."""

    p: float = 0.01
    epsilon: float = 0.01
    delta: float = 0.0
    beta_min: float = 0.05
    beta_max: float = 0.2
    distribution: BirthDistribution = field(default_factory=BirthDistribution)
    seed: int = 0
    attachment: str = "random-subset"
    rewiring: str = "neighbor-path"
    assignment: InfluenceAssignment = field(
        default_factory=lambda: InfluenceAssignment(InfluenceFunction("linear", 0.5)))
    horizon: int = 1000

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError("p must be in [0, 1]")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError("epsilon must be in (0, 1)")
        if self.delta < 0.0:
            raise ConfigurationError("delta must be nonnegative")
        if not 0.0 < self.beta_min <= self.beta_max < 1.0:
            raise ConfigurationError("need 0 < beta_min <= beta_max < 1")
        if self.attachment not in ATTACHMENT_POLICIES:
            raise ConfigurationError(f"unknown attachment policy {self.attachment!r}")
        if self.rewiring not in REWIRING_POLICIES:
            raise ConfigurationError(f"unknown rewiring policy {self.rewiring!r}")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be at least 1")
        self.distribution.validate(self.beta_min, self.beta_max)
        sup = self.assignment.sup_abs()
        if sup > 1.0:
            raise ConfigurationError(
                f"sup|F| = {sup:g} > 1: the update map would leave the simplex")

    @property
    def diffeo_admissible(self) -> bool:
        """Whether the configured influence also satisfies sup|F| < 1/2."""
        return self.assignment.sup_abs() < 0.5

    def max_types(self) -> int:
        """Hard cap on the number of types: floor(1/epsilon)."""
        return int(np.floor(1.0 / self.epsilon))

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["distribution"] = self.distribution.to_json_dict()
        out["influence"] = out.pop("assignment").to_json_dict()
        return out

    @classmethod
    def numeric_keys(cls) -> dict[str, type]:
        """The int and float fields, whose JSON keys are their names, with their types."""
        return {f.name: {"int": int, "float": float}[f.type]
                for f in fields(cls) if f.type in ("int", "float")}

    @classmethod
    def json_keys(cls) -> list[str]:
        """The keys of the JSON form: the field names, with "influence" for ``assignment``."""
        return ["influence" if f.name == "assignment" else f.name for f in fields(cls)]

    @classmethod
    def from_json_dict(cls, data: dict) -> "EvolutionConfig":
        """The config a JSON object describes; a key left out keeps its field's default."""
        unknown = set(data) - set(cls.json_keys())
        if unknown:
            raise ConfigurationError(f"unknown evolution config fields: {sorted(unknown)}")
        kwargs = {k: coerce(k, typ, data[k]) for k, typ in cls.numeric_keys().items() if k in data}
        kwargs.update({k: str(data[k]) for k in ("attachment", "rewiring") if k in data})
        if "distribution" in data:
            kwargs["distribution"] = BirthDistribution.from_json_dict(data["distribution"])
        if "influence" in data:
            kwargs["assignment"] = InfluenceAssignment.from_json_dict(data["influence"])
        return cls(**kwargs)


@dataclass
class BirthEvent:
    new_id: int
    mass: float
    z: dict[int, float]           # absorbed fraction per pre-existing type
    neighbors: list[int]

    def to_json_dict(self) -> dict:
        return {"id": self.new_id, "mass": self.mass,
                "z": {str(k): v for k, v in sorted(self.z.items())},
                "neighbors": sorted(self.neighbors)}


@dataclass
class DeathEvent:
    type_id: int
    mass: float                   # mass at the instant of death
    recipients: list[int]

    def to_json_dict(self) -> dict:
        return {"id": self.type_id, "mass": self.mass,
                "recipients": sorted(self.recipients)}


@dataclass
class StepRecord:
    step: int
    phi_before: float
    phi_after_migration: float
    phi_after_birth: float
    phi_after: float
    migration_active: bool
    min_mass_before: float
    birth: BirthEvent | None
    deaths: list[DeathEvent]
    type_count: int               # at the end of the step

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "phi_before": self.phi_before,
            "phi_after_migration": self.phi_after_migration,
            "phi_after_birth": self.phi_after_birth,
            "phi_after": self.phi_after,
            "migration_active": self.migration_active,
            "min_mass_before": self.min_mass_before,
            "birth": self.birth.to_json_dict() if self.birth else None,
            "deaths": [d.to_json_dict() for d in self.deaths],
            "type_count": self.type_count,
        }


@dataclass
class Timeline:
    """Complete per-step event log of one run, plus the terminal state."""

    records: list[StepRecord]
    terminal: PopulationState
    seed: int

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[StepRecord]:
        return iter(self.records)

    def birth_count(self) -> int:
        return sum(1 for r in self.records if r.birth is not None)

    def death_count(self) -> int:
        return sum(len(r.deaths) for r in self.records)

    def max_type_count(self) -> int:
        return max(r.type_count for r in self.records)

    def to_jsonl(self) -> str:
        """One canonical JSON object per step; final line is the terminal state."""
        lines = [json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":"))
                 for r in self.records]
        terminal = {
            "terminal": {
                "graph": self.terminal.graph.to_json_dict(),
                "masses": {str(v): m for v, m in sorted(self.terminal.as_dict().items())},
                "step": self.terminal.t,
            },
            "seed": self.seed,
        }
        lines.append(json.dumps(terminal, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        rows = ["step,phi,type_count,migration_active,births,deaths"]
        for r in self.records:
            rows.append(f"{r.step},{r.phi_after!r},{r.type_count},"
                        f"{int(r.migration_active)},{int(r.birth is not None)},{len(r.deaths)}")
        return "\n".join(rows) + "\n"


def _rebuild(graph: InfluenceGraph, ids: tuple[int, ...], x: np.ndarray,
             t: int) -> PopulationState:
    total = x.sum()
    if abs(total - 1.0) > _RENORM_TOL:
        raise ArithmeticError(f"mass drifted by {abs(total - 1.0):g} within a phase")
    return PopulationState(graph, ids, x / total, t)


def _editor(state: PopulationState, kernel: _EdgeKernel | None):
    """What edits the graph: the kernel, which then follows the edit, if it is
    the state's; else the graph itself."""
    return kernel if kernel is not None and kernel.graph is state.graph else state.graph


def birth_phase(state: PopulationState, config: EvolutionConfig,
                rng: np.random.Generator,
                attach_rng: np.random.Generator | None = None
                ) -> tuple[PopulationState, BirthEvent | None]:
    """With probability p, create a type funded by every existing one.

    ``rng`` drives the Bernoulli coin and the Z draws (in sorted-id order);
    ``attach_rng`` (default: same stream) drives neighbor selection.
    """
    if rng.random() >= config.p:
        return state, None
    return _spawn_type(state, config, rng, attach_rng or rng)


def _spawn_type(state: PopulationState, config: EvolutionConfig,
                rng: np.random.Generator, attach_rng: np.random.Generator,
                kernel: _EdgeKernel | None = None) -> tuple[PopulationState, BirthEvent]:
    z = config.distribution.sample(rng, len(state.ids), config.beta_min, config.beta_max)
    newborn_mass = float(np.dot(z, state.x))
    neighbors = choose_attachment(state.graph, config.attachment, attach_rng)
    new_id = _editor(state, kernel).add_type(neighbors)
    event = BirthEvent(new_id, newborn_mass, dict(zip(state.ids, map(float, z))),
                       sorted(neighbors))
    x = np.append(state.x * (1.0 - z), newborn_mass)   # the newborn's id sorts last
    return _rebuild(state.graph, state.ids + (new_id,), x, state.t), event


def death_phase(state: PopulationState, config: EvolutionConfig,
                kernel: _EdgeKernel | None = None) -> tuple[PopulationState, list[DeathEvent]]:
    """Remove every type at or below epsilon, lowest mass first.

    Each dying type's mass is split equally among its neighbors at the
    instant of death (degree taken after earlier removals in the same
    phase). Redistribution only raises survivors, so the cascade
    terminates; a sole survivor always ends it. Among equal masses the
    lowest id dies first. ``kernel`` follows the removals if it is current.
    A dying type without neighbors (only on a disconnected graph) raises
    ``ValueError`` before it is removed.
    """
    editor = _editor(state, kernel)
    ids, x = list(state.ids), state.x
    events: list[DeathEvent] = []
    while len(ids) >= 2:
        i = int(x.argmin())             # first index: the lowest id among equal masses
        if x[i] > config.epsilon:
            break
        v, m = ids[i], float(x[i])
        recipients = sorted(state.graph.neighbors(v))
        if not recipients:
            raise ValueError(f"type {v} dies with no neighbors to take its mass")
        share = m / len(recipients)
        del ids[i]
        x = np.delete(x, i)
        x[[bisect_left(ids, u) for u in recipients]] += share
        editor.remove_type(v, config.rewiring)
        events.append(DeathEvent(v, m, recipients))
    if not events:
        return state, []
    return _rebuild(state.graph, tuple(ids), x, state.t), events


def evolution_step(state: PopulationState, config: EvolutionConfig,
                   streams: RunStreams, step_index: int | None = None,
                   kernel: _EdgeKernel | None = None) -> tuple[PopulationState, StepRecord]:
    """One full step: migration, then birth, then death, in that order.

    ``kernel``, if current for the state's graph, does the migration and
    follows the birth and the deaths, so the next step can use it as is.
    """
    step = state.t if step_index is None else step_index
    phi_before = potential_phi(state)
    min_mass_before = float(state.x.min())

    state, active, _residual = migrate_step(state, config.assignment, config.delta, kernel)
    phi_mig = phi_birth = phi_after = potential_phi(state)

    # Streams are created lazily: the attach stream only exists on an actual
    # birth, so unrelated draws never shift when events appear or vanish.
    birth = None
    if config.p > 0:
        birth_rng = streams.stream(step, PHASE_BIRTH)
        if birth_rng.random() < config.p:
            state, birth = _spawn_type(state, config, birth_rng,
                                       streams.stream(step, PHASE_ATTACH), kernel)
            phi_birth = phi_after = potential_phi(state)

    state, deaths = death_phase(state, config, kernel)
    if deaths:
        phi_after = potential_phi(state)

    record = StepRecord(
        step=step, phi_before=phi_before, phi_after_migration=phi_mig,
        phi_after_birth=phi_birth, phi_after=phi_after,
        migration_active=active, min_mass_before=min_mass_before,
        birth=birth, deaths=deaths, type_count=len(state.graph),
    )
    return state, record


def run_evolution(x0: PopulationState, config: EvolutionConfig) -> Timeline:
    """Run ``config.horizon`` evolution steps from ``x0``.

    The initial graph is copied, so the caller's objects are untouched.
    The graph must be connected: the birth/death rules assume (and then
    maintain) connectivity.
    """
    graph = x0.graph.copy()
    if not graph.is_connected():
        raise ConfigurationError("birth/death mode needs a connected starting graph")
    state = PopulationState(graph, x0.ids, x0.x.copy(), 0)
    streams = RunStreams(config.seed)
    records: list[StepRecord] = []
    kernel = kernel_for(state, config.assignment)     # followed through every event
    for step in range(config.horizon):
        state, record = evolution_step(state, config, streams, step, kernel)
        records.append(record)
    return Timeline(records, state, config.seed)
