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
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from itertools import chain, repeat
from typing import Iterator, TextIO

import numpy as np

from .dynamics import (_RENORM_TOL, PopulationState, _EdgeKernel, kernel_for, migrate_step,
                       potential_phi)
from .errors import ConfigurationError, coerce
from .graph import choose_attachment, REWIRING_POLICIES
from .influence import InfluenceAssignment, InfluenceFunction
from .seeding import COIN_WINDOW, PHASE_ATTACH, PHASE_BIRTH, RunStreams, run_coins

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
        if not 0.0 <= self.delta < np.inf:
            raise ConfigurationError("delta must be finite and nonnegative")
        if not 0.0 < self.beta_min <= self.beta_max < 1.0:
            raise ConfigurationError("need 0 < beta_min <= beta_max < 1")
        if self.attachment not in ATTACHMENT_POLICIES:
            raise ConfigurationError(f"unknown attachment policy {self.attachment!r}")
        if self.rewiring not in REWIRING_POLICIES:
            raise ConfigurationError(f"unknown rewiring policy {self.rewiring!r}")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be at least 0, got {self.seed}")
        self.distribution.validate(self.beta_min, self.beta_max)
        sup = self.assignment.sup_abs()
        if not sup <= 1.0:             # a NaN sup (a custom F) fails too
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
    """The log of step ``step``; with ``repeat`` > 1, of a run of steps
    ``step`` .. ``step + repeat - 1`` that cycles through the logs of one
    period and differs from them only in the step number.

    The period is k = 1 + len(``cycle``): the run's step ``step + i`` writes
    this record's log when i is a multiple of k, and ``cycle[i % k - 1]``
    otherwise. With ``cycle`` empty every step of the run writes this log.
    ``cycle`` holds fewer than ``repeat`` logs, so a one-step record has none.
    The logs of a period are quiet steps (no flow, no birth, no death, one
    type count) and differ only in their potentials and smallest mass, so
    what the counts and checks read of a run, they read from this record.
    """

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
    repeat: int = 1
    cycle: tuple[StepRecord, ...] = ()

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


WRITE_BLOCK = 4096    # most periods of a run that a writer renders into one block


def _write_lines(write, records: list[StepRecord], render, key: str) -> None:
    """``render(log)`` and a newline for every step of ``records``, handed to
    ``write`` a record or a block at a time.

    A run renders each log of its period once and splits it around the step
    number that follows ``key``; its full periods are then joined from the
    split logs and strided ranges of step numbers, at C speed, and the
    period that the run's end cuts short is written line by line.
    """
    for r in records:
        if r.repeat == 1:
            write(render(r) + "\n")
            continue
        parts = []
        for log in (r, *r.cycle):
            line, number = render(log), str(log.step)
            cut = line.index(key + number) + len(key)
            parts.append((line[:cut], line[cut + len(number):] + "\n"))
        k, end = len(parts), r.step + r.repeat
        full = end - r.repeat % k
        for lo in range(r.step, full, k * WRITE_BLOCK):
            hi = min(lo + k * WRITE_BLOCK, full)
            columns = [column for i, (head, tail) in enumerate(parts)
                       for column in (repeat(head), map(str, range(lo + i, hi, k)), repeat(tail))]
            write("".join(chain.from_iterable(zip(*columns))))
        write("".join(head + str(s) + tail for (head, tail), s in zip(parts, range(full, end))))


def _json_line(record: StepRecord) -> str:
    return json.dumps(record.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _csv_line(record: StepRecord) -> str:
    return (f"{record.step},{record.phi_after!r},{record.type_count},"
            f"{int(record.migration_active)},{int(record.birth is not None)},"
            f"{len(record.deaths)}")


@dataclass
class Timeline:
    """Complete per-step event log of one run, plus the terminal state.

    A record with ``repeat`` > 1 stands for that many steps (see
    ``StepRecord``); ``len`` counts steps and iteration yields one record per
    step, while the counts, the writers and the harness checks read the runs
    as they are. ``diagnostics`` holds the counts ``run_evolution`` keeps of
    its work: steps stepped and jumped, runs per period, Philox passes made
    for coins, and the longest death cascade.
    """

    records: list[StepRecord]
    terminal: PopulationState
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(r.repeat for r in self.records)

    def __iter__(self) -> Iterator[StepRecord]:
        for r in self.records:
            if r.repeat == 1:
                yield r
            else:
                period = (r, *r.cycle)
                yield from (replace(period[i % len(period)], step=r.step + i, repeat=1, cycle=())
                            for i in range(r.repeat))

    def last_step(self) -> StepRecord:
        """The record of the last step, which a run may end anywhere in its period."""
        r = self.records[-1]
        log = (r, *r.cycle)[(r.repeat - 1) % (1 + len(r.cycle))]
        return replace(log, step=r.step + r.repeat - 1, repeat=1, cycle=())

    def birth_count(self) -> int:
        return sum(r.repeat for r in self.records if r.birth is not None)

    def death_count(self) -> int:
        return sum(len(r.deaths) * r.repeat for r in self.records)

    def max_type_count(self) -> int:
        return max(r.type_count for r in self.records)

    def to_jsonl(self, fh: TextIO | None = None) -> str | None:
        """One canonical JSON object per step; final line is the terminal state.

        Written to ``fh`` a block at a time, or returned as one string when
        no file is given.
        """
        parts: list[str] = []
        write = parts.append if fh is None else fh.write
        _write_lines(write, self.records, _json_line, '"step":')
        terminal = {
            "terminal": {
                "graph": self.terminal.graph.to_json_dict(),
                "masses": {str(v): m for v, m in sorted(self.terminal.as_dict().items())},
                "step": self.terminal.t,
            },
            "seed": self.seed,
        }
        write(json.dumps(terminal, sort_keys=True, separators=(",", ":")) + "\n")
        return "".join(parts) if fh is None else None

    def summary_csv(self, fh: TextIO | None = None) -> str | None:
        """One row per step under a header, written or returned as ``to_jsonl``."""
        parts: list[str] = []
        write = parts.append if fh is None else fh.write
        write("step,phi,type_count,migration_active,births,deaths\n")
        _write_lines(write, self.records, _csv_line, "")
        return "".join(parts) if fh is None else None


def _rebuild(kernel: _EdgeKernel, x: np.ndarray, t: int) -> PopulationState:
    """The state after a phase's edits: the kernel's graph and vertex order,
    the masses ``x`` in that order, renormalized."""
    total = x.sum()
    if not abs(total - 1.0) <= _RENORM_TOL:
        raise ArithmeticError(f"mass drifted by {abs(total - 1.0):g} within a phase")
    return PopulationState(kernel.graph, kernel.ids, x / total, t)


def has_birth(config: EvolutionConfig, streams: RunStreams, step: int) -> bool:
    """The birth rule: step ``step`` of the run that owns ``streams`` has a
    birth exactly when its (step, PHASE_BIRTH) coin falls below p, and never
    when p is 0. The state plays no part: births follow the coins alone."""
    return not (config.p == 0.0 or streams.coin(step, PHASE_BIRTH) >= config.p)


def birth_steps(config: EvolutionConfig) -> list[int]:
    """The steps of ``run_evolution(x0, config)`` that have a birth, whatever
    x0 is: the birth rule at steps 0 .. horizon-1, with no step run."""
    coins = RunStreams(config.seed).coins(0, config.horizon, PHASE_BIRTH)
    return np.flatnonzero(coins < config.p).tolist()


def birth_counts(config: EvolutionConfig, seeds: list[int]) -> np.ndarray:
    """``len(birth_steps(config))`` under each of ``seeds`` as the run seed:
    the coins of many runs drawn together, at most COIN_WINDOW at a time."""
    counts = np.zeros(len(seeds), dtype=np.int64)
    width = min(config.horizon, COIN_WINDOW)
    rows = COIN_WINDOW // width
    for lo in range(0, len(seeds), rows):
        for first in range(0, config.horizon, width):
            coins = run_coins(seeds[lo:lo + rows], first,
                              min(width, config.horizon - first), PHASE_BIRTH)
            counts[lo:lo + rows] += np.count_nonzero(coins < config.p, axis=1)
    return counts


def _next_birth(config: EvolutionConfig, streams: RunStreams, start: int) -> int:
    """The first step from ``start`` on that has a birth, or the horizon if
    none does: the birth rule, one comparison per coin window."""
    if config.p == 0.0:
        return config.horizon
    while start < config.horizon:
        first, coins = streams.window(start, PHASE_BIRTH)
        fired = np.flatnonzero(coins[start - first:config.horizon - first] < config.p)
        if fired.size:
            return start + int(fired[0])
        start = first + len(coins)
    return config.horizon


def birth_phase(state: PopulationState, config: EvolutionConfig, streams: RunStreams,
                step: int, kernel: _EdgeKernel | None = None
                ) -> tuple[PopulationState, BirthEvent | None]:
    """With probability p, create a type funded by every existing one.

    The stream of (step, PHASE_BIRTH) drives the Bernoulli coin and then the
    Z draws (in sorted-id order). The coin comes from ``streams.coin``, which
    draws it with its window; the stream itself, and the attach stream that
    drives neighbor selection, are made only on an actual birth, so no other
    draw shifts when a birth appears or vanishes. ``kernel`` adds the
    newborn, after ``kernel_for`` has rebuilt it if it was stale, and
    follows it.
    """
    if not has_birth(config, streams, step):
        return state, None
    rng = streams.stream(step, PHASE_BIRTH)
    rng.random()                        # the coin: the Z draws follow it
    kernel = kernel_for(state, config.assignment, kernel)
    z = config.distribution.sample(rng, len(state.ids), config.beta_min, config.beta_max)
    newborn_mass = float(np.dot(z, state.x))
    neighbors = choose_attachment(state.graph, config.attachment,
                                  streams.stream(step, PHASE_ATTACH))
    new_id = kernel.add_type(neighbors)
    event = BirthEvent(new_id, newborn_mass, dict(zip(state.ids, map(float, z))),
                       sorted(neighbors))
    x = np.append(state.x * (1.0 - z), newborn_mass)   # the newborn's id sorts last
    return _rebuild(kernel, x, state.t), event


def death_phase(state: PopulationState, config: EvolutionConfig,
                kernel: _EdgeKernel | None = None) -> tuple[PopulationState, list[DeathEvent]]:
    """Remove every type at or below epsilon, lowest mass first.

    Each dying type's mass is split equally among its neighbors at the
    instant of death (degree taken after earlier removals in the same
    phase). Redistribution only raises survivors, so the cascade
    terminates; a sole survivor always ends it. Among equal masses the
    lowest id dies first. ``kernel`` makes the removals, after ``kernel_for``
    has rebuilt it if it was stale, and follows them. A dying type without
    neighbors (only on a disconnected graph) raises ``ValueError`` before
    it is removed.
    """
    x, events = state.x, []
    while len(x) >= 2:
        i = int(x.argmin())             # first index: the lowest id among equal masses
        if x[i] > config.epsilon:
            break
        if not events:
            kernel = kernel_for(state, config.assignment, kernel)
        v, m = kernel.ids[i], float(x[i])
        recipients = sorted(kernel.graph.neighbors(v))
        if not recipients:
            raise ValueError(f"type {v} dies with no neighbors to take its mass")
        kernel.remove_type(v, config.rewiring)
        x = np.concatenate((x[:i], x[i + 1:]))
        x[[bisect_left(kernel.ids, u) for u in recipients]] += m / len(recipients)
        events.append(DeathEvent(v, m, recipients))
    if not events:
        return state, []
    return _rebuild(kernel, x, state.t), events


def evolution_step(state: PopulationState, config: EvolutionConfig,
                   streams: RunStreams, kernel: _EdgeKernel | None = None,
                   phi_before: float | None = None) -> tuple[PopulationState, StepRecord]:
    """Step ``state.t``: migration, then birth, then death, in that order.

    ``kernel``, if current for the state's graph, does the migration and
    makes and follows the birth and the deaths, so the next step can use it
    as is. ``phi_before``, if given, is ``potential_phi(state)``: the last
    step's ``phi_after``, which ``run_evolution`` hands on.
    """
    step = state.t
    if phi_before is None:
        phi_before = potential_phi(state)
    min_mass_before = float(state.x.min())

    state, active, _residual = migrate_step(state, config.assignment, config.delta, kernel)
    phi_mig = phi_birth = phi_after = potential_phi(state)

    state, birth = birth_phase(state, config, streams, step, kernel)
    if birth is not None:
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

    A quiet step has no flow, no birth and no death. Since the last event
    the run keeps the input masses of each quiet step, as bytes. When a
    quiet step's output masses equal, bit for bit, the input masses of an
    earlier quiet step, the steps from that one on form a cycle of period
    k (k = 1 for a frozen step): up to the next birth every later step
    migrates the same masses with the same kernel, the death phase finds
    what it found before, and only the coin and the step number change. So
    the run jumps to the next birth, logs the steps in between as one
    record that cycles through the k logs, and resumes at the masses and
    potential of the cycle's step that the birth step falls on.
    """
    graph = x0.graph.copy()
    if not graph.is_connected():
        raise ConfigurationError("birth/death mode needs a connected starting graph")
    state = PopulationState(graph, x0.ids, x0.x.copy(), 0)
    streams = RunStreams(config.seed)
    records: list[StepRecord] = []
    kernel = kernel_for(state, config.assignment)     # followed through every event
    phi = key = None                  # key: the input masses of the next step, as bytes
    stretch: dict[bytes, int] = {}    # the input masses of each quiet step since the last event
    inputs: list[np.ndarray] = []     # the same, in step order, as arrays
    stepped, cascade, periods = 0, 0, Counter()
    while state.t < config.horizon:
        x = state.x
        state, record = evolution_step(state, config, streams, kernel, phi)
        records.append(record)
        phi, stepped = record.phi_after, stepped + 1
        cascade = max(cascade, len(record.deaths))
        if record.migration_active or record.birth is not None or record.deaths:
            stretch.clear()
            inputs.clear()
            key = None
            continue
        stretch[x.tobytes() if key is None else key] = len(inputs)
        inputs.append(x)
        key = state.x.tobytes()
        first = stretch.get(key)
        if first is None:
            continue
        cycle = records[first - len(inputs):]
        stop = _next_birth(config, streams, state.t)
        if stop > state.t:
            span = stop - state.t
            periods[len(cycle)] += 1
            records.append(replace(cycle[0], step=state.t, repeat=span, cycle=tuple(
                replace(log, step=state.t + i) for i, log in enumerate(cycle[1:span], 1))))
            at_stop = span % len(cycle)
            phi = cycle[at_stop].phi_before
            state = PopulationState(state.graph, state.ids, inputs[first + at_stop], stop)
            key = None
        stretch.clear()
        inputs.clear()
    diagnostics = {"stepped_steps": stepped, "jumped_steps": config.horizon - stepped,
                   "runs_per_period": {str(k): n for k, n in sorted(periods.items())},
                   "coin_draws": streams.coin_draws, "max_cascade": cascade}
    return Timeline(records, state, config.seed, diagnostics)
