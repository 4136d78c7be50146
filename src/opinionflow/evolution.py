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

import functools
import io
import json
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import BinaryIO, Iterator

import numpy as np

from .dynamics import _RENORM_TOL, PopulationState, _EdgeKernel, _simplex_error, potential_phi
from .errors import ConfigurationError, coerce
from .graph import REWIRING_POLICIES, attachment_indices
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
            raise _simplex_error(sup)

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


class ZMap(Mapping):
    """The absorbed fraction of each pre-existing type of one birth, read-only:
    a view of the run's sorted ids at the birth and the Z array drawn for them,
    in that order, in place of a dict per birth. It equals the dict of the
    same items, from either side."""

    __slots__ = ("ids", "z")

    def __init__(self, ids: tuple[int, ...], z: np.ndarray):
        self.ids, self.z = ids, z

    def __getitem__(self, key: int) -> float:
        i = bisect_left(self.ids, key)
        if i == len(self.ids) or self.ids[i] != key:
            raise KeyError(key)
        return float(self.z[i])

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"ZMap({dict(self)!r})"


@dataclass(slots=True)
class BirthEvent:
    new_id: int
    mass: float
    z: Mapping[int, float]        # absorbed fraction per pre-existing type
    neighbors: list[int]

    def to_json_dict(self) -> dict:
        return {"id": self.new_id, "mass": self.mass,
                "z": {str(k): v for k, v in sorted(self.z.items())},
                "neighbors": sorted(self.neighbors)}


@dataclass(slots=True)
class DeathEvent:
    type_id: int
    mass: float                   # mass at the instant of death
    recipients: list[int]

    def to_json_dict(self) -> dict:
        return {"id": self.type_id, "mass": self.mass,
                "recipients": sorted(self.recipients)}


@dataclass(slots=True)
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


# Most periods of a run that a writer renders into one block, and fewer when
# a block of 10^4 // k periods of k steps is smaller: one digit-table slice
# covers each slot of a block.
WRITE_BLOCK = 4096
_TABLE_NUMBERS = 10_000    # the numbers 0 .. 9999 of the digit table


@functools.cache
def _digit_table() -> np.ndarray:
    """The four zero-padded ASCII digits of 0 .. 9999, twice over, one row
    each (80 KB, read-only, made on first use): row n holds n % 10^4, so a
    slice from a row below 10^4 that steps by k reads 10^4 // k rows
    without wrapping."""
    table = np.empty((2 * _TABLE_NUMBERS, 4), dtype=np.uint8)
    numbers = np.arange(_TABLE_NUMBERS, dtype=np.uint16)
    for place in range(3, -1, -1):      # uint16 temporaries: 20 KB each
        table[:_TABLE_NUMBERS, place] = numbers % 10 + ord("0")
        numbers //= 10
    table[_TABLE_NUMBERS:] = table[:_TABLE_NUMBERS]
    table.flags.writeable = False
    return table

_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _write_lines(write, records: list[StepRecord], render, key: str) -> None:
    """``render(log)`` and a newline for every step of ``records``, as ASCII
    bytes handed to ``write`` a record or a block at a time.

    A run renders each log of its period once and splits it around the step
    number that follows ``key``. Its full periods go out through
    ``_write_periods`` in stretches whose step numbers have one digit count;
    a period that straddles a power of ten, and the period that the run's
    end cuts short, are written line by line.
    """
    for r in records:
        if r.repeat == 1:
            write((render(r) + "\n").encode())
            continue
        parts = []
        for log in (r, *r.cycle):
            line, number = render(log), str(log.step)
            cut = line.index(key + number) + len(key)
            parts.append((line[:cut].encode(), (line[cut + len(number):] + "\n").encode()))
        k, end = len(parts), r.step + r.repeat
        full = end - r.repeat % k
        lo = r.step
        while lo < full:
            digits = len(str(lo))
            periods = (min(full, 10 ** digits) - lo) // k
            if periods:
                _write_periods(write, parts, lo, periods, digits)
                lo += periods * k
            else:                       # the period straddles 10 ** digits
                write(_lines(parts, lo, lo + k))
                lo += k
        write(_lines(parts, full, end))


def _lines(parts: list[tuple[bytes, bytes]], start: int, stop: int) -> bytes:
    """The lines of steps ``start`` .. ``stop``-1, one by one, from the split
    logs of a period that starts at ``start``."""
    return b"".join(head + str(s).encode() + tail
                    for (head, tail), s in zip(parts, range(start, stop)))


def _write_periods(write, parts: list[tuple[bytes, bytes]], first: int, periods: int,
                   digits: int) -> None:
    """The lines of ``periods`` full periods from step ``first``, whose step
    numbers all have ``digits`` digits, handed to ``write`` a block at a time.

    One period is one byte row with a ``digits``-wide slot for each step
    number. A block of up to WRITE_BLOCK rows is filled with that row once;
    each block then overwrites only the slots and is written as it is. A
    slot's step numbers advance by k from row to row, so their low four
    digits are every k-th row of the digit table, copied in one strided
    store of whole table rows; the digits above them change once per 10^4
    steps and are stored as constants.
    """
    k = len(parts)
    row = b"".join(head + bytes(digits) + tail for head, tail in parts)
    rows = min(periods, WRITE_BLOCK, max(1, _TABLE_NUMBERS // k))   # one table slice a slot
    block = bytearray(row) * rows
    low = min(digits, 4)
    high = digits - low
    table = _digit_table()
    table = np.ndarray(len(table), f"V{low}", table, 4 - low, (4,))
    slots, at = [], 0                   # each slot's low and high digits, one per row
    for head, tail in parts:
        at += len(head)
        slots.append((np.ndarray(rows, f"V{low}", block, at + high, (len(row),)),
                      np.ndarray(rows, f"V{high}", block, at, (len(row),)) if high else None))
        at += digits + len(tail)
    stop = first + periods * k
    for lo in range(first, stop, rows * k):
        count = min(rows, (stop - lo) // k)
        for step, (low_digits, high_digits) in enumerate(slots, lo):
            n = step % _TABLE_NUMBERS
            low_digits[:count] = table[n:n + count * k:k]
            if high_digits is not None:
                cut = min(count, -(-(_TABLE_NUMBERS - n) // k))   # the rows below the next 10^4
                high_digits[:cut] = str(step // _TABLE_NUMBERS).encode()
                if cut < count:
                    high_digits[cut:count] = str(step // _TABLE_NUMBERS + 1).encode()
        write(memoryview(block)[:count * len(row)])


def _json_line(record: StepRecord) -> str:
    return _JSON.encode(record.to_json_dict())


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

    def to_jsonl(self, fh: BinaryIO | None = None) -> str | None:
        """One canonical JSON object per step; final line is the terminal state,
        at step ``len(self)``.

        Written to the buffered binary file ``fh`` a block at a time, or
        returned as one string when no file is given.
        """
        out = io.BytesIO() if fh is None else fh
        _write_lines(out.write, self.records, _json_line, '"step":')
        terminal = {
            "terminal": {
                "graph": self.terminal.graph.to_json_dict(),
                "masses": self.terminal.masses_json(),
                "step": len(self),
            },
            "seed": self.seed,
        }
        out.write((_JSON.encode(terminal) + "\n").encode())
        return out.getvalue().decode() if fh is None else None

    def summary_csv(self, fh: BinaryIO | None = None) -> str | None:
        """One row per step under a header, written or returned as ``to_jsonl``."""
        out = io.BytesIO() if fh is None else fh
        out.write(b"step,phi,type_count,migration_active,births,deaths\n")
        _write_lines(out.write, self.records, _csv_line, "")
        return out.getvalue().decode() if fh is None else None


def has_birth(config: EvolutionConfig, streams: RunStreams, step: int) -> bool:
    """The birth rule: step ``step`` of the run that owns ``streams`` has a
    birth exactly when its (step, PHASE_BIRTH) coin falls below p, and never
    when p is 0. The state plays no part: births follow the coins alone."""
    return not (config.p == 0.0 or streams.coin(step, PHASE_BIRTH) >= config.p)


def birth_counts(config: EvolutionConfig, seeds: list[int]) -> np.ndarray:
    """The number of steps of ``run_evolution(x0, config)`` that have a birth,
    whatever x0 is, under each of ``seeds`` as the run seed: the birth rule at
    steps 0 .. horizon-1, with no step run. The coins of many runs are drawn
    together, at most COIN_WINDOW at a time."""
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


class _Run(_EdgeKernel):
    """One evolution run's state, edited in place by its phases: the edge kernel
    of its graph (the one adjacency), the masses ``x`` in ``ids`` order and
    the step ``t``. Migration is the kernel's ``step`` itself; ``birth_phase``,
    ``death_phase`` and ``evolution_step`` edit the run in place."""

    @classmethod
    def of(cls, state: PopulationState, config: EvolutionConfig) -> "_Run":
        """A run on ``state``'s graph (not a copy) and masses, at step 0."""
        run = cls(state.graph, config.assignment)
        run.x, run.t = state.x, 0
        return run

    def renormalize(self, x: np.ndarray) -> None:
        """Take a phase's new masses ``x``, renormalized in place."""
        total = x.sum()
        if not abs(total - 1.0) <= _RENORM_TOL:
            raise ArithmeticError(f"mass drifted by {abs(total - 1.0):g} within a phase")
        x /= total
        self.x = x

    def state(self) -> PopulationState:
        """The run as a new state on its graph and masses (not copies)."""
        return PopulationState(self.graph, self.ids, self.x)


def birth_phase(run: _Run, config: EvolutionConfig, streams: RunStreams,
                step: int) -> BirthEvent | None:
    """With probability p, create a type funded by every existing one; returns
    its event, or None without a birth.

    The stream of (step, PHASE_BIRTH) drives the Bernoulli coin and then the
    Z draws (in sorted-id order). The coin comes from ``streams.coin``, which
    draws it with its window; the stream itself, and the attach stream that
    drives neighbor selection, are made only on an actual birth, so no other
    draw shifts when a birth appears or vanishes.
    """
    if not has_birth(config, streams, step):
        return None
    rng = streams.stream(step, PHASE_BIRTH)
    rng.random()                        # the coin: the Z draws follow it
    x, ids = run.x, run.ids
    z = config.distribution.sample(rng, run.n, config.beta_min, config.beta_max)
    mass = float(np.dot(z, x))
    near = attachment_indices(run.n, config.attachment, streams.stream(step, PHASE_ATTACH))
    neighbors = [ids[j] for j in near]
    event = BirthEvent(run.graph.add_type(neighbors), mass, ZMap(ids, z), neighbors)
    run._append(event.new_id, near)
    out = np.empty(run.n)
    np.multiply(x, 1.0 - z, out=out[:-1])
    out[-1] = mass
    run.renormalize(out)
    return event


def death_phase(run: _Run, config: EvolutionConfig) -> list[DeathEvent]:
    """Remove every type at or below epsilon, lowest mass first; returns the
    deaths in order.

    Each dying type's mass is split equally among its neighbors at the
    instant of death (degree taken after earlier removals in the same
    phase). Redistribution only raises survivors, so the cascade
    terminates; a sole survivor always ends it. Among equal masses the
    lowest id dies first. A dying type without neighbors (only on a
    disconnected graph) raises ``ValueError`` before anything is removed.
    """
    x, events = run.x, []
    while len(x) >= 2:
        i = int(x.argmin())             # first index: the lowest id among equal masses
        m = float(x[i])
        if m > config.epsilon:
            break
        v = run.ids[i]
        if not run.graph.neighbors(v):
            raise ValueError(f"type {v} dies with no neighbors to take its mass")
        near = run._remove(i, run.graph.remove_type(v, config.rewiring))
        x = np.concatenate((x[:i], x[i + 1:]))
        x[near] += m / len(near)
        events.append(DeathEvent(v, m, [run.ids[j] for j in near.tolist()]))
    if events:
        run.renormalize(x)
    return events


def evolution_step(run: _Run, config: EvolutionConfig, streams: RunStreams,
                   phi_before: float) -> tuple[_Run, StepRecord]:
    """Step ``run.t``: migration, then birth, then death, in that order.

    ``phi_before`` is ``potential_phi(run)``: the last step's ``phi_after``,
    as ``run_evolution`` hands it on.
    """
    step, x = run.t, run.x
    min_mass_before = float(x[x.argmin()])     # x.min(), at a fraction of its cost
    run.x, flows = run.step(x, config.delta)    # as migrate_step does
    run.t += 1
    phi_mig = phi_birth = phi_after = potential_phi(run)
    birth = birth_phase(run, config, streams, step)
    if birth is not None:
        phi_birth = phi_after = potential_phi(run)
    deaths = death_phase(run, config)
    if deaths:
        phi_after = potential_phi(run)
    record = StepRecord(
        step=step, phi_before=phi_before, phi_after_migration=phi_mig,
        phi_after_birth=phi_birth, phi_after=phi_after,
        migration_active=bool(np.count_nonzero(flows)), min_mass_before=min_mass_before,
        birth=birth, deaths=deaths, type_count=run.n,
    )
    return run, record


def run_evolution(x0: PopulationState, config: EvolutionConfig) -> Timeline:
    """Run ``config.horizon`` evolution steps from ``x0``.

    The initial graph is copied, so the caller's objects are untouched.
    The graph must be connected: the birth/death rules assume (and then
    maintain) connectivity. Every step edits one ``_Run`` in place.

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
    run = _Run.of(PopulationState(graph, x0.ids, x0.x.copy()), config)
    streams = RunStreams(config.seed)
    records: list[StepRecord] = []
    phi, key = potential_phi(run), None   # key: the input masses of the next step, as bytes
    stretch: dict[bytes, int] = {}    # the input masses of each quiet step since the last event
    inputs: list[np.ndarray] = []     # the same, in step order, as arrays
    stepped, cascade, periods = 0, 0, Counter()
    while run.t < config.horizon:
        x = run.x
        _, record = evolution_step(run, config, streams, phi)
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
        key = run.x.tobytes()
        first = stretch.get(key)
        if first is None:
            continue
        cycle = records[first - len(inputs):]
        stop = _next_birth(config, streams, run.t)
        if stop > run.t:
            span = stop - run.t
            periods[len(cycle)] += 1
            records.append(replace(cycle[0], step=run.t, repeat=span, cycle=tuple(
                replace(log, step=run.t + i) for i, log in enumerate(cycle[1:span], 1))))
            at_stop = span % len(cycle)
            phi = cycle[at_stop].phi_before
            run.x, run.t = inputs[first + at_stop], stop
            key = None
        stretch.clear()
        inputs.clear()
    diagnostics = {"stepped_steps": stepped, "jumped_steps": config.horizon - stepped,
                   "runs_per_period": {str(k): n for k, n in sorted(periods.items())},
                   "coin_draws": streams.coin_draws, "max_cascade": cascade}
    return Timeline(records, run.state(), config.seed, diagnostics)
