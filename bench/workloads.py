"""The four benchmark workloads: CLI arguments, operation counts, output checks.

Every workload is one ``opinionflow`` CLI invocation with ``--jobs 1``.
``size`` is the normal size; ``short`` is the self-test size. A check
returns (failed operations, unresolved operations, messages) for one
invocation's output directory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

CHURN_CONFIG = {"p": 0.5, "epsilon": 1e-4, "delta": 0.01, "beta_min": 0.1,
                "beta_max": 0.3, "horizon": 2715, "influence": "linear:9e-4"}
QUIET_EPSILON = 0.05
TAIL_ROOT_SEED = 71          # criterion 07's seed; trial 159 exhausts the budget
CYCLE = 5


@dataclass(frozen=True)
class Workload:
    name: str
    size: int                 # resolution, trials or steps
    short: int
    first_op: str             # "module:function" called once per operation
    argv: Callable[[int, int, str, str], list[str]]   # (size, seed, work_dir, out) -> argv
    ops: Callable[[int], int]
    check: Callable[[str, int], tuple[int, int, list[str]]]


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# -- basin ---------------------------------------------------------------------

def _basin_argv(size, seed, work_dir, out):
    # the raster has no randomness: the seed changes nothing
    return ["basin", "--graph", "triangle", "--f", "linear:0.5",
            "--resolution", str(size), "--jobs", "1", "--out", out]


def _argmax_label(w) -> str:
    top = max(w)
    return "+".join(str(k) for k in range(3) if w[k] == top)


def _check_basin(out, size):
    """Every cell carries the exact argmax label of its integer weights."""
    rows = _read(os.path.join(out, "basin.csv")).splitlines()
    bad = unresolved = 0
    if len(rows) != size + 1:
        return _basin_cells(size), 0, [f"basin.csv has {len(rows)} rows, want {size + 1}"]
    for i, row in enumerate(rows):
        labels = row.split(",")
        want = size - i + 1
        bad += abs(len(labels) - want)
        for j, lab in enumerate(labels[:want]):
            unresolved += lab == "unresolved"
            bad += lab != _argmax_label((i, j, size - i - j))
    msgs = [f"{bad} basin cells differ from the argmax label"] if bad else []
    return bad, unresolved, msgs


def _basin_cells(size):
    return (size + 1) * (size + 2) // 2


# -- converge-tail ------------------------------------------------------------------

def _tail_argv(size, seed, work_dir, out):
    # pinned to criterion 07's root seed so the known tail is in every run
    return ["verify", "convergence", "--graph", f"cycle:{CYCLE}", "--f", "linear:0.49",
            "--seed", str(TAIL_ROOT_SEED), "--trials", str(size), "--jobs", "1",
            "--out", out]


def _independent_on_cycle(label: str) -> bool:
    ids = [int(v) for v in label.split("+")]
    return all((a - b) % CYCLE not in (1, CYCLE - 1) for a in ids for b in ids)


def _check_tail(out, size):
    """Converged labels are independent sets; unconverged trials stay counted."""
    stats = json.loads(_read(os.path.join(out, "stats.json")))
    census = stats["census"]
    unconverged = stats["unconverged"]
    broken = []
    if stats["trials"] != size or sum(census.values()) + unconverged != size:
        broken.append(f"census plus unconverged does not cover all {size} trials")
    dependent = sum(n for lab, n in census.items() if not _independent_on_cycle(lab))
    if stats["successes"] != size - unconverged - dependent or \
            stats["estimate"] != stats["successes"] / size:
        broken.append("unconverged trials were not counted as failures")
    msgs = [f"{dependent} converged trials ended on a non-independent set"] if dependent else []
    return (size if broken else dependent), unconverged, msgs + broken


# -- evolve-churn -------------------------------------------------------------------

def _churn_argv(size, seed, work_dir, out):
    config = os.path.join(work_dir, "evolve-churn-config.json")
    if not os.path.exists(config):
        with open(config, "w") as fh:
            json.dump(CHURN_CONFIG, fh)
    return ["verify", "types", "--config", config, "--start", "adversarial",
            "--graph", "path:50", "--trials", str(size), "--seed", str(seed),
            "--jobs", "1", "--out", out]


def _check_churn(out, size):
    stats = json.loads(_read(os.path.join(out, "stats.json")))
    msgs = []
    if stats["trials"] != size:
        msgs.append(f"stats.json reports {stats['trials']} trials, want {size}")
    if stats["cap_violations"] != 0:
        msgs.append(f"{stats['cap_violations']} trials broke the floor(1/epsilon) cap")
    if stats["verdict"] == "fail":
        msgs.append("verify types verdict is fail")
    return (_churn_steps(size) if msgs else 0), 0, msgs


def _churn_steps(size):
    return size * CHURN_CONFIG["horizon"]


# -- evolve-quiet -------------------------------------------------------------------

def _quiet_argv(size, seed, work_dir, out):
    return ["evolve", "--graph", "path:4", "--x0", "uniform", "--p", "0.001",
            "--epsilon", str(QUIET_EPSILON), "--delta", "0.3", "--steps", str(size),
            "--seed", str(seed), "--jobs", "1", "--out", out]


def _check_quiet(out, size):
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    rows = _read(os.path.join(out, "summary.csv")).splitlines()[1:]
    cap = math.floor(1.0 / QUIET_EPSILON)
    msgs = []
    drift = abs(math.fsum(summary["terminal"].values()) - 1.0)
    if drift > 1e-12:
        msgs.append(f"terminal masses sum to 1 only within {drift:g}")
    if len(rows) != size:
        msgs.append(f"summary.csv has {len(rows)} step rows, want {size}")
    over = sum(1 for row in rows if int(row.split(",")[2]) > cap)
    if over:
        msgs.append(f"{over} steps hold more than floor(1/epsilon) = {cap} types")
    failed = size if drift > 1e-12 else min(size, over + abs(len(rows) - size))
    return failed, 0, msgs


WORKLOADS = {w.name: w for w in [
    Workload("basin", 100, 12, "opinionflow.harness:run_to_convergence",
             _basin_argv, _basin_cells, _check_basin),
    Workload("converge-tail", 160, 20, "opinionflow.harness:run_to_convergence",
             _tail_argv, lambda n: n, _check_tail),
    Workload("evolve-churn", 4, 1, "opinionflow.evolution:evolution_step",
             _churn_argv, _churn_steps, _check_churn),
    Workload("evolve-quiet", 100_000, 2_000, "opinionflow.evolution:evolution_step",
             _quiet_argv, lambda n: n, _check_quiet),
]}
