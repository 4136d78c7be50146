"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the criterion lines.
Randomized sweeps use fixed seeds, so the whole gate is reproducible.
"""

import json
import math

import numpy as np
import pytest

from opinionflow import (EvolutionConfig, InfluenceAssignment, InfluenceGraph,
                         PopulationState, basin_map, check_diagonal_dominance,
                         eigenvalues, jacobian, linear,
                         monte_carlo_convergence, projected_jacobian,
                         run_evolution, sample_state, verify_birth_counts,
                         verify_phi_bounds, verify_stability_theorem,
                         verify_type_bound)
from opinionflow.cli import main
from opinionflow.dynamics import kernel_for
from opinionflow.seeding import generator, trial_seed

from .helpers import (connected_graph_atlas, jacobian_fd, label_at, match_multisets, path_acb,
                      random_setup)


def report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- criteria 1 + 2: one shared sweep ------------------------------------------------

@pytest.fixture(scope="module")
def migration_sweep():
    """500 random (graph n<=16, admissible F, x0) triples, 1000 steps each.

    Collects the extremes needed by the potential-monotonicity and
    simplex-preservation criteria. "Not a fixed point" is judged at
    max|flow| >= 1e-6: the step identity gives dPhi >= 8*f_max^2/alpha_max,
    so with alpha_max <= 3 across the shipped families that flow level
    forces dPhi >= 2.6e-12; at smaller flows the stated 1e-12 margin is
    not mathematically implied.

    The setups step together as one batch through the package's own edge
    kernel: one ``_EdgeKernel`` on the disjoint union of the setups, setup s
    holding the ids s * width + i, with isolated, massless ids padding every
    setup to width. Each setup's edges keep its own F as per-edge overrides,
    and sort as in its own kernel, so ``flows`` and ``net`` give each setup's
    values bit for bit. Row s of the (setups, width) view is setup s, and is
    renormalized alone. A padded row sums its total in another order than
    its unpadded masses would, so the extremes may move in the last bit.
    """
    setups, width, steps = 500, 16, 1000
    rng = np.random.default_rng(20260808)
    x, real = np.zeros((setups, width)), np.zeros((setups, width), dtype=bool)
    edges = {}
    for s in range(setups):
        state, assignment, _family, _a = random_setup(rng, n_max=16)
        x[s, :len(state.x)], real[s, :len(state.x)] = state.x, True
        edges.update({(s * width + u, s * width + v): assignment.default
                      for u, v in state.graph.edges()})
    union = InfluenceGraph(range(setups * width), edges)
    kernel = kernel_for(PopulationState(union, tuple(range(setups * width)), x.ravel()),
                        InfluenceAssignment(linear(1.0), edges))
    owner = kernel.iv // width                      # the setup of each edge
    stats = {
        "dphi_min": np.inf,          # over every step
        "dphi_active_min": np.inf,   # over steps with max|flow| >= 1e-6
        "active_steps": 0,
        "residual_max": 0.0,
        "coord_min": np.inf,
        "coord_max": -np.inf,
        "steps": setups * steps,
    }
    phi = np.einsum("ij,ij->i", x, x)
    for _step in range(steps):
        flows = kernel.flows(x.ravel(), 0.0)
        active = np.bincount(owner, np.abs(flows) >= 1e-6, setups) > 0
        x2 = x + kernel.net(flows).reshape(setups, width)
        total = x2.sum(axis=1)
        stats["residual_max"] = max(stats["residual_max"], float(np.abs(total - 1.0).max()))
        stats["coord_min"] = min(stats["coord_min"], float(x2[real].min()))
        stats["coord_max"] = max(stats["coord_max"], float(x2[real].max()))
        x = x2 / total[:, None]
        phi_next = np.einsum("ij,ij->i", x, x)
        dphi = phi_next - phi
        stats["dphi_min"] = min(stats["dphi_min"], float(dphi.min()))
        stats["dphi_active_min"] = min(stats["dphi_active_min"],
                                       float(dphi[active].min(initial=np.inf)))
        stats["active_steps"] += int(active.sum())
        phi = phi_next
    return stats


def test_criterion_01_phi_monotone(migration_sweep):
    s = migration_sweep
    ok = (s["dphi_min"] >= -1e-14
          and s["active_steps"] > 0
          and s["dphi_active_min"] > 1e-12)
    report(1, "phi strictly increases off fixed points", ok,
           f"min dPhi={s['dphi_min']:.2e}, min active dPhi={s['dphi_active_min']:.2e} "
           f"over {s['steps']} steps")


def test_criterion_02_simplex_preserved(migration_sweep):
    s = migration_sweep
    ok = (s["residual_max"] <= 1e-9
          and s["coord_min"] >= 0.0
          and s["coord_max"] <= 1.0)
    report(2, "simplex preserved pre-renormalization", ok,
           f"max |sum-1|={s['residual_max']:.2e}, coords in "
           f"[{s['coord_min']:.2e}, {s['coord_max']:.6f}]")


def test_criterion_03_jacobian_matches_finite_differences():
    rng = np.random.default_rng(31)
    worst_entry = 0.0
    worst_colsum = 0.0
    for _ in range(100):
        state, assignment, _f, _a = random_setup(rng, n_max=16)
        J = jacobian(state, assignment)
        J_fd = jacobian_fd(state, assignment)
        gap = np.abs(J - J_fd) - np.maximum(1e-6, 1e-4 * np.abs(J))
        worst_entry = max(worst_entry, float(gap.max()))
        worst_colsum = max(worst_colsum, float(np.max(np.abs(J.sum(axis=0) - 1.0))))
    ok = worst_entry <= 0.0 and worst_colsum <= 1e-12
    report(3, "analytic jacobian vs central differences", ok,
           f"worst tolerance excess={worst_entry:.2e}, worst col-sum error={worst_colsum:.2e}")


def test_criterion_04_projection_keeps_spectrum():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(100):
        state, assignment, _f, _a = random_setup(rng, n_max=8)
        J = jacobian(state, assignment)
        full = list(eigenvalues(J).values)
        k = int(np.argmin([abs(z - 1.0) for z in full]))
        assert abs(full[k] - 1.0) < 1e-8
        full.pop(k)
        for elim in range(len(state.ids)):
            proj = eigenvalues(projected_jacobian(J, elim)).values
            match_multisets(full, proj, 1e-8)
            checked += 1
    report(4, "projected jacobian spectrum", True,
           f"{checked} (state, eliminated-coordinate) pairs matched at 1e-8")


def test_criterion_05_non_independent_fixed_points_unstable():
    assignment = InfluenceAssignment(linear(0.49))
    atlas = connected_graph_atlas(6)
    worst_radius = np.inf
    checked = 0
    for n, edges in atlas:
        graph = InfluenceGraph(range(n), edges)
        edge_set = [(u, v) for u, v in edges]
        for mask in range(1, 1 << n):
            active = [v for v in range(n) if mask >> v & 1]
            if not any(u in active and v in active for u, v in edge_set):
                continue  # independent active set: the claim says nothing
            masses = np.zeros(n)
            masses[active] = 1.0 / len(active)
            p = PopulationState(graph, tuple(range(n)), masses)
            J = jacobian(p, assignment)
            radius = eigenvalues(projected_jacobian(J, n - 1)).spectral_radius
            worst_radius = min(worst_radius, radius)
            checked += 1
    ok = worst_radius > 1.0 + 1e-9
    report(5, "adjacent equal-mass fixed points are linearly unstable", ok,
           f"{checked} fixed points over {len(atlas)} connected graphs, "
           f"min projected radius={worst_radius:.6f}")


def test_criterion_06_diagonal_dominance_under_weak_influence():
    rng = np.random.default_rng(61)
    assignment = InfluenceAssignment(linear(0.49))
    checked = 0
    all_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 17))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        graph = InfluenceGraph(range(n), edges)
        for _ in range(50):
            draws = rng.exponential(size=n)
            state = PopulationState(graph, tuple(range(n)), draws / draws.sum())
            all_ok &= check_diagonal_dominance(jacobian(state, assignment))
            checked += 1
    report(6, "diagonal dominance at sup|F|=0.49", all_ok and checked == 10_000,
           f"{checked} random states")


def test_criterion_07_convergence_to_independent_sets():
    assignment = InfluenceAssignment(linear(0.49))
    graphs = {
        "triangle": InfluenceGraph.triangle(),
        "path3": path_acb(),
        "cycle5": InfluenceGraph.cycle(5),
        "complete4": InfluenceGraph.complete(4),
    }
    rates = {}
    census = None
    for name, graph in graphs.items():
        stats = monte_carlo_convergence(graph, assignment, trials=1000,
                                        root_seed=71)
        rates[name] = stats.estimate
        if name == "triangle":
            census = stats.extras["census"]
    ok = all(rate >= 0.995 for rate in rates.values())
    fractions = [census.get(lab, 0) / 1000 for lab in ("0", "1", "2")]
    census_ok = all(abs(f - 1 / 3) <= 0.05 for f in fractions)
    report(7, "random starts reach independent sets", ok and census_ok,
           "rates " + ", ".join(f"{k}={v:.3f}" for k, v in rates.items())
           + f"; triangle census={[round(f, 3) for f in fractions]}")


def test_criterion_08_basin_rasters():
    assignment = InfluenceAssignment(linear(0.5))
    res = 200

    triangle = basin_map(InfluenceGraph.triangle(), assignment, resolution=res)
    argmax_ok = True
    for i in range(res + 1):
        for j in range(res + 1 - i):
            w = np.array([i, j, res - i - j])
            top = w.max()
            expected = "+".join(str(k) for k in range(3) if w[k] == top)
            argmax_ok &= triangle.rows[i][j] == expected

    path = basin_map(path_acb(), assignment, resolution=res)
    fractions = path.label_fractions()
    c_area = fractions.get("2", 0.0)
    ab_area = sum(f for lab, f in fractions.items() if lab in ("0", "1", "0+1"))
    corner_ok = (label_at(path, [0.02, 0.02, 0.96]) == "2"
                 and label_at(path, [0.9, 0.06, 0.04]) in ("0", "0+1")
                 and label_at(path, [0.06, 0.9, 0.04]) in ("1", "0+1"))
    unresolved = (sum(lab == "unresolved" for row in triangle.rows for lab in row)
                  + sum(lab == "unresolved" for row in path.rows for lab in row))
    ok = argmax_ok and corner_ok and c_area > 0.1 and ab_area > 0.1 and unresolved == 0
    # region areas for the path are reported, not asserted: no reference values
    report(8, "figure-style basin rasters", ok,
           f"triangle argmax labeling={'exact' if argmax_ok else 'violated'}; "
           f"path areas C={c_area:.4f}, A+B={ab_area:.4f}, "
           f"other={1 - c_area - ab_area:.4f}; unresolved={unresolved}")


def _phi_bounds_config(seed=0):
    return EvolutionConfig(p=0.02, epsilon=0.05, delta=0.3, beta_min=0.05,
                           beta_max=0.1, seed=seed, horizon=1000,
                           assignment=InfluenceAssignment(linear(0.5)))


def test_criterion_09_phi_delta_lemmas():
    violations = 0
    migration_checks = 0
    birth_checks = 0
    graph = InfluenceGraph.path(4)
    for i in range(100):
        config = _phi_bounds_config(seed=trial_seed(91, 2 * i))
        x0 = sample_state(graph, generator(trial_seed(91, 2 * i + 1)))
        rep = verify_phi_bounds(run_evolution(x0, config), config)
        violations += len(rep.violations)
        migration_checks += rep.migration_checks
        birth_checks += rep.birth_checks
    ok = violations == 0 and migration_checks > 0 and birth_checks > 0
    report(9, "per-phase potential bounds", ok,
           f"violations={violations} over {migration_checks} migration and "
           f"{birth_checks} birth checks in 100 runs")


def test_criterion_10_chernoff_birth_counts():
    config = EvolutionConfig(p=0.1, epsilon=0.05, delta=0.1, beta_min=0.05,
                             beta_max=0.2, horizon=400,
                             assignment=InfluenceAssignment(linear(0.5)))
    out = verify_birth_counts(config, trials=2000, root_seed=101)
    lower, upper = out["lower"], out["upper"]
    assert lower.extras["threshold"] == pytest.approx(20.0)
    assert upper.extras["threshold"] == pytest.approx(60.0)
    assert lower.paper_bound == pytest.approx(1 - math.exp(-5.0))
    assert upper.paper_bound == pytest.approx(1 - math.exp(-20.0 / 3.0))
    ok = lower.verdict == "pass" and upper.verdict == "pass"
    report(10, "birth-count concentration", ok,
           f"P(births>=20)={lower.estimate:.4f} vs {lower.paper_bound - lower.slack:.4f}, "
           f"P(births<=60)={upper.estimate:.4f} vs {upper.paper_bound - upper.slack:.4f}")


def test_criterion_11_stability_theorem():
    config = EvolutionConfig(p=0.001, epsilon=0.05, delta=0.3, beta_min=0.05,
                             beta_max=0.1, horizon=3000,
                             assignment=InfluenceAssignment(linear(0.5)))
    stats = verify_stability_theorem(config, trials=200,
                                     initial_graph=InfluenceGraph.path(4),
                                     root_seed=111)
    assert stats.extras["required_window"] == 334
    bound = 1 - math.exp(-3000 * 0.001 / 6)
    assert stats.paper_bound == pytest.approx(bound)
    ok = stats.verdict == "pass"
    report(11, "long quiet windows under rare births", ok,
           f"observed={stats.estimate:.3f} vs weak bound "
           f"{bound:.3f}-{stats.slack:.3f} over 200 seeds, window>=334")


def test_criterion_12_lack_of_explosion():
    config = EvolutionConfig(p=0.5, epsilon=1e-4, delta=0.01, beta_min=0.1,
                             beta_max=0.3, horizon=2715,
                             assignment=InfluenceAssignment(linear(9e-4)))
    bound_types = math.ceil(72 * math.log(1e4))
    results = {}
    for start, initial in (("random", 8), ("adversarial", 50)):
        # two workers: the sweep's results do not depend on jobs (criterion 13)
        stats = verify_type_bound(config, trials=50, start=start,
                                  initial_graph=InfluenceGraph.path(initial), root_seed=121,
                                  jobs=2)
        results[start] = stats
    ok = all(s.estimate == 1.0 and s.extras["cap_violations"] == 0
             and s.verdict == "pass" for s in results.values())
    report(12, "type count stays logarithmic", ok,
           f"bound={bound_types} types; max final counts: "
           f"random={results['random'].extras['max_final_types']}, "
           f"adversarial={results['adversarial'].extras['max_final_types']}; "
           "cap 10000 never hit")


def test_criterion_13_determinism_across_jobs(tmp_path):
    evolve_args = ["evolve", "--graph", "path:4", "--x0", "uniform", "--p", "0.2",
                   "--epsilon", "0.05", "--delta", "0.1", "--steps", "300",
                   "--seed", "131"]
    assert main([*evolve_args, "--jobs", "1", "--out", str(tmp_path / "e1")]) == 0
    assert main([*evolve_args, "--jobs", "4", "--out", str(tmp_path / "e4")]) == 0
    evolve_ok = ((tmp_path / "e1" / "timeline.jsonl").read_bytes()
                 == (tmp_path / "e4" / "timeline.jsonl").read_bytes())

    verify_args = ["verify", "convergence", "--graph", "triangle", "--f",
                   "linear:0.49", "--trials", "60", "--seed", "131"]
    assert main([*verify_args, "--jobs", "1", "--out", str(tmp_path / "v1")]) == 0
    assert main([*verify_args, "--jobs", "3", "--out", str(tmp_path / "v3")]) == 0
    verify_ok = ((tmp_path / "v1" / "stats.json").read_bytes()
                 == (tmp_path / "v3" / "stats.json").read_bytes())

    phi_args = ["verify", "phi-bounds", "--graph", "path:4", "--p", "0.05",
                "--epsilon", "0.04", "--delta", "0.25", "--steps", "300",
                "--trials", "6", "--seed", "131"]
    assert main([*phi_args, "--jobs", "1", "--out", str(tmp_path / "p1")]) == 0
    assert main([*phi_args, "--jobs", "2", "--out", str(tmp_path / "p2")]) == 0
    phi_ok = ((tmp_path / "p1" / "stats.json").read_bytes()
              == (tmp_path / "p2" / "stats.json").read_bytes())

    churn = tmp_path / "churn.json"         # criterion 12's config, as evolve-churn runs it
    churn.write_text(json.dumps({"p": 0.5, "epsilon": 1e-4, "delta": 0.01, "beta_min": 0.1,
                                 "beta_max": 0.3, "horizon": 2715, "influence": "linear:9e-4"}))
    types_args = ["verify", "types", "--config", str(churn), "--start", "adversarial",
                  "--graph", "path:50", "--trials", "2", "--seed", "131"]
    assert main([*types_args, "--jobs", "1", "--out", str(tmp_path / "t1")]) == 0
    assert main([*types_args, "--jobs", "2", "--out", str(tmp_path / "t2")]) == 0
    types_ok = all((tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
                   for name in ("stats.json", "manifest.json"))

    report(13, "byte-identical outputs across --jobs",
           evolve_ok and verify_ok and phi_ok and types_ok,
           "evolve timeline, verify convergence, phi-bounds and types outputs compared")
