"""Monte Carlo drivers: sampling, windows, verifiers, basin rasters."""

import math

import numpy as np
import pytest

from opinionflow import (BirthDistribution, EvolutionConfig, InfluenceAssignment,
                         InfluenceFunction, InfluenceGraph, PopulationState,
                         Timeline, basin_map, birth_phase, detect_stable_windows,
                         harness, linear, monte_carlo_convergence, potential_phi,
                         run_evolution, sample_simplex, sample_state,
                         verify_birth_counts,
                         verify_phi_bounds, verify_phi_bounds_sweep,
                         verify_stability_theorem, verify_type_bound, wilson95)
from opinionflow.errors import ConfigurationError, HypothesisError
from opinionflow.evolution import StepRecord
from opinionflow.harness import required_window_length
from opinionflow.seeding import generator, trial_seed

from .helpers import path_acb, reference_phi_sweep


def weak_linear(x):
    """Module-level custom influence: picklable by reference."""
    return 0.4 * x


def fake_timeline(active_pattern):
    """Timeline stub with a given migration_active sequence."""
    records = [
        StepRecord(step=i, phi_before=0.5, phi_after_migration=0.5,
                   phi_after_birth=0.5, phi_after=0.5, migration_active=bool(a),
                   min_mass_before=0.5, birth=None, deaths=[], type_count=2)
        for i, a in enumerate(active_pattern)
    ]
    g = InfluenceGraph.complete(2)
    terminal = PopulationState.from_masses(g, [0.5, 0.5])
    return Timeline(records, terminal, seed=0)


def naive_windows(active_pattern):
    """Oracle: group consecutive inactive steps by scan."""
    out = []
    i = 0
    n = len(active_pattern)
    while i < n:
        if not active_pattern[i]:
            j = i
            while j + 1 < n and not active_pattern[j + 1]:
                j += 1
            out.append((i, j - i))
            i = j + 1
        else:
            i += 1
    return out


class TestSampleSimplex:
    def test_single_type(self):
        np.testing.assert_array_equal(sample_simplex(np.random.default_rng(0), 1), [1.0])

    def test_coordinates_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = sample_simplex(rng, int(rng.integers(1, 12)))
            assert abs(x.sum() - 1.0) < 1e-12
            assert np.all(x >= 0)

    def test_symmetric_mean(self):
        rng = np.random.default_rng(2)
        draws = np.array([sample_simplex(rng, 4) for _ in range(100_000)])
        np.testing.assert_allclose(draws.mean(axis=0), 0.25, atol=0.005)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_simplex(np.random.default_rng(0), 0)


class TestWilson:
    def test_contains_estimate(self):
        lo, hi = wilson95(80, 100)
        assert lo < 0.8 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_extremes(self):
        lo, hi = wilson95(0, 50)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.1
        lo, hi = wilson95(50, 50)
        assert lo > 0.9 and hi == pytest.approx(1.0, abs=1e-12)


class TestStableWindows:
    def test_all_inactive(self):
        ws = detect_stable_windows(fake_timeline([0] * 12))
        assert [(w.start, w.duration) for w in ws] == [(0, 11)]

    def test_alternating(self):
        ws = detect_stable_windows(fake_timeline([1, 0, 1, 0, 1, 0]))
        assert [(w.start, w.duration) for w in ws] == [(1, 0), (3, 0), (5, 0)]

    def test_synthetic_span(self):
        pattern = [1] * 5 + [0] * 10 + [1] * 5
        ws = detect_stable_windows(fake_timeline(pattern))
        assert [(w.start, w.duration) for w in ws] == [(5, 9)]
        assert ws[0].length == 10

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pattern = list((rng.random(60) < 0.5).astype(int))
            ws = detect_stable_windows(fake_timeline(pattern))
            assert [(w.start, w.duration) for w in ws] == naive_windows(pattern)
            covered = sorted(s for w in ws for s in range(w.start, w.start + w.length))
            assert covered == [i for i, a in enumerate(pattern) if not a]

    def test_required_window_length(self):
        assert required_window_length(0.001) == 334
        assert required_window_length(1 / 3) == 2


class TestMonteCarloConvergence:
    def test_triangle_mostly_independent(self):
        stats = monte_carlo_convergence(InfluenceGraph.triangle(),
                                        InfluenceAssignment(linear(0.49)),
                                        trials=120, root_seed=5)
        assert stats.estimate >= 0.99
        assert set(stats.extras["census"]) <= {"0", "1", "2", "0+1", "0+2", "1+2"}
        assert stats.verdict == "pass"

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisError):
            monte_carlo_convergence(InfluenceGraph.triangle(),
                                    InfluenceAssignment(linear(0.5)), 10)

    def test_limits_have_equal_mass_components(self):
        stats = monte_carlo_convergence(path_acb(), InfluenceAssignment(linear(0.4)),
                                        trials=60, root_seed=9)
        assert all(a["equal_mass_components"] for a in stats.artifacts)

    def test_parallel_matches_serial(self):
        g = InfluenceGraph.triangle()
        asg = InfluenceAssignment(linear(0.49))
        serial = monte_carlo_convergence(g, asg, trials=24, root_seed=3, jobs=1)
        parallel = monte_carlo_convergence(g, asg, trials=24, root_seed=3, jobs=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_chunks_and_jobs_do_not_change_results(self, monkeypatch):
        g, asg = path_acb(), InfluenceAssignment(linear(0.49))
        whole = monte_carlo_convergence(g, asg, trials=30, root_seed=4, jobs=1)
        monkeypatch.setattr(harness, "CHUNK", 7)      # 30 trials: 4 full chunks + 2
        for jobs in (1, 3):
            chunked = monte_carlo_convergence(g, asg, trials=30, root_seed=4, jobs=jobs)
            assert chunked.artifacts == whole.artifacts
            assert chunked.to_json_dict() == whole.to_json_dict()

    def test_unpicklable_influence_rejected_before_pool(self):
        asg = InfluenceAssignment(InfluenceFunction("custom", fn=lambda x: 0.4 * x))
        with pytest.raises(ConfigurationError, match="<lambda>.*jobs=1"):
            monte_carlo_convergence(InfluenceGraph.triangle(), asg, trials=4, jobs=2)
        stats = monte_carlo_convergence(InfluenceGraph.triangle(), asg, trials=4, jobs=1)
        assert stats.trials == 4

    def test_picklable_custom_influence_runs_in_workers(self):
        asg = InfluenceAssignment(InfluenceFunction("custom", fn=weak_linear))
        serial = monte_carlo_convergence(InfluenceGraph.triangle(), asg, trials=6, jobs=1)
        parallel = monte_carlo_convergence(InfluenceGraph.triangle(), asg, trials=6, jobs=2)
        assert parallel.artifacts == serial.artifacts


class TestBasinMap:
    def test_triangle_argmax_labels(self):
        raster = basin_map(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)),
                           resolution=12)
        assert raster.cell_count() == 13 * 14 // 2
        res = raster.resolution
        for i in range(res + 1):
            for j in range(res + 1 - i):
                w = np.array([i, j, res - i - j]) / res
                label = raster.rows[i][j]
                top = w.max()
                winners = {str(k) for k in range(3) if w[k] == top}
                assert label == "+".join(sorted(winners))

    def test_path_corner_regions(self):
        raster = basin_map(path_acb(), InfluenceAssignment(linear(0.5)), resolution=10)
        # C-dominant corner converges to C alone; A-corner leaves A and B standing
        assert raster.label_at([0.0, 0.0, 1.0]) == "2"
        assert raster.label_at([0.9, 0.1, 0.0]) in ("0", "0+1")
        fracs = raster.label_fractions()
        assert "2" in fracs and fracs["2"] > 0

    def test_pgm_and_csv_shapes(self):
        raster = basin_map(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)),
                           resolution=5)
        csv = raster.to_csv().strip().split("\n")
        assert len(csv) == 6
        assert len(csv[0].split(",")) == 6
        pgm = raster.to_pgm().strip().split("\n")
        assert pgm[0] == "P2"
        assert pgm[1] == "6 6"

    def test_needs_three_types(self):
        with pytest.raises(ValueError):
            basin_map(InfluenceGraph.path(4), InfluenceAssignment(linear(0.5)), 5)

    def test_chunks_and_jobs_do_not_change_raster(self, monkeypatch):
        asg = InfluenceAssignment(linear(0.5))
        whole = basin_map(path_acb(), asg, resolution=12)
        monkeypatch.setattr(harness, "CHUNK", 8)      # 91 cells: 11 full chunks + 3
        for jobs in (1, 3):
            chunked = basin_map(path_acb(), asg, resolution=12, jobs=jobs)
            assert chunked.rows == whole.rows
            assert chunked.to_pgm() == whole.to_pgm()

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError, match="theta_active"):
            basin_map(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)), 4,
                      theta_active=0.0)

    def test_jobs_split_rows_below_chunk(self, monkeypatch):
        seen = []

        def record(fn, items, jobs):
            seen.append([len(item[0]) for item in items])
            return [fn(item) for item in items]

        monkeypatch.setattr(harness, "_pmap", record)
        basin_map(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)), 12, jobs=2)
        monte_carlo_convergence(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.49)),
                                trials=5, jobs=3)
        assert seen == [[46, 45], [2, 2, 1]]      # 91 cells; 5 trials

    def test_unresolved_cells(self):
        raster = basin_map(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)),
                           resolution=4, max_iters=3)
        assert raster.rows[4] == ["0"]             # the corner is fixed from the start
        assert "unresolved" in raster.label_fractions()


class TestVerifyStability:
    def base_config(self, **kw):
        kw.setdefault("p", 0.001)
        kw.setdefault("epsilon", 0.05)
        kw.setdefault("delta", 0.3)
        kw.setdefault("beta_min", 0.05)
        kw.setdefault("beta_max", 0.1)
        kw.setdefault("horizon", 3000)
        kw.setdefault("assignment", InfluenceAssignment(linear(0.5)))
        return EvolutionConfig(**kw)

    def test_hypothesis_p_too_large(self):
        with pytest.raises(HypothesisError) as err:
            verify_stability_theorem(self.base_config(p=0.01), trials=2)
        assert "beta_max" in err.value.inequality

    def test_hypothesis_horizon_too_short(self):
        with pytest.raises(HypothesisError) as err:
            verify_stability_theorem(self.base_config(horizon=100), trials=2)
        assert "t >" in err.value.inequality

    def test_hypothesis_p_zero(self):
        with pytest.raises(HypothesisError):
            verify_stability_theorem(self.base_config(p=0.0), trials=2)

    def test_small_sweep_passes(self):
        stats = verify_stability_theorem(self.base_config(), trials=12, root_seed=4)
        assert stats.extras["required_window"] == 334
        assert stats.verdict == "pass"
        assert stats.paper_bound == pytest.approx(1 - math.exp(-0.5))

    def test_p_zero_run_is_one_giant_window(self):
        # births off: after deterministic convergence the run is quiet forever
        cfg = EvolutionConfig(p=0.0, epsilon=1e-6, delta=0.0, horizon=400)
        x0 = PopulationState.from_masses(InfluenceGraph.triangle(), [0.5, 0.3, 0.2])
        tl = run_evolution(x0, cfg)
        ws = detect_stable_windows(tl)
        assert ws[-1].start + ws[-1].length == 400
        assert ws[-1].length > 300


class TestVerifyTypeBound:
    def make_config(self, epsilon, p=0.5, horizon=None):
        log2 = math.log(1.0 / epsilon) ** 2
        t = int(math.ceil((16.0 / p) * log2)) if horizon is None else horizon
        return EvolutionConfig(p=p, epsilon=epsilon, delta=0.01,
                               beta_min=0.1, beta_max=0.3, horizon=t,
                               assignment=InfluenceAssignment(linear(9e-4)))

    def test_hypothesis_alpha_max(self):
        cfg = self.make_config(0.01)
        cfg.assignment = InfluenceAssignment(linear(0.5))
        with pytest.raises(HypothesisError) as err:
            verify_type_bound(cfg, trials=2)
        assert "alpha_max" in err.value.inequality

    def test_hypothesis_horizon(self):
        with pytest.raises(HypothesisError):
            verify_type_bound(self.make_config(0.01, horizon=10), trials=2)

    def test_vacuous_flagged_when_bound_exceeds_cap(self):
        # 72*ln(100) ~ 331 > 1/eps = 100: the claim is empty
        stats = verify_type_bound(self.make_config(0.01), trials=3, root_seed=7)
        assert stats.verdict == "vacuous"
        assert stats.extras["type_bound"] > stats.extras["hard_cap"]
        assert stats.extras["cap_violations"] == 0

    def test_adversarial_start(self):
        stats = verify_type_bound(self.make_config(0.01), trials=2, root_seed=1,
                                  start="adversarial", initial_types=30)
        assert stats.successes == 2


class TestVerifyPhiBounds:
    def test_quiet_run_no_violations(self):
        cfg = EvolutionConfig(p=0.0, epsilon=0.05, delta=0.3, horizon=200,
                              assignment=InfluenceAssignment(linear(0.5)))
        x0 = PopulationState.from_masses(InfluenceGraph.path(4),
                                         [0.4, 0.3, 0.2, 0.1])
        report = verify_phi_bounds(run_evolution(x0, cfg), cfg)
        assert report.ok
        assert report.birth_checks == 0
        assert report.migration_bound == pytest.approx(2 * 0.5 * 0.05 * 0.3**3)

    def test_stochastic_run_no_violations(self):
        cfg = EvolutionConfig(p=0.05, epsilon=0.04, delta=0.25, horizon=500,
                              beta_min=0.05, beta_max=0.1, seed=3,
                              assignment=InfluenceAssignment(linear(0.5)))
        x0 = PopulationState.from_masses(InfluenceGraph.path(4),
                                         [0.6, 0.2, 0.15, 0.05])
        report = verify_phi_bounds(run_evolution(x0, cfg), cfg)
        assert report.ok
        assert report.migration_checks > 0

    def test_inactive_steps_leave_phi_exactly_flat(self):
        cfg = EvolutionConfig(p=0.0, epsilon=0.01, delta=0.5, horizon=20)
        tl = run_evolution(PopulationState.uniform(InfluenceGraph.path(3)), cfg)
        for r in tl.records:
            assert r.phi_after == r.phi_before

    def test_constant_z_birth_algebra(self):
        # with Z identically z, the potential drop is exactly phi*(2z-z^2) - z^2
        z = 0.2
        cfg = EvolutionConfig(p=1.0, epsilon=0.01, beta_min=0.1, beta_max=0.2,
                              distribution=BirthDistribution("point", value=z),
                              attachment="connect-to-all")
        g = InfluenceGraph.path(4)
        s = PopulationState.uniform(g)
        phi0 = potential_phi(s)
        out, _ = birth_phase(s, cfg, np.random.default_rng(0))
        drop = phi0 - potential_phi(out)
        assert drop == pytest.approx(phi0 * (2 * z - z * z) - z * z, abs=1e-14)
        assert drop <= 2 * cfg.beta_max

    def test_violation_reported_on_doctored_log(self):
        cfg = EvolutionConfig(p=0.0, epsilon=0.05, delta=0.3, horizon=10,
                              assignment=InfluenceAssignment(linear(0.5)))
        tl = fake_timeline([1])
        tl.records[0].phi_after_migration = tl.records[0].phi_before + 1e-9
        report = verify_phi_bounds(tl, cfg)
        assert not report.ok
        assert report.violations[0]["kind"] == "migration"

    def test_sweep_matches_reference_loop(self):
        cfg = EvolutionConfig(p=0.05, epsilon=0.04, delta=0.25, beta_min=0.05,
                              beta_max=0.1, horizon=300,
                              assignment=InfluenceAssignment(linear(0.5)))
        graph = InfluenceGraph.path(4)
        stats = verify_phi_bounds_sweep(cfg, trials=5, initial_graph=graph, root_seed=7)
        want = reference_phi_sweep(cfg, graph, 5, 7)
        got = [(r.ok, len(r.violations), r.migration_checks, r.birth_checks)
               for r in stats.artifacts]
        assert got == [(r.ok, len(r.violations), r.migration_checks, r.birth_checks)
                       for r in want]
        assert sum(r.birth_checks for r in want) > 0
        assert stats.verdict == "pass" and stats.extras == {"total_violations": 0}

    def test_sweep_fails_on_one_violating_run(self, monkeypatch):
        calls = []

        def doctored(timeline, config):
            report = verify_phi_bounds(timeline, config)
            calls.append(report)
            if len(calls) == 2:
                report.violations.append({"step": 0, "kind": "migration"})
            return report

        monkeypatch.setattr(harness, "verify_phi_bounds", doctored)
        cfg = EvolutionConfig(p=0.05, epsilon=0.04, delta=0.25, horizon=50)
        stats = verify_phi_bounds_sweep(cfg, trials=3)
        assert (stats.successes, stats.verdict) == (2, "fail")
        assert stats.extras == {"total_violations": 1}


class TestEvolutionSweep:
    def test_start_rule(self):
        cfg = EvolutionConfig(p=0.05, epsilon=0.04, horizon=2)
        graph = InfluenceGraph.path(5)

        def first_phi(timeline):
            return timeline.records[0].phi_before

        equal = harness._evolution_sweep(first_phi, cfg, graph, 2, 3, 1, "adversarial")
        drawn = harness._evolution_sweep(first_phi, cfg, graph, 2, 3, 1)
        assert equal == [potential_phi(PopulationState.uniform(graph))] * 2
        assert drawn == [potential_phi(sample_state(graph, generator(trial_seed(3, 2 * i + 1))))
                         for i in range(2)]

    def test_unpicklable_summary_rejected_before_pool(self):
        cfg = EvolutionConfig(p=0.05, epsilon=0.04, horizon=10)
        with pytest.raises(ConfigurationError, match="<lambda>.*jobs=1"):
            harness._evolution_sweep(lambda tl: len(tl), cfg, InfluenceGraph.path(3),
                                     trials=2, root_seed=0, jobs=2)


class TestVerifyBirthCounts:
    def test_small_chernoff_sweep(self):
        cfg = EvolutionConfig(p=0.1, epsilon=0.05, delta=0.1, beta_min=0.05,
                              beta_max=0.2, horizon=100)
        out = verify_birth_counts(cfg, trials=150, root_seed=11)
        assert out["lower"].verdict == "pass"
        assert out["upper"].verdict == "pass"
        assert out["mean_births"] == pytest.approx(10.0, abs=1.5)
