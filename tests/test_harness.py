"""Monte Carlo drivers: sampling, windows, verifiers, basin rasters."""

import concurrent.futures
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionflow import (BirthDistribution, EvolutionConfig, InfluenceAssignment,
                         InfluenceFunction, InfluenceGraph, PopulationState,
                         Timeline, basin_map, detect_stable_windows,
                         harness, linear, monte_carlo_convergence, potential_phi,
                         run_evolution, run_to_convergence, sample_simplex, sample_state,
                         verify_birth_counts,
                         verify_phi_bounds, verify_phi_bounds_sweep,
                         verify_stability_theorem, verify_type_bound, wilson95)
from opinionflow.dynamics import MAX_ITERS, _EdgeKernel
from opinionflow.errors import ConfigurationError, HypothesisError
from opinionflow import evolution
from opinionflow.evolution import BirthEvent, DeathEvent, StepRecord, birth_phase
from opinionflow.harness import required_window_length
from opinionflow.seeding import RunStreams, generator, trial_seed

from .helpers import birth_steps, label_at, path_acb, reference_evolution, reference_phi_sweep


def weak_linear(x):
    """Module-level custom influence: picklable by reference."""
    return 0.4 * x


def linear_049(x):
    """Module-level custom influence that steps as linear:0.49 but never certifies."""
    return 0.49 * x


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


def runs_timeline(runs):
    """Timeline stub of records that stand for runs: (migration_active, repeat) each,
    on the same phi values as ``fake_timeline``."""
    records, step = [], 0
    for active, repeat in runs:
        records.append(StepRecord(step, 0.5, 0.5, 0.5, 0.5, bool(active), 0.5, None, [], 2,
                                  repeat=repeat))
        step += repeat
    terminal = PopulationState.from_masses(InfluenceGraph.complete(2), [0.5, 0.5])
    return Timeline(records, terminal, seed=0)


def per_step(timeline):
    """The same timeline with one record per step."""
    return Timeline(list(timeline), timeline.terminal, timeline.seed)


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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 6)), min_size=1, max_size=25))
    def test_runs_give_the_windows_of_their_steps(self, runs):
        tl = runs_timeline(runs)
        pattern = [int(active) for active, repeat in runs for _ in range(repeat)]
        ws = detect_stable_windows(tl)
        assert [(w.start, w.duration) for w in ws] == naive_windows(pattern)
        assert ws == detect_stable_windows(per_step(tl))

    def test_required_window_length(self):
        assert required_window_length(0.001) == 334
        assert required_window_length(1 / 3) == 2


class TestTimelineRuns:
    """The counts, windows and phi checks read a record with ``repeat`` > 1 as
    that many steps, without expanding it, and agree with the per-step form."""

    CFG = EvolutionConfig(p=0.01, epsilon=0.05, delta=0.3, beta_min=0.05, beta_max=0.1,
                          horizon=2000, assignment=InfluenceAssignment(linear(0.5)))

    def hand_built(self):
        birth = BirthEvent(2, 0.1, {0: 0.1, 1: 0.1}, [0])
        deaths = [DeathEvent(2, 0.01, [0])]
        records = [
            StepRecord(0, 0.5, 0.5, 0.5, 0.5, False, 0.5, None, [], 2, repeat=3),
            StepRecord(3, 0.5, 0.5 + 1e-9, 0.5, 0.5, True, 0.5, None, [], 2, repeat=2),
            StepRecord(5, 0.5, 0.6, 0.3, 0.3, True, 0.5, birth, [], 3, repeat=2),
            StepRecord(7, 0.3, 0.3, 0.3, 0.5, False, 0.5, None, deaths, 2, repeat=4),
            StepRecord(11, 0.5, 0.5, 0.5, 0.5, False, 0.5, None, [], 2),
        ]
        terminal = PopulationState.from_masses(InfluenceGraph.complete(2), [0.5, 0.5])
        return Timeline(records, terminal, seed=0)

    def readings(self, tl, config):
        return {"len": len(tl), "births": tl.birth_count(), "deaths": tl.death_count(),
                "peak": tl.max_type_count(), "windows": detect_stable_windows(tl),
                "phi": verify_phi_bounds(tl, config).to_json_dict(),
                "best": harness._best_window(tl, 5),
                "types": harness._type_counts(tl, bound_types=2.5, cap=20)}

    def test_hand_built_runs(self):
        tl = self.hand_built()
        got = self.readings(tl, self.CFG)
        assert got == self.readings(per_step(tl), self.CFG)
        assert (got["len"], got["births"], got["deaths"], got["peak"]) == (12, 2, 4, 3)
        assert [(w.start, w.duration) for w in got["windows"]] == [(0, 2), (7, 4)]
        assert [(v["step"], v["kind"]) for v in got["phi"]["violations"]] == \
            [(3, "migration"), (4, "migration"), (5, "birth"), (6, "birth")]
        assert (got["phi"]["migration_checks"], got["phi"]["birth_checks"]) == (4, 2)

    @staticmethod
    def quiet(step, phi, low, **kw):
        return StepRecord(step, phi, phi + 1e-17, phi + 1e-17, phi + 1e-17, False, low,
                          None, [], 2, **kw)

    def cycle_runs(self):
        """Runs of period 2 and 3 around a birth; the last one ends inside its period."""
        quiet = self.quiet
        birth = BirthEvent(2, 0.1, {0: 0.1, 1: 0.1}, [0])
        records = [
            quiet(0, 0.5, 0.25),
            quiet(1, 0.5, 0.25, repeat=5, cycle=(quiet(2, 0.6, 0.26),)),
            StepRecord(6, 0.5, 0.6, 0.3, 0.3, True, 0.25, birth, [], 3),
            quiet(7, 0.3, 0.1, repeat=8, cycle=(quiet(8, 0.31, 0.11), quiet(9, 0.32, 0.12))),
            quiet(15, 0.3, 0.1, repeat=2, cycle=(quiet(16, 0.33, 0.13),)),
        ]
        terminal = PopulationState.from_masses(InfluenceGraph.complete(2), [0.5, 0.5])
        return Timeline(records, terminal, seed=0)

    def decade_runs(self):
        """Runs of period 2, 1 and 3 across 10, 100, 1000 and 10^4, with periods
        that straddle 10, 1000 and 10^4, then a run of 4100 periods (more than
        the default WRITE_BLOCK)."""
        quiet = self.quiet
        birth = BirthEvent(2, 0.1, {0: 0.1, 1: 0.1}, [0])
        records = [
            quiet(0, 0.5, 0.25),
            quiet(1, 0.5, 0.25, repeat=12, cycle=(quiet(2, 0.6, 0.26),)),
            StepRecord(13, 0.5, 0.6, 0.3, 0.3, True, 0.25, birth, [], 3),
            quiet(14, 0.3, 0.1, repeat=90),
            quiet(104, 0.3, 0.1, repeat=9901,
                  cycle=(quiet(105, 0.31, 0.11), quiet(106, 0.32, 0.12))),
            quiet(10005, 0.3, 0.1, repeat=4100),
        ]
        terminal = PopulationState.from_masses(InfluenceGraph.complete(2), [0.5, 0.5])
        return Timeline(records, terminal, seed=0)

    @pytest.mark.parametrize("block", [1, 2, 3, 4096])
    def test_cycle_runs_read_and_write_as_their_per_step_twins(self, block, monkeypatch):
        monkeypatch.setattr(evolution, "WRITE_BLOCK", block)
        tl = self.cycle_runs()
        twin = per_step(tl)
        assert [r.phi_before for r in twin] == \
            [0.5, 0.5, 0.6, 0.5, 0.6, 0.5, 0.5, 0.3, 0.31, 0.32, 0.3, 0.31, 0.32, 0.3, 0.31,
             0.3, 0.33]
        assert self.readings(tl, self.CFG) == self.readings(twin, self.CFG)
        assert tl.last_step() == twin.records[-1]
        decades = self.decade_runs()
        assert len(decades) == 14105
        for runs in (tl, decades):
            twin = per_step(runs)
            for write in (Timeline.to_jsonl, Timeline.summary_csv):
                text = write(runs)
                assert text == write(twin)
                fh = io.BytesIO()
                assert write(runs, fh) is None and fh.getvalue() == text.encode()

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_jumped_runs_read_as_their_per_step_twins(self, seed):
        cfg = replace(self.CFG, seed=seed)
        x0 = sample_state(InfluenceGraph.path(4), generator(seed))
        ours, twin = run_evolution(x0, cfg), reference_evolution(x0, cfg)
        assert any(r.repeat > 1 for r in ours.records)
        got = self.readings(ours, cfg)
        assert got == self.readings(twin, cfg)
        assert got["phi"]["birth_checks"] > 0 and got["windows"]

    def test_period_two_runs_read_as_their_per_step_twins(self):
        cfg = EvolutionConfig(p=0.001, epsilon=0.05, delta=0.3, seed=2, horizon=5000)
        x0 = PopulationState.uniform(InfluenceGraph.path(4))
        ours, twin = run_evolution(x0, cfg), reference_evolution(x0, cfg)
        assert any(r.cycle for r in ours.records)
        assert self.readings(ours, cfg) == self.readings(twin, cfg)


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
        nan_f = InfluenceFunction("custom", fn=lambda x: np.full_like(x, np.nan))
        with pytest.raises(HypothesisError, match="sup.F. = nan"):
            monte_carlo_convergence(InfluenceGraph.triangle(), InfluenceAssignment(nan_f), 10)

    @pytest.mark.parametrize("assignment, edge", [
        (InfluenceAssignment(linear(0.4), {(1, 2): linear(0.0)}), "linear:0 on edge 1-2"),
        (InfluenceAssignment(linear(0.0)), "linear:0 on edge 0-1"),
        # flat on |x| <= 0.2: equal masses that close never move
        (InfluenceAssignment(linear(0.4), {(0, 1): InfluenceFunction(
            "custom", fn=lambda x: 0.4 * np.sign(x) * np.maximum(np.abs(x) - 0.2, 0.0))}),
         "custom on edge 0-1")])
    def test_flat_f_edge_rejected(self, assignment, edge):
        with pytest.raises(HypothesisError, match=f"F = {edge} is not strictly increasing"):
            monte_carlo_convergence(InfluenceGraph.path(3), assignment, 10)

    def test_flat_f_off_the_graph_is_no_edge(self):
        # the zero-F override names a pair that is no edge of the path
        asg = InfluenceAssignment(linear(0.4), {(0, 2): linear(0.0)})
        stats = monte_carlo_convergence(InfluenceGraph.path(3), asg, trials=10, root_seed=2)
        assert stats.trials == 10

    def test_limits_have_equal_mass_components(self):
        # a trial converges only once its limit classifies as a fixed point:
        # each active component at one mass (classify_fixed_point)
        stats = monte_carlo_convergence(path_acb(), InfluenceAssignment(linear(0.4)),
                                        trials=60, root_seed=9)
        assert all(a["converged"] for a in stats.artifacts)

    def test_parallel_matches_serial(self):
        g = InfluenceGraph.triangle()
        asg = InfluenceAssignment(linear(0.49))
        serial = monte_carlo_convergence(g, asg, trials=24, root_seed=3, jobs=1)
        parallel = monte_carlo_convergence(g, asg, trials=24, root_seed=3, jobs=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_chunks_and_jobs_do_not_change_results(self, monkeypatch):
        g, asg = path_acb(), InfluenceAssignment(linear(0.49))
        whole = monte_carlo_convergence(g, asg, trials=30, root_seed=4, jobs=1)
        monkeypatch.setattr(harness, "BATCH_BUDGET", 35)   # n + m = 5: 4 batches of 7 + 2
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


class TestCertifiedSweep:
    """Convergence trials stop when the certificate proves their limit support."""

    asg = InfluenceAssignment(linear(0.49))
    graphs = {"triangle": InfluenceGraph.triangle(), "path3": path_acb(),
              "cycle5": InfluenceGraph.cycle(5), "complete4": InfluenceGraph.complete(4)}

    def test_labels_match_the_sweep_without_certificates(self):
        # Criterion 07's sweeps as the L1 stop and settle labelled them, one code
        # per trial into the legend; "-" marks the two cycle:5 trials (159 and
        # 468) that ran out the 10^6-step budget there, which took 40 s.
        path = Path(__file__).parent / "data" / "criterion07_seed71_labels.json"
        before = json.loads(path.read_text())
        for name, graph in self.graphs.items():
            stats = monte_carlo_convergence(graph, self.asg, trials=1000, root_seed=71)
            legend, codes = before[name]["legend"], before[name]["codes"]
            for code, a in zip(codes, stats.artifacts):
                assert code == "-" or a["label"] == legend[int(code)], name
            assert stats.extras["stops"] == {"certified": 1000, "l1": 0, "budget": 0}
            assert stats.successes == 1000 and stats.extras["unresolved"] == []

    def test_trial_159_certifies_on_1_3(self):
        stats = monte_carlo_convergence(self.graphs["cycle5"], self.asg, trials=160,
                                        root_seed=71)
        assert stats.artifacts[159]["label"] == "1+3"
        assert stats.artifacts[159]["stop"] == "certified"
        assert stats.extras["unconverged"] == 0 and stats.successes == 160

    def test_stop_and_label_do_not_depend_on_chunk_or_jobs(self, monkeypatch):
        g = self.graphs["cycle5"]
        whole = monte_carlo_convergence(g, self.asg, trials=40, root_seed=8, max_iters=20)
        assert {a["iterations"] for a in whole.artifacts} == {0, 16, 20}
        assert whole.extras["stops"]["budget"] > 0
        monkeypatch.setattr(harness, "BATCH_BUDGET", 70)   # n + m = 10: 5 batches of 7 + 5
        for jobs in (1, 3):
            chunked = monte_carlo_convergence(g, self.asg, trials=40, root_seed=8,
                                              max_iters=20, jobs=jobs)
            assert chunked.artifacts == whole.artifacts
            assert chunked.to_json_dict() == whole.to_json_dict()

    def test_stops_and_unresolved_trials(self):
        # a budget of 5 steps: trials not certified at step 0 run it out
        stats = monte_carlo_convergence(self.graphs["cycle5"], self.asg, trials=30,
                                        root_seed=3, max_iters=5)
        stops = stats.extras["stops"]
        assert list(stops) == ["certified", "l1", "budget"]
        assert sum(stops.values()) == 30 and stops["budget"] == stats.extras["unconverged"] > 0
        failed = [i for i, a in enumerate(stats.artifacts)
                  if not (a["converged"] and a["independent"])]
        unresolved = stats.extras["unresolved"]
        assert [u["trial"] for u in unresolved] == failed
        for u in unresolved:
            a = stats.artifacts[u["trial"]]
            assert u == {"trial": u["trial"], "trial_seed": trial_seed(3, u["trial"]),
                         "label": a["label"], "stop": "budget"}

    def test_settle_loop_gives_uncertified_rows_the_certified_census(self):
        # custom F = 0.49x takes the L1 stop and _settled_limit where linear:0.49
        # certifies; at the L1 stop many rows still hold a vanishing type above theta
        g = self.graphs["cycle5"]
        custom = InfluenceAssignment(InfluenceFunction("custom", fn=linear_049))
        settled = monte_carlo_convergence(g, custom, trials=20, root_seed=71)
        certified = monte_carlo_convergence(g, InfluenceAssignment(linear(0.49)),
                                            trials=20, root_seed=71)
        assert settled.extras["stops"] == {"certified": 0, "l1": 20, "budget": 0}
        assert certified.extras["stops"] == {"certified": 20, "l1": 0, "budget": 0}
        assert settled.extras["census"] == certified.extras["census"] == \
            {"0+2": 9, "0+3": 3, "1+3": 2, "1+4": 3, "2+4": 3}
        ids = tuple(range(5))
        starts = np.array([sample_simplex(generator(trial_seed(71, i)), 5) for i in range(20)])
        at_l1 = run_to_convergence(PopulationState(g, ids, starts), custom).limit.x
        labels = ["+".join(str(v) for v in ids if x[v] > 1e-9) for x in at_l1]
        assert labels != [a["label"] for a in settled.artifacts]

    @pytest.mark.parametrize("max_iters, stop, iterations, label", [
        (1659, "budget", 1659, "0+1+3"), (1700, "budget", 1700, "0+1+3"),
        (1824, "budget", 1824, "0+1+3"), (1825, "l1", 1824, "1+3"),
        (2677, "l1", 1824, "1+3"), (MAX_ITERS, "l1", 1824, "1+3")])
    def test_settle_loop_keeps_to_the_budget(self, monkeypatch, max_iters, stop, iterations,
                                             label):
        # this cycle:5 trial takes its L1 stop after 1654 steps, reaches its settle
        # checkpoint 1024 steps later, and first classifies after step 1824
        stepped = []        # the state each step starts from; a batch of one steps as one state
        step = _EdgeKernel.step

        def recorded(self, x, delta=0.0):
            assert x.ndim == 1
            stepped.append(x.tobytes())
            return step(self, x, delta)

        monkeypatch.setattr(_EdgeKernel, "step", recorded)
        custom = InfluenceAssignment(InfluenceFunction("custom", fn=linear_049))
        [a] = harness._convergence_batch(([trial_seed(71, 2)], self.graphs["cycle5"], custom,
                                          max_iters))
        assert (a["stop"], a["iterations"], a["label"]) == (stop, iterations, label)
        # the replay of the last chunk steps only states the run has stepped before
        assert len(set(stepped)) == min(1654 + 1024, max_iters)

    def test_jobs_capped_at_the_cpu_count(self, monkeypatch):
        pools = []

        class Pool:
            """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)   # looked up per pool
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        chunks = []
        pmap = harness._pmap
        monkeypatch.setattr(harness, "_pmap", lambda fn, items, jobs: (
            chunks.append(len(items)), pmap(fn, items, jobs))[1])
        serial = monte_carlo_convergence(InfluenceGraph.triangle(), self.asg, 6)
        capped = monte_carlo_convergence(InfluenceGraph.triangle(), self.asg, 6, jobs=5000)
        assert pools == [2] and chunks == [1, 2]
        assert capped.to_json_dict() == serial.to_json_dict()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._workers(5000) == 1
        with pytest.raises(ConfigurationError, match="cannot be sent to worker"):
            harness._pmap(len, [(lambda: 0,), (1,)], 5000)   # the pickle check stays

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -1):
            with pytest.raises(ConfigurationError, match="jobs must be at least 1"):
                harness._pmap(len, [[1], [2]], jobs)
            with pytest.raises(ConfigurationError, match="jobs must be at least 1"):
                harness._map_rows(len, [1, 2, 3], (), jobs)
            with pytest.raises(ConfigurationError, match="jobs must be at least 1"):
                monte_carlo_convergence(InfluenceGraph.triangle(), self.asg, 3, jobs=jobs)
            with pytest.raises(ConfigurationError, match="jobs must be at least 1"):
                basin_map(InfluenceGraph.triangle(), self.asg, 4, jobs=jobs)


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
        assert label_at(raster, [0.0, 0.0, 1.0]) == "2"
        assert label_at(raster, [0.9, 0.1, 0.0]) in ("0", "0+1")
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
        monkeypatch.setattr(harness, "BATCH_BUDGET", 40)   # n + m = 5: 11 batches of 8 + 3
        for jobs in (1, 3):
            chunked = basin_map(path_acb(), asg, resolution=12, jobs=jobs)
            assert chunked.rows == whole.rows
            assert chunked.to_pgm() == whole.to_pgm()

    @pytest.fixture
    def seen(self, monkeypatch):
        """The row count of each item that ``_map_rows`` hands to ``_pmap``, per call,
        on a 4-CPU machine: up to 4 jobs, each job is a worker."""
        seen = []

        def record(fn, items, jobs):
            seen.append([len(item[0]) for item in items])
            return [fn(item) for item in items]

        monkeypatch.setattr(harness, "_pmap", record)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        return seen

    def test_jobs_split_rows_below_batch_budget(self, seen):
        basin_map(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)), 12, jobs=2)
        monte_carlo_convergence(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.49)),
                                trials=5, jobs=3)
        assert seen == [[46, 45], [2, 2, 1]]      # 91 cells; 5 trials

    def test_batches_sized_by_working_set(self, seen, monkeypatch):
        triangle, asg = InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5))
        whole = basin_map(triangle, asg, 100, jobs=1)
        assert basin_map(triangle, asg, 100, jobs=2).rows == whole.rows
        assert seen == [[5151], [2576, 2575]]     # n + m = 6: up to 21845 rows a batch
        seen.clear()
        complete = InfluenceGraph.complete(24)    # n + m = 300: up to 436 rows a batch
        monte_carlo_convergence(complete, InfluenceAssignment(linear(0.49)), trials=900)
        assert seen == [[436, 436, 28]] and harness.BATCH_BUDGET // 300 == 436
        small = basin_map(triangle, asg, 12)
        monkeypatch.setattr(harness, "BATCH_BUDGET", 5)   # below n + m: one-row batches
        seen.clear()
        assert basin_map(triangle, asg, 12).rows == small.rows
        assert seen == [[1] * 91]

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
                                  start="adversarial", initial_graph=InfluenceGraph.path(30))
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
        run = evolution._Run.of(s, cfg)
        birth_phase(run, cfg, RunStreams(0), 0)
        drop = phi0 - potential_phi(run)
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
    CFG = EvolutionConfig(p=0.1, epsilon=0.05, delta=0.1, beta_min=0.05,
                          beta_max=0.2, horizon=100)

    def test_small_chernoff_sweep(self):
        out = verify_birth_counts(self.CFG, trials=150, root_seed=11)
        assert out["lower"].verdict == "pass"
        assert out["upper"].verdict == "pass"
        assert out["mean_births"] == pytest.approx(10.0, abs=1.5)

    def test_counts_the_births_of_the_sweeps_runs(self):
        births = harness._evolution_sweep(Timeline.birth_count, self.CFG, None, 20, 11, 1)
        out = verify_birth_counts(self.CFG, trials=20, root_seed=11)
        assert out["mean_births"] == np.mean(births)

    @pytest.mark.parametrize("cells", [64, 1000, 1 << 14])
    def test_chunks_count_the_births_of_each_run(self, cells, monkeypatch):
        # 64 cells split every run's horizon; 1000 hold two runs; 1 << 14 hold 40
        monkeypatch.setattr(evolution, "COIN_WINDOW", cells)
        seeds = [trial_seed(11, 2 * i) for i in range(45)]
        want = [len(birth_steps(replace(self.CFG, horizon=400, seed=seed)))
                for seed in seeds]
        assert evolution.birth_counts(replace(self.CFG, horizon=400), seeds).tolist() == want

    def test_never_runs_an_evolution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_birth_counts ran an evolution")

        monkeypatch.setattr(evolution, "run_evolution", refuse)
        assert verify_birth_counts(self.CFG, trials=150, root_seed=11)["mean_births"] == 9.86

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one(self, trials):
        with pytest.raises(ConfigurationError, match="trials must be at least 1"):
            verify_birth_counts(self.CFG, trials=trials)
