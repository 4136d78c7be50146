"""Birth/death phases, the composite step, and full stochastic runs."""

import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionflow import (BirthDistribution, EvolutionConfig, InfluenceAssignment,
                         InfluenceFunction, InfluenceGraph, PopulationState, cubic, linear,
                         potential_phi, run_evolution, run_to_convergence, sample_state, soft)
from opinionflow import evolution
from opinionflow.errors import ConfigurationError
from opinionflow.evolution import (BirthEvent, DeathEvent, StepRecord, ZMap, birth_phase,
                                   birth_steps, death_phase, evolution_step, has_birth)
from opinionflow.graph import choose_attachment
from opinionflow.seeding import (COIN_WINDOW, PHASE_ATTACH, PHASE_BIRTH, RunStreams, generator,
                                 run_coins)

from .helpers import assert_same_text, reference_evolution


class _FixedZ:
    """Test double: deterministic absorbed-fraction draws."""

    def __init__(self, values):
        self.values = list(values)

    def validate(self, beta_min, beta_max):
        pass

    def sample(self, rng, size, beta_min, beta_max):
        assert size == len(self.values)
        return np.array(self.values, dtype=float)

    def to_json_dict(self):
        return {"name": "fixed-test"}


def make_config(**kw):
    kw.setdefault("p", 0.1)
    kw.setdefault("epsilon", 0.01)
    return EvolutionConfig(**kw)


class TestConfig:
    def test_beta_order_enforced(self):
        with pytest.raises(ConfigurationError):
            make_config(beta_min=0.3, beta_max=0.2)

    def test_beta_max_below_one(self):
        with pytest.raises(ConfigurationError):
            make_config(beta_max=1.0)

    def test_epsilon_range(self):
        with pytest.raises(ConfigurationError):
            make_config(epsilon=0.0)

    def test_probability_range(self):
        with pytest.raises(ConfigurationError):
            make_config(p=1.5)

    def test_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed must be at least 0, got -1"):
            make_config(seed=-1)

    @pytest.mark.parametrize("delta", [-0.1, np.nan, np.inf])
    def test_delta_finite_and_nonnegative(self, delta):
        with pytest.raises(ConfigurationError, match="delta must be finite and nonnegative"):
            make_config(delta=delta)

    def test_overstrong_influence_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config(assignment=InfluenceAssignment(linear(1.2)))
        nan_f = InfluenceFunction("custom", fn=lambda x: np.full_like(x, np.nan))
        with pytest.raises(ConfigurationError, match="sup.F. = nan"):
            make_config(assignment=InfluenceAssignment(nan_f))

    def test_point_distribution_support_checked(self):
        with pytest.raises(ConfigurationError):
            make_config(distribution=BirthDistribution("point", value=0.9),
                        beta_min=0.05, beta_max=0.2)

    def test_max_types(self):
        assert make_config(epsilon=0.01).max_types() == 100
        assert make_config(epsilon=1e-4).max_types() == 10000

    def test_json_round_trip(self):
        cfg = make_config(p=0.25, delta=0.1, seed=9,
                          distribution=BirthDistribution("triangular", mode=0.1))
        back = EvolutionConfig.from_json_dict(cfg.to_json_dict())
        assert back.p == 0.25
        assert back.distribution.name == "triangular"
        assert back.assignment.default.a == cfg.assignment.default.a

    def test_json_defaults_are_the_field_defaults(self):
        assert EvolutionConfig.from_json_dict({}).to_json_dict() == \
            EvolutionConfig().to_json_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            EvolutionConfig.from_json_dict({"p": 0.1, "epsilon": 0.01, "bogus": 1})


class TestBirthPhase:
    def test_hand_arithmetic(self):
        g = InfluenceGraph.complete(2)
        s = PopulationState.from_masses(g, [0.5, 0.5])
        cfg = make_config(p=1.0, attachment="connect-to-all")
        cfg.distribution = _FixedZ([0.2, 0.1])
        run = evolution._Run.of(s, cfg)
        event = birth_phase(run, cfg, RunStreams(0), 0)
        assert event is not None
        np.testing.assert_allclose(run.x, [0.4, 0.45, 0.15])
        assert run.ids == (0, 1, 2) and run.graph is g
        assert event.new_id == 2
        assert event.neighbors == [0, 1]
        assert event.mass == pytest.approx(0.15)

    def test_p_zero_is_identity(self):
        g = InfluenceGraph.complete(2)
        s = PopulationState.from_masses(g, [0.5, 0.5])
        cfg = make_config(p=0.0)
        run = evolution._Run.of(s, cfg)
        for seed in range(20):
            assert birth_phase(run, cfg, RunStreams(seed), 0) is None
            assert run.x is s.x and run.ids == s.ids

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_newborn_mass_within_beta_bounds(self, seed):
        # the newborn's mass is a convex combination of the Z draws
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        g = InfluenceGraph.path(n)
        draws = rng.exponential(size=n)
        s = PopulationState(g, tuple(range(n)), draws / draws.sum())
        cfg = make_config(p=1.0, beta_min=0.05, beta_max=0.2)
        run = evolution._Run.of(s, cfg)
        event = birth_phase(run, cfg, RunStreams(seed + 1), 0)
        assert cfg.beta_min - 1e-12 <= event.mass <= cfg.beta_max + 1e-12
        assert abs(run.x.sum() - 1.0) < 1e-12

    def test_newborn_attaches_and_graph_stays_connected(self):
        g = InfluenceGraph.path(4)
        s = PopulationState.uniform(g)
        cfg = make_config(p=1.0)
        event = birth_phase(evolution._Run.of(s, cfg), cfg, RunStreams(3), 0)
        assert g.is_connected() and len(g) == 5
        assert 1 <= len(event.neighbors) <= 3


CRITERION_10 = dict(p=0.1, epsilon=0.05, delta=0.1, beta_min=0.05, beta_max=0.2, horizon=400)
# name: (config fields, path length, start)
BIRTH_RULE_RUNS = {
    "criterion-10": (CRITERION_10, 4, "random"),
    "quiet": (dict(p=0.001, epsilon=0.05, delta=0.3, beta_min=0.05, beta_max=0.1,
                   horizon=3000), 4, "uniform"),
    "churn": (dict(p=0.5, epsilon=1e-4, delta=0.01, beta_min=0.1, beta_max=0.3, horizon=300,
                   assignment=InfluenceAssignment(linear(9e-4))), 50, "uniform"),
    "p=0": ({**CRITERION_10, "p": 0.0}, 4, "random"),
    "p=1e-12": ({**CRITERION_10, "p": 1e-12}, 4, "random"),
    "p=1": ({**CRITERION_10, "p": 1.0}, 4, "random"),
}


class TestBirthRule:
    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("name", list(BIRTH_RULE_RUNS))
    def test_marks_the_steps_of_the_birth_records(self, name, seed):
        fields_, n, start = BIRTH_RULE_RUNS[name]
        cfg = EvolutionConfig(**fields_, seed=seed)
        graph = InfluenceGraph.path(n)
        x0 = (PopulationState.uniform(graph) if start == "uniform"
              else sample_state(graph, generator(seed)))
        steps = [r.step for r in run_evolution(x0, cfg) if r.birth is not None]
        assert birth_steps(cfg) == steps


class _CountingStreams(RunStreams):
    """RunStreams that records the (step, phase) of every stream it makes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.made = []

    def stream(self, step, phase):
        self.made.append((step, phase))
        return super().stream(step, phase)


class TestPhasesThroughTheKernel:
    """The phases draw from the run's streams only when an event needs them."""

    def test_attach_stream_only_on_a_birth(self):
        s = PopulationState.uniform(InfluenceGraph.path(3))
        for p, want in ((0.0, []), (1e-12, []), (1.0, [(7, PHASE_BIRTH), (7, PHASE_ATTACH)])):
            streams, cfg = _CountingStreams(1), make_config(p=p)
            run = evolution._Run.of(PopulationState(s.graph.copy(), s.ids, s.x), cfg)
            birth_phase(run, cfg, streams, 7)
            assert streams.made == want


class TestDeathPhase:
    def test_single_neighbor_inherits(self):
        g = InfluenceGraph.path(3)  # 0-1-2
        s = PopulationState.from_masses(g, [0.005, 0.495, 0.5])
        cfg = make_config(epsilon=0.01)
        out = evolution._Run.of(s, cfg)
        events = death_phase(out, cfg)
        assert [e.type_id for e in events] == [0]
        assert out.graph.edges() == [[1, 2]]
        np.testing.assert_allclose(sorted(out.x), [0.5, 0.5])

    def test_star_center_splits_equally(self):
        g = InfluenceGraph.star(3)  # center 0, leaves 1..3
        s = PopulationState.from_masses(g, {0: 0.009, 1: 0.4, 2: 0.3, 3: 0.291})
        cfg = make_config(epsilon=0.01)
        out = evolution._Run.of(s, cfg)
        events = death_phase(out, cfg)
        assert [e.type_id for e in events] == [0]
        assert events[0].recipients == [1, 2, 3]
        out = out.state()
        assert out.mass(1) == pytest.approx(0.403)
        assert out.mass(2) == pytest.approx(0.303)
        assert out.mass(3) == pytest.approx(0.294)
        assert out.graph.is_connected()

    def test_cascade_kills_both_small_types(self):
        g = InfluenceGraph.path(3)
        s = PopulationState.from_masses(g, [0.009, 0.002, 0.989])
        cfg = make_config(epsilon=0.01)
        out = evolution._Run.of(s, cfg)
        events = death_phase(out, cfg)
        assert [e.type_id for e in events] == [1, 0]  # lowest mass first
        assert len(out.graph) == 1
        assert out.x[0] == pytest.approx(1.0)

    def test_rescued_type_survives(self):
        # the smallest dies, its mass lifts a borderline type above threshold
        g = InfluenceGraph.path(3)
        s = PopulationState.from_masses(g, [0.0099, 0.0005, 0.9896])
        cfg = make_config(epsilon=0.01)
        out = evolution._Run.of(s, cfg)
        events = death_phase(out, cfg)
        assert [e.type_id for e in events] == [1]
        assert out.state().mass(0) == pytest.approx(0.01015)

    def test_sole_survivor_terminates(self):
        g = InfluenceGraph([0])
        s = PopulationState(g, (0,), np.array([1.0]))
        cfg = make_config(epsilon=0.99)
        out = evolution._Run.of(s, cfg)
        events = death_phase(out, cfg)
        assert events == []
        assert len(out.graph) == 1

    def test_isolated_dying_type_raises_before_removal(self):
        g = InfluenceGraph([0, 1, 2], [(1, 2)])
        s = PopulationState.from_masses(g, [0.001, 0.5, 0.499])
        with pytest.raises(ValueError, match="type 0 dies with no neighbors"):
            cfg = make_config(epsilon=0.01)
            death_phase(evolution._Run.of(s, cfg), cfg)
        assert g.vertex_list() == [0, 1, 2] and g.edges() == [[1, 2]]

    def test_survivors_never_lose_mass(self):
        rng = np.random.default_rng(17)
        cfg = make_config(epsilon=0.05)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            g = InfluenceGraph.path(n)
            draws = rng.exponential(size=n)
            s = PopulationState(g, tuple(range(n)), draws / draws.sum())
            before = s.as_dict()
            run = evolution._Run.of(s, cfg)
            death_phase(run, cfg)
            out = run.state()
            for v in out.ids:
                assert out.mass(v) >= before[v] - 1e-15


class TestEvolutionStep:
    def test_quiet_step_is_identity(self):
        g = InfluenceGraph.complete(2)
        s = PopulationState.from_masses(g, [0.55, 0.45])
        cfg = make_config(p=0.0, epsilon=0.01, delta=0.5)  # dead zone swallows the gap
        run = evolution._Run.of(s, cfg)
        out, record = evolution_step(run, cfg, RunStreams(0), potential_phi(s))
        assert out is run and run.t == 1
        np.testing.assert_array_equal(run.x, s.x)
        assert not record.migration_active
        assert record.birth is None
        assert record.deaths == []
        assert record.phi_before == record.phi_after

    def test_composite_step_by_hand(self):
        g = InfluenceGraph.complete(2)
        s = PopulationState.from_masses(g, [0.6, 0.4])
        cfg = make_config(p=1.0, epsilon=0.01, beta_min=0.1, beta_max=0.2,
                          distribution=BirthDistribution("point", value=0.15),
                          attachment="connect-to-all")
        run, record = evolution_step(evolution._Run.of(s, cfg), cfg, RunStreams(1),
                                     potential_phi(s))
        # migration: (0.624, 0.376); birth absorbs 15% of each
        np.testing.assert_allclose(run.x, [0.624 * 0.85, 0.376 * 0.85, 0.15])
        assert record.migration_active
        assert record.birth.mass == pytest.approx(0.15)
        assert record.type_count == 3

    def test_step_stream_matches_birth_phase(self):
        # the composite step and a manual phase call see identical draws: the
        # coin, then Z from the birth stream; the neighbors from the attach stream
        g = InfluenceGraph.path(3)
        s = PopulationState(g, (0, 1, 2), np.array([0.5, 0.3, 0.2]), t=5)
        cfg = make_config(p=1.0, delta=1.0)  # no migration
        streams = RunStreams(42)
        manual = evolution._Run.of(PopulationState(s.graph.copy(), s.ids, s.x.copy(), s.t), cfg)
        event = birth_phase(manual, cfg, streams, s.t)
        _, record = evolution_step(evolution._Run.of(s, cfg), cfg, streams, potential_phi(s))
        assert record.step == 5
        assert record.birth.z == event.z
        assert record.birth.neighbors == event.neighbors
        rng = streams.stream(5, PHASE_BIRTH)
        rng.random()
        z = cfg.distribution.sample(rng, 3, cfg.beta_min, cfg.beta_max)
        assert event.z == dict(zip((0, 1, 2), map(float, z)))
        assert event.neighbors == sorted(choose_attachment(
            [0, 1, 2], cfg.attachment, streams.stream(5, PHASE_ATTACH)))


class TestRunEvolution:
    def test_fixed_point_with_no_births_logs_inactive(self):
        g = InfluenceGraph.complete(2)
        s = PopulationState.from_masses(g, [1.0, 0.0])
        cfg = make_config(p=0.0, horizon=1, epsilon=0.01)
        tl = run_evolution(s, cfg)
        assert len(tl) == 1
        assert not tl.records[0].migration_active

    def test_type_cap_holds_across_runs(self):
        for seed in range(20):
            cfg = make_config(p=0.3, epsilon=0.05, delta=0.05, seed=seed, horizon=150)
            tl = run_evolution(PopulationState.uniform(InfluenceGraph.path(3)), cfg)
            assert tl.max_type_count() <= cfg.max_types()
            assert all(r.type_count >= 1 for r in tl.records)

    def test_matches_deterministic_driver_when_stochastics_off(self):
        # with p=0 and delta=0 the drivers agree up to the epsilon-death
        # cleanup: dying types carry <= epsilon each, handed to survivors
        g = InfluenceGraph.triangle()
        x0 = PopulationState.from_masses(g, [0.5, 0.3, 0.2])
        cfg = make_config(p=0.0, epsilon=1e-6, delta=0.0, horizon=300)
        tl = run_evolution(x0, cfg)
        res = run_to_convergence(x0, cfg.assignment)
        limit = res.limit.as_dict()
        terminal = tl.terminal.as_dict()
        for v, m in limit.items():
            assert abs(terminal.get(v, 0.0) - m) <= 3 * cfg.epsilon

    def test_seed_determinism_byte_identical(self):
        g = InfluenceGraph.path(4)
        x0 = PopulationState.uniform(g)
        cfg = make_config(p=0.2, epsilon=0.05, delta=0.1, seed=123, horizon=200)
        a = run_evolution(x0, cfg).to_jsonl()
        b = run_evolution(x0, cfg).to_jsonl()
        assert a == b

    def test_different_seeds_differ(self):
        g = InfluenceGraph.path(4)
        x0 = PopulationState.uniform(g)
        t1 = run_evolution(x0, make_config(p=0.5, epsilon=0.05, seed=1, horizon=50))
        t2 = run_evolution(x0, make_config(p=0.5, epsilon=0.05, seed=2, horizon=50))
        assert t1.to_jsonl() != t2.to_jsonl()

    def test_caller_graph_untouched(self):
        g = InfluenceGraph.path(3)
        x0 = PopulationState.uniform(g)
        run_evolution(x0, make_config(p=0.9, epsilon=0.2, seed=5, horizon=50))
        assert g.vertex_list() == [0, 1, 2]

    def test_disconnected_start_rejected(self):
        g = InfluenceGraph([0, 1])
        x0 = PopulationState.from_masses(g, [0.5, 0.5])
        with pytest.raises(ConfigurationError):
            run_evolution(x0, make_config())

    def test_phi_birth_drop_bounded(self):
        cfg = make_config(p=0.4, epsilon=0.02, seed=11, horizon=200,
                          beta_min=0.05, beta_max=0.2)
        tl = run_evolution(PopulationState.uniform(InfluenceGraph.path(4)), cfg)
        assert tl.birth_count() > 0
        for r in tl.records:
            if r.birth is not None:
                drop = r.phi_after_migration - r.phi_after_birth
                assert drop <= 2 * cfg.beta_max + 1e-12

    def test_simplex_preserved_every_step(self):
        cfg = make_config(p=0.3, epsilon=0.05, delta=0.02, seed=6, horizon=300)
        tl = run_evolution(PopulationState.uniform(InfluenceGraph.path(5)), cfg)
        assert abs(tl.terminal.x.sum() - 1.0) < 1e-12
        assert np.all(tl.terminal.x >= 0)

    def test_jsonl_parses_and_has_terminal(self):
        cfg = make_config(p=0.5, epsilon=0.05, seed=2, horizon=30)
        tl = run_evolution(PopulationState.uniform(InfluenceGraph.path(3)), cfg)
        lines = tl.to_jsonl().strip().split("\n")
        assert len(lines) == 31
        for line in lines[:-1]:
            rec = json.loads(line)
            assert set(rec) >= {"step", "phi_before", "phi_after", "migration_active",
                                "birth", "deaths", "type_count"}
        terminal = json.loads(lines[-1])
        assert "terminal" in terminal and terminal["seed"] == 2

    def test_summary_csv_shape(self):
        cfg = make_config(p=0.5, epsilon=0.05, seed=2, horizon=10)
        tl = run_evolution(PopulationState.uniform(InfluenceGraph.path(3)), cfg)
        lines = tl.summary_csv().strip().split("\n")
        assert lines[0] == "step,phi,type_count,migration_active,births,deaths"
        assert len(lines) == 11


class TestIncrementalStep:
    """The followed kernel, array phases and walk-free removal change no byte."""

    def _check(self, x0, cfg):
        ours = run_evolution(x0, cfg)
        assert_same_text(ours.to_jsonl(), reference_evolution(x0, cfg).to_jsonl())
        return ours

    def test_criterion_12_config(self):
        cfg = make_config(p=0.5, epsilon=1e-4, delta=0.01, beta_min=0.1, beta_max=0.3,
                          assignment=InfluenceAssignment(linear(9e-4)), seed=1, horizon=500)
        tl = self._check(PopulationState.uniform(InfluenceGraph.path(50)), cfg)
        assert tl.birth_count() > 200 and tl.death_count() > 200

    def test_connect_to_all_clique_with_overrides(self):
        # (0, 2) is not an edge at the start; the repair adds it when 1 dies
        asg = InfluenceAssignment(linear(0.4), {(0, 2): soft(0.9), (2, 3): cubic(0.45),
                                                (3, 4): linear(0.2), (4, 7): cubic(0.3)})
        x0 = PopulationState.from_masses(InfluenceGraph.path(6),
                                         [0.3, 0.001, 0.2, 0.2, 0.199, 0.1])
        cfg = make_config(p=0.3, epsilon=0.01, attachment="connect-to-all",
                          rewiring="neighbor-clique", assignment=asg, seed=3, horizon=400)
        tl = self._check(x0, cfg)
        assert [(d.type_id, d.recipients) for d in tl.records[0].deaths] == [(1, [0, 2])]
        assert tl.birth_count() > 50 and tl.death_count() > 50

    @pytest.mark.parametrize("rewiring", ["neighbor-path", "neighbor-clique"])
    def test_churn_scale_matches_the_oracle(self, rewiring):
        # criterion 12's regime: a birth or a death on almost every step, 40-70 types
        cfg = make_config(**BIRTH_RULE_RUNS["churn"][0], rewiring=rewiring, seed=2)
        x0 = PopulationState.uniform(InfluenceGraph.path(50))
        ours, want = run_evolution(x0, cfg), reference_evolution(x0, cfg)
        assert ours.records == want.records
        assert_same_text(ours.to_jsonl(), want.to_jsonl())
        assert ours.terminal.x.tobytes() == want.terminal.x.tobytes()
        assert ours.birth_count() > 100 and ours.death_count() > 100
        assert ours.diagnostics["max_cascade"] >= 2

    def test_quiet_path4(self):
        cfg = make_config(p=0.01, epsilon=0.05, delta=0.3, seed=7, horizon=2000)
        tl = self._check(PopulationState.uniform(InfluenceGraph.path(4)), cfg)
        assert tl.birth_count() > 0 and tl.death_count() > 0
        assert tl.max_type_count() >= 8

    STARTS = {"path": InfluenceGraph.path, "star": lambda n: InfluenceGraph.star(n - 1),
              "cycle": InfluenceGraph.cycle, "complete": InfluenceGraph.complete}
    DISTRIBUTIONS = {"uniform": BirthDistribution(), "point": BirthDistribution("point", 0.12),
                     "triangular": BirthDistribution("triangular", mode=0.08)}
    # (5, 9) joins two types that are not born yet; (0, 2) is no edge of a path or a star
    OVERRIDES = {(0, 2): soft(0.9), (1, 2): cubic(0.45), (5, 9): linear(0.1)}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), start=st.sampled_from(list(STARTS)),
           n=st.integers(3, 6), attachment=st.sampled_from(["random-subset", "connect-to-all"]),
           rewiring=st.sampled_from(["neighbor-path", "neighbor-clique"]),
           distribution=st.sampled_from(list(DISTRIBUTIONS)),
           delta=st.sampled_from([0.0, 0.02, 0.2]), p=st.sampled_from([0.05, 0.3, 1.0]),
           overrides=st.booleans(), random_start=st.booleans())
    def test_matches_the_oracle_on_any_start_and_policy(self, seed, start, n, attachment,
                                                        rewiring, distribution, delta, p,
                                                        overrides, random_start):
        graph = self.STARTS[start](n)
        x0 = (sample_state(graph, generator(seed)) if random_start
              else PopulationState.uniform(graph))
        cfg = make_config(p=p, epsilon=0.05, delta=delta, beta_min=0.05, beta_max=0.2,
                          distribution=self.DISTRIBUTIONS[distribution], attachment=attachment,
                          rewiring=rewiring, seed=seed, horizon=200, assignment=InfluenceAssignment(
                              linear(0.4), self.OVERRIDES if overrides else None))
        ours, want = run_evolution(x0, cfg), reference_evolution(x0, cfg)
        assert_same_text(ours.to_jsonl(), want.to_jsonl())
        assert_same_text(ours.summary_csv(), want.summary_csv())
        assert ours.terminal.x.tobytes() == want.terminal.x.tobytes()


class TestCompactRecords:
    """Records hold slots, and a birth's Z is a read-only view of its arrays
    that stands for the dict of the same items."""

    def birth(self):
        s = PopulationState(InfluenceGraph.path(4), (0, 1, 2, 3), np.array([0.4, 0.3, 0.2, 0.1]))
        cfg = make_config(p=1.0)
        streams = RunStreams(8)
        event = birth_phase(evolution._Run.of(s, cfg), cfg, streams, 3)
        rng = streams.stream(3, PHASE_BIRTH)
        rng.random()
        z = cfg.distribution.sample(rng, 4, cfg.beta_min, cfg.beta_max)
        return event, dict(zip((0, 1, 2, 3), z.tolist()))

    def test_z_equals_its_dict_from_either_side(self):
        event, want = self.birth()
        assert isinstance(event.z, ZMap)
        assert event.z == want and want == event.z
        assert event.z != {**want, 0: 0.0} and {**want, 0: 0.0} != event.z
        assert event.z != {**want, 9: 0.1} and dict(event.z) == want
        assert list(event.z) == [0, 1, 2, 3] and len(event.z) == 4
        assert event.z[2] == want[2] and type(event.z[2]) is float
        assert list(event.z.items()) == list(want.items()) and (1, want[1]) in event.z.items()
        with pytest.raises(KeyError):
            event.z[4]

    def test_z_rejects_item_assignment(self):
        event, _ = self.birth()
        with pytest.raises(TypeError):
            event.z[0] = 0.5
        with pytest.raises(TypeError):
            del event.z[0]

    def test_z_serializes_as_its_dict(self):
        event, want = self.birth()
        as_dict = BirthEvent(event.new_id, event.mass, want, event.neighbors)
        assert json.dumps(event.to_json_dict()) == json.dumps(as_dict.to_json_dict())
        assert event == as_dict and as_dict == event

    def test_records_hold_slots(self):
        event, _ = self.birth()
        for record in (event, event.z, DeathEvent(1, 0.01, [0, 2]),
                       StepRecord(0, 0.3, 0.3, 0.3, 0.3, False, 0.1, None, [], 2)):
            assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            event.extra = 1

    def test_timeline_survives_pickle_and_replace(self):
        cfg = make_config(p=0.5, epsilon=0.05, delta=0.01, beta_min=0.1, beta_max=0.3,
                          seed=1, horizon=300)
        tl = run_evolution(PopulationState.uniform(InfluenceGraph.path(8)), cfg)
        back = pickle.loads(pickle.dumps(tl))
        assert back.records == tl.records and back.to_jsonl() == tl.to_jsonl()
        births = [r for r in back.records if r.birth is not None]
        assert births and all(isinstance(r.birth.z, ZMap) for r in births)
        r = births[0]
        moved = replace(r, step=r.step + 1, birth=replace(r.birth, new_id=99))
        assert (moved.step, moved.birth.new_id) == (r.step + 1, 99) != (r.step, r.birth.new_id)
        assert moved.birth.z is r.birth.z and moved.deaths is r.deaths


QUIET = dict(p=0.001, epsilon=0.05, delta=0.3)     # the evolve-quiet config
# the evolve-quiet horizon by which each seed has run into a cycle of period 2
PERIOD_TWO_BY = {1: 13_000, 2: 5_000, 7: 33_000}


def period_two_start():
    """A path:4 start that, with p = 0 and QUIET's delta and epsilon, cycles with
    period 2 from step 2 on: renormalization flips the last bits back and forth."""
    return sample_state(InfluenceGraph.path(4), generator(18))


class TestFrozenJump:
    """A quiet step that repeats an earlier quiet step's input masses, frozen
    (period 1) or in a cycle of period k, is jumped to the next birth; the
    jumped timeline writes the per-step oracle's bytes, and most quiet steps
    are never computed."""

    def _check(self, x0, cfg):
        ours, want = run_evolution(x0, cfg), reference_evolution(x0, cfg)
        assert_same_text(ours.to_jsonl(), want.to_jsonl())
        assert_same_text(ours.summary_csv(), want.summary_csv())
        assert len(ours) == cfg.horizon
        assert list(ours) == want.records
        assert ours.last_step() == want.records[-1]
        assert ours.terminal.x.tobytes() == want.terminal.x.tobytes()
        return ours

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_quiet_config_runs_cross_coin_blocks(self, seed):
        cfg = make_config(**QUIET, seed=seed, horizon=PERIOD_TWO_BY[seed])
        tl = self._check(PopulationState.uniform(InfluenceGraph.path(4)), cfg)
        runs = [(r.step, r.step + r.repeat) for r in tl.records if r.repeat > 1]
        assert any(a // COIN_WINDOW != (b - 1) // COIN_WINDOW for a, b in runs)
        assert any(len(r.cycle) == 1 and r.repeat > 2 for r in tl.records)

    def test_single_type_is_frozen_from_step_zero(self):
        cfg = make_config(**QUIET, seed=1, horizon=5000)
        tl = self._check(PopulationState.uniform(InfluenceGraph.path(1)), cfg)
        assert tl.records[1].step == 1 and tl.records[1].repeat > 1

    def test_no_births_is_one_run_to_the_horizon(self):
        cfg = make_config(**{**QUIET, "p": 0.0}, horizon=3000)
        tl = self._check(PopulationState.uniform(InfluenceGraph.path(4)), cfg)
        assert [(r.step, r.repeat) for r in tl.records] == [(0, 1), (1, 2999)]

    @pytest.mark.parametrize("horizon", [50, 51])
    def test_no_births_is_one_cycle_run_ending_on_either_log(self, horizon):
        cfg = make_config(**{**QUIET, "p": 0.0}, horizon=horizon)
        tl = self._check(period_two_start(), cfg)
        assert [(r.step, r.repeat, len(r.cycle)) for r in tl.records] == \
            [(0, 1, 0), (1, 1, 0), (2, horizon - 2, 1)]
        assert tl.diagnostics == {"stepped_steps": 2, "jumped_steps": horizon - 2,
                                  "runs_per_period": {"2": 1}, "coin_draws": 0,
                                  "max_cascade": 0}
        run = tl.records[-1]
        last = run if horizon % 2 else run.cycle[0]     # the run starts at step 2
        assert tl.last_step().phi_after == last.phi_after
        assert run.phi_after != run.cycle[0].phi_after     # the two logs differ

    def test_a_birth_every_step_leaves_no_run(self):
        cfg = make_config(**{**QUIET, "p": 1.0}, seed=3, horizon=300)
        tl = self._check(PopulationState.uniform(InfluenceGraph.path(4)), cfg)
        assert len(tl.records) == 300 and tl.birth_count() == 300

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), delta=st.sampled_from([0.0, 0.05, 0.3]),
           p=st.sampled_from([0.0, 1e-3, 0.01, 0.2, 1.0]), random_start=st.booleans())
    def test_matches_the_per_step_oracle(self, seed, delta, p, random_start):
        graph = InfluenceGraph.path(4)
        x0 = (sample_state(graph, generator(seed)) if random_start
              else PopulationState.uniform(graph))
        self._check(x0, make_config(p=p, epsilon=0.05, delta=delta, seed=seed, horizon=1200))

    @pytest.mark.parametrize("horizon", [COIN_WINDOW + 300, 3 * COIN_WINDOW])
    @pytest.mark.parametrize("p", [0.0, 1e-6, 2e-4, 0.01, 1.0])
    def test_next_birth_is_the_first_birth_of_a_step_scan(self, horizon, p):
        # the horizon COIN_WINDOW + 300 cuts window 1 short
        starts = [0, 5, COIN_WINDOW - 2, COIN_WINDOW - 1, COIN_WINDOW, COIN_WINDOW + 1,
                  2 * COIN_WINDOW - 1, horizon - 1]
        for seed in (3, 5, 8):
            cfg = make_config(p=p, seed=seed, horizon=horizon)
            scan = RunStreams(seed)
            births = [s for s in range(horizon) if has_birth(cfg, scan, s)]
            streams = RunStreams(seed)
            for start in starts:
                want = next((s for s in births if s >= start), horizon)
                assert evolution._next_birth(cfg, streams, start) == want

    def test_most_quiet_steps_are_never_computed(self, monkeypatch):
        calls = []
        step = evolution.evolution_step

        def counted(*args, **kwargs):
            calls.append(args[0].t)
            return step(*args, **kwargs)

        monkeypatch.setattr(evolution, "evolution_step", counted)
        cfg = make_config(**QUIET, seed=1, horizon=5000)
        tl = run_evolution(PopulationState.uniform(InfluenceGraph.path(4)), cfg)
        assert len(tl) == 5000 and len(calls) < 0.05 * 5000
        assert tl.diagnostics["stepped_steps"] == len(calls)
        assert tl.diagnostics["jumped_steps"] == 5000 - len(calls)

    def test_diagnostics_count_coin_draws_and_the_longest_cascade(self):
        cfg = make_config(p=0.5, epsilon=0.05, delta=0.01, beta_min=0.1, beta_max=0.3,
                          seed=1, horizon=300)
        tl = run_evolution(PopulationState.uniform(InfluenceGraph.path(8)), cfg)
        assert tl.diagnostics["max_cascade"] == max(len(r.deaths) for r in tl.records) >= 2
        assert tl.diagnostics["coin_draws"] == 1


class TestRunStreams:
    def test_draws_match_seed_sequence_philox(self):
        for seed in (0, 1, 131, 2**63 + 5):
            streams = RunStreams(seed)
            for step, phase in ((0, PHASE_BIRTH), (7, PHASE_ATTACH), (10**6, PHASE_BIRTH)):
                counter = np.array([0, 0, step, phase], dtype=np.uint64)
                want = np.random.Generator(np.random.Philox(
                    seed=np.random.SeedSequence(seed), counter=counter)).random(6)
                np.testing.assert_array_equal(streams.stream(step, phase).random(6), want)

    def test_coin_is_the_streams_first_draw(self):
        steps = (0, 1023, 1024, 1025, COIN_WINDOW - 1, COIN_WINDOW, COIN_WINDOW + 1,
                 2**40 + 7, 2**64 - 1)
        for seed in np.random.default_rng(17).integers(0, 2**63, 20).tolist():
            streams = RunStreams(seed)
            for phase in (PHASE_BIRTH, PHASE_ATTACH):
                for step in steps:
                    assert streams.coin(step, phase) == streams.stream(step, phase).random()

    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.5, 1.0])
    @pytest.mark.parametrize("start, stop", [
        (0, 1023), (0, 1024), (0, 1025), (1023, 1025), (1024, 1025), (5, 5), (1000, 3100),
        (0, COIN_WINDOW - 1), (0, COIN_WINDOW), (0, COIN_WINDOW + 1),
        (COIN_WINDOW - 1, COIN_WINDOW + 1), (COIN_WINDOW, COIN_WINDOW + 1),
        (COIN_WINDOW - 7, 2 * COIN_WINDOW + 3), (2**64 - 1100, 2**64 - 1), (2**64 - 1024, 2**64),
        (2**64 - COIN_WINDOW - 1, 2**64)])
    def test_coins_of_a_range_give_the_birth_rule(self, p, start, stop):
        cfg = make_config(p=p, seed=11)
        coins = RunStreams(11).coins(start, stop, PHASE_BIRTH)
        one_by_one = RunStreams(11)
        assert coins.tolist() == [one_by_one.coin(s, PHASE_BIRTH) for s in range(start, stop)]
        assert [start + i for i in np.flatnonzero(coins < p).tolist()] == \
            [s for s in range(start, stop) if has_birth(cfg, one_by_one, s)]

    @pytest.mark.parametrize("first, count", [(0, 1500), (1023, 3), (2**64 - 5, 5)])
    def test_coins_of_many_runs_are_each_runs_coins(self, first, count):
        seeds = [0, 1, 131, 2**63 + 5]
        coins = run_coins(seeds, first, count, PHASE_BIRTH)
        assert coins.shape == (len(seeds), count)
        for seed, row in zip(seeds, coins):
            assert row.tolist() == RunStreams(seed).coins(first, first + count, PHASE_BIRTH).tolist()

    def test_coins_read_the_block_coin_holds(self):
        w = COIN_WINDOW
        streams, fresh = RunStreams(4), RunStreams(4)
        streams.coin(w + 6, PHASE_BIRTH)                # holds window 1
        assert streams.coins(w + 1, w + 6, PHASE_BIRTH).tolist() == \
            fresh.coins(w + 1, w + 6, PHASE_BIRTH).tolist()
        assert streams.coin(2 * w - 1, PHASE_BIRTH) == fresh.stream(2 * w - 1, PHASE_BIRTH).random()
        assert streams.coin_draws == 1

    def test_every_call_is_a_fresh_generator(self):
        streams = RunStreams(9)
        a, b = streams.stream(3, PHASE_BIRTH), streams.stream(3, PHASE_BIRTH)
        assert a is not b
        np.testing.assert_array_equal(a.random(4), b.random(4))
