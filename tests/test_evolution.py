"""Birth/death phases, the composite step, and full stochastic runs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionflow import (BirthDistribution, EvolutionConfig, InfluenceAssignment,
                         InfluenceGraph, PopulationState, birth_phase, cubic,
                         death_phase, evolution_step, linear, run_evolution,
                         run_to_convergence, soft)
from opinionflow.errors import ConfigurationError
from opinionflow.seeding import PHASE_ATTACH, PHASE_BIRTH, RunStreams

from .helpers import reference_evolution


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

    def test_overstrong_influence_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config(assignment=InfluenceAssignment(linear(1.2)))

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
        rng = np.random.default_rng(0)
        out, event = birth_phase(s, cfg, rng)
        assert event is not None
        np.testing.assert_allclose(out.x, [0.4, 0.45, 0.15])
        assert event.new_id == 2
        assert event.neighbors == [0, 1]
        assert event.mass == pytest.approx(0.15)

    def test_p_zero_is_identity(self):
        g = InfluenceGraph.complete(2)
        s = PopulationState.from_masses(g, [0.5, 0.5])
        cfg = make_config(p=0.0)
        for seed in range(20):
            out, event = birth_phase(s, cfg, np.random.default_rng(seed))
            assert event is None
            assert out is s

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
        out, event = birth_phase(s, cfg, np.random.default_rng(seed + 1))
        assert cfg.beta_min - 1e-12 <= event.mass <= cfg.beta_max + 1e-12
        assert abs(out.x.sum() - 1.0) < 1e-12

    def test_newborn_attaches_and_graph_stays_connected(self):
        g = InfluenceGraph.path(4)
        s = PopulationState.uniform(g)
        cfg = make_config(p=1.0)
        out, event = birth_phase(s, cfg, np.random.default_rng(3))
        assert out.graph.is_connected()
        assert 1 <= len(event.neighbors) <= 3


class TestDeathPhase:
    def test_single_neighbor_inherits(self):
        g = InfluenceGraph.path(3)  # 0-1-2
        s = PopulationState.from_masses(g, [0.005, 0.495, 0.5])
        cfg = make_config(epsilon=0.01)
        out, events = death_phase(s, cfg)
        assert [e.type_id for e in events] == [0]
        assert out.graph.edges() == [[1, 2]]
        np.testing.assert_allclose(sorted(out.x), [0.5, 0.5])

    def test_star_center_splits_equally(self):
        g = InfluenceGraph.star(3)  # center 0, leaves 1..3
        s = PopulationState.from_masses(g, {0: 0.009, 1: 0.4, 2: 0.3, 3: 0.291})
        cfg = make_config(epsilon=0.01)
        out, events = death_phase(s, cfg)
        assert [e.type_id for e in events] == [0]
        assert events[0].recipients == [1, 2, 3]
        assert out.mass(1) == pytest.approx(0.403)
        assert out.mass(2) == pytest.approx(0.303)
        assert out.mass(3) == pytest.approx(0.294)
        assert out.graph.is_connected()

    def test_cascade_kills_both_small_types(self):
        g = InfluenceGraph.path(3)
        s = PopulationState.from_masses(g, [0.009, 0.002, 0.989])
        cfg = make_config(epsilon=0.01)
        out, events = death_phase(s, cfg)
        assert [e.type_id for e in events] == [1, 0]  # lowest mass first
        assert len(out.graph) == 1
        assert out.x[0] == pytest.approx(1.0)

    def test_rescued_type_survives(self):
        # the smallest dies, its mass lifts a borderline type above threshold
        g = InfluenceGraph.path(3)
        s = PopulationState.from_masses(g, [0.0099, 0.0005, 0.9896])
        cfg = make_config(epsilon=0.01)
        out, events = death_phase(s, cfg)
        assert [e.type_id for e in events] == [1]
        assert out.mass(0) == pytest.approx(0.01015)

    def test_sole_survivor_terminates(self):
        g = InfluenceGraph([0])
        s = PopulationState(g, (0,), np.array([1.0]))
        cfg = make_config(epsilon=0.99)
        out, events = death_phase(s, cfg)
        assert events == []
        assert len(out.graph) == 1

    def test_isolated_dying_type_raises_before_removal(self):
        g = InfluenceGraph([0, 1, 2], [(1, 2)])
        s = PopulationState.from_masses(g, [0.001, 0.5, 0.499])
        with pytest.raises(ValueError, match="type 0 dies with no neighbors"):
            death_phase(s, make_config(epsilon=0.01))
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
            out, _events = death_phase(s, cfg)
            for v in out.ids:
                assert out.mass(v) >= before[v] - 1e-15


class TestEvolutionStep:
    def test_quiet_step_is_identity(self):
        g = InfluenceGraph.complete(2)
        s = PopulationState.from_masses(g, [0.55, 0.45])
        cfg = make_config(p=0.0, epsilon=0.01, delta=0.5)  # dead zone swallows the gap
        state, record = evolution_step(s, cfg, RunStreams(0), 0)
        np.testing.assert_array_equal(state.x, s.x)
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
        state, record = evolution_step(s, cfg, RunStreams(1), 0)
        # migration: (0.624, 0.376); birth absorbs 15% of each
        np.testing.assert_allclose(state.x, [0.624 * 0.85, 0.376 * 0.85, 0.15])
        assert record.migration_active
        assert record.birth.mass == pytest.approx(0.15)
        assert record.type_count == 3

    def test_step_stream_matches_birth_phase(self):
        # the composite step and a manual phase call see identical draws
        g = InfluenceGraph.path(3)
        s = PopulationState.uniform(g)
        cfg = make_config(p=1.0, delta=1.0)  # no migration
        streams = RunStreams(42)
        manual, event = birth_phase(
            PopulationState(s.graph.copy(), s.ids, s.x.copy()), cfg,
            streams.stream(0, PHASE_BIRTH), streams.stream(0, 2))
        state, record = evolution_step(s, cfg, streams, 0)
        assert record.birth.z == event.z
        assert record.birth.neighbors == event.neighbors


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
        assert ours.to_jsonl() == reference_evolution(x0, cfg).to_jsonl()
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

    def test_quiet_path4(self):
        cfg = make_config(p=0.01, epsilon=0.05, delta=0.3, seed=7, horizon=2000)
        tl = self._check(PopulationState.uniform(InfluenceGraph.path(4)), cfg)
        assert tl.birth_count() > 0 and tl.death_count() > 0


class TestRunStreams:
    def test_draws_match_seed_sequence_philox(self):
        for seed in (0, 1, 131, 2**63 + 5):
            streams = RunStreams(seed)
            for step, phase in ((0, PHASE_BIRTH), (7, PHASE_ATTACH), (10**6, PHASE_BIRTH)):
                counter = np.array([0, 0, step, phase], dtype=np.uint64)
                want = np.random.Generator(np.random.Philox(
                    seed=np.random.SeedSequence(seed), counter=counter)).random(6)
                np.testing.assert_array_equal(streams.stream(step, phase).random(6), want)

    def test_every_call_is_a_fresh_generator(self):
        streams = RunStreams(9)
        a, b = streams.stream(3, PHASE_BIRTH), streams.stream(3, PHASE_BIRTH)
        assert a is not b
        np.testing.assert_array_equal(a.random(4), b.random(4))
