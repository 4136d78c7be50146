"""Migration map: flows, steps, potentials, fixed points, convergence."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from opinionflow import (EvolutionConfig, InfluenceAssignment, InfluenceFunction, InfluenceGraph,
                         PopulationState, classify_fixed_point, classify_stability, cubic,
                         flow, is_fixed_point, linear, local_potential_psi, migrate_step,
                         potential_phi, run_to_convergence, soft)
from opinionflow.dynamics import MAX_ITERS, THETA_ACTIVE, TOL_STEP, _cert_stride, _EdgeKernel
from opinionflow.graph import REWIRING_POLICIES
from opinionflow.errors import ConfigurationError, NotAFixedPointError
from opinionflow.evolution import _Run, birth_phase, death_phase
from opinionflow.harness import _settled_limit, sample_simplex
from opinionflow.seeding import RunStreams, generator, trial_seed

from .helpers import (assert_same_kernel, certificate_oracle, edge_state, flow_oracle,
                      path_acb, random_setup, reference_run)


class TestFlow:
    def test_hand_value(self):
        s = edge_state(0.6, 0.4)
        asg = InfluenceAssignment(linear(0.5))
        assert flow(s, 0, 1, asg) == pytest.approx(0.024)
        assert flow(s, 1, 0, asg) == pytest.approx(-0.024)

    def test_equal_masses_no_flow(self):
        s = edge_state(0.5, 0.5)
        assert flow(s, 0, 1, InfluenceAssignment(cubic(0.9))) == 0.0

    def test_dead_zone(self):
        s = edge_state(0.55, 0.45)
        assert flow(s, 0, 1, InfluenceAssignment(linear(0.5)), delta=0.2) == 0.0

    def test_non_edge_rejected(self):
        g = InfluenceGraph.path(3)
        s = PopulationState.uniform(g)
        with pytest.raises(ValueError):
            flow(s, 0, 2, InfluenceAssignment(linear(0.5)))

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            state, asg, family, a = random_setup(rng)
            for u, v in state.graph.edges():
                expected = flow_oracle(state.as_dict(), u, v, family, a)
                assert flow(state, u, v, asg) == pytest.approx(expected, abs=1e-15)


class TestMigrateStep:
    def test_hand_step(self):
        out = migrate_step(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)))
        np.testing.assert_allclose(out.state.x, [0.624, 0.376])
        assert out.active

    def test_absorbing_corner(self):
        out = migrate_step(edge_state(1.0, 0.0), InfluenceAssignment(linear(0.5)))
        assert out.state.x[0] == 1.0
        assert out.state.x[1] == 0.0
        assert not out.active

    def test_uniform_triangle_is_fixed(self):
        g = InfluenceGraph.triangle()
        s = PopulationState.uniform(g)
        out = migrate_step(s, InfluenceAssignment(linear(0.5)))
        np.testing.assert_array_equal(out.state.x, s.x)
        assert not out.active

    def test_zero_mass_stays_exactly_zero(self):
        g = InfluenceGraph.triangle()
        s = PopulationState.from_masses(g, [0.7, 0.3, 0.0])
        state = s
        asg = InfluenceAssignment(linear(0.5))
        for _ in range(50):
            state = migrate_step(state, asg).state
            assert state.x[2] == 0.0

    def test_mass_conserved_per_step(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            state, asg, _, _ = random_setup(rng)
            out = migrate_step(state, asg)
            assert out.residual <= 1e-14
            assert abs(out.state.x.sum() - 1.0) <= 1e-15

    def test_step_counter(self):
        out = migrate_step(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)))
        assert out.state.t == 1

    def test_dead_zone_edge_at_exactly_delta(self):
        s = PopulationState(InfluenceGraph.path(3), (0, 1, 2), np.array([0.5, 0.3, 0.2]))
        asg = InfluenceAssignment(soft(0.9))
        out = migrate_step(s, asg, delta=s.x[1] - s.x[2])
        assert out.active
        assert out.state.x[2] == s.x[2]             # the 1-2 edge sat at |d| == delta
        out = migrate_step(s, asg, delta=0.2)
        assert not out.active and out.state.x.tobytes() == s.x.tobytes()


class TestPotentials:
    def test_phi_values(self):
        assert potential_phi(edge_state(0.6, 0.4)) == pytest.approx(0.52)
        g = InfluenceGraph.path(5)
        assert potential_phi(PopulationState.uniform(g)) == pytest.approx(0.2)
        s = PopulationState.from_masses(g, [1, 0, 0, 0, 0])
        assert potential_phi(s) == pytest.approx(1.0)

    def test_psi_zero_at_limit(self):
        s = edge_state(0.6, 0.4)
        assert local_potential_psi(s, s) == 0.0

    def test_psi_simple(self):
        p = edge_state(1.0, 0.0)
        x = edge_state(0.9, 0.1)
        assert local_potential_psi(x, p) == pytest.approx(0.1)

    def test_psi_path_endpoints(self):
        g = InfluenceGraph([0, 1, 2], [(0, 2), (1, 2)])  # A-C-B
        p = PopulationState.from_masses(g, {0: 0.5, 1: 0.5, 2: 0.0})
        x = PopulationState.from_masses(g, {0: 0.45, 1: 0.48, 2: 0.07})
        assert local_potential_psi(x, p) == pytest.approx(0.07)

    def test_psi_vertex_set_mismatch(self):
        a = edge_state(0.6, 0.4)
        b = PopulationState.uniform(InfluenceGraph.triangle())
        with pytest.raises(ValueError):
            local_potential_psi(a, b)

    def test_phi_monotone_and_strict_off_fixed_points(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            state, asg, _, _ = random_setup(rng, n_max=10)
            for _ in range(30):
                out = migrate_step(state, asg)
                dphi = potential_phi(out.state) - potential_phi(state)
                assert dphi >= -1e-14
                if not is_fixed_point(state, asg):
                    assert dphi > 1e-12
                state = out.state

    def test_phi_flat_exactly_on_fixed_points(self):
        g = InfluenceGraph.path(4)
        asg = InfluenceAssignment(linear(0.5))
        p = PopulationState.from_masses(g, [0.5, 0, 0, 0.5])
        out = migrate_step(p, asg)
        assert potential_phi(out.state) == potential_phi(p)

    def test_psi_descends_near_limit(self):
        asg = InfluenceAssignment(linear(0.5))
        for g, x0 in [
            (InfluenceGraph.complete(2), [0.6, 0.4]),
            (InfluenceGraph.triangle(), [0.5, 0.3, 0.2]),
            (InfluenceGraph([0, 1, 2], [(0, 2), (1, 2)]), [0.4, 0.45, 0.15]),
        ]:
            res = run_to_convergence(PopulationState.from_masses(g, x0), asg,
                                     record_trajectory=True)
            p = res.limit
            prev = None
            for x in res.trajectory:
                state = PopulationState(g, p.ids, x)
                if np.abs(x - p.x).sum() <= 1e-3:
                    cur = local_potential_psi(state, p)
                    if prev is not None:
                        assert cur <= prev + 1e-14
                    prev = cur
            assert prev is not None


class TestFixedPoints:
    def test_corner_is_fixed(self):
        assert is_fixed_point(edge_state(1.0, 0.0), InfluenceAssignment(linear(0.5)))

    def test_interior_unbalanced_is_not(self):
        assert not is_fixed_point(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)),
                                  tol_flow=1e-9)

    def test_equal_component_masses_fixed(self):
        g = InfluenceGraph.path(4)
        s = PopulationState.from_masses(g, [0.25] * 4)
        assert is_fixed_point(s, InfluenceAssignment(linear(0.5)))

    def test_classify_path_split(self):
        g = InfluenceGraph([0, 1, 2], [(0, 2), (1, 2)])  # A-C-B
        s = PopulationState.from_masses(g, {0: 0.5, 1: 0.5, 2: 0.0})
        res = classify_fixed_point(s, InfluenceAssignment(linear(0.5)))
        assert sorted(sorted(c) for c, _ in res.components) == [[0], [1]]
        assert res.independent

    def test_classify_adjacent_pair(self):
        s = edge_state(0.5, 0.5)
        res = classify_fixed_point(s, InfluenceAssignment(linear(0.5)))
        assert res.components[0][0] == frozenset({0, 1})
        assert res.components[0][1] == pytest.approx(0.5)
        assert not res.independent

    def test_classify_corner(self):
        g = InfluenceGraph.triangle()
        s = PopulationState.from_masses(g, [1, 0, 0])
        res = classify_fixed_point(s, InfluenceAssignment(linear(0.5)))
        assert res.components == [(frozenset({0}), 1.0)]
        assert res.independent

    def test_classify_rejects_moving_state(self):
        with pytest.raises(NotAFixedPointError):
            classify_fixed_point(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)))

    def test_classify_sees_an_edge_added_to_the_same_graph(self):
        g, asg = InfluenceGraph.path(3), InfluenceAssignment(linear(0.5))
        s = PopulationState.from_masses(g, [0.5, 0.0, 0.5])
        assert classify_fixed_point(s, asg).independent
        g.add_edge(0, 2)
        assert is_fixed_point(s, asg)
        assert not classify_fixed_point(s, asg).independent


class TestConvergence:
    def test_edge_absorbs_to_larger(self):
        res = run_to_convergence(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)))
        assert res.converged
        np.testing.assert_allclose(res.limit.x, [1.0, 0.0], atol=1e-9)

    def test_starts_at_fixed_point(self):
        res = run_to_convergence(edge_state(1.0, 0.0), InfluenceAssignment(linear(0.5)))
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_array_equal(res.limit.x, [1.0, 0.0])

    def test_triangle_argmax_wins(self):
        g = InfluenceGraph.triangle()
        s = PopulationState.from_masses(g, [0.5, 0.3, 0.2])
        res = run_to_convergence(s, InfluenceAssignment(linear(0.5)))
        np.testing.assert_allclose(res.limit.x, [1.0, 0.0, 0.0], atol=1e-9)

    def test_exact_tie_splits_equally(self):
        g = InfluenceGraph.triangle()
        s = PopulationState.from_masses(g, [0.4, 0.4, 0.2])
        res = run_to_convergence(s, InfluenceAssignment(linear(0.5)))
        np.testing.assert_allclose(res.limit.x, [0.5, 0.5, 0.0], atol=1e-9)

    def test_phi_trace_monotone(self):
        res = run_to_convergence(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)),
                                 record_trajectory=True)
        phi = [float(x @ x) for x in res.trajectory]
        assert len(phi) == res.iterations + 2
        assert np.all(np.diff(phi) >= -1e-14)

    def test_sup_above_one_is_rejected_before_a_step(self):
        # one edge's F above 1 is enough: linear(2.5) everywhere takes mass 0 to -0.002
        x = np.array([0.01, 0.495, 0.495])
        asg = InfluenceAssignment(linear(0.5), {(0, 2): linear(2.5)})
        message = r"sup\|F\| = 2.5 > 1: the update map would leave the simplex"
        for x0, certify in ((x, None), (np.stack([x, x]), None), (np.stack([x, x]), THETA_ACTIVE)):
            with pytest.raises(ConfigurationError, match=message):
                run_to_convergence(PopulationState(InfluenceGraph.star(2), (0, 1, 2), x0), asg,
                                   certify=certify)

    def test_sup_is_read_from_the_graph_edges(self):
        # an override off the graph's edges, and a graph with no edges, step as before
        asg = InfluenceAssignment(linear(0.5), {(0, 2): linear(2.5)})
        assert run_to_convergence(edge_state(0.6, 0.4), asg).converged
        lone = PopulationState.uniform(InfluenceGraph([0]))
        assert run_to_convergence(lone, InfluenceAssignment(linear(3.0))).iterations == 0

    def test_max_iters_flags_unconverged(self):
        res = run_to_convergence(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)),
                                 tol=1e-16, max_iters=5)
        assert not res.converged
        assert res.iterations == 5

    def test_simplex_preserved_over_long_runs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            state, asg, _, _ = random_setup(rng, n_max=12)
            res = run_to_convergence(state, asg, max_iters=2000)
            assert res.residual_max <= 1e-9
            assert np.all(res.limit.x >= 0.0)
            assert np.all(res.limit.x <= 1.0)


def raster(resolution):
    return np.array([[i, j, resolution - i - j] for i in range(resolution + 1)
                     for j in range(resolution - i + 1)], dtype=float) / resolution


def random_starts(n, count, seed):
    draws = np.random.default_rng(seed).exponential(size=(count, n))
    return draws / draws.sum(axis=1, keepdims=True)


class TestBatchedConvergence:
    """A batch gives every row the limit and stop it gets alone, bit for bit."""

    def check(self, graph, asg, starts, max_iters=MAX_ITERS):
        ids = tuple(graph.vertex_list())
        res = run_to_convergence(PopulationState(graph, ids, starts), asg,
                                 max_iters=max_iters)
        assert res.limit.x.shape == starts.shape
        for b, x0 in enumerate(starts):
            x, iterations, converged = reference_run(PopulationState(graph, ids, x0), asg,
                                                     max_iters=max_iters)
            np.testing.assert_array_equal(res.limit.x[b], x)
            assert res.stops[b] == iterations
            assert (res.stops[b] < max_iters) == converged
        assert res.iterations == res.stops.max()
        assert res.converged == bool(np.all(res.stops < max_iters))
        return res

    def test_triangle_raster(self):
        self.check(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)), raster(24))

    def test_path_acb_raster(self):
        self.check(path_acb(), InfluenceAssignment(linear(0.5)), raster(24))

    def test_cycle5_random_starts(self):
        self.check(InfluenceGraph.cycle(5), InfluenceAssignment(linear(0.49)),
                   random_starts(5, 40, 1), max_iters=20_000)

    def test_complete9_pairwise_sums(self):
        # n >= 8 engages numpy's pairwise summation in the row sums
        self.check(InfluenceGraph.complete(9), InfluenceAssignment(linear(0.49)),
                   random_starts(9, 40, 2))

    def test_two_family_assignment(self):
        asg = InfluenceAssignment(linear(0.49), {(0, 1): cubic(0.4), (2, 3): cubic(0.4)})
        self.check(InfluenceGraph.complete(4), asg, random_starts(4, 40, 3))

    def test_fixed_row_stops_at_zero(self):
        starts = np.array([[1.0, 0.0, 0.0], [0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3]])
        res = self.check(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)), starts)
        assert res.stops[0] == 0 and res.stops[2] == 0

    def test_row_exhausting_budget(self):
        starts = np.array([[1.0, 0.0, 0.0], [0.5, 0.3, 0.2], [0.34, 0.33, 0.33]])
        res = self.check(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)),
                         starts, max_iters=12)
        assert res.stops.tolist() == [0, 12, 12]
        assert not res.converged and res.iterations == 12

    def test_single_state_matches_reference(self):
        g, asg = InfluenceGraph.cycle(5), InfluenceAssignment(linear(0.49))
        for x0 in random_starts(5, 10, 4):
            res = run_to_convergence(PopulationState(g, tuple(range(5)), x0), asg)
            x, iterations, converged = reference_run(PopulationState(g, tuple(range(5)), x0),
                                                     asg)
            np.testing.assert_array_equal(res.limit.x, x)
            assert (res.iterations, res.converged, res.stops.tolist()) == \
                (iterations, converged, [iterations])

    def test_single_state_carries_row_fields(self):
        g, asg = InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5))
        for max_iters, reason in ((MAX_ITERS, "l1"), (5, "budget")):
            res = run_to_convergence(PopulationState.from_masses(g, [0.5, 0.3, 0.2]), asg,
                                     tol=1e-16 if reason == "budget" else TOL_STEP,
                                     max_iters=max_iters)
            assert res.stops.tolist() == [res.iterations]
            assert res.reasons.tolist() == [reason]
            assert res.support.shape == (1, 3) and not res.support.any()

    def test_single_row_exhausting_budget(self):
        # row 0 leaves at once; row 1 runs out the budget alone, through advance
        starts = np.array([[1.0, 0.0, 0.0], [0.5, 0.3, 0.2]])
        res = self.check(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)),
                         starts, max_iters=12)
        assert res.stops.tolist() == [0, 12] and not res.converged

    def test_single_row_stops_on_last_allowed_step(self):
        g, asg = InfluenceGraph.cycle(5), InfluenceAssignment(linear(0.49))
        starts = np.vstack([[1.0, 0.0, 0.0, 0.0, 0.0], random_starts(5, 1, 6)])
        _, stop, converged = reference_run(PopulationState(g, tuple(range(5)), starts[1]), asg)
        assert converged
        for budget in (stop, stop + 1):
            self.check(g, asg, starts, max_iters=budget)

    def test_batch_records_no_trace(self):
        g = InfluenceGraph.triangle()
        batch = PopulationState(g, (0, 1, 2), raster(2))
        with pytest.raises(ValueError, match="single state"):
            run_to_convergence(batch, InfluenceAssignment(linear(0.5)), record_trajectory=True)


def connected_graphs(draw, n):
    """A connected graph on n types: a random spanning tree plus random edges."""
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return InfluenceGraph(range(n), sorted(edges))


def weakest_f(asg, graph, d):
    """min over the graph's edges of F_uv(d), written out per family."""
    forms = {"linear": lambda a: a * d, "soft": lambda a: a * d / (1.0 + d)}
    return min(forms[f.family](f.a) for f in (asg.function_for(u, v) for u, v in graph.edges()))


@st.composite
def certified_cases(draw):
    """A connected graph on 2..7 types, a linear/soft mix, a maximal independent
    set S, and a state whose mass outside S is at most half the lightest S mass."""
    n = draw(st.integers(2, 7))
    graph = connected_graphs(draw, n)
    chosen = []
    for v in draw(st.permutations(range(n))):
        if not graph.neighbors(v) & set(chosen):
            chosen.append(v)
    family = st.sampled_from([linear, soft])
    coef = st.floats(0.2, 0.49)
    overrides = {tuple(e): draw(family)(draw(coef)) for e in graph.edges()
                 if draw(st.booleans())}
    asg = InfluenceAssignment(draw(family)(draw(coef)), overrides)
    top = draw(st.lists(st.floats(1.0, 2.0), min_size=len(chosen), max_size=len(chosen)))
    rest = draw(st.lists(st.floats(0.0, 1.0), min_size=n - len(chosen),
                         max_size=n - len(chosen)))
    share = draw(st.floats(0.0, 0.5)) * min(top) / max(sum(rest), 1e-300)
    x = np.empty(n)
    inside = np.isin(np.arange(n), chosen)
    x[inside], x[~inside] = top, np.array(rest) * share
    return graph, asg, x / x.sum(), inside


@st.composite
def tied_states(draw):
    """A connected graph on 1..12 types and a state drawn from few distinct masses."""
    n = draw(st.integers(1, 12))
    graph = connected_graphs(draw, n)
    levels = draw(st.lists(st.sampled_from([0.0, 1e-12, 0.01, 0.1, 0.25, 0.5, 1.0]),
                           min_size=n, max_size=n))
    w = np.array(levels) + np.array(draw(st.lists(st.sampled_from([0.0, 1e-3]),
                                                  min_size=n, max_size=n)))
    return graph, w / w.sum() if w.sum() > 0 else np.full(n, 1.0 / n)


class TestCertificate:
    """The invariant that proves a row's limit support (``_EdgeKernel.certificate``)."""

    @settings(max_examples=60, deadline=None)
    @given(certified_cases())
    def test_certified_state_keeps_the_invariant_and_ends_on_s(self, case):
        graph, asg, x, inside = case
        support = _EdgeKernel(graph, asg).certificate(x[None], THETA_ACTIVE)
        assert support[0].tolist() == inside.tolist()
        light, outside = x[inside].min(), x[~inside].sum()
        rate = light * weakest_f(asg, graph, light - outside)
        bound = np.log(THETA_ACTIVE / outside) / np.log1p(-rate) if outside > THETA_ACTIVE else 0
        steps = int(np.ceil(bound))
        assume(steps <= 20_000)
        trace = [x]
        final = reference_run(PopulationState(graph, tuple(range(len(x))), x), asg, tol=0.0,
                              max_iters=steps, trace=trace)[0]
        trace = np.array(trace)
        m, s_min = trace[:, ~inside].sum(axis=1), trace[:, inside].min(axis=1)
        assert np.all(m < s_min)
        assert np.all(m <= outside * (1.0 - rate) ** np.arange(len(trace)) * (1 + 1e-9))
        assert ((final > THETA_ACTIVE) == inside).all()

    @settings(max_examples=300, deadline=None)
    @given(tied_states(), st.sampled_from([THETA_ACTIVE, 0.05]))
    def test_vectorized_check_matches_the_definition(self, case, theta):
        graph, x = case
        kernel = _EdgeKernel(graph, InfluenceAssignment(linear(0.4)))
        rows = np.vstack([x, x[::-1], x])
        got = kernel.certificate(rows, theta)
        for row, support in zip(rows, got):
            want = certificate_oracle(graph, row, theta) or set()
            assert set(np.flatnonzero(support).tolist()) == want

    def test_gate(self):
        g = InfluenceGraph.path(3)
        for asg in (InfluenceAssignment(cubic(0.4)), InfluenceAssignment(soft(0.9)),
                    InfluenceAssignment(linear(0.4), {(0, 1): cubic(0.3), (1, 2): soft(1.2)})):
            assert _EdgeKernel(g, asg).certifiable
        custom = InfluenceFunction("custom", fn=lambda d: 0.4 * d)
        starts = np.array([[0.1, 0.8, 0.1], [0.45, 0.1, 0.45], [0.3, 0.3, 0.4]])
        for asg in (InfluenceAssignment(custom),
                    InfluenceAssignment(linear(0.4), {(0, 1): custom}),
                    InfluenceAssignment(linear(0.4), {(1, 2): linear(0.0)}),
                    InfluenceAssignment(linear(1.2))):
            kernel = _EdgeKernel(g, asg)
            assert not kernel.certifiable and kernel.certificate(starts, THETA_ACTIVE) is None
            batch = PopulationState(g, (0, 1, 2), starts)
            if asg.sup_abs() > 1.0:         # off the simplex: neither run takes a step
                for certify in (THETA_ACTIVE, None):
                    with pytest.raises(ConfigurationError, match="leave the simplex"):
                        run_to_convergence(batch, asg, max_iters=5000, certify=certify)
                continue
            got = run_to_convergence(batch, asg, max_iters=5000, certify=THETA_ACTIVE)
            want = run_to_convergence(batch, asg, max_iters=5000)
            assert got.limit.x.tobytes() == want.limit.x.tobytes()
            assert got.stops.tolist() == want.stops.tolist()
            assert "certified" not in got.reasons and not got.support.any()

    def test_zero_edge_would_break_the_proof(self):
        # S = {1} dominates path:3, but the 1-2 edge moves nothing: 2 keeps its mass
        asg = InfluenceAssignment(linear(0.4), {(1, 2): linear(0.0)})
        batch = PopulationState(InfluenceGraph.path(3), (0, 1, 2), np.array([[0.1, 0.8, 0.1]]))
        res = run_to_convergence(batch, asg, certify=THETA_ACTIVE)
        assert res.reasons.tolist() == ["l1"]
        assert (res.limit.x[0] > THETA_ACTIVE).tolist() == [False, True, True]

    def test_needs_a_batch(self):
        with pytest.raises(ValueError, match="batch"):
            run_to_convergence(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.4)),
                               certify=THETA_ACTIVE)

    @pytest.mark.parametrize("asg", [InfluenceAssignment(linear(0.49)),
                                     InfluenceAssignment(cubic(0.45)),
                                     InfluenceAssignment(soft(0.9), {(0, 1): cubic(0.4)})])
    def test_rows_leave_with_their_own_state(self, asg):
        g = InfluenceGraph.cycle(5)
        starts = np.vstack([random_starts(5, 40, 7), [[0.5, 0.5, 0, 0, 0], [0.2] * 5]])
        res = run_to_convergence(PopulationState(g, tuple(range(5)), starts), asg,
                                 max_iters=50_000, certify=THETA_ACTIVE)
        for b, x0 in enumerate(starts):
            start, stop = PopulationState(g, tuple(range(5)), x0), int(res.stops[b])
            x, iterations, converged = reference_run(start, asg, max_iters=min(stop + 1, 50_000))
            if res.reasons[b] == "certified" and not (converged and iterations == stop):
                assert stop % _cert_stride(stop) == 0   # certified by the stride test
                x = reference_run(start, asg, tol=0.0, max_iters=stop)[0]
            else:                                       # an L1 stop, certified there or not
                assert (iterations, converged) == (stop, stop < 50_000)
            assert res.limit.x[b].tobytes() == x.tobytes()
            want = certificate_oracle(g, x, THETA_ACTIVE) if res.reasons[b] != "budget" else None
            assert set(np.flatnonzero(res.support[b]).tolist()) == (want or set())
        assert res.reasons.tolist()[-2:] == ["l1", "l1"]
        assert (res.reasons == "certified").sum() >= 38

    def test_rows_do_not_depend_on_their_batch(self):
        g, asg = InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5))
        starts = raster(30)
        whole = run_to_convergence(PopulationState(g, (0, 1, 2), starts), asg,
                                   certify=THETA_ACTIVE)
        assert {"certified", "l1"} <= set(whole.reasons.tolist())
        for lo, hi in [(0, 1), (1, 9), (9, 200), (200, len(starts))]:
            part = run_to_convergence(PopulationState(g, (0, 1, 2), starts[lo:hi]), asg,
                                      certify=THETA_ACTIVE)
            assert part.limit.x.tobytes() == whole.limit.x[lo:hi].tobytes()
            assert part.stops.tolist() == whole.stops[lo:hi].tolist()
            assert part.reasons.tolist() == whole.reasons[lo:hi].tolist()
            assert part.support.tolist() == whole.support[lo:hi].tolist()

    def test_trial_159_certifies_on_1_3(self):
        start, asg = trial_159_start(), InfluenceAssignment(linear(0.49))
        batch = PopulationState(start.graph, start.ids, start.x[None])
        res = run_to_convergence(batch, asg, certify=THETA_ACTIVE)
        assert res.reasons.tolist() == ["certified"] and res.stops.tolist() == [32]
        assert np.flatnonzero(res.support[0]).tolist() == [1, 3]


class TestMassDrift:
    """A state 1e-9 off the simplex raises on every stepping path."""

    off = np.array([0.5, 0.3, 0.2 + 1e-9])

    def test_single_state(self):
        state = PopulationState(InfluenceGraph.triangle(), (0, 1, 2), self.off.copy())
        with pytest.raises(ArithmeticError):
            run_to_convergence(state, InfluenceAssignment(linear(0.5)))

    def test_batch(self):
        starts = np.array([[0.5, 0.3, 0.2], self.off])
        batch = PopulationState(InfluenceGraph.triangle(), (0, 1, 2), starts)
        with pytest.raises(ArithmeticError):
            run_to_convergence(batch, InfluenceAssignment(linear(0.5)))

    def test_batch_certified_at_step_0(self):
        starts = np.array([[0.8, 0.1, 0.1], [0.8, 0.1, 0.1 + 1e-9]])
        batch = PopulationState(InfluenceGraph.triangle(), (0, 1, 2), starts)
        with pytest.raises(ArithmeticError, match="mass drifted by 1e-09"):
            run_to_convergence(batch, InfluenceAssignment(linear(0.5)),
                               certify=THETA_ACTIVE)

    def test_settle(self):
        state = PopulationState(InfluenceGraph.triangle(), (0, 1, 2), self.off.copy())
        with pytest.raises(ArithmeticError):
            _settled_limit(state, 0, InfluenceAssignment(linear(0.5)), THETA_ACTIVE,
                           TOL_STEP, MAX_ITERS)

    @pytest.mark.parametrize("n", [3, 8])
    def test_migrate_step(self, n):
        x = np.full(n, 1.0 / n)
        x[0] += 1e-9
        state = PopulationState(InfluenceGraph.complete(n), tuple(range(n)), x)
        with pytest.raises(ArithmeticError, match="mass drifted by 1e-09 in one step"):
            migrate_step(state, InfluenceAssignment(linear(0.5)))


def trial_159_start():
    """The cycle:5 start at root seed 71 that runs out the 10^6 budget."""
    g = InfluenceGraph.cycle(5)
    return PopulationState(g, tuple(range(5)), sample_simplex(generator(trial_seed(71, 159)), 5))


class TestAdvance:
    """``advance`` on one state: ``step`` in a loop, bit for bit."""

    def test_trial_159_tail_matches_reference(self):
        start, asg = trial_159_start(), InfluenceAssignment(linear(0.49))
        res = run_to_convergence(start, asg, max_iters=50_000)
        x, iterations, converged = reference_run(start, asg, max_iters=50_000)
        assert res.limit.x.tobytes() == x.tobytes()
        assert (res.iterations, res.converged) == (iterations, converged) == (50_000, False)
        assert 5e-324 in res.limit.x                # the tail reaches subnormal masses

    def test_settle_matches_ndarray_loop(self):
        start, asg = trial_159_start(), InfluenceAssignment(linear(0.49))
        state = run_to_convergence(start, asg, max_iters=50_000).limit
        limit, used, settled = _settled_limit(state, 47_000, asg, THETA_ACTIVE, TOL_STEP,
                                              50_000)
        kernel, x = _EdgeKernel(state.graph, asg), state.x
        for _ in range(3000):
            x = kernel.step(x)[0]
        assert (used, settled) == (50_000, False)
        assert limit.x.tobytes() == x.tobytes()


@st.composite
def batch_advance_cases(draw):
    """A kernel and a batch of 1, 2 or 5 rows, some of them corners, which
    stop at their first step under any tol > 0. The kernel mixes linear and
    soft edges on a connected graph of 2..7 types, adds a cubic edge to such
    a graph, or spans a complete graph on 9 or 10 types."""
    kind = draw(st.sampled_from(["mixed", "cubic", "complete"]))
    family = st.sampled_from([linear, soft])
    coef = st.floats(0.01, 0.99)
    if kind == "complete":
        n = draw(st.integers(9, 10))
        graph = InfluenceGraph.complete(n)
    else:
        n = draw(st.integers(2, 7))
        graph = connected_graphs(draw, n)
    overrides = {tuple(e): draw(family)(draw(coef)) for e in graph.edges()
                 if draw(st.booleans())}
    if kind == "cubic":
        overrides[tuple(graph.edges()[0])] = cubic(draw(coef))
    asg = InfluenceAssignment(draw(family)(draw(coef)), overrides)
    rows = []
    for _ in range(draw(st.sampled_from([1, 2, 5]))):
        if draw(st.booleans()):
            rows.append(np.eye(n)[draw(st.integers(0, n - 1))])
        else:
            w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
            rows.append(w / w.sum())
    return _EdgeKernel(graph, asg), np.array(rows)


class TestBatchAdvance:
    """``advance`` on a batch steps every row as it steps alone, up to the first stop."""

    @settings(max_examples=200, deadline=None)
    @given(batch_advance_cases(), st.sampled_from([1, 3, 40]), st.sampled_from([0.0, 1e-3]))
    def test_rows_step_as_alone(self, case, steps, tol):
        kernel, xs = case
        x, applied, residual, stopped = kernel.advance(xs, steps, tol)
        alone = [kernel.advance(row, steps, tol) for row in xs]
        assert applied == min(a[1] for a in alone)
        assert stopped.dtype == bool and stopped.tolist() == [
            a[3] and a[1] == applied for a in alone]
        upto = [kernel.advance(row, applied, tol) for row in xs]
        assert x.tobytes() == np.array([u[0] for u in upto]).tobytes()
        assert residual == max(u[2] for u in upto)

    def test_one_state_returns_a_bool(self):
        x = np.array([1.0, 0.0, 0.0])
        kernel = _EdgeKernel(InfluenceGraph.triangle(), InfluenceAssignment(linear(0.5)))
        assert kernel.advance(x, 3, 1e-3)[3] is True
        assert kernel.advance(x[None], 3, 1e-3)[3].tolist() == [True]


class TestActiveSet:
    def test_corner(self):
        assert edge_state(1.0, 0.0).active_set() == {0}

    def test_tiny_mass_excluded(self):
        g = InfluenceGraph.triangle()
        s = PopulationState.from_masses(g, [0.5, 0.5 - 1e-12, 1e-12])
        assert s.active_set() == {0, 1}

    def test_uniform_all_active(self):
        s = PopulationState.uniform(InfluenceGraph.triangle())
        assert s.active_set() == {0, 1, 2}

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_nonpositive_thresholds_rejected(self, bad):
        # a NaN compared as "<= 0" would pass: no type active, every set fixed or not
        s = edge_state(0.5, 0.5)
        asg = InfluenceAssignment(linear(0.5))
        with pytest.raises(ValueError, match="theta_active must be positive"):
            s.active_set(bad)
        with pytest.raises(ValueError, match="theta_active must be positive"):
            classify_fixed_point(s, asg, theta_active=bad)
        for check in (is_fixed_point, classify_fixed_point, classify_stability):
            with pytest.raises(ValueError, match="tol_flow must be positive"):
                check(s, asg, tol_flow=bad)


class TestStateValidation:
    def test_bad_sum_rejected(self):
        g = InfluenceGraph.complete(2)
        with pytest.raises(ValueError):
            PopulationState.from_masses(g, [0.6, 0.6])

    def test_negative_rejected(self):
        g = InfluenceGraph.complete(2)
        with pytest.raises(ValueError):
            PopulationState.from_masses(g, [1.2, -0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        g = InfluenceGraph.triangle()
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            PopulationState.from_masses(g, [bad, 0.5, 0.5])
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            PopulationState.from_masses(g, {0: 0.5, 1: bad, 2: 0.5})

    def test_mass_lookup(self):
        g = InfluenceGraph([3, 7], [(3, 7)])
        s = PopulationState.from_masses(g, {3: 0.25, 7: 0.75})
        assert s.mass(7) == 0.75
        with pytest.raises(ValueError):
            s.mass(99)


def nan_influence(x):
    """Custom influence that returns NaN everywhere off zero."""
    return np.where(x == 0.0, 0.0, np.nan)


class TestNaNDrift:
    """A NaN mass or flow fails the drift check on every stepping path."""

    def test_nan_state_raises_on_one_state(self):
        g = InfluenceGraph.triangle()
        with pytest.raises(ArithmeticError, match="drifted by nan"):
            migrate_step(PopulationState(g, (0, 1, 2), np.array([np.nan, 0.5, 0.5])),
                         InfluenceAssignment(linear(0.4)))

    def test_nan_influence_raises_on_one_state_and_a_batch(self):
        asg = InfluenceAssignment(InfluenceFunction("custom", fn=nan_influence))
        g = InfluenceGraph.path(3)
        with pytest.raises(ArithmeticError, match="drifted by nan"):
            run_to_convergence(PopulationState.from_masses(g, [0.5, 0.3, 0.2]), asg)
        batch = PopulationState(g, (0, 1, 2), random_starts(3, 4, 1))
        with pytest.raises(ArithmeticError, match="drifted by nan"):
            run_to_convergence(batch, asg)


class TestKernelFollowsEdits:
    """An evolution run edits its own edge kernel at every birth and death;
    the edited arrays equal a fresh build of the run's graph."""

    ASSIGNMENT = InfluenceAssignment(linear(0.4), {(0, 2): soft(0.9), (1, 3): cubic(0.3),
                                                   (2, 7): cubic(0.2), (5, 9): linear(0.1)})

    @pytest.mark.parametrize("policy", REWIRING_POLICIES)
    def test_followed_kernel_equals_fresh_build(self, policy):
        rng = np.random.default_rng(11)
        births = EvolutionConfig(p=1.0, assignment=self.ASSIGNMENT)
        deaths = EvolutionConfig(epsilon=1e-6, rewiring=policy, assignment=self.ASSIGNMENT)
        most_groups = 0
        for start in (InfluenceGraph.path(4), InfluenceGraph.star(5), InfluenceGraph.complete(4)):
            g = start.copy()
            run = _Run.of(PopulationState.uniform(g), births)
            for step in range(120):
                if len(g) >= 2 and rng.random() < 0.45:
                    dying = int(rng.integers(len(g)))     # the one type at or below epsilon
                    run.x = np.full(run.n, (1.0 - 1e-9) / (run.n - 1))
                    run.x[dying] = 1e-9
                    want = run.ids[dying]
                    assert [d.type_id for d in death_phase(run, deaths)] == [want]
                else:
                    assert birth_phase(run, births, RunStreams(step), step) is not None
                fresh = _EdgeKernel(g, self.ASSIGNMENT)
                assert_same_kernel(run, fresh)
                x = rng.dirichlet(np.ones(len(g)))
                np.testing.assert_array_equal(run.step(x)[0], fresh.step(x)[0])
                most_groups = max(most_groups, len(run._groups))
        assert most_groups >= 3             # the per-edge overrides were in play

    def test_batch_bins_step_as_a_fresh_kernel(self):
        # ``net`` keeps the bins of its largest batch: a smaller batch slices
        # them, a larger one rebuilds them, and a birth or a death drops them
        rng = np.random.default_rng(3)
        g = InfluenceGraph.complete(4)          # two of the overrides are edges

        def assert_steps_as_fresh(kernel, rows):
            x = rng.dirichlet(np.ones(kernel.n), rows)
            got, want = kernel.step(x), _EdgeKernel(g, self.ASSIGNMENT).step(x)
            assert [got[0].tobytes(), got[1].tobytes(), got[2]] == \
                [want[0].tobytes(), want[1].tobytes(), want[2]]

        kernel = _EdgeKernel(g, self.ASSIGNMENT)
        for rows in (5, 2, 5, 9):
            assert_steps_as_fresh(kernel, rows)
        assert len(kernel._bins[0]) == 9 * kernel.m
        births = EvolutionConfig(p=1.0, assignment=self.ASSIGNMENT)
        run = _Run.of(PopulationState.uniform(g), births)
        assert_steps_as_fresh(run, 9)
        assert birth_phase(run, births, RunStreams(0), 0) is not None        # _append
        for rows in (4, 9):
            assert_steps_as_fresh(run, rows)
        run.x = np.full(run.n, (1.0 - 1e-9) / (run.n - 1))
        run.x[2] = 1e-9
        deaths = EvolutionConfig(epsilon=1e-6, assignment=self.ASSIGNMENT)
        assert len(death_phase(run, deaths)) == 1                            # _remove
        for rows in (4, 9):
            assert_steps_as_fresh(run, rows)

    def test_edge_order_keeps_canonical_sums(self):
        # bincount over (larger, smaller) order equals it over canonical order
        rng = np.random.default_rng(5)
        for _ in range(50):
            state, asg, _, _ = random_setup(rng)
            kernel = _EdgeKernel(state.graph, asg)
            edges = state.graph.edges()
            iu = np.array([u for u, v in edges], dtype=np.intp)
            iv = np.array([v for u, v in edges], dtype=np.intp)
            x, n = state.x, len(state.x)
            flows = x[iu] * x[iv] * asg.default._eval_unchecked(x[iu] - x[iv])
            want = np.bincount(iu, flows, n) - np.bincount(iv, flows, n)
            np.testing.assert_array_equal(kernel.net(kernel.flows(x)), want)
