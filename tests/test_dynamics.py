"""Migration map: flows, steps, potentials, fixed points, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionflow import (InfluenceAssignment, InfluenceFunction, InfluenceGraph,
                         PopulationState, active_set, classify_fixed_point, cubic, flow,
                         is_fixed_point, linear, local_potential_psi,
                         migrate_step, potential_phi, run_to_convergence, soft)
from opinionflow.dynamics import MAX_ITERS, THETA_ACTIVE, TOL_STEP, _EdgeKernel, kernel_for
from opinionflow.graph import REWIRING_POLICIES, choose_attachment
from opinionflow.errors import NotAFixedPointError
from opinionflow.harness import _settled_limit, sample_simplex
from opinionflow.seeding import generator, trial_seed

from .helpers import edge_state, flow_oracle, path_acb, random_setup, reference_run


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
        res = run_to_convergence(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)))
        assert np.all(np.diff(res.phi_trace) >= -1e-14)

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
                                 max_iters=max_iters, record_phi=False)
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
            assert (res.iterations, res.converged, res.stops) == (iterations, converged, None)

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
        with pytest.raises(ValueError):
            run_to_convergence(batch, InfluenceAssignment(linear(0.5)))


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
            run_to_convergence(batch, InfluenceAssignment(linear(0.5)), record_phi=False)

    def test_settle(self):
        state = PopulationState(InfluenceGraph.triangle(), (0, 1, 2), self.off.copy())
        with pytest.raises(ArithmeticError):
            _settled_limit(state, 0, InfluenceAssignment(linear(0.5)), THETA_ACTIVE,
                           TOL_STEP, MAX_ITERS)

    @pytest.mark.parametrize("n", [3, 8])      # the float path, then the ndarray path
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


@st.composite
def float_path_cases(draw):
    """A connected graph on 2..7 types, a linear/soft mix, a state and a dead zone."""
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}      # a spanning tree
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    coef = st.floats(0.01, 0.99)
    family = st.sampled_from([linear, soft])
    overrides = {e: draw(family)(draw(coef)) for e in sorted(edges) if draw(st.booleans())}
    asg = InfluenceAssignment(draw(family)(draw(coef)), overrides)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    tiny = draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    w[tiny] = 0.0
    x = w / w.sum()
    for i in tiny:
        x[i] = draw(st.sampled_from([0.0, 5e-324]))
    edge = draw(st.sampled_from(sorted(edges)))
    delta = draw(st.sampled_from([0.0, 0.05, abs(x[edge[0]] - x[edge[1]])]))
    return InfluenceGraph(range(n), sorted(edges)), asg, x, delta


class TestFloatPath:
    """``advance`` on a float plan gives the bits of the ndarray ``step``."""

    @staticmethod
    def both(graph, asg):
        floats, arrays = _EdgeKernel(graph, asg), _EdgeKernel(graph, asg)
        arrays._plan = None
        assert floats._plan is not None
        return floats, arrays

    @settings(max_examples=300, deadline=None)
    @given(float_path_cases(), st.sampled_from([1, 2, 37]), st.sampled_from([0.0, 1e-3]))
    def test_equals_ndarray_path(self, case, steps, tol):
        graph, asg, x, delta = case
        floats, arrays = self.both(graph, asg)
        got = floats.advance(x, steps, tol, delta)
        want = arrays.advance(x, steps, tol, delta)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
        x_new, flows, residual = arrays.step(x, delta)
        once = floats.advance(x, 1, delta=delta)
        assert once[0].tobytes() == x_new.tobytes()
        assert once[2] == residual and once[3] == bool(np.any(flows != 0.0))

    def test_dead_zone_edge_at_exactly_delta(self):
        g = InfluenceGraph.path(3)
        x = np.array([0.5, 0.3, 0.2])
        for kernel in self.both(g, InfluenceAssignment(soft(0.9))):
            x_new, applied, _, active, _ = kernel.advance(x, 1, delta=x[1] - x[2])
            assert active and applied == 1
            assert x_new[2] == x[2]                 # the 1-2 edge sat at |d| == delta
            x_new, _, _, active, _ = kernel.advance(x, 1, delta=0.2)
            assert not active and x_new.tobytes() == x.tobytes()

    def test_gate(self):
        assert _EdgeKernel(InfluenceGraph.complete(7), InfluenceAssignment(soft(0.9)))._plan
        assert _EdgeKernel(InfluenceGraph.path(8), InfluenceAssignment(linear(0.4)))._plan is None
        custom = InfluenceFunction("custom", fn=lambda d: 0.4 * d)
        for f in (cubic(0.4), custom):
            asg = InfluenceAssignment(linear(0.4), {(1, 2): f})
            assert _EdgeKernel(InfluenceGraph.path(3), asg)._plan is None

    def test_evolving_kernel_crosses_the_gate(self):
        g = InfluenceGraph.path(7)
        kernel = _EdgeKernel(g, InfluenceAssignment(linear(0.4)))
        assert kernel._plan is not None
        kernel.add_type({6})
        assert kernel._plan is None
        kernel.remove_type(3)
        assert kernel._plan == _EdgeKernel(g, kernel.assignment)._plan is not None

    def test_trial_159_tail_matches_reference(self):
        start, asg = trial_159_start(), InfluenceAssignment(linear(0.49))
        res = run_to_convergence(start, asg, max_iters=50_000, record_phi=False)
        x, iterations, converged = reference_run(start, asg, max_iters=50_000)
        assert res.limit.x.tobytes() == x.tobytes()
        assert (res.iterations, res.converged) == (iterations, converged) == (50_000, False)
        assert 5e-324 in res.limit.x                # subnormal masses on the float path

    def test_settle_matches_ndarray_loop(self):
        start, asg = trial_159_start(), InfluenceAssignment(linear(0.49))
        state = run_to_convergence(start, asg, max_iters=50_000, record_phi=False).limit
        limit, used, settled = _settled_limit(state, 47_000, asg, THETA_ACTIVE, TOL_STEP,
                                              50_000)
        kernel, x = _EdgeKernel(state.graph, asg), state.x
        for _ in range(3000):
            x = kernel.step(x)[0]
        assert (used, settled) == (50_000, False)
        assert limit.x.tobytes() == x.tobytes()


class TestActiveSet:
    def test_corner(self):
        assert active_set(edge_state(1.0, 0.0)) == {0}

    def test_tiny_mass_excluded(self):
        g = InfluenceGraph.triangle()
        s = PopulationState.from_masses(g, [0.5, 0.5 - 1e-12, 1e-12])
        assert active_set(s) == {0, 1}

    def test_uniform_all_active(self):
        s = PopulationState.uniform(InfluenceGraph.triangle())
        assert active_set(s) == {0, 1, 2}


class TestStateValidation:
    def test_bad_sum_rejected(self):
        g = InfluenceGraph.complete(2)
        with pytest.raises(ValueError):
            PopulationState.from_masses(g, [0.6, 0.6])

    def test_negative_rejected(self):
        g = InfluenceGraph.complete(2)
        with pytest.raises(ValueError):
            PopulationState.from_masses(g, [1.2, -0.2])

    def test_mass_lookup(self):
        g = InfluenceGraph([3, 7], [(3, 7)])
        s = PopulationState.from_masses(g, {3: 0.25, 7: 0.75})
        assert s.mass(7) == 0.75
        with pytest.raises(ValueError):
            s.mass(99)


def _edge_functions(kernel):
    fns = [None] * kernel.m
    for f, idx in kernel._groups:
        for e in idx:
            fns[e] = f
    return fns


def assert_same_kernel(a, b):
    assert a.ids == b.ids and (a.n, a.m) == (b.n, b.m)
    for got, want in ((a.iu, b.iu), (a.iv, b.iv)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert all(f is g for f, g in zip(_edge_functions(a), _edge_functions(b), strict=True))
    assert a._plan == b._plan


class TestKernelFollowsEdits:
    ASSIGNMENT = InfluenceAssignment(linear(0.4), {(0, 2): soft(0.9), (1, 3): cubic(0.3),
                                                   (2, 7): cubic(0.2), (5, 9): linear(0.1)})

    @pytest.mark.parametrize("policy", REWIRING_POLICIES)
    def test_followed_kernel_equals_fresh_build(self, policy):
        rng = np.random.default_rng(11)
        most_groups = 0
        for start in (InfluenceGraph.path(4), InfluenceGraph.star(5), InfluenceGraph.complete(4)):
            g = start.copy()
            kernel = _EdgeKernel(g, self.ASSIGNMENT)
            for _ in range(120):
                if len(g) >= 2 and rng.random() < 0.45:
                    ids = g.vertex_list()
                    kernel.remove_type(ids[rng.integers(len(ids))], policy)
                else:
                    kernel.add_type(choose_attachment(g, "random-subset", rng))
                fresh = _EdgeKernel(g, self.ASSIGNMENT)
                assert_same_kernel(kernel, fresh)
                state = PopulationState(g, kernel.ids, rng.dirichlet(np.ones(len(g))))
                assert kernel_for(state, self.ASSIGNMENT, kernel) is kernel
                np.testing.assert_array_equal(kernel.step(state.x)[0], fresh.step(state.x)[0])
                most_groups = max(most_groups, len(kernel._groups))
        assert most_groups >= 3             # the per-edge overrides were in play

    def test_stale_kernel_is_not_followed(self):
        g = InfluenceGraph.path(4)
        kernel = _EdgeKernel(g, self.ASSIGNMENT)
        g.add_edge(0, 3)                    # an edit the kernel did not see
        kernel.add_type({1})
        kernel.remove_type(2)
        assert kernel.n == 4 and kernel.m == 3
        state = PopulationState.uniform(g)
        rebuilt = kernel_for(state, self.ASSIGNMENT, kernel)
        assert rebuilt is not kernel
        assert_same_kernel(rebuilt, _EdgeKernel(g, self.ASSIGNMENT))

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
