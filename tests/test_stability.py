"""Jacobian formulas, spectral projection, and fixed-point classification."""

import numpy as np
import pytest

from opinionflow import (InfluenceAssignment, InfluenceGraph, PopulationState,
                         check_diagonal_dominance, classify_stability, cubic,
                         eigenvalues, jacobian, jacobian_fd, linear,
                         projected_jacobian)
from opinionflow.errors import NotAFixedPointError

from .helpers import edge_state, match_multisets, random_setup


class TestJacobian:
    def test_hand_values_interior(self):
        J = jacobian(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)))
        np.testing.assert_allclose(J, [[1.16, -0.06], [-0.16, 1.06]])

    def test_hand_values_corner_fixed_point(self):
        J = jacobian(edge_state(1.0, 0.0), InfluenceAssignment(linear(0.5)))
        np.testing.assert_allclose(J, [[1.0, 0.5], [0.0, 0.5]])

    def test_hand_values_balanced_fixed_point(self):
        J = jacobian(edge_state(0.5, 0.5), InfluenceAssignment(linear(0.5)))
        np.testing.assert_allclose(J, [[1.125, -0.125], [-0.125, 1.125]])

    def test_no_edges_gives_identity(self):
        g = InfluenceGraph([0, 1, 2])
        s = PopulationState.uniform(g)
        np.testing.assert_array_equal(jacobian(s, InfluenceAssignment(linear(0.5))),
                                      np.eye(3))

    def test_column_sums_are_one(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            state, asg, _, _ = random_setup(rng)
            J = jacobian(state, asg)
            np.testing.assert_allclose(J.sum(axis=0), 1.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            state, asg, _, _ = random_setup(rng)
            J = jacobian(state, asg)
            J_fd = jacobian_fd(state, asg)
            tol = np.maximum(1e-6, 1e-4 * np.abs(J))
            assert np.all(np.abs(J - J_fd) <= tol)

    def test_cubic_matches_fd(self):
        g = InfluenceGraph.cycle(4)
        s = PopulationState.from_masses(g, [0.4, 0.3, 0.2, 0.1])
        asg = InfluenceAssignment(cubic(0.6))
        assert np.max(np.abs(jacobian(s, asg) - jacobian_fd(s, asg))) < 1e-5


class TestProjection:
    def test_interior_example(self):
        J = np.array([[1.16, -0.06], [-0.16, 1.06]])
        np.testing.assert_allclose(projected_jacobian(J, 1), [[1.22]])

    def test_corner_example(self):
        J = np.array([[1.0, 0.5], [0.0, 0.5]])
        np.testing.assert_allclose(projected_jacobian(J, 1), [[0.5]])

    def test_balanced_example(self):
        J = np.array([[1.125, -0.125], [-0.125, 1.125]])
        np.testing.assert_allclose(projected_jacobian(J, 1), [[1.25]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            projected_jacobian(np.eye(2), 2)

    def test_spectrum_drops_one_conservation_eigenvalue(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            state, asg, _, _ = random_setup(rng, n_max=6)
            J = jacobian(state, asg)
            full = list(eigenvalues(J).values)
            # remove the eigenvalue closest to 1, once
            k = int(np.argmin([abs(z - 1.0) for z in full]))
            assert abs(full[k] - 1.0) < 1e-8
            full.pop(k)
            for elim in range(len(state.ids)):
                proj = eigenvalues(projected_jacobian(J, elim)).values
                match_multisets(full, proj, 1e-8)


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(np.diag([2.0, 3.0, 5.0]))
        match_multisets(spec.values, [2, 3, 5], 1e-12)
        assert spec.spectral_radius == pytest.approx(5.0)

    def test_symmetric_two_by_two(self):
        spec = eigenvalues(np.array([[1.125, -0.125], [-0.125, 1.125]]))
        match_multisets(spec.values, [1.25, 1.0], 1e-12)

    def test_rotation_complex_pair(self):
        spec = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        match_multisets(spec.values, [1j, -1j], 1e-12)
        assert spec.spectral_radius == pytest.approx(1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))


class TestDiagonalDominance:
    def test_identity(self):
        assert check_diagonal_dominance(np.eye(4))

    def test_all_ones_fails(self):
        assert not check_diagonal_dominance(np.ones((2, 2)))

    def test_weak_influence_dominant_everywhere(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            state, asg, _, _ = random_setup(rng, diffeo=True)
            assert check_diagonal_dominance(jacobian(state, asg))


class TestClassifyStability:
    def test_corner_stable_independent(self):
        rep = classify_stability(edge_state(1.0, 0.0), InfluenceAssignment(linear(0.5)))
        assert rep.spectral_radius_projected == pytest.approx(0.5)
        assert rep.linearly_stable
        assert rep.active_independent

    def test_balanced_unstable_dependent(self):
        rep = classify_stability(edge_state(0.5, 0.5), InfluenceAssignment(linear(0.5)))
        assert rep.spectral_radius_projected == pytest.approx(1.25)
        assert not rep.linearly_stable
        assert not rep.active_independent

    def test_path_endpoint_split_stable(self):
        g = InfluenceGraph([0, 1, 2], [(0, 2), (1, 2)])  # A-C-B
        p = PopulationState.from_masses(g, {0: 0.5, 1: 0.5, 2: 0.0})
        rep = classify_stability(p, InfluenceAssignment(linear(0.5)))
        assert rep.linearly_stable
        assert rep.active_independent
        assert rep.spectral_radius_projected == pytest.approx(1.0)

    def test_requires_fixed_point(self):
        with pytest.raises(NotAFixedPointError):
            classify_stability(edge_state(0.6, 0.4), InfluenceAssignment(linear(0.5)))

    def test_elimination_choice_does_not_matter(self):
        g = InfluenceGraph.path(4)
        p = PopulationState.from_masses(g, [0.5, 0.0, 0.0, 0.5])
        asg = InfluenceAssignment(linear(0.4))
        radii = [classify_stability(p, asg, eliminate=v).spectral_radius_projected
                 for v in range(4)]
        np.testing.assert_allclose(radii, radii[0], atol=1e-9)

    def test_adjacent_equal_mass_always_unstable(self):
        # any fixed point whose active set holds an edge has a projected
        # eigenvalue beyond 1
        asg = InfluenceAssignment(linear(0.49))
        cases = [
            (InfluenceGraph.path(3), [0.5, 0.5, 0.0]),
            (InfluenceGraph.triangle(), [1 / 3] * 3),
            (InfluenceGraph.cycle(4), [0.25] * 4),
            (InfluenceGraph.complete(4), [0.5, 0.5, 0.0, 0.0]),
        ]
        for g, masses in cases:
            p = PopulationState.from_masses(g, masses)
            rep = classify_stability(p, asg)
            assert rep.spectral_radius_projected > 1.0 + 1e-9
            assert not rep.active_independent

    def test_above_512_types(self):
        # the dense eigensolve has no size cap: the star's centre corner
        # classifies at 601 types as it does at 6
        asg = InfluenceAssignment(linear(0.4))
        for leaves in (5, 600):
            p = PopulationState.from_masses(InfluenceGraph.star(leaves), [1.0] + [0.0] * leaves)
            rep = classify_stability(p, asg)
            assert len(rep.spectrum_projected.values) == leaves
            assert rep.spectral_radius_projected == pytest.approx(0.6)
            assert rep.linearly_stable
            assert rep.active_independent

    def test_diffeo_flag_tracks_sup(self):
        rep = classify_stability(edge_state(1.0, 0.0), InfluenceAssignment(linear(0.5)))
        assert not rep.diffeo_hypothesis
        rep = classify_stability(edge_state(1.0, 0.0), InfluenceAssignment(linear(0.49)))
        assert rep.diffeo_hypothesis
