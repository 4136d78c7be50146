"""Influence function families: evaluation, admissibility, slope bounds."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opinionflow import (InfluenceAssignment, InfluenceFunction, InfluenceGraph,
                         cubic, linear, soft, validate)
from opinionflow.errors import ConfigurationError


class TestEval:
    def test_linear_figure_values(self):
        f = linear(0.5)
        assert f.eval(0.2) == pytest.approx(0.1)
        assert f.eval_deriv(0.2) == pytest.approx(0.5)

    def test_zero_at_origin_every_family(self):
        for f in (linear(0.7), cubic(0.4), soft(0.9)):
            assert f.eval(0.0) == 0.0

    def test_cubic_hand_values(self):
        f = cubic(0.4)
        assert f.eval(-0.5) == pytest.approx(-0.05)
        assert f.eval_deriv(-0.5) == pytest.approx(0.3)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            linear(0.5).eval(1.5)

    def test_vector_eval(self):
        xs = np.array([-1.0, 0.0, 0.5])
        np.testing.assert_allclose(cubic(0.4).eval(xs), [-0.4, 0.0, 0.05])

    @pytest.mark.parametrize("f", [linear(0.3), cubic(0.8), soft(1.2)])
    def test_deriv_matches_finite_difference(self, f):
        xs = np.linspace(-0.999, 0.999, 1001)
        h = 1e-6
        fd = (f.eval(np.clip(xs + h, -1, 1)) - f.eval(np.clip(xs - h, -1, 1))) / (2 * h)
        np.testing.assert_allclose(f.eval_deriv(xs), fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("f", [linear(0.5), cubic(0.4), soft(0.8)])
    def test_oddness_exact(self, f):
        xs = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(f.eval(-xs), -f.eval(xs), atol=1e-15)

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=-1.0, max_value=1.0))
    def test_linear_slope_anywhere(self, a, x):
        f = linear(a)
        assert f.eval(x) == pytest.approx(a * x)
        assert f.eval_deriv(x) == a


class TestValidate:
    def test_linear_half_is_simplex_only(self):
        rep = validate(linear(0.5))
        assert rep.simplex_admissible
        assert not rep.diffeomorphism_admissible
        assert rep.sup_abs == pytest.approx(0.5)

    def test_linear_049_is_diffeo(self):
        rep = validate(linear(0.49))
        assert rep.diffeomorphism_admissible

    def test_even_function_rejected(self):
        f = InfluenceFunction("custom", fn=lambda x: np.asarray(x) ** 2)
        rep = validate(f)
        assert not rep.odd
        assert not rep.simplex_admissible
        assert rep.failures

    def test_zero_coefficient_is_not_strictly_increasing(self):
        rep = validate(linear(0.0))
        assert rep.monotone and not rep.strictly_increasing
        assert not rep.simplex_admissible
        assert rep.failures == ["F is not strictly increasing"]
        for f in (linear(1e-3), cubic(0.2), soft(0.9)):
            assert validate(f).strictly_increasing

    def test_flat_custom_is_not_strictly_increasing(self):
        f = InfluenceFunction("custom", fn=lambda x: 0.4 * np.clip(np.asarray(x), -0.5, 0.5))
        rep = validate(f)
        assert rep.monotone and not rep.strictly_increasing and not rep.simplex_admissible

    def test_too_strong_rejected(self):
        rep = validate(linear(1.5))
        assert not rep.simplex_admissible


class TestAlphaBounds:
    def test_linear_constant_slope(self):
        asg = InfluenceAssignment(linear(0.5))
        assert asg.alpha_bounds() == (0.5, 0.5)

    def test_cubic_slope_range(self):
        asg = InfluenceAssignment(cubic(0.4))
        a_min, a_max = asg.alpha_bounds()
        assert a_min == pytest.approx(0.0)
        assert a_max == pytest.approx(1.2)

    def test_mixed_edges(self):
        g = InfluenceGraph.path(3)
        asg = InfluenceAssignment(linear(0.1), {(0, 1): linear(0.1), (1, 2): linear(0.3)})
        assert asg.alpha_bounds(g) == (0.1, 0.3)

    def test_bounds_bracket_sampled_derivatives(self):
        rng = np.random.default_rng(3)
        for f in (linear(0.4), cubic(0.7), soft(1.1)):
            asg = InfluenceAssignment(f)
            a_min, a_max = asg.alpha_bounds()
            xs = rng.uniform(-1, 1, 500)
            d = f.eval_deriv(xs)
            assert np.all(d >= a_min - 1e-12)
            assert np.all(d <= a_max + 1e-12)

    def test_custom_grid_fallback(self):
        f = InfluenceFunction("custom", fn=lambda x: 0.3 * np.sin(np.asarray(x)))
        a_min, a_max = InfluenceAssignment(f).alpha_bounds()
        assert a_min == pytest.approx(0.3 * np.cos(1.0), abs=1e-4)
        assert a_max == pytest.approx(0.3, abs=1e-4)


class TestAssignment:
    def test_symmetric_storage(self):
        asg = InfluenceAssignment(linear(0.5), {(3, 1): cubic(0.2)})
        assert asg.function_for(1, 3) is asg.function_for(3, 1)

    def test_default_covers_new_edges(self):
        g = InfluenceGraph.path(3)
        asg = InfluenceAssignment(linear(0.5))
        g.add_type({0})
        for u, v in g.edges():
            assert asg.function_for(u, v).a == 0.5

    def test_json_round_trip(self):
        asg = InfluenceAssignment(linear(0.5), {(0, 1): cubic(0.3)})
        data = asg.to_json_dict()
        back = InfluenceAssignment.from_json_dict(data)
        assert back.function_for(0, 1).family == "cubic"
        assert back.default.a == 0.5

    def test_bare_function_literal(self):
        asg = InfluenceAssignment.from_json_dict({"family": "linear", "a": 0.49})
        assert asg.default.a == 0.49

    @pytest.mark.parametrize("a", [True, "strong", [0.4]])
    def test_malformed_coefficient(self, a):
        with pytest.raises(ConfigurationError, match="a must be a number"):
            InfluenceAssignment.from_json_dict({"family": "linear", "a": a})

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), "nan", "-inf"])
    def test_non_finite_coefficient(self, a):
        with pytest.raises(ConfigurationError, match="a must be finite"):
            InfluenceAssignment.from_json_dict({"family": "linear", "a": a})

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), -0.1])
    def test_coefficient_finite_and_nonnegative(self, a):
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            InfluenceFunction("soft", a)

    def test_bad_family(self):
        with pytest.raises(ConfigurationError):
            InfluenceFunction("quartic", 0.5)
