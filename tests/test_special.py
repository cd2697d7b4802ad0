import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupon_delay.special import (
    berry_esseen_gap,
    erlang_cdf,
    erlang_log_sf,
    gumbel_cdf,
    normal_cdf,
    partial_exp_sum,
    tricomi_log_sf,
)


class TestPartialExpSum:
    def test_single_term(self):
        assert partial_exp_sum(1, 7.3) == 1.0

    def test_zero_argument(self):
        assert partial_exp_sum(4, 0.0) == 1.0

    def test_three_terms(self):
        assert partial_exp_sum(3, 2.0) == pytest.approx(5.0, rel=1e-14)

    def test_rejects_zero_shape(self):
        with pytest.raises(ValueError):
            partial_exp_sum(0, 1.0)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            partial_exp_sum(2, -0.5)


class TestErlangLogSf:
    def test_exponential_tail_is_exact(self):
        assert erlang_log_sf(1, 5.0) == -5.0

    def test_shape_two(self):
        # survival of Erlang(2,1) at 1 is 2/e
        assert erlang_log_sf(2, 1.0) == pytest.approx(math.log(2.0) - 1.0, rel=1e-14)

    def test_deep_tail_matches_high_precision_quadrature(self):
        # ln( int_200^inf y^99 e^-y dy / 99! ), frozen from a 50-digit
        # evaluation of the regularized upper incomplete gamma function.
        assert erlang_log_sf(100, 200.0) == pytest.approx(
            -33.926896945131679417, rel=1e-12
        )

    def test_zero_is_zero(self):
        assert erlang_log_sf(17, 0.0) == 0.0

    def test_shape_validation(self):
        for m in (0, 2.0, True):
            with pytest.raises(ValueError):
                erlang_log_sf(m, 1.0)
        assert erlang_log_sf(np.int64(2), 1.0) == erlang_log_sf(2, 1.0)

    def test_extreme_arguments_stay_finite(self):
        for m, x in [(10**6, 1e7), (10**6, 10**6 + 1001.0), (10**5, 3.0), (3, 1e7)]:
            value = erlang_log_sf(m, x)
            assert math.isfinite(value)
            assert value <= 0.0

    def test_monotone_nonincreasing_large_shape(self):
        m = 10**6
        xs = np.linspace(0, 3e6, 31)
        vals = [erlang_log_sf(m, float(x)) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_partial_sum_identity(self):
        # exp(log_sf) == S_m(x) e^-x wherever the right side is evaluable
        for m in (1, 2, 5, 13, 30):
            for x in (0.25, 1.0, 4.0, 11.5, 30.0):
                direct = partial_exp_sum(m, x) * math.exp(-x)
                assert math.exp(erlang_log_sf(m, x)) == pytest.approx(
                    direct, rel=1e-10
                )

    def test_derivative_recurrence(self):
        # d/dx [S_m(x) e^-x] = -x^(m-1) e^-x / (m-1)!
        for m, x in [(2, 1.5), (5, 4.0), (12, 10.0), (40, 55.0)]:
            h = 1e-4 * max(1.0, x)
            fd = (
                math.exp(erlang_log_sf(m, x + h)) - math.exp(erlang_log_sf(m, x - h))
            ) / (2 * h)
            exact = -math.exp((m - 1) * math.log(x) - x - math.lgamma(m))
            assert fd == pytest.approx(exact, rel=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=500),
        x=st.floats(min_value=0.0, max_value=2000.0),
        bump=st.floats(min_value=1e-3, max_value=100.0),
    )
    def test_is_a_log_survival_function(self, m, x, bump):
        value = erlang_log_sf(m, x)
        assert value <= 0.0
        assert not math.isnan(value)
        assert erlang_log_sf(m, x + bump) <= value + 1e-12 * abs(value)


class TestErlangCdf:
    def test_at_zero(self):
        assert erlang_cdf(1, 0.0) == 0.0

    def test_median_of_exponential(self):
        assert erlang_cdf(1, math.log(2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_shape_three(self):
        expected = 1.0 - math.exp(-3.0) * (1.0 + 3.0 + 4.5)
        assert erlang_cdf(3, 3.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 50])
    def test_valid_cdf_on_grid(self, m):
        xs = np.linspace(0.0, 10.0 * m, 200)
        vals = [erlang_cdf(m, float(x)) for x in xs]
        assert vals[0] == 0.0
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.999


class TestTricomi:
    @pytest.mark.parametrize("m", [100, 1000, 10000])
    @pytest.mark.parametrize("t", [5.0, 10.0, 20.0])
    def test_accuracy_window(self, m, t):
        x = m + t * math.sqrt(m)
        exact = erlang_log_sf(m, x)
        approx = tricomi_log_sf(m, x)
        bound = 5.0 * max(m / (x - m) ** 2, 1.0 / m)
        assert abs(approx - exact) / abs(exact) <= bound

    def test_agrees_in_moderate_tail(self):
        exact = erlang_log_sf(100, 200.0)
        assert abs(tricomi_log_sf(100, 200.0) - exact) / abs(exact) <= 0.05

    def test_rejects_arguments_outside_window(self):
        with pytest.raises(ValueError):
            tricomi_log_sf(100, 105.0)  # x - m < sqrt(m)
        with pytest.raises(ValueError):
            tricomi_log_sf(100, 90.0)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_limits(self):
        assert normal_cdf(math.inf) == 1.0
        assert normal_cdf(-math.inf) == 0.0

    def test_upper_quantile(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_tail_precision(self):
        # erfc-based evaluation is good to machine precision
        assert normal_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-10)


class TestBerryEsseen:
    def test_shape_one_at_zero(self):
        assert berry_esseen_gap(1, 0.0) == pytest.approx(1.0 - normal_cdf(1.0), abs=1e-12)

    def test_gap_shrinks_with_shape(self):
        assert berry_esseen_gap(100, 100.0) <= 0.1
        assert berry_esseen_gap(10**4, 10**4) <= 0.01

    @pytest.mark.parametrize("m", [100, 400, 2500, 10**4])
    def test_empirical_clt_bound(self, m):
        xs = m + math.sqrt(m) * np.linspace(-4.0, 4.0, 17)
        worst = max(berry_esseen_gap(m, float(x)) for x in xs)
        assert worst <= 1.0 / math.sqrt(m)


class TestGumbelCdf:
    def test_at_zero(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_limits(self):
        assert gumbel_cdf(math.inf) == 1.0
        assert gumbel_cdf(-800.0) == 0.0

    def test_median(self):
        assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-14)
