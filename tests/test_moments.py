import math

import numpy as np
import pytest

from coupon_delay import moments
from coupon_delay.errors import NumericError, QuadratureError
from coupon_delay.limit_laws import Critical, FixedM, FixedN, Supercritical
from coupon_delay.moments import (
    ProblemSize,
    QuadratureConfig,
    asymptotic_mean_fixed_m,
    asymptotic_moment,
    delta_power_moment,
    exact_dist_small,
    exact_mean_small,
    mean_delay,
    mgf_delta,
    rising_moment,
    rising_moments,
    variance_delay,
)
from coupon_delay.special import erlang_log_sf, newton_bracket


def harmonic_mean_delay(n):
    """n * H_n: closed form for the single-coverage mean."""
    return n * sum(1.0 / k for k in range(1, n + 1))


class TestProblemSize:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSize(0, 3)
        with pytest.raises(ValueError):
            ProblemSize(2, 0)
        with pytest.raises(ValueError):
            ProblemSize(1.5, 3)
        for m, n in [(True, 3), (2, True), (True, True)]:
            with pytest.raises(ValueError):
                ProblemSize(m, n)
        assert ProblemSize(np.int64(2), np.uint32(3)).n == 3


class TestQuadratureConfig:
    def test_rel_tol_window(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.5)
        QuadratureConfig(rel_tol=1e-2)  # boundary allowed


class TestDeltaPowerMoment:
    def test_exponential_second_moment(self):
        assert delta_power_moment(ProblemSize(1, 1), 2.0).value == pytest.approx(
            2.0, rel=1e-9
        )

    def test_two_coupon_mean(self):
        assert delta_power_moment(ProblemSize(1, 2), 1.0).value == pytest.approx(
            3.0, rel=1e-9
        )

    def test_matches_absorbing_chain(self):
        quad = delta_power_moment(ProblemSize(2, 2), 1.0).value
        oracle = exact_mean_small(ProblemSize(2, 2)).value
        assert quad == pytest.approx(oracle, rel=1e-9)

    def test_noninteger_exponent_matches_extended_precision_quadrature(self):
        # frozen 40-digit direct quadrature of the defining integral
        got = delta_power_moment(ProblemSize(2, 3), 1.5)
        assert got.value == pytest.approx(32.252432639096923182, rel=1e-8)

    def test_fractional_exponent_below_one(self):
        got = delta_power_moment(ProblemSize(2, 3), 0.5)
        assert got.value == pytest.approx(3.0250489078690536449, rel=1e-8)

    def test_error_estimate_is_honest(self):
        res = mean_delay(ProblemSize(1, 100))
        assert abs(res.value - harmonic_mean_delay(100)) <= max(
            10 * res.abs_err, 1e-9 * res.value
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            delta_power_moment(ProblemSize(1, 2), 0.0)
        with pytest.raises(ValueError):
            delta_power_moment(ProblemSize(1, 2), -1.0)
        with pytest.raises(ValueError):
            delta_power_moment(ProblemSize(1, 2), True)

    def test_accepts_numpy_reals(self):
        ps = ProblemSize(2, 3)
        expect = delta_power_moment(ps, 2.0)
        assert delta_power_moment(ps, np.int64(2)) == expect
        assert delta_power_moment(ps, np.float64(2.0)) == expect

    def test_method_tag(self):
        assert mean_delay(ProblemSize(1, 2)).method == "quadrature"

    def test_panel_cap_raises_with_the_estimate(self):
        # A step at 1/3, never a panel edge, keeps its panel's error up
        step = lambda x: (x > 1.0 / 3.0).astype(float)
        with pytest.raises(QuadratureError) as info:
            moments._adaptive_gauss(step, 0.0, 1.0, 1e-9, 16)
        assert info.value.abs_err > 1e-9 * info.value.value
        assert abs(info.value.value - 2.0 / 3.0) <= info.value.abs_err


class TestRisingMoment:
    def test_degenerate_instance(self):
        # D(1,1) = 1 surely, so D(D+1) = 2
        assert rising_moment(ProblemSize(1, 1), 2).value == pytest.approx(2.0, rel=1e-9)

    def test_two_coupons(self):
        assert rising_moment(ProblemSize(1, 2), 1).value == pytest.approx(3.0, rel=1e-9)

    def test_single_user(self):
        assert rising_moment(ProblemSize(3, 1), 1).value == pytest.approx(3.0, rel=1e-9)

    def test_identity_with_exact_distribution(self):
        for m, n in [(2, 2), (2, 3), (1, 4)]:
            dist = exact_dist_small(ProblemSize(m, n))
            expect = dist.moment(2) + dist.mean()
            got = rising_moment(ProblemSize(m, n), 2).value
            assert got == pytest.approx(expect, rel=1e-8)

    def test_lower_bound(self):
        for m, n, r in [(2, 3, 1), (3, 2, 2), (4, 4, 3)]:
            value = rising_moment(ProblemSize(m, n), r).value
            assert value >= (m * n) ** r * (1.0 - 1e-12)

    def test_rejects_fractional_order(self):
        for r in (1.5, True):
            with pytest.raises(ValueError):
                rising_moment(ProblemSize(1, 2), r)


class TestRisingMoments:
    @pytest.mark.parametrize(
        "m, n, orders",
        [
            (1, 10**6, [1, 2]),
            (5, 1000, [1, 2, 3]),
            (10**6, 10, [1, 2, 3]),
            (2, 3, [3, 1, 2, 1]),
        ],
    )
    def test_equals_separate_orders_exactly(self, m, n, orders):
        ps = ProblemSize(m, n)
        shared = rising_moments(ps, orders)
        separate = [rising_moment(ps, r) for r in orders]
        assert [(x.value, x.abs_err) for x in shared] == [
            (x.value, x.abs_err) for x in separate
        ]

    def test_shares_kernel_evaluations(self, monkeypatch):
        # Counts abscissas, not calls: one call evaluates a whole panel.
        points = 0
        kernel = moments.erlang_log_sf

        def counted(m, x):
            nonlocal points
            points += np.size(x)
            return kernel(m, x)

        monkeypatch.setattr(moments, "erlang_log_sf", counted)
        ps = ProblemSize(5, 1000)
        for r in (1, 2, 3):
            rising_moment(ps, r)
        separate, points = points, 0
        rising_moments(ps, [1, 2, 3])
        assert points <= 0.4 * separate

    @pytest.mark.parametrize("m, n", [(10**5, 100), (3 * 10**4, 10**3), (2000, 10**5)])
    def test_large_shape_mean_against_mpmath(self, m, n):
        # An independent oracle: n (x_front + Int 1 - (1 - Q(m, x))^n dx)
        # over the same window, with mpmath's incomplete gamma at 30 digits.
        mp = pytest.importorskip("mpmath")
        ps = ProblemSize(m, n)
        got = rising_moments(ps, [1])[0]
        x_front, x_tail = moments._tail_window(ps)
        with mp.workdps(30):
            inside = mp.quad(
                lambda x: 1 - (1 - mp.gammainc(m, x, mp.inf, regularized=True)) ** n,
                mp.linspace(x_front, x_tail, 9),
            )
            want = float(n * (x_front + inside))
        assert abs(got.value - want) <= got.abs_err + 1e-15 * abs(got.value)

    def test_validates_every_order(self):
        ps = ProblemSize(1, 2)
        for orders in ([1, 0], [1, 1.5], [True], [2, np.int64(-1)]):
            with pytest.raises(ValueError):
                rising_moments(ps, orders)
        assert rising_moments(ps, [np.int64(1)]) == [rising_moment(ps, 1)]
        assert rising_moments(ps, []) == []


class TestCrossing:
    def test_brackets_the_crossing(self):
        evaluations = []

        def g(x):
            evaluations.append(x)
            return -x * x

        lo, hi = newton_bracket(g, lambda x, _: -2.0 * x, -10.0, 1.0, 1e18, "unused")
        assert -lo * lo > -10.0 >= -hi * hi
        assert hi - lo <= 1e-9 * hi
        # 2 doublings, then one evaluation per Newton step
        assert evaluations[:3] == [1.0, 2.0, 4.0]
        assert len(evaluations) <= 3 + 8

    def test_brackets_an_increasing_g(self):
        lo, hi = newton_bracket(
            lambda x: x**3, lambda x, _: 3.0 * x * x, 10.0, 0.5, 1e18, "unused"
        )
        assert lo**3 > 10.0 >= hi**3
        assert 0.0 < lo - hi <= 1e-9 * lo

    @pytest.mark.parametrize(
        "slope", [lambda x, _: 0.0, lambda x, _: 2.0 * x], ids=["zero", "wrong-sign"]
    )
    def test_bisects_where_newton_cannot_step(self, slope):
        # A zero slope, or one of the wrong sign, whose steps leave the bracket
        lo, hi = newton_bracket(lambda x: -x * x, slope, -10.0, 1.0, 1e18, "unused")
        assert -lo * lo > -10.0 >= -hi * hi
        assert hi - lo <= 1e-9 * hi

    def test_gives_up_when_the_steps_only_creep(self):
        # g reaches the level at x = 5 and stays on it, and the slope claims
        # it keeps falling: each Newton step from the right end moves by the
        # quarter-width nudge alone, so the search stops with an error
        # instead of creeping across the bracket
        with pytest.raises(NumericError, match="flat"):
            g = lambda x: -np.minimum(x, 5.0)
            newton_bracket(g, lambda x, _: -1.0, -5.0, 1.0, 1e18, "flat")

    def test_array_elements_search_on_their_own(self):
        # Each element's bracket equals its scalar search, whatever the
        # batch: levels needing 1 to 40 doublings and different step counts
        levels = -np.geomspace(0.5, 1e24, 9)
        starts = np.linspace(0.5, 2.0, 9)
        g = lambda x: -x * x
        slope = lambda x, _: -2.0 * x
        lo, hi = newton_bracket(g, slope, levels, starts, 1e18, "unused")
        for i in range(len(levels)):
            assert (lo[i], hi[i]) == newton_bracket(
                g, slope, levels[i], starts[i], 1e18, "unused"
            )
        lo2, hi2 = newton_bracket(g, slope, levels[::-1], starts[::-1], 1e18, "unused")
        assert np.array_equal(lo2, lo[::-1]) and np.array_equal(hi2, hi[::-1])
        square = (levels.reshape(3, 3), starts.reshape(3, 3))
        lo3, hi3 = newton_bracket(g, slope, *square, 1e18, "unused")
        assert np.array_equal(lo3, lo.reshape(3, 3))
        assert np.array_equal(hi3, hi.reshape(3, 3))

    def test_gives_up_past_the_limit(self):
        with pytest.raises(NumericError, match="search diverged"):
            newton_bracket(
                lambda x: 0.0, lambda x, _: 0.0, -1.0, 1.0, 1e3, "search diverged"
            )


class TestTailWindow:
    @pytest.mark.parametrize("m", [1, 2, 40, 41, 1000, 10**6])
    @pytest.mark.parametrize("n", [1, 10, 60, 10**6])
    def test_brackets_both_levels(self, m, n):
        # Each end lies on its side of its level and within 1e-9 of the
        # crossing; at n = 60 the front crossing lies below m.
        x_front, x_tail = moments._tail_window(ProblemSize(m, n))
        front_level = math.log(45.0) - math.log(n)
        if front_level < 0.0:
            assert erlang_log_sf(m, x_front) >= front_level
            assert erlang_log_sf(m, x_front * (1.0 + 1.000001e-9)) <= front_level
        else:
            assert x_front == 0.0
        tail_level = math.log(1e-16 / n)
        assert erlang_log_sf(m, x_tail) <= tail_level
        assert erlang_log_sf(m, x_tail * (1.0 - 1.000001e-9)) > tail_level

    def test_kernel_calls(self, monkeypatch):
        calls = 0
        kernel = moments.erlang_log_sf

        def counted(m, x):
            nonlocal calls
            calls += 1
            return kernel(m, x)

        monkeypatch.setattr(moments, "erlang_log_sf", counted)
        moments._tail_window(ProblemSize(5, 1000))
        assert calls <= 20  # bisection took 66


class TestMeanDelay:
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_harmonic_oracle(self, n):
        assert mean_delay(ProblemSize(1, n)).value == pytest.approx(
            harmonic_mean_delay(n), rel=1e-9
        )


class TestVarianceDelay:
    def test_degenerate(self):
        assert abs(variance_delay(ProblemSize(1, 1)).value) <= 1e-8

    def test_two_coupons(self):
        # D = 1 + shifted Geometric(1/2): variance (1-p)/p^2 = 2
        assert variance_delay(ProblemSize(1, 2)).value == pytest.approx(2.0, rel=1e-7)

    def test_matches_exact_distribution(self):
        dist = exact_dist_small(ProblemSize(2, 2))
        got = variance_delay(ProblemSize(2, 2)).value
        assert got == pytest.approx(dist.variance(), rel=1e-7)


class TestMgf:
    def test_at_zero(self):
        assert mgf_delta(ProblemSize(1, 1), 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_exponential_closed_form(self):
        assert mgf_delta(ProblemSize(1, 1), 0.5) == pytest.approx(2.0, rel=1e-9)

    def test_against_direct_summation(self):
        # for m=1, n=2: P{D = k} = 2^(1-k), k >= 2, and
        # E[e^{z Delta}] = E[(1-z)^{-D}] = sum_k P{D=k} (1-z)^{-k}
        for z in (-2.0, -1.0, 0.25):
            direct = sum(2.0 ** (1 - k) * (1.0 - z) ** -k for k in range(2, 400))
            assert mgf_delta(ProblemSize(1, 2), z) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (2, 8)])
    def test_negative_z_against_exact_chain(self, m, n):
        # E[(1 - z)^{-D}] from the exact law of D, down to 1e-38 at k = 1000
        ps = ProblemSize(m, n)
        dist = exact_dist_small(ps)
        for k in (1, 10, 100, 1000):
            z = -k / n
            want = float(np.dot(dist.pmf, np.exp(-dist.support * math.log1p(-z))))
            assert abs(mgf_delta(ps, z) - want) <= 1e-8 * want

    def test_far_negative_z_never_reads_one(self):
        # Past the resolved range the value falls to 0 (exact: 9e-23, 9e-29
        # and 9e-35), where 1 + z n Int [1 - F^n] e^{n z t} dt read 1 at k = 1e6
        for k in (1e4, 1e5, 1e6):
            try:
                value = mgf_delta(ProblemSize(2, 3), -k / 3)
            except NumericError:
                continue
            assert 0.0 <= value <= 1e-20

    def test_unreachable_tail_raises(self):
        with pytest.raises(NumericError):
            mgf_delta(ProblemSize(1, 1), 1.0 - 1e-12)

    def test_derivative_at_zero_is_mean(self):
        ps = ProblemSize(2, 3)
        mean = mean_delay(ps).value
        h = 1e-6 / mean
        fd = (mgf_delta(ps, h) - mgf_delta(ps, -h)) / (2 * h)
        assert fd == pytest.approx(mean, rel=1e-4)

    def test_domain_error(self):
        for z in (0.25, -math.inf, math.inf, math.nan):  # 0.25 = 1/n
            with pytest.raises(ValueError):
                mgf_delta(ProblemSize(1, 4), z)


class TestExactOracles:
    def test_mean_examples(self):
        assert exact_mean_small(ProblemSize(1, 2)).value == pytest.approx(3.0, rel=1e-12)
        assert exact_mean_small(ProblemSize(1, 3)).value == pytest.approx(5.5, rel=1e-12)
        assert exact_mean_small(ProblemSize(2, 1)).value == pytest.approx(2.0, rel=1e-12)

    def test_mean_method_tag(self):
        assert exact_mean_small(ProblemSize(2, 2)).method == "oracle"

    def test_distribution_is_normalized(self):
        dist = exact_dist_small(ProblemSize(2, 3))
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-11)
        assert dist.tail_mass <= 1e-12
        assert dist.support[0] == 6

    def test_distribution_mean_agrees_with_chain(self):
        for m, n in [(1, 2), (2, 2), (3, 2), (2, 4)]:
            dist = exact_dist_small(ProblemSize(m, n))
            chain = exact_mean_small(ProblemSize(m, n)).value
            assert dist.mean() == pytest.approx(chain, rel=1e-10)

    def test_degenerate_distribution(self):
        dist = exact_dist_small(ProblemSize(2, 1))
        assert dist.support.tolist() == [2]
        assert dist.pmf.tolist() == [1.0]

    def test_state_bound(self):
        with pytest.raises(ValueError):
            exact_mean_small(ProblemSize(100, 30))
        with pytest.raises(ValueError):
            exact_dist_small(ProblemSize(100, 30))


class TestOracleEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_quadrature_matches_chain(self, m, n):
        quad = mean_delay(ProblemSize(m, n)).value
        oracle = exact_mean_small(ProblemSize(m, n)).value
        assert abs(quad - oracle) / oracle <= 1e-8


class TestAsymptotics:
    def test_supercritical_prediction(self):
        assert asymptotic_moment(ProblemSize(1000, 100), Supercritical(), 1) == 1e5

    def test_critical_prediction(self):
        # (alpha/beta) n m at beta=1, n=1e4, m=9; asymptotically this is
        # alpha n ln n (the two differ by m/ln(n) ~ 2.3% here)
        got = asymptotic_moment(ProblemSize(9, 10**4), Critical(1.0), 1)
        assert got == pytest.approx(3.1461932206 * 9 * 10**4, rel=1e-9)
        assert got == pytest.approx(2.898e5, rel=0.05)

    def test_fixed_n_prediction(self):
        assert asymptotic_moment(ProblemSize(50, 1), FixedN(1), 2) == 2500.0

    def test_fixed_m_is_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_moment(ProblemSize(2, 100), FixedM(2), 1)

    def test_fixed_m_mean_examples(self):
        n = 10**4
        base = asymptotic_mean_fixed_m(1, n)
        assert base == pytest.approx(n * (math.log(n) + np.euler_gamma), rel=1e-12)
        two = asymptotic_mean_fixed_m(2, n)
        assert two - base == pytest.approx(n * math.log(math.log(n)), rel=1e-12)
        three = asymptotic_mean_fixed_m(3, n)
        assert three - two == pytest.approx(
            n * (math.log(math.log(n)) - math.log(2.0)), rel=1e-10
        )

    def test_fixed_m_domain(self):
        with pytest.raises(ValueError):
            asymptotic_mean_fixed_m(2, 2)  # n <= e
        with pytest.raises(ValueError):
            asymptotic_mean_fixed_m(True, 100)

    def test_order_validation(self):
        for r in (0, 1.5, True):
            with pytest.raises(ValueError):
                asymptotic_moment(ProblemSize(2, 3), Supercritical(), r)

    def test_supercritical_mean_ratio_decreases_toward_one(self):
        ratios = []
        for n in (50, 200, 1000):
            m = math.ceil(math.log(n) ** 3)
            ratios.append(mean_delay(ProblemSize(m, n)).value / (n * m))
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_critical_mean_ratio(self):
        n = 10**4
        m = round(math.log(n))
        from coupon_delay.alpha import solve_alpha

        alpha = solve_alpha(1.0).alpha
        ratio = mean_delay(ProblemSize(m, n)).value / (alpha * n * math.log(n))
        assert 0.85 <= ratio <= 1.10


class TestMgfMeanConsistency:
    def test_mgf_consistency_at_zero(self):
        for m, n in [(1, 2), (2, 5)]:
            assert mgf_delta(ProblemSize(m, n), 0.0) == pytest.approx(1.0, abs=1e-10)
