import math
import re
import warnings

import numpy as np
import pytest

from coupon_delay import moments, special
from coupon_delay.errors import NumericError
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
from coupon_delay.special import delta_from_exponential, newton_bracket


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

    def test_rel_tol_below_the_rounding_floor_raises(self):
        # abs_err includes a 1e-14 relative rounding floor, which no shorter
        # step removes
        ps = ProblemSize(2, 3)
        assert mean_delay(ps, QuadratureConfig(rel_tol=2e-14)).abs_err < 2e-14 * 10
        with pytest.raises(NumericError, match="missed rel_tol"):
            mean_delay(ps, QuadratureConfig(rel_tol=1e-15))


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
        # A box on (1/3, 2/3) is not analytic, so the sum at step 1/4 and its
        # every-other-node subsum differ by far more than rel_tol, and the
        # rule gives up with its sum and that difference in the message
        y = 0.25 * np.arange(5)
        box = ((y > 1.0 / 3.0) & (y < 2.0 / 3.0)).astype(float)
        with pytest.raises(NumericError, match="trapezoid sum") as info:
            moments._trapezoid(box, 0.25, 1e-9)
        found = re.findall(r"sum (\S+) .* by (\S+)", str(info.value))
        total, moved = map(float, found[0])
        assert moved > 1e-9 * total
        assert abs(total - 1.0 / 3.0) <= moved


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
        # Counts quantile nodes: orders 1 and 2 use a prefix of order 3's
        nodes = 0
        quantiles = moments.delta_from_exponential

        def counted(m, n, e):
            nonlocal nodes
            nodes += np.size(e)
            return quantiles(m, n, e)

        monkeypatch.setattr(moments, "delta_from_exponential", counted)
        ps = ProblemSize(5, 1000)
        rising_moment(ps, 3)
        alone, nodes = nodes, 0
        rising_moments(ps, [1, 2, 3])
        assert 0 < nodes <= alone

    @pytest.mark.parametrize("m, n", [(10**5, 100), (3 * 10**4, 10**3), (2000, 10**5)])
    def test_large_shape_mean_against_mpmath(self, m, n):
        # An independent oracle: n (x_front + Int 1 - (1 - Q(m, x))^n dx)
        # with mpmath's incomplete gamma at 30 digits, over the window where
        # ln Q(m, x) falls from ln(45/n) (1 - F^n = 1 to 3e-20 below it) to
        # ln(1e-16/n)
        mp = pytest.importorskip("mpmath")
        ps = ProblemSize(m, n)
        got = rising_moments(ps, [1])[0]
        with mp.workdps(30):
            log_sf = lambda x: mp.log(mp.gammainc(m, x, mp.inf, regularized=True))
            bracket = (m - 10 * math.sqrt(m), m + 100 * math.sqrt(m))
            x_front, x_tail = (
                mp.findroot(
                    lambda x: log_sf(x) - level, bracket, solver="bisect", verify=False
                )
                for level in (math.log(45.0 / n), math.log(1e-16 / n))
            )
            inside = mp.quad(
                lambda x: 1 - (1 - mp.gammainc(m, x, mp.inf, regularized=True)) ** n,
                mp.linspace(x_front, x_tail, 9),
            )
            want = float(n * (x_front + inside))
        assert abs(got.value - want) <= got.abs_err + 1e-15 * abs(got.value)

    @pytest.mark.parametrize("m, n, r", [(2, 3, 12), (2, 3, 20), (3, 10, 20)])
    def test_high_orders_against_mpmath(self, m, n, r):
        # r n^r Int_0^inf (1 - F_m(t)^n) t^(r-1) dt at 40 digits
        mp = pytest.importorskip("mpmath")
        got = rising_moment(ProblemSize(m, n), r)
        with mp.workdps(40):
            above = lambda t: -mp.expm1(
                n * mp.log1p(-mp.gammainc(m, t, mp.inf, regularized=True))
            )
            inside = mp.quad(
                lambda t: above(t) * t ** (r - 1), [0, 1, 3, 10, 20, 40, 80, mp.inf]
            )
            want = float(r * mp.mpf(n) ** r * inside)
        assert abs(got.value - want) <= got.abs_err
        assert abs(got.value - want) <= 1e-9 * got.value

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
            return x * x

        lo, hi = newton_bracket(g, lambda x, _: 2.0 * x, 10.0, 1.0, 1e18, "unused")
        assert lo * lo <= 10.0 < hi * hi
        assert 0.0 < hi - lo <= 1e-9 * hi
        # 2 doublings, then one evaluation per Newton step
        assert evaluations[:3] == [1.0, 2.0, 4.0]
        assert len(evaluations) <= 3 + 8

    def test_brackets_an_increasing_g(self):
        lo, hi = newton_bracket(
            lambda x: x**3, lambda x, _: 3.0 * x * x, 10.0, 0.5, 1e18, "unused"
        )
        assert lo**3 <= 10.0 < hi**3
        assert 0.0 < hi - lo <= 1e-9 * hi

    @pytest.mark.parametrize(
        "slope", [lambda x, _: 0.0, lambda x, _: -2.0 * x], ids=["zero", "wrong-sign"]
    )
    def test_bisects_where_newton_cannot_step(self, slope):
        # A zero slope, or one of the wrong sign, whose steps leave the bracket
        lo, hi = newton_bracket(lambda x: x * x, slope, 10.0, 1.0, 1e18, "unused")
        assert lo * lo <= 10.0 < hi * hi
        assert hi - lo <= 1e-9 * hi

    def test_gives_up_when_the_steps_only_creep(self):
        # g rises to 5 at x = 5 and stays there, one ulp above the level, and
        # the slope claims it keeps rising: each Newton step from the right
        # end moves by the quarter-width nudge alone, so after 200 steps the
        # search stops with an error instead of creeping across the bracket
        calls = 0

        def g(x):
            nonlocal calls
            calls += 1
            return np.minimum(x, 5.0)

        with pytest.raises(NumericError, match="flat"):
            newton_bracket(g, lambda x, _: 1.0, np.nextafter(5.0, 0.0), 1.0, 1e18, "flat")
        assert calls == 1 + 3 + 200  # the start, 3 doublings, every Newton step

    def test_array_elements_search_on_their_own(self):
        # Each element's bracket equals its scalar search, whatever the
        # batch: levels needing 1 to 40 doublings and different step counts
        levels = np.geomspace(0.5, 1e24, 9)
        starts = np.linspace(0.5, 2.0, 9)
        g = lambda x: x * x
        slope = lambda x, _: 2.0 * x
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
                lambda x: 0.0, lambda x, _: 0.0, 1.0, 1.0, 1e3, "search diverged"
            )


class TestTailWindow:
    @pytest.mark.parametrize("m", [1, 2, 40, 41, 1000, 10**6])
    @pytest.mark.parametrize("n", [1, 10, 60, 10**6])
    def test_brackets_both_levels(self, m, n):
        # The moments' grid, y in [-4, 40 + 3 r], holds the mass of
        # Q(y)^r exp(-y - e^-y): at both ends the integrand is below 1e-16
        # of the moment, under the sum's rounding floor of 1e-14
        ps = ProblemSize(m, n)
        for r in (1, 3):
            ends = np.array([-4.0, 40.0 + 3.0 * r])
            q = delta_from_exponential(m, n, np.exp(-ends))
            integrand = q**r * np.exp(-ends - np.exp(-ends))
            assert (integrand <= 1e-16 * rising_moment(ps, r).value).all()

    def test_kernel_calls(self, monkeypatch):
        calls = 0
        kernel = special.erlang_log_sf

        def counted(m, x):
            nonlocal calls
            calls += 1
            return kernel(m, x)

        monkeypatch.setattr(special, "erlang_log_sf", counted)
        mean_delay(ProblemSize(5, 1000))
        assert calls <= 20  # one Newton search over all 189 nodes

    def test_fixed_step_meets_any_tolerance(self):
        # The step is never refined: the sum at step 1/4 and its every-other-
        # node subsum agree so closely that the estimate d^2 S + 1e-14 S stays
        # within 1e-12 S (the worst is 1.07e-14 S, at (41, 1), r = 1)
        for m in (1, 2, 41, 1000, 10**6):
            for n in (1, 2, 1000, 10**6):
                for res in rising_moments(ProblemSize(m, n), range(1, 21)):
                    assert res.abs_err <= 1e-12 * res.value

    def test_fixed_mgf_step_meets_any_tolerance(self, monkeypatch):
        # The same for the MGF's grid, read from every trapezoid sum it
        # takes (the worst is 2.1e-14 S, at (1e5, 2), n z = -1e-3); values
        # the underflow bound proves to be 0 take no sum
        sums = []
        trapezoid = moments._trapezoid

        def spy(values, h, rel_tol):
            sums.append(trapezoid(values, h, rel_tol))
            return sums[-1]

        monkeypatch.setattr(moments, "_trapezoid", spy)
        for m in (1, 2, 5, 41, 1000, 10**5, 10**6):
            positive = [1e-3] if m <= 10**5 else []  # e^(z n m) overflows above
            positive += [0.5, 0.9] if m <= 5 else []  # Q saturates first above
            for n in (1, 2, 1000, 10**6):
                for nz in [-1e6, -1e3, -1.0, -1e-3] + positive:
                    mgf_delta(ProblemSize(m, n), nz / n)
        assert len(sums) > 100
        for total, err in sums:
            assert err <= 1e-12 * total


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

    @pytest.mark.parametrize(
        "n, nz",
        [(n, nz) for n in (10, 1000, 10**6) for nz in (-1.0, 0.3, 0.5, 0.9)]
        + [(1000, -100.0), (50, -1000.0)],
    )
    def test_single_coverage_product(self, n, nz):
        # m = 1: Delta = n sum_k E_k / k, so E[e^{z Delta}] = prod_k k / (k - n z),
        # summed in logs so that nothing cancels; (1, 1e6) at n z = 0.9 is
        # 2389685.198, and (50, -1000) is 8.7e-87
        z = nz / n
        k = np.arange(1.0, n + 1.0)
        want = math.exp(-np.sum(np.log1p(-z * n / k)))
        assert abs(mgf_delta(ProblemSize(1, n), z) - want) <= 1e-10 * want

    def test_far_negative_z_never_reads_one(self):
        # Past the resolved range the value falls to 0 (exact: 9e-23, 9e-29
        # and 9e-35), where 1 + z n Int [1 - F^n] e^{n z t} dt read 1 at k = 1e6
        for k in (1e4, 1e5, 1e6):
            try:
                value = mgf_delta(ProblemSize(2, 3), -k / 3)
            except NumericError:
                continue
            assert 0.0 <= value <= 1e-20

    def test_underflow_reads_zero(self):
        # (1 + 1)^-10000 and (1 + 10)^-1000 underflow: the log integrand is
        # below z n x - 1 past the scan's lower end, which proves it at once
        assert mgf_delta(ProblemSize(10**4, 1), -1.0) == 0.0
        assert mgf_delta(ProblemSize(1000, 1), -10.0) == 0.0

    @pytest.mark.parametrize(
        "m, n, nz", [(10**4, 1, 0.1), (10**4, 1000, 0.1), (10**6, 3, 1e-3), (1000, 1, 0.51)]
    )
    def test_overflow_raises_without_a_warning(self, m, n, nz):
        # Values above the largest double: the first three peak above it, and
        # at (1000, 1) the peak is e^709 but the sum of the nodes overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                mgf_delta(ProblemSize(m, n), nz / n)

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
