import math
import re
import warnings

import numpy as np
import pytest

from coupon_delay import moments, special
from coupon_delay.errors import NumericError
from coupon_delay.limit_laws import (
    Critical,
    FixedM,
    FixedN,
    Supercritical,
    normalization,
)
from coupon_delay.moments import (
    ProblemSize,
    QuadratureConfig,
    asymptotic_moment,
    delta_power_moment,
    exact_dist_small,
    exact_mean_small,
    mean_delay,
    mgf_delta,
    rising_moments,
    variance_delay,
)
from coupon_delay.special import delta_from_exponential, halley, log1mexp


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
        assert delta_power_moment(ProblemSize(1, 1), [2.0])[0].value == pytest.approx(
            2.0, rel=1e-9
        )

    def test_two_coupon_mean(self):
        assert delta_power_moment(ProblemSize(1, 2), [1.0])[0].value == pytest.approx(
            3.0, rel=1e-9
        )

    def test_matches_absorbing_chain(self):
        quad = delta_power_moment(ProblemSize(2, 2), [1.0])[0].value
        oracle = exact_mean_small(ProblemSize(2, 2)).value
        assert quad == pytest.approx(oracle, rel=1e-9)

    def test_noninteger_exponent_matches_extended_precision_quadrature(self):
        # frozen 40-digit direct quadrature of the defining integral
        got = delta_power_moment(ProblemSize(2, 3), [1.5])[0]
        assert got.value == pytest.approx(32.252432639096923182, rel=1e-8)

    def test_fractional_exponent_below_one(self):
        got = delta_power_moment(ProblemSize(2, 3), [0.5])[0]
        assert got.value == pytest.approx(3.0250489078690536449, rel=1e-8)

    def test_error_estimate_is_honest(self):
        res = mean_delay(ProblemSize(1, 100))
        assert abs(res.value - harmonic_mean_delay(100)) <= max(
            10 * res.abs_err, 1e-9 * res.value
        )

    def test_domain_error(self, monkeypatch):
        # every exponent is checked before any quantile is computed, and no
        # exponent computes none
        calls = []
        monkeypatch.setattr(moments, "delta_from_exponential", lambda *a: calls.append(a))
        ps = ProblemSize(1, 2)
        for bad in (0.0, -1.0, True, math.nan, math.inf):
            with pytest.raises(ValueError):
                delta_power_moment(ps, [bad])
            with pytest.raises(ValueError):
                delta_power_moment(ps, [1.5, bad])
        assert delta_power_moment(ps, []) == []
        assert calls == []

    def test_accepts_numpy_reals(self):
        ps = ProblemSize(2, 3)
        expect = delta_power_moment(ps, [2.0])
        assert delta_power_moment(ps, [np.int64(2)]) == expect
        assert delta_power_moment(ps, [np.float64(2.0)]) == expect

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
        got = rising_moments(ProblemSize(1, 1), [2])[0]
        assert got.value == pytest.approx(2.0, rel=1e-9)

    def test_two_coupons(self):
        got = rising_moments(ProblemSize(1, 2), [1])[0]
        assert got.value == pytest.approx(3.0, rel=1e-9)

    def test_single_user(self):
        got = rising_moments(ProblemSize(3, 1), [1])[0]
        assert got.value == pytest.approx(3.0, rel=1e-9)

    def test_identity_with_exact_distribution(self):
        for m, n in [(2, 2), (2, 3), (1, 4)]:
            dist = exact_dist_small(ProblemSize(m, n))
            expect = dist.moment(2) + dist.mean()
            got = rising_moments(ProblemSize(m, n), [2])[0].value
            assert got == pytest.approx(expect, rel=1e-8)

    def test_exact_distribution_rising_moment(self):
        # ExactDistribution.rising_moment is the exact reference that
        # perfbench checks every moments row against
        for m, n in [(2, 3), (3, 4)]:
            dist = exact_dist_small(ProblemSize(m, n))
            assert dist.rising_moment(1) == dist.mean()
            for r in (1, 2, 3):
                got = rising_moments(ProblemSize(m, n), [r])[0].value
                assert dist.rising_moment(r) == pytest.approx(got, rel=1e-9)

    def test_lower_bound(self):
        for m, n, r in [(2, 3, 1), (3, 2, 2), (4, 4, 3)]:
            value = rising_moments(ProblemSize(m, n), [r])[0].value
            assert value >= (m * n) ** r * (1.0 - 1e-12)

    def test_rejects_fractional_order(self):
        for r in (1.5, True):
            with pytest.raises(ValueError):
                rising_moments(ProblemSize(1, 2), [r])


class TestRisingMoments:
    @pytest.mark.parametrize(
        "m, n, orders",
        [
            (1, 10**6, [1, 2]),
            (5, 1000, [1, 2, 3]),
            (10**6, 10, [1, 2, 3]),
            (2, 3, [3, 1, 2, 1]),
            (3, 10, [2.5, 0.5, 1.0, 7.25, 0.5]),
        ],
    )
    def test_equals_separate_orders_exactly(self, m, n, orders):
        ps = ProblemSize(m, n)
        integer = all(isinstance(r, int) for r in orders)
        moment = rising_moments if integer else delta_power_moment
        shared = moment(ps, orders)
        separate = [moment(ps, [r])[0] for r in orders]
        assert [(x.value, x.abs_err) for x in shared] == [
            (x.value, x.abs_err) for x in separate
        ]

    def test_shares_kernel_evaluations(self, monkeypatch):
        # One quantile call per moment call, on the largest exponent's grid
        # of int(4 (44 + 3 s)) + 1 nodes: 213 at s = 3, 207 at s = 2.5
        sizes = []
        quantiles = moments.delta_from_exponential

        def counted(m, n, e):
            sizes.append(np.size(e))
            return quantiles(m, n, e)

        monkeypatch.setattr(moments, "delta_from_exponential", counted)
        ps = ProblemSize(5, 1000)
        rising_moments(ps, [3])
        rising_moments(ps, [1, 2, 3])
        delta_power_moment(ps, [2.5, 0.5, 1.0])
        assert sizes == [213, 213, 207]

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
        got = rising_moments(ProblemSize(m, n), [r])[0]
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
        assert rising_moments(ps, [np.int64(1)]) == rising_moments(ps, [1])
        assert rising_moments(ps, []) == []

    def test_orders_up_to_the_largest_double_at_one_coupon(self):
        # At (1, 1) Delta is a unit exponential and E[Delta^r] = r!, which
        # fits in a double up to r = 170.  Q^r alone overflows at the grid's
        # far end from r = 119 on; the integrand is formed as one
        # exponential, so these orders come out right and warn of nothing
        # (warnings are errors under the test settings)
        orders = range(119, 171)
        cfg = QuadratureConfig()
        for r, got in zip(orders, rising_moments(ProblemSize(1, 1), orders, cfg)):
            assert got.value == pytest.approx(math.factorial(r), rel=cfg.rel_tol)

    @pytest.mark.parametrize("m, n, r", [(1, 1, 171), (1000, 1000, 60)])
    def test_overflowing_order_computes_no_quantile(self, monkeypatch, m, n, r):
        # E[Delta^r] >= Gamma(r + 1) (at (1, 1)) and >= (m n)^r (at (1e3, 1e3))
        # pass the largest double here, so the order fails before any grid,
        # also after a valid one
        calls = []
        monkeypatch.setattr(moments, "delta_from_exponential", lambda *a: calls.append(a))
        for orders in ([r], [1, r]):
            with pytest.raises(NumericError, match="exceeds the largest double"):
                rising_moments(ProblemSize(m, n), orders)
        assert calls == []


def _square(x, level):
    """x^2 - level with its first two derivatives, for ``halley``."""
    return x * x - level, 2.0 * x, np.full_like(x, 2.0)


def _one(value):
    """A one-element array, which takes ``halley``'s array path."""
    return np.array([value], dtype=np.float64)


# halley's two paths: Python floats take its 0-d loop, one-element arrays
# its array loop.  Every TestCrossing case runs on both.
_BOTH_FORMS = (float, _one)


def _first(x):
    """The point ``halley`` evaluated, a float or a one-element array."""
    return float(np.ravel(x)[0])


class TestCrossing:
    def test_brackets_the_crossing(self):
        for form in _BOTH_FORMS:
            evaluations = []

            def g(x, level):
                evaluations.append(x)
                return _square(x, level)

            u, step = halley(g, form(10.0), form(1.0), form(4.0), form(1e-7), "unused")
            assert u + step == pytest.approx(math.sqrt(10.0), rel=1e-15)
            assert abs(step) <= 1e-7
            # the first evaluation is at the lower end alone; the upper end is
            # never evaluated
            assert np.ravel(evaluations[0]).tolist() == [1.0]
            assert all(4.0 not in np.ravel(x) for x in evaluations)
            assert len(evaluations) <= 6

    def test_brackets_an_increasing_g(self):
        cube = lambda x, level: (x**3 - level, 3.0 * x * x, 6.0 * x)
        for form in _BOTH_FORMS:
            u, step = halley(cube, form(10.0), form(0.5), form(4.0), form(1e-7), "unused")
            assert u + step == pytest.approx(10.0 ** (1.0 / 3.0), rel=1e-15)

    @pytest.mark.parametrize(
        "slope", [lambda x: 0.0 * x, lambda x: -2.0 * x], ids=["zero", "wrong-sign"]
    )
    def test_bisects_where_newton_cannot_step(self, slope):
        # A zero slope gives no step and a wrong-signed one a step out of the
        # bracket: each evaluation after the first bisects it instead.  The
        # wrong-signed step falls within tol next to the root, and the
        # search ends there; a zero slope never ends it
        for form in _BOTH_FORMS:
            evaluations = []

            def g(x, level):
                evaluations.append(_first(x))
                return x * x - level, slope(x), np.full_like(x, 2.0)

            args = (g, form(10.0), form(1.0), form(4.0), form(1e-7), "no step")
            if slope(1.0) == 0.0:
                with pytest.raises(NumericError, match="no step"):
                    halley(*args)
                assert len(evaluations) == 100
            else:
                u, step = halley(*args)
                assert u + step == pytest.approx(math.sqrt(10.0), abs=1e-6)
            lo, hi = 1.0, 4.0
            for x in evaluations[1:]:
                assert x == 0.5 * lo + 0.5 * hi
                lo, hi = (x, hi) if x * x < 10.0 else (lo, x)
            assert hi - lo <= 1e-6

    def test_a_zero_halley_denominator_bisects(self):
        # f = 1, f' = 1, f'' = 2 puts 1 - f f'' / (2 f'^2) at 0: the array
        # path's step is inf and the float path's division raises, and both
        # bisect instead, to the root at 0
        for form in _BOTH_FORMS:
            evaluations = []

            def g(x, level):
                evaluations.append(_first(x))
                return x - level, np.ones_like(x), 2.0 * (x - level)

            u, step = halley(g, form(0.0), form(-3.0), form(2.0), form(1e-7), "x", form(1.0))
            assert evaluations == [1.0, -1.0, 0.0]
            assert u == 0.0 and step == 0.0

    def test_a_step_onto_a_bracket_end_bisects(self):
        # The root of the linear g lies on lo itself: each exact Newton step
        # lands on lo, which is outside the open bracket, so the search
        # bisects toward it until the step is within tol
        for form in _BOTH_FORMS:
            evaluations = []

            def g(x, level):
                evaluations.append(_first(x))
                return x - level, np.ones_like(x), np.zeros_like(x)

            u, step = halley(g, form(1.0), form(1.0), form(4.0), form(1e-7), "x", form(3.0))
            assert evaluations[:4] == [3.0, 2.0, 1.5, 1.25]
            assert u + step == 1.0 and 0.0 < -step <= 1e-7

    def test_gives_up_when_the_steps_only_creep(self):
        # g rises to 5 at x = 5 and stays there, below the level 6, while
        # the slope claims it keeps rising: the root lies past hi = 8, the
        # steps keep leaving the bracket and their bisections creep up to
        # it, so after 100 evaluations the search stops with an error
        for form in _BOTH_FORMS:
            calls = 0

            def g(x, level):
                nonlocal calls
                calls += 1
                return np.minimum(x, 5.0) - level, np.ones_like(x), np.zeros_like(x)

            with pytest.raises(NumericError, match="flat"):
                halley(g, form(6.0), form(1.0), form(8.0), form(1e-7), "flat")
            assert calls == 100

    def test_a_start_above_its_level_raises(self):
        for form in _BOTH_FORMS:
            evaluations = []

            def g(x, level):
                evaluations.append(x)
                return _square(x, level)

            # at once, on the first evaluation
            with pytest.raises(NumericError, match="no crossing"):
                halley(g, form(10.0), form(4.0), form(5.0), form(1e-7), "no crossing")
            assert len(evaluations) == 1
            # a start within tol past the root, where rounding may put a
            # closed-form bound, is the root
            root = np.nextafter(math.sqrt(10.0), 5.0)
            u, step = halley(_square, form(10.0), form(root), form(5.0), form(1e-7), "unused")
            assert u == root and abs(step) <= 1e-15
        levels, lefts = np.array([10.0, 10.0]), np.array([1.0, 4.0])
        with pytest.raises(NumericError, match="no crossing"):
            halley(_square, levels, lefts, lefts + 1.0, 1e-7, "no crossing")

    @pytest.mark.parametrize("start", [1.5, 3.0, math.sqrt(10.0), 3.5, 3.99])
    def test_a_start_on_either_side_finds_the_same_root(self, start):
        for form in _BOTH_FORMS:
            evaluations = []

            def g(x, level):
                evaluations.append(x)
                return _square(x, level)

            args = form(10.0), form(1.0), form(4.0), form(1e-7)
            u, step = halley(g, *args, "unused", form(start))
            assert np.ravel(evaluations[0]).tolist() == [start]
            proved = halley(_square, *args, "unused")
            assert u + step == pytest.approx(proved[0] + proved[1], rel=1e-15)
            assert abs(step) <= 1e-7

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf, 0.5, 1.0, 4.0, 7.0])
    def test_a_start_outside_the_bracket_falls_back_to_lo(self, start):
        for form in _BOTH_FORMS:
            evaluations = []

            def g(x, level):
                evaluations.append(x)
                return _square(x, level)

            args = form(10.0), form(1.0), form(4.0), form(1e-7)
            got = halley(g, *args, "unused", form(start))
            assert np.ravel(evaluations[0]).tolist() == [1.0]
            assert got == halley(_square, *args, "unused")

    def test_a_proved_start_above_its_level_still_raises(self):
        # Element 0 starts above the root from an unproved start, which is
        # allowed; element 1 falls back to its lower end, 4, which is past
        # the root: NumericError at the first evaluation
        evaluations = []

        def g(x, level):
            evaluations.append(x)
            return _square(x, level)

        levels, lefts, rights = np.full(2, 10.0), np.array([1.0, 4.0]), np.full(2, 5.0)
        with pytest.raises(NumericError, match="no crossing"):
            halley(g, levels, lefts, rights, 1e-7, "no crossing", np.array([3.5, math.nan]))
        assert len(evaluations) == 1
        for form in _BOTH_FORMS:
            u, step = halley(
                _square, form(10.0), form(1.0), form(5.0), form(1e-7), "unused", form(3.5)
            )
            assert u + step == pytest.approx(math.sqrt(10.0), rel=1e-15)

    def test_a_wrong_lo_under_a_start_above_the_root_raises(self):
        # The root, sqrt(10), lies below lo = 3.5: a start at 4 is above it
        # and is not checked, but every step toward the root leaves the
        # bracket and bisects it toward lo, so no step ever ends the search
        for form in _BOTH_FORMS:
            evaluations = []

            def g(x, level):
                evaluations.append(_first(x))
                return _square(x, level)

            with pytest.raises(NumericError, match="no crossing"):
                halley(g, form(10.0), form(3.5), form(5.0), form(1e-7), "no crossing", form(4.0))
            assert len(evaluations) == 100
            assert min(evaluations) >= 3.5

    def test_ends_as_functions_are_asked_for_where_the_start_misses(self):
        # lo and hi given as functions of indices: g is evaluated at the
        # starts first, and only the elements not done there get ends; each
        # element then searches as with its ends given as arrays
        levels = np.array([4.0, 10.0, 16.0, 30.0])
        starts = np.array([2.0, 3.5, 4.0, 5.0])  # exact, above its root, exact, below
        lows, highs = np.full(4, 1.0), np.full(4, 8.0)
        asked = []

        def ends(values, name):
            def give(index):
                asked.append((name, index.tolist()))
                return values[index]
            return give

        lo, hi = ends(lows, "lo"), ends(highs, "hi")
        u, step = halley(_square, levels, lo, hi, 1e-7, "x", starts)
        assert asked == [("lo", [1, 3]), ("hi", [1, 3])]
        given = halley(_square, levels, lows, highs, 1e-7, "x", starts)
        assert np.array_equal(u, given[0]) and np.array_equal(step, given[1])
        np.testing.assert_allclose(u + step, np.sqrt(levels), rtol=1e-15)

    def test_ends_as_functions_check_a_start_against_them(self):
        # A start whose residual contradicts its ends (positive, below lo)
        # goes on from lo, whose residual must then be negative; a NaN
        # start has every element's ends asked for at once, and that
        # element starts at lo
        evaluations = []

        def g(x, level):
            evaluations.append(x.tolist())
            return _square(x, level)

        def const(value):
            return lambda index: np.full(index.size, value)

        with pytest.raises(NumericError, match="no crossing"):
            halley(g, np.array([10.0]), const(4.0), const(8.0), 1e-7, "no crossing",
                   np.array([3.5]))
        assert evaluations == [[3.5], [4.0]]
        evaluations.clear()
        asked = []

        def lo(index):
            asked.append(index.tolist())
            return np.full(index.size, 1.0)

        u, step = halley(g, np.full(2, 10.0), lo, const(8.0), 1e-7, "x",
                         np.array([3.0, math.nan]))
        assert asked == [[0, 1]] and evaluations[0] == [3.0, 1.0]
        np.testing.assert_allclose(u + step, math.sqrt(10.0), rtol=1e-15)

    def test_array_elements_search_on_their_own(self):
        # Each element's result equals its scalar search, whatever the
        # batch: brackets from 2 to 2e12 wide and different step counts
        levels = np.geomspace(0.5, 1e24, 9)
        lefts = np.linspace(0.5, 2.0, 9) * np.sqrt(levels) / 4.0
        rights = np.sqrt(levels) * np.linspace(1.5, 2.0, 9)
        tol = 1e-7 * lefts
        u, step = halley(_square, levels, lefts, rights, tol, "unused")
        np.testing.assert_allclose(u + step, np.sqrt(levels), rtol=1e-15)
        for i in range(len(levels)):
            for form in _BOTH_FORMS:
                args = (form(a[i]) for a in (levels, lefts, rights, tol))
                assert (u[i], step[i]) == halley(_square, *args, "unused")
        flipped = (levels[::-1], lefts[::-1], rights[::-1], tol[::-1])
        u2, step2 = halley(_square, *flipped, "unused")
        assert np.array_equal(u2, u[::-1]) and np.array_equal(step2, step[::-1])
        square = (a.reshape(3, 3) for a in (levels, lefts, rights, tol))
        u3, step3 = halley(_square, *square, "unused")
        assert np.array_equal(u3, u.reshape(3, 3))
        assert np.array_equal(step3, step.reshape(3, 3))

    def test_float_and_array_paths_agree_bit_for_bit(self):
        # Seeded brackets, levels and starts for g = x^3 + p x - level:
        # both paths make the same evaluations and return the same (u, step)
        # to the bit, or fail at the same evaluation.  Starts at 0 with p = 0
        # give a zero slope, at level 0 a zero residual too, and starts
        # outside the bracket fall back to lo.
        rng = np.random.default_rng(2024)
        outcomes = {"done": 0, "failed": 0}
        for _ in range(400):
            p = rng.choice([0.0, rng.uniform(0.0, 5.0)])
            level = rng.choice([0.0, rng.uniform(-50.0, 50.0)])
            lo, hi = np.sort(rng.uniform(-6.0, 6.0, 2))
            start = rng.choice([None, 0.0, math.nan, rng.uniform(lo - 1.0, hi + 1.0)])
            tol = 10.0 ** rng.uniform(-12.0, -2.0)
            runs = []
            for form in _BOTH_FORMS:
                evaluations = []

                def g(x, level):
                    evaluations.append(_first(x).hex())
                    return x * x * x + p * x - level, 3.0 * x * x + p, 6.0 * x

                given = form(level), form(lo), form(hi), form(tol)
                try:
                    u, step = halley(g, *given, "failed", None if start is None else form(start))
                    result = (_first(u).hex(), _first(step).hex())
                except NumericError as exc:
                    result = str(exc)
                runs.append((result, evaluations))
            assert runs[0] == runs[1], (p, level, lo, hi, start, tol)
            outcomes["failed" if runs[0][0] == "failed" else "done"] += 1
        # both kinds of outcome are exercised
        assert min(outcomes.values()) >= 20, outcomes


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
            assert (integrand <= 1e-16 * rising_moments(ps, [r])[0].value).all()

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The list of kernel calls made from here on, one item per call."""
        calls = []
        kernel = special.erlang_log_sf

        def counted(m, x):
            calls.append(np.size(x))
            return kernel(m, x)

        monkeypatch.setattr(special, "erlang_log_sf", counted)
        return calls

    def test_kernel_calls(self, kernel_calls):
        # Exact kernel calls per block of the Erlang inverse, on the mean's
        # 189-node grid at n = 1, 1000 and 1e6 and on 256 random levels: 1 at
        # m = 1, whose start is exact, 2 at m = 2-4, and 1 from m = 17 on,
        # where Temme's second-order start, within 3.7e-6 in ln x at m = 17,
        # is inside the last step's tolerance.  In between, a block takes 1
        # or 2 as its levels fall.
        levels = log1mexp(np.random.default_rng(4).standard_exponential(256) / 4.0)
        for m, calls in (
            (1, 1), (2, 2), (3, 2), (4, 2), (5, (2, 2, 1, 2)), (10, (2, 1, 1, 2)),
            (17, 1), (20, 1), (40, 1), (41, 1), (82, 1), (90, 1), (93, 1), (100, 1),
            (300, 1), (999, 1), (1000, 1), (30000, 1), (10**6, 1),
        ):
            want = calls if isinstance(calls, tuple) else (calls,) * 4
            got = []
            for n in (1, 1000, 10**6):
                kernel_calls.clear()
                mean_delay(ProblemSize(m, n))
                got.append(len(kernel_calls))
            kernel_calls.clear()
            special.erlang_log_sf_inverse(m, levels)
            got.append(len(kernel_calls))
            assert tuple(got) == want, m

    # Kernel calls per moment grid, which a slower start or search raises:
    # 1 at m = 1, whose start is exact, 2 at m = 2-10 and 1 from m = 17 on.
    # The ids are fixed names, so that a case keeps its name when its bound
    # is tightened.
    @pytest.mark.parametrize(
        "m, most",
        [pytest.param(m, most, id=name) for m, most, name in (
            (1, 1, "1-2"), (2, 2, "2-3"), (3, 2, "3-3"), (4, 2, "4-3"),
            (5, 2, "5-2"), (10, 2, "10-4"), (40, 1, "40-4"), (41, 1, "41-3"),
            (100, 1, "100-3"), (300, 1, "300-2"), (1000, 1, "1000-3"),
            (30000, 1, "30000-3"), (10**6, 1, "1000000-3"),
        )],
    )
    @pytest.mark.parametrize("n", [10, 1000, 10**6])
    def test_moment_grid_kernel_calls(self, kernel_calls, m, most, n):
        rising_moments(ProblemSize(m, n), [1, 2, 3])
        assert len(kernel_calls) <= most

    @pytest.mark.parametrize("m", [20, 100, 10**6])
    @pytest.mark.parametrize("n", [1, 10, 1000, 10**6])
    def test_one_call_blocks_form_no_bracket(self, monkeypatch, kernel_calls, m, n):
        # The inverse asks for its proved ends only for the levels that its
        # start leaves undone; a block done in one kernel call forms none
        ends = []

        def counted(bound):
            def spy(m, level):
                ends.append(np.size(level))
                return bound(m, level)
            return spy

        for name in ("below_crossing", "above_crossing"):
            monkeypatch.setattr(special, name, counted(getattr(special, name)))
        rising_moments(ProblemSize(m, n), [1, 2, 3])
        assert len(kernel_calls) == 1
        assert ends == []

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

    @pytest.mark.parametrize(
        "m, n, nz", [(1000, 1, 0.74), (1000, 1, 0.8), (1000, 2, 0.9), (1000, 2, 0.95)]
    )
    def test_overflow_by_jensen_says_so(self, m, n, nz):
        # z m n > ln(largest double), so E[e^{z Delta}] >= e^{z m n}
        # overflows; that is said before any scan looks for the peak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="exceeds the largest double"):
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

    def test_unknown_regime_is_rejected(self):
        with pytest.raises(TypeError):
            asymptotic_moment(ProblemSize(2, 100), "super", 1)

    def test_fixed_m_mean_examples(self):
        # the fixed-m mean expansion is the limit law's center + gamma scale
        def mean(m, n):
            norm = normalization(FixedM(m), m, n)
            return norm.center + float(np.euler_gamma) * norm.scale

        n = 10**4
        base = mean(1, n)
        assert base == pytest.approx(n * (math.log(n) + np.euler_gamma), rel=1e-12)
        two = mean(2, n)
        assert two - base == pytest.approx(n * math.log(math.log(n)), rel=1e-12)
        three = mean(3, n)
        assert three - two == pytest.approx(
            n * (math.log(math.log(n)) - math.log(2.0)), rel=1e-10
        )

    def test_fixed_m_domain(self):
        with pytest.raises(ValueError):
            normalization(FixedM(2), 2, 2)  # n <= e
        with pytest.raises(ValueError):
            normalization(FixedM(2), True, 100)

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
