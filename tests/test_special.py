import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupon_delay import special
from coupon_delay.limit_laws import StandardGumbel, target_cdf
from coupon_delay.special import (
    above_crossing,
    below_crossing,
    erlang_log_sf,
    erlang_log_sf_inverse,
    log1mexp,
    normal_cdf,
    tricomi_log_sf,
)


def _partial_exp_sum(m, y):
    """S_m(y) = 1 + y + ... + y^(m-1)/(m-1)!, summed directly."""
    return sum(y**k / math.factorial(k) for k in range(m))


def _erlang_cdf(m, x):
    """P{Erlang(m, 1) <= x} from the log survival function."""
    return -math.expm1(erlang_log_sf(m, x))


def _clt_gap(m, x):
    """|P{Erlang(m, 1) > x} - Phi((m - x)/sqrt(m))|, x >= 0."""
    return abs(math.exp(erlang_log_sf(m, x)) - normal_cdf((m - x) / math.sqrt(m)))


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

    @pytest.mark.parametrize("m", [3, 41, 100])
    def test_subnormal_x_gives_no_warning(self, m):
        # x / m rounds to 0 here; its log is floored instead of read as -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert erlang_log_sf(m, 5e-324) == 0.0
            assert (erlang_log_sf(m, np.array([5e-324, 1e-320])) == 0.0).all()

    @pytest.mark.parametrize("m", [1, 2, 40, 41, 1000, 10**6])
    def test_near_the_largest_double_gives_no_warning(self, m):
        # ln sf is about -x there; at m = 1e6 the largest double itself
        # reads -inf, because m (lam - 1 - ln lam) rounds past it
        xs = np.array([1e300, 1e307, sys.float_info.max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [erlang_log_sf(m, float(x)) for x in xs]
            assert erlang_log_sf(m, xs).tolist() == values
        assert values[:2] == pytest.approx(-xs[:2], rel=1e-15)
        last = -math.inf if m == 10**6 else pytest.approx(-xs[2], rel=1e-15)
        assert values[2] == last

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
                direct = _partial_exp_sum(m, x) * math.exp(-x)
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

    @pytest.mark.parametrize("m", [1, 3, 41, 10**6])
    def test_nan_raises(self, m):
        with pytest.raises(ValueError, match="NaN"):
            erlang_log_sf(m, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            erlang_log_sf(m, np.array([1.0, math.nan, 2.0]))

    @pytest.mark.parametrize("m", [1, 3, 41, 10**6])
    def test_infinity_maps_to_minus_infinity(self, m):
        assert erlang_log_sf(m, math.inf) == -math.inf
        got = erlang_log_sf(m, np.array([[math.inf, 0.5 * m], [0.0, math.inf]]))
        assert got.shape == (2, 2)
        assert got[0, 0] == got[1, 1] == -math.inf
        assert got[0, 1] == erlang_log_sf(m, 0.5 * m)
        assert got[1, 0] == 0.0

    @pytest.mark.parametrize("m", [1, 3, 41, 10**6])
    def test_negative_raises(self, m):
        with pytest.raises(ValueError, match="nonnegative"):
            erlang_log_sf(m, -1e-300)
        with pytest.raises(ValueError, match="nonnegative"):
            erlang_log_sf(m, np.array([1.0, -2.0]))

    def test_array_form(self):
        xs = np.array([[0.0, 1.0, 4.0], [9.0, 30.0, 1e7]])
        got = erlang_log_sf(3, xs)
        assert got.shape == xs.shape and got.dtype == np.float64
        assert type(erlang_log_sf(3, 4.0)) is float
        assert type(erlang_log_sf(3, np.float64(4.0))) is float
        assert erlang_log_sf(3, [1.0, 4.0]).tolist() == [got[0, 1], got[0, 2]]
        assert erlang_log_sf(3, np.array([])).shape == (0,)
        assert xs[0, 0] == 0.0  # the caller's array is not written to

    @pytest.mark.parametrize("m", [1, 2, 40, 41, 1000, 10**6])
    def test_elements_are_computed_independently(self, m):
        # Each value is bit-identical as a scalar, alone in an array and at
        # every position of larger arrays, in every branch of the kernel.
        rng = np.random.default_rng(m)
        xs = np.concatenate(
            [
                m * np.array([1e-3, 0.5, 1.0, 2.0, 3.0]),
                m * rng.uniform(0.3, 2.5, 40),
                m + np.sqrt(m) * rng.normal(0.0, 3.0, 40),
                10.0 ** rng.uniform(-3, 7, 40),
            ]
        )
        xs = np.abs(xs)
        scalars = np.array([erlang_log_sf(m, float(x)) for x in xs])
        alone = np.array([erlang_log_sf(m, np.array([x]))[0] for x in xs])
        assert np.array_equal(scalars, alone)
        assert np.array_equal(erlang_log_sf(m, xs), scalars)
        for size in (2, 7, 16, 45):
            for start in range(0, len(xs) - size, 11):
                window = xs[start : start + size]
                assert np.array_equal(
                    erlang_log_sf(m, window), scalars[start : start + size]
                )
        order = rng.permutation(len(xs))
        assert np.array_equal(erlang_log_sf(m, xs[order]), scalars[order])

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


class TestErlangLogSfInverse:
    @pytest.mark.parametrize("m", [1, 2, 3, 40, 41, 1000, 10**6])
    def test_solves_the_level(self, m):
        level = -np.geomspace(1e-20, 700.0, 60)
        x = erlang_log_sf_inverse(m, level)
        assert (np.diff(x) > 0).all()
        # ln sf(x) = level within the bracket's 1e-14 of x, times the hazard
        hazard = np.exp(special.erlang_log_pdf(m, x) - level)
        slack = 1e-14 * x * hazard + 1e-12 * np.abs(level)
        assert (np.abs(erlang_log_sf(m, x) - level) <= slack).all()

    def test_ends_and_domain(self):
        assert erlang_log_sf_inverse(3, 0.0) == 0.0
        assert erlang_log_sf_inverse(3, -math.inf) == math.inf
        x = erlang_log_sf_inverse(1, np.array([[0.0, -1.5], [-math.inf, -3.0]]))
        assert x.shape == (2, 2)
        assert x[0, 0] == 0.0 and x[1, 0] == math.inf
        assert x[0, 1] == pytest.approx(1.5, rel=1e-14)
        assert isinstance(erlang_log_sf_inverse(1, -1.0), float)
        for bad in (0.5, math.nan, [-1.0, math.nan]):
            with pytest.raises(ValueError):
                erlang_log_sf_inverse(2, bad)

    @pytest.mark.parametrize("m", [3, 20, 10**4])
    def test_element_alone_in_a_batch_and_permuted(self, m):
        level = log1mexp(np.random.default_rng(m).standard_exponential(200) / 7.0)
        batch = erlang_log_sf_inverse(m, level)
        order = np.random.default_rng(1).permutation(len(level))
        assert np.array_equal(erlang_log_sf_inverse(m, level[order]), batch[order])
        for i in (0, 57, 199):
            assert erlang_log_sf_inverse(m, level[i]) == batch[i]
            assert erlang_log_sf_inverse(m, level[i : i + 1])[0] == batch[i]

    def test_kernel_calls(self, monkeypatch):
        calls = 0
        kernel = special.erlang_log_sf

        def counted(m, x):
            nonlocal calls
            calls += 1
            return kernel(m, x)

        monkeypatch.setattr(special, "erlang_log_sf", counted)
        level = log1mexp(np.random.default_rng(4).standard_exponential(2000) / 4.0)
        erlang_log_sf_inverse(3, level)
        assert calls <= 10  # 9 at width 1e-12; a width of 4e-16 took 61

    def test_log1mexp(self):
        a = np.array([0.0, 1e-300, 1e-10, math.log(2.0), 1.0, 40.0, 800.0])
        want = [-math.inf, math.log(1e-300), math.log(-math.expm1(-1e-10)),
                -math.log(2.0), math.log(-math.expm1(-1.0)), -math.exp(-40.0), 0.0]
        got = log1mexp(a)
        assert got[0] == -math.inf
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 41, 10**6])
    def test_start_is_below_the_crossing(self, m):
        level = -np.geomspace(1e-300, 700.0, 200)
        assert (erlang_log_sf(m, below_crossing(m, level)) > level).all()

    @pytest.mark.parametrize("m", [1, 2, 40, 41, 1000, 10**6])
    def test_end_is_above_the_crossing(self, m):
        level = -np.geomspace(2.2e-308, 708.0, 200)
        assert (erlang_log_sf(m, above_crossing(m, level)) < level).all()

    @pytest.mark.parametrize("m", [1, 2, 40, 41, 1000, 10**6])
    def test_far_levels_solve_without_warnings(self, m):
        # Far above the mode the slope's log hazard, a difference of two
        # numbers near x, keeps no digit; the bracket still holds the root
        level = -np.geomspace(1e15, 1.797e308, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = erlang_log_sf_inverse(m, level)
        np.testing.assert_allclose(erlang_log_sf(m, x), level, rtol=1e-12)


class TestErlangCdf:
    def test_at_zero(self):
        assert _erlang_cdf(1, 0.0) == 0.0

    def test_median_of_exponential(self):
        assert _erlang_cdf(1, math.log(2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_shape_three(self):
        expected = 1.0 - math.exp(-3.0) * (1.0 + 3.0 + 4.5)
        assert _erlang_cdf(3, 3.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 50])
    def test_valid_cdf_on_grid(self, m):
        xs = np.linspace(0.0, 10.0 * m, 200)
        vals = [_erlang_cdf(m, float(x)) for x in xs]
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
        # (pytest.approx would also accept anything within its default 1e-12)
        want = 6.22096057427178e-16
        assert abs(normal_cdf(-8.0) - want) <= 1e-10 * want


class TestBerryEsseen:
    def test_shape_one_at_zero(self):
        assert _clt_gap(1, 0.0) == pytest.approx(1.0 - normal_cdf(1.0), abs=1e-12)

    def test_gap_shrinks_with_shape(self):
        assert _clt_gap(100, 100.0) <= 0.1
        assert _clt_gap(10**4, 10**4) <= 0.01

    @pytest.mark.parametrize("m", [100, 400, 2500, 10**4])
    def test_empirical_clt_bound(self, m):
        xs = m + math.sqrt(m) * np.linspace(-4.0, 4.0, 17)
        worst = max(_clt_gap(m, float(x)) for x in xs)
        assert worst <= 1.0 / math.sqrt(m)


class TestGumbelCdf:
    """The standard Gumbel CDF, exp(-e^-y), is target_cdf(StandardGumbel(), y)."""

    def test_at_zero(self):
        assert target_cdf(StandardGumbel(), 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_limits(self):
        assert target_cdf(StandardGumbel(), math.inf) == 1.0
        assert target_cdf(StandardGumbel(), -800.0) == 0.0

    def test_median(self):
        median = -math.log(math.log(2.0))
        assert target_cdf(StandardGumbel(), median) == pytest.approx(0.5, rel=1e-14)


@pytest.fixture(scope="module")
def mp():
    return pytest.importorskip("mpmath")


def _reference_log_sf(mp, m, x):
    """ln Q(m, x) from mpmath's regularized incomplete gamma; below the
    mode as log1p(-P), so that tiny values keep their relative accuracy."""
    m, x = mp.mpf(m), mp.mpf(x)
    if x <= m:
        return mp.log1p(-mp.gammainc(m, 0, x, regularized=True))
    return mp.log(mp.gammainc(m, x, mp.inf, regularized=True))


def _accuracy_grid(mp, m):
    """x from 1e-3 m to 1e7 on a log grid, +-40 standard deviations around
    the mode, and both sides of every switch between kernel branches."""
    xs = set(np.geomspace(1e-3 * m, 1e7, 120).tolist())
    xs.update((m + t * math.sqrt(m) for t in np.linspace(-40.0, 40.0, 81)))
    switches = [m] if m <= special._FINITE_SUM_MAX_SHAPE else [
        m * edge for edge in special._TEMME_BAND
    ]
    phi_band = special._TEMME_BAND[1] - 1.0 - math.log(special._TEMME_BAND[1])
    w2 = special._ERFC_ASYMPTOTIC_FROM**2
    if m * phi_band > w2:  # where Temme's erfc switches to its asymptotic form
        switches.append(
            float(mp.findroot(lambda x: x - m - m * mp.log(x / m) - w2, 1.5 * m))
        )
    for x in switches:
        xs.update((np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)))
    return np.array(sorted(x for x in xs if 0.0 < x <= 1e7))


class TestErlangLogSfAccuracy:
    @pytest.mark.parametrize(
        "m", [1, 2, 3, 30, 39, 40, 41, 42, 100, 10**3, 10**4, 10**5, 10**6]
    )
    def test_relative_error_against_mpmath(self, mp, m):
        # The shapes include both sides of the finite-sum / Temme switch
        # (40, 41); the grid covers both tails and every switch in x.
        with mp.workdps(50):
            xs = _accuracy_grid(mp, m)
            got = erlang_log_sf(m, xs)
            worst = 0.0
            for x, value in zip(xs.tolist(), got.tolist()):
                want = _reference_log_sf(mp, m, x)
                if abs(want) < sys.float_info.min:
                    assert abs(value) < 1e-300  # below the normal range: may be 0
                    continue
                worst = max(worst, float(abs((value - want) / want)))
        assert worst <= 1e-12, worst


def _temme_coefficients(mp, rows, cols):
    """d[k][n] of Temme's c_k(eta) = sum_n d[k][n] eta^n, from DLMF 8.12.12:

        d[0][0] = -1/3,  d[0][n] = (n + 2) alpha[n + 2],
        d[k][n] = (-1)^k g[k] d[0][n] + (n + 2) d[k-1][n + 2],

    where lam - 1 = sum_n alpha[n] eta^n inverts eta^2/2 = lam - 1 - ln lam
    and g[k] are the coefficients of Stirling's series Gamma*(a) = sum
    g[k] a^-k.  Power series are carried at the working precision of mp.
    """
    size = cols + 2 * rows + 2

    def mul(a, b):
        return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(size)]

    # eta / mu = sqrt(2 (mu - log1p(mu)) / mu^2) = sqrt(sum_j 2 (-mu)^j / (j + 2))
    inner = [2 * mp.mpf(-1) ** j / (j + 2) for j in range(size)]
    ratio = [mp.mpf(1)] + [mp.mpf(0)] * (size - 1)
    for k in range(1, size):
        square = mp.fsum(ratio[i] * ratio[k - i] for i in range(1, k))
        ratio[k] = (inner[k] - square) / 2
    # Lagrange inversion: alpha[k] = [mu^(k-1)] (mu / eta)^k / k
    inverse = [1 / ratio[0]] + [mp.mpf(0)] * (size - 1)
    for k in range(1, size):
        inverse[k] = -mp.fsum(ratio[i] * inverse[k - i] for i in range(1, k + 1))
    alpha = [mp.mpf(0)] * size
    power = [mp.mpf(1)] + [mp.mpf(0)] * (size - 1)
    for k in range(1, size):
        power = mul(power, inverse)
        alpha[k] = power[k - 1] / k
    # ln Gamma*(a) = sum_j B_2j / (2j (2j - 1) a^(2j - 1)), exponentiated
    log_g = [mp.mpf(0)] * rows
    for j in range(1, rows):
        if 2 * j - 1 < rows:
            log_g[2 * j - 1] = mp.bernoulli(2 * j) / (2 * j * (2 * j - 1))
    g = [mp.mpf(1)] + [mp.mpf(0)] * (rows - 1)
    for k in range(1, rows):
        g[k] = mp.fsum(i * log_g[i] * g[k - i] for i in range(1, k + 1)) / k
    d = [[mp.mpf(-1) / 3] + [(n + 2) * alpha[n + 2] for n in range(1, size - 2)]]
    for k in range(1, rows):
        d.append(
            [(-1) ** k * g[k] * d[0][n] + (n + 2) * d[k - 1][n + 2]
             for n in range(len(d[k - 1]) - 2)]
        )
    return [row[:cols] for row in d]


class TestTemmeCoefficients:
    def test_every_constant_matches_mpmath(self, mp):
        table = special._TEMME_D
        with mp.workdps(50):
            want = _temme_coefficients(mp, len(table), len(table[0]))
        for k, row in enumerate(table):
            for n, value in enumerate(row):
                assert abs(value - want[k][n]) <= 1e-15 * abs(want[k][n]), (k, n)

    def test_known_leading_terms(self):
        # c_0(0) = -1/3 and c_1(0) = -1/540 (DLMF 8.12.9-8.12.10)
        assert special._TEMME_D[0][:2] == (-1.0 / 3.0, 1.0 / 12.0)
        assert special._TEMME_D[1][0] == pytest.approx(-1.0 / 540.0, rel=1e-15)
