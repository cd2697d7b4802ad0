import math

import numpy as np
import pytest

from coupon_delay.alpha import solve_alpha
from coupon_delay.limit_laws import (
    Critical,
    FixedM,
    FixedN,
    MaxOfNormals,
    Normalization,
    StandardGumbel,
    Supercritical,
    critical_constant,
    derive_b,
    normalization,
    target_cdf,
)
from coupon_delay.special import normal_cdf

LOG_2SQRTPI = math.log(2.0 * math.sqrt(math.pi))


class TestNormalization:
    def test_fixed_m_single_coverage(self):
        norm = normalization(FixedM(1), 1, 10**4)
        assert norm.center == pytest.approx(10**4 * math.log(10**4), rel=1e-14)
        assert norm.scale == 10**4
        assert norm.target == StandardGumbel()

    def test_fixed_m_center_absorbs_factorial(self):
        n = 10**4
        plain = normalization(FixedM(1), 1, n).center / n
        shifted = normalization(FixedM(3), 3, n).center / n
        expected = 2 * math.log(math.log(n)) - math.log(2.0)
        assert shifted - plain == pytest.approx(expected, rel=1e-12)

    def test_supercritical_scale(self):
        norm = normalization(Supercritical(), 30000, 10**3)
        expected = 3e7 / math.sqrt(2 * 30000 * math.log(10**3))
        assert norm.scale == pytest.approx(expected, rel=1e-12)
        assert norm.scale == pytest.approx(4.66e4, rel=1e-2)

    def test_fixed_n_degenerate(self):
        norm = normalization(FixedN(1), 25, 1)
        assert norm.center == 25.0
        assert norm.scale == 5.0
        assert norm.target == MaxOfNormals(1)
        # MaxOfNormals(1) is the plain normal law
        assert target_cdf(norm.target, 1.3) == pytest.approx(normal_cdf(1.3), rel=1e-14)

    def test_loglog_regimes_need_n_at_least_three(self):
        with pytest.raises(ValueError):
            normalization(FixedM(2), 2, 2)
        normalization(FixedN(2), 5, 2)  # fixed-n path has no such restriction

    def test_unknown_regime_and_bad_scale(self):
        with pytest.raises(TypeError):
            normalization("fixed-m", 2, 100)
        for scale in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                Normalization(center=0.0, scale=scale, target=StandardGumbel())

    def test_regime_and_shape_validation(self):
        bad_regimes = [
            lambda: FixedM(True),
            lambda: FixedM(1.5),
            lambda: FixedM(0),
            lambda: FixedN(2.5),
            lambda: FixedN(True),
            lambda: Critical(True),
            lambda: Critical(0.0),
            lambda: Critical(math.nan),
            lambda: Critical(math.inf),
        ]
        for make in bad_regimes:
            with pytest.raises(ValueError):
                make()
        for m, n in [(2.5, 100), (2, 100.0), (True, 100), (0, 100)]:
            with pytest.raises(ValueError):
                normalization(FixedM(2), m, n)
        assert normalization(FixedM(np.int64(2)), np.int64(2), np.int32(100)) == (
            normalization(FixedM(2), 2, 100)
        )
        for beta in (np.int64(2), np.float32(2.0)):
            assert normalization(Critical(beta), 20, 22026) == (
                normalization(Critical(2.0), 20, 22026)
            )

    def test_critical_center_matches_bare_presentation(self):
        # the constant-absorbing center must equal the bare centering of
        # the critical limit minus C times the scale
        m, n, beta = 20, 22026, 2.0
        alpha = solve_alpha(beta).alpha
        b = derive_b(m, n, beta)
        const = critical_constant(alpha, beta)
        log_n, loglog_n = math.log(n), math.log(math.log(n))
        scale = alpha * n / (alpha - beta)
        bare = (
            alpha * n * log_n
            + alpha * (alpha - beta - 1.0) / (beta * (alpha - beta)) * b * n * log_n
            - alpha / (2.0 * (alpha - beta)) * n * loglog_n
        )
        norm = normalization(Critical(beta), m, n)
        assert norm.scale == pytest.approx(scale, rel=1e-13)
        assert norm.center == pytest.approx(bare - const * scale, rel=1e-13)

    def test_mean_prediction_consistency_fixed_m(self):
        # center/n + gamma reproduces the fixed-m mean expansion per user
        for m, n in [(1, 10**4), (2, 10**4), (4, 500)]:
            norm = normalization(FixedM(m), m, n)
            lhs = norm.center / n + (norm.scale / n) * float(np.euler_gamma)
            log_n = math.log(n)
            rhs = log_n + (m - 1) * math.log(log_n) + np.euler_gamma - math.lgamma(m)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCriticalConstant:
    def test_unit_beta(self):
        alpha = solve_alpha(1.0).alpha
        value = critical_constant(alpha, 1.0)
        assert value == pytest.approx(
            0.5 * math.log(2 * math.pi * (alpha - 1.0) ** 2), rel=1e-12
        )
        assert value == pytest.approx(1.684, abs=2e-3)

    def test_exact_substitution(self):
        # (alpha - beta)^2 / beta = 2 gives exactly 0.5 ln(4 pi)
        assert critical_constant(4.0, 2.0) == pytest.approx(
            0.5 * math.log(4 * math.pi), rel=1e-14
        )

    def test_limit_as_beta_grows(self):
        alpha = solve_alpha(1e6).alpha
        assert abs(critical_constant(alpha, 1e6) - LOG_2SQRTPI) <= 0.01

    def test_domain(self):
        with pytest.raises(ValueError):
            critical_constant(1.0, 2.0)


class TestLimitCdf:
    """The paper's limit laws, in their unabsorbed presentations
    exp(-c e^{-y}), are the standard Gumbel at y + ln(1/c)."""

    def test_fixed_m_unabsorbed_form(self):
        for m in (1, 2, 3, 5):
            for y in (-1.0, 0.0, 2.0):
                expected = math.exp(-math.exp(-y) / math.factorial(m - 1))
                got = target_cdf(StandardGumbel(), y + math.lgamma(m))
                assert got == pytest.approx(expected, rel=1e-13)

    def test_supercritical_at_zero(self):
        expected = math.exp(-1.0 / (2 * math.sqrt(math.pi)))
        got = target_cdf(StandardGumbel(), LOG_2SQRTPI)
        assert got == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.754, abs=1e-3)

    def test_critical_at_zero(self):
        alpha = solve_alpha(1.0).alpha
        coeff = math.sqrt(1.0) / (math.sqrt(2 * math.pi) * (alpha - 1.0))
        got = target_cdf(StandardGumbel(), critical_constant(alpha, 1.0))
        assert got == pytest.approx(math.exp(-coeff), rel=1e-13)
        assert got == pytest.approx(0.8304, abs=2e-4)

    @pytest.mark.parametrize(
        "regime",
        [FixedM(2), Supercritical(), Critical(2.0), FixedN(3)],
    )
    def test_is_valid_cdf(self, regime):
        # the law each regime's normalization targets, at n = 3
        target = normalization(regime, 2, 3).target
        ys = np.linspace(-10.0, 10.0, 201)
        vals = [target_cdf(target, float(y)) for y in ys]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] <= 1e-6
        assert vals[-1] >= 1.0 - 1e-4

    def test_critical_presentations_agree(self):
        # exp(-(sqrt(beta)/(sqrt(2 pi)(alpha-beta))) e^{-y}) equals the
        # standard Gumbel evaluated at y + C: C is exactly the log-shift
        # that standardizes the bare critical limit.
        for beta in (0.5, 1.0, 2.0, 10.0):
            alpha = solve_alpha(beta).alpha
            const = critical_constant(alpha, beta)
            coeff = math.sqrt(beta) / (math.sqrt(2 * math.pi) * (alpha - beta))
            for y in np.linspace(-3, 6, 19):
                bare = math.exp(-coeff * math.exp(-y))
                assert abs(bare - target_cdf(StandardGumbel(), y + const)) <= 1e-12

    def test_supercritical_presentations_agree(self):
        for y in np.linspace(-3, 6, 19):
            bare = math.exp(-math.exp(-y) / (2 * math.sqrt(math.pi)))
            assert abs(bare - target_cdf(StandardGumbel(), y + LOG_2SQRTPI)) <= 1e-12


class TestSupercriticalFormEquivalence:
    @pytest.mark.parametrize("m,n", [(30000, 1000), (10**5, 10**4), (3000, 100)])
    def test_affine_compatibility(self, m, n):
        # Two presentations of the supercritical normalization: the bare
        # centering (center nm + n sqrt(m) sqrt(2 ln n - ln ln n), scale
        # n sqrt(m / 2 ln n)) and the constant-absorbing one returned by
        # normalization().  They share the scale exactly; their offset is
        # d-independent and approaches ln(2 sqrt(pi)) as n grows, with a
        # finite-n remainder of order (ln ln n)^2 / ln n.
        log_n, loglog_n = math.log(n), math.log(math.log(n))
        bare_center = n * m + n * math.sqrt(m) * math.sqrt(2 * log_n - loglog_n)
        bare_scale = n * math.sqrt(m / (2 * log_n))
        norm = normalization(Supercritical(), m, n)
        assert norm.scale == pytest.approx(bare_scale, rel=1e-12)
        ds = np.array([0.5 * n * m, n * m, 2.0 * n * m])
        offsets = (ds - norm.center) / norm.scale - (ds - bare_center) / bare_scale
        assert np.ptp(offsets) <= 1e-12 * abs(offsets[0])
        assert abs(offsets[0] - LOG_2SQRTPI) <= loglog_n**2 / (8.0 * log_n)


class TestDeriveB:
    def test_rounding_offset(self):
        assert derive_b(9, 10**4, 1.0) == pytest.approx(-0.02284, abs=1e-5)

    def test_exact_critical_sequence(self):
        n = 10**4
        m_exact = 2.0 * math.log(n)
        assert derive_b(m_exact, n, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_synthetic_e_power(self):
        # n = e^10 exactly, m = 2 ln n = 20
        n = math.exp(10.0)
        assert derive_b(20, int(round(n)), 2.0) == pytest.approx(0.0, abs=1e-4)

    def test_needs_two_users(self):
        with pytest.raises(ValueError, match="n >= 2"):
            derive_b(5, 1, 1.0)


class TestTargetCdf:
    def test_standard_gumbel_vector(self):
        ys = np.array([-2.0, 0.0, 3.0])
        got = target_cdf(StandardGumbel(), ys)
        assert np.allclose(got, np.exp(-np.exp(-ys)), rtol=1e-14)

    def test_max_of_normals(self):
        assert target_cdf(MaxOfNormals(3), 0.0) == pytest.approx(0.125, rel=1e-12)

    def test_unknown_target(self):
        with pytest.raises(TypeError):
            target_cdf(Supercritical(), 0.0)

    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_max_of_normals_equals_the_scalar_loop(self, n):
        ys = np.concatenate(
            [np.linspace(-40.0, 40.0, 801), [-np.inf, np.inf, 0.0, -8.5, 1e-300]]
        )
        loop = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in ys]) ** n
        got = target_cdf(MaxOfNormals(n), ys)
        assert np.array_equal(got, loop)
        grid = target_cdf(MaxOfNormals(n), ys[:800].reshape(20, 40))
        assert np.array_equal(grid, loop[:800].reshape(20, 40))
        for i in (0, 333, 800, 801, 805):
            assert target_cdf(MaxOfNormals(n), float(ys[i])) == loop[i]
