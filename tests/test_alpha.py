import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupon_delay.alpha import solve_alpha


def _bisect_oracle(beta, lo=None, hi=None, iters=200):
    """Independent bisection on alpha - beta ln(alpha) = beta - beta ln(beta) + 1."""
    rhs = beta - beta * math.log(beta) + 1.0
    f = lambda a: a - beta * math.log(a) - rhs
    lo = lo if lo is not None else beta + 1e-12
    hi = hi if hi is not None else beta + 10.0 + 10.0 * math.sqrt(beta)
    assert f(hi) > 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSolveAlpha:
    def test_unit_beta(self):
        sol = solve_alpha(1.0)
        assert 3.1455 <= sol.alpha <= 3.1470
        assert abs(sol.residual) <= 1e-12

    def test_small_beta_limit(self):
        assert abs(solve_alpha(1e-6).alpha - 1.0) <= 1e-2

    def test_against_bisection_oracle(self):
        sol = solve_alpha(2.0)
        assert sol.alpha == pytest.approx(_bisect_oracle(2.0), abs=1e-10)

    @pytest.mark.parametrize("beta", [1e-6, 1e-3, 0.1, 1.0, 7.5, 1e3, 1e6])
    def test_residual_and_lower_bound(self, beta):
        sol = solve_alpha(beta)
        assert abs(sol.residual) <= 1e-12
        assert sol.alpha > beta + 1.0
        # naive re-evaluation of the defining equation carries rounding of
        # order ulp(beta ln alpha), so the tolerance is scale-aware
        rhs = beta - beta * math.log(beta) + 1.0
        assert sol.alpha - beta * math.log(sol.alpha) == pytest.approx(
            rhs, abs=max(1e-12, 1e-14 * beta * abs(math.log(sol.alpha)))
        )

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf, True, "2"):
            with pytest.raises(ValueError):
                solve_alpha(bad)
        assert solve_alpha(np.int64(2)) == solve_alpha(2.0)
        assert solve_alpha(np.float32(2.0)) == solve_alpha(2.0)

    def test_whole_normal_range(self):
        # From about beta = 1e29 on both ends of the bracket round to
        # sqrt(2/beta), and the search starts within its step of the root
        for beta in np.logspace(-307, 308, 124):
            sol = solve_alpha(float(beta))
            assert math.isfinite(sol.alpha) and sol.alpha >= beta
            assert abs(sol.residual) <= 1e-12

    def test_subnormal_beta_is_a_domain_error(self):
        # 1/beta overflows; rejected before any warning
        for beta in (1e-310, 5e-324):
            with pytest.raises(ValueError, match="beta"):
                solve_alpha(beta)

    @settings(max_examples=50, deadline=None)
    @given(
        beta=st.floats(min_value=1e-3, max_value=1e3),
        factor=st.floats(min_value=1.001, max_value=10.0),
    )
    def test_strictly_increasing_in_beta(self, beta, factor):
        assert solve_alpha(beta * factor).alpha > solve_alpha(beta).alpha

    def test_large_beta_expansion_rate(self):
        # alpha/beta - 1 = sqrt(2/beta) + O(beta^(-3/4)); the scaled
        # deviation must stay bounded (it actually decays like 1/sqrt(beta)).
        devs = []
        for beta in (1e2, 1e4, 1e6):
            sol = solve_alpha(beta)
            excess = sol.alpha / beta - 1.0
            devs.append(math.sqrt(beta) * abs(excess - math.sqrt(2.0 / beta)))
        assert all(d <= 1.0 for d in devs)
        assert devs[0] > devs[1] > devs[2]


class TestBridgingGap:
    def test_unit_beta_value(self):
        sol = solve_alpha(1.0)
        expected = (sol.alpha - 1.0) - math.sqrt(2.0)
        assert sol.bridging_gap == pytest.approx(expected, abs=1e-12)
        assert sol.bridging_gap == pytest.approx(0.732, abs=1e-3)

    def test_decay(self):
        g4 = solve_alpha(1e4).bridging_gap
        g8 = solve_alpha(1e8).bridging_gap
        assert abs(g4) <= 10.0 * (1e4) ** -0.25
        assert abs(g8) <= 0.1
        assert abs(g8) < abs(g4)

    def test_against_mpmath(self):
        # u = alpha/beta - 1 from the solver itself, not re-formed from the
        # rounded alpha, which cancels as u falls: near beta = 1e6 that
        # form put the bridging gap about 1e-10 off, relative
        mp = pytest.importorskip("mpmath")
        worst_gap, roots = 0.0, []
        for beta in np.logspace(-6, 6, 61).tolist():
            with mp.workdps(40):
                b = mp.mpf(beta)
                u = mp.findroot(
                    lambda u: u - mp.log1p(u) - 1 / b, math.sqrt(2.0 / beta) + 1 / beta
                )
                gap = u * mp.sqrt(b) - mp.sqrt(2)
            sol = solve_alpha(beta)
            worst_gap = max(worst_gap, float(abs(sol.bridging_gap - gap) / abs(gap)))
            roots.append((sol, u))
        # the last subtraction of sqrt(2) alone may cost 4e-13 of the gap
        assert worst_gap <= 2e-12, worst_gap
        for sol, u in roots:
            assert abs(sol.u - u) <= 1e-15 * u

    def test_domain_error(self):
        for bad in (-2.0, True, math.inf):
            with pytest.raises(ValueError):
                solve_alpha(bad).bridging_gap
        assert solve_alpha(np.int64(4)).bridging_gap == solve_alpha(4.0).bridging_gap
