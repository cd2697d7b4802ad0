"""Moments of the delay and of its continuous-time companion.

The delay D (trials until every one of n labels has come up m times) and
its companion Delta (time until n independent unit-mean streams have each
produced m events, with time scaled by n) share all rising moments:

    E[D (D+1) ... (D+r-1)] = E[Delta^r]
                           = r n^r Int_0^inf [1 - F_m(t)^n] t^{r-1} dt,

where F_m is the Erlang(m, 1) distribution function.  This module computes
that integral to a requested relative tolerance with adaptive Gauss
panels, provides exact small-instance oracles via the absorbing chain on
capped label counts, and exposes the leading-order asymptotic predictors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alpha import solve_alpha
from .errors import NumericError, QuadratureError
from .limit_laws import Critical, FixedM, FixedN, Regime, Supercritical
from .special import (
    below_crossing,
    erlang_log_pdf,
    erlang_log_sf,
    is_integer,
    is_positive_real,
    newton_bracket,
)

__all__ = [
    "ProblemSize",
    "QuadratureConfig",
    "MomentResult",
    "ExactDistribution",
    "delta_power_moment",
    "rising_moment",
    "rising_moments",
    "mean_delay",
    "variance_delay",
    "mgf_delta",
    "exact_mean_small",
    "exact_dist_small",
    "asymptotic_moment",
    "asymptotic_mean_fixed_m",
]

METHOD_QUADRATURE = "quadrature"
METHOD_ORACLE = "oracle"
METHOD_ASYMPTOTIC = "asymptotic"

_STATE_SPACE_LIMIT = 1_000_000
_FRONT_LOG_LEVEL = math.log(45.0)  # n*sf >= 45 keeps F^n below 3e-20
_MAX_PANELS = 1024


@functools.cache
def _gauss_rules():
    """The 15- and 31-point Gauss-Legendre rules as (nodes, weights) pairs,
    built on first use so that importing the package skips
    numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(15), leggauss(31)


@dataclass(frozen=True)
class ProblemSize:
    """Instance (m, n): every one of n users must receive m packets."""

    m: int
    n: int

    def __post_init__(self):
        if not is_integer(self.m) or self.m < 1:
            raise ValueError(f"m must be an integer >= 1, got {self.m!r}")
        if not is_integer(self.n) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ValueError("rel_tol must lie in (0, 1e-2]")


@dataclass(frozen=True)
class MomentResult:
    value: float
    abs_err: float
    method: str


# ---------------------------------------------------------------------------
# quadrature core


class _Integrand:
    """1 - F_m(tau)^n for one (m, n), shared by every order integrated
    from it.

    Every moment integrates the same function against a different weight,
    so the [x_front, x_tail] window is found once, on first use, and each
    Erlang log-survival value is kept, keyed by its float abscissa, for as
    long as the object lives.  Orders share panels, and the 15- and
    31-point rules share their midpoint node, so most later evaluations are
    lookups.  A call fills all of its missing abscissas -- a whole Gauss
    panel, both rules -- with one array call of ``erlang_log_sf``, whose
    elements do not depend on each other, so a value is the same whichever
    call computed it.
    """

    def __init__(self, ps: ProblemSize):
        self.ps = ps
        self._window: Optional[tuple[float, float]] = None
        self._log_sf: dict[float, float] = {}

    def window(self) -> tuple[float, float]:
        if self._window is None:
            self._window = _tail_window(self.ps)
        return self._window

    def log_sf(self, taus: np.ndarray) -> np.ndarray:
        """erlang_log_sf(m, taus), through the table."""
        table = self._log_sf
        keys = taus.tolist()
        missing = list(dict.fromkeys(t for t in keys if t not in table))
        if missing:
            values = erlang_log_sf(self.ps.m, np.array(missing))
            table.update(zip(missing, values.tolist()))
        return np.array([table[t] for t in keys])

    def log_cdf_power(self, taus: np.ndarray) -> np.ndarray:
        """n ln F_m(tau) = n log1p(-exp(log_sf))."""
        with np.errstate(divide="ignore"):
            return self.ps.n * np.log1p(-np.exp(self.log_sf(taus)))

    def __call__(self, taus: np.ndarray) -> np.ndarray:
        """1 - F_m(tau)^n, evaluated as -expm1(n ln F_m(tau))."""
        return -np.expm1(self.log_cdf_power(taus))


def _adaptive_gauss(
    f, lo: float, hi: float, rel_tol: float, max_panels: int = _MAX_PANELS
):
    """Adaptive panel integration of f over [lo, hi].

    Each panel is scored with a 15/31-point Gauss pair, evaluated by one
    call of f; the worst panel is bisected until the summed pair
    differences fall below rel_tol times the running total.  The final
    value is accumulated in panel-position order so it does not depend on
    the refinement history.
    """

    (nodes_lo, weights_lo), (nodes_hi, weights_hi) = _gauss_rules()
    nodes = np.concatenate([nodes_lo, nodes_hi])
    split = len(nodes_lo)

    def measure(a: float, b: float):
        half = 0.5 * (b - a)
        values = f(0.5 * (a + b) + half * nodes)
        coarse = half * float(np.dot(weights_lo, values[:split]))
        fine = half * float(np.dot(weights_hi, values[split:]))
        return (a, b, fine, abs(fine - coarse))

    edges = np.linspace(lo, hi, 9)
    panels = [measure(a, b) for a, b in zip(edges[:-1], edges[1:])]
    while True:
        total = math.fsum(p[2] for p in sorted(panels))
        err = math.fsum(p[3] for p in panels)
        if err <= rel_tol * abs(total) or err <= 1e-300:
            return total, err
        if len(panels) >= max_panels:
            raise QuadratureError(
                f"needed more than {max_panels} panels on [{lo}, {hi}]",
                value=total,
                abs_err=err,
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        a, b, _, _ = panels.pop(worst)
        mid = 0.5 * (a + b)
        panels.append(measure(a, mid))
        panels.append(measure(mid, b))


def _tail_level(ps: ProblemSize) -> float:
    """The log-survival level past which the tail is dropped, ln(1e-16 / n)."""
    return math.log(1e-16) - math.log(ps.n)


def _tail_window(ps: ProblemSize) -> tuple[float, float]:
    """[x_front, x_tail] in Erlang abscissa units bracketing the transition
    of F_m(x)^n from ~0 to ~1 - 1e-16-per-unit tails.  Both crossings are
    found by one element-wise search; the front keeps log_sf >= its level,
    the tail log_sf <= its own."""
    m = ps.m
    front_level = _FRONT_LOG_LEVEL - math.log(ps.n)
    levels = np.array([front_level, _tail_level(ps)])
    if front_level >= 0.0:
        levels = levels[1:]
    lo, hi = newton_bracket(
        lambda x: erlang_log_sf(m, x),
        lambda x, log_sf: -np.exp(erlang_log_pdf(m, x) - log_sf),
        levels,
        below_crossing(m, levels),
        1e18,
        "tail cutoff search diverged",
    )
    return (float(lo[0]) if len(levels) == 2 else 0.0), float(hi[-1])


def delta_power_moment(
    ps: ProblemSize,
    s: float,
    cfg: Optional[QuadratureConfig] = None,
    *,
    integrand: Optional[_Integrand] = None,
) -> MomentResult:
    """E[Delta^s] = s n^s Int_0^inf [1 - F_m(t)^n] t^{s-1} dt, s > 0.

    The abscissa is rescaled by m so the transition window of F^n sits
    near O(1); left of the window the integrand is 1 up to < 3e-20 and is
    integrated in closed form, right of it the discarded tail is below the
    tail level.  For s < 1 the substitution v = xi^s removes the
    endpoint singularity before the panels see it.  ``integrand``, built
    for the same ps, lets several exponents share one window and
    one table of values (see ``rising_moments``); without it the call
    builds its own.
    """
    if not is_positive_real(s):
        raise ValueError(f"moment exponent must be a positive real, got {s!r}")
    cfg = cfg or QuadratureConfig()
    if integrand is None:
        integrand = _Integrand(ps)
    s = float(s)
    m, n = ps.m, ps.n
    x_front, x_tail = integrand.window()
    u_front, u_tail = x_front / m, x_tail / m

    front = u_front**s / s
    front_err = front * 3e-20
    if s >= 1.0:
        f = lambda xi: integrand(m * xi) * xi ** (s - 1.0)
        quad, quad_err = _adaptive_gauss(f, u_front, u_tail, cfg.rel_tol)
    else:
        inv_s = 1.0 / s
        f = lambda v: integrand(m * v**inv_s) * inv_s
        quad, quad_err = _adaptive_gauss(f, u_front**s, u_tail**s, cfg.rel_tol)
    # Beyond x_tail, 1 - F^n <= n*sf decays superexponentially; one unit of
    # xi at the cutoff level bounds the discarded mass generously.
    tail_err = math.exp(math.log(n) + integrand.log_sf(np.array([x_tail]))[0]) * max(
        1.0, u_tail ** (s - 1.0)
    )
    prefactor = s * float(n * m) ** s
    return MomentResult(
        value=prefactor * (front + quad),
        abs_err=prefactor * (front_err + quad_err + tail_err),
        method=METHOD_QUADRATURE,
    )


def _check_order(r) -> int:
    if not is_integer(r) or r < 1:
        raise ValueError(f"rising-moment order must be an integer >= 1, got {r!r}")
    return int(r)


def rising_moments(
    ps: ProblemSize, orders, cfg: Optional[QuadratureConfig] = None
) -> list[MomentResult]:
    """E[D (D+1) ... (D+r-1)] = E[Delta^r] for each r in ``orders``, in the
    order given.

    Every order integrates the same 1 - F_m(t)^n against its own weight
    t^{r-1}, so all of them share one window and one table of its values;
    each order after the first costs little more than its lookups.  Results
    equal those of separate ``rising_moment`` calls exactly.
    """
    orders = [_check_order(r) for r in orders]
    cfg = cfg or QuadratureConfig()
    integrand = _Integrand(ps)
    return [
        delta_power_moment(ps, float(r), cfg, integrand=integrand) for r in orders
    ]


def rising_moment(
    ps: ProblemSize, r: int, cfg: Optional[QuadratureConfig] = None
) -> MomentResult:
    """E[D (D+1) ... (D+r-1)], equal to E[Delta^r]."""
    return rising_moments(ps, [r], cfg)[0]


def mean_delay(ps: ProblemSize, cfg: Optional[QuadratureConfig] = None) -> MomentResult:
    """E[D] = E[Delta] = n Int_0^inf [1 - F_m(t)^n] dt."""
    return delta_power_moment(ps, 1.0, cfg)


def variance_delay(
    ps: ProblemSize, cfg: Optional[QuadratureConfig] = None
) -> MomentResult:
    """Var[D] = E[Delta^2] - E[Delta]^2 - E[Delta].

    The subtraction of the mean converts the companion's variance into the
    delay's.  Cancellation is reflected in abs_err; a result negative
    beyond the error budget raises NumericError.
    """
    first, second = rising_moments(ps, [1, 2], cfg)
    value = second.value - first.value**2 - first.value
    abs_err = second.abs_err + (2.0 * first.value + 1.0) * first.abs_err
    if value < -(4.0 * abs_err + 1e-12 * second.value):
        raise NumericError(
            f"variance estimate {value} negative beyond error budget {abs_err}"
        )
    return MomentResult(value=value, abs_err=abs_err, method=METHOD_QUADRATURE)


def mgf_delta(
    ps: ProblemSize, z: float, cfg: Optional[QuadratureConfig] = None
) -> float:
    """E[e^{z Delta}] = E[(1-z)^{-D}] for finite z < 1/n.

    Delta / n has distribution function F_m(t)^n, so integration by parts
    gives

        z >= 0:  1 + z n Int_0^inf [1 - F_m(t)^n] e^{n z t} dt,
        z < 0:   -z n Int_{x_front}^{x_tail} F_m(t)^n e^{n z t} dt + e^{n z x_tail},

    with the quadrature window [x_front, x_tail]: 1 - F^n is 1 below
    x_front, to 3e-20, and F^n is 1 above x_tail, to 1e-16 / n.  The z < 0
    form has no leading 1 to cancel: its error is the quadrature tolerance
    relative to the value, plus at most 3e-20 for the mass dropped below
    x_front, which is 0 for n <= 45.  At (2, 3), (3, 4) and (2, 8) it is
    within 4e-10 of the exact chain for z = -k/n up to k = 1000.  The peak
    of F^n e^{n z t} lies near t = m/|z|; for larger |z| the first panels
    can miss it, and the value reads 0 or QuadratureError is raised.  Both
    terms are nonnegative, so it never reads below 0.
    """
    cfg = cfg or QuadratureConfig()
    m, n = ps.m, ps.n
    if not (math.isfinite(z) and z < 1.0 / n):
        raise ValueError(
            f"mgf argument must be finite and below 1/n = {1.0 / n}, got {z}"
        )
    z = float(z)
    rate = n * z
    integrand = _Integrand(ps)
    x_front, x_tail = integrand.window()

    # For z > 0 the tail cutoff moves out to where ln(n) + log_sf + n z t
    # drops below the tail level plus ln(n).  That exponent is concave and
    # exceeds it wherever log_sf does, so the search from below the window's
    # tail finds its descending crossing.
    if rate > 0.0:
        level = _tail_level(ps)
        log_n = math.log(n)
        x_tail = newton_bracket(
            lambda x: log_n + erlang_log_sf(m, x) + rate * x,
            lambda x, g: rate - np.exp(erlang_log_pdf(m, x) - (g - log_n - rate * x)),
            level + log_n,
            below_crossing(m, level),
            680.0 / rate,
            f"mgf tail cutoff unreachable for z={z} (z too close to 1/n)",
        )[1]

    if rate < 0.0:
        log_weight = integrand.log_cdf_power
    else:
        log_weight = lambda taus: np.log(integrand(taus))

    def f(xi: np.ndarray) -> np.ndarray:
        taus = m * xi
        with np.errstate(divide="ignore"):
            return np.exp(rate * taus + log_weight(taus))

    quad, _ = _adaptive_gauss(f, x_front / m, x_tail / m, cfg.rel_tol)
    if rate < 0.0:
        return -z * n * m * quad + math.exp(rate * x_tail)
    front = x_front if rate == 0.0 else math.expm1(rate * x_front) / rate
    return 1.0 + z * n * (front + m * quad)


# ---------------------------------------------------------------------------
# exact small-instance oracles (absorbing chain on sorted capped counts)


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of D on small instances, P{D = k} for k = m*n .. cutoff."""

    support: np.ndarray
    pmf: np.ndarray
    tail_mass: float

    def moment(self, r: int = 1) -> float:
        return float(np.dot(self.pmf, self.support.astype(np.float64) ** r))

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        mu = self.mean()
        return self.moment(2) - mu * mu

    def rising_moment(self, r: int) -> float:
        ks = self.support.astype(np.float64)
        prod = np.ones_like(ks)
        for j in range(r):
            prod *= ks + j
        return float(np.dot(self.pmf, prod))


def _check_state_space(ps: ProblemSize) -> None:
    states = math.comb(ps.m + ps.n, ps.n)
    if states > _STATE_SPACE_LIMIT:
        raise ValueError(
            f"state space {states} exceeds the exact-oracle bound {_STATE_SPACE_LIMIT}"
        )


def _transitions(state: tuple, m: int, n: int):
    """Yield (probability, successor) over distinct count values below m.

    States are ascending sorted tuples of per-label counts capped at m;
    drawing a label already at m leaves the state unchanged (the trial
    still counts) and is reported by the caller via the residual mass.
    """
    i = 0
    length = len(state)
    while i < length:
        value = state[i]
        j = i
        while j < length and state[j] == value:
            j += 1
        if value < m:
            bumped = list(state)
            bumped[j - 1] = value + 1  # bump the last copy: keeps tuple sorted
            yield (j - i) / n, tuple(bumped)
        i = j


def exact_mean_small(ps: ProblemSize) -> MomentResult:
    """Exact E[D] by expected absorption time over sorted capped counts."""
    _check_state_space(ps)
    m, n = ps.m, ps.n
    done = tuple([m] * n)
    expect = {done: 0.0}
    states = sorted(
        itertools.combinations_with_replacement(range(m + 1), n),
        key=sum,
        reverse=True,
    )
    for state in states:
        if state == done:
            continue
        stay = state.count(m) / n
        acc = 1.0
        for prob, nxt in _transitions(state, m, n):
            acc += prob * expect[nxt]
        expect[state] = acc / (1.0 - stay)
    value = expect[tuple([0] * n)]
    return MomentResult(value=value, abs_err=1e-12 * value, method=METHOD_ORACLE)


def exact_dist_small(ps: ProblemSize, tail_mass: float = 1e-12) -> ExactDistribution:
    """Exact pmf of D to a truncated tail, by forward propagation."""
    _check_state_space(ps)
    m, n = ps.m, ps.n
    done = tuple([m] * n)
    start = tuple([0] * n)
    current = {start: 1.0}
    absorbed: list[float] = []
    step = 0
    remaining = 1.0
    while remaining > tail_mass:
        step += 1
        if step > 10_000_000:  # pragma: no cover
            raise NumericError("distribution propagation failed to drain")
        nxt: dict[tuple, float] = {}
        hit = 0.0
        for state, prob in current.items():
            stay = state.count(m) / n
            if stay:
                nxt[state] = nxt.get(state, 0.0) + prob * stay
            for tprob, tstate in _transitions(state, m, n):
                if tstate == done:
                    hit += prob * tprob
                else:
                    nxt[tstate] = nxt.get(tstate, 0.0) + prob * tprob
        absorbed.append(hit)
        remaining -= hit
        current = nxt
    first = m * n
    pmf = np.array(absorbed[first - 1 :], dtype=np.float64)
    support = np.arange(first, first + len(pmf), dtype=np.int64)
    return ExactDistribution(support=support, pmf=pmf, tail_mass=max(remaining, 0.0))


# ---------------------------------------------------------------------------
# asymptotic predictors


def asymptotic_moment(ps: ProblemSize, regime: Regime, r: int) -> float:
    """Leading-order prediction of the r-th rising moment.

    Supercritical and fixed-n regimes predict (n m)^r; the critical regime
    inflates per-coupon cost by alpha/beta, giving (alpha/beta * n m)^r.
    """
    r = _check_order(r)
    if isinstance(regime, (Supercritical, FixedN)):
        return float(ps.n * ps.m) ** r
    if isinstance(regime, Critical):
        ratio = solve_alpha(regime.beta).alpha / regime.beta
        return (ratio * ps.n * ps.m) ** r
    if isinstance(regime, FixedM):
        raise ValueError(
            "fixed-m growth is n ln n, not (nm)^r; use asymptotic_mean_fixed_m"
        )
    raise TypeError(f"unknown regime {regime!r}")


def asymptotic_mean_fixed_m(m: int, n: int) -> float:
    """n ln n + (m-1) n ln ln n + n (gamma - ln((m-1)!)), fixed-m mean growth."""
    if not is_integer(m) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    if n <= math.e:
        raise ValueError("fixed-m expansion needs n > e so ln(ln(n)) is defined")
    log_n = math.log(n)
    return n * (log_n + (m - 1) * math.log(log_n)) + n * (
        float(np.euler_gamma) - math.lgamma(m)
    )
