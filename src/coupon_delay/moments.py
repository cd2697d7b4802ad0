"""Moments of the delay and of its continuous-time companion.

The delay D (trials until every one of n labels has come up m times) and
its companion Delta (time until n independent unit-mean streams have each
produced m events, with time scaled by n) share all rising moments:

    E[D (D+1) ... (D+r-1)] = E[Delta^r]
                           = r n^r Int_0^inf [1 - F_m(t)^n] t^{r-1} dt,

where F_m is the Erlang(m, 1) distribution function.  For standard Gumbel
y, Q(y) = n x with F_m(x)^n = exp(-e^-y) (the sampler's map at E = e^-y)
has the law of Delta, so the moments and the MGF are all integrals
E[phi(Delta)] = Int phi(Q(y)) exp(-y - e^-y) dy of analytic integrands, to
which one trapezoid rule over y converges geometrically (Trefethen and
Weideman, SIAM Review 2014).  The module also provides exact small-instance
oracles via the absorbing chain on capped label counts, and the
leading-order asymptotic predictors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericError
from .limit_laws import Critical, FixedM, FixedN, Regime, Supercritical
from .special import (
    above_crossing,
    below_crossing,
    check_count,
    delta_from_exponential,
    erlang_log_sf,
    is_positive_real,
    log1mexp,
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

_STATE_SPACE_LIMIT = 1_000_000

_Y_LO = -4.0  # the moments' grid: y from -4, step 1/4
_STEP = 0.25
_ROUNDING = 1e-14  # relative rounding floor of a trapezoid sum
_MGF_TAIL = 40.0  # the MGF grid ends where its integrand is e^-40 of its peak
_MGF_UNDERFLOW = -700.0  # a peak below e^-700 integrates to under 1e-300
_MGF_OVERFLOW = math.log(np.finfo(np.float64).max)  # exp overflows above it
_SCAN_POINTS = 33
_MAX_SCANS = 60
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class ProblemSize:
    """Instance (m, n): every one of n users must receive m packets."""

    m: int
    n: int

    def __post_init__(self):
        check_count(self.m, "m")
        check_count(self.n, "n")


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


def _quantiles(ps: ProblemSize, y: np.ndarray, nodes: list) -> np.ndarray:
    """Q(y), the Delta at Gumbel point y, for a grid y that starts like the
    one whose values ``nodes[0]`` holds: only the points past those are
    computed, by one call of the sampler's map at E = e^-y, and kept."""
    q = nodes[0]
    if len(q) < len(y):
        new = delta_from_exponential(ps.m, ps.n, np.exp(-y[len(q) :]))
        q = nodes[0] = np.concatenate([q, new])
    return q[: len(y)]


def _trapezoid(values: np.ndarray, h: float, rel_tol: float):
    """(Int f(y) dy, error estimate) by the trapezoid rule, from the values
    of f at nodes of step h, where f must be negligible at both ends.

    f is analytic in a strip around the real axis, so the rule's error falls
    like e^(-c/h): with S the sum at h, S_2h its every-other-node subsum and
    d = |S - S_2h| / S, the error is about d^2 S, to which a rounding floor
    of 1e-14 S is added.  NumericError is raised where that misses
    rel_tol S.  The callers' steps are short enough that d^2 stays far
    below the floor (tests/test_moments.py checks it), so the step is never
    refined.
    """
    total, coarse = h * np.sum(values), 2.0 * h * np.sum(values[::2])
    if not 0.0 < total < math.inf:
        raise NumericError(f"trapezoid sum {total} is not a positive double")
    err = (((total - coarse) / total) ** 2 + _ROUNDING) * total
    if err > rel_tol * total:
        raise NumericError(
            f"trapezoid sum {total} missed rel_tol {rel_tol}: the sum at twice"
            f" the step differs by {abs(total - coarse)}"
        )
    return float(total), float(err)


def delta_power_moment(
    ps: ProblemSize,
    s: float,
    cfg: Optional[QuadratureConfig] = None,
    *,
    nodes: Optional[list] = None,
) -> MomentResult:
    """E[Delta^s] = s n^s Int_0^inf [1 - F_m(t)^n] t^{s-1} dt, s > 0, computed
    as Int Q(y)^s exp(-y - e^-y) dy over the Gumbel variable y.

    The grid has step 1/4 on y in [-4, 40 + 3 s]: below -4 the Gumbel weight
    is under e^-50, and at the top Q^s e^-y has fallen below 1e-16 of the
    moment (Q grows like n y there), under the rounding floor.  Q(y) is
    singular at distance pi/2 from the real axis, so the rule's error at
    step 1/4 is near e^(-pi^2 / (1/4)) = 7e-18.  ``nodes``, a one-item list
    shared by calls on the same ps, lets several exponents share their
    quantiles (see ``rising_moments``); without it the call computes its
    own.
    """
    if not is_positive_real(s):
        raise ValueError(f"moment exponent must be a positive real, got {s!r}")
    cfg = cfg or QuadratureConfig()
    s = float(s)
    y = _Y_LO + _STEP * np.arange(int((40.0 + 3.0 * s - _Y_LO) / _STEP) + 1)
    q = _quantiles(ps, y, [np.empty(0)] if nodes is None else nodes)
    # Q^s times the Gumbel weight exp(-y - e^-y)
    value, abs_err = _trapezoid(q**s * np.exp(-y - np.exp(-y)), _STEP, cfg.rel_tol)
    return MomentResult(value=value, abs_err=abs_err, method=METHOD_QUADRATURE)


def rising_moments(
    ps: ProblemSize, orders, cfg: Optional[QuadratureConfig] = None
) -> list[MomentResult]:
    """E[D (D+1) ... (D+r-1)] = E[Delta^r] for each r in ``orders``, in the
    order given.

    Every order integrates against the same quantiles Q(y), on a prefix of
    the grid of the largest order, so the orders are computed from the
    largest down and each later one reuses the nodes already found.  Results
    equal those of separate ``rising_moment`` calls exactly.
    """
    orders = [check_count(r, "rising-moment order") for r in orders]
    cfg = cfg or QuadratureConfig()
    nodes = [np.empty(0)]
    results = {
        r: delta_power_moment(ps, float(r), cfg, nodes=nodes)
        for r in sorted(set(orders), reverse=True)
    }
    return [results[r] for r in orders]


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


def _mgf_peak(ps: ProblemSize, z: float):
    """(Q, y, g) at the peak of the MGF's log integrand
    g(y) = z Q(y) - y - e^-y, and the width in y of the points where g is
    within 1 of it.

    Along x = Q/n the Gumbel point is explicit, e^-y = E = -n ln F_m(x), so
    each scan of ln x costs one erlang_log_sf call.  The first spans
    E = 700, where the integrand is below e^-693, to the ``above_crossing``
    past which Q saturates; each next one spans the two intervals around
    the highest point of the last, until five points lie within 1 of it.
    """
    m, n = ps.m, ps.n
    if z * m * n > _MGF_OVERFLOW:  # the mgf is at least e^{z m n}, see mgf_delta
        return 0.0, 0.0, math.inf, 0.0
    lo = max(float(below_crossing(m, log1mexp(700.0 / n))), _TINY)
    if z * n * lo < _MGF_UNDERFLOW:  # g <= z n x - 1 for x >= lo, and < -693 below
        return 0.0, 0.0, -math.inf, 0.0
    u_lo, u_hi = math.log(lo), math.log(above_crossing(m, math.log(_TINY)))
    for _ in range(_MAX_SCANS):
        x = np.exp(np.linspace(u_lo, u_hi, _SCAN_POINTS))
        with np.errstate(divide="ignore", invalid="ignore"):
            e = -n * log1mexp(-erlang_log_sf(m, x))  # inf where F_m(x) underflows
            g = np.where(e < math.inf, z * n * x + np.log(e) - e, -math.inf)
        i = int(np.argmax(g))
        if not math.isfinite(g[i]):
            break
        near = g >= g[i] - 1.0
        y = -np.log(e[near])
        if np.count_nonzero(near) >= 5 and y.max() > y.min():
            return n * x[i], -math.log(e[i]), g[i], y.max() - y.min()
        u_lo, u_hi = np.log(x[[max(i - 1, 0), min(i + 1, _SCAN_POINTS - 1)]])
    raise NumericError(f"no peak found for the mgf integrand at z={z}")


def mgf_delta(
    ps: ProblemSize, z: float, cfg: Optional[QuadratureConfig] = None
) -> float:
    """E[e^{z Delta}] = E[(1-z)^{-D}] for finite z < 1/n, computed as
    Int exp(z Q(y) - y - e^-y) dy over the Gumbel variable y.

    The grid is centred on the integrand's peak, with a tenth of the peak's
    e^-1 width as its step, and ends where the integrand is e^-40 of the
    peak: on the left at a closed-form bound, on the right at 2 widths plus
    40 / (1 - n z), doubled until the last node is that low.  Nothing
    cancels, so the value is good to rel_tol relative at every z (within
    1e-13 of the exact chain for n z down to -1e6, and of the m = 1 product
    for n z from -1000 to 0.94); values below 1e-300 read 0, and values
    above the largest double raise NumericError, at once where z m n passes
    its log, as E[e^{z Delta}] >= e^{z E[D]} >= e^{z m n}.  Past y = 708 -
    ln n the quantile Q saturates, so where the right tail, decaying like
    e^{-(1 - n z) y}, has not died out by then (from n z = 0.95 at m = 1,
    earlier for larger m), NumericError is raised.
    """
    cfg = cfg or QuadratureConfig()
    m, n = ps.m, ps.n
    if not (math.isfinite(z) and z < 1.0 / n):
        raise ValueError(
            f"mgf argument must be finite and below 1/n = {1.0 / n}, got {z}"
        )
    z = float(z)
    q_peak, y_peak, top, width = _mgf_peak(ps, z)
    if top < _MGF_UNDERFLOW:
        return 0.0
    if top > _MGF_OVERFLOW:  # the grid has a node at the peak, whose exp overflows
        raise NumericError(f"mgf at z={z} exceeds the largest double")
    # Q(y) is singular at distance pi/2 from the real axis, which bounds the
    # step as much as the peak's width does (see delta_power_moment).
    h = min(_STEP, 0.1 * width)
    # Left of the peak z Q(y) <= max(z Q_peak, 0), so there the log
    # integrand is below that bound minus y + e^-y, which is top - 40 at the
    # point where y + e^-y = c; -ln(c + ln c + 1) lies at or below it.
    c = max(z * q_peak, 0.0) + _MGF_TAIL - top
    left = min(-math.log(c + math.log(c) + 1.0), y_peak - width)
    y0 = y_peak - h * math.ceil((y_peak - left) / h)
    y_sat = -math.log(_TINY) - math.log(n)
    reach = 2.0 * width + _MGF_TAIL / (1.0 - n * z)
    nodes = [np.empty(0)]
    while True:
        end = min(y_peak + reach, y_sat)
        y = y0 + h * np.arange(math.ceil((end - y0) / h) + 1)
        q = _quantiles(ps, y, nodes)
        if z * q[-1] - y[-1] - math.exp(-y[-1]) < top - _MGF_TAIL:
            break
        if end == y_sat:
            raise NumericError(f"mgf tail at z={z} outlasts Q (z too close to 1/n)")
        reach *= 2.0
    with np.errstate(over="ignore"):  # a sum that overflows raises NumericError
        return _trapezoid(np.exp(z * q - y - np.exp(-y)), h, cfg.rel_tol)[0]


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
    r = check_count(r, "rising-moment order")
    if isinstance(regime, (Supercritical, FixedN)):
        return float(ps.n * ps.m) ** r
    if isinstance(regime, Critical):
        ratio = regime.alpha / regime.beta
        return (ratio * ps.n * ps.m) ** r
    if isinstance(regime, FixedM):
        raise ValueError(
            "fixed-m growth is n ln n, not (nm)^r; use asymptotic_mean_fixed_m"
        )
    raise TypeError(f"unknown regime {regime!r}")


def asymptotic_mean_fixed_m(m: int, n: int) -> float:
    """n ln n + (m-1) n ln ln n + n (gamma - ln((m-1)!)), fixed-m mean growth."""
    check_count(m, "m")
    if n <= math.e:
        raise ValueError("fixed-m expansion needs n > e so ln(ln(n)) is defined")
    log_n = math.log(n)
    return n * (log_n + (m - 1) * math.log(log_n)) + n * (
        float(np.euler_gamma) - math.lgamma(m)
    )
