"""Numerically stable distribution kernels.

Everything here is elementary but has to survive extreme arguments: the
Erlang survival function is needed in log scale for shapes up to 1e6 and
abscissas up to 1e7, far past where a naive evaluation of the partial
exponential sum S_m(x) e^{-x} under- or overflows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

__all__ = [
    "partial_exp_sum",
    "erlang_log_sf",
    "erlang_cdf",
    "tricomi_log_sf",
    "normal_cdf",
    "berry_esseen_gap",
    "gumbel_cdf",
]

_SQRT2 = math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)


def is_integer(value) -> bool:
    """True for Python and NumPy integers; False for bool, which Python
    counts as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_shape(m) -> int:
    if not is_integer(m) or m < 1:
        raise ValueError(f"Erlang shape must be an integer >= 1, got {m!r}")
    return int(m)


def partial_exp_sum(m: int, y: float) -> float:
    """Partial sum S_m(y) = 1 + y + y^2/2! + ... + y^(m-1)/(m-1)!.

    Overflows for large m*y by design; tail computations must go through
    ``erlang_log_sf`` instead.
    """
    m = _check_shape(m)
    if y < 0:
        raise ValueError("y must be nonnegative")
    total = 1.0
    term = 1.0
    for k in range(1, m):
        term *= y / k
        total += term
    return total


def _log_reg_lower_series(m: int, x: float) -> float:
    """log of the regularized lower tail P{Erlang(m,1) <= x}, via the
    ascending series x^m e^{-x}/m! * (1 + sum_k prod_{i<=k} x/(m+i)).

    Intended for x <= m + sqrt(m) where the series terms decay within
    O(sqrt(m)) factors; term blocks are evaluated vectorized.
    """
    total = 1.0
    carry = 1.0
    k = 1
    while True:
        ks = np.arange(k, k + 256, dtype=np.float64)
        terms = carry * np.cumprod(x / (m + ks))
        total += float(terms.sum())
        carry = float(terms[-1])
        k += 256
        if carry <= total * 1e-18:
            break
        if k > 50_000_000:  # pragma: no cover - series cannot stall this long
            raise NumericError("lower-tail series failed to converge")
    return m * math.log(x) - x - math.lgamma(m + 1.0) + math.log(total)


def _log_reg_upper_cf(m: int, x: float) -> float:
    """log of the regularized upper tail via the Lentz continued fraction.

    Valid for x > m; convergence slows as x approaches m, hence the
    iteration cap scaled with sqrt(m).
    """
    tiny = 1e-300
    b = x + 1.0 - m
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    itmax = 30_000 + int(10.0 * math.sqrt(m))
    for i in range(1, itmax):
        an = -i * (i - m)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:  # pragma: no cover - cap is far beyond the worst observed case
        raise NumericError(f"continued fraction stalled at m={m}, x={x}")
    return -x + m * math.log(x) - math.lgamma(m) + math.log(h)


def erlang_log_sf(m: int, x: float) -> float:
    """ln P{Erlang(m, 1) > x} = ln(S_m(x) e^{-x}), computed in log domain.

    Monotone nonincreasing in x, 0 at x = 0; usable for m up to at least
    1e6 and x up to at least 1e7.  Below m + sqrt(m) the lower-tail series
    feeds log1p; above it the upper-tail continued fraction is used
    directly, so neither side ever leaves the log scale.
    """
    m = _check_shape(m)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 0.0
    if m == 1:
        return -x
    if x <= m + math.sqrt(m):
        log_p = _log_reg_lower_series(m, x)
        # P <= ~0.84 here, so log1p keeps full relative accuracy.
        return math.log1p(-math.exp(min(log_p, 0.0)))
    return _log_reg_upper_cf(m, x)


def erlang_cdf(m: int, x: float) -> float:
    """P{Erlang(m, 1) <= x}, clamped to [0, 1]."""
    return min(1.0, max(0.0, -math.expm1(erlang_log_sf(m, x))))


def tricomi_log_sf(m: int, x: float) -> float:
    """Asymptotic approximation of ``erlang_log_sf`` for x well above m.

    Evaluates the log of

        (1/sqrt(2 pi)) e^{-(x-m)} (x/m)^m sqrt(m)/(x-m+1)
            * [1 - mu/(x-mu)^2 + 2 mu/(x-mu)^3],   mu = m - 1,

    Tricomi's expansion of the upper incomplete gamma function combined
    with Stirling's formula, truncated after the cubic correction.
    Requires x - m > sqrt(m); outside that window the expansion is not
    trustworthy and a ValueError is raised.
    """
    m = _check_shape(m)
    d = x - m
    if d <= math.sqrt(m):
        raise ValueError(
            f"tricomi_log_sf needs x - m > sqrt(m); got x={x}, m={m}"
        )
    mu = m - 1.0
    dm = x - mu
    bracket = -mu / dm**2 + 2.0 * mu / dm**3
    return (
        -0.5 * _LOG_2PI
        - d
        + m * math.log(x / m)
        + 0.5 * math.log(m)
        - math.log(d + 1.0)
        + math.log1p(bracket)
    )


def normal_cdf(u: float) -> float:
    """Standard normal distribution function, |error| well below 1e-10."""
    return 0.5 * math.erfc(-u / _SQRT2)


def berry_esseen_gap(m: int, x: float) -> float:
    """|P{Erlang(m,1) > x} - Phi((m - x)/sqrt(m))|, a CLT diagnostic."""
    m = _check_shape(m)
    sf = 1.0 if x <= 0 else math.exp(erlang_log_sf(m, x))
    return abs(sf - normal_cdf((m - x) / math.sqrt(m)))


def gumbel_cdf(y: float) -> float:
    """Standard Gumbel distribution function exp(-e^{-y})."""
    if y < -700.0:
        return 0.0
    return math.exp(-math.exp(-y))
