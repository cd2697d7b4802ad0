"""Numerically stable distribution kernels.

Everything here is elementary but has to survive extreme arguments: the
Erlang survival function is needed in log scale for shapes up to 1e6 and
abscissas up to 1e7, far past where a naive evaluation of the partial
exponential sum S_m(x) e^{-x} under- or overflows, and at large shapes
even m ln x - x - lgamma(m) loses nine digits to cancellation.
``erlang_log_sf`` takes a whole array of abscissas per call (its inverse
solves a block of 256 levels at once) and is accurate to a relative 1e-12
against mpmath at every shape; see its docstring.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NumericError

__all__ = [
    "erlang_log_sf",
    "tricomi_log_sf",
    "normal_cdf",
]

_SQRT2 = math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_LN2 = math.log(2.0)
_TINY = float(np.finfo(np.float64).tiny)
_MAX = float(np.finfo(np.float64).max)
_SMALLEST = float(np.finfo(np.float64).smallest_subnormal)


def is_integer(value) -> bool:
    """True for Python and NumPy integers; False for bool, which Python
    counts as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_positive_real(value) -> bool:
    """True for a finite positive Python or NumPy real; False for bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value) and value > 0


def check_count(value, name: str) -> int:
    """``value`` as an int if it is an integer >= 1, else ValueError."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


_MAX_NEWTON_ROUNDS = 200  # bisection alone narrows any bracket in 60


def newton_bracket(g, slope, level, left, right, failure, rel_width=1e-9):
    """Narrow the caller's bracket left < right of the point where the
    increasing g crosses ``level`` to one with g(left) <= level < g(right)
    and right - left <= rel_width right, rel_width >= 2^-52.

    g is evaluated at both ends in one call; NumericError(failure) is raised
    if they do not straddle the level, unless the bracket is already that
    narrow (rounding may collapse it), which is returned as given.  Then
    Newton steps with the derivative ``slope(x, g(x))``, from the end nearer
    ``level`` and then from the last point, each aimed a quarter width past
    the root to close the bracket from both sides, or a bisection if the
    step would leave the bracket; NumericError(failure) again if 200 steps
    leave it wide, as where g is flat to its last digit over the bracket.

    ``level``, left and right are floats or arrays of one shape, and the
    ends come back as arrays of that shape.  Every element steps until
    its own bracket is narrow, and is not evaluated again once it is done.
    Each round calls g once, on a 1-d array of the points still searching;
    g and slope must act element by element, so an element's bracket does
    not depend on the others.

    The width must stay above the resolution of the crossing in x, x's own
    rounding plus the x-error that g's error implies, or Newton keeps
    landing on one side and each step only bisects.  A relative error e in
    ln sf moves its crossing by at most e relative, e |level| / (x hazard),
    because the Erlang hazard increases.  A 2000-level
    ``erlang_log_sf_inverse`` at (3, 4) takes 9 kernel calls at widths from
    1e-12 to 1e-14, 10 at 2e-15 and 61 at 4e-16, two ulps; it uses 1e-12,
    above ``erlang_log_sf``'s stated accuracy, and one more Newton step.
    """
    shape = np.shape(left)
    level, left, right = (
        np.array(a, dtype=np.float64).reshape(-1) for a in (level, left, right)
    )
    g_left, g_right = g(np.concatenate([left, right])).reshape(2, -1)
    straddles = (g_left <= level) & (level < g_right)
    if not (straddles | (right - left <= rel_width * right)).all():
        raise NumericError(failure)
    back = np.abs(g_left - level) < np.abs(g_right - level)
    x, gx = np.where(back, left, right), np.where(back, g_left, g_right)
    # Newton steps on the elements whose brackets are still wide; each
    # finished element's bracket is written out and dropped.
    out_left, out_right = left.copy(), right.copy()
    index = np.arange(x.size)
    nudge = 0.25 * rel_width
    for _ in range(_MAX_NEWTON_ROUNDS):
        wide = right - left > rel_width * right
        if not wide.all():
            out_left[index], out_right[index] = left, right
            if not wide.any():
                break
            index, x, gx, level, left, right = (
                a[wide] for a in (index, x, gx, level, left, right)
            )
        d = slope(x, gx)
        half = 0.5 * left + 0.5 * right  # left + right may overflow
        with np.errstate(all="ignore"):
            t = x - (gx - level) / d + np.copysign(nudge * x, half - x)
        x = np.where((left < t) & (t < right), t, half)
        gx = g(x)
        on_left = gx <= level
        left, right = np.where(on_left, x, left), np.where(on_left, right, x)
    else:  # a g too flat to resolve its crossing: the steps only creep
        raise NumericError(failure)
    return out_left.reshape(shape), out_right.reshape(shape)


# Shapes up to _FINITE_SUM_MAX_SHAPE split at x = m: below it the ascending
# series of P, above it the exact finite sum S_m(x) of at most m terms.
# Larger shapes use Temme's expansion for x/m in _TEMME_BAND and the same two
# series outside it, where their term ratios x/(m + k) and (m - k)/x stay
# below 1/2, so _SERIES_TERMS terms reach 2^-63.  The ascending series is
# slowest at x = m: at m = 40 the terms past the 64th add 5e-17 of its sum.
_FINITE_SUM_MAX_SHAPE = 40
_SERIES_TERMS = 64
_TEMME_BAND = (0.5, 2.0)
_K = np.arange(1.0, _SERIES_TERMS)
_ONES = np.ones(_SERIES_TERMS)
_ERFC_ASYMPTOTIC_FROM = 26.0  # erfc(26) = 5.6e-296, close to underflow

# Taylor coefficients d[k][n] of Temme's c_k(eta) = sum_n d[k][n] eta^n
# (DLMF 8.12.12), truncated where |d[k][n]| 0.79^n 41^-k < 1e-17: |eta| <=
# 0.79 on the band and m >= 41.  tests/test_special.py regenerates every one
# with mpmath.
_TEMME_D = (
    (  # k = 0
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
        -5.0276692801141755e-12, 1.1004392031956135e-13, 3.371763262400985e-13,
        -1.392388722418162e-13, 2.8534893807047445e-14,
    ),
    (  # k = 1
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
        7.1624989648114856e-12, -2.933186643771437e-12, 5.996696365683689e-13,
    ),
    (  # k = 2
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
        9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11,
        1.197593554636698e-11,
    ),
    (  # k = 3
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
        -9.460496661855133e-10, 2.1541049775774907e-10,
    ),
    (  # k = 4
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
    ),
    (  # k = 5
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08,
    ),
    (  # k = 6
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
        -2.0291327396058603e-06, 5.788792863149004e-07,
    ),
    (  # k = 7
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
        2.7744451511563645e-05, -1.8263488805711332e-05,
    ),
    (  # k = 8
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
    ),
)
_TEMME_TABLE = np.zeros((len(_TEMME_D), len(_TEMME_D[0])))
for _k, _row in enumerate(_TEMME_D):
    _TEMME_TABLE[_k, : len(_row)] = _row
_TEMME_ORDERS = np.arange(float(len(_TEMME_D)))
_PHI_SERIES = 1.0 / np.arange(3.0, 36.0, 2.0)  # 1/3, 1/5, ..., 1/35
# erfcx(w) w sqrt(pi) ~ sum_k (-1)^k (2k - 1)!! / (2 w^2)^k: 1, -1, 3, -15, ...
_ERFCX_SERIES = np.concatenate([[1.0], np.cumprod(-np.arange(1.0, 15.0, 2.0))])
_ERFC_UFUNC = np.frompyfunc(math.erfc, 1, 1)


def _erfc(z):
    """``math.erfc`` applied element-wise: a NumPy float for a scalar, an
    array for an array.  NumPy has no erfc, and a port of the C library's
    would not match it bit for bit, because NumPy's exp does not."""
    return np.asarray(_ERFC_UFUNC(z), dtype=np.float64)[()]


def _polyval(coef: np.ndarray, x):
    """sum_n coef[n] x^n for a NumPy float or, element by element, a 1-d
    array: the powers come from one running product, which at block sizes
    costs less than NumPy's pow or a Horner loop of ufunc calls."""
    powers = np.multiply.accumulate(x[..., None] * _ONES[: len(coef) - 1], axis=-1)
    return coef[0] + np.add.reduce(powers * coef[1:], axis=-1)


def log1p_excess(mu):
    """mu - log1p(mu), or lam - 1 - ln lam at lam = 1 + mu, for a NumPy float
    or element by element over a 1-d array, with mu in [-1/2, 1]: the atanh
    series in s = mu / (2 + mu), |s| <= 1/3, so nothing cancels."""
    s = mu / (2.0 + mu)
    s2 = s * s
    return s * mu - 2.0 * s * s2 * _polyval(_PHI_SERIES, s2)


def _ln_gamma_star(m: int) -> float:
    """ln(Gamma(m) / (sqrt(2 pi / m) (m / e)^m)) by Stirling's series, m > 40."""
    return sum(
        b / (2 * j * (2 * j - 1) * m ** (2 * j - 1))
        for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66), start=1)
    )


def _ascending_sum(m: int, x):
    """1 + sum_k prod_{i<=k} x/(m+i), the series of P{Erlang(m) <= x}
    divided by x^m e^-x / m!, over _SERIES_TERMS terms."""
    terms = np.multiply.accumulate(x[..., None] / (m + _K), axis=-1)
    return 1.0 + np.add.reduce(terms, axis=-1)


def _finite_sum(m: int, x):
    """sum_{j<m} prod_{i<=j} (m-i)/x = S_m(x) (m-1)! / x^(m-1), over
    _SERIES_TERMS terms; the terms from j = m on are exactly 0."""
    terms = np.multiply.accumulate((m - _K) / x[..., None], axis=-1)
    return 1.0 + np.add.reduce(terms, axis=-1)


def erlang_log_pdf(m: int, x):
    """ln(x^(m-1) e^-x / (m-1)!), the Erlang(m, 1) log density at x > 0,
    for a shape m already checked.  For m > 40 it is written through
    lam - 1 - ln lam, lam = x/m, and Stirling's series, because
    (m - 1) ln x - x - lgamma(m) cancels terms near m ln m; outside the band
    lam - 1 - ln lam has no cancellation of its own.  lam is floored at the
    smallest positive double, so that an x/m that rounds to 0 gives no log
    of 0; the density underflows there anyway.  Within a few ulps of the
    largest double, m times lam - 1 - ln lam may round past it: -inf."""
    if m <= _FINITE_SUM_MAX_SHAPE:
        return (m - 1) * np.log(x) - x - math.lgamma(m)
    with np.errstate(over="ignore"):
        return (
            -m * ((x - m) / m - np.log(np.maximum(x / m, _SMALLEST)))
            - 0.5 * math.log(2.0 * math.pi / m)
            - _ln_gamma_star(m)
            - np.log(x)
        )


def _below(m: int, x):
    """log1p(-P), P = x^m e^-x / m! times the ascending series; x/m is
    floored as in ``erlang_log_pdf``, where P underflows to 0 anyway."""
    lam = np.maximum(x / m, _SMALLEST)
    log_p = erlang_log_pdf(m, x) + np.log(lam) + np.log(_ascending_sum(m, x))
    return np.log1p(-np.exp(log_p))


def _above(m: int, x):
    """ln(S_m(x) e^-x) from the finite sum."""
    return erlang_log_pdf(m, x) + np.log(_finite_sum(m, x))


def _temme(m: int, x):
    """Temme's uniform expansion (DLMF 8.12.3-8.12.8) on the band:

        Q = erfc(w)/2 + e^{-w^2} / sqrt(2 pi m) sum_k c_k(eta) m^-k,
        P = erfc(w)/2 - e^{-w^2} / sqrt(2 pi m) sum_k c_k(eta) m^-k,

    with eta^2/2 = lam - 1 - ln lam, sign(eta) = sign(lam - 1) and
    w = |eta| sqrt(m/2).  Above the mode ln Q is returned directly, below it
    log1p(-P).
    """
    mu = (x - m) / m
    phi = log1p_excess(mu)  # lam - 1 - ln lam
    w2 = m * phi
    w = np.sqrt(w2)
    eta = np.copysign(np.sqrt(2.0 * phi), mu)
    # sum_k c_k(eta) m^-k, from its Taylor coefficients in eta
    c = _polyval(np.power(float(m), -_TEMME_ORDERS) @ _TEMME_TABLE, eta)
    # erfcx(w) = erfc(w) e^{w^2}; where erfc nears underflow, its asymptotic
    # series.  Both are computed for every element and one is kept, so the
    # discarded one may overflow.
    far = w >= _ERFC_ASYMPTOTIC_FROM
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaled = _erfc(w) * np.exp(w2)
        if far.any():
            asymptotic = _polyval(_ERFCX_SERIES, 0.5 / w2) / (w * math.sqrt(math.pi))
            scaled = np.where(far, asymptotic, scaled)
    bracket = 0.5 * scaled + np.copysign(1.0, mu) * c / math.sqrt(2.0 * math.pi * m)
    return np.where(mu >= 0.0, np.log(bracket) - w2, np.log1p(-np.exp(-w2) * bracket))


def _branches(m: int, x):
    """(selector, kernel) pairs covering every x > 0 of the 1-d array x."""
    if m <= _FINITE_SUM_MAX_SHAPE:
        below = x < m
        return ((below, _below), (~below, _above))
    below = x < _TEMME_BAND[0] * m
    above = x > _TEMME_BAND[1] * m
    return ((below, _below), (above, _above), (~(below | above), _temme))


def erlang_log_sf(m: int, x):
    """ln P{Erlang(m, 1) > x} = ln(S_m(x) e^{-x}), computed in log domain.

    ``x`` is a scalar, which gives a float, or an array, which gives an
    array of its shape; every element is computed on its own, so a value
    does not depend on what else is in the array.  Monotone nonincreasing
    in x, 0 at x = 0 and -inf at x = inf; NaN or negative x raises
    ValueError.  Against mpmath the relative error of the result is below
    1e-12 wherever it is a normal double (values below that range may come
    out as 0), for m up to 1e6 and x up to 1e7; the worst measured is
    2.5e-13, at m = 1e4 below the mode:

    * m <= 40: below x = m, log1p(-P) with P from the ascending series;
      above it, the exact finite sum S_m(x), both in log domain.
    * m > 40: Temme's uniform expansion for x/m in [0.5, 2]; outside that
      band the same two series, with the prefactor x^m e^-x / m! written
      through x/m - 1 - ln(x/m) so that no large terms cancel.
    """
    m = check_count(m, "Erlang shape")
    x = np.array(x, dtype=np.float64)
    flat = x.reshape(-1)
    if flat.size == 0:
        return x
    # NaN if any element is; one element needs no reduction
    lowest = highest = flat[0]
    if flat.size > 1:
        lowest, highest = flat.min(), flat.max()
    if lowest != lowest:
        raise ValueError("x must not be NaN")
    if lowest < 0:
        raise ValueError("x must be nonnegative")
    if lowest == 0.0 or highest == math.inf:
        out = np.where(flat == 0.0, 0.0, -math.inf)
        inner = (flat > 0.0) & (flat < math.inf)
        out[inner] = erlang_log_sf(m, flat[inner])
    else:
        out = np.empty_like(flat)
        for hit, kernel in _branches(m, flat):
            if hit.any():
                out[hit] = kernel(m, flat[hit])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def log1mexp(a):
    """ln(1 - e^-a) for a >= 0, element-wise, without cancellation
    (Maechler 2012): ln(-expm1(-a)) up to a = ln 2, log1p(-e^-a) above it."""
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.where(a <= _LN2, np.log(-np.expm1(-a)), np.log1p(-np.exp(-a)))


def below_crossing(m: int, level):
    """An x with ln sf(m, x) > level, element-wise for levels < 0: the
    largest of three lower bounds on the crossing, ln sf(m, x) >= -x (exact
    at m = 1), the Chernoff bound P{Erlang(m) <= x} <= exp(-(m - x)^2 / (2 m))
    for x < m and P{Erlang(m) <= x} < x^m / m!, the first and last taken a
    relative 1e-6 low so that rounding cannot put them past the crossing."""
    log_cdf = log1mexp(-np.asarray(level, dtype=np.float64))
    chernoff = m - np.sqrt(-2.0 * m * log_cdf)
    power = np.exp((log_cdf + math.lgamma(m + 1.0)) / m) * (1.0 - 1e-6)
    return np.maximum(np.maximum(-(1.0 - 1e-6) * level, chernoff), power)


def above_crossing(m: int, level):
    """An x with ln sf(m, x) < level, element-wise for levels < 0, capped at
    the largest double: the sub-gamma tail bound P{Erlang(m) > m +
    sqrt(2 m c) + c} <= e^-c (Boucheron, Lugosi and Massart, Concentration
    Inequalities, 2013, 2.4) at c = -level, with c a relative 1e-6 high."""
    c = -np.asarray(level, dtype=np.float64)
    excess = m + math.sqrt(2.0 * m) * np.sqrt(c) + 1e-6 * c
    return c + np.minimum(excess, _MAX - c)


# Relative bracket width of erlang_log_sf_inverse: above the kernel's stated
# accuracy, 1e-12, so that Newton closes it from both sides (see
# newton_bracket); the Newton step that follows makes up the accuracy.
_INVERSE_REL_WIDTH = 1e-12


def erlang_log_sf_inverse(m: int, level):
    """The x with ln P{Erlang(m, 1) > x} = ``level``, a float for a float or
    an array of the input's shape, each element solved on its own.  0 at
    level 0 and inf at level -inf; NaN or a positive level raises ValueError.
    A subnormal level, above -2.2e-308, is solved as -2.2e-308: ln sf near
    it has too few digits to resolve the crossing.  Levels within about
    1e-13 of minus the largest double may raise NumericError.

    The search runs on ln(-ln sf), the log of the cumulative hazard, which
    rises like m ln x far below the mode and like ln x far above it, so
    Newton converges fast at every level; on ln sf itself each step far
    below the mode gains only about one e-fold of F_m.  A ``newton_bracket``
    of relative width 1e-12 between ``below_crossing`` and ``above_crossing``
    is followed by one Newton step from its midpoint, kept inside it, whose
    error is quadratic in the midpoint's: x is as accurate as the kernel and
    its rounding allow.  That matters where x hazard(x) is large: at
    m = 1e6 it is 800 at the mode, so 1e-15 of x moves ln sf by 8e-13.
    """
    m = check_count(m, "Erlang shape")
    level = np.array(level, dtype=np.float64)
    flat = level.reshape(-1)
    if np.isnan(flat).any() or (flat > 0.0).any():
        raise ValueError("level must be a log-probability, in [-inf, 0]")
    out = np.where(flat == 0.0, 0.0, math.inf)
    inner = (flat < 0.0) & (flat > -math.inf)
    if inner.any():
        target = np.minimum(flat[inner], -_TINY)

        def log_hazard_sum(x):  # ln(-ln sf): -inf where sf is 1, inf where 0
            with np.errstate(divide="ignore", over="ignore"):
                return np.log(-erlang_log_sf(m, x))

        def slope(x, g):  # hazard / cumulative hazard, with -ln sf = e^g
            # ln hazard <= 0; far above the mode it cancels to no digit
            return np.exp(np.minimum(erlang_log_pdf(m, x) + np.exp(g), 0.0) - g)

        log_target = np.log(-target)
        left, right = newton_bracket(
            log_hazard_sum, slope, log_target,
            below_crossing(m, target), above_crossing(m, target),
            "Erlang survival inverse failed to bracket its level", _INVERSE_REL_WIDTH,
        )
        mid = 0.5 * left + 0.5 * right
        g = log_hazard_sum(mid)
        with np.errstate(all="ignore"):
            x = mid + (log_target - g) / slope(mid, g)  # the slope may be 0
        out[inner] = np.clip(np.where(np.isnan(x), mid, x), left, right)
    return float(out[0]) if level.ndim == 0 else out.reshape(level.shape)


# Elements per erlang_log_sf_inverse call in delta_from_exponential.  The
# kernel's largest temporaries hold 63 terms per element, so 256 elements
# keep each below 128 KiB: memory stays small however many values are asked
# for, and no freed block raises glibc's mmap threshold, which would change
# how fast later, unrelated allocations in the process run.
_INVERSE_BLOCK = 256
_LOG_TINY = math.log(_TINY)


def delta_from_exponential(m: int, n: int, e: np.ndarray) -> np.ndarray:
    """Delta with P{Delta <= Delta_i} = F_m(Delta_i / n)^n = e^-E_i for each
    E_i >= 0 of the 1-d array e, so a standard exponential E gives Delta the
    law of n times the largest of n Gamma(m, 1) variables: Delta = n x with
    ln sf_m(x) = ln(1 - e^(-E/n)).  That level is floored at the log of the
    smallest normal double, so E = 0, whose Delta is infinite, gives a
    finite one; Delta saturates once E/n falls below 2.2e-308."""
    level = np.maximum(log1mexp(e / n), _LOG_TINY)
    blocks = range(0, len(level), _INVERSE_BLOCK)
    x = [erlang_log_sf_inverse(m, level[i : i + _INVERSE_BLOCK]) for i in blocks]
    return n * np.concatenate(x)


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
    m = check_count(m, "Erlang shape")
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


def normal_cdf(u):
    """Standard normal distribution function, |error| well below 1e-10: a
    float for a scalar, an array for an array, each element equal to
    0.5 * math.erfc(-u / sqrt(2))."""
    value = 0.5 * _erfc(-np.asarray(u, dtype=np.float64) / _SQRT2)
    return float(value) if np.ndim(value) == 0 else value
