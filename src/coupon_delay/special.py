"""Numerically stable distribution kernels.

Everything here is elementary but has to survive extreme arguments: the
Erlang survival function is needed in log scale for shapes up to 1e6 and
abscissas up to 1e7, far past where a naive evaluation of the partial
exponential sum S_m(x) e^{-x} under- or overflows, and at large shapes
even m ln x - x - lgamma(m) loses nine digits to cancellation.
``erlang_log_sf`` takes a whole array of abscissas per call (its inverse
solves up to 4096 levels at once, its series 256 at a time) and is accurate
to a relative 1e-12 against mpmath at every shape; see its docstring.  The
inverse takes Halley steps on the log of the cumulative hazard from Temme's
asymptotic inversion, with proved closed-form bounds as the bracket of the
levels the start leaves undone (its docstring states the kernel calls per
block), through ``halley``, the package's one root-finder, which also
solves for the critical-regime alpha on Python floats.
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


_MAX_HALLEY_ROUNDS = 100  # bisections alone would narrow any bracket 2^100 times


def halley(g, level, lo, hi, tol, failure, start=None):
    """Solve g(u, level) = 0 for u between lo < hi, g increasing in u, by
    Halley steps from ``start`` with the bracket as their safeguard.

    ``g(u, level)`` gives the residual and its first two derivatives in u at
    the points of a 1-d array, element by element; given the level, it can
    form the residual without cancellation.  ``start`` may lie on either
    side of the root; where it is None, not finite or not inside (lo, hi),
    the search starts at lo, a proved lower end whose residual must be
    negative: NumericError(failure) where it is positive and the step from
    it is wider than tol (rounding may put a closed-form lower bound within
    tol past the root).  hi is not evaluated.  Each evaluation moves the
    bracket end on its side of the root, and a step that would leave the
    bracket, as one from a zero or wrong-signed slope does, bisects it
    instead.  An element is done once its Halley step is at most ``tol``;
    NumericError(failure) again if one is not after 100 evaluations, as
    where the root lies outside (lo, hi) or the residual is flat to its
    last digit.

    ``level``, lo, hi, tol and start are floats or arrays that broadcast to
    one shape.  Returns (u, step), arrays of that shape: the last point
    evaluated and the Halley step from it, whose error is cubic in the
    step, for the caller to apply in the form that keeps the most digits.
    An element is evaluated until it is done and not after, so its result
    does not depend on the others in the array.

    lo and hi may instead be functions that give the ends, as arrays, of
    the elements at an array of indices into the flattened shape; start is
    then required.  Where every start is finite, g is evaluated at the
    starts first and the ends are asked for only for the elements not done
    there.  The start then replaces the end on its side of the root where
    it is nearer the root; where its residual contradicts the ends
    (positive at or below lo, negative at or above hi), the element goes on
    from lo, whose residual is checked as above.  A start inside its
    bracket so gives the (u, step) of its ends given as arrays.  Where a
    start is not finite, the ends of every element are asked for at once.

    Where all five are 0-d (a float, a NumPy scalar or a 0-d array) and the
    ends are given, the same loop runs on Python floats: g gets a float,
    each of its three results is taken as a float, and (u, step) are
    floats, bit for bit those of a one-element array, evaluation by
    evaluation.  On one element NumPy's per-call overhead costs about ten
    times the arithmetic.
    """
    deferred = callable(lo)
    start = lo if start is None else start
    given = (level, tol, start) if deferred else (level, tol, start, lo, hi)
    if not (deferred or any(getattr(a, "ndim", 0) for a in given)):  # np.ndim: 1 us
        return _halley_floats(g, *(float(a) for a in given), failure)
    arrays = [np.asarray(a, dtype=np.float64) for a in given]
    shape = np.broadcast(*arrays).shape  # np.broadcast_arrays costs 8 us
    level, tol, start, *ends = (
        (a if a.shape == shape else np.full(shape, a)).reshape(-1) for a in arrays
    )
    index = np.arange(start.size)
    if deferred and not np.isfinite(start).all():
        ends, deferred = (lo(index), hi(index)), False
    fresh = None  # where u is lo, not yet evaluated: its residual must be negative
    if deferred:
        u = start
    else:
        lo, hi = ends
        inside = (lo < start) & (start < hi)
        u, fresh = np.where(inside, start, lo), ~inside
    out_u, out_step = np.empty_like(u), np.empty_like(u)
    for _ in range(_MAX_HALLEY_ROUNDS):
        f, slope, curve = g(u, level)
        with np.errstate(all="ignore"):  # NaN where the slope is 0
            newton = f / slope
            step = -newton / (1.0 - 0.5 * newton * curve / slope)
        done = np.abs(step) <= tol
        if fresh is not None:
            if (~done & (f > 0.0) & fresh).any():
                raise NumericError(failure)
            fresh = None
        if index.size == out_u.size and done.all():  # all done in one round
            return u.reshape(shape), step.reshape(shape)
        if done.any():
            out_u[index[done]], out_step[index[done]] = u[done], step[done]
            if done.all():
                return out_u.reshape(shape), out_step.reshape(shape)
            wide = ~done
            index, u, f, step, level, tol = (
                a[wide] for a in (index, u, f, step, level, tol)
            )
            if not deferred:
                lo, hi = lo[wide], hi[wide]
        if deferred:  # evaluated at the starts: now their ends, clipped there
            deferred, lo, hi = False, lo(index), hi(index)
            below = np.where(f < 0.0, np.maximum(lo, u), lo)
            above = np.where(f > 0.0, np.minimum(hi, u), hi)
            fresh = ~(below < above)  # the start's residual contradicts the ends
            if fresh.any():
                below, above = np.where(fresh, lo, below), np.where(fresh, hi, above)
            else:
                fresh = None
            lo, hi = below, above
        else:
            lo, hi = np.where(f < 0.0, u, lo), np.where(f > 0.0, u, hi)
        t = u + step
        u = np.where((lo < t) & (t < hi), t, 0.5 * lo + 0.5 * hi)
        if fresh is not None:
            u = np.where(fresh, lo, u)
    raise NumericError(failure)


def _halley_floats(g, level, tol, start, lo, hi, failure):
    """``halley``'s loop on one element as Python floats.  A zero slope or
    Halley denominator, where arrays give NaN or inf, raises here; its step
    is NaN, which is never done and always bisects, as there."""
    inside = lo < start < hi
    u = start if inside else lo
    for k in range(_MAX_HALLEY_ROUNDS):
        f, slope, curve = g(u, level)
        f, slope, curve = float(f), float(slope), float(curve)
        if f < 0.0:
            lo = u
        elif f > 0.0:
            hi = u
        try:
            newton = f / slope
            step = -newton / (1.0 - 0.5 * newton * curve / slope)
        except ZeroDivisionError:
            step = math.nan
        done = abs(step) <= tol
        if k == 0 and not done and f > 0.0 and not inside:
            raise NumericError(failure)
        if done:
            return u, step
        t = u + step
        u = t if lo < t < hi else 0.5 * lo + 0.5 * hi
    raise NumericError(failure)


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
_PHI_SERIES = tuple(1.0 / k for k in range(3, 36, 2))  # 1/3, 1/5, ..., 1/35
# erfcx(w) w sqrt(pi) ~ sum_k (-1)^k (2k - 1)!! / (2 w^2)^k: 1, -1, 3, -15, ...
_ERFCX_SERIES = (1.0, -1.0, 3.0, -15.0, 105.0, -945.0, 10395.0, -135135.0)
_ERFC_UFUNC = np.frompyfunc(math.erfc, 1, 1)


def _erfc(z):
    """``math.erfc`` applied element-wise: a NumPy float for a scalar, an
    array for an array.  NumPy has no erfc, and a port of the C library's
    would not match it bit for bit, because NumPy's exp does not."""
    return np.asarray(_ERFC_UFUNC(z), dtype=np.float64)[()]


def _polyval(coef, x):
    """sum_n coef[n] x^n for a NumPy float or, element by element, an array,
    by Horner's rule over a sequence of Python floats: two ufunc calls per
    coefficient, whatever the size.  A table of every power of every
    element costs fewer calls but work in proportion to its size: for
    Temme's 23 terms Horner took 28 against 49 us at 213 elements and 36
    against 161 us at 1000, but 23 against 10 us at 33 elements and, for
    the 17 terms of ``log1p_excess``, 17 against 5 us at one element
    (best of 5, 2-vCPU Xeon host)."""
    value = coef[-1]
    for c in coef[-2::-1]:
        value = value * x + c
    return value


def log1p_excess(mu):
    """mu - log1p(mu), or lam - 1 - ln lam at lam = 1 + mu, for a Python or
    NumPy float or element by element over a 1-d array, with mu in
    [-1/2, 1]: the atanh series in s = mu / (2 + mu), |s| <= 1/3, so nothing
    cancels.  Only + - * / are used, so a float gives the bits of a
    one-element array."""
    s = mu / (2.0 + mu)
    s2 = s * s
    return s * mu - 2.0 * s * s2 * _polyval(_PHI_SERIES, s2)


def _ln_gamma_star(m: int) -> float:
    """ln(Gamma(m) / (sqrt(2 pi / m) (m / e)^m)) by Stirling's series, m > 40."""
    return sum(
        b / (2 * j * (2 * j - 1) * m ** (2 * j - 1))
        for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66), start=1)
    )


# Rows of a series' (rows, 63) term table built at once: 256 rows are 126 KiB,
# so however many elements a call has, no temporary reaches glibc's 128 KiB
# mmap threshold, whose raising by a freed block would change how fast later,
# unrelated allocations in the process run.
_TERM_ROWS = 256


def _series_sum(terms, x):
    """sum_k prod_{i<=k} terms(x)[:, i] at each element of the 1-d array x,
    its (len(x), k) term table built at most _TERM_ROWS rows at a time.  A
    row's sum does not depend on the others, so neither does the result."""

    def sums(rows):
        return np.add.reduce(np.multiply.accumulate(terms(rows), axis=-1), axis=-1)

    out = np.empty_like(x)
    for i in range(0, x.size, _TERM_ROWS):
        out[i : i + _TERM_ROWS] = sums(x[i : i + _TERM_ROWS])
    return out


def _ascending_sum(m: int, x):
    """1 + sum_k prod_{i<=k} x/(m+i), the series of P{Erlang(m) <= x}
    divided by x^m e^-x / m!, over _SERIES_TERMS terms."""
    return 1.0 + _series_sum(lambda x: x[:, None] / (m + _K), x)


def _finite_tail(m: int, x):
    """sum_{1<=j<m} prod_{i<=j} (m-i)/x = S_m(x) (m-1)! / x^(m-1) - 1, over
    its first _SERIES_TERMS - 1 terms, which at m <= _SERIES_TERMS are all
    of them."""
    return _series_sum(lambda x: (m - _K[: m - 1]) / x[:, None], x)


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
    return erlang_log_pdf(m, x) + np.log(1.0 + _finite_tail(m, x))


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
    c = _polyval((np.power(float(m), -_TEMME_ORDERS) @ _TEMME_TABLE).tolist(), eta)
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
            count = np.count_nonzero(hit)
            if count == flat.size:  # one branch holds every element: no gather
                out = kernel(m, flat)
                break
            if count:
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
    relative 1e-6 low so that rounding cannot put them past the crossing.
    0 at a subnormal level, above -2.2e-308, where a relative 1e-6 may not
    move x past a rounding of ln sf."""
    level = np.asarray(level, dtype=np.float64)
    log_cdf = log1mexp(-level)
    chernoff = m - np.sqrt(-2.0 * m * log_cdf)
    power = np.exp((log_cdf + math.lgamma(m + 1.0)) / m) * (1.0 - 1e-6)
    start = np.maximum(np.maximum(-(1.0 - 1e-6) * level, chernoff), power)
    return np.where(level <= -_TINY, start, 0.0)


# Acklam's normal quantile at p <= 1/2, relative error below 1.15e-9 (P. J.
# Acklam, 2003): numerator and denominator in q = sqrt(-2 ln p) below
# p = 0.02425, and in r = (p - 1/2)^2, times p - 1/2, above it.  Ascending
# coefficients, a column per polynomial, so one Horner pass does a pair.
_ACKLAM_SPLIT = math.log(0.02425)
_ACKLAM_TAIL = np.transpose([[
    (2.938163982698783, 4.374664141464968, -2.549732539343734,
     -2.400758277161838, -0.3223964580411365, -0.007784894002430293),
    (1.0, 3.754408661907416, 2.445134137142996, 0.3224671290700398,
     0.007784695709041462, 0.0),
]])
_ACKLAM_CENTRAL = np.transpose([[
    (2.506628277459239, -30.66479806614716, 138.3577518672690,
     -275.9285104469687, 220.9460984245205, -39.69683028665376),
    (1.0, -13.28068155288572, 66.80131188771972, -155.6989798598866,
     161.5858368580409, -54.47609879822406),
]])


def _normal_quantile(log_p):
    """The standard normal quantile at p <= 1/2 from a 1-d array of ln p, to
    Acklam's relative 1.15e-9.  Below p = 0.02425 it reads only
    sqrt(-2 ln p), so ln p may lie far below ln(2.2e-308); past about
    -1e122 the rational overflows to NaN.  Each pair of polynomials is a
    (2, k) table, 64 KiB at the inverse's 4096 levels, and the central pair
    is formed only if some p lies above 0.02425."""
    tail = log_p < _ACKLAM_SPLIT
    q_num, q_den = _polyval(_ACKLAM_TAIL, np.sqrt(-2.0 * log_p))
    if tail.all():
        return q_num / q_den
    c = np.exp(log_p) - 0.5
    r_num, r_den = _polyval(_ACKLAM_CENTRAL, c * c)
    return np.where(tail, q_num / q_den, c * r_num / r_den)


def _log_lam(eta):
    """v = ln lam with lam - 1 - ln lam = eta^2/2 and sign(lam - 1) =
    sign(eta), element-wise, within 4e-12 for |eta| < 2 and 6e-8 past it:
    two Newton steps on e^v - 1 - v = t = eta^2/2 from the series
    lam = 1 + eta + eta^2/3 + eta^3/36 - eta^4/270, or past |eta| = 2 from
    lam = 1 + t + ln(1 + t + ln(1 + t)) above and v = -1 - t below."""
    t = 0.5 * eta * eta
    r = np.minimum(np.maximum(eta, -2.0), 2.0)  # np.clip costs 1 us more
    v = np.log(1.0 + r * (1.0 + r * (1.0 / 3.0 + r * (1.0 / 36.0 - r / 270.0))))
    far = np.abs(eta) >= 2.0
    if far.any():
        above = np.log(1.0 + t + np.log1p(t + np.log1p(t)))
        v = np.where(far, np.where(eta > 0.0, above, -1.0 - t), v)
    for _ in range(2):
        e = np.expm1(v)
        v = v - (e - v - t) / e
    return v


# Temme's inversion eta = eta0 + eps1 / m + eps2 / m^2 + ...: below
# |eta0| = 0.15 the closed forms of eps1, (ln f)' and eps2 cancel, so there
# they are Taylor series in eta0, each within 3e-8 of its closed form at the
# switch: eps1 and eps2 as Temme gives them (Math. Comp. 58, 1992), eps2
# with one term more, and (ln f)' = (eta0 eps1)'.  Ascending coefficients,
# a column per series, so one Horner pass does all three;
# tests/test_special.py regenerates every one with mpmath.
_TEMME_SERIES_BELOW = 0.15
_TEMME_SERIES = np.transpose([[
    (-1.0 / 3.0, 1.0 / 36.0, 1.0 / 1620.0, -7.0 / 6480.0, 5.0 / 18144.0),
    (-1.0 / 3.0, 1.0 / 18.0, 1.0 / 540.0, -7.0 / 1620.0, 25.0 / 18144.0),
    (-7.0 / 405.0, -7.0 / 2592.0, 533.0 / 204120.0, -1579.0 / 2099520.0,
     6.2299954275262917e-05),
]])
# From this shape on the first-order start is within half the last step's
# tolerance (see _INVERSE_STEP) at every level, and eps2 / m^2 is not
# formed; below about m = 165 it misses the tolerance at levels near 0,
# deep in the lower tail.
_FIRST_ORDER_FROM = 200


def _temme_terms(eta0, e0, second):
    """(eps1, (ln f)', eps2) of Temme's inversion (see ``_temme_start``) at
    eta0, with e0 = lam0 - 1, and eps2 None unless ``second``.  Below
    |eta0| = _TEMME_SERIES_BELOW their series; above it eps1 = ln f / eta0,
    (ln f)' = 1/eta0 - eta0 lam0 / (lam0 - 1)^2 and, from eps1' =
    ((ln f)' - eps1) / eta0, eps2 = ((eps1 + 1/eta0) (ln f)' - eps1 (1/eta0
    + eps1 / 2) - 1/12) / eta0.  Run under the caller's np.errstate: the
    closed forms are NaN at eta0 = 0, where the series is kept."""
    near = np.abs(eta0) < _TEMME_SERIES_BELOW
    eps1, log_f_slope, eps2 = _polyval(_TEMME_SERIES, eta0)
    if not near.all():
        inverse = 1.0 / eta0
        closed1 = np.log(eta0 / e0) * inverse
        closed_slope = inverse - eta0 * (1.0 + e0) / (e0 * e0)
        eps1 = np.where(near, eps1, closed1)
        log_f_slope = np.where(near, log_f_slope, closed_slope)
        if second:
            closed2 = (closed1 + inverse) * closed_slope - 1.0 / 12.0
            closed2 -= closed1 * (inverse + 0.5 * closed1)
            eps2 = np.where(near, eps2, closed2 * inverse)
    return eps1, log_f_slope, eps2 if second else None


def _temme_start(m: int, level):
    """ln x of Temme's asymptotic inversion of ln sf(m, x) = level, over a
    1-d array (Temme, Math. Comp. 58, 1992; Gil, Segura and Temme, SIAM J.
    Sci. Comput. 34, 2012): eta0 = z / sqrt(m) for the normal quantile z of
    1 - sf, read from ln sf above the median and from ln(1 - sf) =
    ln(-expm1(ln sf)) below it; eta = eta0 + eps1 / m + eps2 / m^2, the
    second term below m = _FIRST_ORDER_FROM only; x = m lam(eta), with
    ln lam(eta) a second-order Taylor step from ln lam0.  With f =
    eta0 / (lam0 - 1) = d ln lam / d eta, the terms come from
    e^(-m eta^2 / 2) f(eta) deta = Gamma*(m) e^(-m eta0^2 / 2) deta0,
    Gamma*(m) = 1 + 1 / (12 m) + ..., order by order in 1/m: eps1 =
    ln f / eta0 and eps2 = (eps1 (ln f)' - eps1^2 / 2 + eps1' - 1/12) / eta0
    (see ``_temme_terms``).  Not a bound: on either side of the root, within
    2.1e-3 in ln x at m = 2, 1.5e-4 at m = 5, 2.0e-5 at m = 10, 2.5e-6 at
    m = 20 and 2e-8 at m = 1000; NaN past levels near -1e122."""
    above = level < -_LN2
    with np.errstate(all="ignore"):
        w = _normal_quantile(np.where(above, level, np.log(-np.expm1(level))))
        eta0 = np.where(above, -w, w) / math.sqrt(m)
        v0 = _log_lam(eta0)
        e0 = np.expm1(v0)  # lam0 - 1
        eps1, log_f_slope, eps2 = _temme_terms(eta0, e0, m < _FIRST_ORDER_FROM)
        d = eps1 / m if eps2 is None else eps1 / m + eps2 / (m * m)
        # d ln lam / d eta = f = e^(eta0 eps1) and d2 ln lam / d eta2 = f (ln f)'
        slope = np.exp(eta0 * eps1)
        return math.log(m) + v0 + d * slope * (1.0 + 0.5 * d * log_f_slope)


def above_crossing(m: int, level):
    """An x with ln sf(m, x) < level, element-wise for levels < 0, capped at
    the largest double: the sub-gamma tail bound P{Erlang(m) > m +
    sqrt(2 m c) + c} <= e^-c (Boucheron, Lugosi and Massart, Concentration
    Inequalities, 2013, 2.4) at c = -level, with c a relative 1e-6 high."""
    c = -np.asarray(level, dtype=np.float64)
    excess = m + math.sqrt(2.0 * m) * np.sqrt(c) + 1e-6 * c
    return c + np.minimum(excess, _MAX - c)


# ln pdf - ln sf, the log hazard, cancels far above the mode to an absolute
# error near x eps, 1e-9 at x = 2^22; past that and 2 m the hazard is read
# from the finite sum instead, 1 / S_m(x) (m-1)! x^(1-m), where nothing
# cancels and, at x > 2 m, _SERIES_TERMS terms reach 2^-63.
_FAR_HAZARD = 2.0**22
# The last Halley step's tolerance in ln x, at m = 1e6.  The step's own error
# is cubic (Traub 1964), about K step^3 with K near m at the mode, so the
# tolerance _INVERSE_STEP (1e6 / m)^(1/3), 1e-5 at m = 1, keeps that error
# near 1e-15 at every shape.  Temme's second-order start is within about
# 0.018 / m^3 in ln x up to m = 20, and its first order within 0.034 / m^2
# from m = _FIRST_ORDER_FROM: where that is inside the tolerance, a block
# takes one kernel call (erlang_log_sf_inverse states the counts).
_INVERSE_STEP = 1e-7


def _log_cumulative_hazard(m: int, u, level):
    """(G - ln(-level), G', G'') at u for G(u) = ln(-ln sf(e^u)), with
    r = G' = x h / H for the hazard h and H = -ln sf, and
    G'' = r (m + x (h - 1) - r).  The residual is the log of a ratio: a
    difference of two logs near 690 would lose 1e-13."""
    x = np.exp(u)
    log_sf = erlang_log_sf(m, x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.log(log_sf / level)  # -inf where sf is 1, inf where it is 0
        log_h = np.minimum(erlang_log_pdf(m, x) - log_sf, 0.0)
        excess = x * np.expm1(log_h)  # x (h - 1)
        far = x > max(2.0 * m, _FAR_HAZARD)
        if far.any():
            t = _finite_tail(m, x[far])
            log_h[far], excess[far] = -np.log1p(t), -x[far] * t / (1.0 + t)
        r = x * np.exp(log_h) / -log_sf
        return f, r, r * (m + excess - r)


def erlang_log_sf_inverse(m: int, level):
    """The x with ln P{Erlang(m, 1) > x} = ``level``, a float for a float or
    an array of the input's shape, each element solved on its own.  0 at
    level 0 and inf at level -inf; NaN or a positive level raises ValueError.
    A subnormal level, above -2.2e-308, is solved as -2.2e-308: ln sf near
    it has too few digits to resolve the crossing.

    The search runs in u = ln x on G(u) = ln(-ln sf), the log of the
    cumulative hazard, which rises like m u far below the mode and like u
    far above it: ``halley`` steps from the exact x = -level at m = 1 and
    from ``_temme_start`` at m >= 2, with ``below_crossing`` and
    ``above_crossing`` as the bracket of the levels that the start leaves
    undone.  Per array: 1 kernel call at m = 1 and from m = 17 on, 2 at
    m = 2-4, and at m = 5-16 2 or, at larger n, 1, on moment grids, on
    random levels and on every level from -5e-324 to ln(2.2e-308); a block
    done in one call forms no bracket.  Past about -1e122 the start is NaN,
    and such a block searches from ``below_crossing``: 1 call up to about
    m = 900, 2 from m = 1000.  The last step, at most 1e-7 (1e6 / m)^(1/3)
    (see _INVERSE_STEP), is applied as x + x expm1(step), not as
    e^(u + step): at m = 1e6 one ulp of u is 1.8e-15 of x, and x hazard(x)
    is 800 at the mode, so it would move ln sf by 1.4e-12.  Against 40-digit mpmath, x is within 4e-15 relative at
    levels from -1e-20 to -700 and 2e-16 past -1e15; nearer 0 the kernel's
    error sets it, 3e-14 at m = 2.  An x that rounds past the largest double
    is capped there.
    """
    m = check_count(m, "Erlang shape")
    level = np.array(level, dtype=np.float64)
    flat = level.reshape(-1)
    if not (flat <= 0.0).all():  # NaN compares false
        raise ValueError("level must be a log-probability, in [-inf, 0]")
    out = np.where(flat == 0.0, 0.0, math.inf)
    inner = (flat < 0.0) & (flat > -math.inf)
    if inner.any():
        target = np.minimum(flat[inner], -_TINY)
        start = np.log(-target) if m == 1 else _temme_start(m, target)  # m = 1: exact
        u, step = halley(
            lambda u, level: _log_cumulative_hazard(m, u, level), target,
            lambda i: np.log(below_crossing(m, target[i])),
            lambda i: np.log(above_crossing(m, target[i])),
            _INVERSE_STEP * (1e6 / m) ** (1.0 / 3.0),
            "Erlang survival inverse failed to solve its level", start,
        )
        x = np.exp(u)
        with np.errstate(over="ignore"):
            out[inner] = np.minimum(x + x * np.expm1(step), _MAX)
    return float(out[0]) if level.ndim == 0 else out.reshape(level.shape)


# Elements per erlang_log_sf_inverse call in delta_from_exponential.  The
# inverse is bound by its per-call overhead, so a call should hold many
# levels; 4096 keep each level-sized array at 32 KiB, and the series kernels
# bound their own term tables (see _TERM_ROWS), so memory stays small
# however many values are asked for.
_INVERSE_BLOCK = 4096
_LOG_TINY = math.log(_TINY)


def delta_from_exponential(m: int, n: int, e: np.ndarray) -> np.ndarray:
    """Delta with P{Delta <= Delta_i} = F_m(Delta_i / n)^n = e^-E_i for each
    E_i >= 0 of the 1-d array e, so a standard exponential E gives Delta the
    law of n times the largest of n Gamma(m, 1) variables: Delta = n x with
    ln sf_m(x) = ln(1 - e^(-E/n)).  That level is floored at the log of the
    smallest normal double, so E = 0, whose Delta is infinite, gives a
    finite one; Delta saturates once E/n falls below 2.2e-308."""
    x = []
    for i in range(0, len(e), _INVERSE_BLOCK):
        level = np.maximum(log1mexp(e[i : i + _INVERSE_BLOCK] / n), _LOG_TINY)
        x.append(erlang_log_sf_inverse(m, level))
    return n * np.concatenate(x) if x else np.empty(0)


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
