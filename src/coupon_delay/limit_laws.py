"""Normalizations and limiting distributions of the delay.

Four asymptotic regimes are supported, distinguished by how the per-user
packet count m scales with the user count n:

* fixed m                 -> Gumbel (extreme value of near-exponential tails)
* m >> ln^3(n)            -> Gumbel ("supercritical")
* m ~ beta ln(n)          -> Gumbel with constants built from alpha(beta)
* fixed n, m -> infinity  -> max of n independent standard normals

Each regime comes with an affine map d -> (d - center)/scale.  The centers
here absorb the regime constant, so the normalized statistic targets the
*standard* Gumbel: the paper's unabsorbed presentation exp(-c e^{-y}) of a
Gumbel limit is the standard Gumbel at y - ln c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .alpha import solve_alpha
from .special import check_count, normal_cdf

__all__ = [
    "FixedM",
    "Supercritical",
    "Critical",
    "FixedN",
    "Regime",
    "StandardGumbel",
    "MaxOfNormals",
    "Target",
    "Normalization",
    "normalization",
    "critical_constant",
    "target_cdf",
    "derive_b",
]

_LOG_2SQRTPI = math.log(2.0 * math.sqrt(math.pi))


@dataclass(frozen=True)
class FixedM:
    m: int

    def __post_init__(self):
        check_count(self.m, "FixedM's m")


@dataclass(frozen=True)
class Supercritical:
    pass


@dataclass(frozen=True)
class Critical:
    """m ~ beta ln(n); ``alpha``, the regime constant, is solved once here."""

    beta: float
    alpha: float = field(init=False, compare=False)

    def __post_init__(self):  # solve_alpha validates beta
        solution = solve_alpha(self.beta)
        object.__setattr__(self, "beta", solution.beta)
        object.__setattr__(self, "alpha", solution.alpha)


@dataclass(frozen=True)
class FixedN:
    n: int

    def __post_init__(self):
        check_count(self.n, "FixedN's n")


Regime = Union[FixedM, Supercritical, Critical, FixedN]


@dataclass(frozen=True)
class StandardGumbel:
    pass


@dataclass(frozen=True)
class MaxOfNormals:
    n: int


Target = Union[StandardGumbel, MaxOfNormals]


@dataclass(frozen=True)
class Normalization:
    """Affine map d -> (d - center)/scale onto the target law's scale."""

    center: float
    scale: float
    target: Target

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def apply(self, values):
        return (np.asarray(values, dtype=np.float64) - self.center) / self.scale


def derive_b(m: int, n: int, beta: float) -> float:
    """Critical-sequence offset b with m = (beta + b) ln(n), i.e. m/ln(n) - beta."""
    if n < 2:
        raise ValueError("derive_b requires n >= 2")
    return m / math.log(n) - beta


def critical_constant(alpha: float, beta: float) -> float:
    """The additive constant 0.5 * ln(2 pi (alpha - beta)^2 / beta).

    This is exactly the log-shift that turns the unabsorbed critical limit
    exp(-(sqrt(beta)/(sqrt(2 pi)(alpha-beta))) e^{-y}) into the standard
    Gumbel; it tends to ln(2 sqrt(pi)) as beta -> infinity.
    """
    if not beta > 0 or not alpha > beta:
        raise ValueError("critical_constant requires alpha > beta > 0")
    return 0.5 * math.log(2.0 * math.pi * (alpha - beta) ** 2 / beta)


def normalization(regime: Regime, m: int, n: int) -> Normalization:
    """Centering and scaling that sends the delay to its limit law.

    Applicability of a regime to the actual (m, n) is a modeling choice of
    the caller and is deliberately not enforced; goodness of fit is what
    the KS harness reports.
    """
    check_count(m, "m")
    check_count(n, "n")
    if isinstance(regime, FixedN):
        return Normalization(
            center=float(n) * m,
            scale=float(n) * math.sqrt(m),
            target=MaxOfNormals(n),
        )
    if n < 3:
        raise ValueError("regimes using ln(ln(n)) require n >= 3")
    log_n = math.log(n)
    loglog_n = math.log(log_n)

    if isinstance(regime, FixedM):
        center = n * (log_n + (m - 1) * loglog_n - math.lgamma(m))
        return Normalization(center=center, scale=float(n), target=StandardGumbel())

    if isinstance(regime, Supercritical):
        root = math.sqrt(2.0 * m * log_n)
        scale = n * m / root
        center = n * m * (1.0 + (2.0 * log_n - 0.5 * loglog_n - _LOG_2SQRTPI) / root)
        return Normalization(center=center, scale=scale, target=StandardGumbel())

    if isinstance(regime, Critical):
        beta, alpha = regime.beta, regime.alpha
        b = derive_b(m, n, beta)
        const = critical_constant(alpha, beta)
        gap = alpha - beta
        scale = alpha * n / gap
        # Bare centering of the critical limit, then absorb the constant so
        # the target is the standard Gumbel.
        center = (
            alpha * n * log_n
            + (alpha * (gap - 1.0) / (beta * gap)) * b * n * log_n
            - (alpha / (2.0 * gap)) * n * loglog_n
            - const * scale
        )
        return Normalization(center=center, scale=scale, target=StandardGumbel())

    raise TypeError(f"unknown regime {regime!r}")


def target_cdf(target: Target, y):
    """CDF of a normalization target, vectorized over y."""
    y_arr = np.asarray(y, dtype=np.float64)
    if isinstance(target, StandardGumbel):
        with np.errstate(over="ignore"):
            out = np.exp(-np.exp(-y_arr))
    elif isinstance(target, MaxOfNormals):
        out = (normal_cdf(np.atleast_1d(y_arr)) ** target.n).reshape(y_arr.shape)
    else:
        raise TypeError(f"unknown target {target!r}")
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out
