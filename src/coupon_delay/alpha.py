"""Critical-regime delay constant.

When the per-user packet count grows like beta * ln(n), the mean delay per
coupon inflates by alpha/beta, where alpha is the unique root of

    alpha - beta ln(alpha) = beta - beta ln(beta) + 1

on (beta, inf).  Substituting u = alpha/beta - 1 turns this into

    u - ln(1 + u) = 1/beta,   u > 0,

which is monotone with derivative u/(1+u) and superbly conditioned, so the
solver works in u and converts back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import is_positive_real, log1p_excess, newton_bracket

__all__ = ["AlphaSolution", "solve_alpha", "bridging_gap"]

_REL_WIDTH = 1e-15  # relative to u: a few ulps, a quarter of it at least one
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class AlphaSolution:
    beta: float
    alpha: float
    residual: float  # alpha - beta ln(alpha) - (beta - beta ln(beta) + 1)
    iterations: int  # root-search steps after the bracket

    @property
    def bridging_gap(self) -> float:
        """(alpha - beta)/sqrt(beta) - sqrt(2): tends to 0 as beta grows, as
        the critical-regime constants merge into the supercritical ones."""
        return (self.alpha / self.beta - 1.0) * math.sqrt(self.beta) - math.sqrt(2.0)


def _excess_log_gap(u):
    """u - log1p(u), element-wise, without cancellation below u = 0.5."""
    return np.where(u > 0.5, u - np.log1p(u), log1p_excess(np.minimum(u, 0.5)))


def _check_beta(beta) -> float:
    """beta as a float, or ValueError: 1/beta overflows below _TINY."""
    if not (is_positive_real(beta) and beta >= _TINY):
        raise ValueError(f"beta must be a finite real >= {_TINY}, got {beta!r}")
    return float(beta)


def _solve_excess(beta: float) -> tuple[float, float, int]:
    """Root u of u - log1p(u) = 1/beta; returns (u, residual, steps), the
    steps counted after the bracket.

    The root lies above u = sqrt(2/beta), where u - log1p(u) <= u^2/2 =
    1/beta, and above u = 1/beta + log1p(1/beta), where u - log1p(u) -
    1/beta = log1p(1/beta) - log1p(u) < 0; and below u = 1/beta +
    sqrt(1/beta) sqrt(1/beta + 2), where u - log1p(u) >= u^2/(2 (1 + u))."""
    inv_b = 1.0 / beta
    steps = 0

    def slope(u: float, _) -> float:  # called once per step after the bracket
        nonlocal steps
        steps += 1
        return u / (1.0 + u)

    below, above = newton_bracket(
        lambda u: _excess_log_gap(u) - inv_b, slope, 0.0,
        max(inv_b + math.log1p(inv_b), math.sqrt(2.0 * inv_b)),
        inv_b + math.sqrt(inv_b) * math.sqrt(inv_b + 2.0),
        f"failed to bracket the root for beta={beta}", _REL_WIDTH,
    )
    u = float(0.5 * (below + above))
    return u, float(beta * (_excess_log_gap(u) - inv_b)), steps


def solve_alpha(beta: float) -> AlphaSolution:
    """Solve alpha - beta ln(alpha) = beta - beta ln(beta) + 1 on (beta, inf).

    Deterministic, |residual| <= 1e-12 throughout beta in [1e-6, 1e6]
    (and in practice far beyond).
    """
    beta = _check_beta(beta)
    u, residual, iterations = _solve_excess(beta)
    return AlphaSolution(
        beta=beta, alpha=beta * (1.0 + u), residual=residual, iterations=iterations
    )


def bridging_gap(beta: float) -> float:
    """``solve_alpha(beta).bridging_gap``."""
    return solve_alpha(beta).bridging_gap
