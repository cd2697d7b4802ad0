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


@dataclass(frozen=True)
class AlphaSolution:
    beta: float
    alpha: float
    residual: float  # alpha - beta ln(alpha) - (beta - beta ln(beta) + 1)
    iterations: int  # root-search steps after the bracket


def _excess_log_gap(u):
    """u - log1p(u), element-wise, without cancellation below u = 0.5."""
    return np.where(u > 0.5, u - np.log1p(u), log1p_excess(np.minimum(u, 0.5)))


def _solve_excess(beta: float) -> tuple[float, float, int]:
    """Root u of u - log1p(u) = 1/beta; returns (u, residual, steps), the
    steps counted after the bracket.

    The search starts below the root: u - log1p(u) <= u^2/2 = 1/beta at
    u = sqrt(2/beta), and u - log1p(u) - 1/beta = log1p(1/beta) - log1p(u)
    < 0 at u = 1/beta + log1p(1/beta)."""
    inv_b = 1.0 / beta
    steps = 0

    def slope(u: float, _) -> float:  # called once per step after the bracket
        nonlocal steps
        steps += 1
        return u / (1.0 + u)

    start = max(inv_b + math.log1p(inv_b), math.sqrt(2.0 * inv_b))
    failure = f"failed to bracket the root for beta={beta}"
    above, below = newton_bracket(
        lambda u: _excess_log_gap(u) - inv_b,
        slope, 0.0, start, start * 2.0**200, failure, _REL_WIDTH,
    )
    u = 0.5 * (above + below)
    return u, float(beta * (_excess_log_gap(u) - inv_b)), steps


def solve_alpha(beta: float) -> AlphaSolution:
    """Solve alpha - beta ln(alpha) = beta - beta ln(beta) + 1 on (beta, inf).

    Deterministic, |residual| <= 1e-12 throughout beta in [1e-6, 1e6]
    (and in practice far beyond).
    """
    if not is_positive_real(beta):
        raise ValueError(f"beta must be a positive finite real, got {beta!r}")
    beta = float(beta)
    u, residual, iterations = _solve_excess(beta)
    return AlphaSolution(
        beta=beta, alpha=beta * (1.0 + u), residual=residual, iterations=iterations
    )


def bridging_gap(beta: float) -> float:
    """Deviation (alpha - beta)/sqrt(beta) - sqrt(2).

    Tends to 0 as beta grows, quantifying how the critical-regime
    normalization constants merge into the supercritical ones.
    """
    if not is_positive_real(beta):
        raise ValueError(f"beta must be a positive finite real, got {beta!r}")
    beta = float(beta)
    u, _, _ = _solve_excess(beta)
    return u * math.sqrt(beta) - math.sqrt(2.0)
