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

from .special import halley, is_positive_real, log1p_excess

__all__ = ["AlphaSolution", "solve_alpha"]

_REL_STEP = 1e-7  # relative to u; the step's own error is cubic in it
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class AlphaSolution:
    beta: float
    alpha: float
    u: float  # alpha/beta - 1, the solver's root, with none of alpha's rounding
    residual: float  # alpha - beta ln(alpha) - (beta - beta ln(beta) + 1)
    iterations: int  # evaluations of the root search

    @property
    def bridging_gap(self) -> float:
        """(alpha - beta)/sqrt(beta) - sqrt(2): tends to 0 as beta grows, as
        the critical-regime constants merge into the supercritical ones."""
        return self.u * math.sqrt(self.beta) - math.sqrt(2.0)


def _excess_log_gap(u: float) -> float:
    """u - log1p(u) for a float u > 0, without cancellation below u = 0.5.
    NumPy's log1p, not ``math.log1p``: the two differ in the last bit for
    about 1% of arguments, and the root would move with it."""
    return u - float(np.log1p(u)) if u > 0.5 else log1p_excess(u)


def _check_beta(beta) -> float:
    """beta as a float, or ValueError: 1/beta overflows below _TINY."""
    if not (is_positive_real(beta) and beta >= _TINY):
        raise ValueError(f"beta must be a finite real >= {_TINY}, got {beta!r}")
    return float(beta)


def solve_alpha(beta: float) -> AlphaSolution:
    """Solve alpha - beta ln(alpha) = beta - beta ln(beta) + 1 on (beta, inf)
    as u - log1p(u) = 1/beta, u = alpha/beta - 1.

    The root lies above u = sqrt(2/beta), where u - log1p(u) <= u^2/2 =
    1/beta, and above u = 1/beta + log1p(1/beta), where u - log1p(u) -
    1/beta = log1p(1/beta) - log1p(u) < 0; and below u = 1/beta +
    sqrt(1/beta) sqrt(1/beta + 2), where u - log1p(u) >= u^2/(2 (1 + u)).
    Halley steps start at the larger lower bound, with u/(1 + u) and
    1/(1 + u)^2 as the first two derivatives, on Python floats (``halley``'s
    0-d path: 5-9 us a call by timeit on a 2-vCPU Xeon host, where a
    one-element array took 64-164 us).  Deterministic, |residual| <= 1e-12
    throughout beta in [1e-6, 1e6] (and in practice far beyond).
    """
    beta = _check_beta(beta)
    inv_b = 1.0 / beta
    evaluations = 0

    def excess(u, level):
        nonlocal evaluations
        evaluations += 1
        w = 1.0 / (1.0 + u)
        return _excess_log_gap(u) - level, u * w, w * w

    lo = max(inv_b + math.log1p(inv_b), math.sqrt(2.0 * inv_b))
    u, step = halley(
        excess, inv_b, lo, inv_b + math.sqrt(inv_b) * math.sqrt(inv_b + 2.0),
        _REL_STEP * lo, f"failed to find the root for beta={beta}",
    )
    u = u + step
    residual = beta * (_excess_log_gap(u) - inv_b)
    return AlphaSolution(
        beta=beta, alpha=beta * (1.0 + u), u=u, residual=residual,
        iterations=evaluations,
    )

