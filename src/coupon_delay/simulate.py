"""Monte Carlo sampling of the delay and goodness-of-fit statistics.

Replication i always draws from one counter-based Philox stream keyed on
(seed, i), so a batch is a pure function of its configuration: results are
bit-identical no matter how replications are chunked across workers.  The
env var COUPON_DELAY_THREADS caps the worker count (default 1).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .limit_laws import Normalization, Regime, normalization, target_cdf
from .moments import ProblemSize
from .special import check_count, delta_from_exponential, is_integer

__all__ = [
    "MODE_DISCRETE",
    "MODE_POISSONIZED",
    "MODE_COUPLED",
    "SimConfig",
    "SampleBatch",
    "KSReport",
    "sample_discrete",
    "sample_poissonized",
    "sample_coupled",
    "ks_distance",
    "ks_statistic",
    "empirical_moments",
    "write_samples_csv",
]

MODE_DISCRETE = "discrete"
MODE_POISSONIZED = "poissonized"
MODE_COUPLED = "coupled"
_MODES = (MODE_DISCRETE, MODE_POISSONIZED, MODE_COUPLED)

_THREADS_ENV = "COUPON_DELAY_THREADS"


@dataclass(frozen=True)
class SimConfig:
    ps: ProblemSize
    reps: int
    seed: int
    mode: str

    def __post_init__(self):
        check_count(self.reps, "reps")
        if not is_integer(self.seed) or not 0 <= int(self.seed) < 2**64:
            raise ValueError(
                f"seed must be a 64-bit unsigned integer, got {self.seed!r}"
            )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SampleBatch:
    config: SimConfig
    d_values: Optional[np.ndarray] = None
    delta_values: Optional[np.ndarray] = None

    def primary_values(self) -> np.ndarray:
        values = self.d_values if self.d_values is not None else self.delta_values
        if values is None or len(values) == 0:
            raise ValueError("batch holds no samples")
        return values


@dataclass(frozen=True)
class KSReport:
    statistic: float
    reps: int
    regime: Regime
    normalization: Normalization


def _worker_count() -> int:
    raw = os.environ.get(_THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"{_THREADS_ENV} must be an integer, got {raw!r}") from None


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(rep, 0))
    return np.random.Generator(np.random.Philox(seq))


def _run_reps(worker, reps: int) -> list:
    """Evaluate worker(rep) for rep = 0..reps-1, gathered in order."""
    threads = _worker_count()
    if threads == 1 or reps < 2 * threads:
        return [worker(rep) for rep in range(reps)]
    # Imported here: single-threaded runs, the default, never need it.
    from concurrent.futures import ThreadPoolExecutor

    bounds = np.linspace(0, reps, threads + 1, dtype=int)
    ranges = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    def chunk(rng_range):
        return [worker(rep) for rep in rng_range]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(chunk, ranges))
    return [item for part in parts for item in part]


def _sample(config: SimConfig, mode: str) -> SampleBatch:
    """The one generator behind every mode; the mode picks the columns kept.

    Unit-rate stream j completes its m-th arrival at G_j ~ Gamma(m, 1), so
    all streams are done at x = max G_j and Delta = n x.  By the strong
    Markov property stream j adds Poisson(x - G_j) further arrivals by time
    x, independent of every G, so D = m n + Poisson(sum_j (x - G_j)) and the
    pair (D, Delta) has the exact coupled law, at O(n) time and memory per
    replication.  Delta alone needs no G_j: poissonized mode draws one
    standard exponential per replication and inverts P{Delta <= x} =
    F_m(x/n)^n at it, in O(1).
    """
    if config.mode != mode:
        raise ValueError(f"sample_{mode} requires mode={mode!r}")
    m, n = config.ps.m, config.ps.n
    if mode == MODE_POISSONIZED:
        draw = lambda rep: _rep_rng(config.seed, rep).standard_exponential()
        e = np.array(_run_reps(draw, config.reps))
        return SampleBatch(config=config, delta_values=delta_from_exponential(m, n, e))

    keep_delta = mode == MODE_COUPLED

    def worker(rep: int) -> tuple[int, float]:
        rng = _rep_rng(config.seed, rep)
        try:
            g = rng.standard_gamma(m, size=n)
        except MemoryError:
            raise ValueError(
                f"n = {n} completion times per replication do not fit in memory;"
                " --mode poissonized costs O(1) per replication"
            ) from None
        x = g.max()
        return m * n + int(rng.poisson((x - g).sum())), float(n * x)

    d, delta = zip(*_run_reps(worker, config.reps))
    return SampleBatch(
        config=config,
        d_values=np.array(d, dtype=np.int64),
        delta_values=np.array(delta, dtype=np.float64) if keep_delta else None,
    )


def sample_discrete(config: SimConfig) -> SampleBatch:
    """Replicated draws of the trial count D; D >= m*n surely."""
    return _sample(config, MODE_DISCRETE)


def sample_poissonized(config: SimConfig) -> SampleBatch:
    """Replicated draws of Delta alone: n times the largest of n Gamma(m, 1)
    completion times, i.e. the largest of n Erlang(m, rate 1/n) variables.

    Its law is P{Delta <= x} = F_m(x/n)^n, so replication i takes one
    standard exponential E from its stream and returns the Delta with
    F_m(Delta/n)^n = e^-E, exact to the accuracy of ``erlang_log_sf``.  Each
    replication costs O(1) time and memory at every (m, n), n = 1e12
    included: one stream set-up, one draw, and its share of an element-wise
    ``erlang_log_sf_inverse`` call on 256 replications at a time.  The
    values differ from the Delta column of ``sample_coupled`` at the same
    seed; only the laws agree.
    """
    return _sample(config, MODE_POISSONIZED)


def sample_coupled(config: SimConfig) -> SampleBatch:
    """Replicated coupled pairs (D, Delta) from one draw of the n gamma
    completion times: Delta is n times their maximum, and D adds the
    Poisson overshoot of every stream up to that maximum.  Given D, Delta
    is Gamma(D, 1), the sum of D unit exponentials independent of D."""
    return _sample(config, MODE_COUPLED)


def ks_statistic(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    """Exact sup-distance between the empirical CDF of a sorted sample and
    a model CDF evaluated at the sample points (no binning)."""
    k = len(sorted_values)
    if k == 0:
        raise ValueError("empty sample")
    steps = np.arange(1, k + 1, dtype=np.float64) / k
    return float(max((cdf_values - steps + 1.0 / k).max(), (steps - cdf_values).max()))


def ks_distance(batch: SampleBatch, regime: Regime) -> KSReport:
    """Normalize a batch for a regime and measure the exact KS distance to
    the regime's limiting CDF.

    Coupled batches are judged on their D values (the law being validated
    transfers from Delta to D); purely Poissonized batches on Delta.
    """
    values = batch.primary_values()
    ps = batch.config.ps
    norm = normalization(regime, ps.m, ps.n)
    y = np.sort(norm.apply(values))
    model = np.asarray(target_cdf(norm.target, y), dtype=np.float64)
    return KSReport(
        statistic=ks_statistic(y, model), reps=len(y), regime=regime, normalization=norm
    )


def empirical_moments(values, r: int = 1) -> tuple[float, float]:
    """(mean, standard error) of X^r over a nonempty 1-d sample."""
    if r < 1:
        raise ValueError("moment order must be >= 1")
    x = np.asarray(values, dtype=np.float64) ** r
    if len(x) == 0:
        raise ValueError("empty sample")
    if len(x) == 1:
        return float(x[0]), 0.0
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def write_samples_csv(batch: SampleBatch, path) -> None:
    """Raw sample export: header row, one value (or d,delta pair) per line,
    LF line endings."""
    columns = {}
    if batch.d_values is not None:
        columns["d"] = map(str, batch.d_values.astype(np.int64).tolist())
    if batch.delta_values is not None:
        columns["delta"] = [format(v, ".10g") for v in batch.delta_values.tolist()]
    if not columns:
        raise ValueError("batch holds no samples")
    lines = [",".join(columns), *map(",".join, zip(*columns.values()))]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
