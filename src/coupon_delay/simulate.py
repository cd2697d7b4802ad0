"""Monte Carlo sampling of the delay and goodness-of-fit statistics.

Every mode splits its replications into blocks of 256: replication i lies in
block b = i // 256.  Block b draws from two counter-based Philox streams,
NumPy's Generator(Philox(SeedSequence(seed, spawn_key=(b, 0)))) and the same
with spawn_key=(b, 1).  In poissonized mode replication i is the
(i mod 256)-th standard exponential of stream (b, 0), drawn straight into
the result, and the exponentials of up to 16 blocks, 4096 replications, are
inverted in one call.  In the D modes the replications of a block, in order,
each take their n gammas from stream (b, 0) and their one Poisson overshoot
from stream (b, 1).  So a batch is a pure function of its configuration, its
prefixes do not depend on ``reps``, and it is bit-identical however the
blocks are split across workers.  The env var COUPON_DELAY_THREADS sets the
worker count (default 1, at most 64); each worker takes one contiguous range
of whole blocks, so a batch of at most 256 replications runs on one worker.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .limit_laws import Normalization, Regime, normalization, target_cdf
from .moments import ProblemSize
from . import special
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
_MAX_THREADS = 64  # one OS thread per worker: a huge setting must not start that many


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


@dataclass(frozen=True)
class KSReport:
    statistic: float
    reps: int
    normalization: Normalization


def _worker_count() -> int:
    raw = os.environ.get(_THREADS_ENV, "1")
    try:
        return min(max(1, int(raw)), _MAX_THREADS)
    except ValueError:
        raise ValueError(f"{_THREADS_ENV} must be an integer, got {raw!r}") from None


# Replications per block.  It fixes which draws each replication takes, so
# changing it changes every sample in every mode; the inverse's own block,
# special._INVERSE_BLOCK, changes no sample: it sets how many blocks
# poissonized mode inverts per call.
_STREAM_BLOCK = 256
# Blocks per delta_from_exponential call in poissonized mode, which inverts
# them in one erlang_log_sf_inverse call.
_INVERSE_RUN = special._INVERSE_BLOCK // _STREAM_BLOCK
_CSV_ROWS = 4096  # rows formatted per write: export memory is bounded


def _stream(seed: int, block: int, kind: int) -> np.random.Generator:
    """Stream ``kind`` of a block: 0 for its gammas or exponentials, 1 for
    its Poisson overshoots."""
    seq = np.random.SeedSequence(seed, spawn_key=(block, kind))
    return np.random.Generator(np.random.Philox(seq))


def _run_reps(blocks, reps: int) -> None:
    """Call blocks(first, last) once per worker, on contiguous ranges of the
    blocks of _STREAM_BLOCK replications that together cover each block
    once, in order.  So a block, and with it a batch of at most
    _STREAM_BLOCK replications, runs on one worker."""
    count = -(-reps // _STREAM_BLOCK)
    threads = min(_worker_count(), count)
    if threads == 1:
        return blocks(0, count)
    # Imported here: single-threaded runs, the default, never need it.
    from concurrent.futures import ThreadPoolExecutor

    bounds = np.linspace(0, count, threads + 1, dtype=int).tolist()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(blocks, bounds[:-1], bounds[1:]))  # re-raises a worker's error


def _sample(config: SimConfig, mode: str) -> SampleBatch:
    """The one generator behind every mode; the mode picks the columns kept.

    Unit-rate stream j completes its m-th arrival at G_j ~ Gamma(m, 1), so
    all streams are done at x = max G_j and Delta = n x.  By the strong
    Markov property stream j adds Poisson(x - G_j) further arrivals by time
    x, independent of every G, so D = m n + Poisson(sum_j (x - G_j)) and the
    pair (D, Delta) has the exact coupled law, at O(n) time and memory per
    replication.  Each replication of block b takes its n gammas from stream
    (b, 0) and then its overshoot from stream (b, 1).  Delta alone needs no
    G_j: poissonized mode draws one standard exponential per replication, a
    block of _STREAM_BLOCK from each stream (b, 0), straight into the Delta
    column, and inverts P{Delta <= x} = F_m(x/n)^n at them in place, in
    O(1), _INVERSE_RUN blocks per call.  Every column is allocated before
    the first draw.
    """
    if config.mode != mode:
        raise ValueError(f"sample_{mode} requires mode={mode!r}")
    m, n, reps, seed = config.ps.m, config.ps.n, config.reps, config.seed
    try:
        d = np.empty(reps, dtype=np.int64) if mode != MODE_POISSONIZED else None
        delta = np.empty(reps, dtype=np.float64) if mode != MODE_DISCRETE else None
    except MemoryError:
        raise ValueError(f"--reps {reps}: the batch's results do not fit in memory") from None

    def span(first: int, last: int) -> slice:
        """The replications of blocks first to last - 1."""
        return slice(first * _STREAM_BLOCK, min(last * _STREAM_BLOCK, reps))

    def exponentials(first: int, last: int) -> None:
        for run in range(first, last, _INVERSE_RUN):
            stop = min(run + _INVERSE_RUN, last)
            for b in range(run, stop):
                _stream(seed, b, 0).standard_exponential(out=delta[span(b, b + 1)])
            delta[span(run, stop)] = delta_from_exponential(m, n, delta[span(run, stop)])

    def completions(first: int, last: int) -> None:
        for b in range(first, last):
            gammas, overshoots = _stream(seed, b, 0), _stream(seed, b, 1)
            rows = span(b, b + 1)
            for i in range(rows.start, rows.stop):
                try:
                    g = gammas.standard_gamma(m, size=n)
                except MemoryError:
                    raise ValueError(
                        f"n = {n} completion times per replication do not fit in memory;"
                        " --mode poissonized costs O(1) per replication"
                    ) from None
                # g.max() and (x - g).sum() without NumPy's Python-level wrappers
                x = np.maximum.reduce(g)
                d[i] = m * n + int(overshoots.poisson(np.add.reduce(x - g)))
                if delta is not None:
                    delta[i] = n * x

    _run_reps(exponentials if d is None else completions, reps)
    return SampleBatch(config=config, d_values=d, delta_values=delta)


def sample_discrete(config: SimConfig) -> SampleBatch:
    """Replicated draws of the trial count D; D >= m*n surely.  Each
    replication costs O(n) time and memory for its n gammas, and the batch
    keeps 8 bytes per replication."""
    return _sample(config, MODE_DISCRETE)


def sample_poissonized(config: SimConfig) -> SampleBatch:
    """Replicated draws of Delta alone: n times the largest of n Gamma(m, 1)
    completion times, i.e. the largest of n Erlang(m, rate 1/n) variables.

    Its law is P{Delta <= x} = F_m(x/n)^n, so replication i takes one
    standard exponential E, the (i mod 256)-th of stream (i // 256, 0), and
    returns the Delta with F_m(Delta/n)^n = e^-E, exact to the accuracy of
    ``erlang_log_sf``.  Each block of 256 replications costs one generator
    and one draw call, and each run of 16 blocks, 4096 replications, one
    ``erlang_log_sf_inverse`` call, whose kernel calls that function's
    docstring states, so a replication costs O(1) time at every (m, n),
    n = 1e12 included, and memory is the 8-byte result per replication plus
    one inverse call's temporaries, each below 128 KiB.  The values differ
    from the Delta column of ``sample_coupled`` at the same seed; only the
    laws agree.
    """
    return _sample(config, MODE_POISSONIZED)


def sample_coupled(config: SimConfig) -> SampleBatch:
    """Replicated coupled pairs (D, Delta) from one draw of the n gamma
    completion times: Delta is n times their maximum, and D adds the
    Poisson overshoot of every stream up to that maximum.  Given D, Delta
    is Gamma(D, 1), the sum of D unit exponentials independent of D.  The
    batch keeps 16 bytes per replication; D is the same as
    ``sample_discrete``'s at the same seed."""
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
    values = batch.d_values if batch.d_values is not None else batch.delta_values
    if values is None or len(values) == 0:
        raise ValueError("batch holds no samples")
    ps = batch.config.ps
    norm = normalization(regime, ps.m, ps.n)
    y = np.sort(norm.apply(values))
    model = np.asarray(target_cdf(norm.target, y), dtype=np.float64)
    return KSReport(
        statistic=ks_statistic(y, model), reps=len(y), normalization=norm
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
    LF line endings, written _CSV_ROWS rows at a time.  D is written as an
    integer and Delta to 10 significant digits, format(x, ".10g"); a chunk
    of rows is one % of the row template, repeated, over its values."""
    columns = [
        (name, spec, dtype, values)
        for name, spec, dtype, values in (
            ("d", "%d", np.int64, batch.d_values),
            ("delta", "%.10g", np.float64, batch.delta_values),
        )
        if values is not None
    ]
    if not columns:
        raise ValueError("batch holds no samples")
    row = ",".join(spec for _, spec, _, _ in columns) + "\n"
    rows = min(len(values) for *_, values in columns)
    width = len(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(name for name, *_ in columns) + "\n")
        for lo in range(0, rows, _CSV_ROWS):
            k = min(_CSV_ROWS, rows - lo)
            cells = [None] * (width * k)  # row by row, column by column
            for j, (_, _, dtype, values) in enumerate(columns):
                cells[j::width] = values[lo : lo + k].astype(dtype, copy=False).tolist()
            fh.write(row * k % tuple(cells))
