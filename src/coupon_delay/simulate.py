"""Monte Carlo sampling of the delay and goodness-of-fit statistics.

Every draw comes from a counter-based Philox stream keyed by
SeedSequence(seed, spawn_key=(k, 0)).  In the D modes stream k is
replication k's.  In poissonized mode stream b is block b's, the
replications b * 256 .. b * 256 + 255: replication i is the (i mod 256)-th
standard exponential of stream i // 256.  So a batch is a pure function of
its configuration, its prefixes do not depend on ``reps``, and it is
bit-identical however the streams are chunked across workers.  The keys are
derived in bulk and each worker resets one generator per stream.  The env
var COUPON_DELAY_THREADS sets the worker count (default 1, at most 64).
"""

from __future__ import annotations

import itertools
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


# NumPy's frozen SeedSequence hash (O'Neill's seed_seq): the k-th hashmix
# of the pool uses _HASH_A[k] and _HASH_A[k + 1], output word k _HASH_B[k..k+1].
_M32 = 0xFFFFFFFF
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, k, 2**32) & _M32 for k in range(29)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 2**32) & _M32 for k in range(5)]
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_KEY_BLOCK = 4096  # temporaries stay below glibc's 128 KiB mmap threshold
# Replications per poissonized stream.  It fixes which draw each replication
# takes, so changing it changes every poissonized sample; the inverse's own
# block, special._INVERSE_BLOCK, is a memory setting and may change freely.
_STREAM_BLOCK = 256
_CSV_ROWS = 4096  # rows formatted per write: export memory is bounded


def _hashmix(value, consts, k):
    """SeedSequence's k-th hashmix, on a Python int or a uint32 array."""
    value = (value ^ consts[k]) * consts[k + 1] & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix; Python ints are masked before they meet an array."""
    value = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return value ^ value >> 16


def _stream_keys(seed: int, start: int, count: int) -> np.ndarray:
    """The (count, 2) uint64 Philox keys of replications start..start+count-1:
    row i is SeedSequence(entropy=seed, spawn_key=(start + i, 0))
    .generate_state(2, np.uint64), bit for bit.  The entropy words are the
    seed's two, two zeros, then the spawn key's: rep's low word, its high
    word if nonzero, and 0.  Only the spawn key's words are per replication."""
    words = [int(seed) & _M32, int(seed) >> 32, 0, 0]
    pool = [_hashmix(word, _HASH_A, k) for k, word in enumerate(words)]
    for k, (src, dst) in enumerate(itertools.permutations(range(4), 2), start=4):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A, k))
    reps = np.arange(start, start + count, dtype=np.uint64)
    lo, hi = (reps & _M32).astype(np.uint32), (reps >> 32).astype(np.uint32)
    for k, word in ((16, lo), (20, hi)):  # below 2**32, hi is the key's 0 itself
        pool = [_mix(p, _hashmix(word, _HASH_A, k + i)) for i, p in enumerate(pool)]
    if start + count > 2**32:  # the key's 0 follows a nonzero high word
        wide = reps >= 2**32
        pool = [np.where(wide, _mix(p, _hashmix(0, _HASH_A, 24 + i)), p)
                for i, p in enumerate(pool)]
    out = [_hashmix(p, _HASH_B, i).astype(np.uint64) for i, p in enumerate(pool)]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


def _run_reps(worker, seed: int, count: int) -> list:
    """Evaluate worker(rng, k) for stream k = 0..count-1, gathered in order,
    with rng reset to the start of stream k before each call: one Generator
    per chunk, its Philox given stream k's key, counter 0 and an empty
    buffer through the public state setter.  Workers split the streams into
    contiguous chunks, so a stream is never shared by two of them."""

    def chunk(first, last):
        rng = np.random.Generator(np.random.Philox(0))
        state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        out = []
        for a in range(first, last, _KEY_BLOCK):
            keys = _stream_keys(seed, a, min(_KEY_BLOCK, last - a)).tolist()
            for k, key in enumerate(keys, start=a):
                state["state"]["key"] = key
                rng.bit_generator.state = state
                out.append(worker(rng, k))
        return out

    threads = min(_worker_count(), count)
    if threads == 1:
        return chunk(0, count)
    # Imported here: single-threaded runs, the default, never need it.
    from concurrent.futures import ThreadPoolExecutor

    bounds = np.linspace(0, count, threads + 1, dtype=int).tolist()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(chunk, bounds[:-1], bounds[1:]))
    return [item for part in parts for item in part]


def _sample(config: SimConfig, mode: str) -> SampleBatch:
    """The one generator behind every mode; the mode picks the columns kept.

    Unit-rate stream j completes its m-th arrival at G_j ~ Gamma(m, 1), so
    all streams are done at x = max G_j and Delta = n x.  By the strong
    Markov property stream j adds Poisson(x - G_j) further arrivals by time
    x, independent of every G, so D = m n + Poisson(sum_j (x - G_j)) and the
    pair (D, Delta) has the exact coupled law, at O(n) time and memory per
    replication.  Delta alone needs no G_j: poissonized mode draws one
    standard exponential per replication, a block of _STREAM_BLOCK from
    each stream, and inverts P{Delta <= x} = F_m(x/n)^n at them, in O(1).
    """
    if config.mode != mode:
        raise ValueError(f"sample_{mode} requires mode={mode!r}")
    m, n, reps = config.ps.m, config.ps.n, config.reps
    if mode == MODE_POISSONIZED:
        delta = np.empty(reps)

        def block(rng: np.random.Generator, b: int) -> None:
            first = b * _STREAM_BLOCK
            e = rng.standard_exponential(min(_STREAM_BLOCK, reps - first))
            delta[first : first + len(e)] = delta_from_exponential(m, n, e)

        _run_reps(block, config.seed, -(-reps // _STREAM_BLOCK))
        return SampleBatch(config=config, delta_values=delta)

    keep_delta = mode == MODE_COUPLED

    def worker(rng: np.random.Generator, rep: int) -> tuple[int, float]:
        try:
            g = rng.standard_gamma(m, size=n)
        except MemoryError:
            raise ValueError(
                f"n = {n} completion times per replication do not fit in memory;"
                " --mode poissonized costs O(1) per replication"
            ) from None
        # g.max() and (x - g).sum() without NumPy's Python-level wrappers
        x = np.maximum.reduce(g)
        return m * n + int(rng.poisson(np.add.reduce(x - g))), float(n * x)

    d, delta = zip(*_run_reps(worker, config.seed, reps))
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
    standard exponential E, the (i mod 256)-th of block i // 256's stream,
    and returns the Delta with F_m(Delta/n)^n = e^-E, exact to the accuracy
    of ``erlang_log_sf``.  Each block of 256 replications costs one
    generator reset, one draw call and one ``erlang_log_sf_inverse`` call,
    whose kernel calls that function's docstring states, so a replication
    costs O(1) time at every (m, n), n = 1e12 included, and memory is the
    8-byte result per replication plus one block's temporaries.  The values
    differ from the Delta column of ``sample_coupled`` at the same seed; only
    the laws agree.
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
    LF line endings, written _CSV_ROWS rows at a time."""
    columns = {}
    if batch.d_values is not None:
        columns["d"] = (batch.d_values, lambda v: map(str, v.astype(np.int64).tolist()))
    if batch.delta_values is not None:
        columns["delta"] = (batch.delta_values,
                            lambda v: [format(x, ".10g") for x in v.tolist()])
    if not columns:
        raise ValueError("batch holds no samples")
    rows = min(len(values) for values, _ in columns.values())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, rows, _CSV_ROWS):
            cells = [cell(values[lo : lo + _CSV_ROWS]) for values, cell in columns.values()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
