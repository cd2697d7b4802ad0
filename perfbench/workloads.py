"""The benchmark's workloads: seeded passes of calls, and their reference checks.

A workload is a closed loop with one caller: it repeats passes of calls
until the run's time is up, each call waiting for the previous one, as a
researcher issuing commands does. Pass ``p`` of a run with seed ``s`` is a
pure function of ``(s, p)``; every pass has the same mix of call types and
draws fresh inputs within fixed strata, so the mix, and with it the cost of
a pass, barely depends on the seed. The package receives only the generated
command lines and arguments.

Checks run after the timed loop. Each reference is independent of the code
it checks: harmonic numbers (mpmath) and the exact absorbing chain
(``exact_dist_small``) for quadrature; the exact chain, the quadrature mean
and the exact finite law ``F_m(x/n)^n`` (scipy's incomplete gamma) for the
samplers. Bounds are set so that a correct program fails a check with
probability below about 1e-6 (6 standard errors; KS below 3/sqrt(reps)), so
the thousands of checks made over many runs stay clear of false failures;
seeds are never chosen to pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Anchor shapes for the quadrature workload, all within exact_feasible.
EXACT_SHAPES = ((2, 3), (3, 4), (2, 8), (4, 6), (5, 5))

QUAD_REL = 1e-8  # relative accuracy demanded of quadrature against exact references
CSV_REL = 1e-9  # the CLI prints 10 significant digits
SE_BOUND = 6.0  # sample-mean checks: |mean| <= 6 standard errors
KS_LAMBDA = 3.0  # KS checks: D <= 3/sqrt(reps); P(false failure) <= 2 exp(-18)
MOMENT_COLUMNS = ["m", "n", "r", "value", "abs_err", "method", "asymptotic", "ratio"]


def exact_feasible(m: int, n: int) -> bool:
    """Whether exact_dist_small is cheap enough to serve as a reference.

    Its cost grows with the state space and the number of steps to drain:
    (3, 10) takes 0.2 s, (2, 20) 0.5 s and (2, 50) 21 s.
    """
    return m * n <= 30 and math.comb(m + n, n) <= 300


@dataclass
class Outcome:
    exit_code: int = 0
    stdout: str = ""
    stderr: str = ""
    value: Optional[float] = None  # return value of a library call
    error: Optional[str] = None  # exception raised out of the call


@dataclass(frozen=True)
class Call:
    label: str  # call type, for per-type summaries
    check: Callable[[Outcome, "References"], list]
    argv: Optional[tuple] = None  # a CLI call: coupon_delay.cli.main(argv)
    mgf: Optional[tuple] = None  # a library call: mgf_delta(ProblemSize(m, n), z)
    reps: int = 0  # Monte Carlo replications the call draws
    observe: Optional[Callable[[Outcome], dict]] = None  # outputs recorded, not checked


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # COUPON_DELAY_THREADS for the run
    make_pass: Callable[["Draws", Path], list] = field(repr=False)

    def calls(self, seed: int, index: int, out_dir: Path) -> list:
        """The calls of pass ``index``; CSV exports go under ``out_dir``."""
        return self.make_pass(Draws(seed, index, _TAGS[self.name]), Path(out_dir) / f"p{index}")


# frac(sqrt(p)) for the first primes: irrationals independent over the rationals
_ALPHAS = [math.sqrt(p) % 1.0 for p in (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
    79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163,
    167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
    257, 263, 269, 271, 277, 281, 283, 293, 307, 311)]


class Draws:
    """The seeded inputs of one pass.

    The k-th call of ``uniform`` in pass p returns a point of a Weyl
    sequence, ``frac(offset_k + p * alpha_k)``, scaled to its range, with
    the offsets drawn from the run's seed. Over a run the points then cover
    each range evenly whatever the seed, whereas independent draws would let
    a few extreme points move the tail latency from seed to seed. ``seed``
    draws the CLI's --seed values independently.
    """

    def __init__(self, seed: int, index: int, tag: int):
        self._offsets = np.random.default_rng([seed, tag]).random(len(_ALPHAS))
        self._rng = np.random.default_rng([seed, index, tag])
        self._index = index
        self._k = 0

    def uniform(self, lo: float, hi: float) -> float:
        u = float(self._offsets[self._k] + self._index * _ALPHAS[self._k]) % 1.0
        self._k += 1
        return lo + (hi - lo) * u

    def log_uniform_int(self, lo_exp: float, hi_exp: float) -> int:
        return max(1, int(round(10.0 ** self.uniform(lo_exp, hi_exp))))

    def choice(self, options):
        return options[min(int(self.uniform(0, len(options))), len(options) - 1)]

    def seed(self) -> str:
        return str(int(self._rng.integers(0, 2**63)))


# ---------------------------------------------------------------------------
# references


class References:
    """Reference values, computed once per run and shared by every check."""

    def __init__(self):
        import mpmath
        from scipy import special

        from coupon_delay.moments import ProblemSize, exact_dist_small, mean_delay

        self._mp = mpmath
        self._gammaincc = special.gammaincc
        self._ps = ProblemSize
        self._exact = exact_dist_small
        self._mean = mean_delay
        self._cache = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def exact(self, m: int, n: int):
        """Exact law of D (absorbing chain on sorted capped counts)."""
        return self._memo(("exact", m, n), lambda: self._exact(self._ps(m, n)))

    def quadrature_mean(self, m: int, n: int) -> float:
        return self._memo(("mean", m, n), lambda: self._mean(self._ps(m, n)).value)

    def harmonic_moments(self, n: int) -> tuple:
        """(E[Delta], E[Delta^2]) at m = 1, where Delta/n = sum_k E_k / k."""

        def compute():
            mp = self._mp
            with mp.workdps(30):
                h1 = mp.harmonic(n)
                h2 = mp.zeta(2) - mp.zeta(2, n + 1)
                return float(n * h1), float(n * n * (h1 * h1 + h2))

        return self._memo(("harmonic", n), compute)

    def alpha_gap(self, alpha: float, beta: float) -> float:
        """Relative residual of u - log1p(u) = 1/beta at u = alpha/beta - 1."""
        mp = self._mp
        with mp.workdps(40):
            u = mp.mpf(alpha) / mp.mpf(beta) - 1
            return float(abs((u - mp.log1p(u)) * beta - 1))

    def delta_cdf(self, m: int, n: int, x: np.ndarray) -> np.ndarray:
        """P{Delta <= x} = F_m(x/n)^n, by the regularized incomplete gamma."""
        q = self._gammaincc(m, np.asarray(x, dtype=np.float64) / n)
        return np.exp(n * np.log1p(-q))


# ---------------------------------------------------------------------------
# output parsing and statistics


def _json(outcome: Outcome) -> dict:
    return json.loads(outcome.stdout.strip().splitlines()[-1])


def _read_csv(path: str) -> tuple[list, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=np.float64).reshape(len(rows) - 1, -1)


def _mean_check(name: str, samples: np.ndarray, problems: list) -> None:
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    if not abs(samples.mean()) <= SE_BOUND * se:
        problems.append(f"{name}: |mean|={abs(samples.mean()):.4g} > {SE_BOUND} SE={se:.4g}")


def ks_continuous(x: np.ndarray, cdf: Callable) -> float:
    """Exact sup distance between the empirical CDF of x and a continuous CDF."""
    x = np.sort(x)
    k = len(x)
    f = cdf(x)
    steps = np.arange(1, k + 1) / k
    return float(max((steps - f).max(), (f - (steps - 1.0 / k)).max()))


def ks_discrete(d: np.ndarray, exact) -> float:
    """Sup distance between the empirical CDF of integer samples and the
    exact (truncated) law; both step at integers, so the sup is attained on
    the union of their supports."""
    support = np.union1d(exact.support, np.unique(d))
    exact_cdf = np.concatenate(([0.0], np.cumsum(exact.pmf)))
    f = exact_cdf[np.searchsorted(exact.support, support, side="right")]
    emp = np.searchsorted(np.sort(d), support, side="right") / len(d)
    return float(np.abs(emp - f).max())


def _exit_ok(outcome: Outcome) -> list:
    if outcome.error:
        return [f"raised {outcome.error}"]
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}: {outcome.stderr.strip()[:200]}"]
    return []


# ---------------------------------------------------------------------------
# quadrature: moments, alpha and the MGF


def _moments_check(m: int, n: int, orders: list) -> Callable:
    def check(outcome: Outcome, refs: References) -> list:
        problems = _exit_ok(outcome)
        if problems:
            return problems
        lines = outcome.stdout.strip().splitlines()
        if lines[0].split(",") != MOMENT_COLUMNS:
            return [f"moments header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[2]) for r in rows] != orders:
            return [f"moments orders {[r[2] for r in rows]} != {orders}"]
        value = {int(r[2]): float(r[3]) for r in rows}
        err = {int(r[2]): float(r[4]) for r in rows}

        def near(name, got, want):
            if not abs(got - want) <= QUAD_REL * abs(want):
                problems.append(f"{name}: {got!r} vs reference {want!r}")

        if m == 1:
            mean, second = refs.harmonic_moments(n)
            near("E[D] vs n H_n", value[1], mean)
            near("E[D(D+1)] vs harmonic", value[2], second)
        if exact_feasible(m, n):
            exact = refs.exact(m, n)
            for r in orders:
                near(f"rising moment {r} vs exact chain", value[r], exact.rising_moment(r))
        e1, e2 = value[1], value[2]
        slack1 = err[1] + CSV_REL * e1
        if not e1 >= m * n - slack1:
            problems.append(f"E[D]={e1!r} < m n={m * n}")
        var = e2 - e1 * e1 - e1
        slack = err[2] + (2 * e1 + 1) * err[1] + 2 * CSV_REL * e2
        if not var >= -slack:
            problems.append(f"Var D={var!r} < 0 beyond slack {slack:.3g}")
        return problems

    return check


def _alpha_check(beta: float) -> Callable:
    def check(outcome: Outcome, refs: References) -> list:
        problems = _exit_ok(outcome)
        if problems:
            return problems
        alpha = _json(outcome)["results"]["alpha"]
        if not alpha > beta:
            return [f"alpha={alpha!r} <= beta={beta!r}"]
        gap = refs.alpha_gap(alpha, beta)
        if not gap <= 1e-10:
            problems.append(f"alpha={alpha!r} misses its equation by {gap:.3g} (relative)")
        return problems

    return check


def _mgf_check(m: int, n: int, z: float) -> Callable:
    def check(outcome: Outcome, refs: References) -> list:
        problems = _exit_ok(outcome)
        if problems:
            return problems
        value = outcome.value
        if m == 1:
            # Delta = n sum_k E_k/k, so E[e^{z Delta}] = prod_k k/(k - z n).
            k = np.arange(1, n + 1, dtype=np.float64)
            want = math.exp(-np.sum(np.log1p(-z * n / k)))
        elif exact_feasible(m, n):
            exact = refs.exact(m, n)  # E[e^{z Delta}] = E[(1 - z)^{-D}]
            want = float(np.dot(exact.pmf, np.exp(-exact.support * math.log1p(-z))))
        else:
            # Jensen with E[Delta] >= m n for z > 0; Delta > 0 for z < 0.
            if z > 0 and not value >= math.exp(z * m * n) * (1 - QUAD_REL):
                problems.append(f"mgf={value!r} < exp(z m n)")
            if z < 0 and not 0 < value <= 1 + QUAD_REL:
                problems.append(f"mgf={value!r} outside (0, 1] for z < 0")
            return problems
        if not abs(value - want) <= QUAD_REL * abs(want):
            problems.append(f"mgf={value!r} vs reference {want!r}")
        return problems

    return check


def _quadrature_pass(draw: Draws, out_dir: Path) -> list:
    calls = []
    # A 4x4 grid of strata over (log10 m, log10 n) in [0, 6]^2, one jittered
    # point each, so every pass spans the cheap and the 200 ms corners.
    for i in range(4):
        for j in range(4):
            m = draw.log_uniform_int(1.5 * i, 1.5 * (i + 1))
            n = draw.log_uniform_int(1.5 * j, 1.5 * (j + 1))
            orders = [1, 2, 3] if (i + j) % 2 else [1, 2]
            argv = ["moments", "--m", str(m), "--n", str(n),
                    "--orders", ",".join(map(str, orders))]
            if i == j:  # --beta rows compare against the critical prediction
                argv += ["--beta", repr(10.0 ** draw.uniform(-2, 2))]
            calls.append(Call("moments", _moments_check(m, n, orders), argv=tuple(argv)))
    # The reference heavy call, (1e6, 10): one per pass, so that the tail
    # latency falls among calls of one fixed cost rather than on whichever
    # jittered points land highest in the heavy corner.
    calls.append(Call("moments", _moments_check(10**6, 10, [1, 2, 3]),
                      argv=("moments", "--m", "1000000", "--n", "10", "--orders", "1,2,3")))
    # Anchors with exact references: m = 1 (harmonic) and a small exact chain.
    n = draw.log_uniform_int(0, 6)
    calls.append(Call("moments", _moments_check(1, n, [1, 2]),
                      argv=("moments", "--m", "1", "--n", str(n), "--orders", "1,2")))
    m, n = draw.choice(EXACT_SHAPES)
    calls.append(Call("moments", _moments_check(m, n, [1, 2, 3]),
                      argv=("moments", "--m", str(m), "--n", str(n), "--orders", "1,2,3")))
    # alpha over beta in [1e-6, 1e6], one point in each third of the decades.
    for k in range(4):
        beta = 10.0 ** draw.uniform(-6 + 3 * k, -3 + 3 * k)
        calls.append(Call("alpha", _alpha_check(beta), argv=("alpha", "--beta", repr(beta))))
    # The MGF at z = s/(m n), s in [-1, 0.5]: an m = 1 anchor, an exact-chain
    # anchor and one point anywhere in [1, 1e6]^2.
    shapes = [
        (1, draw.log_uniform_int(0, 6)),
        draw.choice(EXACT_SHAPES),
        (draw.log_uniform_int(0, 6), draw.log_uniform_int(0, 6)),
    ]
    for m, n in shapes:
        z = draw.uniform(-1.0, 0.5) / (m * n)
        calls.append(Call("mgf", _mgf_check(m, n, z), mgf=(m, n, z)))
    return calls


# ---------------------------------------------------------------------------
# Monte Carlo


def _simulate_argv(mode, m, n, reps, seed, out) -> tuple:
    return ("simulate", "--m", str(m), "--n", str(n), "--reps", str(reps),
            "--seed", seed, "--mode", mode, "--out", str(out))


def _simulate_check(mode: str, m: int, n: int, reps: int, out: Path) -> Callable:
    def check(outcome: Outcome, refs: References) -> list:
        problems = _exit_ok(outcome)
        if problems:
            return problems
        header, table = _read_csv(out)
        if len(table) != reps:
            return [f"{out.name}: {len(table)} rows for {reps} replications"]
        columns = dict(zip(header, table.T))
        d = columns.get("d")
        delta = columns.get("delta")
        if d is not None:
            if not d.min() >= m * n:
                problems.append(f"min D={d.min()} < m n={m * n}")
            if exact_feasible(m, n):
                ks = ks_discrete(d, refs.exact(m, n))
                if not ks <= KS_LAMBDA / math.sqrt(reps):
                    problems.append(f"D law vs exact chain: KS={ks:.4g}")
            elif mode == "discrete":
                _mean_check("E[D] vs quadrature", d - refs.quadrature_mean(m, n), problems)
        if delta is not None:
            ks = ks_continuous(delta, lambda x: refs.delta_cdf(m, n, x))
            if not ks <= KS_LAMBDA / math.sqrt(reps):
                problems.append(f"Delta law vs F_m(x/n)^n: KS={ks:.4g}")
        if d is not None and delta is not None:
            # The four coupling identities (Delta is Gamma(D) given D).
            _mean_check("E[Delta]=E[D]", delta - d, problems)
            _mean_check("E[Delta^2]=E[D(D+1)]", delta**2 - d * (d + 1.0), problems)
            _mean_check("E[1/Delta]=E[1/(D-1)]", 1.0 / delta - 1.0 / (d - 1.0), problems)
            _mean_check(
                "V[D]=V[Delta]-E[Delta]",
                (d - d.mean()) ** 2 - (delta - delta.mean()) ** 2 + delta,
                problems,
            )
        return problems

    return check


def _simulate_call(draw, out_dir: Path, index: int, mode: str, m: int, n: int, reps: int) -> Call:
    out = out_dir / f"c{index}-{mode}-{m}-{n}.csv"
    return Call(f"simulate {mode} ({m},{n})", _simulate_check(mode, m, n, reps, out),
                argv=_simulate_argv(mode, m, n, reps, draw.seed(), out), reps=reps)


MC_SMALL_REPS = 2000


def _mc_small_pass(draw: Draws, out_dir: Path) -> list:
    shapes = (
        ("coupled", 3, 10),  # criterion 4's shape: the coupling identities
        ("discrete", 2, 50),  # mean against quadrature
        ("coupled", 7, 1),  # n = 1: RNG set-up and export, nothing else
        ("coupled", 2, 3),  # exact chain law, identities
        ("discrete", 2, 8),  # exact chain law
        ("poissonized", 3, 4),  # exact finite law of Delta
        ("coupled", 4, 6),  # exact chain law, identities
    )
    # Seven call types, an odd number, so the median call falls inside one
    # type's latencies rather than between two.
    return [_simulate_call(draw, out_dir, i, mode, m, n, MC_SMALL_REPS)
            for i, (mode, m, n) in enumerate(shapes)]


def _limit_check(regime: str, m: int, n: int, reps: int, seed: str, beta=None) -> Call:
    argv = ["limit-check", "--regime", regime, "--m", str(m), "--n", str(n),
            "--reps", str(reps), "--seed", seed]
    if beta is not None:
        argv += ["--beta", repr(beta)]

    def check(outcome: Outcome, refs: References) -> list:
        problems = _exit_ok(outcome)
        if problems:
            return problems
        res = _json(outcome)["results"]
        if not (0.0 <= res["ks_statistic"] <= 1.0 and math.isfinite(res["center"])
                and res["scale"] > 0):
            problems.append(f"limit-check results out of range: {res}")
        return problems

    def observe(outcome: Outcome) -> dict:
        # The KS distance to the limit law measures the law's convergence at
        # this (m, n), not the program: recorded, never checked.
        return {f"limit_ks.{regime}": _json(outcome)["results"]["ks_statistic"]}

    return Call(f"limit-check {regime}", check, argv=tuple(argv), reps=reps, observe=observe)


# The acceptance-criterion shapes of the four regimes, and their replications:
# few enough that a one-thread pass takes about 8 s, so a run of 25 s has at
# least three passes unless the machine runs 1.6x slower than usual.
LIMIT_SHAPES = (
    ("fixed-m", 2, 10**5, 100, None),
    ("super", 30000, 1000, 1000, None),
    ("critical", 20, 22026, 200, 2.0),
    ("fixed-n", 10**4, 3, 1000, None),
)
DISCRETE_LARGE_REPS = 30  # 6 SE with a t(29) statistic: P(false failure) ~ 1.5e-6


def _mc_large_pass(draw: Draws, out_dir: Path) -> list:
    calls = [_limit_check(regime, m, n, reps, draw.seed(), beta)
             for regime, m, n, reps, beta in LIMIT_SHAPES]
    calls += [_simulate_call(draw, out_dir, i, "poissonized", m, n, reps)
              for i, (_, m, n, reps, _) in enumerate(LIMIT_SHAPES)]
    # Four discrete calls at (2, 1e4), the heaviest, so that a run of three or
    # more passes has at least eleven of them and the tail latency falls
    # among them.
    calls += [_simulate_call(draw, out_dir, len(LIMIT_SHAPES) + i, "discrete", 2, 10**4,
                             DISCRETE_LARGE_REPS) for i in range(4)]
    # Two discrete calls at (2, 1e3), among the cheap ones, so that six calls
    # of a pass cost less than the two critical-regime calls and six more:
    # the median then falls in the middle of those two calls' latencies, not
    # on the edge between them and the next type.
    calls += [_simulate_call(draw, out_dir, len(LIMIT_SHAPES) + 4 + i, "discrete", 2, 10**3,
                             DISCRETE_LARGE_REPS) for i in range(2)]
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        # All work in special, moments and alpha; simulate does nothing. The
        # array Erlang kernel and a root-finder merge show here, a sampler
        # change must not.
        Workload("quadrature", 1, _quadrature_pass),
        # Per-replication fixed costs dominate: SeedSequence + Philox set-up,
        # the Python per-replication loop and per-row CSV writes; block-keyed
        # streams show here, quadrature does nothing.
        Workload("mc_small", 1, _mc_small_pass),
        # n gamma draws, the O(m n) label argsort, ks_distance and target_cdf
        # dominate and RNG set-up is negligible; the delta-first sampler shows
        # here. One thread: on a shared 2-vCPU host a two-thread call loses
        # its speed-up whenever a neighbour takes the second vCPU, which
        # moved this workload's median call by half within minutes.
        Workload("mc_large", 1, _mc_large_pass),
    )
}
_TAGS = {name: i for i, name in enumerate(WORKLOADS)}
