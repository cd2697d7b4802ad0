"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  All
randomized criteria use the fixed seed below; identical results are
guaranteed across worker counts.
"""

import json
import math
import time

import numpy as np

from coupon_delay.alpha import solve_alpha
from coupon_delay.cli import main
from coupon_delay.limit_laws import (
    Critical,
    FixedM,
    FixedN,
    Supercritical,
    critical_constant,
)
from coupon_delay.moments import (
    ProblemSize,
    QuadratureConfig,
    exact_dist_small,
    mean_delay,
    variance_delay,
)
from coupon_delay.simulate import (
    MODE_COUPLED,
    MODE_DISCRETE,
    MODE_POISSONIZED,
    SimConfig,
    ks_distance,
    sample_coupled,
    sample_discrete,
    sample_poissonized,
)
from coupon_delay.special import erlang_log_sf, tricomi_log_sf

SEED = 20260810


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_alpha_constant():
    solve_alpha(1.0)  # warm-up
    t0 = time.perf_counter()
    sol = solve_alpha(1.0)
    elapsed = time.perf_counter() - t0
    ok = 3.1455 <= sol.alpha <= 3.1470 and abs(sol.residual) <= 1e-12 and elapsed < 1e-3
    report(
        "criterion 1 (alpha constant)",
        ok,
        f"alpha={sol.alpha:.9f} residual={sol.residual:.2e} runtime={elapsed * 1e3:.3f}ms",
    )


def test_criterion_02_quadrature_vs_harmonic():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 10, 100, 1000):
        oracle = n * sum(1.0 / k for k in range(1, n + 1))
        value = mean_delay(ProblemSize(1, n)).value
        worst = max(worst, abs(value - oracle) / oracle)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report(
        "criterion 2 (harmonic oracle)",
        ok,
        f"worst rel err={worst:.2e} runtime={elapsed:.2f}s",
    )


def test_criterion_03_quadrature_vs_brute_force():
    t0 = time.perf_counter()
    cfg = QuadratureConfig(rel_tol=1e-10)
    worst_mean, worst_var = 0.0, 0.0
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4):
            ps = ProblemSize(m, n)
            dist = exact_dist_small(ps)
            mean_err = abs(mean_delay(ps, cfg).value - dist.mean()) / dist.mean()
            worst_mean = max(worst_mean, mean_err)
            exact_var = dist.variance()
            got_var = variance_delay(ps, cfg).value
            if exact_var > 1e-9:
                worst_var = max(worst_var, abs(got_var - exact_var) / exact_var)
            else:  # n = 1: the delay is deterministic, variance exactly 0
                worst_var = max(worst_var, abs(got_var))
    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 1e-8 and worst_var <= 1e-8 and elapsed < 10.0
    report(
        "criterion 3 (brute-force oracle, m<=3, n<=4)",
        ok,
        f"worst mean rel={worst_mean:.2e} worst var rel={worst_var:.2e} "
        f"runtime={elapsed:.2f}s",
    )


def test_criterion_04_poissonization_identities():
    t0 = time.perf_counter()
    reps = 100_000
    batch = sample_coupled(
        SimConfig(ps=ProblemSize(3, 10), reps=reps, seed=SEED, mode=MODE_COUPLED)
    )
    d = batch.d_values.astype(np.float64)
    delta = batch.delta_values
    checks = {}

    def paired(name, samples):
        se = samples.std(ddof=1) / math.sqrt(reps)
        checks[name] = (abs(samples.mean()), 3 * se)

    paired("E[Delta]=E[D]", delta - d)
    paired("E[Delta^2]=E[D(D+1)]", delta**2 - d * (d + 1.0))
    paired("E[1/Delta]=E[1/(D-1)]", 1.0 / delta - 1.0 / (d - 1.0))
    paired(
        "V[D]=V[Delta]-E[Delta]",
        (d - d.mean()) ** 2 - (delta - delta.mean()) ** 2 + delta,
    )
    elapsed = time.perf_counter() - t0
    ok = all(dev <= tol for dev, tol in checks.values()) and elapsed < 30.0
    detail = "; ".join(
        f"{k}: |diff|={dev:.3g} vs 3SE={tol:.3g}" for k, (dev, tol) in checks.items()
    )
    report("criterion 4 (coupling identities)", ok, f"{detail}; runtime={elapsed:.1f}s")


def test_criterion_05_supercritical_mean():
    t0 = time.perf_counter()
    ratios = []
    for n in (50, 200, 1000):
        m = math.ceil(math.log(n) ** 3)
        ratios.append(mean_delay(ProblemSize(m, n)).value / (n * m))
    elapsed = time.perf_counter() - t0
    ok = ratios[0] > ratios[1] > ratios[2] and ratios[2] <= 1.25 and elapsed < 60.0
    report(
        "criterion 5 (supercritical mean)",
        ok,
        f"ratios={[f'{r:.4f}' for r in ratios]} (last<=1.25) runtime={elapsed:.2f}s",
    )


def test_criterion_06_critical_mean():
    t0 = time.perf_counter()
    n = 10**4
    m = round(math.log(n))
    alpha = solve_alpha(1.0).alpha
    ratio = mean_delay(ProblemSize(m, n)).value / (alpha * n * math.log(n))
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= ratio <= 1.10 and elapsed < 60.0
    report(
        "criterion 6 (critical mean)",
        ok,
        f"m={m} ratio={ratio:.4f} in [0.85, 1.10] runtime={elapsed:.2f}s",
    )


def test_criterion_07_erdos_renyi_law():
    # NOTE: at m = 2 the fixed-m law converges at rate ln(ln n)/ln(n); the
    # population KS distance is 0.1026 at n = 1e5 (and 0.1186 at n = 1e4),
    # so the stated tolerances are unattainable at any desk-scale n.  The
    # harness itself is validated at m = 1 (KS ~ noise floor) in the unit
    # suite.  This criterion is implemented exactly as stated.
    t0 = time.perf_counter()
    batch = sample_poissonized(
        SimConfig(ps=ProblemSize(2, 10**5), reps=5000, seed=SEED, mode=MODE_POISSONIZED)
    )
    ks_poisson = ks_distance(batch, FixedM(2)).statistic
    batch_d = sample_discrete(
        SimConfig(ps=ProblemSize(2, 10**4), reps=500, seed=SEED, mode=MODE_DISCRETE)
    )
    ks_disc = ks_distance(batch_d, FixedM(2)).statistic
    elapsed = time.perf_counter() - t0
    ok = ks_poisson <= 0.05 and ks_disc <= 0.08 and elapsed < 120.0
    report(
        "criterion 7 (fixed-m law at m=2)",
        ok,
        f"poissonized KS={ks_poisson:.4f} (tol 0.05, population 0.1026); "
        f"discrete KS={ks_disc:.4f} (tol 0.08, population 0.1186); "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_08_supercritical_law():
    t0 = time.perf_counter()
    batch = sample_poissonized(
        SimConfig(
            ps=ProblemSize(30000, 1000), reps=5000, seed=SEED, mode=MODE_POISSONIZED
        )
    )
    ks = ks_distance(batch, Supercritical()).statistic
    elapsed = time.perf_counter() - t0
    ok = ks <= 0.06 and elapsed < 60.0
    report(
        "criterion 8 (supercritical law)",
        ok,
        f"KS={ks:.4f} (tol 0.06) runtime={elapsed:.1f}s",
    )


def test_criterion_09_critical_law():
    t0 = time.perf_counter()
    n = round(math.exp(10.0))
    batch = sample_poissonized(
        SimConfig(ps=ProblemSize(20, n), reps=5000, seed=SEED, mode=MODE_POISSONIZED)
    )
    ks = ks_distance(batch, Critical(2.0)).statistic
    elapsed = time.perf_counter() - t0
    ok = ks <= 0.07 and elapsed < 120.0
    report(
        "criterion 9 (critical law)",
        ok,
        f"n={n} KS={ks:.4f} (tol 0.07) runtime={elapsed:.1f}s",
    )


def test_criterion_10_tricomi_expansion():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (100, 1000, 10**4):
        for t in (5.0, 10.0, 20.0):
            x = m + t * math.sqrt(m)
            exact = erlang_log_sf(m, x)
            rel = abs(tricomi_log_sf(m, x) - exact) / abs(exact)
            bound = 5.0 * max(m / (x - m) ** 2, 1.0 / m)
            worst = max(worst, rel / bound)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 1.0
    report(
        "criterion 10 (tail expansion accuracy)",
        ok,
        f"worst err/bound={worst:.3f} runtime={elapsed * 1e3:.0f}ms",
    )


def test_criterion_11_bridging():
    t0 = time.perf_counter()
    gaps = [solve_alpha(b).bridging_gap for b in (1e2, 1e4, 1e6)]
    bounds = [10.0 * b**-0.25 for b in (1e2, 1e4, 1e6)]
    sol = solve_alpha(1e6)
    const_gap = abs(critical_constant(sol.alpha, 1e6) - math.log(2 * math.sqrt(math.pi)))
    elapsed = time.perf_counter() - t0
    monotone = abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])
    within = all(abs(g) <= b for g, b in zip(gaps, bounds))
    ok = monotone and within and const_gap <= 0.01 and elapsed < 1.0
    report(
        "criterion 11 (bridging)",
        ok,
        f"gaps={[f'{g:.2e}' for g in gaps]} monotone={monotone} "
        f"|C-ln(2 sqrt(pi))|={const_gap:.2e} runtime={elapsed * 1e3:.0f}ms",
    )


def test_criterion_12_fixed_n_limit():
    t0 = time.perf_counter()
    batch = sample_poissonized(
        SimConfig(ps=ProblemSize(10**4, 3), reps=5000, seed=SEED, mode=MODE_POISSONIZED)
    )
    ks = ks_distance(batch, FixedN(3)).statistic
    single = sample_discrete(
        SimConfig(ps=ProblemSize(7, 1), reps=50, seed=SEED, mode=MODE_DISCRETE)
    )
    surely = bool((single.d_values == 7).all())
    elapsed = time.perf_counter() - t0
    ok = ks <= 0.03 and surely and elapsed < 30.0
    report(
        "criterion 12 (fixed-n limit)",
        ok,
        f"KS={ks:.4f} (tol 0.03) D(m,1)==m surely={surely} runtime={elapsed:.1f}s",
    )


def test_criterion_13_determinism(tmp_path, capsys, monkeypatch):
    # Byte-identical scientific output across worker counts; wall_time_ms is
    # the single measurement field and is excluded from the comparison.
    out_file = tmp_path / "samples.csv"

    def run(threads, *argv):
        monkeypatch.setenv("COUPON_DELAY_THREADS", str(threads))
        code = main(list(argv) + ["--out", str(out_file)])
        captured = capsys.readouterr().out
        assert code == 0
        record = json.loads(captured.strip().splitlines()[-1])
        record.pop("wall_time_ms")
        return record, out_file.read_bytes()

    sim_args = [
        "simulate", "--m", "2", "--n", "50", "--reps", "400",
        "--seed", "11", "--mode", "coupled",
    ]
    rec1, csv1 = run(1, *sim_args)
    rec4, csv4 = run(4, *sim_args)
    sim_ok = rec1 == rec4 and csv1 == csv4

    def run_limit(threads):
        monkeypatch.setenv("COUPON_DELAY_THREADS", str(threads))
        code = main(
            ["limit-check", "--regime", "fixed-m", "--m", "2", "--n", "1000",
             "--reps", "300", "--seed", "13"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        record = json.loads(captured.strip().splitlines()[-1])
        record.pop("wall_time_ms")
        return record

    lim_ok = run_limit(1) == run_limit(3)
    report(
        "criterion 13 (thread-count determinism)",
        sim_ok and lim_ok,
        f"simulate identical={sim_ok} limit-check identical={lim_ok}",
    )
