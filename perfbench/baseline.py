"""Repeated benchmark runs and one-off layer timings, for the results files.

    python3 perfbench/baseline.py repeat --workload W [--runs 10] [--seconds 20]
    python3 perfbench/baseline.py figures [--suite]
    python3 perfbench/baseline.py report --out perfbench/results/NAME.json [--suite]

``repeat`` runs run.py once per seed and prints, per metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  ``figures`` times
the kernels behind the baseline figures of ROADMAP.md in this process, one
at a time and single-threaded unless stated.  ``report`` does both for every
workload, adds one traced run per workload and one ungated 2-thread run of
mc_large, and writes a results file with the machine it ran on.  ``--suite``
also times the tier-1 test suite.

Run it on an otherwise idle machine, from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int = 0, threads=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if threads:
        cmd += ["--threads", str(threads)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["summary"] = lines[:-1]
    return result


def spread(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values,
        }
    return out


def repeat(workload: str, runs: int, seconds: float, first_seed: int) -> dict:
    results = []
    for seed in range(first_seed, first_seed + runs):
        result = run_once(workload, seed, seconds)
        results.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = spread(results)
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above a third of its bound"
        print(f"  {name}: median {s['median']:.5g} {s['unit']}, q1 {s['q1']:.5g}, "
              f"q3 {s['q3']:.5g}, spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
    return {
        "threads": WORKLOADS[workload].threads,
        "seconds": seconds,
        "seeds": [r["seed"] for r in results],
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": summary,
    }


# ---------------------------------------------------------------------------
# one-off timings behind the ROADMAP baseline figures


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean seconds per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def _with_threads(threads: int, fn):
    old = os.environ.get("COUPON_DELAY_THREADS")
    os.environ["COUPON_DELAY_THREADS"] = str(threads)
    try:
        return fn()
    finally:
        if old is None:
            del os.environ["COUPON_DELAY_THREADS"]
        else:
            os.environ["COUPON_DELAY_THREADS"] = old


def figures() -> list:
    import numpy as np

    from coupon_delay import moments, simulate
    from coupon_delay.moments import ProblemSize, mean_delay
    from coupon_delay.simulate import SimConfig
    from coupon_delay.special import erlang_log_sf

    rows = []

    def add(figure, roadmap, value, unit):
        rows.append({"figure": figure, "roadmap": roadmap, "measured": value, "unit": unit})
        print(f"  {figure}: {value:.4g} {unit} (ROADMAP: {roadmap})", flush=True)

    add("erlang_log_sf per call, m = 9, x = 8", "17 us",
        _per_call(lambda: erlang_log_sf(9, 8.0), 2000) * 1e6, "us")
    add("erlang_log_sf per call, m = 1e6, x = 0.999e6 (below the mode)", "362 us",
        _per_call(lambda: erlang_log_sf(10**6, 0.999e6), 50) * 1e6, "us")

    def rng_setup():
        seq = np.random.SeedSequence(entropy=7, spawn_key=(123, 0))
        return np.random.Generator(np.random.Philox(seq))

    add("per-replication SeedSequence + Philox set-up", "26-39 us",
        _per_call(rng_setup, 2000) * 1e6, "us")
    gen = rng_setup()
    add("standard_gamma(size=10)", "5 us",
        _per_call(lambda: gen.standard_gamma(3, size=10), 2000) * 1e6, "us")

    original = moments.erlang_log_sf
    for m, n in ((1, 1000), (9, 10**4), (1000, 1000), (10**6, 10**6)):
        ps = ProblemSize(m, n)
        seconds = _per_call(lambda: mean_delay(ps), 3)
        count = [0]

        def counting(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        moments.erlang_log_sf = counting
        try:
            mean_delay(ps)
        finally:
            moments.erlang_log_sf = original
        add(f"mean_delay({m}, {n}) per call", "2-10 ms", seconds * 1e3, "ms")
        add(f"mean_delay({m}, {n}) erlang_log_sf calls per call", "~430-530", count[0], "count")

    def per_rep(sampler, mode, m, n, reps, threads):
        config = SimConfig(ps=ProblemSize(m, n), reps=reps, seed=7, mode=mode)
        return _with_threads(threads, lambda: _per_call(lambda: sampler(config), 1, 3)) / reps

    add("sample_discrete(2, 1e4) per replication, 1 thread", "48 ms",
        per_rep(simulate.sample_discrete, "discrete", 2, 10**4, 10, 1) * 1e3, "ms")
    large = {t: per_rep(simulate.sample_poissonized, "poissonized", 2, 10**5, 100, t)
             for t in (1, 2)}
    add("sample_poissonized(2, 1e5) per replication, 1 thread", "5.4 ms", large[1] * 1e3, "ms")
    add("sample_poissonized(2, 1e5): 2 threads speed-up over 1", "1.7-1.9x",
        large[1] / large[2], "x")
    small = {t: per_rep(simulate.sample_coupled, "coupled", 3, 10, 5000, t) for t in (1, 2)}
    add("sample_coupled(3, 10) per replication, 1 thread", "0.13 ms", small[1] * 1e3, "ms")
    add("sample_coupled(3, 10) per replication, 2 threads", "0.26 ms", small[2] * 1e3, "ms")
    return rows


def suite() -> dict:
    """Wall time of the tier-1 suite, and its slowest tests."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=6",
         "--continue-on-collection-errors", "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800,
    )
    wall = time.perf_counter() - t0
    slowest = re.findall(r"^([\d.]+)s call\s+(\S+)$", done.stdout, re.MULTILINE)
    out = {"wall_s": wall, "result": done.stdout.strip().splitlines()[-1],
           "slowest": {name: float(s) for s, name in slowest}}
    print(f"  tier-1 suite: {wall:.1f} s, {out['result']}", flush=True)
    return out


def machine(threads: dict) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads_per_workload": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    p_rep = sub.add_parser("repeat")
    p_rep.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p_fig = sub.add_parser("figures")
    p_all = sub.add_parser("report")
    p_all.add_argument("--out", type=Path, required=True)
    for p in (p_rep, p_all):
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
        p.add_argument("--first-seed", type=int, default=1)
    for p in (p_fig, p_all):
        p.add_argument("--suite", action="store_true", help="also time the tier-1 tests")
    args = parser.parse_args(argv)

    if args.what == "repeat":
        repeat(args.workload, args.runs, args.seconds, args.first_seed)
        return 0
    if args.what == "figures":
        figures()
        if args.suite:
            suite()
        return 0

    report = {"machine": machine({w.name: w.threads for w in WORKLOADS.values()}),
              "run_seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = repeat(name, args.runs, args.seconds, args.first_seed)
        traced = run_once(name, args.first_seed, args.seconds, trace=1)
        entry["trace"] = {"seed": args.first_seed, "summary": traced["summary"],
                          "metrics": traced["metrics"]}
        report["workloads"][name] = entry
    two = run_once("mc_large", args.first_seed, args.seconds, threads=2)
    report["mc_large_2_threads"] = {"seed": args.first_seed, "metrics": two["metrics"],
                                    "summary": two["summary"]}
    print("baseline figures:", flush=True)
    report["baseline_figures"] = figures()
    if args.suite:
        report["tier1_suite"] = suite()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=False) + "\n")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
