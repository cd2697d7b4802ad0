"""Self-test of the benchmark, at tiny sizes:

    python3 perfbench/selftest.py

1. every workload, untraced and traced, prints each metric named in
   BENCHMARK.json with its unit, and counts no failure;
2. a perturbed reference (the harmonic numbers for quadrature, the exact
   law of Delta for the samplers) is counted as failed calls;
3. in a directory holding only BENCHMARK.json and the benchmark, run.py
   exits nonzero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.01"  # one pass after the warm-up


def tiny_sizes() -> None:
    workloads.MC_SMALL_REPS = 200
    workloads.DISCRETE_LARGE_REPS = 8
    workloads.LIMIT_SHAPES = tuple(
        (regime, m, n, 50, beta) for regime, m, n, _, beta in workloads.LIMIT_SHAPES
    )


def run_main(workload: str, trace: int) -> tuple[dict, list]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", SECONDS,
                         "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    assert code == 0, f"{workload} exited {code}"
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(problems: list) -> None:
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_main(workload, trace)
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            for name, unit in want.items():
                if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{workload} trace={trace}: no summary line for {name}")
            if not any(line.startswith("failed_frac ") for line in lines):
                problems.append(f"{workload} trace={trace}: no failed_frac line")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
                problems.append(f"{workload} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} calls failed")
            print(f"ok: {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} calls", flush=True)


def check_perturbed(problems: list) -> None:
    refs = workloads.References
    harmonic, delta_cdf = refs.harmonic_moments, refs.delta_cdf
    refs.harmonic_moments = lambda self, n: tuple(v * (1 + 1e-6) for v in harmonic(self, n))
    refs.delta_cdf = lambda self, m, n, x: delta_cdf(self, m, n, x * 1.5)
    try:
        for workload in workloads.WORKLOADS:
            result, lines = run_main(workload, 0)
            if result["failed"] < 1 or result["correct"]:
                problems.append(f"{workload}: a perturbed reference was not counted as failed")
            else:
                print(f"ok: {workload}: perturbed reference fails "
                      f"{result['failed']} of {result['attempted']} calls", flush=True)
    finally:
        refs.harmonic_moments, refs.delta_cdf = harmonic, delta_cdf


def check_bare_directory(problems: list) -> None:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "quadrature", "--seed", "1",
             "--seconds", SECONDS, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    else:
        print(f"ok: bare directory exits {done.returncode} without a result", flush=True)


def main() -> int:
    tiny_sizes()
    problems = []
    check_metrics(problems)
    check_perturbed(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
