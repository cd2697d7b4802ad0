"""Benchmark of the coupon_delay package, driven from outside through its CLI.

    python3 perfbench/run.py --workload {quadrature,mc_small,mc_large} \\
        --seed N --seconds S --trace {0,1} [--threads T]

Run from the root of a source checkout; the package is imported from
``src/``. One run:

1. times the set-up in fresh processes: importing ``coupon_delay`` and
   ``coupon_delay.cli`` plus generating a pass of inputs (median of eleven);
2. runs one warm-up pass, then passes of calls until ``--seconds`` have
   passed, ending at a pass boundary so that every run has the same mix;
   each call is ``coupon_delay.cli.main(argv)`` in-process with its output
   captured, or a library call to ``mgf_delta``;
3. checks every call's output against its reference (see workloads.py);
4. prints a summary, then one JSON line: ``correct``, ``attempted``,
   ``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
   the per-layer metrics with ``--trace 1``.

The end-to-end times are given at a fixed reference speed of the machine. On a shared host the speed
of one core wanders by up to 1.7x over seconds to minutes, and all code on
it slows alike. So a fixed calibration kernel, which does not touch the
package, runs before every call and after the last one, and in every set-up
probe's process; each time is scaled by ``CAL_REF_MS`` over the median of
the kernel's nearby times. A change to the package moves the scaled times
as it moves the raw ones; the summary also prints the raw time in calls and
the raw median latency. Runs with ``--threads`` above 1 report raw call
times, as the kernel tracks one core.

With ``--trace 1`` the layers are wrapped (see spans.py) and the spans are
written to ``perfbench/out/trace-<workload>.npz``. Each pass runs twice,
traced and with the wrappers removed, alternating which runs first so that
drift in machine speed hits both alike; traced minus untraced wall time is
the tracing overhead. ``--threads`` overrides the workload's
``COUPON_DELAY_THREADS`` for one-off scaling runs; it is not part of the
gated benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Outcome, References  # noqa: E402

SETUP_PROBES = 11

# The calibration kernel's median time on the host the benchmark was defined
# on (a 2-vCPU Intel Xeon at 2.0 GHz), so scaled times read close to its ms.
CAL_REF_MS = 1.5
CAL_WINDOW = 3  # a call is scaled by the median of the 2 * CAL_WINDOW kernel times around it
_CAL_X = np.linspace(0.0, 50.0, 40000)


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes: a pure-Python loop of
    float arithmetic, like the package's scalar quadrature, then numpy
    element-wise work and a sort, like its samplers."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 1500):
        s += math.log1p(1.0 / i) * (i % 7)
    float(np.sort(np.sin(_CAL_X) * _CAL_X).sum())
    return time.perf_counter() - t0


def at_reference_speed(seconds: list, cals: list) -> list:
    """Call times scaled to the reference speed; ``cals[j]`` ran just before
    call j, ``cals[j + 1]`` just after it."""
    ref = CAL_REF_MS * 1e-3
    return [s * ref / statistics.median(cals[max(0, j + 1 - CAL_WINDOW):j + 1 + CAL_WINDOW])
            for j, s in enumerate(seconds)]

_PROBE = """
import sys, time
t0 = time.perf_counter()
import coupon_delay, coupon_delay.cli
import workloads
workloads.WORKLOADS[sys.argv[1]].calls(int(sys.argv[2]), 0, "out")
seconds = time.perf_counter() - t0
from run import calibrate
cals = sorted(calibrate() for _ in range(6))  # the first, cold, is the slowest
print(seconds, cals[2])
"""


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of import plus input generation, in s at
    the reference speed; each process then runs the calibration kernel."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, cal = map(float, done.stdout.strip().splitlines()[-1].split())
        times.append(seconds * CAL_REF_MS * 1e-3 / cal)
    return statistics.median(times)


class Runner:
    """Runs passes of a workload's calls, timing each call."""

    def __init__(self, workload, seed: int, out_dir: Path, tracer=None):
        import coupon_delay.cli
        import coupon_delay.moments

        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self._cli = coupon_delay.cli
        self._moments = coupon_delay.moments
        self._calls_done = 0
        self.cals = None  # calibration kernel times, when run_for collects them

    def _execute(self, call) -> tuple[Outcome, float]:
        outcome = Outcome()
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.call_id = self._calls_done
        self._calls_done += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if call.argv is not None:
                    outcome.exit_code = self._cli.main(list(call.argv))
                else:
                    m, n, z = call.mgf
                    outcome.value = self._moments.mgf_delta(self._moments.ProblemSize(m, n), z)
            except SystemExit as exc:  # argparse rejected the command line
                outcome.exit_code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, the loop goes on
                outcome.error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
        return outcome, seconds

    def run_pass(self, index: int) -> list:
        (self.out_dir / f"p{index}").mkdir(parents=True, exist_ok=True)
        records = []
        for call in self.workload.calls(self.seed, index, self.out_dir):
            if self.cals is not None:
                self.cals.append(calibrate())
            records.append((call, *self._execute(call)))
        return records

    def run_for(self, seconds: float, calibrated: bool, first: int = 1) -> tuple[list, int, float]:
        """Passes from ``first`` on until ``seconds`` have passed; if
        ``calibrated``, the calibration kernel runs before each call and
        after the last.

        Returns (records, passes, wall seconds)."""
        records = []
        self.cals = [] if calibrated else None
        t0 = time.perf_counter()
        index = first
        while True:
            records += self.run_pass(index)
            index += 1
            if time.perf_counter() - t0 >= seconds:
                if calibrated:
                    self.cals.append(calibrate())
                return records, index - first, time.perf_counter() - t0

    def run_traced(self, seconds: float) -> tuple[list, int, float, float]:
        """Each pass twice, traced and untraced, alternating which runs first,
        until the traced passes have taken ``seconds``.

        Returns (traced records, passes, traced seconds, untraced seconds)."""
        records, walls = [], {True: 0.0, False: 0.0}
        index = 1
        while walls[True] < seconds:
            for traced in (True, False) if index % 2 else (False, True):
                if traced:
                    self.tracer.install()
                else:
                    self.tracer.uninstall()
                t0 = time.perf_counter()
                done = self.run_pass(index)
                walls[traced] += time.perf_counter() - t0
                if traced:
                    records += done
            index += 1
        self.tracer.uninstall()
        return records, index - 1, walls[True], walls[False]


def check(records: list) -> tuple[int, list, dict]:
    """(failed calls, failure messages, recorded observations)."""
    refs = References()
    failed, messages, observed = 0, [], {}
    for i, (call, outcome, _) in enumerate(records):
        problems = call.check(outcome, refs)
        if problems:
            failed += 1
            messages.append(f"call {i} {call.label} {call.argv or call.mgf}: {'; '.join(problems)}")
        elif call.observe is not None:
            for key, value in call.observe(outcome).items():
                observed.setdefault(key, []).append(value)
    return failed, messages, observed


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten calls beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - 10
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(records, cals, wall, setup_s, rss_mb) -> tuple[dict, list]:
    """The end-to-end metrics; call times at the reference speed if ``cals``
    is given, else raw. With one caller, calls per second is the inverse of
    the mean call time."""
    raw = [seconds for _, _, seconds in records]
    latencies = raw if cals is None else at_reference_speed(raw, cals)
    busy = sum(latencies)
    tail_s, tail_pct = tail(latencies)
    reps = sum(call.reps for call, _, _ in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (len(records) / busy, "1/s"),
        "call_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "call_ms_tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [f"call_ms_tail is p{tail_pct:.1f} of {len(records)} calls",
             f"raw: {sum(raw):.3f} s in calls, median call {statistics.median(raw) * 1e3:.4f} ms"]
    if cals is None:
        notes.append("call times are raw: the calibration kernel tracks one core")
    else:
        notes.append(f"calibration kernel median {statistics.median(cals) * 1e3:.4f} ms "
                     f"(reference {CAL_REF_MS} ms) over {len(cals)} runs")
    if reps:
        notes.append(f"reps_per_s {reps / busy:.6g} 1/s ({reps} replications)")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="override the workload's COUPON_DELAY_THREADS (ungated runs)")
    args = parser.parse_args(argv)

    if not (SRC / "coupon_delay" / "__init__.py").is_file():
        print(f"error: no coupon_delay package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    threads = args.threads or workload.threads
    os.environ["COUPON_DELAY_THREADS"] = str(threads)

    setup_s = None if args.trace else measure_setup(workload.name, args.seed)

    tracer = None
    if args.trace:
        import coupon_delay  # the layers, but not yet the CLI

        from spans import Tracer

        tracer = Tracer()
        tracer.install()  # before cli binds the samplers at import
    import coupon_delay.cli  # noqa: F401
    if tracer is not None:
        tracer.install()  # wraps cli.main

    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        runner = Runner(workload, args.seed, out_dir, tracer)
        runner.run_pass(0)  # warm-up: not measured, not checked
        for _ in range(3):
            calibrate()
        if tracer is None:
            # The kernel is single-threaded and tracks the speed of one core,
            # which sets a one-thread call's time but not a two-thread one's:
            # there it made the spread between runs wider, not narrower.
            records, passes, wall = runner.run_for(args.seconds, calibrated=threads == 1)
            rss_mb = peak_rss_mb()
        else:
            tracer.reset()
            records, passes, wall, untraced = runner.run_traced(args.seconds)
        failed, messages, observed = check(records)
        if tracer is None:
            metrics, notes = end_to_end(records, runner.cals, wall, setup_s, rss_mb)
        else:
            from spans import layer_metrics

            summary, sf_under_moment = tracer.summary()
            tracer.save(OUT / f"trace-{workload.name}.npz")
            metrics = layer_metrics(summary, sf_under_moment, wall - untraced, untraced)
            notes = [f"traced {wall:.3f} s, untraced {untraced:.3f} s for the same "
                     f"{passes} passes"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    attempted = len(records)
    print(f"workload {workload.name} seed {args.seed} threads {threads} "
          f"passes {passes} calls {attempted} wall {wall:.3f} s")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for note in notes:
        print(note)
    by_label = {}
    for call, _, seconds in records:
        by_label.setdefault(call.label, []).append(seconds)
    for label, times in by_label.items():
        print(f"  {label}: {len(times)} calls, raw median {statistics.median(times) * 1e3:.3f} ms")
    for key, values in sorted(observed.items()):
        print(f"observed {key} median {statistics.median(values):.4f} over {len(values)} calls")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
