"""Batch command-line interface.

Subcommands
-----------
alpha        solve the critical-regime constant for a given beta
moments      rising moments by quadrature, with asymptotic predictions (CSV)
simulate     Monte Carlo samples of D / Delta / coupled pairs
limit-check  KS goodness of fit of simulated samples against a limit law

``moments`` prints CSV; the other commands return their results, which
``main`` prints as one JSON record (OUTPUT_RECORD_SCHEMA): ``params`` are
the parsed flags, and ``wall_time_ms``, the time of the command call, is
the one field that varies run to run.  Every randomized command requires
an explicit --seed, and given identical flags (and any
COUPON_DELAY_THREADS value) produces identical scientific output.
Exit codes: 0 success, 2 usage, domain or --out file error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from .alpha import solve_alpha
from .errors import NumericError
from .limit_laws import (
    Critical,
    FixedM,
    FixedN,
    MaxOfNormals,
    Supercritical,
    derive_b,
)
from .moments import (
    ProblemSize,
    QuadratureConfig,
    asymptotic_moment,
    rising_moments,
)
from .simulate import (
    MODE_COUPLED,
    MODE_DISCRETE,
    MODE_POISSONIZED,
    SimConfig,
    empirical_moments,
    ks_distance,
    sample_coupled,
    sample_discrete,
    sample_poissonized,
    write_samples_csv,
)

# Documented shape of every JSON record this CLI emits (validated in the
# test suite with jsonschema).
OUTPUT_RECORD_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "results", "wall_time_ms"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "results": {"type": "object"},
        "wall_time_ms": {"type": "number"},
    },
}

_CSV_COLUMNS = ["m", "n", "r", "value", "abs_err", "method", "asymptotic", "ratio"]


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def cmd_alpha(args) -> dict:
    sol = solve_alpha(args.beta)
    return {
        "alpha": sol.alpha,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "alpha_over_beta_minus_one": sol.u,
        "sqrt_two_over_beta": math.sqrt(2.0 / sol.beta),
        "bridging_gap": sol.bridging_gap,
    }


def cmd_moments(args) -> None:
    ps = ProblemSize(m=args.m, n=args.n)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    orders = _parse_orders(args.orders)
    regime = Critical(beta=args.beta) if args.beta is not None else Supercritical()
    rows = []
    for r, result in zip(orders, rising_moments(ps, orders, cfg)):
        predicted = asymptotic_moment(ps, regime, r)
        rows.append(
            [
                args.m,
                args.n,
                r,
                _fmt(result.value),
                _fmt(result.abs_err),
                result.method,
                _fmt(predicted),
                _fmt(result.value / predicted),
            ]
        )
    print(",".join(_CSV_COLUMNS))
    for row in rows:
        print(",".join(str(cell) for cell in row))


def _parse_orders(raw: str) -> list[int]:
    try:
        orders = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--orders expects comma-separated integers, got {raw!r}")
    if not orders or any(r < 1 for r in orders):
        raise ValueError("--orders needs at least one integer >= 1")
    return orders


_SAMPLERS = {
    MODE_DISCRETE: sample_discrete,
    MODE_POISSONIZED: sample_poissonized,
    MODE_COUPLED: sample_coupled,
}


def cmd_simulate(args) -> dict:
    config = SimConfig(
        ps=ProblemSize(m=args.m, n=args.n),
        reps=args.reps,
        seed=args.seed,
        mode=args.mode,
    )
    if args.out:  # an unwritable path fails before any replication is drawn
        open(args.out, "w").close()
    batch = _SAMPLERS[args.mode](config)
    if args.out:
        write_samples_csv(batch, args.out)
    results = {}
    if batch.d_values is not None:
        mean, se = empirical_moments(batch.d_values)
        results.update(
            {
                "mean_d": mean,
                "se_d": se,
                "min_d": int(batch.d_values.min()),
                "max_d": int(batch.d_values.max()),
            }
        )
    if batch.delta_values is not None:
        mean, se = empirical_moments(batch.delta_values)
        results.update({"mean_delta": mean, "se_delta": se})
    return results


def _build_regime(args):
    if args.regime == "fixed-m":
        return FixedM(m=args.m)
    if args.regime == "super":
        return Supercritical()
    if args.regime == "fixed-n":
        return FixedN(n=args.n)
    if args.beta is None:
        raise ValueError("--beta is required for the critical regime")
    return Critical(beta=args.beta)


def cmd_limit_check(args) -> dict:
    regime = _build_regime(args)
    config = SimConfig(
        ps=ProblemSize(m=args.m, n=args.n),
        reps=args.reps,
        seed=args.seed,
        mode=MODE_POISSONIZED,
    )
    batch = sample_poissonized(config)
    report = ks_distance(batch, regime)
    norm = report.normalization
    results = {
        "ks_statistic": report.statistic,
        "center": norm.center,
        "scale": norm.scale,
        "target": "max_of_normals"
        if isinstance(norm.target, MaxOfNormals)
        else "standard_gumbel",
    }
    if isinstance(regime, Critical):
        results["alpha"] = regime.alpha
        results["b"] = derive_b(args.m, args.n, regime.beta)
    return results


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="coupon-delay",
        description="Broadcast-channel packet delay: moments, limit laws, simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_alpha = sub.add_parser("alpha", help="solve the critical-regime constant")
    p_alpha.add_argument("--beta", type=float, required=True)
    p_alpha.set_defaults(func=cmd_alpha)

    p_mom = sub.add_parser("moments", help="rising moments by quadrature (CSV)")
    p_mom.add_argument("--m", type=int, required=True)
    p_mom.add_argument("--n", type=int, required=True)
    p_mom.add_argument("--orders", type=str, required=True)
    p_mom.add_argument("--rel-tol", type=float, default=1e-9, dest="rel_tol")
    p_mom.add_argument(
        "--beta",
        type=float,
        default=None,
        help="compare against the critical prediction instead of (n m)^r",
    )
    p_mom.set_defaults(func=cmd_moments)

    p_sim = sub.add_parser("simulate", help="Monte Carlo samples")
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument(
        "--mode",
        choices=list(_SAMPLERS),
        required=True,
    )
    p_sim.add_argument("--out", type=str, default=None, help="CSV sample file")
    p_sim.set_defaults(func=cmd_simulate)

    p_lim = sub.add_parser("limit-check", help="KS fit against a limit law")
    p_lim.add_argument(
        "--regime",
        choices=["fixed-m", "critical", "super", "fixed-n"],
        required=True,
    )
    p_lim.add_argument("--m", type=int, required=True)
    p_lim.add_argument("--n", type=int, required=True)
    p_lim.add_argument("--beta", type=float, default=None)
    p_lim.add_argument("--reps", type=int, required=True)
    p_lim.add_argument("--seed", type=int, required=True)
    p_lim.set_defaults(func=cmd_limit_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "func")}
    t0 = time.perf_counter()
    try:
        results = args.func(args)
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if results is not None:
        record = {
            "command": args.subcommand,
            "params": params,
            "results": results,
            "wall_time_ms": (time.perf_counter() - t0) * 1e3,
        }
        print(json.dumps(record, sort_keys=True))
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
