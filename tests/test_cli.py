import json
import math
import os
import subprocess
import sys

import jsonschema
import pytest

from coupon_delay import alpha, cli, limit_laws
from coupon_delay.cli import OUTPUT_RECORD_SCHEMA, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def record_alpha_solves(monkeypatch):
    """The beta of every solve_alpha call, wherever the CLI reaches it."""
    betas = []

    def recorded(beta):
        betas.append(beta)
        return alpha.solve_alpha(beta)

    for module in (cli, limit_laws):
        monkeypatch.setattr(module, "solve_alpha", recorded)
    return betas


def last_json(stdout):
    record = json.loads(stdout.strip().splitlines()[-1])
    jsonschema.validate(record, OUTPUT_RECORD_SCHEMA)
    return record


class TestAlphaCommand:
    def test_unit_beta(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--beta", "1")
        assert code == 0
        record = last_json(out)
        assert record["command"] == "alpha"
        assert record["params"] == {"beta": 1.0}
        assert record["results"]["alpha"] == pytest.approx(3.146193, abs=1e-5)
        assert abs(record["results"]["residual"]) <= 1e-12

    def test_zero_beta_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--beta", "0")
        assert code == 2
        assert "beta" in err

    def test_subnormal_beta_is_usage_error(self, capsys):
        # 1/beta overflows: no record with an infinite alpha, and no warning
        code, out, err = run_cli(capsys, "alpha", "--beta", "1e-310")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "beta" in err

    def test_bridging_gap_is_the_solutions(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--beta", "7.5")
        assert code == 0
        results = last_json(out)["results"]
        solution = alpha.solve_alpha(7.5)
        assert results["bridging_gap"] == solution.bridging_gap
        assert results["alpha_over_beta_minus_one"] == solution.u

    def test_large_beta_reports_expansion(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--beta", "10000")
        assert code == 0
        results = last_json(out)["results"]
        assert results["alpha_over_beta_minus_one"] == pytest.approx(
            math.sqrt(2.0 / 10000.0), rel=2e-2
        )
        assert results["sqrt_two_over_beta"] == pytest.approx(0.01414, abs=1e-5)


class TestMomentsCommand:
    def test_two_coupons(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--m", "1", "--n", "2", "--orders", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "m,n,r,value,abs_err,method,asymptotic,ratio"
        cells = row.split(",")
        assert float(cells[3]) == pytest.approx(3.0, rel=1e-9)
        assert cells[5] == "quadrature"

    def test_single_user(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--m", "3", "--n", "1", "--orders", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(3.0, rel=1e-9)
        # fixed-n leading order is exact here up to the vanishing correction
        assert float(row[6]) == 3.0

    def test_degenerate_second_order(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--m", "1", "--n", "1", "--orders", "2")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(2.0, rel=1e-9)

    def test_multiple_orders_and_critical_prediction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments", "--m", "9", "--n", "10000", "--orders", "1,2", "--beta", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        ratio = float(lines[1].split(",")[7])
        assert 0.8 <= ratio <= 1.1

    def test_one_alpha_solve_for_every_order(self, capsys, monkeypatch):
        betas = record_alpha_solves(monkeypatch)
        code, out, _ = run_cli(
            capsys,
            "moments", "--m", "9", "--n", "100", "--orders", "1,2,3", "--beta", "1",
        )
        assert code == 0
        assert betas == [1.0]

    def test_rows_follow_the_given_order(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--m", "2", "--n", "3", "--orders", "3,1,2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[2] for row in rows] == ["3", "1", "2"]
        values = [float(row[3]) for row in rows]
        assert values[1] < values[2] < values[0]

    @pytest.mark.parametrize("beta", ["0", "1e-310"])
    def test_bad_beta_is_one_usage_error(self, capsys, beta):
        # one rule for beta wherever it enters: solve_alpha's
        code, out, err = run_cli(
            capsys, "moments", "--m", "2", "--n", "3", "--orders", "1", "--beta", beta
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: beta must be a finite real >= 2.2250738585072014e-308, "
            f"got {float(beta)!r}\n"
        )

    def test_unreachable_tolerance_is_numeric_failure(self, capsys):
        # below the trapezoid's 1e-14 rounding floor
        code, out, err = run_cli(
            capsys, "moments", "--m", "2", "--n", "3", "--orders", "1", "--rel-tol", "1e-15"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:")

    def test_bad_orders(self, capsys):
        for orders in ("x", ","):
            code, _, err = run_cli(
                capsys, "moments", "--m", "1", "--n", "2", "--orders", orders
            )
            assert code == 2
            assert "orders" in err

    def test_overflowing_order_fails_at_once(self, capsys):
        # E[Delta^s] >= Gamma(s + 1) > the largest double: no grid is built
        code, out, err = run_cli(
            capsys, "moments", "--m", "1", "--n", "1", "--orders", "200000"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:") and "largest double" in err
        assert "Warning" not in err


class TestSimulateCommand:
    def test_single_user_samples(self, capsys, tmp_path):
        out_file = tmp_path / "samples.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m", "5", "--n", "1", "--reps", "3",
            "--seed", "7", "--mode", "discrete", "--out", str(out_file),
        )
        assert code == 0
        record = last_json(out)
        assert record["results"]["min_d"] == 5
        assert record["results"]["max_d"] == 5
        assert out_file.read_text().splitlines() == ["d", "5", "5", "5"]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        out_file = tmp_path / "samples.csv"
        args = ["simulate", "--m", "2", "--n", "6", "--reps", "50", "--seed", "7",
                "--mode", "coupled", "--out", str(out_file)]
        code1, out1, _ = run_cli(capsys, *args)
        bytes1 = out_file.read_bytes()
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out_file.read_bytes() == bytes1
        r1, r2 = last_json(out1), last_json(out2)
        r1.pop("wall_time_ms"), r2.pop("wall_time_ms")
        assert r1 == r2

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # and it fails before the sampler draws any replication
        drawn, sampler = [], cli._SAMPLERS["poissonized"]

        def spy(config):
            drawn.append(config)
            return sampler(config)

        monkeypatch.setitem(cli._SAMPLERS, "poissonized", spy)
        out_file = tmp_path / "missing" / "samples.csv"
        code, out, err = run_cli(
            capsys,
            "simulate", "--m", "1", "--n", "1", "--reps", "3",
            "--seed", "1", "--mode", "poissonized", "--out", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(out_file) in err
        assert not out_file.parent.exists()
        assert drawn == []

    @pytest.mark.parametrize("reps", ["257", "1000"])
    def test_poissonized_output_ignores_thread_count(self, capsys, tmp_path, monkeypatch, reps):
        # workers split on 256-replication stream blocks, a partial one included
        out_file = tmp_path / "delta.csv"
        commands = [
            ["simulate", "--m", "3", "--n", "100", "--reps", reps, "--seed", "61",
             "--mode", "poissonized", "--out", str(out_file)],
            ["limit-check", "--regime", "super", "--m", "300", "--n", "50",
             "--reps", reps, "--seed", "61"],
        ]
        outputs = []
        for threads in ["1", "2", "3"]:
            monkeypatch.setenv("COUPON_DELAY_THREADS", threads)
            records = []
            for argv in commands:
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                record = last_json(out)
                record.pop("wall_time_ms")
                records.append(record)
            outputs.append((records, out_file.read_bytes()))
        assert len(outputs[0][1].splitlines()) == int(reps) + 1
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_coupled_summary_mean(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--m", "1", "--n", "2", "--reps", "100000",
            "--seed", "3", "--mode", "coupled",
        )
        assert code == 0
        record = last_json(out)
        assert record["command"] == "simulate"
        assert record["params"] == {
            "m": 1, "n": 2, "reps": 100000, "seed": 3, "mode": "coupled", "out": None
        }
        results = record["results"]
        assert abs(results["mean_d"] - 3.0) <= 3 * results["se_d"]

    @pytest.mark.parametrize("mode", ["discrete", "coupled"])
    def test_unallocatable_n_is_usage_error(self, capsys, mode):
        # no address space holds 1e18 doubles, so nothing is allocated
        code, out, err = run_cli(
            capsys,
            "simulate", "--m", "1", "--n", str(10**18), "--reps", "1",
            "--seed", "0", "--mode", mode,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--mode poissonized" in err

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--m", "1", "--n", "2", "--reps", "3", "--mode", "discrete"])
        assert exc.value.code == 2


class TestLimitCheckCommand:
    def test_fixed_m_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "limit-check", "--regime", "fixed-m", "--m", "1", "--n", "10000",
            "--reps", "2000", "--seed", "5",
        )
        assert code == 0
        record = last_json(out)
        assert record["command"] == "limit-check"
        assert record["params"] == {
            "regime": "fixed-m", "m": 1, "n": 10000, "beta": None, "reps": 2000, "seed": 5
        }
        results = record["results"]
        assert results["target"] == "standard_gumbel"
        assert 0.0 <= results["ks_statistic"] <= 0.08

    def test_supercritical_at_headline_size(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "limit-check", "--regime", "super", "--m", "30000", "--n", "1000",
            "--reps", "5000", "--seed", "20260810",
        )
        assert code == 0
        assert last_json(out)["results"]["ks_statistic"] <= 0.06

    def test_fixed_n_target(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "limit-check", "--regime", "fixed-n", "--m", "2000", "--n", "3",
            "--reps", "1000", "--seed", "5",
        )
        assert code == 0
        results = last_json(out)["results"]
        assert results["target"] == "max_of_normals"
        assert results["ks_statistic"] <= 0.08

    def test_critical_requires_beta(self, capsys):
        code, _, err = run_cli(
            capsys,
            "limit-check", "--regime", "critical", "--m", "20", "--n", "22026",
            "--reps", "10", "--seed", "5",
        )
        assert code == 2
        assert "beta" in err

    def test_critical_reports_constants(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "limit-check", "--regime", "critical", "--m", "20", "--n", "22026",
            "--beta", "2", "--reps", "500", "--seed", "5",
        )
        assert code == 0
        results = last_json(out)["results"]
        assert results["alpha"] == pytest.approx(4.71535, abs=1e-4)
        assert abs(results["b"]) <= 1e-4

    def test_critical_solves_alpha_once(self, capsys, monkeypatch):
        # the regime carries alpha to the normalization and the report
        betas = record_alpha_solves(monkeypatch)
        code, _, _ = run_cli(
            capsys,
            "limit-check", "--regime", "critical", "--m", "20", "--n", "22026",
            "--beta", "2", "--reps", "50", "--seed", "5",
        )
        assert code == 0
        assert betas == [2.0]


class TestProcessLevel:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coupon_delay.cli", "alpha", "--beta", "2"],
            capture_output=True,
            text=True,
            # the child imports the package from where this process does,
            # whether PYTHONPATH or pytest's pythonpath setting put it there
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["results"]["alpha"] == pytest.approx(4.71535, abs=1e-4)
