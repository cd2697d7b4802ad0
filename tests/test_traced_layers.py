"""The benchmark's traced run (perfbench/spans.py) wraps package functions by
name, and a missing name stops it; every name it lists must still exist, and
the CLI must reach each layer through a binding the tracer rewraps."""

import importlib
import importlib.util
from pathlib import Path

from coupon_delay import cli


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_layer_resolves():
    layers = _spans().LAYERS
    assert layers
    for module_name, function_name, _ in layers:
        module = importlib.import_module(f"coupon_delay.{module_name}")
        assert callable(getattr(module, function_name, None)), (
            f"coupon_delay.{module_name}.{function_name}"
        )


def test_every_cli_layer_records_spans(tmp_path, capsys):
    # the tracer rebinds module names and cli._SAMPLERS entries, so a
    # command that reached a layer some other way would leave it dark
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (
            ["alpha", "--beta", "2"],
            ["moments", "--m", "3", "--n", "10", "--orders", "1,2", "--beta", "1"],
            *(
                ["simulate", "--m", "2", "--n", "5", "--reps", "20", "--seed", "1",
                 "--mode", mode, "--out", str(tmp_path / f"{mode}.csv")]
                for mode in ("discrete", "poissonized", "coupled")
            ),
            ["limit-check", "--regime", "critical", "--m", "20", "--n", "22026",
             "--beta", "2", "--reps", "50", "--seed", "5"],
        ):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary, _ = tracer.summary()
    dark = [name for name, row in summary.items() if row["calls"] == 0]
    assert dark == ["moments.mgf_delta"]
    # the one moments command computes its two orders in one call
    assert summary["moments.delta_power_moment"]["calls"] == 1
