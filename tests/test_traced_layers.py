"""The benchmark's traced run (perfbench/spans.py) wraps package functions by
name, and a missing name stops it; every name it lists must still exist."""

import importlib
import importlib.util
from pathlib import Path


def _layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for module_name, function_name, _ in layers:
        module = importlib.import_module(f"coupon_delay.{module_name}")
        assert callable(getattr(module, function_name, None)), (
            f"coupon_delay.{module_name}.{function_name}"
        )
