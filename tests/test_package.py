import importlib

import pytest

MODULES = ["alpha", "limit_laws", "moments", "simulate", "special"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"coupon_delay.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"coupon_delay.{name} lacks {attr}"
