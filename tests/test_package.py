import importlib
import types

import pytest

import coupon_delay

MODULES = ["alpha", "errors", "limit_laws", "moments", "simulate", "special"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"coupon_delay.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert hasattr(module, attr), f"coupon_delay.{name} lacks {attr}"


def test_package_names_are_the_modules_exports():
    # both directions, so a deleted or added name cannot leave a stale export
    exported = {
        attr: name
        for name in MODULES
        for attr in importlib.import_module(f"coupon_delay.{name}").__all__
    }
    public = {
        attr
        for attr, value in vars(coupon_delay).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exported)
    for attr, name in exported.items():
        module = importlib.import_module(f"coupon_delay.{name}")
        assert getattr(coupon_delay, attr) is getattr(module, attr)
