"""Every library name the perfbench tracer wraps still exists.

``perfbench/tracing.py`` patches callables by dotted name (its ``LAYERS``
table); a class target must be an own attribute of its class, since the
tracer reads ``owner.__dict__[attr]``. Deleting, renaming or moving one of
them to a base class would otherwise surface only in the traced perfbench
run; here it fails the test suite. The tracer module
is stdlib-only, so it is loaded straight from its file.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def test_every_traced_target_resolves(tracing):
    assert tracing.LAYERS
    for layer in tracing.LAYERS:
        resolved = list(tracing._resolve_targets(layer.targets))
        assert resolved, layer.name
        for owner, attr in resolved:
            assert callable(getattr(owner, attr, None)), (
                f"{layer.name}: {owner!r} has no callable {attr!r}"
            )
            if isinstance(owner, type):
                # The tracer patches owner.__dict__[attr]: an inherited
                # method would pass getattr here and fail the traced run.
                assert attr in owner.__dict__, (
                    f"{layer.name}: {attr!r} is not an own attribute of "
                    f"{owner.__name__}"
                )
