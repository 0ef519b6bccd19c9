"""The benchmark tracer's wrap targets must exist in the program.

perfbench/tracing.py replaces module attributes by name; a renamed or
deleted target would only show up as a missing span in a traced benchmark
run. Loading the tracer as it is and looking each target up makes the
rename fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPS = load_tracing().WRAPS


@pytest.mark.parametrize("module_name, attr", sorted({(w[0], w[1]) for w in WRAPS}))
def test_wrap_target_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), \
        f"{module_name}.{attr} is wrapped by perfbench/tracing.py but does not exist"


def test_tracer_patches_every_target():
    tracer = load_tracing().Tracer()
    with tracer:
        assert tracer.missing == []
