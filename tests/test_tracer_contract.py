"""The benchmark tracer's contract: the names perfbench/spans.py wraps and reads."""

import importlib
import importlib.util
import os

import pytest

from zerodyn import Poly, ZeroCount

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, function", [t[:2] for t in _spans().TARGETS])
def test_every_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"zerodyn.{module}"), function))


def test_the_fields_the_tracer_reads_exist():
    assert "method" in ZeroCount._fields
    f = Poly([1, 1])
    assert (f.precision, f.is_exact) == (None, True)
