"""The benchmark's contract: the names perfbench/spans.py wraps and reads, and
the command lines perfbench/workloads.py gives the CLI."""

import importlib
import importlib.util
import os
import sys

import pytest

from zerodyn import Poly, ZeroCount
from zerodyn.cli import main

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _load(name):
    """perfbench/<name>.py, loaded by path (perfbench is not a package)."""
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, function", [t[:2] for t in _load("spans").TARGETS])
def test_every_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"zerodyn.{module}"), function))


def test_the_fields_the_tracer_reads_exist():
    assert "method" in ZeroCount._fields
    f = Poly([1, 1])
    assert (f.precision, f.is_exact) == (None, True)


WORKLOADS = _load("workloads")


@pytest.mark.parametrize("workload", list(WORKLOADS.WORKLOADS))
def test_every_benchmark_job_runs(workload, tmp_path, capsys):
    # a tiny cycle of each workload, in order: a verify job reads the plan
    # its construct job wrote
    for job in WORKLOADS.cycle_jobs(workload, 1, 0, str(tmp_path), tiny=True):
        code = main([*job.argv, "--output", str(tmp_path / f"{job.slot}.json")])
        assert code == 0, (job.argv, capsys.readouterr().err)
