"""The benchmark's own correctness checks hold on the library as it stands.

``perfbench/workloads.py`` pairs each timed op with a ``verify`` that checks
its result.  These run the ``heterodyne``, ``imageband``, ``relations`` and
``epr`` ops once each on one seeded input, so a change that breaks what those
checks assert (exit 0 and every heterodyne row passing, with ``unbest`` and
``accbest`` saturated and an ``uncanon`` row; the imageband's rank-one
``kets`` view, the identities of a complete POM; one passing row per
relation and instance; the two EPR ``ungen`` rows and grid errors within
1e-3 of the closed form) fails here and not first in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)  # dataclasses look it up
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", ["heterodyne", "imageband", "relations", "epr"])
def test_workload_op_passes_its_own_verify(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    (inp,) = workloads.make_inputs(name, seed=20261019, count=1)
    _, failures = workload.verify(inp, workload.op(inp, str(tmp_path / "report.json")))
    assert failures == []
