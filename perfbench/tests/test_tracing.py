"""Tests of the benchmark's own tracing and run loop.

Run from the checkout root: python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import pomest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_is_duration_minus_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0, False),
        ("relations.check_geom", 1.0, 3.0, 0, 0, False),
        ("estimation.estimate_stats", 4.0, 8.0, 0, 0, False),
        ("estimation.probabilities", 5.0, 6.0, 2, 0, False),
        ("sampling.random_pom", 11.0, 12.0, -1, 1, True),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]
    metrics = tracing.layer_metrics(spans, n_ops=2)
    assert metrics["estimation.calls"] == 1.0
    assert metrics["estimation.self_s"] == 2.0
    assert metrics["estimation.probabilities.self_s"] == 0.5
    assert metrics["relations.check_geom.self_s"] == 1.0
    assert metrics["sampling.errors"] == 0.5


def test_wrappers_reach_every_binding_and_are_removed():
    originals = {
        "relations": pomest.relations.probabilities,
        "estimation": pomest.estimation.probabilities,
        "package": pomest.probabilities,
        "displacement": pomest.fock.displacement,
        "density_init": pomest.operators.DensityOperator.__init__,
    }
    assert originals["relations"] is originals["estimation"] is originals["package"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # relations imports probabilities by name: its binding is wrapped too
        assert pomest.relations.probabilities is not originals["relations"]
        assert pomest.estimation.probabilities is not originals["estimation"]
        assert pomest.probabilities is not originals["package"]
        assert pomest.fock.displacement is not originals["displacement"]
        assert pomest.operators.DensityOperator.__init__ is not originals["density_init"]
        pom = pomest.coherent_pom(16, pomest.GridSpec(0j, 6.5, 101))
        rho = pomest.fock.vacuum_ket(16).to_density()
        pomest.relations.heterodyne_analysis(rho, pom)
    finally:
        tracer.uninstall()
    assert pomest.relations.probabilities is originals["relations"]
    assert pomest.fock.displacement is originals["displacement"]
    assert pomest.operators.DensityOperator.__init__ is originals["density_init"]

    spans = tracer.spans
    names = [s[0] for s in spans]
    direct = [s for s in spans
              if s[0] == "estimation.probabilities" and spans[s[3]][0] == "relations.heterodyne_analysis"]
    assert direct, "the call through relations' own binding was not traced"
    assert "operators.DensityOperator.__init__" in names
    assert "pom.Pom.__init__" in names


def test_traced_runs_repeat_call_counts(tmp_path):
    workload = workloads.WORKLOADS["relations"]
    inputs = workloads.make_inputs("relations", 7, 4)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        ops = run.measure(workload, inputs, 0.0, tracer, str(tmp_path))
        assert all(op["ok"] for op in ops)
        metrics = run._per_layer(ops, tracer)
        counts.append({k: v for k, (v, _) in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["estimation.probabilities.calls"] > 0


def test_untraced_run_checks_determinism(tmp_path):
    workload = workloads.WORKLOADS["relations"]
    inputs = workloads.make_inputs("relations", 3, 4)
    ops = run.measure(workload, inputs, 0.0, None, str(tmp_path))
    assert [op["input"] for op in ops] == [0, 0, 1]
    assert all(op["ok"] for op in ops)


def test_failures_are_counted_and_the_run_goes_on(tmp_path):
    calls = []

    def op(inp, path):
        calls.append(inp)
        if inp == "boom":
            raise RuntimeError("op failed")
        return len(calls)  # a different output on every call

    def verify(inp, result):
        return str(result).encode(), [] if inp != "bad" else ["check failed"]

    fake = workloads.Workload("fake", "n/a", None, op, verify)
    ops = run.measure(fake, ["a", "boom", "bad", "c"], 0.0, None, str(tmp_path))
    # op 1 repeats input "a" and its output differs; then "boom" raises
    assert [op["ok"] for op in ops] == [True, False, False]
    ops = run.measure(fake, ["c", "bad", "d"], 0.0, None, str(tmp_path))
    assert [op["input"] for op in ops] == [0, 0, 1]
    assert [op["ok"] for op in ops] == [True, False, False]


def test_inputs_follow_the_seed():
    for name in ("heterodyne", "relations", "epr"):
        assert workloads.make_inputs(name, 5, 3) == workloads.make_inputs(name, 5, 3)
        assert workloads.make_inputs(name, 5, 3) != workloads.make_inputs(name, 6, 3)
    a, b = (workloads.make_inputs("imageband", 5, 1)[0] for _ in range(2))
    assert np.array_equal(a.mixed.matrix, b.mixed.matrix)
