import csv
import json
import subprocess
import sys
from http import HTTPStatus
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pomest import estimation, fock, operators, relations, scenarios
from pomest.cli import (EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, _atomic_write, _dumps,
                        _relation_instances, main)
from pomest.estimation import estimate_stats, probabilities
from pomest.operators import DensityOperator
from pomest.pom import Pom, pom_to_json, trine_pom

TRINE_FIXTURE = str(Path(__file__).resolve().parents[1] / "fixtures" / "trine.json")
ROW_KEYS = {"scenario", "relation_id", "lhs", "rhs", "slack", "saturated", "tolerance",
            "pass_tolerance", "passed", "inputs_digest"}


def _assert_row_schema(rows):
    for row in rows:
        assert set(row) == ROW_KEYS
        assert row["slack"] == row["lhs"] - row["rhs"]


@pytest.fixture
def trine_file(tmp_path):
    path = tmp_path / "trine.json"
    path.write_text(json.dumps(pom_to_json(trine_pom())))
    return str(path)


def test_validate_fixture(trine_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", "--pom", trine_file, "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["validation"]["completeness_deviation"] < 1e-10


def test_validate_bad_path_is_config_error(tmp_path):
    code = main(["validate", "--pom", str(tmp_path / "missing.json")])
    assert code == EXIT_CONFIG


def test_scenario_epr_closed_form_lhs(tmp_path):
    out = tmp_path / "epr.json"
    code = main([
        "scenario", "epr",
        "--params", '{"sigma":0.1,"tau":0.1,"numeric":false}',
        "--output", str(out),
    ])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    closed = doc["rows"][0]
    assert closed["relation_id"] == "ungen"
    assert closed["lhs"] == pytest.approx(0.5, abs=1e-12)


def test_relations_batch_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["relations", "--params", '{"instances": 5}', "--seed", "7"]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["seed"] == 7
    assert doc["generator"] == "pcg64"
    assert all(r["passed"] for r in doc["rows"])


def test_relations_csv_columns(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["relations", "--params", '{"instances": 3}', "--format", "csv",
                 "--output", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "relation_id", "lhs", "rhs", "slack", "saturated", "tolerance",
                       "pass_tolerance", "passed"]
    assert len(rows) > 3
    # geom, accbound and ungen pass at the numeric tolerance, below the saturation one
    tols = {r[1]: (float(r[6]), float(r[7])) for r in rows[1:]}
    assert tols["geom"] == tols["accbound"] == tols["ungen"] == (1e-6, 1e-9)
    assert tols["varsum"] == (1e-10, 1e-10)
    assert all(r[8] == "True" for r in rows[1:])


def test_estimate_command(tmp_path):
    out = tmp_path / "est.json"
    code = main(["estimate", "--params", '{"pom": "trine", "mode": "no-info"}',
                 "--output", str(out), "--seed", "3"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["estimator"]["values"]) == 3


@pytest.mark.parametrize("quadrature, expect", [
    (1, 1), (2, 2), (1.0, 1),
    (True, "must be a number, not True"), ("1", "must be a number, not '1'"),
    (0, "must be 1 or 2, not 0"), (3, "must be 1 or 2, not 3"),
], ids=["1", "2", "1.0", "true", "string", "0", "3"])
def test_estimate_quadrature_is_1_or_2(quadrature, expect, capsys):
    code = main(["estimate", "--params", json.dumps({"quadrature": quadrature})])
    captured = capsys.readouterr()
    if isinstance(expect, str):
        assert code == EXIT_CONFIG and captured.out == ""
        assert captured.err == f"config error: quadrature {expect}\n"
        return
    assert code == EXIT_OK
    est = estimation.optimal_estimate(fock.quadratures(2)[expect - 1], trine_pom(),
                                      DensityOperator.maximally_mixed(2))
    assert json.loads(captured.out)["estimator"]["values"] == est.values.tolist()


def test_params_from_a_file_match_the_inline_json(tmp_path, capsys):
    params = '{"instances": 4, "dims": [2, 3]}'
    (tmp_path / "params.json").write_text(params)
    outputs = []
    for arg in (params, "@" + str(tmp_path / "params.json")):
        assert main(["relations", "--params", arg, "--seed", "2"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert main(["relations", "--params", "@" + str(tmp_path / "missing.json")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: cannot parse --params")


def test_atomic_write_leaves_no_temporary_file_when_the_replace_fails(tmp_path):
    target = tmp_path / "report.json"
    target.mkdir()  # os.replace of a file onto a directory fails
    with pytest.raises(OSError):
        _atomic_write(str(target), "{}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("target", ["a_directory", "missing/report.json"])
def test_an_unwritable_output_is_a_config_error(target, tmp_path, capsys):
    # a directory, or a file whose parent directory does not exist: exit 3 with one
    # line naming --output, after the command ran, and no temporary file left behind
    (tmp_path / "a_directory").mkdir()
    assert main(["scenario", "squeezing", "--output", str(tmp_path / target)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write --output") and err.count("\n") == 1
    assert [p.name for p in tmp_path.rglob("*")] == ["a_directory"]


def test_random_state_is_drawn_from_the_seed(capsys):
    outputs = []
    for seed in ("5", "5", "6"):
        argv = ["estimate", "--params", '{"state": "random", "quadrature": 1}', "--seed", seed]
        assert main(argv) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    values = [json.loads(out)["estimator"]["values"] for out in outputs]
    assert values[0] != values[2]


def test_scenario_squeezing(tmp_path):
    out = tmp_path / "sq.json"
    code = main(["scenario", "squeezing", "--params", '{"var_x": 6.0, "var_p": 1.5}',
                 "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["squeezing"]["regime"] == "interior"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pomest.cli", "scenario", "linear"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True


@pytest.mark.parametrize("argv, named", [
    ([], "arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["scenario", "foo"], "argument scenario_name: invalid choice: 'foo'"),
    (["relations", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["relations", "--seed", "x"], "argument --seed: must be a non-negative integer, not 'x'"),
    (["relations", "--seed", "-1"], "argument --seed: must be a non-negative integer, not '-1'"),
    (["relations", "--bogus"], "unrecognized arguments: --bogus"),
], ids=["no-command", "unknown-command", "unknown-scenario", "unknown-format", "text-seed",
        "negative-seed", "unknown-option"])
def test_usage_error_is_a_config_error_naming_the_argument(argv, named, capsys):
    # argparse's own exit code, 2, is the validation-failure code
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_console_usage_error_exits_3():
    proc = subprocess.run([sys.executable, "-m", "pomest.cli", "bogus"], capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == "" and proc.stderr.startswith("config error: argument command: ")


@pytest.mark.parametrize("argv", [["--help"], ["scenario", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pomest")


def test_import_loads_neither_scipy_nor_f2py():
    # a fresh interpreter: importing the CLI stays cheap
    probe = ("import sys, pomest, pomest.cli; "
             "print(sorted({'scipy', 'numpy.f2py'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_suite_runs_green(tmp_path):
    out = tmp_path / "suite.json"
    code = main(["suite", "--seed", "0", "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    scenarios_seen = {r["scenario"] for r in doc["rows"]}
    assert {"relations", "epr", "thermal", "heterodyne", "linear", "squeezing"} <= scenarios_seen
    _assert_row_schema(doc["rows"])


@pytest.mark.parametrize("scenario, params", [
    ("heterodyne", {"points_per_axis": 12}),  # GridResolutionError: the spectral cross-check fails
    ("heterodyne", {"radius": 2.0}),  # CompletenessError: the grid does not cover the Fock space
    ("epr", {"points": 256}),  # GridResolutionError: the grid misses the closed form by 4.3e-3
])
def test_grid_failure_is_validation_error(scenario, params, capsys):
    code = main(["scenario", scenario, "--params", json.dumps(params)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1


def test_population_at_the_fock_cut_is_a_validation_error_naming_fock_dim(capsys):
    # the maximally mixed state fills the last Fock levels, where the truncated kets are
    # no longer coherent states: the cross-check misses by 0.19 rms on every grid
    assert main(["scenario", "heterodyne", "--params", '{"state": "maximally-mixed"}']) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert "fock_dim" in err


@pytest.mark.parametrize("argv, message", [
    (["scenario", "heterodyne", "--params", '{"points_per_axis": 0}'], "points_per_axis must be at least 2"),
    (["scenario", "heterodyne", "--params", '{"points_per_axis": 1}'], "points_per_axis must be at least 2"),
    (["scenario", "heterodyne", "--params", '{"fock_dim": 0}'], "fock_dim must be positive"),
    (["scenario", "heterodyne", "--params", '{"radius": -7}'], "radius must be finite and positive"),
    (["scenario", "heterodyne", "--params", '{"hbar": -1}'], "hbar must be positive"),
    (["estimate", "--params", '{"pom": "coherent", "grid": [1]}'], "grid must be an object"),
    (["scenario", "thermal", "--params", '{"beta": 1e400}'], "beta must be finite, not inf"),
    (["scenario", "squeezing", "--params", '{"hbar": 0}'], "hbar must be positive"),
    (["scenario", "squeezing", "--params", '{"hbar": -1}'], "hbar must be positive"),
    (["scenario", "thermal", "--params", '{"fock_dim": 0}'], "fock_dim must be positive"),
    (["scenario", "thermal", "--params", '{"fock_dim": -3}'], "fock_dim must be positive"),
], ids=["no-points", "one-point", "no-fock-levels", "negative-radius", "heterodyne-hbar", "grid-not-object",
        "infinite-beta", "zero-squeezing-hbar", "negative-squeezing-hbar", "thermal-no-fock-levels",
        "thermal-negative-fock-levels"])
def test_bad_grid_or_physics_parameter_is_a_config_error_naming_it(argv, message, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}") and captured.err.count("\n") == 1


def test_bad_parameter_value_is_config_error(capsys):
    code = main(["scenario", "epr", "--params", '{"sigma": -1}'])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: sigma and tau must be positive\n"


@pytest.mark.parametrize("params, message", [
    ('{"hbar": 0}', "hbar must be positive"),
    ('{"hbar": -1}', "hbar must be positive"),
    ('{"hbar": Infinity}', "hbar must be finite, not inf"),
    ('{"sigma": NaN}', "sigma must be finite, not nan"),
    ('{"a": -Infinity}', "a must be finite, not -inf"),
    ('{"p0": Infinity}', "p0 must be finite, not inf"),
    ('{"points": -5}', "points must be 0 (the recommended grid) or positive, not -5"),
])
def test_bad_epr_parameter_is_a_config_error_naming_it(params, message, capsys):
    assert main(["scenario", "epr", "--params", params]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


def test_scenario_epr_defaults_run_on_the_recommended_grid(capsys):
    assert main(["scenario", "epr"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [r["inputs_digest"]["route"] for r in doc["rows"]] == ["closed-form", "grid"]
    assert doc["rows"][1]["inputs_digest"]["points"] == 2304
    assert doc["numeric"]["points"] == 2304


def test_scenario_heterodyne_defaults_run_on_the_sized_grid(capsys):
    # the spectral cross-check holds to about 1e-10 for these states; the cat's Q vanishes
    # between grid points, so its per-quadrature rows converge as the square of the grid
    # step, and the default grid keeps them within 1e-3 of their converged values
    dim = 40
    one = np.zeros((dim, dim))
    one[1, 1] = 1.0
    cat = fock.coherent_ket(dim, 1.5).amplitudes + fock.coherent_ket(dim, -1.5).amplitudes
    cat = np.outer(cat, cat.conj()) / np.vdot(cat, cat).real
    as_json = lambda rho: {"matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]}
    grids = set()
    for state in ("vacuum", "coherent:1.5,0", "coherent:1.0607,1.0607", as_json(one), as_json(cat)):
        assert main(["scenario", "heterodyne", "--params", json.dumps({"state": state})]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert all(r["passed"] for r in rows)
        digest = rows[0]["inputs_digest"]
        assert digest["crosscheck_rms"] < 1e-9
        grids.add(digest["grid"]["points_per_axis"])
    # the cat's rows on a 400^2 grid: uncanon lhs 1.075071, fishbound lhs 0.148925 and 0.101075
    lhs = {r["relation_id"]: r["lhs"] for r in rows}
    assert lhs["uncanon"] == pytest.approx(1.075071, abs=1e-3)
    fishbound = [r["lhs"] for r in rows if r["relation_id"] == "fishbound"]
    assert fishbound == pytest.approx([0.148925, 0.101075], abs=1e-3)
    assert grids == {112}


@pytest.mark.parametrize("points", [40, 80, 160, 161, 241, 321])
def test_heterodyne_fisher_ignores_the_roundoff_at_a_zero_of_q(points, capsys):
    # Q of |1> vanishes at alpha = 0, a grid point of every odd grid; its roundoff-level
    # value there once gave tr F = 7.49 on 161^2 against the exact 4, and central
    # differences of Q read 3.567 on 40^2 and 3.967 on 80^2
    dim = 40
    rho = np.zeros((dim, dim))
    rho[1, 1] = 1.0
    params = {"state": {"matrix": [[[v, 0.0] for v in row] for row in rho.tolist()]},
              "fock_dim": dim, "points_per_axis": points}
    assert main(["scenario", "heterodyne", "--params", json.dumps(params)]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    (tracefish,) = [r for r in rows if r["relation_id"] == "tracefish"]
    assert tracefish["lhs"] == pytest.approx(4.0, abs=1e-12)
    assert tracefish["rhs"] == pytest.approx(4.0, abs=5e-3)
    # the cell at alpha = 0 carries h^2 4/pi of tr F, the limit of |grad Q|^2 / Q there
    h = 14 / (points - 1)
    zero_cell = 4 * h * h / np.pi if points % 2 else 0.0
    assert tracefish["inputs_digest"]["zero_cell_fisher"] == pytest.approx(zero_cell, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("beta", [0, -1])
def test_nonpositive_thermal_beta_is_config_error(beta, capsys):
    code = main(["scenario", "thermal", "--params", json.dumps({"beta": beta})])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: beta must be positive\n"


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 18.6 GiB"), MemoryError()])
def test_running_out_of_memory_is_a_config_error(exc, tmp_path, monkeypatch, capsys):
    # stands in for the dense matrices of a huge fock_dim; a real allocation of that size
    # could take the host's memory or, with overcommit, run for hours
    def oversized(dim):
        raise exc

    monkeypatch.setattr(fock, "oscillator_hamiltonian", oversized)
    out = tmp_path / "thermal.json"
    assert main(["scenario", "thermal", "--params", '{"beta": 1e-3}', "--output", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists() and list(tmp_path.iterdir()) == []
    assert captured.err == f"config error: out of memory: {str(exc) or 'no detail'}\n"


def test_thermal_default_dim_resolves_small_beta(capsys):
    # the old default of 370 levels left a gap of 4.0e-5 against the 1e-6 tolerance
    assert main(["scenario", "thermal", "--params", json.dumps({"beta": 0.1})]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"][0]["inputs_digest"]["fock_dim"] == 500


def test_thermal_crosscheck_failure_is_a_validation_error(capsys):
    # at beta 0.05 and 840 levels the log-partition route disagrees by 5.7e2
    code = main(["scenario", "thermal", "--params", json.dumps({"beta": 0.05, "fock_dim": 840})])
    assert code in (EXIT_OK, EXIT_VALIDATION)
    if code == EXIT_VALIDATION:
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1


def test_thermal_crosscheck_disagreement_exits_validation(monkeypatch, capsys):
    # the default run passes its cross-check, so shift the log-partition route
    original = scenarios.log_partition_estimate
    monkeypatch.setattr(scenarios, "log_partition_estimate",
                        lambda *args, **kwargs: original(*args, **kwargs) + 1.0)
    assert main(["scenario", "thermal"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: thermal estimate disagrees") and err.count("\n") == 1


@pytest.mark.parametrize("params", [
    "5",  # not a JSON object
    '{"relations": 5}',
    '{"relations": ["geom", "bogus"]}',
    '{"relations": []}',
    '{"instances": -1}',
    '{"dims": [1], "instances": 3}',
    '{"dims": 3}',
    '{"dims": []}',
    '{"dims": [2, 2.5]}',
    '{"dims": [true, 3]}',
    '{"dims": [{"a": 1}]}',
], ids=["params-not-object", "relations-not-list", "unknown-relation", "no-relation",
        "negative-instances", "one-dimensional", "dims-not-list", "no-dims", "fractional-dim",
        "boolean-dim", "object-dim"])
def test_bad_relations_params_are_config_errors(params, capsys):
    assert main(["relations", "--params", params]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, key", [
    (["scenario", "epr", "--params", '{"sigma": null}'], "sigma"),
    (["scenario", "heterodyne", "--params", '{"radius": [7]}'], "radius"),
    (["scenario", "thermal", "--params", '{"fock_dim": {"a": 1}}'], "fock_dim"),
    (["scenario", "linear", "--params", '{"var_x": "wide"}'], "var_x"),
    (["validate", "--params", '{"pom": "coherent", "grid": {"points_per_axis": 1e999}}'],
     "points_per_axis"),
    (["scenario", "thermal", "--params", '{"beta": "2"}'], "beta"),
    (["scenario", "heterodyne", "--params", '{"radius": "7"}'], "radius"),
    (["scenario", "heterodyne", "--params", '{"fock_dim": true}'], "fock_dim"),
], ids=["null", "list", "object", "string", "infinite-int", "numeric-string", "radius-string", "boolean"])
def test_non_numeric_parameter_is_a_config_error_naming_the_key(argv, key, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {key} must be a number")


@pytest.mark.parametrize("params, expect", [
    ('{"instances": 3.0, "dims": [2.0, 3]}', None),
    ('{"instances": 2.7}', "instances must be an integer, not 2.7"),
    ('{"instances": true}', "instances must be a number, not True"),
    ('{"instances": 0}', "instances must be positive"),
    ('{"dims": [2, 2.5]}', "dims must be an integer, not 2.5"),
    ('{"dims": [true, 3]}', "dims must be a number, not True"),
], ids=["integral-floats", "fractional-instances", "boolean-instances", "zero-instances",
        "fractional-dim", "boolean-dim"])
def test_relations_sizes_follow_the_integral_parameter_rule(params, expect, capsys):
    code = main(["relations", "--params", params])
    captured = capsys.readouterr()
    if expect:
        assert code == EXIT_CONFIG and captured.out == ""
        assert captured.err == f"config error: {expect}\n"
        return
    # 3.0 reads as 3 and 2.0 as 2: the rows are those of the integers, down to the digest's dim
    assert code == EXIT_OK
    assert main(["relations", "--params", '{"instances": 3, "dims": [2, 3]}']) == EXIT_OK
    rows = [json.dumps(json.loads(out)["rows"]) for out in (captured.out, capsys.readouterr().out)]
    assert rows[0] == rows[1]


def test_relations_instance_reads_one_analysis(monkeypatch):
    counts = {"traces": 0, "project": 0, "_out_of_range": 0}

    def spy(name, original):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Pom, "traces", spy("traces", Pom.traces))
    monkeypatch.setattr(Pom, "project", spy("project", Pom.project))
    monkeypatch.setattr(estimation, "_out_of_range", spy("_out_of_range", estimation._out_of_range))
    rows = _relation_instances({"instances": 20}, 0)
    assert [r["relation_id"] for r in rows] == ["geom", "accbound", "ungen", "varsum"] * 20
    dims = {r["inputs_digest"]["dim"] for r in rows}
    assert dims == {2, 3, 4, 5}  # 20 instances over 16 (dim, K) pairs
    # tr[rho M_k], tr[rho A M_k] and tr[A rho A M_k] for A and B, and the probabilities,
    # from one projection of each dimension's stack of factored POMs onto its [C, A C, B C]
    assert counts["traces"] == 0 and counts["project"] == len(dims)
    # the rows read the value vectors, so no Estimator and no out-of-range spectrum is formed
    assert counts["_out_of_range"] == 0


def test_relations_draw_order_is_pinned():
    # the (dim, outcomes) pairs of the first 20 instances of `relations --seed 0`,
    # recorded before the dimension draw moved off Generator.choice
    rows = _relation_instances({"instances": 20}, 0)[::4]
    assert [(r["inputs_digest"]["dim"], r["inputs_digest"]["outcomes"]) for r in rows] == [
        (5, 8), (5, 4), (5, 3), (5, 5), (5, 6), (5, 7), (2, 3), (2, 3), (2, 4), (4, 5),
        (5, 9), (5, 10), (5, 10), (5, 8), (5, 6), (3, 5), (4, 7), (4, 2), (3, 6), (4, 4)]


def test_relations_subset_draws_no_perturbation():
    # without ungen no perturbation is drawn, so the later instances differ from the full
    # set's; the (dim, outcomes) pairs of the first 20 instances and the sides of the first
    # and last were recorded before the instances were checked as (dim, K) stacks
    params = {"instances": 20, "relations": ["geom", "varsum"]}
    rows = _relation_instances(params, 0)
    assert [r["relation_id"] for r in rows] == ["geom", "varsum"] * 20
    assert [(r["inputs_digest"]["dim"], r["inputs_digest"]["outcomes"]) for r in rows[::2]] == [
        (5, 8), (5, 2), (2, 3), (4, 2), (4, 4), (2, 4), (2, 2), (5, 3), (5, 2), (2, 5),
        (2, 3), (2, 3), (4, 9), (4, 4), (4, 3), (5, 10), (3, 3), (2, 3), (2, 3), (3, 2)]
    sides = [(r["lhs"], r["rhs"]) for r in rows[:2] + rows[-2:]]
    assert sides == pytest.approx([(4.436410200046281, 0.5494635101384451),
                                   (6.555019950417034, 6.555019950417029),
                                   (1.4376816598052289, 0.07682880126961586),
                                   (2.069241340699158, 2.0692413406991585)], rel=1e-12)


@pytest.mark.parametrize("center", ["5", "[1]", "[1, 2, 3]", '"0,0"', "[NaN, 0]", "[0, Infinity]", '["a", 0]'])
def test_bad_coherent_grid_center_is_a_config_error_naming_it(center, capsys):
    params = f'{{"pom": "coherent", "grid": {{"center": {center}}}}}'
    assert main(["estimate", "--params", params]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: center must be ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("scenario, params, message", [
    ("squeezing", '{"var_x": NaN}', "var_x must be finite, not nan"),
    ("squeezing", '{"var_p": Infinity}', "var_p must be finite, not inf"),
    ("squeezing", '{"var_x": -1}', "var_x must be positive"),
    ("linear", '{"var_x": NaN}', "var_x must be finite, not nan"),
    ("linear", '{"var_p": 0}', "var_p must be positive"),
    ("linear", '{"mean_x": NaN}', "mean_x must be finite, not nan"),
    ("linear", '{"mean_p": -Infinity}', "mean_p must be finite, not -inf"),
    ("linear", '{"hbar": -1}', "hbar must be positive"),
    ("linear", '{"var_xprime": NaN}', "auxiliary variances var_xprime and var_pprime must be nonnegative"),
    ("linear", '{"var_pprime": "wide"}', "var_pprime must be a number"),
])
def test_bad_prior_is_a_config_error_naming_its_key(scenario, params, message, capsys):
    assert main(["scenario", scenario, "--params", params]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}") and captured.err.count("\n") == 1


def test_linear_squeezing_endpoint_keeps_its_infinite_variance(capsys):
    params = {"var_xprime": 0.0, "var_pprime": float("inf")}
    assert main(["scenario", "linear", "--params", json.dumps(params)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"][0]["passed"] is True


def test_measurement_estimate_of_pair_values_needs_a_component(capsys):
    params = {"pom": "coherent", "mode": "measurement", "fock_dim": 6,
              "grid": {"radius": 3.0, "points_per_axis": 21}}
    code = main(["estimate", "--params", json.dumps(params)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "component" in err and err.count("\n") == 1


def test_integral_measurement_component_reads_as_an_integer(capsys):
    estimators = []
    for component in (1.0, 1):
        params = {"mode": "measurement", "pom": "tetrahedral", "component": component}
        assert main(["estimate", "--params", json.dumps(params)]) == EXIT_OK
        estimators.append(json.loads(capsys.readouterr().out)["estimator"])
    assert estimators[0] == estimators[1]


@pytest.mark.parametrize("pom, component, message", [
    ("tetrahedral", 7, "an integer from 0 to 2, not 7"),
    ("tetrahedral", "x", "an integer from 0 to 2, not 'x'"),
    ("random", 0, "omitted for scalar outcome values, not 0"),
])
def test_bad_measurement_component_is_a_config_error_naming_it(pom, component, message, capsys):
    params = {"pom": pom, "mode": "measurement", "component": component}
    assert main(["estimate", "--params", json.dumps(params)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: component must be {message}\n"


@pytest.mark.parametrize("state", ["coherent:1", "coherent:inf,0", "coherent:0.5,x", "coherent:1,2,3"])
def test_bad_coherent_state_is_a_config_error_naming_its_form(state, capsys):
    assert main(["scenario", "heterodyne", "--params", json.dumps({"state": state})]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: state must be coherent:re,im with finite re and im, not {state!r}\n"


def test_scenario_heterodyne_runs_one_analysis(tmp_path, monkeypatch):
    analyses, optimal = [], []

    def spy(results, original):
        def wrapped(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]
        return wrapped

    monkeypatch.setattr(relations, "heterodyne_analysis", spy(analyses, relations.heterodyne_analysis))
    monkeypatch.setattr(relations, "optimal_analysis", spy(optimal, relations.optimal_analysis))
    range_checks = []
    monkeypatch.setattr(estimation, "_out_of_range", spy(range_checks, estimation._out_of_range))
    out = tmp_path / "het.json"
    params = {"fock_dim": 16, "radius": 6.5, "points_per_axis": 101,
              "state": "coherent:0.6,-0.2", "hbar": 0.5}
    code = main(["scenario", "heterodyne", "--params", json.dumps(params), "--output", str(out)])
    assert code == EXIT_OK
    assert len(analyses) == 1
    # the result keeps its one optimal analysis and builds no Estimator from it
    (opt,) = optimal
    an = analyses[0]
    assert an.optimal is opt
    assert range_checks == []
    rows = json.loads(out.read_text())["rows"]
    assert [r["relation_id"] for r in rows[:-1]] == [r.relation_id for r in an.reports]
    assert rows[-1]["relation_id"] == "uncanon"
    assert rows[-1]["lhs"] == 2 * 0.5 * opt.dispersions[0] * opt.dispersions[1]

    # the probabilities are the clipped w t of the one optimal analysis
    assert np.array_equal(opt.p, np.clip(opt.pom.weights * opt.t, 0.0, None))
    # estimate_stats, from its own analysis of X1, gives the analysis's dispersion
    x1 = fock.quadratures(opt.pom.dim)[0]
    assert estimate_stats(opt.estimates[0], x1, opt.rho).dispersion == opt.dispersions[0]
    # the (K, 3) projection and probabilities' own (K, 1) one differ only in roundoff
    assert np.abs(opt.p - probabilities(opt.pom, opt.rho)).max() <= 16 * np.spacing(opt.p.max())


def test_scenario_thermal_builds_its_state_once(tmp_path, monkeypatch):
    calls = []
    for module, name in ((scenarios, "_thermal_state"), (scenarios, "optimal_analysis"),
                         (estimation, "probabilities")):
        def spy(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    code = main(["scenario", "thermal", "--output", str(tmp_path / "thermal.json")])
    assert code == EXIT_OK
    assert sorted(calls) == ["_thermal_state", "optimal_analysis"]


def test_scenario_thermal_decomposes_h_once(tmp_path, monkeypatch):
    calls = {"eigh": [], "eigvalsh": [], "_cholesky_factor": []}
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (operators, "_cholesky_factor")):
        def spy(m, *args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name].append(np.array(m))
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    assert main(["scenario", "thermal", "--output", str(tmp_path / "thermal.json")]) == EXIT_OK
    h = fock.oscillator_hamiltonian(80).matrix  # the default fock_dim at beta 1

    def of_h(ms):
        return sum(m.shape == h.shape and np.array_equal(m, h) for m in ms)

    # H's kept eigensystem builds the state, its factor and the log-partition route
    assert of_h(calls["eigh"]) == 1 and of_h(calls["eigvalsh"]) == 0
    assert calls["_cholesky_factor"] == []
    # the other two: the position operator's eigh (its POM) and the state's validating eigvalsh
    assert len(calls["eigh"]) == 2 and len(calls["eigvalsh"]) == 1


@pytest.mark.parametrize("params", [
    {"hbar": 1e6, "numeric": False},  # closed-form roundoff: slack -1.2e-10
    {"hbar": 1e4, "sigma": 95, "tau": 95},  # a validated 72^2 grid: slack -6.2e-3
])
def test_epr_tolerances_scale_with_hbar(params, capsys):
    assert main(["scenario", "epr", "--params", json.dumps(params)]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["relation_id"] for r in rows] == ["ungen"] * len(rows)
    assert all(r["slack"] < 0 for r in rows)


@pytest.mark.parametrize("params", [
    {"hbar": 10, "sigma": 1, "tau": 10},
    {"hbar": 1e4, "sigma": 100, "tau": 100},
])
def test_epr_grid_where_momentum_dispersion_vanishes(params, capsys):
    # sigma tau = hbar makes the closed-form disp_p 0; the grid is still judged
    code = main(["scenario", "epr", "--params", json.dumps(params)])
    assert code in (EXIT_OK, EXIT_VALIDATION)
    assert "Traceback" not in capsys.readouterr().err


def test_epr_state_beyond_the_grid_is_a_validation_error(capsys):
    # every sampled amplitude underflows to 0 at a = 100 on the 512^2 grid
    assert main(["scenario", "epr", "--params", json.dumps({"a": 100, "points": 512})]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "beyond the grid's reach" in err


def test_linear_row_is_ungen_and_judged_on_its_slack(capsys):
    # eps_lin < eps_raw rounds to equality here; the row still has slack +0.5
    params = {"var_xprime": 1e-20, "var_pprime": 2.5e19}
    assert main(["scenario", "linear", "--params", json.dumps(params)]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["relation_id"] == "ungen"
    assert row["slack"] == pytest.approx(0.5)


def test_completeness_tolerance_is_applied(tmp_path, capsys):
    # one trine outcome's top entry moved by shift: sum_k M_k deviates from 1 by shift,
    # judged against pom.COMPLETENESS_TOL = 1e-8 in the row and the validation block
    for shift, code in ((5e-9, EXIT_OK), (2e-8, EXIT_VALIDATION)):
        descriptor = json.loads(Path(TRINE_FIXTURE).read_text())
        descriptor["outcomes"][0]["matrix"][0][0][0] += shift
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(descriptor))
        assert main(["validate", "--pom", str(path)]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["validation"]["completeness_deviation"] == pytest.approx(shift, rel=1e-6)
        assert doc["validation"]["completeness_tol"] == 1e-8
        assert doc["validation"]["positivity_tol"] == 1e-10
        assert doc["rows"][0]["tolerance"] == 1e-8
        assert doc["rows"][0]["passed"] is (code == EXIT_OK)
        assert "tolerances" not in doc


@pytest.mark.parametrize("name, value", [
    ("POMEST_COMPLETENESS_TOL", "nan"), ("POMEST_COMPLETENESS_TOL", "-1"), ("POMEST_POSITIVITY_TOL", "nan"),
    ("POMEST_POSITIVITY_TOL", "inf"), ("POMEST_COMPLETENESS_TOL", "abc"), ("POMEST_COMPLETENESS_TOL", "1e-20"),
])
def test_the_environment_sets_no_tolerance(name, value, monkeypatch, capsys):
    # the tolerances are pom.POSITIVITY_TOL and pom.COMPLETENESS_TOL; no variable is read, so none
    # is a config error, not even for a command that validates no POM
    argvs = (["relations", "--params", '{"instances": 3}'], ["validate", "--pom", TRINE_FIXTURE])
    expected = []
    for argv in argvs:
        assert main(argv) == EXIT_OK
        expected.append(capsys.readouterr())
    monkeypatch.setenv(name, value)
    for argv, before in zip(argvs, expected):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == before


@pytest.mark.parametrize("argv, named", [
    (["estimate", "--params", '{"state": {"mat": 1}}'], "'matrix'"),
    (["estimate", "--params", '{"pom": "random", "dim": 2.7}'], "dim must be an integer"),
    (["estimate", "--params", '{"pom": "random", "dim": 0}'], "dim must be positive"),
    (["estimate", "--params", '{"pom": "random", "dim": -2}'], "dim must be positive"),
    (["estimate", "--params", '{"pom": "random", "dim": 2, "outcomes": 0}'], "outcomes must be positive"),
    (["validate", "--params", '{"pom": "random", "outcomes": -1}'], "outcomes must be positive"),
    (["scenario", "heterodyne", "--params", '{"fock_dim": 40.5}'], "fock_dim must be an integer"),
    (["estimate", "--params", '{"pom": "coherent", "fock_dim": 6, '
                             '"grid": {"points_per_axis": 2.9, "radius": 3}}'],
     "points_per_axis must be an integer"),
    (["estimate", "--params", '{"mode": "measurement", "pom": "tetrahedral", "component": true}'],
     "component must be an integer from 0 to 2, not True"),
    (["estimate", "--params", '{"mode": "measurement", "pom": "tetrahedral", "component": 1.5}'],
     "component must be an integer from 0 to 2, not 1.5"),
    (["estimate", "--params", '{"mode": "measurement", "pom": "tetrahedral", "component": "1"}'],
     "component must be an integer from 0 to 2, not '1'"),
    (["estimate", "--params", '{"mode": "measurement", "pom": "tetrahedral", "component": 3}'],
     "component must be an integer from 0 to 2, not 3"),
    (["estimate", "--params", '{"mode": "measurement", "pom": "tetrahedral", "component": NaN}'],
     "component must be an integer from 0 to 2, not nan"),
    (["estimate", "--params", '{"mode": "measurement", "pom": "tetrahedral", "component": Infinity}'],
     "component must be an integer from 0 to 2, not inf"),
    (["scenario", "epr", "--params", "{not json"], "cannot parse --params"),
    (["estimate", "--params", '{"pom": "bogus"}'], "unknown POM name 'bogus'"),
    (["estimate", "--params", '{"state": "bogus"}'], "unknown state spec 'bogus'"),
    (["estimate", "--params", '{"mode": "bogus"}'], "unknown estimate mode 'bogus'"),
    (["estimate", "--params", '{"operator": []}'], "matrix must be a non-empty list of rows"),
    (["scenario", "linear", "--params", '{"var_xprime": 0, "var_pprime": 1}'],
     "a vanishing auxiliary variance requires a divergent conjugate"),
    (["scenario", "linear", "--params", '{"var_xprime": 1, "var_pprime": 1}'],
     "auxiliary variances must satisfy var_x' var_p' = hbar^2/4"),
], ids=["state-without-matrix", "fractional-dim", "zero-dim", "negative-dim", "zero-outcomes",
        "negative-outcomes", "fractional-fock-dim", "fractional-points",
        "boolean-component", "fractional-component", "text-component", "out-of-range-component",
        "nan-component", "infinite-component", "malformed-params", "unknown-pom", "unknown-state",
        "unknown-mode", "empty-operator", "vanishing-variance-finite-conjugate",
        "auxiliary-state-not-minimum-uncertainty"])
def test_missing_matrix_fractional_size_or_bad_tolerance_is_a_config_error_naming_it(
        argv, named, capsys):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_validate_row_covers_completeness_and_document_positivity(tmp_path, capsys):
    # complete (M_1 + M_2 = 1) but M_2 has eigenvalue -0.5
    def entry(label, diag):
        matrix = [[[diag[0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [diag[1], 0.0]]]
        return {"label": label, "matrix": matrix, "value": 0.0, "weight": 1.0}

    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"dim": 2, "outcomes": [entry("a", [1.5, 0.5]),
                                                       entry("b", [-0.5, 0.5])]}))
    assert main(["validate", "--pom", str(path)]) == EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["validation"]["min_eigenvalue"] == pytest.approx(-0.5)
    (row,) = doc["rows"]
    assert row["relation_id"] == "completeness"
    assert row["lhs"] == 0.0
    assert row["passed"] is True


def _pom_params(dim, **outcome):
    entry = {"label": "a", "value": 0.0, "weight": 1.0, "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                                                  [[0.0, 0.0], [1.0, 0.0]]]}
    entry.update(outcome)
    return json.dumps({"pom": {"dim": dim, "outcomes": [{k: v for k, v in entry.items() if v is not None}]}})


@pytest.mark.parametrize("params, named", [
    ('{"pom": "trine", "state": {"matrix": [[1.0, 0.0], [0.0, 0.0]]}}', "matrix entry [0][0]"),
    ('{"pom": "trine", "operator": [[[1, 0], [0, 0]], [[0, 0]]]}', "matrix row 1"),
    ('{"pom": {"dim": 2}}', "POM descriptor lacks 'outcomes'"),
    (_pom_params(2, value=None), "POM outcome 0 lacks 'value'"),
    (_pom_params(3), "POM outcome 0 matrix is 2x2, not dim x dim = 3x3"),
    (_pom_params(2, matrix=[[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
     "outcome 0 matrix deviates from Hermitian"),
    (_pom_params(2, matrix=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], "1"]]),
     "POM outcome 0 matrix entry [1][1]"),
    ('{"pom": "trine", "state": {"matrix": [[[1%s, 0], [0, 0]], [[0, 0], [0, 0]]]}}' % ("0" * 400),
     "matrix entry [0][0]"),
    ('{"pom": "trine", "state": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]}}', "matrix entry [1][1]"),
    ('{"pom": "trine", "operator": [[[1, 0], [0, Infinity]], [[0, 0], [1, 0]]]}', "matrix entry [0][1]"),
], ids=["state-entries", "ragged-operator", "no-outcomes", "no-value", "not-dim-by-dim", "not-hermitian",
        "pom-entry", "beyond-float-range", "nan-entry", "infinite-entry"])
def test_malformed_matrix_or_pom_json_is_a_config_error_naming_the_entry(params, named, capsys):
    assert main(["estimate", "--params", params]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert named in captured.err


@pytest.mark.parametrize("argv", [
    ["scenario", "linear"],
    ["scenario", "squeezing"],
    ["scenario", "thermal"],
    ["scenario", "epr", "--params", '{"numeric": false}'],
    ["validate", "--pom", TRINE_FIXTURE],
], ids=["linear", "squeezing", "thermal", "epr", "validate"])
def test_rows_share_one_schema_and_are_deterministic(argv, capsys):
    outputs = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    rows = json.loads(outputs[0])["rows"]
    _assert_row_schema(rows)
    if argv[:2] == ["scenario", "thermal"]:
        assert [r["relation_id"] for r in rows] == ["thermalgap"]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=10)


@given(_JSON_VALUES)
@example(-0.0)
@example([float("nan"), float("inf"), -float("inf")])  # derandomized draws hold no nan
@example(5e-324)
@example(1e16)
@example(2**70)
@example(np.float64(0.1))
@example([np.str_("é"), HTTPStatus.NOT_FOUND])  # subclasses of str and of int
@example({})
@example([])
@example("é中😀\x00\"\\")
@example({"a": {"b": {}}})
def test_dumps_writes_what_json_dumps_writes_sorted_with_a_two_space_indent(value):
    assert _dumps(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, {1: "a"}], ids=["set", "int-key"])
def test_dumps_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        _dumps(value, "\n")


@pytest.mark.parametrize("argv", [
    ["suite", "--seed", "0"],
    ["relations", "--params", '{"instances": 50}'],
    *(["scenario", name] for name in ("epr", "thermal", "heterodyne", "linear", "squeezing")),
    ["validate", "--pom", TRINE_FIXTURE],
    ["estimate"],
], ids=["suite", "relations", "epr", "thermal", "heterodyne", "linear", "squeezing", "validate",
        "estimate"])
def test_json_reports_are_sorted_with_a_two_space_indent_and_a_final_newline(argv, capsys):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
