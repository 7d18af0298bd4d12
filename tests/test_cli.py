import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from pomest import fock, relations
from pomest.cli import EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main
from pomest.estimation import estimate_stats, probabilities
from pomest.pom import pom_to_json, trine_pom


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
    assert rows[0] == ["scenario", "relation_id", "lhs", "rhs", "slack", "saturated", "tolerance"]
    assert len(rows) > 3


def test_estimate_command(tmp_path):
    out = tmp_path / "est.json"
    code = main(["estimate", "--params", '{"pom": "trine", "mode": "no-info"}',
                 "--output", str(out), "--seed", "3"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["estimator"]["values"]) == 3


def test_scenario_squeezing(tmp_path):
    out = tmp_path / "sq.json"
    code = main(["scenario", "squeezing", "--params", '{"var_x": 6.0, "var_p": 1.5}',
                 "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["squeezing"]["regime"] == "interior"


def test_unknown_scenario_is_config_error(tmp_path):
    code = main(["scenario", "epr", "--params", "{not json"])
    assert code == EXIT_CONFIG


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pomest.cli", "scenario", "linear"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["passed"] is True


def test_suite_runs_green(tmp_path):
    out = tmp_path / "suite.json"
    code = main(["suite", "--seed", "0", "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    scenarios_seen = {r["scenario"] for r in doc["rows"]}
    assert {"relations", "epr", "thermal", "heterodyne", "linear", "squeezing"} <= scenarios_seen


@pytest.mark.parametrize("params", [
    {"points_per_axis": 12},  # GridResolutionError: Cramer-Rao fails on the coarse grid
    {"radius": 2.0},  # CompletenessError: the grid does not cover the Fock space
])
def test_grid_failure_is_validation_error(params, capsys):
    code = main(["scenario", "heterodyne", "--params", json.dumps(params)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1


def test_bad_parameter_value_is_config_error(capsys):
    code = main(["scenario", "epr", "--params", '{"sigma": -1}'])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: sigma and tau must be positive\n"


def test_scenario_heterodyne_runs_one_analysis(tmp_path, monkeypatch):
    analyses = []
    original = relations.heterodyne_analysis

    def spy(*args, **kwargs):
        analyses.append(original(*args, **kwargs))
        return analyses[-1]

    monkeypatch.setattr(relations, "heterodyne_analysis", spy)
    out = tmp_path / "het.json"
    params = {"fock_dim": 16, "radius": 6.5, "points_per_axis": 101,
              "state": "coherent:0.6,-0.2", "hbar": 0.5}
    code = main(["scenario", "heterodyne", "--params", json.dumps(params), "--output", str(out)])
    assert code == EXIT_OK
    assert len(analyses) == 1
    an = analyses[0]
    rows = json.loads(out.read_text())["rows"]
    assert [r["relation_id"] for r in rows[:-1]] == [r.relation_id for r in an.reports]
    assert rows[-1]["relation_id"] == "uncanon"
    assert rows[-1]["lhs"] == 2 * 0.5 * an.disp[0] * an.disp[1]

    # the analysis hands its probabilities to estimate_stats: same statistics
    x1 = fock.quadratures(an.pom.dim)[0]
    given = estimate_stats(an.est_1, x1, an.rho, p=probabilities(an.pom, an.rho))
    assert given == estimate_stats(an.est_1, x1, an.rho)
    assert np.array_equal(an.p, probabilities(an.pom, an.rho))
