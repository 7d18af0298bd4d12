"""The benchmark's workloads: seeded inputs, one op each, and the op's checks.

An op drives pomest the way a user does: the CLI entry point
``pomest.cli.main`` in-process, writing its report to a file, or the public
library functions.  ``op`` is the timed part; ``verify`` runs afterwards,
untimed and untraced, and returns the bytes the determinism check compares
plus a list of failed checks (empty when the op is correct).

Every input comes from the workload seed; pomest itself sees only the
generated parameters.  Names are looked up through the pomest modules at call
time, so the tracer's wrappers are reached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pomest
import pomest.cli

GRID_TOL = 1e-3  # saturation tolerance of the grid-quadrature relations
IDENTITY_TOL = 1e-9  # exact identities on a complete (renormalized) POM
RELATIONS_INSTANCES = 250
IMAGEBAND_DIM = 20
IMAGEBAND_GRID = pomest.GridSpec(0j, 6.0, 41)


@dataclass(frozen=True)
class Workload:
    name: str
    op_size: str
    make_input: Callable  # (rng, index) -> input
    op: Callable  # (input, report_path) -> result
    verify: Callable  # (input, result) -> (payload bytes, failures)
    reference: str = "cpu"  # the ReferenceKernel kind whose speed the op's time follows


def _cli(argv: list, path: str):
    code = pomest.cli.main(argv + ["--output", path])
    with open(path, "rb") as fh:
        return code, fh.read()


def _report_failures(code: int, payload: bytes) -> tuple[dict, list]:
    doc = json.loads(payload)
    failures = [] if code == 0 else [f"exit code {code}"]
    failures += [f"row {i} ({row['relation_id']}) failed"
                 for i, row in enumerate(doc["rows"]) if not row["passed"]]
    return doc, failures


# --- heterodyne: `pomest scenario heterodyne` at the CLI default grid


def _heterodyne_input(rng, index):
    # input 0 is the vacuum; the rest are coherent states with |beta| <= 1.5
    r = 0.0 if index == 0 else 1.5 * np.sqrt(rng.uniform())
    beta = r * np.exp(2j * np.pi * rng.uniform())
    return {"state": f"coherent:{beta.real:.4f},{beta.imag:.4f}"}


def _heterodyne_op(params, path):
    return _cli(["scenario", "heterodyne", "--params", json.dumps(params)], path)


def _heterodyne_verify(params, result):
    code, payload = result
    doc, failures = _report_failures(code, payload)
    for row in doc["rows"]:
        # pure states saturate both relations at the grid tolerance
        if row["relation_id"] in ("unbest", "accbest") and abs(row["lhs"] - row["rhs"]) >= GRID_TOL:
            failures.append(f"{row['relation_id']} not saturated: lhs {row['lhs']!r} rhs {row['rhs']!r}")
    if not any(row["relation_id"] == "uncanon" for row in doc["rows"]):
        failures.append("uncanon row missing")
    return payload, failures


# --- relations: `pomest relations` batches over dims 2-5


def _relations_input(rng, index):
    return int(rng.integers(0, 2**31))


def _relations_op(seed, path):
    params = json.dumps({"instances": RELATIONS_INSTANCES})
    return _cli(["relations", "--params", params, "--seed", str(seed)], path)


def _relations_verify(seed, result):
    code, payload = result
    doc, failures = _report_failures(code, payload)
    if len(doc["rows"]) != 4 * RELATIONS_INSTANCES:
        failures.append(f"{len(doc['rows'])} rows for {RELATIONS_INSTANCES} instances")
    return payload, failures


# --- imageband: library imageband_pom, rank-1 and mixed, pure and thermal probes


@dataclass(frozen=True)
class ImagebandInput:
    rank1: object  # pure imageband: kets path
    mixed: object  # rank-2 imageband: operator path
    probes: tuple  # (pure coherent state, thermal state)
    quadratures: tuple


def _imageband_input(rng, index):
    dim = IMAGEBAND_DIM
    beta = 1.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return ImagebandInput(
        rank1=pomest.sampling.random_pure_ket(3, rng).to_density(),
        mixed=pomest.sampling.random_density(3, rng, rank=2),
        probes=(pomest.fock.coherent_ket(dim, beta).to_density(),
                pomest.fock.thermal_state(dim, rng.uniform(0.2, 1.0))),
        quadratures=pomest.fock.quadratures(dim),
    )


def _imageband_op(inp, path):
    results = []
    for imageband in (inp.rank1, inp.mixed):
        pom = pomest.pom.imageband_pom(IMAGEBAND_DIM, IMAGEBAND_GRID, imageband)
        for rho in inp.probes:
            for a in inp.quadratures:
                est = pomest.estimation.optimal_estimate(a, pom, rho)
                results.append((pom, rho, a, est, pomest.estimation.estimate_stats(est, a, rho)))
    return results


def _imageband_verify(inp, results):
    failures = []
    poms = {id(r[0]): r[0] for r in results}.values()
    if [pom.kets is not None for pom in poms] != [True, False]:
        failures.append("imagebands did not take the kets path and then the operator path")
    for pom in poms:
        report = pomest.pom.validate(pom)
        if not report.passed:
            failures.append(f"validate failed: {report.to_json()}")
    payload = []
    for pom, rho, a, est, stats in results:
        total = float(pomest.estimation.probabilities(pom, rho).sum())
        gaps = {
            "sum p - 1": total - 1.0,
            "mean - tr[rho A]": stats.mean - a.expectation(rho),
            "disp^2 + eps^2 - Var A": stats.dispersion**2 + stats.inaccuracy**2 - a.variance(rho),
        }
        failures += [f"{name} = {gap:.3e}" for name, gap in gaps.items() if not abs(gap) <= IDENTITY_TOL]
        payload += [est.values.tobytes(),
                    np.array([stats.mean, stats.dispersion, stats.inaccuracy]).tobytes()]
    return b"".join(payload), failures


# --- epr: `pomest scenario epr` at sigma = tau = 0.1 (the recommended 4608^2 grid)


def _epr_input(rng, index):
    return {"sigma": 0.1, "tau": 0.1,
            "a": round(float(rng.uniform(-0.5, 0.5)), 4),
            "p0": round(float(rng.uniform(0.0, 2.0)), 4)}


def _epr_op(params, path):
    return _cli(["scenario", "epr", "--params", json.dumps(params)], path)


def _epr_verify(params, result):
    code, payload = result
    doc, failures = _report_failures(code, payload)
    if [row["relation_id"] for row in doc["rows"]] != ["ungen", "ungen"]:
        failures.append("expected a closed-form and a grid ungen row")
    numeric = doc.get("numeric", {})
    errors = [numeric.get(k, np.inf) for k in ("rel_err_disp_x", "rel_err_disp_p", "rel_err_eps_p")]
    if not max(errors) <= GRID_TOL:
        failures.append(f"grid errors against the closed form {errors}")
    return payload, failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("heterodyne", "scenario heterodyne: Fock dim 40, 160^2 grid, radius 7",
                 _heterodyne_input, _heterodyne_op, _heterodyne_verify),
        Workload("relations", f"relations: {RELATIONS_INSTANCES} instances, dims 2-5, 4 relations",
                 _relations_input, _relations_op, _relations_verify),
        Workload("imageband", "imageband_pom dim 20, 41^2 grid, rank-1 + rank-2 imageband, "
                 "X1/X2 estimates on a pure and a thermal probe",
                 _imageband_input, _imageband_op, _imageband_verify),
        Workload("epr", "scenario epr: sigma = tau = 0.1, 4608^2 grid",
                 _epr_input, _epr_op, _epr_verify, reference="fft"),
    )
}


def make_inputs(workload: str, seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [WORKLOADS[workload].make_input(rng, i) for i in range(count)]
