"""Batch front-end: scenario configs in, validation and relation reports out.

Usage:
    pomest {validate|estimate|relations|scenario|suite}
           [--params JSON|@file] [--output PATH] [--format json|csv] [--seed N]

Exit codes: 0 all checks passed, 1 a relation was violated, 2 a validation
failure, 3 a configuration error.  Reports are byte-identical for identical
(config, seed).  Every row is built by ``relations.report`` and written by
``RelationReport.to_json``, so slack = lhs - rhs on every row.  The two
tolerances ``validate`` applies can be overridden through the environment
variables POMEST_POSITIVITY_TOL and POMEST_COMPLETENESS_TOL, each a finite
number >= 0.  A bad variable or parameter (a size that is not an integer,
among others) exits 3 with one ``config error:`` line that names it; so does
running out of memory, as a size parameter too large for the host does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import fock, relations, scenarios
from .estimation import (
    measurement_estimator,
    optimal_analysis,
    optimal_estimate,
    optimal_estimate_no_info,
)
from .operators import DensityOperator, HermitianOperator, matrix_from_json
from .pom import (CompletenessError, GridSpec, coherent_pom, pom_from_json, projective_pom,
                  tetrahedral_pom, trine_pom, validate)
from .sampling import (GENERATOR_NAME, complex_normal, hermitian_part, make_rng, normalized_density,
                       pom_normal, random_density, random_hermitian, random_pom, whitened_pom)

EXIT_OK = 0
EXIT_RELATION = 1
EXIT_VALIDATION = 2
EXIT_CONFIG = 3

RELATION_IDS = ("geom", "accbound", "ungen", "varsum")

CSV_COLUMNS = ["scenario", "relation_id", "lhs", "rhs", "slack", "saturated", "tolerance",
               "pass_tolerance", "passed"]

ENV_PREFIX = "POMEST_"
ENV_TOLERANCES = {
    "POSITIVITY_TOL": 1e-10,
    "COMPLETENESS_TOL": 1e-8,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    scenario_name: str | None = None
    params: dict = field(default_factory=dict)
    output_format: str = "json"
    output_path: str | None = None
    seed: int = 0
    tolerances: dict = field(default_factory=dict)


def _env_tolerances() -> dict:
    """The tolerances ``validate`` applies, each a finite number >= 0; a ConfigError names the variable."""
    tols = {}
    for key, default in ENV_TOLERANCES.items():
        name = ENV_PREFIX + key
        raw = os.environ.get(name, default)
        try:  # environment values are strings; one that is not a number stays one, for _number to name
            raw = float(raw)
        except ValueError:
            pass
        value = _number({name: raw}, name, default)
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, not {value!r}")
        tols[key.lower()] = value
    return tols


def _number(params, key: str, default, kind=float, finite=True):
    """A number from params (a JSON number, not a string or a boolean), finite unless ``finite``
    is False and integral if ``kind`` is int; a ConfigError names the key."""
    raw = params.get(key, default)
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise TypeError
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, not {raw!r}") from None
    if finite and not abs(value) < np.inf:  # nan or inf; exact for an integer of any size
        raise ConfigError(f"{key} must be finite, not {value!r}")
    if kind is int and value != raw:  # int() would truncate 2.7 to 2
        raise ConfigError(f"{key} must be an integer, not {raw!r}")
    return value


def _positive(params: dict, key: str, default, kind=float):
    """A finite positive number from params; a ConfigError names the key."""
    value = _number(params, key, default, kind)
    if value <= 0:
        raise ConfigError(f"{key} must be positive")
    return value


def _load_params(raw: str | None) -> dict:
    if not raw:
        return {}
    try:
        if raw.startswith("@"):
            with open(raw[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        params = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse --params: {exc}") from exc
    if not isinstance(params, dict):
        raise ConfigError(f"--params must be a JSON object, not {type(params).__name__}")
    return params


def _atomic_write(path: str, payload: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pomest-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, rows: list, extras: dict, passed: bool):
    if config.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])
        payload = buf.getvalue()
    else:
        doc = {
            "command": config.command,
            "scenario": config.scenario_name,
            "seed": config.seed,
            "generator": GENERATOR_NAME,
            "params": config.params,
            "passed": passed,
            "rows": rows,
            **extras,
        }
        payload = json.dumps(doc, sort_keys=True, indent=2, check_circular=False) + "\n"
    if config.output_path:
        try:
            _atomic_write(config.output_path, payload)
        except OSError as exc:  # a directory, a missing parent, no permission: not a violated relation
            raise ConfigError(f"cannot write --output {config.output_path!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(payload)


def _named_pom(params: dict, seed: int):
    name = params.get("pom", "trine")
    if isinstance(name, dict):
        return pom_from_json(name)
    if name == "trine":
        return trine_pom()
    if name == "tetrahedral":
        return tetrahedral_pom()
    if name == "coherent":
        spec = params.get("grid", {})
        if not isinstance(spec, dict):
            raise ConfigError(f"grid must be an object, not {spec!r}")
        center = spec.get("center", [0.0, 0.0])
        if not isinstance(center, list) or len(center) != 2:
            raise ConfigError(f"center must be an [re, im] pair of finite numbers, not {center!r}")
        grid = GridSpec(complex(*(_number({"center": x}, "center", 0.0) for x in center)),
                        _number(spec, "radius", 6.0), _number(spec, "points_per_axis", 81, int))
        return coherent_pom(_positive(params, "fock_dim", 30, int), grid)
    if name == "random":
        rng = make_rng(seed)
        return random_pom(_number(params, "dim", 3, int), _number(params, "outcomes", 4, int), rng)
    raise ConfigError(f"unknown POM name {name!r}")


def _cmd_validate(config: RunConfig) -> int:
    params = config.params
    if "pom_path" in params:
        try:
            with open(params["pom_path"], "r", encoding="utf-8") as fh:
                pom = pom_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load POM descriptor: {exc}") from exc
    else:
        pom = _named_pom(params, config.seed)
    tol = config.tolerances["completeness_tol"]
    checked = validate(pom, config.tolerances["positivity_tol"], tol)
    row = relations.report("completeness", checked.completeness_deviation, 0.0, tol, tol)
    _emit(config, [row.to_json("validate")], {"validation": checked.to_json()}, checked.passed)
    return EXIT_OK if checked.passed else EXIT_VALIDATION


def _load_state(params: dict, dim: int, seed: int) -> DensityOperator:
    state = params.get("state", "maximally-mixed")
    if isinstance(state, dict):
        if "matrix" not in state:
            raise ConfigError("state object lacks 'matrix'")
        return DensityOperator(matrix_from_json(state["matrix"]))
    if state == "maximally-mixed":
        return DensityOperator.maximally_mixed(dim)
    if state == "random":
        return random_density(dim, make_rng(seed + 1))
    if state == "vacuum":
        return fock.vacuum_ket(dim).to_density()
    if isinstance(state, str) and state.startswith("coherent:"):
        try:
            x, y = map(float, state.split(":", 1)[1].split(","))
        except ValueError:
            x = y = np.nan
        if not (abs(x) < np.inf and abs(y) < np.inf):
            raise ConfigError(f"state must be coherent:re,im with finite re and im, not {state!r}")
        return fock.coherent_ket(dim, complex(x, y)).to_density()
    raise ConfigError(f"unknown state spec {state!r}")


def _cmd_estimate(config: RunConfig) -> int:
    params = config.params
    pom = _named_pom(params, config.seed)
    if "operator" in params:
        op = HermitianOperator(matrix_from_json(params["operator"]))
    elif "quadrature" in params:
        j = _number(params, "quadrature", None, int)
        if j not in (1, 2):
            raise ConfigError(f"quadrature must be 1 or 2, not {j!r}")
        op = fock.quadratures(pom.dim)[j - 1]
    else:
        op = random_hermitian(pom.dim, make_rng(config.seed))
    mode = params.get("mode", "with-state")
    if mode == "no-info":
        est = optimal_estimate_no_info(op, pom)
    elif mode == "with-state":
        est = optimal_estimate(op, pom, _load_state(params, pom.dim, config.seed))
    elif mode == "measurement":
        component = params.get("component")
        width = len(pom.values[0]) if isinstance(pom.values[0], tuple) else 0
        if component is not None and not (type(component) is int and 0 <= component < width):
            allowed = f"an integer from 0 to {width - 1}" if width else "omitted for scalar outcome values"
            raise ConfigError(f"component must be {allowed}, not {component!r}")
        est = measurement_estimator(pom, component)
    else:
        raise ConfigError(f"unknown estimate mode {mode!r}")
    _emit(config, [], {"estimator": est.to_json()}, True)
    return EXIT_OK


def _relation_instances(config: RunConfig) -> list:
    """Randomized property batches for the finite-dimensional relations.  Every
    instance is drawn first, in a fixed order; the instances of each (dim, K)
    are then built and checked as one stack, through one ``optimal_analysis``
    of the pair (A, B), and the rows come out in instance order."""
    params = config.params
    which = params.get("relations", "all")
    if which == "all":
        which = RELATION_IDS
    elif not isinstance(which, list) or not which or any(r not in RELATION_IDS for r in which):
        raise ConfigError(f"relations must be \"all\" or a list from {list(RELATION_IDS)}, not {which!r}")
    instances = params.get("instances", 100)
    if not isinstance(instances, int) or isinstance(instances, bool) or instances < 1:
        raise ConfigError(f"instances must be a positive integer, not {instances!r}")
    dims = params.get("dims", [2, 3, 4, 5])
    if not isinstance(dims, list) or not dims or any(type(d) is not int or d < 2 for d in dims):
        raise ConfigError(f"dims must be a non-empty list of integers >= 2, not {dims!r}")
    rng = make_rng(config.seed)
    groups = {}  # (dim, K) -> the draws of its instances: index, POM, rho, A, B, ungen's perturbation
    for i in range(instances):
        dim = dims[rng.integers(len(dims))]
        n_out = int(rng.integers(2, 2 * dim + 2))
        draws = (i, pom_normal(rng, n_out, dim), *(complex_normal(rng, dim, dim) for _ in range(3)),
                 rng.normal(size=n_out) if "ungen" in which else 0.0)
        groups.setdefault((dim, n_out), []).append(draws)
    rows = [None] * instances
    for (dim, n_out), draws in groups.items():
        index, *stacks = zip(*draws)
        g_pom, g_rho, g_a, g_b, noise = map(np.stack, stacks)
        an = optimal_analysis((hermitian_part(g_a), hermitian_part(g_b)), whitened_pom(g_pom),
                              normalized_density(g_rho))
        f, g = an.values
        checks = {"geom": lambda: relations.check_geom(an),
                  "accbound": lambda: relations.check_accbound(an),
                  "ungen": lambda: relations.check_ungen(an, f + noise, g),
                  "varsum": lambda: relations.check_varsum(an)}
        reports = [checks[r]() for r in RELATION_IDS if r in which]
        for i, reps in zip(index, zip(*reports)):
            for rep in reps:
                rep.inputs_digest.update(instance=i, dim=dim, outcomes=n_out)
            rows[i] = [rep.to_json("relations") for rep in reps]
    return [row for instance in rows for row in instance]


def _cmd_relations(config: RunConfig) -> int:
    rows = _relation_instances(config)
    passed = all(r["passed"] for r in rows)
    _emit(config, rows, {}, passed)
    return EXIT_OK if passed else EXIT_RELATION


def _scenario_rows(name: str, params: dict, seed: int) -> tuple[list, dict]:
    if name == "epr":
        p = scenarios.EprParams(**{f.name: _number(params, f.name, f.default)
                                   for f in fields(scenarios.EprParams)})
        closed = scenarios.epr_closed_form(p)
        # the closed form saturates the bound; its roundoff grows with hbar
        tol = 1e-12 * max(1.0, p.hbar / 2)
        rows = [relations.report("ungen", closed.ungen_lhs, closed.ungen_rhs, tol, tol,
                                 {"route": "closed-form"}).to_json("epr")]
        extras = {"closed_form": closed.__dict__.copy()}
        if params.get("numeric", True):
            pts = _number(params, "points", 0, int)
            if pts < 0:
                raise ConfigError(f"points must be 0 (the recommended grid) or positive, not {pts}")
            pts = pts or scenarios.recommended_epr_points(p)[0]
            # raises GridResolutionError unless disp_x and eps_p are within 1e-3
            # relative, which bounds lhs below by hbar/2 - 1e-3 hbar
            num = scenarios.epr_numeric(p, pts)
            tol = 1e-3 * max(1.0, p.hbar)
            # the grid's own diagnostics, so that the row says how well it resolved the state
            digest = {"route": "grid", "points": num.points, "spacing": num.spacing,
                      "points_per_sigma": num.points_per_sigma, "rel_err_disp_x": num.rel_err_disp_x,
                      "rel_err_disp_p": num.rel_err_disp_p, "rel_err_eps_p": num.rel_err_eps_p}
            rows.append(relations.report(
                "ungen", num.numeric.ungen_lhs, num.numeric.ungen_rhs, tol, tol, digest).to_json("epr"))
            extras["numeric"] = {
                "disp_x": num.numeric.disp_x, "disp_p": num.numeric.disp_p,
                "eps_p": num.numeric.eps_p, "points": num.points,
                "rel_err_disp_x": num.rel_err_disp_x, "rel_err_disp_p": num.rel_err_disp_p,
                "rel_err_eps_p": num.rel_err_eps_p,
            }
        return rows, extras
    if name == "thermal":
        beta = _positive(params, "beta", 1.0)
        # measured: at 50/beta Fock levels the gap is 5e-11 to 9e-11 for beta 0.07-0.5
        dim = _positive(params, "fock_dim", max(80, int(50 / beta)), int)
        h = fock.oscillator_hamiltonian(dim)
        pom = projective_pom(fock.position_operator(dim))
        est = scenarios.thermal_energy_estimate(h, pom, beta)
        at = 0.5 / np.tanh(beta)
        bt = 0.5 / np.cosh(beta / 2) ** 2
        xs = pom.values_array()
        keep = est.analysis.p > 1e-12
        gap = float(np.abs(est.values[keep] - (at + bt * xs[keep] ** 2)).max())
        rep = relations.report("thermalgap", gap, 0.0, 1e-6, 1e-6,
                               {"route": "thermal-closed-form-gap", "beta": beta, "fock_dim": dim})
        return [rep.to_json("thermal")], {"beta": beta, "closed_form": {"a_t": at, "b_t": bt}}
    if name == "heterodyne":
        dim, hbar = _positive(params, "fock_dim", 40, int), _positive(params, "hbar", 1.0)
        grid = GridSpec(0j, _number(params, "radius", 7.0),
                        _number(params, "points_per_axis", 112, int))
        pom = coherent_pom(dim, grid)
        state = params.get("state", "vacuum")
        rho = _load_state({"state": state}, dim, seed)
        analysis = relations.heterodyne_analysis(rho, pom)
        uncanon = relations.check_uncanon(analysis, hbar)
        return [r.to_json("heterodyne") for r in analysis.reports + [uncanon]], {}
    if name == "linear":
        defaults = {"mean_x": 0.0, "var_x": 1.0, "mean_p": 0.0, "var_p": 1.0,
                    "var_xprime": 0.5, "var_pprime": 0.5, "hbar": 1.0}
        # the auxiliary variances may be 0 and inf, the squeezing endpoint
        inputs = scenarios.LinearEstimateInputs(**{
            key: _positive(params, key, d) if key in ("var_x", "var_p", "hbar")
            else _number(params, key, d, finite=not key.endswith("prime")) for key, d in defaults.items()})
        rep = scenarios.linear_estimate(inputs)
        # the joint cost of biased, prior-informed estimates: the universal relation
        row = relations.report("ungen", rep.joint_cost, inputs.hbar / 2, 1e-9, 1e-9)
        return [row.to_json("linear")], {"linear": {"x": rep.x.__dict__, "p": rep.p.__dict__}}
    if name == "squeezing":
        hbar = _positive(params, "hbar", 1.0)
        rep = scenarios.optimize_squeezing(
            _positive(params, "var_x", 0.5), _positive(params, "var_p", 0.5), hbar)
        row = relations.report("ungen", rep.j_min, hbar / 2, 1e-9, 1e-9)
        return [row.to_json("squeezing")], {"squeezing": rep.__dict__.copy()}
    raise ConfigError(f"unknown scenario {name!r}")


def _cmd_scenario(config: RunConfig) -> int:
    rows, extras = _scenario_rows(config.scenario_name, config.params, config.seed)
    passed = all(r["passed"] for r in rows)
    _emit(config, rows, extras, passed)
    return EXIT_OK if passed else EXIT_RELATION


def _cmd_suite(config: RunConfig) -> int:
    rows = _relation_instances(RunConfig("relations", params={"instances": 50},
                                         seed=config.seed, tolerances=config.tolerances))
    extras = {}
    for name, params in (
        ("epr", {"points": 2048}),
        ("thermal", {"beta": 1.0}),
        ("heterodyne", {"points_per_axis": 120, "radius": 6.5, "fock_dim": 30}),
        ("linear", {}),
        ("squeezing", {"var_x": 1.5, "var_p": 1.5}),
    ):
        srows, sextras = _scenario_rows(name, params, config.seed)
        rows.extend(srows)
        extras.update({f"{name}_{k}": v for k, v in sextras.items()})
    passed = all(r["passed"] for r in rows)
    _emit(config, rows, extras, passed)
    return EXIT_OK if passed else EXIT_RELATION


def run(config: RunConfig) -> int:
    """Execute one batch command; returns the process exit code."""
    handlers = {
        "validate": _cmd_validate,
        "estimate": _cmd_estimate,
        "relations": _cmd_relations,
        "scenario": _cmd_scenario,
        "suite": _cmd_suite,
    }
    if config.command not in handlers:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.command == "scenario" and not config.scenario_name:
        raise ConfigError("scenario requires a scenario name")
    if config.output_format not in ("json", "csv"):
        raise ConfigError(f"unknown output format {config.output_format!r}")
    return handlers[config.command](config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pomest",
                                     description="POM estimation and uncertainty-relation reports")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "estimate", "relations", "scenario", "suite"):
        p = sub.add_parser(name)
        if name == "scenario":
            p.add_argument("scenario_name",
                           choices=["epr", "thermal", "heterodyne", "linear", "squeezing"])
        if name == "validate":
            p.add_argument("--pom", help="path to a POM descriptor JSON")
        p.add_argument("--params", help="inline JSON or @file")
        p.add_argument("--output", help="report file path (stdout if omitted)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        params = _load_params(args.params)
        if getattr(args, "pom", None):
            params["pom_path"] = args.pom
        config = RunConfig(
            command=args.command,
            scenario_name=getattr(args, "scenario_name", None),
            params=params,
            output_format=args.format,
            output_path=args.output,
            seed=args.seed,
            tolerances=_env_tolerances(),
        )
        return run(config)
    # CompletenessError is a ValueError: the validation failures go first
    except (relations.GridResolutionError, CompletenessError, scenarios.ScenarioError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # ConfigError and invalid parameter values
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size parameter too large for this host
        print(f"config error: out of memory: {str(exc) or 'no detail'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
