"""Batch front-end: scenario configs in, validation and relation reports out.

Usage:
    pomest {validate|estimate|relations|scenario|suite}
           [--params JSON|@file] [--output PATH] [--format json|csv] [--seed N]

Exit codes: 0 all checks passed, 1 a relation was violated, 2 a validation
failure, 3 a configuration error.  Reports are byte-identical for identical
(config, seed).  Every row is built by ``relations.report`` and written by
``RelationReport.to_json``, so slack = lhs - rhs on every row.  A JSON report is
written by ``_dumps``, byte for byte as ``json.dumps(doc, sort_keys=True, indent=2)``
writes it (sorted keys, a two-space indent, ASCII-escaped strings, ``NaN`` and
``Infinity``), and ends in a newline.  ``validate``
applies ``pom.POSITIVITY_TOL`` and ``pom.COMPLETENESS_TOL``.  A usage error (an
unknown command, scenario, option or format, or a ``--seed`` that is not a
non-negative integer) and a bad parameter (a size that is not an integer, among
others) exit 3 with one ``config error:`` line that names it; so does running
out of memory, as a size parameter too large for the host does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

from . import fock, relations, scenarios
from .estimation import (
    measurement_estimator,
    optimal_analysis,
    optimal_estimate,
    optimal_estimate_no_info,
)
from .operators import DensityOperator, HermitianOperator, matrix_from_json
from .pom import (COMPLETENESS_TOL, CompletenessError, GridSpec, coherent_pom, pom_from_json,
                  projective_pom, tetrahedral_pom, trine_pom, validate)
from .sampling import (GENERATOR_NAME, hermitian_part, make_rng, normalized_density,
                       pom_normal, random_density, random_hermitian, random_pom, whitened_pom)

EXIT_OK = 0
EXIT_RELATION = 1
EXIT_VALIDATION = 2
EXIT_CONFIG = 3

RELATION_IDS = ("geom", "accbound", "ungen", "varsum")

CSV_COLUMNS = ["scenario", "relation_id", "lhs", "rhs", "slack", "saturated", "tolerance",
               "pass_tolerance", "passed"]

# each scenario and the params `suite` runs it at; the parser admits these names only
SCENARIOS = {"epr": {}, "thermal": {"beta": 1.0},
             "heterodyne": {"points_per_axis": 120, "radius": 6.5, "fock_dim": 30},
             "linear": {}, "squeezing": {"var_x": 1.5, "var_p": 1.5}}


class ConfigError(ValueError):
    pass


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


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_ascii = json.encoder.encode_basestring_ascii


def _dumps(obj, pad: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` byte for byte when ``pad`` is "\\n", the
    newline and indent that start obj's line.  json runs its pure-Python encoder when ``indent``
    is set (Python 3.11), and that cost more than computing a ``relations`` report.  As in json,
    a subclass of str, int, float, list or dict is written as its base, a tuple as a list, and
    any other value raises TypeError; unlike json, so does a key that is not a str, which no
    report has."""
    t = type(obj)
    if t is float:
        return repr(obj) if obj - obj == 0.0 else _NONFINITE[repr(obj)]
    if t is int:
        return int.__repr__(obj)
    if t is str:
        return _ascii(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [f"{_ascii(k)}: {_dumps(v, inner)}" for k, v in sorted(obj.items())]
        return f"{{{inner}{f',{inner}'.join(items)}{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return f"[{inner}{f',{inner}'.join([_dumps(v, inner) for v in obj])}{pad}]"
    if isinstance(obj, str):
        return _ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(args: argparse.Namespace, rows: list, extras: dict, passed: bool):
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])
        payload = buf.getvalue()
    else:
        doc = {
            "command": args.command,
            "scenario": getattr(args, "scenario_name", None),
            "seed": args.seed,
            "generator": GENERATOR_NAME,
            "params": args.params,
            "passed": passed,
            "rows": rows,
            **extras,
        }
        payload = _dumps(doc, "\n") + "\n"
    if args.output:
        try:
            _atomic_write(args.output, payload)
        except OSError as exc:  # a directory, a missing parent, no permission: not a violated relation
            raise ConfigError(f"cannot write --output {args.output!r}: {exc.strerror or exc}") from exc
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
        return random_pom(_positive(params, "dim", 3, int), _positive(params, "outcomes", 4, int), rng)
    raise ConfigError(f"unknown POM name {name!r}")


def _cmd_validate(args: argparse.Namespace) -> tuple[list, dict, bool]:
    params = args.params
    if "pom_path" in params:
        try:
            with open(params["pom_path"], "r", encoding="utf-8") as fh:
                pom = pom_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load POM descriptor: {exc}") from exc
    else:
        pom = _named_pom(params, args.seed)
    checked = validate(pom)
    row = relations.report("completeness", checked.completeness_deviation, 0.0, COMPLETENESS_TOL,
                           COMPLETENESS_TOL)
    return [row.to_json("validate")], {"validation": checked.to_json()}, checked.passed


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


def _cmd_estimate(args: argparse.Namespace) -> tuple[list, dict, bool]:
    params, seed = args.params, args.seed
    pom = _named_pom(params, seed)
    if "operator" in params:
        op = HermitianOperator(matrix_from_json(params["operator"]))
    elif "quadrature" in params:
        j = _number(params, "quadrature", None, int)
        if j not in (1, 2):
            raise ConfigError(f"quadrature must be 1 or 2, not {j!r}")
        op = fock.quadratures(pom.dim)[j - 1]
    else:
        op = random_hermitian(pom.dim, make_rng(seed))
    mode = params.get("mode", "with-state")
    if mode == "no-info":
        est = optimal_estimate_no_info(op, pom)
    elif mode == "with-state":
        est = optimal_estimate(op, pom, _load_state(params, pom.dim, seed))
    elif mode == "measurement":
        raw = params.get("component")
        width = len(pom.values[0]) if isinstance(pom.values[0], tuple) else 0
        try:  # an integral number reads as an integer, as every integral parameter does
            component = None if raw is None else _number(params, "component", None, int)
        except ConfigError:
            component = -1  # not an integer: named below with the values allowed
        if component is not None and not 0 <= component < width:
            allowed = f"an integer from 0 to {width - 1}" if width else "omitted for scalar outcome values"
            raise ConfigError(f"component must be {allowed}, not {raw!r}")
        est = measurement_estimator(pom, component)
    else:
        raise ConfigError(f"unknown estimate mode {mode!r}")
    return [], {"estimator": est.to_json()}, True


def _relation_instances(params: dict, seed: int) -> list:
    """Randomized property batches for the finite-dimensional relations.  Every
    instance is drawn first, in a fixed order; the instances of each dimension
    are then built and checked as one stack, through one ``optimal_analysis``
    of the pair (A, B), and the rows come out in instance order."""
    which = params.get("relations", "all")
    if which == "all":
        which = RELATION_IDS
    elif not isinstance(which, list) or not which or any(r not in RELATION_IDS for r in which):
        raise ConfigError(f"relations must be \"all\" or a list from {list(RELATION_IDS)}, not {which!r}")
    instances = _positive(params, "instances", 100, int)
    dims = params.get("dims", [2, 3, 4, 5])
    if not isinstance(dims, list) or not dims or any(_number({"dims": d}, "dims", d, int) < 2 for d in dims):
        raise ConfigError(f"dims must be a non-empty list of integers >= 2, not {dims!r}")
    rng = make_rng(seed)
    groups = {}  # dim -> its instances: index, K, the K + 3 normals of POM, rho, A, B, ungen's perturbation
    for i in range(instances):
        dim = int(dims[rng.integers(len(dims))])
        n_out = int(rng.integers(2, 2 * dim + 2))
        groups.setdefault(dim, []).append((i, n_out, pom_normal(rng, n_out + 3, dim),
                                           rng.normal(size=n_out) if "ungen" in which else 0.0))
    rows = [None] * instances
    for dim, draws in groups.items():
        # zero outcomes pad each POM to 2 dim + 1, the most a draw has: whitened, each is M_k = 0,
        # of probability and value 0, and adds exact zeros to every sum
        g_pom = np.zeros((len(draws), 2 * dim + 1, dim, dim), complex)
        noise = np.zeros(g_pom.shape[:2])
        g_rho, g_a, g_b = np.empty((3, len(draws), dim, dim), complex)
        for n, (_, n_out, normals, perturbation) in enumerate(draws):
            g_pom[n, :n_out], noise[n, :n_out] = normals[:n_out], perturbation
            g_rho[n], g_a[n], g_b[n] = normals[n_out:]
        an = optimal_analysis((hermitian_part(g_a), hermitian_part(g_b)), whitened_pom(g_pom),
                              normalized_density(g_rho))
        f, g = an.values
        checks = {"geom": lambda: relations.check_geom(an),
                  "accbound": lambda: relations.check_accbound(an),
                  "ungen": lambda: relations.check_ungen(an, f + noise, g),
                  "varsum": lambda: relations.check_varsum(an)}
        reports = [checks[r]() for r in RELATION_IDS if r in which]
        for (i, n_out, *_), reps in zip(draws, zip(*reports)):
            for rep in reps:
                rep.inputs_digest.update(instance=i, dim=dim, outcomes=n_out)
            rows[i] = [rep.to_json("relations") for rep in reps]
    return [row for instance in rows for row in instance]


def _cmd_relations(args: argparse.Namespace) -> tuple[list, dict, bool]:
    rows = _relation_instances(args.params, args.seed)
    return rows, {}, all(r["passed"] for r in rows)


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
            shared = {"points": num.points, "rel_err_disp_x": num.rel_err_disp_x,
                      "rel_err_disp_p": num.rel_err_disp_p, "rel_err_eps_p": num.rel_err_eps_p}
            digest = {"route": "grid", "spacing": num.spacing, "points_per_sigma": num.points_per_sigma,
                      **shared}
            rows.append(relations.report(
                "ungen", num.numeric.ungen_lhs, num.numeric.ungen_rhs, tol, tol, digest).to_json("epr"))
            extras["numeric"] = {"disp_x": num.numeric.disp_x, "disp_p": num.numeric.disp_p,
                                 "eps_p": num.numeric.eps_p, **shared}
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
    # squeezing, the last name of SCENARIOS, the only names the parser admits
    hbar = _positive(params, "hbar", 1.0)
    rep = scenarios.optimize_squeezing(
        _positive(params, "var_x", 0.5), _positive(params, "var_p", 0.5), hbar)
    row = relations.report("ungen", rep.j_min, hbar / 2, 1e-9, 1e-9)
    return [row.to_json("squeezing")], {"squeezing": rep.__dict__.copy()}


def _cmd_scenario(args: argparse.Namespace) -> tuple[list, dict, bool]:
    rows, extras = _scenario_rows(args.scenario_name, args.params, args.seed)
    return rows, extras, all(r["passed"] for r in rows)


def _cmd_suite(args: argparse.Namespace) -> tuple[list, dict, bool]:
    rows = _relation_instances({"instances": 50}, args.seed)
    extras = {}
    for name, params in SCENARIOS.items():
        srows, sextras = _scenario_rows(name, params, args.seed)
        rows.extend(srows)
        extras.update({f"{name}_{k}": v for k, v in sextras.items()})
    return rows, extras, all(r["passed"] for r in rows)


COMMANDS = {"validate": _cmd_validate, "estimate": _cmd_estimate, "relations": _cmd_relations,
            "scenario": _cmd_scenario, "suite": _cmd_suite}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3, not argparse's 2, which is the validation-failure code
        raise ConfigError(message)


def _seed(raw: str) -> int:
    """``--seed``: a non-negative integer, as numpy's generator requires."""
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {raw!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pomest", description="POM estimation and uncertainty-relation reports")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "scenario":
            p.add_argument("scenario_name", choices=SCENARIOS)
        if name == "validate":
            p.add_argument("--pom", help="path to a POM descriptor JSON")
        p.add_argument("--params", help="inline JSON or @file")
        p.add_argument("--output", help="report file path (stdout if omitted)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.params = _load_params(args.params)
        if getattr(args, "pom", None):
            args.params["pom_path"] = args.pom
        rows, extras, passed = COMMANDS[args.command](args)
        _emit(args, rows, extras, passed)
        if passed:
            return EXIT_OK
        return EXIT_VALIDATION if args.command == "validate" else EXIT_RELATION
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
