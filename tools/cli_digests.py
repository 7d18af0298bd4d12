"""Byte digests of a fixed matrix of ``pomest`` commands: did any report change?

Usage (from anywhere, no flags):

    python tools/cli_digests.py

Runs each command of ``COMMANDS`` as ``python -m pomest.cli ...`` in a fresh
subprocess, from the repository root, with ``src`` first on ``PYTHONPATH``
and ``OPENBLAS_NUM_THREADS=1``, and prints one line per command:

    <exit code> <sha256 of stdout> <sha256 of stderr> <argv>

Diff the output at two checkouts to see which reports a change moved.  The
matrix covers every command and scenario, a CSV report of each kind, a
validation failure (exit 2) and two config errors (exit 3).  Only the
standard library is needed to run it; the commands need numpy.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = [
    ["relations", "--params", '{"instances": 1000}', "--seed", "0"],
    ["relations", "--params", '{"instances": 7, "relations": ["geom"]}', "--format", "csv"],
    ["suite", "--seed", "0"],
    ["suite", "--seed", "3", "--format", "csv"],
    ["scenario", "heterodyne"],
    ["scenario", "heterodyne", "--params", '{"state": "coherent:0.8,-0.5"}'],
    ["scenario", "heterodyne", "--params", '{"state": "maximally-mixed"}'],
    # a grid of fewer kets than one row chunk, and an odd grid with a remainder chunk
    ["scenario", "heterodyne", "--params", '{"fock_dim": 12, "points_per_axis": 31, "radius": 5}'],
    ["scenario", "heterodyne", "--params", '{"points_per_axis": 161}'],
    ["scenario", "epr"],
    ["scenario", "epr", "--params", '{"sigma": 0.3, "tau": 0.2, "a": 0.4, "p0": 1.3, "hbar": 2.0}'],
    ["scenario", "epr", "--params", '{"numeric": false}'],
    ["scenario", "thermal"],
    ["scenario", "thermal", "--params", '{"beta": 0.3}'],
    ["scenario", "linear"],
    ["scenario", "linear", "--params",
     '{"var_x": 2.0, "var_p": 0.3, "var_xprime": 0.25, "var_pprime": 1.0}'],
    ["scenario", "linear", "--params", '{"var_xprime": 0, "var_pprime": 1e400}'],
    ["scenario", "squeezing"],
    ["scenario", "squeezing", "--params", '{"var_x": 3.0, "var_p": 0.2, "hbar": 0.5}'],
    ["scenario", "squeezing", "--params", '{"var_x": 0.1, "var_p": 0.1}'],
    ["validate", "--pom", "fixtures/trine.json"],
    ["validate", "--params", '{"pom": "coherent", "fock_dim": 10}'],
    ["estimate"],
    ["estimate", "--params", '{"mode": "no-info", "pom": "tetrahedral"}'],
    ["estimate", "--params", '{"mode": "measurement", "pom": "tetrahedral", "component": 1}'],
    ["estimate", "--params", '{"pom": "random", "state": "random"}', "--seed", "4"],
    ["relations", "--params", '{"instances": 0}'],
    ["scenario", "thermal", "--params", '{"beta": 0}'],
]


def main() -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "pomest.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True)
        out, err = (hashlib.sha256(stream).hexdigest() for stream in (proc.stdout, proc.stderr))
        print(proc.returncode, out, err, shlex.join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
