"""Executed-line census of ``src/pomest``: which executable lines do Tier-1 and the demos never run?

Usage (from anywhere, no flags):

    python tools/line_census.py

Runs the Tier-1 suite (``python -m pytest tests``) and each ``demos/*.py`` in
fresh subprocesses.  A generated ``sitecustomize`` on ``PYTHONPATH`` starts a
``sys.settrace`` line tracer (and ``threading.settrace`` for worker threads)
in every Python process they start, the CLI subprocesses of the tests
included, and each process writes the ``src/pomest`` lines it ran when it
exits.  The executable lines are those of every code object compiled from
``src/pomest/*.py``.  Prints each line that never ran, file by file, then the
count: ``missed M of N executable lines``.  Exits 1 if a run failed.

Tracing slows the suite several times over.  A process that leaves by
``os._exit``, or one started with an environment that drops ``PYTHONPATH``,
is not counted.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pomest"

SITECUSTOMIZE = '''
import atexit, os, sys, threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_hits = set()


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_PREFIX) else None


@atexit.register
def _dump():
    with open(os.path.join(_OUT, f"hits-{{os.getpid()}}.txt"), "w") as fh:
        fh.writelines(f"{{name}}:{{line}}\\n" for name, line in _hits)


sys.settrace(_global)
threading.settrace(_global)
'''


def executable_lines(path: Path) -> set[int]:
    """Lines that carry an instruction of the module or of any code object nested in it."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        lines.update(line for _, _, line in code.co_lines() if line)
    return lines


def main() -> int:
    files = sorted(PACKAGE.glob("*.py"))
    with tempfile.TemporaryDirectory(prefix="line-census-") as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "hits")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(prefix=str(PACKAGE) + os.sep, out=str(out)), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(site), str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        runs = [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", "tests"]]
        runs += [[sys.executable, str(demo)] for demo in sorted((ROOT / "demos").glob("*.py"))]
        failed = 0
        for argv in runs:
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
            if proc.returncode:
                print(f"run failed with exit code {proc.returncode}: {' '.join(argv[1:])}", file=sys.stderr)
                failed = 1
        hits = set()
        for record in out.iterdir():
            for entry in record.read_text(encoding="utf-8").splitlines():
                name, _, line = entry.rpartition(":")
                hits.add((name, int(line)))
    total = missed = 0
    for path in files:
        lines = executable_lines(path)
        never = sorted(line for line in lines if (str(path), line) not in hits)
        total += len(lines)
        missed += len(never)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"missed {missed} of {total} executable lines")
    return failed


if __name__ == "__main__":
    sys.exit(main())
