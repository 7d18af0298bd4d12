"""pomest benchmark: one workload, closed loop, one op at a time.

Run from the root of a pomest checkout:

    python3 perfbench/run.py --workload heterodyne --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics (median op time and
throughput in reference units, set-up time, peak RSS, share of correct ops).
With ``--trace 1`` ops alternate untraced and traced on the same input and
the run reports per-op layer metrics from the spans (see tracing.py) and the
tracing overhead.  The last line of stdout is the result as one JSON object;
a fuller record and, for traced runs, the spans go to ``.perfbench-out/``.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
INPUT_COUNT = 64  # inputs made per run; ops cycle through them
MIN_OPS = 3  # enough for a median and the determinism repeat
SETUP_PROBES = 5  # set-up timings taken before the ops, and as many after them


def _pomest_src() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "pomest", "__init__.py")):
        raise SystemExit(f"perfbench: no pomest sources under {src}; run from a pomest checkout")
    return src


class ReferenceKernel:
    """Fixed work that runs no pomest code, timed to gauge the machine's speed.

    On a shared machine the CPU runs at changing speeds, up to 2x apart, for
    tens of seconds at a time.  Each op is timed between two calls and
    reported in units of their mean ("rk"), which cancels most of that.  The
    phases slow each kind of work by a different factor, so the kernel does
    the kind of work the op does.  ``kind="cpu"`` mixes Python bytecode,
    numpy calls on small arrays and small dense eigensolves.  (A large-array
    stream tracked those ops worse than any of these.)  ``kind="fft"`` is one
    1024x1024 2-D FFT, for ops made of large FFTs, which the "cpu" mix tracks
    worse than plain seconds do.  Each part counts its best of 3 timings.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "fft":
            self._grid = rng.normal(size=(1024, 1024)) + 0j
            self._parts = (self._fft,)
            return
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        self._herm = g + g.conj().T
        self._vec = np.arange(256, dtype=float)
        self._parts = (self._python, self._numpy, self._eigh)

    def _python(self):
        table, acc = {}, 0
        for i in range(12500):
            table[i & 255] = acc = (acc * 31 + i) % 1000003

    def _numpy(self):
        acc = 0.0
        for i in range(350):
            acc += float(np.sqrt(self._vec * i + 1.0).sum()) % 7.0

    def _eigh(self):
        for i in range(150):
            np.linalg.eigh(self._herm + i * np.eye(6))

    def _fft(self):
        np.fft.fft2(self._grid)

    def __call__(self) -> float:
        total = 0.0
        for part in self._parts:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - t0)
            total += best
        return total


def _schedule(index: int, trace: bool):
    """(input index, traced, whether the output must equal the previous op's).

    Untraced runs repeat input 0 as op 1.  Traced runs pair every input: an
    untraced op, then a traced op that must reproduce its output.
    """
    if trace:
        return index // 2, index % 2 == 1, index % 2 == 1
    return max(index - 1, 0), False, index == 1


def measure(workload, inputs, seconds: float, tracer=None, work_dir: str = "."):
    """Run ops until ``seconds`` have passed; return the per-op records."""
    ops, previous, reference = [], None, ReferenceKernel(workload.reference)
    start = time.perf_counter()
    index = 0
    while True:
        input_index, traced, repeat = _schedule(index, tracer is not None)
        inp = inputs[input_index % len(inputs)]
        path = os.path.join(work_dir, f"report-{index}.out")
        failures, elapsed, payload, ref = [], None, None, reference()
        try:
            if traced:
                tracer.op_id = index
                tracer.install()
            try:
                t0 = time.perf_counter()
                result = workload.op(inp, path)
                elapsed = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            ref = (ref + reference()) / 2
            payload, failures = workload.verify(inp, result)
            if repeat and previous is not None and previous != payload:
                failures.append(f"output differs from op {index - 1} on the same input")
        except Exception:  # a failing op is counted and the run goes on
            failures.append(traceback.format_exc(limit=3))
        finally:
            if os.path.exists(path):
                os.unlink(path)
        for failure in failures:
            print(f"perfbench: op {index} failed: {failure}", file=sys.stderr)
        ops.append({"index": index, "input": input_index, "traced": traced,
                    "seconds": elapsed, "ref_seconds": ref, "ok": not failures})
        previous = payload
        index += 1
        done = time.perf_counter() - start >= seconds and index >= (2 if tracer else MIN_OPS)
        if done and not (tracer and index % 2):
            return ops


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up time (import pomest + input generation) in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), str(INPUT_COUNT)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def stamp(seed: int) -> dict:
    import scipy

    sha = "unknown"
    if os.path.isdir(".git"):  # a plain checkout is not a git repository
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.strip() or sha
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def _end_to_end(ops, setup):
    rk = [op["seconds"] / op["ref_seconds"] for op in ops if op["seconds"] is not None]
    ok = sum(op["ok"] for op in ops)
    return {
        "ops_per_krk": (1000 * len(rk) / sum(rk) if rk else 0.0, "1/krk"),
        "op_p50_rk": (statistics.median(rk) if rk else 0.0, "rk"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (ok / len(ops), "ratio"),
    }


def _per_layer(ops, tracer):
    def rk(op):
        return None if op["seconds"] is None else op["seconds"] / op["ref_seconds"]

    traced = [op for op in ops if op["traced"]]
    pairs = [(rk(ops[op["index"] - 1]), rk(op)) for op in traced]
    pairs = [(u, t) for u, t in pairs if u is not None and t is not None]
    spans = [s for s in tracer.spans if s is not None]
    metrics = {name: (value, tracing.metric_unit(name))
               for name, value in tracing.layer_metrics(spans, max(len(traced), 1)).items()}
    overhead = sum(t for _, t in pairs) / sum(u for u, _ in pairs) if pairs else 0.0
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["heterodyne", "relations", "imageband", "epr"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, _pomest_src())
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed, INPUT_COUNT)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        ops = measure(workload, inputs, args.seconds, tracer, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not args.trace:
        # probes on both sides of the ops span the machine's slower and faster phases
        setup += setup_seconds(args.workload, args.seed)

    metrics = _per_layer(ops, tracer) if tracer else _end_to_end(ops, setup)
    failed = sum(not op["ok"] for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"stamp": stamp(args.seed), "workload": args.workload, "op_size": workload.op_size,
              "seconds": args.seconds, "setup_samples": setup,
              "ops": ops, **result}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.tsv.gz"))
    print("perfbench stamp " + json.dumps(record["stamp"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
