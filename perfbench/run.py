"""Train/eval-step benchmark of ttrnn: end to end, or per layer when traced.

    python3 perfbench/run.py --workload row-ttgru --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

For each workload this writes the seeded inputs under ``.perfbench/``, runs
the correctness gate (TT forward against the dense oracle, directional
finite-difference check of a train step), then starts one measured worker
process (``worker.py``, one BLAS thread) that sets up and trains in a closed
loop. A failed gate exits 1 with no result; a checkout without ``src/ttrnn``
exits 2. The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. Lines before it
give every metric with its unit and sample count, and a stamp of the
environment and inputs. Traced runs also leave their spans in
``.perfbench/trace-<workload>-s<seed>.json.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import numpy as np

import program
from workloads import WORKLOADS, write_inputs

BLAS_THREADS = "1"
# Each workload's run, worker included, ends well inside this many seconds.
RUN_LIMIT_S = 170.0
WORK_DIR = ".perfbench"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own ``.git``, without looking above it."""
    git = program.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((program.SRC / "ttrnn").rglob("*.py")):
        h.update(path.relative_to(program.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def run_workload(harness, name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    """Gate and measure one workload; returns its result object.

    Raises ``SystemExit`` when the gate fails or the worker does not finish.
    """
    data_dir = os.path.join(WORK_DIR, f"{name}-s{seed}")
    trace_out = os.path.join(WORK_DIR, f"trace-{name}-s{seed}.json.gz")
    try:
        raw = write_inputs(WORKLOADS[name], seed, data_dir)
        failures = harness.gate(raw)
        if failures:
            for line in failures:
                print(f"{name}: correctness gate failed: {line}", file=sys.stderr)
            raise SystemExit(1)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                   OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        cmd = [sys.executable, os.path.join("perfbench", "worker.py"),
               "--config", json.dumps(raw), "--seconds", str(seconds),
               "--trace", str(trace), "--trace-out", trace_out]
        try:
            done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"{name}: worker did not finish in time", file=sys.stderr)
            raise SystemExit(1) from None
        if done.returncode != 0:
            print(f"{name}: worker exited {done.returncode}", file=sys.stderr)
            raise SystemExit(1)
        result = json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    stamp = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
             "config_digest": result["digest"], "git_commit": _git_commit(),
             "src_sha256": _source_digest(), "nproc": os.cpu_count(),
             "python": platform.python_version(), "numpy": np.__version__,
             "blas": _blas(), "blas_threads": BLAS_THREADS}
    print(f"# stamp {json.dumps(stamp)}")
    for key, m in result["metrics"].items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}{note}")
    print(f"{name} attempted = {result['attempted']} failed = {result['failed']}")
    return {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        program.require()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness

    os.chdir(program.ROOT)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(harness, name, args.seed, args.seconds,
                                     args.trace, started + RUN_LIMIT_S)
        started = time.monotonic()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
