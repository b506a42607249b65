"""Smoke test of the benchmark itself, at a short run length.

    python3 perfbench/smoke.py

Each run measures for ``SMOKE_SECONDS``. For every workload: one untraced
run must report exactly the end-to-end metrics of ``BENCHMARK.json`` with
their units, and two traced runs on different seeds must report exactly the
per-layer metrics with their units and identical counts (call counts,
computed flops and bytes, parameter count). Last, a copy of the benchmark
without the program next to it must exit non-zero and print no result.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "flop", "bytes")
SMOKE_SECONDS = 1.0


def _run(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=180)


def _result(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = _run(ROOT, workload, seed, seconds, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"]:
        raise AssertionError(f"{workload}: correct={result['correct']} "
                             f"attempted={result['attempted']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in
              SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != wanted:
        raise AssertionError(f"{workload} trace={trace}: metrics/units differ: "
                             f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    for key, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            raise AssertionError(f"{workload}: {key} = {m['value']}")
    return result["metrics"]


def _counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}


def _bare_checkout_fails():
    """Only BENCHMARK.json and the benchmark's paths: must fail, no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, SPEC["workloads"][0]["name"], 1, SMOKE_SECONDS, 0)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError(f"bare checkout: exit {done.returncode}, "
                             f"output {done.stdout!r}")


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    try:
        for w in SPEC["workloads"]:
            name = w["name"]
            _result(name, 1, SMOKE_SECONDS, 0)
            first = _counts(_result(name, 1, SMOKE_SECONDS, 1))
            second = _counts(_result(name, 2, SMOKE_SECONDS, 1))
            if first != second:
                raise AssertionError(f"{name}: counts differ between traced "
                                     f"runs: {first} vs {second}")
            print(f"ok {name}: {len(SPEC['end_to_end'])} end-to-end and "
                  f"{len(SPEC['per_layer'])} per-layer metrics; counts {first}")
        _bare_checkout_fails()
        print("ok bare checkout exits non-zero without a result")
    except (AssertionError, subprocess.TimeoutExpired) as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
