"""The measured process: one trainer, closed loop, one workload.

Started by ``run.py`` with the run's config dict; prints one JSON object as
its last line of output. With ``--trace 0`` it measures the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced blocks of
train steps and reports the per-layer metrics.

The host gives each of the machine's virtual CPUs its own, changing share of
a physical core: the same row-ttgru train step takes ~40 ms on one CPU and
~65 ms on the other in the same second, and which CPU is slow changes every
few seconds. So the end-to-end metrics run every block of steps once on each
of two CPUs, the process pinned to one at a time, and keep the faster of the
two blocks, as ``timeit`` keeps its fastest repeat: contention only ever adds
time, and a run's medians then track the program instead of how much of the
run a neighbour happened to share its CPU.

    python3 perfbench/worker.py --config '<json>' --seconds 55 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import program

# Set-ups per run; set-up time is their median.
SETUP_REPS = 7
# Untimed steps of each kind before measuring.
WARMUP_STEPS = 3
# Timing runs on until each step kind keeps this many steps, so that ten
# samples lie beyond p90; it stops at PHASE_CAP times its length.
MIN_SAMPLES = 100
PHASE_CAP = 1.1
# Train and eval steps alternate in blocks of these lengths. An eval step
# costs about 40% of a train step, so both kinds keep about as many steps.
TRAIN_BLOCK_S = 0.45
EVAL_BLOCK_S = 0.2
# Each block runs once on each of this many CPUs; the fastest one is kept.
BLOCK_CPUS = 2
# Traced mode: length of each untraced/traced block, and per-map budget.
BLOCK_SECONDS = 0.5
MAP_SECONDS = 0.15
MAP_MIN_REPS = 15
MAP_MAX_REPS = 400

# Map names of the GRU and SRNN models; a name the workload's model lacks
# reads 0.
MAP_NAMES = ("proj", "cell.wx", "cell.wh", "cell.wxr", "cell.whr", "cell.wxz",
             "cell.whz", "cell.wxh", "cell.whh", "head")


class Setups:
    """Repeated full set-ups, each ending with its first, cold train step.

    Keeps every set-up's duration and the step counts of the trainers it
    discards, so failures anywhere count toward the run's totals.
    """

    def __init__(self, harness, raw):
        self.harness = harness
        self.raw = raw
        self.seconds = []
        self.attempted = 0
        self.failed = 0

    def run(self):
        start = time.perf_counter()
        trainer = self.harness.build(self.raw)
        trainer.train_step(trainer.train_batches[0])
        self.seconds.append(time.perf_counter() - start)
        return trainer

    def discard(self, trainer):
        self.attempted += trainer.attempted
        self.failed += trainer.failed


def _block(step, batches, seconds, times):
    """Closed loop for ``seconds``; appends step times, returns (items, wall)."""
    items = 0
    start = time.perf_counter()
    while True:
        batch = batches[len(times) % len(batches)]
        t0 = time.perf_counter()
        step(batch)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        items += batch.size
        if t1 - start >= seconds:
            return items, t1 - start


def _fastest_block(step, batches, seconds, cpus):
    """One block on each of ``cpus``; returns the (times, items, wall) of the
    block with the least wall time per step."""
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times = []
        items, wall = _block(step, batches, seconds, times)
        if best is None or wall / len(times) < best[2] / len(best[0]):
            best = (times, items, wall)
    return best


def _warm(trainer):
    for i in range(WARMUP_STEPS):
        trainer.train_step(trainer.train_batches[i % len(trainer.train_batches)])
        trainer.eval_step(trainer.val_batches[i % len(trainer.val_batches)])


def _metric(value, unit, note=None):
    out = {"value": float(value), "unit": unit}
    if note:
        out["note"] = note
    return out


def end_to_end(harness, raw, seconds):
    """Set-up time, train and eval step times, throughput, memory, failures.

    Train and eval blocks take turns, and the set-ups after the first are
    spread over the run, so a slow spell on the machine hits every metric
    alike instead of whichever phase it happened to fall in. Step metrics
    use the faster of each block's runs on two CPUs; failures count in every
    block. The run lasts ``seconds`` and until each step kind keeps
    MIN_SAMPLES steps, at most PHASE_CAP times ``seconds``.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:BLOCK_CPUS]
    setups = Setups(harness, raw)
    trainer = setups.run()
    _warm(trainer)
    kinds = {"train": (trainer.train_step, trainer.train_batches, TRAIN_BLOCK_S),
             "eval": (trainer.eval_step, trainer.val_batches, EVAL_BLOCK_S)}
    times = {kind: [] for kind in kinds}
    items = dict.fromkeys(kinds, 0)
    busy = dict.fromkeys(kinds, 0.0)
    start = time.perf_counter()
    while True:
        now = time.perf_counter() - start
        if len(setups.seconds) < SETUP_REPS * min(1.0, now / seconds):
            setups.discard(setups.run())
        for kind, (step, batches, block) in kinds.items():
            kept, n, wall = _fastest_block(step, batches, block, cpus)
            times[kind] += kept
            items[kind] += n
            busy[kind] += wall
        os.sched_setaffinity(0, allowed)
        now = time.perf_counter() - start
        enough = (len(setups.seconds) == SETUP_REPS
                  and all(len(t) >= MIN_SAMPLES for t in times.values()))
        if (now >= seconds and enough) or now >= PHASE_CAP * seconds:
            break

    metrics = {"setup_s": _metric(statistics.median(setups.seconds), "s",
                                  f"median of {len(setups.seconds)} set-ups")}
    for kind, samples in times.items():
        n = f"{len(samples)} steps"
        metrics[f"{kind}_items_per_s"] = _metric(items[kind] / busy[kind], "seq/s", n)
        metrics[f"{kind}_step_ms_p50"] = _metric(1e3 * np.percentile(samples, 50), "ms", n)
        metrics[f"{kind}_step_ms_p90"] = _metric(1e3 * np.percentile(samples, 90), "ms", n)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = _metric(peak_kb / 1024.0, "MB", "ru_maxrss")
    setups.discard(trainer)
    metrics["completed_frac"] = _metric(
        1.0 - setups.failed / setups.attempted, "frac",
        f"{setups.attempted - setups.failed} of {setups.attempted} steps")
    return setups, metrics


def _tt_flops(spec, rows: int) -> int:
    """Multiply-adds x2 of one forward sweep over ``rows`` inputs."""
    total = 0
    for k in range(spec.ndim):
        m, n, r_prev, r_next = spec.core_shape(k)
        before = math.prod(spec.out_modes[:k])
        after = math.prod(spec.in_modes[k + 1:])
        total += 2 * rows * before * m * r_next * r_prev * n * after
    return total


def _time_map(layer, rows: int, rng):
    """Median forward and backward microseconds of one map at ``rows``."""
    x = rng.standard_normal((rows, layer.in_dim))
    g = rng.standard_normal((rows, layer.out_dim))
    for _ in range(WARMUP_STEPS):
        layer.backward(g, layer.forward_cached(x)[1])
    fwd, bwd = [], []
    deadline = time.perf_counter() + MAP_SECONDS
    while len(fwd) < MAP_MIN_REPS or (time.perf_counter() < deadline
                                      and len(fwd) < MAP_MAX_REPS):
        t0 = time.perf_counter()
        _, cache = layer.forward_cached(x)
        t1 = time.perf_counter()
        layer.backward(g, cache)
        t2 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return 1e6 * statistics.median(fwd), 1e6 * statistics.median(bwd)


def per_layer(harness, raw, seconds, trace_path):
    from ttrnn.bench import tt_work_bytes
    from ttrnn.linear import TTLinear

    from spans import Tracer

    tracer = Tracer()
    tracer.step = "setup"
    setups = Setups(harness, raw)
    batching = []
    trainer = None
    for _ in range(SETUP_REPS):
        if trainer is not None:
            setups.discard(trainer)
        first = len(tracer.spans)
        with tracer:
            trainer = setups.run()
        spent = sum(end - start for _, _, _, name, start, end, _ in tracer.spans[first:]
                    if name == "data.make_batches")
        batching.append(spent / (len(trainer.train_batches) + len(trainer.val_batches)))
    _warm(trainer)

    # Untraced and traced blocks take turns so both see the same machine.
    untraced = []
    traced = []
    batches = trainer.train_batches

    root = tracer.wrap("step", trainer.train_step)

    def traced_step(batch):
        tracer.step = len(traced)
        root(batch)

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < 2:
        _block(trainer.train_step, batches, BLOCK_SECONDS, untraced)
        with tracer:
            _block(traced_step, batches, BLOCK_SECONDS, traced)
    steps = len(traced)

    maps = trainer.model.named_maps()
    names = {id(layer): name for name, layer in maps.items()}
    per_step = [dict() for _ in range(steps)]
    calls = {}
    rows_seen = {}
    flops = 0
    for step, name, self_ns, tag in tracer.self_times():
        if not isinstance(step, int):
            continue
        per_step[step][name] = per_step[step].get(name, 0) + self_ns
        calls[name] = calls.get(name, 0) + 1
        if tag is not None:
            map_name, rows = names.get(tag[0], "?"), tag[1]
            rows_seen[map_name] = max(rows_seen.get(map_name, 0), rows)
            if name.startswith("linear.tt.") and map_name in maps:
                sweep = _tt_flops(maps[map_name].tt.spec, rows)
                flops += sweep if name.endswith("fwd") else 2 * sweep

    def self_ms(name):
        return 1e-6 * statistics.median(s.get(name, 0) for s in per_step)

    def per_step_count(name):
        return calls.get(name, 0) / steps

    m = {}
    for kind in ("tt", "dense"):
        for way in ("fwd", "bwd"):
            if kind == "tt":
                m[f"linear.tt.{way}_calls_per_step"] = _metric(
                    per_step_count(f"linear.tt.{way}"), "count")
            m[f"linear.{kind}.{way}_self_ms_per_step"] = _metric(
                self_ms(f"linear.{kind}.{way}"), "ms")
    m["linear.tt.flops_per_step"] = _metric(flops / steps, "flop", "computed")
    work = [tt_work_bytes(layer.tt.spec, rows_seen.get(name, 0))
            for name, layer in maps.items() if isinstance(layer, TTLinear)]
    m["linear.tt.work_bytes_peak"] = _metric(max(work, default=0), "bytes", "computed")

    rng = np.random.default_rng(0)
    for name in MAP_NAMES:
        fwd_us = bwd_us = 0.0
        if name in maps and name in rows_seen:
            fwd_us, bwd_us = _time_map(maps[name], rows_seen[name], rng)
        m[f"linear.map.{name}.fwd_us"] = _metric(fwd_us, "us")
        m[f"linear.map.{name}.bwd_us"] = _metric(bwd_us, "us")
    trainer.model.zero_grads()

    m["cells.unroll_self_ms_per_step"] = _metric(self_ms("cells.unroll"), "ms")
    m["cells.bptt_self_ms_per_step"] = _metric(self_ms("cells.bptt"), "ms")
    m["models.self_ms_per_step"] = _metric(self_ms("models"), "ms")
    m["tasks.loss_self_ms_per_step"] = _metric(self_ms("tasks.loss"), "ms")
    m["optim.clip_ms_per_step"] = _metric(self_ms("optim.clip"), "ms")
    m["optim.adam_ms_per_step"] = _metric(self_ms("optim.adam"), "ms")
    m["optim.param_count"] = _metric(trainer.model.param_count(), "count")
    m["data.make_batches_ms_per_batch"] = _metric(
        1e-6 * statistics.median(batching), "ms", f"median of {SETUP_REPS} set-ups")
    m["ttmatrix.to_dense_calls_per_step"] = _metric(
        per_step_count("ttmatrix.to_dense"), "count")
    m["trace_overhead_frac"] = _metric(
        statistics.median(traced) / statistics.median(untraced) - 1.0, "frac",
        f"{steps} traced vs {len(untraced)} untraced steps")
    tracer.dump(trace_path, names)
    if tracer.missing:
        print(f"trace: program lacks {', '.join(tracer.missing)}", file=sys.stderr)
    setups.discard(trainer)
    return setups, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="TrainConfig dict as JSON")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", default="trace.json.gz")
    args = parser.parse_args(argv)
    program.require()
    import harness

    raw = json.loads(args.config)
    if args.trace:
        setups, metrics = per_layer(harness, raw, args.seconds, args.trace_out)
    else:
        setups, metrics = end_to_end(harness, raw, args.seconds)
    print(json.dumps({"attempted": setups.attempted, "failed": setups.failed,
                      "digest": harness.TrainConfig.from_dict(raw).digest(),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
