"""Command line front end: train, eval, inspect, bench.

Exit codes: 0 success, 1 usage or config problems, 2 data problems
(unreadable or incompatible files), 3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as B
from .checkpoint import KIND_TTMAP, read_checkpoint
from .config import BenchConfig, TrainConfig
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
    SizeError,
)
from .linear import takes_dense_plan
from .models import model_report
from .train import evaluate, load_split, make_eval_batches, restore_model, train_run


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for data problems, so route usage failures through an exception.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ttrnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("config", help="path to a key = value config file")
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the init seed")
    p_train.add_argument("--epochs", type=int, default=None,
                         help="override the epoch count")
    p_train.add_argument("--out", default=None, help="override the output dir")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("checkpoint", help="path to a .ttcp checkpoint")
    p_eval.add_argument("--config", default=None,
                        help="config file (default: the one in the checkpoint)")
    p_eval.add_argument("--split", choices=("val", "test"), default="val")
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="dump a checkpoint's structure")
    p_inspect.add_argument("checkpoint", help="path to a .ttcp checkpoint")
    p_inspect.set_defaults(func=cmd_inspect)

    p_bench = sub.add_parser("bench", help="run timing sweeps from a config")
    p_bench.add_argument("config", help="path to a key = value bench config")
    p_bench.add_argument("--out", default=None,
                         help="also write report lines to this file")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def cmd_train(args) -> int:
    cfg = TrainConfig.from_file(args.config)
    # Overrides land in the config object itself, so the resolved dump and
    # its hash reflect what actually ran.
    if args.seed is not None:
        cfg.seed_init = args.seed
    if args.epochs is not None:
        cfg.epochs = args.epochs
    if args.out is not None:
        cfg.out_dir = args.out
    cfg.validate()
    train_run(cfg, echo=print)
    return 0


def cmd_eval(args) -> int:
    cfg, model = restore_model(read_checkpoint(args.checkpoint), args.config)
    sequences, labels = load_split(cfg, args.split)
    batches = make_eval_batches(cfg, sequences, labels)
    loss, metric = evaluate(model, batches, cfg.is_classification())
    print(f"# config hash {cfg.digest()}")
    if cfg.is_classification():
        count = sum(b.size for b in batches)
        print(f"split={args.split} items={count} loss={loss!r} "
              f"accuracy={metric!r}")
    else:
        frames = int(sum(b.mask.sum() for b in batches))
        print(f"split={args.split} frames={frames} nll={loss!r} acc={metric!r}")
    return 0


def _describe_record(ckpt, name: str, kind: int) -> str:
    if kind == KIND_TTMAP:
        spec = ckpt.ttmap(name).spec
        order = "rtl" if spec.right_to_left else "ltr"
        plan = "dense" if takes_dense_plan(spec) else "sweep"
        return (f"tt modes {'x'.join(map(str, spec.out_modes))} by "
                f"{'x'.join(map(str, spec.in_modes))} "
                f"ranks {'-'.join(map(str, spec.ranks))} "
                f"params {spec.param_count()} order {order} plan {plan}")
    arr = ckpt.array(name)
    shape = "x".join(map(str, arr.shape)) if arr.ndim else "scalar"
    return f"array {shape} params {arr.size}"


def cmd_inspect(args) -> int:
    ckpt = read_checkpoint(args.checkpoint)
    meta = ckpt.meta()
    # Printed only once every record has parsed and, with a config, loaded
    # into that config's model, so a failure prints nothing.
    lines = [f"checkpoint: {args.checkpoint}"]
    for name in sorted(ckpt.records):
        if name.startswith("meta:"):
            lines.append(f"{name} = {meta[name[5:]]!r}")
        elif not name.startswith("opt:"):
            kind, _ = ckpt.records[name]
            lines.append(f"{name}: {_describe_record(ckpt, name, kind)}")
    opt_records = sum(name.startswith("opt:") for name in ckpt.records)
    if opt_records:
        lines.append(f"optimizer state: {opt_records} tensors")
    if ckpt.config_text.strip():
        cfg, model = restore_model(ckpt)
        lines.append(f"config hash: {cfg.digest()}")
        lines += model_report(model, cfg.baseline_hidden or None).lines()
    print("\n".join(lines))
    return 0


def cmd_bench(args) -> int:
    cfg = BenchConfig.from_file(args.config)
    lines = [f"# bench config hash {cfg.digest()}"]
    # Run context, like the times themselves; the --out report leaves it out.
    print(f"# blas threads {B.sweep_blas_threads()}")
    families = ("tt", "dense") if cfg.family == "both" else (cfg.family,)
    for family in families:
        points = B.run_scaling_sweep(
            family, cfg.sizes, rank=cfg.rank, max_mode=cfg.max_mode,
            batch=cfg.batch, seed=cfg.seed, reps=cfg.reps,
            warmups=cfg.warmups)
        lines += [p.as_line() for p in points]
        if len(points) >= 3:
            slope, resid = B.fit_loglog_slope(points)
            lines.append(f"fit family={family} slope={slope!r} resid={resid!r}")
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (FormatError, DataError, ShapeError, SizeError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
