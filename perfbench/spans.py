"""Spans recorded from outside the program, around the calls into each layer.

:class:`Tracer` replaces the public callables listed in ``TARGETS`` with
timing wrappers while it is installed and puts the originals back when it
is removed. Each span holds its id, its parent span (the innermost span open
when it started), the step it belongs to, its name, start and end in
nanoseconds and, for linear maps, which map ran and on how many rows. Spans
stay in memory until :meth:`Tracer.dump`.

The program runs on one thread, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import time
from collections import defaultdict

# (module, class or None, attribute, span name, records the map and rows).
# unroll/bptt and the losses are wrapped where the models module binds them,
# which is where a train step calls them from.
TARGETS = (
    ("ttrnn.linear", "TTLinear", "forward_cached", "linear.tt.fwd", True),
    ("ttrnn.linear", "TTLinear", "backward", "linear.tt.bwd", True),
    ("ttrnn.linear", "DenseLinear", "forward_cached", "linear.dense.fwd", True),
    ("ttrnn.linear", "DenseLinear", "backward", "linear.dense.bwd", True),
    ("ttrnn.models", None, "unroll", "cells.unroll", False),
    ("ttrnn.models", None, "bptt", "cells.bptt", False),
    ("ttrnn.models", "SequenceClassifier", "loss_and_grads", "models", False),
    ("ttrnn.models", "SequencePredictor", "loss_and_grads", "models", False),
    ("ttrnn.models", None, "softmax_cross_entropy", "tasks.loss", False),
    ("ttrnn.models", None, "bernoulli_frame_nll", "tasks.loss", False),
    ("ttrnn.optim", None, "clip_global_norm", "optim.clip", False),
    ("ttrnn.optim", "Adam", "step", "optim.adam", False),
    ("ttrnn.data", None, "make_batches", "data.make_batches", False),
    ("ttrnn.ttmatrix", "TTMatrix", "to_dense", "ttmatrix.to_dense", False),
)

FIELDS = ("id", "parent", "step", "name", "start_ns", "end_ns", "tag")


class Tracer:
    """Install with ``with tracer:``; spans accumulate across installs."""

    def __init__(self):
        self.spans = []
        self.step = None  # label stamped on spans; set by the caller
        self.missing = []  # targets the program does not have
        self._stack = []
        self._ids = itertools.count()
        self._saved = []

    def wrap(self, name: str, fn, records_map: bool = False):
        """``fn`` with a span around every call."""
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tag = (id(args[0]), len(args[1])) if records_map else None
                spans.append((sid, parent, self.step, name, start, end, tag))

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module_name, owner_name, attr, name, records_map in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            if owner is None or not hasattr(owner, attr):
                where = ".".join(p for p in (module_name, owner_name, attr) if p)
                if where not in self.missing:
                    self.missing.append(where)
                continue
            own = vars(owner).get(attr)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), records_map))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        return False

    def self_times(self):
        """Yield ``(step, name, self_ns, tag)`` for every span."""
        covered = defaultdict(int)
        for sid, parent, _step, _name, start, end, _tag in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for sid, _parent, step, name, start, end, tag in self.spans:
            yield step, name, end - start - covered[sid], tag

    def dump(self, path, map_names: dict):
        """Write every span as gzip JSON, naming maps instead of object ids."""
        rows = []
        for sid, parent, step, name, start, end, tag in self.spans:
            if tag is not None:
                tag = [map_names.get(tag[0], "?"), tag[1]]
            rows.append([sid, parent, step, name, start, end, tag])
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": rows}, fh, separators=(",", ":"))
