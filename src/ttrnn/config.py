"""Flat key=value run configuration.

The on-disk format is one ``key = value`` per line with ``#`` comments,
parseable from any language with no dependencies. A parsed config is
resolved: every default is filled in, every seed explicit. The canonical
dump of the resolved config is what gets hashed, and that hash ties
together logs, checkpoints, and reports from one run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .bench import MIN_REPS, MIN_WARMUPS, balanced_modes, check_dense_budget
from .errors import ConfigError, ShapeError, SizeError
from .reader import decode
from .ttmatrix import check_dims

TASKS = ("mnist-row", "mnist-pixel", "mnist-permuted", "pianoroll")
MODELS = ("srnn", "gru")
PARAMETERIZATIONS = ("dense", "tt")
BENCH_FAMILIES = ("tt", "dense", "both")


def parse_kv(text: str, source: str = "<config>") -> dict:
    """Parse ``key = value`` lines; later keys override earlier ones."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        out[key] = value
    return out


def _parse_modes(value):
    """``10x10`` or ``10,10`` as a tuple, ``none`` or nothing as None."""
    text = str(value)
    if text.lower() in ("", "none"):
        return None
    return tuple(int(tok) for tok in text.replace(",", "x").split("x"))


def _fmt_modes(modes) -> str:
    return "none" if modes is None else "x".join(str(m) for m in modes)


def _parse_bool(value) -> bool:
    low = str(value).lower()
    if low not in ("true", "false"):
        raise ValueError(value)
    return low == "true"


# A field's kind is its annotation. Parsers raise ValueError on bad text;
# kinds missing from _DUMP are written as str() writes them.
_PARSE = {"int": int, "float": float, "bool": _parse_bool,
          "tuple | None": _parse_modes, "str": str}
_DUMP = {"float": lambda v: repr(float(v)),
         "bool": lambda v: "true" if v else "false", "tuple | None": _fmt_modes}


class KVConfig:
    """Typed ``key = value`` parsing shared by every config dataclass.

    A subclass is a dataclass whose defaults are the resolved values. Each
    field is parsed, dumped and range-checked by the kind its annotation
    names: ``int`` (and ``>= 0``), ``float``, ``bool``, ``str``, or
    ``tuple | None`` for a mode list. A subclass extends ``validate``.
    """

    @classmethod
    def kinds(cls) -> dict:
        """Field name -> annotation text (this module postpones annotations),
        in declaration order."""
        return {f.name: f.type for f in fields(cls)}

    @classmethod
    def from_dict(cls, raw: dict):
        kinds = cls.kinds()
        kwargs = {}
        for key, value in raw.items():
            if key not in kinds:
                raise ConfigError(f"unknown config field {key!r}")
            try:
                kwargs[key] = _PARSE[kinds[key]](value)
            except ValueError:
                raise ConfigError(f"field {key}: cannot parse {value!r}") from None
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path):
        with open(path, "rb") as fh:
            text = decode(fh.read(), "utf-8", str(path), error=ConfigError)
        return cls.from_dict(parse_kv(text, source=str(path)))

    def validate(self):
        for name, kind in self.kinds().items():
            if kind == "int" and getattr(self, name) < 0:
                raise ConfigError(f"field {name}: must be >= 0")

    def to_text(self) -> str:
        """Canonical resolved dump: every field, sorted, one per line."""
        return "".join(f"{name} = {_DUMP.get(kind, str)(getattr(self, name))}\n"
                       for name, kind in sorted(self.kinds().items()))

    def digest(self) -> str:
        """Hash of the resolved config; stamped on every run artifact."""
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]


@dataclass
class TrainConfig(KVConfig):
    """Everything one training run needs, with explicit defaults.

    TT parameterization requires ``hidden_modes`` (their product is the
    hidden size) and ``input_modes`` (product must equal the cell's input
    width, i.e. the projection width when one is configured).
    """

    task: str = "mnist-row"
    model: str = "gru"
    parameterization: str = "tt"
    hidden: int = 100
    hidden_modes: tuple | None = (10, 10)
    input_modes: tuple | None = (4, 8)
    rank: int = 3
    proj: int = 32  # 0 disables the input projection
    baseline_hidden: int = 0  # 0: compare against a dense cell of same size
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 0.0  # 0 disables clipping
    batch_size: int = 64
    epochs: int = 5
    seed_init: int = 1
    seed_data: int = 2
    seed_permutation: int = 8888
    train_count: int = 0  # 0: use everything left after the validation split
    val_count: int = 10000
    images: str = ""  # IDX paths (mnist tasks)
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_path: str = ""  # piano-roll text paths (pianoroll task)
    val_path: str = ""
    test_path: str = ""
    out_dir: str = "runs"
    early_stop: bool = False
    patience: int = 10

    def validate(self):
        if self.task not in TASKS:
            raise ConfigError(f"field task: must be one of {TASKS}, "
                              f"got {self.task!r}")
        if self.model not in MODELS:
            raise ConfigError(f"field model: must be one of {MODELS}")
        if self.parameterization not in PARAMETERIZATIONS:
            raise ConfigError(
                f"field parameterization: must be one of {PARAMETERIZATIONS}")
        super().validate()
        for name, ok, rule in (("lr", self.lr > 0, "> 0"),
                               ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                               ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                               ("eps", self.eps > 0, "> 0"),
                               ("clip_norm", self.clip_norm >= 0, ">= 0")):
            if not (ok and math.isfinite(getattr(self, name))):
                raise ConfigError(f"field {name}: must be finite and {rule}, "
                                  f"got {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ConfigError("field batch_size: must be >= 1")
        if self.early_stop and self.patience < 1:
            raise ConfigError("field patience: must be >= 1 when early_stop is true")
        if self.parameterization == "tt":
            if self.hidden_modes is None or self.input_modes is None:
                raise ConfigError("tt parameterization needs hidden_modes "
                                  "and input_modes")
            for name in ("hidden_modes", "input_modes"):
                try:
                    check_dims(getattr(self, name))
                except ShapeError as e:
                    raise ConfigError(f"field {name}: {e}") from None
            if len(self.input_modes) != len(self.hidden_modes):
                raise ConfigError(
                    f"field input_modes: {len(self.input_modes)} modes, but "
                    f"hidden_modes has {len(self.hidden_modes)}; the lists "
                    f"must be of equal length")
            if self.rank < 1:
                raise ConfigError("field rank: must be >= 1 for tt")
            prod = math.prod(self.hidden_modes)
            if self.hidden and prod != self.hidden:
                raise ConfigError(
                    f"field hidden: {self.hidden} does not match hidden_modes "
                    f"product {prod}")
            self.hidden = prod
            in_prod = math.prod(self.input_modes)
            if self.cell_input_dim() != in_prod:
                raise ConfigError(
                    f"field input_modes: product {in_prod} does not match the "
                    f"cell input width {self.cell_input_dim()}")
        if self.hidden < 1:
            raise ConfigError("field hidden: must be >= 1")

    def frame_dim(self) -> int:
        return {"mnist-row": 28, "mnist-pixel": 1, "mnist-permuted": 1,
                "pianoroll": 88}[self.task]

    def cell_input_dim(self) -> int:
        return self.proj if self.proj else self.frame_dim()

    def is_classification(self) -> bool:
        return self.task != "pianoroll"

    def tt_args(self) -> dict:
        """``in_modes``, ``hidden_modes`` and ``rank`` of the cell's TT maps,
        as the model builders take them; all None for a dense cell."""
        tt = self.parameterization == "tt"
        return {"in_modes": self.input_modes if tt else None,
                "hidden_modes": self.hidden_modes if tt else None,
                "rank": self.rank if tt else None}


@dataclass
class BenchConfig(KVConfig):
    """One ``ttrnn bench`` timing sweep over square layer sizes.

    ``family`` is ``tt``, ``dense`` or ``both``; ``sizes`` lists the M=N
    grid (``1024,4096`` or ``1024x4096``).
    """

    family: str = "tt"
    sizes: tuple | None = (1024, 4096, 16384)
    rank: int = 4
    max_mode: int = 16
    batch: int = 16
    seed: int = 0
    reps: int = MIN_REPS
    warmups: int = MIN_WARMUPS

    def validate(self):
        if self.family not in BENCH_FAMILIES:
            raise ConfigError(f"field family: must be one of {BENCH_FAMILIES}, "
                              f"got {self.family!r}")
        super().validate()
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ConfigError("field sizes: need at least one positive size")
        if self.reps < MIN_REPS or self.warmups < MIN_WARMUPS:
            raise ConfigError(f"field reps/warmups: protocol floor is "
                              f"{MIN_REPS} reps, {MIN_WARMUPS} warmups")
        # The sweep's own checks, run here so that no size is timed first.
        for size in self.sizes:
            if self.family != "dense":
                try:
                    balanced_modes(size, self.max_mode)
                except ShapeError as e:
                    field = "max_mode" if self.max_mode < 2 else "sizes"
                    raise ConfigError(f"field {field}: {e}") from None
            if self.family != "tt":
                try:
                    check_dense_budget(size, size)
                except SizeError as e:
                    raise ConfigError(f"field sizes: {e}") from None
