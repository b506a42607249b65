"""Recurrent networks with tensor-train compressed weight matrices."""

from .cells import GRUCell, SRNNCell, bptt, unroll
from .checkpoint import (
    Checkpoint,
    load_checkpoint,
    load_into_model,
    load_optimizer,
    read_checkpoint,
    save_checkpoint,
)
from .config import BenchConfig, TrainConfig, parse_kv
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
    SizeError,
    TTRNNError,
)
from .linear import DenseLinear, LinearMap, TTLinear
from .models import (
    SequenceClassifier,
    SequencePredictor,
    build_classifier,
    build_predictor,
    make_cell,
    make_map,
    model_report,
)
from .optim import Adam, clip_global_norm, global_norm
from .tasks import (
    ModelReport,
    bernoulli_frame_nll,
    cell_param_count,
    compression_ratio,
    frame_counts,
    gate_param_count,
    softmax_cross_entropy,
)
from .ttmatrix import DENSE_CAP, TTMatrix, TTSpec

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BenchConfig",
    "Checkpoint",
    "ConfigError",
    "DENSE_CAP",
    "DataError",
    "DenseLinear",
    "FormatError",
    "GRUCell",
    "LinearMap",
    "ModelReport",
    "NumericError",
    "SRNNCell",
    "SequenceClassifier",
    "SequencePredictor",
    "ShapeError",
    "SizeError",
    "TTLinear",
    "TTMatrix",
    "TTRNNError",
    "TTSpec",
    "TrainConfig",
    "bernoulli_frame_nll",
    "bptt",
    "build_classifier",
    "build_predictor",
    "cell_param_count",
    "clip_global_norm",
    "compression_ratio",
    "frame_counts",
    "gate_param_count",
    "global_norm",
    "load_checkpoint",
    "load_into_model",
    "load_optimizer",
    "make_cell",
    "make_map",
    "model_report",
    "parse_kv",
    "read_checkpoint",
    "save_checkpoint",
    "softmax_cross_entropy",
    "unroll",
]
