"""The benchmark in ``perfbench/`` reaches into ttrnn by name: its tracer
wraps the callables in ``spans.TARGETS``, its harness and worker import
from the package and read attributes off each map they name ``layer``.
Each of those names must resolve against ``src/`` (the attributes on every
TT map of a built model), and the names wrapped where ``ttrnn.models``
binds them must be the ones a train step calls. The perfbench files are
only parsed here, never imported or changed."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from ttrnn import models
from ttrnn.linear import TTLinear

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _span_targets() -> list:
    for node in _tree("spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [t[:3] for t in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _ttrnn_names() -> list:
    """``(file, module, attribute or None)`` for every ttrnn import in the
    harness and worker, plus every attribute read off an imported module."""
    names = []
    for file in ("harness.py", "worker.py"):
        modules = {}  # local name -> ttrnn module it is bound to
        tree = _tree(file)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ttrnn":
                for alias in node.names:
                    names.append((file, node.module, alias.name))
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "ttrnn":
                        names.append((file, alias.name, None))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                module = modules[node.value.id]
                if _is_module(module):
                    names.append((file, module, node.attr))
    return sorted(set(names), key=str)


def _layer_attrs() -> list:
    """Every attribute the harness and worker read off the name ``layer``,
    which each binds to a map of a built model."""
    return sorted({node.attr for file in ("harness.py", "worker.py")
                   for node in ast.walk(_tree(file))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "layer"})


def _is_module(dotted: str) -> bool:
    try:
        importlib.import_module(dotted)
    except ImportError:
        return False
    return True


def _resolve(module: str, attr):
    owner = importlib.import_module(module)
    if attr is None:
        return owner
    if hasattr(owner, attr):
        return getattr(owner, attr)
    return importlib.import_module(f"{module}.{attr}")


@pytest.mark.parametrize("module,owner,attr", _span_targets(),
                         ids=lambda v: str(v))
def test_span_target_resolves(module, owner, attr):
    found = importlib.import_module(module)
    if owner is not None:
        found = getattr(found, owner)
    assert callable(getattr(found, attr))


@pytest.mark.parametrize("file,module,attr", _ttrnn_names(), ids=lambda v: str(v))
def test_perfbench_import_resolves(file, module, attr):
    assert _resolve(module, attr) is not None


def test_contract_is_not_empty():
    assert len(_span_targets()) >= 10
    files = {file for file, _, _ in _ttrnn_names()}
    assert files == {"harness.py", "worker.py"}
    assert {"bias", "tt", "forward"} <= set(_layer_attrs())


# The module-level names each model's loss_and_grads calls through
# ttrnn.models, where the tracer wraps them.
USES = {"SequenceClassifier": {"unroll", "bptt", "softmax_cross_entropy"},
        "SequencePredictor": {"unroll", "bptt", "bernoulli_frame_nll"}}


def _models_bindings() -> list:
    return [attr for module, owner, attr in _span_targets()
            if module == "ttrnn.models" and owner is None]


def _small_model(cls_name: str):
    """A TT model of class ``cls_name`` and ``(x, mask, targets)`` for it,
    with one padded step."""
    rng = np.random.default_rng(0)
    tt = dict(proj_dim=6, in_modes=(2, 3), hidden_modes=(3, 2), rank=2)
    x = rng.standard_normal((4, 2, 5))
    mask = np.ones((4, 2))
    mask[3, 1] = 0.0
    if cls_name == "SequenceClassifier":
        model = models.build_classifier(5, 3, "srnn", 6, rng, **tt)
        return model, (x, mask, np.array([0, 2]))
    model = models.build_predictor(5, "srnn", 6, rng, **tt)
    return model, (x, mask, (rng.random((4, 2, 5)) > 0.5).astype(float))


@pytest.mark.parametrize("attr", _layer_attrs())
def test_layer_attribute_resolves_on_every_tt_map(attr):
    # The harness's oracle gate reads ``layer.bias`` off every TT map: a
    # missing attribute would fail the benchmark run, not a test.
    model, _ = _small_model("SequenceClassifier")
    tt_maps = [m for m in model.named_maps().values() if isinstance(m, TTLinear)]
    assert tt_maps
    for layer in tt_maps:
        getattr(layer, attr)


def test_traced_models_are_the_ones_checked():
    owners = {owner for module, owner, attr in _span_targets()
              if module == "ttrnn.models" and attr == "loss_and_grads"}
    assert owners == set(USES)
    assert set(_models_bindings()) == set().union(*USES.values())


@pytest.mark.parametrize("cls_name", sorted(USES))
@pytest.mark.parametrize("attr", _models_bindings())
def test_train_step_calls_each_wrapped_binding(attr, cls_name, monkeypatch):
    model, (x, mask, targets) = _small_model(cls_name)
    calls = []
    real = getattr(models, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return real(*args, **kwargs)

    monkeypatch.setattr(models, attr, counted)
    model.loss_and_grads(x, mask, targets)
    assert len(calls) == (1 if attr in USES[cls_name] else 0)
    calls.clear()
    model.forward(x, mask=mask)
    assert calls == [], f"forward calls models.{attr}"
