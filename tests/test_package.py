"""The package's public names (``ttrnn.__all__``) and its error types."""

from pathlib import Path

import pytest

import ttrnn
from ttrnn import TTRNNError, cli


def test_every_exported_name_resolves():
    missing = [name for name in ttrnn.__all__ if not hasattr(ttrnn, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from ttrnn import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ttrnn.__all__)


def test_no_name_exported_twice():
    assert len(set(ttrnn.__all__)) == len(ttrnn.__all__)


@pytest.mark.parametrize("error", TTRNNError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_every_error_type_is_raised_and_has_an_exit_code(error, monkeypatch,
                                                         capsys):
    # A type no module raises is dead taxonomy; one the CLI does not map
    # would end in a traceback.
    src = Path(ttrnn.__file__).parent
    raisers = [path.name for path in sorted(src.glob("*.py"))
               if path.name != "errors.py"
               and f"raise {error.__name__}(" in path.read_text()]
    assert raisers, f"no module raises {error.__name__}"

    def fail(args):
        raise error("what went wrong")
    monkeypatch.setattr(cli, "cmd_inspect", fail)
    code = cli.main(["inspect", "any.ttcp"])
    kind = {1: "config", 2: "data", 3: "numeric"}.get(code)
    assert kind is not None, f"{error.__name__} exits with {code}"
    assert capsys.readouterr().err == f"{kind} error: what went wrong\n"
