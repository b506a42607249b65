"""The package's public names: ``ttrnn.__all__``."""

import ttrnn


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
