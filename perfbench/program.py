"""Locate the program under test: the ``ttrnn`` package in ``src/`` of the
checkout that holds this benchmark, never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``src/ttrnn``."""


def require():
    """Import ``ttrnn`` from this checkout's ``src/``; returns the package."""
    if not (SRC / "ttrnn" / "__init__.py").is_file():
        raise ProgramMissing(f"no src/ttrnn package under {ROOT}")
    sys.path.insert(0, str(SRC))
    import ttrnn

    if Path(ttrnn.__file__).resolve().parent != SRC / "ttrnn":
        raise ProgramMissing(f"ttrnn imported from {ttrnn.__file__}, not {SRC}")
    return ttrnn
