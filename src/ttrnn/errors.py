"""Exception taxonomy. The CLI maps these onto exit codes."""


class TTRNNError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TTRNNError, ValueError):
    """Array dimensions do not match the operation's contract."""


class SizeError(TTRNNError, ValueError):
    """A requested dense materialization exceeds the safety cap."""


class FormatError(TTRNNError, ValueError):
    """A file does not conform to its declared binary or text format."""


class DataError(TTRNNError, ValueError):
    """Dataset contents violate an invariant (bad label, empty set, ...)."""


class ConfigError(TTRNNError, ValueError):
    """A configuration file or field is invalid."""


class NumericError(TTRNNError, ArithmeticError):
    """A non-finite value appeared where finite numbers are required."""
