"""Exception types shared across the package.

The CLI maps these onto process exit codes: DataError -> 3,
NumericalError -> 4. Anything else is a bug. `parsing` is where a malformed
file becomes a DataError naming it, and `json_int`/`json_number` are the one
check of a JSON field that must hold an integer or a number.
"""

from contextlib import contextmanager


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PipelineError):
    """Malformed inputs: bad shapes, bad labels, unreadable or corrupt files."""


class NumericalError(PipelineError):
    """Degenerate or divergent numerics: constant spectra, zero variance, NaN loss."""


@contextmanager
def parsing(path, what: str):
    """Errors raised while the block parses the file at path name that file: a
    DataError gets the path prefixed, and a field of the wrong shape, type or
    range (AttributeError, KeyError, OverflowError, TypeError, ValueError) is
    "malformed <what>"."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {what} ({exc!r})") from exc


def json_int(value) -> int:
    """value if it is a JSON integer (an int, never a bool); else a TypeError,
    which `parsing` reports. int() would truncate 3.9 and accept "7" and true."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_number(value) -> float:
    """value as a float if it is a JSON number (an int or a float, never a bool
    or a string); else a TypeError, or an OverflowError past float64's range,
    which `parsing` reports."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)
