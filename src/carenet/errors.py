"""Exception types shared across the package.

The CLI maps these onto process exit codes: DataError -> 3,
NumericalError -> 4. Anything else is a bug.
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
    DataError gets the path prefixed, and a field of the wrong shape or type
    (AttributeError, KeyError, TypeError, ValueError) is "malformed <what>"."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {what} ({exc!r})") from exc
