"""Exception types shared across the package, the interval check of
scalar parameters, the seed check and the UTF-8 decoding of input files
that raise them.

The CLI maps these onto exit codes: parameter/schema problems are exit 2,
numeric failures (fits, degenerate statistics) exit 3, I/O errors exit 4.
"""

import math
import operator


class DlczError(Exception):
    """Base class for all package errors."""


class ParameterError(DlczError, ValueError):
    """A physical parameter or option is outside its valid domain."""


class ConfigError(ParameterError):
    """A configuration file is malformed or contains unknown/invalid keys."""


class SchemaError(DlczError, ValueError):
    """A data file does not match the expected column schema."""


class InsufficientDataError(DlczError, ValueError):
    """An estimator received counts that cannot support the estimate."""


class DegenerateDataError(DlczError, ValueError):
    """Input samples are degenerate (e.g. all storage times identical)."""


class FitConvergenceError(DlczError, RuntimeError):
    """The minimizer exhausted its iteration budget without converging."""


class DegenerateStatisticsError(DlczError, RuntimeError):
    """Poisson resampling gave no usable error bar: more than 1% of the
    replicas failed (NaN), or the estimate or its spread is not finite."""


def check_in(name: str, value, interval: str) -> None:
    """Raise :class:`ParameterError` unless ``value`` lies in ``interval``,
    written like "(0, 1]" or "(0, inf]". NaN lies in no interval."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    hi_closed = interval[-1] == "]"
    if not ((lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if hi_closed else value < hi)):
        finite = "" if hi_closed and hi == math.inf else "finite and "
        raise ParameterError(
            f"{name} = {value!r} must be {finite}in {interval}")


def check_seed(seed) -> None:
    """Raise :class:`ParameterError` unless ``seed`` is an integer (any
    type with ``__index__``, as numpy's) in [0, inf)."""
    try:
        operator.index(seed)
    except TypeError:
        raise ParameterError(
            f"seed = {seed!r} must be an integer in [0, inf)") from None
    check_in("seed", seed, "[0, inf)")


def decode_utf8(data: bytes, path, error: type) -> str:
    """``data`` as UTF-8 text; ``error`` names ``path`` and the offset of
    the first byte that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {data[exc.start]:#04x} at offset "
                    f"{exc.start} is not UTF-8") from None
