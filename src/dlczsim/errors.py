"""Exception types shared across the package, the interval check of
scalar parameters and its integer form (seeds, trial counts), the one
reader of input files (config and CSV alike) that raise them, and the base
of the records whose construction checks its fields.

The CLI maps these onto exit codes: parameter/schema problems are exit 2,
numeric failures (fits, degenerate statistics) exit 3, I/O errors exit 4.
"""

import inspect
import math
import operator
from pathlib import Path


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
    # an integer end stays exact: as a float, 2**63 - 1 would round up
    lo, hi = (int(end) if end.strip().lstrip("-").isdigit() else float(end)
              for end in interval[1:-1].split(","))
    hi_closed = interval[-1] == "]"
    if not ((lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if hi_closed else value < hi)):
        finite = "" if hi_closed and hi == math.inf else "finite and "
        raise ParameterError(
            f"{name} = {value!r} must be {finite}in {interval}")


def check_integer(name: str, value, interval: str) -> None:
    """:func:`check_in` for an integer: any type with ``__index__``, as
    numpy's."""
    try:
        operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} = {value!r} must be an integer in {interval}") from None
    check_in(name, value, interval)


def check_seed(seed) -> None:
    """Raise :class:`ParameterError` unless ``seed`` is an integer in
    [0, inf)."""
    check_integer("seed", seed, "[0, inf)")


def read_lines(path, error: type, digest=None) -> tuple:
    """The provenance (``# key = value`` comments) of an input file and
    its other non-blank lines, stripped, with their 1-based numbers.

    The file is read once, and ``digest`` (a hashlib object), if given, is
    updated with its bytes. Unless they are all UTF-8, ``error`` names
    ``path`` and the offset of the first byte that is not; one leading
    byte-order mark is then dropped."""
    data = Path(path).read_bytes()
    if digest is not None:
        digest.update(data)
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {data[exc.start]:#04x} at offset "
                    f"{exc.start} is not UTF-8") from None
    provenance, body = {}, []
    for lineno, line in enumerate(map(str.strip, text.splitlines()), 1):
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                provenance[key.strip()] = value.strip()
        elif line:
            body.append((lineno, line))
    return provenance, body


class Record:
    """Base of the validated records: immutable values whose fields are
    the subclass's annotations, in order, with class-attribute defaults.

    The constructor takes the fields by position or keyword and then runs
    the subclass's ``__post_init__`` checks; ``_replace(**changes)`` builds
    a changed copy through it, so the checks run again. Records compare
    and hash by their field values, and ``inspect.signature`` of the class
    lists the fields. Nothing is generated per class.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(annotations)
        cls._field_set = frozenset(annotations)
        cls._defaults = {name: cls.__dict__[name] for name in annotations
                         if name in cls.__dict__}
        cls.__signature__ = inspect.Signature([inspect.Parameter(
            name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=kind,
            default=cls._defaults.get(name, inspect.Parameter.empty))
            for name, kind in annotations.items()], return_annotation=None)

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        values = ({**self._defaults, **given}
                  if len(given) < len(self._fields) else given)
        if (len(given) != len(args) + len(kwargs)  # repeated or surplus
                or len(values) != len(self._fields)
                or kwargs and not kwargs.keys() <= self._field_set):
            self.__signature__.bind(*args, **kwargs)  # raises the TypeError
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _replace(self, **changes):
        """A copy with ``changes`` applied, checked like a new record."""
        return type(self)(**{**self.__dict__, **changes})

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"
