"""Exception hierarchy shared by all stochinv modules, config field parsers
(a field's lower bound is ``as_int``'s ``least``, a count's upper bound
``COUNT_LIMIT``) and the bounded repr."""

import math
import os
import reprlib
from numbers import Integral


class StochinvError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(StochinvError):
    """A numeric or structural parameter is out of its legal range."""


class InvalidArgumentError(StochinvError):
    """Arguments are individually fine but mutually inconsistent."""


class StructureDefinitionError(StochinvError):
    """A structure definition violated the recursion contract
    (bad partition, non-shrinking key set, double-masked partition)."""


class MaskedPartitionError(StructureDefinitionError, InvalidParameterError):
    """Two masked keys share a partition: a definition or a theta mask fault."""


class InvalidTraceError(StochinvError):
    """A trace cannot have been produced by the given definition."""


class InfeasibleGraphError(StochinvError):
    """The input graph admits no structure of the requested kind."""


class InstanceTooLargeError(StochinvError):
    """Exhaustive enumeration exceeded its trace cap."""

    def __init__(self, cap, reached):
        super().__init__(
            f"enumeration exceeded the cap of {cap} traces "
            f"(at least {reached} found)"
        )
        self.cap = cap
        self.reached = reached


class InvalidControlVariateError(StochinvError):
    """A control variate failed its gradient self-test or is not finite."""


class ConfigError(StochinvError):
    """Bad config file, graph file, or command invocation."""


VALUE_REPR_CHARS = 80  # the most of a config value that an error message shows

# Every limit is the character cap, so a value whose repr fits the cap is
# shown in full (a JSON object with its keys sorted).
_VALUE_REPR = reprlib.Repr()
_VALUE_REPR.maxlevel = _VALUE_REPR.maxdict = _VALUE_REPR.maxlist = VALUE_REPR_CHARS
_VALUE_REPR.maxstring = _VALUE_REPR.maxlong = _VALUE_REPR.maxother = VALUE_REPR_CHARS


def bounded_repr(value) -> str:
    """``repr(value)`` cut to at most ``VALUE_REPR_CHARS`` characters."""
    text = _VALUE_REPR.repr(value)
    return text if len(text) <= VALUE_REPR_CHARS else text[:VALUE_REPR_CHARS - 3] + "..."


def as_int(value, field: str, least=None) -> int:
    """``value`` as an int of at least ``least`` (if given); integral floats
    and integer strings are accepted.

    Booleans and non-integral numbers are rejected rather than truncated.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (Integral, str)) and not isinstance(value, bool):
        try:
            number = int(value)
        except ValueError:
            pass
        else:
            if least is None or number >= least:
                return number
            raise ConfigError(f"{field} must be at least {least}, got {number}")
    raise ConfigError(f"{field} must be an integer, got {bounded_repr(value)}")


# The most a config count takes: a (count, count) float64 table stays under
# numpy's 2**63-byte limit, and a count of child streams under the 2**31 of
# numpy's spawn, so a larger count fails here rather than in numpy.
COUNT_LIMIT = 10**9


def as_count(value, field: str, least=None) -> int:
    """``value`` as ``as_int`` reads it, of at most ``COUNT_LIMIT``."""
    number = as_int(value, field, least)
    if number > COUNT_LIMIT:
        raise ConfigError(f"{field} must be at most {COUNT_LIMIT}, got {bounded_repr(number)}")
    return number


def as_float(value, field: str) -> float:
    """``value`` as a finite float; numeric strings are accepted.

    Booleans, NaN and infinities are rejected rather than coerced.
    """
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{field} must be a finite number, got {bounded_repr(value)}")


def as_path(value, field: str) -> str:
    """``value`` as a file path: it must be a string.

    Anything else is rejected, so a number never opens a file descriptor.
    """
    if isinstance(value, str):
        return value
    raise ConfigError(f"{field} must be a file path, got {bounded_repr(value)}")


def as_output_path(value, field: str) -> str:
    """``value`` as a path to write: a string naming a file, not a directory,
    in a directory that exists.  Commands check it before any work."""
    path = as_path(value, field)
    if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write {field} {bounded_repr(path)}: "
                          "not a file in an existing directory")
    return path
