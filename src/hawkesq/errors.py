"""Exception types shared across the package, and the rule that reads a
config value of a given kind or refuses it with a ConfigurationError."""
from numbers import Real


class HawkesqError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HawkesqError):
    """Invalid model/experiment configuration (CLI exit code 2)."""


class IntegrabilityError(ConfigurationError):
    """A required integral of the kernel diverges."""


class NumericalError(HawkesqError):
    """Solver/quadrature failure (CLI exit code 3)."""


class StabilityError(NumericalError):
    """Branching cascade failed to go extinct within the generation cap."""


class TruncationError(NumericalError):
    """Reported truncation tail bound exceeds the requested tolerance."""


def config_value(key: str, value, kind=float):
    """A config value as kind: a str a string, a list a list and a dict an object,
    an int an integral number (2000.0 reads as 2000), a float any real number,
    numpy scalars included; booleans and other kinds are refused.
    Ranges, finiteness included, are checked by the code that uses the value."""
    ok = (isinstance(value, kind) if kind in (str, list, dict) else
          isinstance(value, Real) and not isinstance(value, bool)
          and not (kind is int and not float(value).is_integer()))
    if not ok:
        what = {str: "a string", list: "a list", dict: "an object", int: "an integer",
                float: "a number"}[kind]
        raise ConfigurationError(f"config field {key!r} must be {what}, not {value!r}")
    return kind(value)


def config_list(key: str, values) -> list:
    """A config list of numbers, each through `config_value`."""
    return [config_value(key, v) for v in config_value(key, values, list)]
