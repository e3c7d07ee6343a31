"""Exception types shared across the package.

The CLI maps ``ConfigError`` to exit code 3, ``UsageError`` to 2 and every
other ``ModelError`` to 1. The input-error types also derive from
``ValueError``, so library callers may catch them as such.
"""


class ModelError(Exception):
    """Base class for every error this package raises on purpose."""


class UsageError(ModelError, ValueError):
    """The caller's input is at fault: an argument outside what the model
    accepts. The CLI maps these to exit code 2."""


class ConfigError(ModelError):
    """Base class for configuration problems; the CLI maps these to exit code 3."""


class ConfigParseError(ConfigError):
    """Malformed config text: bad line syntax, unknown key, non-numeric value."""


class ConfigInvariantError(ConfigError):
    """Structurally valid config whose values break a characterization invariant."""


class PatternError(UsageError):
    """A bit pattern argument is not a string of '0'/'1' of admissible length."""


class DegenerateCoverage(ModelError, ValueError):
    """Covered length outside (0, nominal] passed to resistance rescaling."""


class DomainCountTooSmall(UsageError):
    """Domain count below the operation's minimum."""


class DomainCountTooLarge(UsageError):
    """Domain count above the operation's enumeration guard."""


class OracleMismatch(ModelError):
    """Production result disagrees with the independent reference path."""


class OffsetOutOfRange(UsageError):
    """Misalignment offset beyond the admissible +/- notch length window, or
    one that leaves an edge domain no covered length."""


class EmptyNetwork(ModelError, ValueError):
    """Parallel combination of zero branches requested."""
