"""Exception types shared across the package.

Every failure mode surfaced by the numerical layers maps to one of these, so
the CLI can translate them into stable exit codes (1 = configuration,
2 = numerical/model violation, 3 = I/O).
"""


class MqedError(Exception):
    """Base class for all package errors."""


class ConfigError(MqedError):
    """Base class for configuration/parsing problems (exit code 1)."""


class ParseError(ConfigError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ConfigError):
    def __init__(self, message, key=None):
        self.key = key
        if key is not None:
            message = f"key '{key}': {message}"
        super().__init__(message)


class NumericalError(MqedError):
    """Base class for numerical/model violations (exit code 2)."""


class ZeroWaveVector(NumericalError):
    pass


class ZeroFrequency(NumericalError):
    pass


class NotHermitian(NumericalError):
    pass


class NotPSD(NumericalError):
    def __init__(self, message, index=()):
        self.index = index  # the failing matrix's index in its stack
        super().__init__(message)


class NotOrthogonal(NumericalError):
    pass


class OutOfTableRange(NumericalError):
    pass


class QuadratureNotConverged(NumericalError):
    pass


class TailNotDecayed(NumericalError):
    pass


class GridTooCoarse(NumericalError):
    pass


class BudgetExceeded(NumericalError):
    pass


class LeftHalfPlane(NumericalError):
    pass


class PoleFindingFailed(NumericalError):
    pass


class LineNotConverged(NumericalError):
    pass
