"""Exception types shared across the package."""


class ThermoQmError(Exception):
    """Base class for all package errors."""


class InvalidMatrix(ThermoQmError):
    """Transition matrix is not square 0/1 or has an empty row/column."""


class NotPrimitive(ThermoQmError):
    """No power of the transition matrix is entrywise positive."""


class ResourceLimit(ThermoQmError):
    """An enumeration would exceed the configured word cap."""


class ZeroMass(ThermoQmError):
    """A cylinder that must carry mass has none."""


class DepthExceeded(ThermoQmError):
    """Evaluation requested beyond the tabulated depth."""


class MeanNotZero(ThermoQmError):
    """A zero-mean precondition failed."""


class SingularSystem(ThermoQmError):
    """Linear solve failed; usually a non-primitive chain leaked through."""


class NumericalFailure(ThermoQmError):
    """Eigen computation did not produce a valid Perron pair."""


class DegenerateSigma(ThermoQmError):
    """Asymptotic variance is zero; the normalized statistic is meaningless."""


class InconsistentVerdicts(ThermoQmError):
    """Variance and periodic-orbit tests disagree about triviality."""


class InvalidConfig(ThermoQmError):
    """Malformed or unknown experiment configuration."""
