"""Exception types raised by the statistics, estimators and harness."""


class HDTestError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(HDTestError, ValueError):
    """An argument has an invalid value; also a ValueError, so callers
    that catch ValueError still catch it."""


class ZeroVectorError(HDTestError):
    """A spatial sign was requested for a zero vector.

    The tests assume continuous data, so a zero observation, pairwise sum
    or cross-sample difference signals degenerate input rather than a
    term to be skipped.
    """


class TooFewObservationsError(HDTestError):
    """A statistic or estimator received fewer rows than it needs."""


class DimensionMismatchError(HDTestError):
    """Two samples do not share the same number of columns."""


class DegenerateVarianceError(HDTestError):
    """The estimated variance of a statistic is zero (constant data)."""


class MismatchedAuxiliaryError(HDTestError):
    """Latent-scale auxiliary data does not match the sample sizes."""


class NonpositiveScaleError(HDTestError):
    """A scale sampler produced a value that is not strictly positive."""


class InvalidSpecError(HDTestError):
    """A generator or experiment specification has invalid parameters."""


class SubsampleTooSmallError(HDTestError):
    """A subsample protocol request cannot produce large enough groups."""


class EmptyInputError(HDTestError):
    """An aggregation step received no data."""


class DataFileError(HDTestError):
    """A CSV data file could not be parsed into an observation matrix."""
