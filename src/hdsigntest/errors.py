"""Exception types raised by the statistics, estimators and harness, and
the argument checks that they share."""

import numbers


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


def require_integers(error, **values) -> None:
    """Raise ``error`` naming the first of ``values`` that is not a Python
    or NumPy integer; a bool is refused, although Python counts it as one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")


def require_counts(error, **values) -> list:
    """Raise ``error`` naming the first of ``values`` that is not an
    integer of at least 1; return them as Python ints, in order, so that
    a NumPy integer count puts no NumPy scalar in a rate, report or file."""
    require_integers(error, **values)
    for name, value in values.items():
        if value < 1:
            raise error(f"{name} must be at least 1, got {value}")
    return [int(value) for value in values.values()]


def require_pairs(error, items, noun: str, fields: str, label: str, check) -> None:
    """Raise ``error`` unless ``items`` is a nonempty list or tuple of
    distinct pairs (two-element lists or tuples), each accepted by
    ``check(first, second)``.

    ``noun`` names one pair and ``fields`` its two parts, and
    ``label.format(first, second)`` names a repeated pair: "test",
    "(stat, method)" and "the {} {} test" for a test list.  ``check`` runs
    before the repeat lookup, which needs it to refuse every pair that
    cannot be hashed.  A one-shot iterator is refused, as a check would use
    it up.
    """
    if not isinstance(items, (list, tuple)):
        raise error(f"{noun}s must be a list or tuple of {fields} pairs, "
                    f"not {type(items).__name__}")
    if not items:
        raise error(f"{noun} list is empty")
    seen = set()
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise error(f"each {noun} must be a {fields} pair, not {item!r}")
        check(*item)
        if tuple(item) in seen:
            raise error(f"{label.format(*item)} is listed twice")
        seen.add(tuple(item))


def require_reals(error, **values) -> None:
    """Raise ``error`` naming the first of ``values`` that is not a real
    number (a Python or NumPy integer or float, not a bool)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be a real number, got {value!r}")


def require_level(error, name: str, value) -> None:
    """Raise ``error`` unless ``value`` is a real number in the open
    interval (0, 1)."""
    require_reals(error, **{name: value})
    if not 0.0 < value < 1.0:
        raise error(f"{name} must be in (0, 1), got {value}")


def require_seed(error, name: str, seed) -> None:
    """Raise ``error`` unless ``seed`` is an integer of at least 0, as
    NumPy's seeding accepts it."""
    require_integers(error, **{name: seed})
    if seed < 0:
        raise error(f"{name} must be non-negative, got {seed}")
