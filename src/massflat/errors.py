"""Exception taxonomy used across the package, and the two input gates:
every radius or arclength query passes ``checked_range`` and every positive
parameter passes ``positive``.

The CLI maps these onto exit codes: usage, parse and parameter errors exit
with 2, while profiles that fail validation and windows that do not fit the
truncated model exit with 1.
"""

import math

import numpy as np

__all__ = [
    "MassflatError",
    "DomainError",
    "RangeError",
    "ProfileFormatError",
    "InvalidProfileError",
    "WindowOverflowError",
    "QuadratureError",
    "CertificateError",
]


class MassflatError(Exception):
    """Base class for all package errors."""


class DomainError(MassflatError, ValueError):
    """A parameter is outside the mathematical domain of an operation."""


class RangeError(DomainError):
    """A radius or arclength query falls outside the model's range."""


class ProfileFormatError(MassflatError, ValueError):
    """A serialized profile does not match the schema."""


class InvalidProfileError(MassflatError, ValueError):
    """A profile failed validation and cannot back a manifold model."""


class WindowOverflowError(MassflatError, RuntimeError):
    """The requested tubular window does not fit below r_cap."""


class QuadratureError(MassflatError, RuntimeError):
    """Adaptive quadrature failed to converge on some interval."""


class CertificateError(MassflatError, RuntimeError):
    """An internal consistency assertion of a certificate failed."""


def checked_range(x, lo: float, hi: float, what: str):
    """x as a float array clipped to [lo, hi], and whether x was a scalar.

    NaN, or a value more than 1e-12 times the larger finite end past an end,
    raises RangeError; round-off within that relative slack is clipped.
    """
    arr = np.asarray(x, dtype=float)
    scalar, arr = arr.ndim == 0, np.atleast_1d(arr)
    # min and max propagate NaN, so in-range input costs two reductions
    if arr.size and not (arr.min() >= lo and arr.max() <= hi):
        slack = 1e-12 * max(abs(lo), abs(hi) if math.isfinite(hi) else 0.0)
        bad = ~((arr >= lo - slack) & (arr <= hi + slack))
        if np.any(bad):
            raise RangeError(f"{what} {float(arr[bad][0])!r} outside "
                             f"[{float(lo)!r}, {float(hi)!r}]")
        arr = np.clip(arr, lo, hi)
    return arr, scalar


def positive(value, name: str) -> float:
    """value as a float; DomainError unless it is finite and positive."""
    x = float(value)
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"{name} must be finite and positive, got {x!r}")
    return x
