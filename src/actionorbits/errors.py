"""Exception types shared across the package, and the one check of a
number argument: :func:`integer` and :func:`real`."""

from __future__ import annotations

import numbers

_AT_LEAST = {None: "an integer", 0: "a non-negative integer",
             1: "a positive integer"}


def integer(value, name: str, least: int | None = None,
            error: type[Exception] = ValueError) -> int:
    """``value`` as a plain int: an integral number (a NumPy integer is
    one, a bool is not) of at least ``least`` (None, 0 or 1); else raise
    ``error`` naming ``name``."""
    number = value if type(value) is int else (   # the ABC check costs ~1 us
        int(value) if isinstance(value, numbers.Integral)
        and not isinstance(value, bool) else None)
    if number is None or least is not None and number < least:
        raise error(f"{name} must be {_AT_LEAST[least]}, got {value!r}")
    return number


def real(value, name: str) -> float | int:
    """``value`` as a plain number: a real number that is not a bool (a str
    is not one), an int when it is integral and a float otherwise, so a
    record writes it as given; else raise ValueError naming ``name``.
    Range and finiteness are the caller's to check."""
    if type(value) in (float, int):   # the ABC check costs ~1 us
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else float(value)


class OrbitError(Exception):
    """Base class for package-specific errors."""


class CollisionError(OrbitError):
    """Two bodies closer than the collision threshold.

    Attributes:
        pair: indices (i, j) of the offending bodies.
        t: time of the violation, when known.
        distance: offending separation, when known.
    """

    def __init__(self, pair, t=None, distance=None, context=""):
        self.pair = tuple(int(p) for p in pair)
        self.t = None if t is None else float(t)
        self.distance = None if distance is None else float(distance)
        msg = f"bodies {self.pair[0]} and {self.pair[1]} below collision threshold"
        if self.distance is not None:
            msg += f" (separation {self.distance:.3e})"
        if self.t is not None:
            msg += f" at t={self.t:.6f}"
        if context:
            msg += f" [{context}]"
        super().__init__(msg)


class IntegrationError(OrbitError):
    """Numerical integration failed or produced a non-finite state.

    Attributes:
        t: time at which the failure was detected, when known.
    """

    def __init__(self, message="", t=None):
        self.t = None if t is None else float(t)
        super().__init__(message)


class LayoutError(OrbitError, ValueError):
    """Inconsistent reduced-coefficient layout or schedule/layout mismatch."""


class RecordError(OrbitError, ValueError):
    """Orbit record failed to parse, validate, or round-trip."""
