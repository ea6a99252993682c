"""Exception types shared across the package."""

from __future__ import annotations


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
