"""Truncated Fourier series for 2*pi-periodic coordinates.

A coordinate is represented as

    x(t) = sum_k a_k sin(k t) + sum_k b_k cos(k t),    0 <= t < 2*pi,

with a finite number of harmonics.  Coefficient tables are dense, indexed
by harmonic number ``k`` along their first axis (``sin`` has no k=0 entry;
``cos`` k=0 is the constant term).  A generator coordinate carries only its
:class:`Harmonics` shape; the coefficients live in the reduced parameters
and are evaluated by :func:`trig_table` and :func:`contract`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import integer, real

TWO_PI = 2.0 * math.pi

SIN = "sin"
COS = "cos"


class Parity(Enum):
    """Which harmonics a series may populate."""

    ALL = "all"
    ODD_ONLY = "odd_only"

    def allows(self, k: int) -> bool:
        return k % 2 == 1 if self is Parity.ODD_ONLY else True


def trig_table(t: np.ndarray, harmonics: int) -> tuple[np.ndarray, np.ndarray]:
    """(sin(k t), cos(k t)) for k = 1..``harmonics``, harmonic along the
    last axis: the part of an evaluation that depends only on the times.
    A series shifted in time reads the same table through its
    :func:`shift`-ed coefficients."""
    ang = np.multiply.outer(t, np.arange(1, harmonics + 1, dtype=float))
    return np.sin(ang), np.cos(ang)


def shift_table(phases, offsets, harmonics: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """(sin(k sigma), cos(k sigma)) for k = 1..``harmonics`` at each shift
    sigma = phase + offset of the paired sequences, harmonic along the last
    axis.  The sines and cosines of k phase and k offset are taken in one
    call each and joined by angle addition, so the sum phase + offset,
    which can exceed 2 pi, is never rounded."""
    n = len(phases)
    ang = np.multiply.outer(np.concatenate([phases, offsets]),
                            np.arange(1, harmonics + 1, dtype=float))
    s, c = np.sin(ang), np.cos(ang)
    return (s[:n] * c[n:] + c[:n] * s[n:]), (c[:n] * c[n:] - s[:n] * s[n:])


def shift(coeffs, sin_k: np.ndarray, cos_k: np.ndarray) -> np.ndarray:
    """Coefficients (sin, cos) of x(t + sigma) from those of x(t), one copy
    per row of a :func:`shift_table` (sin_k, cos_k) of shape (R, H), in an
    array of shape (R, 2, H + 1, ...): by angle addition,
    a'_k = a_k cos k sigma - b_k sin k sigma and
    b'_k = a_k sin k sigma + b_k cos k sigma,
    over any trailing batch axis.  The constant term stays.  With
    -sin(k sigma) it is the transpose, which carries a gradient over the
    shifted coefficients back onto the unshifted."""
    sin, cos = coeffs
    a, b = sin[1:], cos[1:]
    shape = sin_k.shape + (1,) * (a.ndim - 1)
    s, c = sin_k.reshape(shape), cos_k.reshape(shape)
    out = np.empty((len(sin_k), 2) + sin.shape)
    out[:, 0, 0], out[:, 1, 0] = sin[0], cos[0]
    out[:, 0, 1:] = a * c - b * s
    out[:, 1, 1:] = a * s + b * c
    return out


def contract(table, coeffs, order: int) -> np.ndarray:
    """Derivative of order 0, 1 or 2 of the series whose ``coeffs`` = (sin,
    cos) are indexed by harmonic along axis 0, at the times of a
    :func:`trig_table` with as many harmonics; a trailing batch axis on the
    coefficients trails the result too."""
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {order!r}")
    s, c = table
    sin, cos = coeffs
    a, b = sin[1:], cos[1:]
    if order == 0:
        return s @ a + c @ b + cos[0]
    ks = np.arange(1, a.shape[0] + 1, dtype=float)
    ks = ks.reshape(ks.shape + (1,) * (a.ndim - 1))
    if order == 1:
        return c @ (ks * a) - s @ (ks * b)
    k2 = ks * ks
    return -(s @ (k2 * a) + c @ (k2 * b))


@dataclass(frozen=True)
class Harmonics:
    """The harmonic shape of one generator coordinate: its truncation order
    and which harmonics it may populate.  The coefficients themselves live
    in the reduced parameters."""

    k_max: int
    parity: Parity = Parity.ALL

    def __post_init__(self):
        object.__setattr__(self, "k_max", integer(self.k_max, "k_max", least=0))
        if not isinstance(self.parity, Parity):
            raise ValueError(f"parity must be a Parity, got {self.parity!r}")


@dataclass(frozen=True)
class ScalingLaw:
    """Spatial rescaling of a periodic solution to a new period.

    For a homogeneous pairwise potential of degree ``alpha`` (alpha < 2,
    alpha != 0), solutions form families x_T(t) = (T/2*pi)**(2/(2-alpha))
    * x(2*pi*t/T).  The law stores the exponent's ingredients and exposes
    the amplitude factor relative to the 2*pi-period reference; sampling is
    linear in the coefficients, so scaling reduced values by it scales
    every coordinate.
    """

    alpha: float
    period: float

    def __post_init__(self):
        for name in ("alpha", "period"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not math.isfinite(self.alpha) or self.alpha >= 2.0 or self.alpha == 0.0:
            raise ValueError(f"scaling requires alpha < 2 and alpha != 0, got {self.alpha}")
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def scale_factor(self) -> float:
        return (self.period / TWO_PI) ** (2.0 / (2.0 - self.alpha))
