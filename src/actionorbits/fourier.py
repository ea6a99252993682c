"""Truncated Fourier series for 2*pi-periodic coordinates.

A coordinate is represented as

    x(t) = sum_k a_k sin(k t) + sum_k b_k cos(k t),    0 <= t < 2*pi,

with a finite number of harmonics.  Coefficients are stored densely,
indexed by harmonic number ``k`` (``sin`` has no k=0 entry; ``cos`` k=0 is
the constant term).  Series are immutable: every mutation helper returns a
new instance, and parity masks are enforced when coefficients are written,
never by silently dropping entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import NormalizationError, ParityError

TWO_PI = 2.0 * math.pi

SIN = "sin"
COS = "cos"
BASES = (SIN, COS)


class Parity(Enum):
    """Which harmonics a series may populate."""

    ALL = "all"
    ODD_ONLY = "odd_only"

    def allows(self, k: int) -> bool:
        return k % 2 == 1 if self is Parity.ODD_ONLY else True


def trig_table(t: np.ndarray, harmonics: int) -> tuple[np.ndarray, np.ndarray]:
    """(sin(k t), cos(k t)) for k = 1..``harmonics``, harmonic along the
    last axis: the part of an evaluation that depends only on the times."""
    ang = np.multiply.outer(t, np.arange(1, harmonics + 1, dtype=float))
    return np.sin(ang), np.cos(ang)


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


def evaluate(coeffs, t: np.ndarray, order: int) -> np.ndarray:
    """Derivative of order 0, 1 or 2 at times ``t``: :func:`contract` on
    the series' own :func:`trig_table`."""
    return contract(trig_table(t, coeffs[0].shape[0] - 1), coeffs, order)


def _frozen(values, length: int) -> np.ndarray:
    arr = np.zeros(length, dtype=float)
    if values is not None:
        src = np.asarray(values, dtype=float)
        arr[: src.size] = src
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FourierSeries:
    """One periodic coordinate as a finite sin/cos expansion.

    Args:
        sin: dense sine coefficients, ``sin[k]`` for harmonic k (entry 0 unused).
        cos: dense cosine coefficients, ``cos[k]``; ``cos[0]`` is the constant.
        parity: harmonic mask, enforced on construction.
    """

    sin: np.ndarray
    cos: np.ndarray
    parity: Parity = Parity.ALL

    def __post_init__(self):
        length = max(np.shape(self.sin)[0] if np.ndim(self.sin) else 1,
                     np.shape(self.cos)[0] if np.ndim(self.cos) else 1, 1)
        object.__setattr__(self, "sin", _frozen(self.sin, length))
        object.__setattr__(self, "cos", _frozen(self.cos, length))
        if not (np.all(np.isfinite(self.sin)) and np.all(np.isfinite(self.cos))):
            raise ValueError("Fourier coefficients must be finite")
        if self.sin[0] != 0.0:
            raise ParityError("sine series has no k=0 term")
        for k in range(length):
            if not self.parity.allows(k):
                if self.sin[k] != 0.0 or self.cos[k] != 0.0:
                    raise ParityError(
                        f"harmonic k={k} is disallowed by parity mask {self.parity.value}"
                    )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, k_max: int, parity: Parity = Parity.ALL) -> "FourierSeries":
        return cls(np.zeros(k_max + 1), np.zeros(k_max + 1), parity)

    @classmethod
    def from_coeffs(cls, sin: Mapping[int, float] | None = None,
                    cos: Mapping[int, float] | None = None,
                    k_max: int | None = None,
                    parity: Parity = Parity.ALL) -> "FourierSeries":
        """Build a series from sparse coefficient maps.

        Every key present in the maps must be a harmonic the parity mask
        allows, even if its value is zero.
        """
        sin = dict(sin or {})
        cos = dict(cos or {})
        top = max([0] + [int(k) for k in sin] + [int(k) for k in cos])
        if k_max is None:
            k_max = top
        elif top > k_max:
            raise ValueError(f"coefficient at k={top} exceeds k_max={k_max}")
        a = np.zeros(k_max + 1)
        b = np.zeros(k_max + 1)
        for k, v in sin.items():
            k = int(k)
            if k < 1:
                raise ParityError("sine coefficients require k >= 1")
            if not parity.allows(k):
                raise ParityError(f"harmonic k={k} is disallowed by parity mask {parity.value}")
            a[k] = float(v)
        for k, v in cos.items():
            k = int(k)
            if k < 0:
                raise ValueError("cosine coefficients require k >= 0")
            if not parity.allows(k):
                raise ParityError(f"harmonic k={k} is disallowed by parity mask {parity.value}")
            b[k] = float(v)
        return cls(a, b, parity)

    def with_coeff(self, basis: str, k: int, value: float) -> "FourierSeries":
        """Return a copy with one coefficient replaced (parity enforced)."""
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        k = int(k)
        if basis == SIN and k < 1:
            raise ParityError("sine coefficients require k >= 1")
        if k < 0:
            raise ValueError("harmonic index must be non-negative")
        if not self.parity.allows(k):
            raise ParityError(f"harmonic k={k} is disallowed by parity mask {self.parity.value}")
        length = max(self.k_max, k) + 1
        a = np.zeros(length)
        b = np.zeros(length)
        a[: self.sin.size] = self.sin
        b[: self.cos.size] = self.cos
        (a if basis == SIN else b)[k] = float(value)
        return FourierSeries(a, b, self.parity)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def k_max(self) -> int:
        return self.sin.size - 1

    @property
    def sin_coeffs(self) -> dict[int, float]:
        return {k: float(v) for k, v in enumerate(self.sin) if v != 0.0}

    @property
    def cos_coeffs(self) -> dict[int, float]:
        return {k: float(v) for k, v in enumerate(self.cos) if v != 0.0}

    def eval(self, t):
        """Evaluate x(t); accepts scalars or arrays."""
        return self._eval(t, 0)

    def eval_deriv(self, t, order: int = 1):
        """Evaluate d^order x / dt^order for order 1 or 2."""
        if order not in (1, 2):
            raise ValueError(f"unsupported derivative order {order}")
        return self._eval(t, order)

    def _eval(self, t, order: int):
        t_arr = np.asarray(t, dtype=float)
        out = evaluate((self.sin, self.cos), t_arr, order)
        return float(out) if t_arr.ndim == 0 else out

    def normalize(self, eps: float = 1e-12) -> tuple["FourierSeries", float]:
        """Rescale so the k=1 sine coefficient equals one.

        Returns (normalized series, scale), where scale is the original
        (signed) k=1 sine coefficient.
        """
        a1 = self.sin[1] if self.k_max >= 1 else 0.0
        if abs(a1) < eps:
            raise NormalizationError(
                f"cannot normalize: |a_1|={abs(a1):.3e} below epsilon {eps:.1e}"
            )
        return (1.0 / a1) * self, float(a1)

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        if not isinstance(other, FourierSeries):
            return NotImplemented
        length = max(self.sin.size, other.sin.size)
        a = np.zeros(length)
        b = np.zeros(length)
        a[: self.sin.size] += self.sin
        a[: other.sin.size] += other.sin
        b[: self.cos.size] += self.cos
        b[: other.cos.size] += other.cos
        parity = self.parity if self.parity is other.parity else Parity.ALL
        return FourierSeries(a, b, parity)

    def __mul__(self, scale: float) -> "FourierSeries":
        scale = float(scale)
        return FourierSeries(self.sin * scale, self.cos * scale, self.parity)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return (self.parity is other.parity
                and self.sin.size == other.sin.size
                and bool(np.all(self.sin == other.sin))
                and bool(np.all(self.cos == other.cos)))

    def __repr__(self) -> str:
        return (f"FourierSeries(sin={self.sin_coeffs}, cos={self.cos_coeffs}, "
                f"parity={self.parity.value})")


@dataclass(frozen=True)
class ScalingLaw:
    """Spatial rescaling of a periodic solution to a new period.

    For a homogeneous pairwise potential of degree ``alpha`` (alpha < 2,
    alpha != 0), solutions form families x_T(t) = (T/2*pi)**(2/(2-alpha))
    * x(2*pi*t/T).  The law stores the exponent's ingredients and exposes
    the amplitude factor relative to the 2*pi-period reference.
    """

    alpha: float
    period: float

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha >= 2.0 or self.alpha == 0.0:
            raise ValueError(f"scaling requires alpha < 2 and alpha != 0, got {self.alpha}")
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def scale_factor(self) -> float:
        return (self.period / TWO_PI) ** (2.0 / (2.0 - self.alpha))


def rescale_period(series, law: ScalingLaw):
    """Scale Fourier amplitudes to a new period per the homogeneity law.

    Accepts a single FourierSeries, or any (possibly nested) list/tuple/dict
    of them; the structure is preserved.  Harmonic content is unchanged --
    only amplitudes are multiplied by ``law.scale_factor`` (time is
    reparameterized to [0, 2*pi) by the caller's convention).
    """
    factor = law.scale_factor
    return _map_series(series, lambda s: factor * s)


def _map_series(obj, fn):
    if isinstance(obj, FourierSeries):
        return fn(obj)
    if isinstance(obj, dict):
        return {k: _map_series(v, fn) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        mapped = [_map_series(v, fn) for v in obj]
        return type(obj)(mapped) if isinstance(obj, tuple) else mapped
    raise TypeError(f"cannot rescale object of type {type(obj).__name__}")
