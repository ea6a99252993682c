"""Uniform periodic quadrature over one period [0, 2*pi).

On N equispaced nodes the trapezoidal rule (equivalently, the rectangle
rule for periodic integrands) integrates trigonometric polynomials of
degree < N exactly, so node counts comfortably above twice the truncation
order make products of two band-limited series exact and keep smooth
potential terms spectrally accurate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class QuadratureGrid:
    """N uniform nodes t_j = 2*pi*j/N with equal weights 2*pi/N."""

    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"grid node count must be an integer, got {self.n!r}")
        if self.n < 4:
            raise ValueError(f"grid needs at least 4 nodes, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @classmethod
    def for_kmax(cls, k_max: int) -> "QuadratureGrid":
        """Default grid for series truncated at k_max: N = 4*k_max + 4."""
        return cls(4 * int(k_max) + 4)

    @cached_property
    def nodes(self) -> np.ndarray:
        t = np.arange(self.n, dtype=float) * (TWO_PI / self.n)
        t.setflags(write=False)
        return t

    @property
    def weight(self) -> float:
        return TWO_PI / self.n

    def supports(self, k_max: int) -> bool:
        """Whether the grid meets the resolution floor N >= 4*k_max + 2."""
        return self.n >= 4 * int(k_max) + 2

    def require(self, k_max: int) -> None:
        if not self.supports(k_max):
            raise ValueError(
                f"grid with {self.n} nodes cannot resolve k_max={k_max}; "
                f"need at least {4 * int(k_max) + 2}"
            )

    def integrate(self, samples: np.ndarray) -> np.ndarray:
        """Integrate sampled values over the period along the last axis."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape[-1] != self.n:
            raise ValueError(
                f"samples have {samples.shape[-1]} nodes, grid has {self.n}"
            )
        return samples.sum(axis=-1) * self.weight
