"""Homogeneous pairwise potential parameters.

The pair interaction between bodies i and j separated by r is

    V_ij(r) = c_ij * r**alpha,        alpha < 2, alpha != 0,

with c_ij = -G m_i m_j for alpha < 0 (Newtonian gravity at alpha = -1,
a strong-force-like law at alpha = -2) and c_ij = +G m_i m_j for
0 < alpha < 2, so the force is attractive in every supported case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import real


@dataclass(frozen=True)
class PotentialSpec:
    """Coupling constants of the homogeneous pair potential.

    Args:
        alpha: homogeneity degree (< 2, nonzero).
        G: overall coupling; G = 0 switches interactions off entirely,
           which is useful for kinetic-only checks.
        softening: optional length added in quadrature to separations,
           for diagnostics only (default 0 = hard potential).
    """

    alpha: float = -1.0
    G: float = 1.0
    softening: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "G", "softening"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not math.isfinite(self.alpha) or self.alpha >= 2.0 or self.alpha == 0.0:
            raise ValueError(f"potential requires alpha < 2 and alpha != 0, got {self.alpha}")
        if not (math.isfinite(self.G) and self.G >= 0.0):
            raise ValueError(f"coupling G must be non-negative, got {self.G}")
        if not (math.isfinite(self.softening) and self.softening >= 0.0):
            raise ValueError(f"softening must be non-negative, got {self.softening}")

    def pair_coupling(self, m_i: float, m_j: float) -> float:
        """Signed coefficient c_ij so that V_ij = c_ij * r**alpha is attractive."""
        sign = -1.0 if self.alpha < 0.0 else 1.0
        return sign * self.G * m_i * m_j
