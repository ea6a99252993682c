"""Reference algebra the tests check the library against.

The library's runtime paths never call these: the sampler reads
``trig_table`` and ``contract`` directly, the gradient reads generator
columns instead of projecting coefficient tables, and the symmetry groups
are built from explicit matrices.  The tests still use them as oracles.
"""

import numpy as np

from actionorbits import OrthTransform
from actionorbits.fourier import contract, trig_table
from actionorbits.symmetry import _BASIS_AXIS


def evaluate(coeffs, t: np.ndarray, order: int) -> np.ndarray:
    """Derivative of order 0, 1 or 2 at times ``t`` of the series whose
    ``coeffs`` = (sin, cos) are indexed by harmonic: ``contract`` on the
    series' own ``trig_table``."""
    return contract(trig_table(t, coeffs[0].shape[0] - 1), coeffs, order)


def project(layout, tables) -> np.ndarray:
    """Chain-rule transpose of ``layout.expand``: full-coefficient gradient
    tables -> reduced gradient vector."""
    out = np.zeros(layout.n_slots)
    for i, s in enumerate(layout.slots):
        out[i] += tables[s.gen][s.channel, _BASIS_AXIS[s.basis], s.k]
    for c in layout.couplings:
        out[c.slot] += c.sign * tables[c.gen][c.channel, _BASIS_AXIS[c.basis], c.k]
    return out


def compose(a: OrthTransform, b: OrthTransform) -> OrthTransform:
    """The transform that applies ``b``, then ``a``."""
    return OrthTransform(a.matrix @ b.matrix)


def inverse(a: OrthTransform) -> OrthTransform:
    """The inverse of a signed permutation: its transpose."""
    return OrthTransform(a.matrix.T)
