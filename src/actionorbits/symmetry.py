"""Symmetry-constrained orbit families.

An :class:`OrbitModel` describes n bodies whose trajectories are all drawn
from a small set of generator curves: body i follows

    x_i(t) = R_i . g_{G(i)}(t + phi_i)

where R_i is a signed permutation matrix, phi_i a phase offset, and g a
generator built from Fourier series.  A :class:`ParamLayout` lists the
free ("reduced") coefficients and sign couplings that tie the remaining
coefficients to them, so symmetry constraints hold exactly at every
parameter value instead of being projected back after each step.  It is
the one place that validates a layout's targets (:class:`Slot` and
:class:`Coupling` are plain values), and a value compared and hashed
without its masses.  :func:`space_time_orbits` groups the
(body, node) pairs of a quadrature grid that the model's symmetries carry
onto each other -- the claimed ones and those of the bindings, each
checked on every slot's unit vector -- so that the descent evaluates the
forces at one pair per group.

Built-in families:

* ``build_cubic_family(m)`` -- 4m equal masses on four loops related by the
  Klein four-group of double sign flips; each loop carries m bodies at
  Lagrange phases 2*pi*j/m.  One odd-harmonic sine generator f yields the
  loop as (f(t), f(t + 2*pi/3), f(t + 4*pi/3)).
* ``build_crisscross(masses)`` -- three planar bodies with x_i even and
  y_i odd in t (cosine / sine series, odd harmonics).  For equal masses the
  free coefficients reduce to body 1's two series plus body 3's x series,
  with signed couplings filling in the rest.
* ``build_choreography(n, ...)`` -- n bodies sharing a single curve at
  phases 2*pi*j/n.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import CollisionError, LayoutError, integer, real
from .fourier import (COS, SIN, Harmonics, Parity, contract, shift,
                      shift_table, trig_table)
from .potential import PotentialSpec
from .quadrature import QuadratureGrid

TWO_PI = 2.0 * math.pi
SYMMETRY_TOL = 1e-9     # the orbit certificate's bound on a symmetry error

# ----------------------------------------------------------------------
# signed permutation transforms and finite groups
# ----------------------------------------------------------------------


# the 48 signed permutation matrices, each as its row-major tuple of ints
_SIGNED_PERMUTATIONS = frozenset(
    tuple(sign * (j == col) for col, sign in zip(perm, signs) for j in range(3))
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3))


class OrthTransform:
    """A 3x3 signed permutation matrix, checked by lookup in the table of
    all 48 and immutable: ``matrix`` is a read-only int array, and the
    row-major tuple of its entries as Python ints is ``key()``."""

    __slots__ = ("matrix", "_key")

    def __init__(self, matrix):
        m = np.asarray(matrix)
        if m.shape != (3, 3):
            raise ValueError(f"transform must be 3x3, got shape {m.shape}")
        entries = tuple(m.ravel().tolist())
        if entries not in _SIGNED_PERMUTATIONS:
            raise ValueError(f"not a signed permutation matrix: {entries}")
        key = tuple(map(int, entries))
        mi = np.array(key).reshape(3, 3)
        mi.setflags(write=False)
        object.__setattr__(self, "matrix", mi)
        object.__setattr__(self, "_key", key)

    def __setattr__(self, *_):
        raise AttributeError("an OrthTransform cannot be changed")

    __delattr__ = __setattr__

    def __reduce__(self):
        return OrthTransform, (self.matrix.tolist(),)

    @property
    def det(self) -> int:
        return int(round(np.linalg.det(self.matrix)))

    @property
    def n_negative(self) -> int:
        return self._key.count(-1)

    def apply(self, points) -> np.ndarray:
        """Apply to one or many 3-vectors (last axis is the coordinate)."""
        return np.asarray(points, dtype=float) @ self.matrix.T

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, OrthTransform) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"OrthTransform({self.matrix.tolist()})"


IDENTITY = OrthTransform(np.eye(3, dtype=int))


def klein_elements() -> list[OrthTransform]:
    """Identity plus the three diagonal double sign flips, in a new list."""
    return list(_klein())


@functools.cache
def _klein() -> tuple[OrthTransform, ...]:
    patterns = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    return tuple(OrthTransform(np.diag(p)) for p in patterns)


def all_signed_permutations() -> list[OrthTransform]:
    """All 48 signed permutation matrices (full cube symmetry group), in
    a new list on each call; the transforms are built on the first."""
    return list(_signed_permutations())


@functools.cache
def _signed_permutations() -> tuple[OrthTransform, ...]:
    return tuple(OrthTransform(np.reshape(key, (3, 3)))
                 for key in sorted(_SIGNED_PERMUTATIONS))


def a4_elements() -> list[OrthTransform]:
    """Rotation group of the cube orientation class, in a new list: the 12
    signed permutations with det +1 and an even number of -1 entries,
    which the Klein four-group and the rotation x -> y -> z -> x generate."""
    return list(_a4())


@functools.cache
def _a4() -> tuple[OrthTransform, ...]:
    return tuple(g for g in _signed_permutations()
                 if g.det == 1 and g.n_negative % 2 == 0)


class Verdict(Enum):
    SAFE = "safe"
    COLLISION = "collision"


def collision_parity_check(m: int) -> Verdict:
    """Whether m bodies per loop avoid forced collisions in the cubic family.

    Two Klein-related loops can only exchange a body when their curve
    parameters differ by half a period; with bodies at phases 2*pi*j/m that
    happens exactly when m is even, so even m forces a collision.
    """
    m = integer(m, "loop occupancy m", least=1)
    return Verdict.COLLISION if m % 2 == 0 else Verdict.SAFE


# ----------------------------------------------------------------------
# generators and bodies
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarGenerator:
    """One scalar series f feeding all three coordinates at fixed offsets:
    g(t) = (f(t + o_0), f(t + o_1), f(t + o_2))."""

    series: Harmonics
    offsets: tuple[float, float, float] = (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0)

    n_channels = 1

    def __post_init__(self):
        offsets = tuple(real(o, "offset") for o in self.offsets)
        if not (len(offsets) == 3 and all(map(math.isfinite, offsets))):
            raise ValueError(f"a scalar generator needs three finite offsets, "
                             f"got {self.offsets!r}")
        object.__setattr__(self, "offsets", offsets)

    @property
    def columns(self) -> tuple[tuple[int, float], ...]:
        return tuple((0, o) for o in self.offsets)

    def channel(self, c: int) -> Harmonics:
        if c != 0:
            raise IndexError("scalar generator has a single channel")
        return self.series


@dataclass(frozen=True)
class VectorGenerator:
    """Three independent coordinate series (x, y, z)."""

    x: Harmonics
    y: Harmonics
    z: Harmonics

    n_channels = 3
    columns = ((0, 0.0), (1, 0.0), (2, 0.0))   # (channel, offset) per coordinate

    def channel(self, c: int) -> Harmonics:
        return (self.x, self.y, self.z)[c]


@dataclass(frozen=True)
class BodyBinding:
    """Places one body on a generator: x(t) = transform . g(t + phase)."""

    generator: int
    transform: OrthTransform
    phase: float
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "generator",
                           integer(self.generator, "generator index", least=0))
        object.__setattr__(self, "mass", real(self.mass, "mass"))
        phase = float(real(self.phase, "phase"))
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not math.isfinite(phase):
            raise ValueError(f"phase must be finite, got {phase}")
        object.__setattr__(self, "phase", phase % TWO_PI)


@dataclass(frozen=True)
class SpaceTimeSymmetry:
    """Claimed invariance: the body set at sigma(t) equals ``transform``
    applied to the body set at t, with sigma(t) = -t if time_reversal else
    t + time_shift."""

    transform: OrthTransform
    time_shift: float = 0.0
    time_reversal: bool = False

    def __post_init__(self):
        shift = real(self.time_shift, "time_shift")
        if not math.isfinite(shift):
            raise ValueError(f"time_shift must be a finite number, got {shift!r}")
        object.__setattr__(self, "time_shift", shift)
        if not isinstance(self.time_reversal, bool):
            raise ValueError(f"time_reversal must be a bool, "
                             f"got {self.time_reversal!r}")


@dataclass(frozen=True)
class Family:
    """Tag identifying which builder produced a model."""

    kind: str  # 'cubic' | 'crisscross' | 'choreography' | 'custom'
    m: int | None = None
    masses: tuple[float, ...] | None = None
    n: int | None = None
    parity: str | None = None


@dataclass(frozen=True)
class OrbitModel:
    """Generators, body bindings, and the interaction they move under.

    Compared field by field; the hash is computed once per model.
    """

    generators: tuple
    bindings: tuple[BodyBinding, ...]
    potential: PotentialSpec
    family: Family
    symmetries: tuple[SpaceTimeSymmetry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "bindings", tuple(self.bindings))
        object.__setattr__(self, "symmetries", tuple(self.symmetries))
        if not self.bindings:
            raise ValueError("model needs at least one body")
        for b in self.bindings:
            if b.generator >= len(self.generators):
                raise ValueError(f"binding references missing generator {b.generator}")

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # the generated hash would rehash every binding on every call
        return hash((self.generators, self.bindings, self.potential,
                     self.family, self.symmetries))

    def __getstate__(self):
        # string hashes differ between processes: a pickle leaves it out
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    @property
    def n_bodies(self) -> int:
        return len(self.bindings)

    @property
    def masses(self) -> np.ndarray:
        return np.array([b.mass for b in self.bindings])

    @property
    def k_max(self) -> int:
        return max(gen.channel(c).k_max
                   for gen in self.generators for c in range(gen.n_channels))


# ----------------------------------------------------------------------
# reduced coefficients
# ----------------------------------------------------------------------

_BASIS_AXIS = {SIN: 0, COS: 1}


@dataclass(frozen=True)
class Slot:
    """One free coefficient: (generator, channel, basis, harmonic)."""

    gen: int
    channel: int
    basis: str
    k: int


@dataclass(frozen=True)
class Coupling:
    """A dependent coefficient tied to a slot by a sign: coeff = sign * value."""

    slot: int
    gen: int
    channel: int
    basis: str
    k: int
    sign: float


@dataclass(frozen=True)
class ParamLayout:
    """Mapping between the reduced vector and the full coefficient tables.

    The one place that checks a target: entry type, basis, integer (not
    bool) indices, the basis's lowest harmonic, generator and channel, the
    harmonic against ``k_max`` and its channel's own :class:`.Harmonics`
    (``k_max``, parity), duplicates, and each coupling's sign (+/-1, kept
    as a plain int or float) and slot (existing, at the same harmonic: the
    kinetic term applies the slot's k to all its coefficients).
    ``kinetic_mass`` follows from the targets and each channel's
    ``channel_multiplicity``; equality and hash exclude both, and the hash
    is computed once per layout.
    """

    slots: tuple[Slot, ...]
    couplings: tuple[Coupling, ...]
    k_max: int
    channels: tuple[tuple[Harmonics, ...], ...]
    channel_multiplicity: tuple[tuple[float, ...], ...] = field(compare=False)
    kinetic_mass: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "channels",
                           tuple(map(tuple, self.channels)))
        mult = tuple(map(tuple, self.channel_multiplicity))
        object.__setattr__(self, "channel_multiplicity", mult)
        if tuple(map(len, mult)) != self.gen_channels:
            raise LayoutError("channel_multiplicity must have one entry "
                              "per channel")
        kinetic = []   # per slot: its channel's multiplicity and its couplings'
        # slots, then couplings: one with a NumPy index or sign is replaced
        # by a copy with plain numbers, which a record writes
        targets, seen = [*self.slots, *self.couplings], set()
        n_slots = len(targets) - len(self.couplings)
        for i, t in enumerate(targets):
            coupled = i >= n_slots
            if not isinstance(t, Coupling if coupled else Slot):
                raise LayoutError(f"expected a {'Coupling' if coupled else 'Slot'}, "
                                  f"got {t!r}")
            if t.basis not in (SIN, COS):
                raise LayoutError(f"unknown basis {t.basis!r}")
            for name in ("gen", "channel", "k", "slot")[:3 + coupled]:
                value = getattr(t, name)
                if type(value) is not int:   # a plain int, the usual case, skips it
                    t = targets[i] = replace(t, **{name: integer(
                        value, name, error=LayoutError)})
            if t.k < (1 if t.basis == SIN else 0):
                raise LayoutError(f"basis {t.basis} cannot hold harmonic k={t.k}")
            if not (0 <= t.gen < len(self.channels)):
                raise LayoutError(f"target references missing generator {t.gen}")
            if not (0 <= t.channel < len(self.channels[t.gen])):
                raise LayoutError(f"generator {t.gen} has no channel {t.channel}")
            series = self.channels[t.gen][t.channel]
            if t.k > self.k_max:
                raise LayoutError(f"harmonic k={t.k} exceeds layout k_max={self.k_max}")
            if t.k > series.k_max:
                raise LayoutError(f"harmonic k={t.k} exceeds the k_max={series.k_max} "
                                  f"of generator {t.gen} channel {t.channel}")
            if not series.parity.allows(t.k):
                raise LayoutError(f"harmonic k={t.k} is disallowed by the "
                                  f"generator's parity mask")
            tgt = (t.gen, t.channel, t.basis, t.k)
            if tgt in seen:
                raise LayoutError(f"duplicate target {tgt}")
            seen.add(tgt)
            if not coupled:
                kinetic.append(mult[t.gen][t.channel])
                continue
            if isinstance(t.sign, (bool, np.bool_)) or t.sign not in (-1.0, 1.0):
                raise LayoutError(f"coupling sign must be +/-1, got {t.sign!r}")
            if type(t.sign) not in (int, float):
                t = targets[i] = replace(t, sign=real(t.sign, "sign"))
            if not (0 <= t.slot < n_slots and targets[t.slot].k == t.k):
                raise LayoutError(f"coupling at k={t.k} needs slot {t.slot} "
                                  f"to exist at the same harmonic")
            kinetic[t.slot] += mult[t.gen][t.channel]
        object.__setattr__(self, "slots", tuple(targets[:n_slots]))
        object.__setattr__(self, "couplings", tuple(targets[n_slots:]))
        km = np.array(kinetic, dtype=float)
        km.setflags(write=False)
        object.__setattr__(self, "kinetic_mass", km)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # hashed once, without the masses, as equality compares
        return hash((self.slots, self.couplings, self.k_max, self.channels))

    def __getstate__(self):
        # string hashes differ between processes: a pickle leaves it out
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    @property
    def gen_channels(self) -> tuple[int, ...]:
        return tuple(map(len, self.channels))

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    @property
    def slot_k(self) -> np.ndarray:
        return np.array([s.k for s in self.slots])

    def expand(self, values: np.ndarray) -> list[np.ndarray]:
        """Reduced vector -> dense per-generator tables (channels, 2, k_max+1);
        values shaped (n_slots, B) add a trailing batch axis."""
        values = np.asarray(values, dtype=float)
        tables = [np.zeros((len(ch), 2, self.k_max + 1) + values.shape[1:])
                  for ch in self.channels]
        for i, s in enumerate(self.slots):
            tables[s.gen][s.channel, _BASIS_AXIS[s.basis], s.k] = values[i]
        for c in self.couplings:
            tables[c.gen][c.channel, _BASIS_AXIS[c.basis], c.k] = c.sign * values[c.slot]
        return tables


@dataclass(frozen=True)
class ReducedParams:
    """A point in the reduced coefficient space."""

    layout: ParamLayout
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.layout.n_slots,):
            raise LayoutError(
                f"expected {self.layout.n_slots} values, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("reduced values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "ReducedParams":
        return ReducedParams(self.layout, values)

    def __len__(self) -> int:
        return self.layout.n_slots


def channel_multiplicity(model: OrbitModel, gen: int, channel: int) -> float:
    """Total mass-weighted number of body coordinates reading a channel.

    A scalar generator feeds all three coordinates of every bound body, a
    vector generator feeds one coordinate per channel.  This is the factor
    that makes the kinetic part of the action diagonal in the reduced
    coefficients: d(int K dt)/d(coeff) = pi * multiplicity * k^2 * coeff.
    """
    reads = sum(ch == channel for ch, _ in model.generators[gen].columns)
    return reads * sum(b.mass for b in model.bindings if b.generator == gen)


def make_layout(model: OrbitModel, slots: Sequence[Slot],
                couplings: Sequence[Coupling] = ()) -> ParamLayout:
    """Assemble a layout for a model (custom-family hook), with the
    model's channel series and multiplicities for :class:`ParamLayout` to
    check the targets against and to weigh their kinetic masses by."""
    channels = tuple(tuple(g.channel(c) for c in range(g.n_channels))
                     for g in model.generators)
    multiplicity = tuple(tuple(channel_multiplicity(model, i, c)
                               for c in range(len(ch)))
                         for i, ch in enumerate(channels))
    return ParamLayout(tuple(slots), tuple(couplings), model.k_max, channels,
                       multiplicity)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def _as_times(times) -> tuple[np.ndarray, bool]:
    if isinstance(times, QuadratureGrid):
        return times.nodes, False
    arr = np.asarray(times, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def sample_tables(model: OrbitModel, tables: Sequence[np.ndarray],
                  t: np.ndarray, orders: Sequence[int]) -> list[np.ndarray]:
    """Body coordinates (n_bodies, n_times[, B], 3) at 1-D times ``t`` from
    :meth:`ParamLayout.expand` tables, with or without a batch axis B: one
    array per derivative order in ``orders``.

    Every column of every (generator, phase) evaluates its series at
    t + sigma, sigma = phase + offset.  All columns read one trig table at
    the times t themselves (the tables share one harmonic count), each
    through its coefficients turned by sigma (:func:`.fourier.shift`): one
    pass per coefficient table, with its columns' sin(k sigma) and
    cos(k sigma) from one :func:`.fourier.shift_table`.  A coefficient
    table read only at sigma = 0, as every criss-cross channel is, is read
    as it is: turning it by 0 gives the same bytes and nearly doubles the
    time of a criss-cross call.  Each column is contracted on its own, so
    a batched table samples each batch entry to the same bits as that
    entry alone.
    """
    shape = (t.size,) + tables[0].shape[3:] + (3,)
    harmonics = tables[0].shape[2] - 1
    # bindings sharing (generator, phase) read the same sampled columns
    keys = dict.fromkeys((b.generator, b.phase) for b in model.bindings)
    sampled = [{key: np.empty(shape) for key in keys} for _ in orders]
    # (generator, channel) -> [(key, column, phase, offset)] it feeds
    reads = {}
    for gen, phase in keys:
        for j, (ch, off) in enumerate(model.generators[gen].columns):
            reads.setdefault((gen, ch), []).append(((gen, phase), j, phase,
                                                    off))
    trig = trig_table(t, harmonics)
    for (gen, ch), group in reads.items():
        targets, js, phases, offsets = zip(*group)
        turned = [tables[gen][ch]] * len(group)
        if any(phase + off for phase, off in zip(phases, offsets)):
            turned = shift(turned[0], *shift_table(phases, offsets,
                                                   harmonics))
        for key, j, coeffs in zip(targets, js, turned):
            for columns, order in zip(sampled, orders):
                columns[key][..., j] = contract(trig, coeffs, order)
    del trig
    out = []
    while sampled:   # each order's columns are dropped once placed
        columns = sampled.pop(0)
        bodies = np.empty((model.n_bodies,) + shape)
        for i, b in enumerate(model.bindings):
            bodies[i] = columns[(b.generator, b.phase)] @ b.transform.matrix.T
        out.append(bodies)
    return out


def sample_positions(model: OrbitModel, params: ReducedParams, times,
                     deriv: int | tuple[int, ...] = 0
                     ) -> np.ndarray | list[np.ndarray]:
    """Sample body positions (deriv=0), velocities (1), or accelerations (2).

    Returns an array of shape (n_bodies, n_times, 3); ``times`` may be a
    QuadratureGrid, an array, or a scalar (squeezed to (n_bodies, 3)).  A
    tuple of orders returns a list with one such array per order, all from
    one sampler pass.
    """
    t, scalar = _as_times(times)
    orders = deriv if isinstance(deriv, tuple) else (deriv,)
    out = sample_tables(model, params.layout.expand(params.values), t, orders)
    if scalar:
        out = [a[:, 0, :] for a in out]
    return out if isinstance(deriv, tuple) else out[0]


# ----------------------------------------------------------------------
# space-time orbits of (body, node) pairs
# ----------------------------------------------------------------------

# Two phases closer than this are one phase.  Bindings that differ only by
# less would put two bodies within about this distance of each other, which
# is a collision, so no model that can be evaluated has such a pair.
_PHASE_TOL = 1e-9
# Two samples of a slot's unit vector closer than this are one value: the
# samples are of order one, and so is the miss of a false element.
_SAMPLE_TOL = 1e-9


def _phase_gap(a: float, b: float) -> float:
    """Distance of two phases on the circle."""
    gap = (a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


@dataclass(frozen=True)
class GridElement:
    """A symmetry that permutes the (body, node) pairs of a uniform grid of
    N nodes: x_{bodies[i]}(t_{tau(j)}) = transform . x_i(t_j) at every
    value of a layout, with tau(j) = (-j if reversal else j) + steps mod N.
    """

    transform: OrthTransform
    bodies: tuple[int, ...]
    reversal: bool
    steps: int

    def node_images(self, n_nodes: int) -> np.ndarray:
        """tau(j) of every node j."""
        j = np.arange(n_nodes)
        return ((-j if self.reversal else j) + self.steps) % n_nodes


@dataclass(frozen=True)
class SpaceTimeOrbits:
    """The orbits of a grid's (body, node) pairs under the group its
    ``elements`` generate.

    ``orbit[i, j]`` numbers the orbit of body i at node j.  The orbits are
    numbered in the order of their representatives, each orbit's first
    pair node by node from the first node (bodies in index order within a
    node): ``bodies[k]`` at ``nodes[k]`` represents orbit k, of
    ``sizes[k]`` pairs.  Every array is read-only.
    """

    elements: tuple[GridElement, ...]
    orbit: np.ndarray
    bodies: np.ndarray
    nodes: np.ndarray
    sizes: np.ndarray


def _grid_elements(model: OrbitModel, layout: ParamLayout,
                   n_nodes: int) -> tuple[GridElement, ...]:
    """The elements that permute the pairs of a grid of ``n_nodes`` nodes
    and hold at every value of ``layout``.

    The candidates are the model's claimed symmetries and the elements
    that carry body 0's binding onto another's, x_i(t) = R_i R_0^-1
    x_0(t + phi_i - phi_0); a candidate whose time map is not the reversal
    or a shift of whole grid steps is dropped.  A claim alone is not
    trusted: each candidate is checked on every slot's unit vector at the
    grid's even nodes (every node on a grid too coarse for that), 2 k_max
    + 2 uniform times or more.  Both sides are trigonometric polynomials
    of degree k_max at most, which those times determine, so sides that
    agree there agree at every time, and by linearity at every value.
    The time map takes those nodes onto the even or the odd nodes, each
    class sampled once.  Each body's image is the body whose unit-vector
    samples match it at the first node; the candidate holds when those
    images are a permutation that keeps every mass and that matches at
    every checked node.
    """
    step = TWO_PI / n_nodes
    candidates: dict[tuple, np.ndarray] = {}

    def offer(matrix: np.ndarray, reversal: bool, shift: float) -> None:
        steps = round(shift / step)
        if _phase_gap(steps * step, shift) < _PHASE_TOL:
            steps %= n_nodes
            if reversal or steps or not np.array_equal(matrix, IDENTITY.matrix):
                candidates.setdefault((reversal, steps, matrix.tobytes()),
                                      matrix)

    for sym in model.symmetries:
        offer(sym.transform.matrix, sym.time_reversal,
              0.0 if sym.time_reversal else sym.time_shift)
    body0 = model.bindings[0]
    for b in model.bindings[1:]:
        offer(b.transform.matrix @ body0.transform.matrix.T, False,
              body0.phase - b.phase)
    if not (candidates and layout.n_slots) or n_nodes <= 2 * layout.k_max:
        return ()
    stride = 2 if n_nodes % 2 == 0 and n_nodes // 2 > 2 * layout.k_max else 1
    checked = np.arange(0, n_nodes, stride)
    units = layout.expand(np.eye(layout.n_slots))
    samples: dict[int, np.ndarray] = {}   # (n, nodes, slots, 3) by class

    def sampled(node_class: int) -> np.ndarray:
        if node_class not in samples:
            samples[node_class] = sample_tables(
                model, units, (checked + node_class) * step, (0,))[0]
        return samples[node_class]

    base, masses = sampled(0), model.masses
    elements = []
    for (reversal, steps, _), matrix in candidates.items():
        images = ((-checked if reversal else checked) + steps) % n_nodes
        image, columns = sampled(images[0] % stride), images // stride
        turn = matrix.T
        # the bodies' turned samples at the first node against every
        # body's at its image
        turned = (base[:, 0].reshape(-1, 3) @ turn).reshape(masses.size, -1)
        targets = image[:, columns[0]].reshape(masses.size, -1)
        gap = np.abs(turned[:, None] - targets[None]).max(axis=2)
        bodies = gap.argmin(axis=1)
        if gap[np.arange(bodies.size), bodies].max() <= _SAMPLE_TOL \
                and np.bincount(bodies).max() == 1 \
                and np.array_equal(masses[bodies], masses) \
                and all(np.abs(base[i].reshape(-1, 3) @ turn
                               - image[b, columns].reshape(-1, 3)).max()
                        <= _SAMPLE_TOL for i, b in enumerate(bodies)):
            elements.append(GridElement(OrthTransform(matrix),
                                        tuple(bodies.tolist()), reversal,
                                        steps))
    return tuple(elements)


@functools.lru_cache(maxsize=64)
def space_time_orbits(model: OrbitModel, layout: ParamLayout,
                      n_nodes: int) -> SpaceTimeOrbits:
    """The orbits of the (body, node) pairs of a grid of ``n_nodes``
    uniform nodes under the elements that hold at every value of
    ``layout`` and permute the grid (see :func:`_grid_elements`).

    An element sends body i at node j to body sigma(i) at node tau(j),
    and carries the pair forces along: F_sigma(i)(t_tau(j)) = R F_i(t_j),
    and each body's half share of its pair potentials is the same at
    both.  So the grid sums of F . dx/dc and of the potential are the
    sums over one representative per orbit, each counted once per member
    of its orbit.  Without a usable element every pair is its own orbit.
    """
    elements = _grid_elements(model, layout, n_nodes)
    n = model.n_bodies
    # pair (i, j) is entry j * n + i, node-major, so an orbit's smallest
    # entry is its first pair node by node; each entry takes the smallest
    # label among its images until no label moves, which leaves every
    # pair with its orbit's smallest entry
    entry = np.arange(n_nodes * n)
    images = [(e.node_images(n_nodes)[:, None] * n
               + np.array(e.bodies)).ravel() for e in elements]
    label = entry.copy()
    moved = bool(images)
    while moved:
        before = label.copy()
        for image in images:
            np.minimum(label, label[image], out=label)
        moved = not np.array_equal(label, before)
    leads = np.flatnonzero(label == entry)
    orbit = np.searchsorted(leads, label).reshape(n_nodes, n).T
    sizes = np.bincount(label)[leads]
    nodes, bodies = np.divmod(leads, n)
    arrays = (np.ascontiguousarray(orbit), bodies, nodes, sizes)
    for a in arrays:
        a.setflags(write=False)
    return SpaceTimeOrbits(elements, *arrays)


# ----------------------------------------------------------------------
# family builders
# ----------------------------------------------------------------------

_ODD_OFFSETS = (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0)

# Swap of the last two coordinates; -SWAP_YZ composed with t -> -t is the
# time-reversal symmetry of the cubic family (the generator is odd in t).
SWAP_YZ = OrthTransform([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def _odd_harmonics(k_max: int) -> list[int]:
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max!r}")
    return list(range(1, k_max + 1, 2))


def build_cubic_family(m: int, k_max: int = 27,
                       potential: PotentialSpec | None = None
                       ) -> tuple[OrbitModel, ReducedParams]:
    """4m equal unit masses on four Klein-related loops.

    The single generator is an odd-harmonic sine series f; the base loop is
    (f(t), f(t + 2*pi/3), f(t + 4*pi/3)) and each loop carries m bodies at
    phases 2*pi*j/m.  The seed sets a_1 = 1 (a circle of amplitude 1 in the
    plane normal to (1, 1, 1)).  Even m is rejected with a collision error.
    The claimed rotations are the Klein group or, for m divisible by 3, the
    12 rotations that contain it (the inertia tensor is then scalar, Q = 0).
    """
    if collision_parity_check(m) is Verdict.COLLISION:
        raise CollisionError(
            (0, 1),
            context=f"even loop occupancy m={m} forces two loops to exchange "
                    "bodies at a crossing; only odd m avoids collision",
        )
    potential = potential or PotentialSpec()
    series = Harmonics(k_max, Parity.ODD_ONLY)
    gen = ScalarGenerator(series, _ODD_OFFSETS)
    bindings = [
        BodyBinding(0, R, TWO_PI * j / m, 1.0)
        for R in klein_elements() for j in range(m)
    ]
    rotations = a4_elements() if m % 3 == 0 else klein_elements()
    symmetries = [SpaceTimeSymmetry(R) for R in rotations]
    if m > 1:
        symmetries.append(SpaceTimeSymmetry(IDENTITY, time_shift=TWO_PI / m))
    symmetries.append(SpaceTimeSymmetry(
        OrthTransform(-np.eye(3, dtype=int)), time_shift=math.pi))
    symmetries.append(SpaceTimeSymmetry(
        OrthTransform(-SWAP_YZ.matrix), time_reversal=True))
    model = OrbitModel(
        generators=(gen,),
        bindings=tuple(bindings),
        potential=potential,
        family=Family(kind="cubic", m=int(m)),
        symmetries=tuple(symmetries),
    )
    slots = [Slot(0, 0, SIN, k) for k in _odd_harmonics(k_max)]
    layout = make_layout(model, slots)
    values = np.zeros(layout.n_slots)
    values[0] = 1.0
    return model, ReducedParams(layout, values)


def crisscross_coupling_sign(k: int) -> float:
    """Sign tying body 2's coefficients to body 1's (and y_3 to x_3) in the
    equal-mass criss-cross: +1 for k = 3, 7, 11, ...; -1 for k = 1, 5, 9, ..."""
    if k % 2 == 0:
        raise LayoutError("criss-cross couplings apply to odd harmonics only")
    return 1.0 if k % 4 == 3 else -1.0


def build_crisscross(masses: Sequence[float] = (1.0, 1.0, 1.0), k_max: int = 27,
                     potential: PotentialSpec | None = None
                     ) -> tuple[OrbitModel, ReducedParams]:
    """Three planar bodies with x_i(t) even and y_i(t) odd in t.

    Each body has its own generator with x = sum_k a_{i,k} cos(k t) and
    y = sum_k b_{i,k} sin(k t), odd k only (z is identically zero).  For
    equal masses the free coefficients are {a_{1,k}, b_{1,k}, a_{3,k}} and
    the rest follow from sign couplings; the seed is the crossing pattern
    (a_{1,1}, b_{1,1}, a_{3,1}) = (1, 0, -1).  For unequal masses every
    coefficient is free and the seed is the same pattern with its
    center-of-mass component removed once.
    """
    masses = tuple(float(real(v, "mass")) for v in masses)
    if len(masses) != 3 or any(not (v > 0 and math.isfinite(v)) for v in masses):
        raise ValueError(f"criss-cross needs three positive masses, got {masses}")
    potential = potential or PotentialSpec()
    ks = _odd_harmonics(k_max)
    gens = (VectorGenerator(*[Harmonics(k_max, Parity.ODD_ONLY)] * 3),) * 3
    bindings = tuple(BodyBinding(i, IDENTITY, 0.0, masses[i]) for i in range(3))
    symmetries = (
        SpaceTimeSymmetry(OrthTransform(-np.eye(3, dtype=int)), time_shift=math.pi),
        SpaceTimeSymmetry(OrthTransform(np.diag([1, -1, 1])), time_reversal=True),
    )
    equal = masses[0] == masses[1] == masses[2]
    model = OrbitModel(
        generators=gens,
        bindings=bindings,
        potential=potential,
        family=Family(kind="crisscross", masses=masses),
        symmetries=symmetries,
    )

    if equal:
        slots: list[Slot] = []
        couplings: list[Coupling] = []
        for k in ks:
            # slots a_{1,k}, b_{1,k}, a_{3,k} at i, i + 1, i + 2, and
            # a_{2,k} = s b_{1,k}, b_{2,k} = s a_{1,k}, b_{3,k} = s a_{3,k}
            s, i = crisscross_coupling_sign(k), len(slots)
            slots += [Slot(0, 0, COS, k), Slot(0, 1, SIN, k), Slot(2, 0, COS, k)]
            couplings += [Coupling(i + 1, 1, 0, COS, k, s),
                          Coupling(i, 1, 1, SIN, k, s),
                          Coupling(i + 2, 2, 1, SIN, k, s)]
        layout = make_layout(model, slots, couplings)
        values = np.zeros(layout.n_slots)
        values[0] = 1.0    # a_{1,1}
        values[2] = -1.0   # a_{3,1}
        return model, ReducedParams(layout, values)

    # Unequal masses: all odd-harmonic coefficients are free.
    slots = [Slot(i, ch, basis, k)
             for k in ks for i in range(3)
             for ch, basis in ((0, COS), (1, SIN))]
    layout = make_layout(model, slots)
    # Seed from the equal-mass crossing pattern...
    seed: dict[tuple[int, int, str, int], float] = {
        (0, 0, COS, 1): 1.0,
        (2, 0, COS, 1): -1.0,
        (1, 1, SIN, 1): crisscross_coupling_sign(1) * 1.0,
        (2, 1, SIN, 1): crisscross_coupling_sign(1) * -1.0,
    }
    # ...with its center-of-mass component subtracted once.
    total = sum(masses)
    for ch, basis in ((0, COS), (1, SIN)):
        for k in ks:
            com = sum(masses[i] * seed.get((i, ch, basis, k), 0.0)
                      for i in range(3)) / total
            if com != 0.0:
                for i in range(3):
                    seed[(i, ch, basis, k)] = seed.get((i, ch, basis, k), 0.0) - com
    values = np.array([seed.get((s.gen, s.channel, s.basis, s.k), 0.0)
                       for s in slots])
    return model, ReducedParams(layout, values)


def build_choreography(n: int,
                       active: Mapping[str, Sequence[str]] | None = None,
                       seed: Mapping[tuple[str, str, int], float] | None = None,
                       k_max: int = 27,
                       parity: Parity = Parity.ODD_ONLY,
                       potential: PotentialSpec | None = None
                       ) -> tuple[OrbitModel, ReducedParams]:
    """n unit masses sharing one curve at Lagrange phases 2*pi*j/n.

    Args:
        active: which (coordinate -> bases) carry free coefficients, e.g.
            ``{"x": ("sin",), "y": ("cos",)}`` (the default, which pins both
            the time origin and the orientation of near-circular curves).
        seed: sparse initial values keyed by (coordinate, basis, k).
        parity: harmonic mask of the shared curve.
    """
    n = integer(n, "choreography body count n", least=1)
    potential = potential or PotentialSpec()
    if active is None:
        active = {"x": (SIN,), "y": (COS,)}
    coords = {"x": 0, "y": 1, "z": 2}
    for name in active:
        if name not in coords:
            raise LayoutError(f"unknown coordinate {name!r}")
    gen = VectorGenerator(*[Harmonics(k_max, parity)] * 3)
    bindings = tuple(BodyBinding(0, IDENTITY, TWO_PI * j / n, 1.0) for j in range(n))
    symmetries = [SpaceTimeSymmetry(IDENTITY, time_shift=TWO_PI / n)] if n > 1 else []
    if parity is Parity.ODD_ONLY:
        symmetries.append(SpaceTimeSymmetry(
            OrthTransform(-np.eye(3, dtype=int)), time_shift=math.pi))
    model = OrbitModel(
        generators=(gen,),
        bindings=bindings,
        potential=potential,
        family=Family(kind="choreography", n=n, parity=parity.value),
        symmetries=tuple(symmetries),
    )
    ks = _odd_harmonics(k_max) if parity is Parity.ODD_ONLY else list(range(1, k_max + 1))
    slots = [Slot(0, channel, basis, k) for name, channel in coords.items()
             for basis in active.get(name, ()) for k in ks]
    layout = make_layout(model, slots)
    values = np.zeros(layout.n_slots)
    if seed is None:
        # unit-circle default: k=1 coefficient of each active coordinate's
        # first basis, so bodies start spread around a radius-1 curve
        seed = {(name, bases[0], 1): 1.0 for name, bases in active.items()
                if bases}
    for (name, basis, k), v in seed.items():
        if name not in coords:
            raise LayoutError(f"unknown coordinate {name!r}")
        # a True harmonic would match slot k = 1
        slot = Slot(0, coords[name], basis,
                    integer(k, "seed harmonic", error=LayoutError))
        if slot not in slots:
            raise LayoutError(f"seed entry ({name}, {basis}, {k}) is not a free slot")
        values[slots.index(slot)] = real(v, "seed value")
    return model, ReducedParams(layout, values)


# ----------------------------------------------------------------------
# symmetry verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    """Worst distance per claimed symmetry under its one body permutation."""

    element_errors: tuple[float, ...]
    tol: float

    @property
    def max_error(self) -> float:
        return max(self.element_errors) if self.element_errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol


def _element_costs(model: OrbitModel, params: ReducedParams,
                   t: np.ndarray):
    """Per claimed element, cost[i, l] = max_t |R x_i(t) - x_l(sigma(t))|
    over the times t: how far body l strays from the image of body i."""
    base = sample_positions(model, params, t)  # (n, T, 3)
    for sym in model.symmetries:
        if sym.time_reversal or sym.time_shift != 0.0:
            shifted_t = -t if sym.time_reversal else t + sym.time_shift
            target = sample_positions(model, params, shifted_t)
        else:   # sigma is the identity: the targets are the base samples
            target = base
        diff = (base @ sym.transform.matrix.T)[:, None] - target[None]
        yield np.sqrt(np.einsum("iltc,iltc->ilt", diff, diff).max(axis=2))


def _nearest_image_error(cost: np.ndarray) -> float:
    """The largest cost[i, l] when each body i takes its nearest image l
    and those images are distinct bodies, else inf.

    A permutation of row minima is an optimal assignment (the row minima
    bound every assignment's sum from below, and only row minima reach
    it), so this equals the optimal assignment's largest matched cost.
    Otherwise no one body permutation matches the element.
    """
    nearest = cost.argmin(axis=1)
    if np.bincount(nearest, minlength=nearest.size).max() > 1:
        return math.inf
    return float(cost[np.arange(nearest.size), nearest].max())


def verify_symmetry(model: OrbitModel, params: ReducedParams, times=None,
                    tol: float = SYMMETRY_TOL) -> SymmetryReport:
    """Check that every claimed symmetry maps the sampled body set to itself.

    A symmetry of a collision-free orbit keeps one body permutation for the
    whole period.  On cost[i, l] = max_t |R x_i(t) - x_l(sigma(t))| each
    body takes its nearest image; an element's error is the largest of
    those costs when they form a permutation, and inf when two bodies
    share a nearest image.  ``times`` must be non-empty and finite.
    """
    if times is None:
        times = QuadratureGrid(64)
    t, _ = _as_times(times)
    if t.size == 0 or not np.all(np.isfinite(t)):
        raise ValueError("verify_symmetry needs a non-empty set of finite times")
    errors = tuple(_nearest_image_error(cost)
                   for cost in _element_costs(model, params, t))
    return SymmetryReport(errors, tol)
