"""Self-describing orbit records and deterministic text exports.

Records are schema-versioned JSON documents of one format, the table
``_FORMAT``, which save and load check every record against.  They
round-trip losslessly (floats in Python's shortest round-trip form), and
every file write is atomic (write to a temporary file, then rename).

A record may hold a seed, a failed run, or a converged orbit; only results
whose equations-of-motion residual passes the certificate threshold are
labeled ``converged``.  Time series (trajectories, observables, tracked
positions) are written as ``# header`` plus ``%.12e`` rows.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
import sys
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .descent import CONVERGED, DescentSchedule, RunResult, StopRule
from .dynamics import observables_series, residual
from .errors import CollisionError, RecordError
from .integrate import Trajectory, return_error
from .fourier import COS, SIN, Harmonics, Parity
from .potential import PotentialSpec
from .quadrature import QuadratureGrid
from .symmetry import (SYMMETRY_TOL, BodyBinding, Coupling, Family, OrbitModel,
                       OrthTransform, ParamLayout, ReducedParams,
                       ScalarGenerator, Slot, SpaceTimeSymmetry,
                       VectorGenerator, build_choreography, build_crisscross,
                       build_cubic_family, make_layout, verify_symmetry)

SCHEMA_VERSION = 1
RESIDUAL_CERTIFICATE = 1e-5
# verify_record passes a recomputed residual up to this multiple of the stored one
VERIFY_FACTOR = 2.0
# the orbit certificate's bound on the one-period return error
RETURN_TOL = 1e-3


@dataclass
class OrbitRecord:
    """One record file in memory, its fields those of :data:`_FORMAT`."""

    schema_version: int
    family: dict
    potential: dict
    k_max: int
    layout: dict
    values: list
    scale: float
    converged: bool
    outcome: str | None
    iterations: int | None
    grad_norm: float | None
    residual: float | None
    observables: dict | None
    descent: dict | None


_List = namedtuple("_List", "of n", defaults=(None,))
_Null = namedtuple("_Null", "form")
_Tagged = namedtuple("_Tagged", "tag variants")
# the JSON scalars a form names: wording, and a test of one value (a finite
# number is in the float range, as NaN and an int beyond every float are not)
_SCALARS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: (isinstance(v, float) or type(v) is int)
              and abs(v) <= sys.float_info.max),
    "number": ("a number", lambda v: isinstance(v, float) or type(v) is int),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "any": ("anything", lambda v: True),
}
_MATRIX = _List(_List("int", 3), 3)
_SERIES = {"k_max": "int", "parity": "str"}
# The record format, every field once.  A form is a scalar of _SCALARS, a
# dict (an object with exactly those fields), a _List (n entries of one
# form, any number when n is None), a _Null (a form or null) or a _Tagged
# (an object whose other fields follow the value of its tag).  Layout
# entries are checked for shape only: ParamLayout checks their values, as
# a family's builder or the model's constructors check the family's.  The
# descent section records settings as run, so its numbers need not be
# finite (an infinite escape_radius turns escape detection off).
_FORMAT = {
    "schema_version": "int",
    "family": _Tagged("kind", {
        "cubic": {"m": "int"},
        "crisscross": {"masses": _List("float")},
        "choreography": {"n": "int", "parity": "str"},
        "custom": {
            "generators": _List(_Tagged("type", {
                "scalar": {"offsets": _List("float"), **_SERIES},
                "vector": {"coords": _List(_SERIES, 3)}})),
            "bindings": _List({"generator": "int", "matrix": _MATRIX,
                               "phase": "float", "mass": "float"}),
            "symmetries": _List({"matrix": _MATRIX, "time_shift": "float",
                                 "time_reversal": "bool"})}}),
    "potential": {"alpha": "float", "G": "float", "softening": "float"},
    "k_max": "int",
    "layout": {"slots": _List(_List("any", 4)),
               "couplings": _List(_List("any", 6))},
    "values": _List("float"),
    "scale": "float",
    "converged": "bool",
    "outcome": _Null("str"),
    "iterations": _Null("int"),
    "grad_norm": _Null("float"),
    "residual": _Null("float"),
    "observables": _Null({"E": "float", "J": _List("float", 3),
                          "Q_max": "float"}),
    "descent": _Null({"rule": "str", "delta": _Null("number"),
                      "table": _Null(_List(_List("number", 2))),
                      "grad_tol": "number", "max_iters": "int",
                      "escape_radius": "number"}),
}


def _check_form(value, form, where: str) -> None:
    """Raise a RecordError naming the path ``where`` unless value has the form;
    a list of scalars, or of rows of them, is tested in one pass."""
    if isinstance(form, _Null):
        if value is None:
            return
        form = form.form
    if isinstance(form, str):
        name, fits = _SCALARS[form]
        if not fits(value):
            raise RecordError(f"{where} must be {name}, got {value!r}")
    elif isinstance(form, _List):
        if not (isinstance(value, list) and form.n in (None, len(value))):
            size = "" if form.n is None else f" of {form.n}"
            raise RecordError(f"{where} must be a list{size}, got {value!r}")
        of, entries = form.of, value
        if isinstance(of, _List) and all(isinstance(row, list) and
                                         len(row) == of.n for row in value):
            of, entries = of.of, itertools.chain(*value)   # rows of one length
        if isinstance(of, str) and (of == "any" or
                                    all(map(_SCALARS[of][1], entries))):
            return
        for i, entry in enumerate(value):
            _check_form(entry, form.of, f"{where}[{i}]")
    else:
        if not isinstance(value, dict):
            raise RecordError(f"{where} must be an object, got {value!r}")
        if isinstance(form, _Tagged):
            tag = value.get(form.tag)
            if not (isinstance(tag, str) and tag in form.variants):
                raise RecordError(f"{where}.{form.tag} must be one of "
                                  f"{sorted(form.variants)}, got {tag!r}")
            form = {form.tag: "str", **form.variants[tag]}
        unknown, missing = value.keys() - form.keys(), form.keys() - value.keys()
        if unknown or missing:
            raise RecordError(f"{'unknown' if unknown else 'missing'} field(s) "
                              f"{sorted(unknown or missing)} in {where or 'record'}")
        for key, field_form in form.items():
            _check_form(value[key], field_form, f"{where}.{key}" if where else key)


def _check_document(document: dict) -> None:
    """The schema version, every field against :data:`_FORMAT`, one value
    per layout slot, and the certificate of a record claiming convergence."""
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise RecordError(f"unsupported schema version {version}; "
                          f"this build reads version {SCHEMA_VERSION}")
    _check_form(document, _FORMAT, "")
    if len(document["values"]) != len(document["layout"]["slots"]):
        raise RecordError("values and layout slots disagree in length")
    if document["converged"]:
        residual = document["residual"]
        if residual is None or document["grad_norm"] is None:
            raise RecordError("a record claiming convergence must carry "
                              "residual and grad_norm")
        if not residual <= RESIDUAL_CERTIFICATE:
            raise RecordError(f"converged record fails the residual certificate: "
                              f"{residual:.3e} > {RESIDUAL_CERTIFICATE:.1e}")


def validate_record(record: OrbitRecord) -> None:
    """Check a record against the format; save and load share this check."""
    _check_document(vars(record))


def save_record(record: OrbitRecord, path: str) -> None:
    """Validate and write atomically (temporary file, then rename)."""
    validate_record(record)
    # the fields hold plain JSON containers, which json.dumps reads as
    # they are: no deep copy of them is needed
    document = {f.name: getattr(record, f.name) for f in fields(record)}
    write_text(path, json.dumps(document, indent=2) + "\n")


def load_record(path: str) -> OrbitRecord:
    """Parse and validate a record file."""
    with open(path) as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise RecordError(
            f"malformed record {path!r}: {err.msg} at byte offset {err.pos}"
        ) from err
    if not isinstance(data, dict):
        raise RecordError(f"record {path!r} must be a JSON object")
    _check_document(data)
    return OrbitRecord(**data)


# ----------------------------------------------------------------------
# model <-> record conversion
# ----------------------------------------------------------------------


def _series_meta(series: Harmonics) -> dict:
    return {"k_max": series.k_max, "parity": series.parity.value}


def _family_dict(model: OrbitModel) -> dict:
    """The record's family: a built-in family's kind and the fields its
    builder set on :class:`.Family` (tuples as lists), which
    :func:`build_family` reads back; a custom family's generators,
    bindings and symmetries."""
    fam = model.family
    if fam.kind != "custom":
        return {f.name: list(v) if isinstance(v, tuple) else v
                for f in fields(fam) if (v := getattr(fam, f.name)) is not None}
    gens = []
    for gen in model.generators:
        if isinstance(gen, ScalarGenerator):
            gens.append({"type": "scalar", "offsets": list(gen.offsets),
                         **_series_meta(gen.series)})
        else:
            gens.append({"type": "vector",
                         "coords": [_series_meta(gen.channel(c)) for c in range(3)]})
    bindings = [{"generator": b.generator, "matrix": b.transform.matrix.tolist(),
                 "phase": b.phase, "mass": b.mass} for b in model.bindings]
    symmetries = [{"matrix": s.transform.matrix.tolist(),
                   "time_shift": s.time_shift,
                   "time_reversal": s.time_reversal} for s in model.symmetries]
    return {"kind": "custom", "generators": gens, "bindings": bindings,
            "symmetries": symmetries}


def build_family(family: dict, k_max: int, potential: PotentialSpec
                 ) -> tuple[OrbitModel, ReducedParams]:
    """The model and seed of a built-in family from its record fields:
    ``m`` for ``cubic``, ``masses`` for ``crisscross``, and ``n`` and
    ``parity`` (odd harmonics when absent) for ``choreography``."""
    kind = family["kind"]
    if kind == "cubic":
        return build_cubic_family(family["m"], k_max, potential)
    if kind == "crisscross":
        return build_crisscross(family["masses"], k_max, potential)
    if kind == "choreography":
        return build_choreography(
            family["n"], k_max=k_max, potential=potential,
            parity=Parity(family.get("parity", Parity.ODD_ONLY.value)))
    raise ValueError(f"no builder for family kind {kind!r}")


def _rebuild_model(record: OrbitRecord) -> tuple[OrbitModel, ParamLayout | None]:
    """The record's model, plus the builder's layout for cubic and criss-cross."""
    fam = record.family
    pot = PotentialSpec(**record.potential)
    if fam["kind"] != "custom":
        model, params = build_family(fam, record.k_max, pot)
        return model, None if fam["kind"] == "choreography" else params.layout
    def series(meta: dict) -> Harmonics:   # the inverse of _series_meta
        return Harmonics(meta["k_max"], Parity(meta["parity"]))

    generators = [ScalarGenerator(series(g), tuple(g["offsets"]))
                  if g["type"] == "scalar" else
                  VectorGenerator(*map(series, g["coords"]))
                  for g in fam["generators"]]
    bindings = [BodyBinding(b["generator"], OrthTransform(b["matrix"]),
                            b["phase"], b["mass"]) for b in fam["bindings"]]
    symmetries = [SpaceTimeSymmetry(OrthTransform(s["matrix"]), s["time_shift"],
                                    s["time_reversal"]) for s in fam["symmetries"]]
    return OrbitModel(tuple(generators), tuple(bindings), pot,
                      Family(kind="custom"), tuple(symmetries)), None


def record_to_model(record: OrbitRecord) -> tuple[OrbitModel, ReducedParams]:
    """Rebuild the orbit model and reduced parameters from a record that
    fits the format (as loaded or made).  A family its builder refuses (an
    even cubic m, a bad parity or mass) is a RecordError, like any other
    inconsistent record.
    """
    try:
        model, reference = _rebuild_model(record)
    except (CollisionError, ValueError) as err:
        raise RecordError(f"record family cannot be built: {err}") from err
    if record.k_max != model.k_max:
        raise RecordError(f"record k_max {record.k_max} does not match its "
                          f"generators' {model.k_max}")
    try:
        slots = [Slot(*s) for s in record.layout["slots"]]
        couplings = [Coupling(*c) for c in record.layout["couplings"]]
        layout = make_layout(model, slots, couplings)
        params = ReducedParams(layout, np.array(record.values, dtype=float))
    except ValueError as err:   # a LayoutError, or a values length
        raise RecordError(f"record layout is inconsistent: {err}") from err
    if reference is not None and reference != layout:
        raise RecordError("record layout does not match its family builder")
    return model, params


def designated_scale(model: OrbitModel, params: ReducedParams) -> float:
    """Normalization scale for table export: the generator's k=1 sine
    coefficient for normalized families, 1.0 for families exported at
    physical scale."""
    kind = model.family.kind
    if kind in ("cubic", "choreography"):
        for i, s in enumerate(params.layout.slots):
            if (s.gen, s.channel, s.basis, s.k) == (0, 0, SIN, 1):
                return float(params.values[i])
    return 1.0


def _observable_summary(model: OrbitModel, params: ReducedParams) -> dict | None:
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, obs = observables_series(model, params, QuadratureGrid(64))
    q_max = float(np.abs(obs.Q).max())
    summary = {"E": float(obs.E[0]), "J": [float(v) for v in obs.J[0]],
               "Q_max": q_max}
    flat = [summary["E"], q_max, *summary["J"]]
    if not all(math.isfinite(v) for v in flat):
        return None   # degenerate configuration (e.g. coincident bodies)
    return summary


def _descent_dict(schedule: DescentSchedule | None,
                  stop: StopRule | None) -> dict | None:
    if schedule is None:
        return None
    stop = stop or StopRule()
    return {
        "rule": schedule.rule,
        "delta": schedule.delta,
        "table": None if schedule.table is None else [list(e) for e in schedule.table],
        "grad_tol": stop.grad_tol,
        "max_iters": stop.max_iters,
        "escape_radius": stop.escape_radius,
    }


def make_record(model: OrbitModel, params: ReducedParams,
                result: RunResult | None = None,
                schedule: DescentSchedule | None = None,
                stop: StopRule | None = None) -> OrbitRecord:
    """Snapshot a model + parameters (optionally with its run outcome).

    ``converged`` is set only when the run converged on the gradient
    criterion *and* the residual certificate holds.
    """
    layout = params.layout
    res = None
    grad_norm = None
    outcome = None
    iterations = None
    if result is not None:
        # a diverged run's last finite iterate may have no finite norm or
        # residual; a record keeps None for them
        res, grad_norm = (float(x) if x is not None and math.isfinite(x)
                          else None for x in (result.residual,
                                              result.grad_norm))
        outcome = result.outcome
        iterations = result.iterations
    converged = bool(
        result is not None and result.outcome == CONVERGED
        and res is not None and res <= RESIDUAL_CERTIFICATE
        and grad_norm is not None
    )
    return OrbitRecord(
        schema_version=SCHEMA_VERSION,
        family=_family_dict(model),
        potential={"alpha": model.potential.alpha, "G": model.potential.G,
                   "softening": model.potential.softening},
        k_max=layout.k_max,
        layout={
            "slots": [[s.gen, s.channel, s.basis, s.k] for s in layout.slots],
            "couplings": [[c.slot, c.gen, c.channel, c.basis, c.k, c.sign]
                          for c in layout.couplings],
        },
        values=[float(v) for v in params.values],
        scale=designated_scale(model, params),
        converged=converged,
        outcome=outcome,
        iterations=iterations,
        grad_norm=grad_norm,
        residual=res,
        observables=_observable_summary(model, params),
        descent=_descent_dict(schedule, stop),
    )


def verify_record(record: OrbitRecord) -> tuple[bool, float]:
    """Recompute the residual of a stored orbit.

    Returns (ok, recomputed); ok means the recomputed residual is within
    ``VERIFY_FACTOR`` times the stored value, whenever one is stored.
    """
    return _residual_check(record, *record_to_model(record))


def _residual_check(record: OrbitRecord, model: OrbitModel,
                    params: ReducedParams) -> tuple[bool, float]:
    recomputed = residual(model, params).max_violation
    if record.residual is None:
        return True, float(recomputed)
    return (bool(recomputed <= VERIFY_FACTOR * record.residual),
            float(recomputed))


@dataclass(frozen=True)
class Check:
    """One check of a :class:`Certificate`: its value (None if it did not
    run), its tolerance, whether it passed and, if not, why."""

    value: float | None
    tol: float
    passed: bool
    reason: str

    @property
    def verdict(self) -> str:   # ok, FAIL (reason) or not run (reason)
        return "ok" if self.passed else \
            f"{'FAIL' if self.value is not None else 'not run'} ({self.reason})"


@dataclass(frozen=True)
class Certificate:
    """Whether a record is an orbit: it solves the equations of motion,
    carries its claimed symmetries and closes after one period."""

    residual: Check
    symmetry: Check
    return_error: Check

    @property
    def certified(self) -> bool:
        return all(c.passed for c in (self.residual, self.symmetry,
                                      self.return_error))


def certify(record: OrbitRecord) -> Certificate:
    """The certificate ``orbitctl verify`` prints: the residual that
    :func:`verify_record` recomputes, within ``RESIDUAL_CERTIFICATE`` and
    ``VERIFY_FACTOR`` times a stored one, the symmetry error within
    ``SYMMETRY_TOL`` and, only on a residual within the certificate (far
    from an orbit the adaptive drive crawls), the return error within
    ``RETURN_TOL``."""
    model, params = record_to_model(record)
    ok_stored, recomputed = _residual_check(record, model, params)
    within = recomputed <= RESIDUAL_CERTIFICATE
    symmetry = verify_symmetry(model, params)
    ret = return_error(model, params) if within else None
    return Certificate(
        _check(recomputed, RESIDUAL_CERTIFICATE, within and ok_stored,
               f"exceeds {VERIFY_FACTOR:g}x stored" if within else
               f"exceeds the certificate {RESIDUAL_CERTIFICATE:.1e}"),
        _check(symmetry.max_error, SYMMETRY_TOL, symmetry.passed,
               f"tol {SYMMETRY_TOL:g}"),
        _check(ret, RETURN_TOL, within and ret <= RETURN_TOL,
               f"tol {RETURN_TOL:g}" if within else
               "residual fails the certificate"))


def _check(value: float | None, tol: float, passed, failure: str) -> Check:
    """A check whose reason is ``failure`` when it did not pass."""
    return Check(value, tol, bool(passed), "" if passed else failure)


# ----------------------------------------------------------------------
# table export
# ----------------------------------------------------------------------


def _column_name(slot: Slot, model: OrbitModel) -> str:
    """``a`` (cubic), ``a_i``/``b_i`` (criss-cross), else coordinate and
    basis, led by the generator index when the model has more than one."""
    kind = model.family.kind
    if kind == "cubic":
        return "a"
    if kind == "crisscross":
        letter = "a" if slot.basis == COS else "b"
        return f"{letter}_{slot.gen + 1}"
    name = f"{'xyz'[slot.channel]}.{slot.basis}"
    return f"g{slot.gen}.{name}" if len(model.generators) > 1 else name


def export_table(record: OrbitRecord) -> str:
    """Fixed-point coefficient table, one row per harmonic.

    Families with a designated leading coefficient (cubic, choreography)
    are normalized so a_1 = 1 with the signed scale reported in the header;
    the criss-cross family is exported at physical scale to match its
    reference convention.  Formatting is deterministic: fixed column order
    and 5-decimal fixed-point values.
    """
    model, params = record_to_model(record)
    scale = designated_scale(model, params)
    if scale == 0.0:
        raise RecordError("cannot normalize table: designated coefficient is zero")
    # one column per (generator, channel, basis), in slot order: its name
    # and its normalized values by harmonic
    columns: dict[tuple[int, int, str], tuple[str, dict]] = {}
    for s, v in zip(params.layout.slots, params.values):
        columns.setdefault((s.gen, s.channel, s.basis),
                           (_column_name(s, model), {}))[1][s.k] = v / scale
    lines = [
        f"# family: {_family_label(record)}",
        f"# scale: {scale!r}",
        f"# k_max: {record.k_max}",
        f"# residual: {record.residual!r}",
        "  k " + " ".join(f"{name:>9s}" for name, _ in columns.values()),
    ]
    for k in sorted({s.k for s in params.layout.slots}):
        row = [f"{k:3d}"]
        for _, values in columns.values():
            row.append(f"{values[k]:9.5f}" if k in values else "         ")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def _family_label(record: OrbitRecord) -> str:
    fam = record.family
    kind = fam["kind"]
    if kind == "cubic":
        return f"cubic m={fam['m']}"
    if kind == "crisscross":
        masses = ":".join(f"{v:g}" for v in fam["masses"])
        return f"crisscross masses {masses}"
    if kind == "choreography":
        return f"choreography n={fam['n']}"
    return "custom"


def _lines(rows) -> str:
    """One line per row of its values in ``%.12e``."""
    return "".join(" ".join(f"{v:.12e}" for v in row) + "\n" for row in rows)


def _text_rows(header: str, rows) -> str:
    """Delimited text: ``# header``, then one line per row of its values
    in ``%.12e``, the format of every time-series export."""
    return f"# {header}\n" + _lines(rows)


def _trajectory_chunks(blocks):
    """The text of :func:`write_trajectory` for :class:`.Trajectory`
    blocks in time order, one chunk per block (the first with the
    header), each made when its block is."""
    for k, traj in enumerate(blocks):
        m, n, _ = traj.positions.shape
        header = ""
        if k == 0:
            names = ["t"]
            for i in range(1, n + 1):
                names += [f"x{i}", f"y{i}", f"z{i}", f"vx{i}", f"vy{i}",
                          f"vz{i}"]
            header = "# " + " ".join(names + ["E", "Jx", "Jy", "Jz"]) + "\n"
        states = np.concatenate((traj.positions, traj.velocities), axis=2)
        yield header + _lines(np.column_stack((
            traj.times, states.reshape(m, -1), traj.energy,
            traj.angular_momentum)))


def write_trajectory(traj: Trajectory, stream) -> None:
    """Write samples as delimited text: t, then x y z vx vy vz per body,
    then E and the angular momentum components."""
    stream.writelines(_trajectory_chunks([traj]))


def write_text(path: str, text) -> None:
    """Atomic plain-text write (temporary file, then rename) used by
    records and all exports, of a string or of an iterable of string
    chunks, each written as it comes.  The file gets the mode a plain
    ``open`` leaves: an existing file keeps its own, and a new one gets
    0o666 less the umask, not ``mkstemp``'s 0o600.  The temporary file's
    random name and O_EXCL keep it private to this write, and a failure
    while the chunks are made removes it."""
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
