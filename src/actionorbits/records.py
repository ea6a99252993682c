"""Self-describing orbit records and deterministic text exports.

Records are schema-versioned JSON documents (human-diffable structured
text).  They round-trip losslessly: floats are written with Python's
shortest round-trip representation, unknown fields are rejected on load,
and every file write is atomic (write to a temporary file, then rename).

A record may hold a seed, a failed run, or a converged orbit; only results
whose equations-of-motion residual passes the certificate threshold are
labeled ``converged``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .descent import CONVERGED, DescentSchedule, RunResult, StopRule
from .dynamics import observables_series, residual
from .errors import CollisionError, RecordError
from .fourier import COS, SIN, Harmonics, Parity
from .potential import PotentialSpec
from .quadrature import QuadratureGrid
from .symmetry import (BodyBinding, Coupling, Family, OrbitModel, OrthTransform,
                       ParamLayout, ReducedParams, ScalarGenerator, Slot,
                       SpaceTimeSymmetry, VectorGenerator, build_choreography,
                       build_crisscross, build_cubic_family, make_layout)

SCHEMA_VERSION = 1
RESIDUAL_CERTIFICATE = 1e-5
# verify_record passes a recomputed residual up to this multiple of the stored one
VERIFY_FACTOR = 2.0

_FAMILY_KEYS = {
    "cubic": {"kind", "m"},
    "crisscross": {"kind", "masses"},
    "choreography": {"kind", "n", "parity"},
    "custom": {"kind", "generators", "bindings", "symmetries"},
}
# the JSON types of the family fields (masses: numbers)
_FAMILY_TYPES = {"m": "int", "n": "int", "parity": "str", "generators": "list",
                 "bindings": "list", "symmetries": "list"}
# the JSON types of the fields of each entry of a custom family, with two
# list shapes of their own
_CUSTOM_ENTRIES = {
    "scalar": {"type": "str", "offsets": "list", "k_max": "int",
               "parity": "str"},
    "vector": {"type": "str", "coords": "three entries"},
    "coord": {"k_max": "int", "parity": "str"},
    "binding": {"generator": "int", "matrix": "3x3 int", "phase": "float",
                "mass": "float"},
    "symmetry": {"matrix": "3x3 int", "time_shift": "float",
                 "time_reversal": "bool"},
}
_POTENTIAL_KEYS = {"alpha", "G", "softening"}
_LAYOUT_KEYS = {"slots", "couplings"}
_OBSERVABLE_KEYS = {"E", "J", "Q_max"}
_DESCENT_KEYS = {"rule", "delta", "table", "grad_tol", "max_iters",
                 "escape_radius"}


@dataclass
class OrbitRecord:
    """In-memory form of one record file (plain Python containers only)."""

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


_TOP_KEYS = {f.name for f in fields(OrbitRecord)}
# the Python types of the JSON values each OrbitRecord annotation names
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "list": list, "dict": dict, "None": type(None)}


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise RecordError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = allowed - set(mapping)
    if missing:
        raise RecordError(f"missing field(s) {sorted(missing)} in {where}")


def _is_a(value, annotation: str) -> bool:
    """Whether a JSON value fits an annotation such as 'float | None'; a bool
    fits only where 'bool' is named, and a float only when it is finite."""
    kinds = annotation.split(" | ")
    return (isinstance(value, bool) == ("bool" in kinds) and
            any(isinstance(value, _JSON_TYPES[k]) for k in kinds) and
            not (isinstance(value, float) and not math.isfinite(value)))


def _is_shape(value, shape: str) -> bool:
    """Whether a JSON value is a list of three entries or, for "3x3 int",
    three such lists of integers."""
    if shape == "three entries":
        return isinstance(value, list) and len(value) == 3
    return (_is_shape(value, "three entries") and
            all(_is_shape(row, "three entries") and
                all(_is_a(v, "int") for v in row) for row in value))


def _check_entry(entry, kind: str, where: str) -> None:
    """Keys and JSON types of one entry of a custom family."""
    if not isinstance(entry, dict):
        raise RecordError(f"{where} must be an object, got {entry!r}")
    types = _CUSTOM_ENTRIES[kind]
    _check_keys(entry, set(types), where)
    for key, annotation in types.items():
        value = entry[key]
        if not (_is_a(value, annotation) if annotation in _JSON_TYPES
                else _is_shape(value, annotation)):
            raise RecordError(f"{where}.{key} must be {annotation}, got {value!r}")


def _check_custom(family: dict) -> None:
    """Type-check each generator, binding and symmetry of a custom family;
    the model's constructors check their values."""
    for i, gen in enumerate(family["generators"]):
        where = f"family.generators[{i}]"
        kind = gen.get("type") if isinstance(gen, dict) else None
        if kind not in ("scalar", "vector"):
            raise RecordError(f"{where} must be a scalar or vector generator, "
                              f"got {gen!r}")
        _check_entry(gen, kind, where)
        for c, coord in enumerate(gen.get("coords", [])):
            _check_entry(coord, "coord", f"{where}.coords[{c}]")
    for key, kind in (("bindings", "binding"), ("symmetries", "symmetry")):
        for i, entry in enumerate(family[key]):
            _check_entry(entry, kind, f"family.{key}[{i}]")


def validate_record(record: OrbitRecord) -> None:
    """Structural validation shared by save and load."""
    if record.schema_version != SCHEMA_VERSION:
        raise RecordError(
            f"unsupported schema version {record.schema_version}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    for f in fields(OrbitRecord):
        value = getattr(record, f.name)
        if not _is_a(value, f.type):
            raise RecordError(f"{f.name} must be {f.type}, got {value!r}")
    kind = record.family.get("kind")
    if kind not in _FAMILY_KEYS:
        raise RecordError(f"unknown family kind {kind!r}")
    _check_keys(record.family, _FAMILY_KEYS[kind], "family")
    for key, annotation in _FAMILY_TYPES.items():
        if key in record.family and not _is_a(record.family[key], annotation):
            raise RecordError(f"family.{key} must be {annotation}, "
                              f"got {record.family[key]!r}")
    if kind == "custom":
        _check_custom(record.family)
    _check_keys(record.potential, _POTENTIAL_KEYS, "potential")
    _check_keys(record.layout, _LAYOUT_KEYS, "layout")
    numbers = {"potential": list(record.potential.values()),
               "values": record.values}
    if kind == "crisscross":
        numbers["family.masses"] = record.family["masses"]
    if record.observables is not None:
        obs = record.observables
        _check_keys(obs, _OBSERVABLE_KEYS, "observables")
        numbers.update({"observables": [obs["E"], obs["Q_max"]],
                        "observables.J": obs["J"]})
    for where, group in numbers.items():
        if not (isinstance(group, list) and all(_is_a(v, "float") for v in group)):
            raise RecordError(f"{where} must hold finite numbers, got {group!r}")
    if record.descent is not None:
        _check_keys(record.descent, _DESCENT_KEYS, "descent")
    if len(record.values) != len(record.layout["slots"]):
        raise RecordError("values and layout slots disagree in length")
    if record.converged:
        if record.residual is None or record.grad_norm is None:
            raise RecordError(
                "a record claiming convergence must carry residual and grad_norm"
            )
        if not record.residual <= RESIDUAL_CERTIFICATE:
            raise RecordError(
                f"converged record fails the residual certificate: "
                f"{record.residual:.3e} > {RESIDUAL_CERTIFICATE:.1e}"
            )


def save_record(record: OrbitRecord, path: str) -> None:
    """Validate and write atomically (temporary file, then rename)."""
    validate_record(record)
    write_text(path, json.dumps(asdict(record), indent=2) + "\n")


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
    _check_keys(data, _TOP_KEYS, "record")
    record = OrbitRecord(**data)
    validate_record(record)
    return record


# ----------------------------------------------------------------------
# model <-> record conversion
# ----------------------------------------------------------------------


def _series_meta(series: Harmonics) -> dict:
    return {"k_max": series.k_max, "parity": series.parity.value}


def _family_dict(model: OrbitModel) -> dict:
    fam = model.family
    if fam.kind == "cubic":
        return {"kind": "cubic", "m": fam.m}
    if fam.kind == "crisscross":
        return {"kind": "crisscross", "masses": list(fam.masses)}
    if fam.kind == "choreography":
        return {"kind": "choreography", "n": fam.n, "parity": fam.parity}
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


def _rebuild_model(record: OrbitRecord) -> tuple[OrbitModel, ParamLayout | None]:
    """The record's model, plus the builder's layout for cubic and criss-cross."""
    fam = record.family
    pot = PotentialSpec(**record.potential)
    kind = fam["kind"]
    if kind == "cubic":
        model, params = build_cubic_family(fam["m"], record.k_max, pot)
        return model, params.layout
    if kind == "crisscross":
        model, params = build_crisscross(tuple(fam["masses"]), record.k_max, pot)
        return model, params.layout
    if kind == "choreography":
        coords = "xyz"
        active: dict[str, tuple] = {}
        for s in record.layout["slots"]:
            _, channel, basis, _k = s
            name = coords[channel]
            bases = active.setdefault(name, ())
            if basis not in bases:
                active[name] = bases + (basis,)
        model, _ = build_choreography(
            fam["n"], active=active or None, k_max=record.k_max,
            parity=Parity(fam["parity"]), potential=pot)
        return model, None
    generators = []
    for g in fam["generators"]:
        if g["type"] == "scalar":
            series = Harmonics(g["k_max"], Parity(g["parity"]))
            generators.append(ScalarGenerator(series, tuple(g["offsets"])))
        else:
            coords = [Harmonics(c["k_max"], Parity(c["parity"]))
                      for c in g["coords"]]
            generators.append(VectorGenerator(*coords))
    bindings = [BodyBinding(b["generator"], OrthTransform(b["matrix"]),
                            b["phase"], b["mass"]) for b in fam["bindings"]]
    symmetries = [SpaceTimeSymmetry(OrthTransform(s["matrix"]), s["time_shift"],
                                    s["time_reversal"]) for s in fam["symmetries"]]
    return OrbitModel(tuple(generators), tuple(bindings), pot,
                      Family(kind="custom"), tuple(symmetries)), None


def record_to_model(record: OrbitRecord) -> tuple[OrbitModel, ReducedParams]:
    """Rebuild the orbit model and reduced parameters from a record.

    A family its builder refuses (an even cubic m, a bad parity or mass)
    is a RecordError, like any other inconsistent record.
    """
    try:
        model, reference = _rebuild_model(record)
    except (CollisionError, ValueError) as err:
        raise RecordError(f"record family cannot be built: {err}") from err
    try:
        slots = [Slot(*s) for s in record.layout["slots"]]
        couplings = [Coupling(*c) for c in record.layout["couplings"]]
        layout = make_layout(model, slots, couplings)
        params = ReducedParams(layout, np.array(record.values, dtype=float))
    except Exception as err:
        raise RecordError(f"record layout is inconsistent: {err}") from err
    if reference is not None and (reference.slots != layout.slots or
                                  reference.couplings != layout.couplings):
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
    with np.errstate(divide="ignore", invalid="ignore"):
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
    res = None if result is None else result.residual
    grad_norm = None
    outcome = None
    iterations = None
    if result is not None:
        grad_norm = None if math.isinf(result.grad_norm) else float(result.grad_norm)
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
        residual=None if res is None else float(res),
        observables=_observable_summary(model, params),
        descent=_descent_dict(schedule, stop),
    )


def verify_record(record: OrbitRecord) -> tuple[bool, float]:
    """Recompute the residual of a stored orbit.

    Returns (ok, recomputed); for converged records ok means the recomputed
    residual is within ``VERIFY_FACTOR`` times the stored value.
    """
    model, params = record_to_model(record)
    recomputed = residual(model, params).max_violation
    if record.residual is None:
        return True, float(recomputed)
    return (bool(recomputed <= VERIFY_FACTOR * record.residual),
            float(recomputed))


# ----------------------------------------------------------------------
# table export
# ----------------------------------------------------------------------


def _column_name(slot: Slot, family_kind: str) -> str:
    if family_kind == "cubic":
        return "a"
    if family_kind == "crisscross":
        letter = "a" if slot.basis == COS else "b"
        return f"{letter}_{slot.gen + 1}"
    return f"{'xyz'[slot.channel]}.{slot.basis}"


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
    kind = model.family.kind
    columns: list[tuple[str, tuple[int, int, str]]] = []
    for s in params.layout.slots:
        key = (s.gen, s.channel, s.basis)
        name = _column_name(s, kind)
        if (name, key) not in columns:
            columns.append((name, key))
    ks = sorted({s.k for s in params.layout.slots})
    table = {key: {} for _, key in columns}
    for i, s in enumerate(params.layout.slots):
        table[(s.gen, s.channel, s.basis)][s.k] = params.values[i] / scale
    lines = [
        f"# family: {_family_label(record)}",
        f"# scale: {scale!r}",
        f"# k_max: {record.k_max}",
        f"# residual: {record.residual!r}",
        "  k " + " ".join(f"{name:>9s}" for name, _ in columns),
    ]
    for k in ks:
        row = [f"{k:3d}"]
        for _, key in columns:
            v = table[key].get(k)
            row.append("         " if v is None else f"{v:9.5f}")
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


def write_text(path: str, text: str) -> None:
    """Atomic plain-text write (temporary file, then rename) used by
    records and all exports."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
