"""Number arguments: every value class and builder takes NumPy scalars and
stores plain Python numbers, so a model built from them saves as a record;
a bool, a str or None is refused with a ValueError."""

import ast
import math
import pathlib

import numpy as np
import pytest

import actionorbits as ao
from actionorbits import (build_choreography, build_crisscross,
                          build_cubic_family, load_record, make_record,
                          record_to_model, save_record)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "actionorbits"

# the NumPy type of a real argument and the Python type it stands for; an
# integer argument is an np.int64 throughout
NUMBERS = {"int64": (np.int64, int), "float32": (np.float32, float),
           "float64": (np.float64, float)}


def _custom(integer, number):
    """A custom model with every value class that takes a number: scalar
    and vector generators, bindings, a claimed symmetry, the potential, and
    a layout with a coupling.  Every number is integral, so each NumPy
    type holds it exactly."""
    odd = ao.Parity.ODD_ONLY
    eye = ao.OrthTransform(np.eye(3, dtype=int))
    scalar = ao.ScalarGenerator(ao.Harmonics(integer(9), odd),
                                (number(0), number(2), number(4)))
    vector = ao.VectorGenerator(*[ao.Harmonics(integer(9), odd)] * 3)
    bindings = (ao.BodyBinding(integer(0), eye, number(0), number(1)),
                ao.BodyBinding(integer(1), eye, number(1), number(2)),
                ao.BodyBinding(integer(1), eye, number(3), number(2)))
    model = ao.OrbitModel((scalar, vector), bindings,
                          ao.PotentialSpec(number(-1), number(2), number(0)),
                          ao.Family("custom"),
                          (ao.SpaceTimeSymmetry(eye, number(3)),))
    slots = [ao.Slot(integer(0), integer(0), ao.SIN, integer(k))
             for k in (1, 3)] + [ao.Slot(integer(1), integer(0), ao.COS,
                                         integer(1))]
    couplings = [ao.Coupling(integer(2), integer(1), integer(1), ao.COS,
                             integer(1), -1.0)]
    layout = ao.make_layout(model, slots, couplings)
    return model, ao.ReducedParams(layout, [1.0, 0.5, 0.25])


def _potential(number):
    return ao.PotentialSpec(alpha=number(-2), G=number(2), softening=number(0))


BUILDS = {
    "cubic-m3": lambda i, x: build_cubic_family(i(3), i(9), _potential(x)),
    "crisscross": lambda i, x: build_crisscross((x(1), x(1), x(1)), i(9),
                                                _potential(x)),
    "crisscross-123": lambda i, x: build_crisscross((x(1), x(2), x(3)), i(9),
                                                    _potential(x)),
    "choreography": lambda i, x: build_choreography(
        i(3), seed={("x", ao.SIN, i(1)): x(1), ("y", ao.COS, i(1)): x(2)},
        k_max=i(9), potential=_potential(x)),
    "custom": _custom,
}


def _saved(path, model, params, schedule=None, stop=None) -> str:
    save_record(make_record(model, params, None, schedule, stop), str(path))
    return path.read_text()


@pytest.mark.parametrize("number", list(NUMBERS))
@pytest.mark.parametrize("build", list(BUILDS))
def test_numpy_scalar_model_round_trips(build, number, tmp_path):
    # the model built from NumPy scalars is the one built from Python
    # numbers, its record has the same bytes, and it loads back equal and
    # hash-equal
    numpy_type, python_type = NUMBERS[number]
    model, params = BUILDS[build](np.int64, numpy_type)
    expected, expected_params = BUILDS[build](int, python_type)
    assert model == expected and hash(model) == hash(expected)
    text = _saved(tmp_path / "numpy.json", model, params)
    assert text == _saved(tmp_path / "python.json", expected, expected_params)
    model2, params2 = record_to_model(load_record(str(tmp_path / "numpy.json")))
    assert model2 == expected and hash(model2) == hash(expected)
    assert params2.layout == expected_params.layout
    assert params2.values.tobytes() == expected_params.values.tobytes()


@pytest.mark.parametrize("number", list(NUMBERS))
def test_numpy_scalar_schedule_and_stop_save(number, tmp_path):
    # make_record writes a schedule and stop rule built from NumPy scalars
    # as the one built from Python numbers
    numpy_type, python_type = NUMBERS[number]
    model, params = build_cubic_family(1, k_max=5)

    def settings(i, x):
        return ([ao.DescentSchedule.uniform(x(2)),
                 ao.DescentSchedule.preconditioned(x(1)),
                 ao.DescentSchedule.custom({i(1): x(1), i(3): x(2),
                                            i(5): x(0)})],
                ao.StopRule(grad_tol=x(0), max_iters=i(10),
                            escape_radius=x(50)))

    schedules, stop = settings(np.int64, numpy_type)
    expected_schedules, expected_stop = settings(int, python_type)
    assert stop == expected_stop
    assert type(stop.max_iters) is int
    for schedule, expected in zip(schedules, expected_schedules):
        assert schedule == expected
        assert (_saved(tmp_path / "numpy.json", model, params, schedule, stop)
                == _saved(tmp_path / "python.json", model, params, expected,
                          expected_stop))


def _model():
    return build_cubic_family(1, k_max=5)


def _paths():
    t = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    base = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)
    return np.stack([base, -base])


REFUSED = {
    "choreography-seed-value-str": (lambda: build_choreography(
        2, seed={("x", ao.SIN, 1): "1"}, k_max=9), "seed value"),
    "crisscross-mass-str": (lambda: build_crisscross(("1", "2", "3"), 9),
                            "mass"),
    "potential-alpha-true": (lambda: ao.PotentialSpec(alpha=True), "alpha"),
    "potential-G-str": (lambda: ao.PotentialSpec(G="1"), "G"),
    "potential-softening-none": (lambda: ao.PotentialSpec(softening=None),
                                 "softening"),
    "scaling-period-str": (lambda: ao.ScalingLaw(-1.0, "6"), "period"),
    "uniform-true": (lambda: ao.DescentSchedule.uniform(True), "dtau"),
    "uniform-str": (lambda: ao.DescentSchedule.uniform("0.1"), "dtau"),
    "preconditioned-true": (lambda: ao.DescentSchedule.preconditioned(True),
                            "delta"),
    "custom-step-str": (lambda: ao.DescentSchedule.custom({1: "0.01"}),
                        "custom schedule step"),
    "custom-step-true": (lambda: ao.DescentSchedule.custom({1: 0.01, 3: True}),
                         "custom schedule step"),
    "stop-grad_tol-str": (lambda: ao.StopRule(grad_tol="1"), "grad_tol"),
    "stop-escape_radius-true": (lambda: ao.StopRule(escape_radius=True),
                                "escape_radius"),
    "naive-iters-none": (lambda: ao.naive_time_descent(
        _paths(), np.ones(2), ao.PotentialSpec(), 1e-5, None),
        "iteration count"),
    "naive-iters-true": (lambda: ao.naive_time_descent(
        _paths(), np.ones(2), ao.PotentialSpec(), 1e-5, True),
        "iteration count"),
    "track-n_periods-str": (lambda: ao.perturb_and_track(
        *_model(), np.full((4, 3), 1e-6), "1"), "n_periods"),
    "track-envelope-str": (lambda: ao.perturb_and_track(
        *_model(), np.full((4, 3), 1e-6), 1.0, envelope="1"), "envelope"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_bool_str_or_none_is_refused(case):
    # each of these was taken (a bool as 1, a str through float()) or
    # ended in a TypeError
    call, field = REFUSED[case]
    with pytest.raises(ValueError, match=field):
        call()


def test_number_types_are_checked_only_in_errors():
    # errors.integer and errors.real are the library's one check of a
    # number argument: no other module names numbers.Integral or
    # numbers.Real, or imports from numbers
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in
                    ("Integral", "Real") and isinstance(node.value, ast.Name)
                    and node.value.id == "numbers") or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "numbers"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
