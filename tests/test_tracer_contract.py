"""The benchmark's per-layer tracer still finds what it wraps.

``perfbench/tracer.py`` times the library by rebinding names in its module
namespaces and reads the sampled bases of every ``EvalKernel`` it sees.  A
name that stops resolving breaks traced benchmark runs without failing any
library test, so the contract is checked here.
"""

import importlib
import importlib.util
import pathlib

from actionorbits import EvalKernel, build_cubic_family

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracer = _load_tracer()
    for mod_name, attr, layer in tracer.BINDINGS:
        module = importlib.import_module(f"actionorbits.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr, layer)


def test_kernel_exposes_the_traced_bases():
    tracer = _load_tracer()
    model, params = build_cubic_family(1, k_max=5)
    kernel = EvalKernel(model, params)
    bases = [kernel.basis_pos, kernel.basis_vel, kernel.basis_acc]
    assert tracer._kernel_bytes(kernel) == sum(b.nbytes for b in bases)
