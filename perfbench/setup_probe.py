"""Set-up probe: import actionorbits and pay each stage's first-call costs.

Run in a fresh interpreter as ``python3 setup_probe.py <src directory>``;
the caller times the whole process.  The benchmark also calls
:func:`first_calls` once in its own process before it times anything, so
lazy initialisation (``verify_symmetry`` imports ``scipy.optimize`` on its
first call) lands in ``setup_s`` and not in the first timed operation.
"""

import json
import sys
from dataclasses import asdict


def first_calls():
    """One call into each stage on the smallest cubic orbit."""
    import actionorbits as ao

    model, params = ao.build_cubic_family(1, k_max=3)
    result = ao.run(model, params, stop=ao.StopRule(max_iters=2))
    ao.residual(model, result.params)
    ao.verify_symmetry(model, result.params)
    state = ao.extract_ics(model, result.params)
    ao.rk4_step(model.potential, model.masses, state.positions,
                state.velocities, 0.0, ao.DEFAULT_DT)
    json.dumps(asdict(ao.make_record(model, result.params, result)))


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    first_calls()
