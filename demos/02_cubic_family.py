"""The cubic orbit family: 4m bodies on four symmetry-related loops.

One odd sine series f generates everything: the base loop is the closed
curve (f(t), f(t + 2 pi/3), f(t + 4 pi/3)), the other three loops are its
images under the three double sign flips (the Klein four-group), and m
bodies ride each loop at equal phase offsets.  Because the four Klein
matrices sum to zero, total angular momentum vanishes identically -- a
structural zero, not a tuned one.

This script minimizes the action for m = 1 and m = 3, prints the
normalized coefficient tables, and checks the conserved quantities.
For m divisible by 3 the symmetry group grows to the full 12-element
cube-rotation set, which forces the inertia tensor to be scalar and the
quadrupole to vanish even though the moment of inertia still breathes
in time.
"""

import numpy as np

import actionorbits as ao


def show_table(result):
    values = result.params.values
    norm = values / values[0]
    ks = result.params.layout.slot_k
    print("    k   a_k / a_1")
    for k, v in zip(ks, norm):
        if abs(v) < 5e-6 and k > 1:
            continue
        print(f"  {k:3d}   {v:9.5f}")


def main():
    for m, k_max in ((1, 27), (3, 35)):
        print(f"=== cubic family, m = {m} ({4 * m} bodies, k_max = {k_max}) ===")
        model, params = ao.build_cubic_family(m, k_max=k_max)
        result = ao.run(model, params)
        print(f"outcome = {result.outcome} after {result.iterations} "
              f"iterations, residual = {result.residual:.3e}")
        print("normalized odd-harmonic table:")
        show_table(result)

        grid = ao.QuadratureGrid(64)
        _, obs = ao.observables_series(model, result.params, grid)
        j_max = np.abs(obs.J).max()
        q_max = np.abs(obs.Q).max()
        inertia = np.trace(obs.I, axis1=1, axis2=2) / 2.0
        print(f"max |J| over 64 times   = {j_max:.2e}  (structural zero)")
        print(f"max |Q| over 64 times   = {q_max:.2e}"
              + ("  (scalar inertia: m divisible by 3)" if m % 3 == 0 else ""))
        print(f"moment of inertia range = [{inertia.min():.6f}, "
              f"{inertia.max():.6f}]  (breathes, never constant)")

        state = ao.extract_ics(model, result.params)
        print(f"body 0 at t=0: x = {np.round(state.positions[0], 5)}, "
              f"v = {np.round(state.velocities[0], 5)}")
        print()

    print("an even m would force two loops to swap bodies at a crossing:")
    try:
        ao.build_cubic_family(2)
    except ao.CollisionError as err:
        print(f"  CollisionError: {err}")


if __name__ == "__main__":
    main()
