"""Two bodies on a shared circle: every number here has a closed form.

Two unit masses opposite each other on a circle of radius a, traversed
once per period 2*pi, have kinetic energy 2 * (1/2) a^2 and a constant
separation 2a, so the action is

    S(a) = 2*pi*a^2 + pi/a.

Force balance (centripetal acceleration a*1 = 1/(2a)^2) puts the true
orbit at a = 2**(-2/3) ~ 0.6300.  This script seeds the minimizer off
the solution, watches it land on the analytic radius, and then uses the
period-rescaling law to predict the radius of the same orbit at twice
the period.
"""

import math

import numpy as np

import actionorbits as ao

TWO_PI = 2.0 * math.pi


def circle_model(a):
    return ao.build_choreography(
        2, seed={("x", "sin", 1): a, ("y", "cos", 1): a}, k_max=27)


def main():
    a_star = 2.0 ** (-2.0 / 3.0)

    print("closed-form action S(a) = 2 pi a^2 + pi/a versus quadrature:")
    for a in (0.5, a_star, 1.0):
        model, params = circle_model(a)
        rep = ao.action(model, params)
        exact = TWO_PI * a * a + math.pi / a
        print(f"  a = {a:.4f}:  S = {rep.S:.12f}   exact = {exact:.12f}")

    print("\ngradient along the radius at a = 1 (hand value 3 pi / 2):")
    model, params = circle_model(1.0)
    g = ao.gradient(model, params)
    print(f"  dS/da per k=1 slot = {g[0]:.12f}   3 pi/2 = {1.5 * math.pi:.12f}")

    print("\ndescending from a 10% too-large seed:")
    model, params = circle_model(1.1 * a_star)
    result = ao.run(model, params)
    a_found = abs(result.params.values[0])
    print(f"  outcome      = {result.outcome} after {result.iterations} iterations")
    print(f"  radius       = {a_found:.9f}  (analytic {a_star:.9f})")
    print(f"  action       = {ao.action(model, result.params).S:.9f}"
          f"  (analytic {TWO_PI * a_star**2 + math.pi / a_star:.9f})")
    print(f"  EOM residual = {result.residual:.3e}")

    print("\nangular momentum of the converged orbit (J_z = -2 a^2 for the")
    print("clockwise seed orientation):")
    _, obs = ao.observables_series(model, result.params, np.array([0.0]))
    print(f"  J = {obs.J[0]}   -2 a^2 = {-2.0 * a_found**2:.9f}")

    print("\nperiod rescaling: the same orbit at period T scales all")
    print("amplitudes by (T / 2 pi)^(2/(2-alpha)); for alpha = -1 doubling")
    print("the period multiplies the radius by 2^(2/3):")
    law = ao.ScalingLaw(alpha=-1.0, period=2.0 * TWO_PI)
    print(f"  a (T = 2 pi)  = {a_found:.9f}")
    print(f"  a (T = 4 pi)  = {law.scale_factor * a_found:.9f}"
          f"   predicted {a_found * 2.0 ** (2.0 / 3.0):.9f}")


if __name__ == "__main__":
    main()
