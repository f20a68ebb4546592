"""Both methods on diagonal quadratic energies, at every scale from 1e-6 to 1e6.

H = sum_a c_a x_a^2 makes the field linear, X = Omega S x with S = diag(2 c),
so the exact flow is x(T) = expm(T Omega S) x0 and the accuracy of a step
does not depend on |x0|.  Two properties are drawn over n in {1, 2}, the
three forms and |x0| = 10^u for u in [-6, 6]:

- the implicit midpoint rule conserves quadratic invariants, so H stays at
  H_0 to rounding (Hairer, Lubich and Wanner, Geometric Numerical
  Integration, 2nd ed., section IV.2);
- both methods follow expm(T Omega S) x0 within 3x their leading phase
  error, T w^3 dt^2 / 12 for the midpoint rule and T w^5 dt^4 / 120 for
  RK4, with w = 2 max c bounding the frequency of every pair of
  coordinates, plus 1e-12, as bench/workloads.flow_tolerance states it.
  Omega pairs the coordinates, and a pair whose entries of S are s1 >= s2
  turns at sqrt(s1 s2) on an ellipse with axes in the ratio sqrt(s1 / s2).
  Relative to max|x0| its error is at most sqrt(2) sqrt(s1 / s2) times its
  own phase error, and that is at most sqrt(2) times the phase error at w,
  so the factor 3 leaves room for the next order.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quatflow import BlockDim, HamiltonianSystem, evaluate, integrate, parse
from oracles import expm_taylor, omega_matrix

STEPS = (0.005, 0.01, 0.02, 0.05)


@st.composite
def _quadratic_runs(draw, low: float, high: float):
    """(system, c, x0): H = sum_a c_a x_a^2 with c_a in [low, high], |x0| = 10^u."""
    n = draw(st.sampled_from((1, 2)))
    label = draw(st.sampled_from("FGH"))
    size = 4 * n
    c = draw(st.lists(st.floats(low, high), min_size=size, max_size=size))
    direction = draw(
        st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size).filter(lambda v: max(map(abs, v)) >= 0.1)
    )
    radius = 10.0 ** draw(st.floats(-6.0, 6.0))
    x0 = [radius * a / math.hypot(*direction) for a in direction]
    text = " + ".join(f"{value!r}*x{a}^2" for a, value in enumerate(c, start=1))
    return HamiltonianSystem.build(label, parse(text, BlockDim(n))), c, x0


@settings(max_examples=100, deadline=None)
@given(run=_quadratic_runs(0.1, 2.0))
def test_the_midpoint_rule_conserves_a_quadratic_energy_at_every_scale(run):
    system, c, x0 = run
    trajectory = integrate(system, x0, 0.05 / max(c), 50, "implicit_midpoint")
    energies = [evaluate(system.hamiltonian, x) for x in trajectory.states]
    assert max(abs(e - energies[0]) for e in energies) / energies[0] <= 1e-13


@settings(max_examples=100, deadline=None)
@given(
    run=_quadratic_runs(0.01, 3.0),
    method=st.sampled_from(("rk4", "implicit_midpoint")),
    dt=st.sampled_from(STEPS),
    steps=st.integers(10, 100),
)
def test_both_methods_follow_the_matrix_exponential_at_every_scale(run, method, dt, steps):
    system, c, x0 = run
    final = integrate(system, x0, dt, steps, method).states[-1]
    horizon, w = steps * dt, 2.0 * max(c)
    exact = expm_taylor(horizon * omega_matrix(system) @ np.diag([2.0 * value for value in c])) @ x0
    if method == "rk4":
        phase = horizon * w**5 * dt**4 / 120.0
    else:
        phase = horizon * w**3 * dt**2 / 12.0
    assert np.abs(np.array(final) - exact).max() / max(map(abs, x0)) <= 3.0 * phase + 1e-12
