import math
from functools import partial

import numpy as np
import pytest

from quatflow import (
    BlockDim,
    HamiltonianSystem,
    IntegrationError,
    NewtonDivergenceError,
    Trajectory,
    gradient,
    hamiltonian_vector_field,
    integrate,
    parse,
    step_implicit_midpoint,
    step_rk4,
    evaluate,
)
from quatflow import dynamics
from quatflow.expressions import DEMO_HAMILTONIANS
from oracles import (
    dual_gradient,
    expm_taylor,
    midpoint_newton_update,
    omega_matrix,
    quadratic_energy_text,
    reference_field_formula,
)

POINT = np.array([1.0, 2.0, 3.0, 4.0])


def _system(label, text="0.5*(x1^2 + x2^2 + x3^2 + x4^2)", n=1):
    dim = BlockDim(n)
    return HamiltonianSystem.build(label, parse(text, dim))


# --- the central solve -----------------------------------------------------

@pytest.mark.parametrize(
    "label,expected",
    [
        ("F", [-2.0, 1.0, -4.0, 3.0]),
        ("G", [-3.0, 4.0, 1.0, -2.0]),
        ("H", [-4.0, -3.0, 2.0, 1.0]),
    ],
)
def test_field_for_quadratic_energy(label, expected):
    system = _system(label)
    assert np.array_equal(hamiltonian_vector_field(system, POINT), np.array(expected))


def test_field_of_constant_energy_vanishes():
    system = _system("G", text="5")
    assert hamiltonian_vector_field(system, POINT) == [0.0] * 4


def test_field_agrees_with_dense_linear_solve():
    rng = np.random.default_rng(99)
    for label in "FGH":
        system = _system(label)
        omega = omega_matrix(system)
        for _ in range(10):
            point = rng.uniform(-2.0, 2.0, 4)
            grad = gradient(system.hamiltonian, point)
            direct = np.linalg.solve(omega.T, grad)
            assert np.abs(hamiltonian_vector_field(system, point) - direct).max() < 1e-14


@pytest.mark.parametrize(
    "label,grad,expected",
    [
        ("H", [1.0, 2.0, 3.0, 4.0], [-4.0, -3.0, 2.0, 1.0]),
        ("G", [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]),
        ("F", [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),
    ],
)
def test_reference_formula_examples(label, grad, expected):
    result = reference_field_formula(label, np.array(grad))
    assert np.array_equal(result, np.array(expected))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_generic_solve_equals_transcribed_formula(label, n):
    dim = BlockDim(n)
    omega = omega_matrix(HamiltonianSystem.build(label, parse(quadratic_energy_text(dim), dim)))
    rng = np.random.default_rng(1000 + n)
    for _ in range(50):
        grad = rng.standard_normal(4 * n)
        generic = omega @ grad
        assert np.array_equal(generic, reference_field_formula(label, grad))


@pytest.mark.parametrize("name", sorted(DEMO_HAMILTONIANS))
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_energy_gradient_is_orthogonal_to_the_field(label, name):
    system = _system(label, text=DEMO_HAMILTONIANS[name])
    omega = omega_matrix(system)
    rng = np.random.default_rng(hash((label, name)) % 2**32)
    for _ in range(100):
        point = rng.uniform(-2.0, 2.0, 4)
        grad = gradient(system.hamiltonian, point)
        field = omega @ grad
        assert abs(float(np.dot(grad, field))) <= 1e-12


# --- Omega^{-T} is Omega --------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_inverse_transpose_cache_is_exact(label, n):
    # the field applies Omega where the dynamic equation has Omega^{-T}
    dim = BlockDim(n)
    omega = omega_matrix(HamiltonianSystem.build(label, parse(quadratic_energy_text(dim), dim)))
    assert np.array_equal(omega @ omega.T, np.eye(4 * n))
    assert np.array_equal(np.linalg.inv(omega.T), omega)


def test_system_build_rejects_unknown_label():
    with pytest.raises(ValueError):
        _system("Q")


# --- single steps ----------------------------------------------------------

def test_rk4_step_tracks_the_rotation():
    system = _system("F")
    stepped = step_rk4(system, np.array([1.0, 0.0, 0.0, 0.0]), 0.1)
    exact = np.array([math.cos(0.1), math.sin(0.1), 0.0, 0.0])
    assert np.abs(stepped - exact).max() < 1e-7


def test_rk4_fixed_point_for_constant_energy():
    system = _system("F", text="5")
    stepped = step_rk4(system, POINT, 0.25)
    assert np.array_equal(stepped, POINT)


def test_rk4_rejects_nonpositive_dt():
    # a NaN dt fails dt > 0.0 like any other, before a state is computed
    system = _system("F")
    for dt in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="^dt must be positive, got "):
            step_rk4(system, POINT, dt)


def test_midpoint_conserves_quadratic_energy_per_step():
    system = _system("F")
    start = np.array([1.0, 0.0, 0.0, 0.0])
    stepped = step_implicit_midpoint(system, start, 0.1)
    before = evaluate(system.hamiltonian, start)
    after = evaluate(system.hamiltonian, stepped)
    assert abs(after - before) <= 1e-12


def test_midpoint_fixed_point_converges_within_one_iteration(monkeypatch):
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITER", 1)
    system = _system("H", text="5")
    stepped = step_implicit_midpoint(system, POINT, 0.1)
    assert np.array_equal(stepped, POINT)


def test_midpoint_one_iteration_budget_diverges_on_a_quartic_energy(monkeypatch):
    # Newton's own budget, so _newton itself: another solver in front of it could converge
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITER", 1)
    system = _system("F", text=DEMO_HAMILTONIANS["quartic"])
    with pytest.raises(NewtonDivergenceError) as info:
        dynamics._newton(system, POINT.tolist(), 0.1, POINT.tolist())
    assert info.value.iterations == 1
    assert info.value.residual_norm > 0.0


def test_newton_divergence_is_an_integration_error():
    assert issubclass(NewtonDivergenceError, IntegrationError)


def test_integrate_reports_a_newton_divergence_as_a_failed_step(monkeypatch):
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITER", 1)
    system = _system("F", text=DEMO_HAMILTONIANS["quartic"])
    with pytest.raises(IntegrationError) as info:
        integrate(system, POINT, 0.1, 3, "implicit_midpoint")
    assert str(info.value).startswith(
        "step 0 failed: implicit midpoint Newton iteration did not converge after 1 iterations"
    )
    assert isinstance(info.value.__cause__, NewtonDivergenceError)
    assert np.array_equal(info.value.partial.states, [POINT])


def test_midpoint_stops_at_a_non_finite_residual(monkeypatch):
    # grad H = 1e300 * (x2, x1) overflows to inf at the start, which no
    # Newton update can repair: stop before the first Jacobian is used
    calls = []

    def counted_gradient(field, point):
        calls.append(point)
        return gradient(field, point)

    monkeypatch.setattr(dynamics, "gradient", counted_gradient)
    system = _system("F", text="1e300*x1*x2")
    with pytest.raises(IntegrationError) as info:
        integrate(system, np.array([1e10, 1e10, 0.0, 0.0]), 0.1, 3, "implicit_midpoint")
    assert str(info.value) == "step 0 failed: non-finite state after step"
    assert isinstance(info.value.__cause__, IntegrationError)
    assert 1 <= len(calls) <= 4 * system.omega.dim.n + 1


def test_no_global_numpy_error_setting_reaches_a_midpoint_step():
    # 0.5 dt J holds entries below the smallest normal double here; with
    # numpy's errors raised, their underflow used to abort the step
    system = _system("F", text="1e-307*(x1^2+x2^2+x3^2+x4^2) + x1^2")
    x = [0.3, -0.2, 0.1, 0.4]
    plain = step_implicit_midpoint(system, x, 0.05)
    with np.errstate(all="raise"):
        raised = step_implicit_midpoint(system, x, 0.05)
        trajectory = integrate(system, x, 0.05, 3, "implicit_midpoint")
    assert np.array(raised).tobytes() == np.array(plain).tobytes()
    assert len(trajectory.states) == 4 and trajectory.states[1] == tuple(plain)


def test_midpoint_converges_past_the_overflow_of_a_squared_norm(monkeypatch):
    # |x|^2 overflows past |x| ~ 1.34e154; read through it, the FD step was
    # inf and Newton failed with a non-finite state
    gradient_calls = []

    def counted_gradient(field, point):
        gradient_calls.append(point)
        return gradient(field, point)

    monkeypatch.setattr(dynamics, "gradient", counted_gradient)
    system = _system("G", text="(1e-55*x1)^3 + x2")
    x = np.array([1e155, 0.0, 0.0, 0.0])
    y = dynamics._newton(system, x.tolist(), 0.01, x.tolist())
    assert len(gradient_calls) == 2 * (4 * system.omega.dim.n + 1)  # two Newton iterations
    residual = y - x - 0.01 * np.array(hamiltonian_vector_field(system, 0.5 * (x + y)))
    assert math.hypot(*residual) <= dynamics.NEWTON_TOL * math.hypot(*y)


def _cold_and_warm_steps(label, n, scale):
    """(system, x, y) for a cold and a warm public midpoint step of a quartic energy at |x| = scale.

    The warm start is the probe's: the step of a neighbour, shifted by the
    difference of the two points.
    """
    squares = " + ".join(f"x{a}^2" for a in range(1, 4 * n + 1))
    system = _system(label, f"0.5*({squares}) + 0.1*x1^4 + 0.05*sin(x2)", n)
    direction = np.random.default_rng(n).standard_normal(4 * n)
    x = scale * direction / np.linalg.norm(direction)
    neighbour = x.copy()
    neighbour[0] += 2.0**-17 * max(1.0, scale)
    warm = np.array(step_implicit_midpoint(system, neighbour, 0.05)) + (x - neighbour)
    for start in (None, warm):
        yield system, x, np.array(step_implicit_midpoint(system, x, 0.05, start=start))


@pytest.mark.parametrize("scale", [1e-3, 0.8, 1e3, 1e7])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_one_more_newton_iteration_moves_the_midpoint_step_within_rounding(label, n, scale):
    # Newton stops at an update below 1e-12 max(1, |y|), or once the last two
    # updates predict the rest below 2^-52 |y|; either way one more update,
    # the reference's own, from a cold or a warm start, moves y by at most
    # 2^-51 |y|, about 2 ulp
    for system, x, y in _cold_and_warm_steps(label, n, scale):
        update = midpoint_newton_update(system, x, y, 0.05)
        assert np.linalg.norm(update) <= 2.0**-51 * np.linalg.norm(y)


@pytest.mark.parametrize("scale", [1e-3, 0.8, 1e3])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_the_midpoint_step_solves_its_equation_to_rounding(label, n, scale):
    # the step's contract, whatever solves it: y - x - dt Omega grad H((x + y)/2),
    # with the oracles' dense Omega and dual-number gradient, is within 4 ulp
    # of |y| (it reads at most 1.6 ulp).  Not at 1e7: there the quartic term
    # makes (dt/2)|J| >> 1, which magnifies y's own rounding into a residual of
    # up to ~6,800 ulp though y is exact to rounding; the one-more-update test
    # above, which names no solver either, covers that scale
    for system, x, y in _cold_and_warm_steps(label, n, scale):
        residual = y - x - 0.05 * (omega_matrix(system) @ dual_gradient(system.hamiltonian, 0.5 * (x + y)))
        assert np.linalg.norm(residual) <= 4 * 2.0**-52 * np.linalg.norm(y)


def test_newton_divergence_reports_a_finite_residual_norm_at_huge_scale(monkeypatch):
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITER", 1)
    system = _system("F", text="1e200*x1")
    x = [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(NewtonDivergenceError) as info:
        dynamics._newton(system, x, 0.01, x)
    # Newton's first residual is -dt X(x), of norm 1e198; its square overflows
    assert info.value.residual_norm == pytest.approx(1e198, rel=1e-12)
    assert "last residual norm 1.000e+198" in str(info.value)


def test_midpoint_rejects_bad_parameters():
    system = _system("F")
    for dt in (-0.1, 0.0, math.nan):
        with pytest.raises(ValueError, match="^dt must be positive, got "):
            step_implicit_midpoint(system, POINT, dt)


@pytest.mark.parametrize("length", [3, 5])
def test_midpoint_rejects_a_start_of_the_wrong_length(length):
    # an extra entry is not dropped, and a short start is not reported as a bad point
    with pytest.raises(ValueError, match="^start must have length 4$"):
        step_implicit_midpoint(_system("F"), POINT, 0.1, start=[*POINT, 0.0][:length])


# text, bytes, a mapping and a set hold four items, none of them a coordinate,
# and an entry written as text or bytes is no coordinate, though float() reads it
NOT_POINTS = {"text": "1234", "bytes": b"1234", "dict": dict.fromkeys([1.0, 2.0, 3.0, 4.0]),
              "set": {1.0, 2.0, 3.0, 4.0}, "frozenset": frozenset({1.0, 2.0, 3.0, 4.0}),
              "text_entries": ["1", "0", "0", "0"], "text_tuple": ("1", "0", "0", "0"),
              "one_text_entry": [1.0, 0.0, "0", 0.0], "bytes_entries": [b"1", b"0", b"0", b"0"],
              "text_array": np.array(["1", "0", "0", "0"])}


@pytest.mark.parametrize("value", NOT_POINTS.values(), ids=NOT_POINTS)
def test_text_bytes_mappings_and_sets_are_not_points(value):
    system = _system("F")
    energy = system.hamiltonian
    readers = {
        "point": [partial(evaluate, energy), partial(gradient, energy), partial(step_rk4, system, dt=0.1),
                  partial(step_implicit_midpoint, system, dt=0.1)],
        "start": [lambda v: step_implicit_midpoint(system, POINT, 0.1, start=v)],
        "initial point": [lambda v: integrate(system, v, 0.1, 1, "rk4")],
        "each state": [lambda v: Trajectory(system, [POINT, v], 0.1)],
    }
    for what, calls in readers.items():
        for read in calls:
            with pytest.raises(ValueError) as info:
                read(value)
            assert type(info.value) is ValueError and str(info.value) == f"{what} must have length 4"


# --- trajectories ----------------------------------------------------------

def test_integrate_length_contract():
    system = _system("F")
    start = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.shape(integrate(system, start, 0.1, 1, "rk4").states) == (2, 4)
    assert np.shape(integrate(system, start, 0.1, 7, "implicit_midpoint").states) == (8, 4)


def test_integrate_validates_arguments():
    system = _system("F")
    start = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        integrate(system, start, 0.1, 0, "rk4")
    with pytest.raises(ValueError):
        integrate(system, start, 0.1, 5, "euler")


@pytest.mark.parametrize(
    "initial,dt",
    [
        ([1.0, np.nan, 0.0, 0.0], 0.1),
        ([np.inf, 0.0, 0.0, 0.0], 0.1),
        ([1.0, 0.0, 0.0], 0.1),
        ([[1.0, 0.0, 0.0, 0.0]], 0.1),
        ([1.0, 0.0, 0.0, 0.0], 0.0),
        ([1.0, 0.0, 0.0, 0.0], -0.1),
        ([1.0, 0.0, 0.0, 0.0], math.nan),
    ],
    ids=["nan", "inf", "short", "2-D", "dt-zero", "dt-negative", "dt-nan"],
)
def test_integrate_rejects_bad_initial_state_or_step(initial, dt):
    with pytest.raises(ValueError):
        integrate(_system("F"), initial, dt, 5, "rk4")


def test_full_circle_returns_to_start():
    system = _system("F")
    trajectory = integrate(system, np.array([1.0, 0.0, 0.0, 0.0]), 0.01, 628, "rk4")
    exact = np.array([math.cos(6.28), math.sin(6.28), 0.0, 0.0])
    assert np.abs(trajectory.states[-1] - exact).max() < 1e-5


@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_trajectory_matches_matrix_exponential_oracle(label):
    system = _system(label)
    start = np.array([1.0, 0.0, 0.0, 0.0])
    trajectory = integrate(system, start, 0.01, 100, "rk4")
    # quadratic energy: the flow is linear with generator Omega^{-T} = Omega
    oracle = expm_taylor(1.0 * omega_matrix(system)) @ start
    assert np.abs(trajectory.states[-1] - oracle).max() < 1e-9


def test_trajectory_timestamps_are_uniform():
    system = _system("G")
    trajectory = integrate(system, np.array([1.0, 0.0, 0.0, 0.0]), 0.01, 50, "rk4")
    gaps = np.diff(trajectory.times)
    assert np.abs(gaps - 0.01).max() < 1e-12
    assert trajectory.times[-1] == 50 * 0.01


def test_integration_abort_carries_partial_trajectory():
    # the flow drives x1 through zero where sqrt stops being real
    system = _system("F", text="sqrt(x1) + x2")
    start = np.array([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(IntegrationError) as excinfo:
        integrate(system, start, 0.01, 100, "rk4")
    error = excinfo.value
    assert error.partial is not None
    assert str(error).startswith(f"step {len(error.partial.states) - 1} failed: ")
    assert 2 <= len(error.partial.states) <= 100
    assert np.array_equal(error.partial.states[0], start)


@pytest.mark.parametrize(
    "method,limit", [("rk4", 1e-8), ("implicit_midpoint", 1e-10)]
)
def test_long_run_energy_drift(method, limit):
    system = _system("F")
    trajectory = integrate(system, np.array([1.0, 0.0, 0.0, 0.0]), 0.01, 10_000, method)
    energies = [evaluate(system.hamiltonian, x) for x in trajectory.states]
    drift = max(abs(e - energies[0]) for e in energies)
    assert drift <= limit


# --- symplecticity ---------------------------------------------------------

@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_exact_flow_preserves_the_symplectic_form(label):
    # quadratic energy has identity Hessian, so the flow map at time t is
    # exp(t * Omega^{-T})
    system = _system(label)
    omega = omega_matrix(system)
    flow = expm_taylor(0.5 * omega)
    assert np.abs(flow.T @ omega @ flow - omega).max() <= 1e-8


@pytest.mark.parametrize("name", sorted(DEMO_HAMILTONIANS))
@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_midpoint_step_is_discretely_symplectic(label, name):
    from quatflow import symplecticity_residual

    system = _system(label, text=DEMO_HAMILTONIANS[name])
    point = np.array([0.4, 0.3, -0.2, 0.5])
    assert symplecticity_residual(system, point, 0.01, "implicit_midpoint") <= 1e-6


# --- value objects ---------------------------------------------------------

def test_trajectory_states_are_read_only():
    # integrate builds its records from the rows it checked, as Trajectory(...) would from the same rows
    records = []
    for method in dynamics.METHODS:
        records.append(integrate(_system("F"), np.array([1.0, 0.0, 0.0, 0.0]), 0.1, 3, method))
        with pytest.raises(IntegrationError) as aborted:  # x1 falls through 0, where sqrt stops being real
            integrate(_system("F", text="sqrt(x1) + x2"), np.array([0.5, 0.0, 0.0, 0.0]), 0.01, 100, method)
        records.append(aborted.value.partial)
    for trajectory in records:
        with pytest.raises(TypeError):
            trajectory.states[1][0] = 0.0
        with pytest.raises(TypeError):
            trajectory.states[1] = (0.0, 0.0, 0.0, 0.0)
        assert type(trajectory.states) is tuple and all(type(row) is tuple for row in trajectory.states)
        assert all(type(v) is float for row in trajectory.states for v in row)
        rebuilt = Trajectory(trajectory.system, trajectory.states, trajectory.step)
        assert [[*map(float.hex, row)] for row in rebuilt.states] == [[*map(float.hex, row)] for row in trajectory.states]


def test_trajectory_requires_increasing_times():
    # times are k * step, so they increase exactly when step is positive
    system = _system("F")
    states = np.array([POINT, POINT])
    for step in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            Trajectory(system, states, step)
    with pytest.raises(ValueError):
        Trajectory(system, np.empty((0, 4)), 0.1)
