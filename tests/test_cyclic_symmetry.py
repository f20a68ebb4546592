"""The block rotation P carries each form's run onto the next form's, bit for bit.

With CYCLE = (0, 3, 1, 2) and P the 0/1 matrix that sends block b to block
CYCLE[b], P^T F P = G, P^T G P = H and P^T H P = F.  So if x(t) is the
flow of an energy H under the form of one label, y(t) = P^T x(t) is the
flow of H o P under the next label's form, from P^T x(0).  In the energy's
text H o P renames each variable of block CYCLE[b] to the same offset in
block b.  The gradient kernel of the renamed text runs the same operations
on the same values, and both steppers work coordinate by coordinate on
gradients, reordered and signed exactly; so the two runs agree in every
bit: the states, the CSV's cells, the drift series and the EOM residual.
A run that fails, fails at the same step with the same exception.

One step is not coordinatewise: the implicit midpoint rule's solve of its
Newton system, by gaussian_solve up to dynamics.NUMPY_SOLVE_SIZE
coordinates (all cases here) and by LAPACK past it.  Both eliminate in the
matrix's own order, so on P^T M P they can round differently: the first
example below, under F from the origin, moves the last bit of a coordinate
at step 1 under either.  The bitwise runs therefore solve the cycled Newton system
rotated back to the base order, whichever solver the stepper calls; the
rotated system equals the base run's exactly when the stepper built
P^T M P: that checks the signed reorder of the Newton matrix for every
label.  The run with the plain solve must stay within
4 k NEWTON_TOL max(1, |y|) after k steps: each solve lands within the stop
rule of the same root.

The symplecticity probe differs.  It perturbs the coordinates in their own
order, so the implicit midpoint rule's warm starts chain through them in
another order, and the sums of J^T Omega J add their terms in another
order.  With m = 4n, D the largest entrywise difference between the two
step-map Jacobians (P^T J P against the cycled run's), Jmax the largest
|J| entry and gamma_k = k u / (1 - k u) for the unit roundoff u, each entry
of J^T Omega J - Omega moves by at most

    B = m D (2 Jmax + D) + 2 gamma_(m+1) (m (Jmax + D)^2 + 1):

the first term is what D does to a sum of m products, the second bounds
the rounding of either sum of m products and of the subtraction of Omega's
entry.  The residual is the largest entry, so it moves by at most B too.
RK4 steps each perturbed point alone, so there D = 0.  For the midpoint
rule each perturbed step is a Newton solve that stops once its update
drops below tau = NEWTON_TOL max(1, |y|); two solves of one step then lie
within 2 tau of each other, so D <= 2 tau / h for the probe's step h.  The
pass/fail decision of the two residuals agrees unless the first lies
within B of the limit.
"""

import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatflow import (
    BlockDim,
    HamiltonianSystem,
    IntegrationError,
    energy_drift,
    eom_residual,
    integrate,
    parse,
    symplecticity_residual,
)
from quatflow import dynamics
from quatflow.cli import trajectory_csv
from quatflow.diagnostics import SYMPLECTICITY_LIMIT, step_jacobian
from quatflow.dynamics import NEWTON_TOL
from oracles import omega_matrix
from test_structures import _block_rotation

# the label each one's form becomes under P^T . P
NEXT = {"F": "G", "G": "H", "H": "F"}
DT = 0.02
UNIT_ROUNDOFF = 2.0**-53


def _bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _source(n: int) -> list[int]:
    """source[j]: the coordinate of x that (P^T x)_j reads."""
    return np.argmax(_block_rotation(n), axis=0).tolist()


def _rename(text: str, source: list[int]) -> str:
    """The text of H o P: x_(source[j] + 1) becomes x_(j + 1)."""
    target = {old: new for new, old in enumerate(source)}
    return re.sub(r"x(\d+)", lambda match: f"x{target[int(match.group(1)) - 1] + 1}", text)


def _coefficient():
    return st.floats(0.05, 2.0).map(lambda value: f"{value!r}")


@st.composite
def _energies(draw, n: int) -> str:
    """A sum of terms with no symmetry under the rotation."""
    variable = st.integers(1, 4 * n).map(lambda index: f"x{index}")
    term = st.one_of(
        st.tuples(_coefficient(), variable).map(lambda t: f"{t[0]}*{t[1]}^2"),
        st.tuples(_coefficient(), variable, variable, variable).map(lambda t: f"{t[0]}*{t[1]}*{t[2]}*{t[3]}"),
        st.tuples(_coefficient(), variable).map(lambda t: f"{t[0]}*sin({t[1]})"),
        st.tuples(_coefficient(), _coefficient(), variable).map(lambda t: f"{t[0]}*exp({t[1]}*{t[2]})"),
        st.tuples(_coefficient(), variable).map(lambda t: f"{t[0]}*{t[1]}^4"),
        # the root of a coordinate that can fall below -c: a run that fails
        st.tuples(_coefficient(), variable, _coefficient()).map(lambda t: f"{t[0]}*sqrt({t[1]} + {t[2]})"),
    )
    terms = draw(st.lists(term, min_size=1, max_size=5))
    signs = draw(st.lists(st.sampled_from([" + ", " - "]), min_size=len(terms), max_size=len(terms)))
    return "".join(sign + term for sign, term in zip(signs, terms)).removeprefix(" + ")


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([1, 2]))
    energy = draw(_energies(n))
    start = draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n, max_size=4 * n))
    label = draw(st.sampled_from(sorted(NEXT)))
    method = draw(st.sampled_from(["rk4", "implicit_midpoint"]))
    steps = draw(st.integers(2, 8))
    return n, energy, start, label, method, steps


def _run(system, start, method, steps):
    try:
        return integrate(system, start, DT, steps, method), None
    except IntegrationError as exc:
        return None, exc


@contextlib.contextmanager
def _solving_in_the_base_order(source):
    """Each Newton solve on the cycled system, rotated back to the base run's order.

    Both solvers are patched: gaussian_solve on lists of float rows and
    np.linalg.solve on arrays.  The rotated system is the base run's
    exactly when the cycled Newton matrix is P^T M P bit for bit, and the
    solve then returns its bits.
    """
    solve, float_solve = np.linalg.solve, dynamics.gaussian_solve
    back = np.argsort(source).tolist()

    def rotated_solve(matrix, rhs):
        return solve(matrix[np.ix_(back, back)], np.asarray(rhs)[back])[source]

    def rotated_float_solve(matrix, rhs):
        solution = float_solve([[matrix[i][j] for j in back] for i in back], [rhs[i] for i in back])
        return [solution[j] for j in source]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", rotated_solve)
        patch.setattr(dynamics, "gaussian_solve", rotated_float_solve)
        yield


def _probe(system, point, method):
    try:
        return symplecticity_residual(system, point, DT, method), None
    except (IntegrationError, ValueError) as exc:
        return None, exc


def _probe_bound(base, cycled, x0, y0, source, method) -> float:
    """B above, from the two step-map Jacobians; asserts D's own bound."""
    m = len(source)
    jacobian = np.array(step_jacobian(base, x0, DT, method)).T  # the package gives columns
    rotated = jacobian[np.ix_(source, source)]
    difference = float(np.abs(np.array(step_jacobian(cycled, y0, DT, method)).T - rotated).max())
    if method == "rk4":
        assert difference == 0.0
    else:
        scale = max(1.0, math.hypot(*x0))
        mantissa, exponent = math.frexp(scale)
        h = math.ldexp(2.0**-17, exponent - (mantissa == 0.5))
        # |y| of a probe step stays below 2 max(1, |x0|) at this dt
        assert difference <= 2.0 * (NEWTON_TOL * 2.0 * scale) / h
    largest = float(np.abs(jacobian).max())
    gamma = (m + 1) * UNIT_ROUNDOFF / (1.0 - (m + 1) * UNIT_ROUNDOFF)
    return m * difference * (2.0 * largest + difference) + 2.0 * gamma * (m * (largest + difference) ** 2 + 1.0)


def _outputs(trajectory):
    """The CSV's rows, the drift series and maximum and the EOM residual, or the error raised."""
    try:
        series, drift = energy_drift(trajectory)
        rows = [line.split(",") for line in trajectory_csv(trajectory).splitlines()[1:]]
        return (rows, series, drift, eom_residual(trajectory)), None
    except ValueError as exc:  # the energy is undefined at a state the midpoint rule stepped to
        return None, exc


@settings(max_examples=100, deadline=None)
@given(_cases())
@example((1, "1.0*x1^2 + 1.0*x2^2 + 1.0*x4^2 + 1.0*sqrt(x1 + 1.0) + 1.0*x1*x1*x3", [0.0] * 4, "F", "implicit_midpoint", 2))
def test_the_block_rotation_carries_each_run_onto_the_next_forms_run(case):
    n, energy, start, label, method, steps = case
    source = _source(n)
    dim = BlockDim(n)
    base = HamiltonianSystem.build(label, parse(energy, dim))
    cycled = HamiltonianSystem.build(NEXT[label], parse(_rename(energy, source), dim))
    rotation = _block_rotation(n)
    assert np.array_equal(rotation.T @ omega_matrix(base) @ rotation, omega_matrix(cycled))
    y0 = [start[a] for a in source]

    trajectory, failure = _run(base, start, method, steps)
    unrotated, _ = _run(cycled, y0, method, steps)
    with _solving_in_the_base_order(source):
        cycled_trajectory, cycled_failure = _run(cycled, y0, method, steps)
    if failure is not None:
        assert cycled_failure is not None
        assert str(cycled_failure).split(":")[0] == str(failure).split(":")[0]  # "step k failed"
        assert type(cycled_failure.__cause__) is type(failure.__cause__)
        rotated = [[row[a] for a in source] for row in failure.partial.states]
        assert _bits(rotated) == _bits(cycled_failure.partial.states)
        return
    assert cycled_failure is None
    rotated = [[row[a] for a in source] for row in trajectory.states]
    assert _bits(rotated) == _bits(cycled_trajectory.states)
    if method == "implicit_midpoint":
        # LU's own order of elimination: each solve lands within the stop rule of its root
        tolerance = 4.0 * steps * NEWTON_TOL * max(1.0, *map(abs, np.ravel(rotated)))
        assert np.abs(np.array(unrotated.states) - rotated).max() <= tolerance
    else:
        assert _bits(unrotated.states) == _bits(rotated)

    outputs, output_failure = _outputs(trajectory)
    cycled_outputs, cycled_output_failure = _outputs(cycled_trajectory)
    assert type(cycled_output_failure) is type(output_failure)
    if output_failure is not None:
        return
    (rows, series, drift, eom), (cycled_rows, cycled_series, cycled_drift, cycled_eom) = outputs, cycled_outputs
    assert cycled_rows == [[cells[0], *(cells[1 + a] for a in source), cells[-1]] for cells in rows]
    assert _bits(cycled_series) == _bits(series) and _bits([cycled_drift]) == _bits([drift])
    assert _bits([cycled_eom]) == _bits([eom])

    residual, probe_failure = _probe(base, start, method)
    with _solving_in_the_base_order(source):
        cycled_residual, cycled_probe_failure = _probe(cycled, y0, method)
        bound = None if probe_failure else _probe_bound(base, cycled, start, y0, source, method)
    assert type(cycled_probe_failure) is type(probe_failure)
    if probe_failure is not None:
        return
    if math.isnan(residual):
        assert math.isnan(cycled_residual)
        return
    assert abs(cycled_residual - residual) <= bound
    if abs(residual - SYMPLECTICITY_LIMIT) > bound:
        assert (cycled_residual <= SYMPLECTICITY_LIMIT) == (residual <= SYMPLECTICITY_LIMIT)
