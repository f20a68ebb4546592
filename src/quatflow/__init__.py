"""Hamiltonian mechanics under the three quaternionic symplectic structures on R^{4n}."""

from .diagnostics import (
    default_thresholds,
    energy_drift,
    eom_residual,
    symplecticity_residual,
)
from .dynamics import (
    HamiltonianSystem,
    IntegrationError,
    NewtonDivergenceError,
    Trajectory,
    hamiltonian_vector_field,
    integrate,
    reference_field_formula,
    step_implicit_midpoint,
    step_rk4,
)
from .expressions import (
    EvaluationError,
    ExpressionError,
    ExpressionSyntaxError,
    Gradient,
    ScalarField,
    UnknownIdentifierError,
    VariableRangeError,
    evaluate,
    fd_gradient,
    format_expression,
    gradient,
    parse,
)
from .forms import (
    AffineOneForm,
    ConstantTwoForm,
    canonical_one_form,
    exterior_derivative,
    interior_product,
    liouville_form,
    metric_kaehler_form,
    pullback_by_dual,
    symplectic_form,
)
from .structures import (
    AlgebraReport,
    BlockDim,
    EuclideanMetric,
    StructureKind,
    StructureTensor,
    apply,
    build_structure,
    identity_tensor,
    structure_triple,
    verify_metric_compatibility,
    verify_quaternion_relations,
)

__version__ = "0.1.0"
