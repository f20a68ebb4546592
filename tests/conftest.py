import numpy as np
import pytest

from quatflow import BlockDim, HamiltonianSystem, expressions, parse
from quatflow.expressions import DEMO_HAMILTONIANS


@pytest.fixture
def dim1():
    return BlockDim(1)


@pytest.fixture
def quadratic_field(dim1):
    return parse(DEMO_HAMILTONIANS["quadratic"], dim1)


@pytest.fixture
def demo_fields(dim1):
    return {name: parse(text, dim1) for name, text in DEMO_HAMILTONIANS.items()}


@pytest.fixture
def quadratic_systems(quadratic_field):
    return {label: HamiltonianSystem.build(label, quadratic_field) for label in "FGH"}


@pytest.fixture
def unit_start():
    return np.array([1.0, 0.0, 0.0, 0.0])


@pytest.fixture
def kernel_sources(monkeypatch):
    """The fields a _KernelSource is built for, one entry per compilation."""
    built = []

    class CountedSource(expressions._KernelSource):
        def __init__(self, field):
            built.append(field)
            super().__init__(field)

    monkeypatch.setattr(expressions, "_KernelSource", CountedSource)
    return built
