import pytest

from smonkit import bqa, harness, layered
from smonkit.quiver import Arrow, MonomialIdeal, Quiver, make_path


def _kron2(p: int) -> bqa.Algebra:
    """Two parallel arrows u, v: 2 -> 1 and no relations."""
    q = Quiver(2, [Arrow("u", 2, 1), Arrow("v", 2, 1)], acyclic=True)
    return bqa.Algebra(q, MonomialIdeal(q, []), p)


def _branch4(p: int) -> bqa.Algebra:
    """a: 4 -> 2, b: 2 -> 1 and c: 3 -> 1 with b*a killed: two arrows
    into the sink from different sources, plus a relation."""
    q = Quiver(4, [Arrow("a", 4, 2), Arrow("b", 2, 1), Arrow("c", 3, 1)], acyclic=True)
    return bqa.Algebra(q, MonomialIdeal(q, [make_path(q, ("a", "b"))]), p)


@pytest.fixture(scope="session")
def wide_factors():
    """Builders, by name and taking the prime, of the factors with a vertex
    of two incoming arrows; no stock factor has one."""
    return {"kron2": _kron2, "branch4": _branch4}


@pytest.fixture(scope="session")
def ground_field():
    return harness.algebra_trivial()


@pytest.fixture(scope="session")
def dual_numbers():
    """k[x]/x^2 as a one-loop algebra (self-injective)."""
    return harness.algebra_loop_nilpotent(2)


@pytest.fixture(scope="session")
def chain3():
    """The chain 3 -> 2 -> 1 with the composite killed."""
    return harness.algebra_three_chain()


@pytest.fixture(scope="session")
def a2():
    return harness.algebra_line(2)


@pytest.fixture(scope="session")
def ctx_k_chain3(ground_field, chain3):
    return layered.TensorContext(ground_field, chain3)


@pytest.fixture(scope="session")
def ctx_dual_chain3(dual_numbers, chain3):
    return layered.TensorContext(dual_numbers, chain3)


@pytest.fixture(scope="session")
def ctx_chain3_a2(chain3, a2):
    return layered.TensorContext(chain3, a2)
