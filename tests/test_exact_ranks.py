"""Exact ranks over the rationals for the dimension counts that the package
takes from SVD ranks: the commutant of Z0 in o(d+2,2) (``commutant_stack``,
``sch_dimension``) and the linearized actions of the commutant on the bulk
base point and on the boundary base ray (``isotropy_check``).

The unscaled basis G N_ij, with N_ij the elementary antisymmetric matrices,
has integer entries, so every map here is rational and sympy computes its
rank with no tolerance."""

import numpy as np
import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from schrogeo import homogeneous as hg
from schrogeo.ambient import ambient_gram, build_Z0, commutant_stack, sch_dimension

DIMS = range(1, 7)


def integer_matrix(a: np.ndarray) -> sp.Matrix:
    assert np.array_equal(a, np.round(a))
    return sp.Matrix(a.astype(int))


def exact_rank(columns: list[sp.Matrix]) -> int:
    return DomainMatrix.from_Matrix(sp.Matrix.hstack(*columns)).convert_to(sp.QQ).rank()


def skew_basis_unscaled(d: int) -> list[sp.Matrix]:
    n = d + 4
    G = integer_matrix(ambient_gram(d))
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            N = sp.zeros(n, n)
            N[i, j], N[j, i] = 1, -1
            out.append(G * N)
    return out


def exact_commutant(d: int) -> list[sp.Matrix]:
    """A rational basis of {M in o(d+2,2) : [M, Z0] = 0}."""
    n = d + 4
    Z0 = integer_matrix(build_Z0(d).matrix)
    basis = skew_basis_unscaled(d)
    cols = sp.Matrix.hstack(*[(B * Z0 - Z0 * B).reshape(n * n, 1) for B in basis])
    null = DomainMatrix.from_Matrix(cols).convert_to(sp.QQ).nullspace().to_Matrix()
    return [
        sum((null[r, c] * B for c, B in enumerate(basis)), sp.zeros(n, n))
        for r in range(null.rows)
    ]


@pytest.fixture(scope="module")
def commutants():
    return {d: exact_commutant(d) for d in DIMS}


@pytest.mark.parametrize("d", DIMS)
def test_commutant_dimension_is_exact(commutants, d):
    assert len(commutants[d]) == sch_dimension(d) == len(commutant_stack(d))


@pytest.mark.parametrize("d", DIMS)
def test_isotropy_ranks_are_exact(commutants, d):
    n = d + 4
    Q0 = sp.zeros(n, 1)
    Q0[d + 2], Q0[d + 3] = sp.Rational(-1, 2), 1
    X0 = sp.zeros(n, 1)
    X0[d + 3] = 1
    bulk = exact_rank([M * Q0 for M in commutants[d]])
    # the ray direction X0 itself is dropped, as isotropy_check drops it
    boundary = exact_rank([(M * X0)[: d + 3, :] for M in commutants[d]])
    res = hg.isotropy_check(hg.SchrodingerManifoldConfig(d, -0.5), np.random.default_rng(0), 0)
    assert (bulk, boundary) == (d + 3, d + 2)
    assert res["bulk_space_dim"] == bulk
    assert res["boundary_space_dim"] == boundary
    for side, rank in (("bulk", bulk), ("boundary", boundary)):
        found, expected = res[f"{side}_isotropy_dim"], res[f"{side}_isotropy_expected"]
        assert found == sch_dimension(d) - rank == expected
