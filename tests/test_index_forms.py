"""G, Z0 and the commutant basis applied by index.

``ambient`` applies G as a gather, reads [M, Z0] off the two rows and two
columns where Z0 has entries, and forms algebra elements as one product with
the basis.  Each is exact, the dense product's value up to the sign of a
zero, because of three facts pinned here at d = 1..8: G is a symmetric
permutation, Z0 has two unit entries in distinct rows and columns, and the
``commutant_stack`` supports are pairwise disjoint.  The index forms are
compared with the dense products of ``tests/oracles.py`` on random stacks,
inf and NaN entries included (``algebra_elements`` with sum(c * b) in
``tests/test_batch.py``).
"""

import numpy as np
import pytest

from oracles import dense_require_group, dense_sch_residuals
from schrogeo.ambient import (
    StabilizerConstraintError,
    ambient_gram,
    build_Z0,
    commutant_stack,
    g_adjoint,
    group_coefficients,
    group_elements,
    require_group,
    sch_residuals,
    z0_commutator,
)

DIMS = range(1, 9)


@pytest.mark.parametrize("d", DIMS)
def test_the_exactness_rests_on_sparse_unit_structure(d):
    G = ambient_gram(d)
    assert np.array_equal(G, G.T)
    assert np.array_equal(np.sort(G, axis=1)[:, -1], np.ones(d + 4))
    assert np.array_equal(np.count_nonzero(G, axis=0), np.ones(d + 4))
    assert np.array_equal(np.count_nonzero(G, axis=1), np.ones(d + 4))
    Z0 = build_Z0(d)
    rows, cols = np.nonzero(Z0)
    assert len(set(rows)) == len(set(cols)) == 2 == len(rows)
    assert np.array_equal(np.abs(Z0[rows, cols]), [1.0, 1.0])
    support = commutant_stack(d) != 0.0
    assert set(support.sum(axis=(1, 2)).tolist()) <= {2, 4}
    assert support.sum(axis=0).max() == 1


def random_stacks(d: int, seed: int) -> np.ndarray:
    """Random (12, d+4, d+4) matrices; matrices 3..8 each get one inf, -inf
    or NaN entry at a random place."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(12, d + 4, d + 4))
    for k, bad in zip(range(3, 9), [np.inf, -np.inf, np.nan] * 2):
        M[k, rng.integers(d + 4), rng.integers(d + 4)] = bad
    return M


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_index_forms_match_the_dense_products(d, seed):
    M = random_stacks(d, seed)
    G, Z0 = ambient_gram(d), build_Z0(d)
    finite = M[:3]
    adjoint = G @ finite.swapaxes(-1, -2) @ G
    assert (g_adjoint(finite) + 0.0).tobytes() == (adjoint + 0.0).tobytes()
    dense = np.abs(M @ Z0 - Z0 @ M).max(axis=(-2, -1))
    np.testing.assert_array_equal(z0_commutator(M), dense)
    assert np.isnan(dense[3:9]).all()
    for key, want in dense_sch_residuals(M, d).items():
        np.testing.assert_array_equal(sch_residuals(M, d)[key], want)
        np.testing.assert_array_equal(sch_residuals(M[0], d)[key], want[0])


def failure(check, A):
    try:
        check(A)
    except StabilizerConstraintError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_require_group_raises_as_with_dense_products(d, seed):
    rng = np.random.default_rng(seed)
    A = group_elements(d, group_coefficients(d, rng, 6))
    # a permutation that keeps G but swaps the extra null pair, moving Z0
    swap = np.eye(d + 4)[[*range(d + 2), d + 3, d + 2]]
    cases = [A, random_stacks(d, seed), np.concatenate([A, swap[None]])]
    for k, bad in enumerate([np.inf, -np.inf, np.nan]):
        broken = A.copy()
        broken[2 + k, rng.integers(d + 4), rng.integers(d + 4)] = bad
        cases.append(broken)
    texts = [failure(require_group, case) for case in cases]
    assert texts == [failure(dense_require_group, case) for case in cases]
    assert texts[0] is None and "A Z0 = Z0 A" in texts[2]
    assert all("Abar A = 1" in t and "nan" in t for t in texts[3:])
