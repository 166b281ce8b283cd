"""Ambient realization of the Schrödinger group and algebra.

Everything lives in R^{d+2,2}: the ambient Gram matrix G extends the flat
Bargmann metric g on R^{d+2} by one extra null pair, the group is cut out of
O(d+2,2) by commutation with a fixed square-zero "vertical" generator Z0, and
the flat Bargmann chart sits inside the projectivized null cone, acted on by
linear-fractional (projective) transformations.

Index layout (0-based): 0..d-1 spatial, d = t, d+1 = s, d+2 and d+3 the extra
null pair.  Bars denote the G-adjoint: Abar = G A^T G, vbar = (G v)^T.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import MetricField, VectorField, component_values, lie_bracket
from .numkernel import ContractViolationError, Jet2, jet_value

__all__ = [
    "CHART_GUARD",
    "ChartEscapeError",
    "GroupBlocks",
    "StabilizerConstraintError",
    "algebra_elements",
    "ambient_gram",
    "ambient_gram_split",
    "assemble_group_element",
    "basis_change",
    "bracket_fields",
    "build_Z0",
    "commutant_basis",
    "commutant_dim",
    "commutant_stack",
    "component_witnesses",
    "cone_point",
    "decompose_sch",
    "exp_algebra",
    "exp_group",
    "expansion_generator",
    "group_inverse",
    "flat_gram_matrix",
    "flat_metric",
    "g_adjoint",
    "group_coefficients",
    "group_elements",
    "mark_escapes",
    "projective_action",
    "projective_denominator",
    "random_group_element",
    "realize_field",
    "require_group",
    "sch_dimension",
    "sch_residuals",
    "skew_basis",
    "xi_field",
    "xi_vector",
]


class StabilizerConstraintError(ValueError):
    """A defining identity of the stabilizer group failed."""

    def __init__(self, description: str, residual: float):
        self.description = description
        self.residual = residual
        super().__init__(
            f"stabilizer constraint violated ({description}); residual {residual:.3e}"
        )


class ChartEscapeError(ValueError):
    """Every sample of a measured row left its chart.  A chart map raises
    none: its escaped samples come back NaN (``mark_escapes``)."""


# |e - a t| at or below which the projective image leaves the chart
CHART_GUARD = 1e-8


def mark_escapes(den, off):
    """The denominator ``den`` of a chart map, with ``off`` its per-sample
    escape test.

    The value of ``den`` is NaN at each escaped sample, so that sample's
    quotients, jets included, come back NaN and every other sample is
    untouched.
    """
    if not off.any():
        return den
    nan_v = np.where(off, np.nan, jet_value(den))
    return Jet2(nan_v, den.grad, den.hess) if isinstance(den, Jet2) else nan_v


# ---------------------------------------------------------------------------
# flat Bargmann block and ambient metric


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def flat_gram_matrix(d: int) -> np.ndarray:
    """Flat Bargmann Gram on R^{d+2}: sum dx_i^2 + 2 dt ds.

    Built once per d and shared, so the array is read-only.
    """
    g = np.eye(d + 2)
    g[d, d] = 0.0
    g[d + 1, d + 1] = 0.0
    g[d, d + 1] = g[d + 1, d] = 1.0
    return _read_only(g)


@lru_cache(maxsize=None)
def xi_vector(d: int) -> np.ndarray:
    """The vertical null translation direction d/ds.

    Built once per d and shared, so the array is read-only.
    """
    xi = np.zeros(d + 2)
    xi[d + 1] = 1.0
    return _read_only(xi)


@lru_cache(maxsize=None)
def xi_field(d: int, n: int) -> VectorField:
    """The null Killing field xi = d/ds, component d + 1 of the flat and
    boundary charts (n = d + 2) and of the bulk chart (n = d + 3).  Built
    once per (d, n) and shared, so a pass evaluates it once."""
    e = [0.0] * n
    e[d + 1] = 1.0
    return VectorField(lambda p: list(e))


@lru_cache(maxsize=None)
def _frame(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g, xi, theta = g xi, and the (d+4) identity, read-only."""
    g, xi = flat_gram_matrix(d), xi_vector(d)
    return g, xi, _read_only(g @ xi), _read_only(np.eye(d + 4))


def _chart_square(x):
    """g(x, x) of the d + 2 flat chart coordinates ``x`` (jets, numbers or
    (N,) arrays): the spatial squares in order, then 2 t s."""
    d = len(x) - 2
    return sum(x[i] * x[i] for i in range(d)) + 2.0 * x[d] * x[d + 1]


def flat_metric(d: int) -> MetricField:
    """The flat Bargmann metric as a constant Gram callable.  Equal entries
    are one shared float, so a Gram assembly writes each distinct value once
    (``geometry.gram_values``)."""
    shared: dict[float, float] = {}
    rows = [[shared.setdefault(v, v) for v in row] for row in flat_gram_matrix(d).tolist()]

    def gram(p):
        return rows

    return MetricField(gram)


@lru_cache(maxsize=None)
def ambient_gram(d: int) -> np.ndarray:
    """G on R^{d+4}: the flat Bargmann block plus one more null pair.

    Built once per d and shared, so the array is read-only.
    """
    G = np.zeros((d + 4, d + 4))
    G[: d + 2, : d + 2] = flat_gram_matrix(d)
    G[d + 2, d + 3] = G[d + 3, d + 2] = 1.0
    return _read_only(G)


def ambient_gram_split(d: int) -> np.ndarray:
    """G in the split basis: identity on the spatial block, then two
    diag(1,-1) planes replacing the two null pairs."""
    D = np.diag([1.0, -1.0])
    out = np.eye(d + 4)
    out[d : d + 2, d : d + 2] = D
    out[d + 2 : d + 4, d + 2 : d + 4] = D
    return out


def basis_change(d: int) -> np.ndarray:
    """Columns express the split basis in null-pair coordinates, mapping each
    null pair (u, v) to ((u+v)/sqrt 2, (u-v)/sqrt 2).  Satisfies
    S^T G S = G_split and M_split = S^T M S for G-endomorphisms."""
    S = np.eye(d + 4)
    r = 1.0 / np.sqrt(2.0)
    for base in (d, d + 2):
        S[base : base + 2, base : base + 2] = np.array([[r, r], [r, -r]])
    return S


def g_adjoint(a: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Abar = G A^T G (G is involutive here, so no explicit inverse), of one
    matrix or of each matrix of a stack."""
    return G @ a.swapaxes(-1, -2) @ G


# ---------------------------------------------------------------------------
# the vertical generator


@lru_cache(maxsize=None)
def build_Z0(d: int) -> np.ndarray:
    """The canonical vertical generator Z0 = P Qbar - Q Pbar on the
    s-direction P = e_{d+1} and the first extra null direction Q = e_{d+2}:
    square-zero, of rank two, with the totally null plane (P, Q) as image.

    Built once per d and shared, so the array is read-only.
    """
    P, Q = np.eye(d + 4)[d + 1 : d + 3]
    G = ambient_gram(d)
    return _read_only(np.outer(P, G @ Q) - np.outer(Q, G @ P))


# ---------------------------------------------------------------------------
# the algebra: commutant of Z0 inside o(d+2,2)


def skew_basis(d: int) -> np.ndarray:
    """Frobenius-orthonormal basis of the G-skew matrices o(d+2,2), as one
    (m, d+4, d+4) stack, m = (d+4)(d+3)/2, in row order of the pairs i < j.

    G is a symmetric involution, so M = G N with N antisymmetric runs over
    the Lie algebra, and Frobenius orthonormality of the N_ij/sqrt2 basis is
    preserved by multiplication with G.
    """
    n = d + 4
    i, j = np.triu_indices(n, 1)
    e = np.arange(len(i))
    r = 1.0 / np.sqrt(2.0)
    N = np.zeros((len(i), n, n))
    N[e, i, j] = r
    N[e, j, i] = -r
    return ambient_gram(d) @ N


def sch_dimension(d: int) -> int:
    """dim of the Z0-commutant in o(d+2,2): (d^2 + 3d + 8) / 2."""
    return (d * d + 3 * d + 8) // 2


@lru_cache(maxsize=None)
def _commutant_svd(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The skew basis B, and the singular values and right singular vectors
    of the commutator map B -> [B, Z0] on it: one SVD per d, which every
    tolerance reads."""
    Z0 = build_Z0(d)
    B = skew_basis(d)
    cols = (B @ Z0 - Z0 @ B).reshape(len(B), -1).T
    _, s, vh = np.linalg.svd(cols)
    return B, s, vh


def commutant_dim(d: int, tol: float = 1e-10) -> int:
    """dim {Z in o(d+2,2) : [Z, Z0] = 0} at relative SVD cut ``tol``, read
    from the one SVD per d without forming the basis: the nullity
    m - #{s > tol * s0} of the commutator map, as ``rank_nullspace`` cuts."""
    B, s, _ = _commutant_svd(d)
    return len(B) - int(np.sum(s > tol * s[0]))


@lru_cache(maxsize=None)
def _commutant_cached(d: int, tol: float) -> np.ndarray:
    B, _, vh = _commutant_svd(d)
    null = vh[len(B) - commutant_dim(d, tol) :]
    # an entry of the skew stack is nonzero in one element only, so each sum
    # has one nonzero term, exact in any order; + 0.0 turns -0.0 into +0.0
    stack = (null @ B.reshape(len(B), -1)).reshape(-1, d + 4, d + 4) + 0.0
    return _read_only(stack)


def commutant_stack(d: int, tol: float = 1e-10) -> np.ndarray:
    """The basis of ``commutant_basis`` as one (k, d+4, d+4) matrix stack.

    The commutator map on ``skew_basis`` has one SVD per d, which every
    tolerance shares; the stack is its null rows times the skew stack.
    Built once per (d, tol) on first use and shared, so the array is
    read-only.
    """
    return _commutant_cached(d, tol)


def commutant_basis(d: int, tol: float = 1e-10) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of {Z in o(d+2,2) : [Z, Z0] = 0}, as a
    list of (d+4, d+4) matrices.

    The nullspace coefficients come from an SVD over an orthonormal ambient
    basis, so the returned matrices are orthonormal too.  That SVD is taken
    once per d and shared by every tolerance (``commutant_stack``).  Each
    call returns fresh writable copies.
    """
    return list(commutant_stack(d, tol).copy())


def sch_residuals(M: np.ndarray, d: int) -> dict[str, np.ndarray]:
    """How far each matrix of M, one (d+4, d+4) matrix or a stack of them,
    is from the algebra, by its two defining identities: "commutator" is
    |[M, Z0]| and "skew" |G M^T G + M|, both relative to max(1, max|M|).
    Each holds one value per matrix.
    """
    M = np.asarray(M, dtype=float)
    Z0 = build_Z0(d)
    G = ambient_gram(d)

    def worst(a):
        return np.abs(a).max(axis=(-2, -1))

    scale = np.maximum(1.0, worst(M))
    return {
        "commutator": worst(M @ Z0 - Z0 @ M) / scale,
        "skew": worst(G @ M.swapaxes(-1, -2) @ G + M) / scale,
    }


def decompose_sch(Z: np.ndarray, d: int) -> tuple:
    """The blocks (Lam, Gam, alpha, chi) of an algebra element, or of each
    element of a stack: the boost/rotation block Lam acting on R^{d+2}, the
    translation Gam, the expansion rate alpha and the dilation rate chi,
    each with the leading axes of ``Z``.  The split is entrywise and returns
    fresh copies; the other entries of an algebra element follow from these
    by its two defining identities.  The split does not check Z.
    """
    n = d + 2
    Z = np.asarray(Z, dtype=float)
    parts = (Z[..., :n, :n], Z[..., :n, n + 1], Z[..., d + 1, n], Z[..., n, n])
    return tuple(part.copy() for part in parts)


def expansion_generator(d: int, alpha: float) -> np.ndarray:
    """The expansion generator: the algebra element whose one nonzero block
    is alpha, written as alpha xi into column d+2 and -alpha g xi into row
    d+3, the entries (d+1, d+2) and (d+3, d)."""
    Z = np.zeros((d + 4, d + 4))
    Z[d + 1, d + 2] = alpha
    Z[d + 3, d] = -alpha
    return Z


def algebra_elements(d: int, coeffs: np.ndarray) -> np.ndarray:
    """The (count, d+4, d+4) algebra elements with the (count, k)
    coefficient rows ``coeffs`` (``group_coefficients``) in the
    ``commutant_stack`` basis: each summed basis element by basis element,
    as sum(c * b) would, holding one (count, n, n) term at a time."""
    basis = commutant_stack(d)
    Z = coeffs[:, 0, None, None] * basis[0]
    term = np.empty_like(Z)
    for c, b in zip(coeffs.T[1:, :, None, None], basis[1:]):
        Z += np.multiply(c, b, out=term)
    return Z


# ---------------------------------------------------------------------------
# realization as conformal vector fields on the flat chart


def _parts(u: Jet2) -> tuple:
    """A jet's arrays: (value, grad), and its Hessian at order 2."""
    return (u.value, u.grad) if u.hess is None else (u.value, u.grad, u.hess)


def _stack_rows(x):
    """The coordinates x[0..n-1] as one value with a trailing row axis: a
    Jet2 whose batch gains that axis, or an array of shape batch + (n,)."""
    if isinstance(x[0], Jet2):
        parts = zip(*map(_parts, x), strict=True)
        return Jet2(*(np.stack(part, axis=-1) for part in parts), _symmetric=True)
    return np.array(x).T


def _over_rows(u, rows):
    """A per-point value ``u`` (jet, number or (N,) array) repeated along the
    row axis of the stack ``rows``."""
    if isinstance(u, Jet2):
        n = rows.value.shape[-1]
        parts = map(np.asarray, _parts(u))
        return Jet2(
            *(np.broadcast_to(a[..., None], a.shape + (n,)) for a in parts),
            _symmetric=True,
        )
    return np.asarray(u)[..., None]


def _unstack_rows(rows) -> list:
    """The rows of a stack as a list of jets, numbers or (N,) arrays."""
    if isinstance(rows, Jet2):
        parts = (np.moveaxis(a, -1, 0) for a in _parts(rows))
        return [Jet2(*row, _symmetric=True) for row in zip(*parts)]
    return list(rows.T)


def _packed(u: Jet2) -> np.ndarray:
    """A jet's value, gradient and (at order 2) Hessian entries along one
    leading axis."""
    parts = [u.value[None], u.grad]
    if u.hess is not None:
        parts.append(u.hess.reshape((u.dim**2,) + u.hess.shape[2:]))
    return np.concatenate(parts)


def _add_linear(rows, M: np.ndarray, X):
    """rows[a] + M[a, b] X[b], summed column b by column b over the nonzero
    M[a, b] only: each row adds its terms in b order and skips its zeros, as
    a per-row loop would.  ``M`` is one (n, n) matrix, or a per-sample
    (N, n, n) stack whose sample s acts on the batch's sample s; the zeros
    are then skipped sample by sample.  Jets go through as one packed array,
    since every step is elementwise (so a symmetric Hessian stays exactly
    symmetric)."""
    if isinstance(rows, Jet2):
        dim = rows.dim
        out = _add_linear(_packed(rows), M, _packed(X))
        hess = None if rows.hess is None else out[dim + 1 :].reshape((dim, dim) + out.shape[1:])
        return Jet2(out[0], out[1 : dim + 1], hess, _symmetric=True)
    nonzero = M != 0.0
    n = M.shape[-1]
    # column b's nonzero entries over every row and sample
    for b, hits in enumerate(nonzero.reshape(-1, n).sum(axis=0).tolist()):
        if hits:
            step = rows + X[..., b : b + 1] * M[..., b]
            rows = step if hits == M.size // n else np.where(nonzero[..., b], step, rows)
    return rows


def _affine_rows(x, d: int, const: np.ndarray, M: np.ndarray, quad, rate=None):
    """Row a of one stack: const[a] (+ rate x[a]) - quad xi[a] + sum_b M[a, b] x[b].

    ``x`` holds the d + 2 chart coordinates (jets, numbers or (N,) arrays);
    ``quad`` and ``rate`` are per-point values.  Every row is the same IEEE
    computation, operand for operand, as that expression evaluated alone
    (``_add_linear`` keeps the order of the linear terms).
    """
    X = _stack_rows(x)
    xi = xi_vector(d)
    if isinstance(X, Jet2):
        # a jet takes an array operand only in the shape of its batch
        const, xi = (np.broadcast_to(a, X.value.shape) for a in (const, xi))
    rows = const if rate is None else const + _over_rows(rate, X) * X
    rows = rows - _over_rows(quad, X) * xi
    return _add_linear(rows, M, X)


def realize_field(Z: np.ndarray, d: int) -> VectorField:
    """Vector field on the flat chart of the algebra element ``Z``, with
    blocks (Lam, Gam, alpha, chi) (``decompose_sch``):

    delta x = Lam x + Gam - (alpha/2) g(x,x) xi + alpha t x + chi x.

    ``Z`` is one (d+4, d+4) element, or a per-sample (N, d+4, d+4) stack
    whose element s is realized at sample s of a batch of N points: one pass
    over N (element, point) pairs.  The vertical condition Lam xi + chi xi =
    0 is checked once over the whole stack and raises for its worst element.

    The components are built as one stack of d + 2 rows (``_affine_rows``):
    alpha t + chi and (alpha/2) g(x,x) are formed once, and row a adds its
    Lam[a, b] x[b] in column order b, skipping zero entries (sample by
    sample on a stack).  Each component is therefore rounded exactly as
    Gam[a] + (alpha t + chi) x[a] - (alpha/2) g(x,x) xi[a] + Lam[a, 0] x[0]
    + ... evaluated on its own, for one sample and one element, and comes
    back as a jet or (N,) array like its inputs.
    """
    lam, gam, alpha, chi = decompose_sch(Z, d)
    xi = xi_vector(d)
    vert = float(np.abs(lam @ xi + np.multiply.outer(chi, xi)).max())
    if not vert <= 1e-10:
        raise ContractViolationError(f"Lam xi + chi xi != 0 (residual {vert:.3e})")

    def comps(x):
        t = x[d]
        quad = 0.5 * alpha * _chart_square(x)
        rows = _affine_rows(x, d, gam, lam, quad, rate=alpha * t + chi)
        return _unstack_rows(rows)

    return VectorField(comps)


def bracket_fields(Z1: np.ndarray, Z2: np.ndarray, d: int, p) -> dict:
    """Vector-field bracket of two realizations vs the matrix bracket.

    The realization is an anti-homomorphism (left action), so the field
    bracket matches realize(-[Z1, Z2]); both signed residuals are returned
    so callers can record the verified sign.  ``p`` is a batch (N, n),
    evaluated in one jet pass; each residual is (N,).  ``Z1`` and ``Z2``
    are two algebra elements, or two per-sample (N, d+4, d+4) stacks:
    sample s then brackets pair s at point s, bitwise as that pair alone at
    that point.
    """
    v1 = realize_field(Z1, d)
    v2 = realize_field(Z2, d)
    fb = lie_bracket(v1, v2, p)
    m = Z1 @ Z2 - Z2 @ Z1
    vm = realize_field(m, d)
    mv = component_values(vm.components, p)
    return {"minus": np.abs(fb + mv).max(axis=-1), "plus": np.abs(fb - mv).max(axis=-1)}


# ---------------------------------------------------------------------------
# the group: block form, defining identities, projective action


class GroupBlocks(NamedTuple):
    L: np.ndarray
    B: np.ndarray
    C: np.ndarray
    a: float
    b: float
    dd: float
    e: float


def _group_matrix(blocks: GroupBlocks, d: int) -> np.ndarray:
    """The (E, d+4, d+4) matrices of a block stack, whose fields carry a
    leading element axis."""
    n = d + 2
    g, xi, theta, _ = _frame(d)
    A = np.zeros(np.shape(blocks.a) + (n + 2, n + 2))
    A[..., :n, :n] = blocks.L
    A[..., :n, n] = np.multiply.outer(blocks.a, xi)
    A[..., :n, n + 1] = blocks.C
    A[..., n, :n] = blocks.B @ g
    A[..., n, n] = blocks.b
    A[..., n, n + 1] = blocks.dd
    A[..., n + 1, :n] = np.multiply.outer(-np.asarray(blocks.a), theta)
    A[..., n + 1, n + 1] = blocks.e
    return A


def _block_pattern(A: np.ndarray) -> np.ndarray:
    """The matrices of an (E, d+4, d+4) stack rewritten in block form from
    the entries that form reads (L, B g, C, a, b, dd, e): every other entry
    is set from those, so a matrix off the pattern comes back changed."""
    d = A.shape[-1] - 4
    n = d + 2
    B = A[..., n, :n] @ flat_gram_matrix(d)
    scalars = (A[..., d + 1, n], A[..., n, n], A[..., n, n + 1], A[..., n + 1, n + 1])
    return _group_matrix(GroupBlocks(A[..., :n, :n], B, A[..., :n, n + 1], *scalars), d)


def require_group(A: np.ndarray) -> None:
    """Check the defining identities Abar A = 1 and A Z0 = Z0 A of the
    group over an (E, d+4, d+4) stack, each to 1e-10 in its largest entry.

    Raises StabilizerConstraintError for the first failing element, naming
    the first identity, in that order, that it fails.
    """
    d = A.shape[-1] - 4
    G, Z0, eye = ambient_gram(d), build_Z0(d), _frame(d)[3]
    identities = {
        "Abar A = 1": g_adjoint(A, G) @ A - eye,
        "A Z0 = Z0 A": A @ Z0 - Z0 @ A,
    }
    # the largest |entry| of each identity, element by element: (E, 2)
    table = np.stack([np.abs(r).max(axis=(-2, -1)) for r in identities.values()], axis=-1)
    # ~(r <= 1e-10), not r > 1e-10: a NaN residual must fail
    bad = ~(table <= 1e-10)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise StabilizerConstraintError(list(identities)[k], float(table[i, k]))


def assemble_group_element(blocks: GroupBlocks, d: int) -> np.ndarray:
    """Build the group elements of a block stack (fields with a leading
    element axis) and check them once over the stack (``require_group``).
    The (E, d+4, d+4) stack holds L, C, a and e verbatim."""
    A = _group_matrix(blocks, d)
    require_group(A)
    return A


# Scaling and squaring with the [13/13] Padé approximant after Higham, "The
# scaling and squaring method for the matrix exponential revisited", SIAM J.
# Matrix Anal. Appl. 26 (2005) 1179, doi:10.1137/04061101X: the coefficients
# b_0..b_13 of r_13 = (V - U)^-1 (V + U), and theta_13, the largest 1-norm at
# which r_13's backward error stays within unit roundoff.
_B13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# U = Z (Z^6 hiU + loU), V = Z^6 hiV + loV: rows of b against I, Z^2, Z^4,
# Z^6 in the order hiU, loU, hiV, loV
_PADE13_ROWS = np.array([(0.0, *_B13[9::2]), _B13[1:9:2], (0.0, *_B13[8::2]), _B13[0:8:2]])


def _squarings(Z: np.ndarray) -> np.ndarray:
    """The least s >= 0 with ||2^-s Z||_1 <= theta_13 for each matrix of an
    (E, n, n) stack.

    With ||Z||_1 = m 2^e and theta_13 = m' 2^e' (1/2 <= m, m' < 1), the test
    reads e - s < e', or e - s = e' and m <= m': exact, with no logarithm to
    round.  A zero or non-finite norm gives s = 0.
    """
    mant, expo = np.frexp(np.abs(Z).sum(axis=-2).max(axis=-1))
    theta_mant, theta_expo = math.frexp(_THETA13)
    return np.maximum(expo - theta_expo + (mant > theta_mant), 0)


def _pade13(Z: np.ndarray) -> np.ndarray:
    """r_13(Z) for each matrix of an (E, n, n) stack: I, Z^2, Z^4 and Z^6,
    the four Padé sums as one matrix product, then I + 2 (V - U)^-1 U with
    one stacked solve."""
    E, n = Z.shape[0], Z.shape[-1]
    P = np.empty((E, 4, n, n))
    P[:, 0] = np.eye(n)
    np.matmul(Z, Z, out=P[:, 1])
    np.matmul(P[:, 1], P[:, 1], out=P[:, 2])
    np.matmul(P[:, 2], P[:, 1], out=P[:, 3])
    sums = (_PADE13_ROWS @ P.reshape(E, 4, n * n)).reshape(E, 4, n, n)
    hi_u, lo_u, hi_v, lo_v = (sums[:, i] for i in range(4))
    U = Z @ (P[:, 3] @ hi_u + lo_u)
    X = np.linalg.solve(P[:, 3] @ hi_v + lo_v - U, U)
    X *= 2.0
    X += P[:, 0]
    return X


def exp_algebra(Z: np.ndarray) -> np.ndarray:
    """Matrix exponential of one (n, n) matrix or of each matrix of an
    (E, n, n) stack, by [13/13] Padé scaling and squaring (Higham 2005) for
    every input, nilpotent and zero ones included: Z = 0 takes no scaling
    and gives I exactly.

    One matrix is a stack of one.  Each matrix takes the least s with
    ||2^-s Z||_1 <= theta_13 (``_squarings``); the matrices that share s are
    scaled by 2^-s, take one stacked ``_pade13`` and are squared s times.
    Every step is a matrix product, solve or elementwise operation per
    matrix, so every result is bitwise the one-matrix result.
    """
    Z = np.asarray(Z, dtype=float)
    stack = Z.reshape((-1,) + Z.shape[-2:])
    squarings = _squarings(stack)
    out = np.empty_like(stack)
    for s in set(squarings.tolist()):
        held = np.flatnonzero(squarings == s)
        X = _pade13(np.ldexp(stack[held], -s))
        for _ in range(s):
            X = X @ X
        out[held] = X
    return out.reshape(Z.shape)


def group_coefficients(
    d: int, rng: np.random.Generator, count: int, scale: float = 0.4
) -> np.ndarray:
    """Coefficients for ``count`` random algebra or group elements
    (``algebra_elements``, ``group_elements``): one (count, k) uniform draw
    on [-scale, scale], k = dim sch(d), bitwise the rows that ``count``
    one-row draws would take from ``rng``."""
    return rng.uniform(-scale, scale, size=(count, len(commutant_stack(d))))


def exp_group(Z: np.ndarray, d: int) -> np.ndarray:
    """The exponentials of an (E, d+4, d+4) stack of algebra elements ``Z``,
    rewritten in block form (``_block_pattern``).

    The exponential is one ``exp_algebra`` call on the stack; the drift of
    the block form from the exponential, Abar A = 1 and [A, Z0] = 0 are
    checked once over it.  The elements, and the StabilizerConstraintError
    or block-pattern error raised for the first failing one, are those of
    the elements exponentiated one at a time: an element that fails both
    raises StabilizerConstraintError.
    """
    raw = exp_algebra(Z)
    A = _block_pattern(raw)
    rebuild = np.abs(A - raw).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(raw).max(axis=(-2, -1)))
    drift = np.flatnonzero(~(rebuild <= 1e-12 * scale))
    if drift.size:
        require_group(A[: drift[0] + 1])
        raise ContractViolationError(
            f"exponential left the block pattern (residual {rebuild[drift[0]]:.3e})"
        )
    require_group(A)
    return A


def group_elements(d: int, coeffs: np.ndarray) -> np.ndarray:
    """The exponentials of the algebra elements with the (count, k)
    coefficient rows ``coeffs`` (in the ``commutant_stack`` basis), as one
    validated (count, d+4, d+4) stack (``exp_group``)."""
    return exp_group(algebra_elements(d, coeffs), d)


def random_group_element(d: int, rng: np.random.Generator, scale: float = 0.4) -> np.ndarray:
    """Exponential of a random algebra element, rewritten in block form and
    checked (``exp_group``): the stack of one of
    ``group_elements``, its axis dropped."""
    return group_elements(d, group_coefficients(d, rng, 1, scale))[0]


def group_inverse(A: np.ndarray) -> np.ndarray:
    """The inverses Abar = G A^T G of an (E, d+4, d+4) stack, validated as
    one stack: raises for the first failing inverse."""
    inverse = _block_pattern(g_adjoint(A, ambient_gram(A.shape[-1] - 4)))
    require_group(inverse)
    return inverse


def projective_denominator(A: np.ndarray, t):
    """e - a t: the denominator of the projective action of the group
    element ``A`` (or of each element of a per-sample stack) at chart time
    ``t``, a number, an (N,) array or a jet."""
    d = A.shape[-1] - 4
    return A[..., d + 3, d + 3] - A[..., d + 1, d + 2] * t


def projective_action(A: np.ndarray, x, r=None):
    """Linear-fractional action on the flat chart and the fiber coordinate.

    x' = (L x - (a/2) g(x,x) xi + C) / (e - a t), r' = r / (e - a t).  ``x``
    holds the n = d + 2 coordinates of a batch of N points, (N,) arrays or
    jets with a trailing sample axis, whose images come back in the same
    form.  ``A`` is one (d+4, d+4) group element, or a per-sample stack of N
    elements whose element s acts on sample s of the batch: one pass over N
    (element, point) pairs.  Where |e - a t| falls to ``CHART_GUARD`` the
    image leaves the chart: that sample's image and r' come back NaN
    (``mark_escapes``) while every other sample is what it would be alone.

    The n numerators are one stack (``_affine_rows``): (a/2) g(x,x) is formed
    once, and row a adds its L[a, b] x[b] in column order b, skipping zero
    entries.  Jets are divided through one shared reciprocal of e - a t,
    applied by the product rule as jet division applies it.  Each image is
    therefore rounded exactly as (C[a] - (a/2) g(x,x) xi[a] + L[a, 0] x[0] +
    ...) / (e - a t) evaluated on its own, for one sample and one element.
    """
    d = A.shape[-1] - 4
    n = d + 2
    den = projective_denominator(A, x[d])
    escaped = np.abs(jet_value(den)) <= CHART_GUARD
    den = mark_escapes(den, escaped)
    quad = 0.5 * A[..., d + 1, n] * _chart_square(x)
    rows = _affine_rows(x, d, A[..., :n, n + 1], A[..., :n, :n], quad)
    if isinstance(den, Jet2):
        # jet division multiplies by the reciprocal: one for every row
        rows = rows * _over_rows(den._reciprocal(), rows)
    else:
        rows = rows / _over_rows(den, rows)
    out = _unstack_rows(rows)
    if r is None:
        return out
    return out, r / den


def cone_point(x, r):
    """Null-cone representative (x/r, -g(x,x)/(2r), 1/r) of a chart point."""
    inv = 1.0 / r
    return [xi * inv for xi in x] + [-0.5 * _chart_square(x) * inv, inv]


# ---------------------------------------------------------------------------
# component witnesses in the split basis


class WitnessReport(NamedTuple):
    conjugation_residual: float
    commutator_norms: dict
    isometry_residuals: dict


def component_witnesses(d: int) -> WitnessReport:
    """Reflection and time-reversal representatives in the split basis.

    P (a spatial reflection) commutes with the vertical generator exactly;
    T (reversal of the second split pair) and PT do not, which separates the
    four connected components of the ambient isometries that survive in the
    group from those that do not.
    """
    n = d + 4
    S = basis_change(d)
    Z0 = build_Z0(d)
    Z0_split = S.T @ Z0 @ S

    # closed-form blocks the conjugation must reproduce
    U = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    V = -0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    expected = np.zeros((n, n))
    expected[d : d + 2, d + 2 : d + 4] = U
    expected[d + 2 : d + 4, d : d + 2] = V
    conj_resid = float(np.abs(Z0_split - expected).max())

    P = np.eye(n)
    if d >= 1:
        P[0, 0] = -1.0
    T = np.eye(n)
    T[d + 3, d + 3] = -1.0
    PT = P @ T
    eye = np.eye(n)

    def comm(M):
        return float(np.abs(M @ Z0_split - Z0_split @ M).max())

    Gs = ambient_gram_split(d)

    def isom(M):
        return float(np.abs(M.T @ Gs @ M - Gs).max())

    return WitnessReport(
        conjugation_residual=conj_resid,
        commutator_norms={
            "identity": comm(eye),
            "P": comm(P),
            "T": comm(T),
            "PT": comm(PT),
        },
        isometry_residuals={
            "identity": isom(eye),
            "P": isom(P),
            "T": isom(T),
            "PT": isom(PT),
        },
    )
