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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .geometry import Chart, MetricField, VectorField, lie_bracket
from .numkernel import ContractViolationError, jet_value, rank_nullspace

__all__ = [
    "AlgebraElement",
    "ChartEscapeError",
    "CoadjointSample",
    "DegeneratePairError",
    "GroupBlocks",
    "GroupElement",
    "SchBlocks",
    "SpecialNullVector",
    "StabilizerConstraintError",
    "ambient_gram",
    "ambient_gram_split",
    "assemble_group_element",
    "basis_change",
    "bracket_fields",
    "build_Z0",
    "coadjoint_oneform",
    "commutant_basis",
    "component_witnesses",
    "cone_point",
    "decompose_sch",
    "exp_algebra",
    "extract_blocks",
    "group_inverse",
    "flat_chart",
    "flat_gram_matrix",
    "flat_metric",
    "g_adjoint",
    "make_special",
    "projective_action",
    "random_algebra_element",
    "random_group_element",
    "realize_field",
    "sch_dimension",
    "sch_matrix",
    "skew_basis",
    "xi_vector",
]


class DegeneratePairError(ValueError):
    """The (P, Q) pair spans no plane: P Qbar - Q Pbar vanished."""


class StabilizerConstraintError(ValueError):
    """A block constraint of the stabilizer group failed."""

    def __init__(self, index: int, description: str, residual: float):
        self.index = index
        self.description = description
        self.residual = residual
        super().__init__(
            f"stabilizer constraint {index} violated ({description}); "
            f"residual {residual:.3e}"
        )


class ChartEscapeError(ValueError):
    """Projective denominator vanished: the image left the chart."""


# ---------------------------------------------------------------------------
# flat Bargmann block and ambient metric


def flat_gram_matrix(d: int) -> np.ndarray:
    """Flat Bargmann Gram on R^{d+2}: sum dx_i^2 + 2 dt ds."""
    g = np.eye(d + 2)
    g[d, d] = 0.0
    g[d + 1, d + 1] = 0.0
    g[d, d + 1] = g[d + 1, d] = 1.0
    return g


def xi_vector(d: int) -> np.ndarray:
    """The vertical null translation direction d/ds."""
    xi = np.zeros(d + 2)
    xi[d + 1] = 1.0
    return xi


def flat_chart(d: int) -> Chart:
    names = tuple(f"x{i+1}" for i in range(d)) + ("t", "s")
    return Chart(names)


def flat_metric(d: int) -> MetricField:
    g = flat_gram_matrix(d)
    rows = [[float(g[i, j]) for j in range(d + 2)] for i in range(d + 2)]

    def gram(p):
        return rows

    return MetricField(flat_chart(d), gram, (d + 1, 1))


@lru_cache(maxsize=None)
def ambient_gram(d: int) -> np.ndarray:
    """G on R^{d+4}: the flat Bargmann block plus one more null pair.

    Built once per d and shared, so the array is read-only.
    """
    G = np.zeros((d + 4, d + 4))
    G[: d + 2, : d + 2] = flat_gram_matrix(d)
    G[d + 2, d + 3] = G[d + 3, d + 2] = 1.0
    G.flags.writeable = False
    return G


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
    """Abar = G A^T G (G is involutive here, so no explicit inverse)."""
    return G @ a.T @ G


# ---------------------------------------------------------------------------
# the special null vector


@dataclass(frozen=True)
class SpecialNullVector:
    """Square-zero rank-two generator Z = P Qbar - Q Pbar of a totally null
    plane, plus the pair that built it."""

    P: np.ndarray
    Q: np.ndarray
    matrix: np.ndarray


def make_special(P, Q, G: np.ndarray, tol: float = 1e-12) -> SpecialNullVector:
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    for label, val in (
        ("G(P,P)", P @ G @ P),
        ("G(Q,Q)", Q @ G @ Q),
        ("G(P,Q)", P @ G @ Q),
    ):
        if abs(val) > tol * max(1.0, P @ P, Q @ Q):
            raise ContractViolationError(
                f"pair is not totally null: {label} = {val:.3e}"
            )
    Z = np.outer(P, G @ Q) - np.outer(Q, G @ P)
    if np.abs(Z).max() <= tol:
        raise DegeneratePairError("degenerate pair: P and Q are parallel")
    return SpecialNullVector(P, Q, Z)


@lru_cache(maxsize=None)
def build_Z0(d: int) -> SpecialNullVector:
    """The canonical vertical generator built on the s-direction and the
    first extra null direction.

    Built once per d and shared, so its arrays are read-only.
    """
    P0 = np.zeros(d + 4)
    P0[d + 1] = 1.0
    Q0 = np.zeros(d + 4)
    Q0[d + 2] = 1.0
    sn = make_special(P0, Q0, ambient_gram(d))
    for a in (sn.P, sn.Q, sn.matrix):
        a.flags.writeable = False
    return sn


# ---------------------------------------------------------------------------
# the algebra: commutant of Z0 inside o(d+2,2)


def skew_basis(d: int) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the G-skew matrices o(d+2,2).

    G is a symmetric involution, so M = G N with N antisymmetric runs over
    the Lie algebra, and Frobenius orthonormality of the N_ij/sqrt2 basis is
    preserved by multiplication with G.
    """
    n = d + 4
    G = ambient_gram(d)
    out = []
    r = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            N = np.zeros((n, n))
            N[i, j] = r
            N[j, i] = -r
            out.append(G @ N)
    return out


def sch_dimension(d: int) -> int:
    """dim of the Z0-commutant in o(d+2,2): (d^2 + 3d + 8) / 2."""
    return (d * d + 3 * d + 8) // 2


@dataclass(frozen=True)
class SchBlocks:
    """Block data of an algebra element: boost/rotation block Lam acting on
    R^{d+2} (annihilating the vertical direction up to -chi), translation
    Gam, expansion rate alpha, dilation rate chi."""

    Lam: np.ndarray
    Gam: np.ndarray
    alpha: float
    chi: float


@dataclass(frozen=True)
class AlgebraElement:
    matrix: np.ndarray
    blocks: SchBlocks


@lru_cache(maxsize=None)
def _commutant_cached(d: int, tol: float) -> tuple[np.ndarray, ...]:
    Z0 = build_Z0(d).matrix
    basis = skew_basis(d)
    cols = np.column_stack([(b @ Z0 - Z0 @ b).ravel() for b in basis])
    _, null = rank_nullspace(cols, tol=tol)
    mats = []
    for coeff in null:
        m = sum(c * b for c, b in zip(coeff, basis))
        mats.append(m)
    return tuple(m.copy() for m in mats)


def commutant_basis(d: int, tol: float = 1e-10) -> list[AlgebraElement]:
    """Frobenius-orthonormal basis of {Z in o(d+2,2) : [Z, Z0] = 0}.

    The nullspace coefficients come from an SVD over an orthonormal ambient
    basis, so the returned matrices are orthonormal too.
    """
    return [
        AlgebraElement(m.copy(), decompose_sch(m, d, validate=False))
        for m in _commutant_cached(d, tol)
    ]


def decompose_sch(Z: np.ndarray, d: int, validate: bool = True) -> SchBlocks:
    """Split a commutant element into (Lam, Gam, alpha, chi) block data.

    The redundant rows of Z are permutations/negations of these blocks, so
    reassembly via ``sch_matrix`` reproduces Z exactly.
    """
    n = d + 2
    Z = np.asarray(Z, dtype=float)
    if validate:
        Z0 = build_Z0(d).matrix
        comm = float(np.abs(Z @ Z0 - Z0 @ Z).max())
        if comm > 1e-10 * max(1.0, float(np.abs(Z).max())):
            raise ContractViolationError(
                f"matrix does not commute with Z0 (residual {comm:.3e})"
            )
    lam = Z[:n, :n].copy()
    alpha = float(Z[d + 1, n])
    gam = Z[:n, n + 1].copy()
    chi = float(Z[n, n])
    blocks = SchBlocks(lam, gam, alpha, chi)
    if validate:
        resid = float(np.abs(sch_matrix(blocks, d) - Z).max())
        if resid > 1e-12 * max(1.0, float(np.abs(Z).max())):
            raise ContractViolationError(
                f"matrix is not in block form (residual {resid:.3e})"
            )
        xi = xi_vector(d)
        vert = float(np.abs(lam @ xi + chi * xi).max())
        if vert > 1e-10:
            raise ContractViolationError(
                f"Lam xi + chi xi != 0 (residual {vert:.3e})"
            )
    return blocks


def sch_matrix(blocks: SchBlocks, d: int) -> np.ndarray:
    """Assemble the (d+4) matrix from block data."""
    n = d + 2
    g = flat_gram_matrix(d)
    xi = xi_vector(d)
    theta = g @ xi
    Z = np.zeros((n + 2, n + 2))
    Z[:n, :n] = blocks.Lam
    Z[:n, n] = blocks.alpha * xi
    Z[:n, n + 1] = blocks.Gam
    Z[n, :n] = -(g @ blocks.Gam)
    Z[n, n] = blocks.chi
    Z[n + 1, :n] = -blocks.alpha * theta
    Z[n + 1, n + 1] = -blocks.chi
    return Z


def random_algebra_element(d: int, rng: np.random.Generator, scale: float = 0.4) -> AlgebraElement:
    basis = commutant_basis(d)
    coeffs = rng.uniform(-scale, scale, size=len(basis))
    m = sum(c * b.matrix for c, b in zip(coeffs, basis))
    return AlgebraElement(m, decompose_sch(m, d, validate=False))


# ---------------------------------------------------------------------------
# realization as conformal vector fields on the flat chart


def realize_field(blocks: SchBlocks, d: int):
    """Vector field on the flat chart plus the fiber-scaling coefficient.

    delta x = Lam x + Gam - (alpha/2) g(x,x) xi + alpha t x + chi x, and the
    fiber coordinate scales with rate alpha t + chi.
    """
    xi = xi_vector(d)
    vert = float(np.abs(blocks.Lam @ xi + blocks.chi * xi).max())
    if vert > 1e-10:
        raise ContractViolationError(f"Lam xi + chi xi != 0 (residual {vert:.3e})")
    lam, gam = blocks.Lam, blocks.Gam
    alpha, chi = blocks.alpha, blocks.chi

    def comps(x):
        t = x[d]
        xx = sum(x[i] * x[i] for i in range(d)) + 2.0 * x[d] * x[d + 1]
        out = []
        for a in range(d + 2):
            val = gam[a] + (alpha * t + chi) * x[a] - 0.5 * alpha * xx * xi[a]
            for b in range(d + 2):
                if lam[a, b] != 0.0:
                    val = val + lam[a, b] * x[b]
            out.append(val)
        return out

    def fiber_rate(x):
        return alpha * x[d] + chi

    return VectorField(flat_chart(d), comps), fiber_rate


def bracket_fields(e1: AlgebraElement, e2: AlgebraElement, d: int, p) -> dict:
    """Vector-field bracket of two realizations vs the matrix bracket.

    The realization is an anti-homomorphism (left action), so the field
    bracket matches realize(-[Z1, Z2]); both signed residuals are returned
    so callers can record the verified sign.
    """
    v1, _ = realize_field(e1.blocks, d)
    v2, _ = realize_field(e2.blocks, d)
    fb = lie_bracket(v1, v2, p)
    m = e1.matrix @ e2.matrix - e2.matrix @ e1.matrix
    vm, _ = realize_field(decompose_sch(m, d, validate=False), d)
    mv = np.array([jet_value(c) for c in vm.components(list(p))], dtype=float)
    return {
        "minus": float(np.abs(fb + mv).max()),
        "plus": float(np.abs(fb - mv).max()),
    }


# ---------------------------------------------------------------------------
# the group: blocks, constraints, projective action


@dataclass(frozen=True)
class GroupBlocks:
    L: np.ndarray
    B: np.ndarray
    C: np.ndarray
    a: float
    b: float
    dd: float
    e: float


@dataclass(frozen=True)
class GroupElement:
    matrix: np.ndarray
    blocks: GroupBlocks
    dim: int


def _group_matrix(blocks: GroupBlocks, d: int) -> np.ndarray:
    n = d + 2
    g = flat_gram_matrix(d)
    xi = xi_vector(d)
    theta = g @ xi
    A = np.zeros((n + 2, n + 2))
    A[:n, :n] = blocks.L
    A[:n, n] = blocks.a * xi
    A[:n, n + 1] = blocks.C
    A[n, :n] = g @ blocks.B
    A[n, n] = blocks.b
    A[n, n + 1] = blocks.dd
    A[n + 1, :n] = -blocks.a * theta
    A[n + 1, n + 1] = blocks.e
    return A


def extract_blocks(A: np.ndarray, d: int) -> GroupBlocks:
    n = d + 2
    g = flat_gram_matrix(d)
    return GroupBlocks(
        L=A[:n, :n].copy(),
        B=g @ A[n, :n],
        C=A[:n, n + 1].copy(),
        a=float(A[d + 1, n]),
        b=float(A[n, n]),
        dd=float(A[n, n + 1]),
        e=float(A[n + 1, n + 1]),
    )


def assemble_group_element(blocks: GroupBlocks, d: int, tol: float = 1e-10) -> GroupElement:
    """Build the group element and verify every block constraint.

    Raises StabilizerConstraintError naming the first violated constraint,
    in the order: vertical eigenvector of L, of L-adjoint, the L-adjoint
    normalization, the column relation, the two pairing normalizations, and
    the null-length relation.
    """
    n = d + 2
    g = flat_gram_matrix(d)
    xi = xi_vector(d)
    theta = g @ xi
    L, B, C = blocks.L, blocks.B, blocks.C
    a, b, dd, e = blocks.a, blocks.b, blocks.dd, blocks.e
    Lstar = g @ L.T @ g
    constraints = [
        ("L xi = e xi", np.abs(L @ xi - e * xi).max()),
        ("Lbar xi = b xi", np.abs(Lstar @ xi - b * xi).max()),
        (
            "Lbar L = 1 + a (xi Bbar + B xibar)",
            np.abs(
                Lstar @ L - np.eye(n) - a * (np.outer(xi, g @ B) + np.outer(B, theta))
            ).max(),
        ),
        (
            "Lbar C = a d xi - e B",
            np.abs(Lstar @ C - a * dd * xi + e * B).max(),
        ),
        ("a xibar C + b e = 1", abs(a * (theta @ C) + b * e - 1.0)),
        ("xibar (B + C) = 0", abs(theta @ (B + C))),
        ("Cbar C + 2 d e = 0", abs(C @ g @ C + 2.0 * dd * e)),
    ]
    for idx, (desc, resid) in enumerate(constraints, start=1):
        if float(resid) > tol:
            raise StabilizerConstraintError(idx, desc, float(resid))
    A = _group_matrix(blocks, d)
    G = ambient_gram(d)
    ortho = float(np.abs(g_adjoint(A, G) @ A - np.eye(n + 2)).max())
    if ortho > tol:
        raise StabilizerConstraintError(0, "Abar A = 1", ortho)
    Z0 = build_Z0(d).matrix
    comm = float(np.abs(A @ Z0 - Z0 @ A).max())
    if comm > tol:
        raise StabilizerConstraintError(0, "A Z0 = Z0 A", comm)
    return GroupElement(A, blocks, d)


def exp_algebra(Z: np.ndarray) -> np.ndarray:
    """Matrix exponential: exact terminating series for nilpotent input,
    scaling-and-squaring otherwise."""
    n = Z.shape[0]
    power = np.eye(n)
    terms = [power]
    nilpotent = False
    fact = 1.0
    for k in range(1, n + 1):
        power = power @ Z
        fact *= k
        if float(np.abs(power).max()) <= 1e-300:
            nilpotent = True
            break
        terms.append(power / fact)
    if nilpotent:
        return sum(terms)
    return scipy.linalg.expm(Z)


def random_group_element(
    d: int, rng: np.random.Generator, scale: float = 0.4, tol: float = 1e-10
) -> GroupElement:
    """Exponential of a random algebra element, reassembled from its blocks
    (which re-validates every constraint)."""
    elem = random_algebra_element(d, rng, scale=scale)
    A = exp_algebra(elem.matrix)
    blocks = extract_blocks(A, d)
    ge = assemble_group_element(blocks, d, tol=tol)
    rebuild = float(np.abs(ge.matrix - A).max())
    if rebuild > 1e-12 * max(1.0, float(np.abs(A).max())):
        raise ContractViolationError(
            f"exponential left the block pattern (residual {rebuild:.3e})"
        )
    return ge


def group_inverse(ge: GroupElement) -> GroupElement:
    G = ambient_gram(ge.dim)
    Ainv = g_adjoint(ge.matrix, G)
    return assemble_group_element(extract_blocks(Ainv, ge.dim), ge.dim)


def projective_action(ge: GroupElement, x, r=None, guard: float = 1e-8):
    """Linear-fractional action on the flat chart and the fiber coordinate.

    x' = (L x - (a/2) g(x,x) xi + C) / (e - a t), r' = r / (e - a t); inputs
    may be floats or jets.  ``x`` holds n = d + 2 coordinates: scalars for
    one point, or (N,) arrays (jets with a trailing sample axis) for a batch
    of N points, whose images come back in the same form.  Raises
    ChartEscapeError when the denominator falls below ``guard`` at any
    sample.
    """
    d = ge.dim
    blocks = ge.blocks
    xi = xi_vector(d)
    t = x[d]
    den = blocks.e - blocks.a * t
    v = jet_value(den)
    if (np.any(np.abs(v) <= guard) if isinstance(v, np.ndarray) else abs(v) <= guard):
        raise ChartEscapeError("projective denominator vanished")
    xx = sum(x[i] * x[i] for i in range(d)) + 2.0 * x[d] * x[d + 1]
    out = []
    for a_idx in range(d + 2):
        val = blocks.C[a_idx] - 0.5 * blocks.a * xx * xi[a_idx]
        for b_idx in range(d + 2):
            if blocks.L[a_idx, b_idx] != 0.0:
                val = val + blocks.L[a_idx, b_idx] * x[b_idx]
        out.append(val / den)
    if r is None:
        return out
    return out, r / den


def cone_point(x, r):
    """Null-cone representative (x/r, -g(x,x)/(2r), 1/r) of a chart point."""
    d = len(x) - 2
    xx = sum(x[i] * x[i] for i in range(d)) + 2.0 * x[d] * x[d + 1]
    inv = 1.0 / r
    return [xi * inv for xi in x] + [-0.5 * xx * inv, inv]


# ---------------------------------------------------------------------------
# component witnesses in the split basis


@dataclass(frozen=True)
class WitnessReport:
    Z0_split: np.ndarray
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
    Z0 = build_Z0(d).matrix
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
        Z0_split=Z0_split,
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


# ---------------------------------------------------------------------------
# coadjoint one-form


@dataclass(frozen=True)
class CoadjointSample:
    varpi: float
    dvarpi: float
    pbar_dq: float


def coadjoint_oneform(
    A: np.ndarray, dA: np.ndarray, dpA: np.ndarray, d: int, tol: float = 1e-10
) -> CoadjointSample:
    """varpi = -tr(Z0 A^{-1} dA)/2 and its exterior derivative on a pair of
    tangents, plus the moving-frame pairing Pbar dQ for sign comparison.

    Requires A in the group and both dA, dpA tangent at A (A^{-1} dA G-skew).
    """
    G = ambient_gram(d)
    Ainv = g_adjoint(A, G)
    if float(np.abs(Ainv @ A - np.eye(d + 4)).max()) > tol:
        raise ContractViolationError("A is not a G-isometry")
    Z0 = build_Z0(d).matrix

    def tangency(W):
        N = G @ W
        return float(np.abs(N + N.T).max())

    W = Ainv @ dA
    for name, M in (("dA", dA), ("dpA", dpA)):
        if tangency(Ainv @ M) > tol:
            raise ContractViolationError(f"{name} is not tangent at A")
    varpi = -0.5 * float(np.trace(Z0 @ W))
    P0 = np.zeros(d + 4)
    P0[d + 1] = 1.0
    Q0 = np.zeros(d + 4)
    Q0[d + 2] = 1.0
    P = A @ P0
    dP, dpP = dA @ P0, dpA @ P0
    dQ, dpQ = dA @ Q0, dpA @ Q0
    dvarpi = float(dP @ G @ dpQ - dpP @ G @ dQ)
    pbar_dq = float(P @ G @ dQ)
    return CoadjointSample(varpi=varpi, dvarpi=dvarpi, pbar_dq=pbar_dq)
