"""Reference implementations that the package does not run, kept as
independent oracles for the tests: the einsum Ricci kernel, central-difference
metric derivatives, dense second derivatives to and from the factored form of
``gram_jets``, Gram assembly entry by entry, the scalar Laplacian, conformal
rescaling and the weighted Lie derivative of a density, the quadric embedding
with its (X, Y) decomposition, the finite expansion integrated by RK4 from
its generator field, the translations, boosts and dilations as closed-form
linear chart maps, one algebra element drawn as a stack of one, the
algebra block layout written and read entry by entry with its block and
vertical relations, the
commutant basis of Z0 built element by element from its own SVD per
tolerance, the algebra residuals and the group identities with G and Z0 as
dense matrices, the per-sample residuals of the
lie-algebra closure and realization records, measured one basis row and one
element pair at a time, the seven block relations of a group element with
the element written entry by entry from its blocks, the isotropy stabilizer
elements built one at a time, the schrodinger-eq plane-wave record measured one wave per pass
and its transport rows one row per pass, and
the boundary structure with its scale and cone-kernel forms taken one point
at a time, and the homogeneous isometry record with one group draw per
coupling."""

from dataclasses import dataclass, field

import numpy as np

from schrogeo import numkernel as nk
from schrogeo import bargmann as bg
from schrogeo.ambient import (
    StabilizerConstraintError,
    algebra_elements,
    ambient_gram,
    boost_element,
    bracket_fields,
    build_Z0,
    commutant_stack,
    dilation_element,
    expansion_element,
    expansion_generator,
    flat_gram_matrix,
    group_coefficients,
    random_group_element,
    realize_field,
    translation_element,
    xi_field,
    xi_vector,
)
from schrogeo.bargmann import ChartMap, _lie_term
from schrogeo.geometry import (
    MetricField,
    component_values,
    covariant_derivative,
    exterior_wedge,
    gram_jets,
    gram_values,
    jet_components,
    laplacian,
)
from schrogeo.homogeneous import (
    BoundaryPointError,
    SchrodingerManifoldConfig,
    _flat_square,
    _section_jacobian,
    boundary_embed_components,
    boundary_f0,
    boundary_metric,
    embed_components,
    isometry_check,
    theta_f0_form,
)
from schrogeo.suites import _box_points, _grid_points


def _samples_first(a):
    """A jet array with its trailing sample axis moved to the front."""
    return np.moveaxis(a, -1, 0)


def first_kind(dg):
    """Gamma_{a,ij} = (d_i g_aj + d_j g_ai - d_a g_ij) / 2 over the last three
    axes of dg (or of d2g, with the extra derivative axis in front)."""
    return 0.5 * (
        np.einsum("...iaj->...aij", dg) + np.einsum("...jai->...aij", dg) - dg
    )


def einsum_ricci(g0, dg, d2g):
    """Ricci tensor and scalar through the full derivative of the symbols of
    the first kind: d_b Gamma_{a,ij} is formed as an array the size of d2g
    and traced by einsum.  Assumes no symmetry of the inputs beyond what the
    Christoffel formula itself uses."""
    ginv = np.linalg.inv(g0)
    first = first_kind(dg)
    dfirst = first_kind(d2g)
    gamma = np.einsum("...ka,...aij->...kij", ginv, first)
    # d_b g^ka = -g^km d_b g_ml g^la
    dginv = -np.einsum(
        "...bkl,...la->...bka", np.einsum("...km,...bml->...bkl", ginv, dg), ginv
    )
    div = np.einsum("...kka,...aij->...kij", dginv, first) + np.einsum(
        "...ka,...kaij->...kij", ginv, dfirst
    )
    grad = np.einsum("...ika,...akj->...ikj", dginv, first) + np.einsum(
        "...ka,...iakj->...ikj", ginv, dfirst
    )
    ric = (
        div.sum(axis=-3)
        - grad.sum(axis=-2)
        + np.einsum("...kkl,...lij->...ij", gamma, gamma)
        - np.einsum("...kil,...lkj->...ij", gamma, gamma)
    )
    ric = 0.5 * (ric + ric.swapaxes(-1, -2))
    return ric, np.einsum("...ij,...ij->...", ginv, ric)


def generic_metric_derivatives(rng, n, lead=()):
    """A dense Lorentzian Gram matrix with eigenvalues of modulus in
    [0.5, 2], and first and second derivatives of random entries with the
    symmetries of derivatives of a metric: dg[a] and d2g[a, b] symmetric,
    d2g symmetric in (a, b)."""
    q, _ = np.linalg.qr(rng.normal(size=lead + (n, n)))
    s = rng.uniform(0.5, 2.0, size=lead + (n,))
    s[..., 0] *= -1.0
    g0 = (q * s[..., None, :]) @ q.swapaxes(-1, -2)
    g0 = 0.5 * (g0 + g0.swapaxes(-1, -2))
    dg = rng.normal(size=lead + (n, n, n))
    dg = 0.5 * (dg + dg.swapaxes(-1, -2))
    d2g = rng.normal(size=lead + (n, n, n, n))
    d2g = 0.5 * (d2g + d2g.swapaxes(-1, -2))
    d2g = 0.5 * (d2g + d2g.swapaxes(-3, -4))
    return g0, dg, d2g


# ---------------------------------------------------------------------------
# dense second derivatives and the factored form of ``gram_jets``


def factored(d2g):
    """A dense d2g[..., a, b, i, j] as the (hess, pattern) pair that
    ``ricci_from_derivatives`` reads: one entry per position (i, j), so
    hess[..., i * n + j, a, b] = d2g[..., a, b, i, j] and pattern is the
    identity."""
    n = d2g.shape[-1]
    hess = np.moveaxis(d2g.reshape(d2g.shape[:-2] + (n * n,)), -1, -3)
    return hess, np.eye(n * n).reshape(n * n, n, n)


def dense_d2g(hess, pattern):
    """The dense d2g[..., a, b, i, j] of a factored pair, each position
    written once from the one entry that holds it (zeros elsewhere)."""
    n = pattern.shape[-1]
    d2g = np.zeros(hess.shape[:-3] + (n, n, n, n))
    for e, i, j in zip(*np.nonzero(pattern)):
        d2g[..., :, :, i, j] = hess[..., e, :, :]
    return d2g


# ---------------------------------------------------------------------------
# Gram assembly entry by entry


def gram_values_loop(metric, p):
    """``geometry.gram_values`` as one numpy write per position."""
    pts = nk.point_batch(p)
    rows = metric.gram(list(np.ascontiguousarray(pts.T)))
    n = len(rows)
    out = np.empty(pts.shape[:-1] + (n, n))
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            out[..., i, j] = e
    return out


def gram_jets_loop(metric, p, order: int = 2):
    """``geometry.gram_jets`` as one numpy write per position and array."""
    pts = np.asarray(p, dtype=float)
    n = pts.shape[-1]
    batch = pts.shape[:-1]
    rows = metric.gram(nk.seed_point(pts, order))
    g0 = np.zeros(batch + (n, n))
    dg = np.zeros(batch + (n, n, n))
    d2g = np.zeros(batch + (n, n, n, n)) if order == 2 else None
    for i in range(n):
        for j in range(n):
            e = rows[i][j]
            if isinstance(e, nk.Jet2):
                g0[..., i, j] = e.value
                dg[..., :, i, j] = _samples_first(e.grad)
                if d2g is not None:
                    d2g[..., :, :, i, j] = _samples_first(e.hess)
            else:
                g0[..., i, j] = e
    return (g0, dg) if d2g is None else (g0, dg, d2g)


# ---------------------------------------------------------------------------
# operators the reports do not run


def scalar_laplacian(metric, f, p):
    """Laplace-Beltrami of a scalar, g^{ab} (d_a d_b f - Gamma^c_ab d_c f),
    from one pass of the metric and the package's own Laplacian: an (N,)
    array on a batch (N, n)."""
    jets = gram_jets(metric, p)
    return laplacian(jets, jets.scalar(f))


def rescaled_metric(structure, omega2):
    """The structure's metric conformally rescaled by a jet-evaluable
    factor Omega^2(p)."""
    base = structure.metric

    def gram(p):
        f = omega2(p)
        return [[f * e for e in row] for row in base.gram(p)]

    return MetricField(gram)


def density_lie_derivative(metric, field, psi, p):
    """L_X^w f = X(f) + w Div(X) f from one first-order pass of the metric:
    an (N,) array on a batch (N, n)."""
    jets = gram_jets(metric, p, order=1)
    fj = jets.scalar(psi.coefficient)
    return _lie_term(jets, field, psi.weight, fj)


# ---------------------------------------------------------------------------
# central differences of the Gram values


def _richardson(coarse, fine):
    return (4.0 * fine - coarse) / 3.0


def fd_gram_derivatives(metric, p, step: float = 1e-5, step2: float = 1e-3):
    """Central-difference metric derivatives on a batch of points (N, n),
    Richardson-extrapolated once: g0 (N, n, n), dg (N, n, n, n) and d2g
    (N, n, n, n, n), each shift applied to every point at once.  The second
    differences take the larger ``step2``: their rounding error grows like
    eps |g| / h^2, about 1e-5 at h = 1e-5, and their truncation error after
    the extrapolation like h^4.

    Independent of the jet path; the oracle for the autodiff connection and
    curvature.
    """
    p = nk.point_batch(p)
    n = p.shape[-1]
    g0 = gram_values(metric, p)

    def g_at(q):
        return gram_values(metric, q)

    def shift(a, h):
        q = p.copy()
        q[:, a] += h
        return q

    dg = np.zeros(g0.shape[:1] + (n, n, n))
    d2g = np.zeros(g0.shape[:1] + (n, n, n, n))
    for a in range(n):
        d1 = {}
        for h in (step, 0.5 * step):
            d1[h] = (g_at(shift(a, h)) - g_at(shift(a, -h))) / (2.0 * h)
        dg[:, a] = _richardson(d1[step], d1[0.5 * step])
        d2 = {}
        for h in (step2, 0.5 * step2):
            d2[h] = (g_at(shift(a, h)) - 2.0 * g0 + g_at(shift(a, -h))) / h**2
        d2g[:, a, a] = _richardson(d2[step2], d2[0.5 * step2])
    for a in range(n):
        for b in range(a + 1, n):
            mixed = {}
            for h in (step2, 0.5 * step2):
                qpp = p.copy(); qpp[:, [a, b]] += h
                qpm = p.copy(); qpm[:, a] += h; qpm[:, b] -= h
                qmp = p.copy(); qmp[:, a] -= h; qmp[:, b] += h
                qmm = p.copy(); qmm[:, [a, b]] -= h
                mixed[h] = (g_at(qpp) - g_at(qpm) - g_at(qmp) + g_at(qmm)) / (
                    4.0 * h**2
                )
            d2g[:, a, b] = d2g[:, b, a] = _richardson(mixed[step2], mixed[0.5 * step2])
    return g0, dg, d2g


# ---------------------------------------------------------------------------
# the quadric embedding of a bulk chart point, as a batch of one


@dataclass(frozen=True)
class EmbeddedPoint:
    """Ambient image of a bulk chart point with its (X, Y) decomposition
    Q = X + lam * Y in the q = 0 gauge, and the constraint residuals."""

    chart_point: tuple
    Q: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    q: float
    residuals: dict = field(default_factory=dict)


def embed(cfg: SchrodingerManifoldConfig, p, validate: bool = True) -> EmbeddedPoint:
    d, lam = cfg.d, cfg.lam
    p = [float(v) for v in p]
    rh = p[d + 2]
    if abs(rh) < 1e-8:
        raise BoundaryPointError("rh = 0 is a boundary point")
    Q = component_values(lambda q: embed_components(cfg, q), np.array([p]))[0]
    r = rh / cfg.scale
    xx = float(_flat_square(d, p))
    X = np.zeros(d + 4)
    X[: d + 2] = np.asarray(p[: d + 2]) / r
    X[d + 2] = -0.5 * xx / r
    X[d + 3] = 1.0 / r
    Y = np.zeros(d + 4)
    Y[d + 2] = r
    G = ambient_gram(d)
    Z0 = build_Z0(d)
    res = {
        "quadric": abs(float(Q @ G @ Q) - 2.0 * lam) / abs(2.0 * lam),
        "decomposition": float(np.abs(Q - (X + lam * Y)).max()),
        "XX": abs(float(X @ G @ X)),
        "YY": abs(float(Y @ G @ Y)),
        "XY": abs(float(X @ G @ Y) - 1.0),
        "Z0Y": float(np.abs(Z0 @ Y).max()),
        "Z0Q_norm": float(np.abs(Z0 @ Q).max()),
    }
    if validate:
        worst = max(v for k, v in res.items() if k != "Z0Q_norm")
        if worst > 1e-12:
            raise nk.ContractViolationError(f"embedding constraints violated: {res}")
        if res["Z0Q_norm"] <= 1e-6:
            raise nk.ContractViolationError("Z0 Q vanished at an interior point")
    return EmbeddedPoint(tuple(p), Q, X, Y, 0.0, res)


def origin_point(cfg: SchrodingerManifoldConfig) -> list[float]:
    """Chart coordinates of the base point (0, ..., 0, rh = sqrt(-2 lam)),
    whose ambient image is (0, ..., 0, lam, 1)."""
    return [0.0] * (cfg.d + 2) + [cfg.scale]


# ---------------------------------------------------------------------------
# the finite expansion by RK4, its Jacobian by Liouville's formula


def flow_rk4(Z: np.ndarray, d: int, step: float = 1e-3):
    """Time-1 flow of ``realize_field(Z, d)`` by RK4.

    The callable maps a chart point (floats, jets or per-sample arrays) to
    the flowed point and ``ell``, the log of the flow's Jacobian determinant.
    By Liouville's formula ``ell`` integrates the divergence of the field,
    tr Lam + (d+2)(alpha t + chi): in the trace of the field's Jacobian the
    -alpha (g x) xi term cancels alpha x_d, since (g x)_{d+1} = t.  So ``ell``
    rides along as one more state variable and no matrix is carried.
    """
    vec = realize_field(Z, d)
    n = d + 2
    lam, _, alpha, chi = algebra_blocks(Z, d)
    trace, alpha, chi = float(np.trace(lam)), float(alpha), float(chi)
    steps = max(1, round(1.0 / step))
    h = 1.0 / steps

    def rhs(y):
        x = y[:n]
        return list(vec.components(x)) + [trace + n * (alpha * x[d] + chi)]

    def mapper(x):
        y = list(x) + [0.0]
        for _ in range(steps):
            k1 = rhs(y)
            k2 = rhs([a + 0.5 * h * k for a, k in zip(y, k1)])
            k3 = rhs([a + 0.5 * h * k for a, k in zip(y, k2)])
            k4 = rhs([a + h * k for a, k in zip(y, k3)])
            y = [
                a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
            ]
        return y[:n], y[n]

    return mapper


def linear_chart_map(W: np.ndarray, shift=None) -> ChartMap:
    """The affine chart map x -> W x + shift in closed form: the inverse
    through numpy's matrix inverse, and the constant |det W^-1| as its
    Jacobian factor.  The translations, boosts and dilations of the flat
    chart are such maps."""
    n = len(W)
    Winv = np.linalg.inv(W)
    shift = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)
    jac = abs(float(np.linalg.det(Winv)))

    def forward(x):
        return [nk.sparse_dot(W[a], x) + shift[a] for a in range(n)]

    def inverse(x):
        y = [x[a] - shift[a] for a in range(n)]
        return [nk.sparse_dot(Winv[a], y) for a in range(n)]

    return ChartMap(forward, inverse, lambda x: jac)


def linear_symmetries(d: int) -> dict:
    """The schrodinger-eq translation, boost and dilation as closed-form
    linear chart maps (``linear_chart_map``)."""
    b = np.full(d, 0.35)
    boost = np.eye(d + 2)
    boost[:d, d] = b
    boost[d + 1, :d] = -b
    boost[d + 1, d] = -0.5 * float(b @ b)
    return {
        "translation": linear_chart_map(np.eye(d + 2), [0.3] * d + [0.2, -0.4]),
        "boost": linear_chart_map(boost),
        "dilation": linear_chart_map(np.diag([np.exp(0.3)] * d + [np.exp(0.6), 1.0])),
    }


def expansion_map_rk4(d: int, alpha: float, step: float = 1e-3) -> ChartMap:
    """The finite expansion exp(alpha E) integrated from its generator field:
    forward and inverse by RK4, |det D(inverse)| = exp(ell) of the backward
    flow.  The inverse and the Jacobian factor of one input object share one
    backward flow: ``transported_density`` asks for both at the same ``x``."""
    fwd = flow_rk4(expansion_generator(d, alpha), d, step=step)
    flow_back = flow_rk4(expansion_generator(d, -alpha), d, step=step)
    last = []  # [x, flow_back(x)] of the latest input

    def back(x):
        if not last or last[0] is not x:
            last[:] = [x, flow_back(x)]
        return last[1]

    return ChartMap(
        lambda x: fwd(x)[0],
        lambda x: back(x)[0],
        lambda x: nk.exp(back(x)[1]),
    )


def algebra_element(d: int, rng: np.random.Generator, scale: float = 0.4) -> np.ndarray:
    """One algebra element: the stack of one that ``algebra_elements`` makes
    of one ``group_coefficients`` row, its element axis dropped."""
    return algebra_elements(d, group_coefficients(d, rng, 1, scale))[0]


# ---------------------------------------------------------------------------
# the block layout of an algebra element, written and read entry by entry


def algebra_form(lam, gam, alpha, chi, d: int) -> np.ndarray:
    """The (d+4) matrix of the blocks (Lam, Gam, alpha, chi), or a stack of
    them from blocks with leading axes: Lam (..., n, n), Gam (..., n),
    alpha and chi (...).  Lam and Gam are written as they are, and the other
    entries from them, as the two defining identities [M, Z0] = 0 and
    G M^T G + M = 0 fix them."""
    n = d + 2
    g = flat_gram_matrix(d)
    xi = xi_vector(d)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    Z = np.zeros(np.shape(lam)[:-2] + (n + 2, n + 2))
    Z[..., :n, :n] = lam
    Z[..., :n, n] = alpha * xi
    Z[..., :n, n + 1] = gam
    Z[..., n, :n] = -(gam @ g)
    Z[..., n, n] = chi
    Z[..., n + 1, :n] = -alpha * (g @ xi)
    Z[..., n + 1, n + 1] = -np.asarray(chi)
    return Z


def algebra_blocks(Z: np.ndarray, d: int) -> tuple:
    """The blocks (Lam, Gam, alpha, chi) of an algebra element, or of each
    element of a stack, read from the entries ``algebra_form`` writes them
    to, as copies."""
    n = d + 2
    parts = (Z[..., :n, :n], Z[..., :n, n + 1], Z[..., d + 1, n], Z[..., n, n])
    return tuple(part.copy() for part in parts)


def algebra_block_relations(M: np.ndarray, d: int) -> dict:
    """The block-layout residuals of each matrix of M: "block" is |M
    rewritten by ``algebra_form`` from its own blocks - M| relative to
    max(1, max|M|), and "vertical" the absolute |Lam xi + chi xi|.  On the
    matrices of a stack, (E,) each."""
    lam, gam, alpha, chi = algebra_blocks(M, d)
    back = algebra_form(lam, gam, alpha, chi, d)
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
    xi = xi_vector(d)
    return {
        "block": np.abs(back - M).max(axis=(-2, -1)) / scale,
        "vertical": np.abs(lam @ xi + chi[..., None] * xi).max(axis=-1),
    }


# ---------------------------------------------------------------------------
# the algebra layer one matrix, one basis row and one element pair at a time


def commutant_loop(d: int, tol: float) -> np.ndarray:
    """The commutant of Z0 in o(d+2,2) element by element: the skew basis
    G N_ij one pair i < j at a time, the commutator columns one element at a
    time, an SVD for this tolerance, and each basis element summed as
    sum(c * b) over the skew basis."""
    n = d + 4
    G, Z0 = ambient_gram(d), build_Z0(d)
    r = 1.0 / np.sqrt(2.0)
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            N = np.zeros((n, n))
            N[i, j] = r
            N[j, i] = -r
            basis.append(G @ N)
    cols = np.column_stack([(b @ Z0 - Z0 @ b).ravel() for b in basis])
    _, null = nk.rank_nullspace(cols, tol=tol)
    return np.array([sum(c * b for c, b in zip(coeff, basis)) for coeff in null])


def dense_sch_residuals(M: np.ndarray, d: int) -> dict:
    """``sch_residuals`` with G and Z0 as dense matrices: |M Z0 - Z0 M| and
    |G M^T G + M|, each relative to max(1, max|M|), one value per matrix."""
    G, Z0 = ambient_gram(d), build_Z0(d)

    def worst(a):
        return np.abs(a).max(axis=(-2, -1))

    scale = np.maximum(1.0, worst(M))
    return {
        "commutator": worst(M @ Z0 - Z0 @ M) / scale,
        "skew": worst(G @ M.swapaxes(-1, -2) @ G + M) / scale,
    }


def dense_require_group(A: np.ndarray) -> None:
    """``require_group`` with G and Z0 as dense matrices: Abar A - 1 as
    G A^T G A - 1 and A Z0 - Z0 A, raising for the first failing element
    and the first identity, in that order, that it fails."""
    d = A.shape[-1] - 4
    G, Z0 = ambient_gram(d), build_Z0(d)
    identities = {
        "Abar A = 1": G @ A.swapaxes(-1, -2) @ G @ A - np.eye(d + 4),
        "A Z0 = Z0 A": A @ Z0 - Z0 @ A,
    }
    table = np.stack([np.abs(r).max(axis=(-2, -1)) for r in identities.values()], axis=-1)
    bad = ~(table <= 1e-10)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise StabilizerConstraintError(list(identities)[k], float(table[i, k]))


def closure_rows(c, seed) -> np.ndarray:
    """The lie-algebra closure residual per bracket [B_i, B_j], i < j, in
    row order, with dense G and Z0 (``dense_sch_residuals``), one basis row
    i and every bracket of that row at a time."""
    stack = commutant_stack(c.d)
    runs = []
    for i in range(len(stack) - 1):
        rest = stack[i + 1 :]
        runs.append(dense_sch_residuals(stack[i] @ rest - rest @ stack[i], c.d))
    found = {key: np.concatenate([r[key] for r in runs]) for key in runs[0]}
    return np.maximum(found["commutator"], found["skew"])


def realization_rounds(c, seed) -> dict:
    """The lie-algebra realization residual per (pair, point) sample, one
    ``bracket_fields`` pass per round: a pair of elements drawn, then
    brackets at the three points."""
    rng = nk.SeededSampler.generator(seed + 1)
    pts = _box_points(seed, 1.0, c.d + 2, 3)
    found = []
    for _ in range(3):
        e1 = algebra_element(c.d, rng)
        e2 = algebra_element(c.d, rng)
        found.append(bracket_fields(e1, e2, c.d, pts)["minus"])
    return {"residual": np.concatenate(found), "sign": -1}


# ---------------------------------------------------------------------------
# the group in block form: blocks written and read entry by entry, and the
# seven block relations, the defining identities Abar A = 1 and
# A Z0 = Z0 A written out block by block


def block_form(blocks, d: int) -> np.ndarray:
    """One (d+4, d+4) group element written entry by entry from its blocks
    (L, B, C, a, b, dd, e)."""
    L, B, C, a, b, dd, e = blocks
    n = d + 2
    g, xi = flat_gram_matrix(d), xi_vector(d)
    A = np.zeros((n + 2, n + 2))
    A[:n, :n] = L
    A[:n, n] = a * xi
    A[:n, n + 1] = C
    A[n, :n] = B @ g
    A[n, n] = b
    A[n, n + 1] = dd
    A[n + 1, :n] = -a * (g @ xi)
    A[n + 1, n + 1] = e
    return A


def group_blocks(A: np.ndarray, d: int) -> tuple:
    """The blocks (L, B, C, a, b, dd, e) of one element, read from the
    entries ``block_form`` writes them to."""
    n = d + 2
    B = A[n, :n] @ flat_gram_matrix(d)
    return A[:n, :n], B, A[:n, n + 1], A[d + 1, n], A[n, n], A[n, n + 1], A[n + 1, n + 1]


def block_relations(A: np.ndarray, d: int) -> np.ndarray:
    """The largest |entry| of each of the seven block relations at one
    element, (7,): L xi = e xi, Lbar xi = b xi, Lbar L = 1 + a (xi Bbar +
    B xibar), Lbar C = a dd xi - e B, a xibar C + b e = 1, xibar (B + C) = 0
    and Cbar C + 2 dd e = 0."""
    L, B, C, a, b, dd, e = group_blocks(A, d)
    g, xi = flat_gram_matrix(d), xi_vector(d)
    theta = g @ xi
    Lbar = g @ L.T @ g
    cross = np.outer(xi, B @ g) + np.outer(B, theta)
    residuals = (
        L @ xi - e * xi,
        Lbar @ xi - b * xi,
        Lbar @ L - np.eye(d + 2) - a * cross,
        Lbar @ C - a * dd * xi + e * B,
        a * (C @ theta) + b * e - 1.0,
        (B + C) @ theta,
        C @ g @ C + 2.0 * dd * e,
    )
    return np.array([np.abs(r).max() for r in residuals])


# ---------------------------------------------------------------------------
# the isotropy stabilizer elements one at a time


def _one_element(blocks, d: int) -> np.ndarray:
    """The matrix of one element's blocks, written entry by entry and held
    to the seven block relations."""
    A = block_form(blocks, d)
    worst = block_relations(A, d).max()
    if not worst <= 1e-10:
        raise nk.ContractViolationError(f"block relation violated (residual {worst:.3e})")
    return A


def isotropy_loop(cfg: SchrodingerManifoldConfig, rng, samples: int) -> dict:
    """The stabilizer elements of ``isotropy_check`` and how far they move
    what they fix, each element drawn, written entry by entry, held to the
    block relations and applied on its own: the bulk and boundary matrices, (samples, d+4, d+4), and residuals,
    (samples,)."""
    d, lam = cfg.d, cfg.lam
    n = d + 2
    xi = xi_vector(d)
    Q0 = np.zeros(d + 4)
    Q0[d + 2] = lam
    Q0[d + 3] = 1.0
    X0 = np.zeros(d + 4)
    X0[d + 3] = 1.0
    found = {"bulk": [], "boundary": [], "bulk_fix_residual": [], "boundary_fix_residual": []}
    for k in range(samples):
        R, _ = np.linalg.qr(rng.normal(size=(d, d)))
        u = 0.7 * rng.normal(size=d)
        a = 0.8 * rng.normal()
        L = np.zeros((n, n))
        L[:d, :d] = R
        L[:d, d] = u
        L[d, d] = 1.0
        L[d + 1, :d] = -(R.T @ u)
        L[d + 1, d] = -0.5 * float(u @ u) + lam * a * a
        L[d + 1, d + 1] = 1.0
        A = _one_element((L, lam * a * xi, -lam * a * xi, a, 1.0, 0.0, 1.0), d)
        found["bulk"].append(A)
        found["bulk_fix_residual"].append(np.abs(A @ Q0 - Q0).max())
        v = 0.7 * rng.normal(size=d)
        e = float(np.exp(0.5 * rng.normal()))
        if k % 2:
            e = -e
        L = np.zeros((n, n))
        L[:d, :d] = R
        L[:d, d] = -(R @ v) / e
        L[d, d] = 1.0 / e
        L[d + 1, :d] = v
        L[d + 1, d] = -0.5 * float(v @ v) / e
        L[d + 1, d + 1] = e
        A = _one_element((L, np.zeros(n), np.zeros(n), a, 1.0 / e, 0.0, e), d)
        found["boundary"].append(A)
        found["boundary_fix_residual"].append(np.abs(A @ X0 - e * X0).max())
    return {key: np.array(v) for key, v in found.items()}


# ---------------------------------------------------------------------------
# the plane-wave record one wave per pass, the boundary structure one point
# at a time


def plane_wave_loop(c, seed) -> dict:
    """The schrodinger-eq plane-wave residual per sample, one
    ``schrodinger_residual`` pass per wave: a wave vector drawn, then its
    residuals at its block of the points."""
    d = c.d
    rng = nk.SeededSampler.generator(seed + 1)
    per = max(2, c.samples // 4)
    pts = _box_points(seed, 1.0, d + 2, 3 * per).reshape(3, per, d + 2)
    found = []
    for x in pts:
        psi = bg.plane_wave(d, rng.normal(size=d), c.params)
        r1, r2 = bg.schrodinger_residual(c.structure, psi, c.params, x)
        found.append(np.maximum(bg.complex_magnitude(r1), bg.complex_magnitude(r2)))
    return {"residual": np.concatenate(found), "waves": 3}


def transport_loop(c, seed) -> list:
    """The schrodinger-eq transport rows, one ``symmetry_transport_check``
    pass per row in the order translation, boost, dilation, expansion and
    weight control: its chart map, its wave of the one (5, d) draw and its
    weight (the density's, or 0 for the control) at its block of the
    points.  The passes' results, one per row."""
    d = c.d
    per = max(3, c.samples // 4)
    pts = _box_points(seed, 0.8, d + 2, 5 * per).reshape(5, per, d + 2)
    waves = 0.8 * nk.SeededSampler.generator(seed + 1).normal(size=(5, d))
    maps = [
        bg.group_map(translation_element(d, [0.3] * d + [0.2, -0.4])),
        bg.group_map(boost_element(d, [0.35] * d)),
        bg.group_map(dilation_element(d, 0.3)),
        bg.group_map(expansion_element(d, 0.25)),
    ]
    maps.append(maps[-1])
    weights = [None] * 4 + [0.0]
    return [
        bg.symmetry_transport_check(
            phi, bg.plane_wave(d, k, c.params), c.structure, c.params, x, w
        )
        for phi, k, x, w in zip(maps, waves, pts, weights)
    ]


def boundary_loop(d: int, pts: np.ndarray, rng) -> dict:
    """``homogeneous.boundary_structure`` with the scale-invariance forms and
    the cone-form kernel taken point by point: two ``rank_nullspace`` calls
    per point, each with its own draws of ``rng``."""
    G = ambient_gram(d)
    Z0 = build_Z0(d)
    metric = boundary_metric(d)
    flat = flat_gram_matrix(d)
    samples = len(pts)
    X = component_values(lambda q: boundary_embed_components(d, q), pts)
    J = component_values(
        lambda q: [e for row in _section_jacobian(d, q) for e in row], pts
    ).reshape(samples, d + 4, d + 2)
    f0 = boundary_f0(d, X.T)
    alpha = 3.7
    f0_scaled = boundary_f0(d, (alpha * X).T)
    dw, _ = exterior_wedge(*jet_components(theta_f0_form(d).components, pts))
    g0 = gram_values(metric, pts)
    factor = (g0 * flat).sum(axis=(-2, -1)) / (flat * flat).sum()

    scale_r, angle_r = np.zeros(samples), np.zeros(samples)
    kernel_dims = set()
    for k in range(samples):
        v1 = J[k] @ rng.normal(size=d + 2)
        v2 = J[k] @ rng.normal(size=d + 2)
        base = float(v1 @ G @ v2) / f0[k]
        scaled = float((alpha * v1) @ G @ (alpha * v2)) / f0_scaled[k]
        scale_r[k] = abs(base - scaled)
        alpha2 = float(rng.uniform(0.4, 2.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        Xa = alpha2 * X[k]
        _, tangent = nk.rank_nullspace((Xa @ G).reshape(1, -1))
        K = tangent @ G @ tangent.T
        rank_k, null_k = nk.rank_nullspace(K)
        kernel_dims.add(tangent.shape[0] - rank_k)
        if null_k.shape[0]:
            vec = null_k[0] @ tangent
            xhat = Xa / np.linalg.norm(Xa)
            angle_r[k] = np.linalg.norm(vec - (vec @ xhat) * xhat) / np.linalg.norm(vec)

    t_vals = (-0.9, -0.2, 0.5, 1.1)
    qs = rng.uniform(-1.2, 1.2, size=(len(t_vals) * 5, d + 2))
    qs[:, d] = np.repeat(t_vals, 5)
    g_t = gram_values(metric, qs)
    facs = ((g_t * flat).sum(axis=(-2, -1)) / (flat * flat).sum()).reshape(-1, 5)
    factors_by_t = [sum(row) / len(row) for row in facs.tolist()]

    found = {
        "scale_invariance": scale_r,
        "clock_closed": nk.sample_max(dw),
        "xi_parallel": nk.sample_max(
            covariant_derivative(gram_jets(metric, pts, order=1), xi_field(d, d + 2))
        ),
        "xi_null": nk.sample_max(g0[:, d + 1, d + 1]),
        "xi_matches_ambient": nk.sample_max(X @ Z0.T - J[:, :, d + 1]),
        "conformal_to_flat": nk.sample_max(g0 - factor[:, None, None] * flat),
        "factor_time_only": float(np.max(facs.max(axis=1) - facs.min(axis=1))),
        "cone_kernel": angle_r,
        "factor_varies_with_t": float(np.max(factors_by_t)) - float(np.min(factors_by_t)),
    }
    out = {name: {"residual": r} for name, r in found.items()}
    out["scale_invariance"]["min_f0"] = float(f0.min())
    out["cone_kernel"]["kernel_dims"] = sorted(kernel_dims)
    return out


def isometry_loop(c, seed) -> dict:
    """The homogeneous isometry residual per (coupling, point), one
    ``random_group_element`` draw per coupling."""
    rng = nk.SeededSampler.generator(seed + 1)
    pts = _grid_points(c, seed)
    found = []
    for lam, mu in ((-0.5, 1.0), (-1.0, 2.0)):
        mc = SchrodingerManifoldConfig(c.d, lam, mu)
        found.append(isometry_check(mc, random_group_element(c.d, rng), pts))
    return {
        "residual": np.concatenate(
            [np.maximum(r["metric_residual"], r["quadric_residual"]) for r in found]
        ),
        "escaped": np.concatenate([r["escaped"] for r in found]),
    }
