"""Reference implementations that the package does not run, kept as
independent oracles for the tests: the einsum Ricci kernel, central-difference
metric derivatives, dense second derivatives to and from the factored form of
``gram_jets``, Gram assembly entry by entry, the scalar Laplacian, conformal
rescaling and the weighted Lie derivative of a density, the quadric embedding
with its (X, Y) decomposition, the finite expansion integrated by RK4 from
its generator field, and group-element stacks built element by element."""

from dataclasses import dataclass, field

import numpy as np

from schrogeo import numkernel as nk
from schrogeo.ambient import (
    GroupBlocks,
    GroupElement,
    SchBlocks,
    ambient_gram,
    build_Z0,
    realize_field,
)
from schrogeo.bargmann import ChartMap, _lie_term
from schrogeo.geometry import (
    MetricField,
    _coordinates,
    _first_kind,
    _invert_gram,
    _laplacian,
    _samples_first,
    _scalar_jet,
    divergence,
    gram_jets,
    gram_values,
)
from schrogeo.homogeneous import (
    BoundaryPointError,
    SchrodingerManifoldConfig,
    _flat_square,
    embed_components,
)


def einsum_ricci(g0, dg, d2g, ginv=None):
    """Ricci tensor and scalar through the full derivative of the symbols of
    the first kind: d_b Gamma_{a,ij} is formed as an array the size of d2g
    and traced by einsum.  Assumes no symmetry of the inputs beyond what the
    Christoffel formula itself uses."""
    if ginv is None:
        ginv = _invert_gram(g0)
    first = _first_kind(dg)
    dfirst = _first_kind(d2g)
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
    scalar = np.einsum("...ij,...ij->...", ginv, ric)
    return ric, (float(scalar) if scalar.ndim == 0 else scalar)


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
    pts = np.asarray(p, dtype=float)
    rows = metric.gram(_coordinates(pts))
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
                dg[..., :, i, j] = _samples_first(e.grad, batch)
                if d2g is not None:
                    d2g[..., :, :, i, j] = _samples_first(e.hess, batch)
            else:
                g0[..., i, j] = e
    return (g0, dg) if d2g is None else (g0, dg, d2g)


# ---------------------------------------------------------------------------
# operators the reports do not run


def scalar_laplacian(metric, f, p):
    """Laplace-Beltrami of a scalar, g^{ab} (d_a d_b f - Gamma^c_ab d_c f),
    from the package's own Laplacian term: one value at a point of shape
    (n,), an (N,) array on a batch (N, n)."""
    pts = np.asarray(p, dtype=float)
    g0, dg = gram_jets(metric, pts, order=1)
    return _laplacian(g0, dg, _invert_gram(g0), _scalar_jet(f, pts), pts.shape[:-1])


def rescaled_metric(structure, omega2):
    """The structure's metric conformally rescaled by a jet-evaluable
    factor Omega^2(p)."""
    base = structure.metric

    def gram(p):
        f = omega2(p)
        return [[f * e for e in row] for row in base.gram(p)]

    return MetricField(base.chart, gram, base.signature)


def density_lie_derivative(metric, field, psi, p):
    """L_X^w f = X(f) + w Div(X) f: a complex scalar at a point of shape
    (n,), an (N,) array on a batch (N, n)."""
    pts = np.asarray(p, dtype=float)
    fj = psi.coefficient(nk.seed_point(pts, order=1))
    lie = _lie_term(field, psi.weight, fj, divergence(metric, field, pts), pts)
    return complex(lie) if pts.ndim == 1 else lie


# ---------------------------------------------------------------------------
# central differences of the Gram values


def _richardson(coarse, fine):
    return (4.0 * fine - coarse) / 3.0


def fd_gram_derivatives(metric, p, step: float = 1e-5):
    """Central-difference metric derivatives, Richardson-extrapolated once.

    Independent of the jet path; the oracle for the autodiff connection and
    curvature.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    g0 = gram_values(metric, p)

    def g_at(q):
        return gram_values(metric, q)

    def shift(a, h):
        q = p.copy()
        q[a] += h
        return q

    dg = np.zeros((n, n, n))
    d2g = np.zeros((n, n, n, n))
    for a in range(n):
        d1 = {}
        for h in (step, 0.5 * step):
            d1[h] = (g_at(shift(a, h)) - g_at(shift(a, -h))) / (2.0 * h)
        dg[a] = _richardson(d1[step], d1[0.5 * step])
        d2 = {}
        for h in (step, 0.5 * step):
            d2[h] = (g_at(shift(a, h)) - 2.0 * g0 + g_at(shift(a, -h))) / h**2
        d2g[a, a] = _richardson(d2[step], d2[0.5 * step])
    for a in range(n):
        for b in range(a + 1, n):
            mixed = {}
            for h in (step, 0.5 * step):
                qpp = p.copy(); qpp[[a, b]] += h
                qpm = p.copy(); qpm[a] += h; qpm[b] -= h
                qmp = p.copy(); qmp[a] -= h; qmp[b] += h
                qmm = p.copy(); qmm[[a, b]] -= h
                mixed[h] = (g_at(qpp) - g_at(qpm) - g_at(qmp) + g_at(qmm)) / (
                    4.0 * h**2
                )
            d2g[a, b] = d2g[b, a] = _richardson(mixed[step], mixed[0.5 * step])
    return g0, dg, d2g


# ---------------------------------------------------------------------------
# the quadric embedding of one bulk chart point


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
    Q = np.array([float(v) for v in embed_components(cfg, p)])
    r = rh / cfg.scale
    xx = float(_flat_square(d, p))
    X = np.zeros(d + 4)
    X[: d + 2] = np.asarray(p[: d + 2]) / r
    X[d + 2] = -0.5 * xx / r
    X[d + 3] = 1.0 / r
    Y = np.zeros(d + 4)
    Y[d + 2] = r
    G = ambient_gram(d)
    Z0 = build_Z0(d).matrix
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


def flow_rk4(blocks: SchBlocks, d: int, step: float = 1e-3):
    """Time-1 flow of ``realize_field(blocks, d)`` by RK4.

    The callable maps a chart point (floats, jets or per-sample arrays) to
    the flowed point and ``ell``, the log of the flow's Jacobian determinant.
    By Liouville's formula ``ell`` integrates the divergence of the field,
    tr Lam + (d+2)(alpha t + chi): in the trace of the field's Jacobian the
    -alpha (g x) xi term cancels alpha x_d, since (g x)_{d+1} = t.  So ``ell``
    rides along as one more state variable and no matrix is carried.
    """
    vec, fiber_rate = realize_field(blocks, d)
    n = d + 2
    trace = float(np.trace(blocks.Lam))
    steps = max(1, round(1.0 / step))
    h = 1.0 / steps

    def rhs(y):
        x = y[:n]
        return list(vec.components(x)) + [trace + n * fiber_rate(x)]

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


def expansion_map_rk4(d: int, alpha: float, step: float = 1e-3) -> ChartMap:
    """The finite expansion exp(alpha E) integrated from its generator field:
    forward and inverse by RK4, |det D(inverse)| = exp(ell) of the backward
    flow.  The inverse and the Jacobian factor of one input object share one
    backward flow: ``transported_density`` asks for both at the same ``x``."""
    n = d + 2

    def blocks(a):
        return SchBlocks(Lam=np.zeros((n, n)), Gam=np.zeros(n), alpha=a, chi=0.0)

    fwd = flow_rk4(blocks(alpha), d, step=step)
    flow_back = flow_rk4(blocks(-alpha), d, step=step)
    last = []  # [x, flow_back(x)] of the latest input

    def back(x):
        if not last or last[0] is not x:
            last[:] = [x, flow_back(x)]
        return last[1]

    return ChartMap(
        "expansion_rk4",
        d,
        lambda x: fwd(x)[0],
        lambda x: back(x)[0],
        lambda x: nk.exp(back(x)[1]),
    )


def stack_elements(elements: list[GroupElement]) -> GroupElement:
    """One GroupElement stack of single elements, each block field stacked
    entry by entry, bit for bit (signed zeros too)."""
    fields = zip(*(vars(ge.blocks).values() for ge in elements))
    return GroupElement(
        np.array([ge.matrix for ge in elements]),
        GroupBlocks(*map(np.array, fields)),
        elements[0].dim,
    )
