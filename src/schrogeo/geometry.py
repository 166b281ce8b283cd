"""Coordinate tensor calculus on jets.

A metric is a callable Gram matrix over a named chart, evaluable on the
per-sample coordinate arrays of a batch of points or on seeded jets.
Because the jet arithmetic is exact to second order, the Christoffel symbols
and the Riemann/Ricci contractions built from jet-derived metric derivatives
carry no finite-difference truncation error.  The
independent baseline, a Richardson-extrapolated central-difference path,
lives with the tests (``tests/oracles.py``).

Curvature conventions: R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + ...,
Ric_{bd} = R^a_{bad}.  With these signs the unit sphere has Ric = (n-1) g and
the unit-radius hyperbolic/anti-de Sitter spaces have Ric = -(n-1) g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numkernel import ContractViolationError, Jet2, point_batch, seed_point

__all__ = [
    "Chart",
    "DegenerateMetricError",
    "MetricField",
    "OneForm",
    "VectorField",
    "christoffel",
    "christoffel_from_derivatives",
    "component_values",
    "covariant_derivative",
    "divergence",
    "exterior_wedge",
    "gram_jets",
    "gram_values",
    "jet_components",
    "lie_bracket",
    "lie_derivative_metric",
    "ricci_from_derivatives",
    "ricci_scalar",
    "yamabe_and_divergence",
    "yamabe_residual",
]


class DegenerateMetricError(ValueError):
    """Gram matrix not invertible at the evaluation point.

    ``sample`` is the index of the first singular sample of a stack and
    ``detail`` the singular values that condemned it, so a caller that
    stacked several batches can name the batch and the index within it.
    ``coupling`` is the (lam, mu) of that sample once a caller has named
    it, and then ``sample`` counts within that coupling's points.
    """

    def __init__(
        self,
        message: str,
        sample: int,
        detail: str = "",
        coupling: tuple[float, float] | None = None,
    ):
        super().__init__(message)
        self.sample = sample
        self.detail = detail
        self.coupling = coupling


@dataclass(frozen=True)
class Chart:
    """Named coordinates."""

    names: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class MetricField:
    """Pseudo-Riemannian metric: chart, Gram callable, expected signature.

    ``gram`` maps the coordinates of a batch of points (n jets or (N,)
    arrays) to an n x n nested sequence; entries may be plain numbers when
    constant.
    """

    chart: Chart
    gram: Callable[[Sequence], Sequence[Sequence]]
    signature: tuple[int, int]


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: Callable[[Sequence], Sequence]


@dataclass(frozen=True)
class OneForm:
    chart: Chart
    components: Callable[[Sequence], Sequence]


# ---------------------------------------------------------------------------
# evaluation helpers
#
# Every evaluator takes a batch of points of shape (N, n); one point is the
# batch of one p[None].  The batch is seeded as jets with a trailing sample
# axis (see ``Jet2``) and comes back with a leading sample axis on every
# returned array.


def _coordinates(p) -> tuple[np.ndarray, list]:
    """The batch ``p`` (``point_batch``) and its chart coordinates for a
    callable, one (N,) array each."""
    pts = point_batch(p)
    return pts, list(np.ascontiguousarray(pts.T))


def _samples_first(a: np.ndarray) -> np.ndarray:
    """A jet array with its trailing sample axis moved to the front."""
    return a.transpose(-1, *range(a.ndim - 1))


def _entry_positions(rows) -> list[tuple[object, int | np.ndarray]]:
    """Each distinct entry object of a Gram callable's rows with the flat
    positions i * n + j that hold it, in order of first appearance: an int
    for one position, an index array for several.  Constant +0.0 floats
    are left out; the arrays they would fill start from zeros."""
    groups: dict[int, list] = {}
    k = 0
    for row in rows:
        for e in row:
            at = groups.get(id(e))
            if at is None:
                groups[id(e)] = [e, k]
            else:
                at.append(k)
            k += 1
    return [
        (g[0], g[1] if len(g) == 2 else np.array(g[1:]))
        for g in groups.values()
        if type(g[0]) is not float or g[0] != 0 or math.copysign(1.0, g[0]) < 0
    ]


def _put(flat: np.ndarray, k, value) -> None:
    """flat[..., k] = value, at one flat position or at each of an index
    array's; ``flat`` views an array's last two (n, n) axes as one."""
    flat[..., k] = value if isinstance(k, int) else np.asarray(value)[..., None]


def gram_values(metric: MetricField, p: np.ndarray) -> np.ndarray:
    """Gram matrices (N, n, n) on a batch of points (N, n).

    The matrices start from zeros and each distinct entry object the metric
    returns is written once, to every position that holds it."""
    pts, x = _coordinates(p)
    rows = metric.gram(x)
    n = len(rows)
    out = np.zeros(pts.shape[:-1] + (n, n))
    flat = out.reshape(out.shape[:-2] + (n * n,))
    for e, k in _entry_positions(rows):
        _put(flat, k, e)
    return out


def gram_jets(metric: MetricField, p: np.ndarray, order: int = 2) -> tuple:
    """Gram matrices and their coordinate derivatives on the batch ``p``
    (N, n), to ``order``.

    Returns (g0, dg, hess, pattern) with dg[s, a, i, j] = d_a g_ij at sample
    s and the second derivatives factored by distinct entry object:
    hess[s, e, a, b] = d_a d_b of the e-th non-constant entry and
    pattern[e, i, j] = 1 where that entry sits, so d_a d_b g_ij = sum_e
    hess[s, e, a, b] pattern[e, i, j].  Shapes (N, n, n), (N, n, n, n),
    (N, E, n, n) and (E, n, n).  A metric with constant entries only has
    E = 0.  ``order`` 1 seeds first-order jets
    and returns (g0, dg) only, bitwise the same arrays.  As in
    ``gram_values``, the arrays start from zeros and each distinct entry
    object is written once.
    """
    pts = point_batch(p)
    n = pts.shape[-1]
    batch = pts.shape[:-1]
    rows = metric.gram(seed_point(pts, order))
    g0 = np.zeros(batch + (n, n))
    dg = np.zeros(batch + (n, n, n))
    flat = [a.reshape(a.shape[:-2] + (n * n,)) for a in (g0, dg)]
    jets = []
    for e, k in _entry_positions(rows):
        if isinstance(e, Jet2):
            _put(flat[0], k, e.value)
            _put(flat[1], k, _samples_first(e.grad))
            jets.append((e, k))
        else:
            _put(flat[0], k, e)
    if order == 1:
        return g0, dg
    hess = np.empty(batch + (len(jets), n, n))
    pattern = np.zeros((len(jets), n * n))
    for i, (e, k) in enumerate(jets):
        hess[..., i, :, :] = _samples_first(e.hess)
        pattern[i, k] = 1.0
    return g0, dg, hess, pattern.reshape(-1, n, n)


def jet_components(
    fn: Callable[[Sequence], Sequence], p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a component callable on first-order seeds of the batch
    ``p`` (N, n).

    Returns (vals, jac) with jac[s, i, a] = d_a comp_i at sample s, shapes
    (N, m) and (N, m, n).  Complex components are allowed.
    """
    pts = point_batch(p)
    n = pts.shape[-1]
    batch = pts.shape[:-1]
    comps = fn(seed_point(pts, order=1))
    m = len(comps)
    some_complex = any(
        isinstance(c, Jet2) and np.iscomplexobj(np.asarray(c.value)) or
        (not isinstance(c, Jet2) and isinstance(c, complex))
        for c in comps
    )
    dtype = complex if some_complex else float
    vals = np.zeros(batch + (m,), dtype=dtype)
    jac = np.zeros(batch + (m, n), dtype=dtype)
    for i, c in enumerate(comps):
        if isinstance(c, Jet2):
            vals[..., i] = c.value
            jac[..., i, :] = _samples_first(c.grad)
        else:
            vals[..., i] = c
    return vals, jac


def component_values(
    fn: Callable[[Sequence], Sequence], p: np.ndarray
) -> np.ndarray:
    """Components of a callable evaluated without jets on the batch ``p``
    (N, n): (N, m)."""
    pts, x = _coordinates(p)
    comps = fn(x)
    out = np.empty(pts.shape[:-1] + (len(comps),))
    for i, c in enumerate(comps):
        out[..., i] = c
    return out


def _scalar_jet(f: Callable[[Sequence], Jet2], pts: np.ndarray) -> Jet2:
    """f on seeded jets; a constant result becomes a constant jet, with one
    value per sample."""
    out = f(seed_point(pts))
    if not isinstance(out, Jet2):
        out = Jet2.constant(np.full(pts.shape[:-1], out), pts.shape[-1])
    return out


def _invert_gram(g0: np.ndarray) -> np.ndarray:
    """Inverse of a stack of Gram matrices (N, n, n).

    A sample counts as singular when its smallest singular value is below
    1e-12 of its largest: a relative test, blind to the overall scale of
    the metric and to its determinant.  A Gram matrix is symmetric, so its
    singular values are the absolute values of its eigenvalues.
    """
    s = np.abs(np.linalg.eigvalsh(g0))
    s.sort(axis=-1)
    singular = s[..., 0] <= 1e-12 * s[..., -1]
    if np.any(singular):
        k = int(np.flatnonzero(singular)[0])
        smin, smax = s.reshape(-1, s.shape[-1])[k, [0, -1]]
        detail = f"sigma_min = {smin:.3e}, sigma_max = {smax:.3e}"
        raise DegenerateMetricError(
            f"Gram matrix is singular at sample {k} ({detail})", sample=k, detail=detail
        )
    return np.linalg.inv(g0)


# ---------------------------------------------------------------------------
# connection and curvature
#
# These act on a stack with a leading sample axis.  A caller that already
# holds the inverse Gram passes it as ``ginv``.


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """Gamma_{a,ij} = (d_i g_aj + d_j g_ai - d_a g_ij) / 2 over the last three
    axes."""
    out = np.einsum("...iaj->...aij", dg) + np.einsum("...jai->...aij", dg)
    out -= dg
    out *= 0.5
    return out


def christoffel_from_derivatives(
    g0: np.ndarray, dg: np.ndarray, ginv: np.ndarray | None = None
) -> np.ndarray:
    """Levi-Civita symbols Gamma[k, i, j] from the metric and its gradient."""
    if ginv is None:
        ginv = _invert_gram(g0)
    return np.einsum("...ka,...aij->...kij", ginv, _first_kind(dg))


def christoffel(metric: MetricField, p: np.ndarray) -> np.ndarray:
    g0, dg = gram_jets(metric, p, order=1)
    return christoffel_from_derivatives(g0, dg)


def _inner(products: np.ndarray) -> np.ndarray:
    """The sum of each (n, n) block of entrywise products, pairwise in
    row-major order whatever the layout of the factors."""
    *lead, n, m = products.shape
    return np.ascontiguousarray(products).reshape(*lead, n * m).sum(axis=-1)


def ricci_from_derivatives(
    g0: np.ndarray,
    dg: np.ndarray,
    hess: np.ndarray,
    pattern: np.ndarray,
    ginv: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Ricci tensor and scalar from metric derivatives (any source), the
    second derivatives in the factored form of ``gram_jets``:
    d_a d_b g_ij = sum_e hess[..., e, a, b] pattern[e, i, j].

    Ric_ij = d_k Gamma^k_ij - d_i Gamma^k_kj + Gamma^k_kl Gamma^l_ij
    - Gamma^k_il Gamma^l_kj.  With Gamma_{a,ij} the symbols of the first
    kind and d_b g^ka = -(g^-1 d_b g g^-1)^ka, the two traces of d Gamma are

        d_k Gamma^k_ij = (d_k g^ka) Gamma_{a,ij} + (A_ij + A_ji - B_ij) / 2,
        d_i Gamma^k_kj = (d_i g^ka) Gamma_{a,kj} + D_ij / 2,

    A_ij = g^ka d_i d_k g_aj, B_ij = g^ka d_k d_a g_ij, D_ij = g^ka d_i d_j g_ak.
    Entry by entry these are A = sum_e hess_e g^-1 pattern_e,
    B = sum_e <g^-1, hess_e> pattern_e and D = sum_e <g^-1, pattern_e> hess_e,
    O(E n^3) work per sample; no array of n^4 entries is formed.  Two
    symmetries of the inputs are assumed: g^-1 is symmetric, which cancels
    the other two terms of g^ka d_i Gamma_{a,kj}, and each hess_e is
    symmetric, which A reads as d_i d_k for d_k d_i.  Jet Hessians are
    exactly symmetric, so the second holds bitwise for ``gram_jets``.
    The scalar is an (N,) array over a stack of N samples.

    A constant Gram (no entry with a Hessian, E = 0, and dg all zero) has
    exact zeros for both, which are returned without the contraction.
    """
    if ginv is None:
        ginv = _invert_gram(g0)
    n = g0.shape[-1]
    lead = g0.shape[:-2]
    if len(pattern) == 0 and not dg.any():
        return np.zeros(lead + (n, n)), np.zeros(lead)
    nn = n * n
    g = ginv[..., None, :, :]
    # A, B and D.  Each position is held by one entry, so a sum below gains
    # only exact zeros from an entry whose Hessian vanishes: the bulk
    # metric's per-sample clock term at mu = 0 gives the bits of a float
    # mu = 0, which leaves the entry out (up to the sign of zeros).
    hess = np.ascontiguousarray(hess)
    cells = pattern.reshape(-1, nn)
    entries = hess.reshape(*lead, len(cells), nn)
    rows = (hess @ g).swapaxes(-3, -2).reshape(*lead, n, len(cells) * n)
    a = rows @ pattern.reshape(-1, n)
    b = (_inner(hess * g)[..., None, :] @ cells).reshape(*lead, n, n)
    dd = (_inner(pattern * g)[..., None, :] @ entries).reshape(*lead, n, n)
    # Beside dg, at most three arrays of n^3 entries per sample are alive
    # at once: the first-kind symbols, d g^-1 and a transposed copy, then
    # the symbols, Gamma and a transposed copy.
    first = _first_kind(dg)
    flat = first.reshape(*lead, n, nn)
    dginv = g @ dg @ g
    np.negative(dginv, out=dginv)
    div = (np.einsum("...kka->...a", dginv)[..., None, :] @ flat).reshape(*lead, n, n)
    div += 0.5 * (a + a.swapaxes(-1, -2) - b)
    grad = dginv.reshape(*lead, n, nn) @ first.swapaxes(-3, -2).reshape(*lead, nn, n)
    grad += 0.5 * dd
    del dginv
    gamma = (ginv @ flat).reshape(first.shape)
    del first, flat
    trace = np.einsum("...kkl->...l", gamma)[..., None, :] @ gamma.reshape(*lead, n, nn)
    ric = div - grad + trace.reshape(*lead, n, n)
    # Gamma^k_il Gamma^l_kj, summed over (l, k) as a reshape of Gamma
    ric -= np.moveaxis(gamma, -3, -1).reshape(*lead, n, nn) @ gamma.reshape(*lead, nn, n)
    ric = 0.5 * (ric + ric.swapaxes(-1, -2))
    return ric, np.einsum("...ij,...ij->...", ginv, ric)


def ricci_scalar(metric: MetricField, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return ricci_from_derivatives(*gram_jets(metric, p))


# ---------------------------------------------------------------------------
# derivative operators


def covariant_derivative(metric: MetricField, w, p: np.ndarray) -> np.ndarray:
    """nabla w on the batch ``p``: rows indexed by the derivative direction.

    For a OneForm returns (nabla w)[a, b] = d_a w_b - Gamma^c_ab w_c; for a
    VectorField returns (nabla v)[a, b] = d_a v^b + Gamma^b_ac v^c.
    """
    gamma = christoffel(metric, p)
    vals, jac = jet_components(w.components, p)
    if isinstance(w, OneForm):
        return jac.swapaxes(-1, -2) - np.einsum("...cab,...c->...ab", gamma, vals)
    if isinstance(w, VectorField):
        return jac.swapaxes(-1, -2) + np.einsum("...bac,...c->...ab", gamma, vals)
    raise ContractViolationError("covariant_derivative expects a OneForm or VectorField")


def lie_derivative_metric(
    metric: MetricField, field: VectorField, p: np.ndarray
) -> np.ndarray:
    """(L_Z g)_ab = Z^c d_c g_ab + g_cb d_a Z^c + g_ac d_b Z^c."""
    g0, dg = gram_jets(metric, p, order=1)
    zv, zj = jet_components(field.components, p)
    zv, zj = zv.real, zj.real
    return (
        np.einsum("...c,...cab->...ab", zv, dg)
        + np.einsum("...cb,...ca->...ab", g0, zj)
        + np.einsum("...ac,...cb->...ab", g0, zj)
    )


def lie_bracket(v: VectorField, w: VectorField, p: np.ndarray) -> np.ndarray:
    """[V, W]^a = V^c d_c W^a - W^c d_c V^a on the batch ``p``: (N, n)."""
    vv, vj = jet_components(v.components, p)
    wv, wj = jet_components(w.components, p)
    return np.einsum("...c,...ac->...a", vv, wj) - np.einsum("...c,...ac->...a", wv, vj)


def divergence(metric: MetricField, field: VectorField, p: np.ndarray) -> np.ndarray:
    """Div X = d_a X^a + X^a d_a log sqrt|det g|, via tr(g^{-1} d_a g)/2.

    This is the divergence of the metric volume density |det g|^{1/2}, (N,)
    on a batch (N, n).
    """
    g0, dg = gram_jets(metric, p, order=1)
    return _divergence(_invert_gram(g0), dg, field, p)


def _divergence(ginv: np.ndarray, dg: np.ndarray, field: VectorField, p):
    """Div X from the inverse Gram and dg; with dg all zero the density
    term vanishes and is not formed."""
    xv, xj = jet_components(field.components, p)
    div = np.trace(xj.real, axis1=-2, axis2=-1)
    if dg.any():
        div = div + 0.5 * np.einsum("...a,...ij,...aij->...", xv.real, ginv, dg)
    return div


def exterior_wedge(
    omega: OneForm, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d omega, omega ^ d omega) in components.

    (d w)_ab = d_a w_b - d_b w_a; the 3-form is returned without 1/k!
    weights: (w ^ dw)_abc = w_a (dw)_bc + w_b (dw)_ca + w_c (dw)_ab.
    """
    vals, jac = jet_components(omega.components, p)
    w, jac = vals.real, jac.real
    dw = jac.swapaxes(-1, -2) - jac
    wedge = (
        w[..., :, None, None] * dw[..., None, :, :]
        + w[..., None, :, None] * dw.swapaxes(-1, -2)[..., :, None, :]
        + w[..., None, None, :] * dw[..., :, :, None]
    )
    return dw, wedge


def _laplacian(g0: np.ndarray, dg: np.ndarray, ginv: np.ndarray, fj: Jet2):
    """g^{ab} (d_a d_b f - Gamma^c_ab d_c f) from the metric derivatives,
    the inverse Gram and the jet of f; with dg all zero the symbols vanish
    and the Christoffel term is not formed."""
    lap = np.einsum("...ab,...ab->...", ginv, _samples_first(fj.hess))
    if not dg.any():
        return lap
    gamma = christoffel_from_derivatives(g0, dg, ginv=ginv)
    grad = _samples_first(fj.grad)
    return lap - np.einsum("...ab,...cab,...c->...", ginv, gamma, grad)


def yamabe_residual(metric: MetricField, f, p: np.ndarray) -> np.ndarray:
    """(Delta_g - (n-2)/(4(n-1)) R) f; complex scalars welcome.

    Delta_g f = g^{ab} (d_a d_b f - Gamma^c_ab d_c f), and the operator
    acts on a complex coefficient componentwise (it has real coefficients):
    an (N,) array on a batch (N, n).
    """
    pts = point_batch(p)
    jets = gram_jets(metric, pts)
    return _yamabe(jets, _invert_gram(jets[0]), _scalar_jet(f, pts))


def yamabe_and_divergence(metric: MetricField, f, field: VectorField, p):
    """``yamabe_residual(metric, f, p)``, ``divergence(metric, field, p)``
    and the jet of f, from one jet pass of the metric, one inverse Gram and
    one evaluation of f: the metric pieces of the covariant Schrödinger
    pair, each bitwise equal to its separate call."""
    pts = point_batch(p)
    jets = gram_jets(metric, pts)
    ginv = _invert_gram(jets[0])
    fj = _scalar_jet(f, pts)
    yamabe = _yamabe(jets, ginv, fj)
    return yamabe, _divergence(ginv, jets[1], field, pts), fj


def _yamabe(jets: tuple, ginv, fj: Jet2):
    """The Yamabe operator on the jet of f from the metric's order-2
    ``gram_jets`` and its inverse Gram."""
    g0, dg = jets[:2]
    n = g0.shape[-1]
    _, scalar = ricci_from_derivatives(*jets, ginv=ginv)
    lap = _laplacian(g0, dg, ginv, fj)
    return lap - ((n - 2.0) / (4.0 * (n - 1.0))) * scalar * fj.value
