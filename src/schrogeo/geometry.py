"""Coordinate tensor calculus on jets.

A metric is a callable Gram matrix over a chart, evaluable on the
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
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numkernel import ContractViolationError, Jet2, jet_value, point_batch, seed_point

__all__ = [
    "DegenerateMetricError",
    "MetricField",
    "MetricJets",
    "OneForm",
    "VectorField",
    "christoffel_from_derivatives",
    "component_values",
    "covariant_derivative",
    "divergence",
    "exterior_wedge",
    "gram_jets",
    "gram_values",
    "inverse_gram",
    "jet_components",
    "laplacian",
    "lie_bracket",
    "lie_derivative_metric",
    "negative_index",
    "ricci_from_derivatives",
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


class MetricField(NamedTuple):
    """Pseudo-Riemannian metric as a Gram callable.

    ``gram`` maps the coordinates of a batch of points (n jets or (N,)
    arrays) to an n x n nested sequence; entries may be plain numbers when
    constant.
    """

    gram: Callable[[Sequence], Sequence[Sequence]]


class VectorField(NamedTuple):
    components: Callable[[Sequence], Sequence]


class OneForm(NamedTuple):
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


def _flat(a: np.ndarray) -> np.ndarray:
    """``a`` with its last two (n, n) axes as one axis of n * n entries."""
    return a.reshape(a.shape[:-2] + (-1,))


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
    flat = _flat(out)
    for e, k in _entry_positions(rows):
        _put(flat, k, e)
    return out


class MetricJets:
    """One jet pass of a metric over a batch of points, as ``gram_jets``
    returns it; every operator that reads the metric takes one.

    ``pts`` is the batch (N, n) and ``seeds`` the jets it was seeded as:
    the operators evaluate their fields and densities on those seeds, so a
    pass is seeded once.  ``g0`` (N, n, n) and ``dg`` (N, n, n, n) are the
    Gram matrices and their first derivatives, dg[s, a, i, j] = d_a g_ij at
    sample s.  At order 2 the second derivatives come factored by distinct
    entry object: hess[s, e, a, b] = d_a d_b of the e-th non-constant entry
    and pattern[e, i, j] = 1 where that entry sits, so d_a d_b g_ij =
    sum_e hess[s, e, a, b] pattern[e, i, j], shapes (N, E, n, n) and
    (E, n, n); a metric with constant entries only has E = 0.  Both are
    None at order 1.  ``ginv`` is the inverse Gram, formed by
    ``_invert_gram`` on first read, so a pass that never reads it pays for
    no inversion.  A pass's fields cannot be reassigned.
    """

    pts: np.ndarray
    seeds: list
    g0: np.ndarray
    dg: np.ndarray
    hess: np.ndarray | None
    pattern: np.ndarray | None

    def __init__(self, pts, seeds, g0, dg, hess=None, pattern=None):
        vars(self).update(
            pts=pts, seeds=seeds, g0=g0, dg=dg, hess=hess, pattern=pattern, _evaluated={}
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"a metric pass is read-only: cannot set {name!r}")

    @cached_property
    def ginv(self) -> np.ndarray:
        return _invert_gram(self.g0)

    def components(self, fn: Callable[[Sequence], Sequence]) -> tuple[np.ndarray, np.ndarray]:
        """``fn`` on the pass's seeds, as ``jet_components`` returns it.
        Evaluated once per callable and pass: the operators that read one
        field on one pass (``covariant_derivative`` and ``divergence`` of
        xi, say) share its arrays, which are read-only."""
        out = self._evaluated.get(fn)
        if out is None:
            out = self._evaluated[fn] = _component_jets(fn(self.seeds), self.pts)
            for a in out:
                a.flags.writeable = False
        return out

    def scalar(self, f: Callable[[Sequence], Jet2]) -> Jet2:
        """``f`` on the pass's seeds; a constant result becomes a constant
        jet, with one value per sample."""
        out = f(self.seeds)
        if not isinstance(out, Jet2):
            out = Jet2.constant(np.full(self.pts.shape[:-1], out), self.pts.shape[-1])
        return out

    def ricci(self) -> tuple[np.ndarray, np.ndarray]:
        """Ricci tensor and scalar of an order-2 pass
        (``ricci_from_derivatives``)."""
        return ricci_from_derivatives(self.ginv, self.dg, self.hess, self.pattern)


def gram_jets(metric: MetricField, p: np.ndarray, order: int = 2) -> MetricJets:
    """The metric's jet pass on the batch ``p`` (N, n), to ``order``.

    ``order`` 1 seeds first-order jets and carries no second derivatives;
    its g0 and dg are bitwise those of order 2.  As in ``gram_values``,
    the arrays start from zeros and each distinct entry object is written
    once.
    """
    pts = point_batch(p)
    n = pts.shape[-1]
    batch = pts.shape[:-1]
    seeds = seed_point(pts, order)
    rows = metric.gram(seeds)
    g0 = np.zeros(batch + (n, n))
    dg = np.zeros(batch + (n, n, n))
    flat = [_flat(g0), _flat(dg)]
    jets = []
    for e, k in _entry_positions(rows):
        if isinstance(e, Jet2):
            _put(flat[0], k, e.value)
            _put(flat[1], k, _samples_first(e.grad))
            jets.append((e, k))
        else:
            _put(flat[0], k, e)
    if order == 1:
        return MetricJets(pts, seeds, g0, dg)
    hess = np.empty(batch + (len(jets), n, n))
    pattern = np.zeros((len(jets), n * n))
    for i, (e, k) in enumerate(jets):
        hess[..., i, :, :] = _samples_first(e.hess)
        pattern[i, k] = 1.0
    return MetricJets(pts, seeds, g0, dg, hess, pattern.reshape(-1, n, n))


def _component_jets(comps: Sequence, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vals, jac) of components evaluated on seeds of the batch ``pts``."""
    n = pts.shape[-1]
    batch = pts.shape[:-1]
    m = len(comps)
    dtype = complex if any(np.iscomplexobj(jet_value(c)) for c in comps) else float
    vals = np.zeros(batch + (m,), dtype=dtype)
    jac = np.zeros(batch + (m, n), dtype=dtype)
    for i, c in enumerate(comps):
        if isinstance(c, Jet2):
            vals[..., i] = c.value
            jac[..., i, :] = _samples_first(c.grad)
        else:
            vals[..., i] = c
    return vals, jac


def jet_components(
    fn: Callable[[Sequence], Sequence], p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a component callable on first-order seeds of the batch
    ``p`` (N, n).

    Returns (vals, jac) with jac[s, i, a] = d_a comp_i at sample s, shapes
    (N, m) and (N, m, n).  Complex components are allowed.
    """
    pts = point_batch(p)
    return _component_jets(fn(seed_point(pts, order=1)), pts)


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


# ---------------------------------------------------------------------------
# Gram matrices block by block
#
# A stack of Gram matrices (N, n, n) is split by its nonzero pattern, taken
# over the whole stack, into connected blocks: the bulk metric's is one 1x1
# block per x_i and r and one 2x2 (t, s) block.  The inverse, the singular
# values and the signs of the eigenvalues are then read block by block, in
# closed form for blocks of one and two and through LAPACK for larger ones;
# a dense Gram is one block and gets bitwise ``np.linalg.inv``.


class _Blocks(NamedTuple):
    """The connected blocks of a Gram pattern.  ``at`` holds flat positions
    i * n + j in the (n, n) matrix, cut by ``parts`` into five runs: the
    diagonal position of each 1x1 block, then the ii, ij, ji and jj
    positions of each 2x2 block, i < j.  ``larger`` holds the sorted index
    array of each larger block."""

    at: np.ndarray
    parts: tuple[slice, ...]
    larger: tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def _split(key: bytes, n: int) -> _Blocks:
    """The blocks of the symmetric (n, n) boolean pattern ``key``."""
    linked = np.frombuffer(key, dtype=bool).reshape(n, n)
    label = list(range(n))
    for i, j in zip(*np.nonzero(linked)):
        if label[i] != label[j]:
            old = label[j]
            label = [label[i] if c == old else c for c in label]
    blocks = [np.flatnonzero(np.array(label) == c) for c in dict.fromkeys(label)]
    ones = [b[0] * (n + 1) for b in blocks if len(b) == 1]
    i, j = np.array([b for b in blocks if len(b) == 2], dtype=int).reshape(-1, 2).T
    k, m = len(ones), len(i)
    return _Blocks(
        np.concatenate([ones, i * (n + 1), i * n + j, j * n + i, j * (n + 1)]).astype(int),
        (slice(0, k), *(slice(k + r * m, k + (r + 1) * m) for r in range(4))),
        tuple(b for b in blocks if len(b) > 2),
    )


def _blocks(g0: np.ndarray) -> _Blocks:
    """The blocks of the stack ``g0``'s nonzero pattern, cached per
    pattern; a NaN entry counts as nonzero."""
    n = g0.shape[-1]
    linked = g0.reshape(-1, n, n).any(axis=0)
    linked |= linked.T
    return _split(linked.tobytes(), n)


def _small_entries(g0: np.ndarray, blocks: _Blocks) -> list[np.ndarray]:
    """The entries of the 1x1 blocks, then the entries (a, b, c, d) =
    (g_ii, g_ij, g_ji, g_jj) of the 2x2 blocks: five (..., k) arrays."""
    entries = _flat(g0)[..., blocks.at]
    return [entries[..., part] for part in blocks.parts]


def _pair_inverse(a, b, c, d) -> tuple[np.ndarray, ...]:
    """The inverse [[d, -b], [-c, a]] / det of the 2x2 blocks [[a, b], [c, d]]."""
    det = a * d - b * c
    return d / det, -b / det, -c / det, a / det


def _block_inverse(g0: np.ndarray, blocks: _Blocks) -> np.ndarray:
    one, *pair = _small_entries(g0, blocks)
    out = np.zeros(g0.shape)
    _flat(out)[..., blocks.at] = np.concatenate([1.0 / one, *_pair_inverse(*pair)], axis=-1)
    for k in blocks.larger:
        out[..., k[:, None], k] = np.linalg.inv(g0[..., k[:, None], k])
    return out


def inverse_gram(g0: np.ndarray) -> np.ndarray:
    """Inverse of a stack of Gram matrices (..., n, n), block by block and
    with no test of its conditioning (``_invert_gram`` makes that test).
    Exactly singular 1x1 and 2x2 blocks give infinities or NaN, a larger
    one ``LinAlgError``."""
    return _block_inverse(g0, _blocks(g0))


def _singular_range(g0: np.ndarray, blocks: _Blocks) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_min, sigma_max) of each Gram matrix of the stack, over its
    blocks.  A Gram matrix is symmetric, so its singular values are the
    absolute values of its eigenvalues: |g| for a 1x1 block, and for a 2x2
    block sigma_max = |tr / 2| + hypot((a - d) / 2, b) and sigma_min =
    |det| / sigma_max, zero where sigma_max is.  A Gram matrix with a
    non-finite entry reads NaN for both: its singular values are computed
    from zeros, so no inf - inf or inf / inf raises a floating-point
    warning, and then discarded."""
    finite = np.isfinite(g0).all(axis=(-2, -1))
    if not finite.all():
        g0 = np.where(finite[..., None, None], g0, 0.0)
    one, a, b, c, d = _small_entries(g0, blocks)
    ones = np.abs(one)
    high = np.abs(0.5 * (a + d)) + np.hypot(0.5 * (a - d), b)
    low = np.abs(a * d - b * c) / np.where(high > 0, high, np.inf)
    lows, highs = [ones, low], [ones, high]
    for k in blocks.larger:
        s = np.abs(np.linalg.eigvalsh(g0[..., k[:, None], k]))
        lows.append(s.min(axis=-1, keepdims=True))
        highs.append(s.max(axis=-1, keepdims=True))
    smin = np.concatenate(lows, axis=-1).min(axis=-1)
    smax = np.concatenate(highs, axis=-1).max(axis=-1)
    return np.where(finite, smin, np.nan), np.where(finite, smax, np.nan)


def _invert_gram(g0: np.ndarray) -> np.ndarray:
    """Inverse of a stack of Gram matrices (N, n, n), block by block.

    A sample counts as singular unless its smallest singular value exceeds
    1e-12 of its largest: a relative test, blind to the overall scale of
    the metric and to its determinant, that a non-finite entry fails.
    """
    blocks = _blocks(g0)
    smin, smax = _singular_range(g0, blocks)
    singular = ~(smin > 1e-12 * smax)
    if singular.any():
        k = int(np.flatnonzero(singular)[0])
        detail = f"sigma_min = {smin.flat[k]:.3e}, sigma_max = {smax.flat[k]:.3e}"
        raise DegenerateMetricError(
            f"Gram matrix is singular at sample {k} ({detail})", sample=k, detail=detail
        )
    return _block_inverse(g0, blocks)


def negative_index(g0: np.ndarray) -> np.ndarray:
    """The number of negative eigenvalues of each Gram matrix of the stack
    (its negative index of inertia), block by block: the sign of a 1x1
    block; for a 2x2 block one where det < 0, two where det > 0 and the
    trace is negative, one where det = 0 and the trace is negative, and
    none otherwise."""
    blocks = _blocks(g0)
    one, a, b, c, d = _small_entries(g0, blocks)
    count = (one < 0).sum(axis=-1)
    det = a * d - b * c
    count += np.where(det < 0, 1, (a + d < 0) * (1 + (det > 0))).sum(axis=-1)
    for k in blocks.larger:
        count += (np.linalg.eigvalsh(g0[..., k[:, None], k]) < 0).sum(axis=-1)
    return count


# ---------------------------------------------------------------------------
# connection and curvature
#
# These act on a stack with a leading sample axis and take the inverse Gram
# (a pass's ``ginv``) in place of the Gram.


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """Gamma_{a,ij} = (d_i g_aj + d_j g_ai - d_a g_ij) / 2 over the last three
    axes."""
    out = np.einsum("...iaj->...aij", dg) + np.einsum("...jai->...aij", dg)
    out -= dg
    out *= 0.5
    return out


def christoffel_from_derivatives(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols Gamma[k, i, j] from the inverse Gram and the
    metric's gradient."""
    return np.einsum("...ka,...aij->...kij", ginv, _first_kind(dg))


def _inner(products: np.ndarray) -> np.ndarray:
    """The sum of each (n, n) block of entrywise products, pairwise in
    row-major order whatever the layout of the factors."""
    *lead, n, m = products.shape
    return np.ascontiguousarray(products).reshape(*lead, n * m).sum(axis=-1)


def ricci_from_derivatives(
    ginv: np.ndarray,
    dg: np.ndarray,
    hess: np.ndarray,
    pattern: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Ricci tensor and scalar from the inverse Gram and the metric
    derivatives (any source), the second derivatives in the factored form
    of ``gram_jets``: d_a d_b g_ij = sum_e hess[..., e, a, b] pattern[e, i, j].

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
    # the scalar's einsum rounds by the layout of ginv; a pass's is contiguous
    ginv = np.ascontiguousarray(ginv)
    n = ginv.shape[-1]
    lead = ginv.shape[:-2]
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


# ---------------------------------------------------------------------------
# derivative operators
#
# The operators that read the metric take its pass (``gram_jets``) and
# evaluate their fields and densities on the pass's seeds.


def covariant_derivative(jets: MetricJets, w) -> np.ndarray:
    """nabla w on the pass's batch: rows indexed by the derivative direction.

    For a OneForm returns (nabla w)[a, b] = d_a w_b - Gamma^c_ab w_c; for a
    VectorField returns (nabla v)[a, b] = d_a v^b + Gamma^b_ac v^c.
    """
    gamma = christoffel_from_derivatives(jets.ginv, jets.dg)
    vals, jac = jets.components(w.components)
    if isinstance(w, OneForm):
        return jac.swapaxes(-1, -2) - np.einsum("...cab,...c->...ab", gamma, vals)
    if isinstance(w, VectorField):
        return jac.swapaxes(-1, -2) + np.einsum("...bac,...c->...ab", gamma, vals)
    raise ContractViolationError("covariant_derivative expects a OneForm or VectorField")


def lie_derivative_metric(jets: MetricJets, field: VectorField) -> np.ndarray:
    """(L_Z g)_ab = Z^c d_c g_ab + g_cb d_a Z^c + g_ac d_b Z^c."""
    g0 = jets.g0
    zv, zj = jets.components(field.components)
    zv, zj = zv.real, zj.real
    return (
        np.einsum("...c,...cab->...ab", zv, jets.dg)
        + np.einsum("...cb,...ca->...ab", g0, zj)
        + np.einsum("...ac,...cb->...ab", g0, zj)
    )


def lie_bracket(v: VectorField, w: VectorField, p: np.ndarray) -> np.ndarray:
    """[V, W]^a = V^c d_c W^a - W^c d_c V^a on the batch ``p``: (N, n)."""
    vv, vj = jet_components(v.components, p)
    wv, wj = jet_components(w.components, p)
    return np.einsum("...c,...ac->...a", vv, wj) - np.einsum("...c,...ac->...a", wv, vj)


def divergence(jets: MetricJets, field: VectorField) -> np.ndarray:
    """Div X = d_a X^a + X^a d_a log sqrt|det g|, via tr(g^{-1} d_a g)/2.

    This is the divergence of the metric volume density |det g|^{1/2}, (N,)
    on the pass's batch (N, n); with dg all zero the density term vanishes
    and is not formed.
    """
    ginv = jets.ginv
    xv, xj = jets.components(field.components)
    div = np.trace(xj.real, axis1=-2, axis2=-1)
    if jets.dg.any():
        div = div + 0.5 * np.einsum("...a,...ij,...aij->...", xv.real, ginv, jets.dg)
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


def laplacian(jets: MetricJets, fj: Jet2) -> np.ndarray:
    """Delta_g f = g^{ab} (d_a d_b f - Gamma^c_ab d_c f) from an order-2
    pass and the jet of f on its seeds (``MetricJets.scalar``): (N,), complex
    for a complex f.  With dg all zero the symbols vanish and the
    Christoffel term is not formed."""
    ginv = jets.ginv
    lap = np.einsum("...ab,...ab->...", ginv, _samples_first(fj.hess))
    if not jets.dg.any():
        return lap
    gamma = christoffel_from_derivatives(ginv, jets.dg)
    grad = _samples_first(fj.grad)
    return lap - np.einsum("...ab,...cab,...c->...", ginv, gamma, grad)


def yamabe_residual(jets: MetricJets, fj: Jet2) -> np.ndarray:
    """(Delta_g - (n-2)/(4(n-1)) R) f from an order-2 pass and the jet of f
    on its seeds; complex scalars welcome.

    The operator acts on a complex coefficient componentwise (it has real
    coefficients): an (N,) array on the pass's batch (N, n).
    """
    n = jets.g0.shape[-1]
    _, scalar = jets.ricci()
    return laplacian(jets, fj) - ((n - 2.0) / (4.0 * (n - 1.0))) * scalar * fj.value
