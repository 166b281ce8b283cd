"""Curved Schrödinger geometries as group orbits in a pseudo-Euclidean space.

The bulk manifold is the orbit of the stabilizer group through a base point of
the quadric {G(Q, Q) = 2 lambda}, carrying a two-parameter family of Lorentz
metrics built from the ambient metric and the distinguished nilpotent Z0.  Its
conformal boundary is the projectivized null cone minus the locus Z0 X = 0,
which inherits a conformal Bargmann structure.  Everything here is verified
numerically: embeddings against chart formulas, curvature identities, Killing
and isotropy conditions, and the boundary-structure axioms.

Coordinate conventions: bulk points are (xh_1 .. xh_d, th, sh, rh) with
rh > 0 the defining function of the boundary; boundary points are
(x_1 .. x_d, t, s).

The bulk checks take a batch of chart points of shape (N, n), one point
being the batch of one p[None], and evaluate the whole batch in one jet
pass; per-point results are (N,) arrays.

The couplings may vary along the batch as well: a config whose ``lam`` and
``mu`` are (N,) arrays gives sample k the metric of (lam[k], mu[k]).  The
metric, the clock, the embedding and every identity built on them are
elementwise in (lam, mu), so a grid of C couplings stacked over the same
points (``coupling_config``) costs one jet pass, not C, and each sample is
bitwise what its own scalar-config call gives.  ``over_couplings`` is the one
driver of such passes: it caps how many couplings one pass holds
(``coupling_passes``, by the memory of the highest derivative order the pass
carries) and names the coupling of a singular sample.
"""

from __future__ import annotations

import math
import numbers
from types import MethodType
from typing import NamedTuple, Sequence

import numpy as np

from . import numkernel as nk
from .ambient import (
    GroupBlocks,
    ambient_gram,
    assemble_group_element,
    build_Z0,
    commutant_stack,
    flat_gram_matrix,
    mark_escapes,
    xi_field,
    xi_vector,
)
from .geometry import (
    DegenerateMetricError,
    MetricField,
    MetricJets,
    OneForm,
    VectorField,
    component_values,
    covariant_derivative,
    exterior_wedge,
    gram_jets,
    gram_values,
    inverse_gram,
    jet_components,
    lie_derivative_metric,
)
from .numkernel import ContractViolationError, Jet2, jet_value, rank_nullspace, sparse_dot

__all__ = [
    "COUPLING_PASS_ENTRIES",
    "BoundaryPointError",
    "SchrodingerManifoldConfig",
    "boundary_embed_components",
    "boundary_f0",
    "boundary_isotropy_element",
    "boundary_metric",
    "boundary_structure",
    "bulk_boxes",
    "bulk_isotropy_element",
    "bulk_metric",
    "chart_from_ambient",
    "coupling_config",
    "coupling_passes",
    "einstein_factor",
    "einstein_residual",
    "embed_components",
    "induced_metric",
    "integrability_residual",
    "isometry_check",
    "isotropy_check",
    "metric_recovery_residual",
    "null_plane_boost",
    "nullfluid_residual",
    "over_couplings",
    "schrodinger_axiom_audit",
    "xi_hat_consistency",
    "xi_hat_field",
]


class BoundaryPointError(ValueError):
    """Bulk operation evaluated at rh = 0; use the boundary functions."""


# Products per sample through np.matmul, which makes the same BLAS call for
# every item of a batch as for a batch of one, so both round alike.


def _mv(M, v):
    """M @ v for each sample's vector v."""
    return (M @ v[..., None])[..., 0]


def _vm(v, M):
    """v @ M for each sample's vector v."""
    return (v[..., None, :] @ M)[..., 0, :]


def _vv(u, v):
    """u @ v for each sample."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _with_rh(q: np.ndarray, rh: float) -> np.ndarray:
    """Bulk points (q, rh) from transverse points q of shape (N, d+2)."""
    return np.concatenate([q, np.full((len(q), 1), rh)], axis=1)


def _per_matrix(x):
    """A per-sample coupling array broadcast against (N, n, n) stacks; a
    float as it is."""
    return x[:, None, None] if isinstance(x, np.ndarray) else x


class _BulkParameters(NamedTuple):
    d: int
    lam: float | np.ndarray
    mu: float | np.ndarray = 0.0


class SchrodingerManifoldConfig(_BulkParameters):
    """Bulk geometry parameters: spatial dimension, quadric level lam < 0,
    and the clock-squared deformation strength mu.

    ``lam`` and ``mu`` are floats, or per-sample (N,) arrays for a batch of
    N points whose sample k has the metric of (lam[k], mu[k]).  The
    batched checks (metric, embedding, and the identities that take a pass
    of ``bulk_metric(cfg)``: dual path, vertical field, curvature and
    integrability, with the clock read off that pass) accept either;
    ``isometry_check``, ``isotropy_check`` and the axiom audit take floats.
    A config with arrays is neither hashable nor comparable.
    """

    __slots__ = ()

    def __new__(cls, d: int, lam: float | np.ndarray, mu: float | np.ndarray = 0.0):
        if d < 1:
            raise ValueError(f"spatial dimension must be >= 1, got {d}")
        if isinstance(lam, numbers.Real) and isinstance(mu, numbers.Real):
            ok = lam < 0
        else:
            shapes = {np.shape(x) for x in (lam, mu)} - {()}
            if len(shapes) > 1 or any(len(shape) > 1 for shape in shapes):
                raise ValueError(
                    f"lam and mu must be floats or per-sample arrays of one "
                    f"shape (N,), got shapes {np.shape(lam)}, {np.shape(mu)}"
                )
            ok = np.all(lam < 0)
        if not ok:
            raise ValueError(f"bulk constructions need lam < 0, got {lam}")
        return super().__new__(cls, d, lam, mu)

    @property
    def scale(self) -> float | np.ndarray:
        """sqrt(-2 lam), the radius of the ambient quadric (per sample on
        an array lam)."""
        if isinstance(self.lam, np.ndarray):
            return np.sqrt(-2.0 * self.lam)
        return math.sqrt(-2.0 * self.lam)


# Peak memory, not time, bounds how many couplings share one jet pass, and
# a pass's largest working set is set by the highest derivative order it
# holds (n = d + 3, N points in the pass):
#   order 0 (Gram values only): N n^2 entries;
#   order 1 (first-order jets: dg, Jacobians, Christoffel symbols): N n^3;
#   order 2 (second-order jets, read by the Ricci contraction): 4 N n^3.
# Order 2 holds the second derivatives factored by distinct entry
# (``gram_jets``): E Hessians of n^2 entries per sample, E <= 2 for the bulk
# metric, so its largest arrays are the Ricci contraction's own N n^3
# temporaries: dg and at most three more alive at once, which the factor 4
# counts.  Folding order 2 into the order-1 budget (all 16 couplings of a d
# in one pass on bulk_wide) read a peak RSS of 44.2-44.5 MB against
# 41.1-41.2 MB at 4 N n^3, and a slower battery (three runs each).  At
# 4 N n^3 a bulk_wide battery runs 4 + 1 + 4 order-2 passes at d = 8 (null
# fluid, Einstein, the audit's Einstein) and 2 + 1 + 2 at d = 6, where a
# dense N n^4 d2g had taken 16 + 4 + 16 and 6 + 2 + 6; the median peak RSS
# moved from 41.18 to 41.13 MB on bulk_wide and fell by about 1 MB on
# bulk_dense and default_all (2-core x86-64 host, 18 s runs, 10 pairs).
# At 2^17 entries per pass the first-order checks take one pass at d = 6
# and d = 8, 5 points.
# The axiom audit is budgeted by the same rule, part by part: it stacks a
# d's couplings under the order-1 budget and runs its one order-2 read, the
# Einstein residual of the undeformed metric, in order-2 sub-passes.
COUPLING_PASS_ENTRIES = 2**17


def coupling_passes(d: int, count: int, samples: int, order: int) -> list[slice]:
    """Consecutive slices of ``count`` couplings, one jet pass each.

    A pass holds whole couplings of ``samples`` points and at most
    ``COUPLING_PASS_ENTRIES`` entries of its working set, samples * n^2,
    samples * n^3 and 4 * samples * n^3 for a pass of derivative ``order``
    0, 1 and 2; a coupling over that budget runs alone.
    """
    if order not in (0, 1, 2):
        raise ContractViolationError(f"derivative order must be 0, 1 or 2, got {order}")
    n = d + 3
    per_sample = (n**2, n**3, 4 * n**3)[order]
    per_pass = max(1, COUPLING_PASS_ENTRIES // (samples * per_sample))
    return [slice(i, min(i + per_pass, count)) for i in range(0, count, per_pass)]


def coupling_config(
    d: int, couplings: Sequence[tuple[float, float]], samples: int
) -> SchrodingerManifoldConfig:
    """One config for couplings stacked over ``samples`` points each:
    sample c * samples + k carries coupling c.  A parameter that every
    coupling shares stays a float, which rounds alike and skips the
    per-sample broadcasts."""
    lam, mu = (
        float(v[0])
        if len(set(v)) == 1
        else np.repeat(np.asarray(v, dtype=float), samples)
        for v in zip(*couplings)
    )
    return SchrodingerManifoldConfig(d, lam, mu)


def over_couplings(
    d: int, couplings: Sequence[tuple[float, float]], pts: np.ndarray, order: int, fn
) -> list:
    """What ``fn(config, rows, part)`` returns on each jet pass over
    ``couplings``, in coupling order.  ``pts`` stacks S points per coupling,
    in coupling order; a pass holds ``couplings[part]`` (``coupling_passes``
    budgets it at derivative ``order``), their ``rows`` of ``pts`` and their
    ``coupling_config``.  A DegenerateMetricError from ``fn`` is reworded,
    once, to name the singular sample's (lam, mu) and its index among that
    coupling's S points; a nested driver's named error passes through.
    """
    S = len(pts) // len(couplings)
    if S * len(couplings) != len(pts):
        raise ContractViolationError(
            f"{len(pts)} points do not split evenly over {len(couplings)} couplings"
        )
    out = []
    for part in coupling_passes(d, len(couplings), S, order):
        held = couplings[part]
        rows = pts[part.start * S : part.stop * S]
        try:
            out.append(fn(coupling_config(d, held, S), rows, part))
        except DegenerateMetricError as exc:
            if exc.coupling is not None:
                raise
            c, k = divmod(exc.sample, S)
            lam, mu = held[c]
            raise DegenerateMetricError(
                f"Gram matrix is singular at (lam, mu) = ({lam:g}, {mu:g}), "
                f"sample {k} ({exc.detail})",
                sample=k,
                detail=exc.detail,
                coupling=(lam, mu),
            ) from exc
    return out


def bulk_boxes(d: int) -> list[tuple[float, float]]:
    """Default sampling box: transverse coordinates moderate, rh kept away
    from both the boundary and large radii."""
    return [(-1.2, 1.2)] * (d + 2) + [(0.7, 2.2)]


def _flat_square(d: int, x) -> object:
    # g(x, x) on the d+2 flat block: twice t*s, then the spatial squares.
    # ambient._chart_square adds the same terms in the other order; the bulk
    # and boundary residuals are pinned to this order's rounding, so the two
    # stay separate.
    out = x[d] * x[d + 1] * 2.0
    for i in range(d):
        out = out + x[i] * x[i]
    return out


def _divider(den):
    """val -> val * (1 / den) for the entries of one evaluation, the
    reciprocal formed once.  A jet division forms the same product, so a
    Gram's values are the same bits on arrays and on jets.  A constant 0.0
    entry stays 0.0 and forms no jet."""
    inv = den._reciprocal() if isinstance(den, Jet2) else 1.0 / den

    def over(val):
        if isinstance(val, float) and val == 0.0:
            return 0.0
        return val * inv

    return over


def bulk_metric(cfg: SchrodingerManifoldConfig) -> MetricField:
    """The two-parameter Lorentz metric in the (xh, th, sh, rh) chart:

    (-2 lam / rh^2) [dx^2 + 2 dt ds + dr^2] - mu * (clock) x (clock),
    the clock being (-2 lam / rh^2) dt.  Per-sample couplings compute the
    dt^2 entry on every sample, a zero (of either sign) where mu = 0; a
    float mu = 0 leaves it the constant 0.0, so the undeformed metric pays
    for no clock term.  The two differ only in the sign of zeros, which no
    residual sees.
    """
    d = cfg.d
    n = d + 3
    level = -2.0 * cfg.lam
    clock2 = 2.0 * cfg.lam * cfg.mu
    clock_term = isinstance(cfg.mu, np.ndarray) or cfg.mu != 0.0

    def gram(p):
        over_rh2 = _divider(p[d + 2] * p[d + 2])
        a = over_rh2(level)
        rows = [[0.0] * n for _ in range(n)]
        for i in range(d):
            rows[i][i] = a
        rows[d][d + 1] = a
        rows[d + 1][d] = a
        rows[d + 2][d + 2] = a
        if clock_term:
            rows[d][d] = over_rh2(clock2 * a)
        return rows

    return MetricField(gram)


def xi_hat_field(cfg: SchrodingerManifoldConfig) -> VectorField:
    """The bulk's null Killing field d/dsh.  The bulk clock is
    g(xi, .) = (-2 lam / rh^2) dt, read off a pass (``MetricJets.clock``)."""
    return xi_field(cfg.d, cfg.d + 3)


# ---------------------------------------------------------------------------
# the embedding and its inverse


def embed_components(cfg: SchrodingerManifoldConfig, p: Sequence) -> list:
    """Ambient coordinates of a bulk chart point, jet-friendly:

    Q = (sqrt(-2 lam)/rh) * (xh; -(xh*xh + rh^2)/2; 1).
    """
    d = cfg.d
    rh = p[d + 2]
    if not isinstance(rh, Jet2) and np.any(np.abs(rh) < 1e-8):
        raise BoundaryPointError("rh = 0 is a boundary point")
    scale = cfg.scale / rh
    xx = _flat_square(d, p)
    comps = [scale * p[i] for i in range(d + 2)]
    comps.append(scale * (-0.5) * (xx + rh * rh))
    comps.append(scale)
    return comps


def chart_from_ambient(cfg: SchrodingerManifoldConfig, Q) -> list:
    """Invert the embedding on the rh > 0 sheet; jet-friendly.

    The components carry a sample axis: the samples whose last ambient
    component is at or below 1e-8 left the sheet and come back NaN, and
    the rest are exact, as in ``projective_action`` (``mark_escapes``).
    """
    d = cfg.d
    last = Q[d + 3]
    last = mark_escapes(last, jet_value(last).real <= 1e-8)
    out = [Q[i] / last for i in range(d + 2)]
    out.append(cfg.scale / last)
    return out


# ---------------------------------------------------------------------------
# induced tensors, dual path


def _embedding_jets(cfg: SchrodingerManifoldConfig, jets: MetricJets):
    """(Q, J): the embedding and its Jacobian on the pass's seeds.  Bound
    methods of one function to one object compare equal, so every check
    that reads the embedding on one pass and config shares its evaluation."""
    vals, jac = jets.components(MethodType(embed_components, cfg))
    return vals.real, jac.real


def induced_metric(cfg: SchrodingerManifoldConfig, jets: MetricJets) -> dict:
    """The ambient pullback against the chart metric on a pass of the bulk
    metric (order 1 suffices), per sample (N,) each.  With th = -(Q^T G Z0) J
    the ambient clock row, "metric" is max|J^T G J - mu th (x) th - g0| over
    max(1, max|g0|), and "clock" is max|th - theta| over max(1, max|theta|),
    theta being the chart clock g(xi, .).  Both are relative, since the
    entries of g grow like -2 lam / rh^2 and their rounding with them."""
    d = cfg.d
    Q, J = _embedding_jets(cfg, jets)
    G = ambient_gram(d)
    th = _vm(-_vm(_vm(Q, G), build_Z0(d)), J)
    pulled = J.swapaxes(-1, -2) @ G @ J - _per_matrix(cfg.mu) * (
        th[..., :, None] * th[..., None, :]
    )
    g, theta = jets.g0, jets.theta(xi_hat_field(cfg))
    return {
        "metric": nk.sample_max(pulled - g) / np.maximum(1.0, nk.sample_max(g)),
        "clock": nk.sample_max(th - theta) / np.maximum(1.0, nk.sample_max(theta)),
    }


def xi_hat_consistency(cfg: SchrodingerManifoldConfig, jets: MetricJets) -> dict:
    """The vertical field on a pass of the bulk metric (order 1 suffices):
    ambient Z0 Q against the push-forward of d/dsh, its nullity, and its
    Killing residual."""
    d = cfg.d
    Q, J = _embedding_jets(cfg, jets)
    ZQ = _mv(build_Z0(d), Q)
    killing = np.abs(lie_derivative_metric(jets, xi_hat_field(cfg)))
    return {
        "pushforward": np.abs(ZQ - J[..., d + 1]).max(axis=-1),
        "nullity": np.abs(jets.g0[..., d + 1, d + 1]),
        "killing": killing.max(axis=(-2, -1)),
    }


# ---------------------------------------------------------------------------
# curvature identities


def einstein_factor(d: int, lam):
    """(d+2)(1+2 lam)/(2 lam): the multiple of g that Ric + (d+2) g is for
    the undeformed metric, zero exactly at lam = -1/2."""
    return (d + 2.0) * (1.0 + 2.0 * lam) / (2.0 * lam)


def einstein_residual(
    cfg: SchrodingerManifoldConfig, jets: MetricJets
) -> tuple[np.ndarray, np.ndarray]:
    """(Ric + (d+2) g, predicted multiple of g) for the undeformed metric,
    on an order-2 pass of it.

    The two agree entrywise; the common value vanishes exactly when
    lam = -1/2, which is the normalization making the metric Einstein.
    Every sample must have mu = 0.
    """
    mu = cfg.mu
    if mu.any() if isinstance(mu, np.ndarray) else mu != 0.0:
        raise ContractViolationError("einstein_residual expects mu = 0")
    d, lam = cfg.d, cfg.lam
    ric, _ = jets.ricci()
    g0 = jets.g0
    computed = ric + (d + 2.0) * g0
    predicted = _per_matrix(einstein_factor(d, lam)) * g0
    return computed, predicted


def nullfluid_residual(cfg: SchrodingerManifoldConfig, jets: MetricJets) -> np.ndarray:
    """Residual of Ric(g) - ((d+2)/(2 lam)) g + mu (d+4)/(2 lam) clock^2 on
    an order-2 pass of the bulk metric."""
    d, lam, mu = cfg.d, cfg.lam, cfg.mu
    ric, _ = jets.ricci()
    theta = jets.theta(xi_hat_field(cfg))
    return (
        ric
        - _per_matrix((d + 2.0) / (2.0 * lam)) * jets.g0
        + _per_matrix(mu * (d + 4.0) / (2.0 * lam))
        * (theta[..., :, None] * theta[..., None, :])
    )


def metric_recovery_residual(d: int, p: np.ndarray) -> np.ndarray:
    """Entrywise gap between the (lam, mu) = (-1/2, 1) chart Gram and the
    reference form (1/r^2)[dx^2 + 2 dt ds + dr^2 - dt^2/r^2]."""
    cfg = SchrodingerManifoldConfig(d, -0.5, 1.0)
    pts = nk.point_batch(p)
    g0 = gram_values(bulk_metric(cfg), pts)
    r = pts[..., d + 2]
    inv2 = 1.0 / (r * r)
    ref = np.zeros(g0.shape)
    for i in range(d):
        ref[..., i, i] = inv2
    ref[..., d, d + 1] = ref[..., d + 1, d] = inv2
    ref[..., d + 2, d + 2] = inv2
    ref[..., d, d] = -inv2 * inv2
    return np.abs(g0 - ref).max(axis=(-2, -1))


def integrability_residual(cfg: SchrodingerManifoldConfig, jets: MetricJets) -> np.ndarray:
    """max |clock ^ d(clock)| at each point of a pass of the bulk metric
    (order 1 suffices), (N,)."""
    _, wedge = exterior_wedge(*jets.clock(xi_hat_field(cfg)))
    return np.abs(wedge).max(axis=(-3, -2, -1))


# ---------------------------------------------------------------------------
# isometries


def null_plane_boost(d: int, c: float) -> np.ndarray:
    """Ambient isometry scaling the extra null pair by (c, 1/c).  It
    preserves G but not Z0, so it moves the clock: the standard negative
    control for the deformed metrics."""
    if c == 0.0:
        raise ValueError("scale must be nonzero")
    A = np.eye(d + 4)
    A[d + 2, d + 2] = c
    A[d + 3, d + 3] = 1.0 / c
    return A


def isometry_check(cfg: SchrodingerManifoldConfig, A: np.ndarray, pts: np.ndarray) -> dict:
    """Pull the chart metric back through the ambient action of the
    (d+4, d+4) matrix ``A`` (a group element or any ambient matrix) at the
    chart points ``pts`` and compare.

    Per point, (N,) each: the metric residual, the relative quadric
    residual, and whether the image left the rh > 0 sheet.  An escaped
    point's metric residual is NaN and the rest are exact
    (``chart_from_ambient``).  The points are embedded once, as jets: the
    quadric reads their values.
    """
    d = cfg.d
    A = np.asarray(A)
    metric = bulk_metric(cfg)
    embedded = []

    def moved(q):
        embedded[:] = embed_components(cfg, q)
        return chart_from_ambient(cfg, [sparse_dot(row, embedded) for row in A])

    vals, jac = jet_components(moved, pts)
    J = jac.real
    pulled = J.swapaxes(-1, -2) @ gram_values(metric, vals.real) @ J
    Q2 = _mv(A, np.stack([c.value for c in embedded], axis=-1))
    quad = np.abs(_vv(_vm(Q2, ambient_gram(d)), Q2) - 2.0 * cfg.lam)
    return {
        "metric_residual": np.abs(pulled - gram_values(metric, pts)).max(axis=(-2, -1)),
        "quadric_residual": quad / abs(2.0 * cfg.lam),
        "escaped": np.isnan(vals[..., d + 2].real),
    }


# ---------------------------------------------------------------------------
# isotropy


def bulk_isotropy_element(
    cfg: SchrodingerManifoldConfig, R: np.ndarray, u: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """Stabilizer elements of the bulk base point, one per row of the
    rotations R (E, d, d), boost vectors u (E, d) and expansion strengths
    a (E,), as one validated stack."""
    d, lam = cfg.d, cfg.lam
    R, u, a = (np.asarray(x, dtype=float) for x in (R, u, a))
    E, n = len(a), d + 2
    L = np.zeros((E, n, n))
    L[:, :d, :d] = R
    L[:, :d, d] = u
    L[:, d, d] = 1.0
    # stacked matrix products, each bitwise the one-element product
    L[:, d + 1, :d] = -(u[:, None] @ R)[:, 0]
    L[:, d + 1, d] = -0.5 * (u[:, None] @ u[..., None])[:, 0, 0] + lam * a * a
    L[:, d + 1, d + 1] = 1.0
    B = np.multiply.outer(lam * a, xi_vector(d))
    blocks = GroupBlocks(L=L, B=B, C=-B, a=a, b=np.ones(E), dd=np.zeros(E), e=np.ones(E))
    return assemble_group_element(blocks, d)


def boundary_isotropy_element(
    d: int, R: np.ndarray, v: np.ndarray, a: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """Stabilizer elements of the boundary base ray, one per row of the
    rotations R (E, d, d), velocities v (E, d), expansion strengths a (E,)
    and dilation factors e (E,), as one validated stack."""
    R, v, a, e = (np.asarray(x, dtype=float) for x in (R, v, a, e))
    if (e == 0.0).any():
        raise ValueError("dilation factor must be nonzero")
    E, n = len(a), d + 2
    L = np.zeros((E, n, n))
    L[:, :d, :d] = R
    L[:, :d, d] = -(R @ v[..., None])[..., 0] / e[:, None]
    L[:, d, d] = 1.0 / e
    L[:, d + 1, :d] = v
    L[:, d + 1, d] = -0.5 * (v[:, None] @ v[..., None])[:, 0, 0] / e
    L[:, d + 1, d + 1] = e
    zero = np.zeros((E, n))
    blocks = GroupBlocks(L=L, B=zero, C=zero.copy(), a=a, b=1.0 / e, dd=np.zeros(E), e=e)
    return assemble_group_element(blocks, d)


def isotropy_check(
    cfg: SchrodingerManifoldConfig, rng: np.random.Generator, samples: int
) -> dict:
    """Dimension counts of the linearized stabilizers of the bulk base point
    and of the boundary base ray, plus how far ``samples`` finite
    stabilizer elements of each, drawn from ``rng``, move what they fix:
    per element, (samples,) each."""
    d = cfg.d
    stack = commutant_stack(d)
    n_alg = len(stack)
    Q0 = np.zeros(d + 4)
    Q0[d + 2] = cfg.lam
    Q0[d + 3] = 1.0
    rank_bulk, _ = rank_nullspace((stack @ Q0).T)
    X0 = np.zeros(d + 4)
    X0[d + 3] = 1.0
    keep = [i for i in range(d + 4) if i != d + 3]
    rank_boundary, _ = rank_nullspace((stack @ X0)[:, keep].T)

    # the draws of ``rng`` stay in their per-element order
    R = np.zeros((samples, d, d))
    u, v = np.zeros((2, samples, d))
    a, e = np.zeros((2, samples))
    for k in range(samples):
        R[k], _ = np.linalg.qr(rng.normal(size=(d, d)))
        u[k] = 0.7 * rng.normal(size=d)
        a[k] = 0.8 * rng.normal()
        v[k] = 0.7 * rng.normal(size=d)
        e[k] = np.exp(0.5 * rng.normal()) * (-1.0 if k % 2 else 1.0)
    bulk = bulk_isotropy_element(cfg, R, u, a)
    boundary = boundary_isotropy_element(d, R, v, a, e)
    return {
        "bulk_isotropy_dim": n_alg - rank_bulk,
        "bulk_isotropy_expected": d * (d + 1) // 2 + 1,
        "bulk_space_dim": rank_bulk,
        "boundary_isotropy_dim": n_alg - rank_boundary,
        "boundary_isotropy_expected": (d * d + d + 4) // 2,
        "boundary_space_dim": rank_boundary,
        "bulk_fix_residual": np.abs(bulk @ Q0 - Q0).max(axis=-1),
        "boundary_fix_residual": np.abs(boundary @ X0 - e[:, None] * X0).max(axis=-1),
    }


# ---------------------------------------------------------------------------
# the boundary: projectivized null cone


def boundary_embed_components(d: int, p: Sequence) -> list:
    """Normalized ray representative (x; t; s; -g(x,x)/2; 1), jet-friendly."""
    xx = _flat_square(d, p)
    return [p[i] for i in range(d + 2)] + [-0.5 * xx, 1.0]


def _section_jacobian(d: int, p: Sequence) -> list[list]:
    """d(representative)/d(chart), rows indexed by ambient component."""
    g = flat_gram_matrix(d)
    n = d + 2
    rows = [[1.0 if a == b else 0.0 for b in range(n)] for a in range(n)]
    rows.append([-sparse_dot(g[a], p) for a in range(n)])
    rows.append([0.0] * n)
    return rows


def boundary_f0(d: int, X) -> object:
    """The degree-2 normalizer: squared pairings of X with the two null
    directions e_{d+1} and e_{d+2} that build Z0, whose G-images are rows
    d+1 and d+2 of G."""
    G = ambient_gram(d)
    xp = sparse_dot(G[d + 1], X)
    xq = sparse_dot(G[d + 2], X)
    return xp * xp + xq * xq


def boundary_metric(d: int) -> MetricField:
    """Quotient metric G(dX, dX) / F0 contracted through the section
    Jacobian; no chart shortcut, the flat form emerges numerically."""
    G = ambient_gram(d)
    n = d + 2
    # The last entry of the representative is the constant 1, so its row of
    # the section Jacobian vanishes and the pairs through it add nothing;
    # left in, the pair (d+2, d+3) would form a coefficient jet
    # G[d+2, d+3] J[d+2][a] per row only to meet that zero row.
    pairs = [(A, B) for A in range(d + 3) for B in range(d + 3) if G[A, B] != 0.0]
    weights = [float(G[A, B]) for A, B in pairs]

    def gram(p):
        X = boundary_embed_components(d, p)
        J = _section_jacobian(d, p)
        over_f0 = _divider(boundary_f0(d, X))
        cols = [[J[B][b] for _, B in pairs] for b in range(n)]
        rows = []
        for a in range(n):
            coeffs = [g * J[A][a] for g, (A, _) in zip(weights, pairs)]
            rows.append([over_f0(sparse_dot(coeffs, col)) for col in cols])
        return rows

    return MetricField(gram)


def theta_f0_form(d: int) -> OneForm:
    """Quotient clock -G(X, Z0 dX) / F0 through the section Jacobian."""
    G = ambient_gram(d)
    Z0 = build_Z0(d)
    M = G @ Z0
    n = d + 2
    # u_B = (X^T G Z0)_B vanishes on the zero columns of G Z0 (all but two)
    live = np.flatnonzero(M.any(axis=0)).tolist()
    cols = [M[:, B] for B in live]

    def comps(p):
        X = boundary_embed_components(d, p)
        J = _section_jacobian(d, p)
        over_f0 = _divider(boundary_f0(d, X))
        # u_B, then contract with the Jacobian column
        u = [sparse_dot(col, X) for col in cols]
        return [over_f0(-sparse_dot(u, [J[B][c] for B in live])) for c in range(n)]

    return OneForm(comps)


def _cone_forms(G: np.ndarray, Xa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """At each null-cone representative, a row of Xa (N, d+4): an
    orthonormal basis (rows) of its G-orthogonal complement, the cone's
    tangent space, (N, d+3, d+4), and the cone form, G restricted to that
    space, (N, d+3, d+3).  A representative is nonzero and G invertible, so
    the row Xa G has rank 1 at any relative cut and its complement is
    spanned by vh[1:] of its SVD."""
    _, _, vh = np.linalg.svd(Xa[:, None] @ G)
    tangent = vh[:, 1:]
    return tangent, tangent @ G @ tangent.swapaxes(-1, -2)


def _norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each (1, m) row of a stack, (N, 1, 1): the
    square root of a row-times-column dot product, as ``np.linalg.norm``
    takes it for one vector."""
    return np.sqrt(v @ v.swapaxes(-1, -2))


def boundary_structure(d: int, pts: np.ndarray, rng: np.random.Generator) -> dict[str, dict]:
    """The conformal Bargmann structure of the boundary, measured at the
    chart points ``pts``, (N, d+2), with the tangents, scales and time-only
    factor points drawn from ``rng``: homogeneity of the normalizer, closed
    clock, parallel null vertical field, one-dimensional cone-form kernel
    along the ray, and conformal flatness with a factor depending on time
    only.  By property, its residual: per point, (N,), but for the two
    spreads of the factor, one number each; the scale invariance also gives
    the smallest normalizer, and the cone kernel the kernel dimensions it
    met."""
    G = ambient_gram(d)
    Z0 = build_Z0(d)
    metric = boundary_metric(d)
    flat = flat_gram_matrix(d)
    samples = len(pts)

    # the jet and float work on every sample at once
    X = component_values(lambda q: boundary_embed_components(d, q), pts)
    J = component_values(
        lambda q: [e for row in _section_jacobian(d, q) for e in row], pts
    ).reshape(samples, d + 4, d + 2)
    f0 = boundary_f0(d, X.T)
    alpha = 3.7
    f0_scaled = boundary_f0(d, (alpha * X).T)
    jets = gram_jets(metric, pts, order=1)
    dw, _ = exterior_wedge(*jets.components(theta_f0_form(d).components))
    g0 = jets.g0
    factor = (g0 * flat).sum(axis=(-2, -1)) / (flat * flat).sum()

    # the draws of ``rng`` stay in their per-point order: two tangents, then
    # the scale of the off-section representative and its sign
    draws = np.zeros((samples, 2, d + 2))
    alpha2 = np.zeros(samples)
    for k in range(samples):
        draws[k] = rng.normal(size=d + 2), rng.normal(size=d + 2)
        alpha2[k] = float(rng.uniform(0.4, 2.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)

    # Over the stacked points at once, as one matrix product per point: a
    # (1, m) row times a matrix is the product of a vector, and a row times
    # a column is a dot product, each rounded as at that point alone.
    # Degree-2 homogeneity: the quotient value is blind to the scale of the
    # representative.
    v = (J[:, None] @ draws[..., None]).swapaxes(-1, -2)
    v1, v2 = v[:, 0], v[:, 1]  # (samples, 1, d + 4) each
    base = (v1 @ G @ v2.swapaxes(-1, -2))[:, 0, 0] / f0
    scaled = ((alpha * v1) @ G @ (alpha * v2).swapaxes(-1, -2))[:, 0, 0] / f0_scaled
    scale_r = np.abs(base - scaled)

    # cone-form kernel at an off-section representative, at the relative
    # cut of ``rank_nullspace``: a kernel vector's angle to the ray
    Xa = alpha2[:, None] * X
    tangent, K = _cone_forms(G, Xa)
    _, s, vh = np.linalg.svd(K)
    rank = (s > 1e-10 * s[:, :1]).sum(axis=1)
    kernel = rank < d + 3
    # the first null row of each point's vh; a point without a kernel reads
    # its last row, and its angle is filed as 0
    vec = vh[np.arange(samples), np.minimum(rank, d + 2)][:, None] @ tangent
    xhat = Xa[:, None] / _norms(Xa[:, None])
    off = vec - (vec @ xhat.swapaxes(-1, -2)) * xhat
    angle_r = np.where(kernel, (_norms(off) / _norms(vec))[:, 0, 0], 0.0)
    kernel_dims = sorted(set((d + 3 - rank).tolist()))

    # the conformal factor varies with t but not with x or s: five random
    # points at each of four times
    t_vals = (-0.9, -0.2, 0.5, 1.1)
    qs = rng.uniform(-1.2, 1.2, size=(len(t_vals) * 5, d + 2))
    qs[:, d] = np.repeat(t_vals, 5)
    g_t = gram_values(metric, qs)
    facs = ((g_t * flat).sum(axis=(-2, -1)) / (flat * flat).sum()).reshape(-1, 5)
    factors_by_t = [sum(row) / len(row) for row in facs.tolist()]

    found = {
        "scale_invariance": scale_r,
        "clock_closed": nk.sample_max(dw),
        "xi_parallel": nk.sample_max(covariant_derivative(jets, xi_field(d, d + 2))),
        "xi_null": nk.sample_max(g0[:, d + 1, d + 1]),
        "xi_matches_ambient": nk.sample_max(X @ Z0.T - J[:, :, d + 1]),
        "conformal_to_flat": nk.sample_max(g0 - factor[:, None, None] * flat),
        "factor_time_only": float(np.max(facs.max(axis=1) - facs.min(axis=1))),
        "cone_kernel": angle_r,
        "factor_varies_with_t": float(np.max(factors_by_t)) - float(np.min(factors_by_t)),
    }
    out = {name: {"residual": r} for name, r in found.items()}
    # the one row that divides by f0
    out["scale_invariance"]["min_f0"] = float(f0.min())
    out["cone_kernel"]["kernel_dims"] = kernel_dims
    return out


# ---------------------------------------------------------------------------
# the axiom audit


def _two_scale_ratio(values: dict[float, float]) -> float:
    hi, lo = max(values), min(values)
    return values[hi] / values[lo] if values[lo] else math.inf


def schrodinger_axiom_audit(
    cfgs: Sequence[SchrodingerManifoldConfig], pts: np.ndarray, transverse: np.ndarray
) -> list[dict[str, dict]]:
    """Audit the three defining conditions of the asymptotic structure.

    1. The vertical Killing field extends to the boundary vertical field.
    2. The inverse metric approaches mu * (vertical)^2 at rate rh^2, with
       the normalization mu = 1.
    3. Removing the clock-squared term yields the undeformed metric, which
       is Einstein exactly at lam = -1/2 and induces the flat structure at
       the boundary.

    ``cfgs`` are C configs of one d.  ``pts`` stacks S bulk points per
    config and ``transverse`` S transverse points (d+2 coordinates) per
    config, which the audit moves toward the boundary, both in config order.
    The result is one map per config, from each entry to its residual,
    ratios and flags, and equal to that config's call alone; whether an
    entry holds for its (lam, mu) is judged from them.  The configs share
    jet passes (``over_couplings``) budgeted at order 1, as the audit reads
    first derivatives; the Einstein axiom alone reads second derivatives,
    in order-2 sub-passes of its own.
    """
    d = cfgs[0].d
    if any(c.d != d for c in cfgs) or len(transverse) != len(pts):
        raise ContractViolationError(
            "the audit takes configs of one d and one transverse point per bulk point"
        )
    couplings = [(float(c.lam), float(c.mu)) for c in cfgs]
    S = len(pts) // len(cfgs)

    def audit(config, rows, part):
        far = transverse[part.start * S : part.stop * S]
        return _audit(config, rows, far, couplings[part])

    return [r for run in over_couplings(d, couplings, pts, 1, audit) for r in run]


def _audit(
    cfg: SchrodingerManifoldConfig,
    pts: np.ndarray,
    transverse: np.ndarray,
    couplings: Sequence[tuple[float, float]],
) -> list[dict[str, dict]]:
    """The audit of ``couplings`` stacked in ``cfg`` over equal segments of
    ``pts`` and ``transverse``; every maximum is taken per segment."""
    d, lam, mu = cfg.d, cfg.lam, cfg.mu
    metric = bulk_metric(cfg)
    plus = bulk_metric(SchrodingerManifoldConfig(d, lam, 0.0))
    flat = flat_gram_matrix(d)
    n = d + 3

    def worst(x) -> np.ndarray:
        # max |x| per coupling; np.max keeps a NaN that Python's max drops
        return np.abs(x).reshape(len(couplings), -1).max(axis=1)

    def einstein(config, rows, _):
        # the undeformed metric's pass, whose g0 is also g_plus
        undeformed = SchrodingerManifoldConfig(d, config.lam)
        jets = gram_jets(bulk_metric(undeformed), rows)
        return (*einstein_residual(undeformed, jets), jets.g0)

    # one first-order pass of the metric at the audit's points: axiom 1
    # reads the vertical field off it, axiom 3 its Gram and clock.  Its dg,
    # the audit's largest array, is not kept beside the sub-passes below
    jets = gram_jets(metric, pts, order=1)
    res = xi_hat_consistency(cfg, jets)
    g0 = jets.g0
    theta = jets.theta(xi_hat_field(cfg))
    del jets

    # axiom 1: vertical field is null and Killing, and the normalized
    # embedding converges to the boundary representative at rate rh^2
    killing = np.maximum(worst(res["killing"]), worst(res["pushforward"]))
    vertical = np.maximum(killing, worst(res["nullity"])).tolist()
    bnd = component_values(lambda q: boundary_embed_components(d, q), transverse)
    gaps = {}
    for rh in (1e-2, 1e-3):
        Q = component_values(
            lambda q: embed_components(cfg, q), _with_rh(transverse, rh)
        )
        gaps[rh] = worst(Q / Q[:, d + 3 :] - bnd).tolist()

    # axiom 2: inverse metric minus mu * (vertical)^2 decays at rate rh^2,
    # and the deformation is normalized to mu = 1.  Near rh = 0 the Gram's
    # condition number grows like mu a^2, up to 6e13 at rh = 1e-3 on the
    # default grid, past the singular cut of a pass's ginv; these inverses
    # skip that cut
    E = np.zeros((len(pts), n, n))
    E[:, d + 1, d + 1] = mu
    decay = {}
    for rh in (1e-2, 1e-3):
        ginv = inverse_gram(gram_values(metric, _with_rh(transverse, rh)))
        decay[rh] = worst(ginv - E).tolist()

    # axiom 3: adding back the clock square recovers the undeformed metric,
    # which must be Einstein and induce the flat structure at rh = 0.  The
    # one second-order read, passed the audit's couplings so that a singular
    # sample is named by its own (lam, mu), not by (lam, 0)
    runs = over_couplings(d, couplings, pts, 2, einstein)
    computed, predicted, g_plus = (np.concatenate(a) for a in zip(*runs))
    mu_clock2 = _per_matrix(mu) * (theta[:, :, None] * theta[:, None, :])
    # relative to the largest entry compared: mu clock^2 grows like
    # mu lam^2 / rh^4, and the entries' rounding with it
    sizes = np.maximum(1.0, np.max([worst(a) for a in (g0, mu_clock2, g_plus)], axis=0))
    identity_r = (worst(g0 + mu_clock2 - g_plus) / sizes).tolist()
    einstein_self = worst(computed - predicted).tolist()
    einstein_zero = worst(computed).tolist()
    rh = 1e-3
    gp = gram_values(plus, _with_rh(transverse, rh))
    ci = worst((rh * rh) * gp[:, : d + 2, : d + 2] - flat).tolist()

    # defining function: rh positive on the chart, gradient of fixed
    # nonzero length -1/(2 lam) for the rescaled metric
    ginv = inverse_gram(g0)
    val = ginv[:, n - 1, n - 1] / pts[:, n - 1] ** 2
    grad_r = worst(val - (-1.0 / (2.0 * lam))).tolist()

    return [
        {
            "axiom1_vertical_extension": {
                "residual": vertical[c],
                "decay_ratio": _two_scale_ratio({k: v[c] for k, v in gaps.items()}),
                "gaps": {str(k): v[c] for k, v in gaps.items()},
            },
            "axiom2_inverse_metric": {
                "residual": decay[1e-3][c],
                "decay_ratio": _two_scale_ratio({k: v[c] for k, v in decay.items()}),
                "normalized": abs(mu_c - 1.0) < 1e-12,
                "mu": mu_c,
            },
            "axiom3_deformation_identity": {"residual": identity_r[c]},
            "axiom3_einstein": {
                "residual": einstein_zero[c],
                "identity_residual": einstein_self[c],
                "predicted_factor": einstein_factor(d, lam_c),
            },
            "axiom3_conformal_infinity": {"residual": ci[c], "rh": rh},
            "defining_function": {"residual": grad_r[c], "expected": -1.0 / (2.0 * lam_c)},
        }
        for c, (lam_c, mu_c) in enumerate(couplings)
    ]
