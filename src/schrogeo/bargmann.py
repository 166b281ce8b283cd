"""Flat Bargmann structure, Schrödinger densities, and symmetry transport.

A Bargmann structure is a Lorentzian metric with a nowhere-vanishing parallel
null field xi; the clock one-form theta = g(xi) is closed, so the structure
fibers over an absolute time axis.  Wave functions are densities
Psi = f |Vol|^w with w = d / (2d+4): with that weight the pair

    (Yamabe operator) f = 0,      (hbar/i) L_xi^w f = m f

is preserved by the conformal transformations fixing xi, which is what the
transport checks in this module exercise.

Every check measures the points it is given, of shape (N, n), as one batch:
the points are seeded as jets with a trailing sample axis, so one jet pass
gives the residuals at all of them, each bitwise its value at that point
alone.  The residual functions take one point of shape (n,) or a batch of
shape (N, n), and return scalars or (N,) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numkernel as nk
from .ambient import (
    GroupElement,
    SchBlocks,
    assemble_group_element,
    exp_algebra,
    extract_blocks,
    flat_chart,
    flat_gram_matrix,
    flat_metric,
    group_inverse,
    projective_action,
    sch_matrix,
    xi_vector,
)
from .geometry import (
    MetricField,
    OneForm,
    VectorField,
    component_values,
    covariant_derivative,
    divergence,
    exterior_wedge,
    gram_values,
    jet_components,
    yamabe_and_divergence,
)
from .numkernel import ContractViolationError, Jet2, sample_max, sparse_dot

__all__ = [
    "BargmannStructure",
    "ChartMap",
    "DensityFunction",
    "SchrodingerParams",
    "bargmann_axioms_check",
    "boost_map",
    "complex_magnitude",
    "conformal_equivalence_check",
    "density_weight",
    "dilation_map",
    "expansion_map_projective",
    "flat_bargmann",
    "group_map",
    "metric_clock",
    "plane_wave",
    "schrodinger_residual",
    "symmetry_transport_check",
    "translation_map",
    "transported_density",
]


@dataclass(frozen=True)
class BargmannStructure:
    """Metric plus the distinguished parallel null direction and its clock."""

    metric: MetricField
    xi: VectorField
    theta: OneForm
    d: int


@dataclass(frozen=True)
class SchrodingerParams:
    mass: float = 1.0
    hbar: float = 1.0


@dataclass(frozen=True)
class DensityFunction:
    """Coefficient of a density of weight ``weight``; the coefficient callable
    must accept jets and may return complex jets."""

    coefficient: Callable[[Sequence], Jet2]
    weight: float
    d: int


def density_weight(d: int) -> float:
    """The conformal weight d/(2d+4) making the wave operator covariant."""
    return d / (2.0 * d + 4.0)


def flat_bargmann(d: int) -> BargmannStructure:
    metric = flat_metric(d)
    xi = xi_vector(d)
    theta_row = flat_gram_matrix(d) @ xi

    def xi_comps(p):
        return [float(c) for c in xi]

    def theta_comps(p):
        return [float(c) for c in theta_row]

    chart = flat_chart(d)
    return BargmannStructure(
        metric=metric,
        xi=VectorField(chart, xi_comps),
        theta=OneForm(chart, theta_comps),
        d=d,
    )


def metric_clock(structure: BargmannStructure) -> OneForm:
    """theta = g(xi, .) computed from the metric, jet-evaluable."""
    metric, xi = structure.metric, structure.xi

    def comps(p):
        xiv = xi.components(p)
        return [sparse_dot(row, xiv) for row in metric.gram(p)]

    return OneForm(metric.chart, comps)


# ---------------------------------------------------------------------------
# structure checks


def bargmann_axioms_check(structure: BargmannStructure, pts: np.ndarray) -> dict:
    """Nullity of xi, parallelism of xi, closedness of the clock, and
    vanishing divergence at the points ``pts``: by axiom, its residual at
    each point, (N,)."""
    metric, xi = structure.metric, structure.xi
    xv = component_values(xi.components, pts)
    null = np.einsum("...a,...ab,...b->...", xv, gram_values(metric, pts), xv)
    dw, _ = exterior_wedge(metric_clock(structure), pts)
    found = {
        "xi_null": null,
        "xi_parallel": covariant_derivative(metric, xi, pts),
        "clock_closed": dw,
        "xi_divergence_free": divergence(metric, xi, pts),
    }
    return {name: sample_max(v) for name, v in found.items()}


def conformal_equivalence_check(omega, structure: BargmannStructure, pts: np.ndarray):
    """The largest entry of d Omega ^ theta at each of the points ``pts``,
    (N,): zero when the conformal factor descends to the time axis."""
    oj = omega(nk.seed_point(pts, order=1))
    grad = oj.grad.T if isinstance(oj, Jet2) else np.zeros(pts.shape)
    tv = component_values(metric_clock(structure).components, pts)
    wedge = grad[:, :, None] * tv[:, None, :] - tv[:, :, None] * grad[:, None, :]
    return sample_max(wedge)


# ---------------------------------------------------------------------------
# densities and the covariant Schrödinger pair


def _lie_term(field: VectorField, weight: float, fj: Jet2, div, pts: np.ndarray):
    """X(f) + w Div(X) f from the jet of f and the divergence of X."""
    xv = component_values(field.components, pts)
    return np.einsum("...a,a...->...", xv, fj.grad) + weight * div * fj.value


def schrodinger_residual(
    structure: BargmannStructure,
    psi: DensityFunction,
    params: SchrodingerParams,
    p: Sequence[float],
) -> tuple:
    """Residuals of the covariant pair:

    r1 = (Delta_g - (n-2)/(4(n-1)) R) f,
    r2 = (hbar/i) (xi(f) + w Div(xi) f) - m f.

    Two complex scalars at a point of shape (n,); two (N,) complex arrays on
    a batch (N, n), sample by sample bitwise equal to the point values.
    Requires the density to carry the covariant weight d/(2d+4).  One jet
    pass of the metric, one inverse Gram and one evaluation of the
    coefficient serve both members.
    """
    w = density_weight(structure.d)
    if abs(psi.weight - w) > 1e-12:
        raise ContractViolationError(
            f"density weight {psi.weight} != covariant weight {w}"
        )
    pts = np.asarray(p, dtype=float)
    r1, div, fj = yamabe_and_divergence(
        structure.metric, psi.coefficient, structure.xi, pts
    )
    lie = _lie_term(structure.xi, psi.weight, fj, div, pts)
    f = fj.value
    if pts.ndim == 1:
        r1, lie, f = complex(r1), complex(lie), complex(f)
    return r1, (params.hbar / 1j) * lie - params.mass * f


def complex_magnitude(z) -> np.ndarray:
    """|z| per sample, rounded as Python's abs(complex) rounds it (numpy's
    vectorized complex abs can differ in the last bit)."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def plane_wave(
    d: int,
    k: Sequence[float],
    params: SchrodingerParams = SchrodingerParams(),
    amplitude: complex = 1.0,
) -> DensityFunction:
    """exp(i (k.x + omega t + (m/hbar) s)) with omega = -hbar |k|^2 / (2m),
    which annihilates both members of the covariant pair on the flat
    structure."""
    k = np.asarray(k, dtype=float)
    if k.size != d:
        raise ContractViolationError(f"wave vector must have {d} components")
    omega = -params.hbar * float(k @ k) / (2.0 * params.mass)
    ms = params.mass / params.hbar

    def coeff(x):
        phase = omega * x[d] + ms * x[d + 1]
        for i in range(d):
            phase = phase + k[i] * x[i]
        return amplitude * (nk.cos(phase) + 1j * nk.sin(phase))

    return DensityFunction(coefficient=coeff, weight=density_weight(d), d=d)


# ---------------------------------------------------------------------------
# finite symmetries as chart maps


@dataclass(frozen=True)
class ChartMap:
    """Diffeomorphism of the flat chart with jet-evaluable forward/inverse
    maps and the jet-evaluable Jacobian-determinant factor |det D(inverse)|
    used by density transport."""

    name: str
    d: int
    forward: Callable[[Sequence], list]
    inverse: Callable[[Sequence], list]
    jacobian_factor: Callable[[Sequence], Jet2]


def _linear_map(name: str, d: int, W: np.ndarray, shift=None) -> ChartMap:
    n = d + 2
    Winv = np.linalg.inv(W)
    shift = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)
    jac = abs(float(np.linalg.det(Winv)))

    def forward(x):
        return [sparse_dot(W[a], x) + shift[a] for a in range(n)]

    def inverse(x):
        y = [x[a] - shift[a] for a in range(n)]
        return [sparse_dot(Winv[a], y) for a in range(n)]

    def jacobian_factor(x):
        return jac

    return ChartMap(name, d, forward, inverse, jacobian_factor)


def translation_map(d: int, gamma: Sequence[float]) -> ChartMap:
    return _linear_map("translation", d, np.eye(d + 2), shift=gamma)


def dilation_map(d: int, chi: float) -> ChartMap:
    """x -> e^chi x, t -> e^{2chi} t, s -> s."""
    scales = [np.exp(chi)] * d + [np.exp(2.0 * chi), 1.0]
    return _linear_map("dilation", d, np.diag(scales))


def boost_map(d: int, b: Sequence[float]) -> ChartMap:
    """x -> x + b t, s -> s - b.x - |b|^2 t / 2 (a null rotation of g)."""
    b = np.asarray(b, dtype=float)
    n = d + 2
    W = np.eye(n)
    W[:d, d] = b
    W[d + 1, :d] = -b
    W[d + 1, d] = -0.5 * float(b @ b)
    return _linear_map("boost", d, W)


def group_map(ge: GroupElement, name: str = "group") -> ChartMap:
    """Projective action of one stabilizer element (``take(0)`` of a stack)
    as a chart map.

    The action is conformal with factor Omega(x) = 1 / (e - a t), so
    |det D(inverse)|(p) = |e' - a' t|^{-(d+2)} with (a', e') read off the
    inverse element; that closed form is what makes the transported
    coefficient jet-evaluable to second order.
    """
    d = ge.dim
    # inverted as a stack of one: take(None) gives every field the element axis
    gi = group_inverse(ge.take(None)).take(0)
    a_i, e_i = gi.blocks.a, gi.blocks.e

    def forward(x):
        return projective_action(ge, x)

    def inverse(x):
        return projective_action(gi, x)

    def jacobian_factor(x):
        den = e_i - a_i * x[d]
        return (den * den) ** (-(d + 2) / 2.0) if isinstance(den, Jet2) else abs(den) ** (-(d + 2.0))

    return ChartMap(name, d, forward, inverse, jacobian_factor)


def expansion_map_projective(d: int, alpha: float) -> ChartMap:
    """Projective form of the finite expansion exp(alpha E)."""
    A = exp_algebra(_expansion_generator(d, alpha)[None])
    return group_map(assemble_group_element(extract_blocks(A, d), d).take(0), name="expansion")


def _expansion_generator(d: int, alpha: float) -> np.ndarray:
    n = d + 2
    blocks = SchBlocks(
        Lam=np.zeros((n, n)), Gam=np.zeros(n), alpha=alpha, chi=0.0
    )
    return sch_matrix(blocks, d)


# ---------------------------------------------------------------------------
# density transport


def transported_density(
    phi: ChartMap, psi: DensityFunction, weight: float | None = None
) -> DensityFunction:
    """Pushforward coefficient (f o phi^{-1}) |det D phi^{-1}|^w."""
    w = psi.weight if weight is None else weight

    def coeff(x):
        pre = phi.inverse(x)
        fj = psi.coefficient(pre)
        return fj * phi.jacobian_factor(x) ** w

    return DensityFunction(coefficient=coeff, weight=psi.weight, d=psi.d)


def symmetry_transport_check(
    phi: ChartMap,
    psi: DensityFunction,
    structure: BargmannStructure,
    params: SchrodingerParams,
    pts: np.ndarray,
    weight: float | None = None,
) -> dict:
    """Residuals of the covariant pair for the transported density at the
    images of the points ``pts`` (so the inverse map stays in its chart),
    and how far phi is from a conformal map there: per point, (N,) each."""
    vals, jac = jet_components(phi.forward, pts)
    q, J = vals.real, jac.real
    g_here = gram_values(structure.metric, pts)
    pulled = J.swapaxes(-1, -2) @ gram_values(structure.metric, q) @ J
    # conformality: pulled metric proportional to the metric
    scale = (pulled * g_here).sum(axis=(-2, -1)) / (g_here * g_here).sum(axis=(-2, -1))
    moved = transported_density(phi, psi, weight=weight)
    r1, r2 = schrodinger_residual(structure, moved, params, q)
    return {
        "r1": complex_magnitude(r1),
        "r2": complex_magnitude(r2),
        "conformal_residual": sample_max(pulled - scale[:, None, None] * g_here),
    }
