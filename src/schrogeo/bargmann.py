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
alone.  The residual functions take a batch of shape (N, n), one point
being the batch of one p[None], and return (N,) arrays.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numkernel as nk
from .ambient import (
    flat_metric,
    group_inverse,
    projective_action,
    projective_denominator,
    xi_field,
)
from .geometry import (
    MetricField,
    MetricJets,
    VectorField,
    covariant_derivative,
    divergence,
    exterior_wedge,
    gram_jets,
    gram_values,
    jet_components,
    yamabe_residual,
)
from .numkernel import ContractViolationError, Jet2, jet_value, sample_max

__all__ = [
    "BargmannStructure",
    "ChartMap",
    "DensityFunction",
    "SchrodingerParams",
    "bargmann_axioms_check",
    "complex_magnitude",
    "conformal_equivalence_check",
    "density_weight",
    "flat_bargmann",
    "group_map",
    "plane_wave",
    "schrodinger_residual",
    "symmetry_transport_check",
    "transported_density",
]


class BargmannStructure(NamedTuple):
    """Metric plus the distinguished parallel null direction; its clock
    theta = g(xi, .) is read off a pass of the metric (``MetricJets.clock``)."""

    metric: MetricField
    xi: VectorField
    d: int


class SchrodingerParams(NamedTuple):
    mass: float = 1.0
    hbar: float = 1.0


class DensityFunction(NamedTuple):
    """Coefficient of a density of weight ``weight``; the coefficient callable
    must accept jets and may return complex jets."""

    coefficient: Callable[[Sequence], Jet2]
    weight: float


def density_weight(d: int) -> float:
    """The conformal weight d/(2d+4) making the wave operator covariant."""
    return d / (2.0 * d + 4.0)


def flat_bargmann(d: int) -> BargmannStructure:
    return BargmannStructure(metric=flat_metric(d), xi=xi_field(d, d + 2), d=d)


# ---------------------------------------------------------------------------
# structure checks


def bargmann_axioms_check(structure: BargmannStructure, jets: MetricJets) -> dict:
    """Nullity of xi, parallelism of xi, closedness of the clock, and
    vanishing divergence on a pass of the structure's metric (order 1
    suffices): by axiom, its residual at each point, (N,).  One evaluation
    of xi on the pass's seeds and one inverse Gram serve the four axioms;
    the clock is read off the pass."""
    xi = structure.xi
    xv, _ = jets.components(xi.components)
    null = np.einsum("...a,...ab,...b->...", xv, jets.g0, xv)
    dw, _ = exterior_wedge(*jets.clock(xi))
    found = {
        "xi_null": null,
        "xi_parallel": covariant_derivative(jets, xi),
        "clock_closed": dw,
        "xi_divergence_free": divergence(jets, xi),
    }
    return {name: sample_max(v) for name, v in found.items()}


def conformal_equivalence_check(omega, structure: BargmannStructure, jets: MetricJets):
    """The largest entry of d Omega ^ theta at each point of a pass of the
    structure's metric (order 1 suffices), (N,): zero when the conformal
    factor descends to the time axis.  Omega and the clock are read off the
    pass."""
    grad = jets.scalar(omega).grad.T
    tv = jets.theta(structure.xi)
    wedge = grad[:, :, None] * tv[:, None, :] - tv[:, :, None] * grad[:, None, :]
    return sample_max(wedge)


# ---------------------------------------------------------------------------
# densities and the covariant Schrödinger pair


def _lie_term(jets: MetricJets, field: VectorField, weight: float, fj: Jet2):
    """X(f) + w Div(X) f on the pass's batch, from the jet of f on its
    seeds; one evaluation of X serves both terms."""
    xv, _ = jets.components(field.components)
    return np.einsum("...a,a...->...", xv, fj.grad) + weight * divergence(jets, field) * fj.value


def schrodinger_residual(
    structure: BargmannStructure,
    psi: DensityFunction,
    params: SchrodingerParams,
    p: np.ndarray,
) -> tuple:
    """Residuals of the covariant pair:

    r1 = (Delta_g - (n-2)/(4(n-1)) R) f,
    r2 = (hbar/i) (xi(f) + w Div(xi) f) - m f.

    Two (N,) complex arrays on a batch (N, n), sample by sample bitwise
    equal to the values of that point alone.
    Requires the density to carry the covariant weight d/(2d+4).  One jet
    pass of the metric, seeded once, one inverse Gram and one evaluation of
    the coefficient and of xi serve both members.
    """
    return _covariant_pair(structure, psi, params, gram_jets(structure.metric, p))


def _covariant_pair(structure: BargmannStructure, psi, params, jets: MetricJets) -> tuple:
    """``schrodinger_residual`` on an order-2 pass of the structure's metric."""
    w = density_weight(structure.d)
    if abs(psi.weight - w) > 1e-12:
        raise ContractViolationError(
            f"density weight {psi.weight} != covariant weight {w}"
        )
    fj = jets.scalar(psi.coefficient)
    r1 = yamabe_residual(jets, fj)
    lie = _lie_term(jets, structure.xi, psi.weight, fj)
    return r1, (params.hbar / 1j) * lie - params.mass * fj.value


def complex_magnitude(z) -> np.ndarray:
    """|z| per sample, rounded as Python's abs(complex) rounds it (numpy's
    vectorized complex abs can differ in the last bit)."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def plane_wave(
    d: int,
    k: Sequence[float],
    params: SchrodingerParams = SchrodingerParams(),
) -> DensityFunction:
    """exp(i (k.x + omega t + (m/hbar) s)) with omega = -hbar |k|^2 / (2m),
    which annihilates both members of the covariant pair on the flat
    structure.

    ``k`` is one wave vector (d,), or a per-sample stack (N, d) whose row s
    is the wave at sample s of a batch of N points: one pass over N (wave,
    point) pairs, each bitwise the pass of its wave alone.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim not in (1, 2) or k.shape[-1] != d:
        raise ContractViolationError(f"wave vector must have {d} components")
    # |k|^2 of each wave as the dot product of that wave alone
    omega = -params.hbar * (k[..., None, :] @ k[..., None])[..., 0, 0] / (2.0 * params.mass)
    ms = params.mass / params.hbar
    k = k.T  # k[i]: component i, of each wave on a stack

    def coeff(x):
        phase = omega * x[d] + ms * x[d + 1]
        for i in range(d):
            phase = phase + k[i] * x[i]
        return nk.cos(phase) + 1j * nk.sin(phase)

    return DensityFunction(coefficient=coeff, weight=density_weight(d))


# ---------------------------------------------------------------------------
# finite symmetries as chart maps


class ChartMap(NamedTuple):
    """Diffeomorphism of the flat chart with jet-evaluable forward/inverse
    maps and the jet-evaluable Jacobian-determinant factor |det D(inverse)|
    used by density transport."""

    forward: Callable[[Sequence], list]
    inverse: Callable[[Sequence], list]
    jacobian_factor: Callable[[Sequence], Jet2]


def group_map(A: np.ndarray) -> ChartMap:
    """Projective action of an (E, d+4, d+4) stack of stabilizer elements
    as a chart map: one element (E = 1) acts on every sample of a batch,
    and a per-sample stack (E = N) acts element s on sample s.

    The action is conformal with factor Omega(x) = 1 / (e - a t), so
    |det D(inverse)|(p) = |e' - a' t|^{-(d+2)} with (a', e') read off the
    inverse element; that closed form is what makes the transported
    coefficient jet-evaluable to second order.
    """
    if np.ndim(A) != 3:
        raise ContractViolationError(f"group_map takes an (E, n, n) stack, got {np.shape(A)}")
    d = A.shape[-1] - 4
    Ai = group_inverse(A)

    def on_batch(B, x):
        # the stack broadcast over the batch of x, so a jet meets (N,) entries
        return np.broadcast_to(B, np.shape(jet_value(x[d])) + B.shape[1:])

    def forward(x):
        return projective_action(on_batch(A, x), x)

    def inverse(x):
        return projective_action(on_batch(Ai, x), x)

    def jacobian_factor(x):
        den = projective_denominator(on_batch(Ai, x), x[d])
        return (den * den) ** (-(d + 2) / 2.0) if isinstance(den, Jet2) else abs(den) ** (-(d + 2.0))

    return ChartMap(forward, inverse, jacobian_factor)


# ---------------------------------------------------------------------------
# density transport


def transported_density(
    phi: ChartMap, psi: DensityFunction, weight: float | np.ndarray | None = None
) -> DensityFunction:
    """Pushforward coefficient (f o phi^{-1}) |det D phi^{-1}|^w, with w the
    density's weight, or ``weight``: a number, or an (N,) array whose entry
    s is the weight at sample s of a batch of N points."""
    w = psi.weight if weight is None else weight

    def coeff(x):
        pre = phi.inverse(x)
        fj = psi.coefficient(pre)
        return fj * phi.jacobian_factor(x) ** w

    return DensityFunction(coefficient=coeff, weight=psi.weight)


def symmetry_transport_check(
    phi: ChartMap,
    psi: DensityFunction,
    structure: BargmannStructure,
    params: SchrodingerParams,
    pts: np.ndarray,
    weight: float | np.ndarray | None = None,
) -> dict:
    """Residuals of the covariant pair for the transported density at the
    images of the points ``pts`` (so the inverse map stays in its chart),
    and how far phi is from a conformal map there: per point, (N,) each.
    One order-2 pass at the images serves the pullback and the pair.

    A per-sample map (``group_map`` of an (N, d+4, d+4) stack), wave
    (``plane_wave`` of an (N, d) stack) and (N,) ``weight`` transport N
    (element, wave, weight) triples in that one pass, sample s bitwise the
    pass of its triple alone."""
    vals, jac = jet_components(phi.forward, pts)
    q, J = vals.real, jac.real
    jets = gram_jets(structure.metric, q)
    g_here = gram_values(structure.metric, pts)
    pulled = J.swapaxes(-1, -2) @ jets.g0 @ J
    # conformality: pulled metric proportional to the metric
    scale = (pulled * g_here).sum(axis=(-2, -1)) / (g_here * g_here).sum(axis=(-2, -1))
    moved = transported_density(phi, psi, weight=weight)
    r1, r2 = _covariant_pair(structure, moved, params, jets)
    return {
        "r1": complex_magnitude(r1),
        "r2": complex_magnitude(r2),
        "conformal_residual": sample_max(pulled - scale[:, None, None] * g_here),
    }
