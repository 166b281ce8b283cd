"""Reference implementations that the package no longer runs, kept as
independent oracles for the tests."""

import numpy as np

from schrogeo.geometry import _first_kind, _invert_gram


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
