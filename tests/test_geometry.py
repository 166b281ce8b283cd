"""Connection and curvature against hand-computed oracles: flat space, the
unit sphere, and conformally flat metrics where every Christoffel symbol
follows from one scalar gradient."""

import numpy as np
import pytest

from schrogeo import numkernel as nk
from schrogeo.geometry import (
    Chart,
    MetricField,
    OneForm,
    VectorField,
    christoffel,
    christoffel_from_derivatives,
    covariant_derivative,
    divergence,
    exterior_wedge,
    fd_gram_derivatives,
    gram_jets,
    lie_bracket,
    lie_derivative_metric,
    ricci_scalar,
    scalar_laplacian,
    yamabe_residual,
)
from schrogeo.bargmann import flat_bargmann
from schrogeo.homogeneous import SchrodingerManifoldConfig, bulk_metric
from schrogeo.numkernel import SeededSampler


def sphere_metric():
    chart = Chart(("theta", "phi"))

    def gram(p):
        s = nk.sin(p[0])
        return [[1.0, 0.0], [0.0, s * s]]

    return MetricField(chart, gram, (2, 0))


def euclidean(n):
    chart = Chart(tuple(f"x{i}" for i in range(n)))
    eye = np.eye(n)
    return MetricField(chart, lambda p: eye, (n, 0))


def conformal_christoffel_oracle(flat_gram, grad_log_omega):
    """Gamma^a_bc for g = Omega^2 * flat, from the textbook formula
    using only the gradient of log Omega."""
    n = flat_gram.shape[0]
    flat_inv = np.linalg.inv(flat_gram)
    gamma = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                gamma[a, b, c] = (
                    (a == b) * grad_log_omega[c]
                    + (a == c) * grad_log_omega[b]
                    - flat_inv[a] @ grad_log_omega * flat_gram[b, c]
                )
    return gamma


class TestFlat:
    def test_connection_and_curvature_vanish(self):
        bg = flat_bargmann(2)
        for p in SeededSampler(5, [(-1, 1)] * 4).points(4):
            assert np.abs(christoffel(bg.metric, p)).max() == 0.0
            ric, scal = ricci_scalar(bg.metric, p)
            assert np.abs(ric).max() == 0.0
            assert scal == 0.0

    def test_vertical_field_is_parallel(self):
        bg = flat_bargmann(2)
        nabla = covariant_derivative(bg.metric, bg.xi, [0.1, 0.2, 0.3, 0.4])
        assert np.abs(nabla).max() == 0.0

    def test_euclidean_divergence(self):
        m = euclidean(2)
        v = VectorField(m.chart, lambda p: [p[0], p[1]])
        assert divergence(m, v, [0.3, -0.8]) == pytest.approx(2.0)

    def test_laplacian_of_quadratic(self):
        m = euclidean(2)
        val = scalar_laplacian(m, lambda p: p[0] * p[0] + p[1] * p[1], [0.5, 1.5])
        assert val == pytest.approx(4.0, abs=1e-12)


class TestSphere:
    def test_ricci_equals_metric(self):
        m = sphere_metric()
        p = [1.0, 0.3]
        ric, scal = ricci_scalar(m, p)
        g0, _, _ = gram_jets(m, p)
        assert np.abs(ric - g0).max() < 1e-12
        assert scal == pytest.approx(2.0, abs=1e-12)

    def test_christoffel_entries(self):
        # Gamma^theta_phiphi = -sin cos, Gamma^phi_thetaphi = cot
        m = sphere_metric()
        th = 1.0
        gamma = christoffel(m, [th, 0.3])
        assert gamma[0, 1, 1] == pytest.approx(-np.sin(th) * np.cos(th), abs=1e-14)
        assert gamma[1, 0, 1] == pytest.approx(np.cos(th) / np.sin(th), abs=1e-14)
        assert gamma[1, 1, 0] == pytest.approx(np.cos(th) / np.sin(th), abs=1e-14)

    def test_metricity(self):
        # nabla_c g_ab = d_c g_ab - Gamma^e_ca g_eb - Gamma^e_cb g_ae
        m = sphere_metric()
        g0, dg, _ = gram_jets(m, [0.9, 2.0])
        gamma = christoffel_from_derivatives(g0, dg)
        nabla = (
            dg
            - np.einsum("eca,eb->cab", gamma, g0)
            - np.einsum("ecb,ae->cab", gamma, g0)
        )
        assert np.abs(nabla).max() < 1e-13

    def test_laplacian_eigenfunction(self):
        # cos(theta) is the l=1 zonal harmonic: laplacian = -2 cos(theta)
        m = sphere_metric()
        th = 1.0
        val = scalar_laplacian(m, lambda p: nk.cos(p[0]), [th, 0.3])
        assert val == pytest.approx(-2.0 * np.cos(th), abs=1e-12)


class TestCurvedBulk:
    """The squashed metric a(r)*[flat + dr^2] with a = -2*lam/r^2 is
    conformally flat, so its connection has a closed form to check against."""

    def test_christoffel_conformal_oracle(self):
        cfg = SchrodingerManifoldConfig(1, -0.5)
        metric = bulk_metric(cfg)
        p = [0.3, -0.2, 0.7, 2.0]
        gamma = christoffel(metric, p)
        flat = np.zeros((4, 4))
        flat[0, 0] = 1.0
        flat[1, 2] = flat[2, 1] = 1.0
        flat[3, 3] = 1.0
        grad = np.array([0.0, 0.0, 0.0, -1.0 / p[3]])
        oracle = conformal_christoffel_oracle(flat, grad)
        assert np.abs(gamma - oracle).max() < 1e-13

    def test_frozen_entries_at_r_two(self):
        cfg = SchrodingerManifoldConfig(1, -0.5)
        gamma = christoffel(bulk_metric(cfg), [0.1, 0.4, -0.3, 2.0])
        # chart order (x1, t, s, r)
        assert gamma[3, 3, 3] == pytest.approx(-0.5, abs=1e-14)
        assert gamma[0, 0, 3] == pytest.approx(-0.5, abs=1e-14)
        assert gamma[3, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert gamma[3, 1, 2] == pytest.approx(0.5, abs=1e-14)

    def test_einstein_metric_at_critical_lam(self):
        cfg = SchrodingerManifoldConfig(3, -0.5)
        metric = bulk_metric(cfg)
        for p in SeededSampler(9, [(-1, 1)] * 5 + [(0.8, 2.0)]).points(3):
            ric, scal = ricci_scalar(metric, p)
            g0, _, _ = gram_jets(metric, p)
            assert np.abs(ric + 5.0 * g0).max() < 1e-10
            assert scal == pytest.approx(-30.0, abs=1e-9)

    def test_proportionality_off_critical(self):
        cfg = SchrodingerManifoldConfig(3, -1.0)
        metric = bulk_metric(cfg)
        p = [0.2, -0.5, 0.1, 0.9, 0.6, 1.4]
        ric, _ = ricci_scalar(metric, p)
        g0, _, _ = gram_jets(metric, p)
        assert np.abs(ric + 2.5 * g0).max() < 1e-10

    def test_yamabe_on_constants(self):
        # laplacian kills constants, so only the curvature term survives:
        # -(n-2)/(4(n-1)) * R = -(4/20) * (-30) = 6 for d = 3 at lam = -1/2
        cfg = SchrodingerManifoldConfig(3, -0.5)
        metric = bulk_metric(cfg)
        val = yamabe_residual(metric, lambda p: 1.0 + 0.0 * p[0], [0.1] * 5 + [1.3])
        assert complex(val).real == pytest.approx(6.0, abs=1e-9)
        assert complex(val).imag == pytest.approx(0.0, abs=1e-12)

    def test_fd_oracle_agrees_with_jets(self):
        cfg = SchrodingerManifoldConfig(2, -0.7)
        metric = bulk_metric(cfg)
        p = [0.4, -0.1, 0.2, 0.5, 1.1]
        g0, dg, d2g = gram_jets(metric, p)
        g0f, dgf, d2gf = fd_gram_derivatives(metric, p)
        assert np.abs(g0 - g0f).max() < 1e-14
        assert np.abs(dg - dgf).max() < 1e-8
        assert np.abs(d2g - d2gf).max() < 1e-5


class TestLieAndConformal:
    def test_killing_field_has_zero_lie_derivative(self):
        bg = flat_bargmann(2)
        # spatial rotation is an isometry of the flat structure
        rot = VectorField(bg.metric.chart, lambda p: [-p[1], p[0], 0.0, 0.0])
        lie = lie_derivative_metric(bg.metric, rot, [0.3, 0.7, -0.2, 0.5])
        assert np.abs(lie).max() < 1e-14

    def test_conformal_factor_of_dilation_like_field(self):
        # field x d/dx + 2t d/dt + alpha*t fiber rate, frozen check:
        # phi = 2*(alpha*t + chi) with alpha = 0.2, chi = 0 at t = 0.7
        bg = flat_bargmann(2)
        alpha, t0 = 0.2, 0.7

        def comps(p):
            rate = alpha * p[2]
            fiber = -0.5 * alpha * (p[0] * p[0] + p[1] * p[1])
            return [rate * p[0], rate * p[1], alpha * p[2] * p[2], fiber]

        v = VectorField(bg.metric.chart, comps)
        p = [0.5, -0.3, t0, 0.2]
        g0, _, _ = gram_jets(bg.metric, p)
        lie = lie_derivative_metric(bg.metric, v, p)
        # L_v g = phi g with phi = tr(g^{-1} L_v g) / n
        phi = float(np.einsum("ij,ij->", np.linalg.inv(g0), lie)) / len(p)
        assert phi == pytest.approx(2.0 * alpha * t0, abs=1e-12)
        assert np.linalg.norm(lie - phi * g0) / np.linalg.norm(g0) < 1e-12

    def test_lie_bracket_coordinate_fields(self):
        chart = Chart(("x", "y"))
        v = VectorField(chart, lambda p: [p[1], 0.0 * p[0]])
        w = VectorField(chart, lambda p: [0.0 * p[0], p[0]])
        # [y d_x, x d_y] = y d_y - x d_x
        b = lie_bracket(v, w, [0.4, 0.9])
        assert b[0] == pytest.approx(-0.4)
        assert b[1] == pytest.approx(0.9)


class TestExterior:
    def test_contact_like_form(self):
        chart = Chart(("x1", "t", "s"))
        w = OneForm(chart, lambda p: [0.0 * p[0], 1.0 + 0.0 * p[0], p[0]])
        dw, wedge = exterior_wedge(w, [0.6, 0.1, -0.4])
        assert dw[0, 2] == pytest.approx(1.0)
        assert dw[2, 0] == pytest.approx(-1.0)
        assert wedge[1, 0, 2] == pytest.approx(1.0)

    def test_closed_form_with_radial_weight(self):
        chart = Chart(("x1", "t", "s", "r"))

        def comps(p):
            w = 1.0 / (p[3] * p[3])
            return [0.0 * p[0], w, 0.0 * p[0], 0.0 * p[0]]

        w = OneForm(chart, comps)
        dw, wedge = exterior_wedge(w, [0.2, 0.5, -0.1, 1.0])
        assert dw[3, 1] == pytest.approx(-2.0)
        assert dw[1, 3] == pytest.approx(2.0)
        # proportional to dt, and dw has a dr^dt leg only: w ^ dw = 0
        assert np.abs(wedge).max() < 1e-14

    def test_exact_form_is_closed(self):
        chart = Chart(("x", "y"))
        # w = d(x^2 y) = 2xy dx + x^2 dy
        w = OneForm(chart, lambda p: [2.0 * p[0] * p[1], p[0] * p[0]])
        dw, _ = exterior_wedge(w, [1.1, -0.7])
        assert np.abs(dw).max() < 1e-13
