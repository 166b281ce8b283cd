"""Connection and curvature against hand-computed oracles: flat space, the
unit sphere, and conformally flat metrics where every Christoffel symbol
follows from one scalar gradient."""

import inspect
import textwrap

import numpy as np
import pytest
from oracles import (
    dense_d2g,
    einsum_ricci,
    factored,
    fd_gram_derivatives,
    generic_metric_derivatives,
    gram_jets_loop,
    gram_values_loop,
    scalar_laplacian,
)

from schrogeo import geometry
from schrogeo import numkernel as nk
from schrogeo.geometry import (
    MetricField,
    OneForm,
    VectorField,
    christoffel_from_derivatives,
    covariant_derivative,
    divergence,
    exterior_wedge,
    gram_jets,
    gram_values,
    inverse_gram,
    jet_components,
    laplacian,
    lie_bracket,
    lie_derivative_metric,
    ricci_from_derivatives,
    yamabe_residual,
)
from schrogeo.ambient import flat_gram_matrix, flat_metric, xi_field
from schrogeo.bargmann import flat_bargmann
from schrogeo.homogeneous import (
    SchrodingerManifoldConfig,
    boundary_metric,
    bulk_boxes,
    bulk_metric,
)
from schrogeo.numkernel import SeededSampler
from schrogeo.suites import SuiteConfig, run_suite


def christoffel(metric, p):
    """The Levi-Civita symbols of one first-order pass."""
    jets = gram_jets(metric, p, order=1)
    return christoffel_from_derivatives(jets.ginv, jets.dg)


def sphere_metric():
    def gram(p):
        s = nk.sin(p[0])
        return [[1.0, 0.0], [0.0, s * s]]

    return MetricField(gram)


def euclidean(n):
    eye = np.eye(n)
    return MetricField(lambda p: eye)


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
        pts = SeededSampler(5, [(-1, 1)] * 4).points(4)
        assert np.abs(christoffel(bg.metric, pts)).max() == 0.0
        ric, scal = gram_jets(bg.metric, pts).ricci()
        assert np.abs(ric).max() == 0.0
        assert np.all(scal == 0.0)

    def test_vertical_field_is_parallel(self):
        bg = flat_bargmann(2)
        nabla = covariant_derivative(gram_jets(bg.metric, [[0.1, 0.2, 0.3, 0.4]], 1), bg.xi)
        assert np.abs(nabla).max() == 0.0

    def test_euclidean_divergence(self):
        m = euclidean(2)
        v = VectorField(lambda p: [p[0], p[1]])
        assert divergence(gram_jets(m, [[0.3, -0.8]], 1), v)[0] == pytest.approx(2.0)

    def test_laplacian_of_quadratic(self):
        m = euclidean(2)
        val = scalar_laplacian(m, lambda p: p[0] * p[0] + p[1] * p[1], [[0.5, 1.5]])
        assert val[0] == pytest.approx(4.0, abs=1e-12)


class TestSphere:
    def test_ricci_equals_metric(self):
        m = sphere_metric()
        p = [[1.0, 0.3]]
        jets = gram_jets(m, p)
        ric, scal = jets.ricci()
        g0 = jets.g0
        assert np.abs(ric - g0).max() < 1e-12
        assert scal[0] == pytest.approx(2.0, abs=1e-12)

    def test_christoffel_entries(self):
        # Gamma^theta_phiphi = -sin cos, Gamma^phi_thetaphi = cot
        m = sphere_metric()
        th = 1.0
        gamma = christoffel(m, [[th, 0.3]])[0]
        assert gamma[0, 1, 1] == pytest.approx(-np.sin(th) * np.cos(th), abs=1e-14)
        assert gamma[1, 0, 1] == pytest.approx(np.cos(th) / np.sin(th), abs=1e-14)
        assert gamma[1, 1, 0] == pytest.approx(np.cos(th) / np.sin(th), abs=1e-14)

    def test_metricity(self):
        # nabla_c g_ab = d_c g_ab - Gamma^e_ca g_eb - Gamma^e_cb g_ae
        m = sphere_metric()
        jets = gram_jets(m, [[0.9, 2.0]], order=1)
        g0, dg = jets.g0[0], jets.dg[0]
        gamma = christoffel_from_derivatives(jets.ginv[0], dg)
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
        val = scalar_laplacian(m, lambda p: nk.cos(p[0]), [[th, 0.3]])
        assert val[0] == pytest.approx(-2.0 * np.cos(th), abs=1e-12)


class TestCurvedBulk:
    """The squashed metric a(r)*[flat + dr^2] with a = -2*lam/r^2 is
    conformally flat, so its connection has a closed form to check against."""

    def test_christoffel_conformal_oracle(self):
        cfg = SchrodingerManifoldConfig(1, -0.5)
        metric = bulk_metric(cfg)
        p = [0.3, -0.2, 0.7, 2.0]
        gamma = christoffel(metric, [p])[0]
        flat = np.zeros((4, 4))
        flat[0, 0] = 1.0
        flat[1, 2] = flat[2, 1] = 1.0
        flat[3, 3] = 1.0
        grad = np.array([0.0, 0.0, 0.0, -1.0 / p[3]])
        oracle = conformal_christoffel_oracle(flat, grad)
        assert np.abs(gamma - oracle).max() < 1e-13

    def test_frozen_entries_at_r_two(self):
        cfg = SchrodingerManifoldConfig(1, -0.5)
        gamma = christoffel(bulk_metric(cfg), [[0.1, 0.4, -0.3, 2.0]])[0]
        # chart order (x1, t, s, r)
        assert gamma[3, 3, 3] == pytest.approx(-0.5, abs=1e-14)
        assert gamma[0, 0, 3] == pytest.approx(-0.5, abs=1e-14)
        assert gamma[3, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert gamma[3, 1, 2] == pytest.approx(0.5, abs=1e-14)

    def test_einstein_metric_at_critical_lam(self):
        cfg = SchrodingerManifoldConfig(3, -0.5)
        metric = bulk_metric(cfg)
        pts = SeededSampler(9, [(-1, 1)] * 5 + [(0.8, 2.0)]).points(3)
        jets = gram_jets(metric, pts)
        ric, scal = jets.ricci()
        g0 = jets.g0
        assert np.abs(ric + 5.0 * g0).max() < 1e-10
        assert np.abs(scal + 30.0).max() <= 1e-9

    def test_proportionality_off_critical(self):
        cfg = SchrodingerManifoldConfig(3, -1.0)
        metric = bulk_metric(cfg)
        p = [[0.2, -0.5, 0.1, 0.9, 0.6, 1.4]]
        jets = gram_jets(metric, p)
        ric, _ = jets.ricci()
        g0 = jets.g0
        assert np.abs(ric + 2.5 * g0).max() < 1e-10

    def test_yamabe_on_constants(self):
        # laplacian kills constants, so only the curvature term survives:
        # -(n-2)/(4(n-1)) * R = -(4/20) * (-30) = 6 for d = 3 at lam = -1/2
        cfg = SchrodingerManifoldConfig(3, -0.5)
        metric = bulk_metric(cfg)
        jets = gram_jets(metric, [[0.1] * 5 + [1.3]])
        val = yamabe_residual(jets, jets.scalar(lambda p: 1.0 + 0.0 * p[0]))
        assert val.shape == (1,)
        assert complex(val[0]).real == pytest.approx(6.0, abs=1e-9)
        assert complex(val[0]).imag == pytest.approx(0.0, abs=1e-12)

    def test_fd_oracle_agrees_with_jets(self):
        cfg = SchrodingerManifoldConfig(2, -0.7)
        metric = bulk_metric(cfg)
        p = [[0.4, -0.1, 0.2, 0.5, 1.1]]
        jets = gram_jets(metric, p)
        g0, dg, d2g = jets.g0, jets.dg, dense_d2g(jets.hess, jets.pattern)
        g0f, dgf, d2gf = fd_gram_derivatives(metric, p)
        assert np.abs(g0 - g0f).max() < 1e-14
        assert np.abs(dg - dgf).max() < 1e-8
        assert np.abs(d2g - d2gf).max() < 1e-5


def assert_matches_the_einsum_oracle(ric, scalar, g0, dg, d2g):
    """Within 8 eps of the largest oracle entry, sample by sample."""
    ref, ref_scalar = einsum_ricci(g0, dg, d2g)
    tol = 8 * np.finfo(float).eps * np.abs(ref).max(axis=(-1, -2))
    assert np.all(np.abs(ric - ref).max(axis=(-1, -2)) <= tol)
    ginv = np.linalg.inv(g0)
    assert np.all(np.abs(scalar - ref_scalar) <= tol * np.abs(ginv).sum(axis=(-1, -2)))


class TestRicciKernel:
    @pytest.mark.parametrize("samples", [1, 5, 20])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_the_einsum_oracle_on_generic_metrics(self, d, samples):
        # a dense d2g enters as one entry per position
        rng = np.random.default_rng(100 * d + samples)
        g0, dg, d2g = generic_metric_derivatives(rng, d + 3, (samples,))
        ric, scalar = ricci_from_derivatives(np.linalg.inv(g0), dg, *factored(d2g))
        assert_matches_the_einsum_oracle(ric, scalar, g0, dg, d2g)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_the_einsum_oracle_on_per_sample_bulk_metrics(self, d):
        # per-sample couplings: a = -2 lam / rh^2 and the clock term are
        # the only non-constant entries, so no n^4 array reaches the kernel
        metric = per_sample_bulk(d, 6)
        pts = SeededSampler(31 + d, [(-1.2, 1.2)] * (d + 2) + [(0.7, 2.2)]).points(6)
        jets = gram_jets(metric, pts)
        n = d + 3
        assert jets.hess.shape == (6, 2, n, n) and jets.pattern.shape == (2, n, n)
        ric, scalar = jets.ricci()
        d2g = dense_d2g(jets.hess, jets.pattern)
        assert_matches_the_einsum_oracle(ric, scalar, jets.g0, jets.dg, d2g)

    def test_fd_derivatives_give_the_einstein_ricci(self):
        # central differences of Gram values: no jet on this path
        cfg = SchrodingerManifoldConfig(2, -0.5)
        g0, dg, d2g = fd_gram_derivatives(bulk_metric(cfg), [[0.4, -0.1, 0.2, 0.5, 1.1]])
        ric, scal = geometry.ricci_from_derivatives(np.linalg.inv(g0), dg, *factored(d2g))
        assert np.abs(ric + 4.0 * g0).max() < 1e-4
        assert scal[0] == pytest.approx(-20.0, abs=1e-3)


def constant_gram_metric(n: int, seed: int) -> MetricField:
    """A metric whose Gram is one dense constant Lorentzian matrix."""
    g0, _, _ = generic_metric_derivatives(np.random.default_rng(seed), n)
    rows = g0.tolist()
    return MetricField(lambda p: rows)


CONSTANT_METRICS = [
    *(pytest.param(flat_bargmann(d).metric, d + 2, id=f"flat_bargmann_d{d}") for d in (1, 2, 3, 4)),
    *(pytest.param(constant_gram_metric(n, n), n, id=f"dense_n{n}") for n in (3, 5, 7)),
]


def _forbidden(name):
    def boom(*args, **kwargs):
        raise AssertionError(f"{name} called on a constant metric")

    return boom


class TestConstantMetricShortcut:
    """A constant Gram (no entry with a Hessian and dg all zero) skips the
    curvature contraction and the Christoffel and density terms, and gives
    what the full formulas give, up to the sign of zeros."""

    @pytest.mark.parametrize("metric,n", CONSTANT_METRICS)
    def test_ricci_equals_the_einsum_kernel(self, monkeypatch, metric, n):
        pts = SeededSampler(5, [(-1.0, 1.0)] * n).points(6)
        # the oracle has its own symbols of the first kind
        monkeypatch.setattr(geometry, "_first_kind", _forbidden("_first_kind"))
        for p in (pts, pts[:1]):
            jets = gram_jets(metric, p)
            assert len(jets.pattern) == 0 and not jets.dg.any()
            ref, ref_scalar = einsum_ricci(jets.g0, jets.dg, dense_d2g(jets.hess, jets.pattern))
            ric, scalar = jets.ricci()
            assert ric.shape == ref.shape and np.array_equal(ric, ref)
            assert scalar.shape == (len(p),) and np.array_equal(scalar, ref_scalar)

    @pytest.mark.parametrize("metric,n", CONSTANT_METRICS)
    def test_laplacian_and_divergence_equal_the_full_terms(self, monkeypatch, metric, n):
        pts = SeededSampler(6, [(-1.0, 1.0)] * n).points(5)
        field = VectorField(lambda x: [x[(i + 1) % n] * x[i] for i in range(n)])

        def f(x):
            return nk.sin(x[0]) * nk.exp(x[n - 1]) + x[n // 2] * x[n // 2]

        jets = gram_jets(metric, pts)
        g0, dg = jets.g0, jets.dg
        ginv = np.linalg.inv(g0)
        fj = f(nk.seed_point(pts))
        gamma = christoffel_from_derivatives(ginv, dg)
        hess, grad = np.moveaxis(fj.hess, -1, 0), fj.grad.T
        lap = np.einsum("...ab,...ab->...", ginv, hess) - np.einsum(
            "...ab,...cab,...c->...", ginv, gamma, grad
        )
        xv, xj = geometry.jet_components(field.components, pts)
        div = np.trace(xj, axis1=-2, axis2=-1) + 0.5 * np.einsum(
            "...a,...ij,...aij->...", xv, ginv, dg
        )
        monkeypatch.setattr(
            geometry, "christoffel_from_derivatives", _forbidden("christoffel_from_derivatives")
        )
        assert np.array_equal(laplacian(jets, jets.scalar(f)), lap)
        assert np.array_equal(divergence(jets, field), div)

    def test_an_empty_pattern_with_a_gradient_takes_the_full_contraction(self, monkeypatch):
        # no entry with a Hessian, but a nonzero first derivative: the
        # symbols and their products are not zero
        n, samples = 5, 4
        g0, dg, _ = generic_metric_derivatives(np.random.default_rng(8), n, (samples,))
        hess, pattern = np.zeros((samples, 0, n, n)), np.zeros((0, n, n))
        calls = []
        first_kind = geometry._first_kind

        def spy(a):
            calls.append(a.shape)
            return first_kind(a)

        monkeypatch.setattr(geometry, "_first_kind", spy)
        ric, scalar = ricci_from_derivatives(np.linalg.inv(g0), dg, hess, pattern)
        assert calls == [dg.shape]
        assert np.abs(ric).max() > 0.1
        assert_matches_the_einsum_oracle(ric, scalar, g0, dg, np.zeros((samples,) + (n,) * 4))


GRID = [(lam, mu) for lam in (-2.0, -1.0, -0.5, -0.3) for mu in (-1.0, 0.0, 1.0, 2.0)]


class TestCurvedOperators:
    """The Laplacian and the divergence off the constant-metric shortcut,
    on the bulk metric a [dx^2 + 2 dt ds + dr^2] - mu a^2 dt^2 with
    a = -2 lam / r^2.  Whatever mu, g^rr = 1/a and det g = -a^(d+3), so
    Delta r^D = D (D - d - 2) r^D / (-2 lam) and Div(r d_r) = -(d + 2)."""

    @staticmethod
    def passes():
        for d in (1, 2, 3):
            pts = SeededSampler(40 + d, [(-1.2, 1.2)] * (d + 2) + [(0.7, 2.2)]).points(6)
            for lam, mu in GRID:
                metric = bulk_metric(SchrodingerManifoldConfig(d, lam, mu))
                yield d, lam, pts, gram_jets(metric, pts)

    def test_laplacian_of_a_power_of_r(self):
        for d, lam, pts, jets in self.passes():
            assert jets.dg.any()
            r = pts[:, d + 2]
            for power in (0.4, 2.3):
                got = geometry.laplacian(jets, jets.scalar(lambda x: x[d + 2] ** power))
                want = power * (power - d - 2.0) * r**power / (-2.0 * lam)
                assert np.all(np.abs(got - want) <= 32 * np.finfo(float).eps * np.abs(want))

    def test_divergence_of_the_radial_field(self):
        for d, _, _, jets in self.passes():
            n = d + 3
            radial = VectorField(lambda x: [0.0] * (n - 1) + [x[n - 1]])
            got = geometry.divergence(jets, radial)
            assert np.all(np.abs(got + (d + 2.0)) <= 16 * np.finfo(float).eps * (d + 2.0))


class TestBulkInverse:
    """``inverse_gram`` on the bulk metric against its closed form.  The
    Gram is a [dx^2 + 2 dt ds + dr^2] - mu a^2 dt^2 with a = -2 lam / r^2,
    so g^tt = 0, g^ts = 1/a, g^ss = mu and g^xx = g^rr = 1/a, and every
    other entry is zero."""

    def test_the_closed_form(self):
        ulps = 4 * np.finfo(float).eps
        for d in (1, 2, 3, 6, 8):
            pts = SeededSampler(50 + d, bulk_boxes(d)).points(20)
            r = pts[:, d + 2]
            diagonal = [*range(d), d + 2]
            for lam, mu in GRID:
                g0 = gram_values(bulk_metric(SchrodingerManifoldConfig(d, lam, mu)), pts)
                ginv = inverse_gram(g0)
                inv_a = 1.0 / ((-2.0 * lam) / (r * r))
                assert np.array_equal(ginv[:, d, d], np.zeros(len(pts)))
                for got in (ginv[:, d, d + 1], ginv[:, d + 1, d], *ginv[:, diagonal, diagonal].T):
                    assert np.all(np.abs(got - inv_a) <= ulps * np.abs(inv_a))
                assert np.all(np.abs(ginv[:, d + 1, d + 1] - mu) <= ulps * abs(mu))
                rest = np.ones(g0.shape[1:], dtype=bool)
                rest[diagonal, diagonal] = False
                rest[d : d + 2, d : d + 2] = False
                assert not ginv[:, rest].any()


# the records the (t, s) block's inverse feeds: Ricci through the pass's
# ginv, and the null-fluid identity built on it
FED_BY_THE_PAIR = [f"homogeneous_d{d}_{kind}" for d in (1, 2) for kind in ("nullfluid", "einstein")]


def test_a_flipped_pair_inverse_fails_the_closed_form_and_the_bulk_records(monkeypatch):
    name = "_pair_inverse"
    flipped = _mutated(
        name,
        "return d / det, -b / det, -c / det, a / det",
        "return d / det, b / det, c / det, a / det",
    )
    monkeypatch.setattr(geometry, name, flipped)
    with pytest.raises(AssertionError):
        TestBulkInverse().test_the_closed_form()
    records = {c.name: c for c in run_suite(SuiteConfig("homogeneous", dims=(1, 2))).checks}
    assert {records[n].status for n in FED_BY_THE_PAIR} == {"FAIL"}


def _mutated(name, old, new):
    """The geometry function ``name`` recompiled with one source edit."""
    src = textwrap.dedent(inspect.getsource(getattr(geometry, name)))
    assert src.count(old) == 1
    scope = dict(vars(geometry))
    exec(compile(src.replace(old, new), geometry.__file__, "exec"), scope)
    return scope[name]


@pytest.mark.parametrize(
    "name, old, new, test",
    [
        pytest.param(
            "laplacian", "return lap - np.einsum", "return lap + 0.0 * np.einsum",
            "test_laplacian_of_a_power_of_r", id="drop-laplacian-gamma",
        ),
        pytest.param(
            "divergence", "div = div + 0.5 * np.einsum", "div = div + 0.0 * np.einsum",
            "test_divergence_of_the_radial_field", id="drop-divergence-density",
        ),
    ],
)
def test_a_dropped_operator_term_fails_the_closed_forms(monkeypatch, name, old, new, test):
    monkeypatch.setattr(geometry, name, _mutated(name, old, new))
    with pytest.raises(AssertionError):
        getattr(TestCurvedOperators(), test)()


# each Ricci oracle test that a dropped term of the kernel must fail
SPHERE = (TestSphere, "test_ricci_equals_metric")
EINSTEIN = (TestCurvedBulk, "test_einstein_metric_at_critical_lam")
PROPORTIONAL = (TestCurvedBulk, "test_proportionality_off_critical")
FD = (TestRicciKernel, "test_fd_derivatives_give_the_einstein_ricci")


@pytest.mark.parametrize(
    "old, new, oracles",
    [
        pytest.param(
            "grad += 0.5 * dd", "grad += 0.0 * dd",
            [SPHERE, EINSTEIN, PROPORTIONAL, FD], id="drop-D",
        ),
        pytest.param(
            "a + a.swapaxes(-1, -2) - b", "a - b",
            [EINSTEIN, PROPORTIONAL, FD], id="drop-A-transpose",
        ),
    ],
)
def test_a_dropped_ricci_term_fails_the_oracles(monkeypatch, old, new, oracles):
    name = "ricci_from_derivatives"
    monkeypatch.setattr(geometry, name, _mutated(name, old, new))
    for cls, name in oracles:
        with pytest.raises(AssertionError):
            getattr(cls(), name)()


class TestLieAndConformal:
    def test_killing_field_has_zero_lie_derivative(self):
        bg = flat_bargmann(2)
        # spatial rotation is an isometry of the flat structure
        rot = VectorField(lambda p: [-p[1], p[0], 0.0, 0.0])
        lie = lie_derivative_metric(gram_jets(bg.metric, [[0.3, 0.7, -0.2, 0.5]], 1), rot)
        assert np.abs(lie).max() < 1e-14

    def test_lie_derivative_matches_the_einsum_form(self):
        # a field with no Killing symmetry on a deformed bulk metric, so that
        # every term of L_Z g = Z^c d_c g + g_cb d_a Z^c + g_ac d_b Z^c counts
        cfg = SchrodingerManifoldConfig(2, -0.7, 1.3)
        field = VectorField(
            lambda p: [p[1] * p[4], p[0] * p[0] - p[2], p[3] * p[4], p[0] * p[2] + p[1], p[0]]
        )
        pts = SeededSampler(11, bulk_boxes(2)).points(6)
        jets = gram_jets(bulk_metric(cfg), pts, 1)
        zv, zj = jets.components(field.components)
        want = (
            np.einsum("...c,...cab->...ab", zv, jets.dg)
            + np.einsum("...cb,...ca->...ab", jets.g0, zj)
            + np.einsum("...ac,...cb->...ab", jets.g0, zj)
        )
        got = lie_derivative_metric(jets, field)
        assert min(np.abs(a).max() for a in (zv, zj, want)) > 0.1
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_conformal_factor_of_dilation_like_field(self):
        # field x d/dx + 2t d/dt + alpha*t fiber rate, frozen check:
        # phi = 2*(alpha*t + chi) with alpha = 0.2, chi = 0 at t = 0.7
        bg = flat_bargmann(2)
        alpha, t0 = 0.2, 0.7

        def comps(p):
            rate = alpha * p[2]
            fiber = -0.5 * alpha * (p[0] * p[0] + p[1] * p[1])
            return [rate * p[0], rate * p[1], alpha * p[2] * p[2], fiber]

        v = VectorField(comps)
        p = [0.5, -0.3, t0, 0.2]
        jets = gram_jets(bg.metric, [p], order=1)
        g0 = jets.g0[0]
        lie = lie_derivative_metric(jets, v)[0]
        # L_v g = phi g with phi = tr(g^{-1} L_v g) / n
        phi = float(np.einsum("ij,ij->", np.linalg.inv(g0), lie)) / len(p)
        assert phi == pytest.approx(2.0 * alpha * t0, abs=1e-12)
        assert np.linalg.norm(lie - phi * g0) / np.linalg.norm(g0) < 1e-12

    def test_lie_bracket_coordinate_fields(self):
        v = VectorField(lambda p: [p[1], 0.0 * p[0]])
        w = VectorField(lambda p: [0.0 * p[0], p[0]])
        # [y d_x, x d_y] = y d_y - x d_x
        b = lie_bracket(v, w, [[0.4, 0.9]])[0]
        assert b[0] == pytest.approx(-0.4)
        assert b[1] == pytest.approx(0.9)


def _wedge(w: OneForm, p):
    """``exterior_wedge`` of a one-form's values and Jacobian at ``p``."""
    return exterior_wedge(*jet_components(w.components, p))


class TestExterior:
    def test_contact_like_form(self):
        w = OneForm(lambda p: [0.0 * p[0], 1.0 + 0.0 * p[0], p[0]])
        dw, wedge = (a[0] for a in _wedge(w, [[0.6, 0.1, -0.4]]))
        assert dw[0, 2] == pytest.approx(1.0)
        assert dw[2, 0] == pytest.approx(-1.0)
        assert wedge[1, 0, 2] == pytest.approx(1.0)

    def test_closed_form_with_radial_weight(self):
        def comps(p):
            w = 1.0 / (p[3] * p[3])
            return [0.0 * p[0], w, 0.0 * p[0], 0.0 * p[0]]

        w = OneForm(comps)
        dw, wedge = (a[0] for a in _wedge(w, [[0.2, 0.5, -0.1, 1.0]]))
        assert dw[3, 1] == pytest.approx(-2.0)
        assert dw[1, 3] == pytest.approx(2.0)
        # proportional to dt, and dw has a dr^dt leg only: w ^ dw = 0
        assert np.abs(wedge).max() < 1e-14

    def test_exact_form_is_closed(self):
        # w = d(x^2 y) = 2xy dx + x^2 dy
        w = OneForm(lambda p: [2.0 * p[0] * p[1], p[0] * p[0]])
        dw, _ = _wedge(w, [[1.1, -0.7]])
        assert np.abs(dw).max() < 1e-13


# ---------------------------------------------------------------------------
# Gram assembly from the distinct entry objects, against one write per entry


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def dense_jets(metric, p, order):
    """``gram_jets`` with its order-2 factors expanded to a dense d2g, after
    checking that every position is held by at most one entry."""
    jets = gram_jets(metric, p, order)
    g0, dg, hess, pattern = jets.g0, jets.dg, jets.hess, jets.pattern
    if order == 1:
        assert hess is None and pattern is None
        return g0, dg
    assert hess.shape == g0.shape[:-2] + pattern.shape
    assert set(np.unique(pattern)) <= {0.0, 1.0} and pattern.sum(axis=0).max() <= 1
    return g0, dg, dense_d2g(hess, pattern)


def shared_entries_metric():
    """Shared jet and float objects, a -0.0 constant, int entries and one
    position filled by a distinct object equal to a shared one."""
    half = 2.5

    def gram(p):
        xy = p[0] * p[1]
        rows = [[0.0] * 4 for _ in range(4)]
        rows[0][0] = rows[2][2] = xy
        rows[0][1] = rows[1][0] = half
        rows[1][1] = 1 + p[2] * p[2]
        rows[2][3] = rows[3][2] = -0.0
        rows[3][3] = 3
        rows[0][3] = 0
        rows[1][2] = p[3] * 1.0
        rows[2][1] = p[3] * 1.0
        return rows

    return MetricField(gram)


def per_sample_bulk(d, samples):
    # mu = 0 on some samples: their dt^2 entry is a computed, signed zero
    mu = np.array([0.0, 1.5, -0.0, 0.0, -1.0, 2.0][:samples])
    return bulk_metric(SchrodingerManifoldConfig(d, np.full(samples, -0.8), mu))


def gram_assembly_cases():
    for d in (1, 3):
        for mu in (1.3, 0.0):
            metric = bulk_metric(SchrodingerManifoldConfig(d, -0.7, mu))
            yield f"bulk_mu{mu:g}_d{d}", metric, d + 3, [(0.6, 1.8)]
        yield f"boundary_d{d}", boundary_metric(d), d + 2, []
        yield f"bargmann_d{d}", flat_bargmann(d).metric, d + 2, []
    yield "shared", shared_entries_metric(), 4, []


@pytest.mark.parametrize(
    "metric, n, last_box",
    [case[1:] for case in gram_assembly_cases()],
    ids=[case[0] for case in gram_assembly_cases()],
)
class TestSparseGramAssembly:
    @staticmethod
    def points(n, last_box, samples):
        boxes = [(-0.9, 0.9)] * (n - len(last_box)) + last_box
        return SeededSampler(17, boxes).points(samples)

    @pytest.mark.parametrize("samples", [1, 5], ids=["point", "batch"])
    def test_values_and_jets_match_the_entry_loop(self, metric, n, last_box, samples):
        pts = self.points(n, last_box, samples)
        assert same_bits(gram_values(metric, pts), gram_values_loop(metric, pts))
        for order in (1, 2):
            got = dense_jets(metric, pts, order)
            want = gram_jets_loop(metric, pts, order=order)
            assert len(got) == len(want) == order + 1
            for a, b in zip(got, want):
                assert same_bits(a, b)


@pytest.mark.parametrize("d", [1, 3])
def test_per_sample_couplings_assemble_as_the_entry_loop(d):
    metric = per_sample_bulk(d, 5)
    pts = SeededSampler(19, [(-0.9, 0.9)] * (d + 2) + [(0.6, 1.8)]).points(5)
    values = gram_values(metric, pts)
    # the computed dt^2 zeros keep their sign, which +0.0 arrays would lose:
    # mu = 0 times a negative lam gives -0.0, mu = -0.0 gives +0.0
    assert np.signbit(values[[0, 3], d, d]).all()
    assert values[2, d, d] == 0.0 and not np.signbit(values[2, d, d])
    assert same_bits(values, gram_values_loop(metric, pts))
    for order in (1, 2):
        want = gram_jets_loop(metric, pts, order)
        for a, b in zip(dense_jets(metric, pts, order), want):
            assert same_bits(a, b)



def g0_cases():
    for d in range(1, 9):
        n = d + 3
        pts = SeededSampler(29 + d, bulk_boxes(d)).points(6)
        for lam, mu in ((-0.7, 1.3), (-0.5, 0.0), (-1000.0, 1000.0)):
            yield f"bulk_d{d}_lam{lam:g}_mu{mu:g}", bulk_metric(
                SchrodingerManifoldConfig(d, lam, mu)
            ), pts
        yield f"bulk_per_sample_d{d}", per_sample_bulk(d, 6), pts
        boundary_pts = SeededSampler(37 + d, [(-1.2, 1.2)] * (n - 1)).points(6)
        yield f"boundary_d{d}", boundary_metric(d), boundary_pts
        yield f"flat_d{d}", flat_metric(d), boundary_pts


@pytest.mark.parametrize(
    "metric, pts", [c[1:] for c in g0_cases()], ids=[c[0] for c in g0_cases()]
)
def test_a_pass_holds_the_gram_values_bit_for_bit(metric, pts):
    # one rounding path: a pass's g0 is what gram_values gives at its points,
    # so a check reads its Gram from its pass and never evaluates it again
    want = gram_values(metric, pts)
    for order in (1, 2):
        assert same_bits(gram_jets(metric, pts, order).g0, want)


class TestClock:
    """theta = g(xi, .) and its Jacobian read off a pass."""

    def test_a_varying_field_on_a_curved_metric(self):
        # g = diag(1 + x^2, e^y) dx dy plus a 2 x dx dy cross term, xi = (y, x^2)
        metric = MetricField(
            lambda p: [[1.0 + p[0] * p[0], 2.0 * p[0]], [2.0 * p[0], nk.exp(p[1])]]
        )
        xi = VectorField(lambda p: [p[1], p[0] * p[0]])

        def theta(p):
            g, v = metric.gram(p), xi.components(p)
            return [g[b][0] * v[0] + g[b][1] * v[1] for b in range(2)]

        pts = SeededSampler(3, [(-0.9, 0.9)] * 2).points(5)
        for order in (1, 2):
            jets = gram_jets(metric, pts, order)
            got = jets.clock(xi)
            for a, b in zip(got, jet_components(theta, pts)):
                assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())
            # theta alone is the clock's first member, bit for bit
            assert jets.theta(xi).tobytes() == got[0].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_the_bulk_clock_is_the_closed_form(self, d):
        # theta_hat = (-2 lam / rh^2) dt, and d theta_hat its rh derivative
        lam = np.array([-0.5, -2.0, -0.3, -1000.0])
        mu = np.array([1.0, -1.0, 2.0, 1000.0])
        cfg = SchrodingerManifoldConfig(d, lam, mu)
        pts = SeededSampler(11, bulk_boxes(d)).points(4)
        rh = pts[:, d + 2]
        theta, dtheta = gram_jets(bulk_metric(cfg), pts, order=1).clock(
            xi_field(d, d + 3)
        )
        want = np.zeros((4, d + 3))
        want[:, d] = -2.0 * lam / rh**2
        dwant = np.zeros((4, d + 3, d + 3))
        dwant[:, d, d + 2] = 4.0 * lam / rh**3
        # to rounding: within a few ulps of the largest entry, per sample
        ulp = np.finfo(float).eps
        assert (np.abs(theta - want).max(axis=1) <= 2 * ulp * np.abs(want).max(axis=1)).all()
        err = np.abs(dtheta - dwant).max(axis=(1, 2))
        assert (err <= 4 * ulp * np.abs(dwant).max(axis=(1, 2))).all()


@pytest.mark.parametrize("d", range(1, 9))
def test_flat_metric_writes_its_ones_as_one_shared_entry(d):
    """Equal constants of the flat metric are one object: its Gram is one
    entry group (the 1.0s), with the +0.0s left to the zeros it starts
    from, and still bitwise the entry-by-entry assembly."""
    metric = flat_metric(d)
    n = d + 2
    pts = SeededSampler(23, [(-0.9, 0.9)] * n).points(3)
    (one, at), = geometry._entry_positions(metric.gram(list(pts[:1].T)))
    assert one == 1.0
    assert np.array_equal(np.sort(at), np.flatnonzero(flat_gram_matrix(d)))
    for p in (pts[:1], pts):
        assert same_bits(gram_values(metric, p), gram_values_loop(metric, p))
        for order in (1, 2):
            for a, b in zip(dense_jets(metric, p, order), gram_jets_loop(metric, p, order)):
                assert same_bits(a, b)
