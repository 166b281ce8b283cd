"""Curved-model tests: the quadric embedding, the squashed metric family,
Einstein and null-fluid identities, isotropy counting, and the conformal
boundary.  Frozen numbers come from hand evaluation of the closed forms."""

import math

import numpy as np
import pytest
from oracles import boundary_loop, embed, isotropy_loop, origin_point

from schrogeo import homogeneous as hg
from schrogeo.ambient import ambient_gram, random_group_element, xi_field
from schrogeo.geometry import (
    VectorField,
    component_values,
    covariant_derivative,
    exterior_wedge,
    gram_jets,
    gram_values,
    jet_components,
    negative_index,
)
from schrogeo.homogeneous import (
    BoundaryPointError,
    SchrodingerManifoldConfig,
    boundary_embed_components,
    boundary_f0,
    boundary_isotropy_element,
    boundary_metric,
    boundary_structure,
    bulk_boxes,
    bulk_isotropy_element,
    bulk_metric,
    chart_from_ambient,
    einstein_residual,
    embed_components,
    induced_metric,
    integrability_residual,
    isometry_check,
    isotropy_check,
    metric_recovery_residual,
    null_plane_boost,
    nullfluid_residual,
    schrodinger_axiom_audit,
    theta_f0_form,
    xi_hat_consistency,
    xi_hat_field,
)
from schrogeo.numkernel import (
    ContractViolationError,
    Jet2,
    SeededSampler,
    jet_value,
    seed_point,
    sparse_dot,
)
from schrogeo.suites import AUDIT, BOUNDARY_STRUCTURE, _audit_points, _box_points, verdicts


def sample_bulk(d, count, seed=0):
    return SeededSampler(seed, bulk_boxes(d)).points(count)


def bulk_pass(cfg, p, order=2):
    """The bulk metric's pass, which the identities take."""
    return gram_jets(bulk_metric(cfg), p, order)


class TestConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SchrodingerManifoldConfig(0, -1.0)
        with pytest.raises(ValueError):
            SchrodingerManifoldConfig(2, 0.0)
        with pytest.raises(ValueError):
            SchrodingerManifoldConfig(2, 1.0)

    def test_scale(self):
        assert SchrodingerManifoldConfig(2, -0.5).scale == pytest.approx(1.0)
        assert SchrodingerManifoldConfig(2, -2.0).scale == pytest.approx(2.0)


class TestEmbedding:
    def test_origin_maps_to_reference_null_pair(self):
        for d in (1, 2, 3):
            cfg = SchrodingerManifoldConfig(d, -0.8)
            ep = embed(cfg, origin_point(cfg))
            expected = np.zeros(d + 4)
            expected[d + 2] = cfg.lam
            expected[d + 3] = 1.0
            assert np.abs(ep.Q - expected).max() < 1e-14

    def test_lives_on_quadric(self):
        cfg = SchrodingerManifoldConfig(2, -0.7)
        G = ambient_gram(2)
        for p in sample_bulk(2, 5):
            ep = embed(cfg, p)
            assert abs(ep.Q @ G @ ep.Q - 2.0 * cfg.lam) < 1e-12
            checks = {k: v for k, v in ep.residuals.items() if k != "Z0Q_norm"}
            assert max(checks.values()) < 1e-12
            assert ep.residuals["Z0Q_norm"] > 1e-6  # transverse to the vertical

    def test_decomposition_gauge(self):
        # Q = X + lam Y with X on the cone and Y the gauge-fixed null partner
        cfg = SchrodingerManifoldConfig(1, -0.5)
        G = ambient_gram(1)
        for p in sample_bulk(1, 4, seed=3):
            ep = embed(cfg, p)
            assert abs(ep.X @ G @ ep.X) < 1e-12
            assert abs(ep.Y @ G @ ep.Y) < 1e-12
            assert ep.q == 0.0
            assert np.abs(ep.Q - ep.X - cfg.lam * ep.Y).max() < 1e-12

    def test_round_trip_through_chart(self):
        cfg = SchrodingerManifoldConfig(2, -1.3)
        for p in sample_bulk(2, 5, seed=7):
            ep = embed(cfg, p)
            back = chart_from_ambient(cfg, ep.Q)
            assert np.abs(np.array(back) - p).max() < 1e-12

    def test_boundary_point_rejected(self):
        cfg = SchrodingerManifoldConfig(1, -0.5)
        with pytest.raises(BoundaryPointError):
            embed_components(cfg, [0.1, 0.2, 0.3, 0.0])


class TestInducedMetric:
    def test_chart_and_ambient_paths_agree(self):
        for d in (1, 2):
            for lam in (-0.5, -1.0):
                for mu in (0.0, 1.0, 2.0):
                    cfg = SchrodingerManifoldConfig(d, lam, mu)
                    res = induced_metric(cfg, bulk_pass(cfg, sample_bulk(d, 3, seed=5), 1))
                    assert (res["metric"] < 1e-12).all()
                    assert (res["clock"] < 1e-12).all()

    def test_clock_values(self):
        # the clock (-2 lam / rh^2) dt: its dt entry, chart order
        # (x1, t, s, r), is 1/4 at rh = 2 and 1/1.69 at rh = 1.3
        cfg = SchrodingerManifoldConfig(1, -0.5)
        jets = bulk_pass(cfg, [[0.2, 0.1, -0.3, 2.0], [0.2, 0.1, -0.3, 1.3]], 1)
        theta = jets.theta(xi_hat_field(cfg))
        assert theta[0, 1] == pytest.approx(0.25, abs=1e-14)
        assert theta[1, 1] == pytest.approx(1.0 / 1.69, abs=1e-13)
        assert (induced_metric(cfg, jets)["clock"] < 1e-12).all()

    def test_vertical_direction(self):
        cfg = SchrodingerManifoldConfig(2, -0.9, 1.0)
        res = xi_hat_consistency(cfg, bulk_pass(cfg, sample_bulk(2, 3, seed=2), 1))
        assert (res["pushforward"] < 1e-12).all()
        assert (np.abs(res["nullity"]) < 1e-12).all()
        assert (res["killing"] < 1e-10).all()

    def test_signature_lorentzian_across_family(self):
        for d in (1, 2, 3, 6, 8):
            p = sample_bulk(d, 1, seed=8)
            for lam in (-0.5, -1.0, -0.3):
                for mu in (-1.0, 0.0, 1.0, 2.0):
                    cfg = SchrodingerManifoldConfig(d, lam, mu)
                    assert negative_index(gram_values(bulk_metric(cfg), p)).tolist() == [1]

    def test_integrability_of_clock(self):
        cfg = SchrodingerManifoldConfig(2, -0.6)
        jets = bulk_pass(cfg, sample_bulk(2, 3, seed=4), 1)
        assert (integrability_residual(jets.clock(xi_hat_field(cfg))) < 1e-12).all()


class TestEinsteinFamily:
    def test_einstein_exactly_at_critical_coupling(self):
        for d in (1, 2, 3):
            cfg = SchrodingerManifoldConfig(d, -0.5)
            computed, predicted = einstein_residual(cfg, bulk_pass(cfg, sample_bulk(d, 3, seed=1)))
            assert np.abs(computed).max() < 1e-10
            assert np.abs(predicted).max() < 1e-12

    def test_proportional_failure_off_critical(self):
        cfg = SchrodingerManifoldConfig(3, -1.0)
        p = [[0.1, -0.2, 0.3, 0.4, 0.5, 2.0]]
        jets = bulk_pass(cfg, p)
        computed, predicted = einstein_residual(cfg, jets)
        g0 = jets.g0
        # predicted factor (d+2)(1+2 lam)/(2 lam) = 2.5 at lam = -1, d = 3
        assert np.abs(predicted - 2.5 * g0).max() < 1e-13
        assert np.abs(computed - predicted).max() < 1e-10
        assert np.abs(computed).max() > 0.1

    def test_rejects_deformed_metric(self):
        cfg = SchrodingerManifoldConfig(2, -0.5, 1.0)
        with pytest.raises(ContractViolationError):
            einstein_residual(cfg, bulk_pass(cfg, sample_bulk(2, 1)))

    def test_nullfluid_identity_frozen(self):
        # at d = 3, lam = -1/2, mu = 1: Ric + 5 g = 7 theta x theta and
        # the cosmological factor is -10
        cfg = SchrodingerManifoldConfig(3, -0.5, 1.0)
        p = [[0.1, -0.2, 0.3, 0.4, 0.5, 1.7]]
        residual = nullfluid_residual(cfg, bulk_pass(cfg, p))
        assert np.abs(residual).max() < 1e-10

    def test_nullfluid_across_grid(self):
        for d in (1, 2):
            for lam in (-0.5, -1.0):
                for mu in (0.0, 1.0, -1.0):
                    cfg = SchrodingerManifoldConfig(d, lam, mu)
                    residual = nullfluid_residual(cfg, bulk_pass(cfg, sample_bulk(d, 1, seed=6)))
                    assert np.abs(residual).max() < 1e-9

    def test_metric_recovery(self):
        assert (metric_recovery_residual(2, sample_bulk(2, 4, seed=9)) < 1e-12).all()


class TestIsometries:
    def test_group_action_preserves_deformed_metric(self):
        rng = np.random.default_rng(23)
        cfg = SchrodingerManifoldConfig(2, -0.5, 1.0)
        ge = random_group_element(2, rng, scale=0.3)
        res = isometry_check(cfg, ge, SeededSampler(3, bulk_boxes(2)).points(4))
        assert (res["metric_residual"] < 1e-8).all()

    def test_group_action_preserves_generic_couplings(self):
        rng = np.random.default_rng(24)
        cfg = SchrodingerManifoldConfig(1, -1.0, 2.0)
        ge = random_group_element(1, rng, scale=0.3)
        res = isometry_check(cfg, ge, SeededSampler(4, bulk_boxes(1)).points(4))
        assert (res["metric_residual"] < 1e-8).all()

    def test_null_plane_boost_detects_deformation(self):
        # outside the stabilizer: preserves the quadric but not the mu-term
        boost = null_plane_boost(2, 1.5)
        pts = SeededSampler(5, bulk_boxes(2)).points(4)
        on = isometry_check(SchrodingerManifoldConfig(2, -0.5, 1.0), boost, pts)
        off = isometry_check(SchrodingerManifoldConfig(2, -0.5, 0.0), boost, pts)
        assert (on["metric_residual"] > 1e-3).all()
        assert (off["metric_residual"] < 1e-8).all()

    @staticmethod
    def jets(rng, m, n, N, order):
        """m jets of ``order`` over N samples, with signed zeros among the
        derivatives and a value that is an exact zero."""
        values = rng.normal(size=(m, N))
        values[1, 0] = 0.0
        grads = rng.normal(size=(m, n, N))
        grads[rng.random(grads.shape) < 0.3] = 0.0
        grads[rng.random(grads.shape) < 0.2] = -0.0
        hess = rng.normal(size=(m, n, n, N)) if order == 2 else [None] * m
        return [Jet2(v, g, h) for v, g, h in zip(values, grads, hess)]

    @staticmethod
    def same_jets(got, want):
        """The jets of ``got`` and ``want`` hold the same bits."""
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.value.tobytes() == b.value.tobytes()
            assert a.grad.tobytes() == b.grad.tobytes()
            assert (a.hess is None) == (b.hess is None)
            if a.hess is not None:
                assert a.hess.tobytes() == b.hess.tobytes()

    @staticmethod
    def sparse(rng, shape):
        """A matrix or stack with zero entries, cancelling pairs and an
        all-zero column."""
        A = rng.normal(size=shape)
        A[rng.random(shape) < 0.4] = 0.0
        A[..., 2] = 0.0
        A[..., 0, 3] = -A[..., 0, 4]
        return A

    def test_the_action_is_sparse_dot_bit_for_bit(self):
        # the action isometry_check moves its points by, on jets of either
        # order and on arrays
        rng = np.random.default_rng(42)
        m, n, N = 7, 4, 6
        A = self.sparse(rng, (m, m))
        for order in (1, 2):
            jets = self.jets(rng, m, n, N, order)
            self.same_jets(hg.linear_action(A, jets), [sparse_dot(row, jets) for row in A])
        values = [c.value for c in jets]
        want = [sparse_dot(row, values) for row in A]
        assert np.array(hg.linear_action(A, values)).tobytes() == np.array(want).tobytes()

    @staticmethod
    def at(jets, k):
        """Sample k of each jet, as a batch of one."""
        keep = slice(k, k + 1)
        return [
            Jet2(c.value[keep], c.grad[:, keep], None if c.hess is None else c.hess[..., keep])
            for c in jets
        ]

    def test_a_stack_acts_per_sample_as_its_own_matrix(self):
        # sample k of a stack's action is sparse_dot with the rows of A[k]
        rng = np.random.default_rng(43)
        m, n, N = 7, 4, 6
        A = self.sparse(rng, (N, m, m))
        for order in (1, 2):
            jets = self.jets(rng, m, n, N, order)
            got = hg.linear_action(A, jets)
            for k in range(N):
                want = [sparse_dot(row, self.at(jets, k)) for row in A[k]]
                self.same_jets(self.at(got, k), want)

    def test_a_row_without_coefficients_is_negative_zero(self):
        # sparse_dot gives such a row the constant 0.0; the action, which
        # starts every sum from -0.0, gives -0.0 values and derivatives.
        # No group element has such a row.
        rng = np.random.default_rng(44)
        m, n, N = 5, 3, 4
        jets = self.jets(rng, m, n, N, 2)
        A = self.sparse(rng, (m, m))
        A[3] = 0.0
        got = hg.linear_action(A, jets)
        assert sparse_dot(A[3], jets) == 0.0
        zero = got[3]
        assert (zero.value.shape, zero.grad.shape, zero.hess.shape) == ((N,), (n, N), (n, n, N))
        for part in (zero.value, zero.grad, zero.hess):
            assert (part == 0.0).all() and np.signbit(part).all()
        others = [i for i in range(m) if i != 3]
        self.same_jets([got[i] for i in others], [sparse_dot(A[i], jets) for i in others])

    @pytest.mark.parametrize("d", [1, 3])
    def test_chart_from_ambient_is_jet_division_bit_for_bit(self, d):
        cfg = SchrodingerManifoldConfig(d, -0.7, 1.3)
        A = random_group_element(d, np.random.default_rng(d), scale=0.3)
        Q = [sparse_dot(row, embed_components(cfg, seed_point(sample_bulk(d, 5), 1))) for row in A]
        last = Q[d + 3]
        want = [Q[i] / last for i in range(d + 2)] + [cfg.scale / last]
        got = chart_from_ambient(cfg, Q)
        for a, b in zip(got, want):
            assert a.value.tobytes() == b.value.tobytes()
            assert a.grad.tobytes() == b.grad.tobytes()
        # on arrays, the product with the reciprocal, as in the metrics
        values = [q.value for q in Q]
        inv = 1.0 / values[d + 3]
        got = chart_from_ambient(cfg, values)
        for a, b in zip(got, [v * inv for v in values[: d + 2]] + [cfg.scale * inv]):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    def test_a_stack_of_elements_moves_each_point_by_its_own(self, d):
        # element k and coupling k at point k, bitwise its call alone
        pts = sample_bulk(d, 4, seed=8)
        rng = np.random.default_rng(8)
        stack = np.stack([random_group_element(d, rng, scale=0.3) for _ in pts])
        couplings = [(-0.5, 1.0), (-1.0, 2.0), (-0.3, 0.0), (-2.0, -1.0)]
        lam, mu = (np.array(v) for v in zip(*couplings))
        got = isometry_check(SchrodingerManifoldConfig(d, lam, mu), stack, pts)
        for k, coupling in enumerate(couplings):
            one = isometry_check(SchrodingerManifoldConfig(d, *coupling), stack[k], pts[k : k + 1])
            for key, value in one.items():
                assert got[key][k : k + 1].tobytes() == value.tobytes(), key

    def test_a_stack_of_another_length_is_refused(self):
        cfg = SchrodingerManifoldConfig(1, -0.5, 1.0)
        stack = np.stack([null_plane_boost(1, 1.5)] * 3)
        with pytest.raises(ContractViolationError, match="3 elements for 4 points"):
            isometry_check(cfg, stack, sample_bulk(1, 4))

    def test_explicit_stabilizer_fixes_origin_image(self):
        cfg = SchrodingerManifoldConfig(2, -0.5)
        el = bulk_isotropy_element(cfg, np.eye(2)[None], np.zeros((1, 2)), [0.7])
        Q0 = embed(cfg, origin_point(cfg)).Q
        assert np.abs(el @ Q0 - Q0).max() < 1e-12


class TestIsotropy:
    @pytest.mark.parametrize(
        "d,bulk,boundary", [(1, 2, 3), (2, 4, 5), (3, 7, 8), (4, 11, 12)]
    )
    def test_dimension_count(self, d, bulk, boundary):
        cfg = SchrodingerManifoldConfig(d, -0.5)
        res = isotropy_check(cfg, np.random.default_rng(1), 3)
        assert res["bulk_isotropy_dim"] == bulk
        assert res["boundary_isotropy_dim"] == boundary
        assert res["bulk_space_dim"] == d + 3
        assert res["boundary_space_dim"] == d + 2
        assert res["bulk_fix_residual"].shape == res["boundary_fix_residual"].shape == (3,)
        assert (res["bulk_fix_residual"] < 1e-10).all()
        assert (res["boundary_fix_residual"] < 1e-10).all()

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stacked_elements_match_one_at_a_time(self, monkeypatch, d, seed):
        # each kind assembled and validated as one stack, element by element
        # bitwise the element built on its own, and the draws in their order
        made = []
        assemble = hg.assemble_group_element

        def spy(blocks, dim):
            ge = assemble(blocks, dim)
            made.append(ge)
            return ge

        monkeypatch.setattr(hg, "assemble_group_element", spy)
        cfg = SchrodingerManifoldConfig(d, -0.5, 1.0)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        res = isotropy_check(cfg, rng, 12)
        want = isotropy_loop(cfg, ref, 12)
        assert len(made) == 2
        for key, got in zip(("bulk", "boundary"), made):
            assert got.tobytes() == want[key].tobytes()
            name = f"{key}_fix_residual"
            assert res[name].tobytes() == want[name].tobytes()
        assert rng.random() == ref.random()

    def test_boundary_element_scales_the_ray(self):
        d = 2
        el = boundary_isotropy_element(d, np.eye(d)[None], [[0.3, -0.1]], [0.2], [1.4])
        X0 = np.zeros(d + 4)
        X0[d + 3] = 1.0
        (image,) = el @ X0
        assert np.abs(image - image[d + 3] * X0).max() < 1e-12


class TestBoundary:
    def test_f0_on_section(self):
        d = 2
        for t in (0.0, 0.7, -1.3):
            p = [0.4, -0.2, t, 0.6]
            X = np.array(
                [float(jet_value(c)) for c in boundary_embed_components(d, list(p))]
            )
            val = boundary_f0(d, X)
            assert float(jet_value(val)) == pytest.approx(1.0 + t * t, abs=1e-13)

    def test_metric_is_flat_over_one_plus_t_squared(self):
        d = 1
        m = boundary_metric(d)
        p = [[0.3, 0.8, -0.4]]
        g0 = gram_values(m, p)[0]
        flat = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])
        assert np.abs(g0 - flat / (1.0 + 0.8**2)).max() < 1e-12

    def test_clock_is_normalized_time_form(self):
        d = 1
        th = theta_f0_form(d)
        p = [[0.3, 0.8, -0.4]]
        vals = [np.ravel(jet_value(v))[0] for v in th.components(seed_point(p))]
        assert vals == pytest.approx([0.0, 1.0 / (1.0 + 0.64), 0.0], abs=1e-12)

    def test_clock_parallel_and_closed(self):
        d = 2
        m = boundary_metric(d)
        th = theta_f0_form(d)
        pts = SeededSampler(13, [(-1, 1)] * (d + 2)).points(3)
        dw, _ = exterior_wedge(*jet_components(th.components, pts))
        assert np.abs(dw).max() < 1e-12
        assert np.abs(covariant_derivative(gram_jets(m, pts, order=1), th)).max() < 1e-10

    def test_vertical_is_null_and_parallel(self):
        d = 2
        m = boundary_metric(d)
        xi = xi_field(d, d + 2)
        p = [[0.2, -0.5, 0.9, 0.1]]
        g0 = gram_values(m, p)[0]
        xv = component_values(xi.components, p)[0]
        assert abs(xv @ g0 @ xv) < 1e-14
        assert np.abs(covariant_derivative(gram_jets(m, p, order=1), xi)).max() < 1e-10

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stacked_forms_match_the_per_point_loop(self, monkeypatch, d, seed):
        # the scale-invariance forms and the cone-form SVDs over the stacked
        # points, bitwise the per-point loop, with the draws in their order
        calls = []
        monkeypatch.setattr(hg, "rank_nullspace", lambda *a, **k: calls.append(a))
        pts = _box_points(seed, 1.2, d + 2, 20)
        rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = boundary_structure(d, pts, rng)
        want = boundary_loop(d, pts, ref)
        assert not calls
        assert list(got) == list(want)
        for name, numbers in got.items():
            assert list(numbers) == list(want[name])
            for key, value in numbers.items():
                a, b = np.asarray(value), np.asarray(want[name][key])
                assert (a.dtype, a.shape) == (b.dtype, b.shape), (name, key)
                assert a.tobytes() == b.tobytes(), (name, key)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_structure_report_passes(self):
        for d in (1, 2):
            measured = boundary_structure(
                d, _box_points(2, 1.2, d + 2, 8), np.random.default_rng(3)
            )
            report = verdicts(BOUNDARY_STRUCTURE, measured)
            assert not [(c.name, c.status) for c in report.values() if c.status != "PASS"]

    @pytest.mark.parametrize(
        "entries",
        [lambda d: boundary_metric(d).gram, lambda d: theta_f0_form(d).components],
        ids=["boundary_metric", "theta_f0_form"],
    )
    @pytest.mark.parametrize("pts", [[[0.3, 0.8, -0.4, 0.1]], [[0.3, 0.8, -0.4, 0.1]] * 3])
    def test_one_f0_reciprocal_per_jet_call(self, monkeypatch, entries, pts):
        # every quotient entry divides by F0 through one shared reciprocal
        calls = []
        reciprocal = Jet2._reciprocal

        def counted(jet):
            calls.append(jet)
            return reciprocal(jet)

        monkeypatch.setattr(Jet2, "_reciprocal", counted)
        fn = entries(2)
        for order in (1, 2):
            calls.clear()
            fn(seed_point(np.asarray(pts), order))
            assert len(calls) == 1


def audit(cfg):
    """The audit's verdicts, judged by the table's audit rows."""
    (numbers,) = schrodinger_axiom_audit([cfg], *_audit_points(cfg.d, 5, 1))
    return verdicts(AUDIT, numbers)


class TestAudit:
    def test_full_pass_needs_both_couplings(self):
        report = audit(SchrodingerManifoldConfig(2, -0.5, 1.0))
        assert all(c.status == "PASS" for c in report.values())

    def test_wrong_lambda_fails_einstein_axiom(self):
        by_name = audit(SchrodingerManifoldConfig(2, -1.0, 1.0))
        bad = by_name["axiom3_einstein"]
        assert bad.status == "FAIL"
        assert bad.extra["predicted_factor"] == pytest.approx(2.0)
        assert by_name["axiom3_conformal_infinity"].status == "FAIL"
        assert by_name["axiom2_inverse_metric"].status == "PASS"

    @pytest.mark.parametrize("mu", [0.0, 2.0])
    def test_wrong_mu_fails_normalization(self, mu):
        by_name = audit(SchrodingerManifoldConfig(2, -0.5, mu))
        bad = by_name["axiom2_inverse_metric"]
        assert bad.status == "FAIL"
        assert bad.extra["normalized"] is False
        # the decay exponent itself is still right
        assert 80.0 < bad.extra["decay_ratio"] < 120.0
        assert by_name["axiom3_einstein"].status == "PASS"

    @pytest.mark.parametrize("d, lam, mu", [(2, -0.5, 1.0), (2, -50.0, -30.0), (3, -2.0, 2.0)])
    def test_deformation_identity_sees_mu_scaled_by_one_ppb(self, d, lam, mu, monkeypatch):
        # scaling xi by sqrt(1 + 1e-9) scales its clock g(xi, .) alike, which
        # is mu scaled by (1 + 1e-9) in the identity g + mu clock^2 = g_plus;
        # a constant multiple of xi is still null and Killing, so nothing
        # else in the audit moves
        cfg = SchrodingerManifoldConfig(d, lam, mu)
        name = "axiom3_deformation_identity"
        before = audit(cfg)
        assert before[name].status == "PASS"
        original = hg.xi_hat_field
        root = math.sqrt(1.0 + 1e-9)

        def scaled(c):
            field = original(c)
            return VectorField(lambda p: [root * v for v in field.components(p)])

        monkeypatch.setattr(hg, "xi_hat_field", scaled)
        flipped = audit(cfg)
        assert flipped[name].status == "FAIL"
        assert flipped[name].residual > 1e3 * flipped[name].tolerance
        moved = [k for k, c in flipped.items() if c.status != before[k].status]
        assert moved == [name]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_deformation_identity_is_relative_at_large_couplings(self, d):
        # at (lam, mu) = (-1000, 1000) the entries compared reach ~1e13,
        # whose rounding an absolute residual would carry into the record
        cfg = SchrodingerManifoldConfig(d, -1000.0, 1000.0)
        found = audit(cfg)["axiom3_deformation_identity"]
        assert found.status == "PASS"
        assert found.residual <= 16.0 * np.finfo(float).eps == found.tolerance
