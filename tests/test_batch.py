"""Sample-batched jets: a batch of N points evaluated in one jet pass must
give, sample by sample, what N batches of one give."""

import re
import warnings
import zlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    algebra_element,
    density_lie_derivative,
    embed,
    rescaled_metric,
    scalar_laplacian,
)

from schrogeo import bargmann as bg
from schrogeo import numkernel as nk
from schrogeo import suites
from schrogeo.ambient import (
    boost_element,
    bracket_fields,
    commutant_basis,
    commutant_stack,
    cone_point,
    dilation_element,
    exp_group,
    expansion_element,
    expansion_generator,
    group_coefficients,
    group_elements,
    group_inverse,
    projective_action,
    projective_denominator,
    random_group_element,
    realize_field,
    translation_element,
)
from schrogeo.geometry import (
    DegenerateMetricError,
    _invert_gram,
    component_values,
    covariant_derivative,
    divergence,
    gram_jets,
    gram_values,
    jet_components,
    laplacian,
    lie_bracket,
    lie_derivative_metric,
    negative_index,
    ricci_from_derivatives,
    yamabe_residual,
)
from schrogeo.homogeneous import (
    BoundaryPointError,
    SchrodingerManifoldConfig,
    boundary_metric,
    bulk_boxes,
    bulk_metric,
    chart_from_ambient,
    einstein_residual,
    embed_components,
    induced_metric,
    integrability_residual,
    isometry_check,
    metric_recovery_residual,
    null_plane_boost,
    nullfluid_residual,
    xi_hat_consistency,
    xi_hat_field,
)
from schrogeo.numkernel import Jet2, SeededSampler
from schrogeo.suites import SuiteConfig, check_seed, run_suite


def bulk_points(d, count, seed=0):
    return SeededSampler(seed, bulk_boxes(d)).points(count)


def bulk_pass(cfg, p, order=2):
    """The bulk metric's pass, which the identities take."""
    return gram_jets(bulk_metric(cfg), p, order)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _shifted(a, shift):
    """A copy of ``a`` that starts ``shift`` doubles into a fresh buffer."""
    out = np.empty(a.size + shift)[shift:].reshape(a.shape)
    out[...] = a
    return out


# ---------------------------------------------------------------------------
# Jet2 with a trailing sample axis


def _column(jet, k):
    """Sample k of a jet, as a batch of one."""
    at = slice(k, k + 1)
    return Jet2(jet.value[at], jet.grad[..., at], jet.hess[..., at])


def _same(batched, points):
    for k, pj in enumerate(points):
        assert np.array_equal(batched.value[k], pj.value[0])
        assert np.array_equal(batched.grad[..., k], pj.grad[..., 0])
        assert np.array_equal(batched.hess[..., k], pj.hess[..., 0])


@st.composite
def jet_batches(draw):
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    fl = st.floats(-3.0, 3.0, allow_nan=False)
    pos = st.floats(0.2, 3.0)

    def arr(elems, shape):
        flat = draw(st.lists(elems, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        return np.array(flat, dtype=float).reshape(shape)

    u = Jet2(arr(pos, (count,)), arr(fl, (n, count)), arr(fl, (n, n, count)))
    w = Jet2(arr(pos, (count,)) * draw(st.sampled_from([1.0, -1.0])),
             arr(fl, (n, count)), arr(fl, (n, n, count)))
    return u, w, draw(st.floats(-2.5, 2.5).filter(lambda c: abs(c) > 0.1))


UNARY = {
    "neg": lambda a: -a,
    "square": lambda a: a**2,
    "cube": lambda a: a**3,
    "inverse_square": lambda a: a**-2,
    "zeroth": lambda a: a**0,
    "real_power": lambda a: a**1.5,
    "exp": nk.exp,
    "log": nk.log,
    "sqrt": lambda a: a**0.5,
    "sin": nk.sin,
    "cos": nk.cos,
}

BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}

WITH_SCALAR = {
    "radd": lambda a, c: c + a,
    "rsub": lambda a, c: c - a,
    "rmul": lambda a, c: c * a,
    "truediv": lambda a, c: a / c,
    "rtruediv": lambda a, c: c / a,
}


class TestBatchedJet:
    @settings(max_examples=40, deadline=None)
    @given(jet_batches())
    def test_every_operation_matches_per_point_bitwise(self, data):
        u, w, c = data
        count = u.value.shape[0]
        us = [_column(u, k) for k in range(count)]
        ws = [_column(w, k) for k in range(count)]
        for op in UNARY.values():
            _same(op(u), [op(a) for a in us])
        for op in BINARY.values():
            _same(op(u, w), [op(a, b) for a, b in zip(us, ws)])
        for op in WITH_SCALAR.values():
            _same(op(u, c), [op(a, c) for a in us])

    def test_log_matches_per_point_where_a_square_rounds_apart(self):
        # the Hessian's 1 / v^2: numpy squares an array exactly, while a
        # scalar power goes through libm pow, and at this v the two differ
        v = 0.44575008292656293
        assert (np.array([v]) ** 2)[0] != v**2
        u = Jet2(np.array([v, 1.7]), np.array([[0.6, -1.1]]), np.array([[[0.3, 2.0]]]))
        _same(nk.log(u), [nk.log(_column(u, k)) for k in range(2)])

    def test_shapes(self):
        xs = nk.seed_point(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        f = xs[0] * xs[1]
        assert f.value.shape == (3,)
        assert f.grad.shape == (2, 3)
        assert f.hess.shape == (2, 2, 3)
        assert np.array_equal(f.grad[:, 1], [4.0, 3.0])

    def test_batches_of_different_sizes_do_not_mix(self):
        one = nk.seed_point([[1.0, 2.0]])[0]
        many = nk.seed_point([[1.0, 2.0], [3.0, 4.0]])[0]
        with pytest.raises(nk.ContractViolationError, match="jet shapes differ"):
            one + many

    def test_zero_in_any_sample_is_a_singularity(self):
        x = nk.seed_point([[1.0], [0.0], [2.0]])[0]
        with pytest.raises(nk.JetSingularityError):
            1.0 / x

    def test_positivity_guards_check_every_sample(self):
        x = nk.seed_point([[1.0], [-0.5]])[0]
        for op in (nk.log, lambda a: a**0.5):
            with pytest.raises(nk.ContractViolationError):
                op(x)

    def test_positivity_guards_carry_a_nan_sample(self):
        # a NaN sample marks a chart escape: it stays NaN, the others exact
        x = nk.seed_point([[1.0], [np.nan], [4.0]])[0]
        for op in (nk.log, lambda a: a**0.5):
            y = op(x)
            assert np.isnan([y.value[1], *y.grad[:, 1], *y.hess[..., 1].ravel()]).all()
            one = op(nk.seed_point([[4.0]])[0])
            assert (y.value[2], *y.grad[:, 2], *y.hess[..., 2].ravel()) == (
                one.value[0], *one.grad[:, 0], *one.hess[..., 0].ravel()
            )


# ---------------------------------------------------------------------------
# geometry on a leading sample axis


# (metric, n, bulk): a bulk point's last coordinate is its radius rh > 0
METRICS = [
    pytest.param(bulk_metric(SchrodingerManifoldConfig(d, lam, mu)), d + 3, True, id=f"bulk_d{d}")
    for d, lam, mu in ((1, -0.5, 1.0), (2, -1.3, 2.0), (3, -0.3, -1.0))
] + [pytest.param(boundary_metric(d), d + 2, False, id=f"boundary_d{d}") for d in (1, 2)]


class TestBatchedGeometry:
    @pytest.mark.parametrize("metric, n, bulk", METRICS)
    def test_gram_jets_and_ricci_match_per_point(self, metric, n, bulk):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-1.2, 1.2, size=(6, n))
        if bulk:
            pts[:, -1] = rng.uniform(0.7, 2.2, size=6)
        jets = gram_jets(metric, pts)
        batch = (jets.g0, jets.dg, jets.hess, jets.pattern)
        entries = len(jets.pattern)
        assert [a.shape for a in batch] == [
            (6, n, n), (6, n, n, n), (6, entries, n, n), (entries, n, n)
        ]
        ric, scalar = jets.ricci()
        assert ric.shape == (6, n, n) and scalar.shape == (6,)
        for k in range(len(pts)):
            one = gram_jets(metric, pts[k : k + 1])
            single = (one.g0, one.dg, one.hess, one.pattern)
            for a, b in zip(batch[:3], single):
                assert np.abs(a[k] - b[0]).max() <= 1e-13
            assert same_bits(batch[3], single[3])
            r, s = one.ricci()
            assert r.shape == (1, n, n) and s.shape == (1,)
            assert same_bits(ric[k], r[0]) and same_bits(scalar[k], s[0])

    @pytest.mark.parametrize("metric, n, bulk", METRICS)
    def test_ricci_ignores_the_layout_of_its_inputs(self, metric, n, bulk):
        # a strided sample axis, column-major arrays and buffers shifted off
        # their allocation's alignment give the bits of a contiguous stack
        rng = np.random.default_rng(n + 1)
        pts = rng.uniform(-1.2, 1.2, size=(4, n))
        if bulk:
            pts[:, -1] = rng.uniform(0.7, 2.2, size=4)
        jets = gram_jets(metric, pts)
        batch = (jets.ginv, jets.dg, jets.hess, jets.pattern)
        ric, scalar = ricci_from_derivatives(*batch)
        # the pattern has no sample axis: it keeps its entries, in any layout
        *stack, pattern = batch
        strided = [np.repeat(a, 2, axis=0)[::2] for a in stack]
        strided.append(np.repeat(pattern, 2, axis=0)[::2])
        fortran = [np.asfortranarray(a) for a in batch]
        for args in (strided, fortran):
            r, s = ricci_from_derivatives(*args)
            assert same_bits(r, ric) and same_bits(s, scalar)
        for shift in (1, 2, 3):
            for k in range(len(pts)):
                args = [_shifted(a[k], shift) for a in stack] + [_shifted(pattern, shift)]
                r, s = ricci_from_derivatives(*args)
                assert same_bits(r, ric[k]) and same_bits(s, scalar[k])

    def test_jet_components_match_per_point(self):
        cfg = SchrodingerManifoldConfig(2, -0.7, 1.5)
        pts = bulk_points(2, 5)
        fn = lambda q: embed_components(cfg, q)  # noqa: E731
        batch = jet_components(fn, pts)
        assert [a.shape for a in batch] == [(5, 6), (5, 6, 5)]
        for k in range(len(pts)):
            single = jet_components(fn, pts[k : k + 1])
            assert len(single) == 2
            for a, b in zip(batch, single):
                assert np.array_equal(a[k], b[0])

    def test_gram_values_on_a_batch(self):
        metric = bulk_metric(SchrodingerManifoldConfig(3, -2.0, 2.0))
        pts = bulk_points(3, 4)
        batch = gram_values(metric, pts)
        for k in range(len(pts)):
            assert np.array_equal(batch[k], gram_values(metric, pts[k : k + 1])[0])


class TestInvertGram:
    def test_small_uniform_scale_is_not_singular(self):
        g = 1e-9 * np.diag([1.0, -1.0, 2.0, 0.5])
        assert np.allclose(_invert_gram(g) @ g, np.eye(4))

    def test_ill_conditioned_but_regular(self):
        g = np.diag([5e7, 1.0, -2.0])
        assert np.allclose(_invert_gram(g) @ g, np.eye(3))

    def test_singular_sample_named_in_stack(self):
        stack = np.array([np.eye(3), np.diag([1.0, 1.0, 1e-14]), np.eye(3)])
        with pytest.raises(DegenerateMetricError, match="sample 1"):
            _invert_gram(stack)

    def test_zero_metric_is_singular(self):
        with pytest.raises(DegenerateMetricError):
            _invert_gram(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "where",
        [(0, 0), (0, 2), (slice(None), slice(None))],
        ids=["diagonal", "off-diagonal", "whole"],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_sample_is_singular_and_named(self, where, value):
        stack = np.array([np.diag([2.0, -1.0, 3.0])] * 4)
        stack[2][where] = value
        stack[2][where[::-1]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateMetricError, match="sample 2 ") as info:
                _invert_gram(stack)
        assert info.value.sample == 2
        # a non-finite entry reads NaN for the whole sample, whatever its block
        assert info.value.detail == "sigma_min = nan, sigma_max = nan"

    def test_an_all_zero_pair_block_is_singular(self):
        # (t, s) pairs [[-mu, 1], [1, 0]] beside a 1x1 block; the pair
        # vanishes at sample 1, where sigma_max of the block is 0
        stack = np.zeros((3, 3, 3))
        stack[:, 0, 0] = -2.0
        stack[:, 0, 1] = stack[:, 1, 0] = 1.0
        stack[:, 2, 2] = 5.0
        stack[1, :2, :2] = 0.0
        with pytest.raises(DegenerateMetricError, match="sample 1 ") as info:
            _invert_gram(stack)
        assert info.value.detail == "sigma_min = 0.000e+00, sigma_max = 5.000e+00"

    def test_permuted_blocks_and_a_larger_block_take_lapack(self, monkeypatch):
        # blocks {0, 4}, {2}, {1, 3, 6} and {5} of a 7 x 7 Gram, interleaved
        rng = np.random.default_rng(30)
        blocks = [[0, 4], [2], [1, 3, 6], [5]]
        g = np.zeros((6, 7, 7))
        for b in blocks:
            m = rng.normal(size=(6, len(b), len(b))) + 3.0 * np.eye(len(b))
            g[:, np.array(b)[:, None], b] = m + m.swapaxes(-1, -2)
        seen = []
        lapack = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: seen.append(a.copy()) or lapack(a))
        ginv = _invert_gram(g)
        assert [a.shape for a in seen] == [(6, 3, 3)]
        assert np.array_equal(seen[0], g[:, [[1], [3], [6]], [1, 3, 6]])
        assert np.array_equal(ginv[:, [[1], [3], [6]], [1, 3, 6]], lapack(seen[0]))
        assert np.allclose(ginv @ g, np.eye(7), rtol=0.0, atol=1e-12)
        off_block = np.ones((7, 7), dtype=bool)
        for b in blocks:
            off_block[np.array(b)[:, None], b] = False
        assert not ginv[:, off_block].any()

    def test_a_dense_gram_is_one_block_and_bitwise_lapack(self):
        m = np.random.default_rng(31).normal(size=(9, 5, 5))
        g = m + m.swapaxes(-1, -2)
        assert np.array_equal(_invert_gram(g), np.linalg.inv(g))

    def test_the_decision_is_the_eigvalsh_decision_across_the_cut(self):
        # one block of each kind, {1, 4}, {3} and {0, 2, 5}; at each sample
        # one of them carries sigma_min / sigma_max log-uniform on
        # [1e-14, 1e-10], around the cut at 1e-12.  Both methods round
        # sigma_min by about eps * sigma_max, 1e-4 of it at the cut, so
        # samples within 1e-3 (in log10) of the cut are left out.
        rng = np.random.default_rng(32)
        blocks = [np.array([1, 4]), np.array([3]), np.array([0, 2, 5])]
        decided = []
        for _ in range(300):
            g = np.zeros((6, 6))
            thin = rng.integers(len(blocks))
            big = 10.0 ** rng.uniform(-3.0, 3.0)
            for k, b in enumerate(blocks):
                s = big * rng.choice([-1.0, 1.0], size=len(b)) * rng.uniform(0.5, 1.0, len(b))
                if k == thin:
                    s[0] = s[-1] * 10.0 ** rng.uniform(-14.0, -10.0)
                q, _ = np.linalg.qr(rng.normal(size=(len(b), len(b))))
                m = (q * s) @ q.T
                g[b[:, None], b] = 0.5 * (m + m.T)
            sv = np.abs(np.linalg.eigvalsh(g))
            ratio = sv.min() / sv.max()
            if abs(np.log10(ratio) + 12.0) < 1e-3:
                continue
            try:
                _invert_gram(g)
                singular = False
            except DegenerateMetricError:
                singular = True
            assert singular == (ratio <= 1e-12), (ratio, g)
            decided.append(singular)
        assert len(decided) > 290
        assert 50 < sum(decided) < len(decided) - 50


class TestNegativeIndex:
    def test_blocks_count_as_eigvalsh(self):
        # 2x2 blocks of each sign pattern, det = 0 with either trace
        # included, beside 1x1 and 3x3 blocks
        rng = np.random.default_rng(33)
        g = np.zeros((40, 8, 8))
        for b in ([0, 5], [1, 3], [7], [2, 4, 6]):
            m = rng.normal(size=(40, len(b), len(b)))
            g[:, np.array(b)[:, None], b] = m + m.swapaxes(-1, -2)
        # the {0, 5} pair at samples 0..3: [[-1, 1], [1, -1]] and
        # [[1, 1], [1, 1]] (det 0, trace -2 and 2), diag(-1, 0), zero
        g[:4, 0, 0] = [-1.0, 1.0, -1.0, 0.0]
        g[:4, 5, 5] = [-1.0, 1.0, 0.0, 0.0]
        g[:4, 0, 5] = g[:4, 5, 0] = [1.0, 1.0, 0.0, 0.0]
        count = negative_index(g)
        assert np.array_equal(count, (np.linalg.eigvalsh(g) < 0).sum(axis=-1))
        assert count.dtype.kind == "i"
        assert {int(c) for c in count} >= {3, 4, 5}


# ---------------------------------------------------------------------------
# homogeneous checks on a batch


class TestBatchedHomogeneous:
    cfg = SchrodingerManifoldConfig(2, -1.0, 2.0)

    def test_dict_checks_match_per_point(self):
        pts = bulk_points(2, 5, seed=3)
        # sample k alone is the batch of one [k : k + 1]
        cases = (
            (xi_hat_consistency(self.cfg, bulk_pass(self.cfg, pts, 1)),
             lambda k: xi_hat_consistency(self.cfg, bulk_pass(self.cfg, pts[k : k + 1], 1))),
            (induced_metric(self.cfg, bulk_pass(self.cfg, pts, 1)),
             lambda k: induced_metric(self.cfg, bulk_pass(self.cfg, pts[k : k + 1], 1))),
        )
        for batch, single in cases:
            for k in range(5):
                found = single(k)
                assert set(found) == set(batch)
                for key, value in found.items():
                    assert value.shape == (1,)
                    assert batch[key][k] == value[0]

    def test_curvature_residuals_match_per_point(self):
        pts = bulk_points(2, 4, seed=4)
        res = nullfluid_residual(self.cfg, bulk_pass(self.cfg, pts))
        plus = SchrodingerManifoldConfig(2, -0.5, 0.0)
        computed, predicted = einstein_residual(plus, bulk_pass(plus, pts))
        counts = negative_index(gram_values(bulk_metric(self.cfg), pts))
        wedge = integrability_residual(self.cfg, bulk_pass(self.cfg, pts, 1))
        recovery = metric_recovery_residual(2, pts)
        for k in range(len(pts)):
            p = pts[k : k + 1]
            one = nullfluid_residual(self.cfg, bulk_pass(self.cfg, p))
            assert np.abs(res[k] - one[0]).max() <= 1e-13
            c, q = einstein_residual(plus, bulk_pass(plus, p))
            assert np.abs(computed[k] - c[0]).max() <= 1e-13
            assert np.abs(predicted[k] - q[0]).max() <= 1e-13
            assert counts[k] == negative_index(gram_values(bulk_metric(self.cfg), p))[0] == 1
            assert wedge[k] == integrability_residual(self.cfg, bulk_pass(self.cfg, p, 1))[0]
            assert recovery[k] == metric_recovery_residual(2, p)[0]

    def test_boundary_guard_checks_every_sample(self):
        cols = [np.array([0.1, 0.2])] * 3 + [np.array([1.0, 0.0])]
        with pytest.raises(BoundaryPointError):
            embed_components(SchrodingerManifoldConfig(1, -0.5), cols)

    def test_chart_escape_is_a_mask_on_a_batch(self):
        cfg = SchrodingerManifoldConfig(1, -0.5, 1.0)
        Q = [np.array([0.3, 0.3]), np.array([0.1, 0.1]), np.array([0.2, 0.2]),
             np.array([-0.4, -0.4]), np.array([1.5, -1.5])]
        out = chart_from_ambient(cfg, Q)
        assert np.isnan([c[1] for c in out]).all()
        first = chart_from_ambient(cfg, [q[:1] for q in Q])
        assert np.allclose([c[0] for c in out], [c[0] for c in first])
        # a batch of one that left the sheet reads NaN as well
        assert np.isnan(chart_from_ambient(cfg, [q[1:] for q in Q])).all()


def _group_matrix(d, seed):
    return random_group_element(d, np.random.default_rng(seed))


def _escaping_matrix(d, c):
    # last ambient component becomes (scale / rh) (1 + c xh1): off the sheet
    # wherever xh1 < -1/c
    A = np.eye(d + 4)
    A[d + 3, 0] = c
    return A


class TestBatchedIsometry:
    """One batch over the points it is handed: a point whose image has
    Q_{d+3} at or below the guard reads a NaN metric residual and is marked
    escaped, and every other point gives what its batch of one gives, bit
    for bit, on a sequential walk over the points."""

    @pytest.mark.parametrize(
        "d, lam, mu, make, samples, seed",
        [
            (2, -0.5, 1.0, lambda d: null_plane_boost(d, 1.7), 6, 5),
            (1, -1.0, 2.0, lambda d: _group_matrix(d, 1), 7, 2),
            (3, -0.5, 1.0, lambda d: _group_matrix(d, 9), 5, 11),
            (2, -0.5, 1.0, lambda d: _escaping_matrix(d, 1.5), 12, 3),
            (1, -2.0, 0.0, lambda d: _escaping_matrix(d, 1.0), 20, 8),
        ],
    )
    def test_matches_sequential_walk(self, d, lam, mu, make, samples, seed):
        cfg = SchrodingerManifoldConfig(d, lam, mu)
        A = make(d)
        pts = bulk_points(d, samples, seed)
        res = isometry_check(cfg, A, pts)
        off = np.array([(A @ embed(cfg, p).Q)[d + 3] <= 1e-8 for p in pts])
        assert set(res) == {"metric_residual", "quadric_residual", "escaped"}
        assert same_bits(res["escaped"], off)
        assert np.isnan(res["metric_residual"][off]).all()
        for k in range(len(pts)):
            one = isometry_check(cfg, A, pts[k : k + 1])
            assert one["escaped"][0] == off[k]
            if off[k]:
                assert np.isnan(one["metric_residual"][0])
                continue
            for key in ("metric_residual", "quadric_residual"):
                assert same_bits(res[key][k], one[key][0]), (k, key)

    def test_escape_forcing_matrix_does_escape(self):
        cfg = SchrodingerManifoldConfig(2, -0.5, 1.0)
        res = isometry_check(cfg, _escaping_matrix(2, 1.5), bulk_points(2, 12, 3))
        assert 0 < res["escaped"].sum() < 12


# ---------------------------------------------------------------------------
# the Bargmann and Schrödinger-equation operators on a batch


PARAMS = bg.SchrodingerParams()


def _maps(d):
    return {
        "translation": bg.group_map(translation_element(d, [0.3] * d + [0.2, -0.4])),
        "boost": bg.group_map(boost_element(d, [0.35] * d)),
        "dilation": bg.group_map(dilation_element(d, 0.3)),
        "expansion": bg.group_map(expansion_element(d, 0.25)),
    }


def _densities(d):
    psi = bg.plane_wave(d, 0.8 * np.random.default_rng(d).normal(size=d), PARAMS)
    out = {"plane_wave": psi}
    for name, phi in _maps(d).items():
        out[name] = bg.transported_density(phi, psi)
    return out


def _flat_points(d, count=5, seed=0, box=0.8):
    return SeededSampler(seed, [(-box, box)] * (d + 2)).points(count)


def _assert_bitwise(batch, single):
    """Sample k of ``batch`` is the one value of the batch of one single[k]."""
    assert np.shape(batch)[0] == len(single)
    for k, one in enumerate(single):
        assert np.shape(one) == (1,)
        assert batch[k] == one[0], (k, batch[k], one)


def _batches_of_one(pts):
    """Each point of ``pts`` as its own batch, (1, n)."""
    return [pts[k : k + 1] for k in range(len(pts))]


@pytest.mark.parametrize("d", [1, 2, 3])
class TestBatchedWaveOperators:
    def test_divergence(self, d):
        structure = bg.flat_bargmann(d)
        field = realize_field(algebra_element(d, np.random.default_rng(d)), d)
        pts = _flat_points(d)
        for vf in (structure.xi, field):
            batch = divergence(gram_jets(structure.metric, pts, 1), vf)
            assert batch.shape == (len(pts),)
            single = [
                divergence(gram_jets(structure.metric, p, 1), vf) for p in _batches_of_one(pts)
            ]
            _assert_bitwise(batch, single)

    @pytest.mark.parametrize("density", ["plane_wave", "translation", "boost", "dilation", "expansion"])
    def test_laplacian_and_yamabe(self, d, density):
        structure = bg.flat_bargmann(d)
        f = _densities(d)[density].coefficient
        pts = _flat_points(d, seed=1)
        for op in (laplacian, yamabe_residual):
            batch = _on_pass(op, structure.metric, f, pts)
            single = [_on_pass(op, structure.metric, f, p) for p in _batches_of_one(pts)]
            _assert_bitwise(batch, single)

    @pytest.mark.parametrize("density", ["plane_wave", "translation", "boost", "dilation", "expansion"])
    def test_density_lie_derivative_and_residual(self, d, density):
        structure = bg.flat_bargmann(d)
        psi = _densities(d)[density]
        field = realize_field(algebra_element(d, np.random.default_rng(7)), d)
        pts = _flat_points(d, seed=2)
        for vf in (structure.xi, field):
            batch = density_lie_derivative(structure.metric, vf, psi, pts)
            single = [
                density_lie_derivative(structure.metric, vf, psi, p) for p in _batches_of_one(pts)
            ]
            assert all(np.iscomplexobj(v) for v in single)
            _assert_bitwise(batch, single)
        r1, r2 = bg.schrodinger_residual(structure, psi, PARAMS, pts)
        single = [bg.schrodinger_residual(structure, psi, PARAMS, p) for p in _batches_of_one(pts)]
        _assert_bitwise(r1, [a for a, _ in single])
        _assert_bitwise(r2, [b for _, b in single])
        # the magnitudes round as Python's abs(complex) does
        _assert_bitwise(bg.complex_magnitude(r1), [[abs(complex(a[0]))] for a, _ in single])


def test_constant_function_on_a_batch():
    structure = bg.flat_bargmann(2)
    pts = _flat_points(2, count=3)
    out = scalar_laplacian(structure.metric, lambda x: 2.5, pts)
    assert out.shape == (3,) and not out.any()


def _escaping_element(d):
    for seed in range(50):
        ge = random_group_element(d, np.random.default_rng(seed))
        if abs(ge[d + 1, d + 2]) > 0.05:  # the expansion block a
            return ge
    raise AssertionError("no element with a visible expansion block")


def _chart_root(ge):
    """The time t at which the denominator e - a t of ``ge`` vanishes."""
    d = ge.shape[-1] - 4
    return ge[d + 3, d + 3] / ge[d + 1, d + 2]


class TestBatchedProjectiveAction:
    def test_batch_matches_points(self):
        d = 2
        ge = _escaping_element(d)
        pts = _flat_points(d, count=4)
        batch = projective_action(ge, nk.seed_point(pts))
        for k in range(len(pts)):
            for b, one in zip(batch, projective_action(ge, nk.seed_point(pts[k : k + 1]))):
                assert b.value[k] == one.value[0]
                assert np.array_equal(b.grad[:, k], one.grad[:, 0])
                assert np.array_equal(b.hess[..., k], one.hess[..., 0])

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_one_escaping_sample_is_nan(self, bad):
        d = 2
        ge = _escaping_element(d)
        pts = _flat_points(d, count=5)
        pts[bad, d] = _chart_root(ge)
        assert abs(projective_denominator(ge, pts[bad, d])) <= 1e-8
        r = np.linspace(1.0, 1.4, 5)
        keep = np.arange(5) != bad

        def at(values, index):
            """Every value, gradient and Hessian entry of the samples at
            ``index``."""
            parts = [(v.value, v.grad, v.hess) if isinstance(v, Jet2) else (v,) for v in values]
            return [np.asarray(p)[..., index] for part in parts for p in part if p is not None]

        for lift in (lambda x: list(x.T), partial(nk.seed_point, order=1), nk.seed_point):
            got, got_r = projective_action(ge, lift(pts), r)
            bare = projective_action(ge, lift(pts))
            # the batch without the escaped sample: what every other sample is
            want, want_r = projective_action(ge, lift(pts[keep]), r[keep])
            for values in (got, bare, [got_r]):
                assert all(np.isnan(p).all() for p in at(values, bad))
            for values, clean in ((got, want), (bare, want), ([got_r], [want_r])):
                mine = [p.tobytes() for p in at(values, keep)]
                assert mine == [p.tobytes() for p in at(clean, slice(None))]
        # a batch of one off the chart reads NaN as well
        alone = pts[bad : bad + 1]
        for lift in (lambda x: list(x.T), nk.seed_point):
            assert all(np.isnan(p).all() for p in at(projective_action(ge, lift(alone)), 0))


def sequential_transport(phi, psi, structure, params, samples, seed, weight=None, box=1.0):
    """Reference: one point at a time, each a batch of one, magnitudes by
    Python's abs; per point, (N,) each."""
    n = structure.d + 2
    sampler = SeededSampler(seed, [(-box, box)] * n)
    moved = bg.transported_density(phi, psi, weight=weight)
    r1, r2, conf = [], [], []
    for p in _batches_of_one(sampler.points(samples)):
        vals, jac = jet_components(phi.forward, p)
        q, J = vals.real, jac.real[0]
        g_here = gram_values(structure.metric, p)[0]
        pulled = J.T @ gram_values(structure.metric, q)[0] @ J
        scale = float((pulled * g_here).sum() / (g_here * g_here).sum())
        conf.append(float(np.abs(pulled - scale * g_here).max()))
        a, b = bg.schrodinger_residual(structure, moved, params, q)
        r1.append(abs(complex(a[0])))
        r2.append(abs(complex(b[0])))
    return {"r1": np.array(r1), "r2": np.array(r2), "conformal_residual": np.array(conf)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("weight", [None, 0.0])
def test_symmetry_transport_matches_per_point_loop(d, weight):
    structure = bg.flat_bargmann(d)
    psi = _densities(d)["plane_wave"]
    ge = random_group_element(d, np.random.default_rng(3), scale=0.25)
    maps = dict(_maps(d), group=bg.group_map(ge[None]))
    for name, phi in maps.items():
        pts = _flat_points(d, count=5, seed=11, box=0.5)
        batched = bg.symmetry_transport_check(phi, psi, structure, PARAMS, pts, weight)
        reference = sequential_transport(
            phi, psi, structure, PARAMS, 5, 11, weight=weight, box=0.5
        )
        assert batched.keys() == reference.keys()
        for key, value in batched.items():
            assert same_bits(value, reference[key]), (name, key)


def test_transport_through_an_escaped_sample_reads_nan():
    """A group map that leaves its chart at one sample: the residuals read
    NaN at that sample, which files FAIL, instead of raising, and every
    other sample reads as before."""
    d = 2
    ge = _escaping_element(d)
    phi, psi = bg.group_map(ge[None]), _densities(d)["plane_wave"]
    pts = _flat_points(d, count=5, seed=11, box=0.5)
    clean = bg.symmetry_transport_check(phi, psi, bg.flat_bargmann(d), PARAMS, pts)
    assert all(np.isfinite(v).all() for v in clean.values())
    pts[2, d] = _chart_root(ge)
    escaped = bg.symmetry_transport_check(phi, psi, bg.flat_bargmann(d), PARAMS, pts)
    for key, value in escaped.items():
        assert np.isnan(value[2]), key
        assert same_bits(np.delete(value, 2), np.delete(clean[key], 2)), key


def _one_point_checks(d):
    """Checks of the points they are handed, on operands where they read a
    nonzero residual: the structure rescaled across space, the factor along
    space, and the expansion without the density weight."""
    structure = bg.flat_bargmann(d)
    across = bg.BargmannStructure(
        rescaled_metric(structure, lambda p: nk.exp(2.0 * p[0])), structure.xi, d
    )
    phi, psi = _maps(d)["expansion"], _densities(d)["plane_wave"]
    return {
        "bargmann_axioms": lambda pts: bg.bargmann_axioms_check(
            across, gram_jets(across.metric, pts, 1)
        ),
        "conformal_equivalence": lambda pts: {
            "residual": bg.conformal_equivalence_check(
                lambda x: nk.exp(x[0]), structure, gram_jets(structure.metric, pts, 1)
            )
        },
        "symmetry_transport": lambda pts: bg.symmetry_transport_check(
            phi, psi, structure, PARAMS, pts, weight=0.0
        ),
    }


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "check", ["bargmann_axioms", "conformal_equivalence", "symmetry_transport"]
)
def test_a_check_is_the_max_of_its_one_point_calls(d, check):
    # each sample is its one-point call, so a record's residual replays at
    # the one point that sets it
    measure = _one_point_checks(d)[check]
    pts = _flat_points(d, seed=12, box=0.5)
    batched = measure(pts)
    single = [measure(pts[k : k + 1]) for k in range(len(pts))]
    assert max(v.max() for v in batched.values()) > 1e-3
    for key, value in batched.items():
        assert same_bits(value, np.concatenate([s[key] for s in single])), key
        assert nk.max_entry(value) == max(s[key][0] for s in single), key


# ---------------------------------------------------------------------------
# the algebra layer: the basis stack, field brackets and the chart action


def sequential_bracket_fields(e1, e2, d, p):
    """Reference: one point, both fields and the matrix bracket realized at
    that point alone, as a batch of one."""
    v1 = realize_field(e1, d)
    v2 = realize_field(e2, d)
    vv, vj = (a[0] for a in jet_components(v1.components, p[None]))
    wv, wj = (a[0] for a in jet_components(v2.components, p[None]))
    fb = np.einsum("c,ac->a", vv, wj) - np.einsum("c,ac->a", wv, vj)
    m = e1 @ e2 - e2 @ e1
    vm = realize_field(m, d)
    mv = np.array([c[0] for c in vm.components(list(p[:, None]))], dtype=float)
    return {"minus": float(np.abs(fb + mv).max()), "plus": float(np.abs(fb - mv).max())}


class TestBatchedAlgebra:
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_bracket_fields_batch_matches_points(self, d):
        rng = np.random.default_rng(20 + d)
        pts = _flat_points(d, count=3, seed=d, box=1.0)
        for _ in range(3):
            e1, e2 = algebra_element(d, rng), algebra_element(d, rng)
            single = [sequential_bracket_fields(e1, e2, d, p) for p in pts]
            batch = bracket_fields(e1, e2, d, pts)
            for key in ("minus", "plus"):
                assert same_bits(batch[key], np.array([r[key] for r in single]))
            one = bracket_fields(e1, e2, d, pts[1:2])
            assert {key: v.tolist() for key, v in one.items()} == {
                key: [v] for key, v in single[1].items()
            }

    @pytest.mark.parametrize("d", [1, 4, 8])
    def test_random_elements_match_basis_sums(self, d):
        basis = commutant_basis(d)
        rng, ref = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(20):
            got = algebra_element(d, rng)
            coeffs = ref.uniform(-0.4, 0.4, size=len(basis))
            want = sum(c * b for c, b in zip(coeffs, basis))
            assert got.tobytes() == want.tobytes()

    def test_stack_is_read_only_and_basis_copies_are_fresh(self):
        d = 2
        before = commutant_stack(d).copy()
        with pytest.raises(ValueError):
            commutant_stack(d)[0, 0, 0] = 1.0
        basis = commutant_basis(d)
        basis[0][:] = 7.0
        basis[1][: d + 2, : d + 2] = 7.0
        assert commutant_stack(d).tobytes() == before.tobytes()
        again = commutant_basis(d)
        assert np.array_equal(again[0], before[0])
        assert np.array_equal(again[1], before[1])


def sequential_projective(cfg, d, sample_group):
    """Reference: the projective check one point and one r draw at a time,
    each point a batch of one, each escape read off its NaN image."""
    seed = check_seed(cfg, f"group_d{d}_projective")
    rng = np.random.default_rng(seed + 1)
    pts = SeededSampler(seed, [(-1.0, 1.0)] * (d + 2)).points(4)
    worst, used = 0.0, 0
    for _ in range(max(5, cfg.samples // 2)):
        ge = sample_group(d, rng)
        for p in pts:
            r = 1.0 + 0.3 * float(rng.uniform())
            img, r2 = projective_action(ge, list(p[:, None]), r)
            if not np.isfinite(r2[0]):
                continue
            used += 1
            lifted = np.array([float(v) for v in cone_point([v[0] for v in img], r2[0])])
            moved = ge @ np.array([float(v) for v in cone_point(list(p), r)])
            worst = max(worst, float(np.abs(lifted - moved).max()))
    return worst, used


def sequential_inverse(cfg, d, sample_group):
    """Reference: the inverse check one point at a time, each a batch of
    one, each escape read off its NaN image."""
    seed = check_seed(cfg, f"group_d{d}_inverse")
    rng = np.random.default_rng(seed + 1)
    pts = SeededSampler(seed, [(-1.0, 1.0)] * (d + 2)).points(4)
    worst, used = 0.0, 0
    for _ in range(max(3, max(5, cfg.samples // 2) // 3)):
        ge = sample_group(d, rng)
        gi = group_inverse(ge[None])[0]
        for p in pts:
            back = np.array(projective_action(gi, projective_action(ge, list(p[:, None]))))[:, 0]
            if not np.isfinite(back).all():
                continue
            used += 1
            worst = max(worst, float(np.abs(back - p).max()))
    return worst, used


def sometimes_escaping(ts):
    """group_elements, except that about half the elements become a pure
    expansion with denominator 1 - t/t_k, which leaves the chart where
    t = t_k for one of ``ts``.  The choice depends only on the element.
    Returns that stand-in and a one-element draw from an rng through it."""

    def element(d, coeffs):
        ge = group_elements(d, coeffs[None])[0]
        k = zlib.crc32(ge.tobytes()) % (2 * len(ts))
        if k >= len(ts):
            return ge
        return exp_group(expansion_generator(d, 1.0 / ts[k])[None], d)[0]

    def elements(d, coeffs):
        return np.array([element(d, c) for c in coeffs])

    def sample(d, rng):
        return element(d, group_coefficients(d, rng, 1)[0])

    return elements, sample


@pytest.mark.parametrize("d, seed", [(1, 5), (2, 0), (4, 3)])
def test_group_chart_checks_match_per_point_loops(monkeypatch, d, seed):
    cfg = SuiteConfig(suite="group", dims=(d,), samples=40, seed=seed)
    ts = [
        float(t)
        for check in ("projective", "inverse")
        for t in SeededSampler(check_seed(cfg, f"group_d{d}_{check}"), [(-1.0, 1.0)] * (d + 2))
        .points(4)[:, d]
    ]
    elements, sample = sometimes_escaping(ts)
    monkeypatch.setattr(suites, "group_elements", elements)
    records = {c.name: c for c in run_suite(cfg).checks}
    escapes = 0
    for check, reference, rounds in (
        ("projective", sequential_projective, 20),
        ("inverse", sequential_inverse, 6),
    ):
        rec = records[f"group_d{d}_{check}"]
        worst, used = reference(cfg, d, sample)
        assert rec.residual == worst
        assert rec.samples == 4 * rounds
        assert rec.extra["escapes"] == 4 * rounds - used
        escapes += rec.extra["escapes"]
    assert escapes > 0


# ---------------------------------------------------------------------------
# one contract: a batch (N, n) in, a leading sample axis out


def _pass_arrays(jets):
    """The arrays a pass holds with a sample axis."""
    return jets.g0, jets.dg, jets.hess, jets.ginv


def _on_pass(op, metric, f, p):
    """``op`` on the metric's pass over ``p`` and the jet of f on its seeds."""
    jets = gram_jets(metric, p)
    return op(jets, jets.scalar(f))


def _evaluators():
    """Each public evaluator as a call on its points, with a batch of one
    point of its chart."""
    d = 2
    flat_one, bulk_one = _flat_points(d, count=1), bulk_points(d, 1)
    cfg = SchrodingerManifoldConfig(d, -0.5, 1.0)
    flat = bg.flat_bargmann(d)
    rng = np.random.default_rng(5)
    e1, e2 = algebra_element(d, rng), algebra_element(d, rng)
    field = realize_field(e1, d)
    psi = bg.plane_wave(d, [0.3, -0.2], PARAMS)
    comps = field.components
    cfg_xi = xi_hat_field(cfg)

    def bulk(p, order):
        return gram_jets(bulk_metric(cfg), p, order)

    return {
        "gram_values": (flat_one, lambda p: gram_values(flat.metric, p)),
        "gram_jets": (flat_one, lambda p: _pass_arrays(gram_jets(flat.metric, p))),
        "jet_components": (flat_one, lambda p: jet_components(comps, p)),
        "component_values": (flat_one, lambda p: component_values(comps, p)),
        "covariant_derivative": (bulk_one, lambda p: covariant_derivative(bulk(p, 1), cfg_xi)),
        "lie_derivative_metric": (bulk_one, lambda p: lie_derivative_metric(bulk(p, 1), cfg_xi)),
        "ricci": (bulk_one, lambda p: bulk(p, 2).ricci()),
        "divergence": (flat_one, lambda p: divergence(gram_jets(flat.metric, p, 1), field)),
        "laplacian": (flat_one, lambda p: _on_pass(laplacian, flat.metric, psi.coefficient, p)),
        "yamabe_residual": (
            flat_one, lambda p: _on_pass(yamabe_residual, flat.metric, psi.coefficient, p)
        ),
        "lie_bracket": (flat_one, lambda p: lie_bracket(field, flat.xi, p)),
        "induced_metric": (bulk_one, lambda p: induced_metric(cfg, bulk(p, 1))),
        "xi_hat_consistency": (bulk_one, lambda p: xi_hat_consistency(cfg, bulk(p, 1))),
        "isometry_check": (bulk_one, lambda p: isometry_check(cfg, null_plane_boost(d, 1.5), p)),
        "schrodinger_residual": (flat_one, lambda p: bg.schrodinger_residual(flat, psi, PARAMS, p)),
        "bracket_fields": (flat_one, lambda p: bracket_fields(e1, e2, d, p)),
    }


@pytest.mark.parametrize("name", list(_evaluators()))
def test_an_evaluator_takes_a_batch_only(name):
    one, call = _evaluators()[name]
    n = one.shape[1]
    with pytest.raises(
        nk.ContractViolationError,
        match=re.escape(f"points must be a batch (N, n), got shape ({n},); one point is p[None]"),
    ):
        call(one[0])
    out = call(one)
    arrays = out.values() if isinstance(out, dict) else out if isinstance(out, tuple) else [out]
    for a in arrays:
        assert isinstance(a, np.ndarray) and a.shape[0] == 1, name


# ---------------------------------------------------------------------------
# verdicts over a seed sweep


def assert_sweep_passes(cfg):
    """Every record PASSes, and every must-exceed control is exceeded."""
    report = run_suite(cfg)
    failed = [c.name for c in report.checks if c.status != "PASS"]
    assert not failed, failed
    for c in report.checks:
        if "must_exceed" in c.extra:
            assert c.residual > c.extra["must_exceed"], c.name


@pytest.mark.parametrize("seed", range(10))
def test_bulk_suites_pass_over_seed_sweep(seed):
    for suite in ("homogeneous", "axioms"):
        assert_sweep_passes(SuiteConfig(suite=suite, seed=seed))


@pytest.mark.parametrize("seed", range(10))
def test_wave_boundary_and_group_suites_pass_over_seed_sweep(seed):
    for suite in ("bargmann", "schrodinger-eq", "boundary", "group"):
        assert_sweep_passes(SuiteConfig(suite=suite, seed=seed))


@pytest.mark.parametrize("seed", range(10))
def test_wide_algebra_and_group_suites_pass_over_seed_sweep(seed):
    for suite in ("lie-algebra", "group"):
        assert_sweep_passes(SuiteConfig(suite=suite, dims=(4, 6, 8), samples=40, seed=seed))
