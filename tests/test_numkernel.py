"""Kernel tests: jet arithmetic against finite differences, linear algebra
helpers against elementary oracles, sampler reproducibility."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrogeo import numkernel as nk
from schrogeo.numkernel import (
    ContractViolationError,
    Jet2,
    SeededSampler,
    rank_nullspace,
    seed_point,
    sparse_dot,
)


def fd_grad_hess(f, x, h=1e-5):
    """Central-difference gradient and Hessian, the jet oracle."""
    x = np.asarray(x, dtype=float)
    n = x.size
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    f0 = f(x)
    for i in range(n):
        for j in range(n):
            if i == j:
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                hess[i, i] = (f(xp) - 2 * f0 + f(xm)) / (h * h)
                continue
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[i] += h
            xpp[j] += h
            xmm[i] -= h
            xmm[j] -= h
            xpm[i] += h
            xpm[j] -= h
            xmp[i] -= h
            xmp[j] += h
            hess[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h * h)
    return grad, hess


def seed_one(p, order=2):
    """The jets of one point, seeded as a batch of one."""
    return seed_point(np.asarray(p, dtype=float)[None], order)


def first(j):
    """Value, gradient and Hessian of sample 0 of a jet."""
    return j.value[0], j.grad[..., 0], j.hess[..., 0]


def scalar_fn_jets(p):
    x, y = p[0], p[1]
    return nk.sin(x) * nk.exp(y) + x * x * x * y + (2.0 + x) ** 0.5 / (1.0 + y * y)


def scalar_fn_floats(p):
    x, y = p[0], p[1]
    return np.sin(x) * np.exp(y) + x**3 * y + np.sqrt(2.0 + x) / (1.0 + y * y)


class TestJet2:
    def test_matches_finite_differences(self):
        p = [0.4, -0.7]
        value, jgrad, jhess = first(scalar_fn_jets(seed_one(p)))
        grad, hess = fd_grad_hess(scalar_fn_floats, p)
        assert value == pytest.approx(scalar_fn_floats(np.array(p)), abs=1e-14)
        assert np.abs(jgrad - grad).max() < 1e-9
        assert np.abs(jhess - hess).max() < 1e-5

    def test_log_pow_chain(self):
        def f_jets(p):
            return nk.log(3.0 + nk.cos(p[0])) * p[1] ** 4

        def f_floats(p):
            return np.log(3.0 + np.cos(p[0])) * p[1] ** 4

        p = [1.1, 0.6]
        _, jgrad, jhess = first(f_jets(seed_one(p)))
        grad, hess = fd_grad_hess(f_floats, p)
        assert np.abs(jgrad - grad).max() < 1e-9
        assert np.abs(jhess - hess).max() < 1e-5

    def test_division_and_rpow(self):
        p = [0.5, 0.25]
        j = (1.0 / (seed_one(p)[0] + 2.0)) * seed_one(p)[1] ** 0.5
        _, jgrad, jhess = first(j)

        def f(q):
            return (1.0 / (q[0] + 2.0)) * q[1] ** 0.5

        grad, hess = fd_grad_hess(f, p)
        assert np.abs(jgrad - grad).max() < 1e-8
        assert np.abs(jhess - hess).max() < 1e-4

    def test_hessian_symmetry(self):
        _, _, hess = first(scalar_fn_jets(seed_one([0.3, 0.9])))
        assert np.abs(hess - hess.T).max() == 0.0

    def test_complex_combination(self):
        p = [0.2, -0.4]
        x, y = seed_one(p)
        j = (nk.cos(x) + 1j * nk.sin(x)) * y
        expected = (np.cos(0.2) + 1j * np.sin(0.2)) * (-0.4)
        assert abs(j.value[0] - expected) < 1e-15

    def test_constant_and_variable(self):
        c = Jet2.constant(3.5, 4)
        v = Jet2.variable(2.0, 1, 4)
        assert c.grad.tolist() == [0, 0, 0, 0]
        assert v.grad.tolist() == [0, 1, 0, 0]
        assert (c * v).value == 7.0

    def test_log_negative_raises(self):
        with pytest.raises(ContractViolationError):
            nk.log(Jet2.constant(-1.0, 2))

    @pytest.mark.parametrize(
        "expr", [lambda u: u**2, lambda u: 1 / u, nk.log], ids=["square", "reciprocal", "log"]
    )
    def test_a_scalar_valued_jet_breaks_the_batch_contract(self, expr):
        u = Jet2(2.0, np.array([1.0]), np.zeros((1, 1)))
        with pytest.raises(ContractViolationError, match=r"\(N,\) array .* got shape \(\)"):
            expr(u)

    def test_a_per_sample_exponent_is_each_sample_alone(self):
        # sample s of u ** k is bitwise u_s ** k[s] on its batch of one,
        # with k[s] a Python float, the weight-0 sample included
        pts = np.array([[0.4, 1.3], [-0.2, 0.7], [0.9, 2.1], [0.1, 0.3]])
        k = np.array([-1.5, 1.0 / 3.0, 0.0, 2.5])
        u = (2.0 + seed_point(pts)[0]) * seed_point(pts)[1]
        got = u**k
        for s, p in enumerate(pts):
            x, y = seed_one(p)
            one = ((2.0 + x) * y) ** float(k[s])
            assert got.value[s] == one.value[0]
            assert got.grad[:, s].tobytes() == one.grad[:, 0].tobytes()
            assert got.hess[..., s].tobytes() == one.hess[..., 0].tobytes()
        with pytest.raises(ContractViolationError):
            u ** np.ones(3)

    @given(
        st.floats(-2, 2),
        st.floats(-2, 2),
        st.floats(-2, 2),
        st.floats(-2, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_rule_exact(self, a, b, c, d):
        # (fg)' = f'g + fg' holds to machine precision, no truncation error
        x = Jet2(a, np.array([b]), np.array([[c]]))
        y = Jet2(d, np.array([a]), np.array([[b]]))
        z = x * y
        assert z.grad[0] == pytest.approx(b * d + a * a, rel=1e-12, abs=1e-12)
        assert z.hess[0, 0] == pytest.approx(
            c * d + 2 * b * a + a * b, rel=1e-12, abs=1e-12
        )


class TestLinearAlgebra:
    def test_rank_by_construction(self):
        rng = np.random.default_rng(2)
        for r in (1, 2, 4):
            m = rng.normal(size=(6, r)) @ rng.normal(size=(r, 5))
            rank, null = rank_nullspace(m)
            assert rank == r
            assert null.shape == (5 - r, 5)
            if null.size:
                assert np.abs(m @ null.T).max() < 1e-10

    def test_nullspace_annihilates(self):
        m = np.array([[1.0, 2.0, 3.0]])
        rank, null = rank_nullspace(m)
        assert rank == 1
        assert null.shape[0] == 2
        assert np.abs(null @ m.T).max() < 1e-12


class TestSeededSampler:
    def test_reproducible(self):
        a = SeededSampler(11, [(-1, 1), (0, 2)]).points(8)
        b = SeededSampler(11, [(-1, 1), (0, 2)]).points(8)
        assert np.array_equal(a, b)

    def test_respects_boxes(self):
        pts = SeededSampler(4, [(-1, 1), (5, 6)]).points(50)
        assert pts[:, 0].min() >= -1 and pts[:, 0].max() <= 1
        assert pts[:, 1].min() >= 5 and pts[:, 1].max() <= 6

    def test_exclusion_counts(self):
        s = SeededSampler(7, [(-1, 1)], exclude=lambda p: p[0] < 0)
        pts = s.points(20)
        assert pts.min() >= 0
        assert s.rejections > 0

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1])
    def test_generator_is_the_default_rng_stream(self, seed):
        a, b = SeededSampler.generator(seed), np.random.default_rng(seed)
        assert a.bit_generator.state == b.bit_generator.state
        assert a.normal(size=7).tobytes() == b.normal(size=7).tobytes()

    def test_rejects_bad_boxes(self):
        with pytest.raises(ContractViolationError):
            SeededSampler(0, [(1.0, 1.0)])

    @pytest.mark.parametrize("seed", [0, 3, 42])
    @pytest.mark.parametrize("dim", [1, 4, 11])
    def test_a_block_is_consecutive_samples(self, seed, dim):
        boxes = [(-1.0 - k, 0.5 * k + 0.25) for k in range(dim)]
        block = SeededSampler(seed, boxes)
        one = SeededSampler(seed, boxes)
        # a second block continues the stream where the first one stopped
        for count in (7, 5):
            pts = block.points(count)
            assert pts.shape == (count, dim)
            expected = np.array([one.sample() for _ in range(count)])
            assert pts.tobytes() == expected.tobytes()
        assert block.sample().tobytes() == one.sample().tobytes()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_seed_stays_inside(self, seed):
        p = SeededSampler(seed, [(-0.5, 0.5)]).sample()
        assert -0.5 <= p[0] <= 0.5

    def test_boxes_are_checked_once_and_read_only(self):
        a = SeededSampler(1, [(-1, 1), (0, 2)])
        b = SeededSampler(2, [(-1.0, 1.0), (0.0, 2.0)])
        assert a.boxes is b.boxes
        assert not a.boxes.flags.writeable
        assert a.boxes.tolist() == [[-1.0, 1.0], [0.0, 2.0]]
        with pytest.raises(ValueError):
            a.boxes[0, 0] = 5.0

    @pytest.mark.parametrize("boxes", [[(1.0, 1.0)], [(2, 1)], [(0, 1, 2)], [], [0.5]])
    def test_a_bad_box_raises_on_every_call(self, boxes):
        for _ in range(2):
            with pytest.raises(ContractViolationError):
                SeededSampler(0, boxes)


class TestSeedPoint:
    """The seeds share one read-only identity block and one read-only zero
    Hessian, and equal the seeds built one variable at a time."""

    @pytest.mark.parametrize("coords", [[0.3, -1.2], 0.5, np.ones((2, 3, 2))])
    def test_anything_but_a_batch_raises(self, coords):
        with pytest.raises(ContractViolationError, match=re.escape(f"{np.shape(coords)};")):
            seed_point(coords)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("coords", [[[0.3, -1.2, 2.0, 0.7]], np.arange(15.0).reshape(5, 3)])
    def test_equals_one_variable_at_a_time(self, coords, order):
        pts = np.asarray(coords, dtype=float)
        n = pts.shape[-1]
        values = np.ascontiguousarray(pts.T)
        want = [Jet2.variable(c, i, n, order) for i, c in enumerate(values)]
        got = seed_point(coords, order)
        assert len(got) == len(want) == n
        for a, b in zip(got, want):
            assert type(a.value) is type(b.value)
            assert np.asarray(a.value).tobytes() == np.asarray(b.value).tobytes()
            assert a.grad.shape == b.grad.shape and a.grad.tobytes() == b.grad.tobytes()
            if order == 1:
                assert a.hess is None and b.hess is None
            else:
                assert a.hess.shape == b.hess.shape and a.hess.tobytes() == b.hess.tobytes()

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("coords", [[[0.3, -1.2, 2.0]], np.ones((4, 3))])
    def test_the_shared_arrays_are_read_only(self, coords, order):
        jets = seed_point(coords, order)
        for x in jets:
            assert not x.grad.flags.writeable
            with pytest.raises(ValueError):
                x.grad[...] = 0.0
            if order == 2:
                assert x.hess is jets[0].hess and not x.hess.flags.writeable
                with pytest.raises(ValueError):
                    x.hess[...] = 1.0
        # an operation builds new arrays, which stay writable
        y = jets[0] * jets[1] + jets[2]
        assert y.grad.flags.writeable


def reference_dot(coeffs, terms):
    """The accumulation ``sparse_dot`` replaced, written out: every product
    in order, the first one not added to zero."""
    total = None
    for c, x in zip(coeffs, terms):
        term = c * x
        total = term if total is None else total + term
    return total


def jet_bits(x):
    if isinstance(x, Jet2):
        hess = None if x.hess is None else np.asarray(x.hess).tobytes()
        return (np.asarray(x.value).tobytes(), x.grad.tobytes(), hess)
    return np.asarray(x).tobytes()


class TestSparseDot:
    """``sparse_dot`` against the written-out loop, bit for bit."""

    @staticmethod
    def jets(order, batch, count=4, n=3):
        rng = np.random.default_rng(order * 10 + len(batch))
        p = seed_point(rng.uniform(-1, 1, size=batch + (n,)), order)
        # non-linear entries, so value, gradient and Hessian all carry bits
        return [p[i % n] * p[(i + 1) % n] + 0.3 * i for i in range(count)]

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("batch", [(1,), (5,)], ids=["point", "batch"])
    def test_jets_match_the_reference_loop(self, order, batch):
        terms = self.jets(order, batch)
        coeffs = np.array([0.7, -1.3, 2.9, 1e-3])
        assert jet_bits(sparse_dot(coeffs, terms)) == jet_bits(
            reference_dot(coeffs, terms)
        )
        # jets on the coefficient side as well
        assert jet_bits(sparse_dot(terms, terms[::-1])) == jet_bits(
            reference_dot(terms, terms[::-1])
        )

    def test_floats_and_arrays_match_the_reference_loop(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=6)
        floats = rng.normal(size=6).tolist()
        arrays = list(rng.normal(size=(6, 7)))
        assert sparse_dot(coeffs, floats) == reference_dot(coeffs, floats)
        assert sparse_dot(coeffs, arrays).tobytes() == reference_dot(coeffs, arrays).tobytes()

    @pytest.mark.parametrize("order", [1, 2])
    def test_constant_zeros_are_skipped(self, order):
        terms = self.jets(order, (4,))
        coeffs = np.array([0.0, 1.5, 0.0, -0.5])
        live = reference_dot([1.5, -0.5], [terms[1], terms[3]])
        assert jet_bits(sparse_dot(coeffs, terms)) == jet_bits(live)
        # a zero factor drops its term just as a zero coefficient does
        factors = [terms[0], 0.0, terms[2], 0.0]
        got = sparse_dot([2.0, 3.0, -1.0, 4.0], factors)
        assert jet_bits(got) == jet_bits(reference_dot([2.0, -1.0], [terms[0], terms[2]]))

    def test_the_first_term_is_not_added_to_zero(self):
        # 0 + (-0.0) is +0.0, so a sum started at zero loses this sign
        got = sparse_dot([1.0, 0.0], [np.array([-0.0, 2.0]), np.ones(2)])
        assert np.signbit(got[0]) and got[1] == 2.0
        jet = Jet2(-0.0, np.array([1.0, -0.0]), np.zeros((2, 2)))
        got = sparse_dot([1.0], [jet])
        assert np.signbit(got.value) and np.signbit(got.grad[1])

    def test_jets_and_arrays_are_never_skipped(self):
        zero_jet = Jet2.constant(0.0, 2)
        got = sparse_dot([1.0, 0.5], [zero_jet, zero_jet])
        assert isinstance(got, Jet2)
        zeros = np.zeros(3)
        got = sparse_dot([2.0], [zeros])
        assert isinstance(got, np.ndarray) and got.shape == (3,)

    def test_empty_sum_is_the_constant_zero(self):
        assert sparse_dot([], []) == 0.0
        assert isinstance(sparse_dot([], []), float)
        assert sparse_dot(np.zeros(3), self.jets(2, (1,))[:3]) == 0.0
