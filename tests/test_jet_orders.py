"""First-order jets and the derivative-order pass budget.

A first-order jet (``hess`` None) must give, operation by operation, the
value and the gradient of the second-order jet bit for bit; orders must not
mix; every operation's Hessian must be exactly symmetric and bitwise the
symmetrized Hessian of the product and chain rules; and
``coupling_passes`` must budget a pass by the working set of its order.
"""

import numpy as np
import pytest
from oracles import algebra_element, density_lie_derivative, expansion_map_rk4

from schrogeo import homogeneous as hg
from schrogeo import numkernel as nk
from schrogeo.ambient import (
    projective_action,
    random_group_element,
    realize_field,
)
from schrogeo.bargmann import (
    flat_bargmann,
    plane_wave,
    transported_density,
)
from schrogeo.geometry import gram_jets
from schrogeo.numkernel import ContractViolationError, Jet2


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_jet(rng, n, batch=(1,), positive=False, order=2):
    """A jet over ``batch`` samples with a random value, gradient and
    symmetrized Hessian."""
    value = rng.uniform(0.5, 2.0, size=batch) if positive else rng.normal(size=batch)
    grad = rng.normal(size=(n,) + batch)
    jet = Jet2(value, grad, rng.normal(size=(n, n) + batch))
    return jet if order == 2 else Jet2(jet.value, jet.grad)


def first_order(u: Jet2) -> Jet2:
    return Jet2(u.value, u.grad)


UNARY = {
    "neg": lambda u: -u,
    "reciprocal": lambda u: u._reciprocal(),
    "pow0": lambda u: u**0,
    "pow1": lambda u: u**1,
    "pow2": lambda u: u**2,
    "pow3": lambda u: u**3,
    "pow-2": lambda u: u**-2,
    "pow0.5": lambda u: u**0.5,
    "pow2.5": lambda u: u**2.5,
    "exp": nk.exp,
    "log": nk.log,
    "sin": nk.sin,
    "cos": nk.cos,
    "add_scalar": lambda u: u + 1.7,
    "rsub_scalar": lambda u: 1.7 - u,
    "mul_scalar": lambda u: u * -0.3,
    "div_scalar": lambda u: u / 0.7,
    "rdiv_scalar": lambda u: 0.7 / u,
}
BINARY = {
    "add": lambda u, v: u + v,
    "sub": lambda u, v: u - v,
    "mul": lambda u, v: u * v,
    "div": lambda u, v: u / v,
}
BATCHES = {"point": (1,), "batch": (4,)}


@pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
@pytest.mark.parametrize("name", UNARY)
def test_unary_first_order_matches_value_and_gradient(name, batch):
    u = random_jet(np.random.default_rng(3), 3, batch, positive=True)
    full, first = UNARY[name](u), UNARY[name](first_order(u))
    assert first.hess is None
    assert same_bits(first.value, full.value) and same_bits(first.grad, full.grad)


@pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
@pytest.mark.parametrize("name", BINARY)
def test_binary_first_order_matches_value_and_gradient(name, batch):
    rng = np.random.default_rng(4)
    u, v = random_jet(rng, 3, batch), random_jet(rng, 3, batch, positive=True)
    full, first = BINARY[name](u, v), BINARY[name](first_order(u), first_order(v))
    assert first.hess is None
    assert same_bits(first.value, full.value) and same_bits(first.grad, full.grad)


def test_per_sample_scalar_keeps_the_order():
    u = random_jet(np.random.default_rng(5), 2, (3,), order=1)
    a = np.array([1.9, -0.4, 3.3])
    for out in (a * u, u + a, a - u, u / a, a / u):
        assert out.hess is None


def test_seeds_and_constants_of_both_orders():
    pts = np.random.default_rng(6).normal(size=(4, 3))
    for p in (pts, pts[:1]):
        full, first = nk.seed_point(p), nk.seed_point(p, order=1)
        for a, b in zip(full, first):
            assert b.hess is None and a.hess is not None
            assert same_bits(a.value, b.value) and same_bits(a.grad, b.grad)
    assert Jet2.constant(np.full(4, 1.5), 3, order=1).hess is None
    assert Jet2.constant(np.full(4, 1.5), 3).hess.shape == (3, 3, 4)
    with pytest.raises(ContractViolationError):
        nk.seed_point(pts, order=3)


@pytest.mark.parametrize("name", BINARY)
def test_mixing_orders_raises(name):
    rng = np.random.default_rng(7)
    u, v = random_jet(rng, 3, positive=True), random_jet(rng, 3, positive=True)
    with pytest.raises(ContractViolationError):
        BINARY[name](u, first_order(v))
    with pytest.raises(ContractViolationError):
        BINARY[name](first_order(u), v)


# ---------------------------------------------------------------------------
# the Hessian of every operation is exactly symmetric, and bitwise the
# symmetrized Hessian of the product and chain rules


def symmetrized(h):
    return 0.5 * (h + h.swapaxes(0, 1))


def outer(g, h):
    """g_a h_b per sample."""
    return g[:, None] * h[None, :]


def power(v, k):
    """v ** k per sample, with the rounding of a Python float power."""
    return np.array([x**k for x in v.tolist()])


def chained(u, f1, f2):
    return symmetrized(f1 * u.hess + f2 * outer(u.grad, u.grad))


@pytest.mark.parametrize("seed", range(5))
def test_operation_hessians_are_exactly_symmetric(seed):
    rng = np.random.default_rng(seed)
    u, w = random_jet(rng, 4, positive=True), random_jet(rng, 4)
    v, c = u.value, 1.3
    og = outer(u.grad, w.grad)
    expected = {
        "add": (u + w, symmetrized(u.hess + w.hess)),
        "sub": (u - w, symmetrized(u.hess - w.hess)),
        "neg": (-u, symmetrized(-u.hess)),
        "scale": (u * c, symmetrized(u.hess * c)),
        "mul": (u * w, symmetrized(v * w.hess + w.value * u.hess + og + og.swapaxes(0, 1))),
        "reciprocal": (
            u._reciprocal(),
            symmetrized(-u.hess / power(v, 2) + 2.0 * outer(u.grad, u.grad) / power(v, 3)),
        ),
        "pow3": (u**3, chained(u, 3 * power(v, 2), 3 * 2 * power(v, 1))),
        "pow0.5": (u**0.5, chained(u, 0.5 * power(v, -0.5), 0.5 * -0.5 * power(v, -1.5))),
        "exp": (nk.exp(u), chained(u, np.exp(v), np.exp(v))),
        "log": (nk.log(u), chained(u, 1.0 / v, -1.0 / power(v, 2))),
        "sin": (nk.sin(u), chained(u, np.cos(v), -np.sin(v))),
    }
    for name, (out, want) in expected.items():
        assert np.array_equal(out.hess, out.hess.swapaxes(0, 1)), name
        assert same_bits(out.hess, want), name


def test_batched_operation_hessians_are_exactly_symmetric():
    rng = np.random.default_rng(9)
    u, w = random_jet(rng, 3, (5,), positive=True), random_jet(rng, 3, (5,))
    for out in (u + w, u * w, u / w, w**2, u**0.5, nk.cos(w), 2.0 / u):
        assert np.array_equal(out.hess, out.hess.swapaxes(0, 1))


# ---------------------------------------------------------------------------
# jet functions at order 1


def metric_and_points(d=2, count=4):
    cfg = hg.SchrodingerManifoldConfig(d, -0.7, 1.5)
    pts = nk.SeededSampler(2, hg.bulk_boxes(d)).points(count)
    return cfg, pts


def test_gram_jets_first_order_is_the_second_order_prefix():
    cfg, pts = metric_and_points()
    metric = hg.bulk_metric(cfg)
    for p in (pts, pts[:1]):
        first, full = gram_jets(metric, p, order=1), gram_jets(metric, p)
        assert first.hess is None and first.pattern is None
        assert full.hess is not None and full.pattern is not None
        for a, b in ((first.g0, full.g0), (first.dg, full.dg)):
            assert same_bits(a, b)


def test_first_order_gram_batch_matches_its_points():
    # jet_components: tests/test_batch.py::test_jet_components_match_per_point
    cfg, pts = metric_and_points(3, 5)
    metric = hg.bulk_metric(cfg)
    batch = gram_jets(metric, pts, order=1)
    for k in range(len(pts)):
        one = gram_jets(metric, pts[k : k + 1], order=1)
        for a, b in ((batch.g0, one.g0), (batch.dg, one.dg)):
            assert same_bits(a[k], b[0])


def test_chart_action_first_order_matches_value_and_gradient():
    d = 3
    rng = np.random.default_rng(10)
    ge = random_group_element(d, rng)
    field = realize_field(algebra_element(d, rng), d)
    pts = rng.uniform(-0.3, 0.3, size=(4, d + 2))
    for fn in (field.components, lambda x: projective_action(ge, x)):
        for p in (pts, pts[:1]):
            full = fn(nk.seed_point(p))
            first = fn(nk.seed_point(p, order=1))
            for a, b in zip(full, first):
                assert b.hess is None
                assert same_bits(a.value, b.value) and same_bits(a.grad, b.grad)


def test_density_lie_derivative_through_a_variational_flow():
    # the transported coefficient flows the order-1 seeds of the Lie
    # derivative through RK4, the log-Jacobian riding along as one more
    # state variable; value and gradient are those of the order-2 jets bit
    # for bit, on a batch of one and on a batch of two
    structure = flat_bargmann(1)
    phi = expansion_map_rk4(1, 0.2, step=0.05)
    psi = transported_density(phi, plane_wave(1, [0.4]))
    pts = np.array([[0.1, -0.2, 0.3], [-0.3, 0.25, 0.1]])
    xi = np.array(structure.xi.components(pts[0]), dtype=float)
    for p in (pts, pts[:1]):
        lie = density_lie_derivative(structure.metric, structure.xi, psi, p)
        full = psi.coefficient(nk.seed_point(p))
        first = psi.coefficient(nk.seed_point(p, order=1))
        assert first.hess is None
        assert same_bits(first.value, full.value) and same_bits(first.grad, full.grad)
        # xi(f) + w Div(xi) f from the second-order jet of f: Div xi = 0 here
        np.testing.assert_array_equal(lie, xi @ full.grad)


# ---------------------------------------------------------------------------
# the pass budget per derivative order

# passes for the 16-coupling default grid, d = 1..8
PASS_TABLE = {
    0: {5: [1, 1, 1, 1, 1, 1, 1, 1], 20: [1, 1, 1, 1, 1, 1, 1, 1],
        80: [1, 1, 1, 1, 1, 1, 1, 2]},
    1: {5: [1, 1, 1, 1, 1, 1, 1, 1], 20: [1, 1, 1, 1, 2, 2, 3, 4],
        80: [1, 2, 3, 4, 6, 8, 16, 16]},
    2: {5: [1, 1, 1, 1, 2, 2, 3, 4], 20: [1, 2, 3, 4, 6, 8, 16, 16],
        80: [3, 6, 16, 16, 16, 16, 16, 16]},
}


@pytest.mark.parametrize("order", sorted(PASS_TABLE))
@pytest.mark.parametrize("samples", [5, 20, 80])
def test_pass_count_table(order, samples):
    counts = [len(hg.coupling_passes(d, 16, samples, order)) for d in range(1, 9)]
    assert counts == PASS_TABLE[order][samples]


def test_pass_order_is_checked():
    with pytest.raises(ContractViolationError):
        hg.coupling_passes(6, 16, 5, 3)
