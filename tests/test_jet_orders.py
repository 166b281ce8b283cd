"""First-order jets and the derivative-order pass budget.

A first-order jet (``hess`` None) must give, operation by operation, the
value and the gradient of the second-order jet bit for bit; orders must not
mix; every operation's Hessian must be exactly symmetric and bitwise the
symmetrized Hessian of the product and chain rules; and
``coupling_passes`` must budget a pass by the largest derivative array of
its order.
"""

import numpy as np
import pytest

from schrogeo import homogeneous as hg
from schrogeo import numkernel as nk
from schrogeo.ambient import (
    projective_action,
    random_algebra_element,
    random_group_element,
    realize_field,
)
from schrogeo.bargmann import (
    density_lie_derivative,
    expansion_map_rk4,
    flat_bargmann,
    plane_wave,
    transported_density,
)
from schrogeo.geometry import gram_jets
from schrogeo.numkernel import ContractViolationError, Jet2, JetMatrix


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_jet(rng, n, batch=(), positive=False, order=2):
    """A jet with a random value, gradient and symmetrized Hessian."""
    value = rng.uniform(0.5, 2.0, size=batch) if positive else rng.normal(size=batch)
    if not batch:
        value = float(value)
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
    "sqrt": nk.sqrt,
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
BATCHES = {"point": (), "batch": (4,)}


@pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
@pytest.mark.parametrize("name", UNARY)
def test_unary_first_order_matches_value_and_gradient(name, batch):
    u = random_jet(np.random.default_rng(3), 3, batch, positive=True)
    full, first = UNARY[name](u), UNARY[name](first_order(u))
    assert first.hess is None and first.order == 1
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
        assert out.order == 1


def test_seeds_and_constants_of_both_orders():
    pts = np.random.default_rng(6).normal(size=(4, 3))
    for p in (pts, pts[0]):
        full, first = nk.seed_point(p), nk.seed_point(p, order=1)
        for a, b in zip(full, first):
            assert b.hess is None and a.hess is not None
            assert same_bits(a.value, b.value) and same_bits(a.grad, b.grad)
    assert Jet2.constant(1.5, 3, order=1).hess is None
    assert Jet2.constant(1.5, 3).hess.shape == (3, 3)
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


def test_jet_matrix_orders():
    rng = np.random.default_rng(8)
    rows = [[random_jet(rng, 2) for _ in range(2)] for _ in range(2)]
    full = JetMatrix.from_entries(rows, 2)
    first = JetMatrix.from_entries([[first_order(e) for e in r] for r in rows], 2)
    assert first.order == 1 and full.order == 2
    m = np.array([[0.3, -1.1], [2.0, 0.5]])
    for a, b in (
        (full @ full, first @ first),
        (full + full.scale(0.5), first + first.scale(0.5)),
        (full @ m, first @ m),
        (m @ full, m @ first),
    ):
        assert b.hess is None
        assert same_bits(a.values, b.values) and same_bits(a.grad, b.grad)
    assert first.entry(0, 1).order == 1
    with pytest.raises(ContractViolationError):
        full @ first
    with pytest.raises(ContractViolationError):
        first + full
    with pytest.raises(ContractViolationError):
        JetMatrix.from_entries([[rows[0][0], first_order(rows[0][1])]], 2)


# ---------------------------------------------------------------------------
# the Hessian of every operation is exactly symmetric, and bitwise the
# symmetrized Hessian of the product and chain rules


def symmetrized(h):
    return 0.5 * (h + h.swapaxes(0, 1))


def chained(u, f1, f2):
    return symmetrized(f1 * u.hess + f2 * np.outer(u.grad, u.grad))


@pytest.mark.parametrize("seed", range(5))
def test_operation_hessians_are_exactly_symmetric(seed):
    rng = np.random.default_rng(seed)
    u, w = random_jet(rng, 4, positive=True), random_jet(rng, 4)
    v, c = u.value, 1.3
    og = np.outer(u.grad, w.grad)
    expected = {
        "add": (u + w, symmetrized(u.hess + w.hess)),
        "sub": (u - w, symmetrized(u.hess - w.hess)),
        "neg": (-u, symmetrized(-u.hess)),
        "scale": (u * c, symmetrized(u.hess * c)),
        "mul": (u * w, symmetrized(v * w.hess + w.value * u.hess + og + og.T)),
        "reciprocal": (
            u._reciprocal(),
            symmetrized(-u.hess / v**2 + 2.0 * np.outer(u.grad, u.grad) / v**3),
        ),
        "pow3": (u**3, chained(u, 3 * v**2, 3 * 2 * v**1)),
        "pow0.5": (u**0.5, chained(u, 0.5 * v**-0.5, 0.5 * -0.5 * v**-1.5)),
        "exp": (nk.exp(u), chained(u, np.exp(v), np.exp(v))),
        "log": (nk.log(u), chained(u, 1.0 / v, -1.0 / v**2)),
        "sin": (nk.sin(u), chained(u, np.cos(v), -np.sin(v))),
    }
    for name, (out, want) in expected.items():
        assert np.array_equal(out.hess, out.hess.T), name
        assert same_bits(out.hess, want), name


def test_batched_operation_hessians_are_exactly_symmetric():
    rng = np.random.default_rng(9)
    u, w = random_jet(rng, 3, (5,), positive=True), random_jet(rng, 3, (5,))
    for out in (u + w, u * w, u / w, w**2, nk.sqrt(u), nk.cos(w), 2.0 / u):
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
    for p in (pts, pts[0]):
        first, full = gram_jets(metric, p, order=1), gram_jets(metric, p)
        assert len(first) == 2 and len(full) == 3
        for a, b in zip(first, full):
            assert same_bits(a, b)


def test_first_order_gram_batch_matches_its_points():
    # jet_components: tests/test_batch.py::test_jet_components_match_per_point
    cfg, pts = metric_and_points(3, 5)
    metric = hg.bulk_metric(cfg)
    batch = gram_jets(metric, pts, order=1)
    for k, p in enumerate(pts):
        for a, b in zip(batch, gram_jets(metric, p, order=1)):
            assert same_bits(a[k], b)


def test_chart_action_first_order_matches_value_and_gradient():
    d = 3
    rng = np.random.default_rng(10)
    ge = random_group_element(d, rng)
    field, _ = realize_field(random_algebra_element(d, rng).blocks, d)
    pts = rng.uniform(-0.3, 0.3, size=(4, d + 2))
    for fn in (field.components, lambda x: projective_action(ge, x)):
        for p in (pts, pts[0]):
            full = fn(nk.seed_point(p))
            first = fn(nk.seed_point(p, order=1))
            for a, b in zip(full, first):
                assert b.hess is None
                assert same_bits(a.value, b.value) and same_bits(a.grad, b.grad)


def test_density_lie_derivative_through_a_variational_flow():
    # the transported coefficient integrates the flow Jacobian as a JetMatrix
    # of the seeds' order (one point: the flow's JetMatrix is unbatched)
    structure = flat_bargmann(1)
    phi = expansion_map_rk4(1, 0.2, step=0.05)
    psi = transported_density(phi, plane_wave(1, [0.4]))
    p = [0.1, -0.2, 0.3]
    lie = density_lie_derivative(structure.metric, structure.xi, psi, p)
    # xi(f) + w Div(xi) f from the second-order jet of f: Div xi = 0 here
    fj = psi.coefficient(nk.seed_point(p))
    xi = np.array(structure.xi.components(p), dtype=float)
    assert lie == complex(xi @ fj.grad)


# ---------------------------------------------------------------------------
# the pass budget per derivative order

# passes for the 16-coupling default grid, d = 1..8
PASS_TABLE = {
    0: {5: [1, 1, 1, 1, 1, 1, 1, 1], 20: [1, 1, 1, 1, 1, 1, 1, 1],
        80: [1, 1, 1, 1, 2, 2, 2, 3]},
    1: {5: [1, 1, 1, 1, 1, 1, 2, 2], 20: [1, 1, 2, 2, 3, 4, 6, 8],
        80: [2, 3, 6, 8, 16, 16, 16, 16]},
    2: {5: [1, 1, 2, 4, 6, 16, 16, 16], 20: [2, 4, 8, 16, 16, 16, 16, 16],
        80: [6, 16, 16, 16, 16, 16, 16, 16]},
}


@pytest.mark.parametrize("order", sorted(PASS_TABLE))
@pytest.mark.parametrize("samples", [5, 20, 80])
def test_pass_count_table(order, samples):
    counts = [len(hg.coupling_passes(d, 16, samples, order)) for d in range(1, 9)]
    assert counts == PASS_TABLE[order][samples]


def test_pass_order_is_checked():
    with pytest.raises(ContractViolationError):
        hg.coupling_passes(6, 16, 5, 3)
