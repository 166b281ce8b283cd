"""The stacked chart action and the stacked group draws.

``realize_field`` and ``projective_action`` build their d + 2 rows as one
array pass, ``projective_action`` also takes a per-sample element stack,
``exp_algebra`` exponentiates a matrix stack, and ``group_elements`` and
``group_inverse`` exponentiate (invert) and validate group elements as one
stack.  Each must give, bit for bit, what the one-row-at-a-time and
one-element-at-a-time computations give, and must raise what those raise;
a sample that leaves the chart comes back NaN instead, in a batch of one
as in any other batch.
"""

import numpy as np
import pytest

from oracles import algebra_element, algebra_form

from schrogeo import ambient
from schrogeo import numkernel as nk
from schrogeo import suites
from schrogeo.ambient import (
    CHART_GUARD,
    ChartEscapeError,
    StabilizerConstraintError,
    _squarings,
    commutant_stack,
    exp_algebra,
    expansion_generator,
    flat_gram_matrix,
    group_coefficients,
    group_elements,
    group_inverse,
    projective_action,
    random_group_element,
    realize_field,
    xi_vector,
)
from schrogeo.numkernel import ContractViolationError, Jet2
from schrogeo.suites import SuiteConfig, check_seed, run_suite

DIMS = range(1, 9)


# ---------------------------------------------------------------------------
# scalar references: one row at a time, one linear term at a time


def reference_field(Z, d, x):
    n = d + 2
    xi = xi_vector(d)
    lam, gam, alpha, chi = Z[:n, :n], Z[:n, n + 1], Z[d + 1, n], Z[n, n]
    t = x[d]
    xx = sum(x[i] * x[i] for i in range(d)) + 2.0 * x[d] * x[d + 1]
    out = []
    for a in range(d + 2):
        val = gam[a] + (alpha * t + chi) * x[a] - 0.5 * alpha * xx * xi[a]
        for b in range(d + 2):
            if lam[a, b] != 0.0:
                val = val + lam[a, b] * x[b]
        out.append(val)
    return out


def reference_projective(A, x, r=None, guard=CHART_GUARD):
    d = A.shape[-1] - 4
    n = d + 2
    L, C, alpha, e = A[:n, :n], A[:n, n + 1], A[d + 1, n], A[n + 1, n + 1]
    xi = xi_vector(d)
    den = e - alpha * x[d]
    if np.any(np.abs(nk.jet_value(den)) <= guard):
        raise ChartEscapeError("projective denominator vanished")
    xx = sum(x[i] * x[i] for i in range(d)) + 2.0 * x[d] * x[d + 1]
    out = []
    for a in range(n):
        val = C[a] - 0.5 * alpha * xx * xi[a]
        for b in range(n):
            if L[a, b] != 0.0:
                val = val + L[a, b] * x[b]
        out.append(val / den)
    return out if r is None else (out, r / den)


def bits(values) -> list:
    """Every value, gradient and Hessian entry as bytes (signed zeros too)."""
    out = []
    for v in values:
        parts = (v.value, v.grad, v.hess) if isinstance(v, Jet2) else (v,)
        out.append([np.asarray(p, dtype=float).tobytes() for p in parts])
    return out


def nan_everywhere(values) -> bool:
    """Every value, gradient and Hessian entry is NaN."""
    return all(np.isnan(np.frombuffer(b)).all() for one in bits(values) for b in one)


def inputs(d, seed):
    """(1,) arrays of a batch of one, (N,) arrays, a seeded batch of one and
    a seeded batch, with a signed zero among the coordinates."""
    pts = np.random.default_rng(seed).uniform(-0.9, 0.9, size=(5, d + 2))
    pts[0, 0], pts[1, -1] = 0.0, -0.0
    return {
        "point_arrays": list(pts[1:2].T),
        "arrays": list(pts.T),
        "point_jets": nk.seed_point(pts[2:3]),
        "batch_jets": nk.seed_point(pts),
    }


def sparse(M, rng, keep_column=None):
    """M with a whole row, a whole column and a few scattered entries set to
    zero (one of them -0.0), so every column pattern occurs: empty,
    partly filled, full.  ``keep_column`` stays as it is."""
    M = M.copy()
    n = len(M)
    cols = [b for b in range(n) if b != keep_column]
    M[rng.integers(n), cols] = 0.0
    M[:, cols[rng.integers(len(cols))]] = 0.0
    for _ in range(n):
        M[rng.integers(n), cols[rng.integers(len(cols))]] = 0.0
    M[rng.integers(n), cols[0]] = -0.0
    return M


def spatial_block(A):
    """The L block of a group element, or the Lam block of an algebra
    element: its first d + 2 rows and columns."""
    n = A.shape[-1] - 2
    return A[:n, :n]


def with_entries(A, L=None, a=None, e=None):
    """A copy of the group element A with the entries that the chart action
    reads replaced: the L block, the expansion entry a, the entry e."""
    d = A.shape[-1] - 4
    A = A.copy()
    if L is not None:
        A[: d + 2, : d + 2] = L
    if a is not None:
        A[d + 1, d + 2] = a
    if e is not None:
        A[d + 3, d + 3] = e
    return A


# ---------------------------------------------------------------------------
# the chart action, bit for bit


@pytest.mark.parametrize("d", DIMS)
def test_realized_components_match_the_row_loop(d):
    rng = np.random.default_rng(d)
    dense = algebra_element(d, rng)
    # the vertical column Lam xi = -chi xi is what realize_field checks
    thinned = dense.copy()
    thinned[: d + 2, : d + 2] = sparse(spatial_block(dense), rng, keep_column=d + 1)
    for Z in (dense, thinned):
        field = realize_field(Z, d)
        for kind, x in inputs(d, 10 + d).items():
            got = field.components(x)
            assert type(got[0]) is type(reference_field(Z, d, x)[0]), kind
            assert bits(got) == bits(reference_field(Z, d, x)), kind


@pytest.mark.parametrize("d", DIMS)
def test_projective_images_match_the_row_loop(d):
    rng = np.random.default_rng(100 + d)
    ge = random_group_element(d, rng)
    for g in (ge, with_entries(ge, L=sparse(spatial_block(ge), rng))):
        for kind, x in inputs(d, 20 + d).items():
            r = 1.0 + 0.3 * rng.uniform(size=np.shape(nk.jet_value(x[0])))
            got, got_r = projective_action(g, x, r)
            want, want_r = reference_projective(g, x, r)
            assert bits(got) == bits(want), kind
            assert bits([got_r]) == bits([want_r]), kind
            assert bits(projective_action(g, x)) == bits(want), kind


def lifts(pts):
    """The batch ``pts`` as (N,) arrays and as order-1 and order-2 jets,
    each with the map from a sample s to that sample as a batch of one."""
    return (
        ("arrays", list(pts.T), lambda s: list(pts[s : s + 1].T)),
        ("order 1", nk.seed_point(pts, order=1), lambda s: nk.seed_point(pts[s : s + 1], 1)),
        ("order 2", nk.seed_point(pts), lambda s: nk.seed_point(pts[s : s + 1])),
    )


def assert_marked(ge, elements, pts, r, bad):
    """The batch action of the per-sample stack ``ge`` on ``pts``: sample
    ``bad`` comes back NaN in floats and in order-1 and order-2 jets, with
    and without r; every other sample s is bitwise the row loop's image of
    point s under ``elements[s]``, as a batch of one."""
    for kind, batch, point in lifts(pts):
        got, got_r = projective_action(ge, batch, r)
        bare = projective_action(ge, batch)
        for values in (got, bare, [got_r]):
            assert nan_everywhere(sample_of(values, bad)), kind
        for s in range(len(pts)):
            if s == bad:
                continue
            want, want_r = reference_projective(elements[s], point(s), r[s : s + 1])
            assert bits(sample_of(got, s)) == bits(want), (kind, s)
            assert bits(sample_of(bare, s)) == bits(want), (kind, s)
            assert bits(sample_of([got_r], s)) == bits([want_r]), (kind, s)


@pytest.mark.parametrize("d", [1, 4, 8])
def test_projective_guard_marks_like_the_row_loop(d):
    rng = np.random.default_rng(d)
    ge = random_group_element(d, rng)
    ge = with_entries(ge, a=0.5, e=0.25)  # the denominator vanishes at t = 0.5
    pts = rng.uniform(-0.9, 0.9, size=(3, d + 2))
    pts[1, d] = 0.5
    for x in (list(pts[1:2].T), nk.seed_point(pts[1:2])):
        assert nan_everywhere(projective_action(ge, x))
        with pytest.raises(ChartEscapeError, match="denominator vanished"):
            reference_projective(ge, x)
    assert_marked(ge, [ge] * len(pts), pts, 1.0 + 0.3 * rng.uniform(size=len(pts)), bad=1)


# ---------------------------------------------------------------------------
# work counts: one reciprocal per call, Jet2 constructions linear in d + 2


def counting(monkeypatch):
    counts = {"init": 0, "reciprocal": 0}
    init, reciprocal = Jet2.__init__, Jet2._reciprocal

    def counted_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    def counted_reciprocal(self):
        counts["reciprocal"] += 1
        return reciprocal(self)

    monkeypatch.setattr(Jet2, "__init__", counted_init)
    monkeypatch.setattr(Jet2, "_reciprocal", counted_reciprocal)
    return counts


@pytest.mark.parametrize("d", [1, 3, 8])
def test_one_reciprocal_per_jet_batch_projective_call(monkeypatch, d):
    ge = random_group_element(d, np.random.default_rng(d))
    jets = nk.seed_point(np.random.default_rng(1).uniform(-0.5, 0.5, size=(4, d + 2)))
    counts = counting(monkeypatch)
    projective_action(ge, jets)
    assert counts["reciprocal"] == 1


def test_realized_field_builds_jets_linearly_in_the_dimension(monkeypatch):
    made = []
    for d in DIMS:
        field = realize_field(algebra_element(d, np.random.default_rng(d)), d)
        jets = nk.seed_point(np.random.default_rng(1).uniform(-0.5, 0.5, size=(4, d + 2)))
        counts = counting(monkeypatch)
        field.components(jets)
        made.append(counts["init"])
        monkeypatch.undo()
    steps = set(np.diff(made).tolist())
    assert len(steps) == 1 and steps.pop() <= 4, made


# ---------------------------------------------------------------------------
# group elements as a stack


def reassembled(A, d):
    """The element matrix rebuilt from the blocks of A, entry for entry."""
    n = d + 2
    g, xi = flat_gram_matrix(d), xi_vector(d)
    a = float(A[d + 1, n])
    out = np.zeros_like(A)
    out[:n, :n] = A[:n, :n]
    out[:n, n] = a * xi
    out[:n, n + 1] = A[:n, n + 1]
    out[n, :n] = g @ (g @ A[n, :n])
    out[n, n], out[n, n + 1] = A[n, n], A[n, n + 1]
    out[n + 1, :n] = -a * (g @ xi)
    out[n + 1, n + 1] = A[n + 1, n + 1]
    return out


@pytest.mark.parametrize("d, seed", [(1, 0), (2, 5), (4, 1), (6, 7), (8, 42)])
def test_stacked_draws_match_one_element_at_a_time(d, seed):
    stack = commutant_stack(d)
    rng, ref, one = (np.random.default_rng(seed) for _ in range(3))
    elements = group_elements(d, group_coefficients(d, rng, 7))
    singles = []
    for i in range(7):
        coeffs = ref.uniform(-0.4, 0.4, size=len(stack))
        m = sum(c * b for c, b in zip(coeffs, stack))
        want = reassembled(exp_algebra(m), d)
        assert elements[i].tobytes() == want.tobytes()
        single = random_group_element(d, one)
        # one element: the stack of one with its axis dropped
        assert single.shape == (d + 4, d + 4)
        assert single.tobytes() == want.tobytes()
        singles.append(single)
    # the three streams stand at the same place afterwards
    assert rng.random() == ref.random() == one.random()
    inverses = group_inverse(elements)
    for i, (gi, ge) in enumerate(zip(inverses, singles)):
        assert gi.tobytes() == group_inverse(elements[[i]])[0].tobytes()
        G = ambient.ambient_gram(d)
        adjoint = G @ ge.T @ G
        assert gi.tobytes() == reassembled(adjoint, d).tobytes()


def breaking(monkeypatch, broken: dict):
    """exp_algebra with the k-th matrix it exponentiates changed by
    ``broken[k]``, counted over every call, one matrix or a stack."""
    calls = {"n": 0}

    def exp(Z):
        A = exp_algebra(Z).copy()
        for M in A.reshape((-1,) + A.shape[-2:]):
            k = calls["n"]
            calls["n"] += 1
            if k in broken:
                broken[k](M)
        return A

    monkeypatch.setattr(ambient, "exp_algebra", exp)
    return calls


def _raised(fn):
    with pytest.raises((StabilizerConstraintError, ContractViolationError)) as info:
        fn()
    return info.value


def nudge(i, j, by=1e-3):
    def apply(A):
        A[i, j] += by

    return apply


D = 3
N = D + 2
DEFECTS = {
    "L entry": {2: nudge(0, 1)},
    "e entry": {4: nudge(N + 1, N + 1)},
    "C entry": {1: nudge(0, N + 1)},
    "dd entry": {3: nudge(N, N + 1)},
    "dropped row": {5: nudge(N + 1, 0)},
    "drift before a broken element": {1: nudge(N + 1, 0), 3: nudge(0, 1)},
    "broken before a drift": {1: nudge(0, 1), 3: nudge(N + 1, 0)},
    "both in one element": {2: lambda A: (nudge(0, 1)(A), nudge(N + 1, 0)(A))},
    "two broken elements": {1: nudge(N + 1, N + 1), 4: nudge(0, 1)},
    "two constraints of one element": {2: lambda A: (nudge(0, 1)(A), nudge(N + 1, N + 1)(A))},
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_stack_raises_what_the_first_failing_element_raises(monkeypatch, defect):
    breaking(monkeypatch, DEFECTS[defect])
    coeffs = group_coefficients(D, np.random.default_rng(3), 6)
    stacked = _raised(lambda: group_elements(D, coeffs))
    breaking(monkeypatch, DEFECTS[defect])
    rng = np.random.default_rng(3)
    single = _raised(lambda: [random_group_element(D, rng) for _ in range(6)])
    assert type(stacked) is type(single)
    assert str(stacked) == str(single)
    if isinstance(single, StabilizerConstraintError):
        assert stacked.description == single.description


def test_inverse_stack_raises_for_the_first_failing_inverse():
    elements = group_elements(D, group_coefficients(D, np.random.default_rng(4), 5))
    elements[3, 0, 1] += 1e-3
    stacked = _raised(lambda: group_inverse(elements))
    single = _raised(lambda: [group_inverse(elements[[i]]) for i in range(5)])
    assert isinstance(stacked, StabilizerConstraintError)
    assert str(stacked) == str(single)


# ---------------------------------------------------------------------------
# the stacked exponential and the per-sample chart action


@pytest.mark.parametrize("d", DIMS)
def test_stacked_exponential_matches_one_matrix_at_a_time(d):
    """One stack mixing several squaring counts s of exp_algebra,
    interleaved: scales 0.1 and 0.4 (no squaring), 3.0 and 12.0 (one or
    more squarings), and nilpotent translations and expansions."""
    rng = np.random.default_rng(700 + d)
    basis = commutant_stack(d)
    Zs = [
        (c[:, None, None] * basis).sum(axis=0)
        for scale in (0.1, 0.4, 3.0, 12.0)
        for c in rng.uniform(-scale, scale, size=(3, len(basis)))
    ]
    translation = algebra_form(np.zeros((d + 2, d + 2)), rng.uniform(-1, 1, d + 2), 0.0, 0.0, d)
    Zs += [translation, expansion_generator(d, 0.3), expansion_generator(d, -1.7)]
    Zs = np.array(Zs)[rng.permutation(len(Zs))]
    squarings = set(_squarings(Zs).tolist())
    assert len(squarings) >= 3, squarings
    got = exp_algebra(Zs)
    assert got.shape == Zs.shape
    for Z, A in zip(Zs, got):
        one = exp_algebra(Z)
        assert one.shape == Z.shape
        assert A.tobytes() == one.tobytes()


def sample_of(values, s):
    """Sample s of a batch image, (N,) arrays or jets, as a batch of one."""
    at = slice(s, s + 1)
    if isinstance(values[0], Jet2):
        return [
            Jet2(v.value[at], v.grad[:, at], None if v.hess is None else v.hess[:, :, at])
            for v in values
        ]
    return [v[at] for v in values]


@pytest.mark.parametrize("d", DIMS)
def test_per_sample_action_matches_one_element_at_a_time(d):
    rng = np.random.default_rng(200 + d)
    elements = [random_group_element(d, rng) for _ in range(4)]
    # L zero patterns that differ element by element, and a row of -0.0
    for i in (1, 2):
        elements[i] = with_entries(elements[i], L=sparse(spatial_block(elements[i]), rng))
    L = spatial_block(elements[3]).copy()
    L[rng.integers(d + 2)] = -0.0
    elements[3] = with_entries(elements[3], L=L)
    pts = rng.uniform(-0.9, 0.9, size=(3, d + 2))
    pts[0, 0], pts[1, -1] = -0.0, 0.0
    el, pt = np.divmod(np.arange(len(elements) * len(pts)), len(pts))
    ge, x = np.array(elements)[el], pts[pt]
    r = 1.0 + 0.3 * rng.uniform(size=len(x))
    for kind, batch, point in lifts(x):
        got, got_r = projective_action(ge, batch, r)
        bare = projective_action(ge, batch)
        for s in range(len(x)):
            want, want_r = projective_action(elements[el[s]], point(s), r[s : s + 1])
            assert bits(sample_of(got, s)) == bits(want), (kind, s)
            assert bits(sample_of(bare, s)) == bits(want), (kind, s)
            assert bits(sample_of([got_r], s)) == bits([want_r]), (kind, s)


def test_per_sample_guard_marks_any_sample():
    d = 3
    rng = np.random.default_rng(9)
    elements = [random_group_element(d, rng) for _ in range(3)]
    elements[2] = with_entries(elements[2], a=0.5, e=0.25)  # vanishes at t = 0.5
    pts = np.random.default_rng(10).uniform(-0.9, 0.9, size=(3, d + 2))
    pts[2, d] = 0.5
    assert_marked(np.array(elements), elements, pts, np.array([1.1, 1.2, 1.3]), bad=2)
    assert np.isnan(projective_action(elements[2], list(pts[2:3].T))).all()
    # the same point under another element stays on the chart
    clear = projective_action(np.array(elements[:2] + elements[:1]), list(pts.T))
    assert np.isfinite(clear).all()


@pytest.mark.parametrize("d", [1, 4, 8])
def test_projective_draws_coefficients_then_radii_round_by_round(monkeypatch, d):
    """The projective check's rng stream is the per-element one: each round
    draws one element (its coefficients), then one radius per point."""
    cfg = SuiteConfig("group", dims=(d,), samples=40, seed=11)
    rng = np.random.default_rng(check_seed(cfg, f"group_d{d}_projective") + 1)
    want, radii = [], []
    for _ in range(20):
        want.append(random_group_element(d, rng))
        radii.append(1.0 + 0.3 * rng.uniform(size=4))
    seen = []

    def elements(dim, coeffs):
        stack = group_elements(dim, coeffs)
        seen.append(("elements", stack))
        return stack

    def action(ge, x, r=None):
        seen.append(("r", r))
        return projective_action(ge, x, r)

    monkeypatch.setattr(suites, "group_elements", elements)
    monkeypatch.setattr(suites, "projective_action", action)
    rec = {c.name: c for c in run_suite(cfg).checks}[f"group_d{d}_projective"]
    assert rec.status == "PASS" and rec.extra["escapes"] == 0
    # the one action call with radii is the projective check's, after its draw
    at = [i for i, (kind, v) in enumerate(seen) if kind == "r" and v is not None]
    assert len(at) == 1
    stack = [v for kind, v in seen[: at[0]] if kind == "elements"][-1]
    assert stack.tobytes() == np.array(want).tobytes()
    assert seen[at[0]][1].tobytes() == np.concatenate(radii).tobytes()


# ---------------------------------------------------------------------------
# mutation: a defect in the stacked chart action flips the records on it


def _drop_quadratic(monkeypatch):
    rows = ambient._affine_rows

    def defect(x, d, const, M, quad, rate=None):
        return rows(x, d, const, M, quad * 0.0, rate)

    monkeypatch.setattr(ambient, "_affine_rows", defect)


def _nudge_linear(monkeypatch):
    add = ambient._add_linear

    def defect(rows, M, X):
        M = np.array(M, dtype=float)
        M[-1, 0] += 1e-6
        return add(rows, M, X)

    monkeypatch.setattr(ambient, "_add_linear", defect)


def _nudge_last_sample(monkeypatch):
    """A defect confined to the last sample of a per-sample element stack:
    its C moves, every other sample's is left alone.  A check that read
    only the first elements of its stack would miss it."""
    rows = ambient._affine_rows

    def defect(x, d, const, M, quad, rate=None):
        if np.ndim(const) == 2:
            const = np.array(const)
            const[-1] += 1e-6
        return rows(x, d, const, M, quad, rate)

    monkeypatch.setattr(ambient, "_affine_rows", defect)


CHART_DEFECTS = [
    (suite, record, inject)
    for inject in (_drop_quadratic, _nudge_linear)
    for suite, record in (
        ("lie-algebra", "realization"),
        ("group", "projective"),
        ("group", "pullback"),
        ("group", "inverse"),
    )
] + [
    (suite, record, _nudge_last_sample)
    for suite, record in (
        ("lie-algebra", "realization"),
        ("group", "projective"),
        ("group", "pullback"),
        ("group", "inverse"),
    )
]


@pytest.mark.parametrize("d", [2, 6])
@pytest.mark.parametrize("suite, record, inject", CHART_DEFECTS)
def test_chart_action_defect_fails_the_record(monkeypatch, suite, record, inject, d):
    name = f"{suite.replace('-', '')}_d{d}_{record}"
    clean = {c.name: c for c in run_suite(SuiteConfig(suite, dims=(d,))).checks}
    assert clean[name].status == "PASS"
    inject(monkeypatch)
    broken = {c.name: c for c in run_suite(SuiteConfig(suite, dims=(d,))).checks}
    assert broken[name].status == "FAIL", broken[name]


# mutation: an exponential that leaves the group flips the constraint records.
# A perturbed Padé coefficient cannot: r(Z) = p(Z) / p(-Z) maps the algebra of
# a quadratic group into the group for any polynomial p, so the records see
# no defect in the coefficients.  The scipy and mpmath comparisons in
# tests/test_ambient.py::TestExponential are the accuracy oracle.


def test_exponential_off_the_group_fails_the_constraints(monkeypatch):
    cfg = SuiteConfig("group")
    names = [f"group_d{d}_constraints" for d in cfg.dims]
    clean = {c.name: c for c in run_suite(cfg).checks}
    assert all(clean[name].status == "PASS" for name in names)
    pade = ambient._pade13

    def defect(Z):
        return pade(Z) + 1e-8 * Z @ Z  # r_13(Z) + 1e-8 Z^2

    monkeypatch.setattr(ambient, "_pade13", defect)
    broken = {c.name: c for c in run_suite(cfg).checks}
    for name in names:
        assert broken[name].status == "ERROR", broken[name]
        assert "stabilizer constraint" in broken[name].error, broken[name]
