"""The algebra layer as stacks.

The commutant basis of Z0 is one product of the null rows of one SVD per d
with the skew-basis stack, the realization check brackets all its (element
pair, point) samples in one ``bracket_fields`` pass over per-sample element
stacks, and the closure check brackets the basis 4k pairs to a
``sch_residuals`` call, which applies G and Z0 by index.  Each must give,
bit for bit, what the element-by-element, one-pair and one-row-at-a-time
computations with dense G and Z0 give (``tests/oracles.py``).
"""

import numpy as np
import pytest

import oracles
from oracles import (
    algebra_blocks,
    algebra_element,
    algebra_form,
    closure_rows,
    commutant_loop,
    realization_rounds,
)

from schrogeo import numkernel as nk
from schrogeo import suites
from schrogeo.ambient import (
    _commutant_cached,
    _commutant_svd,
    bracket_fields,
    commutant_dim,
    commutant_stack,
    decompose_sch,
    realize_field,
    sch_dimension,
    sch_residuals,
)
from schrogeo.geometry import component_values, jet_components
from schrogeo.numkernel import ContractViolationError, Jet2
from schrogeo.suites import LIE_ALGEBRA, SuiteConfig, check_seed

DIMS = range(1, 9)
SEEDS = (0, 7, 42)


def measured(fn, record: str, d: int, seed: int) -> dict:
    """A lie-algebra measurement at d, seeded as its record is, as a dict."""
    cfg = SuiteConfig("lie-algebra", dims=(d,), seed=seed)
    got = fn(LIE_ALGEBRA.context(cfg, d), check_seed(cfg, f"liealgebra_d{d}_{record}"))
    return got if isinstance(got, dict) else {"residual": got}


def bits(numbers: dict) -> dict:
    """Each number's bytes, so that equal means equal bit for bit."""
    return {k: np.asarray(v).tobytes() for k, v in numbers.items()}


# ---------------------------------------------------------------------------
# the commutant basis from one SVD per d against the element loop (equal bits)

TOLS = (1e-11, 1e-10, 1e-9)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_commutant_stack_matches_the_element_loop(d, tol):
    stack = commutant_stack(d, tol)
    assert stack.tobytes() == commutant_loop(d, tol).tobytes()
    assert not stack.flags.writeable


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_commutant_dim_is_the_stack_length(d, tol):
    assert commutant_dim(d, tol) == len(commutant_stack(d, tol)) == sch_dimension(d)


@pytest.mark.parametrize("d", [1, 4, 8])
def test_every_tolerance_shares_one_svd(monkeypatch, d):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kw):
        calls.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    _commutant_cached.cache_clear()
    _commutant_svd.cache_clear()
    for tol in TOLS:
        commutant_stack(d, tol)
        commutant_dim(d, tol)
    n = d + 4
    assert calls == [(n * n, n * (n - 1) // 2)]


# ---------------------------------------------------------------------------
# the records' samples against the one-pair and one-row loops (equal bits)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", DIMS)
def test_realization_matches_the_round_loop(d, seed):
    got = measured(suites._realization, "realization", d, seed)
    assert bits(got) == bits(measured(realization_rounds, "realization", d, seed))
    assert got["residual"].shape == (9,)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", DIMS)
def test_closure_matches_the_row_loop(monkeypatch, d, seed):
    """The clean basis, and the basis with one seeded row nudged off the
    algebra, so the worst bracket is one pair's and far from zero."""
    clean = measured(suites._closure, "closure", d, seed)
    assert bits(clean) == bits(measured(closure_rows, "closure", d, seed))
    k = sch_dimension(d)
    assert clean["residual"].shape == (k * (k - 1) // 2,)
    rng = np.random.default_rng(seed)
    stack = commutant_stack(d).copy()
    stack[rng.integers(len(stack))] += 1e-7 * rng.normal(size=stack.shape[1:])
    for module in (suites, oracles):
        monkeypatch.setattr(module, "commutant_stack", lambda d, tol=1e-10: stack)
    got = measured(suites._closure, "closure", d, seed)
    assert bits(got) == bits(measured(closure_rows, "closure", d, seed))
    assert got["residual"].max() > 1e-10


@pytest.mark.parametrize("d", [1, 4, 8])
def test_closure_brackets_4k_pairs_to_a_call(monkeypatch, d):
    calls = []
    residuals = suites.sch_residuals

    def counted(M, dim):
        calls.append(len(M))
        return residuals(M, dim)

    monkeypatch.setattr(suites, "sch_residuals", counted)
    suites._closure(LIE_ALGEBRA.context(SuiteConfig("lie-algebra"), d), 0)
    k = sch_dimension(d)
    assert sum(calls) == k * (k - 1) // 2
    assert calls[:-1] == [4 * k] * (len(calls) - 1) and 0 < calls[-1] <= 4 * k


@pytest.mark.parametrize("d", [1, 4, 8])
def test_realization_is_one_bracket_pass(monkeypatch, d):
    seen = []
    brackets = suites.bracket_fields

    def counted(e1, e2, dim, p):
        seen.append((e1.shape, e2.shape, np.shape(p)))
        return brackets(e1, e2, dim, p)

    monkeypatch.setattr(suites, "bracket_fields", counted)
    suites._realization(LIE_ALGEBRA.context(SuiteConfig("lie-algebra"), d), 0)
    n = d + 4
    assert seen == [((9, n, n), (9, n, n), (9, d + 2))]


# ---------------------------------------------------------------------------
# the library contract: a per-sample stack of N pairs is N one-pair
# evaluations


def pairs(d: int, count: int, rng: np.random.Generator) -> list:
    """``count`` element pairs; in some, Lam loses entries (its vertical
    column kept), so zero patterns differ from sample to sample."""
    out = []
    for i in range(count):
        pair = [algebra_element(d, rng) for _ in range(2)]
        if i % 2:
            lam, gam, alpha, chi = algebra_blocks(pair[0], d)
            lam[rng.integers(d + 2), [b for b in range(d + 2) if b != d + 1]] = 0.0
            lam[rng.integers(d + 2), 0] = -0.0
            pair[0] = algebra_form(lam, gam, alpha, chi, d)
        out.append(pair)
    return out


def per_point(jet: Jet2, s: int) -> list:
    return [jet.value[s], jet.grad[:, s], None if jet.hess is None else jet.hess[:, :, s]]


def as_bits(values) -> list:
    return [None if v is None else np.asarray(v, dtype=float).tobytes() for v in values]


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_per_sample_stack_is_one_pair_at_a_time(d):
    rng = np.random.default_rng(300 + d)
    count = 5
    drawn = pairs(d, count, rng)
    pts = rng.uniform(-0.9, 0.9, size=(count, d + 2))
    pts[0, 0], pts[1, -1] = -0.0, 0.0
    e1, e2 = (np.array([p[i] for p in drawn]) for i in (0, 1))
    blocks = decompose_sch(e1, d)
    for f, block in enumerate(blocks):
        for s, (one, _) in enumerate(drawn):
            assert np.asarray(block[s]).tobytes() == np.asarray(decompose_sch(one, d)[f]).tobytes()
    alpha, chi = blocks[2:]
    assert alpha.shape == chi.shape == (count,)

    field = realize_field(e1, d)
    singles = [realize_field(one, d) for one, _ in drawn]
    values = component_values(field.components, pts)
    vals, jac = jet_components(field.components, pts)
    second = field.components(nk.seed_point(pts))
    for s, one_field in enumerate(singles):
        p = pts[s : s + 1]  # sample s as a batch of one
        assert values[s].tobytes() == component_values(one_field.components, p).tobytes()
        one_vals, one_jac = jet_components(one_field.components, p)
        assert vals[s].tobytes() == one_vals.tobytes()
        assert jac[s].tobytes() == one_jac.tobytes()
        one_second = one_field.components(nk.seed_point(p))
        for got, want in zip(second, one_second):
            assert as_bits(per_point(got, s)) == as_bits([want.value, want.grad, want.hess])

    stacked = bracket_fields(e1, e2, d, pts)
    one_pair = [bracket_fields(a, b, d, pts[s : s + 1]) for s, (a, b) in enumerate(drawn)]
    for key in ("minus", "plus"):
        assert stacked[key].tobytes() == np.array([r[key] for r in one_pair]).tobytes()


def test_a_stack_is_checked_at_its_worst_element():
    d = 3
    rng = np.random.default_rng(4)
    stack = np.array([algebra_element(d, rng) for _ in range(4)])
    bad = stack.copy()
    bad[-1, 0, d + 1] += 1e-3  # moves the vertical direction
    found = sch_residuals(bad, d)["commutator"]
    assert (found[:-1] <= 1e-15).all() and found[-1] > 1e-4
    with pytest.raises(ContractViolationError, match="Lam xi"):
        realize_field(bad, d)
    realize_field(stack, d)
