"""Coupling-batched bulk geometry: a config whose (lam, mu) vary along the
batch must give, sample by sample, what each coupling's own float config
gives, and the suites that stack the (lam, mu) grid into budgeted jet passes
must file the same records as one pass per coupling."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from oracles import dense_d2g, density_lie_derivative

from schrogeo import bargmann, geometry
from schrogeo import homogeneous as hg
from schrogeo import numkernel as nk
from schrogeo import suites
from schrogeo.ambient import random_group_element
from schrogeo.bargmann import (
    BargmannStructure,
    SchrodingerParams,
    bargmann_axioms_check,
    flat_bargmann,
    plane_wave,
    schrodinger_residual,
)
from schrogeo.geometry import (
    DegenerateMetricError,
    MetricField,
    VectorField,
    component_values,
    gram_jets,
    gram_values,
    jet_components,
    negative_index,
    yamabe_residual,
)
from schrogeo.numkernel import ContractViolationError, Jet2, SeededSampler
from schrogeo.suites import SuiteConfig, _audit_points, check_seed, run_suite

GRID = [(lam, mu) for lam in (-2.0, -1.0, -0.5, -0.3) for mu in (-1.0, 0.0, 1.0, 2.0)]
N = 5


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: a -0.0 against a 0.0 is a difference."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_values(a, b) -> bool:
    """Bitwise equal up to the sign of zeros.

    A per-sample mu = 0 computes the metric's dt^2 entry, a signed zero,
    where a float mu = 0 leaves the constant 0.0; raw tensors may differ
    there, and only there.  Residuals are magnitudes and must agree in
    every bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    # float == is bit equality except that -0.0 == 0.0
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def no_negative_zero(x) -> bool:
    x = np.asarray(x)
    return not np.any((x == 0) & np.signbit(x))


def configs(d, couplings=GRID):
    return [hg.SchrodingerManifoldConfig(d, lam, mu) for lam, mu in couplings]


def segments(x, count=len(GRID)):
    """Split a stacked per-sample result into its couplings."""
    return np.split(np.asarray(x), count)


def bulk_pass(mc, x, order=2):
    """The bulk metric's pass, which the identities take."""
    return gram_jets(hg.bulk_metric(mc), x, order)


def clock(mc, x):
    """The bulk clock and its Jacobian, read off a first-order pass."""
    return bulk_pass(mc, x, 1).clock(hg.xi_hat_field(mc))


# ---------------------------------------------------------------------------
# Jet2 with a per-sample scalar


class TestPerSampleScalar:
    u = Jet2(
        np.array([0.7, -1.3, 2.1]),
        np.arange(6.0).reshape(2, 3) / 7.0,
        np.arange(12.0).reshape(2, 2, 3) / 11.0,
    )
    a = np.array([1.9, -0.4, 3.3])

    @pytest.mark.parametrize(
        "op",
        [
            lambda u, c: c * u,
            lambda u, c: u * c,
            lambda u, c: c + u,
            lambda u, c: u - c,
            lambda u, c: c - u,
            lambda u, c: u / c,
            lambda u, c: c / u,
        ],
        ids=["rmul", "mul", "radd", "sub", "rsub", "truediv", "rtruediv"],
    )
    def test_each_sample_rounds_as_its_scalar(self, op):
        out = op(self.u, self.a)
        assert isinstance(out, Jet2)
        for k, c in enumerate(self.a.tolist()):
            at = slice(k, k + 1)  # sample k as a batch of one
            one = op(Jet2(self.u.value[at], self.u.grad[:, at], self.u.hess[..., at]), c)
            assert same_bits(out.value[at], one.value)
            assert same_bits(out.grad[:, at], one.grad)
            assert same_bits(out.hess[..., at], one.hess)

    def test_array_of_another_shape_is_refused(self):
        with pytest.raises(ContractViolationError):
            self.u * np.ones(2)
        point = Jet2.variable(0.5, 0, 3)
        with pytest.raises(ContractViolationError):
            np.ones(3) * point

    def test_zero_in_a_per_sample_divisor(self):
        with pytest.raises(nk.JetSingularityError):
            self.u / np.array([1.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# every coupling-batched function, per sample, against its float config


@pytest.fixture(scope="module", params=[1, 3], ids=["d1", "d3"])
def stacked(request):
    d = request.param
    pts = SeededSampler(11, hg.bulk_boxes(d)).points(N)
    return d, pts, hg.coupling_config(d, GRID, N), np.tile(pts, (len(GRID), 1))


class TestCouplingBatchedBitwise:
    def test_config_stacks_each_coupling_over_its_samples(self, stacked):
        d, _, mc, _ = stacked
        assert mc.lam.shape == mc.mu.shape == (len(GRID) * N,)
        for (lam, mu), lams, mus in zip(GRID, segments(mc.lam), segments(mc.mu)):
            assert (lams == lam).all() and (mus == mu).all()
        for (lam, _), scale in zip(GRID, segments(mc.scale)):
            assert same_bits(scale, np.full(N, hg.SchrodingerManifoldConfig(d, lam).scale))
        # a parameter every coupling shares stays a float
        shared = hg.coupling_config(d, [(-1.0, 0.0), (-0.5, 0.0)], N)
        assert shared.mu == 0.0 and isinstance(shared.mu, float)
        assert shared.lam.shape == (2 * N,)

    def test_metric_clock_and_embedding(self, stacked):
        d, pts, mc, x = stacked
        both = gram_jets(hg.bulk_metric(mc), x)
        jets = (both.g0, both.dg, dense_d2g(both.hess, both.pattern))
        values = gram_values(hg.bulk_metric(mc), x)
        theta = clock(mc, x)
        embed = jet_components(lambda q: hg.embed_components(mc, q), x)
        embed_values = component_values(lambda q: hg.embed_components(mc, q), x)
        assert len(theta) == len(embed) == 2
        for c, (lam, mu) in enumerate(GRID):
            one = hg.SchrodingerManifoldConfig(d, lam, mu)
            rows = slice(c * N, (c + 1) * N)
            # a float mu = 0 has no clock entry: compare the dense d2g
            alone = gram_jets(hg.bulk_metric(one), pts)
            for g, w in zip(jets, (alone.g0, alone.dg, dense_d2g(alone.hess, alone.pattern))):
                assert same_values(g[rows], w)
            # clock and embedding: vals and jac, bit for bit
            for got, want in (
                (theta, clock(one, pts)),
                (embed, jet_components(lambda q: hg.embed_components(one, q), pts)),
            ):
                for g, w in zip(got, want):
                    assert same_bits(g[rows], w)
            assert same_values(values[rows], gram_values(hg.bulk_metric(one), pts))
            assert same_bits(
                embed_values[rows],
                component_values(lambda q: hg.embed_components(one, q), pts),
            )

    def test_dual_path_vertical_and_scalar_checks(self, stacked):
        # the first-order checks of one stacked pass, each coupling's rows
        # bitwise its own pass
        d, pts, mc, x = stacked
        jets = bulk_pass(mc, x, 1)
        batched = {
            "induced": hg.induced_metric(mc, jets),
            "vertical": hg.xi_hat_consistency(mc, jets),
        }
        counts = negative_index(jets.g0)
        wedge = hg.integrability_residual(mc, jets)
        for c, (lam, mu) in enumerate(GRID):
            one = hg.SchrodingerManifoldConfig(d, lam, mu)
            rows = slice(c * N, (c + 1) * N)
            alone = bulk_pass(one, pts, 1)
            singles = {
                "induced": hg.induced_metric(one, alone),
                "vertical": hg.xi_hat_consistency(one, alone),
            }
            for name, single in singles.items():
                assert set(single) == set(batched[name])
                for key, value in single.items():
                    assert same_bits(batched[name][key][rows], value), (name, key)
            assert same_bits(counts[rows], negative_index(alone.g0))
            assert same_bits(wedge[rows], hg.integrability_residual(one, alone))
        # residuals are magnitudes: the -0.0 of a mu = 0 clock entry stops short
        for res in batched.values():
            for value in res.values():
                assert no_negative_zero(value)
        assert no_negative_zero(wedge)

    def test_curvature_identities(self, stacked):
        d, pts, mc, x = stacked
        res = hg.nullfluid_residual(mc, bulk_pass(mc, x))
        undeformed = hg.coupling_config(d, [(lam, 0.0) for lam, _ in GRID], N)
        computed, predicted = hg.einstein_residual(undeformed, bulk_pass(undeformed, x))
        for c, (lam, mu) in enumerate(GRID):
            rows = slice(c * N, (c + 1) * N)
            one = hg.SchrodingerManifoldConfig(d, lam, mu)
            r1 = hg.nullfluid_residual(one, bulk_pass(one, pts))
            assert same_values(res[rows], r1)
            assert same_bits(np.abs(res[rows]), np.abs(r1))
            plus = hg.SchrodingerManifoldConfig(d, lam, 0.0)
            c1, p1 = hg.einstein_residual(plus, bulk_pass(plus, pts))
            for got, want in ((computed[rows], c1), (predicted[rows], p1)):
                assert same_values(got, want)
            assert same_bits(np.abs(computed[rows] - predicted[rows]), np.abs(c1 - p1))

    def test_einstein_checks_mu_on_every_sample(self, stacked):
        d, _, mc, x = stacked
        with pytest.raises(ContractViolationError):
            hg.einstein_residual(mc, bulk_pass(mc, x))

    # at N = 5 the audit's order-2 Einstein sub-passes hold all 16
    # couplings at d = 1 and 3, eight at d = 6 and four at d = 8
    @pytest.mark.parametrize("d", [1, 3, 6, 8], ids=lambda d: f"d{d}")
    def test_axiom_audit(self, d):
        seeds = [100 + c for c in range(len(GRID))]
        reports = hg.schrodinger_axiom_audit(configs(d), *_audit_points(d, N, seeds))
        assert len(reports) == len(GRID)
        for (lam, mu), seed, rep in zip(GRID, seeds, reports):
            (alone,) = hg.schrodinger_axiom_audit(
                [hg.SchrodingerManifoldConfig(d, lam, mu)], *_audit_points(d, N, [seed])
            )
            assert json.dumps(rep) == json.dumps(alone)


def test_config_rejects_mismatched_or_positive_couplings():
    with pytest.raises(ValueError):
        hg.SchrodingerManifoldConfig(1, np.array([-1.0, 0.5]))
    with pytest.raises(ValueError):
        hg.SchrodingerManifoldConfig(1, np.array([-1.0, -0.5]), np.zeros(3))
    with pytest.raises(ValueError):
        hg.SchrodingerManifoldConfig(1, np.full((2, 2), -1.0))


# ---------------------------------------------------------------------------
# the pass budget and the stacked random draws


@pytest.mark.parametrize("samples", [5, 20, 80])
@pytest.mark.parametrize("d", range(1, 9))
def test_passes_hold_whole_couplings_within_the_budget(d, samples):
    n = d + 3
    for order, count in itertools.product((0, 1, 2), (1, 3, 16, 40)):
        # the working set of a pass: N n^2 Gram entries, N n^3 first
        # derivatives, 4 N n^3 for the Ricci contraction of order 2
        per_coupling = samples * (n**2, n**3, 4 * n**3)[order]
        parts = hg.coupling_passes(d, count, samples, order)
        held = [list(range(count)[p]) for p in parts]
        # every coupling in exactly one pass, in order
        assert [i for h in held for i in h] == list(range(count))
        for h in held:
            assert h
            assert len(h) * per_coupling <= hg.COUPLING_PASS_ENTRIES or len(h) == 1
        # no pass is cut short while a later one could have filled it
        assert all(
            (len(h) + 1) * per_coupling > hg.COUPLING_PASS_ENTRIES for h in held[:-1]
        )


BENCHMARKED_PASSES = [
    (1, 5, 16), (2, 5, 16), (3, 5, 16), (1, 20, 16), (2, 20, 13), (3, 20, 7),
    (6, 5, 8), (8, 5, 4),
]


@pytest.mark.parametrize("d, samples, per_pass", BENCHMARKED_PASSES)
def test_pass_sizes_of_the_benchmarked_grids(d, samples, per_pass):
    parts = hg.coupling_passes(d, 16, samples, 2)
    assert len(range(16)[parts[0]]) == per_pass


@pytest.mark.parametrize(
    "d, samples, per_pass", [p for p in BENCHMARKED_PASSES if p[2] < len(GRID)]
)
def test_the_driver_splits_the_grid_into_its_budgeted_passes(d, samples, per_pass):
    # distinct points for every coupling, so a misplaced row shows
    pts = SeededSampler(13, hg.bulk_boxes(d)).points(len(GRID) * samples)
    seen = []

    def residual(mc, rows, part):
        seen.append(part)
        assert same_bits(rows, pts[part.start * samples : part.stop * samples])
        want = np.repeat(GRID[part], samples, axis=0)
        for got, column in ((mc.lam, 0), (mc.mu, 1)):
            assert (np.broadcast_to(got, len(rows)) == want[:, column]).all()
        return hg.nullfluid_residual(mc, bulk_pass(mc, rows))

    got = np.concatenate(hg.over_couplings(d, GRID, pts, 2, residual))
    assert seen == hg.coupling_passes(d, len(GRID), samples, 2)
    assert len(seen) == -(-len(GRID) // per_pass) > 1
    for c, (lam, mu) in enumerate(GRID):
        rows = slice(c * samples, (c + 1) * samples)
        cfg = hg.SchrodingerManifoldConfig(d, lam, mu)
        one = hg.nullfluid_residual(cfg, bulk_pass(cfg, pts[rows]))
        assert same_values(got[rows], one)
        assert same_bits(np.abs(got[rows]), np.abs(one))
    with pytest.raises(ContractViolationError, match="split evenly"):
        hg.over_couplings(d, GRID, pts[:-1], 2, residual)


@pytest.mark.parametrize(
    "dims, samples", [((3, 6, 8), 20), ((1, 2, 3), 80)], ids=["default", "dense"]
)
def test_the_axioms_suite_audits_each_d_once_within_the_order2_budget(
    monkeypatch, dims, samples
):
    audited, passes = [], []
    audit, jets = hg.schrodinger_axiom_audit, geometry.gram_jets

    def counted_audit(cfg, *args, **kwargs):
        audited.append(cfg[0].d)
        return audit(cfg, *args, **kwargs)

    def recorded_jets(metric, p, order=2):
        out = jets(metric, p, order)
        if order == 2:
            # the bulk metric's non-constant entries: a and the clock term
            assert out.hess.shape == out.g0.shape[:1] + out.pattern.shape
            assert len(out.pattern) <= 2
            passes.append(out.g0.shape[:2])
        return out

    monkeypatch.setattr(hg, "schrodinger_axiom_audit", counted_audit)
    monkeypatch.setattr(hg, "gram_jets", recorded_jets)
    checks = run_suite(SuiteConfig("axioms", dims=dims, samples=samples)).checks
    assert {c.status for c in checks} == {"PASS"}
    assert audited == list(dims)
    per = max(4, samples // 4)
    assert len(passes) == sum(
        len(hg.coupling_passes(d, len(GRID), per, 2)) for d in dims
    )
    for count, n in passes:
        assert 4 * count * n**3 <= hg.COUPLING_PASS_ENTRIES or count == per


@pytest.mark.parametrize("d", [1, 3])
def test_one_stacked_normal_draw_is_consecutive_draws(d):
    couplings = len(GRID)
    stacked = np.random.default_rng(9).normal(size=(couplings, N, 2, d + 3))
    rng = np.random.default_rng(9)
    for c in range(couplings):
        assert same_bits(stacked[c], rng.normal(size=(N, 2, d + 3)))


# ---------------------------------------------------------------------------
# ERROR isolation: one singular coupling of a pass


def _singular_at(monkeypatch, coordinate):
    """Make the bulk Gram vanish at the samples whose first coordinate is
    ``coordinate``; every other sample is multiplied by 1.0, exactly.  Each
    distinct entry is scaled once, so entries shared between positions stay
    shared and the factored second derivatives keep their grouping."""
    original = hg.bulk_metric

    def broken(cfg):
        metric = original(cfg)

        def gram(p):
            keep = np.where(nk.jet_value(p[0]) == coordinate, 0.0, 1.0)
            rows = metric.gram(p)
            scaled = {id(e): e * keep for row in rows for e in row}
            return [[scaled[id(e)] for e in row] for row in rows]

        return MetricField(gram)

    monkeypatch.setattr(hg, "bulk_metric", broken)


def _a_singular_coupling_errors_alone(monkeypatch, d):
    cfg = SuiteConfig("axioms", dims=(d,), seed=5)
    before = {c.name: c.to_dict() for c in run_suite(cfg).checks}
    target = f"axioms_d{d}_lam-1_mu2"
    samples = max(4, cfg.samples // 4)
    pts, _ = _audit_points(d, samples, [check_seed(cfg, target)])
    _singular_at(monkeypatch, pts[2, 0])

    # the pass names the coupling and the index within it, not the stack's
    names = [f"axioms_d{d}_lam{lam:g}_mu{mu:g}" for lam, mu in GRID]
    with pytest.raises(DegenerateMetricError) as info:
        hg.schrodinger_axiom_audit(
            configs(d), *_audit_points(d, samples, [check_seed(cfg, n) for n in names])
        )
    assert info.value.sample == 2
    assert "(lam, mu) = (-1, 2), sample 2 (" in str(info.value)

    after = {c.name: c.to_dict() for c in run_suite(cfg).checks}
    assert set(after) == set(before)
    errors = [n for n, rec in after.items() if rec["status"] == "ERROR"]
    assert errors == [target]
    assert after[target]["error"].startswith(
        "DegenerateMetricError: Gram matrix is singular at (lam, mu) = (-1, 2), sample 2 ("
    )
    assert after[target]["seed"] == before[target]["seed"]
    for n, rec in after.items():
        if n != target:
            assert rec == before[n], n


def test_a_singular_coupling_errors_alone(monkeypatch):
    _a_singular_coupling_errors_alone(monkeypatch, 1)


def test_a_singular_coupling_in_an_einstein_sub_pass_errors_alone(monkeypatch):
    # d = 8: the grid is audited in one pass whose Einstein part runs four
    # couplings per sub-pass, so the singular sample sits in the second
    # sub-pass beside three regular couplings
    samples = max(4, SuiteConfig("axioms").samples // 4)
    assert len(hg.coupling_passes(8, len(GRID), samples, 1)) == 1
    assert len(hg.coupling_passes(8, len(GRID), samples, 2)) == len(GRID) // 4
    _a_singular_coupling_errors_alone(monkeypatch, 8)


def test_a_singular_grid_sample_is_named_in_the_homogeneous_error(monkeypatch):
    cfg = SuiteConfig("homogeneous", dims=(1,), seed=5)
    name = "homogeneous_d1_nullfluid"
    pts = SeededSampler(check_seed(cfg, name), hg.bulk_boxes(1)).points(5)
    _singular_at(monkeypatch, pts[3, 0])
    rec = {c.name: c for c in run_suite(cfg).checks}[name]
    assert rec.status == "ERROR"
    # the first coupling of the grid meets the singular sample first
    assert "(lam, mu) = (-2, -1), sample 3 (" in rec.error


@pytest.mark.parametrize("k", [0, 3, 4])
def test_one_coupling_names_its_singular_sample(monkeypatch, k):
    # a pass of one coupling: the sample index within the batch is the index
    # within the coupling, and the message names both
    d = 1
    pts = SeededSampler(17, hg.bulk_boxes(d)).points(5)
    _singular_at(monkeypatch, pts[k, 0])

    def residual(mc, rows, part):
        return hg.nullfluid_residual(mc, bulk_pass(mc, rows))

    with pytest.raises(DegenerateMetricError) as info:
        hg.over_couplings(d, [(-1.0, 2.0)], pts, 2, residual)
    assert info.value.sample == k and type(info.value.sample) is int
    assert info.value.coupling == (-1.0, 2.0)
    assert f"Gram matrix is singular at (lam, mu) = (-1, 2), sample {k} (" in str(info.value)
    assert str(info.value).endswith(f"({info.value.detail})")


# ---------------------------------------------------------------------------
# large couplings: the dual-path and clock residuals are relative to the
# entries they compare, which grow like -2 lam / rh^2


@pytest.mark.parametrize("dims, lam", [((1, 2, 3), -1000.0), ((1,), -1e6)])
def test_dual_path_and_clock_hold_at_large_couplings(dims, lam):
    cfg = SuiteConfig("homogeneous", dims=dims, lams=(lam,), mus=(1.0,))
    records = {c.name: c for c in run_suite(cfg).checks}
    for d in dims:
        for family in ("dualpath", "clock"):
            assert records[f"homogeneous_d{d}_{family}"].status == "PASS"


# ---------------------------------------------------------------------------
# NaN residuals fail


def test_nan_difference_fails_the_dual_path(monkeypatch):
    original = hg.induced_metric

    def nan_difference(*args, **kwargs):
        res = original(*args, **kwargs)
        res["metric"] = res["metric"].copy()
        res["metric"][-1] = np.nan
        return res

    monkeypatch.setattr(hg, "induced_metric", nan_difference)
    rec = {
        c.name: c for c in run_suite(SuiteConfig("homogeneous", dims=(1,))).checks
    }["homogeneous_d1_dualpath"]
    assert rec.status == "FAIL"
    assert math.isnan(rec.residual)


def test_nan_stabilizer_fails_the_isotropy(monkeypatch):
    original = hg.bulk_isotropy_element
    made = []

    def nan_first(*args, **kwargs):
        ge = original(*args, **kwargs)
        if not made:
            ge[0, 0, 0] = np.nan
        made.append(ge)
        return ge

    monkeypatch.setattr(hg, "bulk_isotropy_element", nan_first)
    rec = {
        c.name: c for c in run_suite(SuiteConfig("homogeneous", dims=(1,))).checks
    }["homogeneous_d1_isotropy"]
    assert rec.status == "FAIL"
    assert math.isnan(rec.residual)


def test_nan_bracket_fails_the_realization(monkeypatch):
    original = suites.bracket_fields

    def nan_bracket(*args, **kwargs):
        res = original(*args, **kwargs)
        res["minus"] = res["minus"].copy()
        res["minus"][-1] = np.nan
        return res

    monkeypatch.setattr(suites, "bracket_fields", nan_bracket)
    rec = {
        c.name: c for c in run_suite(SuiteConfig("lie-algebra", dims=(1,))).checks
    }["liealgebra_d1_realization"]
    assert rec.status == "FAIL"
    assert math.isnan(rec.residual)
    assert rec.samples == 9


# ---------------------------------------------------------------------------
# the covariant Schrödinger pair shares its metric pass


def _counting(calls, name, fn, args=None):
    """``fn``, adding one to ``calls[name]`` per call and, given a list
    ``args``, appending each call's positional arguments to it."""

    def wrapper(*a, **kw):
        calls[name] += 1
        if args is not None:
            args.append(a)
        return fn(*a, **kw)

    return wrapper


@pytest.mark.parametrize("d", [1, 2])
def test_schrodinger_residual_makes_one_pass(monkeypatch, d):
    structure = flat_bargmann(d)
    params = SchrodingerParams()
    wave = plane_wave(d, [0.4] * d, params)
    pts = SeededSampler(3, [(-1.0, 1.0)] * (d + 2)).points(4)
    jets = gram_jets(structure.metric, pts)
    want1 = yamabe_residual(jets, jets.scalar(wave.coefficient))
    lie = density_lie_derivative(structure.metric, structure.xi, wave, pts)
    want2 = (params.hbar / 1j) * lie - params.mass * wave.coefficient(
        nk.seed_point(pts)
    ).value

    calls = {"coefficient": 0, "seed_point": 0, "inverse": 0, "xi": 0}
    seeded = []
    seed_point = _counting(calls, "seed_point", nk.seed_point, seeded)
    monkeypatch.setattr(geometry, "seed_point", seed_point)
    monkeypatch.setattr(nk, "seed_point", seed_point)
    monkeypatch.setattr(
        geometry, "_invert_gram", _counting(calls, "inverse", geometry._invert_gram)
    )
    psi = type(wave)(
        coefficient=_counting(calls, "coefficient", wave.coefficient),
        weight=wave.weight,
    )
    xi = VectorField(_counting(calls, "xi", structure.xi.components))
    r1, r2 = schrodinger_residual(structure._replace(xi=xi), psi, params, pts)
    assert calls == {"coefficient": 1, "seed_point": 1, "inverse": 1, "xi": 1}
    assert [a[1:] for a in seeded] == [(2,)]  # order 2, for the Yamabe operator
    assert same_bits(r1, want1)
    assert same_bits(r2, want2)


@pytest.mark.parametrize("d", [1, 2])
def test_bargmann_axioms_check_makes_one_metric_pass(monkeypatch, d):
    # the Gram callable and xi run once, for the metric's pass, from which
    # the clock g(xi) is read; covariant_derivative and divergence share
    # the pass's one inverse
    structure = flat_bargmann(d)
    pts = SeededSampler(4, [(-1.0, 1.0)] * (d + 2)).points(5)
    want = bargmann_axioms_check(structure, gram_jets(structure.metric, pts, 1))
    calls = {"gram": 0, "inverse": 0, "xi": 0}
    counted = MetricField(_counting(calls, "gram", structure.metric.gram))
    xi = VectorField(_counting(calls, "xi", structure.xi.components))
    monkeypatch.setattr(
        geometry, "_invert_gram", _counting(calls, "inverse", geometry._invert_gram)
    )
    got = bargmann_axioms_check(BargmannStructure(counted, xi, d), gram_jets(counted, pts, 1))
    assert calls == {"gram": 1, "inverse": 1, "xi": 1}
    assert got.keys() == want.keys()
    assert all(same_bits(got[k], want[k]) for k in want)


def _recording(evaluated, name, metric):
    """``metric``, appending (name, the coordinates' values) to
    ``evaluated`` per Gram evaluation, on jets or on arrays alike."""

    def gram(p):
        values = np.array([nk.jet_value(x) for x in p])
        evaluated.append((name, values.tobytes()))
        return metric.gram(p)

    return MetricField(gram)


def _recorded_bulk_metric(monkeypatch, evaluated):
    """Patch ``hg.bulk_metric`` to record each evaluation, named "deformed"
    for a config with a per-sample mu and "undeformed" for a float mu = 0."""
    make = hg.bulk_metric

    def bulk_metric(cfg):
        kind = "deformed" if isinstance(cfg.mu, np.ndarray) else "undeformed"
        assert kind == "deformed" or cfg.mu == 0.0
        return _recording(evaluated, kind, make(cfg))

    monkeypatch.setattr(hg, "bulk_metric", bulk_metric)


@pytest.mark.parametrize(
    "name, order",
    [
        ("induced_metric", 1),
        ("xi_hat_consistency", 1),
        ("integrability_residual", 1),
        ("nullfluid_residual", 2),
        ("einstein_residual", 2),
    ],
)
@pytest.mark.parametrize("d", [1, 3])
def test_each_bulk_identity_makes_one_gram_evaluation(monkeypatch, name, order, d):
    # the identity reads g0, dg and the clock off the pass it is given
    identity = getattr(hg, name)
    pts = SeededSampler(5, hg.bulk_boxes(d)).points(N)
    grid = [(lam, 0.0) for lam, _ in GRID] if name == "einstein_residual" else GRID
    mc = hg.coupling_config(d, grid, N)
    x = np.tile(pts, (len(grid), 1))
    want = identity(mc, bulk_pass(mc, x, order))
    evaluated = []
    _recorded_bulk_metric(monkeypatch, evaluated)
    got = identity(mc, gram_jets(hg.bulk_metric(mc), x, order))
    assert len(evaluated) == 1
    if isinstance(want, dict):
        got, want = got.values(), want.values()
    for a, b in zip(got, want):
        assert same_bits(a, b)


@pytest.mark.parametrize("d", [1, 8])
def test_each_audit_pass_evaluates_a_metric_once_at_its_points(monkeypatch, d):
    # per first-order pass of the audit: the deformed metric at its bulk
    # points and at the transverse points at rh = 1e-2 and 1e-3, and the
    # undeformed metric at rh = 1e-3; per Einstein sub-pass, the undeformed
    # metric at that sub-pass's bulk points, whose g0 is also g_plus
    seeds = [100 + c for c in range(len(GRID))]
    pts, transverse = _audit_points(d, N, seeds)
    want = hg.schrodinger_axiom_audit(configs(d), pts, transverse)
    evaluated = []
    _recorded_bulk_metric(monkeypatch, evaluated)
    got = hg.schrodinger_axiom_audit(configs(d), pts, transverse)
    assert json.dumps(got) == json.dumps(want)
    assert len(hg.coupling_passes(d, len(GRID), N, 1)) == 1
    sub_passes = hg.coupling_passes(d, len(GRID), N, 2)
    assert len(evaluated) == len(set(evaluated)) == 4 + len(sub_passes)
    assert [kind for kind, _ in evaluated].count("deformed") == 3
    at_pts = {("deformed", pts.T.tobytes())} | {
        ("undeformed", pts[part.start * N : part.stop * N].T.tobytes()) for part in sub_passes
    }
    assert at_pts <= set(evaluated)


def test_boundary_structure_evaluates_its_gram_once_at_its_points(monkeypatch):
    d = 2
    pts = SeededSampler(3, [(-1.2, 1.2)] * (d + 2)).points(6)
    want = hg.boundary_structure(d, pts, np.random.default_rng(4))
    evaluated = []
    make = hg.boundary_metric
    monkeypatch.setattr(hg, "boundary_metric", lambda d: _recording(evaluated, "g", make(d)))
    got = hg.boundary_structure(d, pts, np.random.default_rng(4))
    for name, numbers in want.items():
        assert all(same_bits(got[name][k], v) for k, v in numbers.items()), name
    # its points, then the twenty drawn at four fixed times
    assert len(evaluated) == len(set(evaluated)) == 2
    assert evaluated[0][1] == np.ascontiguousarray(pts.T).tobytes()


@pytest.mark.parametrize("d", [1, 3])
def test_isometry_check_embeds_its_points_once(monkeypatch, d):
    # the quadric reads the values of the embedding jets that the pulled-back
    # metric is built from, for a group element and for a raw matrix alike
    cfg = hg.SchrodingerManifoldConfig(d, -0.5, 1.0)
    pts = SeededSampler(6, hg.bulk_boxes(d)).points(N)
    calls = {"embed": 0}
    monkeypatch.setattr(hg, "embed_components", _counting(calls, "embed", hg.embed_components))
    for A in (random_group_element(d, np.random.default_rng(d)), hg.null_plane_boost(d, 1.5)):
        calls["embed"] = 0
        got = hg.isometry_check(cfg, A, pts)
        assert calls == {"embed": 1}
        assert (got["quadric_residual"] < 1e-14).all()


@pytest.mark.parametrize("d", [1, 3])
def test_the_dual_path_and_vertical_field_share_one_embedding(monkeypatch, d):
    # both read the embedding jets of the pass they are given, evaluated once
    mc = hg.coupling_config(d, GRID, N)
    pts = SeededSampler(6, hg.bulk_boxes(d)).points(N)
    jets = bulk_pass(mc, np.tile(pts, (len(GRID), 1)), 1)
    calls = {"embed": 0}
    monkeypatch.setattr(hg, "embed_components", _counting(calls, "embed", hg.embed_components))
    hg.induced_metric(mc, jets)
    hg.xi_hat_consistency(mc, jets)
    assert calls == {"embed": 1}


def _passes(monkeypatch, cfg) -> list:
    """(rows, order) of each jet pass and Gram evaluation that a run of
    ``cfg`` makes, a Gram evaluation being order 0."""
    seen = []
    jets, values = geometry.gram_jets, geometry.gram_values

    def gram_jets(metric, p, order=2):
        seen.append((len(p), order))
        return jets(metric, p, order)

    def gram_values(metric, p):
        seen.append((len(p), 0))
        return values(metric, p)

    for module in (suites, hg, bargmann):
        monkeypatch.setattr(module, "gram_jets", gram_jets)
    monkeypatch.setattr(hg, "gram_values", gram_values)
    assert run_suite(cfg).all_passed()
    return seen


def test_the_grid_reads_one_first_order_pass_per_d(monkeypatch):
    # dualpath, clock, signature and vertical share one order-1 pass of the
    # 16 couplings at 5 points; integrability keeps its pass of the first
    # mu's 4 couplings, and the curvature its order-2 passes
    dims = (1, 2, 3)
    seen = _passes(monkeypatch, SuiteConfig("homogeneous", dims=dims))
    grid = [order for rows, order in seen if rows == len(GRID) * N]
    assert sorted(grid) == [1] * len(dims) + [2] * len(dims)
    assert [rows for rows, order in seen if order == 1] == [len(GRID) * N, 4 * N] * len(dims)


def test_the_bargmann_table_reads_one_pass_per_d(monkeypatch):
    dims = (1, 2, 3)
    seen = _passes(monkeypatch, SuiteConfig("bargmann", dims=dims))
    assert seen == [(20, 1)] * len(dims)


def test_an_order2_pass_stays_within_its_budget():
    # d = 8, 16 couplings x 5 points: four passes of four couplings, each
    # holding the factored second derivatives and the Ricci working set;
    # the dense d2g of one such pass alone would take 20 n^4 doubles
    d, samples = 8, 5
    pts = SeededSampler(13, hg.bulk_boxes(d)).points(len(GRID) * samples)

    def residual(mc, rows, _):
        return float(np.abs(hg.nullfluid_residual(mc, bulk_pass(mc, rows))).max())

    hg.over_couplings(d, GRID, pts, 2, residual)  # warm caches and imports
    tracemalloc.start()
    try:
        hg.over_couplings(d, GRID, pts, 2, residual)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hg.coupling_passes(d, len(GRID), samples, 2)) == 4
    assert peak <= 1.25 * 8 * hg.COUPLING_PASS_ENTRIES
    assert peak < 8 * 4 * samples * (d + 3) ** 4
