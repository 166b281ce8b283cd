"""Acceptance gate.  Each test covers one numbered criterion, prints a
verdict line, and pins its tolerances explicitly.  Expected numbers were
computed independently before being frozen here; nothing in this module is
tuned to make a test pass."""

import time

import numpy as np

from conftest import record_criterion
from oracles import algebra_blocks

from schrogeo.ambient import (
    _commutant_cached,
    _commutant_svd,
    ambient_gram,
    boost_element,
    build_Z0,
    commutant_basis,
    component_witnesses,
    cone_point,
    dilation_element,
    exp_group,
    expansion_element,
    g_adjoint,
    projective_action,
    random_group_element,
    realize_field,
    sch_dimension,
    translation_element,
    xi_field,
)
from schrogeo.bargmann import (
    SchrodingerParams,
    flat_bargmann,
    group_map,
    plane_wave,
    schrodinger_residual,
    symmetry_transport_check,
)
from schrogeo.geometry import (
    component_values,
    covariant_derivative,
    exterior_wedge,
    gram_jets,
    gram_values,
    jet_components,
    lie_bracket,
    lie_derivative_metric,
)
from schrogeo.homogeneous import (
    SchrodingerManifoldConfig,
    boundary_metric,
    boundary_structure,
    bulk_boxes,
    bulk_metric,
    einstein_residual,
    isometry_check,
    isotropy_check,
    metric_recovery_residual,
    null_plane_boost,
    nullfluid_residual,
    schrodinger_axiom_audit,
    theta_f0_form,
)
from schrogeo.numkernel import SeededSampler
from schrogeo.suites import (
    AUDIT,
    BOUNDARY_STRUCTURE,
    SuiteConfig,
    _audit_points,
    _box_points,
    emit_report,
    run_suite,
    verdicts,
)

LAM_GRID = (-0.5, -1.0, -0.3)
MU_GRID = (-1.0, 0.0, 1.0, 2.0)


class Gate:
    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label
        self.failures: list[str] = []

    def check(self, cond: bool, note: str) -> None:
        if not cond:
            self.failures.append(note)

    def finish(self) -> None:
        record_criterion(self.number, not self.failures, self.label)
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def test_criterion_01_commutant_dimensions():
    gate = Gate(1, "commutant dimensions 6/9/13/18, tolerance-stable, under 1s")
    _commutant_cached.cache_clear()
    _commutant_svd.cache_clear()
    start = time.perf_counter()
    for d, expected in ((1, 6), (2, 9), (3, 13), (4, 18)):
        basis = commutant_basis(d)
        gate.check(len(basis) == expected, f"d={d}: got {len(basis)}")
        gate.check(sch_dimension(d) == expected, f"closed form at d={d}")
    elapsed = time.perf_counter() - start
    gate.check(elapsed < 1.0, f"construction took {elapsed:.2f}s")
    for tol in (1e-9, 1e-11):
        gate.check(
            len(commutant_basis(3, tol=tol)) == 13, f"d=3 unstable at tol={tol}"
        )
    gate.finish()


def test_criterion_02_conformal_killing_realization():
    gate = Gate(2, "every algebra element acts conformally and fixes the vertical")
    for d in (1, 2, 3):
        bg = flat_bargmann(d)
        pts = SeededSampler(101 + d, [(-1.0, 1.0)] * (d + 2)).points(20)
        for e in commutant_basis(d):
            field = realize_field(e, d)
            _, _, alpha, chi = algebra_blocks(e, d)
            lie = lie_derivative_metric(gram_jets(bg.metric, pts, order=1), field)
            g0 = gram_values(bg.metric, pts)
            phi = 2.0 * (alpha * pts[:, d] + chi)
            gate.check(
                float(np.abs(lie - phi[:, None, None] * g0).max()) < 1e-9,
                f"conformal Killing fails d={d}",
            )
            br = lie_bracket(field, bg.xi, pts)
            gate.check(float(np.abs(br).max()) < 1e-12, f"vertical moved d={d}")
    gate.finish()


def test_criterion_03_einstein_exactly_at_critical():
    gate = Gate(3, "einstein condition holds at the critical coupling only")
    for d in (1, 2, 3):
        cfg = SchrodingerManifoldConfig(d, -0.5)
        pts = SeededSampler(31 + d, bulk_boxes(d)).points(25)
        computed, _ = einstein_residual(cfg, gram_jets(bulk_metric(cfg), pts))
        gate.check(float(np.abs(computed).max()) < 1e-8, f"not einstein at d={d}")
        for lam in (-1.0, -0.3):
            off = SchrodingerManifoldConfig(d, lam)
            p = SeededSampler(41 + d, bulk_boxes(d)).points(1)
            computed, predicted = einstein_residual(off, gram_jets(bulk_metric(off), p))
            gate.check(
                float(np.abs(computed - predicted).max()) < 1e-8,
                f"proportionality identity broken at lam={lam}",
            )
            gate.check(
                float(np.abs(computed).max()) > 1e-3,
                f"residual unexpectedly small at lam={lam}",
            )
    gate.finish()


def test_criterion_04_nullfluid_identity():
    gate = Gate(4, "null-fluid identity across the coupling grid, frozen example")
    for d in (1, 2, 3):
        for lam in LAM_GRID:
            for mu in MU_GRID:
                cfg = SchrodingerManifoldConfig(d, lam, mu)
                p = SeededSampler(7 * d + 1, bulk_boxes(d)).points(1)
                residual = nullfluid_residual(cfg, gram_jets(bulk_metric(cfg), p))
                gate.check(
                    float(np.abs(residual).max()) < 1e-8,
                    f"identity fails at ({d},{lam},{mu})",
                )
    # frozen: d=3, lam=-1/2, mu=1 gives Ric + 5 g = 7 theta x theta
    cfg = SchrodingerManifoldConfig(3, -0.5, 1.0)
    p = [[0.1, -0.2, 0.3, 0.4, 0.5, 1.7]]
    jets = gram_jets(bulk_metric(cfg), p)
    ric, _ = jets.ricci()
    g0 = jets.g0
    # the clock (-2 lam / rh^2) dt in closed form
    th = np.zeros(6)
    th[3] = 1.0 / 1.7**2
    gate.check(
        float(np.abs(ric[0] + 5.0 * g0[0] - 7.0 * np.outer(th, th)).max()) < 1e-10,
        "frozen stress identity",
    )
    gate.finish()


def test_criterion_05_flat_recovery():
    gate = Gate(5, "chart metric reproduces the closed-form line element")
    for d in (1, 2, 3):
        pts = SeededSampler(55 + d, bulk_boxes(d)).points(10)
        gate.check(
            (metric_recovery_residual(d, pts) < 1e-12).all(), f"recovery fails d={d}"
        )
    gate.finish()


def test_criterion_06_isometries_and_boost_control():
    gate = Gate(6, "group exponentials preserve the deformed metric; boost control fails")
    rng = np.random.default_rng(2024)
    cfg = SchrodingerManifoldConfig(2, -0.5, 1.0)
    for i in range(20):
        ge = random_group_element(2, rng, scale=0.3)
        res = isometry_check(cfg, ge, SeededSampler(60 + i, bulk_boxes(2)).points(2))
        gate.check((res["metric_residual"] < 1e-8).all(), f"element {i} moved the metric")
    boost = null_plane_boost(2, 1.5)
    pts = SeededSampler(90, bulk_boxes(2)).points(4)
    on = isometry_check(cfg, boost, pts)
    gate.check((on["metric_residual"] > 1e-3).all(), "boost control should fail at mu=1")
    off = isometry_check(SchrodingerManifoldConfig(2, -0.5, 0.0), boost, pts)
    gate.check((off["metric_residual"] < 1e-8).all(), "boost is an isometry at mu=0")
    gate.finish()


def test_criterion_07_wave_pair_and_transport():
    gate = Gate(7, "plane waves solve the pair; transports preserve it; weight matters")
    params = SchrodingerParams()
    for d in (1, 2, 3):
        bg = flat_bargmann(d)
        psi = plane_wave(d, [0.4 + 0.1 * i for i in range(d)], params)
        pts = SeededSampler(70 + d, [(-1, 1)] * (d + 2)).points(5)
        r1, r2 = schrodinger_residual(bg, psi, params, pts)
        gate.check(
            (np.abs(r1) < 1e-10).all() and (np.abs(r2) < 1e-10).all(), f"plane wave d={d}"
        )
    d = 2
    bg = flat_bargmann(d)
    psi = plane_wave(d, [0.5, 0.2], params)
    maps = {
        "translation": group_map(translation_element(d, [0.3, -0.1, 0.2, 0.4])),
        "boost": group_map(boost_element(d, [0.25, -0.4])),
        "dilation": group_map(dilation_element(d, 0.3)),
        "expansion": group_map(expansion_element(d, 0.2)),
    }
    for name, phi in maps.items():
        res = symmetry_transport_check(phi, psi, bg, params, _box_points(77, 0.8, d + 2, 6))
        gate.check(
            (np.maximum(res["r1"], res["r2"]) < 1e-7).all(), f"{name} transport broke the pair"
        )
    bad = symmetry_transport_check(
        maps["expansion"], psi, bg, params, _box_points(77, 0.8, d + 2, 6), weight=0.0
    )
    gate.check((bad["r1"] > 1e-3).all(), "weightless transport should fail")
    gate.finish()


def test_criterion_08_group_constraints_and_infinitesimal_action():
    gate = Gate(8, "group relations, projective consistency, derivative of the action")
    rng = np.random.default_rng(11)
    d = 2
    G = ambient_gram(d)
    Z0 = build_Z0(d)
    for i in range(50):
        A = random_group_element(d, rng, scale=0.35)
        gate.check(
            float(np.abs(g_adjoint(A, G) @ A - np.eye(d + 4)).max()) < 1e-10,
            f"isometry relation {i}",
        )
        gate.check(
            float(np.abs(A @ Z0 - Z0 @ A).max()) < 1e-10, f"commutation {i}"
        )
    for i in range(8):
        ge = random_group_element(d, rng, scale=0.35)
        x = rng.uniform(-0.8, 0.8, size=d + 2)
        r = rng.uniform(0.6, 1.4)
        xp, rp = projective_action(ge, x, r)
        gate.check(
            float(np.abs(ge @ cone_point(x, r) - cone_point(xp, rp)).max())
            < 1e-10,
            f"cone equivariance {i}",
        )
    # derivative of the finite action reproduces the algebra realization
    eps = 1e-5
    for e in commutant_basis(d)[:6]:
        # each exponential validated as a stack of one
        A_p, A_m = (exp_group(h * e[None], d)[0] for h in (eps, -eps))
        field = realize_field(e, d)
        x = np.array([0.3, -0.2, 0.4, 0.1])
        fwd = np.array(projective_action(A_p, x))
        bwd = np.array(projective_action(A_m, x))
        derivative = (fwd - bwd) / (2 * eps)
        claimed = np.array([float(v) for v in field.components(list(x))])
        gate.check(
            float(np.abs(derivative - claimed).max()) < 1e-8,
            "infinitesimal action mismatch",
        )
    gate.finish()


def test_criterion_09_component_witnesses():
    gate = Gate(9, "discrete witnesses: exact zeros for the connected part")
    rep = component_witnesses(2)
    gate.check(rep.commutator_norms["identity"] == 0.0, "identity witness not exact")
    gate.check(rep.commutator_norms["P"] == 0.0, "parity witness not exact")
    gate.check(rep.commutator_norms["T"] > 0.1, "time reversal not detected")
    gate.check(rep.commutator_norms["PT"] > 0.1, "PT not detected")
    gate.check(rep.conjugation_residual < 1e-12, "conjugation residual too large")
    for name, v in rep.isometry_residuals.items():
        gate.check(v < 1e-12, f"witness {name} not an isometry")
    gate.finish()


def test_criterion_10_boundary_structure():
    gate = Gate(10, "conformal boundary: closed parallel clock, null vertical, cone kernel")
    for d in (1, 2):
        m = boundary_metric(d)
        th = theta_f0_form(d)
        xi = xi_field(d, d + 2)
        pts = SeededSampler(200 + d, [(-1.2, 1.2)] * (d + 2)).points(50)
        dw, _ = exterior_wedge(*jet_components(th.components, pts))
        gate.check(float(np.abs(dw).max()) < 1e-8, f"clock not closed d={d}")
        gate.check(
            float(np.abs(covariant_derivative(gram_jets(m, pts, order=1), th)).max()) < 1e-8,
            f"clock not parallel d={d}",
        )
        g0 = gram_values(m, pts)
        xv = component_values(xi.components, pts)
        null = np.einsum("sa,sab,sb->s", xv, g0, xv)
        gate.check(float(np.abs(null).max()) < 1e-8, f"vertical not null d={d}")
        gate.check(float(np.abs(xv).max(axis=1).min()) > 1e-8, f"vertical vanishes d={d}")
        measured = boundary_structure(d, _box_points(3, 1.2, d + 2, 10), np.random.default_rng(4))
        by_name = verdicts(BOUNDARY_STRUCTURE, measured)
        gate.check(by_name["cone_kernel"].status == "PASS", f"cone kernel d={d}")
    gate.finish()


def test_criterion_11_coupling_audit():
    gate = Gate(11, "axiom audit passes exactly at the distinguished couplings")
    for d in (1, 2, 3):
        for lam in LAM_GRID:
            for mu in MU_GRID:
                cfg = SchrodingerManifoldConfig(d, lam, mu)
                (numbers,) = schrodinger_axiom_audit([cfg], *_audit_points(d, 5, [21]))
                by_name = verdicts(AUDIT, numbers)
                should_pass = lam == -0.5 and mu == 1.0
                gate.check(
                    all(c.status == "PASS" for c in by_name.values()) == should_pass,
                    f"audit verdict wrong at ({d},{lam},{mu})",
                )
                ein = by_name["axiom3_einstein"]
                if lam != -0.5:
                    gate.check(
                        ein.status == "FAIL", f"einstein axiom should fail lam={lam}"
                    )
                    factor = (d + 2) * (1 + 2 * lam) / (2 * lam)
                    gate.check(
                        abs(ein.extra["predicted_factor"] - factor) < 1e-12,
                        f"predicted factor missing at ({d},{lam})",
                    )
                ratio = by_name["axiom2_inverse_metric"].extra["decay_ratio"]
                gate.check(80.0 < ratio < 120.0, f"decay ratio {ratio} at ({d},{lam},{mu})")
    gate.finish()


def test_criterion_12_isotropy_dimensions():
    gate = Gate(12, "stabilizer dimensions give the right orbit dimensions")
    for d, bulk, boundary in ((1, 2, 3), (2, 4, 5), (3, 7, 8), (4, 11, 12)):
        cfg = SchrodingerManifoldConfig(d, -0.5)
        res = isotropy_check(cfg, np.random.default_rng(5), 3)
        gate.check(res["bulk_isotropy_dim"] == bulk, f"bulk stabilizer d={d}")
        gate.check(res["boundary_isotropy_dim"] == boundary, f"boundary stabilizer d={d}")
        gate.check(res["bulk_space_dim"] == d + 3, f"bulk orbit d={d}")
        gate.check(res["boundary_space_dim"] == d + 2, f"boundary orbit d={d}")
        gate.check((res["bulk_fix_residual"] < 1e-10).all(), f"bulk fix residual d={d}")
        gate.check(
            (res["boundary_fix_residual"] < 1e-10).all(), f"boundary fix residual d={d}"
        )
    gate.finish()


def test_criterion_13_full_run_reproducible_and_fast():
    gate = Gate(13, "default verification run finishes in budget, byte-reproducible")
    cfg = SuiteConfig(suite="all", dims=(1, 2, 3), seed=42)
    start = time.perf_counter()
    first = emit_report(run_suite(cfg), "json")
    elapsed = time.perf_counter() - start
    second = emit_report(run_suite(cfg), "json")
    gate.check(elapsed < 60.0, f"run took {elapsed:.1f}s")
    gate.check(first == second, "reports differ between runs")
    import json

    doc = json.loads(first)
    gate.check(doc["summary"]["FAIL"] == 0, "default run has failures")
    gate.check(doc["summary"]["ERROR"] == 0, "default run has errors")
    gate.finish()
