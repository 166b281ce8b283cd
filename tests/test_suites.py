"""Suite runner behavior: validation, determinism, report shape, and the
expectation-aware coupling scan."""

import inspect
import json
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from oracles import isometry_loop
from schrogeo import ambient, bargmann, geometry, homogeneous, suites
from schrogeo import numkernel as nk
from schrogeo.ambient import ambient_gram, build_Z0, commutant_stack
from schrogeo.geometry import MetricField, VectorField, negative_index
from schrogeo.report import judged
from schrogeo.suites import (
    AUDIT,
    BULK_SUITES,
    SUITES,
    TABLES,
    ConfigError,
    SuiteConfig,
    _audit_points,
    check_seed,
    emit_report,
    run_suite,
)


def small(suite, **kw):
    defaults = dict(dims=(1,), lams=(-0.5,), mus=(1.0,), samples=4, seed=7)
    defaults.update(kw)
    return SuiteConfig(suite=suite, **defaults)


class TestValidation:
    def test_rejects_unknown_suite(self):
        with pytest.raises(ConfigError):
            small("spectral").validate()

    def test_rejects_nonnegative_lambda(self):
        with pytest.raises(ConfigError):
            small("homogeneous", lams=(-0.5, 0.5)).validate()

    def test_rejects_bad_samples_and_format(self):
        with pytest.raises(ConfigError):
            small("bargmann", samples=0).validate()
        with pytest.raises(ConfigError):
            small("bargmann", fmt="yaml").validate()

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigError):
            small("bargmann", dims=(0,)).validate()

    def test_registry_is_complete(self):
        assert "all" in SUITES
        assert BULK_SUITES <= set(SUITES)


class TestRunner:
    def test_checks_sorted_by_name(self):
        report = run_suite(small("homogeneous"))
        names = [c.name for c in report.checks]
        assert names == sorted(names)

    def test_record_names_are_unique_in_all(self):
        names = [c.name for c in run_suite(SuiteConfig("all")).checks]
        assert len(names) == len(set(names)) == 171

    def test_summary_counts(self):
        report = run_suite(small("bargmann"))
        s = report.summary
        assert s["total"] == len(report.checks)
        assert s["PASS"] + s["FAIL"] + s["ERROR"] == s["total"]
        assert report.all_passed()

    def test_deterministic_output(self):
        a = emit_report(run_suite(small("lie-algebra")), "json")
        b = emit_report(run_suite(small("lie-algebra")), "json")
        assert a == b

    def test_seed_changes_output(self):
        a = emit_report(run_suite(small("group")), "json")
        b = emit_report(run_suite(small("group", seed=8)), "json")
        assert a != b

    def test_per_check_seeds_differ(self):
        cfg = small("bargmann")
        assert check_seed(cfg, "alpha") != check_seed(cfg, "beta")
        assert 0 <= check_seed(cfg, "alpha") < 2**31

    def test_tight_tolerance_fails_honestly(self):
        report = run_suite(small("homogeneous", tol=1e-30))
        assert not report.all_passed()
        assert report.summary["FAIL"] > 0
        assert report.summary["ERROR"] == 0


class TestReportFormats:
    def test_json_shape(self):
        report = run_suite(small("boundary"))
        doc = json.loads(emit_report(report, "json"))
        assert doc["version"] == "1"
        assert doc["config"]["suite"] == "boundary"
        assert doc["config"]["seed"] == 7
        assert "wall_time" not in doc["config"]
        assert isinstance(doc["checks"], list)
        for rec in doc["checks"]:
            assert {"name", "status", "claim"} <= set(rec)
        assert doc["summary"]["FAIL"] == 0

    def test_text_has_one_line_per_check(self):
        report = run_suite(small("bargmann"))
        text = emit_report(report, "text")
        lines = [l for l in text.splitlines() if l.strip()]
        # one line per check plus the summary
        assert len(lines) == len(report.checks) + 1
        assert lines[-1].startswith("summary:")

    def test_json_round_trips_every_suite(self):
        for suite in SUITES:
            if suite == "all":
                continue
            doc = json.loads(emit_report(run_suite(small(suite)), "json"))
            assert doc["summary"]["ERROR"] == 0, (suite, doc["checks"])


class TestCouplingScan:
    def test_expectations_match_audit(self):
        cfg = SuiteConfig(
            suite="axioms",
            dims=(1,),
            lams=(-0.5, -1.0),
            mus=(0.0, 1.0),
            samples=4,
            seed=3,
        )
        report = run_suite(cfg)
        assert report.all_passed()
        by_name = {c.name: c for c in report.checks}
        happy = by_name["axioms_d1_lam-0.5_mu1"]
        assert happy.extra["full_pass"] is True
        off = by_name["axioms_d1_lam-1_mu1"]
        assert off.extra["full_pass"] is False
        assert off.extra["audit"]["axiom3_einstein"] == "FAIL"
        assert off.extra["predicted_factor"] == pytest.approx(1.5)
        drop = by_name["axioms_d1_lam-0.5_mu0"]
        assert drop.extra["audit"]["axiom2_inverse_metric"] == "FAIL"

    def test_full_default_run_passes(self):
        cfg = SuiteConfig(suite="all", dims=(1,), samples=4, seed=42)
        report = run_suite(cfg)
        assert report.all_passed(), [
            (c.name, c.status) for c in report.checks if c.status != "PASS"
        ]


class TestClosureMutation:
    """Brackets that leave the commutant of Z0, or leave o(d+2,2), flip the
    closure record to FAIL, above its 1e-12 bound: a 1e-7 nudge lifts the
    residual past 1e-10, and a 1e-11 nudge past 1e-12."""

    @pytest.mark.parametrize("leave", ["commutant", "skew"])
    def test_nudged_basis_fails_closure(self, monkeypatch, leave):
        d = 2
        n = d + 4
        G, Z0 = ambient_gram(d), build_Z0(d)
        if leave == "commutant":
            N = np.random.default_rng(0).normal(size=(n, n))
            nudge = 0.5 * (N - G @ N.T @ G)
            assert np.abs(nudge @ Z0 - Z0 @ nudge).max() > 0.1
        else:
            nudge = np.zeros((n, n))
            nudge[0, 0] = 1.0  # commutes with Z0 but is not G-skew
            assert not np.abs(nudge @ Z0 - Z0 @ nudge).any()
        for size, floor in ((1e-7, 1e-10), (1e-11, 1e-12)):
            stack = commutant_stack(d).copy()
            stack[0] += size * nudge
            monkeypatch.setattr(suites, "commutant_stack", lambda d, tol=1e-10: stack)
            checks = run_suite(small("lie-algebra", dims=(d,))).checks
            closure = {c.name: c for c in checks}["liealgebra_d2_closure"]
            assert closure.status == "FAIL", size
            assert closure.residual > floor, size
            assert (closure.samples, closure.extra) == (36, {}), size


class TestCommutantDimMutation:
    """An o(d+2,2) basis with one skew element missing leaves a commutant
    one short, so the commutant dimension record FAILs by exactly 1."""

    @pytest.mark.parametrize("drop", [0, -1])
    def test_short_skew_basis_fails_commutant_dim(self, monkeypatch, drop):
        skew_basis = ambient.skew_basis
        monkeypatch.setattr(
            ambient, "skew_basis", lambda d: np.delete(skew_basis(d), drop, axis=0)
        )
        ambient._commutant_cached.cache_clear()
        ambient._commutant_svd.cache_clear()
        try:
            checks = run_suite(small("lie-algebra", dims=(1, 2, 3))).checks
        finally:
            ambient._commutant_cached.cache_clear()
            ambient._commutant_svd.cache_clear()
        found = {c.name: c for c in checks}
        for d in (1, 2, 3):
            record = found[f"liealgebra_d{d}_commutant_dim"]
            assert (record.status, record.residual) == ("FAIL", 1.0)


def _edit_measurement(monkeypatch, suite: str, suffix: str, edit) -> None:
    """Pass the numbers of the measurement that files row ``suffix`` of
    ``suite`` through ``edit`` before the runner folds them."""
    (m,) = [m for m in TABLES[suite].table if any(r.suffix == suffix for r in m.rows)]
    fn = m.fn
    monkeypatch.setattr(m, "fn", lambda ctx, seed: edit(dict(fn(ctx, seed))))


def _with(numbers: dict, key: str, at, value) -> dict:
    """``numbers`` with ``numbers[key][at] = value`` in a copy of the array."""
    array = numbers[key].copy()
    array[at] = value
    return {**numbers, key: array}


class TestOneFold:
    """The runner folds every per-sample residual by one rule: a bound
    holds at every sample it kept (NaN fails it), a control is exceeded at
    every sample, and the escaped samples are counted, not judged."""

    def record(self, monkeypatch, suffix: str, edit):
        _edit_measurement(monkeypatch, "homogeneous", suffix, edit)
        checks = run_suite(small("homogeneous")).checks
        return checks, {c.name: c for c in checks}[f"homogeneous_d1_{suffix}"]

    def test_nan_at_a_kept_sample_fails_its_bound(self, monkeypatch):
        _, rec = self.record(
            monkeypatch, "isometry", lambda m: _with(m, "residual", 1, np.nan)
        )
        assert rec.status == "FAIL"
        assert np.isnan(rec.residual)
        assert (rec.samples, rec.extra["escapes"]) == (4, 0)

    def test_nan_at_an_escaped_sample_is_counted_not_judged(self, monkeypatch):
        def edit(m):
            return _with(_with(m, "residual", 1, np.nan), "escaped", 1, True)

        _, rec = self.record(monkeypatch, "isometry", edit)
        assert rec.status == "PASS"
        assert 0.0 <= rec.residual < rec.tolerance
        assert (rec.samples, rec.extra["escapes"]) == (4, 1)

    def test_a_row_with_every_sample_escaped_files_one_error(self, monkeypatch):
        def edit(m):
            return _with(m, "escaped", slice(None), True)

        checks, rec = self.record(monkeypatch, "isometry", edit)
        assert [c.name for c in checks if c.status == "ERROR"] == [rec.name]
        assert rec.error.startswith("ChartEscapeError")
        assert rec.samples == 2

    def test_one_control_sample_under_its_bound_fails(self, monkeypatch):
        name = "homogeneous_d1_isometry_control"
        before = {c.name: c for c in run_suite(small("homogeneous")).checks}[name]
        assert before.status == "PASS" and before.samples == 2
        _, rec = self.record(
            monkeypatch, "isometry_control", lambda m: _with(m, "residual", 0, 1e-4)
        )
        assert rec.status == "FAIL"
        assert rec.residual == 1e-4 < rec.tolerance == rec.extra["must_exceed"]

    def test_default_records_file_the_samples_they_fold(self):
        checks = {c.name: c for c in run_suite(SuiteConfig("all")).checks}
        folded = {
            "group_d{d}_pullback": 12,
            "group_d{d}_inverse": 12,
            "group_d{d}_projective": 40,
            "homogeneous_d{d}_isometry": 10,
            "homogeneous_d{d}_dualpath": 80,
            "homogeneous_d{d}_clock": 80,
            "homogeneous_d{d}_signature": 80,
            # structural: the count drawn
            "boundary_d{d}_factor_varies_with_t": 20,
        }
        for d in (1, 2, 3):
            for name, samples in folded.items():
                assert checks[name.format(d=d)].samples == samples, name.format(d=d)
            assert checks[f"group_d{d}_pullback"].extra == {"escapes": 0}
        assert checks["liealgebra_d2_closure"].samples == 36
        assert checks["liealgebra_d2_witnesses"].samples is None
        assert not [n for n, c in checks.items() if "evaluations" in c.extra]


class TestIntegrabilityMutation:
    """A clock that is not integrable flips the Frobenius record to FAIL."""

    def test_bent_clock_fails_integrability(self, monkeypatch):
        field = homogeneous.xi_hat_field
        eps = 1e-3

        def bent(cfg):
            # xi + eps xh1 d/dth: its clock g(xi, .) gains eps xh1 (a dsh +
            # g_tt dth), and theta ^ d theta gains eps a(rh)^2 dth ^ dxh1 ^ dsh
            xi = field(cfg)

            def comps(p):
                out = list(xi.components(p))
                out[cfg.d] = out[cfg.d] + eps * p[0]
                return out

            return VectorField(comps)

        dims = (1, 2)
        names = [f"homogeneous_d{d}_integrability" for d in dims]
        before = {c.name: c for c in run_suite(small("homogeneous", dims=dims)).checks}
        monkeypatch.setattr(homogeneous, "xi_hat_field", bent)
        after = {c.name: c for c in run_suite(small("homogeneous", dims=dims)).checks}
        for name in names:
            assert before[name].status == "PASS"
            assert after[name].status == "FAIL"
            assert after[name].residual > 1e-6


def _recompiled(module, name, old, new):
    """The function ``name`` of ``module`` recompiled with one source edit."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1
    scope = dict(vars(module))
    exec(compile(src.replace(old, new), module.__file__, "exec"), scope)
    return scope[name]


class TestGridMutations:
    """Each grid family flips to FAIL under a defect in what it alone reads
    of its shared pass (the first-order grid pass, or the order-2 curvature
    pass), and every other record stays PASS."""

    DIMS = (1, 2)

    def failing(self, monkeypatch, edit):
        cfg = SuiteConfig("homogeneous", dims=self.DIMS)
        before = run_suite(cfg).checks
        assert all(c.status == "PASS" for c in before)
        edit(monkeypatch)
        return {c.name: c.status for c in run_suite(cfg).checks if c.status != "PASS"}

    def expect(self, family):
        return {f"homogeneous_d{d}_{family}": "FAIL" for d in self.DIMS}

    def test_dropped_clock_square_fails_the_dual_path(self, monkeypatch):
        # the ambient side without mu th (x) th: mu != 0 on the default grid
        original = homogeneous.induced_metric

        def undeformed(cfg, jets):
            return original(cfg._replace(mu=0.0), jets)

        def defect(m):
            m.setattr(homogeneous, "induced_metric", undeformed)

        assert self.failing(monkeypatch, defect) == self.expect("dualpath")

    def test_flipped_ambient_clock_fails_the_clock(self, monkeypatch):
        # -Z0 inside the dual path flips th, which mu th (x) th cannot see
        original = homogeneous.induced_metric

        def flipped(cfg, jets):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(homogeneous, "build_Z0", lambda d: -build_Z0(d))
                return original(cfg, jets)

        def defect(m):
            m.setattr(homogeneous, "induced_metric", flipped)

        assert self.failing(monkeypatch, defect) == self.expect("clock")

    def test_sh_dependent_gram_fails_the_vertical_field(self, monkeypatch):
        # the vertical field read on a metric whose dt ds entry grows with
        # sh, along which d/dsh is then no Killing field
        original = homogeneous.xi_hat_consistency

        def skewed(cfg):
            d, gram = cfg.d, homogeneous.bulk_metric(cfg).gram

            def rows(p):
                out = gram(p)
                out[d][d + 1] = out[d + 1][d] = out[d][d + 1] * (1.0 + 1e-3 * p[d + 1])
                return out

            return MetricField(rows)

        def defect(m):
            m.setattr(
                homogeneous,
                "xi_hat_consistency",
                lambda cfg, jets: original(cfg, suites.gram_jets(skewed(cfg), jets.pts, 1)),
            )

        assert self.failing(monkeypatch, defect) == self.expect("vertical")

    def test_flipped_rr_entry_fails_the_signature(self, monkeypatch):
        # a second negative direction: -a dr^2
        def flipped(g0):
            g = g0.copy()
            g[..., -1, -1] *= -1.0
            return negative_index(g)

        def defect(m):
            m.setattr(suites, "negative_index", flipped)

        assert self.failing(monkeypatch, defect) == self.expect("signature")

    def test_a_wrong_clock_term_fails_the_null_fluid_alone(self, monkeypatch):
        # (d+3) for (d+4): the mu = 0 rows that einstein reads carry no clock
        # term, so only the deformed metrics see it
        wrong = _recompiled(homogeneous, "nullfluid_residual", "(d + 4.0)", "(d + 3.0)")

        def defect(m):
            m.setattr(homogeneous, "nullfluid_residual", wrong)

        assert self.failing(monkeypatch, defect) == self.expect("nullfluid")

    def test_a_wrong_einstein_factor_fails_the_einstein_row_alone(self, monkeypatch):
        # (1 - 2 lam) for (1 + 2 lam): nonzero at lam = -1/2, so what must
        # vanish there does not
        wrong = _recompiled(
            homogeneous, "einstein_factor", "(1.0 + 2.0 * lam)", "(1.0 - 2.0 * lam)"
        )

        def defect(m):
            m.setattr(homogeneous, "einstein_factor", wrong)

        assert self.failing(monkeypatch, defect) == self.expect("einstein")

    def test_a_flipped_pair_inverse_fails_both_ricci_rows(self, monkeypatch):
        # the (t, s) block's inverse with the off-diagonal signs flipped:
        # the pass's one Ricci tensor is wrong, and both rows that read it
        # fail; integrability reads no inverse
        wrong = _recompiled(
            geometry,
            "_pair_inverse",
            "return d / det, -b / det, -c / det, a / det",
            "return d / det, b / det, c / det, a / det",
        )

        def defect(m):
            m.setattr(geometry, "_pair_inverse", wrong)

        assert self.failing(monkeypatch, defect) == {
            **self.expect("nullfluid"), **self.expect("einstein")
        }


class TestIsometryMutations:
    """Each isometry family flips to FAIL under a defect in the ambient
    action that moves the points (``linear_action``, as ``homogeneous``
    binds it), and every other record stays PASS.  At seed 7 the transposed
    action reads residuals of 4.85-8.24 against the 1e-8 bound, and the
    identity leaves the control's smallest residual at <= 1.5e-17 against
    the 1e-3 it must exceed."""

    DIMS = (1, 2, 3)

    def failing(self, monkeypatch, defect):
        cfg = SuiteConfig("homogeneous", dims=self.DIMS, seed=7)
        assert all(c.status == "PASS" for c in run_suite(cfg).checks)
        original = homogeneous.linear_action
        monkeypatch.setattr(homogeneous, "linear_action", lambda A, x: original(defect(A), x))
        return {c.name: c.status for c in run_suite(cfg).checks if c.status != "PASS"}

    def expect(self, family):
        return {f"homogeneous_d{d}_{family}": "FAIL" for d in self.DIMS}

    def test_the_transposed_action_fails_the_isometry_alone(self, monkeypatch):
        # a group element's transpose is no isometry; the control's boost is
        # diagonal, its own transpose
        transposed = self.failing(monkeypatch, lambda A: np.swapaxes(A, -1, -2))
        assert transposed == self.expect("isometry")

    def test_the_identity_action_fails_the_control_alone(self, monkeypatch):
        # the identity is an isometry of every metric, so the control that
        # must see the boost move the clock sees nothing
        identity = self.failing(
            monkeypatch, lambda A: np.broadcast_to(np.eye(A.shape[-1]), A.shape)
        )
        assert identity == self.expect("isometry_control")


def test_one_transposed_kernel_fails_every_record_that_moves_jets(monkeypatch):
    # one kernel applies an ambient matrix to stacked jets for the bulk
    # isometry, the projective action and the realization: its transpose,
    # injected once, flips exactly the records that move points through it
    # (residuals of 0.080-8.24 at seed 7), in four suites
    cfg = SuiteConfig("all", seed=7)
    assert all(c.status == "PASS" for c in run_suite(cfg).checks)
    add = ambient._add_linear
    monkeypatch.setattr(
        ambient, "_add_linear", lambda rows, M, X: add(rows, np.swapaxes(M, -1, -2), X)
    )
    failing = {c.name: c.status for c in run_suite(cfg).checks if c.status != "PASS"}
    families = [
        "homogeneous_d{}_isometry",
        "group_d{}_projective",
        "group_d{}_inverse",
        "group_d{}_pullback",
        "liealgebra_d{}_realization",
        "schrodinger_d{}_transport_boost",
    ]
    assert failing == {f.format(d): "FAIL" for f in families for d in cfg.dims}


def _z0_sign_flipped(index):
    def flipped(d):
        r, c, v = index(d)
        return r, c, v * [-1.0, 1.0]

    return flipped


def _gram_pair_swapped(d):
    # G's permutation with its last two entries swapped: the extra null
    # pair of G read as two unit squares
    _, p = np.nonzero(ambient_gram(d))
    p[[-2, -1]] = p[[-1, -2]]
    return (p[None, :] * (d + 4) + p[:, None]).ravel()


@pytest.mark.parametrize("defect", ["z0 sign", "G swap"])
def test_one_wrong_index_entry_fails_the_algebra_and_group_records(monkeypatch, defect):
    # the index forms of Z0 and G carry every algebra and group check: one
    # wrong entry fails the closure and, through require_group, every record
    # that draws or assembles a group element; the transport group files its
    # rows as one ERROR record
    cfg = SuiteConfig("all", seed=7)
    if defect == "z0 sign":
        monkeypatch.setattr(ambient, "_z0_index", _z0_sign_flipped(ambient._z0_index))
    else:
        monkeypatch.setattr(ambient, "_adjoint_index", _gram_pair_swapped)
    ambient._commutator_index.cache_clear()
    try:
        failing = {c.name: c.status for c in run_suite(cfg).checks if c.status != "PASS"}
    finally:
        ambient._commutator_index.cache_clear()
    errors = [
        "group_d{}_constraints",
        "group_d{}_inverse",
        "group_d{}_projective",
        "group_d{}_pullback",
        "homogeneous_d{}_isometry",
        "homogeneous_d{}_isotropy",
        "schrodinger_d{}_transport",
    ]
    want = {f"liealgebra_d{d}_closure": "FAIL" for d in cfg.dims}
    want.update({f.format(d): "ERROR" for f in errors for d in cfg.dims})
    assert failing == want


def test_axioms_at_large_couplings_match_the_theory():
    # (lam, mu) = (-1000, 1000): the deformation identity compares entries
    # near 1e13, and is filed relative to them, so its rounding (up to
    # 2.4e-7 absolute) no longer reaches the record judged at --tol 1e-8
    report = run_suite(SuiteConfig("axioms", lams=(-1000.0,), mus=(1000.0,)))
    assert [c.status for c in report.checks] == ["PASS"] * 3
    assert max(c.residual for c in report.checks) < 1e-12


class TestIsotropyMutation:
    """A stabilizer stack whose last bulk element is a valid group element
    that moves the base point flips the isotropy record to FAIL, with that
    sample's residual."""

    def test_moving_last_element_fails_isotropy(self, monkeypatch):
        make = homogeneous.bulk_isotropy_element
        moved = {}

        def defect(cfg, R, u, a):
            stack = make(cfg, R, u, a)
            coeffs = ambient.group_coefficients(cfg.d, np.random.default_rng(cfg.d), 1)
            mover = ambient.group_elements(cfg.d, coeffs)
            Q0 = np.zeros(cfg.d + 4)
            Q0[cfg.d + 2], Q0[cfg.d + 3] = cfg.lam, 1.0
            moved[cfg.d] = float(np.abs(mover[0] @ Q0 - Q0).max())
            return np.concatenate([stack[:-1], mover])

        dims = (1, 2)
        names = {d: f"homogeneous_d{d}_isotropy" for d in dims}
        before = {c.name: c for c in run_suite(small("homogeneous", dims=dims)).checks}
        monkeypatch.setattr(homogeneous, "bulk_isotropy_element", defect)
        after = {c.name: c for c in run_suite(small("homogeneous", dims=dims)).checks}
        for d, name in names.items():
            assert before[name].status == "PASS" and before[name].residual == 0.0
            assert after[name].status == "FAIL"
            assert after[name].residual == moved[d] > 1e-3


class TestPlaneWaveMutation:
    """A last wave whose omega is off by a relative 1e-6 in the per-sample
    wave stack flips the plane-wave record to FAIL, with its worst residual
    on that wave's samples."""

    def test_detuned_last_wave_fails_plane_wave(self, monkeypatch):
        make = bargmann.plane_wave

        def detuned(d, k, params=bargmann.SchrodingerParams()):
            psi = make(d, k, params)
            k = np.asarray(k)
            omega = -params.hbar * (k * k).sum(axis=1) / (2.0 * params.mass)
            # exp(i omega' t) with omega' = (1 + 1e-6) omega on the last wave
            shift = np.where((k == k[-1]).all(axis=1), 1e-6 * omega, 0.0)

            def coeff(x):
                phase = shift * x[d]
                return psi.coefficient(x) * (nk.cos(phase) + 1j * nk.sin(phase))

            return bargmann.DensityFunction(coeff, psi.weight)

        dims = (1, 2, 3)
        before = {c.name: c for c in run_suite(small("schrodinger-eq", dims=dims)).checks}
        seen = []
        _edit_measurement(
            monkeypatch, "schrodinger-eq", "plane_wave", lambda m: seen.append(m) or m
        )
        monkeypatch.setattr(bargmann, "plane_wave", detuned)
        after = {c.name: c for c in run_suite(small("schrodinger-eq", dims=dims)).checks}
        for d, measured in zip(dims, seen):
            name = f"schrodinger_d{d}_plane_wave"
            assert before[name].status == "PASS"
            assert after[name].status == "FAIL"
            residual = measured["residual"]
            last = 2 * len(residual) // 3
            assert residual[:last].max() < 1e-10 < residual[last:].min()
            assert after[name].residual == residual.max()


class TestConeKernelMutation:
    """A cone form at the last stacked point whose kernel is tilted off the
    ray flips the cone-kernel record to FAIL, with that point's angle."""

    def test_tilted_last_kernel_fails_cone_kernel(self, monkeypatch):
        forms, eps = homogeneous._cone_forms, 1e-3

        def tilted(G, Xa):
            tangent, K = forms(G, Xa)
            # K -> A^T K A with A = 1 + eps w n^T keeps the rank and moves the
            # kernel n to n - eps w, w orthogonal to n
            _, _, vh = np.linalg.svd(K[-1])
            n, w = vh[-1], vh[0]
            K = K.copy()
            A = np.eye(len(n)) + eps * np.outer(w, n)
            K[-1] = A.T @ K[-1] @ A
            return tangent, K

        dims = (1, 2, 3)
        before = {c.name: c for c in run_suite(small("boundary", dims=dims)).checks}
        seen = []
        _edit_measurement(monkeypatch, "boundary", "cone_kernel", lambda m: seen.append(m) or m)
        monkeypatch.setattr(homogeneous, "_cone_forms", tilted)
        after = {c.name: c for c in run_suite(small("boundary", dims=dims)).checks}
        for d, measured in zip(dims, seen):
            name = f"boundary_d{d}_cone_kernel"
            assert before[name].status == "PASS"
            assert after[name].status == "FAIL"
            assert after[name].extra["kernel_dims"] == [1]
            angles = measured["cone_kernel"]["residual"]
            assert angles[:-1].max() < 1e-10
            assert after[name].residual == angles[-1] == pytest.approx(eps, rel=1e-3)


def test_isometry_draws_one_stack_per_d(monkeypatch):
    # one (2, k) draw and one element stack per d, bitwise the draw per
    # coupling it replaces
    stacks = []
    make = suites.group_elements

    def spy(d, coeffs):
        stacks.append(len(coeffs))
        return make(d, coeffs)

    monkeypatch.setattr(suites, "group_elements", spy)
    cfg = SuiteConfig("homogeneous", dims=(1, 2, 3), seed=7)
    for d in cfg.dims:
        c = suites.HOMOGENEOUS.context(cfg, d)
        seed = check_seed(cfg, f"homogeneous_d{d}_isometry")
        got, want = suites._isometry(c, seed), isometry_loop(c, seed)
        for key in ("residual", "escaped"):
            assert got[key].tobytes() == want[key].tobytes()
    assert stacks == [2, 2, 2]


class TestStatusRule:
    def test_residual_at_tolerance_fails_bound_and_control(self):
        bound = judged(1e-8, 1e-8)
        control = judged(1e-8, 1e-8, control=True)
        assert (bound.status, control.status) == ("FAIL", "FAIL")
        assert control.extra == {"must_exceed": 1e-8}
        assert judged(0.5, 1e-8, control=True).status == "PASS"
        assert judged(0.0, 1e-8, holds=False).status == "FAIL"
        assert judged(0.0, None).status == "PASS"

    def test_controls_of_default_run_exceed_their_tolerance(self):
        checks = run_suite(SuiteConfig(suite="all")).checks
        controls = [c for c in checks if "must_exceed" in c.extra]
        assert controls
        for c in controls:
            assert c.extra["must_exceed"] == c.tolerance, c.name
            assert c.residual > c.tolerance, c.name


class TestTable:
    """The table names every record family of the report once."""

    @staticmethod
    def family(name: str) -> str:
        return re.sub(r"_d\d+_", "_d*_", re.sub(r"_lam[^_]+_mu[^_]+$", "_lam*_mu*", name))

    def test_families_are_those_of_the_golden_report(self):
        data = Path(__file__).resolve().parent / "data" / "all_seed42.json"
        golden = {self.family(c["name"]) for c in json.loads(data.read_text())["checks"]}
        rows = [
            (f"{suite.prefix}_d*_" + re.sub(r"\{[^}]*\}", "*", row.suffix), row.claim)
            for suite in TABLES.values()
            for measure in suite.table
            for row in measure.rows
        ]
        names = [name for name, _ in rows]
        assert len(golden) == 42
        assert len(names) == len(set(names))
        assert set(names) == golden
        assert all(claim for _, claim in rows)

    def test_audit_rows_are_the_audit_entries(self):
        names = [row.suffix for row in AUDIT]
        (numbers,) = homogeneous.schrodinger_axiom_audit(
            [homogeneous.SchrodingerManifoldConfig(1, -0.5, 1.0)], *_audit_points(1, 4, 0)
        )
        assert len(names) == len(set(names)) == 6
        assert names == list(numbers)
        assert all(row.claim for row in AUDIT)

    @pytest.mark.parametrize("samples", [20, 80])
    def test_isotropy_draws_the_count_its_record_files(self, monkeypatch, samples):
        seen = []
        check = homogeneous.isotropy_check

        def spy(cfg, rng, count):
            seen.append(count)
            return check(cfg, rng, count)

        monkeypatch.setattr(homogeneous, "isotropy_check", spy)
        cfg = SuiteConfig("homogeneous", dims=(1,), samples=samples)
        (rec,) = (c for c in run_suite(cfg).checks if c.name == "homogeneous_d1_isotropy")
        assert rec.status == "PASS"
        assert seen == [rec.samples]


# (module, function made to raise, ERROR record, its claim, seed name,
# samples, config, records under other names that the failing body would
# have filed)
ERROR_CASES = [
    (
        suites,
        "ambient_gram",
        "group_d1_constraints",
        "sampled elements preserve the pairing and the vertical generator",
        "group_d1_constraints",
        5,
        {"d": 1},
        0,
    ),
    (
        bargmann,
        "bargmann_axioms_check",
        "bargmann_d1_axioms",
        "flat structure axioms",
        "bargmann_d1",
        4,
        {"d": 1},
        6,
    ),
    (
        homogeneous,
        "boundary_structure",
        "boundary_d1_structure",
        "boundary structure",
        "boundary_d1",
        4,
        {"d": 1},
        9,
    ),
    (
        suites,
        "component_witnesses",
        "liealgebra_d1_witnesses",
        "reflections preserve the vertical generator, time reversal does not",
        "liealgebra_d1_witnesses",
        None,
        {"d": 1},
        0,
    ),
    (
        bargmann,
        "symmetry_transport_check",
        "schrodinger_d1_transport",
        "weighted transport maps solutions to solutions",
        "schrodinger_d1_transport",
        4,
        {"d": 1},
        5,
    ),
    (
        homogeneous,
        "induced_metric",
        "homogeneous_d1_grid",
        "first-order identities of the grid metrics",
        "homogeneous_d1_grid",
        2,
        {"d": 1, "lams": [-0.5], "mus": [1.0]},
        4,
    ),
    (
        homogeneous,
        "isotropy_check",
        "homogeneous_d1_isotropy",
        "stabilizer dimensions give a (d+3)-dim bulk and (d+2)-dim boundary",
        "homogeneous_d1_isotropy",
        # the homogeneous context's max(2, 4 // 4); a PASS files its own 4 draws
        2,
        {"d": 1, "lams": [-0.5], "mus": [1.0]},
        0,
    ),
]


def _rows_filed_with(name):
    """The d = 1 record names of the rows of the measurement whose ERROR
    record is ``name``."""
    for suite in TABLES.values():
        base = f"{suite.prefix}_d1"
        for m in suite.table:
            if f"{base}_{m.group[0]}" == name:
                return {f"{base}_{row.suffix}" for row in m.rows}
    raise AssertionError(f"no measurement files {name}")


class TestErrorPath:
    @pytest.mark.parametrize(
        "module, attr, name, claim, seed_name, samples, config, replaced",
        ERROR_CASES,
        ids=[case[2] for case in ERROR_CASES],
    )
    def test_raising_body_files_one_error_and_the_run_goes_on(
        self, monkeypatch, module, attr, name, claim, seed_name, samples, config, replaced
    ):
        cfg = small("all")
        before = {c.name: c.to_dict() for c in run_suite(cfg).checks}

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(module, attr, boom)
        after = {c.name: c.to_dict() for c in run_suite(cfg).checks}
        errors = [rec for rec in after.values() if rec["status"] == "ERROR"]
        expected = {
            "name": name,
            "status": "ERROR",
            "claim": claim,
            "config": config,
            "samples": samples,
            "seed": check_seed(cfg, seed_name),
            "error": "RuntimeError: injected",
        }
        if samples is None:
            # a record without samples omits the key
            del expected["samples"]
        assert errors == [expected]
        lost = set(before) - set(after)
        assert len(lost) == replaced
        assert lost == _rows_filed_with(name) - {name}
        for n, rec in after.items():
            if n != name:
                assert rec == before[n], n
