"""Flat structure axioms, the covariant wave pair, and symmetry transport of
densities.  Wrong-dispersion and wrong-weight controls pin down what the
residuals actually detect."""

import numpy as np
import oracles
import pytest
from oracles import expansion_map_rk4, rescaled_metric

from schrogeo import ambient, bargmann
from schrogeo import numkernel as nk
from schrogeo import suites
from schrogeo.bargmann import (
    BargmannStructure,
    DensityFunction,
    SchrodingerParams,
    bargmann_axioms_check,
    complex_magnitude,
    conformal_equivalence_check,
    density_weight,
    flat_bargmann,
    group_map,
    plane_wave,
    schrodinger_residual,
    symmetry_transport_check,
    transported_density,
)
from schrogeo.ambient import (
    boost_element,
    dilation_element,
    expansion_element,
    random_group_element,
    translation_element,
)
from schrogeo.geometry import VectorField, gram_jets, jet_components
from schrogeo.numkernel import ContractViolationError, SeededSampler
from schrogeo.suites import BARGMANN_AXIOMS, SuiteConfig, _box_points, check_seed, verdicts


def axioms(structure, samples, seed):
    """The axiom verdicts at seeded points of the box [-1.2, 1.2]^n, judged
    by the table's rows."""
    pts = _box_points(seed, 1.2, structure.d + 2, samples)
    jets = gram_jets(structure.metric, pts, order=1)
    return verdicts(BARGMANN_AXIOMS, bargmann_axioms_check(structure, jets))


class TestAxioms:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_flat_structure_passes(self, d):
        report = axioms(flat_bargmann(d), samples=10, seed=1)
        for c in report.values():
            assert c.status == "PASS"
            assert c.residual < 1e-12

    def test_skewed_vertical_fails_parallelism(self):
        bg = flat_bargmann(1)
        bad_xi = VectorField(lambda p: [0.0 * p[0], 0.0 * p[0], 1.0 + p[0]])
        bad = BargmannStructure(metric=bg.metric, xi=bad_xi, d=1)
        by_name = axioms(bad, samples=6, seed=2)
        assert by_name["xi_null"].status == "PASS"
        assert by_name["xi_parallel"].status == "FAIL"

    def test_rescaling_direction_decides_the_axioms(self):
        # a factor descending to the time axis keeps xi parallel (this is
        # the allowed conformal freedom); a spatial factor destroys it
        bg = flat_bargmann(1)
        along_time = rescaled_metric(bg, lambda p: nk.exp(2.0 * p[1]))
        still_ok = BargmannStructure(metric=along_time, xi=bg.xi, d=1)
        assert all(c.status == "PASS" for c in axioms(still_ok, samples=6, seed=3).values())

        across = rescaled_metric(bg, lambda p: nk.exp(2.0 * p[0]))
        bad = BargmannStructure(metric=across, xi=bg.xi, d=1)
        by_name = axioms(bad, samples=6, seed=3)
        assert by_name["xi_parallel"].status == "FAIL"
        assert by_name["clock_closed"].status == "FAIL"
        assert by_name["xi_null"].status == "PASS"

    def test_conformal_factor_descends_along_time(self):
        bg = flat_bargmann(2)
        jets = gram_jets(bg.metric, _box_points(0, 1.2, 4, 20), order=1)
        resid = conformal_equivalence_check(lambda p: nk.exp(p[2]), bg, jets)
        assert (resid < 1e-12).all()
        resid2 = conformal_equivalence_check(lambda p: nk.exp(p[0]), bg, jets)
        assert (resid2 > 1e-3).all()


class TestWavePair:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_plane_wave_annihilated(self, d):
        bg = flat_bargmann(d)
        params = SchrodingerParams()
        psi = plane_wave(d, [0.4 + 0.1 * i for i in range(d)], params)
        pts = SeededSampler(6, [(-1, 1)] * (d + 2)).points(4)
        r1, r2 = schrodinger_residual(bg, psi, params, pts)
        assert (np.abs(r1) < 1e-10).all()
        assert (np.abs(r2) < 1e-10).all()

    def test_wrong_dispersion_residual_is_k_squared(self):
        # drop the frequency term: r1 = |k|^2 |f| exactly, r2 still zero
        d, k = 1, 0.6
        bg = flat_bargmann(d)
        params = SchrodingerParams()
        ms = params.mass / params.hbar

        def coeff(x):
            phase = k * x[0] + ms * x[2]
            return nk.cos(phase) + 1j * nk.sin(phase)

        stale = DensityFunction(coefficient=coeff, weight=density_weight(d))
        (r1,), (r2,) = schrodinger_residual(bg, stale, params, [[0.3, -0.2, 0.5]])
        assert abs(r1) == pytest.approx(k * k, abs=1e-12)
        assert abs(r2) < 1e-14

    def test_rejects_wrong_weight(self):
        bg = flat_bargmann(2)
        psi = plane_wave(2, [0.3, 0.1])
        off = DensityFunction(coefficient=psi.coefficient, weight=0.3)
        with pytest.raises(ContractViolationError):
            schrodinger_residual(bg, off, SchrodingerParams(), [[0.1, 0.2, 0.3, 0.4]])


class TestStackedWaves:
    """The plane-wave record measures its three waves as one per-sample
    wave stack in one pass, bitwise the pass per wave it replaces."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_pass_matches_the_per_wave_loop(self, monkeypatch, d, seed):
        made, passes = [], []
        generator, residual = nk.SeededSampler.generator, bargmann.schrodinger_residual

        def rng_spy(s):
            made.append(generator(s))
            return made[-1]

        def pass_spy(*args):
            passes.append(len(args[-1]))
            return residual(*args)

        monkeypatch.setattr(nk.SeededSampler, "generator", staticmethod(rng_spy))
        monkeypatch.setattr(bargmann, "schrodinger_residual", pass_spy)
        cfg = SuiteConfig("schrodinger-eq", dims=(d,), seed=seed)
        c = suites.SCHRODINGER.context(cfg, d)
        check = check_seed(cfg, f"schrodinger_d{d}_plane_wave")
        got = suites._plane_wave(c, check)
        assert passes == [15]
        drawn = len(made)
        want = oracles.plane_wave_loop(c, check)
        assert passes == [15, 5, 5, 5]
        assert got["residual"].tobytes() == want["residual"].tobytes()
        assert got["waves"] == want["waves"] == 3
        # every generator ends where the per-wave loop leaves its twin
        assert len(made) == 2 * drawn
        for a, b in zip(made[:drawn], made[drawn:]):
            assert a.bit_generator.state == b.bit_generator.state

    def test_a_stack_row_is_its_wave_alone(self):
        d, params = 2, SchrodingerParams()
        waves = np.array([[0.4, -0.3], [1.1, 0.2], [-0.7, 0.9]])
        pts = _box_points(3, 1.0, d + 2, 3)
        fj = plane_wave(d, waves, params).coefficient(nk.seed_point(pts))
        for s, k in enumerate(waves):
            one = plane_wave(d, k, params).coefficient(nk.seed_point(pts[s : s + 1]))
            assert complex(fj.value[s]) == complex(one.value[0])
            assert fj.grad[:, s].tobytes() == one.grad.tobytes()
            assert fj.hess[..., s].tobytes() == one.hess.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 2, 2)])
    def test_rejects_a_wave_of_the_wrong_shape(self, shape):
        with pytest.raises(ContractViolationError):
            plane_wave(2, np.zeros(shape))


class TestStackedTransport:
    """The four transport rows and the weight control of one d are one
    ``symmetry_transport_check`` pass over a per-sample element, wave and
    weight stack, each row's slice bitwise the pass of its triple alone."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_one_pass_matches_the_per_row_loop(self, monkeypatch, d, seed):
        passes = []
        check = bargmann.symmetry_transport_check

        def pass_spy(*args):
            passes.append(len(args[4]))
            return check(*args)

        monkeypatch.setattr(bargmann, "symmetry_transport_check", pass_spy)
        cfg = SuiteConfig("schrodinger-eq", dims=(d,), seed=seed)
        c = suites.SCHRODINGER.context(cfg, d)
        seed = check_seed(cfg, f"schrodinger_d{d}_transport")
        got = suites._transport(c, seed)
        assert passes == [25]
        want = oracles.transport_loop(c, seed)
        assert passes == [25] + [5] * 5
        rows = [f"transport_{name}" for name in suites._ELEMENTS] + ["weight_control"]
        assert list(got) == rows
        for row, one in zip(rows, want):
            residual = np.maximum(one["r1"], one["r2"])
            if row == "weight_control":
                assert got[row].tobytes() == residual.tobytes()
                continue
            assert got[row]["residual"].tobytes() == residual.tobytes(), row
            assert got[row]["conformal_residual"] == nk.max_entry(one["conformal_residual"])

    def test_one_pass_per_d(self, monkeypatch):
        calls = []
        check = bargmann.symmetry_transport_check

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(bargmann, "symmetry_transport_check", counted)
        suites.run_suite(SuiteConfig("schrodinger-eq"))
        assert len(calls) == 3

    def test_a_defective_element_flips_only_its_own_row(self, monkeypatch):
        # a dilation whose L scales t and s by e^{+-1.01 chi}: conformal, but
        # it rescales xi = d/ds, so the transported wave has the wrong mass.
        # It fails A Z0 = Z0 A, so the element checks are switched off to
        # let it through
        cfg = SuiteConfig("schrodinger-eq", dims=(1, 2))
        before = {c.name: c.to_dict() for c in suites.run_suite(cfg).checks}
        assert all(rec["status"] == "PASS" for rec in before.values())

        def defective(d, chi=0.3):
            n = d + 2
            L = np.diag([1.0] * d + [np.exp(1.01 * chi), np.exp(-1.01 * chi)])
            blocks = ambient.GroupBlocks(
                L[None], np.zeros((1, n)), np.zeros((1, n)),
                *(np.array([v]) for v in (0.0, np.exp(chi), 0.0, np.exp(-chi))),
            )
            return ambient.assemble_group_element(blocks, d)

        monkeypatch.setattr(ambient, "require_group", lambda A: None)
        monkeypatch.setitem(suites._ELEMENTS, "dilation", defective)
        after = {c.name: c.to_dict() for c in suites.run_suite(cfg).checks}
        assert after.keys() == before.keys()
        for name, rec in after.items():
            if name.endswith("_transport_dilation"):
                assert rec["status"] == "FAIL" and rec["residual"] > 1e-3, name
            else:
                assert rec == before[name], name


class TestClosedForms:
    """Translations, boosts and dilations act through their group elements
    as the closed-form linear maps they are."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", ["translation", "boost", "dilation"])
    def test_group_maps_are_the_linear_maps(self, d, name):
        params = SchrodingerParams()
        ours = {
            "translation": group_map(translation_element(d, [0.3] * d + [0.2, -0.4])),
            "boost": group_map(boost_element(d, [0.35] * d)),
            "dilation": group_map(dilation_element(d, 0.3)),
        }[name]
        ref = oracles.linear_symmetries(d)[name]
        pts = _box_points(d, 0.8, d + 2, 7)
        x = nk.seed_point(pts)
        # a dilation's factor e^chi is the reciprocal of e^-chi, which
        # rounds apart from e^chi: a few ulps
        ulps = 0 if name != "dilation" else 4
        for side in ("forward", "inverse"):
            for a, b in zip(getattr(ours, side)(x), getattr(ref, side)(x)):
                for part in ("value", "grad", "hess"):
                    p, q = getattr(a, part), getattr(b, part)
                    bound = ulps * np.finfo(float).eps * np.maximum(1.0, np.abs(q))
                    assert (np.abs(p - q) <= bound).all(), (side, part)
        psi = plane_wave(d, 0.8 * np.random.default_rng(d).normal(size=d), params)
        got = symmetry_transport_check(ours, psi, flat_bargmann(d), params, pts)
        want = symmetry_transport_check(ref, psi, flat_bargmann(d), params, pts)
        for key in got:
            assert (np.abs(got[key] - want[key]) <= ulps * np.finfo(float).eps).all(), key
        if not ulps:
            assert all(got[k].tobytes() == want[k].tobytes() for k in got)

    def test_group_map_takes_a_stack(self):
        ge = random_group_element(1, np.random.default_rng(2), scale=0.25)
        with pytest.raises(ContractViolationError):
            group_map(ge)


class TestTransport:
    params = SchrodingerParams()

    def run(self, phi, d=2, weight=None, box=0.8):
        bg = flat_bargmann(d)
        psi = plane_wave(d, [0.5] + [0.2] * (d - 1), self.params)
        pts = _box_points(4, box, d + 2, 6)
        return symmetry_transport_check(phi, psi, bg, self.params, pts, weight)

    def test_translation(self):
        res = self.run(group_map(translation_element(2, [0.3, -0.1, 0.2, 0.4])))
        assert (np.maximum(res["r1"], res["r2"]) < 1e-7).all()
        assert (res["conformal_residual"] < 1e-12).all()

    def test_boost(self):
        res = self.run(group_map(boost_element(2, [0.25, -0.4])))
        assert (np.maximum(res["r1"], res["r2"]) < 1e-7).all()

    def test_dilation(self):
        res = self.run(group_map(dilation_element(2, 0.3)))
        assert (np.maximum(res["r1"], res["r2"]) < 1e-7).all()

    def test_expansion(self):
        res = self.run(group_map(expansion_element(2, 0.2)))
        assert (np.maximum(res["r1"], res["r2"]) < 1e-7).all()
        assert (res["conformal_residual"] < 1e-9).all()

    def test_expansion_needs_the_weight(self):
        # transporting as a plain function (weight 0) leaves a residual the
        # wave operator sees
        res = self.run(group_map(expansion_element(2, 0.2)), weight=0.0)
        assert (res["r1"] > 1e-3).all()

    def test_dilation_is_weight_blind(self):
        # constant-Jacobian maps multiply the coefficient by a constant, so
        # no weight choice can make them fail: both members of the pair are
        # linear.  This is why the weight control above uses the expansion.
        res = self.run(group_map(dilation_element(2, 0.3)), weight=0.0)
        assert (np.maximum(res["r1"], res["r2"]) < 1e-7).all()

    def test_plane_wave_closed_under_group(self):
        rng = np.random.default_rng(9)
        d = 1
        bg = flat_bargmann(d)
        psi = plane_wave(d, [0.4], self.params)
        for _ in range(3):
            ge = random_group_element(d, rng, scale=0.25)
            res = symmetry_transport_check(
                group_map(ge[None]), psi, bg, self.params, _box_points(5, 0.5, d + 2, 4)
            )
            assert (np.maximum(res["r1"], res["r2"]) < 1e-6).all()


class TestExpansionMaps:
    def test_rk4_matches_projective(self):
        d, alpha = 1, 0.25
        proj = group_map(expansion_element(d, alpha))
        rk4 = expansion_map_rk4(d, alpha)
        pts = np.array([[0.3, -0.2, 0.4], [-0.5, 0.35, 0.1]])
        a = np.array(proj.forward(list(pts.T)))
        b = np.array(rk4.forward(list(pts.T)))
        assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_liouville_jacobian_matches_the_closed_form(self, d):
        # exp of the integrated divergence along the RK4 backward flow
        # against |e' - a' t|^{-(d+2)} of the projective inverse
        alpha = 0.25
        pts = np.random.default_rng(20 + d).uniform(-0.5, 0.5, size=(6, d + 2))
        proj = group_map(expansion_element(d, alpha)).jacobian_factor(list(pts.T))
        rk4 = expansion_map_rk4(d, alpha).jacobian_factor(list(pts.T))
        assert np.abs(rk4 / proj - 1.0).max() <= 1e-12

    def test_plane_wave_transported_by_rk4_solves_the_pair(self):
        # the transported coefficient's second derivatives come from jets
        # flowed through RK4, the Jacobian factor from exp of a jet
        params = SchrodingerParams()
        phi = expansion_map_rk4(1, 0.25, step=1e-2)
        moved = transported_density(phi, plane_wave(1, [0.4], params))
        pts = np.random.default_rng(23).uniform(-0.5, 0.5, size=(5, 3))
        r1, r2 = schrodinger_residual(flat_bargmann(1), moved, params, pts)
        assert complex_magnitude(r1).max() <= 1e-10
        assert complex_magnitude(r2).max() <= 1e-10

    def test_rk4_inverse_and_factor_share_one_backward_flow(self, monkeypatch):
        flows = []
        flow_rk4 = oracles.flow_rk4

        def counted(Z, d, step):
            mapper = flow_rk4(Z, d, step)

            def run(x):
                flows.append(oracles.algebra_blocks(Z, d)[2])
                return mapper(x)

            return run

        monkeypatch.setattr(oracles, "flow_rk4", counted)
        x = nk.seed_point(np.random.default_rng(5).uniform(-0.5, 0.5, size=(3, 3)))
        phi = expansion_map_rk4(1, 0.25, step=1e-2)
        pre, factor = phi.inverse(x), phi.jacobian_factor(x)
        assert flows == [-0.25]
        # a new input object flows again, and the results are those of
        # separate flows, bit for bit
        fresh = expansion_map_rk4(1, 0.25, step=1e-2)
        want = fresh.inverse(list(x)), fresh.jacobian_factor(list(x))
        assert flows == [-0.25] * 3
        for got, ref in zip(list(pre) + [factor], list(want[0]) + [want[1]]):
            for part in ("value", "grad", "hess"):
                assert getattr(got, part).tobytes() == getattr(ref, part).tobytes()

    def test_group_jacobian_closed_form(self):
        # jacobian_factor(p) claims |det D(inverse)| at p; differentiate the
        # inverse map directly and take the determinant as the oracle
        rng = np.random.default_rng(14)
        d = 2
        ge = random_group_element(d, rng, scale=0.3)
        phi = group_map(ge[None])
        pts = np.array([[0.2, -0.3, 0.4, 0.1], [-0.1, 0.5, 0.0, 0.3]])
        _, jac_inv = jet_components(phi.inverse, pts)
        oracle = np.abs(np.linalg.det(jac_inv.real))
        claimed = nk.jet_value(phi.jacobian_factor(list(pts.T)))
        np.testing.assert_allclose(claimed, oracle, rtol=1e-9)
