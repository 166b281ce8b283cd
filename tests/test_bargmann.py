"""Flat structure axioms, the covariant wave pair, and symmetry transport of
densities.  Wrong-dispersion and wrong-weight controls pin down what the
residuals actually detect."""

import numpy as np
import pytest

from schrogeo import numkernel as nk
from schrogeo.bargmann import (
    BargmannStructure,
    DensityFunction,
    SchrodingerParams,
    bargmann_axioms_check,
    boost_map,
    conformal_equivalence_check,
    density_weight,
    dilation_map,
    expansion_map_projective,
    expansion_map_rk4,
    flat_bargmann,
    group_map,
    plane_wave,
    rescaled_metric,
    schrodinger_residual,
    symmetry_transport_check,
    translation_map,
    transported_density,
)
from schrogeo.ambient import random_group_element
from schrogeo.geometry import VectorField, jet_components
from schrogeo.numkernel import ContractViolationError, SeededSampler


class TestAxioms:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_flat_structure_passes(self, d):
        report = bargmann_axioms_check(flat_bargmann(d), samples=10, seed=1)
        for c in report:
            assert c.status == "PASS"
            assert c.residual < 1e-12

    def test_skewed_vertical_fails_parallelism(self):
        bg = flat_bargmann(1)
        bad_xi = VectorField(
            bg.metric.chart, lambda p: [0.0 * p[0], 0.0 * p[0], 1.0 + p[0]]
        )
        bad = BargmannStructure(metric=bg.metric, xi=bad_xi, theta=bg.theta, d=1)
        report = bargmann_axioms_check(bad, samples=6, seed=2)
        by_name = {c.name: c for c in report}
        assert by_name["xi_null"].status == "PASS"
        assert by_name["xi_parallel"].status == "FAIL"

    def test_rescaling_direction_decides_the_axioms(self):
        # a factor descending to the time axis keeps xi parallel (this is
        # the allowed conformal freedom); a spatial factor destroys it
        bg = flat_bargmann(1)
        along_time = rescaled_metric(bg, lambda p: nk.exp(2.0 * p[1]))
        still_ok = BargmannStructure(metric=along_time, xi=bg.xi, theta=bg.theta, d=1)
        assert all(
            c.status == "PASS" for c in bargmann_axioms_check(still_ok, samples=6, seed=3)
        )

        across = rescaled_metric(bg, lambda p: nk.exp(2.0 * p[0]))
        bad = BargmannStructure(metric=across, xi=bg.xi, theta=bg.theta, d=1)
        report = bargmann_axioms_check(bad, samples=6, seed=3)
        by_name = {c.name: c for c in report}
        assert by_name["xi_parallel"].status == "FAIL"
        assert by_name["clock_closed"].status == "FAIL"
        assert by_name["xi_null"].status == "PASS"

    def test_conformal_factor_descends_along_time(self):
        bg = flat_bargmann(2)
        ok, resid = conformal_equivalence_check(lambda p: nk.exp(p[2]), bg)
        assert ok and resid < 1e-12
        bad, resid2 = conformal_equivalence_check(lambda p: nk.exp(p[0]), bg)
        assert not bad and resid2 > 1e-3


class TestWavePair:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_plane_wave_annihilated(self, d):
        bg = flat_bargmann(d)
        params = SchrodingerParams()
        psi = plane_wave(d, [0.4 + 0.1 * i for i in range(d)], params)
        for p in SeededSampler(6, [(-1, 1)] * (d + 2)).points(4):
            r1, r2 = schrodinger_residual(bg, psi, params, p)
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-10

    def test_wrong_dispersion_residual_is_k_squared(self):
        # drop the frequency term: r1 = |k|^2 |f| exactly, r2 still zero
        d, k = 1, 0.6
        bg = flat_bargmann(d)
        params = SchrodingerParams()
        ms = params.mass / params.hbar

        def coeff(x):
            phase = k * x[0] + ms * x[2]
            return nk.cos(phase) + 1j * nk.sin(phase)

        stale = DensityFunction(coefficient=coeff, weight=density_weight(d), d=d)
        r1, r2 = schrodinger_residual(bg, stale, params, [0.3, -0.2, 0.5])
        assert abs(r1) == pytest.approx(k * k, abs=1e-12)
        assert abs(r2) < 1e-14

    def test_rejects_wrong_weight(self):
        bg = flat_bargmann(2)
        psi = plane_wave(2, [0.3, 0.1])
        off = DensityFunction(coefficient=psi.coefficient, weight=0.3, d=2)
        with pytest.raises(ContractViolationError):
            schrodinger_residual(bg, off, SchrodingerParams(), [0.1, 0.2, 0.3, 0.4])


class TestTransport:
    params = SchrodingerParams()

    def run(self, phi, d=2, weight=None, box=0.8):
        bg = flat_bargmann(d)
        psi = plane_wave(d, [0.5] + [0.2] * (d - 1), self.params)
        return symmetry_transport_check(
            phi, psi, bg, self.params, samples=6, seed=4, weight=weight, box=box
        )

    def test_translation(self):
        res = self.run(translation_map(2, [0.3, -0.1, 0.2, 0.4]))
        assert res["r1"] < 1e-7 and res["r2"] < 1e-7
        assert res["conformal_residual"] < 1e-12

    def test_boost(self):
        res = self.run(boost_map(2, [0.25, -0.4]))
        assert res["r1"] < 1e-7 and res["r2"] < 1e-7

    def test_dilation(self):
        res = self.run(dilation_map(2, 0.3))
        assert res["r1"] < 1e-7 and res["r2"] < 1e-7

    def test_expansion(self):
        res = self.run(expansion_map_projective(2, 0.2))
        assert res["r1"] < 1e-7 and res["r2"] < 1e-7
        assert res["conformal_residual"] < 1e-9

    def test_expansion_needs_the_weight(self):
        # transporting as a plain function (weight 0) leaves a residual the
        # wave operator sees
        res = self.run(expansion_map_projective(2, 0.2), weight=0.0)
        assert res["r1"] > 1e-3

    def test_dilation_is_weight_blind(self):
        # constant-Jacobian maps multiply the coefficient by a constant, so
        # no weight choice can make them fail: both members of the pair are
        # linear.  This is why the weight control above uses the expansion.
        res = self.run(dilation_map(2, 0.3), weight=0.0)
        assert res["r1"] < 1e-7 and res["r2"] < 1e-7

    def test_plane_wave_closed_under_group(self):
        rng = np.random.default_rng(9)
        d = 1
        bg = flat_bargmann(d)
        psi = plane_wave(d, [0.4], self.params)
        for _ in range(3):
            ge = random_group_element(d, rng, scale=0.25)
            res = symmetry_transport_check(
                group_map(ge), psi, bg, self.params, samples=4, seed=5, box=0.5
            )
            assert res["r1"] < 1e-6 and res["r2"] < 1e-6


class TestExpansionMaps:
    def test_rk4_matches_projective(self):
        d, alpha = 1, 0.25
        proj = expansion_map_projective(d, alpha)
        rk4 = expansion_map_rk4(d, alpha)
        for p in ([0.3, -0.2, 0.4], [-0.5, 0.35, 0.1]):
            a = np.array([float(nk.jet_value(v)) for v in proj.forward(list(p))])
            b = np.array([float(nk.jet_value(v)) for v in rk4.forward(list(p))])
            assert np.abs(a - b).max() < 1e-12

    def test_group_jacobian_closed_form(self):
        # jacobian_factor(p) claims |det D(inverse)| at p; differentiate the
        # inverse map directly and take the determinant as the oracle
        rng = np.random.default_rng(14)
        d = 2
        ge = random_group_element(d, rng, scale=0.3)
        phi = group_map(ge)
        for p in ([0.2, -0.3, 0.4, 0.1], [-0.1, 0.5, 0.0, 0.3]):
            _, jac_inv = jet_components(phi.inverse, p)
            oracle = abs(np.linalg.det(jac_inv.real))
            claimed = float(nk.jet_value(phi.jacobian_factor(list(p))))
            assert claimed == pytest.approx(oracle, rel=1e-9)
