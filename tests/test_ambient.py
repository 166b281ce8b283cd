"""Algebra, group, and witness machinery: nilpotent structure of the special
element, commutant dimensions, the block constraints, and the moving-frame
one-form checked against hand-expanded formulas."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from oracles import algebra_element

from schrogeo import ambient
from schrogeo.ambient import (
    SchBlocks,
    _pade_orders,
    _pade_powers,
    StabilizerConstraintError,
    ambient_gram,
    ambient_gram_split,
    assemble_group_element,
    basis_change,
    bracket_fields,
    build_Z0,
    commutant_basis,
    component_witnesses,
    cone_point,
    decompose_sch,
    exp_algebra,
    extract_blocks,
    flat_gram_matrix,
    g_adjoint,
    make_special,
    group_inverse,
    projective_action,
    random_group_element,
    realize_field,
    require_sch,
    sch_dimension,
    sch_matrix,
    sch_residuals,
    xi_vector,
)
from schrogeo.bargmann import _expansion_generator
from schrogeo.numkernel import ContractViolationError


def generic_tangent(d, rng):
    """G-skew matrix outside the commutant: a tangent of the big isometry
    group at the identity.  Uses G^2 = 1."""
    G = ambient_gram(d)
    N = rng.normal(size=G.shape)
    return 0.5 * (N - G @ N.T @ G)


class TestSpecialElement:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_square_zero_rank_two(self, d):
        Z0 = build_Z0(d).matrix
        assert np.abs(Z0 @ Z0).max() == 0.0
        assert np.linalg.matrix_rank(Z0) == 2

    def test_g_skew(self):
        d = 2
        Z0 = build_Z0(d).matrix
        G = ambient_gram(d)
        assert np.abs(G @ Z0 + (G @ Z0).T).max() == 0.0

    def test_entries_d2(self):
        Z0 = build_Z0(2).matrix
        expected = np.zeros((6, 6))
        expected[3, 5] = 1.0
        expected[4, 2] = -1.0
        assert np.array_equal(Z0, expected)

    def test_basis_change_recovers_split_gram(self):
        d = 2
        S = basis_change(d)
        G = ambient_gram(d)
        assert np.abs(S.T @ G @ S - ambient_gram_split(d)).max() < 1e-14


class TestSharedConstants:
    @pytest.mark.parametrize("d", [1, 3])
    def test_cached_arrays_are_read_only_and_fresh(self, d):
        G = ambient_gram(d)
        sn = build_Z0(d)
        assert ambient_gram(d) is G and build_Z0(d) is sn
        for a in (G, sn.P, sn.Q, sn.matrix):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
        fresh_G = np.zeros((d + 4, d + 4))
        fresh_G[: d + 2, : d + 2] = flat_gram_matrix(d)
        fresh_G[d + 2, d + 3] = fresh_G[d + 3, d + 2] = 1.0
        assert np.array_equal(G, fresh_G)
        P, Q = np.eye(d + 4)[d + 1], np.eye(d + 4)[d + 2]
        fresh = make_special(P, Q, fresh_G)
        for a, b in ((sn.P, fresh.P), (sn.Q, fresh.Q), (sn.matrix, fresh.matrix)):
            assert np.array_equal(a, b)


class TestCommutant:
    @pytest.mark.parametrize("d,dim", [(1, 6), (2, 9), (3, 13), (4, 18)])
    def test_dimension(self, d, dim):
        basis = commutant_basis(d)
        assert len(basis) == dim
        assert sch_dimension(d) == dim

    def test_dimension_stable_under_tolerance(self):
        for tol in (1e-9, 1e-11):
            assert len(commutant_basis(2, tol=tol)) == 9

    @pytest.mark.parametrize("d", [1, 2])
    def test_closed_under_bracket(self, d):
        basis = commutant_basis(d)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                Z = basis[i].matrix @ basis[j].matrix - basis[j].matrix @ basis[i].matrix
                blocks = decompose_sch(Z, d)
                assert np.abs(sch_matrix(blocks, d) - Z).max() < 1e-10

    def test_decompose_rejects_matrices_outside_the_algebra(self):
        d = 2
        with pytest.raises(ContractViolationError, match="commute with Z0"):
            require_sch(sch_residuals(generic_tangent(d, np.random.default_rng(1)), d))
        M = np.zeros((d + 4, d + 4))
        M[d + 2, d + 3] = 1.0  # commutes with Z0, outside the block pattern
        with pytest.raises(ContractViolationError, match="block form"):
            require_sch(sch_residuals(M, d))

    def test_residuals_of_a_stack_match_one_matrix_at_a_time(self):
        d = 3
        rng = np.random.default_rng(4)
        stack = np.array(
            [algebra_element(d, rng).matrix for _ in range(3)]
            + [generic_tangent(d, rng)]
        )
        res = sch_residuals(stack, d)
        for k, M in enumerate(stack):
            for key, value in sch_residuals(M, d).items():
                assert res[key][k] == value
        assert res["commutator"][3] > 0.1 and res["skew"][3] < 1e-15

    def test_elements_commute_with_special(self):
        d = 2
        Z0 = build_Z0(d).matrix
        for e in commutant_basis(d):
            assert np.abs(e.matrix @ Z0 - Z0 @ e.matrix).max() < 1e-12

    def test_decompose_round_trip_random(self):
        rng = np.random.default_rng(12)
        for d in (1, 3):
            e = algebra_element(d, rng)
            again = sch_matrix(decompose_sch(e.matrix, d), d)
            assert np.abs(again - e.matrix).max() < 1e-12


class TestRealization:
    def test_frozen_field_values(self):
        # hand expansion of Lam x + Gam - (alpha/2) g(x,x) xi + (alpha t) x
        d = 2
        lam = np.zeros((4, 4))
        lam[0, 1] = -0.3
        lam[1, 0] = 0.3
        blocks = SchBlocks(
            Lam=lam, Gam=np.array([0.1, -0.2, 0.05, 0.3]), alpha=0.2, chi=0.0
        )
        field = realize_field(blocks, d)
        x = [0.5, -0.3, 0.7, 0.2]
        vals = [float(v) for v in field.components(x)]
        assert vals == pytest.approx([0.26, -0.092, 0.148, 0.266], abs=1e-15)

    def test_rejects_vertical_violation(self):
        d = 1
        lam = np.zeros((3, 3))
        lam[0, 2] = 1.0  # moves the vertical direction
        blocks = SchBlocks(Lam=lam, Gam=np.zeros(3), alpha=0.0, chi=0.0)
        with pytest.raises(ContractViolationError):
            realize_field(blocks, d)

    def test_field_bracket_reverses_matrix_bracket(self):
        rng = np.random.default_rng(5)
        d = 2
        e1 = algebra_element(d, rng)
        e2 = algebra_element(d, rng)
        res = bracket_fields(e1, e2, d, [[0.4, -0.2, 0.6, 0.1], [0.0, 0.3, -0.5, 0.9]])
        assert (res["minus"] < 1e-9).all()
        assert (res["plus"] > 1e-3).all()  # the sign is not an accident


class TestGroup:
    def test_identity_blocks(self):
        d = 2
        blocks = extract_blocks(np.eye(d + 4)[None], d)
        ge = assemble_group_element(blocks, d)
        assert ge.matrix.shape == (1, d + 4, d + 4)
        assert np.abs(ge.matrix - np.eye(d + 4)).max() == 0.0

    def test_random_elements_satisfy_defining_relations(self):
        rng = np.random.default_rng(3)
        d = 2
        G = ambient_gram(d)
        Z0 = build_Z0(d).matrix
        for _ in range(10):
            ge = random_group_element(d, rng)
            A = ge.matrix
            assert np.abs(g_adjoint(A, G) @ A - np.eye(d + 4)).max() < 1e-10
            assert np.abs(A @ Z0 - Z0 @ A).max() < 1e-10

    def test_first_constraint_trips(self):
        d = 2
        blocks = extract_blocks(np.eye(d + 4)[None], d)
        bad = blocks.__class__(
            L=blocks.L + 0.01,
            B=blocks.B,
            C=blocks.C,
            a=blocks.a,
            b=blocks.b,
            dd=blocks.dd,
            e=blocks.e,
        )
        with pytest.raises(StabilizerConstraintError) as exc:
            assemble_group_element(bad, d)
        assert exc.value.index == 1

    def test_third_constraint_trips(self):
        # scaling only the spatial block keeps the vertical relations intact
        d = 2
        rng = np.random.default_rng(8)
        ge = random_group_element(d, rng)
        blocks = extract_blocks(ge.matrix[None], d)
        L = blocks.L.copy()
        L[:, :d, :d] *= 1.01
        bad = blocks.__class__(
            L=L, B=blocks.B, C=blocks.C, a=blocks.a, b=blocks.b, dd=blocks.dd, e=blocks.e
        )
        with pytest.raises(StabilizerConstraintError) as exc:
            assemble_group_element(bad, d)
        assert exc.value.index == 3

    # every guard fails a NaN residual: nan > tol is False, so each reads
    # ~(residual <= tol)

    def test_nan_entry_fails_the_block_constraints(self):
        d = 2
        A = random_group_element(d, np.random.default_rng(8)).matrix.copy()
        A[0, 0] = np.nan
        with pytest.raises(StabilizerConstraintError):
            assemble_group_element(extract_blocks(A[None], d), d)

    def test_nan_outside_the_block_pattern_is_drift(self, monkeypatch):
        d = 2
        n = d + 2

        def polluted(Z):
            A = exp_algebra(Z)
            A[..., n + 1, n] = np.nan  # an entry extract_blocks never reads
            return A

        monkeypatch.setattr(ambient, "exp_algebra", polluted)
        with pytest.raises(ContractViolationError, match="block pattern"):
            ambient.group_elements(
                d, ambient.group_coefficients(d, np.random.default_rng(2), 3)
            )

    def test_nan_vertical_residual_is_refused(self):
        d = 2
        blocks = algebra_element(d, np.random.default_rng(4)).blocks
        with pytest.raises(ContractViolationError, match="Lam xi"):
            realize_field(SchBlocks(blocks.Lam, blocks.Gam, blocks.alpha, np.nan), d)
        Z = sch_matrix(blocks, d)
        Z[0, 0] = np.nan
        with pytest.raises(ContractViolationError):
            require_sch(sch_residuals(Z, d))

    def test_exponential_of_translation_terminates(self):
        d = 2
        blocks = SchBlocks(
            Lam=np.zeros((4, 4)), Gam=np.array([0.3, -0.1, 0.2, 0.4]), alpha=0.0, chi=0.0
        )
        Z = sch_matrix(blocks, d)
        # nilpotent: third power vanishes identically
        assert np.abs(np.linalg.matrix_power(Z, 3)).max() == 0.0
        assert np.abs(exp_algebra(Z) - scipy.linalg.expm(Z)).max() < 1e-15

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(21)
        d = 1
        stack = ambient.group_elements(d, ambient.group_coefficients(d, rng, 1))
        inv = group_inverse(stack)
        assert np.abs(stack.matrix @ inv.matrix - np.eye(d + 4)).max() < 1e-12

    def test_projective_action_lifts_to_cone(self):
        rng = np.random.default_rng(30)
        d = 2
        for _ in range(8):
            ge = random_group_element(d, rng)
            x = rng.uniform(-0.8, 0.8, size=d + 2)
            r = rng.uniform(0.5, 1.5)
            xp, rp = projective_action(ge, x, r)
            lifted = ge.matrix @ cone_point(x, r)
            assert np.abs(lifted - cone_point(xp, rp)).max() < 1e-12


EPS = np.finfo(float).eps
EXP_DIMS = (1, 2, 3, 4, 6, 8)


def algebra_sweep(d, scale, count):
    """Seeded random algebra elements at the default spread, times ``scale``."""
    rng = np.random.default_rng(400 + d)
    return [scale * algebra_element(d, rng).matrix for _ in range(count)]


def orthogonality_defect(A, d):
    return float(np.abs(g_adjoint(A, ambient_gram(d)) @ A - np.eye(d + 4)).max())


class TestExponential:
    """The Padé exponential against independent references.  Scales 1 and 4
    select the orders 5, 7, 9 and 13 without squaring; scale 16 adds order 13
    with one or two squarings."""

    @pytest.mark.parametrize("scale", [1.0, 4.0])
    @pytest.mark.parametrize("d", EXP_DIMS)
    def test_matches_reference_exponential(self, d, scale):
        for Z in algebra_sweep(d, scale, 25):
            ref = scipy.linalg.expm(Z)
            err = np.abs(exp_algebra(Z) - ref).max()
            assert err <= 8 * EPS * np.abs(ref).max()

    @pytest.mark.parametrize("d", EXP_DIMS)
    def test_scaled_and_squared_against_extended_precision(self, d):
        for Z in algebra_sweep(d, 16.0, 4):
            with mpmath.workdps(40):
                exact = np.array(mpmath.expm(mpmath.matrix(Z.tolist())).tolist(), dtype=float)
            unit = EPS * np.abs(exact).max()
            ours = np.abs(exp_algebra(Z) - exact).max()
            reference = np.abs(scipy.linalg.expm(Z) - exact).max()
            assert ours <= 2 * reference + 4 * unit

    def test_group_orthogonality_as_tight_as_reference(self):
        ours, reference = [], []
        for d in EXP_DIMS:
            for Z in algebra_sweep(d, 1.0, 25):
                ours.append(orthogonality_defect(exp_algebra(Z), d))
                reference.append(orthogonality_defect(scipy.linalg.expm(Z), d))
        assert np.mean(ours) <= 1.25 * np.mean(reference)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nilpotent_inputs_match_their_polynomial(self, d):
        # translations and expansions have Z^3 = 0, so e^Z is the
        # polynomial I + Z + Z^2/2, which the Padé path must reproduce
        rng = np.random.default_rng(50 + d)
        gam = rng.uniform(-1, 1, d + 2)
        translation = sch_matrix(
            SchBlocks(Lam=np.zeros((d + 2, d + 2)), Gam=gam, alpha=0.0, chi=0.0), d
        )
        for Z in (translation, _expansion_generator(d, 0.3), _expansion_generator(d, -1.7)):
            Z2 = Z @ Z
            assert np.abs(Z2 @ Z).max() == 0.0
            exact = np.eye(d + 4) + Z + Z2 / 2
            assert np.abs(exp_algebra(Z) - exact).max() <= 4 * EPS * np.abs(exact).max()

    @pytest.mark.parametrize("d", [1, 4, 8])
    def test_zero_is_the_identity(self, d):
        n = d + 4
        eye = np.eye(n).tobytes()
        zero = np.zeros((n, n))
        assert exp_algebra(zero).tobytes() == eye
        # inside a stack of generic elements, unscaled and squared
        stack = np.array([*algebra_sweep(d, 1.0, 2), zero, *algebra_sweep(d, 16.0, 2)])
        got = exp_algebra(stack)
        assert got[2].tobytes() == eye
        for Z, A in zip(stack, got):
            assert A.tobytes() == exp_algebra(Z).tobytes()

    # Padé order m and squarings s as Al-Mohy & Higham's algorithm chooses
    # them with exact 1-norms; scipy.sparse.linalg._matfuncs._expm's decision
    # steps give the same table.  The nonnormal "tri" and "nil" x100 take a
    # lower order without ell(Z, m); "diag" x5 lies between theta_13 and
    # 2 theta_13, so it pins theta_13.
    @pytest.mark.parametrize(
        "kind, x, m, s",
        [
            ("alg", 0.01, 3, 0), ("alg", 0.05, 5, 0), ("alg", 0.3, 5, 0),
            ("alg", 1.0, 7, 0), ("alg", 3.0, 9, 0), ("alg", 8.0, 13, 0),
            ("alg", 30.0, 13, 2), ("alg", 100.0, 13, 3),
            ("nil", 0.013, 5, 0), ("nil", 1.0, 9, 0), ("nil", 100.0, 13, 6),
            ("tri", 1.0, 5, 0), ("diag", 5.0, 13, 1), ("diag", 12.0, 13, 2),
        ],
    )
    def test_order_and_scaling_pinned(self, kind, x, m, s):
        Z = x * {
            "alg": lambda: algebra_element(2, np.random.default_rng(7)).matrix,
            "nil": lambda: np.array([[1.0, 1.0], [-1.0, -1.0]]),
            "tri": lambda: np.array([[0.013, 1e3], [0.0, -0.013]]),
            "diag": lambda: np.diag([1.0, -1.0]),
        }[kind]()
        # one matrix's powers as a stack of one
        assert _pade_orders(_pade_powers(Z[None], (Z @ Z)[None])) == [(m, s)]

    def test_nilpotent_probe_when_trace_vanishes(self):
        # tr Z^2 = 0 without Z nilpotent: a trace test alone cannot tell it
        # from a nilpotent input
        Z = np.zeros((5, 5))
        Z[0, 1] = Z[1, 0] = 0.5
        Z[2, 3] = -0.5
        Z[3, 2] = 0.5
        assert abs(np.trace(Z @ Z)) == 0.0
        assert np.abs(exp_algebra(Z) - scipy.linalg.expm(Z)).max() < 4 * EPS


class TestWitnesses:
    def test_component_splitting(self):
        rep = component_witnesses(2)
        assert rep.commutator_norms["identity"] == 0.0
        assert rep.commutator_norms["P"] == 0.0
        assert rep.commutator_norms["T"] > 0.1
        assert rep.commutator_norms["PT"] > 0.1
        assert rep.conjugation_residual < 1e-12
        for v in rep.isometry_residuals.values():
            assert v < 1e-12


class TestVerticalCompatibility:
    def test_realized_fields_commute_with_vertical(self):
        from schrogeo.bargmann import flat_bargmann
        from schrogeo.geometry import lie_bracket

        d = 2
        bg = flat_bargmann(d)
        for e in commutant_basis(d):
            field = realize_field(e.blocks, d)
            br = lie_bracket(field, bg.xi, [[0.3, -0.6, 0.8, 0.2]])
            assert np.abs(br).max() < 1e-12

    def test_xi_vector_layout(self):
        xi = xi_vector(3)
        assert xi.tolist() == [0, 0, 0, 0, 1]
        g = flat_gram_matrix(3)
        assert g @ xi @ xi == 0.0  # null direction
