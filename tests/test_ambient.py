"""Algebra, group, and witness machinery: nilpotent structure of the special
element, commutant dimensions, the defining identities of the algebra and of
the group against their block-by-block relations, and the moving-frame
one-form checked against hand-expanded formulas."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from oracles import (
    algebra_block_relations,
    algebra_element,
    algebra_form,
    block_form,
    block_relations,
    group_blocks,
)

from schrogeo import ambient
from schrogeo.ambient import (
    _THETA13,
    _squarings,
    GroupBlocks,
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
    exp_group,
    expansion_generator,
    flat_gram_matrix,
    group_inverse,
    projective_action,
    random_group_element,
    realize_field,
    require_group,
    sch_dimension,
    sch_residuals,
    xi_vector,
)
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
        Z0 = build_Z0(d)
        assert np.abs(Z0 @ Z0).max() == 0.0
        assert np.linalg.matrix_rank(Z0) == 2

    def test_g_skew(self):
        d = 2
        Z0 = build_Z0(d)
        G = ambient_gram(d)
        assert np.abs(G @ Z0 + (G @ Z0).T).max() == 0.0

    def test_entries_d2(self):
        Z0 = build_Z0(2)
        expected = np.zeros((6, 6))
        expected[3, 5] = 1.0
        expected[4, 2] = -1.0
        assert np.array_equal(Z0, expected)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_z0_generates_a_totally_null_plane(self, d):
        Z0, G = build_Z0(d), ambient_gram(d)
        assert not Z0.flags.writeable
        assert not (Z0 @ Z0).any()
        assert np.linalg.matrix_rank(Z0) == 2
        assert not (G @ Z0 + (G @ Z0).T).any()
        # the image, spanned by the columns, is totally null
        assert not (Z0.T @ G @ Z0).any()

    def test_basis_change_recovers_split_gram(self):
        d = 2
        S = basis_change(d)
        G = ambient_gram(d)
        assert np.abs(S.T @ G @ S - ambient_gram_split(d)).max() < 1e-14


class TestSharedConstants:
    @pytest.mark.parametrize("d", [1, 3])
    def test_cached_arrays_are_read_only_and_fresh(self, d):
        G = ambient_gram(d)
        Z0 = build_Z0(d)
        assert ambient_gram(d) is G and build_Z0(d) is Z0
        for a in (G, Z0):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
        fresh_G = np.zeros((d + 4, d + 4))
        fresh_G[: d + 2, : d + 2] = flat_gram_matrix(d)
        fresh_G[d + 2, d + 3] = fresh_G[d + 3, d + 2] = 1.0
        assert np.array_equal(G, fresh_G)


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
                Z = basis[i] @ basis[j] - basis[j] @ basis[i]
                assert max(v for v in sch_residuals(Z, d).values()) < 1e-12
                assert algebra_block_relations(Z, d)["block"] < 1e-10

    def test_residuals_flag_matrices_outside_the_algebra(self):
        d = 2
        tangent = generic_tangent(d, np.random.default_rng(1))
        assert sch_residuals(tangent, d)["commutator"] > 0.1
        with pytest.raises(ContractViolationError, match="Lam xi"):
            realize_field(tangent, d)
        M = np.zeros((d + 4, d + 4))
        M[d + 2, d + 3] = 1.0  # commutes with Z0, outside the block pattern
        res = sch_residuals(M, d)
        assert (res["commutator"], res["skew"]) == (0.0, 2.0)
        assert algebra_block_relations(M, d)["block"] == 1.0

    # the block and vertical relations of the algebra follow from its two
    # defining identities [M, Z0] = 0 and G M^T G + M = 0: each entry the
    # block form rewrites is an entry of [M, Z0] or of G M^T G + M, or half
    # of one, and for i != d+1 vertical_i is entry (i, d+3) of [M, Z0], while
    # vertical_{d+1} is that entry plus entry (d+2, d+2) of G M^T G + M; so
    # checking the two refuses every matrix the block checks refused

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_block_relations_follow_from_the_defining_identities(self, d):
        rng = np.random.default_rng(60 + d)
        for eps in (1e-3, 1e-6, 1e-9):
            clean = np.array([algebra_element(d, rng) for _ in range(20)])
            M = clean + eps * rng.normal(size=clean.shape)
            res = sch_residuals(M, d)
            identities = np.maximum(res["commutator"], res["skew"])
            scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
            rel = algebra_block_relations(M, d)
            assert (rel["block"] <= identities).all(), eps
            assert (rel["vertical"] <= 2.0 * scale * identities).all(), eps
            assert (identities > 1e-12).all(), eps

    def test_residuals_of_a_stack_match_one_matrix_at_a_time(self):
        d = 3
        rng = np.random.default_rng(4)
        stack = np.array(
            [algebra_element(d, rng) for _ in range(3)]
            + [generic_tangent(d, rng)]
        )
        res = sch_residuals(stack, d)
        for k, M in enumerate(stack):
            for key, value in sch_residuals(M, d).items():
                assert res[key][k] == value
        assert res["commutator"][3] > 0.1 and res["skew"][3] < 1e-15

    def test_elements_commute_with_special(self):
        d = 2
        Z0 = build_Z0(d)
        for e in commutant_basis(d):
            assert np.abs(e @ Z0 - Z0 @ e).max() < 1e-12

    def test_decompose_round_trip_random(self):
        rng = np.random.default_rng(12)
        for d in (1, 3):
            e = algebra_element(d, rng)
            again = algebra_form(*decompose_sch(e, d), d)
            assert np.abs(again - e).max() < 1e-12


class TestRealization:
    def test_frozen_field_values(self):
        # hand expansion of Lam x + Gam - (alpha/2) g(x,x) xi + (alpha t) x
        d = 2
        lam = np.zeros((4, 4))
        lam[0, 1] = -0.3
        lam[1, 0] = 0.3
        Z = algebra_form(lam, np.array([0.1, -0.2, 0.05, 0.3]), 0.2, 0.0, d)
        field = realize_field(Z, d)
        x = [0.5, -0.3, 0.7, 0.2]
        vals = [float(v) for v in field.components(x)]
        assert vals == pytest.approx([0.26, -0.092, 0.148, 0.266], abs=1e-15)

    def test_rejects_vertical_violation(self):
        d = 1
        lam = np.zeros((3, 3))
        lam[0, 2] = 1.0  # moves the vertical direction
        with pytest.raises(ContractViolationError):
            realize_field(algebra_form(lam, np.zeros(3), 0.0, 0.0, d), d)

    def test_field_bracket_reverses_matrix_bracket(self):
        rng = np.random.default_rng(5)
        d = 2
        e1 = algebra_element(d, rng)
        e2 = algebra_element(d, rng)
        res = bracket_fields(e1, e2, d, [[0.4, -0.2, 0.6, 0.1], [0.0, 0.3, -0.5, 0.9]])
        assert (res["minus"] < 1e-9).all()
        assert (res["plus"] > 1e-3).all()  # the sign is not an accident


def _stack_of_one(A, d):
    """The blocks of one element, each with a leading element axis of one."""
    return GroupBlocks(*(np.asarray(f)[None] for f in group_blocks(A, d)))


def _defining_identities(A, d):
    """The largest |entry| of Abar A - 1 and of A Z0 - Z0 A together."""
    G, Z0 = ambient_gram(d), build_Z0(d)
    return max(np.abs(G @ A.T @ G @ A - np.eye(d + 4)).max(), np.abs(A @ Z0 - Z0 @ A).max())


class TestGroup:
    def test_identity_blocks(self):
        d = 2
        blocks = _stack_of_one(np.eye(d + 4), d)
        A = assemble_group_element(blocks, d)
        assert A.shape == (1, d + 4, d + 4)
        assert np.abs(A - np.eye(d + 4)).max() == 0.0

    def test_random_elements_satisfy_defining_relations(self):
        rng = np.random.default_rng(3)
        d = 2
        G = ambient_gram(d)
        Z0 = build_Z0(d)
        for _ in range(10):
            A = random_group_element(d, rng)
            assert np.abs(G @ A.T @ G @ A - np.eye(d + 4)).max() < 1e-10
            assert np.abs(A @ Z0 - Z0 @ A).max() < 1e-10

    # the seven block relations are the two defining identities written out
    # block by block: on a block-form matrix their largest residuals agree,
    # so checking the two accepts the elements the seven accept

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_block_relations_match_the_defining_identities(self, d):
        rng = np.random.default_rng(40 + d)
        for eps in (1e-3, 1e-6, 1e-9):
            for _ in range(20):
                blocks = group_blocks(random_group_element(d, rng), d)
                noisy = [f + eps * rng.normal(size=np.shape(f)) for f in blocks]
                A = block_form(noisy, d)
                seven, two = block_relations(A, d).max(), _defining_identities(A, d)
                assert abs(seven - two) <= 1e-6 * two, (eps, seven, two)
                with pytest.raises(StabilizerConstraintError):
                    require_group(A[None])

    def test_first_constraint_trips(self):
        d = 2
        blocks = _stack_of_one(np.eye(d + 4), d)
        bad = blocks._replace(L=blocks.L + 0.01)
        with pytest.raises(StabilizerConstraintError) as exc:
            assemble_group_element(bad, d)
        assert exc.value.description == "Abar A = 1"

    def test_a_scaled_spatial_block_fails_the_isometry(self):
        # scaling only the spatial block keeps the vertical relations intact
        d = 2
        rng = np.random.default_rng(8)
        blocks = _stack_of_one(random_group_element(d, rng), d)
        L = blocks.L.copy()
        L[:, :d, :d] *= 1.01
        with pytest.raises(StabilizerConstraintError) as exc:
            assemble_group_element(blocks._replace(L=L), d)
        assert exc.value.description == "Abar A = 1"

    def test_an_isometry_off_the_commutant_fails_the_commutation(self):
        # diag(1, ..., 1/e, e) on the extra null pair keeps Abar A = 1, but
        # L xi = xi != e xi
        d = 2
        blocks = _stack_of_one(np.eye(d + 4), d)
        bad = blocks._replace(b=np.array([0.5]), e=np.array([2.0]))
        with pytest.raises(StabilizerConstraintError) as exc:
            assemble_group_element(bad, d)
        assert exc.value.description == "A Z0 = Z0 A"
        assert exc.value.residual == 1.0

    # every guard fails a NaN residual: nan > tol is False, so each reads
    # ~(residual <= tol)

    def test_nan_entry_fails_the_defining_identities(self):
        d = 2
        A = random_group_element(d, np.random.default_rng(8))
        A[0, 0] = np.nan
        with pytest.raises(StabilizerConstraintError):
            require_group(A[None])

    def test_nan_outside_the_block_pattern_is_drift(self, monkeypatch):
        d = 2
        n = d + 2

        def polluted(Z):
            A = exp_algebra(Z)
            A[..., n + 1, n] = np.nan  # an entry the block form never reads
            return A

        monkeypatch.setattr(ambient, "exp_algebra", polluted)
        with pytest.raises(ContractViolationError, match="block pattern"):
            ambient.group_elements(
                d, ambient.group_coefficients(d, np.random.default_rng(2), 3)
            )

    def test_nan_vertical_residual_is_refused(self):
        d = 2
        lam, gam, alpha, _ = decompose_sch(algebra_element(d, np.random.default_rng(4)), d)
        with pytest.raises(ContractViolationError, match="Lam xi"):
            realize_field(algebra_form(lam, gam, alpha, np.nan, d), d)
        Z = algebra_form(lam, gam, alpha, 0.0, d)
        Z[0, 0] = np.nan
        with pytest.raises(ContractViolationError):
            realize_field(Z, d)
        assert not sch_residuals(Z, d)["commutator"] <= 1e-12

    def test_exponential_of_translation_terminates(self):
        d = 2
        Z = algebra_form(np.zeros((4, 4)), np.array([0.3, -0.1, 0.2, 0.4]), 0.0, 0.0, d)
        # nilpotent: third power vanishes identically
        assert np.abs(np.linalg.matrix_power(Z, 3)).max() == 0.0
        assert np.abs(exp_algebra(Z) - scipy.linalg.expm(Z)).max() < 1e-15

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(21)
        d = 1
        stack = ambient.group_elements(d, ambient.group_coefficients(d, rng, 1))
        inv = group_inverse(stack)
        assert np.abs(stack @ inv - np.eye(d + 4)).max() < 1e-12

    def test_projective_action_lifts_to_cone(self):
        rng = np.random.default_rng(30)
        d = 2
        for _ in range(8):
            A = random_group_element(d, rng)
            x = rng.uniform(-0.8, 0.8, size=d + 2)
            r = rng.uniform(0.5, 1.5)
            xp, rp = projective_action(A, x, r)
            lifted = A @ cone_point(x, r)
            assert np.abs(lifted - cone_point(xp, rp)).max() < 1e-12


EPS = np.finfo(float).eps
EXP_DIMS = (1, 2, 3, 4, 6, 8)


def algebra_sweep(d, scale, count):
    """Seeded random algebra elements at the default spread, times ``scale``."""
    rng = np.random.default_rng(400 + d)
    return [scale * algebra_element(d, rng) for _ in range(count)]


def orthogonality_defect(A, d):
    G = ambient_gram(d)
    return float(np.abs(G @ A.T @ G @ A - np.eye(d + 4)).max())


class TestExponential:
    """The [13/13] Padé exponential against independent references.  Scale 1
    takes no squaring, scale 4 none or one, and scale 16 one to three."""

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
        translation = algebra_form(np.zeros((d + 2, d + 2)), gam, 0.0, 0.0, d)
        for Z in (translation, expansion_generator(d, 0.3), expansion_generator(d, -1.7)):
            Z2 = Z @ Z
            assert np.abs(Z2 @ Z).max() == 0.0
            exact = np.eye(d + 4) + Z + Z2 / 2
            assert np.abs(exp_algebra(Z) - exact).max() <= 4 * EPS * np.abs(exact).max()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_expansion_generator_is_the_written_expansion(self, d):
        # the two entries of alpha E; the block writer also writes -0.0
        # zeros, and no bit of the exponential differs
        n = d + 2
        for alpha in (0.3, -1.7):
            Z = expansion_generator(d, alpha)
            written = algebra_form(np.zeros((n, n)), np.zeros(n), alpha, 0.0, d)
            assert np.array_equal(Z, written)
            assert np.count_nonzero(Z) == 2
            got, want = (exp_group(M[None], d) for M in (Z, written))
            assert got.tobytes() == want.tobytes()

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

    # squarings s: the least s >= 0 with ||2^-s Z||_1 <= theta_13.  x diag(1, -1)
    # has 1-norm x, so x = 5, 6 and 12 pin theta_13 between 5 and 6 and the
    # count above it; "alg" scales an algebra element to x theta_13 in 1-norm,
    # just inside and just outside each power-of-two multiple
    @pytest.mark.parametrize(
        "kind, x, s",
        [
            ("diag", 5.0, 0), ("diag", 6.0, 1), ("diag", 12.0, 2),
            ("alg", 1 - 1e-9, 0), ("alg", 1 + 1e-9, 1),
            ("alg", 2 - 2e-9, 1), ("alg", 2 + 2e-9, 2), ("alg", 4 + 4e-9, 3),
        ],
    )
    def test_squarings_pinned(self, kind, x, s):
        if kind == "diag":
            Z = x * np.diag([1.0, -1.0])
        else:
            Z = algebra_element(2, np.random.default_rng(7))
            Z *= x * _THETA13 / np.abs(Z).sum(axis=0).max()
        # one matrix as a stack of one, and inside a stack
        assert _squarings(Z[None]).tolist() == [s]
        assert _squarings(np.array([np.zeros_like(Z), Z])).tolist() == [0, s]

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
            field = realize_field(e, d)
            br = lie_bracket(field, bg.xi, [[0.3, -0.6, 0.8, 0.2]])
            assert np.abs(br).max() < 1e-12

    def test_xi_vector_layout(self):
        xi = xi_vector(3)
        assert xi.tolist() == [0, 0, 0, 0, 1]
        g = flat_gram_matrix(3)
        assert g @ xi @ xi == 0.0  # null direction
