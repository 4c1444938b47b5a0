import numpy as np
import pytest

from _oracles import bracket_rank_loop, strong_bracket_check_loop

from stiefel_sr import matcore
from stiefel_sr.matcore import COMPLEX, REAL, random_skew_hermitian
from stiefel_sr.homspace import BlockVelocity
from stiefel_sr.distribution import (
    _horizontal_embeds,
    _span_rank,
    bracket_generating_rank,
    horizontal_basis,
    lie_bracket,
    montgomery_condition,
    strongly_bracket_check_vn1,
)


def horizontal(b_row):
    b = np.asarray(b_row, dtype=complex).reshape(1, -1)
    return BlockVelocity(np.zeros((1, 1)), b).embed()


def basis_row(m, j, size):
    row = np.zeros(size, dtype=complex)
    row[j] = 1j**m
    return row


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(0)
        x = random_skew_hermitian(rng, 4)
        assert np.max(np.abs(lie_bracket(x, x))) == 0.0

    def test_result_is_skew(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            br = lie_bracket(random_skew_hermitian(rng, 5), random_skew_hermitian(rng, 5))
            matcore.check_skew_hermitian(br)

    def test_unit_basis_bracket_m0(self):
        # [section(b), basis with entry 1 at slot j] has fibre part -2i Im(b_j)
        rng = np.random.default_rng(2)
        b = matcore.random_matrix(rng, 1, 3).reshape(-1)
        for j in range(3):
            br = lie_bracket(horizontal(b), horizontal(basis_row(0, j, 3)))
            assert br[0, 0] == pytest.approx(-2j * b[j].imag, abs=1e-12)

    def test_unit_basis_bracket_m1(self):
        # with entry i at slot j the fibre part is +2i Re(b_j) (the commutator
        # -b c* + c b* evaluated directly; see ledgered sign note)
        rng = np.random.default_rng(3)
        b = matcore.random_matrix(rng, 1, 3).reshape(-1)
        for j in range(3):
            br = lie_bracket(horizontal(b), horizontal(basis_row(1, j, 3)))
            assert br[0, 0] == pytest.approx(2j * b[j].real, abs=1e-12)

    def test_matches_block_formula(self):
        # [[0,B],[-B*,0]], [[0,C],[-C*,0]] -> blockdiag(-BC* + CB*, -B*C + C*B)
        rng = np.random.default_rng(4)
        b = matcore.random_matrix(rng, 2, 3)
        c = matcore.random_matrix(rng, 2, 3)
        vb = BlockVelocity(np.zeros((2, 2)), b).embed()
        vc = BlockVelocity(np.zeros((2, 2)), c).embed()
        br = lie_bracket(vb, vc)
        top = -b @ np.conj(c).T + c @ np.conj(b).T
        bottom = -np.conj(b).T @ c + np.conj(c).T @ b
        np.testing.assert_allclose(br[:2, :2], top, atol=1e-12)
        np.testing.assert_allclose(br[2:, 2:], bottom, atol=1e-12)
        assert np.max(np.abs(br[:2, 2:])) < 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            lie_bracket(random_skew_hermitian(rng, 3), random_skew_hermitian(rng, 4))

    def test_horizontal_brackets_never_horizontal(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, n - 1))
            b = BlockVelocity(np.zeros((k, k)), matcore.random_matrix(rng, k, n - k)).embed()
            c = BlockVelocity(np.zeros((k, k)), matcore.random_matrix(rng, k, n - k)).embed()
            br = lie_bracket(b, c)
            assert np.max(np.abs(br[:k, k:])) < 1e-12
            assert np.max(np.abs(br[k:, :k])) < 1e-12

    def test_jacobi_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            x = random_skew_hermitian(rng, 4)
            y = random_skew_hermitian(rng, 4)
            z = random_skew_hermitian(rng, 4)
            total = (
                lie_bracket(x, lie_bracket(y, z))
                + lie_bracket(y, lie_bracket(z, x))
                + lie_bracket(z, lie_bracket(x, y))
            )
            assert np.max(np.abs(total)) < 1e-10


class TestBracketGeneratingRank:
    def test_v21(self):
        r = bracket_generating_rank(2, 1, COMPLEX)
        assert r.dim_h == 2 and r.target_dim == 3 and r.generating

    def test_v42(self):
        r = bracket_generating_rank(4, 2, COMPLEX)
        assert r.target_dim == 12 and r.generating

    def test_real_sphere_is_trivially_generating(self):
        r = bracket_generating_rank(3, 1, REAL)
        assert r.dim_h == 2 and r.target_dim == 2 and r.generating

    def test_real_v42(self):
        assert bracket_generating_rank(4, 2, REAL).generating

    def test_complex_sweep(self):
        for n in range(2, 9):
            for k in range(1, n):
                assert bracket_generating_rank(n, k, COMPLEX).generating, (n, k)

    def test_horizontal_basis_size(self):
        assert len(horizontal_basis(4, 2, COMPLEX)) == 8
        assert len(horizontal_basis(4, 2, REAL)) == 4

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            bracket_generating_rank(3, 3, COMPLEX)

    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    def test_rank_matches_pairwise_loop(self, mode):
        # n <= 8 is the range the verification round runs
        for n in range(2, 9):
            for k in range(1, n):
                rank = bracket_generating_rank(n, k, mode).dim_h_plus_brackets
                assert rank == bracket_rank_loop(n, k, mode), (n, k)


class TestSpanRank:
    @pytest.mark.parametrize("n,k,mode", [(3, 1, COMPLEX), (4, 2, COMPLEX), (5, 2, REAL), (6, 3, COMPLEX)])
    def test_zero_repeated_and_negated_rows_leave_the_rank(self, n, k, mode):
        basis = _horizontal_embeds(n, k, mode)
        i, j = np.triu_indices(len(basis), 1)
        rank = _span_rank(basis, basis[i], basis[j], k, mode)
        # appended: zero basis matrices, zero brackets [x, x], repeated
        # basis matrices and brackets, and negated ones ([y, x] = -[x, y])
        padded = np.concatenate([basis, np.zeros_like(basis[:3]), basis[::2], -basis[1::3]])
        left = np.concatenate([basis[i], basis, basis[i[::3]], basis[j[::2]]])
        right = np.concatenate([basis[j], basis, basis[j[::3]], basis[i[::2]]])
        assert _span_rank(padded, left, right, k, mode) == rank == bracket_rank_loop(n, k, mode)

    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    def test_all_zero_rows_have_rank_zero(self, mode):
        zeros = np.zeros((4, 3, 3), dtype=complex)
        assert _span_rank(zeros, zeros, zeros, 1, mode) == 0


class TestStronglyBracketGenerating:
    @pytest.mark.parametrize("n", [2, 5])
    def test_holds_on_samples(self, n):
        assert strongly_bracket_check_vn1(n, samples=50, seed=n)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_per_bracket_loop(self, n):
        for seed in range(3):
            assert strongly_bracket_check_vn1(n, 20, seed) == strong_bracket_check_loop(n, 20, seed)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            strongly_bracket_check_vn1(3, samples=samples)

    def test_zero_section_is_rejected_not_counted(self, monkeypatch):
        rng = np.random.default_rng(8)
        sections = [np.full(2, 1e-14)]  # near-zero: must be skipped
        sections += [matcore.random_matrix(rng, 1, 2).reshape(-1) for _ in range(10)]
        draws = iter(sections)
        monkeypatch.setattr(
            matcore, "random_matrix", lambda *args: np.asarray(next(draws)).reshape(1, -1)
        )
        assert strongly_bracket_check_vn1(3, samples=10)
        assert next(draws, None) is None  # all 11 drawn: the zero one was not counted


class TestMontgomeryCondition:
    def test_v42_dimensions_allow(self):
        # tangent dim 12, horizontal dim 8: 8 is a multiple of 4
        rep = montgomery_condition(12, 8)
        assert rep.condition1 and rep.possible

    def test_impossible_case(self):
        rep = montgomery_condition(15, 6)
        assert not rep.condition1 and not rep.condition2 and not rep.possible

    def test_multiple_of_four(self):
        assert montgomery_condition(6, 4).condition1

    def test_out_of_scope_codimension(self):
        with pytest.raises(ValueError):
            montgomery_condition(5, 4)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            montgomery_condition(4, 4)
        with pytest.raises(ValueError):
            montgomery_condition(4, 0)
