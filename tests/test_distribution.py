import numpy as np
import pytest

from _oracles import bracket_rank_loop, span_rank_entries, strong_bracket_check_loop

from stiefel_sr import matcore
from stiefel_sr.matcore import COMPLEX, REAL, random_skew_hermitian
from stiefel_sr.homspace import BlockVelocity, _embed_velocities
from stiefel_sr.distribution import (
    _horizontal_blocks,
    _horizontal_embeds,
    _span_rank,
    bracket_generating_rank,
    horizontal_basis,
    lie_bracket,
    montgomery_condition,
    stiefel_tangent_dim,
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

    def test_sample_axis_ranks_each_sample_alone(self):
        # the third section is tiny, so its brackets miss the fibre direction;
        # the fourth, (1 - i, 0, 0), makes two equal bracket rows in its own
        # sample only, so the stack keeps both and its rank is still full
        n = 4
        basis = _horizontal_embeds(n, 1, COMPLEX)
        rows = np.random.default_rng(3).standard_normal((5, n - 1)) + 0j
        rows[2] *= 1e-12
        rows[3] = [1 - 1j, 0, 0]
        sections = _embed_velocities(np.zeros((1, 1)), rows[:, None, :])[:, None]
        ranks = _span_rank(basis, sections, basis, 1, COMPLEX)
        alone = [_span_rank(basis, z, basis, 1, COMPLEX) for z in sections]
        assert ranks.tolist() == alone == [7, 7, 6, 7, 7]


class ScriptedNormals:
    """A generator stand-in whose ``standard_normal`` hands out a fixed stream in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float).ravel()
        self.used = 0
        self.sizes = []

    def standard_normal(self, size):
        count = int(np.prod(size))
        assert self.used + count <= len(self.values), "script exhausted"
        self.sizes.append(size)
        self.used += count
        return self.values[self.used - count : self.used].reshape(size)


@pytest.fixture
def scripted_rng(monkeypatch):
    """Make every ``np.random.default_rng`` return the given ``ScriptedNormals``."""

    def install(script):
        monkeypatch.setattr(np.random, "default_rng", lambda *args: script)
        return script

    return install


@pytest.fixture
def svd_inputs(monkeypatch):
    """The shapes of every ``np.linalg.svd`` argument, in call order."""
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


class TestStronglyBracketGenerating:
    @pytest.mark.parametrize("n", [2, 5])
    def test_holds_on_samples(self, n):
        assert strongly_bracket_check_vn1(n, samples=50, seed=n)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 12, 16])
    def test_matches_per_bracket_loop(self, n):
        for seed in range(3):
            assert strongly_bracket_check_vn1(n, 20, seed) == strong_bracket_check_loop(n, 20, seed)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_consumes_the_loops_stream(self, n, monkeypatch):
        # the same verdict, and on a pass the generator where the loop left it:
        # the stacked check consumes the loop's stream
        made = []
        default_rng = np.random.default_rng

        def recording(*args):
            made.append(default_rng(*args))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        for samples in (1, 2, 30, 100):
            for seed in range(5):
                made.clear()
                verdict = strongly_bracket_check_vn1(n, samples, seed)
                assert verdict == strong_bracket_check_loop(n, samples, seed)
                stacked, loop = made
                if verdict:
                    assert stacked.bit_generator.state == loop.bit_generator.state

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            strongly_bracket_check_vn1(3, samples=samples)

    def test_zero_section_is_rejected_not_counted(self, scripted_rng, svd_inputs):
        rng = np.random.default_rng(8)
        # sections of V(3,1), each its real parts then its imaginary parts
        sections = [np.full(4, 1e-14)] + [rng.standard_normal(4) for _ in range(10)]
        script = scripted_rng(ScriptedNormals(sections))
        assert strongly_bracket_check_vn1(3, samples=10)
        # all 11 drawn: the near-zero one was replaced by one more draw
        assert script.used == script.values.size
        assert script.sizes == [(10, 2, 2), (1, 2, 2)]
        # exactly the 10 kept sections are ranked
        assert len(svd_inputs) == 1 and svd_inputs[0][0] == 10

    @pytest.mark.parametrize("n", [2, 4])
    def test_tiny_kept_section_fails_on_its_brackets(self, n, scripted_rng):
        # a section of norm 2e-12 is above the 1e-12 rejection bound, so it is
        # kept; its brackets fall below the rank tolerance, so the span misses
        # the fibre direction and the check fails, as the loop does
        rng = np.random.default_rng(9)
        section = np.zeros(2 * (n - 1))
        section[0] = 2e-12
        stream = [rng.standard_normal(2 * (n - 1)) for _ in range(3)]
        stream.insert(1, section)
        scripted_rng(ScriptedNormals(stream))
        assert not strongly_bracket_check_vn1(n, samples=4)
        scripted_rng(ScriptedNormals(stream))
        assert not strong_bracket_check_loop(n, 4, 0)

    @pytest.mark.parametrize("n,samples", [(2, 1), (3, 30), (8, 30), (5, 100)])
    def test_one_svd_per_check(self, n, samples, svd_inputs):
        assert strongly_bracket_check_vn1(n, samples, seed=n)
        assert len(svd_inputs) == 1 and svd_inputs[0][0] == samples


def small_shapes(max_n):
    return [(n, k) for n in range(2, max_n + 1) for k in range(1, n)]


def pair_inputs(n, k, mode, embedded):
    """The bracket sweep's (basis, left, right): b blocks, or n x n embeds."""
    basis = (_horizontal_embeds if embedded else _horizontal_blocks)(n, k, mode)
    i, j = np.triu_indices(len(basis), 1)
    return basis, basis[i], basis[j]


def section_inputs(n, rows):
    """The strong check's (basis, sections, basis) for complex V(n,1) rows:
    b blocks, and the same as n x n embeds."""
    rows = np.asarray(rows, dtype=complex)
    blocks, embeds = _horizontal_blocks(n, 1, COMPLEX), _horizontal_embeds(n, 1, COMPLEX)
    sections = _embed_velocities(np.zeros((1, 1)), rows[:, None, :])[:, None]
    return (blocks, rows[:, None, None, :], blocks), (embeds, sections, embeds)


def assert_root_two_apart(entries, coords):
    """Spectra equal up to a factor sqrt(2), up to rounding; the wider rows may
    add values at rounding level (their SVD has more columns)."""
    size = min(entries.shape[-1], coords.shape[-1])
    np.testing.assert_allclose(np.sqrt(2) * coords[..., :size], entries[..., :size], atol=1e-13)
    assert np.all(entries[..., size:] <= 1e-13) and np.all(coords[..., size:] <= 1e-13)


@pytest.fixture
def svd_values(monkeypatch):
    """The singular values of every ``np.linalg.svd`` call, in call order."""
    values = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        values.append(svd(a, *args, **kwargs))
        return values[-1]

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return values


class TestCoordinateRows:
    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    def test_one_svd_as_wide_as_the_tangent_space(self, mode, svd_inputs):
        for n, k in small_shapes(8):
            svd_inputs.clear()
            bracket_generating_rank(n, k, mode)
            assert [x[-1] for x in svd_inputs] == [stiefel_tangent_dim(n, k, mode)], (n, k)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_strong_check_svd_as_wide_as_the_tangent_space(self, n, svd_inputs):
        assert strongly_bracket_check_vn1(n, samples=10, seed=n)
        assert [x[::2] for x in svd_inputs] == [(10, stiefel_tangent_dim(n, 1, COMPLEX))]

    def test_verification_rounds_widest_svd(self, svd_inputs):
        # the round ranks complex V(n,k) for 3 <= n <= 8, 2 <= k < n
        for n, k in small_shapes(8):
            if k >= 2:
                bracket_generating_rank(n, k, COMPLEX)
        assert max(svd_inputs, key=lambda x: x[0] * x[1]) == (84, 63)

    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    def test_agrees_with_the_entry_rows_on_every_small_shape(self, mode):
        for n, k in small_shapes(9):
            rank = span_rank_entries(*pair_inputs(n, k, mode, True), k, mode)
            assert _span_rank(*pair_inputs(n, k, mode, False), k, mode) == rank, (n, k)
            assert _span_rank(*pair_inputs(n, k, mode, True), k, mode) == rank, (n, k)

    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    @pytest.mark.parametrize("embedded", [False, True])
    def test_agrees_on_zero_repeated_and_negated_rows(self, mode, embedded):
        for n, k in [(3, 1), (4, 2), (5, 2), (6, 3)]:
            basis, left, right = pair_inputs(n, k, mode, embedded)
            e_basis, e_left, e_right = pair_inputs(n, k, mode, True)
            i, j = np.triu_indices(len(basis), 1)

            def padded(b, lt, rt):
                return (
                    np.concatenate([b, np.zeros_like(b[:3]), b[::2], -b[1::3]]),
                    np.concatenate([lt, b, b[i[::3]], b[j[::2]]]),
                    np.concatenate([rt, b, b[j[::3]], b[i[::2]]]),
                )

            rank = span_rank_entries(*padded(e_basis, e_left, e_right), k, mode)
            assert _span_rank(*padded(basis, left, right), k, mode) == rank, (n, k)
            zeros = np.zeros_like(basis[:4])
            assert _span_rank(zeros, zeros, zeros, k, mode) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_agrees_on_tiny_sections(self, n):
        # sections of norm 2e-12 (kept by the strong check, whose brackets
        # then fall below the rank tolerance) and 1e-12 times a random row
        rng = np.random.default_rng(20 + n)
        rows = rng.standard_normal((6, n - 1)) + 1j * rng.standard_normal((6, n - 1))
        rows[1] = 0
        rows[1, 0] = 2e-12
        rows[3] *= 1e-12
        rows[4] = 0
        rows[4, -1] = 2e-12j
        blocks, embeds = section_inputs(n, rows)
        ranks = _span_rank(*blocks, 1, COMPLEX)
        assert ranks.tolist() == span_rank_entries(*embeds, 1, COMPLEX).tolist()
        assert ranks.tolist() == _span_rank(*embeds, 1, COMPLEX).tolist()
        assert ranks.tolist() == [2 * n - 1, 2 * n - 2, 2 * n - 1, 2 * n - 2, 2 * n - 2, 2 * n - 1]

    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    def test_singular_values_are_the_entry_rows_over_root_two(self, mode, svd_values):
        # the coordinate frame is orthonormal for half the Frobenius product
        # of the entries the oracle ranks, so the spectra agree up to sqrt(2)
        for n, k in small_shapes(6):
            svd_values.clear()
            span_rank_entries(*pair_inputs(n, k, mode, True), k, mode)
            _span_rank(*pair_inputs(n, k, mode, False), k, mode)
            assert_root_two_apart(*svd_values)
        rows = np.random.default_rng(5).standard_normal((20, 4)) * np.exp(1j * np.arange(4))
        blocks, embeds = section_inputs(5, rows)
        svd_values.clear()
        span_rank_entries(*embeds, 1, COMPLEX)
        _span_rank(*blocks, 1, COMPLEX)
        assert_root_two_apart(*svd_values)


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
