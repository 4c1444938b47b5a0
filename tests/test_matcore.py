import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from stiefel_sr import matcore
from stiefel_sr.matcore import (
    COMPLEX,
    REAL,
    SCALE_COMPLEX_2N,
    SCALE_REAL_1,
    InvariantViolation,
    adjoint,
    eig_skew,
    expm_skew,
    random_skew_hermitian,
    random_unitary,
    trace_inner,
)

from _oracles import expm_series, trace_product_double_loop


class TestTraceInner:
    def test_zero_matrices(self):
        z = np.zeros((3, 3))
        assert trace_inner(z, z, SCALE_COMPLEX_2N) == 0.0

    def test_unit_transversal_value(self):
        # lam = 0, |x2| = 1 gives exactly 8 under the complex scaling
        x = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        assert trace_inner(x, x, SCALE_COMPLEX_2N) == pytest.approx(8.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x = random_skew_hermitian(rng, 4)
            y = random_skew_hermitian(rng, 4)
            expected = -2 * 4 * trace_product_double_loop(x, y).real
            assert trace_inner(x, y, SCALE_COMPLEX_2N) == pytest.approx(expected, rel=1e-12)

    def test_real_scaling(self):
        rng = np.random.default_rng(7)
        x = random_skew_hermitian(rng, 3, REAL)
        y = random_skew_hermitian(rng, 3, REAL)
        expected = -trace_product_double_loop(x, y).real
        assert trace_inner(x, y, SCALE_REAL_1) == pytest.approx(expected, rel=1e-12)

    def test_symmetric_and_positive(self):
        rng = np.random.default_rng(3)
        x = random_skew_hermitian(rng, 5)
        y = random_skew_hermitian(rng, 5)
        assert trace_inner(x, y, SCALE_COMPLEX_2N) == pytest.approx(
            trace_inner(y, x, SCALE_COMPLEX_2N), rel=1e-12
        )
        assert trace_inner(x, x, SCALE_COMPLEX_2N) > 0

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            trace_inner(random_skew_hermitian(rng, 3), random_skew_hermitian(rng, 4), SCALE_COMPLEX_2N)

    def test_mode_mismatch(self):
        rng = np.random.default_rng(0)
        x = random_skew_hermitian(rng, 3)  # genuinely complex
        with pytest.raises(InvariantViolation):
            trace_inner(x, x, SCALE_REAL_1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_ad_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        x = random_skew_hermitian(rng, n)
        y = random_skew_hermitian(rng, n)
        q = random_unitary(rng, n)
        conj_x = adjoint(q) @ x @ q
        conj_y = adjoint(q) @ y @ q
        assert trace_inner(conj_x, conj_y, SCALE_COMPLEX_2N) == pytest.approx(
            trace_inner(x, y, SCALE_COMPLEX_2N), rel=1e-10, abs=1e-10
        )


class TestExpmSkew:
    def test_zero_time_is_exact_identity(self):
        rng = np.random.default_rng(1)
        x = random_skew_hermitian(rng, 4)
        assert np.array_equal(expm_skew(x, 0.0), np.eye(4, dtype=complex))

    def test_planar_rotation(self):
        x = np.array([[0.0, 1.0], [-1.0, 0.0]])
        got = expm_skew(x, np.pi / 2, mode=REAL)
        np.testing.assert_allclose(got.real, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(11)
        x = random_skew_hermitian(rng, 5)
        got = expm_skew(x, 0.7)
        assert np.max(np.abs(got - expm_series(x, 0.7))) < 1e-10

    def test_result_is_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_skew_hermitian(rng, 6)
            t = rng.uniform(-4, 4)
            matcore.check_unitary(expm_skew(x, t))

    def test_real_mode_lands_in_rotation_group(self):
        rng = np.random.default_rng(8)
        x = random_skew_hermitian(rng, 4, REAL)
        q = expm_skew(x, 1.3, mode=REAL)
        assert np.max(np.abs(q.imag)) == 0.0
        matcore.check_unitary(q, REAL)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_one_parameter_subgroup(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        x = random_skew_hermitian(rng, n)
        s, t = rng.uniform(-2, 2, size=2)
        lhs = expm_skew(x, s + t)
        rhs = expm_skew(x, s) @ expm_skew(x, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_determinant_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            x = random_skew_hermitian(rng, n)
            t = rng.uniform(-2, 2)
            det = np.linalg.det(expm_skew(x, t))
            assert abs(det - np.exp(t * np.trace(x))) < 1e-10

    def test_rejects_non_skew_input(self):
        with pytest.raises(InvariantViolation):
            expm_skew(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)

    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    def test_stack_matches_one_call_per_member_and_scipy(self, mode):
        rng = np.random.default_rng(21)
        xs = np.stack([random_skew_hermitian(rng, 5, mode) for _ in range(12)])
        ts = rng.uniform(-4.0, 4.0, 12)
        got = expm_skew(xs, ts, mode)
        assert got.shape == (12, 5, 5)
        for x, t, member in zip(xs, ts, got):
            assert np.max(np.abs(member - expm_skew(x, t, mode))) <= 1e-15
            assert np.max(np.abs(member - expm(t * x))) <= 1e-12
        # times broadcast over the stack, whatever its shape
        shared = expm_skew(xs.reshape(3, 4, 5, 5), 0.7, mode)
        for x, member in zip(xs, shared.reshape(12, 5, 5)):
            assert np.max(np.abs(member - expm_skew(x, 0.7, mode))) <= 1e-15
        if mode == REAL:
            assert not np.any(got.imag) and not np.any(shared.imag)

    def test_zero_time_member_is_exact_identity(self):
        rng = np.random.default_rng(22)
        xs = np.stack([random_skew_hermitian(rng, 4) for _ in range(5)])
        ts = np.array([0.3, 0.0, -1.2, 0.0, 2.0])
        got = expm_skew(xs, ts)
        for i in (1, 3):
            assert np.array_equal(got[i], np.eye(4, dtype=complex))
        assert np.array_equal(expm_skew(xs, 0.0), np.broadcast_to(np.eye(4), (5, 4, 4)))

    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    def test_stack_with_one_bad_member_is_rejected(self, mode):
        rng = np.random.default_rng(23)
        xs = np.stack([random_skew_hermitian(rng, 3, mode) for _ in range(6)])
        expm_skew(xs, 1.0, mode)
        xs[4, 0, 1] += 1e-3  # breaks skew symmetry in one member only
        with pytest.raises(InvariantViolation):
            expm_skew(xs, 1.0, mode)
        with pytest.raises(ValueError):
            expm_skew(np.zeros((2, 3, 4)), 1.0)


class TestEigSkew:
    def test_already_diagonal(self):
        vals, vecs = eig_skew(np.diag([1j, -1j]))
        np.testing.assert_allclose(vals, [1j, -1j], atol=1e-14)
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_two_by_two_eigenvalues(self):
        # rates (lam +- sqrt(lam^2 + 4|x2|^2)) / 2 with lam=3, x2=2: {4i, -i}
        x = np.array([[3j, 2.0], [-2.0, 0.0]])
        vals, _ = eig_skew(x)
        np.testing.assert_allclose(vals, [4j, -1j], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(21)
        x = random_skew_hermitian(rng, 6)
        vals, vecs = eig_skew(x)
        rebuilt = (vecs * vals) @ adjoint(vecs)
        assert np.max(np.abs(rebuilt - x)) < 1e-10
        # descending imaginary parts
        assert np.all(np.diff(vals.imag) <= 1e-14)

    def test_deterministic_phase_fixing(self):
        rng = np.random.default_rng(22)
        x = random_skew_hermitian(rng, 5)
        vals1, vecs1 = eig_skew(x)
        vals2, vecs2 = eig_skew(x.copy())
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(vecs1, vecs2)
        for j in range(5):
            lead = vecs1[np.flatnonzero(np.abs(vecs1[:, j]) > 1e-8)[0], j]
            assert abs(lead.imag) < 1e-12 and lead.real > 0


class TestValidation:
    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(InvariantViolation):
            matcore.as_matrix(bad)

    def test_real_mode_rejects_complex(self):
        with pytest.raises(InvariantViolation):
            matcore.as_matrix(np.array([[1j, 0], [0, 0]]), REAL)

    def test_unitary_check_det(self):
        refl = np.diag([-1.0, 1.0])  # orthogonal but det -1
        matcore.check_unitary(refl, COMPLEX)
        with pytest.raises(InvariantViolation):
            matcore.check_unitary(refl, REAL)
