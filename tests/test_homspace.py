import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_sr import matcore
from stiefel_sr.matcore import COMPLEX, REAL, InvariantViolation, random_unitary
from stiefel_sr.homspace import (
    BlockVelocity,
    GrassmannPoint,
    StiefelPoint,
    canonicalize,
    complete_to_group,
    connection_form,
    identity_point,
    metric,
    project_to_grassmann,
    split_tangent,
)
from stiefel_sr.distribution import horizontal_dim, stiefel_tangent_dim


def random_stiefel_tangent(rng, n, k, mode=COMPLEX):
    a = matcore.random_skew_hermitian(rng, k, mode)
    b = matcore.random_matrix(rng, k, n - k, mode)
    return BlockVelocity(a, b, mode)


class TestCanonicalize:
    def test_identity(self):
        p = canonicalize(np.eye(3), 1)
        np.testing.assert_array_equal(p.cols, np.eye(3, 1))

    def test_right_block_factor_is_quotiented_out(self):
        rng = np.random.default_rng(0)
        u = random_unitary(rng, 2)
        q = np.block([[np.eye(1), np.zeros((1, 2))], [np.zeros((2, 1)), u]])
        assert canonicalize(q, 1).same_class(identity_point(3, 1))

    def test_random_columns_orthonormal(self):
        rng = np.random.default_rng(1)
        p = canonicalize(random_unitary(rng, 4), 2)
        dev = np.max(np.abs(np.conj(p.cols).T @ p.cols - np.eye(2)))
        assert dev < 1e-10

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            canonicalize(np.eye(3), 4)
        with pytest.raises(ValueError):
            canonicalize(np.eye(3), 0)

    def test_idempotent_under_completion(self):
        rng = np.random.default_rng(2)
        p = canonicalize(random_unitary(rng, 5), 2)
        again = canonicalize(complete_to_group(p), 2)
        assert np.array_equal(again.cols, p.cols)

    def test_real_completion_has_unit_determinant(self):
        rng = np.random.default_rng(3)
        p = canonicalize(random_unitary(rng, 4, REAL), 2, REAL)
        q = complete_to_group(p)
        assert np.linalg.det(q.real) == pytest.approx(1.0, abs=1e-10)


class TestGrassmannProjection:
    def test_identity_class(self):
        g = project_to_grassmann(identity_point(3, 1))
        np.testing.assert_allclose(g.projector, np.diag([1.0, 0.0, 0.0]), atol=1e-14)

    def test_last_axis(self):
        cols = np.zeros((4, 1))
        cols[3, 0] = 1.0
        g = project_to_grassmann(StiefelPoint(cols))
        np.testing.assert_allclose(g.projector, np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-14)

    def test_fibre_invariance(self):
        rng = np.random.default_rng(4)
        p = canonicalize(random_unitary(rng, 4), 2)
        base = project_to_grassmann(p)
        for _ in range(100):
            u = random_unitary(rng, 2)
            moved = project_to_grassmann(p.right_multiply(u))
            assert np.max(np.abs(moved.projector - base.projector)) < 1e-10

    def test_phase_invariance_k1(self):
        rng = np.random.default_rng(5)
        p = canonicalize(random_unitary(rng, 3), 1)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        moved = project_to_grassmann(p.right_multiply([[phase]]))
        assert np.max(np.abs(moved.projector - project_to_grassmann(p).projector)) < 1e-10


class TestSplitTangent:
    def test_horizontal_input(self):
        rng = np.random.default_rng(6)
        v = BlockVelocity(np.zeros((2, 2)), matcore.random_matrix(rng, 2, 3)).embed()
        vert, horiz = split_tangent(v, 2)
        assert np.max(np.abs(vert.embed())) == 0.0
        np.testing.assert_array_equal(horiz.embed(), v)

    def test_fibre_direction(self):
        v = np.array([[1j, 0.0], [0.0, 0.0]])
        vert, horiz = split_tangent(v, 1)
        np.testing.assert_array_equal(vert.embed(), v)
        assert np.max(np.abs(horiz.embed())) == 0.0

    def test_parts_are_metric_orthogonal(self):
        rng = np.random.default_rng(7)
        full = random_stiefel_tangent(rng, 5, 2).embed()
        vert, horiz = split_tangent(full, 2)
        assert abs(metric(vert, horiz)) < 1e-10
        np.testing.assert_array_equal(vert.embed() + horiz.embed(), full)

    def test_rejects_nonzero_tail_block(self):
        rng = np.random.default_rng(8)
        bad = matcore.random_skew_hermitian(rng, 4)
        with pytest.raises(ValueError):
            split_tangent(bad, 2)


class TestConnectionForm:
    def test_kernel_is_horizontal(self):
        rng = np.random.default_rng(9)
        v = BlockVelocity(np.zeros((2, 2)), matcore.random_matrix(rng, 2, 2))
        assert np.max(np.abs(connection_form(v))) == 0.0

    def test_identity_on_fibre_algebra(self):
        v = BlockVelocity(np.array([[1j]]), np.zeros((1, 2)))
        np.testing.assert_array_equal(connection_form(v), np.array([[1j]]))

    def test_agrees_with_split(self):
        rng = np.random.default_rng(10)
        v = random_stiefel_tangent(rng, 5, 2)
        vert, _ = split_tangent(v.embed(), 2)
        np.testing.assert_array_equal(connection_form(v), vert.a_block)


class TestMetric:
    def test_unit_transversal_value(self):
        v = BlockVelocity(np.zeros((1, 1)), np.array([[1.0]]))
        assert metric(v, v) == pytest.approx(8.0, abs=1e-12)

    def test_vertical_orthogonal_to_horizontal(self):
        rng = np.random.default_rng(11)
        vert = BlockVelocity(matcore.random_skew_hermitian(rng, 2), np.zeros((2, 3)))
        horiz = BlockVelocity(np.zeros((2, 2)), matcore.random_matrix(rng, 2, 3))
        assert abs(metric(vert, horiz)) < 1e-12

    def test_zero(self):
        z = BlockVelocity(np.zeros((1, 1)), np.zeros((1, 1)))
        assert metric(z, z) == 0.0

    def test_symmetric_bilinear_positive(self):
        rng = np.random.default_rng(12)
        v = random_stiefel_tangent(rng, 4, 2)
        w = random_stiefel_tangent(rng, 4, 2)
        assert metric(v, w) == pytest.approx(metric(w, v), abs=1e-12)
        c = 1.7
        scaled = BlockVelocity(c * v.a_block, c * v.b_block)
        assert metric(scaled, w) == pytest.approx(c * metric(v, w), rel=1e-12)
        assert metric(v, v) > 0


class TestGroupAction:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_right_action_is_free(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n - 1))
        p = canonicalize(random_unitary(rng, n), k)
        u1 = random_unitary(rng, k)
        u2 = random_unitary(rng, k)
        if p.right_multiply(u1).same_class(p.right_multiply(u2)):
            assert np.max(np.abs(u1 - u2)) < 1e-9

    def test_recover_factor(self):
        rng = np.random.default_rng(13)
        p = canonicalize(random_unitary(rng, 5), 2)
        u = random_unitary(rng, 2)
        moved = p.right_multiply(u)
        rec = np.conj(p.cols).T @ moved.cols
        assert np.max(np.abs(rec - u)) < 1e-10


class TestDimensionAudit:
    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 3), (6, 1)])
    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    def test_block_space_dimensions(self, n, k, mode):
        units = [1.0] if mode == REAL else [1.0, 1j]
        mats = []
        for p in range(k):  # fibre block basis
            for q in range(p, k):
                if p == q:
                    if mode == COMPLEX:
                        a = np.zeros((k, k), dtype=complex)
                        a[p, p] = 1j
                        mats.append(BlockVelocity(a, np.zeros((k, n - k)), mode).embed())
                else:
                    for unit in units:
                        a = np.zeros((k, k), dtype=complex)
                        a[p, q] = unit
                        a[q, p] = -np.conj(unit)
                        mats.append(BlockVelocity(a, np.zeros((k, n - k)), mode).embed())
        vertical_count = len(mats)
        for p in range(k):  # transversal block basis
            for q in range(n - k):
                for unit in units:
                    b = np.zeros((k, n - k), dtype=complex)
                    b[p, q] = unit
                    mats.append(BlockVelocity(np.zeros((k, k)), b, mode).embed())
        rows = np.array(
            [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]
        )
        rank = np.linalg.matrix_rank(rows, tol=1e-8)
        assert rank == len(mats) == stiefel_tangent_dim(n, k, mode)
        assert len(mats) - vertical_count == horizontal_dim(n, k, mode)


class TestJsonRoundTrip:
    def test_stiefel_bit_exact(self):
        rng = np.random.default_rng(14)
        p = canonicalize(random_unitary(rng, 4), 2)
        back = StiefelPoint.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
        assert p.cols.tobytes() == back.cols.tobytes()
        assert (back.n, back.k, back.mode) == (4, 2, COMPLEX)

    def test_grassmann_bit_exact(self):
        rng = np.random.default_rng(15)
        g = project_to_grassmann(canonicalize(random_unitary(rng, 4), 2))
        back = GrassmannPoint.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
        assert g.projector.tobytes() == back.projector.tobytes()

    def test_velocity_bit_exact(self):
        rng = np.random.default_rng(16)
        v = random_stiefel_tangent(rng, 5, 2)
        back = BlockVelocity.from_json_dict(json.loads(json.dumps(v.to_json_dict())))
        assert v.a_block.tobytes() == back.a_block.tobytes()
        assert v.b_block.tobytes() == back.b_block.tobytes()

    def test_real_mode_round_trip(self):
        rng = np.random.default_rng(17)
        v = random_stiefel_tangent(rng, 4, 1, REAL)
        back = BlockVelocity.from_json_dict(json.loads(json.dumps(v.to_json_dict())))
        assert back.mode == REAL
        assert v.b_block.tobytes() == back.b_block.tobytes()


class TestInvariants:
    def test_stiefel_rejects_non_orthonormal(self):
        with pytest.raises(InvariantViolation):
            StiefelPoint(np.array([[1.0], [1.0]]))

    def test_grassmann_rejects_non_projector(self):
        with pytest.raises(InvariantViolation):
            GrassmannPoint(np.array([[0.5, 0.0], [0.0, 0.7]]), 1)

    def test_velocity_rejects_non_skew_fibre_block(self):
        with pytest.raises(InvariantViolation):
            BlockVelocity(np.array([[1.0]]), np.zeros((1, 1)))

    @pytest.mark.parametrize(
        "re, im, error",
        [
            ([[0, 1], [5, 7]], [[0, 0], [0, 3]], InvariantViolation),  # not skew-Hermitian
            ([[0, 1, 0], [-1, 0, 2], [0, -2, 0]], [[0] * 3] * 3, ValueError),  # lower-right block
        ],
        ids=["not-skew", "lower-right-block"],
    )
    def test_velocity_json_checks_the_full_matrix(self, re, im, error):
        d = {"n": len(re), "k": 1, "mode": COMPLEX, "re": re, "im": im}
        with pytest.raises(error) as info:
            BlockVelocity.from_json_dict(d)
        if error is ValueError:
            assert not isinstance(info.value, InvariantViolation)
            assert "lower-right block" in str(info.value)

    def test_class_equality_tolerance(self):
        # nearby on-manifold points compare equal at the class tolerance
        p = identity_point(3, 1)
        tiny = np.zeros((3, 3), dtype=complex)
        tiny[0, 1] = 3e-10
        tiny[1, 0] = -3e-10
        nudged = canonicalize(matcore.expm_skew(tiny, 1.0), 1)
        assert p.same_class(nudged)
        far = canonicalize(matcore.expm_skew(tiny * 1e4, 1.0), 1)
        assert not p.same_class(far)
