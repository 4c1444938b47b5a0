import numpy as np
import pytest

from stiefel_sr.matcore import COMPLEX, REAL
from stiefel_sr.homspace import BlockVelocity, StiefelPoint, identity_point
from stiefel_sr.geodesic import (
    GeodesicSpec,
    grassmann_geodesic_2kk,
    length,
    normal_geodesic,
)
from stiefel_sr.cutlocus import (
    ANTIDIAGONAL,
    BLOCK_DIAGONAL,
    GENERIC,
    VelocityGrid,
    classify_target,
    first_block_diagonal_hit,
    in_block_diagonal_set,
    is_antidiagonal,
    real_antipodal_cut_point,
    sample_block_diagonal_hitting_velocity,
    search_minimizers,
    uniqueness_case_checks,
    verify_antidiagonal_arrivals,
    verify_mirror_arrivals,
)


def v21(lam, x2):
    return BlockVelocity(np.array([[1j * lam]]), np.array([[x2]], dtype=complex))


class TestPredicates:
    def test_identity_is_excluded(self):
        assert not in_block_diagonal_set(identity_point(3, 1))

    def test_phase_point_is_in(self):
        cols = np.array([[np.exp(1j * np.pi / 3)], [0.0]])
        assert in_block_diagonal_set(StiefelPoint(cols))

    def test_rotated_point_is_out(self):
        assert not in_block_diagonal_set(StiefelPoint(np.array([[0.0], [1.0]])))

    def test_antidiagonal(self):
        cols = np.array([[0.0], [1.0]])
        p = StiefelPoint(cols)
        assert is_antidiagonal(p)
        assert classify_target(p).kind == ANTIDIAGONAL

    def test_classification(self):
        assert classify_target(identity_point(2, 1)).kind == GENERIC
        cols = np.array([[-1.0], [0.0]])
        assert classify_target(StiefelPoint(cols)).kind == BLOCK_DIAGONAL


class TestSearchV21:
    def test_block_diagonal_target_has_a_circle_of_minimizers(self):
        target = StiefelPoint(np.array([[-1.0], [0.0]]))
        rep = search_minimizers(target, VelocityGrid(2, 1, COMPLEX, seed=1))
        assert rep.clusters >= 8
        assert rep.min_length == pytest.approx(2 * np.sqrt(2) * np.pi, rel=1e-6)
        for arr in rep.arrivals:
            assert arr.endpoint_error <= 1e-8

    def test_generic_target_has_one_minimizer(self):
        vel = v21(1.0, 1.0)
        target = normal_geodesic(GeodesicSpec(vel), 0.3)
        rep = search_minimizers(target, VelocityGrid(2, 1, COMPLEX, seed=1))
        assert rep.clusters == 1
        assert rep.min_length == pytest.approx(length(vel, 0.3), rel=1e-6)

    def test_identity_target_is_degenerate(self):
        rep = search_minimizers(identity_point(2, 1), VelocityGrid(2, 1, COMPLEX))
        assert rep.clusters == 1 and len(rep.arrivals) == 1
        arr = rep.arrivals[0]
        assert arr.t == 0.0 and arr.length == 0.0
        assert np.max(np.abs(arr.velocity.embed())) == 0.0

    def test_deterministic_given_seed(self):
        target = StiefelPoint(np.array([[-1.0], [0.0]]))
        grid = VelocityGrid(2, 1, COMPLEX, seed=7, lambda_count=16, phase_count=16)
        r1 = search_minimizers(target, grid)
        r2 = search_minimizers(target, grid)
        assert r1.clusters == r2.clusters
        assert len(r1.arrivals) == len(r2.arrivals)
        for a, b in zip(r1.arrivals, r2.arrivals):
            assert a.t == b.t and a.length == b.length
            assert np.array_equal(a.velocity.embed(), b.velocity.embed())

    def test_empty_report_when_window_excludes_target(self):
        target = StiefelPoint(np.array([[-1.0], [0.0]]))
        grid = VelocityGrid(2, 1, COMPLEX, t_max=0.5, t_count=64)
        rep = search_minimizers(target, grid)
        assert rep.arrivals == () and rep.clusters == 0 and rep.min_length is None

    def test_eps_hit_floor_enforced(self):
        target = StiefelPoint(np.array([[-1.0], [0.0]]))
        with pytest.raises(ValueError):
            search_minimizers(target, VelocityGrid(2, 1, COMPLEX), eps_hit=1e-12)

    def test_general_family_smoke(self):
        # forcing the low-discrepancy family on V_{2,1} still finds the circle
        target = StiefelPoint(np.array([[-1.0], [0.0]]))
        grid = VelocityGrid(2, 1, COMPLEX, family="general", sample_count=512, seed=3)
        rep = search_minimizers(target, grid)
        assert rep.clusters >= 2
        assert rep.min_length == pytest.approx(2 * np.sqrt(2) * np.pi, rel=1e-6)


class TestSearchRealSphere:
    def test_cut_point_has_many_minimizers(self):
        for n in (2, 3):
            rep = search_minimizers(
                real_antipodal_cut_point(n), VelocityGrid(n, 1, REAL, seed=2)
            )
            assert rep.clusters >= 2
            for arr in rep.arrivals:
                assert arr.t == pytest.approx(np.pi, rel=1e-6)
            assert rep.min_length == pytest.approx(np.sqrt(2) * np.pi, rel=1e-6)

    def test_generic_target_unique(self):
        b = np.array([[0.6, -0.8]]) / 1.0
        vel = BlockVelocity(np.zeros((1, 1)), b, REAL)
        target = normal_geodesic(GeodesicSpec(vel), 0.7)
        rep = search_minimizers(target, VelocityGrid(3, 1, REAL, seed=2))
        assert rep.clusters == 1

    def test_general_family_real_smoke(self):
        b = np.array([[0.6, -0.8]])
        vel = BlockVelocity(np.zeros((1, 1)), b, REAL)
        target = normal_geodesic(GeodesicSpec(vel), 0.7)
        grid = VelocityGrid(3, 1, REAL, family="general", sample_count=256, seed=9)
        rep = search_minimizers(target, grid)
        assert rep.clusters >= 1
        assert rep.min_length == pytest.approx(length(vel, 0.7), rel=1e-6)

    def test_cut_point_values(self):
        p = real_antipodal_cut_point(2)
        np.testing.assert_array_equal(p.cols.real, [[-1.0], [0.0]])
        assert p.mode == REAL
        assert in_block_diagonal_set(p)
        with pytest.raises(ValueError):
            real_antipodal_cut_point(1)


class TestMirrorArrivals:
    def test_sampled_velocities_hit(self):
        rng = np.random.default_rng(3)
        for n, k, mode in [(2, 1, COMPLEX), (4, 2, COMPLEX), (5, 2, REAL)]:
            vel, t_exp = sample_block_diagonal_hitting_velocity(rng, n, k, mode)
            t_hit = first_block_diagonal_hit(GeodesicSpec(vel), 1.15 * t_exp)
            assert t_hit is not None
            assert t_hit == pytest.approx(t_exp, rel=1e-6)
            assert in_block_diagonal_set(normal_geodesic(GeodesicSpec(vel), t_hit))

    def test_zero_transversal_never_hits(self):
        vel = BlockVelocity(np.array([[1j]]), np.zeros((1, 1)))
        assert first_block_diagonal_hit(GeodesicSpec(vel), 5.0) is None

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2)])
    def test_passes(self, n, k):
        summ = verify_mirror_arrivals(n, k, samples=10, seed=n * 10 + k)
        assert summ.passed
        assert summ.max_endpoint_gap < 1e-8
        assert summ.max_length_gap < 1e-10
        assert summ.min_velocity_separation > 1e-3

    def test_real_mode_passes(self):
        summ = verify_mirror_arrivals(3, 1, samples=10, seed=5, mode=REAL)
        assert summ.passed

    def test_v21_hundred_samples(self):
        summ = verify_mirror_arrivals(2, 1, samples=100, seed=21)
        assert summ.passed and summ.samples == 100

    @pytest.mark.parametrize(
        "n,k,mode,seed",
        [(3, 1, REAL, 1674532414), (2, 1, COMPLEX, 2023250079), (4, 2, REAL, 1193158781)],
    )
    def test_random_twin_may_coincide_with_velocity(self, n, k, mode, seed):
        # each seed draws a random factor u near -I, so the twin (a, -b u) is
        # within TOL.vel of the velocity; only (a, -b) must be distinct
        summ = verify_mirror_arrivals(n, k, samples=8, seed=seed, mode=mode)
        assert summ.passed and summ.failures == 0
        assert summ.max_endpoint_gap < 1e-8
        assert summ.max_length_gap < 1e-10
        assert summ.min_velocity_separation > 1e-3

    def test_zero_transversal_sample_is_skipped(self):
        quiet = BlockVelocity(np.array([[1j]]), np.zeros((1, 1)))
        mover, t_exp = sample_block_diagonal_hitting_velocity(
            np.random.default_rng(0), 2, 1, COMPLEX
        )
        summ = verify_mirror_arrivals(
            2, 1, samples=1, _velocities=[(quiet, 1.0), (mover, t_exp)]
        )
        assert summ.skipped == 1 and summ.samples == 1 and summ.passed


class TestAntidiagonalArrivals:
    def test_k1_time(self):
        summ = verify_antidiagonal_arrivals(1, samples=10, seed=1)
        assert summ.passed
        assert summ.t_zero == pytest.approx(np.pi / 2, rel=1e-15)

    def test_k2_identity_direction(self):
        b = np.eye(2) / np.sqrt(2)
        t0 = np.pi * np.sqrt(2) / 2
        _, g3 = grassmann_geodesic_2kk(b, t0)
        np.testing.assert_allclose(g3, -np.eye(2), atol=1e-12)

    def test_k2_nonunitary_first_zero_is_late(self):
        d = np.diag([0.9, np.sqrt(1 - 0.81)]).astype(complex)
        sig = np.linalg.svd(d, compute_uv=False)
        assert np.pi / (2 * sig[-1]) > np.pi * np.sqrt(2) / 2

    @pytest.mark.parametrize("mode", [COMPLEX, REAL])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_passes(self, k, mode):
        summ = verify_antidiagonal_arrivals(k, samples=10, seed=4, mode=mode)
        assert summ.passed, summ


class TestUniquenessChecks:
    def test_passes(self):
        summ = uniqueness_case_checks(4, trials=100, seed=5)
        assert summ.passed
        assert summ.sin_ratio_strictly_decreasing

    def test_tan_ratio_example(self):
        assert np.tan(0.5) / 0.5 == pytest.approx(1.0926, abs=1e-4)
        assert np.tan(1.0) / 1.0 == pytest.approx(1.5574, abs=1e-4)
        assert abs(np.tan(0.5) / 0.5 - np.tan(1.0) / 1.0) > 1e-9


class TestGridValidation:
    def test_target_grid_mismatch(self):
        with pytest.raises(ValueError):
            search_minimizers(identity_point(3, 1), VelocityGrid(2, 1, COMPLEX))

    def test_family_constraints(self):
        with pytest.raises(ValueError):
            search_minimizers(
                identity_point(3, 2), VelocityGrid(3, 2, COMPLEX, family="v21")
            )
