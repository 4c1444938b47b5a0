import csv

import numpy as np
import pytest

from stiefel_sr import matcore
from stiefel_sr.matcore import COMPLEX, REAL, InvariantViolation, adjoint, expm_skew
from stiefel_sr.homspace import BlockVelocity, connection_form, identity_point, project_to_grassmann
from stiefel_sr.geodesic import (
    GeodesicSpec,
    first_vanishing_time,
    geodesic_v21_closed,
    geodesic_vn1_closed,
    grassmann_geodesic_2kk,
    length,
    mirror_velocity,
    normal_geodesic,
    sample_curve,
    speed_squared,
    write_curve_csv,
)

from _oracles import fd_velocity, geodesic_columns_mp, simpson_curve_length


def v21(lam, x2):
    return BlockVelocity(np.array([[1j * lam]]), np.array([[x2]], dtype=complex))


def random_velocity(rng, n, k, mode=COMPLEX):
    return BlockVelocity(
        matcore.random_skew_hermitian(rng, k, mode),
        matcore.random_matrix(rng, k, n - k, mode),
        mode,
    )


class TestNormalGeodesic:
    def test_zero_velocity_stays_at_identity(self):
        spec = GeodesicSpec(BlockVelocity(np.zeros((1, 1)), np.zeros((1, 2))))
        for t in (0.0, 0.5, 3.0):
            assert normal_geodesic(spec, t).same_class(identity_point(3, 1))

    def test_pure_fibre_velocity_stays_at_identity(self):
        # the two exponential factors cancel on the first columns
        rng = np.random.default_rng(0)
        a = matcore.random_skew_hermitian(rng, 2)
        spec = GeodesicSpec(BlockVelocity(a, np.zeros((2, 2))))
        for t in (0.3, 1.7, 5.0):
            assert normal_geodesic(spec, t).same_class(identity_point(4, 2))

    def test_unit_transversal_reaches_antipode(self):
        spec = GeodesicSpec(v21(0.0, 1.0))
        p = normal_geodesic(spec, np.pi)
        np.testing.assert_allclose(p.cols, [[-1.0], [0.0]], atol=1e-12)

    def test_starts_at_identity(self):
        rng = np.random.default_rng(1)
        spec = GeodesicSpec(random_velocity(rng, 5, 2))
        assert normal_geodesic(spec, 0.0).same_class(identity_point(5, 2))

    def test_sample_matches_definition(self):
        # first k columns of exp(t v) . blockdiag(exp(-t a), I)
        rng = np.random.default_rng(2)
        vel = random_velocity(rng, 5, 2)
        t = 0.83
        full = expm_skew(vel.embed(), t)
        right = np.eye(5, dtype=complex)
        right[:2, :2] = expm_skew(vel.a_block, -t)
        expected = (full @ right)[:, :2]
        got = normal_geodesic(GeodesicSpec(vel), t)
        assert np.max(np.abs(got.cols - expected)) < 1e-12


class TestV21ClosedForm:
    def test_time_zero(self):
        assert geodesic_v21_closed(1.3, 0.4 + 0.2j, 0.0) == (1.0, 0.0, 0.0, 1.0)

    def test_reaches_block_diagonal(self):
        g1, g2, g3, g4 = geodesic_v21_closed(0.0, 1.0, np.pi)
        assert abs(g1 + 1.0) < 1e-12 and abs(g3) < 1e-12

    def test_matrix_is_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = rng.uniform(-3, 3)
            x2 = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            t = rng.uniform(0, 2 * np.pi)
            g = np.array(geodesic_v21_closed(lam, x2, t)).reshape(2, 2)
            dev = np.max(np.abs(adjoint(g) @ g - np.eye(2)))
            assert dev < 1e-9

    def test_matches_generic_evaluator(self):
        # against the exponential, not sample_curve: at every k = 1 shape
        # the evaluator runs this same closed form
        rng = np.random.default_rng(4)
        for _ in range(200):
            lam = rng.uniform(-3, 3)
            x2 = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            t = rng.uniform(0, 2 * np.pi)
            g1, _, g3, _ = geodesic_v21_closed(lam, x2, t)
            cols = expm_skew(v21(lam, x2).embed(), t)[:, :1] * np.exp(-1j * lam * t)
            assert abs(g1 - cols[0, 0]) < 1e-9
            assert abs(g3 - cols[1, 0]) < 1e-9

    def test_zero_transversal_branch(self):
        assert geodesic_v21_closed(0.0, 0.0, 2.0) == (1.0, 0.0, 0.0, 1.0)
        g1, g2, g3, g4 = geodesic_v21_closed(1.5, 0.0, 2.0)
        assert abs(g1 - 1.0) < 1e-12 and abs(g3) < 1e-12


class TestVn1ClosedForm:
    def test_time_zero(self):
        g1, g3 = geodesic_vn1_closed(0.7, [0.1, 0.2j, -0.3], 0.0)
        assert g1 == 1.0 and np.max(np.abs(g3)) == 0.0

    def test_reduces_to_v21(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = rng.uniform(-3, 3)
            x2 = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            t = rng.uniform(0, 2 * np.pi)
            a1, _, a3, _ = geodesic_v21_closed(lam, x2, t)
            b1, b3 = geodesic_vn1_closed(lam, [x2], t)
            assert abs(a1 - b1) < 1e-10 and abs(a3 - b3[0]) < 1e-10

    def test_unit_row_meets_block_diagonal_at_pi(self):
        b = np.array([0.6, 0.0, 0.8j])
        g1, g3 = geodesic_vn1_closed(0.0, b, np.pi)
        assert np.max(np.abs(g3)) < 1e-12
        assert abs(abs(g1) - 1.0) < 1e-12

    def test_column_is_normalized(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            x = rng.uniform(-3, 3)
            row = matcore.random_matrix(rng, 1, n - 1).reshape(-1)
            t = rng.uniform(0, 2 * np.pi)
            g1, g3 = geodesic_vn1_closed(x, row, t)
            assert abs(abs(g1) ** 2 + float(np.sum(np.abs(g3) ** 2)) - 1.0) < 1e-10

    def test_matches_generic_evaluator(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            x = rng.uniform(-3, 3)
            row = matcore.random_matrix(rng, 1, n - 1)
            t = rng.uniform(0, 2 * np.pi)
            vel = BlockVelocity(np.array([[1j * x]]), row)
            cols = expm_skew(vel.embed(), t)[:, :1] * np.exp(-1j * x * t)
            g1, g3 = geodesic_vn1_closed(x, row.reshape(-1), t)
            closed = np.concatenate([[g1], g3]).reshape(-1, 1)
            assert np.max(np.abs(closed - cols)) < 1e-9


class TestGrassmann2kk:
    def test_time_zero(self):
        b = np.array([[0.3, 0.1], [0.0, 0.5]], dtype=complex)
        g1, g3 = grassmann_geodesic_2kk(b, 0.0)
        np.testing.assert_allclose(g1, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(g3, np.zeros((2, 2)), atol=1e-14)

    def test_scaled_unitary_direction_hits_antidiagonal(self):
        rng = np.random.default_rng(8)
        k = 3
        q = matcore.random_unitary(rng, k)
        b = q / np.sqrt(k)  # trace normalization
        t0 = np.pi * np.sqrt(k) / 2
        g1, g3 = grassmann_geodesic_2kk(b, t0)
        assert np.max(np.abs(g1)) < 1e-9
        np.testing.assert_allclose(g3, -np.sqrt(k) * adjoint(b), atol=1e-9)

    def test_zero_direction(self):
        z = np.zeros((2, 2))
        for t in (0.0, 1.0, 4.0):
            g1, g3 = grassmann_geodesic_2kk(z, t)
            np.testing.assert_allclose(g1, np.eye(2), atol=1e-14)
            np.testing.assert_allclose(g3, np.zeros((2, 2)), atol=1e-14)

    def test_singular_direction_uses_sin_limit(self):
        b = np.diag([0.8, 0.0]).astype(complex)
        g1, g3 = grassmann_geodesic_2kk(b, 1.2)
        np.testing.assert_allclose(g1, np.diag([np.cos(1.2 * 0.8), 1.0]), atol=1e-12)
        np.testing.assert_allclose(g3, np.diag([-np.sin(1.2 * 0.8), 0.0]), atol=1e-12)

    def test_matches_generic_exponential(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            b = matcore.random_matrix(rng, k, k)
            t = rng.uniform(0, 2 * np.pi)
            full = np.zeros((2 * k, 2 * k), dtype=complex)
            full[:k, k:] = b
            full[k:, :k] = -adjoint(b)
            e = expm_skew(full, t)
            g1, g3 = grassmann_geodesic_2kk(b, t)
            assert np.max(np.abs(g1 - e[:k, :k])) < 1e-9
            assert np.max(np.abs(g3 - e[k:, :k])) < 1e-9

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_stacked_blocks_match_one_call_per_block(self, k):
        rng = np.random.default_rng(10 + k)
        b = np.stack([matcore.random_matrix(rng, k, k) for _ in range(6)])
        b[2] = 0.0
        b[3, 0] = 0.0  # singular
        ts = rng.uniform(0.0, 2.0 * np.pi, 6)
        ts[1] = 0.0
        g1, g3 = grassmann_geodesic_2kk(b, ts)
        assert g1.shape == g3.shape == (6, k, k)
        for i in range(6):
            one1, one3 = grassmann_geodesic_2kk(b[i], ts[i])
            assert np.max(np.abs(g1[i] - one1)) <= 1e-15
            assert np.max(np.abs(g3[i] - one3)) <= 1e-15


class TestGrassmannLift:
    """The a = 0 lift of a minimizing Grassmann geodesic reaches P = [X; Y] at t = 1.

    With X = W cos(Theta) W* and Y = -V sin(Theta) W* (W unitary, V with
    orthonormal columns, the principal angles Theta in (0, pi/2]), the
    velocity a = 0, b = -W diag(theta / sin theta) W* Y* = W Theta V* has
    length sqrt(c sum theta_i^2), the Grassmann distance d_Gr of the
    target's top block (c = 4n complex, 2 real): the bound that no curve to
    the target undercuts.  At X = 0 (every theta = pi/2, the V(2k,k)
    antidiagonal point) its trace-normalized time |b| is t0 = pi sqrt(k) / 2.
    """

    @pytest.mark.parametrize(
        "n, k, mode",
        [(4, 2, COMPLEX), (4, 2, REAL), (6, 3, COMPLEX), (5, 2, COMPLEX), (5, 2, REAL)],
    )
    @pytest.mark.parametrize("antidiagonal", [False, True], ids=["interior", "x_zero"])
    def test_reaches_the_target_at_the_grassmann_length(self, n, k, mode, antidiagonal):
        rng = np.random.default_rng(n + 10 * k + (mode == REAL))
        theta = np.full(k, np.pi / 2) if antidiagonal else rng.uniform(0.05, 1.5, k)
        w = matcore.random_unitary(rng, k, mode)
        v = matcore.random_unitary(rng, n - k, mode)[:, :k]
        x = w @ np.diag(np.cos(theta)) @ adjoint(w)
        y = -v @ np.diag(np.sin(theta)) @ adjoint(w)
        b = -w @ np.diag(theta / np.sin(theta)) @ adjoint(w) @ adjoint(y)
        vel = BlockVelocity(np.zeros((k, k)), b, mode)
        target = np.vstack([x, y])

        for endpoint in (
            normal_geodesic(GeodesicSpec(vel), 1.0).cols,
            geodesic_columns_mp(vel.a_block, vel.b_block, 1.0),
        ):
            assert np.max(np.abs(endpoint - target)) <= 1e-13
        c = 4 * n if mode == COMPLEX else 2
        d_gr = np.sqrt(c * np.sum(theta**2))
        assert abs(length(vel, 1.0) - d_gr) <= 1e-14 * d_gr
        if antidiagonal:
            t0 = np.pi * np.sqrt(k) / 2
            assert abs(np.linalg.norm(b) - t0) <= 1e-14 * t0


class TestSpeedAndLength:
    def test_unit_transversal_values(self):
        vel = v21(0.0, 1.0)
        assert speed_squared(vel) == pytest.approx(8.0, abs=1e-15)
        assert length(vel, 1.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)

    def test_pure_fibre_velocity_has_zero_speed(self):
        vel = BlockVelocity(np.array([[2j]]), np.zeros((1, 3)))
        assert speed_squared(vel) == 0.0

    def test_length_formula(self):
        rng = np.random.default_rng(10)
        vel = random_velocity(rng, 5, 2)
        t = 1.7
        bb = float(np.sum(np.abs(vel.b_block) ** 2))
        assert length(vel, t) == pytest.approx(2 * t * np.sqrt(5 * bb), rel=1e-12)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, min(3, n - 1) + 1))
            vel = random_velocity(rng, n, k)
            t = rng.uniform(0.5, 2.0)
            quad = simpson_curve_length(GeodesicSpec(vel), t)
            assert length(vel, t) == pytest.approx(quad, rel=1e-6)

    def test_independent_of_fibre_block(self):
        rng = np.random.default_rng(12)
        b = matcore.random_matrix(rng, 2, 3)
        base = length(BlockVelocity(np.zeros((2, 2)), b), 0.9)
        for _ in range(100):
            a = matcore.random_skew_hermitian(rng, 2)
            assert abs(length(BlockVelocity(a, b), 0.9) - base) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            length(v21(0.0, 1.0), -1.0)

    def test_real_mode_scaling(self):
        b = np.array([[1.0, 0.0]])
        vel = BlockVelocity(np.zeros((1, 1)), b, REAL)
        assert speed_squared(vel) == pytest.approx(2.0, abs=1e-15)


class TestFirstVanishingTime:
    def test_unit_row(self):
        assert first_vanishing_time(0.0, [1.0]) == pytest.approx(np.pi, rel=1e-15)

    def test_mixed_values(self):
        # x = 3, ||b|| = 2 -> 2 pi / 5
        assert first_vanishing_time(3.0, [2.0, 0.0, 0.0]) == pytest.approx(
            2 * np.pi / 5, rel=1e-15
        )

    def test_column_vanishes_there(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            x = rng.uniform(-3, 3)
            row = matcore.random_matrix(rng, 1, n - 1).reshape(-1)
            t = first_vanishing_time(x, row)
            _, g3 = geodesic_vn1_closed(x, row, t)
            assert np.max(np.abs(g3)) < 1e-9

    def test_zero_velocity_rejected(self):
        with pytest.raises(ValueError):
            first_vanishing_time(0.0, [0.0, 0.0])


class TestMirrorVelocity:
    def test_default_factor_negates_transversal(self):
        rng = np.random.default_rng(14)
        vel = random_velocity(rng, 5, 2)
        star = mirror_velocity(vel)
        np.testing.assert_array_equal(star.a_block, vel.a_block)
        np.testing.assert_array_equal(star.b_block, -vel.b_block)

    def test_zero_transversal_unchanged(self):
        vel = BlockVelocity(np.array([[1j]]), np.zeros((1, 2)))
        star = mirror_velocity(vel)
        assert np.max(np.abs(star.embed() - vel.embed())) == 0.0

    def test_speed_preserved_under_unitary_factor(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            vel = random_velocity(rng, 5, 2)
            u = matcore.random_unitary(rng, 3)
            assert speed_squared(mirror_velocity(vel, u)) == pytest.approx(
                speed_squared(vel), rel=1e-12
            )

    def test_rejects_non_unitary_factor(self):
        rng = np.random.default_rng(16)
        vel = random_velocity(rng, 4, 2)
        with pytest.raises(InvariantViolation):
            mirror_velocity(vel, np.diag([2.0, 1.0]))


class TestCurveInvariants:
    def test_horizontality(self):
        rng = np.random.default_rng(17)
        vel = random_velocity(rng, 5, 2)
        spec = GeodesicSpec(vel)
        for t in (0.2, 0.9, 1.7):
            dc = fd_velocity(spec, t)
            cols = sample_curve(spec, [t])[0]
            fibre_part = np.conj(cols).T @ dc
            assert np.max(np.abs(fibre_part)) < 1e-6

    def test_constant_speed(self):
        rng = np.random.default_rng(18)
        vel = random_velocity(rng, 4, 2)
        spec = GeodesicSpec(vel)
        from _oracles import fd_speed_squared

        base = speed_squared(vel)
        for t in np.linspace(0.1, 2 * np.pi, 9):
            assert fd_speed_squared(spec, float(t)) == pytest.approx(base, rel=1e-6)

    def test_projection_compatibility(self):
        # the curve is a horizontal lift: its projection is the base geodesic
        rng = np.random.default_rng(19)
        vel = random_velocity(rng, 4, 2)
        spec = GeodesicSpec(vel)
        for t in (0.3, 1.1, 2.2):
            p = normal_geodesic(spec, t)
            grass = project_to_grassmann(p)
            base_cols = expm_skew(vel.embed(), t)[:, :2]
            base_proj = base_cols @ adjoint(base_cols)
            assert np.max(np.abs(grass.projector - base_proj)) < 1e-10

    def test_pullback_velocity_has_zero_connection_form(self):
        rng = np.random.default_rng(20)
        vel = random_velocity(rng, 5, 2)
        for t in (0.4, 1.3):
            ea = expm_skew(vel.a_block, t)
            pullback = BlockVelocity(np.zeros((2, 2)), ea @ vel.b_block)
            assert np.max(np.abs(connection_form(pullback))) == 0.0


class TestCsvEmission:
    def test_round_trip(self, tmp_path):
        vel = v21(0.0, 1.0)
        spec = GeodesicSpec(vel)
        ts = np.linspace(0.0, np.pi, 5)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, spec, ts)
        lines = path.read_text().splitlines()
        assert lines[0] == "# n=2 k=1 mode=complex"
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["t", "re_0_0", "im_0_0", "re_1_0", "im_1_0"]
        final = [float(v) for v in rows[-1]]
        assert final[0] == pytest.approx(np.pi)
        assert final[1] == pytest.approx(-1.0, abs=1e-12)  # re of top entry
        assert abs(final[3]) < 1e-12  # re of bottom entry

    def test_values_match_curve(self, tmp_path):
        rng = np.random.default_rng(21)
        vel = random_velocity(rng, 3, 1)
        spec = GeodesicSpec(vel)
        ts = np.linspace(0.0, 1.0, 4)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, spec, ts)
        rows = list(csv.reader(path.read_text().splitlines()[2:]))
        cols = sample_curve(spec, ts)
        for row, c in zip(rows, cols):
            vals = [float(v) for v in row]
            flat = []
            for i in range(3):
                flat += [c[i, 0].real, c[i, 0].imag]
            np.testing.assert_array_equal(vals[1:], flat)
