"""The k = 1 minimizer search, solved in the (rate, time) plane.

A velocity (i lam, b) with a unit row b reaches (T(lam, t), -conj(b) S(lam,
t)), so a k = 1 search solves T = q0 for the rate and the time and takes b
from the bottom entry.  Its reports are checked against the truth (the
generating or analytic length, and a 40-digit endpoint of every returned
velocity), against an independent oracle (``plane_least_root``: a
Lipschitz-pruned fine grid refined by scipy's least_squares) and at
degenerate targets: near the fold of T, where two roots meet at the
block-diagonal set; a block-diagonal root outside the grid's rate range;
and the antidiagonal target q0 = 0.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from _oracles import geodesic_columns_mp, plane_least_root
from stiefel_sr.cutlocus import VelocityGrid, real_antipodal_cut_point, search_minimizers
from stiefel_sr.geodesic import GeodesicSpec, length, normal_geodesic
from stiefel_sr.homspace import BlockVelocity, StiefelPoint
from stiefel_sr.matcore import COMPLEX, REAL

CRITERION_5_GRID = VelocityGrid(2, 1, COMPLEX, seed=505)


def _criterion_5_generic(index: int):
    """Criterion 5's generic draw ``index``: (target, generating length)."""
    rng = np.random.default_rng(506)
    for _ in range(index + 1):
        vel = BlockVelocity(
            np.array([[1j * rng.uniform(-2, 2)]]),
            np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]]),
        )
        t = rng.uniform(0.3, 0.5)
    return normal_geodesic(GeodesicSpec(vel), t), length(vel, t)


def _v21_dichotomy_generic(seed: int, index: int):
    """The generic target of the v21_dichotomy benchmark op, by its recipe (scipy's expm)."""
    rng = np.random.default_rng((seed, index + 1))
    lam, phi, t = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2 * np.pi), rng.uniform(0.3, 0.5)
    a = np.array([[1j * lam]])
    v = np.array([[1j * lam, np.exp(1j * phi)], [-np.exp(-1j * phi), 0.0]])
    return StiefelPoint(expm(t * v)[:, :1] @ expm(-t * a)), 2.0 * t * np.sqrt(2.0)


def _real_generic(n: int, seed: int):
    """A real V(n,1) endpoint and its true length sqrt(2) arccos(q0)."""
    rng = np.random.default_rng(seed)
    row = rng.standard_normal((1, n - 1))
    vel = BlockVelocity(np.zeros((1, 1)), row / np.linalg.norm(row), REAL)
    target = normal_geodesic(GeodesicSpec(vel), rng.uniform(0.3, 2.8))
    return target, np.sqrt(2.0) * np.arccos(target.cols[0, 0].real)


def _assert_true_endpoints(rep):
    for arr in rep.arrivals:
        v = arr.velocity
        end = geodesic_columns_mp(v.a_block, v.b_block, arr.t)
        assert np.linalg.norm(end - rep.target.point.cols) <= 1e-14


# (id, case) pairs; each case returns (target, true length, grid)
GENERIC_CASES = (
    [(f"c5_{i}", lambda i=i: (*_criterion_5_generic(i), CRITERION_5_GRID)) for i in range(10)]
    + [
        (f"dichotomy_s1_op{i}", lambda i=i: (*_v21_dichotomy_generic(1, i), VelocityGrid(2, 1)))
        for i in range(4)
    ]
    + [
        (f"real_v{n}1_{s}", lambda n=n, s=s: (*_real_generic(n, s), VelocityGrid(n, 1, REAL)))
        for n in (3, 4)
        for s in (1, 2)
    ]
)


class TestTruth:
    """Lengths within 1e-13 of the truth, and true endpoints within 1e-14."""

    @pytest.mark.parametrize("name", [name for name, _ in GENERIC_CASES])
    def test_generic_targets(self, name):
        target, truth, grid = dict(GENERIC_CASES)[name]()
        rep = search_minimizers(target, grid)
        assert rep.clusters == 1
        assert abs(rep.min_length - truth) <= 1e-13 * truth
        _assert_true_endpoints(rep)

    @pytest.mark.parametrize("c", np.linspace(0.3, 1.7, 5) * np.pi)
    def test_block_diagonal_targets(self, c):
        grid = VelocityGrid(2, 1, COMPLEX, seed=505, phase_count=8)
        rep = search_minimizers(StiefelPoint(np.array([[np.exp(1j * c)], [0.0]])), grid)
        truth = 2 * np.sqrt(2) * np.pi * np.sqrt(1 - (1 - c / np.pi) ** 2)
        assert rep.clusters == len(rep.arrivals) == 8  # one per grid direction
        assert abs(rep.min_length - truth) <= 1e-13 * truth
        _assert_true_endpoints(rep)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_real_antipodes(self, n):
        grid = VelocityGrid(n, 1, REAL, seed=808 + n, direction_count=8)
        rep = search_minimizers(real_antipodal_cut_point(n), grid)
        assert rep.clusters >= 2
        assert abs(rep.min_length - np.sqrt(2) * np.pi) <= 1e-13 * np.sqrt(2) * np.pi
        assert all(abs(arr.t - np.pi) <= 1e-15 for arr in rep.arrivals)
        _assert_true_endpoints(rep)


def _generic_target(rng, n: int, t_range: tuple[float, float]):
    """The endpoint of (i lam, b), |b| = 1, at a time t_range times its first vanishing time."""
    lam = rng.uniform(-2.5, 2.5)
    row = rng.standard_normal((1, n - 1)) + 1j * rng.standard_normal((1, n - 1))
    vel = BlockVelocity(np.array([[1j * lam]]), row / np.linalg.norm(row))
    t = rng.uniform(*t_range) * np.pi / np.hypot(lam / 2, 1.0)
    return normal_geodesic(GeodesicSpec(vel), t)


def _assert_matches_oracle(target, grid, rel: float = 1e-12):
    """The search's least root against the oracle's: both none, or lengths within ``rel``."""
    rep = search_minimizers(target, grid)
    root = plane_least_root(target.cols[:, 0], grid.lambda_range, grid.t_max)
    assert rep.diagnostics.capped == 0
    if root is None:
        assert rep.arrivals == ()
        return rep
    truth = root[0] * 2 * np.sqrt(grid.n)
    assert abs(rep.min_length - truth) <= rel * truth
    return rep


class TestAgainstOracle:
    """The least root in the grid's window against ``plane_least_root``."""

    @pytest.mark.parametrize(
        "grid",
        [
            CRITERION_5_GRID,
            VelocityGrid(2, 1, COMPLEX, family="general", sample_count=512, seed=3),
            VelocityGrid(3, 1, COMPLEX, family="general", sample_count=512, seed=4),
            VelocityGrid(3, 1, COMPLEX, lambda_count=16, direction_count=32, seed=5),
        ],
        ids=["v21", "general_v21", "general_v31", "sphere_v31"],
    )
    def test_random_generic_targets(self, grid):
        # before and past the first vanishing time, where a shorter root takes over
        rng = np.random.default_rng(grid.n + grid.sample_count)
        for t_range in ((0.1, 0.95), (0.1, 0.95), (1.02, 1.3)):
            target = _generic_target(rng, grid.n, t_range)
            _assert_matches_oracle(target, grid)


class TestDegenerateTargets:
    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_near_the_fold(self, delta):
        """At t = (1 - delta) pi / omega the two roots on either side of the
        fold sin(t omega) = 0 are 2 delta pi / omega apart and ill-conditioned;
        the shorter one is the generating geodesic."""
        rng = np.random.default_rng(int(-np.log10(delta)))
        for _ in range(4):
            lam, phi = rng.uniform(-2.5, 2.5), rng.uniform(0, 2 * np.pi)
            vel = BlockVelocity(np.array([[1j * lam]]), np.array([[np.exp(1j * phi)]]))
            t = (1 - delta) * np.pi / np.hypot(lam / 2, 1.0)
            target = normal_geodesic(GeodesicSpec(vel), t)
            rep = _assert_matches_oracle(target, CRITERION_5_GRID, rel=1e-9)
            assert rep.arrivals
            assert abs(rep.min_length - length(vel, t)) <= 1e-9 * length(vel, t)

    def test_block_diagonal_root_outside_the_rate_range(self):
        # e^{0.3 i pi} e1 is reached at lam = 1.4 / sqrt(0.51), outside (-1, 1)
        grid = VelocityGrid(2, 1, COMPLEX, lambda_range=(-1.0, 1.0), phase_count=8)
        target = StiefelPoint(np.array([[np.exp(0.3j * np.pi)], [0.0]]))
        rep = _assert_matches_oracle(target, grid)
        assert rep.arrivals == () and rep.min_length is None

    def test_antidiagonal_target(self):
        # q0 = 0: lam = 0, t = pi / 2, the length sqrt(2) pi
        target = StiefelPoint(np.array([[0.0], [1.0]]))
        rep = _assert_matches_oracle(target, CRITERION_5_GRID)
        assert rep.clusters == 1
        assert abs(rep.min_length - np.sqrt(2) * np.pi) <= 1e-14 * np.sqrt(2) * np.pi
        (arr,) = rep.arrivals
        assert abs(arr.velocity.a_block[0, 0]) <= 1e-15 and abs(arr.t - np.pi / 2) <= 1e-15
