"""The k = 1 minimizer search, solved in one dimension along the fold branches.

A velocity (i lam, b) with a unit row b reaches (T(lam, t), -conj(b) S(lam,
t)).  A target (q0, q1) fixes |S| = |q1|, which leaves one closed loop in
(lam, t omega) per fold branch m pi <= t omega <= (m + 1) pi, and on it one
real equation, arg(T conj(q0)) = 0; every root is solved by one Newton pass
on one complex residual, and b comes from the bottom entry.  Its reports are
checked against the truth (the generating or analytic length, and a
40-digit endpoint of every returned velocity), against an independent
oracle (``plane_least_root``: a Lipschitz-pruned fine grid in the (rate,
time) plane refined by scipy's least_squares), across |q0| from 1e-8 to 1 -
1e-12, against the Grassmann lower bound sqrt(c) arccos(|q0| / |q|) and at
degenerate targets: near the fold of T, where two roots meet at the
block-diagonal set (down to 5e-10 from it, with one cluster at the
generating length); a block-diagonal root outside the grid's rate range;
and q0 = 0, reached at lam = 0, t = pi / 2.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from _oracles import geodesic_columns_mp, plane_least_root
from stiefel_sr import cutlocus, geodesic
from stiefel_sr.cutlocus import (
    GENERIC,
    VelocityGrid,
    classify_target,
    real_antipodal_cut_point,
    search_minimizers,
)
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


def _assert_above_the_grassmann_bound(rep):
    """min_length >= sqrt(c) arccos(|q0| / |q|) (1 - 1e-14), c = 4n (complex) or 2 (real).

    The bundle map V(n,1) -> Gr(n,1) keeps the length of horizontal curves,
    so no curve to the target is shorter than the Grassmann distance of its
    line from e1's, at the search's speed scaling."""
    cols = rep.target.point.cols
    c = 4 * rep.grid.n if rep.grid.mode == COMPLEX else 2
    angle = np.arccos(min(abs(cols[0, 0]) / np.linalg.norm(cols), 1.0))
    assert rep.min_length >= np.sqrt(c) * angle * (1 - 1e-14)


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
        _assert_above_the_grassmann_bound(rep)

    @pytest.mark.parametrize("c", np.linspace(0.3, 1.7, 5) * np.pi)
    def test_block_diagonal_targets(self, c):
        grid = VelocityGrid(2, 1, COMPLEX, seed=505, phase_count=8)
        rep = search_minimizers(StiefelPoint(np.array([[np.exp(1j * c)], [0.0]])), grid)
        truth = 2 * np.sqrt(2) * np.pi * np.sqrt(1 - (1 - c / np.pi) ** 2)
        assert rep.clusters == len(rep.arrivals) == 8  # one per grid direction
        assert abs(rep.min_length - truth) <= 1e-13 * truth
        _assert_true_endpoints(rep)
        _assert_above_the_grassmann_bound(rep)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_real_antipodes(self, n):
        grid = VelocityGrid(n, 1, REAL, seed=808 + n, direction_count=8)
        rep = search_minimizers(real_antipodal_cut_point(n), grid)
        assert rep.clusters >= 2
        assert abs(rep.min_length - np.sqrt(2) * np.pi) <= 1e-13 * np.sqrt(2) * np.pi
        assert all(abs(arr.t - np.pi) <= 1e-15 for arr in rep.arrivals)
        _assert_true_endpoints(rep)
        _assert_above_the_grassmann_bound(rep)


def _generic_target(rng, n: int, t_range: tuple[float, float]):
    """The endpoint of (i lam, b), |b| = 1, at a time t_range times its first vanishing time."""
    lam = rng.uniform(-2.5, 2.5)
    row = rng.standard_normal((1, n - 1)) + 1j * rng.standard_normal((1, n - 1))
    vel = BlockVelocity(np.array([[1j * lam]]), row / np.linalg.norm(row))
    t = rng.uniform(*t_range) * np.pi / np.hypot(lam / 2, 1.0)
    return normal_geodesic(GeodesicSpec(vel), t)


def _unit_row_target(rng, n: int, lam: float, fraction: float):
    """The endpoint of (i lam, b) with a random unit row b at ``fraction`` of
    its first vanishing time."""
    row = rng.standard_normal((1, n - 1)) + 1j * rng.standard_normal((1, n - 1))
    vel = BlockVelocity(np.array([[1j * lam]]), row / np.linalg.norm(row))
    return normal_geodesic(GeodesicSpec(vel), fraction * np.pi / np.hypot(lam / 2, 1.0))


# |q0| from near 0 to near 1, through 0.618: below it s - r1 alone moves
# slower in t than T at every root
Q0_SWEEP = [
    1e-8, 1e-7, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.618, 0.8, 0.95, 1 - 1e-4, 1 - 1e-8, 1 - 1e-12
]


def _q0_draw(rng, n: int, q0_norm: float):
    """(velocity, t, endpoint) of (i lam, b), |b| = 1, with |T| = ``q0_norm``
    before the first vanishing time t omega = pi, on either side of the loop."""
    r = np.sqrt((1 - q0_norm) * (1 + q0_norm))
    bound = min(2 * q0_norm / r, 3.0)  # |sin(t omega)| = r omega needs |lam| <= 2 |q0| / r
    lam = rng.uniform(-bound, bound)
    omega = np.hypot(lam / 2, 1.0)
    u = np.arcsin(min(r * omega, 1.0))
    t = (u if rng.uniform() < 0.5 else np.pi - u) / omega
    row = rng.standard_normal((1, n - 1)) + 1j * rng.standard_normal((1, n - 1))
    vel = BlockVelocity(np.array([[1j * lam]]), row / np.linalg.norm(row))
    return vel, t, normal_geodesic(GeodesicSpec(vel), t)


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
    """The least root in the grid's window against ``plane_least_root``;
    ``draws`` seeds the targets."""

    @pytest.mark.parametrize(
        "grid, draws",
        [
            (CRITERION_5_GRID, 4098),
            (VelocityGrid(2, 1, COMPLEX, lambda_count=24, phase_count=20, seed=3), 514),
            (VelocityGrid(3, 1, COMPLEX, lambda_count=40, direction_count=16, seed=4), 515),
            (VelocityGrid(3, 1, COMPLEX, lambda_count=16, direction_count=32, seed=5), 4099),
        ],
        ids=["v21", "v21_24x20", "sphere_v31_40x16", "sphere_v31"],
    )
    def test_random_generic_targets(self, grid, draws):
        # before and past the first vanishing time, where a shorter root takes over
        rng = np.random.default_rng(draws)
        for t_range in ((0.1, 0.95), (0.1, 0.95), (1.02, 1.3)):
            target = _generic_target(rng, grid.n, t_range)
            _assert_matches_oracle(target, grid)


class TestBranchSolve:
    """The solve along the fold branches against ``plane_least_root``."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_roots_near_the_window_edge(self, n):
        # rates up to the default window's edge 3, where the loop of a
        # target with |q1| = r reaches past it when 2 sqrt(1 / r^2 - 1) > 3
        grid = VelocityGrid(n, 1)
        rng = np.random.default_rng(40 + n)
        for _ in range(12):
            lam = rng.choice([-1.0, 1.0]) * rng.uniform(2.6, 3.0)
            target = _unit_row_target(rng, n, lam, rng.uniform(0.1, 0.95))
            rep = _assert_matches_oracle(target, grid)
            assert rep.clusters == 1

    def test_window_cuts_the_loop(self):
        grid = VelocityGrid(3, 1, COMPLEX, lambda_range=(-1.5, 1.5))
        rng = np.random.default_rng(43)
        cut = found = 0
        for _ in range(24):
            target = _unit_row_target(rng, 3, rng.uniform(-2.5, 2.5), rng.uniform(0.1, 0.95))
            q0, q1 = target.cols[0, 0], target.cols[1:, 0]
            cut += 2 * abs(q0) / np.linalg.norm(q1) > 1.5
            found += bool(_assert_matches_oracle(target, grid).arrivals)
        assert cut >= 12 and 0 < found < 24

    def test_roots_past_the_fold(self):
        # a window around the generating rate leaves out the shorter root
        # before the fold of most of these targets: the least root left is
        # the generating one, on branch m = 1
        rng = np.random.default_rng(44)
        past = 0
        for _ in range(12):
            lam = rng.uniform(-2.5, 2.5)
            grid = VelocityGrid(2, 1, COMPLEX, lambda_range=(lam - 0.05, lam + 0.05))
            target = _unit_row_target(rng, 2, lam, rng.uniform(1.02, 1.3))
            root = plane_least_root(target.cols[:, 0], grid.lambda_range, grid.t_max)
            rep = _assert_matches_oracle(target, grid)
            if root is not None and root[0] * np.hypot(root[1] / 2, 1.0) > np.pi:
                (arr,) = rep.arrivals
                assert arr.t * np.hypot(arr.velocity.a_block[0, 0].imag / 2, 1.0) > np.pi
                past += 1
        assert past >= 6

    def test_roots_past_the_fold_at_equal_moduli(self):
        # |q0| = |q1| past the fold, on branch m = 1 (r1 = -r): the residual's
        # radial terms qhat (s - r1) and -r1 (Re(T u) - qhat) add there, where
        # -r in place of -r1 would cancel them to first order and lose the
        # roots.  A window around the generating rate leaves out the shorter
        # root before the fold of most of these targets
        rng = np.random.default_rng(45)
        past = 0
        for _ in range(12):
            lam = rng.uniform(-1.9, 1.9)
            omega = np.hypot(lam / 2, 1.0)
            u = np.arcsin(omega / np.sqrt(2.0))
            t = (np.pi + (u if rng.uniform() < 0.5 else np.pi - u)) / omega
            row = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
            vel = BlockVelocity(np.array([[1j * lam]]), row / np.linalg.norm(row))
            target = normal_geodesic(GeodesicSpec(vel), t)
            grid = VelocityGrid(3, 1, COMPLEX, lambda_range=(lam - 0.01, lam + 0.01), t_max=7.0)
            rep = _assert_matches_oracle(target, grid)
            if rep.arrivals:
                assert max(arr.endpoint_error for arr in rep.arrivals) <= 1e-12
                past += abs(rep.min_length - length(vel, t)) <= 1e-13 * length(vel, t)
        assert past >= 10

    def test_one_bracket_per_root(self):
        # criterion 5's generic targets have one root in the window each: one
        # bracket, hence one Newton start, which converges
        for i in range(10):
            target, _ = _criterion_5_generic(i)
            d = search_minimizers(target, CRITERION_5_GRID).diagnostics
            assert (d.scan_hits, d.candidates, d.converged, d.capped) == (1, 1, 1, 0)

    @pytest.mark.parametrize("q0_norm", [1e-3, 1e-4])
    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["shrunk", "stretched"])
    def test_small_q0_off_orthonormality(self, q0_norm, sign):
        # a column off unit norm by 0.5 unit: the branch solve takes r from
        # the normalized column, so |T| = |q0| / |q| and the endpoint misses
        # only by about 0.25 unit, however small q0 is (|q1| alone as r puts
        # |T| off |q0| by 0.25 unit / |q0|, past TOL.hit below |q0| = 3e-3)
        rng = np.random.default_rng(7)
        q1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q1 *= np.sqrt(1 - q0_norm**2) / np.linalg.norm(q1)
        col = np.concatenate([[q0_norm * np.exp(2.0j)], q1]) * np.sqrt(1 + sign * 0.5e-10)
        rep = search_minimizers(StiefelPoint(col[:, None]), VelocityGrid(3, 1))
        assert rep.clusters == 1 and rep.arrivals[0].endpoint_error < 1e-10

    @pytest.mark.parametrize("q0_norm", Q0_SWEEP)
    @pytest.mark.parametrize("n", [2, 3])
    def test_q0_sweep(self, n, q0_norm):
        # one residual at every |q0|: near 0 the roots sit at the loop's
        # turning point t omega = pi / 2, where s is flat in t; near 1 at the
        # identity or at the fold, where T is flat.  Each target is generated
        # before its first vanishing time, so its generating geodesic is the
        # least root
        grid = VelocityGrid(n, 1, seed=3)
        rng = np.random.default_rng(int(-1e3 * np.log(q0_norm)) + n)
        for _ in range(4):
            vel, t, target = _q0_draw(rng, n, q0_norm)
            if q0_norm <= 1 - 1e-4:
                rep = _assert_matches_oracle(target, grid)
            else:
                # the oracle does not resolve these roots: it finds none near
                # the identity (inside its first time cell) and lands up to
                # 3e-11 relative short near the fold (within its 1e-9 fit
                # acceptance), so the generating length is the check
                rep = search_minimizers(target, grid)
                assert rep.diagnostics.capped == 0
            assert rep.clusters == 1
            assert max(arr.endpoint_error for arr in rep.arrivals) <= 1e-12
            assert abs(rep.min_length - length(vel, t)) <= 1e-14 * length(vel, t)
            _assert_above_the_grassmann_bound(rep)

    def test_q0_zero_is_a_closed_form(self):
        # a generic target of V(3,1) with q0 = 0: lam = 0, t = pi / 2, length pi sqrt(3)
        q1 = np.array([0.6, 0.48j + 0.64]) / np.sqrt(0.36 + 0.48**2 + 0.64**2)
        target = StiefelPoint(np.concatenate([[0.0], q1])[:, None])
        assert classify_target(target).kind == GENERIC
        rep = search_minimizers(target, VelocityGrid(3, 1))
        (arr,) = rep.arrivals
        assert arr.velocity.a_block[0, 0] == 0 and arr.t == np.pi / 2
        assert abs(rep.min_length - np.pi * np.sqrt(3)) <= 1e-15 * np.pi * np.sqrt(3)
        _assert_true_endpoints(rep)


class TestPlaneResidual:
    def test_each_residual_evaluates_the_terms_once(self, monkeypatch):
        """T, s and their derivatives come from one evaluation of the
        unit-row terms (``geodesic._vn1_terms``) per ``_plane_residual``
        call."""
        residual, terms = cutlocus._plane_residual, geodesic._vn1_terms
        calls = []  # terms evaluations per residual call
        inside = [False]

        def counted_terms(*args):
            if inside[0]:
                calls[-1] += 1
            return terms(*args)

        def counted_residual(*args):
            calls.append(0)
            inside[0] = True
            try:
                return residual(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(geodesic, "_vn1_terms", counted_terms)
        # and under the name a search module would import it by
        monkeypatch.setattr(cutlocus, "_vn1_terms", counted_terms, raising=False)
        monkeypatch.setattr(cutlocus, "_plane_residual", counted_residual)
        target, _ = _criterion_5_generic(0)
        assert search_minimizers(target, CRITERION_5_GRID).clusters == 1
        assert len(calls) >= 2 and calls == [1] * len(calls)


class TestGrassmannBound:
    @pytest.mark.parametrize(
        "n, mode", [(2, COMPLEX), (3, COMPLEX), (4, COMPLEX), (3, REAL), (4, REAL)]
    )
    def test_random_targets(self, n, mode):
        """Uniformly random targets on the default grid: every report finds
        an arrival, no shorter than the Grassmann distance."""
        rng = np.random.default_rng(1200 + n + 10 * (mode == REAL))
        grid = VelocityGrid(n, 1, mode)
        for _ in range(40):
            col = rng.standard_normal(n)
            if mode == COMPLEX:
                col = col + 1j * rng.standard_normal(n)
            rep = search_minimizers(StiefelPoint((col / np.linalg.norm(col))[:, None], mode), grid)
            assert rep.min_length is not None
            _assert_above_the_grassmann_bound(rep)


def _near_fold_draw(rng, delta: float):
    """(velocity, t, endpoint) of a unit-row V(2,1) velocity at t = (1 - delta) pi / omega."""
    lam, phi = rng.uniform(-2.5, 2.5), rng.uniform(0, 2 * np.pi)
    vel = BlockVelocity(np.array([[1j * lam]]), np.array([[np.exp(1j * phi)]]))
    t = (1 - delta) * np.pi / np.hypot(lam / 2, 1.0)
    return vel, t, normal_geodesic(GeodesicSpec(vel), t)


class TestDegenerateTargets:
    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_near_the_fold(self, delta):
        """At t = (1 - delta) pi / omega the two roots on either side of the
        fold sin(t omega) = 0 are 2 delta pi / omega apart and ill-conditioned;
        the shorter one is the generating geodesic."""
        rng = np.random.default_rng(int(-np.log10(delta)))
        for _ in range(4):
            vel, t, target = _near_fold_draw(rng, delta)
            rep = _assert_matches_oracle(target, CRITERION_5_GRID, rel=1e-9)
            assert rep.arrivals
            assert abs(rep.min_length - length(vel, t)) <= 1e-9 * length(vel, t)

    @pytest.mark.parametrize("delta", [1e-7, 1e-8, 1e-9])
    def test_one_cluster_at_the_fold(self, delta):
        """Closer to the fold both roots reach the target to rounding and
        their lengths are about 2 delta apart: the minimal-length band at
        k = 1 is rounding wide, so it keeps only the shorter, generating
        root, which the solve before the fold finds."""
        rng = np.random.default_rng(int(round(-np.log10(delta))))
        for _ in range(6):
            vel, t, target = _near_fold_draw(rng, delta)
            rep = search_minimizers(target, CRITERION_5_GRID)
            assert rep.clusters == 1
            assert abs(rep.min_length - length(vel, t)) <= 1e-9 * length(vel, t)

    @pytest.mark.parametrize("delta", [3e-9, 1e-9, 5e-10])
    def test_generic_targets_next_to_the_block_diagonal_set(self, delta):
        """Within about 1e-8 of the block-diagonal set |q1| is about delta pi,
        and a solve of T = q0 alone leaves |S| off |q1| by about eps / |q1|,
        past ``TOL.hit``: without the polish 2, 7 and 11 of these draws get
        empty reports."""
        rng = np.random.default_rng(7)
        generic = 0
        for _ in range(40):
            vel, t, target = _near_fold_draw(rng, delta)
            if classify_target(target).kind != GENERIC:
                continue
            generic += 1
            rep = search_minimizers(target, VelocityGrid(2, 1))
            assert rep.clusters == 1
            assert abs(rep.min_length - length(vel, t)) <= 1e-9 * length(vel, t)
        assert generic >= 37

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
