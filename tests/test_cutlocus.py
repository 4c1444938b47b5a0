import dataclasses
import functools
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from stiefel_sr import cutlocus, matcore, tolerances
from stiefel_sr.distribution import bracket_generating_rank, montgomery_condition
from stiefel_sr.matcore import COMPLEX, MODES, REAL
from stiefel_sr.homspace import BlockVelocity, StiefelPoint, _block_velocities, identity_point
from stiefel_sr.geodesic import (
    GeodesicSpec,
    _decompose,
    _endpoint_jacobian,
    _vn1_jacobian,
    batch_geodesic_columns,
    first_vanishing_time,
    grassmann_geodesic_2kk,
    grid_geodesic_columns,
    length,
    normal_geodesic,
)
from stiefel_sr.tolerances import TOL
from stiefel_sr.cutlocus import (
    _LinearFamily,
    _best_hits,
    _endpoint_residuals,
    _refine,
    _representatives,
    _residual_jacobian,
    _scan_cols,
    _scan_table,
    _scan_times,
    _sobol,
    _speeds_squared,
    ANTIDIAGONAL,
    BLOCK_DIAGONAL,
    GENERIC,
    SearchDiagnostics,
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

from _oracles import (
    arrival_json,
    best_hits_loop,
    first_block_diagonal_hit_direct,
    first_block_diagonal_hit_norm,
    geodesic_columns_mp,
    golden_section_hit,
    greedy_cluster_count_loop,
    greedy_dedup_loop,
    jacobian_along,
    minimizer_report_json,
    refine_every_iteration,
    report_key_order,
    plane_minima_loop,
    scan_cols_subtraction,
    separate_family_params,
    separate_family_raw_blocks,
    _sobol_gauss,
    target_class_json,
    uniqueness_case_checks_loop,
    unit_block_tangents,
    velocity_grid_json,
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

    def test_perturbed_identity_target_reports_frobenius_error(self):
        # entries within TOL.eq of e1, so the target is the identity class;
        # the error is the Frobenius norm, as for every other arrival
        eps = 0.5 * TOL.eq
        cols = np.array([[np.cos(eps)], [0.6 * np.sin(eps)], [0.8 * np.sin(eps)]])
        target = StiefelPoint(cols, REAL)
        assert target.is_identity_class()
        rep = search_minimizers(target, VelocityGrid(3, 1, REAL))
        (arr,) = rep.arrivals
        frob = float(np.linalg.norm(cols - identity_point(3, 1, REAL).cols))
        assert arr.endpoint_error == frob
        assert arr.endpoint_error > float(np.max(np.abs(cols - identity_point(3, 1).cols)))

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

    def test_eps_hit_floor_enforced(self, default_tolerances):
        target = StiefelPoint(np.array([[-1.0], [0.0]]))
        tolerances.configure(hit=1e-12)
        with pytest.raises(ValueError):
            search_minimizers(target, VelocityGrid(2, 1, COMPLEX))

    def test_general_family_smoke(self):
        # V_{2,1} cannot be forced onto the low-discrepancy family; a grid
        # with that family's sample settings is a v21 grid and finds the circle
        with pytest.raises(ValueError, match="use 'auto' or 'v21'"):
            VelocityGrid(2, 1, COMPLEX, family="general")
        target = StiefelPoint(np.array([[-1.0], [0.0]]))
        grid = VelocityGrid(2, 1, COMPLEX, sample_count=512, seed=3)
        assert grid.family == "v21"
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
        # as on V_{2,1}: the general family is refused, its settings are not
        with pytest.raises(ValueError, match="use 'auto' or 'sphere'"):
            VelocityGrid(3, 1, REAL, family="general")
        grid = VelocityGrid(3, 1, REAL, sample_count=256, seed=9)
        assert grid.family == "sphere"
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


def _assert_search_invariants(rep):
    """Reported arrivals are deduplicated, counted and measured as the oracles say."""
    embeds = np.stack([arr.velocity.embed() for arr in rep.arrivals])
    ts = np.array([arr.t for arr in rep.arrivals])
    for i in range(len(embeds)):
        near = np.linalg.norm(embeds[i + 1 :] - embeds[i], axis=(1, 2)) <= 1e-6
        assert not np.any(near & (np.abs(ts[i + 1 :] - ts[i]) <= 1e-6))
    assert rep.clusters == greedy_cluster_count_loop(list(embeds), TOL.vel)
    for arr in rep.arrivals:
        assert arr.length == length(arr.velocity, arr.t)
        # endpoint exp(t v) . blockdiag(exp(-t a), I), first k columns
        v, mode = arr.velocity, arr.velocity.mode
        right = np.eye(v.n, dtype=np.complex128)
        right[: v.k, : v.k] = matcore.expm_skew(v.a_block, -arr.t, mode)
        end = (matcore.expm_skew(v.embed(), arr.t, mode) @ right)[:, : v.k]
        expected = np.linalg.norm(end - rep.target.point.cols)
        assert abs(arr.endpoint_error - expected) <= 1e-12


class TestCutTime:
    """The paper's V(n,1) picture along a geodesic: up to the first vanishing
    time the generating velocity is the unique minimizer, and past it a
    strictly shorter geodesic reaches the endpoint."""

    CASES = {
        "complex_v21_a": (0.7, [0.6 + 0.8j], COMPLEX),
        "complex_v21_b": (-1.3, [0.5j], COMPLEX),
        "complex_v41": (0.4, [0.3, 0.5j, -0.2 + 0.1j], COMPLEX),
        "real_v31": (0.0, [0.6, 0.8], REAL),
        "real_v41": (0.0, [0.6, 0.0, -0.8], REAL),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_unique_before_and_shorter_after(self, case):
        lam, b, mode = self.CASES[case]
        b = np.array([b], dtype=np.complex128)
        a = np.array([[1j * lam]]) if mode == COMPLEX else np.zeros((1, 1))
        vel = BlockVelocity(a, b, mode)
        n = b.shape[1] + 1
        t_cut = first_vanishing_time(lam, b)
        grid = VelocityGrid(
            n, 1, mode, lambda_count=16, direction_count=32, phase_count=32, t_count=128
        )
        for factor in (0.95, 0.99, 1.01, 1.05):
            t = factor * t_cut
            rep = search_minimizers(normal_geodesic(GeodesicSpec(vel), t), grid)
            generating = length(vel, t)
            if factor < 1:
                assert rep.clusters == 1, factor
                assert rep.min_length == pytest.approx(generating, rel=1e-9), factor
            else:
                assert rep.min_length <= (1 - 1e-3) * generating, factor


class TestSearchInvariants:
    def test_block_diagonal_v21(self):
        target = StiefelPoint(np.array([[-1.0], [0.0]]))
        rep = search_minimizers(target, VelocityGrid(2, 1, COMPLEX, seed=1))
        # one arrival per grid direction, each its own cluster
        assert len(rep.arrivals) == rep.clusters == 64
        _assert_search_invariants(rep)

    def test_real_antipode(self):
        rep = search_minimizers(real_antipodal_cut_point(3), VelocityGrid(3, 1, REAL, seed=2))
        assert rep.clusters >= 2
        _assert_search_invariants(rep)

    def test_general_family_v42(self):
        rng = np.random.default_rng(42)
        vel = BlockVelocity(
            matcore.random_skew_hermitian(rng, 2) * 0.5,
            matcore.random_matrix(rng, 2, 2) / 2.0,
        )
        target = normal_geodesic(GeodesicSpec(vel), 0.4)
        grid = VelocityGrid(4, 2, COMPLEX, family="general", sample_count=256, seed=1)
        rep = search_minimizers(target, grid)
        assert len(rep.arrivals) >= 1
        _assert_search_invariants(rep)


LINEAR_FAMILY_CASES = [
    ("sphere", 2, 1, REAL),
    ("sphere", 3, 1, REAL),
    ("sphere", 4, 1, REAL),
    ("sphere", 3, 1, COMPLEX),
    ("general", 4, 2, REAL),
    ("general", 5, 2, REAL),
    ("general", 4, 2, COMPLEX),
    ("general", 6, 3, COMPLEX),
]


def unit_direction_jacobian(fam, params, ts):
    """The endpoint's derivatives (c, d, n, k) along the family's unit param
    images, by the refinement's path, before ``normalize``."""
    a, b = fam.blocks(params)
    return _endpoint_jacobian(a, b, ts, _decompose(a, b), fam.da, fam.db, fam.grid.mode)[0]


class TestLinearFamily:
    """The one linear family against the separate sphere and general families.

    The former sphere family divided b by ``np.linalg.norm``, which can round
    differently in the last bit in complex mode; the merged family divides by
    the Frobenius norm the general family and the former block tangents
    already used.  ``normalize`` of the derivatives along the unit params
    must give the derivatives along those tangents, to 1e-15 of the largest
    derivative (at least 1) for times up to 1.  The family samples the
    general family's params only, which k >= 2 grids take; a sphere grid's
    sample is the plane's (``TestScanTable``).
    """

    @pytest.mark.parametrize("family, n, k, mode", LINEAR_FAMILY_CASES)
    def test_matches_separate_families(self, family, n, k, mode):
        grid = VelocityGrid(
            n, k, mode, family=family, lambda_count=5, direction_count=16, sample_count=32,
            seed=4,
        )
        fam = _LinearFamily(grid)
        params = separate_family_params(grid)
        if family == "general":
            assert np.array_equal(fam.initial_params(), params)
        a_ref, b_ref = separate_family_raw_blocks(grid, params)
        a, b = fam.blocks(params)
        assert np.array_equal(a, a_ref)
        norms = np.sqrt(np.sum(np.abs(b_ref) ** 2, axis=(1, 2), keepdims=True))
        assert np.array_equal(b, b_ref / norms)
        basis = separate_family_raw_blocks(grid, np.eye(params.shape[1]))
        ts = np.linspace(0.0, 1.0, len(params))
        got = fam.normalize(params, unit_direction_jacobian(fam, params, ts))
        ref, _ = jacobian_along(a, b, ts, *unit_block_tangents(b_ref, *basis), mode)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * max(1.0, float(np.max(np.abs(ref))))


class TestSobol:
    """The library's Sobol sample against scipy's engine, bit for bit: dims
    1-40 (the suite's grids draw at most 27: general complex V(6,3)) at the
    suite's usual count, every count at a few dims, and the last dim of the
    direction table (most of this class's time is scipy's engine there)."""

    SEEDS = (0, 1, 505)

    @pytest.mark.parametrize("dim", range(1, 41))
    def test_matches_scipy(self, dim):
        for seed in self.SEEDS:
            u, _ = _sobol_gauss(dim, 128, seed)
            assert np.array_equal(_sobol(dim, 128, seed), u), seed

    # scipy's engine warns on counts that are not powers of 2
    @pytest.mark.filterwarnings("ignore:The balance properties of Sobol")
    @pytest.mark.parametrize("count", [1, 2, 3, 100, 4096])
    def test_matches_scipy_at_every_count(self, count):
        for dim in (1, 2, 27, 40):
            for seed in self.SEEDS:
                u, _ = _sobol_gauss(dim, count, seed)
                assert np.array_equal(_sobol(dim, count, seed), u), (dim, seed)

    def test_matches_scipy_at_the_table_end(self):
        u, _ = _sobol_gauss(21201, 2, 0)
        assert np.array_equal(_sobol(21201, 2, 0), u)

    def test_rejects_dims_beyond_the_table(self):
        with pytest.raises(ValueError, match="at most 21201 dimensions"):
            _sobol(21202, 1, 0)


# how a row relates to an earlier one: a fresh point, an exact copy, or a
# copy moved by a multiple of the radius (a chain when its source was moved)
FACTORS = [0.5, 0.999, 1.001]
row_recipes = st.lists(
    st.tuples(
        st.sampled_from(["fresh", "copy", "near"]),
        st.integers(0, 2**16),
        st.sampled_from(FACTORS),
        st.sampled_from([0.0] + FACTORS),
    ),
    max_size=24,
)


def _recipe_rows(recipes, radius, seed, size=2):
    rng = np.random.default_rng(seed)

    def fresh():
        return rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))

    embeds, ts = [], []
    for kind, src, factor, t_factor in recipes:
        if kind == "fresh" or not embeds:
            embeds.append(fresh())
            ts.append(rng.uniform(0.0, 4.0))
            continue
        j = src % len(embeds)
        emb, t = embeds[j], ts[j]
        if kind == "near":
            step = fresh()
            emb = emb + factor * radius * step / np.linalg.norm(step)
            t = t + t_factor * radius * rng.choice([-1.0, 1.0])
        embeds.append(emb)
        ts.append(t)
    return np.array(embeds, dtype=np.complex128).reshape(-1, size, size), np.array(ts)


def _with_clique(embeds, ts, dup, radius, seed):
    """The rows plus a clique of converged duplicates, more than a pair
    window holds, and a continuum leaving it in steps of 0.7 ``radius``,
    all interleaved in a seeded order: a large window and small ones."""
    rng = np.random.default_rng(seed + 1)
    size = embeds.shape[-1]
    centre = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    step = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    step /= np.linalg.norm(step)
    jitter = rng.standard_normal((2 * cutlocus._PAIR_WINDOW, size, size))
    jitter *= 0.3 * dup / np.linalg.norm(jitter, axis=(1, 2))[:, None, None]
    clique = centre + jitter
    continuum = centre + 0.7 * radius * np.arange(1, 13)[:, None, None] * step
    t0 = rng.uniform(0.0, 4.0)
    rows = np.concatenate([embeds, clique, continuum])
    times = np.concatenate(
        [ts, t0 + rng.uniform(-0.3, 0.3, len(clique)) * dup, np.full(len(continuum), t0)]
    )
    order = rng.permutation(len(rows))
    return rows[order], times[order]


def _projection_edge(radius):
    """Values (a, inside, outside) of one real coordinate: ``inside`` is the
    largest float whose rounded difference from ``a`` is within ``radius``,
    ``outside`` the next float.  ``a`` is below zero, so the difference
    rounds, and ``inside`` lies above the rounded ``a + radius``: a window
    of reach exactly ``radius`` around ``a`` misses it."""
    for f in np.linspace(-0.95, -0.05, 19):
        a = np.float64(f * radius)
        b = a + radius
        while b - a <= radius:
            b = np.nextafter(b, np.inf)
        while b - a > radius:
            b = np.nextafter(b, -np.inf)
        if b > a + radius:
            return a, b, np.nextafter(b, np.inf)
    raise AssertionError(f"no rounding edge at radius {radius}")


def _with_projection_edges(embeds, ts, dup, cluster):
    """The rows plus pairs whose whole distance lies along entry (0, 1)'s
    real part, just inside and just outside ``dup`` and ``cluster``, in
    both orders.  Two anchors far out along that coordinate make it the one
    of largest spread; each pair sits in a separate place along entry
    (1, 0)'s imaginary part."""
    size = embeds.shape[-1]
    rows = []
    for radius in (dup, cluster):
        a, inside, outside = _projection_edge(radius)
        for b in (inside, outside):
            for pair in ((a, b), (b, a)):
                place = 10j * (len(rows) // 2 + 1)
                for value in pair:
                    row = np.zeros((size, size), dtype=np.complex128)
                    row[0, 1], row[1, 0] = value, place
                    rows.append(row)
    anchors = np.zeros((2, size, size), dtype=np.complex128)
    anchors[:, 0, 1] = (-1e3, 1e3)
    times = np.concatenate([ts, np.ones(len(rows)), [2.0, 3.0]])
    return np.concatenate([embeds, np.array(rows), anchors]), times


class TestGreedyRepresentatives:
    """The search's one-pass dedup and clustering against the pairwise loops."""

    @settings(max_examples=150, deadline=None)
    @given(
        row_recipes,
        st.sampled_from([1e-6, 1e-3]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 4]),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_pairwise_loops(self, recipes, radius, seed, size, clique, edges):
        embeds, ts = _recipe_rows(recipes, radius, seed, size)
        # one radius for both, the search's pairing (dedup at 1e-6), and a
        # cluster radius below the dedup radius
        for dup, cluster in ((radius, radius), (1e-6, radius), (radius, 0.1 * radius)):
            rows, times = embeds, ts
            if clique:
                rows, times = _with_clique(rows, times, dup, max(dup, cluster), seed)
            if edges:
                rows, times = _with_projection_edges(rows, times, dup, cluster)
            kept, clusters = _representatives(rows, times, dup, cluster)
            assert kept.tolist() == greedy_dedup_loop(list(rows), list(times), dup)
            assert clusters == greedy_cluster_count_loop(list(rows[kept]), cluster)

    def test_empty_and_single_row(self):
        none = np.zeros((0, 2, 2), dtype=np.complex128)
        kept, clusters = _representatives(none, np.zeros(0), 1e-6, 1e-3)
        assert kept.tolist() == [] and clusters == 0
        one = np.ones((1, 2, 2), dtype=np.complex128)
        kept, clusters = _representatives(one, np.ones(1), 1e-6, 1e-3)
        assert kept.tolist() == [0] and clusters == 1

    def test_chain_keeps_both_ends(self):
        # A ~ B and B ~ C but not A ~ C: B is dropped by A, so C survives
        step = np.zeros((2, 2), dtype=np.complex128)
        step[0, 1] = 0.999e-3
        embeds = np.stack([np.zeros((2, 2), dtype=np.complex128), step, 2 * step])
        kept, clusters = _representatives(embeds, np.zeros(3), 1e-3, 1e-3)
        assert kept.tolist() == [0, 2] and clusters == 2
        # time gaps chain the same way; a time gap alone separates rows
        same = np.zeros((3, 2, 2), dtype=np.complex128)
        ts = np.array([0.0, 0.999e-6, 1.998e-6])
        kept, clusters = _representatives(same, ts, 1e-6, 1e-6)
        assert kept.tolist() == [0, 2] and clusters == 1

    def test_dropped_rows_neither_open_nor_mark_clusters(self):
        # s is 0.9999e-3 from q, d is 0.5e-6 past s away from q, all at one t:
        # d is s's duplicate and lies outside q's cluster, so counting over
        # every row would give 2 clusters; over the kept rows q and s it is 1
        q = np.zeros((2, 2), dtype=np.complex128)
        s, d = q.copy(), q.copy()
        s[0, 1], d[0, 1] = 0.9999e-3, 0.9999e-3 + 0.5e-6
        embeds = np.stack([q, s, d])
        kept, clusters = _representatives(embeds, np.ones(3), 1e-6, 1e-3)
        assert kept.tolist() == [0, 1] and clusters == 1
        assert greedy_cluster_count_loop(list(embeds), 1e-3) == 2


def _post_processing_cases():
    """(target, grid) of three block-diagonal searches on criterion 5's
    grid, the real V(3,1) and V(4,1) antipodes on criterion 8's grids, and
    the general_v63 benchmark's seed-1 op 5."""
    grid = VelocityGrid(2, 1, COMPLEX, seed=505)
    cases = [
        (StiefelPoint(np.array([[np.exp(1j * c)], [0.0]])), grid)
        for c in np.linspace(0.3 * np.pi, 1.7 * np.pi, 50)[[15, 24, 39]]
    ]
    cases += [
        (real_antipodal_cut_point(n), VelocityGrid(n, 1, REAL, seed=808 + n)) for n in (3, 4)
    ]
    v63 = VelocityGrid(6, 3, COMPLEX, family="general", sample_count=128)
    return cases + [(_general_v63_target(1, 5), v63)]


@functools.lru_cache(maxsize=1)
def _search_post_processing_inputs():
    """The arguments of ``_report_order`` and ``_representatives`` in each
    search of ``_post_processing_cases``, in order."""
    orders, reps = [], []
    inner_order, inner_reps = cutlocus._report_order, cutlocus._representatives

    def order(*args):
        orders.append(args)
        return inner_order(*args)

    def representatives(*args):
        reps.append(args)
        return inner_reps(*args)

    cutlocus._report_order, cutlocus._representatives = order, representatives
    try:
        for target, grid in _post_processing_cases():
            search_minimizers(target, grid)
    finally:
        cutlocus._report_order, cutlocus._representatives = inner_order, inner_reps
    return orders, reps


class TestPostProcessingOnSearches:
    """The report sort and the dedup of real searches' arrivals against the
    search's original key sort and pairwise loops."""

    def test_representatives_match_pairwise_loops(self):
        _, reps = _search_post_processing_inputs()
        assert len(reps) == 6
        results = [_representatives(*args) for args in reps]
        for (embeds, ts, dup, cluster), (kept, clusters) in zip(reps, results):
            assert kept.tolist() == greedy_dedup_loop(list(embeds), list(ts), dup)
            assert clusters == greedy_cluster_count_loop(list(embeds[kept]), cluster)
        # five continua, and the V(6,3) arrivals: one clique, over a pair window
        assert all(clusters >= 2 for _, clusters in results[:-1])
        assert len(reps[-1][0]) > cutlocus._PAIR_WINDOW and len(results[-1][0]) == 1

    def test_report_order_matches_the_key_sort(self):
        orders, _ = _search_post_processing_inputs()
        for lengths, ts, embeds in orders:
            assert cutlocus._report_order(lengths, ts, embeds).tolist() == report_key_order(
                lengths, ts, embeds
            )

    def test_exact_ties_are_ordered_by_embed_bytes(self):
        rng = np.random.default_rng(8)
        embeds = rng.standard_normal((12, 2, 2)) + 1j * rng.standard_normal((12, 2, 2))
        # byte order is not numeric order: a positive and a negative entry
        embeds[1, 0, 0], embeds[3, 0, 0] = 0.5, -0.5
        embeds[7] = embeds[4]  # a full tie keeps its input order
        lengths = np.array([2.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0, 1.0, 1.0, 2.0, 3.0, 1.0])
        ts = np.array([0.5, 0.7, 0.5, 0.7, 0.7, 0.1, 0.4, 0.7, 0.6, 0.5, 0.1, 0.7])
        got = cutlocus._report_order(lengths, ts, embeds).tolist()
        assert got == report_key_order(lengths, ts, embeds)
        assert got != np.lexsort((ts, lengths)).tolist()

    def test_cluster_radius_below_the_dedup_radius(self, monkeypatch, default_tolerances):
        tolerances.configure(vel=1e-7)
        recorded, inner = [], cutlocus._representatives

        def recording(*args):
            recorded.append(args)
            return inner(*args)

        monkeypatch.setattr(cutlocus, "_representatives", recording)
        target = StiefelPoint(np.array([[np.exp(0.8j * np.pi)], [0.0]]))
        rep = search_minimizers(target, VelocityGrid(2, 1, COMPLEX, seed=505))
        ((embeds, ts, dup, cluster),) = recorded
        assert (dup, cluster) == (1e-6, 1e-7)
        kept = greedy_dedup_loop(list(embeds), list(ts), dup)
        assert len(rep.arrivals) == len(kept) > 1
        for arr, i in zip(rep.arrivals, kept):
            assert np.array_equal(arr.velocity.embed(), embeds[i]) and arr.t == ts[i]
        assert rep.clusters == greedy_cluster_count_loop(list(embeds[kept]), 1e-7)


class TestBestHits:
    """The vectorized candidate choice against the per-hit loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 30), st.sampled_from([0.0, 0.1, 0.2])),
            unique_by=lambda h: h[:2],
            max_size=60,
        ),
        st.randoms(use_true_random=False),
    )
    def test_matches_per_hit_loop(self, hits, rnd):
        # a scan yields hits in row-major order; the choice must not rely on it
        rnd.shuffle(hits)
        rows = np.array(hits, dtype=np.float64).reshape(-1, 3)
        vix, tix, err = rows[:, 0].astype(np.intp), rows[:, 1].astype(np.intp), rows[:, 2]
        pick = _best_hits(vix, tix, err)
        assert list(zip(vix[pick].tolist(), tix[pick].tolist())) == best_hits_loop(vix, tix, err)


class TestResidualJacobian:
    """Each family's analytic residual Jacobian against central differences.

    With step h a central difference is off by h^2 / 6 times the third
    derivative, plus rounding of order 1e-16 / h; at h = 1e-5 both stay near
    1e-10 for these velocity scales, so 1e-7 (relative to the largest entry)
    leaves a wide margin while a wrong tangent is off at order one.
    """

    @pytest.mark.parametrize(
        "n, k, mode, family",
        [
            (2, 1, COMPLEX, "v21"),
            (4, 1, REAL, "sphere"),
            (3, 1, COMPLEX, "sphere"),
            (5, 2, REAL, "general"),
            (6, 3, COMPLEX, "general"),
        ],
    )
    def test_matches_central_differences(self, n, k, mode, family):
        grid = VelocityGrid(
            n, k, mode, family=family, lambda_count=4, phase_count=4, direction_count=4,
            sample_count=8, seed=3,
        )
        fam = _LinearFamily(grid)
        rng = np.random.default_rng(n + 10 * k)
        params = separate_family_params(grid)[:6]
        params = params + 0.1 * rng.standard_normal(params.shape)
        x = np.column_stack([params, rng.uniform(0.3, 3.0, len(params))])
        target = identity_point(n, k, mode).cols
        jac = _residual_jacobian(fam, x, _decompose(*fam.blocks(params)))
        assert jac.shape == (len(x), 2 * n * k, x.shape[1])
        h = 1e-5
        tol = 1e-7 * max(1.0, float(np.max(np.abs(jac))))
        for j in range(x.shape[1]):
            step = np.zeros_like(x)
            step[:, j] = h
            central = (
                _endpoint_residuals(fam, x + step, target)[0]
                - _endpoint_residuals(fam, x - step, target)[0]
            ) / (2 * h)
            assert np.max(np.abs(jac[:, :, j] - central)) < tol


# the refinement runs at k >= 2 only: a k = 1 search solves in its (rate, time) plane
REFINE_GRIDS = {
    "v63": VelocityGrid(6, 3, COMPLEX, family="general", sample_count=32),
    "v52": VelocityGrid(5, 2, REAL, family="general", sample_count=32),
}


def _refine_case(name: str, seed: int = 5):
    """Family, scan candidates (params, times) and target columns of a search
    for the endpoint of a seeded random velocity at a time in [0.3, 0.6]."""
    grid = REFINE_GRIDS[name]
    fam = _LinearFamily(grid)
    p0 = fam.initial_params()
    rng = np.random.default_rng(seed)
    a, b = fam.blocks(rng.standard_normal((1, p0.shape[1])))
    target = batch_geodesic_columns(a, b, rng.uniform(0.3, 0.6, 1), grid.mode)[0]
    vix, tix, err = _scan_cols(_kernel_table(grid), target, 1.0)
    pick = _best_hits(vix, tix, err)
    assert len(pick) > 0
    return fam, p0[vix[pick]], _scan_times(grid)[tix[pick]], target


def _record_jacobian_rows(monkeypatch) -> list:
    """Make ``cutlocus._residual_jacobian`` append each (params, t) row it gets;
    any further arguments (the refinement's stored spectra) pass through."""
    rows = []
    inner = cutlocus._residual_jacobian

    def recording(family, x, *rest):
        rows.extend(x.copy())
        return inner(family, x, *rest)

    monkeypatch.setattr(cutlocus, "_residual_jacobian", recording)
    return rows


class TestRefine:
    """The refinement against its original loop, which formed every active
    candidate's Jacobian on every iteration and decomposed every Jacobian's
    velocities afresh: keeping the normal equations of a candidate whose
    step was rejected, and the eigendecompositions of its accepted point,
    changes no arithmetic, so params, times and residuals agree bit for
    bit."""

    @pytest.mark.parametrize("name", sorted(REFINE_GRIDS))
    def test_bit_identical_to_every_iteration_loop(self, name, monkeypatch):
        fam, params, ts, target = _refine_case(name)
        rows = _record_jacobian_rows(monkeypatch)
        expected = refine_every_iteration(fam, params, ts, target, TOL.hit)
        oracle_rows = len(rows)
        rows.clear()
        got = _refine(fam, params, ts, target, TOL.hit)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)
        if name == "v63":
            # some candidate stayed active after a rejected step: the stored
            # normal equations were solved again
            assert len(rows) < oracle_rows

    def test_each_point_differentiated_once(self, monkeypatch):
        fam, params, ts, target = _refine_case("v63")
        rows = _record_jacobian_rows(monkeypatch)
        refine_every_iteration(fam, params, ts, target, TOL.hit)
        active_rows = len(rows)  # the oracle's sum of active rows per iteration
        rows.clear()
        _refine(fam, params, ts, target, TOL.hit)
        assert len({row.tobytes() for row in rows}) == len(rows)
        assert len(rows) < active_rows

    def test_singular_system_is_solved_with_a_small_ridge(self, monkeypatch):
        # the first solve fails as on a singular system; the retry solves
        # lhs + 1e-8 I and the refinement runs to its end
        fam, params, ts, target = _refine_case("v52")
        solve, lhs_seen = np.linalg.solve, []

        def failing_once(lhs, rhs):
            lhs_seen.append(lhs.copy())
            if len(lhs_seen) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(lhs, rhs)

        monkeypatch.setattr(np.linalg, "solve", failing_once)
        _, t_ref, errs, stats = _refine(fam, params, ts, target, TOL.hit)
        assert np.array_equal(lhs_seen[1], lhs_seen[0] + 1e-8 * np.eye(params.shape[1] + 1))
        assert len(lhs_seen) == stats["lm_iterations"] + 1
        assert stats["converged"] > 0 and np.all(np.isfinite(errs)) and np.all(np.isfinite(t_ref))
        assert sum(stats[key] for key in ("converged", "damped", "stalled", "capped")) == len(ts)

    @pytest.mark.parametrize("name", ["v63", "v52"])
    def test_stored_spectra_give_the_fresh_jacobian(self, name, monkeypatch):
        fam, params, ts, target = _refine_case(name)
        inner = cutlocus._residual_jacobian
        same = []

        def both(family, x, spectra):
            stored = inner(family, x, spectra)
            fresh = _decompose(*family.blocks(x[:, :-1]))
            same.append(np.array_equal(stored, inner(family, x, fresh)))
            return stored

        monkeypatch.setattr(cutlocus, "_residual_jacobian", both)
        _refine(fam, params, ts, target, TOL.hit)
        assert len(same) > 1 and all(same)

    def test_only_the_residuals_reach_eigh(self, monkeypatch):
        # every eigh of a V(6,3) refinement runs inside _endpoint_residuals,
        # two stacked matrices per evaluated row
        fam, params, ts, target = _refine_case("v63")
        evaluated, inside, outside = [0], [0], [0]
        residuals, eigh = cutlocus._endpoint_residuals, np.linalg.eigh

        def counted_residuals(family, x, target_cols):
            evaluated[0] += len(x)
            return residuals(family, x, target_cols)

        def counted_eigh(h, *args, **kwargs):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            (inside if "_endpoint_residuals" in names else outside)[0] += len(h)
            return eigh(h, *args, **kwargs)

        monkeypatch.setattr(cutlocus, "_endpoint_residuals", counted_residuals)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        _refine(fam, params, ts, target, TOL.hit)
        assert outside[0] == 0
        assert inside[0] == 2 * evaluated[0] > 0


def _disable_stall_window(monkeypatch):
    monkeypatch.setattr(cutlocus, "_STALL_WINDOW", cutlocus._LM_ITERS + 1)


def _general_v63_target(seed: int, index: int) -> StiefelPoint:
    """The target of the general_v63 benchmark's op ``index`` at ``seed``, by
    its recipe: a random complex V(6,3) velocity at a time in [0.3, 0.6], its
    endpoint taken with scipy's expm."""
    rng = np.random.default_rng((seed, index + 1))
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = (g - np.conj(g.T)) / 2.0
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = b / np.linalg.norm(b)
    t = rng.uniform(0.3, 0.6)
    v = np.block([[a, b], [-np.conj(b.T), np.zeros((3, 3))]])
    return StiefelPoint(expm(t * v)[:, :3] @ expm(-t * a), COMPLEX)


class TestStallWindow:
    """The refinement, which freezes a candidate whose squared residual has
    not halved over the last ``_STALL_WINDOW`` iterations, against the same
    refinement with the window disabled, which runs every candidate to
    convergence, damping or the iteration cap.  Candidates march
    independently, so every arrival of the windowed run is an arrival of the
    full run, bit for bit.  The window does freeze a few slow arrivals (1 of
    21 on v63, which would need a window of 29), but none of minimal
    length."""

    @pytest.mark.parametrize("name", sorted(REFINE_GRIDS))
    def test_arrivals_are_bit_identical_and_the_shortest_is_kept(self, name, monkeypatch):
        fam, params, ts, target = _refine_case(name)
        *shipped, stats = _refine(fam, params, ts, target, TOL.hit)
        _disable_stall_window(monkeypatch)
        *full, full_stats = _refine(fam, params, ts, target, TOL.hit)
        assert full_stats["stalled"] == 0
        arrived = shipped[2] <= TOL.hit
        assert arrived.any()
        for got, expected in zip(shipped, full):
            assert np.array_equal(got[arrived], expected[arrived])
        grid = REFINE_GRIDS[name]

        def shortest(params, ts, errs):
            b = fam.blocks(params[errs <= TOL.hit])[1]
            return np.min(ts[errs <= TOL.hit] * np.sqrt(_speeds_squared(b, grid.n, grid.mode)))

        assert shortest(*shipped) == shortest(*full)
        if name == "v63":
            assert stats["stalled"] > 0

    def test_late_converger_keeps_the_report(self, monkeypatch):
        # seed 1 op 5: the minimal-length candidate plateaus at residuals
        # 0.38 and 0.29 before it converges at iteration 27
        target = _general_v63_target(1, 5)
        grid = VelocityGrid(6, 3, COMPLEX, family="general", sample_count=128)
        shipped = search_minimizers(target, grid).to_json_dict()
        _disable_stall_window(monkeypatch)
        full = search_minimizers(target, grid).to_json_dict()
        assert shipped.pop("diagnostics")["stalled"] > 0
        assert full.pop("diagnostics")["stalled"] == 0
        assert json.dumps(shipped) == json.dumps(full)
        # the minimal-length candidate arrives only after iteration 20, so
        # the window has run over its plateau and kept it
        monkeypatch.setattr(cutlocus, "_LM_ITERS", 20)
        early = search_minimizers(target, grid)
        assert early.min_length > full["min_length"]


    @pytest.mark.parametrize("seed, index", [(1, 2), (7, 4)])
    def test_disabling_the_window_keeps_clusters_and_min_length(self, seed, index, monkeypatch):
        """With the window disabled every candidate runs to convergence,
        damping or the cap, so a minimizer whose only candidate plateaus
        longer than the window would show here.  At seed 7 op 4 the slowest
        converging candidate needs a window of 42: the window freezes it, and
        a faster duplicate holds the report."""
        target = _general_v63_target(seed, index)
        grid = VelocityGrid(6, 3, COMPLEX, family="general", sample_count=128)
        shipped = search_minimizers(target, grid)
        _disable_stall_window(monkeypatch)
        full = search_minimizers(target, grid)
        assert full.diagnostics.stalled == 0 and shipped.diagnostics.stalled > 0
        assert shipped.clusters == full.clusters >= 1
        assert abs(shipped.min_length - full.min_length) <= 1e-12 * full.min_length
        if (seed, index) == (7, 4):
            assert full.diagnostics.converged > shipped.diagnostics.converged


def _stack_with_defect(defect: str, mode: str):
    """Five stacked V(4,2) blocks a (5, 2, 2) and b (5, 2, 2) in ``mode``; member 2 carries ``defect``."""
    rng = np.random.default_rng(11)
    a = np.stack([matcore.random_skew_hermitian(rng, 2, mode) for _ in range(5)])
    b = np.stack([matcore.random_matrix(rng, 2, 2, mode) for _ in range(5)])
    if defect == "not_skew":
        a[2, 0, 1] += 0.25
    elif defect == "nan":
        b[2, 1, 0] = np.nan
    elif defect == "imaginary_residue":
        b[2, 0, 1] += 1e-3j
    elif defect == "row_mismatch":
        b = np.concatenate([b, b[:, :1]], axis=1)
    return a, b


class TestArrivalConstruction:
    """``search_minimizers`` builds its arrivals' velocities from one stacked check."""

    @pytest.mark.parametrize(
        "mode, defect",
        [
            (COMPLEX, None),
            (REAL, None),
            (COMPLEX, "not_skew"),
            (REAL, "not_skew"),
            (COMPLEX, "nan"),
            (REAL, "imaginary_residue"),
            (COMPLEX, "row_mismatch"),
        ],
    )
    def test_stacked_blocks_match_one_at_a_time(self, mode, defect):
        a, b = _stack_with_defect(defect, mode)
        if defect is not None:
            with pytest.raises(ValueError) as one:
                [BlockVelocity(a_block, b_block, mode) for a_block, b_block in zip(a, b)]
            with pytest.raises(ValueError) as stacked:
                _block_velocities(a, b, mode)
            assert type(stacked.value) is type(one.value)
            assert str(stacked.value) == str(one.value)
            return
        pairs = list(zip(_block_velocities(a, b, mode), a, b))
        assert len(pairs) == len(a)
        # and the arrivals of a search with a whole circle or sphere of them
        if mode == COMPLEX:
            target = StiefelPoint(np.array([[-1.0], [0.0]]))
            grid = VelocityGrid(2, 1, COMPLEX, lambda_count=12, phase_count=12, t_count=96)
        else:
            target, grid = real_antipodal_cut_point(3), VelocityGrid(3, 1, REAL, t_count=96)
        arrivals = search_minimizers(target, grid).arrivals
        assert len(arrivals) > 1
        pairs += [(arr.velocity, arr.velocity.a_block, arr.velocity.b_block) for arr in arrivals]
        for v, a_block, b_block in pairs:
            one = BlockVelocity(a_block, b_block, mode)
            assert v.mode == one.mode
            for got, want in ((v.a_block, one.a_block), (v.b_block, one.b_block)):
                assert not got.flags.writeable
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestDiagnostics:
    def test_every_candidate_is_counted_once(self, monkeypatch):
        _, _, _, target = _refine_case("v63")
        refined, inner = [], cutlocus._refine

        def recording(*args):
            refined.append(inner(*args))
            return refined[-1]

        monkeypatch.setattr(cutlocus, "_refine", recording)
        rep = search_minimizers(StiefelPoint(target, COMPLEX), REFINE_GRIDS["v63"])
        d = rep.diagnostics
        ((_, _, errs, _),) = refined
        assert d.candidates == len(errs) == d.converged + d.stalled + d.damped + d.capped
        assert d.converged == np.count_nonzero(errs < 0.01 * TOL.hit)
        assert d.stalled > 0
        assert d.capped == 0 or d.lm_iterations == cutlocus._LM_ITERS
        assert 0 < d.lm_iterations <= cutlocus._LM_ITERS
        assert d.scan_hits >= d.candidates
        assert d.arrivals_before_dedup >= len(rep.arrivals) > 0
        assert rep.to_json_dict()["diagnostics"] == dataclasses.asdict(d)

    def test_searches_without_refinement(self):
        identity = search_minimizers(identity_point(2, 1), VelocityGrid(2, 1, COMPLEX))
        assert identity.diagnostics == SearchDiagnostics(arrivals_before_dedup=1)
        # a window that ends before the target: nothing arrives
        target = StiefelPoint(np.array([[-1.0], [0.0]]))
        empty = search_minimizers(target, VelocityGrid(2, 1, COMPLEX, t_max=0.5, t_count=64))
        assert empty.diagnostics.arrivals_before_dedup == 0


HIT_SHAPES = [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)]
# Frobenius bound on the lower block of a returned hit's true endpoint (a
# 40-digit matrix exponential).  Over 40 samples of each HIT_SHAPES shape and
# mode (generators seeded 1000 + 10 n + k) the largest was 3.6e-15, so the
# bound leaves a factor of about 3; the nearest scan points read 1e-3 to 2e-3.
HIT_MP_GAP = 1e-14


class TestFirstBlockDiagonalHit:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,k", HIT_SHAPES)
    def test_matches_golden_section_and_analytic_time(self, n, k, mode):
        rng = np.random.default_rng(60 + 10 * n + k)
        for _ in range(10):
            vel, t_exp = sample_block_diagonal_hitting_velocity(rng, n, k, mode)
            spec = GeodesicSpec(vel)
            t_hit = first_block_diagonal_hit(spec, 1.15 * t_exp)
            t_ref = golden_section_hit(spec, 1.15 * t_exp)
            assert t_hit is not None and t_ref is not None
            assert abs(t_hit - t_ref) <= 1e-12
            assert abs(t_hit - t_exp) <= 1e-12 * t_exp

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,k", HIT_SHAPES)
    def test_matches_direct_exponentials_bit_for_bit(self, n, k, mode):
        # the scan's phases are products of block-start and in-block
        # exponentials; the first dip, and so every Gauss-Newton step, must be
        # the one the direct exponentials give
        rng = np.random.default_rng(1000 + 10 * n + k)
        for _ in range(40):
            vel, t_exp = sample_block_diagonal_hitting_velocity(rng, n, k, mode)
            spec = GeodesicSpec(vel)
            t_hit = first_block_diagonal_hit(spec, 1.15 * t_exp)
            assert t_hit is not None
            assert t_hit == first_block_diagonal_hit_direct(spec, 1.15 * t_exp)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,k", HIT_SHAPES)
    def test_squared_scan_matches_the_norm_scan_bit_for_bit(self, n, k, mode):
        # |L|^2 against squared bounds must pick the dip that |L| against the
        # bounds themselves picks, so every Gauss-Newton step is the same
        rng = np.random.default_rng(2000 + 10 * n + k)
        for _ in range(200):
            vel, t_exp = sample_block_diagonal_hitting_velocity(rng, n, k, mode)
            spec = GeodesicSpec(vel)
            t_hit = first_block_diagonal_hit(spec, 1.15 * t_exp)
            assert t_hit is not None
            assert t_hit == first_block_diagonal_hit_norm(spec, 1.15 * t_exp)

    @pytest.mark.parametrize("n,k,mode", [(3, 1, COMPLEX), (4, 2, REAL), (6, 3, COMPLEX)])
    def test_first_of_several_hits(self, n, k, mode):
        # the common rate s brings every hit back at multiples of t_exp
        rng = np.random.default_rng(n + k)
        for _ in range(3):
            vel, t_exp = sample_block_diagonal_hitting_velocity(rng, n, k, mode)
            spec = GeodesicSpec(vel)
            t_hit = first_block_diagonal_hit(spec, 2.5 * t_exp)
            assert t_hit == pytest.approx(t_exp, rel=1e-12)
            assert t_hit == pytest.approx(golden_section_hit(spec, 2.5 * t_exp), abs=1e-12)

    @pytest.mark.parametrize(
        "diag,expected", [((1.0, 1.02), None), ((1.0, 1.0), np.pi)]
    )
    def test_near_miss_is_no_hit(self, diag, expected):
        # a = 0, b = diag(s1, s2): the lower block is -b* sin(t r) / r, whose
        # singular values vanish at pi / s_j; unequal ones leave a dip near pi
        # of about 0.06 that never reaches zero
        vel = BlockVelocity(np.zeros((2, 2)), np.diag(diag).astype(complex))
        spec = GeodesicSpec(vel)
        for hit in (first_block_diagonal_hit(spec, 4.0), golden_section_hit(spec, 4.0)):
            if expected is None:
                assert hit is None
            else:
                assert hit == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t_upper", [np.nan, np.inf, 0.0, -1.0])
    def test_t_upper_must_be_positive_and_finite(self, t_upper):
        vel = BlockVelocity(np.zeros((2, 2)), np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="t_upper"):
            first_block_diagonal_hit(GeodesicSpec(vel), t_upper)

    @pytest.mark.parametrize("mode", MODES)
    def test_one_eigh_and_no_kernel_per_hit(self, mode, monkeypatch):
        # the scan and every Gauss-Newton step come from one eigh of i v
        eighs = []
        eigh = np.linalg.eigh

        def counted_eigh(h, *args, **kwargs):
            eighs.append(h.shape)
            return eigh(h, *args, **kwargs)

        for name in ("grid_geodesic_columns", "batch_geodesic_columns", "_decompose"):
            monkeypatch.setattr(cutlocus, name, lambda *args, name=name: pytest.fail(name))
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        rng = np.random.default_rng(7)
        for n, k in HIT_SHAPES:
            for _ in range(4):
                vel, t_exp = sample_block_diagonal_hitting_velocity(rng, n, k, mode)
                eighs.clear()
                assert first_block_diagonal_hit(GeodesicSpec(vel), 1.15 * t_exp) is not None
                assert eighs == [(n, n)]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,k", HIT_SHAPES)
    def test_hit_is_block_diagonal_at_40_digits(self, n, k, mode):
        rng = np.random.default_rng(80 + 10 * n + k)
        for _ in range(4):
            vel, t_exp = sample_block_diagonal_hitting_velocity(rng, n, k, mode)
            t_hit = first_block_diagonal_hit(GeodesicSpec(vel), 1.15 * t_exp)
            cols = geodesic_columns_mp(vel.a_block, vel.b_block, t_hit)
            assert np.linalg.norm(cols[k:]) <= HIT_MP_GAP


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

    def test_zero_transversal_sample_is_skipped(self, monkeypatch):
        quiet = BlockVelocity(np.array([[1j]]), np.zeros((1, 1)))
        mover, t_exp = sample_block_diagonal_hitting_velocity(
            np.random.default_rng(0), 2, 1, COMPLEX
        )
        draws = iter([(quiet, 1.0), (mover, t_exp)])
        monkeypatch.setattr(
            cutlocus, "sample_block_diagonal_hitting_velocity", lambda *args: next(draws)
        )
        summ = verify_mirror_arrivals(2, 1, samples=1)
        assert summ.skipped == 1 and summ.samples == 1 and summ.passed

    @pytest.mark.parametrize("n,k,mode", [(2, 1, COMPLEX), (5, 2, REAL)])
    def test_one_batched_endpoint_call_per_sample(self, n, k, mode, monkeypatch):
        batches = []
        real = cutlocus.batch_geodesic_columns

        def counted(a, b, ts, mode=COMPLEX):
            batches.append(len(ts))
            return real(a, b, ts, mode)

        monkeypatch.setattr(cutlocus, "batch_geodesic_columns", counted)
        summ = verify_mirror_arrivals(n, k, samples=6, seed=9, mode=mode)
        assert summ.passed
        assert batches == [3] * 6  # the velocity and its two twins, once per sample

    def test_shifted_twin_endpoint_fails(self, monkeypatch):
        real = cutlocus.batch_geodesic_columns

        def shifted(a, b, ts, mode=COMPLEX):
            cols = real(a, b, ts, mode)
            cols[2] *= np.exp(1e-6j)  # the random twin lands 1e-6 away
            return cols

        monkeypatch.setattr(cutlocus, "batch_geodesic_columns", shifted)
        summ = verify_mirror_arrivals(3, 1, samples=4, seed=2)
        assert not summ.passed and summ.failures == 4
        assert summ.max_endpoint_gap > 1e-7


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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("k,seed", [(2, 4), (3, 11)])
    def test_scan_floor_matches_pointwise_geodesic(self, k, seed, mode):
        samples = 6
        summ = verify_antidiagonal_arrivals(k, samples=samples, seed=seed, mode=mode)
        # replay the summary's draws: the unitary directions (and, in real
        # mode, their sign flips), then the accepted non-unitary directions
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            matcore.random_unitary(rng, k, mode)
            if mode == REAL:
                rng.uniform()
        t0 = np.pi * np.sqrt(k) / 2.0
        floors = []
        while len(floors) < samples:
            g = matcore.random_matrix(rng, k, k, mode)
            b = g / np.linalg.norm(g)
            sig = np.linalg.svd(b, compute_uv=False)
            if sig[-1] < 0.05 or sig[0] / sig[-1] < 1.05:
                continue
            floors.append(
                min(np.linalg.norm(grassmann_geodesic_2kk(b, t)[0]) for t in np.linspace(0.0, t0, 400))
            )
        assert abs(summ.min_scan_floor - min(floors)) <= 1e-14

    @pytest.mark.parametrize(
        "k,mode,seed", [(1, REAL, 3), (1, COMPLEX, 5), (2, COMPLEX, 4), (3, REAL, 11)]
    )
    def test_endpoint_gap_matches_pairwise_loop(self, k, mode, seed):
        samples = 12
        summ = verify_antidiagonal_arrivals(k, samples=samples, seed=seed, mode=mode)
        rng = np.random.default_rng(seed)
        t0 = np.pi * np.sqrt(k) / 2.0
        directions, endpoints = [], []
        for _ in range(samples):
            q = matcore.random_unitary(rng, k, mode)
            if mode == REAL and rng.uniform() < 0.5:
                q = np.array(q)
                q[:, 0] = -q[:, 0]
            b = q / np.sqrt(k)
            directions.append(b)
            endpoints.append(grassmann_geodesic_2kk(b, t0)[1])
        gap = np.inf
        for i in range(samples):
            for j in range(i + 1, samples):
                if np.linalg.norm(directions[i] - directions[j]) > 1e-6:
                    gap = min(gap, np.linalg.norm(endpoints[i] - endpoints[j]))
        if np.isfinite(gap):
            assert summ.min_endpoint_gap == pytest.approx(gap, rel=1e-15)
        else:
            assert summ.min_endpoint_gap == np.inf


class TestUniquenessChecks:
    def test_passes(self):
        summ = uniqueness_case_checks(4, trials=100, seed=5)
        assert summ.passed
        assert summ.sin_ratio_strictly_decreasing

    @pytest.mark.parametrize("n,seed", [(2, 0), (4, 5), (7, 11)])
    def test_report_matches_per_triple_loop(self, n, seed):
        # the rejection loop's triples are drawn one batch per count still
        # needed, so the second loop's draws do not move
        for trials in (1, 200):
            report = uniqueness_case_checks(n, trials=trials, seed=seed)
            loop = uniqueness_case_checks_loop(n, trials=trials, seed=seed)
            assert json.dumps(report.to_json_dict()) == json.dumps(loop.to_json_dict())

    def test_tan_ratio_example(self):
        assert np.tan(0.5) / 0.5 == pytest.approx(1.0926, abs=1e-4)
        assert np.tan(1.0) / 1.0 == pytest.approx(1.5574, abs=1e-4)
        assert abs(np.tan(0.5) / 0.5 - np.tan(1.0) / 1.0) > 1e-9


@pytest.mark.parametrize("count", [0, -2])
@pytest.mark.parametrize(
    "check",
    [
        lambda count: verify_mirror_arrivals(3, 1, samples=count),
        lambda count: verify_antidiagonal_arrivals(2, samples=count),
        lambda count: uniqueness_case_checks(3, trials=count),
    ],
    ids=["mirror", "antidiagonal", "uniqueness"],
)
def test_nothing_to_check_is_rejected(check, count):
    # a sampled verification with no samples would pass vacuously
    with pytest.raises(ValueError, match=f">= 1, got {count}"):
        check(count)


def _report_bytes(target, grid, **kwargs) -> str:
    return json.dumps(search_minimizers(target, grid, **kwargs).to_json_dict())


_SMALL_V21 = VelocityGrid(2, 1, COMPLEX, seed=7, lambda_count=16, phase_count=16, t_count=96)
_SMALL_V31 = VelocityGrid(3, 1, COMPLEX, lambda_count=16, direction_count=16, t_count=96)


def _cut_v21():
    return StiefelPoint(np.array([[-1.0], [0.0]]))


def _generic_v21():
    return normal_geodesic(GeodesicSpec(v21(1.0, 1.0)), 0.3)


_SMALL_V42 = VelocityGrid(4, 2, COMPLEX, family="general", sample_count=32, t_count=64, seed=4)
_V42 = BlockVelocity(np.array([[0.5j, 0.2], [-0.2, -0.3j]]), np.array([[0.6, 0.1j], [0.2, 0.3]]))
_GENERIC_V42 = normal_geodesic(GeodesicSpec(_V42), 0.8)


def _block_diagonal_v42():
    """The first block-diagonal hit of a sampled complex V(4,2) velocity."""
    vel, t_exp = sample_block_diagonal_hitting_velocity(np.random.default_rng(3), 4, 2, COMPLEX)
    spec = GeodesicSpec(vel)
    target = normal_geodesic(spec, first_block_diagonal_hit(spec, 1.15 * t_exp))
    assert in_block_diagonal_set(target)
    return target


def _real_v42():
    v = BlockVelocity(np.array([[0.0, 0.3], [-0.3, 0.0]]), np.array([[0.6, 0.1], [0.2, 0.3]]), REAL)
    return normal_geodesic(GeodesicSpec(v), 0.8)


def _grid_blocks(grid):
    """The grid's velocity blocks (a, unit b), from the separately sampled
    params of ``separate_family_params``; a v21 or sphere grid's are its
    rates crossed with its rows."""
    a, b = separate_family_raw_blocks(grid, separate_family_params(grid))
    return a, b / np.sqrt(np.sum(np.abs(b) ** 2, axis=(1, 2), keepdims=True))


def _kernel_table(grid, rows=slice(None)) -> np.ndarray:
    """Endpoint columns (c, T, n, k) of the grid's velocities ``rows`` at its scan
    times, from one kernel call."""
    a, b = _grid_blocks(grid)
    return grid_geodesic_columns(a[rows], b[rows], _scan_times(grid), grid.mode)


class TestSearchV42:
    def test_empty_report_when_window_excludes_target(self):
        # the target is reached at t = 0.8, far past t_max: no scan minimum
        # passes the gate, so nothing is refined
        grid = VelocityGrid(4, 2, COMPLEX, family="general", t_max=0.1, sample_count=32, t_count=16)
        rep = search_minimizers(_GENERIC_V42, grid)
        assert rep.arrivals == () and rep.clusters == 0 and rep.min_length is None
        assert rep.diagnostics.scan_hits == 0 and rep.diagnostics.candidates == 0


class TestScanTable:
    @pytest.mark.parametrize(
        "target, grid",
        [
            (_cut_v21(), VelocityGrid(2, 1, COMPLEX, seed=1)),
            (_generic_v21(), VelocityGrid(2, 1, COMPLEX, seed=1)),
            (real_antipodal_cut_point(3), VelocityGrid(3, 1, REAL, seed=2)),
        ],
        ids=["block_diagonal_v21", "generic_v21", "real_antipode"],
    )
    def test_cold_and_warm_reports_identical(self, target, grid):
        _scan_table.cache_clear()
        cold = _report_bytes(target, grid)
        assert _scan_table.cache_info().misses == 1
        warm = _report_bytes(target, grid)
        assert _scan_table.cache_info().hits == 1
        assert cold == warm

    @pytest.mark.parametrize(
        "target, grid",
        [
            (_cut_v21(), VelocityGrid(2, 1, COMPLEX, seed=1)),
            (_generic_v21(), VelocityGrid(2, 1, COMPLEX, seed=1)),
            (_GENERIC_V42, _SMALL_V42),
            (_block_diagonal_v42(), _SMALL_V42),
            (_real_v42(), dataclasses.replace(_SMALL_V42, mode=REAL)),
        ],
        ids=["block_diagonal_v21", "generic_v21", "general_v42", "block_diagonal_v42", "real_v42"],
    )
    def test_cached_and_streamed_reports_identical(self, target, grid, monkeypatch):
        _scan_table.cache_clear()
        cached = _report_bytes(target, grid)
        assert _scan_table.cache_info().currsize == 1
        _scan_table.cache_clear()
        # a budget of 20 velocities: a k >= 2 grid now streams its table in
        # several chunks; a k = 1 grid's plane does not depend on the budget
        # and is still cached
        monkeypatch.setattr(cutlocus, "_CHUNK_ELEMENTS", 20 * grid.t_count * grid.n * grid.k)
        streamed = _report_bytes(target, grid)
        assert _scan_table.cache_info().currsize == (1 if grid.k == 1 else 0)
        assert cached == streamed
        assert json.loads(cached)["arrivals"]

    def test_over_budget_grid_leaves_cache_empty(self, monkeypatch):
        _scan_table.cache_clear()
        grid = _SMALL_V42
        monkeypatch.setattr(cutlocus, "_CHUNK_ELEMENTS", 20 * grid.t_count * grid.n * grid.k)
        rep = search_minimizers(_GENERIC_V42, grid)
        assert rep.clusters == 1
        info = _scan_table.cache_info()
        assert info.currsize == 0 and info.misses == 0

    # the oracle's scipy engine (_kernel_table) warns at 40 points
    @pytest.mark.filterwarnings("ignore:The balance properties of Sobol")
    def test_table_is_read_only_and_matches_one_kernel_call(self):
        # the cache holds the kernel's fills of 16 velocities themselves
        grid = VelocityGrid(4, 2, COMPLEX, family="general", sample_count=40, t_count=32, seed=3)
        fills = _scan_table(grid)
        assert [len(cols) for cols in fills] == [16, 16, 8]
        for cols in fills:
            assert not cols.flags.writeable
            with pytest.raises(ValueError):
                cols[0, 0, 0, 0] = 0.0
        assert np.array_equal(np.concatenate(fills), _kernel_table(grid))

    @pytest.mark.parametrize(
        "grid",
        [
            VelocityGrid(3, 1, COMPLEX, direction_count=16, lambda_count=8, t_count=32, seed=3),
            VelocityGrid(3, 1, COMPLEX, sample_count=64, t_count=32, seed=3),
            VelocityGrid(2, 1, COMPLEX, lambda_count=8, phase_count=6, t_count=32),
            VelocityGrid(4, 1, REAL, direction_count=16, t_count=32, seed=3),
            VelocityGrid(2, 1, COMPLEX, lambda_range=(0.5, 0.5), phase_count=6, t_count=32),
            VelocityGrid(2, 1, COMPLEX, lambda_count=8, direction_count=16, t_count=32, seed=3),
            VelocityGrid(2, 1, COMPLEX, sample_count=64, t_count=32, seed=3),
            VelocityGrid(2, 1, REAL, t_count=32),
            VelocityGrid(3, 1, REAL, direction_count=12, t_count=32),
            VelocityGrid(3, 1, REAL, sample_count=64, t_count=32, seed=3),
        ],
        # the general_* and sphere_v21 cases keep the settings of the general
        # and sphere families these shapes no longer take; they are sampled
        # as the shape's family, which does not read sample_count (nor, at
        # V(2,1), direction_count)
        ids=["sphere_v31", "general_v31", "v21", "real_v41", "v21_one_rate", "sphere_v21",
             "general_v21", "real_v21", "real_v31", "real_general_v31"],
    )
    def test_k1_factors_are_read_only_and_give_the_kernel_table(self, grid):
        """At k = 1 the cache holds the (rate, time) plane, not a table: the
        distinct rates, T at each rate and scan time, and the distinct unit
        rows; velocity (i lam, u) reaches (T, -conj(u) S) at its rate.  The
        plane samples its rates and rows directly; they must be, bit for
        bit, those of the grid's velocities as the separate families
        sampled them (``separate_family_params``)."""
        plane = _scan_table(grid)
        for part in (plane.rates, plane.top, plane.directions):
            assert not part.flags.writeable
        table = _kernel_table(grid)
        a, b = _grid_blocks(grid)
        assert np.array_equal(plane.rates, np.unique(a[:, 0, 0].imag))
        assert np.array_equal(plane.directions, np.unique(b[:, 0], axis=0))
        rate = np.searchsorted(plane.rates, a[:, 0, 0].imag)
        side = -_vn1_jacobian(plane.rates[:, None], _scan_times(grid))[2]
        bottom = -np.conj(b[:, 0])[:, None, :] * side[rate][:, :, None]
        rebuilt = np.concatenate([plane.top[rate][:, :, None], bottom], axis=2)[..., None]
        assert np.max(np.abs(rebuilt - table)) < 1e-14

    def test_list_and_tuple_range_share_one_entry(self):
        _scan_table.cache_clear()
        counts = {"lambda_count": 16, "phase_count": 16}
        listed = VelocityGrid(2, 1, COMPLEX, lambda_range=[-2.0, 2.0], **counts)
        tupled = VelocityGrid(2, 1, COMPLEX, lambda_range=(-2.0, 2.0), **counts)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert json.dumps(listed.to_json_dict()) == json.dumps(tupled.to_json_dict())
        assert _report_bytes(_cut_v21(), listed) == _report_bytes(_cut_v21(), tupled)
        info = _scan_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_configured_tolerances_apply_with_a_warm_cache(self, default_tolerances):
        # the near-miss target is 1e-5 from the cut point e^{i pi/2} e1
        near = StiefelPoint(np.array([[1j], [1e-5]]) / np.sqrt(1 + 1e-10))
        grid = VelocityGrid(2, 1, COMPLEX, lambda_count=12, phase_count=12, t_count=96)
        _scan_table.cache_clear()
        default = search_minimizers(near, grid)
        assert default.clusters == 1
        # the plane solve lands on the target's one root, so a wider hit
        # radius admits no other arrival; a wider eq makes the target
        # block-diagonal, reached by every unit row
        tolerances.configure(hit=5e-3)
        assert search_minimizers(near, grid).to_json_dict() == default.to_json_dict()
        tolerances.configure(hit=5e-3, eq=1e-4)
        configured = search_minimizers(near, grid)
        assert configured.clusters >= 2
        assert configured.target.kind == BLOCK_DIAGONAL
        assert max(a.endpoint_error for a in configured.arrivals) > 1e-8
        info = _scan_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)


def _assert_same_hits(hits, ref):
    vix, tix, err = hits
    ref_v, ref_t, ref_e = ref
    assert len(ref_v) > 0
    assert np.array_equal(vix, ref_v) and np.array_equal(tix, ref_t)
    assert np.max(np.abs(err - ref_e)) < 1e-7


def _assert_scan_matches_subtraction(cols, target_cols, gate):
    hits = _scan_cols(cols, target_cols, gate)
    _assert_same_hits(hits, scan_cols_subtraction(cols, target_cols, gate))
    return hits


def _kernel_top(grid):
    """The grid's distinct fibre rates (ascending) and the top entries (R, T)
    of its kernel table at its scan times, one velocity per rate."""
    a, _ = _grid_blocks(grid)
    rates, first = np.unique(a[:, 0, 0].imag, return_index=True)
    return rates, _kernel_table(grid, first)[:, :, 0, 0]


def _assert_k1_scans_match_subtraction(grid, target_cols, gate):
    """The plane scan of a k = 1 grid against the cell-by-cell subtraction
    pass over the top entries of the grid's kernel table, one velocity per
    distinct rate; the plane's T must be those entries."""
    rates, top = _kernel_top(grid)
    plane = _scan_table(grid)
    assert np.array_equal(plane.rates, rates)
    assert np.max(np.abs(plane.top - top)) < 1e-14
    hits = cutlocus._scan_plane(plane.top, target_cols[0, 0], gate)
    ref = plane_minima_loop(top, target_cols[0, 0], gate)
    assert len(ref[0]) > 0
    assert np.array_equal(hits[0], ref[0]) and np.array_equal(hits[1], ref[1])
    return hits


def _search_gate(grid) -> float:
    """The gate ``search_minimizers`` uses on a grid of unit transversal blocks."""
    ts = _scan_times(grid)
    speed = np.sqrt((2 * grid.n if grid.mode == COMPLEX else 1) * 2.0)
    return max(8 * speed * (ts[1] - ts[0]), 0.25) + TOL.hit


def _k1_targets(n: int, mode: str):
    """A cut point (the antipode in real mode) and a generic target of V(n,1)."""
    cut = np.zeros((n, 1), dtype=complex)
    cut[0, 0] = -1.0 if mode == REAL else np.exp(0.7j)
    rng = np.random.default_rng(n)
    b = matcore.random_matrix(rng, 1, n - 1, mode)
    a = np.zeros((1, 1)) if mode == REAL else np.array([[0.4j]])
    generic = normal_geodesic(GeodesicSpec(BlockVelocity(a, b / np.linalg.norm(b), mode)), 0.5)
    return StiefelPoint(cut, mode), generic


class TestScanByInnerProduct:
    """The scan's error passes against the subtraction pass over the kernel table.

    The inner-product pass over a k >= 2 table takes squared errors exact to
    about 1e-16, so errors near 0 are resolved to about 1e-8: the hits must
    be identical and their errors within 1e-7.  A k = 1 grid is scanned in
    the (rate, time) plane, over |T - q0|^2 for the top entry T of its
    unit-row columns (within 1e-14 of the kernel's): its gated local minima
    in both axes must be those of the subtraction pass.
    """

    @pytest.mark.parametrize(
        "target",
        [_cut_v21(), _generic_v21()],
        ids=["block_diagonal", "generic"],
    )
    def test_default_complex_v21_table(self, target):
        grid = VelocityGrid(2, 1, COMPLEX, seed=1)
        for gate in (_search_gate(grid), 1.0):
            _assert_k1_scans_match_subtraction(grid, target.cols, gate)

    @pytest.mark.parametrize(
        "target",
        [_cut_v21(), _generic_v21()],
        ids=["block_diagonal", "generic"],
    )
    def test_over_budget_complex_v21_grid(self, target):
        grid = VelocityGrid(2, 1, COMPLEX, lambda_count=129, phase_count=64, seed=3)
        assert 129 * 64 * grid.t_count * 2 > cutlocus._CHUNK_ELEMENTS
        _assert_k1_scans_match_subtraction(grid, target.cols, _search_gate(grid))

    def test_real_v31_sphere_grid(self):
        grid = VelocityGrid(3, 1, REAL, seed=2)
        assert grid.family == "sphere"
        generic = normal_geodesic(
            GeodesicSpec(BlockVelocity(np.zeros((1, 1)), np.array([[0.6, -0.8]]), REAL)), 1.7
        )
        for target in (real_antipodal_cut_point(3), generic):
            _assert_k1_scans_match_subtraction(grid, target.cols, _search_gate(grid))

    @pytest.mark.parametrize(
        "grid",
        [
            VelocityGrid(2, 1, REAL, seed=2),
            VelocityGrid(4, 1, REAL, seed=2),
            VelocityGrid(3, 1, COMPLEX, lambda_count=16, direction_count=32, seed=2),
            VelocityGrid(3, 1, COMPLEX, sample_count=512, seed=2),
            VelocityGrid(2, 1, REAL, sample_count=64, seed=2),
        ],
        # the *_general cases keep the general family's settings, which a
        # k = 1 grid, sampled as its shape's family, does not read
        ids=["real_v21", "real_v41", "complex_v31_sphere", "complex_v31_general", "real_v21_general"],
    )
    def test_k1_grid(self, grid):
        for target in _k1_targets(grid.n, grid.mode):
            for gate in (_search_gate(grid), 1.0):
                _assert_k1_scans_match_subtraction(grid, target.cols, gate)

    def test_streamed_complex_v42_general_grid(self, monkeypatch):
        grid = VelocityGrid(4, 2, COMPLEX, family="general", sample_count=64, t_count=64, seed=4)
        target = normal_geodesic(GeodesicSpec(BlockVelocity(
            np.array([[0.5j, 0.2], [-0.2, -0.3j]]), np.array([[0.6, 0.1j], [0.2, 0.3]])
        )), 0.8)
        chunks = []

        def checked(cols, target_cols, gate):
            chunks.append(len(cols))
            return _assert_scan_matches_subtraction(cols, target_cols, gate)

        _scan_table.cache_clear()
        monkeypatch.setattr(cutlocus, "_CHUNK_ELEMENTS", 20 * grid.t_count * grid.n * grid.k)
        monkeypatch.setattr(cutlocus, "_scan_cols", checked)
        assert search_minimizers(target, grid).clusters == 1
        assert chunks == [16] * 4
        assert _scan_table.cache_info().currsize == 0

    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["shrunk", "stretched"])
    def test_target_off_orthonormality(self, sign):
        grid = VelocityGrid(2, 1, COMPLEX, seed=1)
        v, t = 1234, 101
        # a grid point scaled so that |Q* Q - I| = 0.5 unit: accepted as a point
        cols = _kernel_table(grid, slice(v, v + 1))[0, t] * np.sqrt(1.0 + sign * 0.5 * TOL.unit)
        target = StiefelPoint(cols)
        dev = float(np.max(np.abs(np.conj(cols).T @ cols - np.eye(1))))
        assert dev == pytest.approx(0.5 * TOL.unit, rel=1e-5)
        rix, tix = _assert_k1_scans_match_subtraction(grid, target.cols, _search_gate(grid))
        rate = _grid_blocks(grid)[0][v, 0, 0].imag
        r = np.searchsorted(_scan_table(grid).rates, rate)
        assert len(np.nonzero((rix == r) & (tix == t))[0]) == 1
        rep = search_minimizers(target, grid)
        assert rep.clusters == 1 and rep.arrivals[0].endpoint_error < 1e-9


class TestEigensolverFreeSearch:
    """No k = 1 search -- scan data, scan, plane solve -- calls an eigensolver."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    @pytest.mark.parametrize(
        "target, grid",
        [
            (_generic_v21(), _SMALL_V21),
            (_cut_v21(), _SMALL_V21),
            (real_antipodal_cut_point(3), VelocityGrid(3, 1, REAL, seed=2, t_count=96)),
            (
                normal_geodesic(GeodesicSpec(BlockVelocity(
                    np.zeros((1, 1)), np.array([[0.6, -0.8]]), REAL
                )), 1.7),
                VelocityGrid(3, 1, REAL, seed=2, t_count=96),
            ),
            (_k1_targets(3, COMPLEX)[1], _SMALL_V31),
            (_k1_targets(3, COMPLEX)[0], _SMALL_V31),
        ],
        ids=["generic_v21", "block_diagonal_v21", "real_antipode_v31", "generic_real_v31",
             "generic_v31", "block_diagonal_v31"],
    )
    def test_k1_search_makes_no_eigh_call(self, target, grid, eigh_calls, monkeypatch):
        # a k = 1 search is a plane solve: no LM refinement, no endpoint
        # residual and no kernel fill of a scan table either
        for name in ("_refine", "_endpoint_residuals", "_scan_fills", "grid_geodesic_columns"):
            monkeypatch.setattr(cutlocus, name, lambda *args, name=name: pytest.fail(name))
        _scan_table.cache_clear()  # the plane is built inside the counted search
        rep = search_minimizers(target, grid)
        assert rep.arrivals
        assert eigh_calls == []

    def test_counter_sees_the_k2_search(self, eigh_calls):
        grid = VelocityGrid(4, 2, COMPLEX, family="general", sample_count=16, t_count=32, seed=4)
        _scan_table.cache_clear()
        search_minimizers(StiefelPoint(np.eye(4, 2)[::-1].copy()), grid)
        assert len(eigh_calls) > 0


class TestGridValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_count", 1),
            ("t_count", 2),
            ("lambda_count", 0),
            ("phase_count", 0),
            ("direction_count", 0),
            ("sample_count", -1),
            ("t_max", 0.0),
            ("t_max", -1.0),
            ("t_max", float("nan")),
            ("lambda_range", (1.0, -1.0)),
            ("t_max", float("inf")),
            ("lambda_range", (-3.0, float("inf"))),
            ("lambda_range", (float("-inf"), 3.0)),
            ("seed", -1),
            ("seed", 2.5),
            ("seed", True),
            ("lambda_count", 16.5),
            ("t_count", 64.5),
            ("sample_count", 32.7),
            ("direction_count", True),
            ("phase_count", np.float64(8.0)),
            ("n", 2.0),
            ("k", True),
        ],
    )
    def test_degenerate_grid_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            VelocityGrid(**{"n": 2, "k": 1, "mode": COMPLEX, field: value})

    def test_numpy_integers_are_stored_as_ints(self):
        grid = VelocityGrid(
            np.int64(2), np.int32(1), COMPLEX, t_count=np.int64(32), seed=np.uint8(3)
        )
        assert grid == VelocityGrid(2, 1, COMPLEX, t_count=32, seed=3)
        assert all(type(v) is int for v in (grid.n, grid.k, grid.t_count, grid.seed))
        json.dumps(grid.to_json_dict())

    @pytest.mark.parametrize(
        "n, k, mode, message",
        [
            (2, 1, "foo", "mode"),
            (3, 0, COMPLEX, "1 <= k < n"),
            (2, 2, COMPLEX, "1 <= k < n"),
            (2, 3, REAL, "1 <= k < n"),
        ],
    )
    def test_unknown_mode_or_shape_rejected(self, n, k, mode, message):
        with pytest.raises(ValueError, match=message):
            VelocityGrid(n, k, mode)

    def test_target_grid_mismatch(self):
        with pytest.raises(ValueError):
            search_minimizers(identity_point(3, 1), VelocityGrid(2, 1, COMPLEX))

    def test_family_constraints(self):
        with pytest.raises(ValueError):
            search_minimizers(
                identity_point(3, 2), VelocityGrid(3, 2, COMPLEX, family="v21")
            )


class TestGridResolution:
    """Construction resolves ``family="auto"`` and ``t_max=None`` and checks the family."""

    @pytest.mark.parametrize(
        "n, k, mode, family",
        [
            (2, 1, COMPLEX, "v21"),
            (2, 1, REAL, "sphere"),
            (3, 1, COMPLEX, "sphere"),
            (4, 1, REAL, "sphere"),
            (3, 2, COMPLEX, "general"),
            (4, 2, REAL, "general"),
            (6, 3, COMPLEX, "general"),
        ],
    )
    def test_auto_family_resolves_per_shape(self, n, k, mode, family):
        grid = VelocityGrid(n, k, mode)
        assert grid.family == family
        assert grid == VelocityGrid(n, k, mode, family=family)

    def test_t_max_is_stored_as_a_float(self):
        default = VelocityGrid(4, 2, COMPLEX)
        assert type(default.t_max) is float and default.t_max == 1.1 * np.pi * np.sqrt(2)
        given = VelocityGrid(2, 1, COMPLEX, t_max=3)
        assert type(given.t_max) is float and given.t_max == 3.0
        assert json.dumps(given.to_json_dict()["t_max"]) == "3.0"

    @pytest.mark.parametrize(
        "n, k, mode, family, message",
        [
            (3, 1, COMPLEX, "v21",
             "v21 family does not fit n=3, k=1, complex mode: use 'auto' or 'sphere'"),
            (2, 1, REAL, "v21",
             "v21 family does not fit n=2, k=1, real mode: use 'auto' or 'sphere'"),
            (3, 2, COMPLEX, "sphere",
             "sphere family does not fit n=3, k=2, complex mode: use 'auto' or 'general'"),
            (2, 1, COMPLEX, "circle",
             "circle family does not fit n=2, k=1, complex mode: use 'auto' or 'v21'"),
            (2, 1, COMPLEX, "general",
             "general family does not fit n=2, k=1, complex mode: use 'auto' or 'v21'"),
            (2, 1, COMPLEX, "sphere",
             "sphere family does not fit n=2, k=1, complex mode: use 'auto' or 'v21'"),
            (3, 1, REAL, "general",
             "general family does not fit n=3, k=1, real mode: use 'auto' or 'sphere'"),
        ],
    )
    def test_unfit_family_raises_at_construction(self, n, k, mode, family, message):
        # one message for every misfit, naming the shape's family
        with pytest.raises(ValueError) as err:
            VelocityGrid(n, k, mode, family=family)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "n, k, mode, family",
        [(3, 1, REAL, "sphere"), (3, 1, COMPLEX, "sphere"), (4, 2, COMPLEX, "general")],
    )
    def test_shape_family_name_shares_the_auto_cache_entry(self, n, k, mode, family):
        _scan_table.cache_clear()
        counts = {"lambda_count": 8, "direction_count": 16, "sample_count": 16, "t_count": 32}
        auto = VelocityGrid(n, k, mode, **counts)
        named = VelocityGrid(n, k, mode, family=family, **counts)
        assert auto == named and hash(auto) == hash(named)
        assert _scan_table(named) is _scan_table(auto)
        info = _scan_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    # a base grid per shape, small enough to fill its k >= 2 table quickly
    @pytest.mark.parametrize(
        "n, k, mode, counts",
        [
            (2, 1, COMPLEX, {}),
            (3, 1, COMPLEX, {}),
            (2, 1, REAL, {}),
            (3, 1, REAL, {}),
            (4, 1, REAL, {}),
            (4, 2, COMPLEX, {"sample_count": 16, "t_count": 8}),
        ],
    )
    def test_unread_fields_leave_the_scan_table(self, n, k, mode, counts):
        # every field the table lists must leave the scan data byte for byte,
        # and every other grid option must change it
        changed = {
            "lambda_range": (-2.0, 2.5), "lambda_count": 65, "phase_count": 65,
            "direction_count": 65, "sample_count": 17, "t_max": 2.0, "t_count": 9, "seed": 3,
        }
        base = VelocityGrid(n, k, mode, **counts)
        unread = cutlocus._unread_grid_fields(base)
        assert set(unread) <= changed.keys()

        def table_bytes(grid):
            return [(x.shape, x.tobytes()) for x in _scan_table(grid)]

        reference = table_bytes(base)
        for name, value in changed.items():
            if name in counts:
                value = counts[name] + 1
            grid = dataclasses.replace(base, **{name: value})
            assert cutlocus._unread_grid_fields(grid) == unread
            assert (table_bytes(grid) == reference) == (name in unread), name

    def test_auto_and_its_resolution_share_one_cache_entry(self):
        _scan_table.cache_clear()
        counts = {"lambda_count": 16, "phase_count": 16}
        auto = VelocityGrid(2, 1, COMPLEX, **counts)
        explicit = VelocityGrid(2, 1, COMPLEX, family="v21", t_max=1.1 * np.pi, **counts)
        assert auto == explicit and hash(auto) == hash(explicit)
        assert _report_bytes(_cut_v21(), auto) == _report_bytes(_cut_v21(), explicit)
        info = _scan_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


class TestScanFill:
    """Every scan kernel call, for the cached table or a streamed scan, takes at
    most 16 velocities, so the kernel's temporaries stay small; a k = 1 scan
    makes none."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = cutlocus.grid_geodesic_columns

        def recording(a_blocks, b_blocks, ts, mode=COMPLEX):
            calls.append(len(b_blocks))
            return kernel(a_blocks, b_blocks, ts, mode)

        monkeypatch.setattr(cutlocus, "grid_geodesic_columns", recording)
        return calls

    def test_cached_table(self, kernel_calls):
        grid = VelocityGrid(4, 2, COMPLEX, family="general", sample_count=100, t_count=128, seed=4)
        _scan_table.cache_clear()
        search_minimizers(_GENERIC_V42, grid)
        assert _scan_table.cache_info().currsize == 1
        assert kernel_calls == [16] * 6 + [4]

    def test_k1_search_makes_no_kernel_fill(self, kernel_calls):
        grid = VelocityGrid(2, 1, COMPLEX, lambda_count=10, phase_count=10, t_count=32)
        _scan_table.cache_clear()
        assert search_minimizers(_cut_v21(), grid).arrivals
        assert _scan_table.cache_info().currsize == 1
        assert kernel_calls == []

    def test_streamed_chunks(self, kernel_calls, monkeypatch):
        grid = VelocityGrid(4, 2, COMPLEX, family="general", sample_count=64, t_count=64, seed=4)
        target = normal_geodesic(GeodesicSpec(BlockVelocity(
            np.array([[0.5j, 0.2], [-0.2, -0.3j]]), np.array([[0.6, 0.1j], [0.2, 0.3]])
        )), 0.8)
        _scan_table.cache_clear()
        # a budget of 40 velocities: the 64 are scanned one fill of 16 at a time
        monkeypatch.setattr(cutlocus, "_CHUNK_ELEMENTS", 40 * grid.t_count * grid.n * grid.k)
        assert search_minimizers(target, grid).clusters == 1
        assert _scan_table.cache_info().currsize == 0
        assert kernel_calls == [16] * 4

    @pytest.mark.parametrize("target", [_GENERIC_V42], ids=["generic"])
    def test_streamed_search_holds_no_table(self, target):
        """An over-budget k >= 2 grid's search peaks far below the table it does not build."""
        grid = VelocityGrid(4, 2, COMPLEX, family="general", sample_count=2048, t_count=320, seed=4)
        table_bytes = _table_bytes(grid)
        assert table_bytes > cutlocus._CHUNK_ELEMENTS * 16
        _scan_table.cache_clear()
        peak, rep = _traced_peak(search_minimizers, target, grid)
        assert rep.arrivals
        assert _scan_table.cache_info().currsize == 0
        assert peak < table_bytes / 4

    @pytest.mark.parametrize("target", [_cut_v21(), _generic_v21()], ids=["cut", "generic"])
    def test_factored_search_holds_no_table(self, target):
        """A k = 1 grid over the table budget is solved in its (rate, time)
        plane: the search peaks far below the table, and the cache holds the
        plane only."""
        grid = VelocityGrid(2, 1, COMPLEX, lambda_count=129, phase_count=64, seed=3)
        table_bytes = _table_bytes(grid)
        assert table_bytes > cutlocus._CHUNK_ELEMENTS * 16
        _scan_table.cache_clear()
        peak, rep = _traced_peak(search_minimizers, target, grid)
        assert rep.arrivals
        assert peak < table_bytes / 4
        plane = _scan_table(grid)
        assert _scan_table.cache_info().hits == 1
        held = sum(x.nbytes for x in (plane.rates, plane.top, plane.directions))
        assert held < table_bytes / 32


def _table_bytes(grid) -> int:
    """Bytes of the grid's endpoint table (velocities x times x n x k, complex)."""
    count = len(separate_family_params(grid))
    return count * grid.t_count * grid.n * grid.k * np.dtype(np.complex128).itemsize


def _traced_peak(fn, *args):
    """(tracemalloc peak in bytes, result) of one call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


class TestReportJson:
    """Every report record serializes by ``homspace._Record``'s one rule, which
    must write what the hand-written serializers of ``_oracles`` wrote."""

    @pytest.mark.parametrize(
        "search, arrives",
        [
            (lambda: search_minimizers(_cut_v21(), _SMALL_V21), True),
            (
                lambda: search_minimizers(
                    real_antipodal_cut_point(3), VelocityGrid(3, 1, REAL, seed=2, t_count=96)
                ),
                True,
            ),
            (lambda: search_minimizers(_GENERIC_V42, _SMALL_V42), True),
            (
                lambda: search_minimizers(
                    _cut_v21(), VelocityGrid(2, 1, COMPLEX, t_max=0.5, t_count=64)
                ),
                False,
            ),
            (lambda: search_minimizers(identity_point(2, 1), VelocityGrid(2, 1, COMPLEX)), True),
        ],
        ids=["cut_v21", "real_antipode", "general_v42", "empty", "identity"],
    )
    def test_search_report_matches_the_hand_written_serializers(self, search, arrives):
        rep = search()
        assert bool(rep.arrivals) == arrives
        assert (rep.min_length is None) == (not arrives)
        assert rep.to_json_dict() == minimizer_report_json(rep)
        # the same keys in the same order, at every depth, and the same floats
        pairs = [
            (rep.to_json_dict(), minimizer_report_json(rep)),
            (rep.target.to_json_dict(), target_class_json(rep.target)),
            (rep.grid.to_json_dict(), velocity_grid_json(rep.grid)),
        ] + [(a.to_json_dict(), arrival_json(a)) for a in rep.arrivals]
        for record, reference in pairs:
            assert json.dumps(record) == json.dumps(reference)

    @pytest.mark.parametrize(
        "summary",
        [
            lambda: verify_mirror_arrivals(3, 1, samples=4, seed=2, mode=REAL),
            lambda: verify_antidiagonal_arrivals(2, samples=3, seed=2),
            lambda: uniqueness_case_checks(3, trials=10, seed=2),
            lambda: bracket_generating_rank(4, 2, COMPLEX),
            lambda: montgomery_condition(8, 4),
        ],
        ids=["mirror", "antidiagonal", "uniqueness", "bracket", "montgomery"],
    )
    def test_summary_matches_asdict(self, summary):
        s = summary()
        assert s.to_json_dict() == dataclasses.asdict(s)
        assert json.dumps(s.to_json_dict()) == json.dumps(dataclasses.asdict(s))
