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
from stiefel_sr.homspace import (
    BlockVelocity, StiefelPoint, _block_velocities, _embed_velocities, identity_point,
)
from stiefel_sr.geodesic import (
    GeodesicSpec,
    _decompose,
    _geodesic_columns,
    _vn1_jacobian,
    batch_geodesic_columns,
    first_vanishing_time,
    grassmann_geodesic_2kk,
    length,
    normal_geodesic,
)
from stiefel_sr.tolerances import TOL
from stiefel_sr.cutlocus import (
    _LinearFamily,
    _best_hits,
    _endpoint_residuals,
    _refine,
    _normal_equations,
    _representatives,
    _scan_table,
    _scan_times,
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
    endpoint_jacobian_dense,
    jacobian_along,
    minimizer_report_json,
    normal_equations_dense,
    refine_every_iteration,
    scan_cols_inner_product,
    scan_cols_subtraction,
    scan_hits_table,
    separate_family_params,
    separate_family_raw_blocks,
    target_class_json,
    uniqueness_case_checks_loop,
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
    images, by the dense sensitivity oracle."""
    spectra = _decompose(*fam.blocks(params))
    return endpoint_jacobian_dense(ts, spectra, fam.da, fam.db, fam.grid.mode)


class TestLinearFamily:
    """The one linear family against the separate sphere and general families.

    The family's blocks are linear in the params, so they must be the
    separate families' raw blocks bit for bit, and the derivatives along the
    unit params the derivatives along those families' raw block tangents
    (the blocks of the unit params), to 1e-15 of the largest derivative (at
    least 1) for times up to 1.  The family samples the general family's
    params only, which k >= 2 grids take, with unit transversal
    coordinates; a sphere grid's unit rows are its own (``TestScanTable``).
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
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
        basis = separate_family_raw_blocks(grid, np.eye(params.shape[1]))
        ts = np.linspace(0.0, 1.0, len(params))
        got = unit_direction_jacobian(fam, params, ts)
        tangents = (np.broadcast_to(x, (len(params),) + x.shape) for x in basis)
        ref = jacobian_along(a, b, ts, *tangents, mode)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * max(1.0, float(np.max(np.abs(ref))))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (5, 2), (5, 3), (6, 3), (7, 4), (8, 3)])
    def test_entries_scatter_to_the_generators(self, n, k, mode):
        """Each unit param's ``entries``, scattered into a zero n x n matrix,
        give its generator i [[da, db], [-db*, 0]] exactly.  The fibre
        params come first, and a one-entry param (a diagonal rate) carries
        coefficient 0 on its repeat."""
        fam = _LinearFamily(VelocityGrid(n, k, mode))
        rows, cols, coefs, fibre = fam.entries
        gens = 1j * _embed_velocities(fam.da, fam.db)
        scattered = np.zeros_like(gens)
        for e in range(2):
            np.add.at(scattered, (np.arange(len(gens)), rows[:, e], cols[:, e]), coefs[:, e])
        assert np.array_equal(scattered, gens)
        inner = (rows < k) & (cols < k)
        assert fibre == fam.a_dim and inner[:fibre].all() and not inner[fibre:].any()
        single = (rows[:, 0] == rows[:, 1]) & (cols[:, 0] == cols[:, 1])
        assert np.count_nonzero(single) == (k if mode == COMPLEX else 0)
        assert np.all(coefs[single, 1] == 0) and np.all(coefs[~single] != 0)


class TestSample:
    """Every grid's sample comes from numpy's generator seeded with the
    grid's seed: the same seed gives the same bytes in every fresh cache
    entry, another seed another sample, and the sample has the moments of
    the distributions it is drawn from."""

    @pytest.mark.parametrize(
        "grid",
        [
            VelocityGrid(6, 3, COMPLEX, sample_count=128),
            VelocityGrid(5, 2, REAL, sample_count=64),
            VelocityGrid(3, 1, COMPLEX, direction_count=32),
            VelocityGrid(4, 1, REAL, direction_count=32),
        ],
        ids=["general_v63", "general_real_v52", "sphere_v31", "sphere_real_v41"],
    )
    def test_the_seed_fixes_the_sample(self, grid):
        def fresh(g):
            _scan_table.cache_clear()
            return _scan_table(g)[0].tobytes()

        first = fresh(grid)
        assert fresh(grid) == first
        assert fresh(dataclasses.replace(grid, seed=grid.seed + 1)) != first

    def test_general_sample_moments(self):
        # per coordinate, mean and variance within 5 standard errors of
        # U(lo, hi) (fibre) and of a uniform point of the unit sphere S^{D-1}
        # (transversal: mean 0, E x^2 = 1 / D, Var x^2 = 3 / (D (D + 2)) -
        # 1 / D^2); each transversal row has unit norm
        lo, hi = -1.0, 2.0
        fam = _LinearFamily(VelocityGrid(6, 3, COMPLEX, lambda_range=(lo, hi), sample_count=4096))
        sample = fam.initial_params()
        c = len(sample)
        fibre, transversal = sample[:, : fam.a_dim], sample[:, fam.a_dim :]
        assert fibre.shape == (c, 9) and transversal.shape == (c, 18)
        assert np.all((fibre >= lo) & (fibre < hi))
        var = (hi - lo) ** 2 / 12
        assert np.all(np.abs(fibre.mean(axis=0) - (lo + hi) / 2) <= 5 * np.sqrt(var / c))
        var_err = np.sqrt(((hi - lo) ** 4 / 80 - var**2) / c)
        assert np.all(np.abs(fibre.var(axis=0) - var) <= 5 * var_err)
        assert np.max(np.abs(np.linalg.norm(transversal, axis=1) - 1)) <= 1e-15
        dim = transversal.shape[1]
        assert np.all(np.abs(transversal.mean(axis=0)) <= 5 / np.sqrt(dim * c))
        square_var = 3 / (dim * (dim + 2)) - 1 / dim**2
        square_mean = np.mean(transversal**2, axis=0)
        assert np.all(np.abs(square_mean - 1 / dim) <= 5 * np.sqrt(square_var / c))

    @pytest.mark.parametrize("n, mode", [(4, COMPLEX), (5, REAL)])
    def test_sphere_rows_are_unit_and_distinct(self, n, mode):
        rows, _ = _scan_table(VelocityGrid(n, 1, mode, direction_count=4096, seed=3))
        assert rows.shape == (4096, n - 1)
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1)) <= 1e-15
        assert len(np.unique(rows, axis=0)) == 4096


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
    """The arguments of ``_representatives`` in each search of
    ``_post_processing_cases``, in order."""
    reps, inner = [], cutlocus._representatives

    def representatives(*args):
        reps.append(args)
        return inner(*args)

    cutlocus._representatives = representatives
    try:
        for target, grid in _post_processing_cases():
            search_minimizers(target, grid)
    finally:
        cutlocus._representatives = inner
    return reps


class TestPostProcessingOnSearches:
    """The dedup of real searches' arrivals against pairwise loops, and their
    report order."""

    def test_representatives_match_pairwise_loops(self):
        reps = _search_post_processing_inputs()
        assert len(reps) == 6
        results = [_representatives(*args) for args in reps]
        for (embeds, ts, dup, cluster), (kept, clusters) in zip(reps, results):
            assert kept.tolist() == greedy_dedup_loop(list(embeds), list(ts), dup)
            assert clusters == greedy_cluster_count_loop(list(embeds[kept]), cluster)
        # five continua, and the V(6,3) arrivals: one clique, over a pair window
        assert all(clusters >= 2 for _, clusters in results[:-1])
        assert len(reps[-1][0]) > cutlocus._PAIR_WINDOW and len(results[-1][0]) == 1

    def test_continua_are_listed_in_unit_row_order_whatever_the_rounding(self, monkeypatch):
        # every arrival of a continuum has one time and, up to rounding, one
        # length; the report lists them in the grid's row order, and a
        # last-bit change to each row's speed moves neither order nor clusters
        cases = [
            (StiefelPoint(np.array([[np.exp(0.8j * np.pi)], [0.0]])),
             VelocityGrid(2, 1, COMPLEX, seed=505)),
            (real_antipodal_cut_point(3), VelocityGrid(3, 1, REAL, seed=811)),
            (real_antipodal_cut_point(4), VelocityGrid(4, 1, REAL, seed=812)),
            (StiefelPoint(np.array([[np.exp(0.6j * np.pi)], [0.0], [0.0]])),
             VelocityGrid(3, 1, COMPLEX)),
        ]
        inner = cutlocus._speeds_squared

        def perturbed(b_blocks, n, mode):
            wobble = 1 + (np.arange(len(b_blocks)) % 3) * 2.0**-52
            return inner(b_blocks, n, mode) * wobble

        for target, grid in cases:
            rep = search_minimizers(target, grid)
            rows = cutlocus._unit_rows(grid)
            at = [
                int(np.argmin(np.linalg.norm(rows - arr.velocity.b_block[0], axis=1)))
                for arr in rep.arrivals
            ]
            assert len(at) > 2 and at == sorted(set(at)), (grid, at)
            with monkeypatch.context() as m:
                m.setattr(cutlocus, "_speeds_squared", perturbed)
                moved = search_minimizers(target, grid)
            assert moved.clusters == rep.clusters
            assert [arr.velocity.embed().tobytes() for arr in moved.arrivals] == [
                arr.velocity.embed().tobytes() for arr in rep.arrivals
            ]

    def test_continua_step_through_the_grid_directions(self):
        # a block-diagonal continuum lists one arrival per grid direction, in
        # the order the grid generates them: phases (complex V(2,1)) and
        # angles (real V(3,1)) from 0 in steps of 2 pi / 64
        v21 = search_minimizers(
            StiefelPoint(np.array([[np.exp(0.8j * np.pi)], [0.0]])), VelocityGrid(2, 1, COMPLEX)
        )
        v31 = search_minimizers(real_antipodal_cut_point(3), VelocityGrid(3, 1, REAL))
        for rep in (v21, v31):
            b = np.array([arr.velocity.b_block[0] for arr in rep.arrivals])
            # a real V(3,1) row (cos, sin) read as one complex number
            phases = np.angle(b[:, 0] if b.shape[1] == 1 else b[:, 0].real + 1j * b[:, 1].real)
            assert len(phases) == 64 and phases[0] == 0.0
            steps = np.diff(np.unwrap(phases))
            assert np.max(np.abs(steps - 2 * np.pi / 64)) < 1e-14

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

    The refinement's unknowns are the params of a velocity taken at t = 1,
    here a sample row scaled by a time in [0.3, 3].  It forms no Jacobian,
    only J^T J and J^T r (``_normal_equations``); J^T r at the unit residual
    e_i is row i of J, so the rows are read out one residual at a time, and
    J^T J must be the Gram matrix of the J so read.  With step h a central difference is off
    by h^2 / 6 times the third derivative, plus rounding of order 1e-16 /
    h; at h = 1e-5 both stay near 1e-10 for these velocity scales, so 1e-7
    (relative to the largest entry) leaves a wide margin while a wrong
    tangent is off at order one.
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
        x = params * rng.uniform(0.3, 3.0, (len(params), 1))
        target = identity_point(n, k, mode).cols
        spectra = _decompose(*fam.blocks(x))
        rows = 2 * n * k
        jac = np.empty((len(x), rows, x.shape[1]))
        for i in range(rows):
            unit = np.zeros((len(x), rows))
            unit[:, i] = 1.0
            jtj, jtr = _normal_equations(fam, x, unit, spectra)
            jac[:, i] = jtr[..., 0]
        gram = jac.swapaxes(1, 2) @ jac
        assert np.max(np.abs(jtj - gram)) <= 1e-12 * float(np.max(np.abs(gram)))
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


class TestNormalEquations:
    """The refinement's normal equations, taken in the eigenbasis of i v,
    against the dense contraction they replaced (``normal_equations_dense``:
    the directions' generators times the Daleckii-Krein sensitivity array,
    then the Jacobian's real and imaginary parts).

    Rows are the scan starts of a search for a seeded random velocity's
    endpoint, scaled by their times (the refinement's starting points),
    random rows of the family and rows beside the generating velocity
    scaled by its time.  The two are rounding apart:
    J^T J within 1e-13 of its largest entry and J^T r within 1e-13 of
    sqrt(max diag J^T J) |r|, the Cauchy-Schwarz bound of its entries; the
    measured gaps stay below 3e-15 of those scales at every shape.
    """

    @pytest.mark.parametrize(
        "n, k, mode",
        [(3, 2, COMPLEX), (4, 2, COMPLEX), (5, 2, COMPLEX), (5, 3, COMPLEX), (6, 3, COMPLEX),
         (4, 2, REAL), (5, 2, REAL), (5, 3, REAL), (6, 3, REAL), (8, 3, REAL)],
    )
    def test_matches_dense_contraction(self, n, k, mode):
        grid = VelocityGrid(n, k, mode, family="general", sample_count=256, seed=2)
        fam = _LinearFamily(grid)
        rng = np.random.default_rng(10 * n + k + (mode == REAL))
        params, t0 = rng.standard_normal((1, len(fam.da))), rng.uniform(0.3, 0.6, 1)
        params[:, fam.a_dim :] /= np.linalg.norm(params[:, fam.a_dim :])  # unit b
        a, b = fam.blocks(params)
        target = batch_geodesic_columns(a, b, t0, mode)[0]
        starts, times, _ = cutlocus._scan_hits(fam, target)
        # the scan finds no start for the real V(8,3) target at 256, 512 or
        # 1024 samples (the k >= 2 search loses targets); there the rows
        # beside the generating velocity are the only ones near the target
        assert len(starts) > 0 or (n, k, mode) == (8, 3, REAL)
        random_rows = rng.standard_normal((16, len(fam.da)))
        x = np.vstack([
            times[:, None] * starts,
            rng.uniform(0.1, grid.t_max, (16, 1)) * random_rows,
            t0 * (params + 1e-3 * rng.standard_normal((4, len(fam.da)))),
        ])
        r, spectra = _endpoint_residuals(fam, x, target)
        jtj, jtr = _normal_equations(fam, x, r, spectra)
        ref_jtj, ref_jtr = normal_equations_dense(fam, x, r, spectra)
        assert jtj.shape == ref_jtj.shape and jtr.shape == ref_jtr.shape
        scale = np.max(np.abs(ref_jtj), axis=(1, 2))
        assert np.all(np.max(np.abs(jtj - ref_jtj), axis=(1, 2)) <= 1e-13 * scale)
        bound = np.sqrt(np.max(np.diagonal(ref_jtj, 0, 1, 2), axis=1)) * np.linalg.norm(r, axis=1)
        assert np.all(np.max(np.abs(jtr - ref_jtr), axis=(1, 2)) <= 1e-13 * bound)


# the refinement runs at k >= 2 only: a k = 1 search solves along its fold branches
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
    b /= np.linalg.norm(b)
    target = batch_geodesic_columns(a, b, rng.uniform(0.3, 0.6, 1), grid.mode)[0]
    vix, tix, err = scan_cols_inner_product(_kernel_table(grid), target, 1.0)
    pick = _best_hits(vix, tix, err)
    assert len(pick) > 0
    return fam, p0[vix[pick]], _scan_times(grid)[tix[pick]], target


def _record_jacobian_rows(monkeypatch) -> list:
    """Make ``cutlocus._normal_equations`` append each param row it gets;
    any further arguments (the residuals and the refinement's stored spectra)
    pass through."""
    rows = []
    inner = cutlocus._normal_equations

    def recording(family, x, *rest):
        rows.extend(x.copy())
        return inner(family, x, *rest)

    monkeypatch.setattr(cutlocus, "_normal_equations", recording)
    return rows


class TestRefine:
    """The refinement against its original loop, which formed every active
    candidate's Jacobian on every iteration and decomposed every Jacobian's
    velocities afresh: keeping the normal equations of a candidate whose
    step was rejected, and the eigendecompositions of its accepted point,
    changes no arithmetic, so the refined coordinates and residuals agree
    bit for bit."""

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

    def test_chunks_change_no_bit(self, monkeypatch):
        """Over a small element budget a V(6,3) scan runs in several chunks
        and the refinement forms its normal equations in at least 3 per
        iteration; the scan's starts and the refinement's coordinates,
        residuals and stats equal the default run's, in one chunk each, bit
        for bit."""
        fam, _, _, target = _refine_case("v63")
        sizes, scans = [], []
        normal, phases = cutlocus._normal_equations, cutlocus._phase_blocks
        monkeypatch.setattr(
            cutlocus, "_normal_equations", lambda f, x, *r: sizes.append(len(x)) or normal(f, x, *r)
        )
        monkeypatch.setattr(cutlocus, "_phase_blocks", lambda *a: scans.append(1) or phases(*a))

        def run():
            sizes.clear()
            scans.clear()
            starts = cutlocus._scan_hits(fam, target)
            return starts, _refine(fam, *starts[:2], target, TOL.hit)

        default = run()
        n_cand = len(default[0][1])
        assert len(scans) == 1 and sizes[0] == n_cand
        monkeypatch.setattr(cutlocus, "_CHUNK_ELEMENTS", 2**16)
        chunked = run()
        assert len(scans) >= 3 and 3 * max(sizes) <= n_cand
        for got, expected in zip(chunked, default, strict=True):
            for g, e in zip(got, expected, strict=True):
                assert (g == e) if isinstance(e, (int, dict)) else np.array_equal(g, e)

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
        x, errs, stats = _refine(fam, params, ts, target, TOL.hit)
        assert np.array_equal(lhs_seen[1], lhs_seen[0] + 1e-8 * np.eye(params.shape[1]))
        assert len(lhs_seen) == stats["lm_iterations"] + 1
        assert stats["converged"] > 0 and np.all(np.isfinite(errs)) and np.all(np.isfinite(x))
        assert sum(stats[key] for key in ("converged", "damped", "stalled", "capped")) == len(ts)

    @pytest.mark.parametrize("name", ["v63", "v52"])
    def test_stored_spectra_give_the_fresh_jacobian(self, name, monkeypatch):
        fam, params, ts, target = _refine_case(name)
        inner = cutlocus._normal_equations
        same = []

        def both(family, x, r, spectra):
            stored = inner(family, x, r, spectra)
            fresh = inner(family, x, r, _decompose(*family.blocks(x)))
            same.append(all(np.array_equal(s, f) for s, f in zip(stored, fresh)))
            return stored

        monkeypatch.setattr(cutlocus, "_normal_equations", both)
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


def _general_v63_velocity(seed: int, index: int):
    """Blocks (a, b) and time of the general_v63 benchmark's op ``index`` at
    ``seed``, by its recipe: a random complex V(6,3) velocity at a time in
    [0.3, 0.6]."""
    rng = np.random.default_rng((seed, index + 1))
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = (g - np.conj(g.T)) / 2.0
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return a, b / np.linalg.norm(b), rng.uniform(0.3, 0.6)


def _general_v63_target(seed: int, index: int) -> StiefelPoint:
    """The target of the general_v63 benchmark's op ``index`` at ``seed``: the
    endpoint of its velocity, taken with scipy's expm."""
    a, b, t = _general_v63_velocity(seed, index)
    v = np.block([[a, b], [-np.conj(b.T), np.zeros((3, 3))]])
    return StiefelPoint(expm(t * v)[:, :3] @ expm(-t * a), COMPLEX)


class TestGeneralV63Truth:
    """The seeded sample finds every general_v63 corpus target (seeds 1 and
    7, ops 0-7): one cluster, within 1e-13 relative of the generating length
    (measured: at most 8.8e-15 short), since a candidate counts as converged
    only at its rounding floor."""

    @pytest.mark.parametrize("seed, index", [(s, i) for s in (1, 7) for i in range(8)])
    def test_one_cluster_at_the_generating_length(self, seed, index):
        a, b, t = _general_v63_velocity(seed, index)
        truth = length(BlockVelocity(a, b), t)
        grid = VelocityGrid(6, 3, COMPLEX, family="general", sample_count=128)
        rep = search_minimizers(_general_v63_target(seed, index), grid)
        assert rep.clusters == 1
        assert abs(rep.min_length / truth - 1) <= 1e-13


# (n, k, mode, sample count) of the k >= 2 truth targets, and the targets
# whose search finds no scan hit: the scan does not cover every real V(5,3)
# and V(6,3) target (an open scan-coverage defect), so those reports are
# empty, and pinned so
TRUTH_SHAPES = [
    (3, 2, COMPLEX, 256), (4, 2, COMPLEX, 256), (5, 2, COMPLEX, 512), (6, 2, COMPLEX, 512),
    (5, 3, COMPLEX, 512), (4, 2, REAL, 256), (5, 3, REAL, 256), (6, 3, REAL, 512),
]
UNSCANNED = {(5, 3, REAL, 1), (6, 3, REAL, 1)}


class TestTruthAcrossShapes:
    """k >= 2 searches for the endpoints of random velocities (unit b, t in
    [0.3, 0.9], two per shape) report one cluster within 1e-13 relative of
    the generating length (measured: within 7.4e-15), at n = 2k, n >
    2k and n < 2k, in both modes."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n, k, mode, count", TRUTH_SHAPES)
    def test_one_cluster_at_the_generating_length(self, n, k, mode, count, seed):
        rng = np.random.default_rng(1000 * n + 100 * k + 10 * (mode == REAL) + seed)
        a = matcore.random_skew_hermitian(rng, k, mode)
        b = matcore.random_matrix(rng, k, n - k, mode)
        vel = BlockVelocity(a, b / np.linalg.norm(b), mode)
        t = rng.uniform(0.3, 0.9)
        rep = search_minimizers(
            normal_geodesic(GeodesicSpec(vel), t), VelocityGrid(n, k, mode, sample_count=count)
        )
        if (n, k, mode, seed) in UNSCANNED:
            assert rep.arrivals == () and rep.diagnostics.scan_hits == 0
            return
        assert rep.clusters == 1
        assert abs(rep.min_length / length(vel, t) - 1) <= 1e-13


class TestStallWindow:
    """The refinement, which freezes a candidate whose squared residual has
    not halved over the last ``_STALL_WINDOW`` iterations, against the same
    refinement with the window disabled, which runs every candidate to
    convergence, damping or the iteration cap.  Candidates march
    independently, so every arrival of the windowed run is an arrival of the
    full run, bit for bit.  On both refine cases, and on the 16 general_v63
    corpus ops, the window freezes no candidate that would arrive: the
    slowest converging arrival needs a window of 6 on v63, 3 on v52 and 9
    on the corpus ops.  What it freezes would otherwise run to the cap (20
    of 40 candidates on v63, 71 to 89 of 139 to 158 per corpus op) or be
    damped (15 of 34 on v52)."""

    @pytest.mark.parametrize("name", sorted(REFINE_GRIDS))
    def test_arrivals_are_bit_identical_and_the_shortest_is_kept(self, name, monkeypatch):
        fam, params, ts, target = _refine_case(name)
        *shipped, stats = _refine(fam, params, ts, target, TOL.hit)
        _disable_stall_window(monkeypatch)
        *full, full_stats = _refine(fam, params, ts, target, TOL.hit)
        assert full_stats["stalled"] == 0
        arrived = shipped[1] <= TOL.hit
        assert arrived.any()
        for got, expected in zip(shipped, full):
            assert np.array_equal(got[arrived], expected[arrived])
        grid = REFINE_GRIDS[name]

        def shortest(x, errs):
            # the length of the geodesic of x at t = 1 is its speed
            b = fam.blocks(x[errs <= TOL.hit])[1]
            return np.min(np.sqrt(_speeds_squared(b, grid.n, grid.mode)))

        assert shortest(*shipped) == shortest(*full)
        if name == "v63":
            assert stats["stalled"] > 0

    def test_late_converger_keeps_the_report(self, monkeypatch):
        # seed 12 op 4: the minimal-length candidates plateau before they
        # converge, the first of them at iteration 19; its residual falls
        # only from 6.6e-6 to 5.4e-6 over iterations 7-10, so a window of 3
        # or less freezes it, and a window of 2 freezes every one of them
        target = _general_v63_target(12, 4)
        grid = VelocityGrid(6, 3, COMPLEX, family="general", sample_count=128)
        shipped = search_minimizers(target, grid).to_json_dict()
        _disable_stall_window(monkeypatch)
        full = search_minimizers(target, grid).to_json_dict()
        assert shipped.pop("diagnostics")["stalled"] > 0
        assert full.pop("diagnostics")["stalled"] == 0
        assert json.dumps(shipped) == json.dumps(full)
        # no candidate converges before iteration 19: at a cap of 18 the
        # report holds only arrivals still descending, off the converged
        # length, so the window has run over the plateaus and kept them
        monkeypatch.setattr(cutlocus, "_LM_ITERS", 18)
        early = search_minimizers(target, grid)
        assert early.diagnostics.converged == 0
        assert abs(early.min_length - full["min_length"]) > 1e-12 * full["min_length"]
        monkeypatch.setattr(cutlocus, "_LM_ITERS", 60)
        monkeypatch.setattr(cutlocus, "_STALL_WINDOW", 2)
        assert search_minimizers(target, grid).arrivals == ()


    @pytest.mark.parametrize("seed, index", [(1, 2), (7, 4)])
    def test_disabling_the_window_keeps_clusters_and_min_length(self, seed, index, monkeypatch):
        """With the window disabled every candidate runs to convergence,
        damping or the cap, so a minimizer whose only candidate plateaus
        longer than the window would show here.  On both ops the window
        freezes no candidate that would converge: the converged counts
        agree, and the window's stalled candidates run to the cap or are
        damped without it."""
        target = _general_v63_target(seed, index)
        grid = VelocityGrid(6, 3, COMPLEX, family="general", sample_count=128)
        shipped = search_minimizers(target, grid)
        _disable_stall_window(monkeypatch)
        full = search_minimizers(target, grid)
        assert full.diagnostics.stalled == 0 and shipped.diagnostics.stalled > 0
        assert shipped.clusters == full.clusters >= 1
        assert abs(shipped.min_length - full.min_length) <= 1e-12 * full.min_length
        assert full.diagnostics.converged == shipped.diagnostics.converged


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
        ((_, errs, _),) = refined
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

        # cutlocus binds no grid kernel; one bound there later fails here too
        for name in ("batch_geodesic_columns", "_decompose"):
            monkeypatch.setattr(
                cutlocus, name, lambda *args, name=name: pytest.fail(name), raising=False
            )
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
    return _geodesic_columns(a[rows], b[rows], _scan_times(grid)[None], grid.mode)


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
        # a block-diagonal target reads the grid's unit rows; a generic one
        # fixes its own row and reads no entry
        reads = int(classify_target(target).kind == BLOCK_DIAGONAL)
        _scan_table.cache_clear()
        cold = _report_bytes(target, grid)
        assert _scan_table.cache_info().misses == reads
        warm = _report_bytes(target, grid)
        assert _scan_table.cache_info().hits == reads
        assert cold == warm

    @pytest.mark.parametrize(
        "grid",
        [VelocityGrid(6, 3, COMPLEX, sample_count=128, seed=1), VelocityGrid(4, 2, COMPLEX)],
        ids=["general_v63", "default_v42"],
    )
    def test_k2_entry_holds_the_sample_and_its_spectra(self, grid):
        """At k >= 2 the cache holds the grid's sample and its
        velocities' spectra (w, q, wa, qa, C = q*[:, :k] qa), read-only, and
        nothing that depends on the times: the endpoint at any time is
        q (C o e^{-i t w_p} e^{i t wa_j}) qa*, the kernel's."""
        _scan_table.cache_clear()
        sample, spectra = _scan_table(grid)
        for x in (sample, *spectra):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[(0,) * x.ndim] = 0.0
        assert np.array_equal(sample, separate_family_params(grid))
        family = _LinearFamily(grid)
        a, b = family.blocks(sample)
        w, q, wa, qa, c_mat = spectra
        assert all(np.array_equal(x, y) for x, y in zip(spectra, _decompose(a, b), strict=True))
        assert np.array_equal(c_mat, np.conj(q[:, : grid.k]).swapaxes(1, 2) @ qa)
        c, n, k = len(sample), grid.n, grid.k
        held = sum(x.nbytes for x in (sample, *spectra))
        # float params and eigenvalues, complex eigenvectors and C
        assert held == 8 * c * (len(family.da) + n + k) + 16 * c * (n * n + k * k + n * k)
        rows = np.arange(0, c, 37)
        t = np.linspace(0.1, grid.t_max, len(rows))
        mid = c_mat[rows] * np.exp(-1j * t[:, None, None] * (w[rows, :, None] - wa[rows, None, :]))
        ends = q[rows] @ mid @ np.conj(qa[rows]).swapaxes(1, 2)
        assert np.max(np.abs(ends - batch_geodesic_columns(a[rows], b[rows], t))) < 1e-13

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
        """At k = 1 the cache holds the grid's unit rows only, no rates, no
        times and no fills.  They are sampled directly and must be, bit for
        bit, the distinct rows of the grid's velocities as the separate
        families sampled them (``separate_family_params``), in the order
        those generate them; with the unit-row terms of ``_vn1_jacobian`` at
        each velocity's rate, velocity (i lam, u) reaches (T, -conj(u) S),
        the kernel's table."""
        rows, fills = _scan_table(grid)
        assert fills is None and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
        a, b = _grid_blocks(grid)
        _, first = np.unique(b[:, 0], axis=0, return_index=True)
        assert np.array_equal(rows, b[np.sort(first), 0])
        row = np.array([np.flatnonzero((rows == u).all(axis=1))[0] for u in b[:, 0]])
        top, _, dt = _vn1_jacobian(a[:, 0, 0].imag[:, None], _scan_times(grid))[:3]
        bottom = np.conj(rows[row])[:, None, :] * dt[:, :, None]
        rebuilt = np.concatenate([top[:, :, None], bottom], axis=2)[..., None]
        assert np.max(np.abs(rebuilt - _kernel_table(grid))) < 1e-14

    @pytest.mark.parametrize("budget", [None, 20], ids=["cached", "over_budget"])
    def test_three_searches_draw_the_sample_once(self, budget, monkeypatch):
        # the sample and its spectra are made by the cache entry alone,
        # whether the grid's scan runs in one chunk or, over a budget of 20
        # velocities, in several
        draws = []
        draw = _LinearFamily.initial_params
        monkeypatch.setattr(_LinearFamily, "initial_params", lambda f: draws.append(1) or draw(f))
        grid = _SMALL_V42
        if budget is not None:
            budget *= 4 * grid.t_count * grid.n * grid.k
            monkeypatch.setattr(cutlocus, "_CHUNK_ELEMENTS", budget)
        _scan_table.cache_clear()
        reports = {_report_bytes(_GENERIC_V42, grid) for _ in range(3)}
        assert len(draws) == 1 and len(reports) == 1
        assert len(_scan_table(grid)[1]) == 5

    @pytest.mark.parametrize(
        "target, grid",
        [
            (_generic_v21(), _SMALL_V21),
            (
                normal_geodesic(GeodesicSpec(BlockVelocity(
                    np.zeros((1, 1)), np.array([[0.6, -0.8]]), REAL
                )), 1.7),
                VelocityGrid(3, 1, REAL, seed=2),
            ),
        ],
        ids=["generic_v21", "generic_real_v31"],
    )
    def test_generic_k1_search_reads_no_entry(self, target, grid):
        # a generic k = 1 target fixes its own row: its search neither reads
        # nor evicts the one resident entry, here a k >= 2 grid's
        _scan_table.cache_clear()
        held = _scan_table(_SMALL_V42)
        assert search_minimizers(target, grid).arrivals
        info = _scan_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 0, 1)
        assert _scan_table(_SMALL_V42) is held

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
        # the cut point's own search leaves the grid's unit rows cached
        assert search_minimizers(StiefelPoint(np.array([[1j], [0.0]])), grid).clusters >= 2
        default = search_minimizers(near, grid)
        assert default.clusters == 1
        # the branch solve lands on the target's one root, so a wider hit
        # radius admits no other arrival; a wider eq makes the target
        # block-diagonal, reached by every unit row
        tolerances.configure(hit=5e-3)
        assert search_minimizers(near, grid).to_json_dict() == default.to_json_dict()
        tolerances.configure(hit=5e-3, eq=1e-4)
        configured = search_minimizers(near, grid)
        assert configured.clusters >= 2
        assert configured.target.kind == BLOCK_DIAGONAL
        assert max(a.endpoint_error for a in configured.arrivals) > 1e-8
        # the generic searches read no entry; the block-diagonal one, the warm rows
        info = _scan_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def _assert_same_hits(hits, ref, tol):
    vix, tix, err = hits
    ref_v, ref_t, ref_e = ref
    assert len(ref_v) > 0
    assert np.array_equal(vix, ref_v) and np.array_equal(tix, ref_t)
    assert np.max(np.abs(err - ref_e)) < tol


def _scan_case(n: int, k: int, mode: str, seed: int, sign: float = 0.0):
    """A 128-sample general grid of the shape and the endpoint of a seeded
    random velocity near one of its sample's at a time in [0.5, 2], scaled
    by sqrt(1 + sign 0.5 TOL.unit) off orthonormality."""
    grid = VelocityGrid(n, k, mode, sample_count=128, seed=seed)
    family = _LinearFamily(grid)
    rng = np.random.default_rng(100 * n + 10 * k + seed)
    p0 = family.initial_params()
    near = p0[rng.integers(len(p0))] + 0.1 * rng.standard_normal(p0.shape[1])
    a, b = family.blocks(near[None])
    b /= np.linalg.norm(b)
    target = batch_geodesic_columns(a, b, rng.uniform(0.5, 2.0, 1), mode)[0]
    return grid, target * np.sqrt(1.0 + sign * 0.5 * TOL.unit)


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
    """The k >= 2 scan from its grid's spectra against the table scan.

    The table scan (``scan_hits_table``) fills the grid's endpoint table with
    the kernel and takes each point's squared error as one inner product;
    the spectral scan sums the same error's n k exponential terms.  Both
    round the squared errors to about 1e-15, so the hits must be identical
    and, away from an exact arrival, their errors within 1e-12.  A k = 1
    grid makes no scan: its target's own orthonormality enters the branch
    solve instead.
    """

    @pytest.mark.parametrize(
        "case",
        [
            (4, 2, COMPLEX, 1), (4, 2, REAL, 1), (5, 3, COMPLEX, 2), (5, 3, REAL, 2),
            (6, 3, COMPLEX, 1), (4, 2, COMPLEX, 3, -1.0), (4, 2, COMPLEX, 3, 1.0),
        ],
        ids=["v42", "real_v42", "v53", "real_v53", "v63", "v42_shrunk", "v42_stretched"],
    )
    def test_spectral_scan_matches_the_table_scan(self, case, monkeypatch):
        grid, target = _scan_case(*case)
        self._assert_scan_matches_table(grid, target, monkeypatch)

    def test_default_grid(self, monkeypatch):
        # CI's complex V(4,2) velocity at t = 0.8, on the default grid
        self._assert_scan_matches_table(VelocityGrid(4, 2), _GENERIC_V42.cols, monkeypatch)

    @staticmethod
    def _assert_scan_matches_table(grid, target, monkeypatch):
        """The hits that the spectral scan hands ``_best_hits`` are the table
        scan's, and so are its starts.  On the grid's first 64 velocities,
        ungated, the table scan's hits are also its earlier subtraction
        pass's, with errors within 1e-7 (the subtraction resolves errors near
        0 to about 1e-8 only).  A scan in chunks of 7 velocities gives the
        same starts."""
        family = _LinearFamily(grid)
        seen = []
        best = cutlocus._best_hits
        monkeypatch.setattr(cutlocus, "_best_hits", lambda *hits: seen.append(hits) or best(*hits))
        _scan_table.cache_clear()
        params, ts, count = cutlocus._scan_hits(family, target)
        ref = scan_hits_table(family, target)
        _assert_same_hits(seen[0], ref, 1e-12)
        pick = best(*ref)
        assert count == len(ref[0])
        assert np.array_equal(params, family.initial_params()[ref[0][pick]])
        assert np.array_equal(ts, _scan_times(grid)[ref[1][pick]])
        cols = _kernel_table(grid, slice(0, 64))
        _assert_same_hits(
            scan_cols_subtraction(cols, target, np.inf),
            scan_cols_inner_product(cols, target, np.inf),
            1e-7,
        )
        monkeypatch.setattr(cutlocus, "_CHUNK_ELEMENTS", 7 * 4 * grid.t_count * grid.n * grid.k)
        chunked = cutlocus._scan_hits(family, target)
        assert all(np.array_equal(x, y) for x, y in zip(chunked, (params, ts, count)))

    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["shrunk", "stretched"])
    def test_target_off_orthonormality(self, sign):
        # a point of the grid's kernel table scaled so that |Q* Q - I| = 0.5
        # unit: accepted as a point, and still reached by one cluster
        grid = VelocityGrid(2, 1, COMPLEX, seed=1)
        cols = _kernel_table(grid, slice(1234, 1235))[0, 101] * np.sqrt(1.0 + sign * 0.5 * TOL.unit)
        target = StiefelPoint(cols)
        dev = float(np.max(np.abs(np.conj(cols).T @ cols - np.eye(1))))
        assert dev == pytest.approx(0.5 * TOL.unit, rel=1e-5)
        assert classify_target(target).kind == GENERIC
        rep = search_minimizers(target, grid)
        assert rep.clusters == 1 and rep.arrivals[0].endpoint_error < 1e-9


class TestEigensolverFreeSearch:
    """No k = 1 search -- unit rows, branch brackets, Newton solve -- calls an eigensolver."""

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
        # a k = 1 search is a branch solve: no LM refinement, no endpoint
        # residual, no scan and no decomposition of a sample either
        for name in ("_refine", "_endpoint_residuals", "_scan_hits", "_decompose"):
            monkeypatch.setattr(cutlocus, name, lambda *args, name=name: pytest.fail(name))
        _scan_table.cache_clear()  # the unit rows are drawn inside the counted search
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lambda_range", (False, True)),
            ("lambda_range", (np.True_, 1.0)),
            ("lambda_range", (-1.0, 0.0, 1.0)),
            ("lambda_range", (1.0,)),
            ("lambda_range", 3.0),
            ("lambda_range", ("-1", "1")),
            ("t_max", True),
            ("t_max", "2.0"),
        ],
        ids=["bools", "numpy_bool", "three", "one", "scalar", "strings", "t_max_bool",
             "t_max_string"],
    )
    def test_non_real_or_miscounted_bounds_rejected(self, field, value):
        # a bool is not a bound (the counts reject bools too), and a grid
        # record holding one would not be accepted back by the CLI
        with pytest.raises(ValueError, match=field):
            VelocityGrid(**{"n": 2, "k": 1, "mode": COMPLEX, field: value})

    @pytest.mark.parametrize(
        "bounds",
        [(-2, 2), (np.float32(-2.0), np.float32(2.0)), np.array([-2.0, 2.0]), (np.int8(-2), 2.0)],
        ids=["ints", "float32", "array", "numpy_int"],
    )
    def test_lambda_range_is_stored_as_floats(self, bounds):
        grid = VelocityGrid(2, 1, COMPLEX, lambda_range=bounds)
        assert all(type(x) is float for x in grid.lambda_range)
        assert grid == VelocityGrid(2, 1, COMPLEX, lambda_range=(-2.0, 2.0))
        assert json.dumps(grid.to_json_dict()["lambda_range"]) == "[-2.0, 2.0]"

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
        # every field the table lists must leave the scan data and the
        # reports byte for byte, apart from the grid record, and every other
        # grid option must change one of them
        changed = {
            "lambda_range": (-2.0, 2.5), "lambda_count": 65, "phase_count": 65,
            "direction_count": 65, "sample_count": 17, "t_max": 2.0, "t_count": 9, "seed": 3,
        }
        base = VelocityGrid(n, k, mode, **counts)
        unread = cutlocus._unread_grid_fields(base)
        assert set(unread) <= changed.keys()
        if k == 1:
            assert {"lambda_count", "t_count"} <= set(unread)
        targets = _unread_field_targets(n, k, mode)

        def outputs(grid):
            sample, fills = _scan_table(grid)
            table = [(x.shape, x.tobytes()) for x in (sample, *(fills or ()))]
            reports = []
            for target in targets:
                report = search_minimizers(target, grid).to_json_dict()
                del report["grid"]
                reports.append(json.dumps(report))
            return table, reports

        reference = outputs(base)
        for name, value in changed.items():
            if name in counts:
                value = counts[name] + 1
            grid = dataclasses.replace(base, **{name: value})
            assert cutlocus._unread_grid_fields(grid) == unread
            assert (outputs(grid) == reference) == (name in unread), name

    def test_auto_and_its_resolution_share_one_cache_entry(self):
        _scan_table.cache_clear()
        counts = {"lambda_count": 16, "phase_count": 16}
        auto = VelocityGrid(2, 1, COMPLEX, **counts)
        explicit = VelocityGrid(2, 1, COMPLEX, family="v21", t_max=1.1 * np.pi, **counts)
        assert auto == explicit and hash(auto) == hash(explicit)
        assert _report_bytes(_cut_v21(), auto) == _report_bytes(_cut_v21(), explicit)
        info = _scan_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def _unread_field_targets(n: int, k: int, mode: str):
    """A generic and a block-diagonal target of the shape whose reports the
    k = 1 window options move: a complex generic root at rate 2.7, outside
    the changed rates (-2, 2.5); a real generic root and both block-diagonal
    ones past the changed t_max = 2."""
    if k >= 2:
        return _GENERIC_V42, _block_diagonal_v42()
    rng = np.random.default_rng(n)
    b = matcore.random_matrix(rng, 1, n - 1, mode)
    if mode == REAL:
        vel = BlockVelocity(np.zeros((1, 1)), b / np.linalg.norm(b), REAL)
        return normal_geodesic(GeodesicSpec(vel), 2.5), real_antipodal_cut_point(n)
    vel = BlockVelocity(np.array([[2.7j]]), b / np.linalg.norm(b))
    generic = normal_geodesic(GeodesicSpec(vel), 0.5)
    cut = np.zeros((n, 1), dtype=complex)
    cut[0, 0] = np.exp(0.8j * np.pi)
    return generic, StiefelPoint(cut)


class TestScanFill:
    """No search holds an endpoint table: a k >= 2 scan sums its grid's
    spectra, and a k = 1 search solves along its fold branches."""

    @pytest.mark.parametrize("target", [_GENERIC_V42], ids=["generic"])
    def test_k2_search_holds_no_table(self, target):
        """A k >= 2 search peaks far below the endpoint table that it does
        not build, its cache entry's sample and spectra included."""
        grid = VelocityGrid(4, 2, COMPLEX, family="general", sample_count=2048, t_count=320, seed=4)
        table_bytes = _table_bytes(grid)
        assert table_bytes > cutlocus._CHUNK_ELEMENTS * 16
        _scan_table.cache_clear()
        peak, rep = _traced_peak(search_minimizers, target, grid)
        assert rep.arrivals
        assert peak < table_bytes / 4
        assert _scan_table.cache_info().currsize == 1

    @pytest.mark.parametrize("target", [_cut_v21(), _generic_v21()], ids=["cut", "generic"])
    def test_factored_search_holds_no_table(self, target):
        """A k = 1 grid over the table budget samples no rates and no times:
        the search peaks far below the table, and the cache holds at most the
        grid's unit rows (the cut search's), never fills."""
        grid = VelocityGrid(2, 1, COMPLEX, lambda_count=129, phase_count=64, seed=3)
        table_bytes = _table_bytes(grid)
        assert table_bytes > cutlocus._CHUNK_ELEMENTS * 16
        _scan_table.cache_clear()
        peak, rep = _traced_peak(search_minimizers, target, grid)
        assert rep.arrivals
        assert peak < table_bytes / 4
        reads = int(classify_target(target).kind == BLOCK_DIAGONAL)
        assert _scan_table.cache_info().currsize == reads
        rows, fills = _scan_table(grid)
        assert rows.shape == (grid.phase_count, 1) and fills is None


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
