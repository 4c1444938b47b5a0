"""Differential tests of the geodesic evaluation kernel against scipy's expm.

``batch_geodesic_columns``, ``grid_geodesic_columns`` and ``sample_curve``
share one kernel.  Each is checked against the definition -- the first k
columns of expm(t v) . blockdiag(expm(-t a), I) -- and against the other two,
at the V_{2,1} closed-form shape and at the spectral shapes, in both field
modes, including degenerate velocities and t = 0.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from stiefel_sr import matcore
from stiefel_sr.matcore import COMPLEX, MODES, REAL
from stiefel_sr.homspace import BlockVelocity
from stiefel_sr.geodesic import (
    GeodesicSpec,
    batch_geodesic_columns,
    geodesic_v21_closed,
    geodesic_vn1_closed,
    grid_geodesic_columns,
    sample_curve,
)

SHAPES = [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (6, 3)]
KINDS = ["generic", "zero_a", "zero_b", "repeated"]
ATOL = 1e-10  # kernel vs expm, |t v| up to about 30
SHARED_ATOL = 1e-13  # the three entry points against each other


def reference_columns(a, b, t, mode):
    """First k columns of expm(t v) . blockdiag(expm(-t a), I)."""
    k, m = b.shape
    v = BlockVelocity(a, b, mode).embed()
    right = np.eye(k + m, dtype=np.complex128)
    right[:k, :k] = expm(-t * a)
    cols = (expm(t * v) @ right)[:, :k]
    return cols.real.astype(np.complex128) if mode == REAL else cols


def velocity_blocks(rng, n, k, mode, kind):
    m = n - k
    a = matcore.random_skew_hermitian(rng, k, mode)
    b = matcore.random_matrix(rng, k, m, mode)
    if kind == "zero_a":
        a = np.zeros_like(a)
    elif kind == "zero_b":
        b = np.zeros_like(b)
    elif kind == "repeated":
        # scalar fibre block and b with orthonormal rows (or columns): the
        # embedded velocity has repeated eigenvalues
        scalar = 1j * rng.uniform(-2.0, 2.0) if mode == COMPLEX else 0.0
        a = scalar * np.eye(k, dtype=np.complex128)
        b = rng.uniform(0.5, 2.0) * matcore.random_unitary(rng, max(k, m), mode)[:k, :m]
    return a, b


times = st.lists(st.floats(0.0, 6.0), min_size=1, max_size=5).map(lambda ts: [0.0] + ts)


class TestKernelAgainstExpm:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(SHAPES),
        st.sampled_from(MODES),
        st.sampled_from(KINDS),
        times,
    )
    def test_three_entry_points_match_expm_and_each_other(self, seed, shape, mode, kind, ts):
        n, k = shape
        rng = np.random.default_rng(seed)
        pairs = [velocity_blocks(rng, n, k, mode, kind) for _ in range(3)]
        a = np.stack([p[0] for p in pairs])
        b = np.stack([p[1] for p in pairs])
        ts = np.array(ts)

        grid = grid_geodesic_columns(a, b, ts, mode)
        assert grid.shape == (3, len(ts), n, k)
        for i, (ai, bi) in enumerate(pairs):
            ref = np.stack([reference_columns(ai, bi, t, mode) for t in ts])
            assert np.max(np.abs(grid[i] - ref)) < ATOL
            curve = sample_curve(GeodesicSpec(BlockVelocity(ai, bi, mode)), ts)
            assert curve.shape == (len(ts), n, k)
            assert np.max(np.abs(curve - grid[i])) < SHARED_ATOL
        rows = np.arange(3)
        for shift in range(len(ts)):
            # velocity i at its own time ts[(shift + i) % T]
            tix = (shift + rows) % len(ts)
            batch = batch_geodesic_columns(a, b, ts[tix], mode)
            assert batch.shape == (3, n, k)
            assert np.max(np.abs(batch - grid[rows, tix])) < SHARED_ATOL
        if mode == REAL:
            assert not np.any(grid.imag)


class TestClosedFormsAtTinyRates:
    """s = sqrt(x^2 + 4 bb*) -> 0: the closed forms must stay finite and exact."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1.0, 1e-4, 1e-9, 1e-170, 0.0]),
        st.floats(-3.0, 3.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.0, 6.0),
    )
    def test_v21_closed_matches_expm(self, scale, lam, re, im, t):
        lam, x2 = scale * lam, scale * complex(re, im)
        a, b = np.array([[1j * lam]]), np.array([[x2]])
        full = expm(t * BlockVelocity(a, b).embed()) @ np.diag([np.exp(-1j * lam * t), 1.0])
        closed = np.array(geodesic_v21_closed(lam, x2, t)).reshape(2, 2)
        assert np.max(np.abs(closed - full)) < 1e-12
        kernel = batch_geodesic_columns(a[None], b[None], np.array([t]))[0]
        assert np.max(np.abs(kernel - full[:, :1])) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.sampled_from([1.0, 1e-4, 1e-9, 1e-170, 0.0]),
        st.floats(-3.0, 3.0),
        st.floats(0.0, 6.0),
    )
    def test_vn1_closed_matches_expm(self, seed, n, scale, x, t):
        row = scale * matcore.random_matrix(np.random.default_rng(seed), 1, n - 1)
        x = scale * x
        a = np.array([[1j * x]])
        g1, g3 = geodesic_vn1_closed(x, row.reshape(-1), t)
        closed = np.concatenate([[g1], g3]).reshape(-1, 1)
        assert np.all(np.isfinite(closed))
        ref = reference_columns(a, row, t, COMPLEX)
        assert np.max(np.abs(closed - ref)) < 1e-12
        kernel = batch_geodesic_columns(a[None], row[None], np.array([t]))[0]
        assert np.max(np.abs(kernel - ref)) < 1e-12
