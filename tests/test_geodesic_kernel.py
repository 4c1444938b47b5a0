"""Differential tests of the geodesic evaluation kernel against scipy's expm.

``batch_geodesic_columns`` and ``sample_curve`` are views of one kernel,
``_geodesic_columns``, which also evaluates stacked velocities on a shared
time grid.  Each is checked against the definition -- the first k columns
of expm(t v) . blockdiag(expm(-t a), I) -- and against the other two,
at the k = 1 shapes, which take the V_{n,1} closed form, and at the spectral
shapes (k >= 2), in both field modes, including degenerate velocities and
t = 0; at k >= 2 also one velocity on 1200 times against one time at a
time.  The closed form is also checked against the spectral path at every
k = 1 shape, bit for bit against the former V_{2,1}-only column, and its
public views stacked against one call per input.  The endpoint's derivatives
are checked against scipy's ``expm_frechet`` on the same inputs along every
unit param of the search's linear family, as the refinement takes them
(``_eigenbasis_jacobian``, at every shape, rotated back by Q), along the
velocity itself, where they are t times the time derivative (the
refinement's time lives in the velocity's scale), and along fixed dense
directions, combined from those, at k = 1 and k >= 2 in both modes; the top
entry of the unit-row V_{n,1} column, whose
phase the k = 1 search solves for along its fold branches, is checked with its
rate and time derivatives and the bottom entries' terms (``_vn1_jacobian``)
at every k = 1 shape up to |t v| = 30.  Beyond |t v| = 30, where the
double-precision expm reference no longer holds, the spectral path (k >= 2)
is checked against a 40-digit mpmath matrix exponential up to |t v| = 1e3,
the V_{n,1} closed form and its unit-row factors against it up to |t v| =
300, and the k >= 2 Jacobian and the top entry's derivatives against
40-digit central differences of that exponential up to |t v| = 300.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, expm_frechet

from _oracles import first_column_2x2, geodesic_columns_mp, geodesic_jacobian_mp
from stiefel_sr import matcore
from stiefel_sr.cutlocus import VelocityGrid, _LinearFamily
from stiefel_sr.matcore import COMPLEX, MODES, REAL
from stiefel_sr.homspace import BlockVelocity, _embed_velocities
from stiefel_sr.geodesic import (
    GeodesicSpec,
    _decompose,
    _eigenbasis_jacobian,
    _field,
    _geodesic_columns,
    _vn1_column,
    _vn1_jacobian,
    batch_geodesic_columns,
    geodesic_v21_closed,
    geodesic_vn1_closed,
    sample_curve,
)

SHAPES = [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (6, 3)]
KINDS = ["generic", "zero_a", "zero_b", "repeated"]
ATOL = 1e-10  # kernel vs expm, |t v| up to about 30
SHARED_ATOL = 1e-13  # the three entry points against each other
MP_ERR = 32.0  # kernel vs 40-digit mpmath, in units of eps * (1 + |t v|)
MP_JAC_ERR = 8.0  # Jacobian vs 40-digit differences, same units (see its tests)
MP_VN1_ERR = 4.0  # V(n,1) closed form vs 40-digit mpmath, same units (see its test)


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

        grid = _geodesic_columns(a, b, ts[None], mode)
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

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (6, 3)])
    @pytest.mark.parametrize("mode", MODES)
    def test_long_time_grid_matches_one_time_at_a_time(self, shape, mode):
        # one velocity on 1200 times takes the same two products as on one time
        n, k = shape
        rng = np.random.default_rng(n + k)
        a, b = velocity_blocks(rng, n, k, mode, "generic")
        ts = np.linspace(0.0, 40.0, 1200)
        curve = sample_curve(GeodesicSpec(BlockVelocity(a, b, mode)), ts)
        rows = np.repeat(a[None], len(ts), axis=0), np.repeat(b[None], len(ts), axis=0)
        assert np.max(np.abs(curve - batch_geodesic_columns(*rows, ts, mode))) < SHARED_ATOL

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_empty_stack(self, k, mode):
        # a search with no candidate evaluates zero velocities; every k returns
        # an empty stack of the right shape
        n = 2 * k
        a, b = np.zeros((0, k, k), dtype=complex), np.zeros((0, k, n - k), dtype=complex)
        assert batch_geodesic_columns(a, b, np.zeros(0), mode).shape == (0, n, k)
        ts = np.linspace(0.0, 1.0, 5)
        assert _geodesic_columns(a, b, ts[None], mode).shape == (0, len(ts), n, k)


def reference_derivatives(a, b, t, da, db, mode):
    """Derivatives of expm(t v)[:, :k] . expm(-t a) along each (da[j], db[j]) and along t.

    Built from scipy's expm_frechet; returns (d, n, k) and (n, k).
    """
    k = a.shape[0]
    v = BlockVelocity(a, b, mode).embed()
    left = expm(t * v)[:, :k]
    right = expm(-t * a)

    def along(dv, dfibre):
        return expm_frechet(t * v, dv)[1][:, :k] @ right + left @ expm_frechet(-t * a, -dfibre)[1]

    d_dir = np.stack(
        [along(t * BlockVelocity(x, y, mode).embed(), t * x) for x, y in zip(da, db)]
    )
    d_t = along(v, a)
    if mode == REAL:
        return d_dir.real, d_t.real
    return d_dir, d_t


def unit_param_jacobian(a, b, ts, mode):
    """The endpoint's derivatives along every unit param of the search's linear
    family on (n, k, mode), as the refinement takes them
    (``_eigenbasis_jacobian``: Q* dP in the eigenbasis of i v), rotated back
    by Q.

    Blocks (c, k, k), (c, k, n-k) and ``ts`` (c,); returns the derivatives
    (c, d, n, k) and the family's unit images da (d, k, k), db (d, k, n-k).
    """
    _, k, m = b.shape
    fam = _LinearFamily(VelocityGrid(k + m, k, mode))
    spectra = _decompose(a, b)
    rotated = _eigenbasis_jacobian(ts, spectra, fam.entries)
    derivs = _field(spectra[1][:, None] @ np.swapaxes(rotated, 2, 3), mode)
    return derivs, fam.da, fam.db


class TestJacobianAgainstExpmFrechet:
    """The endpoint's derivatives against scipy's Frechet derivative."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(SHAPES),
        st.sampled_from(MODES),
        st.sampled_from(KINDS),
        st.lists(st.floats(0.0, 6.0), min_size=2, max_size=2).map(lambda ts: [0.0] + ts),
    )
    def test_directional_and_time_derivatives(self, seed, shape, mode, kind, ts):
        # along every unit param of the linear family, as the refinement
        # takes them; combined along the velocity itself they are t times
        # the time derivative, since the geodesic of (1 + s) v at time t is
        # that of v at time (1 + s) t
        n, k = shape
        rng = np.random.default_rng(seed)
        pairs = [velocity_blocks(rng, n, k, mode, kind) for _ in ts]
        a = np.stack([p[0] for p in pairs]).astype(np.complex128)
        b = np.stack([p[1] for p in pairs]).astype(np.complex128)
        ts = np.array(ts)
        dcols, da, db = unit_param_jacobian(a, b, ts, mode)
        assert dcols.shape == (len(ts), len(da), n, k)
        for i, t in enumerate(ts):
            ref_dir, ref_t = reference_derivatives(a[i], b[i], t, da, db, mode)
            assert np.max(np.abs(dcols[i] - ref_dir)) < ATOL
            radial = np.tensordot(unit_coordinates(da, db, a[i], b[i]), dcols[i], axes=1)
            assert np.max(np.abs(radial - t * ref_t)) < ATOL
        assert not np.any(dcols[0])  # every velocity starts at the identity class
        if mode == REAL:
            assert not np.any(dcols.imag)

    @pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (5, 1), (3, 2), (4, 2), (5, 2), (6, 3)])
    @pytest.mark.parametrize("mode", MODES)
    def test_dense_direction_taken(self, n, k, mode):
        # fixed dense directions, broadcast over the velocities, against
        # expm_frechet: the unit params' derivatives, combined by each
        # direction's coordinates in the unit images, take any direction
        rng = np.random.default_rng(10 * n + k)
        a, b = stacked_blocks(rng, n, k, mode, KINDS)
        da = np.stack([matcore.random_skew_hermitian(rng, k, mode) for _ in range(2)])
        db = np.stack([matcore.random_matrix(rng, k, n - k, mode) for _ in range(2)])
        ts = np.linspace(0.5, 3.0, len(KINDS))
        units, da_units, db_units = unit_param_jacobian(a, b, ts, mode)
        coords = np.stack([unit_coordinates(da_units, db_units, x, y) for x, y in zip(da, db)])
        dcols = np.tensordot(coords, units, axes=(1, 1)).swapaxes(0, 1)
        assert dcols.shape == (len(ts), 2, n, k)
        for i, t in enumerate(ts):
            ref_dir, _ = reference_derivatives(a[i], b[i], t, da, db, mode)
            assert np.max(np.abs(dcols[i] - ref_dir)) < ATOL

    # up to |t v| = 30, where the expm reference still holds to ATOL
    VN1_TIMES = np.array([0.0, 0.4, 1.3, 2.9, 6.0, 12.5, 21.0, 30.0])

    @pytest.mark.parametrize("scale", [1.0, 1e-310])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_vn1_closed_form_shapes(self, n, mode, scale):
        # the top entry T of a unit-row column and its derivatives in the
        # rate and the time (``_vn1_jacobian``) against the first entry of
        # expm and expm_frechet along a = i and along t, at a random unit row
        # of each shape: T depends on the rate and the time only.  The
        # bottom entries are -conj(b) S with S = -dT/dt = phase s, s = sin(t
        # omega) / omega: s, ds/dlam and ds/dt = cos(t omega) against them
        # and their derivatives.  Rates up to 3 scaled by ``scale``; real
        # mode has the one rate 0
        rng = np.random.default_rng(1000 + 10 * n + (mode == REAL))
        ts = self.VN1_TIMES
        lam = scale * rng.uniform(-3.0, 3.0, len(ts)) if mode == COMPLEX else np.zeros(len(ts))
        top, dlam, dt, s, ds, cosw = _vn1_jacobian(lam, ts)
        da, db = np.full((1, 1, 1), 1j), np.zeros((1, 1, n - 1))
        for i, t in enumerate(ts):
            row = matcore.random_matrix(rng, 1, n - 1, mode)
            a, b = np.array([[1j * lam[i]]]), row / np.linalg.norm(row)
            ref_dir, ref_t = reference_derivatives(a, b, t, da, db, COMPLEX)
            cols = reference_columns(a, b, t, COMPLEX)[:, 0]
            assert abs(top[i] - cols[0]) < ATOL
            assert abs(dlam[i] - ref_dir[0, 0, 0]) < ATOL
            assert abs(dt[i] - ref_t[0, 0]) < ATOL
            side, phase = -np.conj(b[0]), np.exp(-0.5j * lam[i] * t)
            assert np.max(np.abs(cols[1:] + side * dt[i])) < ATOL
            assert np.max(np.abs(cols[1:] - side * phase * s[i])) < ATOL
            d_lam = phase * (ds[i] - 0.5j * t * s[i])
            assert np.max(np.abs(ref_dir[0, 1:, 0] - side * d_lam)) < ATOL
            d_t = phase * (cosw[i] - 0.5j * lam[i] * s[i])
            assert np.max(np.abs(ref_t[1:, 0] - side * d_t)) < ATOL
        if mode == REAL:
            assert not np.any(top.imag) and not np.any(dt.imag)


class TestKernelAgainstMpmath:
    """The k >= 2 kernel against 40-digit endpoints up to |t v| = 1e3 (Frobenius |v|).

    The kernel takes t times each eigenvalue of v and of a in double
    precision, so each phase carries an absolute error of order eps |t v|;
    the rest of the evaluation adds a fixed number of roundings.  The
    largest entry error is therefore bounded linearly in |t v|, here by
    MP_ERR * eps * (1 + |t v|).  On six unit-b velocities each of complex
    V(4,2) and V(6,3), at |t v| = 1, 30, 300 and 1e3, the measured error
    stayed below 3.8 eps (1 + |t v|), and at |t v| = 1e3 between 4.9e-14
    and 2.6e-13, so the bound leaves a factor of 8.
    """

    @pytest.mark.parametrize("n, k, seed", [(4, 2, 0), (4, 2, 1), (6, 3, 0)])
    def test_error_grows_at_most_linearly_in_t_v(self, n, k, seed):
        rng = np.random.default_rng(seed)
        a = matcore.random_skew_hermitian(rng, k, COMPLEX)
        b = matcore.random_matrix(rng, k, n - k, COMPLEX)
        b = b / np.linalg.norm(b)
        norm_v = float(np.linalg.norm(BlockVelocity(a, b, COMPLEX).embed()))
        eps = np.finfo(np.float64).eps
        for tv in (1.0, 30.0, 300.0, 1e3):
            t = tv / norm_v
            got = batch_geodesic_columns(a[None], b[None], np.array([t]), COMPLEX)[0]
            ref = geodesic_columns_mp(a, b, t)
            assert np.max(np.abs(got - ref)) <= MP_ERR * eps * (1.0 + tv), tv


class TestVn1ClosedFormAgainstMpmath:
    """The k = 1 kernel, the V_{n,1} closed form, against 40-digit endpoints up to |t v| = 300.

    Like the spectral path, the closed form takes t omega and t lam in double
    precision, so its phases carry an absolute error of order eps |t v|, and
    the entry error is bounded by MP_VN1_ERR * eps * (1 + |t v|) (Frobenius
    |v|).  The k = 1 search relies on the column's factoring at a unit
    transversal row b: (T(lam, t), -conj(b) S(lam, t)) with T from
    ``_vn1_column`` at a unit row and S = -dT/dt from ``_vn1_jacobian``, as
    the search takes them; that form meets the same bound against the
    40-digit endpoint of (i lam, b).  Measured on four seeds of n = 2..5
    (the test's own inputs among them) in both modes at |t v| = 1, 30 and
    300: the kernel's error stayed below 0.48 eps (1 + |t v|) and the
    factored form's below 0.98 eps (1 + |t v|), so the bound leaves a factor
    of 4.
    """

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_kernel_and_unit_row_factors(self, n, mode):
        rng = np.random.default_rng(n)
        a = matcore.random_skew_hermitian(rng, 1, mode)
        b = matcore.random_matrix(rng, 1, n - 1, mode)
        unit = b / np.linalg.norm(b)
        eps = np.finfo(np.float64).eps
        tvs = np.array([1.0, 30.0, 300.0])
        norm_v = float(np.linalg.norm(BlockVelocity(a, b, mode).embed()))
        got = _geodesic_columns(a[None], b[None], (tvs / norm_v)[None], mode)[0]
        norm_unit = float(np.linalg.norm(BlockVelocity(a, unit, mode).embed()))
        top = _vn1_column(a[0, 0].imag, np.ones(1), tvs / norm_unit)[0]
        side = -_vn1_jacobian(a[0, 0].imag, tvs / norm_unit)[2]
        for i, tv in enumerate(tvs):
            ref = geodesic_columns_mp(a, b, tv / norm_v)
            assert np.max(np.abs(got[i] - ref)) <= MP_VN1_ERR * eps * (1.0 + tv), tv
            factored = np.concatenate([[top[i]], -np.conj(unit[0]) * side[i]])[:, None]
            ref = geodesic_columns_mp(a, unit, tv / norm_unit)
            assert np.max(np.abs(factored - ref)) <= MP_VN1_ERR * eps * (1.0 + tv), tv


def unit_coordinates(da_units, db_units, da, db) -> np.ndarray:
    """Real coordinates (d,) of the direction (da, db) in the unit images
    (d, k, k), (d, k, n-k), which are orthogonal in Re tr(X* Y) of the embeds."""
    gens = _embed_velocities(da_units, db_units).reshape(len(da_units), -1)
    x = _embed_velocities(da[None], db[None]).reshape(-1)
    return (np.conj(gens) @ x).real / np.sum(np.abs(gens) ** 2, axis=1)


class TestJacobianAgainstMpmath:
    """The k >= 2 Jacobian against 40-digit central differences up to |t v| = 300.

    The derivatives along every unit param of the linear family are taken
    as the refinement takes them, and combined along a random direction by
    its coordinates in the unit images.  Velocity and direction are scaled
    to unit Frobenius norm, so |t v| = t.  A directional derivative is t
    times the endpoint's sensitivity to its generator, and each entry of
    that sensitivity carries the kernel's phase error of order eps |t v|,
    so its error is bounded by MP_JAC_ERR * eps * (1 + |t v|)^2.  Measured
    on complex V(4,2) and V(6,3) (three seeds each, generic velocities) and
    on nearly repeated spectra (a = 0 and b with equal singular values, so
    the eigenvalues of i v agree in pairs up to rounding and those of i a
    are all zero): the directional error stayed below 0.74 eps (1 + |t
    v|)^2, so the bound leaves a factor of 8.
    """

    @pytest.mark.parametrize(
        "n, k, kind", [(4, 2, "generic"), (6, 3, "generic"), (4, 2, "repeated")]
    )
    def test_error_bounds(self, n, k, kind):
        rng = np.random.default_rng(0)
        if kind == "generic":
            a = matcore.random_skew_hermitian(rng, k, COMPLEX)
            b = matcore.random_matrix(rng, k, n - k, COMPLEX)
        else:
            a = np.zeros((k, k), dtype=np.complex128)
            b = matcore.random_unitary(rng, max(k, n - k), COMPLEX)[:k, : n - k]
        da = matcore.random_skew_hermitian(rng, k, COMPLEX)
        db = matcore.random_matrix(rng, k, n - k, COMPLEX)
        scale = np.linalg.norm(BlockVelocity(a, b, COMPLEX).embed())
        a, b = a / scale, b / scale
        scale = np.linalg.norm(BlockVelocity(da, db, COMPLEX).embed())
        da, db = da / scale, db / scale
        eps = np.finfo(np.float64).eps
        for tv in (1.0, 30.0, 300.0):
            dcols, da_units, db_units = unit_param_jacobian(
                a[None], b[None], np.array([tv]), COMPLEX
            )
            along = np.tensordot(unit_coordinates(da_units, db_units, da, db), dcols[0], axes=1)
            ref_dir, _ = geodesic_jacobian_mp(a, b, tv, da[None], db[None])
            assert np.max(np.abs(along - ref_dir[0])) <= MP_JAC_ERR * eps * (1.0 + tv) ** 2, tv


class TestVn1JacobianAgainstMpmath:
    """The top entry's rate and time derivatives against 40-digit central
    differences up to |t v| = 300.

    These are the derivatives of the k = 1 search's branch Newton.  The
    velocity (i lam, b) has a unit row b, so the rate direction a = i has
    norm 1 and |t v| = t sqrt(lam^2 + 2).  As for the k >= 2 Jacobian, the
    closed form takes t omega and t lam in double precision, so the rate
    derivative, which has a factor t, carries an error of order eps |t v|
    times |t v|, bounded by MP_JAC_ERR * eps * (1 + |t v|)^2, and the time
    derivative by MP_JAC_ERR * eps * (1 + |t v|).  Real mode has the one
    rate 0.
    """

    @pytest.mark.parametrize("n, mode", [(2, COMPLEX), (3, COMPLEX), (3, REAL)])
    def test_error_bounds(self, n, mode):
        rng = np.random.default_rng(0)
        lam = float(matcore.random_skew_hermitian(rng, 1, mode)[0, 0].imag)
        b = matcore.random_matrix(rng, 1, n - 1, mode).astype(np.complex128)
        a, b = np.array([[1j * lam]]), b / np.linalg.norm(b)
        norm_v = float(np.linalg.norm(BlockVelocity(a, b, mode).embed()))
        eps = np.finfo(np.float64).eps
        for tv in (1.0, 30.0, 300.0):
            t = tv / norm_v
            _, dlam, dt, *_ = _vn1_jacobian(np.array([lam]), np.array([t]))
            rate_direction = [np.full((1, 1), 1j)], [np.zeros((1, n - 1))]
            ref_dir, ref_t = geodesic_jacobian_mp(a, b, t, *rate_direction)
            assert abs(dlam[0] - ref_dir[0, 0, 0]) <= MP_JAC_ERR * eps * (1.0 + tv) ** 2, tv
            assert abs(dt[0] - ref_t[0, 0]) <= MP_JAC_ERR * eps * (1.0 + tv), tv


class TestClosedFormsAtTinyRates:
    """s = sqrt(x^2 + 4 bb*) -> 0: the closed forms must stay finite and exact."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1.0, 1e-4, 1e-9, 1e-170, 1e-310, 0.0]),
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
        st.sampled_from([1.0, 1e-4, 1e-9, 1e-170, 1e-310, 0.0]),
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


def stacked_blocks(rng, n, k, mode, kinds, scale=1.0):
    pairs = [velocity_blocks(rng, n, k, mode, kind) for kind in kinds]
    return scale * np.stack([p[0] for p in pairs]), scale * np.stack([p[1] for p in pairs])


class TestVn1ClosedFormKernel:
    """The k = 1 path: one closed form behind the kernel and both public closed forms."""

    TIMES = np.array([0.0, 0.4, 1.3, 2.9, 4.7, 6.0])

    @pytest.mark.parametrize("scale", [1.0, 1e-310])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_spectral_composition(self, n, mode, scale):
        rng = np.random.default_rng(100 * n + (mode == REAL))
        a, b = stacked_blocks(rng, n, 1, mode, KINDS * 3, scale)
        got = _geodesic_columns(a, b, self.TIMES[None], mode)
        # exp(t v)[:, :1] exp(-t a) at every (velocity, time), from the spectral exponential
        ts = self.TIMES[None]
        ref = matcore.expm_skew(_embed_velocities(a, b)[:, None], ts)[..., :1]
        ref = ref @ matcore.expm_skew(-a[:, None], ts)
        if mode == REAL:
            ref = ref.real.astype(np.complex128)
        assert np.max(np.abs(got - ref)) < 1e-13
        assert np.array_equal(got[:, 0], np.broadcast_to(np.eye(n, 1), got[:, 0].shape))
        if mode == REAL:
            assert not np.any(got.imag)

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-310])
    @pytest.mark.parametrize("mode", MODES)
    def test_v21_bit_identical_to_former_column(self, mode, scale):
        rng = np.random.default_rng(7 + (mode == REAL))
        a, b = stacked_blocks(rng, 2, 1, mode, KINDS * 4, scale)
        got = _geodesic_columns(a, b, self.TIMES[None], mode)
        old = first_column_2x2(a[:, 0, :].imag, b[:, 0, :], self.TIMES[None])[..., None]
        if mode == REAL:
            old = old.real.astype(np.complex128)
        assert got.tobytes() == old.tobytes()
        tix = np.arange(len(a)) % len(self.TIMES)
        batch = batch_geodesic_columns(a, b, self.TIMES[tix], mode)
        assert batch.tobytes() == old[np.arange(len(a)), tix].tobytes()

    def test_stacked_closed_forms_equal_scalar_calls(self):
        rng = np.random.default_rng(9)
        c, m = 24, 5
        lam = rng.uniform(-3.0, 3.0, c)
        t = rng.uniform(0.0, 2.0 * np.pi, c)
        t[:3] = 0.0
        x2 = rng.uniform(-2.0, 2.0, c) + 1j * rng.uniform(-2.0, 2.0, c)
        x2[3:6] = (0.0, 1e-310, 1e-170j)
        rows = matcore.random_matrix(rng, c, m)
        rows[6:12, 2:] = 0.0  # zero padding, as the V_{n,1} suite pads shorter rows
        rows[12] = 0.0
        stacked = geodesic_v21_closed(lam, x2, t)
        assert all(g.shape == (c,) for g in stacked)
        for i in range(c):
            single = geodesic_v21_closed(lam[i], x2[i], t[i])
            assert np.array(single).tobytes() == np.array([g[i] for g in stacked]).tobytes()
        g1, g3 = geodesic_vn1_closed(lam, rows, t)
        assert g1.shape == (c,) and g3.shape == (c, m)
        for i in range(c):
            s1, s3 = geodesic_vn1_closed(lam[i], rows[i], t[i])
            assert np.shape(s1) == () and s3.shape == (m,)
            assert np.array(s1).tobytes() == g1[i].tobytes()
            assert s3.tobytes() == g3[i].tobytes()
        short1, short3 = geodesic_vn1_closed(lam[6], rows[6, :2], t[6])
        assert short1 == g1[6] and np.array_equal(short3, g3[6, :2]) and not np.any(g3[6, 2:])
