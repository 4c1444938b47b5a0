"""Cut-locus predicates and desk-scale verification experiments.

The operational notion of a cut point is multiplicity: a target reached at
minimal length by more than one distinct velocity.  ``search_minimizers``
makes that testable at desk scale — at k >= 2 it scans a velocity grid and
locally refines every near-arrival, at k = 1 it solves in the (rate, time)
plane; it keeps the arrivals of (numerically) minimal length and counts
velocity clusters.  The verify_* experiments check the structural facts
directly: mirrored second arrivals at block-diagonal targets, the
unique-arrival picture at antidiagonal targets of V_{2k,k}, and the scalar
analytic facts behind the V_{n,1} uniqueness argument.

All experiments are deterministic given their seed and grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matcore, tolerances
from .matcore import COMPLEX, REAL, adjoint
from .homspace import BlockVelocity, StiefelPoint, _block_velocities, _embed_velocities, _Record
from .geodesic import (
    GeodesicSpec,
    _decompose,
    _endpoint_jacobian,
    _speeds_squared,
    _vn1_column,
    _vn1_jacobian,
    batch_geodesic_columns,
    geodesic_vn1_closed,
    grassmann_geodesic_2kk,
    grid_geodesic_columns,
    length,
    mirror_velocity,
)

_LENGTH_SLACK = 1e-6  # arrivals within (1 + slack) of the minimum count as minimal
_PLANE_LENGTH_SLACK = 1e-12  # the same at k = 1, whose lengths are exact to rounding
_REFINE_FLOOR = 1e-10  # resolution of refined times and velocities
# element budget of the cached scan table and of one batch of Jacobian
# temporaries: a k >= 2 grid's scan table (velocities x times x n x k) is
# cached only if it fits, and a larger grid is scanned one kernel fill at a
# time
_CHUNK_ELEMENTS = 2**22
# velocities per kernel fill of the k >= 2 scan
_FILL_VELOCITIES = 16
# Newton steps of one k = 1 solve in the (rate, time) plane
_NEWTON_ITERS = 30
# Levenberg-Marquardt iterations of the arrival refinement
_LM_ITERS = 60
# a refined candidate whose squared residual is above half of its value this
# many iterations earlier has stopped converging and is frozen
_STALL_WINDOW = 15
# arrival dedup: a row whose window along the sorted coordinate holds at most
# this many rows gets its neighbour pairs in one vectorized pass; a larger
# window is measured from the row only if the row is kept
_PAIR_WINDOW = 32
# the first block-diagonal hit is looked for on a grid of this many times
_HIT_SCAN_POINTS = 1200
# its phases are products of ceil(sqrt(points)) block-start and in-block exponentials
_HIT_BLOCK = int(np.ceil(np.sqrt(_HIT_SCAN_POINTS)))
# Gauss-Newton refinement of a block-diagonal hit: at most this many steps,
# stopping early once a step moves t by at most the floor times t_upper
_HIT_GN_ITERS = 6
_HIT_STEP_FLOOR = 1e-15


# -- target classification ----------------------------------------------------


def in_block_diagonal_set(p: StiefelPoint) -> bool:
    """True iff the lower (n-k) x k block vanishes and p is not the identity class."""
    lower = p.cols[p.k :, :]
    if lower.size and float(np.max(np.abs(lower))) > tolerances.TOL.eq:
        return False
    return not p.is_identity_class()


def is_antidiagonal(p: StiefelPoint) -> bool:
    """True iff n = 2k and the top k x k block vanishes (bottom block is then unitary)."""
    if p.n != 2 * p.k:
        return False
    return float(np.max(np.abs(p.cols[: p.k, :]))) <= tolerances.TOL.eq


BLOCK_DIAGONAL = "block_diagonal"
ANTIDIAGONAL = "antidiagonal"
GENERIC = "generic"


@dataclass(frozen=True)
class TargetClass(_Record):
    kind: str
    point: StiefelPoint


def classify_target(p: StiefelPoint) -> TargetClass:
    if in_block_diagonal_set(p):
        kind = BLOCK_DIAGONAL
    elif is_antidiagonal(p):
        kind = ANTIDIAGONAL
    else:
        kind = GENERIC
    return TargetClass(kind=kind, point=p)


# -- search configuration and report ------------------------------------------


@dataclass(frozen=True)
class VelocityGrid(_Record):
    """Finite velocity/time grid driving ``search_minimizers``.

    Transversal blocks are normalized to unit Frobenius norm (any geodesic
    with nonzero transversal block can be reparametrized to that family), so
    arrival length is speed * time with a family-wide constant speed.

    family: the sample, fixed by the shape.  "v21" (complex V_{2,1})
    crosses fibre rates with the phases of the unit row, "sphere" (every
    other k = 1 shape) crosses them (in complex mode) with unit rows, and
    "general" (k >= 2) is a low-discrepancy sample of every coordinate of
    the linear params that the search refines.  Construction resolves
    "auto" to the shape's family and ``t_max=None`` to 1.1 pi sqrt(k), so
    ``t_max`` is a float, and rejects an unknown mode, an n, k, count or seed
    that is not an integer (a bool is not), a shape without 1 <= k < n, a
    non-finite lambda_range or t_max, lo > hi, t_max <= 0 and a family other
    than "auto" or the shape's.
    """

    n: int
    k: int
    mode: str = COMPLEX
    lambda_range: tuple[float, float] = (-3.0, 3.0)
    lambda_count: int = 64
    phase_count: int = 64
    direction_count: int = 64
    sample_count: int = 4096
    t_max: float | None = None
    t_count: int = 256
    seed: int = 0
    family: str = "auto"

    def __post_init__(self):
        matcore.check_mode(self.mode)
        counts = ("lambda_count", "phase_count", "direction_count", "sample_count")
        for name in ("n", "k", *counts, "t_count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name}={value!r} must be an integer")
            object.__setattr__(self, name, int(value))  # a numpy integer is not JSON
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got n={self.n}, k={self.k}")
        # a tuple keeps the grid hashable (the scan table is cached per grid)
        object.__setattr__(self, "lambda_range", tuple(self.lambda_range))
        lo, hi = self.lambda_range
        if not -np.inf < lo <= hi < np.inf:
            raise ValueError(f"lambda_range {self.lambda_range} must be finite with lo <= hi")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 1")
        if self.t_count < 3:
            raise ValueError(f"t_count={self.t_count} must be >= 3")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        if self.t_max is not None and not 0 < self.t_max < np.inf:
            raise ValueError(f"t_max={self.t_max} must be finite and > 0")
        t_max = 1.1 * np.pi * np.sqrt(self.k) if self.t_max is None else self.t_max
        object.__setattr__(self, "t_max", float(t_max))
        family = "sphere" if self.k == 1 else "general"
        if (self.n, self.k, self.mode) == (2, 1, COMPLEX):
            family = "v21"
        if self.family not in ("auto", family):
            raise ValueError(
                f"{self.family} family does not fit n={self.n}, k={self.k}, {self.mode} mode:"
                f" use 'auto' or '{family}'"
            )
        object.__setattr__(self, "family", family)


@dataclass(frozen=True)
class Arrival(_Record):
    velocity: BlockVelocity
    t: float
    length: float
    endpoint_error: float


@dataclass(frozen=True)
class SearchDiagnostics(_Record):
    """What a search did, as counts that a fixed grid and target determine.

    ``scan_hits`` gated scan minima, of which ``candidates`` were refined;
    each candidate was frozen as ``converged``, ``damped`` (damping above
    1e8) or ``stalled`` (``_STALL_WINDOW``), or was still active at the
    iteration cap (``capped``); ``lm_iterations`` lockstep iterations ran;
    ``arrivals_before_dedup`` arrivals were in the minimal-length band
    before deduplication.  At k = 1 the candidates are the plane solve's
    Newton starts (none for a closed-form root), and ``damped``, ``stalled``
    and ``lm_iterations`` stay 0.  The identity class is answered without a
    search: only its one arrival is counted.
    """

    scan_hits: int = 0
    candidates: int = 0
    converged: int = 0
    stalled: int = 0
    damped: int = 0
    capped: int = 0
    lm_iterations: int = 0
    arrivals_before_dedup: int = 0


@dataclass(frozen=True)
class MinimizerReport(_Record):
    target: TargetClass
    grid: VelocityGrid
    arrivals: tuple[Arrival, ...]
    clusters: int
    min_length: float | None
    diagnostics: SearchDiagnostics


# -- velocity families ---------------------------------------------------------


class _LinearFamily:
    """Blocks linear in the params; transversal block normalized to unit Frobenius norm.

    Param layout: in complex mode the k diagonal fibre rates, then the real and
    imaginary part of each fibre entry above the diagonal; in real mode only
    those entries' real parts.  Then the real parts of the transversal
    entries (row-major), and in complex mode their imaginary parts.  The
    search builds it at k >= 2 only: a k = 1 grid's plane samples its rates
    and rows itself (``_vn1_plane``).

    The refinement differentiates along these fixed unit images ``da``,
    ``db`` and then through the normalization of b, ``normalize``.
    """

    def __init__(self, grid: VelocityGrid):
        self.grid = grid
        k, m = grid.k, grid.n - grid.k
        units = (1.0, 1j) if grid.mode == COMPLEX else (1.0,)
        fibre = [1j * np.outer(e, e) for e in np.eye(k)] if grid.mode == COMPLEX else []
        for p, q in zip(*np.triu_indices(k, 1)):
            for u in units:
                e = np.zeros((k, k), dtype=np.complex128)
                e[p, q], e[q, p] = u, -np.conj(u)
                fibre.append(e)
        self.a_dim = len(fibre)
        d = self.a_dim + len(units) * k * m
        # images of the d unit params: da (d, k, k), db (d, k, m)
        self.da = np.zeros((d, k, k), dtype=np.complex128)
        self.da[: self.a_dim] = np.reshape(fibre, (-1, k, k))
        self.db = np.zeros((d, k, m), dtype=np.complex128)
        self.db[self.a_dim :] = (np.reshape(units, (-1, 1, 1)) * np.eye(k * m)).reshape(-1, k, m)

    def initial_params(self) -> np.ndarray:
        """The general family's Sobol sample: fibre params uniform, transversal Gaussian.

        ``_sobol`` draws it (Joe-Kuo 2008 directions, Bratley-Fox 1988 recurrence).
        """
        g = self.grid
        lo, hi = g.lambda_range
        u = _sobol(len(self.da), g.sample_count, g.seed)
        a_dim = self.a_dim
        return np.column_stack([lo + (hi - lo) * u[:, :a_dim], _inverse_gauss(u[:, a_dim:])])

    def blocks(self, params: np.ndarray):
        b = np.tensordot(params, self.db, axes=1)
        return np.tensordot(params, self.da, axes=1), b / _frobenius(b)

    def normalize(self, params: np.ndarray, along: np.ndarray) -> np.ndarray:
        """Derivatives (c, d, n, k) along the unit param images (da, db) -> along the params.

        The normalization's projection d(b/|b|) = (db - u Re<u, db>) / |b|,
        u = b / |b|, applied in place to the derivatives.  The transversal
        params are the coordinates of b in the orthonormal basis db, so
        Re<u, db_j> = params_j / |b|, the derivative along u is sum_l
        Re<u, db_l> along_l, and a transversal param's derivative is
        (along_j - Re<u, db_j> along_u) / |b|.
        """
        coords = params[:, self.a_dim :, None, None]
        norm = np.maximum(np.sqrt(np.sum(coords * coords, axis=1, keepdims=True)), 1e-30)
        radial = coords / norm
        moving = along[:, self.a_dim :]
        moving -= radial * np.sum(radial * moving, axis=1, keepdims=True)
        moving /= norm
        return along


def _frobenius(b: np.ndarray) -> np.ndarray:
    """Frobenius norms (c, 1, 1) of stacked blocks (c, k, m), floored away from 0."""
    return np.maximum(np.sqrt(np.sum(np.abs(b) ** 2, axis=(1, 2), keepdims=True)), 1e-30)


@functools.lru_cache(maxsize=1)
def _sobol_table() -> tuple[np.ndarray, np.ndarray]:
    """Joe and Kuo's (2008) primitive polynomials and initial direction numbers.

    Read from the data file scipy ships, located without importing
    ``scipy.stats``, whose import would cost a search more time and memory
    than drawing the sample.
    """
    import importlib.util
    from pathlib import Path

    where = importlib.util.find_spec("scipy.stats").submodule_search_locations[0]
    with np.load(Path(where) / "_sobol_direction_numbers.npz") as table:
        return table["poly"], table["vinit"]


def _sobol(dim: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of a scrambled Sobol sequence in [0, 1)^dim.

    Bit for bit ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed).random(count)``:
    30-bit direction integers from Joe and Kuo's (2008) table by Bratley and
    Fox's (1988) recurrence, m_j = m_{j-s} ^ XOR_{i<=s} c_i 2^i m_{j-i} for a
    degree-s polynomial with coefficients c_i; then a linear matrix scramble
    and a digital shift drawn from ``default_rng(seed)`` in scipy's order (the
    shift's bits, then lower-triangular bit matrices with unit diagonals);
    point i is the shift XOR the directions of the set bits of i's Gray code.
    """
    poly, vinit = _sobol_table()
    if dim > len(poly):
        raise ValueError(f"a Sobol sample has at most {len(poly)} dimensions, got {dim}")
    bits, top = 30, vinit.shape[1]
    poly, deg = poly[:dim], np.frexp(poly[:dim])[1] - 1
    inner = np.arange(1, top + 1)
    coef = (poly[:, None] >> np.maximum(deg[:, None] - inner, 0)) & (inner <= deg[:, None])
    v = np.zeros((dim, bits), dtype=np.int64)
    v[:, :top] = vinit[:dim]
    for j in range(1, bits):
        i = min(j, top)
        new = v[np.arange(dim), j - deg]
        new ^= np.bitwise_xor.reduce((v[:, j - i : j][:, ::-1] << inner[:i]) * coef[:, :i], axis=1)
        v[:, j] = np.where(j >= deg, new, v[:, j])
    v[:1] = 1  # the first dimension is van der Corput's
    v <<= np.arange(bits)[::-1]
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32) @ (1 << np.arange(bits))
    ltm = rng.integers(2, size=(dim, bits, bits), dtype=np.uint32)
    ltm[:, ~np.tri(bits, dtype=bool)] = 0
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    ltm <<= np.arange(bits, dtype=np.uint32)[::-1, None]
    cols = np.bitwise_or.reduce(ltm, axis=1)  # column b of each matrix, row 0 the top bit
    scrambled = np.zeros_like(v)
    for b in range(bits):
        scrambled ^= np.where((v >> (bits - 1 - b)) & 1 == 1, cols[:, b, None], 0)
    gray = np.arange(count) ^ (np.arange(count) >> 1)
    out = np.tile(shift, (count, 1))
    for b in range(int(count).bit_length()):
        out ^= np.where((gray[:, None] >> b) & 1 == 1, scrambled[:, b], 0)
    return out * 2.0**-bits


def _inverse_gauss(u: np.ndarray) -> np.ndarray:
    from scipy.special import ndtri

    return ndtri(np.clip(u, 1e-12, 1 - 1e-12))


# -- search engine --------------------------------------------------------------


def _endpoint_residuals(family, x: np.ndarray, target_cols):
    """Batched endpoint residual vectors for stacked (params, t) rows, and the kernel's spectra.

    Row i is the real/imaginary parts of (endpoint_i - target) flattened;
    rows with non-finite entries or negative time get a large constant
    residual so steps into them are always rejected.  The spectra are the
    eigendecompositions the kernel evaluated the rows with (``_decompose``),
    which ``_residual_jacobian`` takes at the same rows.
    """
    params, ts = x[:, :-1], x[:, -1]
    bad = ~np.isfinite(x).all(axis=1) | (ts < 0)
    a, b = family.blocks(np.where(bad[:, None], 0.0, params))
    spectra = _decompose(a, b)
    cols = batch_geodesic_columns(a, b, np.where(bad, 0.0, ts), family.grid.mode, spectra)
    diff = (cols - target_cols[None]).reshape(len(x), -1)
    out = np.concatenate([diff.real, diff.imag], axis=1)
    out[bad] = 1e6
    return out, spectra


def _scan_times(grid: VelocityGrid) -> np.ndarray:
    return np.linspace(0.0, grid.t_max, grid.t_count)


def _scan_fills(family, params: np.ndarray, ts: np.ndarray):
    """Yield the endpoint columns (c, T, n, k) of ``params`` at ``ts``, in row order, at k >= 2.

    One kernel call per ``_FILL_VELOCITIES`` velocities keeps its temporaries small.
    """
    for lo in range(0, len(params), _FILL_VELOCITIES):
        a, b = family.blocks(params[lo : lo + _FILL_VELOCITIES])
        yield grid_geodesic_columns(a, b, ts, family.grid.mode)


class _Vn1Plane(NamedTuple):
    """A k = 1 grid's scan data: T at its distinct fibre rates and scan times, and its unit rows.

    Velocity (i lam, b) with a unit row b reaches (T(lam, t), -conj(b)
    S(lam, t)) (``geodesic._vn1_jacobian``).  ``rates`` ascend;
    ``directions`` are the grid's distinct unit rows.  Read-only.
    """

    rates: np.ndarray  # (R,)
    top: np.ndarray  # (R, T)
    directions: np.ndarray  # (D, n-1)


def _vn1_plane(grid: VelocityGrid) -> _Vn1Plane:
    """A k = 1 grid's plane, sampled directly as its fibre rates and unit rows.

    ``lambda_count`` rates (0 alone in real mode); v21 rows are e^{i phi}
    at ``phase_count`` phases, sphere rows ``direction_count`` Sobol
    directions: the Gaussian coordinates of a ``_sobol`` sample (Joe-Kuo
    2008 direction numbers, Bratley-Fox 1988 recurrence), normalized (real
    V(3,1): equally spaced angles; real V(2,1): +-1).
    Rows are normalized as ``_LinearFamily.blocks`` does, and T comes from
    the kernel's ``_vn1_column`` at a unit row.
    """
    m, real = grid.n - 1, grid.mode == REAL
    rates = np.zeros(1) if real else np.linspace(*grid.lambda_range, grid.lambda_count)
    if grid.family == "v21" or (real and m == 2):
        count = grid.phase_count if grid.family == "v21" else grid.direction_count
        ang = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        raw = np.column_stack([np.cos(ang), np.sin(ang)])
    elif real and m == 1:
        raw = np.array([[1.0], [-1.0]])
    else:
        raw = _inverse_gauss(_sobol((1 if real else 2) * m, grid.direction_count, grid.seed))
        raw = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    rows = (raw if real else raw[:, :m] + 1j * raw[:, m:]).astype(np.complex128)[:, None]
    rates = np.unique(rates)
    top = _vn1_column(rates[:, None], np.ones(1), _scan_times(grid))[0]
    return _Vn1Plane(rates, top, np.unique((rows / _frobenius(rows))[:, 0], axis=0))


def _unread_grid_fields(grid: VelocityGrid) -> tuple[str, ...]:
    """The grid options that a search on ``grid`` never reads, whatever their values.

    A k >= 2 grid reads its Sobol sample (``sample_count``, ``seed``,
    ``lambda_range``) and its times.  A k = 1 grid reads what ``_vn1_plane``
    and ``_plane_arrivals`` read: the rates and their window in complex mode
    only, the phases on v21 only, and the Sobol directions and their seed
    on every other shape but real V(2,1) (rows +-1) and real V(3,1) (angles,
    which read ``direction_count`` but no seed).
    """
    if grid.k >= 2:
        return ("lambda_count", "phase_count", "direction_count")
    v21, real = grid.family == "v21", grid.mode == REAL
    unread = ["sample_count"] + ([] if v21 else ["phase_count"])
    if v21 or (real and grid.n == 2):
        unread.append("direction_count")
    if v21 or (real and grid.n <= 3):
        unread.append("seed")
    if real:
        unread += ["lambda_range", "lambda_count"]
    return tuple(unread)


@functools.lru_cache(maxsize=1)
def _scan_table(grid: VelocityGrid):
    """The grid's target- and tolerance-independent scan data, shared by every search on it.

    At k = 1 its ``_Vn1Plane``; at k >= 2 the kernel fills (c, T, n, k) of
    ``_scan_fills``, for which callers only pass grids whose fills together
    fit ``_CHUNK_ELEMENTS``.  Either is a tuple of read-only arrays.
    """
    if grid.k == 1:
        data = _vn1_plane(grid)
    else:
        family = _LinearFamily(grid)
        data = tuple(_scan_fills(family, family.initial_params(), _scan_times(grid)))
    for x in data:
        x.flags.writeable = False
    return data


def _scan_cols(cols, target_cols, gate):
    """Gated interior local minima of the endpoint error along each row's time grid.

    ``cols`` (c, T, n, k); returns the row indices, time indices and errors
    of the hits, in row-major order.  Every point of the table has
    orthonormal columns, so the squared error to the target Q is
    k + |Q|^2 - 2 Re tr(Q* P): one inner product per point over the table's
    float rows, with no table-sized temporary.  The target's own |Q|^2 keeps
    a target that is slightly off orthonormality free of an offset.  The
    gate and the local-minimum tests compare squared errors; the square root
    is taken at the hits only.  ``np.einsum`` runs numpy's single-threaded
    loop: a BLAS product over the table spends far more CPU than wall time
    in its threads' spin-wait.
    """
    c, t_count, n, k = cols.shape
    rows = np.ascontiguousarray(cols).reshape(c * t_count, n * k).view(np.float64)
    target = np.ascontiguousarray(target_cols, dtype=np.complex128).reshape(-1)
    err2 = np.einsum("ij,j->i", rows, target.view(np.float64)).reshape(c, t_count)
    err2 *= -2.0
    err2 += k + float(np.vdot(target, target).real)
    interior = (
        (err2[:, 1:-1] <= err2[:, :-2])
        & (err2[:, 1:-1] <= err2[:, 2:])
        & (err2[:, 1:-1] < gate * gate)
    )
    vix, tix = np.nonzero(interior)
    tix += 1
    return vix, tix, np.sqrt(np.maximum(err2[vix, tix], 0.0))


def _best_hits(vix, tix, err) -> np.ndarray:
    """Indices of the scan hits that become candidates, in candidate order.

    Up to 3 hits per velocity, the lowest errors first (ties by time index),
    velocities in grid order.
    """
    order = np.lexsort((tix, err, vix))
    grouped = vix[order]
    return order[np.arange(len(order)) - np.searchsorted(grouped, grouped) < 3]


def _scan_plane(top: np.ndarray, q0: complex, gate: float):
    """Rate and time indices of the gated local minima of |T - q0|^2 over a (R, T) table.

    Interior in time; the first and last rates compare with their one
    neighbour, so a root just outside the rate range still gets a start.
    """
    diff = top - q0
    err2 = diff.real**2 + diff.imag**2
    mid = err2[:, 1:-1]
    low = (mid <= err2[:, :-2]) & (mid <= err2[:, 2:]) & (mid < gate * gate)
    low[1:] &= mid[1:] <= mid[:-1]
    low[:-1] &= mid[:-1] <= mid[1:]
    r, j = np.nonzero(low)
    return r, j + 1


def _plane_residual(lam, ts, q0: complex, r1):
    """f = T - q0, or given r1 = |q1| f = (s - r1) + i Im(T conj(q0)), with df/dlam and df/dt.

    s = sin(t omega) / omega is |S| before the fold (t omega < pi), where the
    second f vanishes iff T = q0 (|T|^2 + s^2 = 1); unlike T, s is not flat
    across the fold.  One ``geodesic._vn1_jacobian`` call gives T, s, their
    derivatives and ds/dt = cos(t omega).
    """
    top, dlam, dt, s, ds, cosw = _vn1_jacobian(lam, ts)
    if r1 is None:
        return top - q0, dlam, dt
    u = np.conj(q0)
    return s - r1 + 1j * (top * u).imag, ds + 1j * (dlam * u).imag, cosw + 1j * (dt * u).imag


def _plane_newton(lam: np.ndarray, ts: np.ndarray, q0: complex, r1=None):
    """Batched Newton on ``_plane_residual`` = 0 from stacked starts in the (rate, time) plane.

    Each step solves the 2 x 2 real system of f's derivatives by Cramer's
    rule and is kept only if it lowers |f|; a start whose step no longer
    does has converged.  Returns the rates, the times and which starts are
    still descending after ``_NEWTON_ITERS`` steps (capped).
    """
    lam, ts = lam.astype(np.float64), ts.astype(np.float64)
    f, dlam, dt = _plane_residual(lam, ts, q0, r1)
    res = np.abs(f)
    active = np.ones(len(lam), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_ITERS):
            ai = np.flatnonzero(active)
            if len(ai) == 0:
                break
            r, jl, jt = f[ai], dlam[ai], dt[ai]
            det = jl.real * jt.imag - jt.real * jl.imag
            trial_lam = lam[ai] + (jt.real * r.imag - jt.imag * r.real) / det
            trial_ts = ts[ai] + (jl.imag * r.real - jl.real * r.imag) / det
            trial = _plane_residual(trial_lam, trial_ts, q0, r1)
            trial_res = np.abs(trial[0])
            better = trial_res < res[ai]
            rows = ai[better]
            trials = (trial_lam, trial_ts, *trial, trial_res)
            for held, new in zip((lam, ts, f, dlam, dt, res), trials):
                held[rows] = new[better]
            active[ai[~better]] = False
    return lam, ts, active


def _plane_arrivals(target: StiefelPoint, grid: VelocityGrid, kind: str):
    """Blocks, times and endpoint errors of a k = 1 search's arrivals, and its counts.

    Every unit row reaches a block-diagonal target (q0, 0) where S = 0, at
    t omega = m pi with T = (-1)^m e^{-i lam t / 2}; m = 1 is the shortest,
    so for q0 = e^{ic}, c in (0, 2 pi) and x = c / pi: t = pi sqrt(x (2 -
    x)), lam = 2 (1 - x) / sqrt(x (2 - x)) (the real antipode: lam = 0, t =
    pi).  A real-mode target (lam = 0, T = cos t) is reached at t =
    atan2(|q1|, q0).  Otherwise the minima of ``_scan_plane`` start
    ``_plane_newton`` on T = q0.  A geodesic stops being minimal at its
    first vanishing time pi / omega, the fold of T, near which that solve
    may land on either side and leaves |S| off |q1| by about eps / |q1|.
    So a root before the fold is polished there, and a root past it
    restarts from its mirror 2 pi / omega - t, where a target near the
    block-diagonal set has its shorter root, both with r1 = |q1|.  Each
    root's row is b = -conj(q1) / conj(S), normalized.  Roots must lie in
    the window ``lambda_range`` x (0, ``t_max``] (real mode: (0, ``t_max``])
    and reach within ``TOL.hit``.
    """
    plane = _scan_table(grid)
    ts = _scan_times(grid)
    speed = float(np.sqrt(_speeds_squared(plane.directions[:1, None], grid.n, grid.mode)[0]))
    gate = max(8 * speed * (ts[1] - ts[0]), 0.25) + tolerances.TOL.hit
    q0, q1 = target.cols[0, 0], target.cols[1:, 0]
    counts = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == BLOCK_DIAGONAL:
            x = (np.angle(q0) % (2 * np.pi)) / np.pi
            rows = plane.directions
            lam = np.full(len(rows), 2.0 * (1.0 - x) / np.sqrt(x * (2.0 - x)))
            t = np.full(len(rows), np.pi * np.sqrt(x * (2.0 - x)))
        elif grid.mode == REAL:
            norm = np.linalg.norm(q1)
            lam, t, rows = np.zeros(1), np.array([np.arctan2(norm, q0.real)]), (-q1 / norm)[None]
        else:
            r, j = _scan_plane(plane.top, q0, gate)
            lam, t, capped = _plane_newton(plane.rates[r], ts[j], q0)
            period = 4 * np.pi / np.sqrt(lam * lam + 4.0)
            past = 2 * t > period
            near = _plane_newton(lam, np.where(past, period - t, t), q0, np.linalg.norm(q1))
            capped = int(np.count_nonzero(capped) + np.count_nonzero(near[2][past]))
            lam, t = np.concatenate([lam[past], near[0]]), np.concatenate([t[past], near[1]])
            # S = -dT/dt
            rows = -np.conj(q1) / np.conj(-_vn1_jacobian(lam, t)[2])[:, None]
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            counts = dict(scan_hits=len(r), candidates=len(lam))
            counts.update(converged=len(lam) - capped, capped=capped)
    lo, hi = grid.lambda_range
    inside = (t > 10 * _REFINE_FLOOR) & (t <= grid.t_max)
    if grid.mode == COMPLEX:
        inside &= (lo <= lam) & (lam <= hi)
    a_blk, b_blk, t = (1j * lam[inside]).reshape(-1, 1, 1), rows[inside, None], t[inside]
    cols = batch_geodesic_columns(a_blk, b_blk, t, grid.mode)
    err = np.linalg.norm(cols - target.cols, axis=(1, 2))
    good = err <= tolerances.TOL.hit
    return a_blk[good], b_blk[good], t[good], err[good], counts


def _residual_jacobian(family, x: np.ndarray, spectra) -> np.ndarray:
    """Jacobian (c, rows, dim) of ``_endpoint_residuals`` at finite rows with t >= 0.

    Analytic, the time derivative as the last column.  The endpoint is
    differentiated along the family's fixed unit images (da, db) by
    ``geodesic._endpoint_jacobian``, from ``spectra`` (the kernel's
    decompositions at these rows, as ``_endpoint_residuals`` returns them),
    and ``family.normalize`` takes the derivatives to the params.
    """
    params, ts = x[:, :-1], x[:, -1]
    a, b = family.blocks(params)
    along, dcols_dt = _endpoint_jacobian(a, b, ts, spectra, family.da, family.db, family.grid.mode)
    dcols = family.normalize(params, along)
    d = np.concatenate([dcols, dcols_dt[:, None]], axis=1).reshape(len(x), x.shape[1], -1)
    return np.concatenate([d.real, d.imag], axis=2).swapaxes(1, 2)


def _refine(
    family,
    params: np.ndarray,
    ts: np.ndarray,
    target_cols,
    hit: float,
):
    """Batched Levenberg-Marquardt on the endpoint residuals over (params, t).

    Candidates march in lockstep: each iteration solves every active
    candidate's damped normal equations and tries one step, a single batched
    geodesic evaluation.  Each candidate keeps its normal equations J^T J and
    J^T r; the analytic Jacobian is formed again only for the candidates
    whose last step was accepted, since a rejected step changes only the
    damping.  Each candidate also keeps the two eigendecompositions that the
    evaluation of its accepted point made, and its Jacobian is built from
    them (``_residual_jacobian``), so no Jacobian calls eigh.  Only k >= 2
    searches refine.
    Per-candidate damping adapts in the usual way.  A candidate is frozen
    once its residual is far below the hit radius, once its damping exceeds
    1e8, or once its squared residual is above half of its own value
    ``_STALL_WINDOW`` iterations earlier: it has stopped converging (Nocedal
    & Wright, *Numerical Optimization*, section 10.3).  Without that window
    about half of the candidates of a 128-sample complex V(6,3) search keep
    lowering their residual slowly, never arrive, and stay active until the
    iteration cap.  A slow candidate can still arrive: one such search's
    minimal-length candidate plateaus for 12 iterations, at residuals 0.38
    and 0.29, and converges at iteration 27, so a window of 11 or less loses
    it; 15 keeps a margin of 3.  A longer plateau does lose its candidate:
    some arrivals that duplicate a shorter one are frozen before they
    converge.
    Returns the params, the times and the residual norms, which are the
    endpoints' Frobenius distances to the target, and the counts of the
    candidates frozen as ``converged``, ``damped`` and ``stalled`` and still
    active at the cap (``capped``), with the iterations run
    (``lm_iterations``).
    """
    x = np.column_stack([params, ts]).astype(np.float64)
    n_cand, dim = x.shape
    n, k = target_cols.shape
    # a Jacobian chunk's temporaries peak when the sensitivity K, (chunk, n,
    # n, n, k) complex, meets its transposed copy and their (chunk, dim, n, k)
    # product: n k (2 n^2 + dim) elements per candidate.  They come on top of
    # the stored normal equations and spectra and the trial step's
    # evaluation, and the peak RSS of a default-grid complex V(6,3) search
    # grows with the chunk, so a chunk takes a quarter of the scan's element
    # budget
    chunk = max(1, _CHUNK_ELEMENTS // (4 * n * k * (2 * n * n + dim)))
    r, spectra = _endpoint_residuals(family, x, target_cols)
    f = np.sum(r * r, axis=1)
    mu = np.full(n_cand, 1e-3)
    active = np.ones(n_cand, dtype=bool)
    # candidates whose point moved since their normal equations were formed
    moved = np.ones(n_cand, dtype=bool)
    # why a candidate was frozen: 0 still active, 1 converged, 2 damped, 3 stalled
    frozen = np.zeros(n_cand, dtype=np.intp)
    # f at the start and after each iteration, the window's reference
    history = np.empty((_LM_ITERS + 1, n_cand))
    history[0] = f
    jtj = np.empty((n_cand, dim, dim))
    jtr = np.empty((n_cand, dim, 1))
    eye = np.eye(dim)
    diag = np.arange(dim)
    iterations = 0
    for it in range(1, _LM_ITERS + 1):
        ai = np.nonzero(active)[0]
        if len(ai) == 0:
            break
        iterations = it
        fresh = ai[moved[ai]]
        for lo in range(0, len(fresh), chunk):
            part = fresh[lo : lo + chunk]
            jac = _residual_jacobian(family, x[part], [h[part] for h in spectra])
            jt = jac.swapaxes(1, 2)
            jtj[part] = jt @ jac
            jtr[part] = jt @ r[part, :, None]
        lhs = jtj[ai]  # a copy; the damping goes onto its diagonal in place
        lhs[:, diag, diag] += mu[ai, None]
        rhs = -jtr[ai]
        try:
            step = np.linalg.solve(lhs, rhs)[..., 0]
        except np.linalg.LinAlgError:
            lhs = lhs + 1e-8 * eye[None]
            step = np.linalg.solve(lhs, rhs)[..., 0]
        xt = x[ai] + step
        rt, spectra_t = _endpoint_residuals(family, xt, target_cols)
        ft = np.sum(rt * rt, axis=1)
        good = ft < f[ai]
        rows = ai[good]
        x[rows] = xt[good]
        r[rows] = rt[good]
        f[rows] = ft[good]
        for held, trial in zip(spectra, spectra_t):
            held[rows] = trial[good]
        moved[ai] = good
        mu[rows] = np.maximum(mu[rows] * 0.3, 1e-12)
        mu[ai[~good]] = mu[ai[~good]] * 10.0
        history[it] = f
        earlier = history[it - _STALL_WINDOW, ai] if it >= _STALL_WINDOW else np.inf
        why = np.select(
            [f[ai] < (0.01 * hit) ** 2, mu[ai] > 1e8, f[ai] > 0.5 * earlier], [1, 2, 3], 0
        )
        frozen[ai] = why
        active[ai[why > 0]] = False
    capped, converged, damped, stalled = np.bincount(frozen, minlength=4).tolist()
    stats = dict(
        converged=converged, damped=damped, stalled=stalled, capped=capped,
        lm_iterations=iterations,
    )
    return x[:, :-1], x[:, -1], np.sqrt(f), stats


def _report_order(lengths: np.ndarray, ts: np.ndarray, embeds: np.ndarray) -> np.ndarray:
    """The order of a stable sort by the key (length, t, embed bytes).

    One ``lexsort`` orders by (length, t); the embeds' bytes order only the
    runs whose (length, t) tie exactly.
    """
    order = np.lexsort((ts, lengths))
    tied = (np.diff(lengths[order]) == 0) & (np.diff(ts[order]) == 0)
    if tied.any():
        bounds = np.flatnonzero(np.concatenate(([True], ~tied, [True]))).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo > 1:
                order[lo:hi] = sorted(order[lo:hi], key=lambda i: embeds[i].tobytes())
    return order


def _representatives(embeds: np.ndarray, ts, dup: float, cluster: float):
    """One greedy pass over the sorted (N, n, n) embeds: (kept indices, cluster count).

    A row is dropped iff an earlier kept row lies within ``dup`` of it both
    in embed (Frobenius) and in ``ts``; a kept row that no earlier kept row
    has marked opens a cluster and marks the later rows within ``cluster``.

    No pair beyond both radii matters, and one real coordinate of the embeds
    bounds their distance from below.  So the rows are sorted once by the
    coordinate of largest spread, and each row's window is the rows whose
    coordinate lies within reach of its own: the larger radius, widened by
    1e-6 of itself and a few ulps of the coordinate's scale so that no
    rounded difference within a radius falls outside.  Rows with at most
    ``_PAIR_WINDOW`` rows in their window take their distances to the later
    rows of it in one vectorized pass; a larger window (a clique of
    converged duplicates) is measured only from a kept row, once, so memory
    stays within ``_PAIR_WINDOW`` times the row count.  The greedy walk
    then reads these neighbour lists, with the same distances as a
    row-by-row pass and no numpy round per row.
    """
    count = len(embeds)
    if count == 0:
        return np.zeros(0, dtype=np.intp), 0
    # one contiguous row per real coordinate, for a fast spread
    coords = embeds.reshape(count, -1).view(np.float64).T.copy()
    proj = coords[int(np.argmax(np.ptp(coords, axis=1)))]
    by_proj = np.argsort(proj, kind="stable")
    sorted_proj = proj[by_proj]
    reach = max(dup, cluster) * (1 + 1e-6) + 4 * np.finfo(np.float64).eps * np.abs(proj).max()
    lo = np.searchsorted(sorted_proj, proj - reach, "left")
    hi = np.searchsorted(sorted_proj, proj + reach, "right")
    small = hi - lo <= _PAIR_WINDOW

    # every (row, later row of its window) pair of the small windows
    rows = np.nonzero(small)[0]
    sizes = (hi - lo)[rows]
    starts = np.cumsum(sizes) - sizes
    first = np.repeat(rows, sizes)
    second = by_proj[np.arange(sizes.sum()) + np.repeat(lo[rows] - starts, sizes)]
    later = second > first
    first, second = first[later], second[later]
    dist = np.linalg.norm(embeds[second] - embeds[first], axis=(1, 2))
    drop_pairs = (dist <= dup) & (np.abs(ts[second] - ts[first]) <= dup)
    mark_pairs = dist <= cluster

    # each row's later neighbours: a slice of one list, at the row's offsets
    drop_at = np.searchsorted(first[drop_pairs], np.arange(count + 1)).tolist()
    drop_to = second[drop_pairs].tolist()
    mark_at = np.searchsorted(first[mark_pairs], np.arange(count + 1)).tolist()
    mark_to = second[mark_pairs].tolist()
    paired = small.tolist()
    dropped, marked = bytearray(count), bytearray(count)
    reps, clusters = [], 0
    i = dropped.find(0)
    while i >= 0:
        reps.append(i)
        if paired[i]:
            drops = drop_to[drop_at[i] : drop_at[i + 1]]
            marks = mark_to[mark_at[i] : mark_at[i + 1]]
        else:
            window = by_proj[lo[i] : hi[i]]
            window = window[window > i]
            dist = np.linalg.norm(embeds[window] - embeds[i], axis=(1, 2))
            drops = window[(dist <= dup) & (np.abs(ts[window] - ts[i]) <= dup)].tolist()
            marks = window[dist <= cluster].tolist()
        for j in drops:
            dropped[j] = 1
        if not marked[i]:
            clusters += 1
            for j in marks:
                marked[j] = 1
        i = dropped.find(0, i + 1)
    return np.array(reps, dtype=np.intp), clusters


def search_minimizers(target: StiefelPoint, grid: VelocityGrid) -> MinimizerReport:
    """Minimizing arrivals at a target: a grid search and refinement, or at k = 1 a plane solve.

    Keeps the arrivals within ``TOL.hit`` of the target whose length is
    within a 1e-6 relative band of the best (1e-12 at k = 1), and counts
    velocity clusters at separation ``TOL.vel``.  Deterministic for a fixed
    grid (seed included); an exhausted search returns an empty-arrival
    report rather than raising.  The grid's scan data do not depend on the
    target or tolerances, so they are computed once per grid per process and
    reused; at most one grid's are resident.  At k >= 2 every near-arrival
    of the grid's endpoint table is refined by damped least squares
    (``_refined_arrivals``); at k = 1 a target's top entry fixes the rate
    and the time, which the search solves for in the (rate, time) plane
    (``_plane_arrivals``).  The minimal-length arrivals are put in report
    order by one ``lexsort`` on (length, t), the embeds' bytes ordering
    exact ties only, then deduplicated and clustered from the neighbour
    pairs along one sorted coordinate (``_representatives``).  The kept
    arrivals' velocities are checked as one stack
    (``homspace._block_velocities``).
    """
    tol = tolerances.TOL
    if tol.hit < 10 * tol.eq:
        raise ValueError(f"tolerance hit={tol.hit} must be >= 10 * eq={tol.eq}")
    if tol.vel <= 10 * _REFINE_FLOOR:
        raise ValueError(f"tolerance vel={tol.vel} must exceed the refinement resolution")
    if (target.n, target.k) != (grid.n, grid.k) or target.mode != grid.mode:
        raise ValueError("target and grid disagree on (n, k, mode)")

    tclass = classify_target(target)
    if target.is_identity_class():
        zero = BlockVelocity(
            np.zeros((grid.k, grid.k)), np.zeros((grid.k, grid.n - grid.k)), grid.mode
        )
        err = float(np.linalg.norm(target.cols - np.eye(grid.n, grid.k)))
        arr = Arrival(velocity=zero, t=0.0, length=0.0, endpoint_error=err)
        diagnostics = SearchDiagnostics(arrivals_before_dedup=1)
        return MinimizerReport(tclass, grid, (arr,), 1, 0.0, diagnostics)

    if grid.k == 1:
        a_blk, b_blk, t_good, err_good, counts = _plane_arrivals(target, grid, tclass.kind)
    else:
        a_blk, b_blk, t_good, err_good, counts = _refined_arrivals(target, grid)
    if len(t_good) == 0:
        return MinimizerReport(tclass, grid, (), 0, None, SearchDiagnostics(**counts))

    lengths = t_good * np.sqrt(_speeds_squared(b_blk, grid.n, grid.mode))
    min_len = float(lengths.min())
    slack = _PLANE_LENGTH_SLACK if grid.k == 1 else _LENGTH_SLACK
    kept = np.nonzero(lengths <= min_len * (1 + slack))[0]
    embeds = _embed_velocities(a_blk[kept], b_blk[kept])
    order = _report_order(lengths[kept], t_good[kept], embeds)
    kept, embeds = kept[order], embeds[order]

    unique, clusters = _representatives(embeds, t_good[kept], 1e-6, tol.vel)
    rows = kept[unique]
    velocities = _block_velocities(a_blk[rows], b_blk[rows], grid.mode)
    final = tuple(
        Arrival(
            velocity=v,
            t=float(t_good[i]),
            length=float(lengths[i]),
            endpoint_error=float(err_good[i]),
        )
        for v, i in zip(velocities, rows)
    )
    diagnostics = SearchDiagnostics(**counts, arrivals_before_dedup=len(kept))
    return MinimizerReport(tclass, grid, final, clusters, min_len, diagnostics)


def _refined_arrivals(target: StiefelPoint, grid: VelocityGrid):
    """Blocks, times and residual norms of a k >= 2 search's arrivals, and its counts.

    The gated local minima of the endpoint error along each velocity's time
    grid (up to 3 per velocity, ``_best_hits``) are refined by ``_refine``.
    One loop scans the grid's kernel fills of 16 velocities: cached if they
    fit the chunk budget, and otherwise streamed, so no table is made.
    """
    family = _LinearFamily(grid)
    p0 = family.initial_params()
    ts = _scan_times(grid)
    speed = float(np.sqrt(_speeds_squared(family.blocks(p0[:1])[1], grid.n, grid.mode)[0]))
    gate = max(8 * speed * (ts[1] - ts[0]), 0.25) + tolerances.TOL.hit
    fits = len(p0) * grid.t_count * grid.n * grid.k <= _CHUNK_ELEMENTS
    fills = _scan_table(grid) if fits else _scan_fills(family, p0, ts)
    hits, lo = [], 0
    for cols in fills:
        v, t, e = _scan_cols(cols, target.cols, gate)
        hits.append((v + lo, t, e))
        lo += len(cols)
    vix, tix, err = (np.concatenate(x) for x in zip(*hits))

    pick = _best_hits(vix, tix, err)
    if len(pick) == 0:
        none = np.zeros(0)
        return none, none, none, none, dict(scan_hits=len(vix))
    params, t_ref, errs, stats = _refine(
        family, p0[vix[pick]], ts[tix[pick]], target.cols, tolerances.TOL.hit
    )
    counts = dict(scan_hits=len(vix), candidates=len(pick), **stats)
    good = (errs <= tolerances.TOL.hit) & (t_ref > 10 * _REFINE_FLOOR)
    a_blk, b_blk = family.blocks(params[good])
    return a_blk, b_blk, t_ref[good], errs[good], counts


# -- mirrored arrivals at block-diagonal targets ---------------------------------


def sample_block_diagonal_hitting_velocity(
    rng: np.random.Generator, n: int, k: int, mode: str = COMPLEX
):
    """Random velocity whose geodesic provably meets the block-diagonal set.

    Built from per-row 2x2 subsystems (row j paired with transversal column
    j) whose rates sqrt(a_j^2 + 4|b_j|^2) all agree, then conjugated by a
    random block-diagonal group element; the common rate s gives a hit at
    t = 2 pi / s.  In real mode the fibre rates are zero (a real skew 1x1
    block vanishes) and the construction reduces to a scaled co-isometry
    hitting at t = pi / sigma.  Returns (velocity, expected_hit_time).
    """
    matcore.check_mode(mode)
    m = n - k
    r = min(k, m)
    d = np.zeros((k, m), dtype=np.complex128)
    if mode == COMPLEX:
        s = rng.uniform(1.5, 3.0)
        alphas = rng.uniform(-0.6, 0.6, size=k) * s
        a0 = np.diag(1j * alphas)
        for j in range(r):
            mag = np.sqrt(s * s - alphas[j] ** 2) / 2.0
            d[j, j] = mag * np.exp(2j * np.pi * rng.uniform())
    else:
        sigma = rng.uniform(0.7, 1.5)
        s = 2.0 * sigma
        a0 = np.zeros((k, k), dtype=np.complex128)
        for j in range(r):
            d[j, j] = sigma * rng.choice([-1.0, 1.0])
    u = matcore.random_unitary(rng, k, mode)
    w = matcore.random_unitary(rng, m, mode)
    a = adjoint(u) @ a0 @ u
    b = adjoint(u) @ d @ w
    return BlockVelocity(a, b, mode), float(2.0 * np.pi / s)


def first_block_diagonal_hit(spec: GeodesicSpec, t_upper: float) -> float | None:
    """First strictly positive time the lower block vanishes, or None.

    The endpoint's lower block is exp(t v)[k:, :k] exp(-t a), and exp(-t a)
    is unitary, so its norm is that of L(t) = Q[k:] diag(e^{-i t w}) Q[:k]*
    for i v = Q diag(w) Q* (Higham's spectral form, as in
    ``geodesic._sensitivity``): one eigh, whatever k, and no kernel call.
    Scans |L|^2, the real view's sum of squares, against squared bounds on a
    dense grid (skipping the initial rise out of the identity class, where
    the norm is trivially small), whose phases e^{-i t_j w} are
    the products of ceil(sqrt(N)) block-start and as many in-block
    exponentials (2 ceil(sqrt(N)) n exponentials for N scan times, not N n),
    and refines the first dip by Gauss-Newton steps on L, with
    dL/dt = Q[k:] diag(-i w e^{-i t w}) Q[:k]*, clamped to the dip's scan
    bracket.  A dip whose norm does not reach
    TOL.eq is no hit.  ``t_upper`` must be positive and finite.
    """
    if not 0.0 < t_upper < np.inf:
        raise ValueError(f"t_upper must be positive and finite, got {t_upper}")
    k, n = spec.k, spec.n
    w, q = np.linalg.eigh(1j * spec.v.embed())
    # L(t) flattened is the row e^{-i t w} times pairs[p, (i, j)] = q[k + i, p] conj(q[j, p])
    pairs = (q[k:, None, :] * np.conj(q[:k, :])).reshape(-1, n).T
    ts = np.linspace(0.0, t_upper, _HIT_SCAN_POINTS)
    # e^{-i t_j w} for t_j = (B b + c) dt: block-start phases times in-block phases
    steps = -1j * (t_upper / (_HIT_SCAN_POINTS - 1)) * np.arange(_HIT_BLOCK)[:, None] * w
    phases = (np.exp(_HIT_BLOCK * steps)[:, None] * np.exp(steps)).reshape(-1, n)
    lows = (phases[:_HIT_SCAN_POINTS] @ pairs).view(np.float64)
    g2 = np.einsum("ij,ij->i", lows, lows)  # |L|^2, compared against squared bounds
    peak2 = float(g2.max())
    if peak2 <= tolerances.TOL.eq**2:
        return None  # curve never leaves the block-diagonal set
    risen = np.nonzero(g2 > 0.25 * peak2)[0]
    mid = g2[1:-1]
    dips = (mid <= g2[:-2]) & (mid <= g2[2:]) & (mid < 0.04 * peak2)
    dips[: risen[0]] = False  # mid[j] is g[j + 1]; dips must come after the rise
    found = np.flatnonzero(dips)
    if len(found) == 0:
        return None
    idx = int(found[0]) + 1
    lo, hi, t = float(ts[idx - 1]), float(ts[idx + 1]), float(ts[idx])
    for _ in range(_HIT_GN_ITERS):
        e = np.exp(-1j * t * w)
        r, d = np.stack([e, -1j * w * e]) @ pairs  # L and dL/dt
        dd = float(np.sum(np.abs(d) ** 2))
        if dd == 0.0:
            break
        t_next = min(max(t - float(np.sum(d.conj() * r).real) / dd, lo), hi)
        if abs(t_next - t) <= _HIT_STEP_FLOOR * t_upper:
            break
        t = t_next
    else:
        r = np.exp(-1j * t * w) @ pairs
    return t if float(np.linalg.norm(r)) <= tolerances.TOL.eq else None


@dataclass(frozen=True)
class MirrorCheckSummary(_Record):
    n: int
    k: int
    mode: str
    samples: int
    skipped: int
    max_endpoint_gap: float
    max_length_gap: float
    min_velocity_separation: float
    failures: int
    passed: bool


def verify_mirror_arrivals(
    n: int,
    k: int,
    samples: int = 50,
    seed: int = 0,
    mode: str = COMPLEX,
) -> MirrorCheckSummary:
    """Check that block-diagonal arrivals admit a distinct equal-length twin.

    For each sampled velocity, locate the first block-diagonal hit of its
    geodesic, mirror the transversal block (also through a random unitary
    factor) and verify for both twins: same endpoint within TOL.hit and same
    length to 1e-10.  The plain mirror (a, -b) must also be a distinct
    velocity; its separation is ``min_velocity_separation``.
    Velocities with a vanishing transversal block never leave the identity
    class and are skipped, not counted.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    tol = tolerances.TOL
    rng = np.random.default_rng(seed)
    checked = skipped = failures = 0
    max_end = 0.0
    max_len = 0.0
    min_sep = np.inf
    while checked < samples:
        vel, t_exp = sample_block_diagonal_hitting_velocity(rng, n, k, mode)
        if float(np.linalg.norm(vel.b_block)) <= 1e-12:
            skipped += 1
            continue
        checked += 1
        spec = GeodesicSpec(vel)
        t_hit = first_block_diagonal_hit(spec, 1.15 * t_exp)
        if t_hit is None:
            failures += 1
            continue
        # the twin through a random factor u may coincide with vel (u near -I),
        # so only its endpoint and length are checked
        mirrored = mirror_velocity(vel)
        twins = (mirrored, mirror_velocity(vel, matcore.random_unitary(rng, n - k, mode)))
        blocks = (vel,) + twins
        ends = batch_geodesic_columns(
            np.stack([w.a_block for w in blocks]),
            np.stack([w.b_block for w in blocks]),
            np.full(len(blocks), t_hit),
            mode,
        )
        if not in_block_diagonal_set(StiefelPoint(ends[0], mode)):
            failures += 1
            continue
        sep = float(np.linalg.norm(vel.embed() - mirrored.embed()))
        min_sep = min(min_sep, sep)
        if sep <= tol.vel:
            failures += 1
        vel_len = length(vel, t_hit)
        for twin, q in zip(twins, ends[1:]):
            gap = float(np.max(np.abs(q - ends[0])))
            max_end = max(max_end, gap)
            len_gap = abs(vel_len - length(twin, t_hit))
            max_len = max(max_len, len_gap)
            if gap > tol.hit or len_gap > 1e-10:
                failures += 1
    return MirrorCheckSummary(
        n=n,
        k=k,
        mode=mode,
        samples=checked,
        skipped=skipped,
        max_endpoint_gap=max_end,
        max_length_gap=max_len,
        min_velocity_separation=float(min_sep),
        failures=failures,
        passed=failures == 0,
    )


# -- antidiagonal targets of V_{2k,k} -------------------------------------------


@dataclass(frozen=True)
class AntidiagonalCheckSummary(_Record):
    k: int
    mode: str
    samples: int
    t_zero: float
    max_unitary_direction_err: float
    min_first_zero_margin: float
    min_scan_floor: float
    max_roundtrip_err: float
    min_endpoint_gap: float
    passed: bool


def verify_antidiagonal_arrivals(
    k: int, samples: int = 20, seed: int = 0, mode: str = COMPLEX
) -> AntidiagonalCheckSummary:
    """Check the unique-arrival picture at antidiagonal targets of V_{2k,k}.

    (a) scaled-unitary directions (trace-normalized) reach an antidiagonal
        point exactly at t0 = pi sqrt(k)/2, with the transversal endpoint
        equal to -sqrt(k) times the direction's conjugate transpose;
    (b) non-unitary invertible directions cannot vanish before t0: their
        smallest squared singular value sits below 1/k, pushing the first
        possible zero strictly past t0, and the block stays away from zero
        on a dense scan of [0, t0];
    (c) the endpoint map is injective: it round-trips the direction and
        separates distinct samples.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    matcore.check_mode(mode)
    rng = np.random.default_rng(seed)
    t0 = np.pi * np.sqrt(k) / 2.0
    sqrt_k = np.sqrt(k)

    directions = []
    for _ in range(samples):
        q = matcore.random_unitary(rng, k, mode)
        if mode == REAL and rng.uniform() < 0.5:
            q = np.array(q)
            q[:, 0] = -q[:, 0]  # reach both components of O(k)
        directions.append(q / sqrt_k)  # trace-normalized: tr(bb*) = 1
    directions = np.stack(directions)
    g1, endpoints = grassmann_geodesic_2kk(directions, t0)
    dir_err = np.abs(endpoints + sqrt_k * adjoint(directions))
    max_dir_err = float(max(np.max(np.abs(g1)), np.max(dir_err)))
    max_roundtrip = float(np.max(np.abs(-adjoint(endpoints) / sqrt_k - directions)))

    # injectivity across distinct directions only (small direction sets repeat)
    pairs = np.triu_indices(samples, 1)

    def pair_gaps(blocks):
        flat = np.reshape(blocks, (samples, k * k))
        return np.linalg.norm(flat[:, None] - flat[None], axis=-1)[pairs]

    ends_gap = pair_gaps(endpoints)[pair_gaps(directions) > 1e-6]
    min_gap = float(ends_gap.min()) if ends_gap.size else np.inf

    min_margin = np.inf
    min_floor = np.inf
    if k >= 2:
        sigmas = []
        while len(sigmas) < samples:
            g = matcore.random_matrix(rng, k, k, mode)
            sig = np.linalg.svd(g / np.linalg.norm(g), compute_uv=False)
            if sig[-1] < 0.05 or sig[0] / sig[-1] < 1.05:
                continue  # want invertible and genuinely non-unitary
            sigmas.append(sig)
        sigmas = np.array(sigmas)
        first_zero_bound = np.pi / (2.0 * sigmas[:, -1])
        min_margin = float(np.min(first_zero_bound - t0))
        # the block cos(t r), r = sqrt(bb*), has Frobenius norm sqrt(sum_i cos^2(t sigma_i))
        ts = np.linspace(0.0, t0, 400)[:, None, None]
        min_floor = float(np.linalg.norm(np.cos(ts * sigmas), axis=-1).min())
    passed = (
        max_dir_err <= 1e-9
        and max_roundtrip <= 1e-10
        and (k < 2 or (min_margin > 1e-9 and min_floor > 1e-6))
        and (not np.isfinite(min_gap) or min_gap > 1e-6)
    )
    return AntidiagonalCheckSummary(
        k=k,
        mode=mode,
        samples=samples,
        t_zero=float(t0),
        max_unitary_direction_err=max_dir_err,
        min_first_zero_margin=float(min_margin),
        min_scan_floor=float(min_floor),
        max_roundtrip_err=max_roundtrip,
        min_endpoint_gap=float(min_gap),
        passed=passed,
    )


# -- scalar facts behind the V_{n,1} uniqueness argument -------------------------


@dataclass(frozen=True)
class UniquenessCheckSummary(_Record):
    n: int
    trials: int
    sin_ratio_strictly_decreasing: bool
    min_tan_ratio_gap: float
    max_reconstruction_err: float
    passed: bool


def uniqueness_case_checks(n: int, trials: int = 200, seed: int = 0) -> UniquenessCheckSummary:
    """Numerical checks of the scalar facts used to rule out extra minimizers.

    (i) sin(x)/x is strictly decreasing on (0, pi);
    (ii) tan(x)/x takes different values at the two comparison points that
         an equal-endpoint pair with different fibre rates would need;
    (iii) the transversal endpoint determines the transversal row once the
         fibre rate and row norm are fixed (closed-form inversion).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)

    xs = np.arange(0.01, 3.13 + 1e-12, 1e-4)
    ratios = np.sin(xs) / xs
    sin_monotone = bool(np.all(np.diff(ratios) < 0))

    # (lam, |y|, t) triples, one batch per count still needed: the stream of
    # a loop that draws one triple at a time until ``trials`` are kept
    gaps = []
    done = 0
    while done < trials:
        lam, y_mag, u = rng.uniform(0.05, (2.0, 2.0, 0.95), size=(trials - done, 3)).T
        s = np.sqrt(lam * lam + 4.0 * y_mag * y_mag)
        t = u * 2.0 * np.pi / s
        a = t * lam / 2.0
        b = t * s / 2.0
        keep = (np.minimum(abs(a - np.pi / 2), abs(b - np.pi / 2)) >= 1e-3) & (b - a >= 1e-6)
        a, b = a[keep], b[keep]
        gaps.append(abs(np.tan(a) / a - np.tan(b) / b))
        done += len(a)
    min_gap = float(np.concatenate(gaps).min())

    lam, t = np.zeros(trials), np.zeros(trials)
    rows = np.zeros((trials, n - 1), complex)
    for i in range(trials):
        lam[i] = rng.uniform(-2.0, 2.0)
        row = matcore.random_matrix(rng, 1, n - 1, COMPLEX).reshape(-1)
        rows[i] = row / np.linalg.norm(row) * rng.uniform(0.3, 1.5)
        t[i] = rng.uniform(0.1, 0.9)
    s = np.sqrt(lam * lam + 4.0 * np.sum(np.abs(rows) ** 2, axis=1))
    t = t * 2.0 * np.pi / s
    _, g3 = geodesic_vn1_closed(lam, rows, t)
    factor = np.exp(-0.5j * t * (s + lam)) * (np.exp(1j * t * s) - 1.0) / (1j * s)
    max_rec = float(np.max(np.abs(np.conj(-g3 / factor[:, None]) - rows)))

    passed = sin_monotone and min_gap > 1e-9 and max_rec <= 1e-10
    return UniquenessCheckSummary(
        n=n,
        trials=trials,
        sin_ratio_strictly_decreasing=sin_monotone,
        min_tan_ratio_gap=float(min_gap),
        max_reconstruction_err=max_rec,
        passed=passed,
    )


# -- the real sphere case ---------------------------------------------------------


def real_antipodal_cut_point(n: int) -> StiefelPoint:
    """The unique cut point of the identity class on real V_{n,1}: the antipode.

    Real V_{n,1} is the sphere; every unit-speed geodesic from the identity
    class reaches the class of (-1, 0, ..., 0) at time pi, so a minimizer
    search at this target finds a whole sphere of velocity clusters, while
    any other target is reached by exactly one.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    cols = np.zeros((n, 1), dtype=np.complex128)
    cols[0, 0] = -1.0
    return StiefelPoint(cols, REAL)
