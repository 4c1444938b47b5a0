"""Cut-locus predicates and desk-scale verification experiments.

The operational notion of a cut point is multiplicity: a target reached at
minimal length by more than one distinct velocity.  ``search_minimizers``
makes that testable at desk scale — at k >= 2 it scans a velocity grid and
locally refines every near-arrival, at k = 1 it solves one real equation
along each fold branch; it keeps the arrivals of (numerically) minimal
length and counts velocity clusters.  The verify_* experiments check the
structural facts directly: mirrored second arrivals at block-diagonal targets, the
unique-arrival picture at antidiagonal targets of V_{2k,k}, and the scalar
analytic facts behind the V_{n,1} uniqueness argument.

All experiments are deterministic given their seed and grid.  They need
numpy alone: a grid's sample is drawn from numpy's generator seeded with
the grid's seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matcore, tolerances
from .matcore import COMPLEX, REAL, adjoint
from .homspace import BlockVelocity, StiefelPoint, _block_velocities, _embed_velocities, _Record
from .geodesic import (
    GeodesicSpec,
    _decompose,
    _eigenbasis_jacobian,
    _speeds_squared,
    _vn1_jacobian,
    batch_geodesic_columns,
    geodesic_vn1_closed,
    grassmann_geodesic_2kk,
    length,
    mirror_velocity,
)

_LENGTH_SLACK = 1e-6  # arrivals within (1 + slack) of the minimum count as minimal
_PLANE_LENGTH_SLACK = 1e-12  # the same at k = 1, whose lengths are exact to rounding
_REFINE_FLOOR = 1e-10  # resolution of refined times and velocities
# element budget of one batch of Jacobian temporaries; a k >= 2 scan chunk
# spans a quarter of it in endpoint entries (velocities x times x n x k),
# which ``_scan_hits`` sums from phase factors without forming them
_CHUNK_ELEMENTS = 2**22
# Newton steps of a k = 1 root's solve from its bracket (``_plane_newton``);
# a solve ends earlier once a step no longer lowers |f|
_NEWTON_ITERS = 30
# rates per side of a fold branch's loop: its brackets start the k = 1 solve
_BRANCH_RATES = 64
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


def _is_real(x) -> bool:
    """A Python or numpy real number that is not a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


@dataclass(frozen=True)
class VelocityGrid(_Record):
    """Finite velocity/time grid driving ``search_minimizers``.

    Sampled transversal blocks have unit Frobenius norm (any geodesic with
    nonzero transversal block can be reparametrized to that family), and
    every arrival is reported so, with its time: arrival length is speed *
    time with a family-wide constant speed.

    family: the sample, fixed by the shape.  "v21" (complex V_{2,1})
    takes phases of the unit row, "sphere" (every other k = 1 shape) unit
    rows, and "general" (k >= 2) is a random sample of the linear params
    that the search refines, drawn from ``default_rng(seed)``, with unit
    transversal coordinates.  Construction resolves "auto" to the shape's
    family and ``t_max=None`` to 1.1 pi sqrt(k), stores t_max and the two
    lambda_range bounds as floats, and rejects an unknown
    mode, an n, k, count or seed that is not an integer, a lambda_range not
    of two real bounds, a t_max not real (a bool is neither), a shape without
    1 <= k < n, a non-finite bound or t_max, lo > hi, t_max <= 0 and a family
    other than "auto" or the shape's.  At k = 1 ``lambda_range`` and ``t_max``
    bound the roots' window, and ``lambda_count`` and ``t_count`` are never read.
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
        bounds = tuple(self.lambda_range) if np.iterable(self.lambda_range) else ()
        if len(bounds) != 2 or not all(map(_is_real, bounds)):
            raise ValueError(f"lambda_range={self.lambda_range!r} must be two real bounds")
        # float bounds keep the record JSON, a tuple the grid hashable (a cache key)
        lo, hi = bounds = tuple(map(float, bounds))
        object.__setattr__(self, "lambda_range", bounds)
        if not -np.inf < lo <= hi < np.inf:
            raise ValueError(f"lambda_range {self.lambda_range} must be finite with lo <= hi")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 1")
        if self.t_count < 3:
            raise ValueError(f"t_count={self.t_count} must be >= 3")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        if self.t_max is not None and not (_is_real(self.t_max) and 0 < self.t_max < np.inf):
            raise ValueError(f"t_max={self.t_max!r} must be a finite real > 0")
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
    each candidate was frozen as ``converged`` (residual below 1e-2
    ``TOL.hit`` and its last step rejected, so at its rounding floor),
    ``damped`` (damping above 1e8) or ``stalled`` (``_STALL_WINDOW``), or
    was still active at the iteration cap (``capped``); ``lm_iterations``
    lockstep iterations ran; ``arrivals_before_dedup`` arrivals were in the
    minimal-length band before deduplication.  At k = 1 each fold-branch
    bracket (a scan hit) is one Newton start (a candidate; none for a
    closed-form root), which has converged once a step no longer lowers its
    residual's modulus, and ``damped``, ``stalled`` and ``lm_iterations``
    stay 0.  The identity class is answered without a search: only its one
    arrival is counted.
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
    """Velocity blocks linear in the params: the refinement's coordinates.

    Each unit param is declared once, as one entry (row, col, value) of the
    velocity v = [[a, b], [-b*, 0]] whose mirror (col, row, -conj(value))
    keeps v skew-Hermitian.  Layout: in complex mode the k diagonal fibre
    rates (value i), then the real and imaginary part (value 1, i) of each
    fibre entry above the diagonal; in real mode only those entries' real
    parts.  Then the real parts of the transversal entries (row-major), and
    in complex mode their imaginary parts.  The search builds it at k >= 2
    only: a k = 1 grid samples its unit rows itself (``_unit_rows``).

    From that one list come both views of the params: the dense unit images
    ``da``, ``db``, which ``blocks`` multiplies, and ``entries``, the
    generators i [[da, db], [-db*, 0]] by their nonzero entries, (row, col,
    i value) and the mirror's, which ``_eigenbasis_jacobian`` reads (a
    diagonal rate repeats its entry with coefficient 0).  The refinement
    differentiates along them: its unknowns are the coordinates x of a
    velocity whose geodesic it takes at time 1, which is the geodesic of
    x / |b| at time |b|, so no time and no norm constraint is solved for.
    """

    def __init__(self, grid: VelocityGrid):
        self.grid = grid
        k, n = grid.k, grid.n
        units = (1.0, 1j) if grid.mode == COMPLEX else (1.0,)
        declared = [(p, p, 1j) for p in range(k)] if grid.mode == COMPLEX else []
        declared += [(p, q, u) for p, q in zip(*np.triu_indices(k, 1)) for u in units]
        self.a_dim = len(declared)
        declared += [(i, j, u) for u in units for i in range(k) for j in range(k, n)]
        rows, cols, values = (np.array(x) for x in zip(*declared))
        mirrors = -np.conj(values)
        # the mirror first, so that a diagonal rate keeps its own value
        v = np.zeros((len(values), n, n), dtype=np.complex128)
        v[np.arange(len(v)), cols, rows] = mirrors
        v[np.arange(len(v)), rows, cols] = values
        # images of the d unit params: da (d, k, k), db (d, k, n-k)
        self.da, self.db = v[:, :k, :k].copy(), v[:, :k, k:].copy()
        coefs = 1j * np.column_stack([values, np.where(rows == cols, 0.0, mirrors)])
        self.entries = (
            np.column_stack([rows, cols]), np.column_stack([cols, rows]), coefs, self.a_dim
        )

    def initial_params(self) -> np.ndarray:
        """The general family's sample (c, d): fibre params uniform, transversal on the unit sphere.

        Drawn from ``default_rng(seed)``: the fibre params uniform on
        ``lambda_range``, then the transversal params standard normal,
        scaled to unit norm (the coordinates of a unit b in the orthonormal
        images db).
        """
        c, a_dim = self.grid.sample_count, self.a_dim
        rng = np.random.default_rng(self.grid.seed)
        fibre = rng.uniform(*self.grid.lambda_range, (c, a_dim))
        transversal = rng.standard_normal((c, len(self.da) - a_dim))
        transversal /= np.linalg.norm(transversal, axis=1, keepdims=True)
        return np.column_stack([fibre, transversal])

    def blocks(self, params: np.ndarray):
        c, d = len(params), len(self.da)
        a = (params @ self.da.reshape(d, -1)).reshape((c,) + self.da.shape[1:])
        b = (params @ self.db.reshape(d, -1)).reshape((c,) + self.db.shape[1:])
        return a, b


def _frobenius(b: np.ndarray) -> np.ndarray:
    """Frobenius norms (c, 1, 1) of stacked blocks (c, k, m), floored away from 0."""
    return np.maximum(np.sqrt(np.sum(np.abs(b) ** 2, axis=(1, 2), keepdims=True)), 1e-30)


# -- search engine --------------------------------------------------------------


def _endpoint_residuals(family, x: np.ndarray, target_cols):
    """Batched endpoint residual vectors at time 1 for stacked param rows, and the kernel's spectra.

    Row i is the real/imaginary parts of (endpoint_i - target) flattened,
    the endpoint of the velocity ``family.blocks(x_i)`` at t = 1; rows with
    non-finite entries get a large constant residual so steps into them are
    always rejected.  The spectra are the spectral record the kernel
    evaluated the rows with (``_decompose``), which ``_normal_equations``
    takes at the same rows.
    """
    bad = ~np.isfinite(x).all(axis=1)
    a, b = family.blocks(np.where(bad[:, None], 0.0, x))
    spectra = _decompose(a, b)
    cols = batch_geodesic_columns(a, b, np.ones(len(x)), family.grid.mode, spectra)
    diff = (cols - target_cols[None]).reshape(len(x), target_cols.size)
    out = np.concatenate([diff.real, diff.imag], axis=1)
    out[bad] = 1e6
    return out, spectra


def _scan_times(grid: VelocityGrid) -> np.ndarray:
    return np.linspace(0.0, grid.t_max, grid.t_count)


def _phase_blocks(x: np.ndarray, dt: float, count: int):
    """Block-start and in-block factors of the phases e^{-i m dt x}, m = 0 .. count - 1.

    With B = ceil(sqrt(count)) and m = B b + r, the phase is starts[b] *
    steps[r]: both are (B, *x.shape), the time axis first, so each entry of
    x takes 2 B exponentials, not count.
    """
    block = int(np.ceil(np.sqrt(count)))
    steps = -1j * dt * np.arange(block).reshape(-1, *(1,) * x.ndim) * x
    return np.exp(block * steps), np.exp(steps)


def _unit_rows(grid: VelocityGrid) -> np.ndarray:
    """A k = 1 grid's unit rows (D, n-1), distinct by construction, in grid order.

    v21 rows are e^{i phi} at ``phase_count`` phases from 0, sphere rows
    ``direction_count`` standard normal rows of ``default_rng(seed)``,
    normalized (real V(3,1): equally spaced angles from 0; real V(2,1): 1,
    -1).  Rows are normalized to unit Frobenius norm.  Only
    block-diagonal targets use them: every other k = 1 target fixes its row.
    """
    m, real = grid.n - 1, grid.mode == REAL
    if grid.family == "v21" or (real and m == 2):
        count = grid.phase_count if grid.family == "v21" else grid.direction_count
        ang = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        raw = np.column_stack([np.cos(ang), np.sin(ang)])
    elif real and m == 1:
        raw = np.array([[1.0], [-1.0]])
    else:
        shape = (grid.direction_count, (1 if real else 2) * m)
        raw = np.random.default_rng(grid.seed).standard_normal(shape)
        raw = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    rows = (raw if real else raw[:, :m] + 1j * raw[:, m:]).astype(np.complex128)[:, None]
    return (rows / _frobenius(rows))[:, 0]


def _unread_grid_fields(grid: VelocityGrid) -> tuple[str, ...]:
    """The grid options that a search on ``grid`` never reads, whatever their values.

    A k >= 2 grid reads its sample (``sample_count``, ``seed``,
    ``lambda_range``) and its times.  A k = 1 grid reads no rates or times,
    only its window (``lambda_range`` in complex mode only) and its rows: the
    phases on v21 only, the random directions and their seed on every other
    shape but real V(2,1) (rows +-1) and real V(3,1) (angles, no seed).
    """
    if grid.k >= 2:
        return ("lambda_count", "phase_count", "direction_count")
    v21, real = grid.family == "v21", grid.mode == REAL
    unread = ["lambda_count", "sample_count", "t_count"] + ([] if v21 else ["phase_count"])
    if v21 or (real and grid.n == 2):
        unread.append("direction_count")
    if v21 or (real and grid.n <= 3):
        unread.append("seed")
    if real:
        unread.append("lambda_range")
    return tuple(unread)


@functools.lru_cache(maxsize=1)
def _scan_table(grid: VelocityGrid):
    """(sample, spectra): all that the grid's searches read of it, made once per process.

    At k = 1 ``_unit_rows`` and None.  At k >= 2 the seeded params (c, d) of
    ``_LinearFamily.initial_params`` and their velocities' spectral record
    (w, q, wa, qa, C) from ``_decompose``, as it is: the endpoint at time t
    is q (C o e^{-i t w_p} e^{i t wa_j}) qa* (``_scan_hits``).  Neither
    depends on the target, the times or the tolerances; every array is
    read-only.
    """
    if grid.k == 1:
        sample, spectra = _unit_rows(grid), None
    else:
        family = _LinearFamily(grid)
        sample = family.initial_params()
        spectra = _decompose(*family.blocks(sample))
    for x in (sample, *(spectra or ())):
        x.flags.writeable = False
    return sample, spectra


def _best_hits(vix, tix, err) -> np.ndarray:
    """Indices of the scan hits that become candidates, in candidate order.

    Up to 3 hits per velocity, the lowest errors first (ties by time index),
    velocities in grid order.
    """
    order = np.lexsort((tix, err, vix))
    grouped = vix[order]
    return order[np.arange(len(order)) - np.searchsorted(grouped, grouped) < 3]


def _scan_hits(family, target_cols):
    """The k >= 2 scan and candidate stages: ``_refine``'s starts (params, times), scan-hit count.

    Every point of the scan has orthonormal columns, so the squared error to
    the target Q is k + |Q|^2 - 2 Re tr(Q* P), and from the spectra that
    ``_scan_table`` holds tr(Q* P(t)) = sum_pj E_pj e^{-i t (w_p - wa_j)}
    with E_pj = (qa* Q* q)_jp C_pj: n k exponential terms per velocity and
    time, and no endpoint table.  At t = (B b + r) dt the phase factors into
    a block start and an in-block step (``_phase_blocks``), so a velocity's
    real parts over all times are one real product of its B x 2 n k block
    starts, weighted by E, with its 2 n k x B in-block steps, run a chunk of
    velocities at a time within ``_CHUNK_ELEMENTS``.  The products are
    small, and BLAS runs them on one thread.  The target's own |Q|^2 keeps a
    target that is slightly off orthonormality free of an offset.  The gate
    and the local-minimum tests compare squared errors; the square root is
    taken at the hits only.  Up to 3 gated interior local minima per
    velocity become candidates (``_best_hits``).
    """
    grid = family.grid
    p0, (w, q, wa, qa, c_mat) = _scan_table(grid)
    ts = _scan_times(grid)
    speed = float(np.sqrt(_speeds_squared(family.blocks(p0[:1])[1], grid.n, grid.mode)[0]))
    dt = ts[1] - ts[0]
    gate = max(8 * speed * dt, 0.25) + tolerances.TOL.hit
    n, k = target_cols.shape
    conj_e = ((adjoint(q) @ target_cols @ qa) * np.conj(c_mat)).reshape(-1, n * k)
    rates = (w[:, :, None] - wa[:, None, :]).reshape(-1, n * k)
    base = k + float(np.vdot(target_cols, target_cols).real)
    chunk = max(1, _CHUNK_ELEMENTS // (4 * len(ts) * n * k))
    hits = []
    for lo in range(0, len(p0), chunk):
        starts, steps = _phase_blocks(rates[lo : lo + chunk], dt, len(ts))
        # Re(E s i) = conj(E s) . i over the real views
        left = (np.conj(starts) * conj_e[lo : lo + chunk]).view(np.float64).transpose(1, 0, 2)
        re = left @ steps.view(np.float64).transpose(1, 2, 0)
        err2 = base - 2.0 * re.reshape(len(re), -1)[:, : len(ts)]
        interior = (
            (err2[:, 1:-1] <= err2[:, :-2])
            & (err2[:, 1:-1] <= err2[:, 2:])
            & (err2[:, 1:-1] < gate * gate)
        )
        vix, tix = np.nonzero(interior)
        tix += 1
        hits.append((vix + lo, tix, np.sqrt(np.maximum(err2[vix, tix], 0.0))))
    vix, tix, err = (np.concatenate(x) for x in zip(*hits))
    pick = _best_hits(vix, tix, err)
    return p0[vix[pick]], ts[tix[pick]], len(vix)


def _plane_residual(lam, ts, u: complex, qhat: float, r1):
    """f = qhat s - r1 Re(T u) + i Im(T u) at a unit row, with df/dlam and df/dt, stacked.

    For a target column q = (q0, q1): qhat = |q0| / |q| and u = conj(q0) /
    |q0|.  s = sin(t omega) / omega is |S| with the sign (-1)^m on fold
    branch m, m pi <= t omega <= (m + 1) pi, and r1 = (-1)^m |q1| / |q|
    (``_branch_starts``).  As (Re(T u), s) and (qhat, r1) are unit vectors
    when Im(T u) = 0 (|T|^2 + s^2 = 1), f vanishes at T = q0 / |q| and s =
    r1 (and at -q0 / |q|, s = -r1, on the other branches).  The real part
    is qhat (s - r1) - r1 (Re(T u) - qhat), the radial condition twice: s -
    r1 alone resolves a root only to about eps / |q0| (small-|q0| roots sit
    near the loop's turning point t omega = pi / 2, where s is stationary
    in t), and Re(T u) - qhat alone only to about eps / |q1| (near the
    identity).  To first order the two terms are proportional with the same
    sign and round alike (about eps qhat |r1|), while their derivatives are
    in the ratio qhat^2 : r1^2, so their sum resolves the root to rounding
    at every |q0|.  Unlike T, s is not flat across the fold.  One
    ``geodesic._vn1_jacobian`` call gives T, s, their derivatives and ds/dt
    = cos(t omega).
    """
    top, dlam, dt, s, ds, cosw = _vn1_jacobian(lam, ts)
    w = np.array((top, dlam, dt)) * u
    return qhat * np.array((s, ds, cosw)) - r1 * w.real + 1j * w.imag


def _plane_newton(lam: np.ndarray, ts: np.ndarray, u: complex, qhat: float, r1: np.ndarray):
    """Batched Newton on ``_plane_residual`` in (lam, t) = 0 from stacked starts.

    Start i solves with its own r1[i].  Each step solves the 2 x 2 real
    system of f's derivatives by Cramer's rule and is kept only if it lowers
    |f|; a start whose step no longer does has converged.  Returns the
    rates, the times and which starts are still descending after
    ``_NEWTON_ITERS`` steps (capped).
    """
    lam, ts = lam.astype(np.float64), ts.astype(np.float64)
    f, dlam, dt = _plane_residual(lam, ts, u, qhat, r1)
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
            trial = _plane_residual(trial_lam, trial_ts, u, qhat, r1[ai])
            trial_res = np.abs(trial[0])
            better = trial_res < res[ai]
            rows = ai[better]
            trials = (trial_lam, trial_ts, *trial, trial_res)
            for held, new in zip((lam, ts, f, dlam, dt, res), trials):
                held[rows] = new[better]
            active[ai[~better]] = False
    return lam, ts, active


def _branch_starts(q0: complex, q1: np.ndarray, grid: VelocityGrid):
    """Newton starts (rates, times, r1) of a complex generic k = 1 target, one per bracket.

    A unit row reaches |S| = r = |q1| / |q| (q the target column) only where
    |sin(t omega)| = r omega, so at |lam| <= L = 2 |q0| / |q1| = 2 sqrt(1 /
    r^2 - 1).  Branch m is the closed loop t omega = m pi + u out and m pi +
    pi - u back, u = arcsin(r omega) = atan2(2 omega, sqrt(L^2 - lam^2)),
    whose sides meet at lam = +-L; on it s = (-1)^m r and |T| = |q0| / |q|.
    Each side takes ``_BRANCH_RATES`` rates over that interval cut to
    ``lambda_range``, on every branch whose time m pi / omega can be at most
    ``t_max``.  A bracket is a sign change of Im(T conj(q0)) between
    neighbouring rates whose chord crosses the positive real axis, with
    either end at most ``t_max``; its start is the chord's crossing.
    """
    side = np.linalg.norm(q1)
    r, bound = side / np.hypot(abs(q0), side), 2.0 * abs(q0) / side
    lo, hi = max(grid.lambda_range[0], -bound), min(grid.lambda_range[1], bound)
    if lo > hi:
        return np.zeros(0), np.zeros(0), np.zeros(0)
    lam = np.linspace(lo, hi, _BRANCH_RATES)
    omega = np.hypot(0.5 * lam, 1.0)
    u = np.arctan2(2.0 * omega, np.sqrt(np.maximum((bound - lam) * (bound + lam), 0.0)))
    folds = np.arange(int(grid.t_max * omega.max() / np.pi) + 1)[:, None, None]
    ts = (folds * np.pi + np.stack([u, np.pi - u])) / omega  # (fold, side, rate)
    z = _vn1_jacobian(lam, ts)[0] * np.conj(q0)
    a, b = z[..., :-1], z[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = a.imag / (a.imag - b.imag)  # the chord's crossing, as a fraction of the step
    take = (
        ((a.imag < 0) != (b.imag < 0))
        & (a.real + w * (b.real - a.real) > 0)
        & (np.minimum(ts[..., :-1], ts[..., 1:]) <= grid.t_max)
    )
    cell = np.nonzero(take)
    m, i, w = cell[0], cell[2], w[cell]
    t0, t1 = ts[..., :-1][cell], ts[..., 1:][cell]
    return lam[i] + w * (lam[i + 1] - lam[i]), t0 + w * (t1 - t0), np.where(m % 2 == 0, r, -r)


def _plane_arrivals(target: StiefelPoint, grid: VelocityGrid, kind: str):
    """Blocks, times and kernel endpoint errors of a k = 1 search's roots, and its counts.

    Every unit row reaches a block-diagonal target (q0, 0) where S = 0, at
    t omega = m pi with T = (-1)^m e^{-i lam t / 2}; m = 1 is the shortest,
    so for q0 = e^{ic}, c in (0, 2 pi) and x = c / pi: t = pi sqrt(x (2 -
    x)), lam = 2 (1 - x) / sqrt(x (2 - x)) (the real antipode: lam = 0, t =
    pi).  A real-mode target (lam = 0, T = cos t) is reached at t =
    atan2(|q1|, q0), and so is q0 = 0.  Any other target's roots are solved
    along its fold branches: each bracket of ``_branch_starts`` starts one
    ``_plane_newton`` pass on ``_plane_residual``, which pins a root to
    rounding at every |q0|, and neither ``lambda_count`` nor ``t_count`` is
    read: no rate or time grid is sampled.  Each root's row is b =
    -conj(q1) / conj(S), normalized.  Every root with rate in
    ``lambda_range`` (complex mode) and time up to ``t_max`` is returned,
    for ``search_minimizers``' one acceptance rule.  Only the block-diagonal
    branch reads ``_scan_table`` (the unit rows, in grid order).
    """
    q0, q1 = target.cols[0, 0], target.cols[1:, 0]
    counts = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == BLOCK_DIAGONAL:
            rows, _ = _scan_table(grid)
            x = (np.angle(q0) % (2 * np.pi)) / np.pi
            lam = np.full(len(rows), 2.0 * (1.0 - x) / np.sqrt(x * (2.0 - x)))
            t = np.full(len(rows), np.pi * np.sqrt(x * (2.0 - x)))
        elif grid.mode == REAL or q0 == 0:
            # lam = 0: T = cos t and S = sin t
            norm = np.linalg.norm(q1)
            lam, t = np.zeros(1), np.array([np.arctan2(norm, q0.real)])
            rows = (-np.conj(q1) / norm)[None]
        else:
            lam, t, r1 = _branch_starts(q0, q1, grid)
            u, qhat = np.conj(q0) / abs(q0), abs(q0) / np.linalg.norm(target.cols)
            lam, t, capped = _plane_newton(lam, t, u, qhat, r1)
            dtop = _vn1_jacobian(lam, t)[2]
            # S = -dT/dt
            rows = -np.conj(q1) / np.conj(-dtop)[:, None]
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            capped = int(np.count_nonzero(capped))
            counts = dict(scan_hits=len(lam), candidates=len(lam))
            counts.update(converged=len(lam) - capped, capped=capped)
    lo, hi = grid.lambda_range
    inside = t <= grid.t_max
    if grid.mode == COMPLEX:
        inside &= (lo <= lam) & (lam <= hi)
    a_blk, b_blk, t = (1j * lam[inside]).reshape(-1, 1, 1), rows[inside, None], t[inside]
    cols = batch_geodesic_columns(a_blk, b_blk, t, grid.mode)
    return a_blk, b_blk, t, np.linalg.norm(cols - target.cols, axis=(1, 2)), counts


def _normal_equations(family, x: np.ndarray, r: np.ndarray, spectra):
    """J^T J (c, d, d) and J^T r (c, d, 1) of ``_endpoint_residuals`` at finite param rows.

    J is the analytic Jacobian of the residuals ``r`` (c, rows) in the
    params.  The blocks are linear in them, so column j is the endpoint's
    derivative along the unit image (da_j, db_j) at t = 1, which
    ``geodesic._eigenbasis_jacobian`` gives in the eigenbasis of i v from
    ``spectra`` (the kernel's spectral record at these rows, as
    ``_endpoint_residuals`` returns it).  J^T J and J^T r are Frobenius
    inner products, which the unitary Q* keeps, so both are taken on the
    real view of those derivatives, against the residual rotated by Q*.
    """
    c, dim = x.shape
    n, k = family.grid.n, family.grid.k
    # J^T (c, d, 2 n k), one real row per param
    jt = _eigenbasis_jacobian(np.ones(c), spectra, family.entries)
    jt = jt.reshape(c, dim, -1).view(np.float64)
    diff = (r[:, : n * k] + 1j * r[:, n * k :]).reshape(c, n, k)
    # (Q* diff)^T, the derivatives' layout
    rotated = (np.swapaxes(diff, 1, 2) @ np.conj(spectra[1])).reshape(c, -1).view(np.float64)
    return jt @ np.swapaxes(jt, 1, 2), jt @ rotated[:, :, None]


def _refine(
    family,
    params: np.ndarray,
    ts: np.ndarray,
    target_cols,
    hit: float,
):
    """Batched Levenberg-Marquardt on the endpoint residuals over the velocity coordinates.

    The scan hit (p, t) starts at x = t p: the geodesic of p at time t is
    the geodesic of t p at time 1, and the refinement moves x alone, with
    the endpoint taken at t = 1 (``_endpoint_residuals``), so it has d
    unknowns and no direction that the endpoint ignores.  Candidates march
    in lockstep: each iteration solves every active candidate's damped
    normal equations and tries one step, a single batched geodesic
    evaluation.  Each candidate keeps its normal equations J^T J and J^T r;
    the analytic Jacobian is formed again only for the candidates whose
    last step was accepted, since a rejected step changes only the damping.
    Each candidate also keeps the spectral record that the evaluation of its
    accepted point made, and its normal equations are built from them
    (``_normal_equations``), so no Jacobian calls eigh.  Only k >= 2
    searches refine, from the starts of ``_scan_hits`` (an empty stack too).
    Per-candidate damping adapts in the usual way.  A candidate is frozen
    once its residual is far below the hit radius and a step no longer
    lowers it (its rounding floor), once its damping exceeds 1e8, or once
    its squared residual is above half of its own value ``_STALL_WINDOW``
    iterations earlier: it has stopped converging (Nocedal & Wright,
    *Numerical Optimization*, section 10.3).  Without that window about half
    of the candidates of a 128-sample complex V(6,3) search keep lowering
    their residual slowly, never arrive, and stay active until the
    iteration cap.  A slow candidate can still arrive: one such search's
    minimal-length candidates plateau and converge from iteration 19, and
    a window of 2 loses them all (``TestStallWindow``).  A plateau longer
    than the window would lose its candidate; on the 16 corpus searches the
    slowest arrival needs a window of 9.
    Returns the refined coordinates x, the residual norms, which are the
    endpoints' Frobenius distances to the target, and the counts of the
    candidates frozen as ``converged``, ``damped`` and ``stalled`` and still
    active at the cap (``capped``), with the iterations run
    (``lm_iterations``).
    """
    x = (ts[:, None] * params).astype(np.float64)
    n_cand, dim = x.shape
    n, k = target_cols.shape
    # a chunk's normal equations peak in ``_entry_sum``: the (chunk, dim, k,
    # n) complex derivatives meet two (chunk, dim, k, n) gathers of the
    # (chunk, n, k, n) Daleckii-Krein product, and that product's (chunk, n,
    # k, n) factor comes before it: at most n k (3 dim + 2 n) elements per
    # candidate.  They come on top of the stored normal equations and
    # spectra and the trial step's evaluation, and the peak RSS of a
    # default-grid complex V(6,3) search grows with the chunk, so a chunk
    # takes a quarter of the element budget
    chunk = max(1, _CHUNK_ELEMENTS // (4 * n * k * (3 * dim + 2 * n)))
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
            jtj[part], jtr[part] = _normal_equations(
                family, x[part], r[part], [h[part] for h in spectra]
            )
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
        floor = (f[ai] < (0.01 * hit) ** 2) & ~good
        why = np.select([floor, mu[ai] > 1e8, f[ai] > 0.5 * earlier], [1, 2, 3], 0)
        frozen[ai] = why
        active[ai[why > 0]] = False
    capped, converged, damped, stalled = np.bincount(frozen, minlength=4).tolist()
    stats = dict(
        converged=converged, damped=damped, stalled=stalled, capped=capped,
        lm_iterations=iterations,
    )
    return x, np.sqrt(f), stats


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
    """Minimizing arrivals at a target: a grid search and refinement, or at k = 1 a branch solve.

    Keeps the arrivals within ``TOL.hit`` of the target whose length is
    within a 1e-6 relative band of the best (1e-12 at k = 1), and counts
    velocity clusters at separation ``TOL.vel``.  Deterministic for a fixed
    grid (seed included); an exhausted search returns an empty-arrival
    report rather than raising.  What searches read of a grid (``_scan_table``)
    depends on neither target nor tolerances, so it is made once per grid per
    process, for one grid at a time.  Stages: scan -> candidates -> refine
    -> select.  At k >= 2 ``_scan_hits`` gives the gated near-arrivals of
    the grid's sample along its scan times and ``_refine`` refines them by
    damped least squares on the velocity at time 1, reported as the
    unit-b velocity and its time; at k = 1 the target's |q1| fixes a closed
    loop in (rate, time) per fold branch, the search brackets the phase of the top
    entry along each and solves every bracket by one Newton pass on one
    residual (``_plane_arrivals``), reading no ``lambda_count`` or
    ``t_count``.
    Each producer gives its own endpoint errors, and one rule accepts for
    both k: t > 10 ``_REFINE_FLOOR`` and error within ``TOL.hit``.  The
    selection puts the minimal-length arrivals in
    report order by time, which at the one speed of a search is length
    order, exact ties keeping the search's own order (grid order at
    k = 1, candidate order at k >= 2); they are then deduplicated and
    clustered from the neighbour pairs along one sorted coordinate
    (``_representatives``).  The kept arrivals' velocities are checked as
    one stack (``homspace._block_velocities``).
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
        a_blk, b_blk, t, err, counts = _plane_arrivals(target, grid, tclass.kind)
    else:
        family = _LinearFamily(grid)
        params, starts, scan_hits = _scan_hits(family, target.cols)
        x, err, stats = _refine(family, params, starts, target.cols, tol.hit)
        counts = dict(scan_hits=scan_hits, candidates=len(starts), **stats)
        # the geodesic of x at time 1 is that of x / |b| at time |b|
        a_blk, b_blk = family.blocks(x)
        norms = _frobenius(b_blk)
        a_blk, b_blk, t = a_blk / norms, b_blk / norms, norms[:, 0, 0]
    # the one acceptance rule of both k
    good = (t > 10 * _REFINE_FLOOR) & (err <= tol.hit)
    a_blk, b_blk, t_good, err_good = a_blk[good], b_blk[good], t[good], err[good]

    lengths = t_good * np.sqrt(_speeds_squared(b_blk, grid.n, grid.mode))
    min_len = lengths.min(initial=np.inf)
    slack = _PLANE_LENGTH_SLACK if grid.k == 1 else _LENGTH_SLACK
    kept = np.nonzero(lengths <= min_len * (1 + slack))[0]
    # every arrival's b block has the one speed of its search, so time order is
    # length order without the per-row speeds' rounding; ties keep search order
    kept = kept[np.argsort(t_good[kept], kind="stable")]
    embeds = _embed_velocities(a_blk[kept], b_blk[kept])

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
    min_len = float(min_len) if len(kept) else None
    return MinimizerReport(tclass, grid, final, clusters, min_len, diagnostics)


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
    ``geodesic._eigenbasis_jacobian``): one eigh, whatever k, and no kernel call.
    Scans |L|^2, the real view's sum of squares, against squared bounds on a
    dense grid (skipping the initial rise out of the identity class, where
    the norm is trivially small), whose phases e^{-i t_j w} are the products
    of ``_phase_blocks``' factors (2 ceil(sqrt(N)) n exponentials for N scan
    times, not N n), and refines the first dip by Gauss-Newton steps on L, with
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
    starts, steps = _phase_blocks(w, t_upper / (_HIT_SCAN_POINTS - 1), _HIT_SCAN_POINTS)
    phases = (starts[:, None] * steps).reshape(-1, n)[:_HIT_SCAN_POINTS]
    lows = (phases @ pairs).view(np.float64)
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
