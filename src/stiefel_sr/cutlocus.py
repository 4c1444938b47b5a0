"""Cut-locus predicates and desk-scale verification experiments.

The operational notion of a cut point is multiplicity: a target reached at
minimal length by more than one distinct velocity.  ``search_minimizers``
makes that testable at desk scale — it scans a velocity grid, locally refines
every near-arrival, keeps the arrivals of (numerically) minimal length and
counts velocity clusters.  The verify_* experiments check the structural
facts directly: mirrored second arrivals at block-diagonal targets, the
unique-arrival picture at antidiagonal targets of V_{2k,k}, and the scalar
analytic facts behind the V_{n,1} uniqueness argument.

All experiments are deterministic given their seed and grid.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import asdict, dataclass

import numpy as np

from . import matcore, tolerances
from .matcore import COMPLEX, REAL, adjoint
from .homspace import BlockVelocity, StiefelPoint, identity_point
from .geodesic import (
    GeodesicSpec,
    _embed_velocities,
    _geodesic_jacobian,
    _speeds_squared,
    batch_geodesic_columns,
    grassmann_geodesic_2kk,
    grid_geodesic_columns,
    length,
    mirror_velocity,
    normal_geodesic,
    sample_curve,
    speed_squared,
)

_LENGTH_SLACK = 1e-6  # arrivals within (1 + slack) of the minimum count as minimal
_REFINE_FLOOR = 1e-10  # resolution of refined times and velocities
# element budget of one batch of scan or Jacobian temporaries; a grid's scan
# table (velocities x times x n x k) is cached only if it fits in one budget
_CHUNK_ELEMENTS = 2**22


# -- target classification ----------------------------------------------------


def in_block_diagonal_set(p: StiefelPoint, tol: float | None = None) -> bool:
    """True iff the lower (n-k) x k block vanishes and p is not the identity class."""
    tol = tolerances.TOL.eq if tol is None else tol
    lower = p.cols[p.k :, :]
    if lower.size and float(np.max(np.abs(lower))) > tol:
        return False
    return not p.is_identity_class(tol)


def is_antidiagonal(p: StiefelPoint, tol: float | None = None) -> bool:
    """True iff n = 2k and the top k x k block vanishes (bottom block is then unitary)."""
    tol = tolerances.TOL.eq if tol is None else tol
    if p.n != 2 * p.k:
        return False
    return float(np.max(np.abs(p.cols[: p.k, :]))) <= tol


BLOCK_DIAGONAL = "block_diagonal"
ANTIDIAGONAL = "antidiagonal"
GENERIC = "generic"


@dataclass(frozen=True)
class TargetClass:
    kind: str
    point: StiefelPoint
    mode: str

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "point": self.point.to_json_dict()}


def classify_target(p: StiefelPoint, tol: float | None = None) -> TargetClass:
    if in_block_diagonal_set(p, tol):
        kind = BLOCK_DIAGONAL
    elif is_antidiagonal(p, tol):
        kind = ANTIDIAGONAL
    else:
        kind = GENERIC
    return TargetClass(kind=kind, point=p, mode=p.mode)


# -- search configuration and report ------------------------------------------


@dataclass(frozen=True)
class VelocityGrid:
    """Finite velocity/time grid driving ``search_minimizers``.

    Transversal blocks are normalized to unit Frobenius norm (any geodesic
    with nonzero transversal block can be reparametrized to that family), so
    arrival length is speed * time with a family-wide constant speed.

    family: "auto" picks a structured grid for V_{2,1} (fibre-rate x phase)
    and for k = 1 (sphere directions, with a fibre-rate axis in complex
    mode); everything else uses low-discrepancy sampling of all blocks.
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
        # a tuple keeps the grid hashable (the scan table is cached per grid)
        object.__setattr__(self, "lambda_range", tuple(self.lambda_range))
        lo, hi = self.lambda_range
        if not lo <= hi:
            raise ValueError(f"lambda_range {self.lambda_range} must have lo <= hi")
        for name in ("lambda_count", "phase_count", "direction_count", "sample_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 1")
        if self.t_count < 3:
            raise ValueError(f"t_count={self.t_count} must be >= 3")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError(f"t_max={self.t_max} must be > 0")

    def resolved_family(self) -> str:
        if self.family != "auto":
            return self.family
        if self.k == 1:
            if self.mode == COMPLEX and self.n == 2:
                return "v21"
            return "sphere"
        return "general"

    def resolved_t_max(self) -> float:
        if self.t_max is not None:
            return float(self.t_max)
        return 1.1 * np.pi * np.sqrt(self.k)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["lambda_range"] = list(self.lambda_range)
        d["family"] = self.resolved_family()
        d["t_max"] = self.resolved_t_max()
        return d


@dataclass(frozen=True)
class Arrival:
    velocity: BlockVelocity
    t: float
    length: float
    endpoint_error: float

    def to_json_dict(self) -> dict:
        return {
            "velocity": self.velocity.to_json_dict(),
            "t": self.t,
            "length": self.length,
            "endpoint_error": self.endpoint_error,
        }


@dataclass(frozen=True)
class MinimizerReport:
    target: TargetClass
    grid: VelocityGrid
    arrivals: tuple[Arrival, ...]
    clusters: int
    min_length: float | None

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.to_json_dict(),
            "grid": self.grid.to_json_dict(),
            "arrivals": [a.to_json_dict() for a in self.arrivals],
            "clusters": self.clusters,
            "min_length": self.min_length,
        }


# -- velocity families ---------------------------------------------------------


class _V21Family:
    """Unit transversal block on V_{2,1}: params (fibre rate, phase)."""

    def __init__(self, grid: VelocityGrid):
        self.grid = grid
        lo, hi = grid.lambda_range
        self._lams = np.linspace(lo, hi, grid.lambda_count)
        self._phases = np.linspace(0.0, 2 * np.pi, grid.phase_count, endpoint=False)

    def initial_params(self) -> np.ndarray:
        lam, ph = np.meshgrid(self._lams, self._phases, indexing="ij")
        return np.column_stack([lam.ravel(), ph.ravel()])

    def blocks(self, params: np.ndarray):
        lam = params[:, 0]
        ph = params[:, 1]
        a = (1j * lam).reshape(-1, 1, 1)
        b = np.exp(1j * ph).reshape(-1, 1, 1)
        return a, b

    def tangents(self, params: np.ndarray):
        """Derivatives of ``blocks`` along (fibre rate, phase): (c, 2, 1, 1) each."""
        da = np.zeros((len(params), 2, 1, 1), dtype=np.complex128)
        db = np.zeros_like(da)
        da[:, 0] = 1j
        db[:, 1, 0, 0] = 1j * np.exp(1j * params[:, 1])
        return da, db


class _SphereFamily:
    """k = 1 with a unit-norm transversal row; optional fibre-rate axis (complex)."""

    def __init__(self, grid: VelocityGrid):
        self.grid = grid
        self.m = grid.n - 1
        self.complex_mode = grid.mode == COMPLEX
        self.dir_dim = (2 if self.complex_mode else 1) * self.m

    def _directions(self) -> np.ndarray:
        g = self.grid
        if not self.complex_mode and self.m == 1:
            return np.array([[1.0], [-1.0]])
        if not self.complex_mode and self.m == 2:
            ang = np.linspace(0.0, 2 * np.pi, g.direction_count, endpoint=False)
            return np.column_stack([np.cos(ang), np.sin(ang)])
        from scipy.stats import qmc  # scipy.stats dominates import time otherwise

        sob = qmc.Sobol(self.dir_dim, scramble=True, seed=g.seed)
        u = sob.random(g.direction_count)
        raw = _inverse_gauss(u)
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    def initial_params(self) -> np.ndarray:
        dirs = self._directions()
        if not self.complex_mode:
            return dirs
        lo, hi = self.grid.lambda_range
        lams = np.linspace(lo, hi, self.grid.lambda_count)
        lam = np.repeat(lams, len(dirs))
        d = np.tile(dirs, (len(lams), 1))
        return np.column_stack([lam, d])

    def _raw_blocks(self, params: np.ndarray):
        """Fibre block and unnormalized transversal row; linear in the params."""
        if self.complex_mode:
            lam = params[:, 0]
            raw = params[:, 1:]
            b = raw[:, : self.m] + 1j * raw[:, self.m :]
            a = (1j * lam).reshape(-1, 1, 1)
        else:
            b = params.astype(np.complex128)
            a = np.zeros((len(params), 1, 1), dtype=np.complex128)
        return a, b.reshape(-1, 1, self.m)

    def blocks(self, params: np.ndarray):
        a, b = self._raw_blocks(params)
        norms = np.maximum(np.linalg.norm(b, axis=2, keepdims=True), 1e-30)
        return a, b / norms

    def tangents(self, params: np.ndarray):
        """Derivatives of ``blocks`` along each parameter: (c, d, 1, 1), (c, d, 1, m)."""
        _, b = self._raw_blocks(params)
        return _unit_tangents(b, *self._raw_blocks(np.eye(params.shape[1])))


class _GeneralFamily:
    """Low-discrepancy sampling of both blocks; transversal block normalized."""

    def __init__(self, grid: VelocityGrid):
        self.grid = grid
        self.k = grid.k
        self.m = grid.n - grid.k
        self.complex_mode = grid.mode == COMPLEX
        k = self.k
        self.a_dim = k * k if self.complex_mode else k * (k - 1) // 2
        self.b_dim = (2 if self.complex_mode else 1) * k * self.m

    def initial_params(self) -> np.ndarray:
        from scipy.stats import qmc

        g = self.grid
        sob = qmc.Sobol(self.a_dim + self.b_dim, scramble=True, seed=g.seed)
        u = sob.random(g.sample_count)
        lo, hi = g.lambda_range
        out = np.empty_like(u)
        out[:, : self.a_dim] = lo + (hi - lo) * u[:, : self.a_dim]
        out[:, self.a_dim :] = _inverse_gauss(u[:, self.a_dim :])
        return out

    def _raw_blocks(self, params: np.ndarray):
        """Fibre block and unnormalized transversal block; linear in the params."""
        c = len(params)
        k, m = self.k, self.m
        a = np.zeros((c, k, k), dtype=np.complex128)
        pa = params[:, : self.a_dim]
        if self.complex_mode:
            for j in range(k):
                a[:, j, j] = 1j * pa[:, j]
            idx = k
        else:
            idx = 0
        for p in range(k):
            for q in range(p + 1, k):
                if self.complex_mode:
                    val = pa[:, idx] + 1j * pa[:, idx + 1]
                    idx += 2
                else:
                    val = pa[:, idx].astype(np.complex128)
                    idx += 1
                a[:, p, q] = val
                a[:, q, p] = -np.conj(val)
        pb = params[:, self.a_dim :]
        if self.complex_mode:
            b = pb[:, : k * m] + 1j * pb[:, k * m :]
        else:
            b = pb.astype(np.complex128)
        return a, b.reshape(c, k, m)

    def blocks(self, params: np.ndarray):
        a, b = self._raw_blocks(params)
        norms = np.maximum(
            np.sqrt(np.sum(np.abs(b) ** 2, axis=(1, 2), keepdims=True)), 1e-30
        )
        return a, b / norms

    def tangents(self, params: np.ndarray):
        """Derivatives of ``blocks`` along each parameter: (c, d, k, k), (c, d, k, m)."""
        _, b = self._raw_blocks(params)
        return _unit_tangents(b, *self._raw_blocks(np.eye(params.shape[1])))


def _unit_tangents(b, da, db):
    """Tangents of (a, b / |b|) for a linear parameter map.

    ``b`` (c, k, m) is the unnormalized transversal block at each row; da
    (d, k, k) and db (d, k, m) are the images of the d unit parameter vectors
    (constant, since the map is linear).  The normalization contributes its
    projection d(b/|b|) = (db - u Re<u, db>) / |b| with u = b / |b|.
    """
    norms = np.maximum(np.sqrt(np.sum(np.abs(b) ** 2, axis=(1, 2))), 1e-30)
    unit = (b / norms[:, None, None])[:, None]
    radial = np.sum((np.conj(unit) * db).real, axis=(2, 3), keepdims=True)
    dunit = (db - radial * unit) / norms[:, None, None, None]
    return np.broadcast_to(da, (len(b),) + da.shape), dunit


def _inverse_gauss(u: np.ndarray) -> np.ndarray:
    from scipy.special import ndtri

    return ndtri(np.clip(u, 1e-12, 1 - 1e-12))


def _make_family(grid: VelocityGrid):
    name = grid.resolved_family()
    if name == "v21":
        if (grid.n, grid.k, grid.mode) != (2, 1, COMPLEX):
            raise ValueError("v21 family requires n=2, k=1, complex mode")
        return _V21Family(grid)
    if name == "sphere":
        if grid.k != 1:
            raise ValueError("sphere family requires k=1")
        return _SphereFamily(grid)
    if name == "general":
        return _GeneralFamily(grid)
    raise ValueError(f"unknown velocity family {name!r}")


# -- search engine --------------------------------------------------------------


def _endpoint_residuals(family, x: np.ndarray, target_cols) -> np.ndarray:
    """Batched endpoint residual vectors for stacked (params, t) rows.

    Row i is the real/imaginary parts of (endpoint_i - target) flattened;
    rows with non-finite entries or negative time get a large constant
    residual so steps into them are always rejected.
    """
    params, ts = x[:, :-1], x[:, -1]
    bad = ~np.isfinite(x).all(axis=1) | (ts < 0)
    a, b = family.blocks(np.where(bad[:, None], 0.0, params))
    cols = batch_geodesic_columns(a, b, np.where(bad, 0.0, ts), family.grid.mode)
    diff = (cols - target_cols[None]).reshape(len(x), -1)
    out = np.concatenate([diff.real, diff.imag], axis=1)
    out[bad] = 1e6
    return out


def _endpoint_errors(family, params: np.ndarray, ts: np.ndarray, target_cols) -> np.ndarray:
    """Batched endpoint error (Frobenius norm) for candidate i at time ts[i]."""
    r = _endpoint_residuals(family, np.column_stack([params, ts]), target_cols)
    return np.sqrt(np.sum(r * r, axis=1))


def _scan_times(grid: VelocityGrid) -> np.ndarray:
    return np.linspace(0.0, grid.resolved_t_max(), grid.t_count)


@functools.lru_cache(maxsize=1)
def _scan_table(grid: VelocityGrid) -> np.ndarray:
    """Read-only endpoint columns (c, T, n, k) of every grid velocity at every scan time.

    Target- and tolerance-independent, so every search on one grid shares
    it; callers only pass grids whose table fits ``_CHUNK_ELEMENTS``.
    """
    family = _make_family(grid)
    p0 = family.initial_params()
    ts = _scan_times(grid)
    shape = (len(p0), grid.t_count, grid.n, grid.k)
    # the table lives in an anonymous mapping of its own and is filled a few
    # velocities per kernel call: a long-lived table on the malloc heap, or
    # kernel temporaries as large as the table, leave the heap fragmented so
    # that later large allocations grow the process's peak resident set
    buf = mmap.mmap(-1, int(np.prod(shape)) * np.dtype(np.complex128).itemsize)
    table = np.frombuffer(buf, dtype=np.complex128).reshape(shape)
    for lo in range(0, len(p0), 16):
        a, b = family.blocks(p0[lo : lo + 16])
        table[lo : lo + 16] = grid_geodesic_columns(a, b, ts, grid.mode)
    table.flags.writeable = False
    return table


def _scan_cols(cols, target_cols, gate):
    """Gated interior local minima of the endpoint error along each row's time grid.

    ``cols`` (c, T, n, k); returns the row indices, time indices and errors
    of the hits, in row-major order.
    """
    err = np.sqrt(np.sum(np.abs(cols - target_cols[None, None]) ** 2, axis=(2, 3)))
    interior = (
        (err[:, 1:-1] <= err[:, :-2])
        & (err[:, 1:-1] <= err[:, 2:])
        & (err[:, 1:-1] < gate)
    )
    vix, tix = np.nonzero(interior)
    tix += 1
    return vix, tix, err[vix, tix]


def _best_hits(vix, tix, err) -> np.ndarray:
    """Indices of the scan hits that become candidates, in candidate order.

    Up to 3 hits per velocity, the lowest errors first (ties by time index),
    velocities in grid order.
    """
    order = np.lexsort((tix, err, vix))
    grouped = vix[order]
    return order[np.arange(len(order)) - np.searchsorted(grouped, grouped) < 3]


def _residual_jacobian(family, x: np.ndarray, target_cols) -> np.ndarray:
    """Jacobian (c, rows, dim) of ``_endpoint_residuals`` at finite rows with t >= 0.

    Analytic: the family's block tangents pushed through the geodesic's
    endpoint derivatives, the time derivative as the last column.
    """
    params, ts = x[:, :-1], x[:, -1]
    a, b = family.blocks(params)
    da, db = family.tangents(params)
    _, dcols, dcols_dt = _geodesic_jacobian(a, b, ts, da, db, family.grid.mode)
    d = np.concatenate([dcols, dcols_dt[:, None]], axis=1).reshape(len(x), x.shape[1], -1)
    return np.concatenate([d.real, d.imag], axis=2).swapaxes(1, 2)


def _refine(
    family,
    params: np.ndarray,
    ts: np.ndarray,
    target_cols,
    eps_hit: float,
    *,
    iters: int = 60,
):
    """Batched Levenberg-Marquardt on the endpoint residuals over (params, t).

    Candidates march in lockstep: each iteration forms the normal equations
    from the analytic Jacobian and tries one step, a single batched geodesic
    evaluation.  Per-candidate damping adapts in the usual way; candidates
    are frozen once their residual is far below the hit radius or their
    damping has blown up (a genuine local minimum away from the target).
    """
    x = np.column_stack([params, ts]).astype(np.float64)
    n_cand, dim = x.shape
    n = target_cols.shape[0]
    # a Jacobian chunk holds up to about four (chunk, dim, n, n) complex
    # temporaries at once, so it takes a quarter of the scan's element budget
    chunk = max(1, _CHUNK_ELEMENTS // (4 * dim * n * n))
    r = _endpoint_residuals(family, x, target_cols)
    f = np.sum(r * r, axis=1)
    mu = np.full(n_cand, 1e-3)
    active = np.ones(n_cand, dtype=bool)
    eye = np.eye(dim)
    for _ in range(iters):
        ai = np.nonzero(active)[0]
        if len(ai) == 0:
            break
        xa, ra = x[ai], r[ai]
        jtj = np.empty((len(ai), dim, dim))
        jtr = np.empty((len(ai), dim, 1))
        for lo in range(0, len(ai), chunk):
            part = slice(lo, lo + chunk)
            jac = _residual_jacobian(family, xa[part], target_cols)
            jt = jac.swapaxes(1, 2)
            jtj[part] = jt @ jac
            jtr[part] = jt @ ra[part, :, None]
        lhs = jtj + mu[ai, None, None] * eye[None]
        try:
            step = np.linalg.solve(lhs, -jtr)[..., 0]
        except np.linalg.LinAlgError:
            lhs = lhs + 1e-8 * eye[None]
            step = np.linalg.solve(lhs, -jtr)[..., 0]
        xt = xa + step
        rt = _endpoint_residuals(family, xt, target_cols)
        ft = np.sum(rt * rt, axis=1)
        good = ft < f[ai]
        rows = ai[good]
        x[rows] = xt[good]
        r[rows] = rt[good]
        f[rows] = ft[good]
        mu[ai[good]] = np.maximum(mu[ai[good]] * 0.3, 1e-12)
        mu[ai[~good]] = mu[ai[~good]] * 10.0
        converged = f[ai] < (0.01 * eps_hit) ** 2
        stuck = mu[ai] > 1e8
        active[ai[converged | stuck]] = False
    return x[:, :-1], x[:, -1], np.sqrt(f)


def _greedy_representatives(embeds: np.ndarray, radius: float, ts=None) -> np.ndarray:
    """Indices of the stacked (N, n, n) embeds kept by one greedy pass in row order.

    A row is dropped iff it lies within ``radius`` (Frobenius) of an earlier
    kept row and, when ``ts`` is given, also within ``radius`` of it in time.
    Each kept row marks the later rows near it with one vectorized norm, so
    memory stays linear in the row count.
    """
    covered = np.zeros(len(embeds), dtype=bool)
    reps = []
    for i in range(len(embeds)):
        if covered[i]:
            continue
        reps.append(i)
        near = np.linalg.norm(embeds[i + 1 :] - embeds[i], axis=(1, 2)) <= radius
        if ts is not None:
            near &= np.abs(ts[i + 1 :] - ts[i]) <= radius
        covered[i + 1 :] |= near
    return np.array(reps, dtype=np.intp)


def search_minimizers(
    target: StiefelPoint,
    grid: VelocityGrid,
    eps_hit: float | None = None,
    eps_v: float | None = None,
) -> MinimizerReport:
    """Grid search + local refinement for minimizing arrivals at a target.

    Evaluates the geodesic flow over the velocity grid, refines every
    near-arrival by damped least squares on the endpoint residual, keeps
    arrivals whose length is within a 1e-6 relative band of the best, and
    counts velocity clusters at separation ``eps_v``.  Deterministic for a
    fixed grid (seed included); an exhausted search returns an empty-arrival
    report rather than raising.

    The grid's endpoint columns do not depend on the target or tolerances,
    so they are computed once per grid per process and reused; at most one
    such table is resident, and only a grid whose table fits the chunk
    budget is cached (a larger grid is streamed in chunks on every call).
    """
    tol = tolerances.TOL
    eps_hit = tol.hit if eps_hit is None else float(eps_hit)
    eps_v = tol.vel if eps_v is None else float(eps_v)
    if eps_hit < 10 * tol.eq:
        raise ValueError(f"eps_hit={eps_hit} must be >= 10 * {tol.eq}")
    if eps_v <= 10 * _REFINE_FLOOR:
        raise ValueError(f"eps_v={eps_v} must exceed the refinement resolution")
    if (target.n, target.k) != (grid.n, grid.k) or target.mode != grid.mode:
        raise ValueError("target and grid disagree on (n, k, mode)")

    family = _make_family(grid)
    tclass = classify_target(target)
    if target.is_identity_class():
        zero = BlockVelocity(
            np.zeros((grid.k, grid.k)), np.zeros((grid.k, grid.n - grid.k)), grid.mode
        )
        err = float(np.linalg.norm(target.cols - identity_point(grid.n, grid.k, grid.mode).cols))
        arr = Arrival(velocity=zero, t=0.0, length=0.0, endpoint_error=err)
        return MinimizerReport(tclass, grid, (arr,), 1, 0.0)

    p0 = family.initial_params()
    ts = _scan_times(grid)
    dt = ts[1] - ts[0]
    speed = float(
        np.sqrt(speed_squared(BlockVelocity(*(blk[0] for blk in family.blocks(p0[:1])), grid.mode)))
    )
    gate = max(8 * speed * dt, 0.25) + eps_hit

    # every gated local minimum of the endpoint error along each velocity's
    # time grid; a table that fits the chunk budget is evaluated once per
    # grid, a larger grid streams through memory-bounded chunks
    row_elements = grid.t_count * grid.n * grid.k
    if len(p0) * row_elements <= _CHUNK_ELEMENTS:
        vix, tix, err = _scan_cols(_scan_table(grid), target.cols, gate)
    else:
        chunk_size = max(1, int(_CHUNK_ELEMENTS / row_elements))
        hits = []
        for start in range(0, len(p0), chunk_size):
            a, b = family.blocks(p0[start : start + chunk_size])
            cols = grid_geodesic_columns(a, b, ts, grid.mode)
            v, t, e = _scan_cols(cols, target.cols, gate)
            hits.append((v + start, t, e))
        vix, tix, err = (np.concatenate(x) for x in zip(*hits))

    pick = _best_hits(vix, tix, err)
    if len(pick) == 0:
        return MinimizerReport(tclass, grid, (), 0, None)

    params, t_ref, errs = _refine(family, p0[vix[pick]], ts[tix[pick]], target.cols, eps_hit)
    good = (errs <= eps_hit) & (t_ref > 10 * _REFINE_FLOOR)
    if not good.any():
        return MinimizerReport(tclass, grid, (), 0, None)

    a_blk, b_blk = family.blocks(params[good])
    t_good = t_ref[good]
    lengths = t_good * np.sqrt(_speeds_squared(b_blk, grid.n, grid.mode))
    min_len = float(lengths.min())
    kept = np.nonzero(lengths <= min_len * (1 + _LENGTH_SLACK))[0]
    embeds = _embed_velocities(a_blk[kept], b_blk[kept])
    order = sorted(
        range(len(kept)),
        key=lambda i: (lengths[kept[i]], t_good[kept[i]], embeds[i].tobytes()),
    )
    kept, embeds = kept[order], embeds[order]

    unique = _greedy_representatives(embeds, 1e-6, t_good[kept])
    rows, embeds = kept[unique], embeds[unique]
    ends = batch_geodesic_columns(a_blk[rows], b_blk[rows], t_good[rows], grid.mode)
    errs = np.sqrt(np.sum(np.abs(ends - target.cols) ** 2, axis=(1, 2)))
    final = tuple(
        Arrival(
            velocity=BlockVelocity(a_blk[i], b_blk[i], grid.mode),
            t=float(t_good[i]),
            length=float(lengths[i]),
            endpoint_error=float(err),
        )
        for i, err in zip(rows, errs)
    )
    clusters = len(_greedy_representatives(embeds, eps_v))
    return MinimizerReport(tclass, grid, final, clusters, min_len)


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


def first_block_diagonal_hit(
    spec: GeodesicSpec, t_upper: float, scan_points: int = 1200, refine_iters: int = 60
) -> float | None:
    """First strictly positive time the lower block vanishes, or None.

    Scans the lower-block norm on a dense grid (skipping the initial rise out
    of the identity class, where the norm is trivially small) and refines the
    first dip by golden-section minimization.
    """
    k = spec.k
    ts = np.linspace(0.0, t_upper, scan_points)
    cols = sample_curve(spec, ts)
    g = np.sqrt(np.sum(np.abs(cols[:, k:, :]) ** 2, axis=(1, 2)))
    peak = float(g.max())
    if peak <= tolerances.TOL.eq:
        return None  # curve never leaves the block-diagonal set
    risen = np.nonzero(g > 0.5 * peak)[0]
    if len(risen) == 0:
        return None
    start = risen[0]
    idx = None
    for i in range(start + 1, scan_points - 1):
        if g[i] <= g[i - 1] and g[i] <= g[i + 1] and g[i] < 0.2 * peak:
            idx = i
            break
    if idx is None:
        return None

    def gval(t):
        c = sample_curve(spec, [t])[0]
        return float(np.sqrt(np.sum(np.abs(c[k:, :]) ** 2)))

    lo, hi = ts[idx - 1], ts[idx + 1]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - invphi * (hi - lo)
    c2 = lo + invphi * (hi - lo)
    f1, f2 = gval(c1), gval(c2)
    for _ in range(refine_iters):
        if f1 <= f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - invphi * (hi - lo)
            f1 = gval(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + invphi * (hi - lo)
            f2 = gval(c2)
    t_hit = float((lo + hi) / 2.0)
    return t_hit if gval(t_hit) <= tolerances.TOL.eq else None


@dataclass(frozen=True)
class MirrorCheckSummary:
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

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_mirror_arrivals(
    n: int,
    k: int,
    samples: int = 50,
    seed: int = 0,
    mode: str = COMPLEX,
    eps_hit: float | None = None,
    _velocities=None,
) -> MirrorCheckSummary:
    """Check that block-diagonal arrivals admit a distinct equal-length twin.

    For each sampled velocity, locate the first block-diagonal hit of its
    geodesic, mirror the transversal block (also through a random unitary
    factor) and verify for both twins: same endpoint within eps_hit and same
    length to 1e-10.  The plain mirror (a, -b) must also be a distinct
    velocity; its separation is ``min_velocity_separation``.
    Velocities with a vanishing transversal block never leave the identity
    class and are skipped, not counted.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    eps_hit = tolerances.TOL.hit if eps_hit is None else float(eps_hit)
    rng = np.random.default_rng(seed)
    pending = list(_velocities) if _velocities is not None else None
    checked = skipped = failures = 0
    max_end = 0.0
    max_len = 0.0
    min_sep = np.inf
    while checked < samples:
        if pending is not None:
            if not pending:
                break
            vel, t_exp = pending.pop(0)
        else:
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
        p = normal_geodesic(spec, t_hit)
        if not in_block_diagonal_set(p):
            failures += 1
            continue
        mirrored = mirror_velocity(vel)
        sep = float(np.linalg.norm(vel.embed() - mirrored.embed()))
        min_sep = min(min_sep, sep)
        if sep <= tolerances.TOL.vel:
            failures += 1
        # the twin through a random factor u may coincide with vel (u near -I),
        # so only its endpoint and length are checked
        twins = (mirrored, mirror_velocity(vel, matcore.random_unitary(rng, n - k, mode)))
        for twin in twins:
            q = normal_geodesic(GeodesicSpec(twin), t_hit)
            gap = float(np.max(np.abs(q.cols - p.cols)))
            max_end = max(max_end, gap)
            len_gap = abs(length(vel, t_hit) - length(twin, t_hit))
            max_len = max(max_len, len_gap)
            if gap > eps_hit or len_gap > 1e-10:
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
        passed=failures == 0 and checked > 0,
    )


# -- antidiagonal targets of V_{2k,k} -------------------------------------------


@dataclass(frozen=True)
class AntidiagonalCheckSummary:
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

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    matcore.check_mode(mode)
    rng = np.random.default_rng(seed)
    t0 = np.pi * np.sqrt(k) / 2.0
    sqrt_k = np.sqrt(k)

    max_dir_err = 0.0
    directions = []
    endpoints = []
    max_roundtrip = 0.0
    for _ in range(samples):
        q = matcore.random_unitary(rng, k, mode)
        if mode == REAL and rng.uniform() < 0.5:
            q = np.array(q)
            q[:, 0] = -q[:, 0]  # reach both components of O(k)
        b = q / sqrt_k  # trace-normalized: tr(bb*) = 1
        g1, g3 = grassmann_geodesic_2kk(b, t0)
        err = max(
            float(np.max(np.abs(g1))),
            float(np.max(np.abs(g3 - (-sqrt_k * adjoint(b))))),
        )
        max_dir_err = max(max_dir_err, err)
        b_rec = -adjoint(g3) / sqrt_k
        max_roundtrip = max(max_roundtrip, float(np.max(np.abs(b_rec - b))))
        directions.append(b)
        endpoints.append(g3)

    # injectivity across distinct directions only (small direction sets repeat)
    min_gap = np.inf
    for i in range(len(endpoints)):
        for j in range(i + 1, len(endpoints)):
            if float(np.linalg.norm(directions[i] - directions[j])) <= 1e-6:
                continue
            min_gap = min(min_gap, float(np.linalg.norm(endpoints[i] - endpoints[j])))

    min_margin = np.inf
    min_floor = np.inf
    if k >= 2:
        done = 0
        while done < samples:
            g = matcore.random_matrix(rng, k, k, mode)
            b = g / np.linalg.norm(g)
            sig = np.linalg.svd(b, compute_uv=False)
            if sig[-1] < 0.05 or sig[0] / sig[-1] < 1.05:
                continue  # want invertible and genuinely non-unitary
            done += 1
            first_zero_bound = np.pi / (2.0 * sig[-1])
            min_margin = min(min_margin, float(first_zero_bound - t0))
            g1, _ = grassmann_geodesic_2kk(b, np.linspace(0.0, t0, 400))
            min_floor = min(min_floor, float(np.linalg.norm(g1, axis=(1, 2)).min()))
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
class UniquenessCheckSummary:
    n: int
    trials: int
    sin_ratio_strictly_decreasing: bool
    min_tan_ratio_gap: float
    max_reconstruction_err: float
    passed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    rng = np.random.default_rng(seed)

    xs = np.arange(0.01, 3.13 + 1e-12, 1e-4)
    ratios = np.sin(xs) / xs
    sin_monotone = bool(np.all(np.diff(ratios) < 0))

    min_gap = np.inf
    done = 0
    while done < trials:
        lam = rng.uniform(0.05, 2.0)
        y_mag = rng.uniform(0.05, 2.0)
        s = np.sqrt(lam * lam + 4.0 * y_mag * y_mag)
        t = rng.uniform(0.05, 0.95) * 2.0 * np.pi / s
        a = t * lam / 2.0
        b = t * s / 2.0
        if min(abs(a - np.pi / 2), abs(b - np.pi / 2)) < 1e-3 or b - a < 1e-6:
            continue
        done += 1
        gap = abs(np.tan(a) / a - np.tan(b) / b)
        min_gap = min(min_gap, float(gap))

    from .geodesic import geodesic_vn1_closed

    max_rec = 0.0
    for _ in range(trials):
        lam = rng.uniform(-2.0, 2.0)
        row = matcore.random_matrix(rng, 1, n - 1, COMPLEX).reshape(-1)
        row = row / np.linalg.norm(row) * rng.uniform(0.3, 1.5)
        s = np.sqrt(lam * lam + 4.0 * float(np.sum(np.abs(row) ** 2)))
        t = rng.uniform(0.1, 0.9) * 2.0 * np.pi / s
        _, g3 = geodesic_vn1_closed(lam, row, t)
        factor = (
            np.exp(-0.5j * t * (s + lam)) * (np.exp(1j * t * s) - 1.0) / (1j * s)
        )
        rec = np.conj(-g3 / factor)
        max_rec = max(max_rec, float(np.max(np.abs(rec - row))))

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
