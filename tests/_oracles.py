"""Independent oracles for the test suite.

These deliberately avoid the library's computational paths: the exponential
oracle is a truncated power series, the trace oracle a double loop, the
length oracle composite-Simpson quadrature of a finite-difference speed, and
the dedup and cluster oracles the minimizer search's original pairwise
loops, the report-order oracle its original Python key sort, the candidate
oracle its original per-hit loop, the scan oracles the k >= 2 scan's
original table of kernel fills, scanned by the inner product it used
(``scan_hits_table``) and by its earlier subtraction pass, the hit oracles
the original golden-section refinement of the first block-diagonal dip and
the Gauss-Newton hit search's
original scans (one exponential per time and eigenvalue; the norm of the lower
block rather than its square), the bracket-span oracles the rank tests'
original one-bracket-at-a-time loops and the span rank's original rows of all
entries outside the lower-right block, the draw
oracles the V_{2,1} suite's and the uniqueness check's original per-trial
scalar draws, the V_{2,1} column oracle
the evaluator's original (2, 1)-only closed form, the tangent oracle the
search families' original block tangents (the projection of a linear
family's unit params through the normalization of b), the plane-root
oracle a Lipschitz-pruned fine grid in the (rate, time) plane refined by
scipy's ``least_squares``,
the directional-Jacobian oracle the refinement's
original contraction of the endpoint's sensitivities with each direction's
generator, the refinement oracle the arrival refinement's original loop,
which forms every active candidate's Jacobian on every iteration, the
high-precision column oracle a 40-digit mpmath matrix exponential, and the
high-precision Jacobian oracle its central differences at 40 digits.  The
report JSON oracles (``target_class_json``, ``velocity_grid_json``,
``arrival_json`` and ``minimizer_report_json``) are the search report's
original hand-written serializers, one per record type.
"""

import dataclasses

import mpmath
import numpy as np

from stiefel_sr import cutlocus, distribution, matcore, tolerances, verify
from stiefel_sr.distribution import horizontal_basis, stiefel_tangent_dim
from stiefel_sr.geodesic import (
    GeodesicSpec,
    _decompose,
    _field,
    _geodesic_columns,
    _sensitivity,
    geodesic_v21_closed,
    geodesic_vn1_closed,
    sample_curve,
)
from stiefel_sr.homspace import BlockVelocity, _embed_velocities
from stiefel_sr.matcore import COMPLEX


def expm_series(x: np.ndarray, t: float, terms: int = 40) -> np.ndarray:
    """Truncated power series for exp(tX)."""
    n = x.shape[0]
    acc = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for j in range(1, terms + 1):
        term = term @ (t * x) / j
        acc = acc + term
    return acc


def trace_product_double_loop(x: np.ndarray, y: np.ndarray) -> complex:
    """tr(XY) summed entry by entry."""
    n = x.shape[0]
    total = 0.0 + 0.0j
    for i in range(n):
        for j in range(n):
            total += x[i, j] * y[j, i]
    return total


def fd_velocity(spec: GeodesicSpec, t: float, h: float | None = None) -> np.ndarray:
    """Central finite-difference velocity of the canonical columns."""
    if h is None:
        h = 1e-6 * max(1.0, abs(t))
    cm, cp = sample_curve(spec, [t - h, t + h])
    return (cp - cm) / (2.0 * h)


def fd_speed_squared(spec: GeodesicSpec, t: float, h: float | None = None) -> float:
    """Metric of the finite-difference velocity at gamma(t).

    For a column velocity c' tangent at cols, the tangent block has fibre
    component cols* c' and transversal norm ||c'||^2 - ||cols* c'||^2, so the
    metric is scale * (2 ||c'||^2 - ||cols* c'||^2).
    """
    dc = fd_velocity(spec, t, h)
    c0 = sample_curve(spec, [t])[0]
    a_eff = np.conj(c0).T @ dc
    scale = 2 * spec.n if spec.mode == COMPLEX else 1
    return scale * (
        2.0 * float(np.sum(np.abs(dc) ** 2)) - float(np.sum(np.abs(a_eff) ** 2))
    )


def simpson_curve_length(spec: GeodesicSpec, t_final: float, panels: int = 2048) -> float:
    """Composite-Simpson quadrature of the finite-difference curve speed."""
    if panels % 2:
        raise ValueError("Simpson needs an even panel count")
    ts = np.linspace(0.0, t_final, panels + 1)
    hs = 1e-6 * np.maximum(1.0, np.abs(ts))
    # one batched evaluation for all of (t - h, t, t + h)
    stacked = np.concatenate([ts - hs, ts, ts + hs])
    cols = sample_curve(spec, stacked)
    npts = len(ts)
    cm, c0, cp = cols[:npts], cols[npts : 2 * npts], cols[2 * npts :]
    dc = (cp - cm) / (2.0 * hs[:, None, None])
    a_eff = np.einsum("tji,tjk->tik", np.conj(c0), dc)
    scale = 2 * spec.n if spec.mode == COMPLEX else 1
    g = scale * (
        2.0 * np.sum(np.abs(dc) ** 2, axis=(1, 2)) - np.sum(np.abs(a_eff) ** 2, axis=(1, 2))
    )
    f = np.sqrt(np.maximum(g, 0.0))
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((ts[1] - ts[0]) / 3.0 * np.sum(w * f))


def greedy_dedup_loop(embeds, ts, radius: float) -> list[int]:
    """Indices kept by pairwise greedy dedup: a row is dropped iff an earlier
    kept row lies within ``radius`` of it both in embed (Frobenius) and in t."""
    kept: list[int] = []
    for i, (emb, t) in enumerate(zip(embeds, ts)):
        dup = any(
            np.linalg.norm(emb - embeds[j]) <= radius and abs(t - ts[j]) <= radius
            for j in kept
        )
        if not dup:
            kept.append(i)
    return kept


def greedy_cluster_count_loop(embeds, radius: float) -> int:
    """Number of greedy representatives at Frobenius separation ``radius``."""
    reps: list[np.ndarray] = []
    for emb in embeds:
        if all(np.linalg.norm(emb - r) > radius for r in reps):
            reps.append(emb)
    return len(reps)


def best_hits_loop(vix, tix, err) -> list[tuple[int, int]]:
    """(velocity, time index) of the candidates: per velocity in ascending
    order, its hits sorted by (error, time index), the first three."""
    per_velocity: dict[int, list] = {}
    for v, t, e in zip(vix, tix, err):
        per_velocity.setdefault(int(v), []).append((float(e), int(t)))
    return [
        (v, t) for v in sorted(per_velocity) for _, t in sorted(per_velocity[v])[:3]
    ]


def golden_section_hit(
    spec: GeodesicSpec, t_upper: float, scan_points: int = 1200, refine_iters: int = 60
) -> float | None:
    """First block-diagonal hit by a per-index dip search and golden-section
    minimization of the lower-block norm, one point per evaluation."""
    k = spec.k
    ts = np.linspace(0.0, t_upper, scan_points)
    cols = sample_curve(spec, ts)
    g = np.sqrt(np.sum(np.abs(cols[:, k:, :]) ** 2, axis=(1, 2)))
    peak = float(g.max())
    if peak <= tolerances.TOL.eq:
        return None
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


def first_block_diagonal_hit_direct(spec: GeodesicSpec, t_upper: float) -> float | None:
    """``cutlocus.first_block_diagonal_hit`` with one complex exponential per
    scan time and eigenvalue, and ``np.clip`` on the Gauss-Newton step."""
    k, n = spec.k, spec.n
    w, q = np.linalg.eigh(1j * spec.v.embed())
    pairs = (q[k:, None, :] * np.conj(q[:k, :])).reshape(-1, n).T
    ts = np.linspace(0.0, t_upper, cutlocus._HIT_SCAN_POINTS)
    g = np.linalg.norm(np.exp(-1j * ts[:, None] * w) @ pairs, axis=1)
    peak = float(g.max())
    if peak <= tolerances.TOL.eq:
        return None
    risen = np.nonzero(g > 0.5 * peak)[0]
    mid = g[1:-1]
    dips = (mid <= g[:-2]) & (mid <= g[2:]) & (mid < 0.2 * peak)
    dips[: risen[0]] = False
    found = np.flatnonzero(dips)
    if len(found) == 0:
        return None
    idx = int(found[0]) + 1
    lo, hi = ts[idx - 1], ts[idx + 1]
    t = float(ts[idx])
    for _ in range(cutlocus._HIT_GN_ITERS):
        e = np.exp(-1j * t * w)
        r, d = np.stack([e, -1j * w * e]) @ pairs
        dd = float(np.sum(np.abs(d) ** 2))
        if dd == 0.0:
            break
        t_next = float(np.clip(t - np.sum(d.conj() * r).real / dd, lo, hi))
        if abs(t_next - t) <= cutlocus._HIT_STEP_FLOOR * t_upper:
            break
        t = t_next
    else:
        r = np.exp(-1j * t * w) @ pairs
    return t if float(np.linalg.norm(r)) <= tolerances.TOL.eq else None


def first_block_diagonal_hit_norm(spec: GeodesicSpec, t_upper: float) -> float | None:
    """``cutlocus.first_block_diagonal_hit`` scanning the norm |L| itself,
    against the unsquared bounds."""
    if not 0.0 < t_upper < np.inf:
        raise ValueError(f"t_upper must be positive and finite, got {t_upper}")
    k, n = spec.k, spec.n
    w, q = np.linalg.eigh(1j * spec.v.embed())
    # L(t) flattened is the row e^{-i t w} times pairs[p, (i, j)] = q[k + i, p] conj(q[j, p])
    pairs = (q[k:, None, :] * np.conj(q[:k, :])).reshape(-1, n).T
    points = cutlocus._HIT_SCAN_POINTS
    ts = np.linspace(0.0, t_upper, points)
    # e^{-i t_j w} for t_j = (B b + c) dt: block-start phases times in-block phases
    block = int(np.ceil(np.sqrt(points)))
    steps = -1j * (t_upper / (points - 1)) * np.arange(block)[:, None] * w
    phases = (np.exp(block * steps)[:, None] * np.exp(steps)).reshape(-1, n)
    g = np.linalg.norm(phases[:points] @ pairs, axis=1)
    peak = float(g.max())
    if peak <= tolerances.TOL.eq:
        return None  # curve never leaves the block-diagonal set
    risen = np.nonzero(g > 0.5 * peak)[0]
    mid = g[1:-1]
    dips = (mid <= g[:-2]) & (mid <= g[2:]) & (mid < 0.2 * peak)
    dips[: risen[0]] = False  # mid[j] is g[j + 1]; dips must come after the rise
    found = np.flatnonzero(dips)
    if len(found) == 0:
        return None
    idx = int(found[0]) + 1
    lo, hi, t = float(ts[idx - 1]), float(ts[idx + 1]), float(ts[idx])
    for _ in range(cutlocus._HIT_GN_ITERS):
        e = np.exp(-1j * t * w)
        r, d = np.stack([e, -1j * w * e]) @ pairs  # L and dL/dt
        dd = float(np.sum(np.abs(d) ** 2))
        if dd == 0.0:
            break
        t_next = min(max(t - float(np.sum(d.conj() * r).real) / dd, lo), hi)
        if abs(t_next - t) <= cutlocus._HIT_STEP_FLOOR * t_upper:
            break
        t = t_next
    else:
        r = np.exp(-1j * t * w) @ pairs
    return t if float(np.linalg.norm(r)) <= tolerances.TOL.eq else None


def v21_suite_loop(trials: int = 1000, seed: int = 0, sign_flip: bool = False) -> dict:
    """``verify.v21_suite`` drawing its (lam, Re x2, Im x2, t) one scalar at a time."""
    rng = np.random.default_rng(seed)
    lam, x2, t = np.zeros(trials), np.zeros(trials, complex), np.zeros(trials)
    for i in range(trials):
        lam[i] = rng.uniform(-3.0, 3.0)
        x2[i] = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-2.0, 2.0)
        t[i] = rng.uniform(0.0, 2.0 * np.pi)
    v = _embed_velocities(1j * lam[:, None, None], x2[:, None, None])
    full = matcore.expm_skew(v, t)
    full[:, :, 0] *= np.exp(-1j * lam * t)[:, None]
    closed = np.stack(geodesic_v21_closed(lam, x2, t), axis=-1)
    if sign_flip:
        closed[:, 0] *= np.exp(1j * lam * t)
    return verify._suite_result("v21", trials, np.abs(closed.reshape(-1, 2, 2) - full))


def uniqueness_case_checks_loop(n: int, trials: int = 200, seed: int = 0):
    """``cutlocus.uniqueness_case_checks`` with its rejection loop drawing
    one (lam, |y|, t) triple at a time."""
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
    return cutlocus.UniquenessCheckSummary(
        n=n,
        trials=trials,
        sin_ratio_strictly_decreasing=sin_monotone,
        min_tan_ratio_gap=float(min_gap),
        max_reconstruction_err=max_rec,
        passed=passed,
    )


def separate_family_params(grid) -> np.ndarray:
    """Initial params of the grid's family, sampled separately: on complex
    V(2,1) (v21) every fibre rate crossed with every phase (params lam, cos
    phi, sin phi), on the other k = 1 shapes (sphere) the unit directions
    (with a fibre-rate axis in complex mode), as the search's former v21 and
    sphere families sampled them, and at k >= 2 (general) a sample of every
    block coordinate from ``default_rng(seed)``: the fibre coordinates
    uniform on ``lambda_range``, then the transversal ones standard normal."""
    n, k = grid.n, grid.k
    complex_mode = grid.mode == COMPLEX
    lo, hi = grid.lambda_range
    if grid.family == "v21":
        lam, ph = np.meshgrid(
            np.linspace(lo, hi, grid.lambda_count),
            np.linspace(0.0, 2 * np.pi, grid.phase_count, endpoint=False),
            indexing="ij",
        )
        return np.column_stack([lam.ravel(), np.cos(ph.ravel()), np.sin(ph.ravel())])
    if grid.family == "general":
        a_dim = k * k if complex_mode else k * (k - 1) // 2
        b_dim = (2 if complex_mode else 1) * k * (n - k)
        rng = np.random.default_rng(grid.seed)
        out = np.empty((grid.sample_count, a_dim + b_dim))
        out[:, :a_dim] = rng.uniform(lo, hi, (grid.sample_count, a_dim))
        out[:, a_dim:] = rng.standard_normal((grid.sample_count, b_dim))
        return out
    m = n - 1
    if not complex_mode and m == 1:
        return np.array([[1.0], [-1.0]])
    if not complex_mode and m == 2:
        ang = np.linspace(0.0, 2 * np.pi, grid.direction_count, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(grid.seed)
    raw = rng.standard_normal((grid.direction_count, (2 if complex_mode else 1) * m))
    dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    if not complex_mode:
        return dirs
    lams = np.linspace(lo, hi, grid.lambda_count)
    return np.column_stack([np.repeat(lams, len(dirs)), np.tile(dirs, (len(lams), 1))])


def separate_family_raw_blocks(grid, params: np.ndarray):
    """Fibre block and unnormalized transversal block of each param row, by
    the former general family's per-entry loops (at k = 1 the v21 and sphere
    families gave the same blocks)."""
    c = len(params)
    k, m = grid.k, grid.n - grid.k
    complex_mode = grid.mode == COMPLEX
    a_dim = k * k if complex_mode else k * (k - 1) // 2
    a = np.zeros((c, k, k), dtype=np.complex128)
    pa = params[:, :a_dim]
    idx = 0
    if complex_mode:
        for j in range(k):
            a[:, j, j] = 1j * pa[:, j]
        idx = k
    for p in range(k):
        for q in range(p + 1, k):
            if complex_mode:
                val = pa[:, idx] + 1j * pa[:, idx + 1]
                idx += 2
            else:
                val = pa[:, idx].astype(np.complex128)
                idx += 1
            a[:, p, q] = val
            a[:, q, p] = -np.conj(val)
    pb = params[:, a_dim:]
    b = pb[:, : k * m] + 1j * pb[:, k * m :] if complex_mode else pb.astype(np.complex128)
    return a, b.reshape(c, k, m)


def unit_block_tangents(b, da, db):
    """Tangents of (a, b / |b|) for a linear parameter map: ``b`` (c, k, m)
    unnormalized, da (d, k, k) and db (d, k, m) the images of the unit
    params; d(b/|b|) = (db - u Re<u, db>) / |b| with u = b / |b|."""
    norms = np.sqrt(np.sum(np.abs(b) ** 2, axis=(1, 2)))
    unit = (b / norms[:, None, None])[:, None]
    radial = np.sum((np.conj(unit) * db).real, axis=(2, 3), keepdims=True)
    dunit = (db - radial * unit) / norms[:, None, None, None]
    return np.broadcast_to(da, (len(b),) + da.shape), dunit


def jacobian_along(a, b, ts, da, db, mode: str):
    """The endpoint's derivatives along arbitrary stacked block directions
    da (c, d, k, k), db (c, d, k, n-k) and in t, as the refinement once took
    them: the sensitivity array contracted with each direction's generator
    i [[da, db], [-db*, 0]].  Returns (c, d, n, k) and (c, n, k)."""
    c, d = db.shape[:2]
    sens, dcols_dt = _sensitivity(a, b, ts, _decompose(a, b))
    gens = 1j * _embed_velocities(np.asarray(da), np.asarray(db)).reshape(c, 1, d, -1)
    dcols = (gens @ sens).swapaxes(1, 2)  # (c, n, d, k) -> (c, d, n, k)
    return _field(dcols, mode), _field(dcols_dt, mode)


def _stacked_rank_loop(mats, k: int, mode: str) -> int:
    """Rank of matrices projected one at a time, each flattened to one real row."""
    rows = []
    for m in mats:
        m = np.array(m, dtype=np.complex128)
        m[k:, k:] = 0.0
        parts = [m.real.ravel(), m.imag.ravel()] if mode == COMPLEX else [m.real.ravel()]
        rows.append(np.concatenate(parts))
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0])) if s[0] > 0.0 else 0


def span_rank_entries(basis, left, right, k: int, mode: str):
    """``distribution._span_rank`` on n x n matrices: each row holds a
    matrix's entries outside the lower-right block, re parts then im parts in
    complex mode, twice the tangent dimension in real numbers, and a bracket's
    are the entries of the full commutator's top rows and lower-left block."""

    def entries(top, low):
        flat = np.concatenate(
            [x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1]) for x in (top, low)], axis=-1
        )
        return np.concatenate([flat.real, flat.imag], axis=-1) if mode == COMPLEX else flat.real

    spans = entries(basis[..., :k, :], basis[..., k:, :k])
    brackets = entries(
        left[..., :k, :] @ right - right[..., :k, :] @ left,
        left[..., k:, :] @ right[..., :k] - right[..., k:, :] @ left[..., :k],
    )
    batch = np.broadcast_shapes(spans.shape[:-2], brackets.shape[:-2])
    rows = np.concatenate(
        [np.broadcast_to(x, batch + x.shape[-2:]) for x in (spans, brackets)], axis=-2
    )
    nonzero = np.flatnonzero(rows.any(axis=-1).reshape(-1, rows.shape[-2]).any(axis=0))
    distinct = list({rows[..., i, :].tobytes(): i for i in nonzero}.values())
    s = np.linalg.svd(rows[..., distinct, :], compute_uv=False)
    return np.sum(s > distribution._RANK_RTOL * s[..., :1], axis=-1)


def bracket_rank_loop(n: int, k: int, mode: str) -> int:
    """The horizontal basis plus the bracket of every basis pair, one pair at a time."""
    embedded = [bv.embed() for bv in horizontal_basis(n, k, mode)]
    mats = list(embedded)
    for i in range(len(embedded)):
        for j in range(i + 1, len(embedded)):
            mats.append(embedded[i] @ embedded[j] - embedded[j] @ embedded[i])
    return _stacked_rank_loop(mats, k, mode)


def strong_bracket_check_loop(n: int, samples: int, seed: int) -> bool:
    """The strong bracket check of V_{n,1}, one bracket with the section at a time."""
    rng = np.random.default_rng(seed)
    embedded = [bv.embed() for bv in horizontal_basis(n, 1, COMPLEX)]
    checked = 0
    while checked < samples:
        b = matcore.random_matrix(rng, 1, n - 1, COMPLEX)
        if float(np.linalg.norm(b)) <= 1e-12:
            continue
        z = BlockVelocity(np.zeros((1, 1)), b, COMPLEX).embed()
        mats = embedded + [z @ e - e @ z for e in embedded]
        if _stacked_rank_loop(mats, 1, COMPLEX) != stiefel_tangent_dim(n, 1, COMPLEX):
            return False
        checked += 1
    return True


def first_column_2x2(lam, b, ts):
    """The evaluator's original V_{2,1} column: (lam, b, ts) broadcast, output (..., 2)."""
    s_half = 0.5 * np.sqrt(lam * lam + 4.0 * np.abs(b) ** 2)
    cosw = np.cos(ts * s_half)
    sincw = ts * np.sinc(ts * s_half / np.pi)
    phase = np.exp(-0.5j * lam * ts)
    top = phase * (cosw + 0.5j * lam * sincw)
    bottom = phase * (-np.conj(b) * sincw)
    return np.stack([top, bottom], axis=-1)


def plane_least_root(q, lambda_range, t_max: float, cells: int = 600):
    """(t, lam) of the least-time root of T(lam, t) = q[0] in lambda_range x (0,
    t_max], or None, for the top entry T of the unit-row V(n,1) column (the
    original V(2,1) column at b = 1).  |T - q[0]| is taken at the centres of a
    cells x cells grid; a cell is kept unless that value exceeds what T can
    move within the cell (|dT/dt| <= 1, |dT/dlam| <= 3 t_max).  Kept cells
    are joined into connected sets on each side of the fold t omega = pi, and
    each set is refined from its best cell by scipy's least_squares in (lam,
    t omega), bounded to its side of the fold, on T - q[0] and |S| - |q[1:]|
    with |S| = |sin(t omega)| / omega: near the fold |T| is flat, and S pins
    the root."""
    from scipy.ndimage import label
    from scipy.optimize import least_squares

    q0, side_norm = q[0], np.linalg.norm(q[1:])
    lo, hi = lambda_range
    half_lam, half_t = (hi - lo) / (2 * cells), t_max / (2 * cells)
    lams = lo + half_lam * (2 * np.arange(cells) + 1)
    ts = half_t * (2 * np.arange(cells) + 1)

    def top(lam, angle):  # T at t = angle / omega
        return first_column_2x2(lam, 1.0, angle / np.hypot(lam / 2, 1.0))[..., 0]

    def residual(x):
        r = top(*x) - q0
        return [r.real, r.imag, abs(np.sin(x[1])) / np.hypot(x[0] / 2, 1.0) - side_norm]

    angles = ts[None] * np.hypot(lams[:, None] / 2, 1.0)
    dist = np.abs(top(lams[:, None], angles) - q0)
    kept = dist <= 3 * t_max * half_lam + half_t
    roots = []
    for side, bounds in ((angles <= np.pi, (0, np.pi)), (angles > np.pi, (np.pi, np.inf))):
        sets, count = label(kept & side)
        for c in range(1, count + 1):
            i, j = np.unravel_index(np.argmin(np.where(sets == c, dist, np.inf)), dist.shape)
            fit = least_squares(
                residual, [lams[i], angles[i, j]], xtol=1e-15, ftol=1e-15, gtol=1e-15,
                bounds=([-np.inf, bounds[0]], [np.inf, bounds[1]]),
            )
            lam, t = fit.x[0], fit.x[1] / np.hypot(fit.x[0] / 2, 1.0)
            if np.linalg.norm(residual(fit.x)) <= 1e-9 and lo <= lam <= hi and 0 < t <= t_max:
                roots.append((t, lam))
    return min(roots) if roots else None


def scan_cols_inner_product(cols, target_cols, gate):
    """The k >= 2 scan's table pass: gated interior local minima of the
    endpoint error along each row's time grid of ``cols`` (c, T, n, k), from
    the squared error k + |Q|^2 - 2 Re tr(Q* P) as one inner product per
    table point; returns row indices, time indices and errors."""
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


def scan_hits_table(family, target_cols):
    """The k >= 2 scan's hits (velocity indices, time indices, errors) as
    its table pass found them: the grid's sample filled at its shared scan
    times by the kernel ``_geodesic_columns``, 16 velocities per fill, each fill
    scanned by ``scan_cols_inner_product`` against the search's gate."""
    grid = family.grid
    p0 = family.initial_params()
    ts = cutlocus._scan_times(grid)
    speed = float(np.sqrt(cutlocus._speeds_squared(family.blocks(p0[:1])[1], grid.n, grid.mode)[0]))
    gate = max(8 * speed * (ts[1] - ts[0]), 0.25) + tolerances.TOL.hit
    hits = []
    for lo in range(0, len(p0), 16):
        a, b = family.blocks(p0[lo : lo + 16])
        cols = _geodesic_columns(a, b, ts[None], grid.mode)
        vix, tix, err = scan_cols_inner_product(cols, target_cols, gate)
        hits.append((vix + lo, tix, err))
    return tuple(np.concatenate(x) for x in zip(*hits))


def scan_cols_subtraction(cols, target_cols, gate):
    """The scan's original error pass: Frobenius norms of (point - target) over
    the whole (c, T, n, k) table, then the gated interior local minima along
    each row's time grid; returns row indices, time indices and errors."""
    err = np.sqrt(np.sum(np.abs(cols - target_cols[None, None]) ** 2, axis=(2, 3)))
    interior = (
        (err[:, 1:-1] <= err[:, :-2])
        & (err[:, 1:-1] <= err[:, 2:])
        & (err[:, 1:-1] < gate)
    )
    vix, tix = np.nonzero(interior)
    tix += 1
    return vix, tix, err[vix, tix]


def refine_every_iteration(family, params, ts, target_cols, hit: float):
    """The arrival refinement's original batched Levenberg-Marquardt loop: every
    iteration forms the Jacobian of every active candidate, also when the
    candidate's last step was rejected and its point did not move.  It
    freezes candidates by the refinement's rules, the stall window
    ``cutlocus._STALL_WINDOW`` included, and returns the params, times and
    residual norms.  Calls ``cutlocus._residual_jacobian`` through the
    module, so a test can count the rows it differentiates."""
    x = np.column_stack([params, ts]).astype(np.float64)
    n_cand, dim = x.shape
    n = target_cols.shape[0]
    chunk = max(1, cutlocus._CHUNK_ELEMENTS // (4 * dim * n * n))
    r, _ = cutlocus._endpoint_residuals(family, x, target_cols)
    f = np.sum(r * r, axis=1)
    mu = np.full(n_cand, 1e-3)
    active = np.ones(n_cand, dtype=bool)
    eye = np.eye(dim)
    window = cutlocus._STALL_WINDOW
    history = [f.copy()]  # f at the start and after each iteration
    for _ in range(cutlocus._LM_ITERS):
        ai = np.nonzero(active)[0]
        if len(ai) == 0:
            break
        xa, ra = x[ai], r[ai]
        jtj = np.empty((len(ai), dim, dim))
        jtr = np.empty((len(ai), dim, 1))
        for lo in range(0, len(ai), chunk):
            part = slice(lo, lo + chunk)
            spectra = _decompose(*family.blocks(xa[part, :-1]))
            jac = cutlocus._residual_jacobian(family, xa[part], spectra)
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
        rt, _ = cutlocus._endpoint_residuals(family, xt, target_cols)
        ft = np.sum(rt * rt, axis=1)
        good = ft < f[ai]
        rows = ai[good]
        x[rows] = xt[good]
        r[rows] = rt[good]
        f[rows] = ft[good]
        mu[ai[good]] = np.maximum(mu[ai[good]] * 0.3, 1e-12)
        mu[ai[~good]] = mu[ai[~good]] * 10.0
        history.append(f.copy())
        converged = f[ai] < (0.01 * hit) ** 2
        stuck = mu[ai] > 1e8
        stalled = len(history) > window and f[ai] > 0.5 * history[-1 - window][ai]
        active[ai[converged | stuck | stalled]] = False
    return x[:, :-1], x[:, -1], np.sqrt(f)


def _columns_mp(a, b, t):
    """First k columns of expm(t v) . expm(-t a), v = [[a, b], [-b*, 0]], for
    mpmath matrices a (k x k), b (k x m) and an mpmath time, at the working
    precision; an mpmath matrix (k + m) x k."""
    k, m = b.rows, b.cols
    v = mpmath.zeros(k + m, k + m)
    for i in range(k):
        for j in range(k):
            v[i, j] = a[i, j]
        for j in range(m):
            v[i, k + j] = b[i, j]
            v[k + j, i] = -mpmath.conj(b[i, j])
    return mpmath.expm(t * v)[:, :k] * mpmath.expm(-t * a)


def _to_complex(x) -> np.ndarray:
    return np.array(
        [[complex(x[i, j]) for j in range(x.cols)] for i in range(x.rows)], dtype=np.complex128
    )


def _mp(x) -> mpmath.matrix:
    return mpmath.matrix(np.asarray(x, dtype=np.complex128).tolist())


def geodesic_columns_mp(a, b, t: float, dps: int = 40) -> np.ndarray:
    """First k columns of expm(t v) . blockdiag(expm(-t a), I), v = [[a, b], [-b*, 0]],
    by mpmath's matrix exponential at ``dps`` digits, rounded to complex128.

    The float inputs enter exactly; only the final rounding is at double
    precision, so the result is the true endpoint of the given velocity.
    """
    with mpmath.workdps(dps):
        return _to_complex(_columns_mp(_mp(a), _mp(b), mpmath.mpf(t)))


def geodesic_jacobian_mp(a, b, t: float, da, db, step: float = 1e-12, dps: int = 40):
    """Central differences of ``geodesic_columns_mp``'s endpoint, taken at ``dps``
    digits before the final rounding: along each direction (da[j], db[j]) and
    along t; (d, n, k) and (n, k).

    At 40 digits a step of 1e-12 leaves a truncation error of order 1e-24
    times the third derivative and a rounding error of order 1e-28, both far
    below double precision for |t v| up to a few hundred.
    """
    with mpmath.workdps(dps):
        a_mp, b_mp, t_mp, h = _mp(a), _mp(b), mpmath.mpf(t), mpmath.mpf(step)

        def central(plus, minus):
            return _to_complex((plus - minus) / (2 * h))

        along = []
        for x, y in zip(da, db):
            x_mp, y_mp = _mp(x), _mp(y)
            along.append(
                central(
                    _columns_mp(a_mp + h * x_mp, b_mp + h * y_mp, t_mp),
                    _columns_mp(a_mp - h * x_mp, b_mp - h * y_mp, t_mp),
                )
            )
        in_t = central(_columns_mp(a_mp, b_mp, t_mp + h), _columns_mp(a_mp, b_mp, t_mp - h))
        return np.array(along), in_t


def target_class_json(target) -> dict:
    """A ``TargetClass`` record as its serializer wrote it field by field."""
    return {"kind": target.kind, "point": target.point.to_json_dict()}


def velocity_grid_json(grid) -> dict:
    return {**dataclasses.asdict(grid), "lambda_range": list(grid.lambda_range)}


def arrival_json(arrival) -> dict:
    return {
        "velocity": arrival.velocity.to_json_dict(),
        "t": arrival.t,
        "length": arrival.length,
        "endpoint_error": arrival.endpoint_error,
    }


def minimizer_report_json(report) -> dict:
    return {
        "target": target_class_json(report.target),
        "grid": velocity_grid_json(report.grid),
        "arrivals": [arrival_json(a) for a in report.arrivals],
        "clusters": report.clusters,
        "min_length": report.min_length,
        "diagnostics": dataclasses.asdict(report.diagnostics),
    }
