"""Independent oracles for the test suite.

These deliberately avoid the library's computational paths: the exponential
oracle is a truncated power series, the trace oracle a double loop, the
length oracle composite-Simpson quadrature of a finite-difference speed, and
the dedup and cluster oracles the minimizer search's original pairwise loops,
and the candidate oracle its original per-hit loop.
"""

import numpy as np

from stiefel_sr.geodesic import GeodesicSpec, sample_curve
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
