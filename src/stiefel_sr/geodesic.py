"""Normal sub-Riemannian geodesics on Stiefel manifolds.

The generic curve through the identity class with initial block velocity
``v = [[a, b], [-b*, 0]]`` is

    t  ->  first k columns of  exp(t v) . blockdiag(exp(-t a), I)

and is horizontal with constant speed.  One batched kernel evaluates it for
stacked velocities and times; ``sample_curve``, ``batch_geodesic_columns`` and
``grid_geodesic_columns`` are views of it.  Alongside it this module carries
the closed forms available in special cases — V_{2,1}, V_{n,1} and the
square-block Grassmann geodesics used for V_{2k,k} — plus speed, length, the first time a V_{n,1} geodesic returns to the block-diagonal set,
and the mirrored velocity that produces a second arrival at such points.

Matrix functions of b b* are evaluated through the SVD of b, with the
sin(x)/x limit handled spectrally so singular directions are fine.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import matcore, tolerances
from .matcore import COMPLEX, REAL, adjoint
from .homspace import BlockVelocity, StiefelPoint


@dataclass(frozen=True)
class GeodesicSpec:
    """A reusable geodesic: the initial velocity at the identity class."""

    v: BlockVelocity

    @property
    def n(self) -> int:
        return self.v.n

    @property
    def k(self) -> int:
        return self.v.k

    @property
    def mode(self) -> str:
        return self.v.mode


def speed_squared(v: BlockVelocity) -> float:
    """Squared speed of the geodesic generated by v.

    Only the transversal block contributes: the curve is horizontal, so the
    fibre component of the initial velocity never enters.  Equals the metric
    of the horizontal part (4n tr(bb*) for the complex scaling, 2 tr(bb*)
    for the real one).
    """
    bb = float(np.sum(np.abs(v.b_block) ** 2))
    scale = 2 * v.n if v.mode == COMPLEX else 1
    return 2.0 * scale * bb


def length(v: BlockVelocity, t_final: float) -> float:
    """Length of the geodesic generated by v up to time t_final."""
    if t_final < 0:
        raise ValueError(f"negative final time {t_final}")
    return t_final * float(np.sqrt(speed_squared(v)))


def mirror_velocity(v: BlockVelocity, u=None) -> BlockVelocity:
    """The velocity (a, -b u) for a unitary u; same speed as v.

    With u = I this is the mirrored velocity whose geodesic reaches every
    block-diagonal arrival of v's geodesic at the same time and length.
    """
    m = v.n - v.k
    if u is None:
        u = np.eye(m)
    u = matcore.as_matrix(u, v.mode)
    if u.shape != (m, m):
        raise ValueError(f"expected a {m} x {m} factor, got {u.shape}")
    dev = float(np.max(np.abs(adjoint(u) @ u - np.eye(m)))) if m else 0.0
    if dev > tolerances.TOL.unit:
        raise matcore.InvariantViolation(
            f"mirror factor deviates from unitarity by {dev:.3e}"
        )
    return BlockVelocity(v.a_block, -(v.b_block @ u), v.mode)


# -- generic evaluation -------------------------------------------------------


def _sin_over(x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """sin(x * omega) / omega with the limit x at omega = 0 (elementwise)."""
    return x * np.sinc(x * omega / np.pi)


def _first_column_2x2(lam, b, ts):
    """Canonical column of the V_{2,1} geodesic, eigensolver-free.

    For the 2x2 skew-Hermitian velocity the traceless part squares to a
    negative scalar, so exp is a cosine/sine combination; broadcasting shapes
    of (lam, b, ts) decide the output shape (..., 2).
    """
    s_half = 0.5 * np.sqrt(lam * lam + 4.0 * np.abs(b) ** 2)
    cosw = np.cos(ts * s_half)
    sincw = _sin_over(ts, s_half)
    phase = np.exp(-0.5j * lam * ts)  # e^{i lam t / 2} from exp, times e^{-i lam t}
    top = phase * (cosw + 0.5j * lam * sincw)
    bottom = phase * (-np.conj(b) * sincw)
    return np.stack([top, bottom], axis=-1)


def _spectral_flow(h: np.ndarray, ts: np.ndarray, k: int, rate: complex) -> np.ndarray:
    """First k columns of exp(rate t h) for stacked Hermitian h (c, n, n).

    ``ts`` broadcasts to (c, T); one batched eigh, then a single matmul per
    velocity over all T times.  Returns (c, T, n, k).
    """
    w, vecs = np.linalg.eigh(h)
    c, n = w.shape
    phases = np.exp(rate * ts[:, None, :] * w[:, :, None])  # (c, n, T)
    scaled = phases[..., None] * adjoint(vecs)[:, :, None, :k]  # (c, n, T, k)
    flow = vecs @ scaled.reshape(c, n, -1)
    return flow.reshape(c, n, -1, k).transpose(0, 2, 1, 3)


def _geodesic_columns(a_blocks, b_blocks, ts, mode: str) -> np.ndarray:
    """The evaluation kernel: first k columns of exp(t v) . blockdiag(exp(-t a), I).

    Stacked blocks (c, k, k) and (c, k, n-k); ``ts`` is 2-d and broadcasts to
    (c, T).  Returns (c, T, n, k).  V_{2,1} takes the eigensolver-free closed
    form; every other shape one batched eigh of the embedded velocity and one
    of the fibre block.  No per-element validation (hot path for searches).
    """
    a_blocks = np.asarray(a_blocks, dtype=np.complex128)
    b_blocks = np.asarray(b_blocks, dtype=np.complex128)
    ts = np.asarray(ts, dtype=np.float64)
    c, k, m = b_blocks.shape
    n = k + m
    if (n, k) == (2, 1):
        lam = a_blocks[:, 0, :].imag
        cols = _first_column_2x2(lam, b_blocks[:, 0, :], ts)[..., None]
    else:
        full = np.zeros((c, n, n), dtype=np.complex128)
        full[:, :k, :k] = a_blocks
        full[:, :k, k:] = b_blocks
        full[:, k:, :k] = -adjoint(b_blocks)
        left = _spectral_flow(1j * full, ts, k, -1j)
        right = _spectral_flow(1j * a_blocks, ts, k, 1j)  # exp(-t a)
        cols = left @ right
    if mode == REAL:
        cols = cols.real.astype(np.complex128)
    return cols


def sample_curve(spec: GeodesicSpec, ts) -> np.ndarray:
    """Canonical columns of the geodesic at each time; shape (len(ts), n, k)."""
    v, ts = spec.v, np.atleast_1d(ts)
    return _geodesic_columns(v.a_block[None], v.b_block[None], ts[None], spec.mode)[0]


def batch_geodesic_columns(a_blocks, b_blocks, ts, mode: str = COMPLEX) -> np.ndarray:
    """Velocity i at time ts[i] for stacked blocks (c, k, k), (c, k, n-k); (c, n, k)."""
    return _geodesic_columns(a_blocks, b_blocks, np.asarray(ts)[:, None], mode)[:, 0]


def grid_geodesic_columns(a_blocks, b_blocks, ts, mode: str = COMPLEX) -> np.ndarray:
    """c velocities on a shared time grid; shape (c, t, n, k)."""
    return _geodesic_columns(a_blocks, b_blocks, np.asarray(ts)[None], mode)


def normal_geodesic(spec: GeodesicSpec, t: float) -> StiefelPoint:
    """The geodesic point at time t (identity class at t = 0)."""
    return StiefelPoint(sample_curve(spec, [float(t)])[0], spec.mode)


# -- closed forms -------------------------------------------------------------


def _rate(x: float, b: np.ndarray) -> float:
    """sqrt(x^2 + 4 bb*), computed without squaring so tiny rates do not underflow."""
    return float(np.hypot.reduce(np.concatenate([[x], 2.0 * np.abs(b)])))


def geodesic_v21_closed(lam: float, x2: complex, t: float, sign_flip: bool = False):
    """Closed-form V_{2,1} geodesic; returns the four matrix entries.

    The entries assemble to the unitary exp(tv) . diag(e^{-i lam t}, 1) for
    v = [[i lam, x2], [-conj(x2), 0]]; the first column is the canonical
    Stiefel representative.  ``sign_flip`` intentionally mis-groups the
    phase arguments of the first entry (a mutation hook for the oracle
    verification suite) and must stay False for correct results.
    """
    lam = float(lam)
    x2 = complex(x2)
    s = _rate(lam, np.array([x2]))
    if s == 0.0:
        return (1.0 + 0j, 0j, 0j, 1.0 + 0j)

    def mu(lam_arg: float, pm: float) -> complex:
        return np.exp(0.5j * t * (lam_arg + pm * s))

    c_plus = lam / (2.0 * s) + 0.5
    c_minus = -lam / (2.0 * s) + 0.5
    lam1 = lam if sign_flip else -lam
    g1 = c_plus * mu(lam1, +1) + c_minus * mu(lam1, -1)
    g2 = (x2 * 1j / s) * (mu(lam, -1) - mu(lam, +1))
    g3 = -(np.conj(x2) * 1j / s) * (mu(-lam, -1) - mu(-lam, +1))
    g4 = (-mu(lam, +1) * (lam - s) + mu(lam, -1) * (lam + s)) / (2.0 * s)
    return (complex(g1), complex(g2), complex(g3), complex(g4))


def geodesic_vn1_closed(x: float, b, t: float):
    """Closed-form V_{n,1} geodesic: first column (scalar, length-(n-1) vector).

    ``x`` is the fibre rate (the k=1 block is i x) and ``b`` the transversal
    row.  The column satisfies |g1|^2 + ||g3||^2 = 1.
    """
    x = float(x)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    s = _rate(x, b)
    if s == 0.0:
        return 1.0 + 0j, np.zeros_like(b)
    e_full = np.exp(1j * t * s)
    pref = np.exp(-0.5j * t * (s + x))
    g1 = pref * (s * (e_full + 1.0) + x * (e_full - 1.0)) / (2.0 * s)
    g3 = -np.conj(b) * (pref * (e_full - 1.0) / (1j * s))
    return complex(g1), g3


def first_vanishing_time(x: float, b) -> float:
    """First time the V_{n,1} transversal column vanishes: 2 pi / sqrt(x^2 + 4 bb*).

    At this time the geodesic meets the block-diagonal set, an upper bound for
    the loss of optimality.
    """
    s = _rate(float(x), np.asarray(b, dtype=np.complex128).reshape(-1))
    if s == 0.0:
        raise ValueError("zero velocity has no vanishing time")
    return 2.0 * np.pi / s


def grassmann_geodesic_2kk(b, t: float):
    """Square-block Grassmann geodesic: (cos(t r), -b* sin(t r) r^{-1}) with r = sqrt(bb*).

    Both blocks are k x k; singular b is fine (the sin(x)/x limit is taken
    spectrally).  Together they are the corner blocks of exp of the embedded
    horizontal velocity in the 2k x 2k group.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"expected a square block, got {b.shape}")
    u, sig, wh = np.linalg.svd(b)
    g1 = (u * np.cos(t * sig)) @ adjoint(u)
    sinc = t * np.sinc(t * sig / np.pi)  # sin(t s)/s with the limit t at s = 0
    g3 = -adjoint(b) @ (u * sinc) @ adjoint(u)
    return g1, g3


# -- CSV emission --------------------------------------------------------------


def write_curve_csv(path, spec: GeodesicSpec, ts) -> None:
    """Sample the curve on ``ts`` and write one CSV row per time.

    First line is a metadata comment ``# n=.. k=.. mode=..``; columns are t
    followed by the row-major re/im pairs of the n x k point block.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    cols = sample_curve(spec, ts)
    n, k = spec.n, spec.k
    header = ["t"]
    for i in range(n):
        for j in range(k):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    with open(path, "w", newline="") as fh:
        fh.write(f"# n={n} k={k} mode={spec.mode}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, c in zip(ts, cols):
            row = [repr(float(t))]
            for i in range(n):
                for j in range(k):
                    row += [repr(float(c[i, j].real)), repr(float(c[i, j].imag))]
            writer.writerow(row)
