"""Normal sub-Riemannian geodesics on Stiefel manifolds.

The generic curve through the identity class with initial block velocity
``v = [[a, b], [-b*, 0]]`` is

    t  ->  first k columns of  exp(t v) . blockdiag(exp(-t a), I)

and is horizontal with constant speed.  One batched kernel evaluates it for
stacked velocities and times; ``sample_curve`` and ``batch_geodesic_columns``
are views of it.  For k = 1 the kernel runs one
closed form of the V_{n,1} column, and the public closed forms
``geodesic_vn1_closed`` and ``geodesic_v21_closed`` (V_{2,1} is its n = 2
case) are views of the same formula, so no k = 1 path calls an eigensolver.
k >= 2 goes through two batched eigh, split from the evaluation so a caller
can keep them as one spectral record (w, q, wa, qa, C), and then writes the
columns as q (e^{-i t w_p} e^{i t wa_j} C_pj) qa* with C = q*[:, :k] qa: two
products per velocity, whatever the number of times.  At a unit transversal
row the V_{n,1} column is (T, -conj(b) S) with T and S functions of the rate
and the time (``_vn1_jacobian``), so a k = 1 search solves along the fold
branches where |S| = |q1|.  ``_eigenbasis_jacobian`` gives the k >= 2
refinement the endpoint's derivatives along fixed directions from the kept
record, written in the eigenbasis of i v: one Daleckii-Krein product per
velocity, and one or two of its terms per direction, one for each nonzero
entry of the direction's generator, which the caller lists
(``_LinearFamily`` declares each unit param as one velocity entry).  No
derivative in t is needed: the geodesic of v at time t is that of t v at
time 1, so the refinement moves the velocity alone.
Alongside them this module carries the square-block Grassmann geodesics used
for V_{2k,k}, plus speed, length, the first time a V_{n,1} geodesic returns to
the block-diagonal set, and the mirrored velocity that produces a second
arrival at such points.

Matrix functions of b b* are evaluated through the SVD of b, with the
sin(x)/x limit handled spectrally so singular directions are fine.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import matcore, tolerances
from .matcore import COMPLEX, REAL, adjoint
from .homspace import BlockVelocity, StiefelPoint, _embed_velocities


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
    return float(_speeds_squared(v.b_block[None], v.n, v.mode)[0])


def _speeds_squared(b_blocks: np.ndarray, n: int, mode: str) -> np.ndarray:
    """``speed_squared`` for stacked transversal blocks (c, k, n-k)."""
    c, k, m = b_blocks.shape
    bb = np.sum(np.abs(b_blocks.reshape(c, k * m)) ** 2, axis=1)
    scale = 2 * n if mode == COMPLEX else 1
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


def _vn1_terms(lam, bb, ts):
    """The scalars of the V_{n,1} column: omega, cos(t omega), sin(t omega) / omega, phase.

    omega = sqrt(lam^2 + 4 bb) / 2 is half the rate, bb = |b|^2 (1 at a unit
    row); the phase is e^{i lam t / 2} from exp, times e^{-i lam t}.
    """
    omega = 0.5 * np.sqrt(lam * lam + 4.0 * bb)
    return omega, np.cos(ts * omega), _sin_over(ts, omega), np.exp(-0.5j * lam * ts)


def _vn1_column(lam, b, ts):
    """First column of the V_{n,1} geodesic, eigensolver-free: top (...), bottom (..., n-1).

    Fibre rates ``lam`` (a = i lam) and times ``ts`` broadcast with the stack of
    transversal rows ``b`` (..., n-1).  The traceless part of the velocity squares to
    a negative scalar, so exp is a cosine/sine combination; nothing divides by the
    rate, so tiny rates need no special case.
    """
    _, cosw, sincw, phase = _vn1_terms(lam, np.sum(np.abs(b) ** 2, axis=-1), ts)
    top = phase * (cosw + 0.5j * lam * sincw)
    bottom = phase[..., None] * (-np.conj(b) * sincw[..., None])
    return top, bottom


def _decompose(a_blocks, b_blocks):
    """The k >= 2 spectral record (w, q, wa, qa, C) of stacked velocities.

    (w, q) is the batched eigh of i v, (wa, qa) that of i a, and C (c, n, k)
    = q*[:, :k] qa, which the kernel, the Jacobian and the scan all read.
    ``batch_geodesic_columns`` and the Jacobian take the record as
    ``spectra``, so a caller that evaluates and later differentiates at the
    same velocities decomposes once.  The k = 1 kernel takes no spectra.
    """
    a_blocks = np.asarray(a_blocks, dtype=np.complex128)
    b_blocks = np.asarray(b_blocks, dtype=np.complex128)
    w, q = np.linalg.eigh(1j * _embed_velocities(a_blocks, b_blocks))
    wa, qa = np.linalg.eigh(1j * a_blocks)
    return w, q, wa, qa, adjoint(q)[:, :, : a_blocks.shape[-1]] @ qa


def _geodesic_columns(a_blocks, b_blocks, ts, mode: str, spectra=None) -> np.ndarray:
    """The evaluation kernel: first k columns of exp(t v) . blockdiag(exp(-t a), I).

    Stacked blocks (c, k, k) and (c, k, n-k); ``ts`` is 2-d and broadcasts to
    (c, T).  Returns (c, T, n, k).  Every k = 1 shape takes the V_{n,1}
    closed form, with no eigensolver; k >= 2 takes the spectral record
    ``_decompose`` gives, or ``spectra`` if the caller already holds it.
    No per-element validation (hot path for searches).
    """
    a_blocks = np.asarray(a_blocks, dtype=np.complex128)
    b_blocks = np.asarray(b_blocks, dtype=np.complex128)
    ts = np.asarray(ts, dtype=np.float64)
    k = b_blocks.shape[1]
    if k == 1:
        # the (c, 1) stack of rows b_blocks meets lam (c, 1) and ts (c, T)
        top, bottom = _vn1_column(a_blocks[:, :, 0].imag, b_blocks, ts)
        cols = np.concatenate([top[..., None], bottom], axis=-1)[..., None]
    else:
        w, q, wa, qa, c_mat = _decompose(a_blocks, b_blocks) if spectra is None else spectra
        c, n = w.shape
        # exp(t v)[:, :k] exp(-t a) = q (e^{-i t w_p} e^{i t wa_j} C_pj) qa*:
        # one (c, n, T, k) middle array, then two products per velocity
        tt = ts[:, None, :, None]
        mid = c_mat[:, :, None, :] * np.exp(-1j * tt * w[:, :, None, None])
        mid *= np.exp(1j * tt * wa[:, None, None, :])
        t_count = mid.shape[2]  # explicit sizes: numpy resolves no -1 on an empty stack
        cols = (q @ mid.reshape(c, n, t_count * k)).reshape(c, n * t_count, k) @ adjoint(qa)
        cols = cols.reshape(c, n, t_count, k).transpose(0, 2, 1, 3)
    return _field(cols, mode)


def _sinc_product(q, w, ts, right, rate: complex):
    """One Daleckii-Krein product, transposed: G (c, j, s, p) and its scale (c, p).

    G[j, s, p] = sum_r S_pr e_r q_jr right_rs with S_pr = sinc(t (w_p - w_r)
    / 2 pi) and e = exp(rate t w / 2), and the scale is rate t e.  So G
    times the scale along p is F . (q^T o right) with F the first divided
    differences of x -> exp(rate t x) at w, written as rate t e_p e_r S_pr:
    equal or close eigenvalues need no branch.  Stacked q (c, n, n), w
    (c, n), ts (c,), right (c, n, s).
    """
    c, n = w.shape
    half = np.exp((0.5 * rate) * ts[:, None] * w)
    factor = q[:, :, None, :] * np.swapaxes(half[:, :, None] * right, 1, 2)[:, None]
    sinc = np.sinc((0.5 / np.pi) * ts[:, None, None] * (w[:, :, None] - w[:, None, :]))
    g = factor.reshape(c, -1, n) @ sinc.astype(np.complex128)  # S is symmetric
    return g.reshape(factor.shape), (rate * ts[:, None]) * half


def _entry_sum(v, g, scale, rows, cols, coefs, out) -> None:
    """out[c, l, s, p] = sum_e coefs[l, e] conj(v[c, rows[l, e], p]) scale[c, p] g[c, cols[l, e], s, p]."""
    weights = coefs[:, :, None] * np.take(np.conj(v) * scale[:, None, :], rows, axis=1)
    np.multiply(weights[:, :, None, 0], np.take(g, cols[:, 0], axis=1), out=out)
    out += weights[:, :, None, 1] * np.take(g, cols[:, 1], axis=1)


def _eigenbasis_jacobian(ts, spectra, entries) -> np.ndarray:
    """The endpoint's derivatives along d fixed directions, in the eigenbasis of i v.

    ``spectra`` is the velocities' spectral record from ``_decompose`` (k >=
    1) and ``ts`` (c,) one time per velocity.  ``entries`` (rows, cols,
    coefs, f) lists each direction's generator i [[da, db], [-db*, 0]] by
    its nonzero entries: rows, columns and coefficients (d, 2), a one-entry
    direction repeating its entry with coefficient 0, and the number f of
    leading directions whose entries lie in the fibre block; no later
    direction has an entry there (``_LinearFamily.entries``).  Returns D (c,
    d, k, n) with D[:, l] the transpose of Q* dP along direction l: the
    refinement's J^T J and J^T r are Frobenius inner products, which the
    unitary Q* keeps, so nothing rotates back.  The refinement takes t = 1,
    where the velocity's own scale carries the time.

    With h = i v = Q diag(w) Q* and i a = Qa diag(wa) Qa*, the endpoint is
    P = L R with Q* L = e^{-i t w} o Q*[:, :k] and R = Qa (e^{i t wa} o
    Qa*).  Daleckii-Krein (Higham, Functions of Matrices, 2008, Thm 3.11):
    when h moves by a generator X, Q* dL R = (F o Q* X Q) W with W =
    Q*[:, :k] R and F the divided differences of exp(-i t x) at w.  Entry
    (p, s) of that is sum_ij X_ij conj(Q_ip) G[p, j, s] with one product G
    = F (Q^T o W) for every direction, so a direction takes one or two
    terms conj(Q[i, :]) o G[:, j], one per nonzero entry (i, j) of its
    generator.  R moves by Qa (Fa o Qa* X_a Qa) Qa* when i a moves by the
    top-left block X_a, which adds M Y with M = (Q* L) Qa = e^{-i t w} o C,
    C = Q*[:, :k] Qa, and Y = (Fa o Qa* X_a Qa) Qa*: the same sum in the
    fibre's eigenbasis, then one small product with M.  No n^2-entry
    sensitivity array and no eigh.
    """
    w, q, wa, qa, c_mat = spectra
    rows, cols, coefs, fibre = entries
    c, n = w.shape
    k = wa.shape[1]
    qa_h = adjoint(qa)
    out = np.empty((c, len(rows), k, n), dtype=np.complex128)
    phase_a = np.exp(1j * ts[:, None, None] * wa[:, None, :])
    g, scale = _sinc_product(q, w, ts, (c_mat * phase_a) @ qa_h, -1j)
    _entry_sum(q, g, scale, rows, cols, coefs, out)
    if fibre:
        m = np.exp(-1j * ts[:, None, None] * w[:, :, None]) * c_mat
        g, scale = _sinc_product(qa, wa, ts, qa_h, 1j)
        y = np.empty((c, fibre, k, k), dtype=np.complex128)
        _entry_sum(qa, g, scale, rows[:fibre], cols[:fibre], coefs[:fibre], y)
        out[:, :fibre] += (y.reshape(c, fibre * k, k) @ np.swapaxes(m, 1, 2)).reshape(c, fibre, k, n)
    return out


def _vn1_jacobian(lam, ts):
    """The unit-row V_{n,1} column's terms and their derivatives, eigensolver-free.

    At a unit transversal row b the column of (i lam, b) is (T, -conj(b) S)
    with T and S functions of the rate and the time only, so a k = 1
    target's top entry is two real equations in (lam, t).  Returns T,
    dT/dlam, dT/dt, s = sin(t omega) / omega, ds/dlam and cos(t omega);
    S = -dT/dt = phase s.  With g = omega d omega / d lam = lam / 4 the terms
    move in lam by d cos(t omega) = -t s g, ds = (t cos(t omega) - s) g /
    omega^2 and d phase = -i t / 2 . phase; in t, T moves by -phase s.
    omega^2 = lam^2 / 4 + 1 >= 1, so the cancellation in ds at small t omega
    costs only O(eps t) beside O(t) terms.  ``lam`` and ``ts`` broadcast
    together.
    """
    omega, cosw, sincw, phase = _vn1_terms(lam, 1.0, ts)
    g = 0.25 * lam
    inner = cosw + 0.5j * lam * sincw
    dcos = -ts * sincw * g
    dsinc = (ts * cosw - sincw) * g / omega**2
    dlam = phase * (-0.5j * ts * inner + dcos + 0.5j * (sincw + lam * dsinc))
    return phase * inner, dlam, -phase * sincw, sincw, dsinc, cosw


def _field(x: np.ndarray, mode: str) -> np.ndarray:
    """x itself in complex mode, its real part (as complex) in real mode."""
    return x.real.astype(np.complex128) if mode == REAL else x


def sample_curve(spec: GeodesicSpec, ts) -> np.ndarray:
    """Canonical columns of the geodesic at each time; shape (len(ts), n, k)."""
    v, ts = spec.v, np.atleast_1d(ts)
    return _geodesic_columns(v.a_block[None], v.b_block[None], ts[None], spec.mode)[0]


def batch_geodesic_columns(a_blocks, b_blocks, ts, mode: str = COMPLEX, spectra=None) -> np.ndarray:
    """Velocity i at time ts[i] for stacked blocks (c, k, k), (c, k, n-k); (c, n, k).

    ``spectra``: the velocities' spectral record from ``_decompose``, if
    the caller already holds it (k >= 2).
    """
    return _geodesic_columns(a_blocks, b_blocks, np.asarray(ts)[:, None], mode, spectra)[:, 0]


def normal_geodesic(spec: GeodesicSpec, t: float) -> StiefelPoint:
    """The geodesic point at time t (identity class at t = 0)."""
    return StiefelPoint(sample_curve(spec, [float(t)])[0], spec.mode)


# -- closed forms -------------------------------------------------------------


def _rate(x: float, b: np.ndarray) -> float:
    """sqrt(x^2 + 4 bb*), computed without squaring so tiny rates do not underflow."""
    return float(np.hypot.reduce(np.concatenate([[x], 2.0 * np.abs(b)])))


def geodesic_v21_closed(lam, x2, t):
    """Closed-form V_{2,1} geodesic; returns the four matrix entries.

    The entries assemble to the SU(2) element exp(tv) . diag(e^{-i lam t}, 1)
    for v = [[i lam, x2], [-conj(x2), 0]]: the first column, the canonical
    Stiefel representative, and the second that follows from it.  Arguments
    may be stacked arrays that broadcast together; this is the n = 2 case of
    ``geodesic_vn1_closed``, scalar calls included.
    """
    g1, g3 = geodesic_vn1_closed(lam, np.asarray(x2, complex)[..., None], t)
    g3 = np.take(g3, 0, axis=-1)  # a scalar call keeps numpy scalars
    g2, g4 = -np.conj(g3), np.conj(g1)
    return g1, g2, g3, g4


def geodesic_vn1_closed(x, b, t):
    """Closed-form V_{n,1} geodesic: first column (scalar, length-(n-1) vector).

    ``x`` is the fibre rate (the k=1 block is i x) and ``b`` the transversal
    row; stacked rates and times broadcast with the stack of rows (..., n-1).
    The column satisfies |g1|^2 + ||g3||^2 = 1.
    """
    x, b, t = np.asarray(x, float), np.asarray(b, complex), np.asarray(t, float)
    if x.ndim + t.ndim + b.ndim == 1:
        # run as a stack of one: numpy's 0-d loops round differently from its
        # vector loops, and a scalar call should equal its entry of a stacked call
        return tuple(g[0] for g in _vn1_column(x[None], b[None], t[None]))
    return _vn1_column(x, b, t)


def first_vanishing_time(x: float, b) -> float:
    """First time the V_{n,1} transversal column vanishes: 2 pi / sqrt(x^2 + 4 bb*).

    At this time the geodesic meets the block-diagonal set, an upper bound for
    the loss of optimality.
    """
    s = _rate(float(x), np.asarray(b, dtype=np.complex128).reshape(-1))
    if s == 0.0:
        raise ValueError("zero velocity has no vanishing time")
    return 2.0 * np.pi / s


def grassmann_geodesic_2kk(b, t):
    """Square-block Grassmann geodesic: (cos(t r), -b* sin(t r) r^{-1}) with r = sqrt(bb*).

    Both blocks are k x k; singular b is fine (the sin(x)/x limit is taken
    spectrally).  Together they are the corner blocks of exp of the embedded
    horizontal velocity in the 2k x 2k group.  ``b`` may be a stack
    (..., k, k) whose times ``t`` broadcast with it, from one batched SVD: one
    block and an array of times give blocks stacked along the times' shape.
    """
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim < 2 or b.shape[-2] != b.shape[-1]:
        raise ValueError(f"expected a square block, got {b.shape}")
    u, sig, wh = np.linalg.svd(b)
    t, sig = np.asarray(t, dtype=np.float64)[..., None, None], sig[..., None, :]
    g1 = (u * np.cos(t * sig)) @ adjoint(u)
    g3 = -adjoint(b) @ (u * _sin_over(t, sig)) @ adjoint(u)
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
