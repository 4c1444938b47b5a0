"""Lie-bracket machinery for the horizontal distribution.

V(n,k) is a principal U(k)-bundle (O(k) in real mode) over the Grassmannian:
each tangent space splits into horizontal b blocks and vertical a blocks, and
brackets of horizontal vectors are vertical.  Ranks count real dimensions in
that splitting: a vector is a row of its ``stiefel_tangent_dim`` coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import COMPLEX, REAL
from .homspace import BlockVelocity, _embed_velocities, _Record

_RANK_RTOL = 1e-8


@dataclass(frozen=True)
class BracketReport(_Record):
    n: int
    k: int
    mode: str
    dim_h: int
    dim_h_plus_brackets: int
    target_dim: int
    generating: bool


def lie_bracket(x, y, mode: str = COMPLEX) -> np.ndarray:
    """Commutator [X, Y] = XY - YX of two skew-Hermitian matrices."""
    a = matcore.check_skew_hermitian(x, mode)
    b = matcore.check_skew_hermitian(y, mode)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def stiefel_tangent_dim(n: int, k: int, mode: str = COMPLEX) -> int:
    """Real dimension of the Stiefel tangent space: 2nk - k^2, or nk - k(k+1)/2."""
    matcore.check_mode(mode)
    if mode == COMPLEX:
        return 2 * n * k - k * k
    return n * k - k * (k + 1) // 2


def horizontal_dim(n: int, k: int, mode: str = COMPLEX) -> int:
    """Real dimension of the horizontal distribution: 2k(n-k), or k(n-k)."""
    matcore.check_mode(mode)
    return (2 if mode == COMPLEX else 1) * k * (n - k)


def _horizontal_blocks(n: int, k: int, mode: str) -> np.ndarray:
    """The horizontal basis as (d, k, n-k) b blocks, with no value objects built."""
    matcore.check_mode(mode)
    units = np.array([1.0] if mode == REAL else [1.0, 1j])
    return (np.eye(k * (n - k))[:, None, :] * units[:, None]).reshape(-1, k, n - k)


def _horizontal_embeds(n: int, k: int, mode: str) -> np.ndarray:
    """The horizontal basis embedded as (d, n, n) matrices."""
    b = _horizontal_blocks(n, k, mode)
    return _embed_velocities(np.zeros((len(b), k, k)), b)


def horizontal_basis(n: int, k: int, mode: str = COMPLEX) -> list[BlockVelocity]:
    """Real basis of the horizontal space: one b-block entry at a time (and i times it)."""
    return [BlockVelocity(e[:k, :k], e[:k, k:], mode) for e in _horizontal_embeds(n, k, mode)]


def _span_rank(basis, left, right, k: int, mode: str):
    """Real rank of the span of horizontal vectors ``basis`` and the brackets ``[left, right]``.

    Each argument stacks horizontal vectors as k x (n-k) b blocks or as n x n
    embeds (whose b block is read).  Brackets pair up along the last stacking
    axis; axes before it are sample axes, broadcast between the arguments,
    and each sample's span is ranked on its own (one batched SVD, the
    relative rule of ``_RANK_RTOL`` per sample).  A row holds a vector's
    coordinates in the horizontal + vertical splitting, re parts then im
    parts in complex mode: a basis vector's b block, or for B, C the b blocks
    of left, right the bracket's vertical part C B* - B C*, as its strict
    upper triangle and (complex mode) its diagonal's im parts over sqrt(2).
    That frame is orthonormal for half the Frobenius product of the embeds'
    entries outside the lower-right block, so the relative rule counts the
    rank those entries give.  Rows that are zero or repeat an earlier row in
    every sample add nothing to any span; they are dropped before the SVD.
    """

    def real(x):
        return np.concatenate([x.real, x.imag], axis=-1) if mode == COMPLEX else x.real

    b, lb, rb = (x if x.shape[-2] == k else x[..., :k, k:] for x in (basis, left, right))
    cb = lb @ np.conj(np.swapaxes(rb, -1, -2))  # C B* - B C* is cb* - cb
    p, q = np.triu_indices(k, 1)
    blocks = [real(b.reshape(*b.shape[:-2], -1)), real(np.conj(cb[..., q, p]) - cb[..., p, q])]
    if mode == COMPLEX:  # the diagonal of cb* - cb is -2i Im(cb)
        blocks[1] = np.concatenate([blocks[1], -np.sqrt(2) * np.diagonal(cb, 0, -2, -1).imag], -1)
    (h, dh), (v, dv) = (x.shape[-2:] for x in blocks)
    rows = np.zeros(np.broadcast_shapes(*(x.shape[:-2] for x in blocks)) + (h + v, dh + dv))
    rows[..., :h, :dh], rows[..., h:, dh:] = blocks
    nonzero = np.flatnonzero(rows.any(axis=-1).reshape(-1, rows.shape[-2]).any(axis=0))
    distinct = list({rows[..., i, :].tobytes(): i for i in nonzero}.values())
    s = np.linalg.svd(rows[..., distinct, :], compute_uv=False)
    return np.sum(s > _RANK_RTOL * s[..., :1], axis=-1)


def bracket_generating_rank(n: int, k: int, mode: str = COMPLEX) -> BracketReport:
    """Rank test: do horizontal directions plus their first brackets span the tangent space?

    Builds the real span of all horizontal basis blocks together with the
    vertical brackets of every basis pair, formed from the b blocks alone,
    and compares its rank against the full tangent dimension.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    basis = _horizontal_blocks(n, k, mode)
    i, j = np.triu_indices(len(basis), 1)
    rank = int(_span_rank(basis, basis[i], basis[j], k, mode))
    target = stiefel_tangent_dim(n, k, mode)
    return BracketReport(
        n=n,
        k=k,
        mode=mode,
        dim_h=horizontal_dim(n, k, mode),
        dim_h_plus_brackets=rank,
        target_dim=target,
        generating=rank == target,
    )


def strongly_bracket_check_vn1(n: int, samples: int = 100, seed: int = 0) -> bool:
    """Check the strong bracket-generating property of V_{n,1} by sampling.

    For each nonzero horizontal row b, the span of the horizontal space and
    the brackets of the b-section with the horizontal basis must already be
    the whole (2n-1)-dimensional tangent space.  Near-zero draws are rejected
    as zero sections and replaced, never counted.  A count below 1 raises
    rather than pass with nothing checked.

    The rows are drawn as ``matcore.random_matrix`` draws them one at a time
    (real parts, then imaginary parts), one batch per count still needed, so
    a passing check leaves the generator where a per-sample loop would.  One
    ``_span_rank`` call ranks every sample's span with one batched SVD, in
    O(samples * n^2) memory.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    basis = _horizontal_blocks(n, 1, COMPLEX)
    rows = np.empty((0, n - 1), dtype=np.complex128)
    while len(rows) < samples:
        draws = rng.standard_normal((samples - len(rows), 2, n - 1))
        kept = draws[np.linalg.norm(draws, axis=(1, 2)) > 1e-12]  # zero sections: not counted
        rows = np.concatenate([rows, kept[:, 0] + 1j * kept[:, 1]])
    ranks = _span_rank(basis, rows[:, None, None, :], basis, 1, COMPLEX)
    return bool(np.all(ranks == stiefel_tangent_dim(n, 1, COMPLEX)))


@dataclass(frozen=True)
class MontgomeryReport(_Record):
    condition1: bool  # distribution dimension is a multiple of 4
    condition2: bool  # distribution dimension >= codimension + 1
    possible: bool


def montgomery_condition(m: int, l: int) -> MontgomeryReport:
    """Dimension obstruction for strongly bracket-generating distributions.

    An l-dimensional strongly bracket-generating distribution on an
    m-dimensional manifold with codimension >= 2 requires l to be a multiple
    of 4 or l >= (m - l) + 1; ``possible`` is the disjunction.  Codimension
    below 2 is outside the statement's scope and raises.
    """
    if not 0 < l < m:
        raise ValueError(f"need 0 < l < m, got m={m}, l={l}")
    if m - l < 2:
        raise ValueError(f"codimension {m - l} < 2 is outside the obstruction's scope")
    c1 = l % 4 == 0
    c2 = l >= (m - l) + 1
    return MontgomeryReport(condition1=c1, condition2=c2, possible=c1 or c2)
