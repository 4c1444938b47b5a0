"""Lie-bracket machinery for the horizontal distribution.

Rank computations treat a complex matrix as a real vector (real and imaginary
parts stacked), because the dimensions being compared are real dimensions.
Brackets of horizontal vectors land in the block-diagonal part; the lower
right block is tangent to the directions quotiented away by the Stiefel
equivalence, so it is projected out before counting dimensions.
"""

from __future__ import annotations

import itertools
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


def _horizontal_embeds(n: int, k: int, mode: str) -> np.ndarray:
    """The horizontal basis embedded as (d, n, n) matrices, with no value objects built."""
    matcore.check_mode(mode)
    units = [1.0] if mode == REAL else [1.0, 1j]
    entries = list(itertools.product(range(k), range(n - k), units))
    b = np.zeros((len(entries), k, n - k), dtype=np.complex128)
    for i, (p, q, unit) in enumerate(entries):
        b[i, p, q] = unit
    return _embed_velocities(np.zeros((len(b), k, k)), b)


def horizontal_basis(n: int, k: int, mode: str = COMPLEX) -> list[BlockVelocity]:
    """Real basis of the horizontal space: one b-block entry at a time (and i times it)."""
    return [BlockVelocity(e[:k, :k], e[:k, k:], mode) for e in _horizontal_embeds(n, k, mode)]


def _span_rank(basis, left, right, k: int, mode: str) -> int:
    """Real rank of the span of ``basis`` and the brackets ``[left, right]``.

    Brackets are taken pairwise along the leading axis (broadcast), the
    lower-right block of every matrix is zeroed (projection to the Stiefel
    tangent space) and each matrix is one real row (re parts, then im parts
    in complex mode).  Zero and exactly repeated rows add nothing to the
    span, so they are dropped before the SVD.
    """
    mats = np.concatenate([basis, left @ right - right @ left])
    mats[:, k:, k:] = 0.0
    flat = mats.reshape(len(mats), -1)
    rows = np.concatenate([flat.real, flat.imag], axis=1) if mode == COMPLEX else flat.real
    rows = rows[rows.any(axis=1)]
    if len(rows) == 0:
        return 0
    distinct = np.array(list({row.tobytes(): row for row in rows}.values()))
    s = np.linalg.svd(distinct, compute_uv=False)
    return int(np.sum(s > _RANK_RTOL * s[0]))


def bracket_generating_rank(n: int, k: int, mode: str = COMPLEX) -> BracketReport:
    """Rank test: do horizontal directions plus their first brackets span the tangent space?

    Builds the real span of all horizontal basis blocks together with the
    brackets of every basis pair (projected to the Stiefel tangent space) and
    compares its rank against the full tangent dimension.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    basis = _horizontal_embeds(n, k, mode)
    i, j = np.triu_indices(len(basis), 1)
    rank = _span_rank(basis, basis[i], basis[j], k, mode)
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
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    basis = _horizontal_embeds(n, 1, COMPLEX)
    target = stiefel_tangent_dim(n, 1, COMPLEX)

    checked = 0
    while checked < samples:
        b = matcore.random_matrix(rng, 1, n - 1, COMPLEX)
        if float(np.linalg.norm(b)) <= 1e-12:
            continue  # zero section: rejected, not counted
        z = _embed_velocities(np.zeros((1, 1)), b)
        if _span_rank(basis, z, basis, 1, COMPLEX) != target:
            return False
        checked += 1
    return True


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
