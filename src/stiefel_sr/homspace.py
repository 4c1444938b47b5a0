"""Homogeneous-space data model for Stiefel and Grassmann manifolds.

A Stiefel point is the canonical representative of an equivalence class of
unitary matrices that agree in their first k columns: we store exactly those
n x k column-orthonormal columns, so class equality is an entrywise
comparison.  A Grassmann point is stored basis-free as its rank-k Hermitian
projector.  Tangent vectors at the identity class carry the block structure

    [[ a,       b ],
     [ -b*,     0 ]]

with ``a`` a k x k skew-Hermitian fibre (vertical) component and ``b`` a
k x (n-k) transversal component; the horizontal distribution is ``a = 0``.

In real mode the Grassmann quotient group is O(k) x SO(n-k) with coupled
determinants; the projector representation absorbs that automatically, so no
extra logic is needed here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import matcore, tolerances
from .matcore import COMPLEX, REAL, InvariantViolation, adjoint


class _Record:
    """JSON for a dataclass report record: every field under its name, in field order.

    A value with its own ``to_json_dict`` (a matrix value or a nested record)
    is written through it, a tuple as a list of items written by this same
    rule, and any other value unchanged.
    """

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(value):
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def _matrix_json(value, matrix: np.ndarray) -> dict:
    """A matrix value's record: its n, k and mode, then ``matrix`` as real and imaginary rows."""
    return {
        "n": value.n, "k": value.k, "mode": value.mode,
        "re": [[float(v) for v in row] for row in matrix.real],
        "im": [[float(v) for v in row] for row in matrix.imag],
    }


def _matrix_from_json(d: dict, square: bool) -> tuple[np.ndarray, int, str]:
    """A ``_matrix_json`` record's matrix, checked to be n x n (``square``) or n x k for the
    record's n and k, with the record's k and mode."""
    n, k, mode = int(d["n"]), int(d["k"]), str(d["mode"])
    re = np.array(d["re"], dtype=np.float64)
    im = np.array(d["im"], dtype=np.float64)
    shape = (n, n) if square else (n, k)
    if re.shape != shape or im.shape != shape:
        raise ValueError(f"matrix blocks are {re.shape} and {im.shape}, expected {shape}")
    return re + 1j * im, k, mode


def _embed_velocities(a_blocks: np.ndarray, b_blocks: np.ndarray) -> np.ndarray:
    """Stacked [[a, b], [-b*, 0]] for blocks (..., k, k) and (..., k, n-k)."""
    k, m = b_blocks.shape[-2:]
    full = np.zeros(b_blocks.shape[:-2] + (k + m, k + m), dtype=np.complex128)
    full[..., :k, :k] = a_blocks
    full[..., :k, k:] = b_blocks
    full[..., k:, :k] = -adjoint(b_blocks)
    return full


@dataclass(frozen=True, eq=False)
class BlockVelocity:
    """Tangent vector at the identity class of the Stiefel manifold V_{n,k}."""

    a_block: np.ndarray  # (k, k) skew-Hermitian, fibre direction
    b_block: np.ndarray  # (k, n-k), transversal direction
    mode: str = COMPLEX

    def __post_init__(self):
        a, b = _checked_blocks(self.a_block, self.b_block, self.mode, stacked=False)
        object.__setattr__(self, "a_block", a)
        object.__setattr__(self, "b_block", b)

    @property
    def k(self) -> int:
        return self.a_block.shape[0]

    @property
    def n(self) -> int:
        return self.k + self.b_block.shape[1]

    def embed(self) -> np.ndarray:
        """The full n x n skew-Hermitian matrix [[a, b], [-b*, 0]]."""
        return _embed_velocities(self.a_block, self.b_block)

    def is_horizontal(self) -> bool:
        return float(np.max(np.abs(self.a_block))) <= tolerances.TOL.sym if self.k else True

    def to_json_dict(self) -> dict:
        return _matrix_json(self, self.embed())

    @classmethod
    def from_json_dict(cls, d: dict) -> "BlockVelocity":
        full, k, mode = _matrix_from_json(d, square=True)
        vertical, horizontal = split_tangent(full, k, mode)  # checks the whole matrix
        return cls(vertical.a_block, horizontal.b_block, mode)


def _checked_blocks(a_blocks, b_blocks, mode: str, stacked: bool):
    """``BlockVelocity``'s checks of its blocks, or with ``stacked`` of stacks (c, k, k), (c, k, n-k).

    The fibre blocks must be skew-Hermitian and the transversal blocks
    finite, each real-mode block free of an imaginary residue, and a's and
    b's rows (and stack lengths) must agree.  Returns both as read-only
    complex arrays; a stack's worst member sets the message, so a stack with
    one bad member raises what that member's ``BlockVelocity`` raises.
    """
    a = matcore._check_skew_hermitian(a_blocks, mode, stacked)
    b = matcore._as_matrices(b_blocks, mode, stacked)
    if b.shape[:-1] != a.shape[:-1]:
        raise ValueError(f"block row mismatch: a is {a.shape[-2:]}, b is {b.shape[-2:]}")
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _block_velocities(a_blocks, b_blocks, mode: str) -> list[BlockVelocity]:
    """``BlockVelocity(a, b, mode)`` for each pair of stacked blocks, from one check of the stacks.

    Each velocity holds read-only views of the checked stacks, equal byte for
    byte to the blocks its own constructor would store.
    """
    a, b = _checked_blocks(a_blocks, b_blocks, mode, stacked=True)
    out = []
    for a_block, b_block in zip(a, b):
        v = object.__new__(BlockVelocity)
        object.__setattr__(v, "a_block", a_block)
        object.__setattr__(v, "b_block", b_block)
        object.__setattr__(v, "mode", mode)
        out.append(v)
    return out


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """Canonical representative of a point of V_{n,k}: n x k orthonormal columns."""

    cols: np.ndarray
    mode: str = COMPLEX

    def __post_init__(self):
        c = matcore.as_matrix(self.cols, self.mode)
        n, k = c.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got shape {c.shape}")
        dev = float(np.max(np.abs(adjoint(c) @ c - np.eye(k))))
        if dev > tolerances.TOL.unit:
            raise InvariantViolation(
                f"columns deviate from orthonormality by {dev:.3e}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "cols", c)

    @property
    def n(self) -> int:
        return self.cols.shape[0]

    @property
    def k(self) -> int:
        return self.cols.shape[1]

    def same_class(self, other: "StiefelPoint") -> bool:
        """Entrywise class equality at the canonical-representative tolerance."""
        if (self.n, self.k, self.mode) != (other.n, other.k, other.mode):
            return False
        return float(np.max(np.abs(self.cols - other.cols))) <= tolerances.TOL.eq

    def is_identity_class(self) -> bool:
        return float(np.max(np.abs(self.cols - np.eye(self.n, self.k)))) <= tolerances.TOL.eq

    def right_multiply(self, u) -> "StiefelPoint":
        """Act by an element of the fibre group U(k) (O(k)-compatible in real mode)."""
        u = matcore.as_matrix(u, self.mode)
        if u.shape != (self.k, self.k):
            raise ValueError(f"expected a {self.k} x {self.k} factor, got {u.shape}")
        dev = float(np.max(np.abs(adjoint(u) @ u - np.eye(self.k))))
        if dev > tolerances.TOL.unit:
            raise InvariantViolation(f"fibre factor deviates from unitarity by {dev:.3e}")
        return StiefelPoint(self.cols @ u, self.mode)

    def to_json_dict(self) -> dict:
        return _matrix_json(self, self.cols)

    @classmethod
    def from_json_dict(cls, d: dict) -> "StiefelPoint":
        cols, _, mode = _matrix_from_json(d, square=False)
        return cls(cols, mode)


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """Point of G_{n,k} stored as its rank-k Hermitian projector."""

    projector: np.ndarray
    k: int
    mode: str = COMPLEX

    def __post_init__(self):
        p = matcore.as_matrix(self.projector, self.mode)
        n, m = p.shape
        if n != m:
            raise ValueError(f"projector must be square, got {p.shape}")
        herm = float(np.max(np.abs(p - adjoint(p))))
        if herm > tolerances.TOL.unit:
            raise InvariantViolation(f"projector deviates from Hermitian by {herm:.3e}")
        idem = float(np.max(np.abs(p @ p - p)))
        if idem > tolerances.TOL.eq:
            raise InvariantViolation(f"projector deviates from idempotency by {idem:.3e}")
        tr = float(np.trace(p).real)
        if abs(tr - self.k) > tolerances.TOL.eq * max(1, n):
            raise InvariantViolation(f"projector trace {tr} != rank {self.k}")
        p.setflags(write=False)
        object.__setattr__(self, "projector", p)

    @property
    def n(self) -> int:
        return self.projector.shape[0]

    def same_class(self, other: "GrassmannPoint") -> bool:
        if (self.n, self.k, self.mode) != (other.n, other.k, other.mode):
            return False
        return float(np.max(np.abs(self.projector - other.projector))) <= tolerances.TOL.eq

    def to_json_dict(self) -> dict:
        return _matrix_json(self, self.projector)

    @classmethod
    def from_json_dict(cls, d: dict) -> "GrassmannPoint":
        return cls(*_matrix_from_json(d, square=True))


def identity_point(n: int, k: int, mode: str = COMPLEX) -> StiefelPoint:
    """The identity class: first k columns of the identity matrix."""
    return StiefelPoint(np.eye(n, k, dtype=np.complex128), mode)


def canonicalize(q, k: int, mode: str = COMPLEX) -> StiefelPoint:
    """Canonical Stiefel representative of a group element: its first k columns."""
    a = matcore.check_unitary(q, mode)
    if not 1 <= k <= a.shape[0]:
        raise ValueError(f"k={k} out of range for n={a.shape[0]}")
    return StiefelPoint(a[:, :k], mode)


def complete_to_group(p: StiefelPoint) -> np.ndarray:
    """Extend the canonical columns to a full group element (det +1 in real mode).

    The added columns are one choice of orthonormal complement; any other
    choice represents the same Stiefel class.
    """
    n, k = p.n, p.k
    full_q, _ = np.linalg.qr(p.cols, mode="complete")
    tail = full_q[:, k:]
    out = np.hstack([p.cols, tail])
    if p.mode == REAL and k < n:
        if np.linalg.det(out.real) < 0:
            out = out.copy()
            out[:, -1] = -out[:, -1]
    return out


def project_to_grassmann(p: StiefelPoint) -> GrassmannPoint:
    """Bundle projection to the Grassmannian: the span of the columns.

    Invariant under the right fibre action p -> p u, u in U(k).
    """
    return GrassmannPoint(p.cols @ adjoint(p.cols), p.k, p.mode)


def split_tangent(v, k: int, mode: str = COMPLEX) -> tuple[BlockVelocity, BlockVelocity]:
    """Split an n x n tangent matrix into vertical and horizontal parts.

    The input must be skew-Hermitian with vanishing lower-right block (i.e.
    tangent to the Stiefel manifold at the identity class).  Returns
    (vertical, horizontal) with ``vertical.b_block = 0`` and
    ``horizontal.a_block = 0``; the two embeddings sum back to the input.
    """
    a = matcore.check_skew_hermitian(v, mode)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    tail = a[k:, k:]
    dev = float(np.max(np.abs(tail))) if tail.size else 0.0
    if dev > tolerances.TOL.sym:
        raise ValueError(
            f"lower-right block has norm {dev:.3e}: not tangent to the Stiefel manifold"
        )
    vertical = BlockVelocity(a[:k, :k], np.zeros((k, n - k)), mode)
    horizontal = BlockVelocity(np.zeros((k, k)), a[:k, k:], mode)
    return vertical, horizontal


def connection_form(v: BlockVelocity) -> np.ndarray:
    """Fibre-algebra-valued connection one-form: the vertical component of v.

    Kernel = horizontal vectors; restricted to fibre directions it is the
    identity on the fibre Lie algebra.
    """
    return np.array(v.a_block)


def metric(v: BlockVelocity, w: BlockVelocity) -> float:
    """Inner product of two tangent vectors at a Stiefel point.

    Representative-independent (the underlying group metric is bi-invariant
    for the fibre action), so no base point argument is needed.
    """
    if (v.n, v.k) != (w.n, w.k) or v.mode != w.mode:
        raise ValueError("metric arguments must share dimensions and mode")
    return matcore.trace_inner(v.embed(), w.embed(), matcore.scale_mode_for(v.mode))
