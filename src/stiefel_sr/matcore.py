"""Field-generic dense matrix core.

Everything downstream works with square complex ``numpy`` arrays.  The real
case (matrices over R, embedded in SO(n)) is carried in the same complex
container with identically zero imaginary parts, selected by the ``mode``
argument — one code path serves both fields.

Provided here: structural validation (skew-Hermitian, unitary), the scaled
trace inner product on the skew-Hermitian algebra, and the matrix exponential
and eigendecomposition of skew-Hermitian matrices via a Hermitian eigensolver
(exponentiating ``X`` through ``eigh(iX)`` keeps the result unitary up to
eigensolver accuracy).
"""

from __future__ import annotations

import numpy as np

from . import tolerances

COMPLEX = "complex"
REAL = "real"
MODES = (COMPLEX, REAL)

# trace_inner scalings: -2n*tr(XY) on u(n), -tr(XY) on so(n)
SCALE_COMPLEX_2N = "complex_2n"
SCALE_REAL_1 = "real_1"
SCALE_MODES = (SCALE_COMPLEX_2N, SCALE_REAL_1)


class InvariantViolation(ValueError):
    """A matrix failed one of its structural invariants."""


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown field mode {mode!r}; expected one of {MODES}")
    return mode


def scale_mode_for(mode: str) -> str:
    """The trace_inner scaling that matches a field mode."""
    check_mode(mode)
    return SCALE_COMPLEX_2N if mode == COMPLEX else SCALE_REAL_1


def as_matrix(x, mode: str = COMPLEX) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array; zero the imaginary part in real mode.

    Raises InvariantViolation on NaN/Inf entries or on a real-mode matrix whose
    imaginary residue exceeds the symmetry tolerance.
    """
    return _as_matrices(x, mode, stacked=False)


def _as_matrices(x, mode: str, stacked: bool) -> np.ndarray:
    """``as_matrix``; with ``stacked``, also a stack (..., r, c) whose every member it checks."""
    check_mode(mode)
    a = np.array(x, dtype=np.complex128)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise InvariantViolation("matrix has non-finite entries")
    if mode == REAL:
        imag_max = float(np.max(np.abs(a.imag))) if a.size else 0.0
        if imag_max > tolerances.TOL.sym:
            raise InvariantViolation(
                f"real-mode matrix has imaginary residue {imag_max:.3e}"
            )
        a = a.real.astype(np.complex128)
    return a


def adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(x, -1, -2))


def check_skew_hermitian(x, mode: str = COMPLEX) -> np.ndarray:
    """Validate X = -X* (and a zero diagonal in real mode); return the array."""
    return _check_skew_hermitian(x, mode, stacked=False)


def _check_skew_hermitian(x, mode: str, stacked: bool) -> np.ndarray:
    """``check_skew_hermitian``; with ``stacked``, also of every member of a stack (..., n, n)."""
    a = _as_matrices(x, mode, stacked)
    n, m = a.shape[-2:]
    if n != m:
        raise ValueError(f"skew-Hermitian matrix must be square, got {a.shape}")
    dev = float(np.max(np.abs(a + adjoint(a)))) if a.size else 0.0
    if dev > tolerances.TOL.sym:
        raise InvariantViolation(f"matrix deviates from skew symmetry by {dev:.3e}")
    return a


def check_unitary(q, mode: str = COMPLEX) -> np.ndarray:
    """Validate Q*Q = I (and det = +1 in real mode); return the array."""
    unit = tolerances.TOL.unit
    a = as_matrix(q, mode)
    n, m = a.shape
    if n != m:
        raise ValueError(f"unitary matrix must be square, got {a.shape}")
    dev = float(np.max(np.abs(adjoint(a) @ a - np.eye(n))))
    if dev > unit:
        raise InvariantViolation(f"matrix deviates from unitarity by {dev:.3e}")
    if mode == REAL:
        det = np.linalg.det(a.real)
        if abs(det - 1.0) > max(unit, 64 * n * np.finfo(float).eps):
            raise InvariantViolation(f"real-mode determinant {det} != +1")
    return a


def trace_inner(x, y, scale_mode: str) -> float:
    """Scaled inner product of two same-size skew-Hermitian matrices.

    ``complex_2n`` returns -2n*Re tr(XY); ``real_1`` returns -tr(XY) and
    requires real entries.  Symmetric in its arguments and positive definite.
    """
    if scale_mode not in SCALE_MODES:
        raise ValueError(f"unknown scale mode {scale_mode!r}; expected one of {SCALE_MODES}")
    mode = REAL if scale_mode == SCALE_REAL_1 else COMPLEX
    try:
        a = check_skew_hermitian(x, mode)
        b = check_skew_hermitian(y, mode)
    except InvariantViolation as err:
        raise InvariantViolation(f"trace_inner mode mismatch or bad input: {err}") from err
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    t = float(np.trace(a @ b).real)
    scale = 2 * a.shape[0] if scale_mode == SCALE_COMPLEX_2N else 1
    return -scale * t


def eig_skew(x, mode: str = COMPLEX):
    """Eigendecomposition X = V diag(w) V* of a skew-Hermitian matrix.

    Returns purely imaginary eigenvalues sorted by descending imaginary part
    and a unitary eigenvector matrix.  Output is deterministic: ties follow the
    eigensolver order and each eigenvector's first significantly nonzero
    component is rotated to be real positive.
    """
    a = check_skew_hermitian(x, mode)
    w, v = np.linalg.eigh(1j * a)  # iX is Hermitian; X has eigenvalues -i*w
    order = np.argsort(w, kind="stable")  # ascending w == descending Im(-i w)
    w = w[order]
    v = v[:, order]
    vals = -1j * w
    # phase fixing for deterministic columns
    for j in range(v.shape[1]):
        col = v[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())
        lead = col[idx[0]]
        v[:, j] = col * (np.conj(lead) / abs(lead))
    return vals, v


def expm_skew(x, t=1.0, mode: str = COMPLEX) -> np.ndarray:
    """exp(tX) for skew-Hermitian X, computed spectrally.

    X may be a stack (..., n, n), every member validated, with times ``t``
    broadcasting over the stack; one batched eigh serves it all.  A member at
    t = 0 gives the identity exactly.  In real mode the result is an SO(n)
    element stored with zero imaginary part.
    """
    a = _check_skew_hermitian(x, mode, stacked=True)
    t = np.asarray(t, dtype=np.float64)
    eye = np.eye(a.shape[-1], dtype=np.complex128)
    at_zero = t == 0.0
    if np.all(at_zero):
        return np.broadcast_to(eye, np.broadcast_shapes(a.shape, t.shape + (1, 1))).copy()
    w, v = np.linalg.eigh(1j * a)
    out = (v * np.exp(-1j * t[..., None] * w)[..., None, :]) @ adjoint(v)
    if np.any(at_zero):
        out = np.where(at_zero[..., None, None], eye, out)
    if mode == REAL:
        out = out.real.astype(np.complex128)
    return out


# -- random element helpers (shared by sampling-based checks and tests) ------


def random_matrix(rng: np.random.Generator, rows: int, cols: int, mode: str = COMPLEX) -> np.ndarray:
    check_mode(mode)
    a = rng.standard_normal((rows, cols))
    if mode == COMPLEX:
        a = a + 1j * rng.standard_normal((rows, cols))
    return a.astype(np.complex128)


def random_skew_hermitian(rng: np.random.Generator, n: int, mode: str = COMPLEX) -> np.ndarray:
    a = random_matrix(rng, n, n, mode)
    return (a - adjoint(a)) / 2.0


def random_unitary(rng: np.random.Generator, n: int, mode: str = COMPLEX) -> np.ndarray:
    """Haar-distributed element of U(n) (or SO(n) in real mode)."""
    a = random_matrix(rng, n, n, mode)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    if mode == REAL:
        q = q.real
        if np.linalg.det(q) < 0:
            q = q.copy()
            q[:, 0] = -q[:, 0]
        q = q.astype(np.complex128)
    return q

