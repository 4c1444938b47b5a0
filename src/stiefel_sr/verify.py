"""Closed-form verification suites.

Each suite draws random inputs, evaluates a closed-form geodesic and the
matrix exponential of the embedded velocity (``matcore.expm_skew``; not the
geodesic evaluator, which itself runs the V_{2,1} closed form) on the same
data, and reports the worst discrepancy.  The v21 suite accepts a deliberate
phase-misgrouping flag so the harness can demonstrate that the comparison
actually bites.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .matcore import COMPLEX, adjoint
from .homspace import BlockVelocity
from .geodesic import geodesic_v21_closed, geodesic_vn1_closed, grassmann_geodesic_2kk


def _suite_result(name: str, trials: int, max_error: float, tol: float) -> dict:
    return {
        "suite": name,
        "trials": trials,
        "max_error": max_error,
        "pass": bool(trials == 0 or max_error < tol),
    }


def v21_suite(trials: int = 1000, seed: int = 0, sign_flip: bool = False, tol: float = 1e-9) -> dict:
    """All four closed-form V_{2,1} entries against exp(tv) . diag(e^{-i lam t}, 1)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        lam = rng.uniform(-3.0, 3.0)
        x2 = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 2.0 * np.pi)
        v = np.array([[1j * lam, x2], [-np.conj(x2), 0.0]])
        full = matcore.expm_skew(v, t) @ np.diag([np.exp(-1j * lam * t), 1.0])
        g1, g2, g3, g4 = geodesic_v21_closed(lam, x2, t, sign_flip=sign_flip)
        closed = np.array([[g1, g2], [g3, g4]])
        worst = max(worst, float(np.max(np.abs(closed - full))))
    return _suite_result("v21", trials, worst, tol)


def vn1_suite(trials: int = 1000, seed: int = 1, max_n: int = 8, tol: float = 1e-9) -> dict:
    """Closed-form V_{n,1} first column against exp(tv) . blockdiag(e^{-i x t}, I)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, max_n + 1))
        x = rng.uniform(-3.0, 3.0)
        row = matcore.random_matrix(rng, 1, n - 1, COMPLEX)
        t = rng.uniform(0.0, 2.0 * np.pi)
        v = BlockVelocity(np.array([[1j * x]]), row, COMPLEX).embed()
        cols = matcore.expm_skew(v, t)[:, :1] * np.exp(-1j * x * t)
        g1, g3 = geodesic_vn1_closed(x, row.reshape(-1), t)
        closed = np.concatenate([[g1], g3]).reshape(-1, 1)
        worst = max(worst, float(np.max(np.abs(closed - cols))))
    return _suite_result("vn1", trials, worst, tol)


def grassmann_2kk_suite(trials: int = 1000, seed: int = 2, max_k: int = 4, tol: float = 1e-9) -> dict:
    """Square-block Grassmann closed form against exp of the embedded velocity."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(1, max_k + 1))
        b = matcore.random_matrix(rng, k, k, COMPLEX)
        t = rng.uniform(0.0, 2.0 * np.pi)
        full = np.zeros((2 * k, 2 * k), dtype=np.complex128)
        full[:k, k:] = b
        full[k:, :k] = -adjoint(b)
        e = matcore.expm_skew(full, t)
        g1, g3 = grassmann_geodesic_2kk(b, t)
        worst = max(
            worst,
            float(np.max(np.abs(g1 - e[:k, :k]))),
            float(np.max(np.abs(g3 - e[k:, :k]))),
        )
    return _suite_result("grassmann_2kk", trials, worst, tol)


def closed_form_suites(trials: int = 1000, seed: int = 0, sign_flip: bool = False) -> list[dict]:
    return [
        v21_suite(trials, seed, sign_flip=sign_flip),
        vn1_suite(trials, seed + 1),
        grassmann_2kk_suite(trials, seed + 2),
    ]
