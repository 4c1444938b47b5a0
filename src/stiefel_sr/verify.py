"""Closed-form verification suites.

Each suite draws random inputs, evaluates a closed-form geodesic and the
matrix exponential of the embedded velocity (``matcore.expm_skew``; not the
geodesic evaluator, whose k = 1 path is the V_{n,1} closed form itself) on the
same data, and reports the worst discrepancy.  The exponentials are taken one
trial at a time; the closed forms once per suite, over the stacked draws.  The
v21 suite accepts a deliberate phase-misgrouping flag, which multiplies the
closed form's first entry by e^{i lam t}, so the harness can demonstrate that
the comparison actually bites.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .matcore import COMPLEX
from .homspace import _embed_velocities
from .geodesic import geodesic_v21_closed, geodesic_vn1_closed, grassmann_geodesic_2kk

# a suite passes iff its worst closed-form discrepancy is below this bound
CLOSED_FORM_BOUND = 1e-9
# the largest n of the V_{n,1} suite and the largest k of the Grassmann suite
_VN1_MAX_N = 8
_GRASSMANN_MAX_K = 4


def _suite_result(name: str, trials: int, errors) -> dict:
    max_error = float(np.max(errors)) if trials else 0.0
    return {
        "suite": name,
        "trials": trials,
        "max_error": max_error,
        "pass": bool(trials == 0 or max_error < CLOSED_FORM_BOUND),
    }


def v21_suite(trials: int = 1000, seed: int = 0, sign_flip: bool = False) -> dict:
    """All four closed-form V_{2,1} entries against exp(tv) . diag(e^{-i lam t}, 1)."""
    rng = np.random.default_rng(seed)
    lam, x2, t = np.zeros(trials), np.zeros(trials, complex), np.zeros(trials)
    full = np.zeros((trials, 2, 2), complex)
    for i in range(trials):
        lam[i] = rng.uniform(-3.0, 3.0)
        x2[i] = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-2.0, 2.0)
        t[i] = rng.uniform(0.0, 2.0 * np.pi)
        v = np.array([[1j * lam[i], x2[i]], [-np.conj(x2[i]), 0.0]])
        full[i] = matcore.expm_skew(v, t[i]) @ np.diag([np.exp(-1j * lam[i] * t[i]), 1.0])
    closed = np.stack(geodesic_v21_closed(lam, x2, t), axis=-1)
    if sign_flip:
        closed[:, 0] *= np.exp(1j * lam * t)
    return _suite_result("v21", trials, np.abs(closed.reshape(-1, 2, 2) - full))


def vn1_suite(trials: int = 1000, seed: int = 1) -> dict:
    """Closed-form V_{n,1} first column against exp(tv) . blockdiag(e^{-i x t}, I).

    The rows are zero-padded to length _VN1_MAX_N - 1, which leaves the closed
    form exact, so one stacked call covers every drawn n.
    """
    rng = np.random.default_rng(seed)
    xs, ts = np.zeros(trials), np.zeros(trials)
    rows = np.zeros((trials, _VN1_MAX_N - 1), complex)
    cols = np.zeros((trials, _VN1_MAX_N), complex)
    for i in range(trials):
        n = int(rng.integers(2, _VN1_MAX_N + 1))
        xs[i] = rng.uniform(-3.0, 3.0)
        row = matcore.random_matrix(rng, 1, n - 1, COMPLEX)
        ts[i] = rng.uniform(0.0, 2.0 * np.pi)
        v = _embed_velocities(np.array([[1j * xs[i]]]), row)
        cols[i, :n] = matcore.expm_skew(v, ts[i])[:, 0] * np.exp(-1j * xs[i] * ts[i])
        rows[i, : n - 1] = row[0]
    g1, g3 = geodesic_vn1_closed(xs, rows, ts)
    return _suite_result("vn1", trials, np.abs(np.concatenate([g1[:, None], g3], axis=1) - cols))


def grassmann_2kk_suite(trials: int = 1000, seed: int = 2) -> dict:
    """Square-block Grassmann closed form against exp of the embedded velocity."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(trials):
        k = int(rng.integers(1, _GRASSMANN_MAX_K + 1))
        b = matcore.random_matrix(rng, k, k, COMPLEX)
        t = rng.uniform(0.0, 2.0 * np.pi)
        e = matcore.expm_skew(_embed_velocities(np.zeros((k, k)), b), t)
        errors.append(np.max(np.abs(np.concatenate(grassmann_geodesic_2kk(b, t)) - e[:, :k])))
    return _suite_result("grassmann_2kk", trials, errors)


def closed_form_suites(trials: int = 1000, seed: int = 0, sign_flip: bool = False) -> list[dict]:
    return [
        v21_suite(trials, seed, sign_flip=sign_flip),
        vn1_suite(trials, seed + 1),
        grassmann_2kk_suite(trials, seed + 2),
    ]
