"""The benchmark's workloads: seeded inputs, one op, and an independent check.

Op ``index`` draws its inputs from ``numpy.random.default_rng((seed, index + 1))``
(stream 0 is for per-run offsets), so an op's inputs do not depend on what ran
before it.  Targets are built
here with ``scipy.linalg.expm``, and each op's output is checked against
references computed here, never by the library:

- the analytic cut length ``2 sqrt(2) pi sqrt(1 - (1 - c/pi)^2)`` of the
  block-diagonal V(2,1) target ``e^{ic} e1``;
- the generating geodesic's length ``2 t sqrt(n tr(bb*))``;
- every reported arrival's endpoint, re-evaluated with ``expm``;
- each mirrored-arrival sample's endpoints, re-evaluated with ``expm``.

The library is called with its defaults (no ``workers=``), through module
attributes looked up at call time, so a tracer can wrap them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from stiefel_sr import cutlocus, distribution, geodesic, matcore, verify
from stiefel_sr.homspace import StiefelPoint

COMPLEX = "complex"
REAL = "real"
EPS_HIT = 1e-8  # documented default endpoint acceptance radius of a search
REL_TOL = 1e-6
LENGTH_TOL = 1e-10  # equal-length twins, as in cutlocus.verify_mirror_arrivals
VEL_TOL = 1e-3  # velocity distinctness threshold, TOL.vel
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# -- independent references ------------------------------------------------------


def cut_length(c: float) -> float:
    """Minimal length from the identity class to e^{ic} e1 on complex V(2,1)."""
    return 2.0 * math.sqrt(2.0) * math.pi * math.sqrt(1.0 - (1.0 - c / math.pi) ** 2)


def geodesic_length(b: np.ndarray, t: float, n: int) -> float:
    """Length 2 t sqrt(n tr(bb*)) of the complex-mode geodesic with transversal block b."""
    return 2.0 * t * math.sqrt(n * float(np.sum(np.abs(b) ** 2)))


def endpoint_cols(a: np.ndarray, b: np.ndarray, t, mode: str = COMPLEX) -> np.ndarray:
    """First k columns of exp(t v) blockdiag(exp(-t a), I) for stacked or single blocks."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    single = a.ndim == 2
    if single:
        a, b = a[None], b[None]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (len(a),))[:, None, None]
    c, k, m = b.shape
    n = k + m
    v = np.zeros((c, n, n), dtype=np.complex128)
    v[:, :k, :k] = a
    v[:, :k, k:] = b
    v[:, k:, :k] = -np.conj(np.swapaxes(b, 1, 2))
    left = expm(t * v)[:, :, :k]
    cols = left @ expm(-t * a)
    if mode == REAL:
        cols = cols.real.astype(np.complex128)
    return cols[0] if single else cols


def arrival_problems(report, target_cols: np.ndarray, label: str) -> list[str]:
    """Each arrival must meet the target within EPS_HIT, as reported and re-evaluated."""
    if not report.arrivals:
        return [f"{label}: no arrivals"]
    problems = []
    worst = max(arr.endpoint_error for arr in report.arrivals)
    if not worst <= EPS_HIT:
        problems.append(f"{label}: reported endpoint_error {worst:.3e} > {EPS_HIT}")
    a = np.stack([arr.velocity.a_block for arr in report.arrivals])
    b = np.stack([arr.velocity.b_block for arr in report.arrivals])
    ts = np.array([arr.t for arr in report.arrivals])
    cols = endpoint_cols(a, b, ts, report.arrivals[0].velocity.mode)
    err = np.sqrt(np.sum(np.abs(cols - target_cols[None]) ** 2, axis=(1, 2)))
    if not float(err.max()) <= EPS_HIT:
        problems.append(f"{label}: re-evaluated endpoint error {float(err.max()):.3e} > {EPS_HIT}")
    return problems


def _rel_gap(value, reference: float) -> float:
    if value is None:
        return math.inf
    return abs(value - reference) / reference


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# -- workloads ---------------------------------------------------------------------


@dataclass
class V21Dichotomy:
    """One op: a cut target and a generic target on complex V(2,1), default grid."""

    grid_fields: dict = field(default_factory=dict)
    name: str = "v21_dichotomy"
    trace_ops: int = 6

    def make_input(self, seed: int, index: int) -> dict:
        # Search time depends strongly on c (200-700 arrivals), so c follows a
        # golden-ratio sequence with a seeded offset: each c is uniform on
        # [0.3 pi, 1.7 pi], and every run covers that range evenly.
        offset = _rng(seed, 0).uniform()
        c = (0.3 + 1.4 * ((offset + index * GOLDEN) % 1.0)) * math.pi
        rng = _rng(seed, index + 1)
        lam = rng.uniform(-2.0, 2.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        t = rng.uniform(0.3, 0.5)
        a = np.array([[1j * lam]])
        b = np.array([[np.exp(1j * phi)]])
        cut_cols = np.array([[np.exp(1j * c)], [0.0]])
        gen_cols = endpoint_cols(a, b, t)
        return {
            "params": {"c": c, "lambda": lam, "phi": phi, "t": t},
            "grid": cutlocus.VelocityGrid(2, 1, COMPLEX, **self.grid_fields),
            "cut": StiefelPoint(cut_cols, COMPLEX),
            "generic": StiefelPoint(gen_cols, COMPLEX),
            "cut_length": cut_length(c),
            "generic_length": geodesic_length(b, t, 2),
        }

    def run(self, inp: dict):
        return (
            cutlocus.search_minimizers(inp["cut"], inp["grid"]),
            cutlocus.search_minimizers(inp["generic"], inp["grid"]),
        )

    def check(self, inp: dict, out) -> list[str]:
        cut, gen = out
        problems = []
        if cut.clusters < 2:
            problems.append(f"cut: {cut.clusters} cluster(s), want >= 2")
        gap = _rel_gap(cut.min_length, inp["cut_length"])
        if not gap <= REL_TOL:
            problems.append(f"cut: min_length {cut.min_length} vs analytic {inp['cut_length']}")
        problems += arrival_problems(cut, inp["cut"].cols, "cut")
        if gen.clusters != 1:
            problems.append(f"generic: {gen.clusters} cluster(s), want 1")
        gap = _rel_gap(gen.min_length, inp["generic_length"])
        if not gap <= REL_TOL:
            problems.append(
                f"generic: min_length {gen.min_length} vs generating {inp['generic_length']}"
            )
        problems += arrival_problems(gen, inp["generic"].cols, "generic")
        return problems

    def report_json(self, out) -> str:
        return _dumps([rep.to_json_dict() for rep in out])


@dataclass
class GeneralV63:
    """One op: a general-family (Sobol) search on complex V(6,3)."""

    sample_count: int = 128
    name: str = "general_v63"
    trace_ops: int = 3

    def make_input(self, seed: int, index: int) -> dict:
        rng = _rng(seed, index + 1)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (g - np.conj(g.T)) / 2.0
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = b / np.linalg.norm(b)
        t = rng.uniform(0.3, 0.6)
        return {
            "params": {"a": _complex_json(a), "b": _complex_json(b), "t": t},
            "grid": cutlocus.VelocityGrid(
                6, 3, COMPLEX, sample_count=self.sample_count, family="general"
            ),
            "target": StiefelPoint(endpoint_cols(a, b, t), COMPLEX),
            "generic_length": geodesic_length(b, t, 6),
        }

    def run(self, inp: dict):
        return cutlocus.search_minimizers(inp["target"], inp["grid"])

    def check(self, inp: dict, out) -> list[str]:
        problems = arrival_problems(out, inp["target"].cols, "v63")
        bound = (1.0 + REL_TOL) * inp["generic_length"]
        if out.min_length is None or not out.min_length <= bound:
            problems.append(f"v63: min_length {out.min_length} > (1+1e-6) x {inp['generic_length']}")
        return problems

    def report_json(self, out) -> str:
        return _dumps(out.to_json_dict())


def mirror_arrivals(n: int, k: int, samples: int, seed: int, mode: str) -> list[dict]:
    """The per-sample work of ``cutlocus.verify_mirror_arrivals``, verdict left out.

    Same draws from ``default_rng(seed)`` and same library calls: the first
    block-diagonal hit of a sampled velocity, its endpoint, and the endpoints
    and lengths of the twin ``(a, -b)`` and of a twin ``(a, -b u)`` through a
    random unitary ``u``.  The library's verdict also asks the random twin to
    be distinct from the original, which fails when ``u`` lands near ``-I``
    (see README.md), so ``mirror_problems`` checks the records instead.
    """
    rng = np.random.default_rng(seed)
    records = []
    while len(records) < samples:
        vel, t_exp = cutlocus.sample_block_diagonal_hitting_velocity(rng, n, k, mode)
        if float(np.linalg.norm(vel.b_block)) <= 1e-12:
            continue
        spec = geodesic.GeodesicSpec(vel)
        t_hit = cutlocus.first_block_diagonal_hit(spec, 1.15 * t_exp)
        record = {"velocity": vel, "t": t_hit}
        records.append(record)
        if t_hit is None:
            continue
        p = geodesic.normal_geodesic(spec, t_hit)
        record["block_diagonal"] = cutlocus.in_block_diagonal_set(p)
        record["cols"] = p.cols
        record["length"] = geodesic.length(vel, t_hit)
        twins = [geodesic.mirror_velocity(vel)]
        twins.append(geodesic.mirror_velocity(vel, matcore.random_unitary(rng, n - k, mode)))
        record["twins"] = [
            (
                twin,
                geodesic.normal_geodesic(geodesic.GeodesicSpec(twin), t_hit).cols,
                geodesic.length(twin, t_hit),
            )
            for twin in twins
        ]
    return records


def mirror_problems(records: list[dict], label: str) -> list[str]:
    """Each sample hits the block-diagonal set; both twins reach the same endpoint
    at the same length (library values and ``expm``); the twin ``(a, -b)`` is distinct."""
    problems = []
    for i, rec in enumerate(records):
        where = f"{label} sample {i}"
        if rec["t"] is None:
            problems.append(f"{where}: no block-diagonal hit")
            continue
        if not rec["block_diagonal"]:
            problems.append(f"{where}: hit is not in the block-diagonal set")
        vel, t = rec["velocity"], rec["t"]
        ref = endpoint_cols(vel.a_block, vel.b_block, t, vel.mode)
        if not float(np.max(np.abs(ref[vel.k :, :]))) <= EPS_HIT:
            problems.append(f"{where}: expm endpoint is not block-diagonal")
        if not float(np.max(np.abs(rec["cols"] - ref))) <= EPS_HIT:
            problems.append(f"{where}: endpoint differs from expm")
        for j, (twin, cols, twin_length) in enumerate(rec["twins"]):
            twin_ref = endpoint_cols(twin.a_block, twin.b_block, t, twin.mode)
            gap = max(float(np.max(np.abs(cols - rec["cols"]))), float(np.max(np.abs(twin_ref - ref))))
            if not gap <= EPS_HIT:
                problems.append(f"{where}: twin {j} endpoint gap {gap:.3e}")
            if not abs(twin_length - rec["length"]) <= LENGTH_TOL:
                problems.append(f"{where}: twin {j} length {twin_length} vs {rec['length']}")
        twin = rec["twins"][0][0]
        sep = float(np.linalg.norm(vel.embed() - twin.embed()))
        if not sep > VEL_TOL:
            problems.append(f"{where}: mirrored twin within {sep:.3e} of the velocity")
    return problems


def _mirror_json(records: list[dict]) -> list:
    return [
        None
        if rec["t"] is None
        else [rec["t"], rec["length"], _complex_json(rec["cols"])]
        + [[length, _complex_json(cols)] for _, cols, length in rec["twins"]]
        for rec in records
    ]


MIRROR_PAIRS = ((2, 1), (3, 1), (4, 2), (5, 2), (6, 3))
ANTIPODE_NS = (2, 3, 4)


@dataclass
class VerifyRound:
    """One op: a round of the per-sample verification experiments at a fresh seed."""

    closed_form_trials: int = 300
    mirror_samples: int = 8
    antidiagonal_samples: int = 8
    strong_samples: int = 30
    uniqueness_trials: int = 200
    bracket_max_n: int = 8
    name: str = "verify_round"
    trace_ops: int = 3

    def make_input(self, seed: int, index: int) -> dict:
        base = int(_rng(seed, index + 1).integers(0, 2**31 - 1000))
        targets = {}
        for n in ANTIPODE_NS:
            cols = np.zeros((n, 1))
            cols[0, 0] = -1.0
            targets[n] = StiefelPoint(cols, REAL)
        return {"params": {"base_seed": base}, "seed": base, "antipodes": targets}

    def run(self, inp: dict) -> dict:
        s = inp["seed"]
        out = {"closed_forms": verify.closed_form_suites(self.closed_form_trials, s)}
        out["mirror"] = {
            (n, k, mode): mirror_arrivals(n, k, self.mirror_samples, s + 10 * n + k, mode)
            for mode in (COMPLEX, REAL)
            for n, k in MIRROR_PAIRS
        }
        out["antidiagonal"] = [
            cutlocus.verify_antidiagonal_arrivals(
                k, samples=self.antidiagonal_samples, seed=s + 100 + k, mode=mode
            )
            for mode in (COMPLEX, REAL)
            for k in (1, 2, 3)
        ]
        out["bracket"] = [
            distribution.bracket_generating_rank(n, k)
            for n in range(3, self.bracket_max_n + 1)
            for k in range(2, n)
        ]
        out["strong"] = [
            distribution.strongly_bracket_check_vn1(n, samples=self.strong_samples, seed=s + 200 + n)
            for n in range(2, 9)
        ]
        out["uniqueness"] = cutlocus.uniqueness_case_checks(
            3, trials=self.uniqueness_trials, seed=s + 300
        )
        out["antipode"] = {
            n: cutlocus.search_minimizers(
                target, cutlocus.VelocityGrid(n, 1, REAL, seed=s + 400 + n)
            )
            for n, target in inp["antipodes"].items()
        }
        return out

    def check(self, inp: dict, out: dict) -> list[str]:
        problems = [
            f"closed form suite {suite['suite']} failed" for suite in out["closed_forms"] if not suite["pass"]
        ]
        for (n, k, mode), records in out["mirror"].items():
            problems += mirror_problems(records, f"mirror ({n},{k}) {mode}")
        for summary in out["antidiagonal"]:
            if not summary.passed:
                problems.append(f"antidiagonal k={summary.k} {summary.mode} failed")
        for rep in out["bracket"]:
            if not rep.generating:
                problems.append(f"bracket ({rep.n},{rep.k}) not generating")
        for n, ok in zip(range(2, 9), out["strong"]):
            if ok is not True:
                problems.append(f"strong bracket generation n={n} failed")
        if not out["uniqueness"].passed:
            problems.append("uniqueness checks failed")
        antipode_length = math.sqrt(2.0) * math.pi
        for n, rep in out["antipode"].items():
            label = f"antipode n={n}"
            if rep.clusters < 2:
                problems.append(f"{label}: {rep.clusters} cluster(s), want >= 2")
            if any(abs(arr.t - math.pi) > REL_TOL for arr in rep.arrivals):
                problems.append(f"{label}: an arrival is not at t = pi")
            if not _rel_gap(rep.min_length, antipode_length) <= REL_TOL:
                problems.append(f"{label}: min_length {rep.min_length} vs sqrt(2) pi")
            problems += arrival_problems(rep, inp["antipodes"][n].cols, label)
        return problems

    def report_json(self, out: dict) -> str:
        return _dumps(
            {
                "closed_forms": out["closed_forms"],
                "mirror": [_mirror_json(records) for records in out["mirror"].values()],
                "antidiagonal": [s.to_json_dict() for s in out["antidiagonal"]],
                "bracket": [r.to_json_dict() for r in out["bracket"]],
                "strong": out["strong"],
                "uniqueness": out["uniqueness"].to_json_dict(),
                "antipode": {str(n): r.to_json_dict() for n, r in out["antipode"].items()},
            }
        )


def _complex_json(x: np.ndarray) -> dict:
    return {"re": x.real.tolist(), "im": x.imag.tolist()}


WORKLOADS = {w.name: w for w in (V21Dichotomy(), GeneralV63(), VerifyRound())}
