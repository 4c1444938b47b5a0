"""Write a corpus of JSON reports and compare two corpora.

    python tools/report_corpus.py write DIR
    python tools/report_corpus.py compare A B --mode bytes|equivalent

``write`` runs a fixed, seeded set of computations and writes one JSON file
per report into DIR:

- acceptance criterion 5: the 50 block-diagonal and 50 generic V(2,1)
  searches;
- acceptance criterion 8: the 3 real antipode searches, 5 real mirrored-arrival
  summaries and 3 real antidiagonal summaries;
- a block-diagonal and a generic search on a 129 x 64 complex V(2,1) grid,
  whose endpoint table would be over the search's chunk budget; like every
  k = 1 search they solve in the grid's (rate, time) plane, so they hold no
  table (no report streams a k >= 2 scan);
- ops 0-7 of each benchmark workload at seeds 1 and 7, built and serialized
  by ``perfbench.workloads``.

Seeds and inputs are those of ``tests/test_acceptance.py`` and of the
benchmark.  ``stiefel_sr`` is imported from ``PYTHONPATH`` when it is there
(so one checkout of this tool can write the corpus of another source tree)
and from this repository's ``src`` otherwise.

``compare`` exits 0 when the corpora agree and 1 otherwise; a directory that
is missing or holds no ``*.json`` is an error (exit 1), not an empty corpus.  In ``bytes``
mode the files must be identical; for a file that differs it names up to 5
JSON paths whose values differ, with both values (compared exactly, signed
zeros included, arrivals by position).  In ``equivalent`` mode every search
report (a JSON object with ``arrivals`` and ``clusters``) must have

- the same ``clusters``;
- ``min_length`` within 1e-12 relative;
- arrivals matched one to one by velocity embed within 1e-9 (Frobenius);

every other value must be equal, numbers to within 1e-12 relative or
absolute.  Keys present only in B are listed and ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEEDS = (1, 7)
WORKLOAD_OPS = 8
LENGTH_RTOL = 1e-12
EMBED_TOL = 1e-9
VALUE_TOL = 1e-12


# -- writing ----------------------------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def corpus_reports():
    """Yield (file name, JSON text) for every report of the corpus."""
    from stiefel_sr.cutlocus import (
        VelocityGrid,
        real_antipodal_cut_point,
        search_minimizers,
        verify_antidiagonal_arrivals,
        verify_mirror_arrivals,
    )
    from stiefel_sr.geodesic import GeodesicSpec, normal_geodesic
    from stiefel_sr.homspace import BlockVelocity, StiefelPoint
    from stiefel_sr.matcore import COMPLEX, REAL
    from perfbench.workloads import WORKLOADS

    grid = VelocityGrid(2, 1, COMPLEX, seed=505)
    for i, c in enumerate(np.linspace(0.3 * np.pi, 1.7 * np.pi, 50)):
        target = StiefelPoint(np.array([[np.exp(1j * c)], [0.0]]))
        rep = search_minimizers(target, grid)
        yield f"c5_block_diagonal_{i:02d}.json", _dump(rep.to_json_dict())
    rng = np.random.default_rng(506)
    for i in range(50):
        vel = BlockVelocity(
            np.array([[1j * rng.uniform(-2, 2)]]),
            np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]]),
        )
        target = normal_geodesic(GeodesicSpec(vel), rng.uniform(0.3, 0.5))
        rep = search_minimizers(target, grid)
        yield f"c5_generic_{i:02d}.json", _dump(rep.to_json_dict())

    for n in (2, 3, 4):
        rep = search_minimizers(real_antipodal_cut_point(n), VelocityGrid(n, 1, REAL, seed=808 + n))
        yield f"c8_antipode_n{n}.json", _dump(rep.to_json_dict())
    for n, k in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)]:
        summary = verify_mirror_arrivals(n, k, samples=50, seed=818 + n + k, mode=REAL)
        yield f"c8_mirror_{n}_{k}.json", _dump(summary.to_json_dict())
    for k in (1, 2, 3):
        summary = verify_antidiagonal_arrivals(k, samples=20, seed=828 + k, mode=REAL)
        yield f"c8_antidiagonal_k{k}.json", _dump(summary.to_json_dict())

    # the files keep the names they had when these searches streamed their scan
    large = VelocityGrid(2, 1, COMPLEX, lambda_count=129, phase_count=64, seed=515)
    cut = StiefelPoint(np.array([[np.exp(0.8j * np.pi)], [0.0]]))
    generic = normal_geodesic(
        GeodesicSpec(BlockVelocity(np.array([[0.7j]]), np.array([[np.exp(0.4j)]]))), 0.45
    )
    for name, target in (("block_diagonal", cut), ("generic", generic)):
        rep = search_minimizers(target, large)
        yield f"streamed_v21_{name}.json", _dump(rep.to_json_dict())

    for name, workload in WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            for index in range(WORKLOAD_OPS):
                out = workload.run(workload.make_input(seed, index))
                yield f"{name}_s{seed}_op{index}.json", workload.report_json(out) + "\n"


def write(directory: Path) -> int:
    import stiefel_sr

    directory.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, text in corpus_reports():
        (directory / name).write_text(text)
        count += 1
    print(f"wrote {count} reports to {directory} (stiefel_sr in {Path(stiefel_sr.__file__).parent})")
    return 0


# -- comparing ----------------------------------------------------------------------

SEARCH_KEYS = ("arrivals", "clusters", "min_length")


def _embed(velocity: dict) -> np.ndarray:
    return np.asarray(velocity["re"], dtype=float) + 1j * np.asarray(velocity["im"], dtype=float)


def _compare_search(a: dict, b: dict, path: str, diffs: list) -> None:
    """The search-report rules: clusters, min_length and matched arrivals."""
    if any(key not in b for key in SEARCH_KEYS):
        diffs.append(f"{path}: not a search report")
        return
    if a["clusters"] != b["clusters"]:
        diffs.append(f"{path}.clusters: {a['clusters']} vs {b['clusters']}")
    la, lb = a["min_length"], b["min_length"]
    if (la is None) != (lb is None) or (
        la is not None and not math.isclose(la, lb, rel_tol=LENGTH_RTOL, abs_tol=0.0)
    ):
        diffs.append(f"{path}.min_length: {la!r} vs {lb!r}")
    if len(a["arrivals"]) != len(b["arrivals"]):
        diffs.append(f"{path}.arrivals: {len(a['arrivals'])} vs {len(b['arrivals'])}")
        return
    if not a["arrivals"]:
        return
    ea = np.stack([_embed(x["velocity"]) for x in a["arrivals"]])
    eb = np.stack([_embed(x["velocity"]) for x in b["arrivals"]])
    if ea.shape != eb.shape:
        diffs.append(f"{path}.arrivals: velocity shapes {ea.shape[1:]} vs {eb.shape[1:]}")
        return
    # one to one: each arrival of A takes the nearest still unmatched one of B
    dist = np.linalg.norm(ea[:, None] - eb[None], axis=(2, 3))
    free = np.ones(len(eb), dtype=bool)
    for i, row in enumerate(dist):
        near = np.nonzero(free & (row <= EMBED_TOL))[0]
        if len(near) == 0:
            diffs.append(f"{path}.arrivals[{i}]: no unmatched arrival within {EMBED_TOL}")
            return
        free[near[np.argmin(row[near])]] = False


def _compare_values(a, b, path: str, diffs: list, new_keys: list) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        new_keys += [f"{path}.{key}" for key in sorted(set(b) - set(a))]
        keys = sorted(a)
        if "arrivals" in a and "clusters" in a:
            _compare_search(a, b, path, diffs)
            keys = [key for key in keys if key not in SEARCH_KEYS]
        for key in keys:
            if key not in b:
                diffs.append(f"{path}.{key}: missing")
            else:
                _compare_values(a[key], b[key], f"{path}.{key}", diffs, new_keys)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_values(x, y, f"{path}[{i}]", diffs, new_keys)
    elif isinstance(a, float) and isinstance(b, (int, float)) and not isinstance(b, bool):
        if not math.isclose(a, b, rel_tol=VALUE_TOL, abs_tol=VALUE_TOL):
            diffs.append(f"{path}: {a!r} vs {b!r}")
    elif a != b or type(a) is not type(b):
        diffs.append(f"{path}: {a!r} vs {b!r}")


def _exact_diffs(a, b, path: str, diffs: list) -> None:
    """Paths whose values differ at all: every key, item and number, by position."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                diffs.append(f"{path}.{key}: only in {'A' if key in a else 'B'}")
            else:
                _exact_diffs(a[key], b[key], f"{path}.{key}", diffs)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} vs {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _exact_diffs(x, y, f"{path}[{i}]", diffs)
    elif type(a) is not type(b) or repr(a) != repr(b):
        diffs.append(f"{path}: {a!r} vs {b!r}")


def compare_texts(a: str, b: str, mode: str) -> tuple[list, list]:
    """Differences and new keys between two report texts under ``mode``."""
    if mode == "bytes":
        if a == b:
            return [], []
        diffs = []
        try:
            _exact_diffs(json.loads(a), json.loads(b), "$", diffs)
        except json.JSONDecodeError:
            pass
        return diffs or ["bytes differ"], []
    diffs, new_keys = [], []
    _compare_values(json.loads(a), json.loads(b), "$", diffs, new_keys)
    return diffs, new_keys


def compare(dir_a: Path, dir_b: Path, mode: str) -> int:
    names_a = {p.name for p in dir_a.glob("*.json")}
    names_b = {p.name for p in dir_b.glob("*.json")}
    # a write that left nothing behind must not compare as agreeing
    for directory, names in ((dir_a, names_a), (dir_b, names_b)):
        if not names:
            what = "is not a directory" if not directory.is_dir() else "holds no *.json"
            print(f"error: {directory} {what}", file=sys.stderr)
            return 1
    differing = 0
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {dir_a if name in names_a else dir_b}")
        differing += 1
    for name in sorted(names_a & names_b):
        diffs, new_keys = compare_texts(
            (dir_a / name).read_text(), (dir_b / name).read_text(), mode
        )
        for key in new_keys:
            print(f"{name}: new key {key} (ignored)")
        if diffs:
            differing += 1
            for line in diffs[:5]:
                print(f"{name}: {line}")
    print(f"{len(names_a | names_b)} files, {differing} differing ({mode})")
    return 0 if differing == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("write", help="write the report corpus into DIR")
    p.add_argument("directory", type=Path)
    p = sub.add_parser("compare", help="compare two corpora")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--mode", choices=("bytes", "equivalent"), required=True)
    args = parser.parse_args(argv)
    if args.command == "write":
        # PYTHONPATH and installed packages come first: this repository's
        # source tree is only the fallback for stiefel_sr
        sys.path.extend([str(ROOT), str(ROOT / "src")])
        return write(args.directory)
    return compare(args.a, args.b, args.mode)


if __name__ == "__main__":
    sys.exit(main())
