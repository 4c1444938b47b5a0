"""Record a checkout's benchmark numbers in one committed JSON file.

    python tools/bench_record.py LABEL [--checkout DIR] [--seconds 25] [--seeds 1 2 3]
                                       [--out DIR]

Runs the checkout's own, unmodified ``perfbench/run.py`` for every workload
of its ``BENCHMARK.json`` at every seed with ``--trace 0`` and once at the
first seed with ``--trace 1``, then a cold ``stiefel-sr bracket --n 4 --k 2``,
the checkout's Tier-1 suite and its acceptance criteria 4, 5 and 8 each
alone, each in a fresh process, one after another.  Writes
``BENCH_<LABEL>.json`` into ``--out`` (default: this repository's root;
created if missing, and checked for writing before the first run) with:

- ``host``: the host record of the first benchmark run;
- ``workloads``: per workload, each seed's run (correct, attempted, failed,
  metric values) and, per end-to-end metric of ``BENCHMARK.json``, the
  median and interquartile range over the seeds, with its unit;
- ``traced``: per workload, the per-layer metrics (value and unit) of the
  traced run at the first seed, with its correct/attempted/failed counts
  (the run leaves its span file in the checkout's ``perfbench/out/``);
- ``cold_start``: the wall times of ``COLD_STARTS`` fresh
  ``stiefel-sr bracket --n 4 --k 2`` processes and their median;
- ``tier1``: the suite's wall time and its summary line;
- ``criteria``: per criterion test, its wall time as pytest reports it, and
  the wall time of its whole process.

``--checkout`` (default: this repository) names the source tree to measure,
so one copy of this tool can record another commit exported beside it.  The
file reports; it gates nothing.  Exits 1 if a benchmark run fails to produce
its JSON line or a cold start its report, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERIA = (
    "tests/test_acceptance.py::test_criterion_4_mirrored_arrivals_at_block_diagonal_targets",
    "tests/test_acceptance.py::test_criterion_5_v21_cluster_dichotomy",
    "tests/test_acceptance.py::test_criterion_8_real_case",
)
COLD_START = ("-m", "stiefel_sr.cli", "bracket", "--n", "4", "--k", "2")
COLD_STARTS = 3


def _benchmark(checkout: Path) -> tuple[list[str], list[str]]:
    """(workload names, end-to-end metric names) of the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]]


def _spread(values: list[float]) -> dict:
    """Median and interquartile range (0 for a single value)."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


def _run(argv: list[str], checkout: Path) -> tuple[float, str]:
    """Wall seconds and standard output of one process run in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    return time.perf_counter() - t0, proc.stdout


def _perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """(output lines, result JSON) of one perfbench/run.py process."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    _, stdout = _run(argv, checkout)
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: no JSON line in the output")
    return lines, json.loads(lines[-1])


def bench_runs(checkout: Path, seconds: float, seeds: list[int]) -> tuple[dict, dict]:
    """(host record, per-workload runs and spreads) from perfbench/run.py."""
    host = None
    out = {}
    workloads, names = _benchmark(checkout)
    for workload in workloads:
        runs = []
        for seed in seeds:
            lines, result = _perfbench(checkout, workload, seed, seconds, 0)
            if host is None:
                host = next(
                    (json.loads(x[len("host "):]) for x in lines if x.startswith("host ")), {}
                )
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"{workload} seed {seed}: op_p50_s "
                  f"{runs[-1]['metrics'].get('op_p50_s', float('nan')):.4g}", file=sys.stderr)
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        out[workload] = {
            "runs": runs,
            "metrics": {
                name: {**_spread([r["metrics"][name] for r in runs]), "unit": units[name]}
                for name in names
                if name in units
            },
        }
    return host or {}, out


def traced_runs(checkout: Path, seconds: float, seed: int) -> dict:
    """Per workload, the per-layer metrics of one ``--trace 1`` run."""
    out = {}
    for workload in _benchmark(checkout)[0]:
        _, result = _perfbench(checkout, workload, seed, seconds, 1)
        out[workload] = {
            "seed": seed,
            **{key: result[key] for key in ("correct", "attempted", "failed")},
            "metrics": result["metrics"],
        }
        print(f"{workload} traced seed {seed}: {len(result['metrics'])} metrics", file=sys.stderr)
    return out


def cold_start(checkout: Path) -> dict:
    """Wall seconds of fresh ``stiefel-sr bracket --n 4 --k 2`` processes."""
    walls = []
    for _ in range(COLD_STARTS):
        wall, stdout = _run([sys.executable, *COLD_START], checkout)
        if not stdout.startswith("{") or not json.loads(stdout)["generating"]:
            raise RuntimeError("cold bracket start: no generating report in the output")
        walls.append(wall)
    return {"command": "stiefel-sr " + " ".join(COLD_START[2:]), "runs_s": walls,
            "median_s": statistics.median(walls)}


def tier1(checkout: Path) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    wall, stdout = _run(argv, checkout)
    lines = stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else ""}


def tests_alone(checkout: Path, test_ids) -> dict:
    """Per test id, each run alone in a fresh process: pytest's call time,
    the process's wall time and the summary line."""
    out = {}
    for test_id in test_ids:
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--durations=1", "--durations-min=0", test_id]
        wall, stdout = _run(argv, checkout)
        match = re.search(r"^([0-9.]+)s call\s", stdout, re.MULTILINE)
        lines = stdout.strip().splitlines()
        out[test_id] = {
            "call_s": float(match.group(1)) if match else None,
            "process_wall_s": wall,
            "summary": lines[-1] if lines else "",
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label")
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--out", type=Path, default=ROOT)
    args = p.parse_args(argv)
    try:  # a record takes minutes: make sure it can be written before any run
        args.out.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=args.out).close()
    except OSError as err:
        p.error(f"cannot write to --out {args.out}: {err}")
    checkout = args.checkout.resolve()
    try:
        host, workloads = bench_runs(checkout, args.seconds, args.seeds)
        traced = traced_runs(checkout, args.seconds, args.seeds[0])
        cold = cold_start(checkout)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    record = {
        "label": args.label,
        "command": f"perfbench/run.py --seconds {args.seconds:g} --trace 0",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "host": host,
        "workloads": workloads,
        "traced": traced,
        "cold_start": cold,
        "tier1": tier1(checkout),
        "criteria": tests_alone(checkout, CRITERIA),
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
