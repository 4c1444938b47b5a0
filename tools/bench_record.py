"""Record a checkout's benchmark numbers in one committed JSON file.

    python tools/bench_record.py LABEL [--checkout DIR] [--seconds 25] [--seeds 1 2 3]
                                       [--out DIR]

Runs the checkout's own, unmodified ``perfbench/run.py`` for every workload at
every seed with ``--trace 0``, then the checkout's Tier-1 suite and its
acceptance criterion 5 alone, each in a fresh process, one after another.
Writes ``BENCH_<LABEL>.json`` into ``--out`` (default: this repository's
root) with:

- ``host``: the host record of the first benchmark run;
- ``workloads``: per workload, each seed's run (correct, attempted, failed,
  metric values) and, per end-to-end metric of ``BENCHMARK.json``, the
  median and interquartile range over the seeds, with its unit;
- ``tier1``: the suite's wall time and its summary line;
- ``criterion_5``: the test's wall time as pytest reports it, and the wall
  time of its whole process.

``--checkout`` (default: this repository) names the source tree to measure,
so one copy of this tool can record another commit exported beside it.  The
file reports; it gates nothing.  Exits 1 if a benchmark run fails to produce
its JSON line, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("v21_dichotomy", "general_v63", "verify_round")
CRITERION_5 = "tests/test_acceptance.py::test_criterion_5_v21_cluster_dichotomy"


def _end_to_end_metrics() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]]


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


def bench_runs(checkout: Path, seconds: float, seeds: list[int]) -> tuple[dict, dict]:
    """(host record, per-workload runs and spreads) from perfbench/run.py."""
    host = None
    out = {}
    names = _end_to_end_metrics()
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            argv = [
                sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
            ]
            _, stdout = _run(argv, checkout)
            lines = stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                raise RuntimeError(f"{workload} seed {seed}: no JSON line in the output")
            result = json.loads(lines[-1])
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


def tier1(checkout: Path) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    wall, stdout = _run(argv, checkout)
    lines = stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else ""}


def criterion_5(checkout: Path) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--durations=1", "--durations-min=0", CRITERION_5]
    wall, stdout = _run(argv, checkout)
    match = re.search(r"^([0-9.]+)s call\s", stdout, re.MULTILINE)
    lines = stdout.strip().splitlines()
    return {
        "call_s": float(match.group(1)) if match else None,
        "process_wall_s": wall,
        "summary": lines[-1] if lines else "",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label")
    p.add_argument("--checkout", type=Path, default=ROOT)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--out", type=Path, default=ROOT)
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    try:
        host, workloads = bench_runs(checkout, args.seconds, args.seeds)
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
        "tier1": tier1(checkout),
        "criterion_5": criterion_5(checkout),
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
