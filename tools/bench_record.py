"""Record a checkout's benchmark numbers in one committed JSON file.

    python tools/bench_record.py LABEL [--checkout DIR] [--seconds 25] [--seeds 1 2 3]
                                       [--parent DIR] [--out DIR]

Runs the checkout's own, unmodified ``perfbench/run.py`` for every workload
of its ``BENCHMARK.json`` at every seed with ``--trace 0`` and once at the
first seed with ``--trace 1``, then a cold ``stiefel-sr bracket --n 4 --k 2``,
a cold ``stiefel-sr cutlocus-search --n 4 --k 2``, a bracket sweep, the
checkout's Tier-1 suite and its acceptance criteria 4, 5 and 8 each alone,
each in a fresh process, one after another.  Writes
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
- ``cold_search``: the wall times and peak RSS of ``COLD_STARTS`` fresh
  ``stiefel-sr cutlocus-search --n 4 --k 2 --sample-count 256`` processes
  (a seeded sample of 256 velocities) and their medians; the target is CI's
  V(4,2) velocity at t = 0.8 (its Default-grid search step's);
- ``bracket_sweep``: the wall and CPU seconds, timed inside one fresh
  process after one untimed pass and a 0.5 s pause, of ``SWEEP_REPEATS``
  passes over the verification round's 21 bracket reports (complex V(n,k),
  3 <= n <= 8, 2 <= k < n) and 7 strong checks of V(n,1) (2 <= n <= 8,
  30 samples), and their ratio; a library that keeps to one core reads a
  ratio near 1;
- ``tier1``: the suite's wall time and its summary line;
- ``criteria``: per criterion test, its wall time as pytest reports it, and
  the wall time of its whole process;
- ``pairs`` (with ``--parent DIR``, another checkout, usually the parent
  commit exported beside this one): one pair of runs of each workload per
  ``--seeds`` value, the parent's own ``perfbench/run.py --trace 0`` and the
  checkout's at that seed, the parent first at even positions of the seed
  list and the checkout first at odd ones.  Per workload it holds every
  pair's metrics and, per end-to-end metric, each side's median and
  quartiles and the number of pairs in which the checkout reads better
  (``change_wins``; ties count for neither).  The checkout's runs of these
  pairs are also its ``workloads`` runs.

``--checkout`` (default: this repository) names the source tree to measure,
so one copy of this tool can record another commit exported beside it.  The
file reports; it gates nothing.  Exits 1 if a benchmark run fails to produce
its JSON line, a cold start its report, a cold search one cluster within
(1 + 1e-6) of the generating length, or the bracket sweep a pass of every
report and check; 0 otherwise.
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
COLD_SEARCH = (
    "-m", "stiefel_sr.cli", "cutlocus-search", "--n", "4", "--k", "2", "--sample-count", "256",
)
# the cold search's target and generating length, printed by the checkout's library
COLD_SEARCH_CASE = """
import json, numpy as np
from stiefel_sr import BlockVelocity, GeodesicSpec, length, normal_geodesic
v = BlockVelocity(np.array([[0.5j, 0.2], [-0.2, -0.3j]]), np.array([[0.6, 0.1j], [0.2, 0.3]]))
print(json.dumps({"target": normal_geodesic(GeodesicSpec(v), 0.8).to_json_dict(), "length": length(v, 0.8)}))
"""

SWEEP_REPEATS = 20
# the verification round's bracket reports and strong checks, timed over SWEEP_REPEATS
# passes after one untimed pass (first-call costs) and a pause: numpy's import leaves
# its BLAS threads spinning for about 0.1 s, which is no cost of the sweep
BRACKET_SWEEP = """
import json, sys, time
from stiefel_sr import distribution

def sweep(rep):
    return all(distribution.bracket_generating_rank(n, k).generating
               for n in range(3, 9) for k in range(2, n)) and all(
        distribution.strongly_bracket_check_vn1(n, samples=30, seed=rep + 200 + n)
        for n in range(2, 9))

passed = sweep(-1)
time.sleep(0.5)
wall, cpu = time.perf_counter(), time.process_time()
passed &= all([sweep(rep) for rep in range(int(sys.argv[1]))])
print(json.dumps({"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu,
                  "passed": passed}))
"""


def _benchmark(checkout: Path) -> tuple[list[str], dict]:
    """(workload names, end-to-end metric name -> "higher"/"lower" better) of the
    checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    return [w["name"] for w in spec["workloads"]], better


def _spread(values: list[float]) -> dict:
    """Median and interquartile range (0 for a single value)."""
    q1, q2, q3 = _quartiles(values)
    return {"median": q2, "iqr": q3 - q1}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (all the value for a single one)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _run(argv: list[str], checkout: Path) -> tuple[float, float, str]:
    """Wall seconds, peak RSS (MB) and standard output of one process run in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0, usage.ru_maxrss / 1024, stdout


def _perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """(output lines, result JSON) of one perfbench/run.py process."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    _, _, stdout = _run(argv, checkout)
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: no JSON line in the output")
    return lines, json.loads(lines[-1])


def _host(lines: list[str]) -> dict:
    return next((json.loads(x[len("host "):]) for x in lines if x.startswith("host ")), {})


def _untraced(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(host record, run record) of one ``--trace 0`` run."""
    lines, result = _perfbench(checkout, workload, seed, seconds, 0)
    run = {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
    }
    print(f"{checkout.name} {workload} seed {seed}: op_p50_s "
          f"{run['metrics'].get('op_p50_s', float('nan')):.4g}", file=sys.stderr)
    return _host(lines), run


def _workload_record(runs: list[dict], names) -> dict:
    """The runs (units dropped) and, per end-to-end metric, their spread and unit."""
    units = runs[-1]["units"]
    return {
        "runs": [{k: v for k, v in run.items() if k != "units"} for run in runs],
        "metrics": {
            name: {**_spread([r["metrics"][name] for r in runs]), "unit": units[name]}
            for name in names
            if name in units
        },
    }


def bench_runs(checkout: Path, seconds: float, seeds: list[int], parent=None):
    """(host record, the checkout's per-workload runs and spreads, the pairs record).

    With a ``parent`` checkout each seed runs both sides, the parent first at
    even positions and the checkout first at odd ones; the pairs record is
    None without one.
    """
    host = None
    out, pairs = {}, {}
    workloads, better = _benchmark(checkout)
    sides = {"change": checkout} if parent is None else {"parent": parent, "change": checkout}
    for workload in workloads:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(seeds):
            for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
                run_host, run = _untraced(sides[side], workload, seed, seconds)
                host = run_host if host is None and side == "change" else host
                runs[side].append(run)
        out[workload] = _workload_record(runs["change"], better)
        if parent is not None:
            pairs[workload] = _pairs_record(runs, seeds, better)
    return host or {}, out, pairs if parent is not None else None


def _pairs_record(runs: dict, seeds: list[int], better: dict) -> dict:
    """Every pair's runs and, per end-to-end metric, each side's quartiles and the
    checkout's wins (ties count for neither)."""
    units = runs["change"][-1]["units"]
    metrics = {}
    for name, direction in better.items():
        if name not in units:
            continue
        values = {side: [r["metrics"][name] for r in side_runs] for side, side_runs in runs.items()}
        sign = 1.0 if direction == "higher" else -1.0
        metrics[name] = {
            "unit": units[name],
            "better": direction,
            **{side: dict(zip(("q1", "median", "q3"), _quartiles(v))) for side, v in values.items()},
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(seeds),
        }
    return {
        "runs": [
            {"seed": seed, "first": "parent" if i % 2 == 0 else "change",
             **{side: {k: v for k, v in side_runs[i].items() if k not in ("seed", "units")}
                for side, side_runs in runs.items()}}
            for i, seed in enumerate(seeds)
        ],
        "metrics": metrics,
    }


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
        wall, _, stdout = _run([sys.executable, *COLD_START], checkout)
        if not stdout.startswith("{") or not json.loads(stdout)["generating"]:
            raise RuntimeError("cold bracket start: no generating report in the output")
        walls.append(wall)
    return {"command": "stiefel-sr " + " ".join(COLD_START[2:]), "runs_s": walls,
            "median_s": statistics.median(walls)}


def cold_search(checkout: Path) -> dict:
    """Wall seconds and peak RSS of fresh ``COLD_SEARCH`` processes, each of
    which must find one cluster within (1 + 1e-6) of the generating length."""
    case = json.loads(_run([sys.executable, "-c", COLD_SEARCH_CASE], checkout)[2])
    argv = [sys.executable, *COLD_SEARCH, "--target", json.dumps(case["target"])]
    bound = (1 + 1e-6) * case["length"]
    walls, peaks = [], []
    for _ in range(COLD_STARTS):
        wall, peak, stdout = _run(argv, checkout)
        report = json.loads(stdout) if stdout.startswith("{") else {}
        found = report.get("min_length")
        if report.get("clusters") != 1 or found is None or found > bound:
            raise RuntimeError(f"cold search: clusters {report.get('clusters')}, "
                               f"min_length {found}, bound {bound}")
        walls.append(wall)
        peaks.append(peak)
    return {"command": "stiefel-sr " + " ".join(COLD_SEARCH[2:]) + " --target <V(4,2) at t = 0.8>",
            "runs_s": walls, "median_s": statistics.median(walls),
            "peak_rss_mb": peaks, "median_peak_rss_mb": statistics.median(peaks),
            "min_length": found, "generating_length": case["length"]}


def bracket_sweep(checkout: Path) -> dict:
    """Wall and CPU seconds of ``SWEEP_REPEATS`` bracket sweeps in one fresh process."""
    _, _, stdout = _run([sys.executable, "-c", BRACKET_SWEEP, str(SWEEP_REPEATS)], checkout)
    result = json.loads(stdout) if stdout.startswith("{") else {}
    if not result.get("passed"):
        raise RuntimeError("bracket sweep: a report or check failed, or no result in the output")
    return {"repeats": SWEEP_REPEATS, "wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
            "cpu_per_wall": result["cpu_s"] / result["wall_s"]}


def tier1(checkout: Path) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    wall, _, stdout = _run(argv, checkout)
    lines = stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else ""}


def tests_alone(checkout: Path, test_ids) -> dict:
    """Per test id, each run alone in a fresh process: pytest's call time,
    the process's wall time and the summary line."""
    out = {}
    for test_id in test_ids:
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--durations=1", "--durations-min=0", test_id]
        wall, _, stdout = _run(argv, checkout)
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
    p.add_argument("--parent", type=Path, default=None)
    p.add_argument("--out", type=Path, default=ROOT)
    args = p.parse_args(argv)
    try:  # a record takes minutes: make sure it can be written before any run
        args.out.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=args.out).close()
    except OSError as err:
        p.error(f"cannot write to --out {args.out}: {err}")
    checkout = args.checkout.resolve()
    parent = None if args.parent is None else args.parent.resolve()
    try:
        host, runs, pairs = bench_runs(checkout, args.seconds, args.seeds, parent)
        traced = traced_runs(checkout, args.seconds, args.seeds[0])
        cold = cold_start(checkout)
        search = cold_search(checkout)
        sweep = bracket_sweep(checkout)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    record = {
        "label": args.label,
        "command": f"perfbench/run.py --seconds {args.seconds:g} --trace 0",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "host": host,
        "workloads": runs,
        "traced": traced,
        "cold_start": cold,
        "cold_search": search,
        "bracket_sweep": sweep,
        "tier1": tier1(checkout),
        "criteria": tests_alone(checkout, CRITERIA),
    }
    if pairs is not None:
        record["pairs"] = pairs
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
