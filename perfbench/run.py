"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload v21_dichotomy --seed 1 --seconds 25 --trace 0

One client runs ops back to back (a closed loop) for ``--seconds`` seconds and
checks every op's output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs each op untraced and then traced on the same input and
reports the per-layer metrics (see README.md).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

At the end of every run the first op is run again, and its report JSON must be
byte-identical to the first time (the library's reproducibility guarantee);
a mismatch counts as a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("v21_dichotomy", "general_v63", "verify_round")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3


@dataclass
class OpResult:
    index: int
    wall: float
    cpu: float
    problems: list
    params: dict
    report: str | None
    record: object = None
    cycle: float = 0.0  # input, op and check, as the client sees it
    scale: float = 1.0  # calibration factor to reference seconds


def run_op(workload, seed: int, index: int, tracer=None, keep_report: bool = False) -> OpResult:
    """Generate op ``index``'s input, run it (timed), then check its output.

    ``keep_report`` keeps the op's report JSON for the reproducibility check.
    """
    inp = workload.make_input(seed, index)
    record = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(inp)
        else:
            with tracer.op(index) as record:
                out = workload.run(inp)
    except Exception:  # an op that raises is a failed op; the loop goes on
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        err = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return OpResult(index, wall, cpu, [f"raised {err}"], inp["params"], None, record)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    problems = workload.check(inp, out)
    report = workload.report_json(out) if keep_report else None
    return OpResult(index, wall, cpu, problems, inp["params"], report, record)


def repeat_first(workload, seed: int, first: OpResult) -> OpResult:
    """Re-run op 0; its report must match the first run byte for byte."""
    again = run_op(workload, seed, first.index, keep_report=True)
    if again.report != first.report:
        again.problems.append("report JSON differs from the first run of this op")
    return again


def tail(walls: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with ten samples beyond it.

    Below 21 samples that statistic lies under the median, so the median
    (percentile 50) is reported instead.
    """
    n = len(walls)
    if n < 21:
        return 50.0, statistics.median(walls)
    return 100.0 * (n - 10) / n, sorted(walls)[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, setup_count: int = SETUP_SAMPLES):
    """Untraced run: end-to-end metrics, all op results, info lines.

    Each op and each set-up sample is timed between two runs of the
    calibration kernel, and reported in reference seconds (see calibrate.py).
    """
    import calibrate
    import hostinfo

    kernel = calibrate.Kernel()
    before = kernel.seconds()
    setups = []
    for _ in range(setup_count):
        t = hostinfo.setup_seconds(str(SRC), str(ROOT))
        after = kernel.seconds()
        setups.append((t, calibrate.scale(before, after)))
        before = after
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = run_op(workload, seed, len(results), keep_report=not results)
        result.cycle = time.perf_counter() - t0
        after = kernel.seconds()
        result.scale = calibrate.scale(before, after)
        before = after
        results.append(result)
        if time.perf_counter() - start >= seconds:
            break
    walls = [r.wall * r.scale for r in results]
    pct, tail_value = tail(walls)
    passed = sum(1 for r in results if not r.problems)
    metrics = {
        "ops_per_s": (passed / sum(r.cycle * r.scale for r in results), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_value, "s"),
        "cpu_s_per_op": (statistics.mean(r.cpu * r.scale for r in results), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(t * scale for t, scale in setups), "s"),
    }
    raw_walls = [r.wall for r in results]
    info = [
        f"{len(results)} ops, {passed} passed; times are reference seconds: raw time x "
        f"{calibrate.REFERENCE_S} s / mean calibration kernel time just before and after it",
        "calibration factors: median {:.4f}, range {:.4f}-{:.4f}".format(
            statistics.median(r.scale for r in results),
            min(r.scale for r in results), max(r.scale for r in results)),
        f"raw: ops_per_s {passed / sum(r.cycle for r in results):.6g}, "
        f"op_p50_s {statistics.median(raw_walls):.6g}, "
        f"setup_s {statistics.median(t for t, _ in setups):.6g}",
        f"op_tail_s is percentile {pct:.1f} of n={len(results)} op wall times",
        "raw op wall times: " + " ".join(f"{w:.3f}" for w in raw_walls),
        f"setup_s is the median of n={len(setups)} fresh imports; raw: "
        + ", ".join(f"{t:.4f}" for t, _ in setups),
    ]
    results.append(repeat_first(workload, seed, results[0]))
    return metrics, results, info


def _sum_calls(records, pred) -> tuple[float, float, float]:
    """Summed (calls, inclusive s, self s) over span names matching ``pred``."""
    calls = incl = self_s = 0.0
    for rec in records:
        for name, (c, i, s) in rec.calls.items():
            if pred(name):
                calls += c
                incl += i
                self_s += s
    return calls, incl, self_s


def _counter(records, key: str) -> float:
    return float(sum(rec.counters.get(key, 0) for rec in records))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _named(full: str):
    return lambda name: name == full


def _in_layer(layer: str):
    return lambda name: name.startswith(layer + ".")


def _closed_form(name: str) -> bool:
    return name.split(".", 1)[-1] in CLOSED_FORMS


CLOSED_FORMS = ("geodesic_v21_closed", "geodesic_vn1_closed", "grassmann_geodesic_2kk")
LAYERS = ("cutlocus", "geodesic", "homspace", "matcore", "distribution", "verify", "linalg")


def layer_metrics(records, untraced: list[float], traced: list[float], count_ops: int,
                  imports: dict) -> dict:
    """Per-layer metrics: counts per op over the first ``count_ops`` traced ops
    (they repeat exactly for a seed), times per op over all traced ops."""
    first = records[:count_ops]
    k, n_all = len(first), len(records)

    m = {
        "import.numpy_s": (imports["numpy_s"], "s"),
        "import.scipy_stats_s": (imports["scipy_stats_s"], "s"),
        "import.stiefel_sr_self_s": (imports["stiefel_sr_self_s"], "s"),
    }
    searches = _counter(first, "searches")
    candidates = _counter(first, "candidates")
    arrivals = _counter(first, "arrivals")
    m["cutlocus.candidates"] = (_ratio(candidates, searches), "count")
    m["cutlocus.residual_rows_per_candidate"] = (
        _ratio(_counter(first, "search_batch_rows"), candidates), "count")
    m["cutlocus.arrivals"] = (_ratio(arrivals, searches), "count")
    m["cutlocus.yield"] = (_ratio(arrivals, candidates), "ratio")
    m["cutlocus.scan_chunks"] = (_ratio(_counter(first, "scan_chunks"), searches), "count")

    def per_op_count(pred):
        return (_sum_calls(first, pred)[0] / k, "count")

    def per_op_time(pred, kind: int):
        return (_sum_calls(records, pred)[kind] / n_all, "s")

    batch = _named("geodesic.batch_geodesic_columns")
    grid = _named("geodesic.grid_geodesic_columns")
    curve = _named("geodesic.sample_curve")
    m["geodesic.batch_calls"] = per_op_count(batch)
    m["geodesic.batch_rows"] = (_counter(first, "batch_rows") / k, "count")
    m["geodesic.batch_s"] = per_op_time(batch, 1)
    m["geodesic.batch_ns_per_row"] = (
        1e9 * _ratio(_sum_calls(records, batch)[1], _counter(records, "batch_rows")), "ns")
    m["geodesic.grid_points"] = (_counter(first, "grid_points") / k, "count")
    m["geodesic.grid_s"] = per_op_time(grid, 1)
    m["geodesic.grid_ns_per_point"] = (
        1e9 * _ratio(_sum_calls(records, grid)[1], _counter(records, "grid_points")), "ns")
    m["geodesic.sample_curve_calls"] = per_op_count(curve)
    m["geodesic.sample_curve_points"] = (_counter(first, "sample_curve_points") / k, "count")
    m["geodesic.sample_curve_s"] = per_op_time(curve, 1)
    calls, incl, _ = _sum_calls(records, curve)
    m["geodesic.sample_curve_us_per_call"] = (1e6 * _ratio(incl, calls), "us")
    m["geodesic.closed_form_calls"] = per_op_count(_closed_form)
    m["geodesic.closed_form_s"] = per_op_time(_closed_form, 1)
    m["homspace.values"] = per_op_count(
        lambda name: name.startswith("homspace.") and name.endswith(".__post_init__"))
    m["matcore.calls"] = per_op_count(_in_layer("matcore"))
    m["distribution.calls"] = per_op_count(_in_layer("distribution"))
    m["verify.suites"] = per_op_count(
        lambda name: name.startswith("verify.") and name.endswith("_suite"))
    for name in LAYERS:
        m[f"{name}.self_s"] = per_op_time(_in_layer(name), 2)
    m["bench.self_s"] = per_op_time(_named("bench.op"), 2)
    m["linalg.eigh_matrices"] = (_counter(first, "eigh_matrices") / k, "count")
    m["linalg.eigh_n3"] = (_counter(first, "eigh_n3") / k, "count")
    m["linalg.eigh_s"] = per_op_time(_named("linalg.eigh"), 2)
    m["linalg.svd_matrices"] = (_counter(first, "svd_matrices") / k, "count")
    m["linalg.svd_s"] = per_op_time(_named("linalg.svd"), 2)
    m["linalg.solve_s"] = per_op_time(_named("linalg.solve"), 2)
    m["linalg.einsum_calls"] = per_op_count(_named("linalg.einsum"))
    m["linalg.einsum_s"] = per_op_time(_named("linalg.einsum"), 2)
    m["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    layer_self = sum(m[f"{name}.self_s"][0] for name in LAYERS)
    m["trace.attributed_frac"] = (layer_self / statistics.mean(untraced), "ratio")
    return m


def measure_traced(workload, seed: int, seconds: float, importtime_count: int = IMPORTTIME_SAMPLES,
                   save: bool = True):
    """Traced run: each op untraced, then traced on the same input; per-layer metrics."""
    import hostinfo
    from tracing import Tracer

    imports = hostinfo.import_breakdown(str(SRC), str(ROOT), importtime_count)
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(traced)
        untraced.append(run_op(workload, seed, index, keep_report=index == 0))
        with tracer:
            traced.append(run_op(workload, seed, index, tracer))
        if len(traced) >= workload.trace_ops and time.perf_counter() - start >= seconds:
            break
    records = [r.record for r in traced]
    metrics = layer_metrics(
        records, [r.wall for r in untraced], [r.wall for r in traced], workload.trace_ops, imports
    )
    info = [f"{len(traced)} ops, each run untraced then traced; "
            f"counts are per op over the first {workload.trace_ops} ops (per search for cutlocus)"]
    if save:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{workload.name}.npz"
        spans = tracer.save(path)
        info.append(f"{spans} spans written to {path.relative_to(ROOT)}")
    results = untraced + traced
    results.append(repeat_first(workload, seed, untraced[0]))
    return metrics, results, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stiefel_sr" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    # the library's defaults: no worker override from the environment
    workers_env = os.environ.pop("STIEFEL_SR_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import stiefel_sr

    if Path(stiefel_sr.__file__).resolve().parent != (SRC / "stiefel_sr").resolve():
        print(f"error: imported stiefel_sr from {stiefel_sr.__file__}", file=sys.stderr)
        return 2
    import hostinfo
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    host = hostinfo.host_record()
    host["STIEFEL_SR_WORKERS_removed"] = workers_env
    if args.trace:
        metrics, results, info = measure_traced(workload, args.seed, args.seconds)
    else:
        metrics, results, info = measure(workload, args.seed, args.seconds)
    host["process_threads_at_end"] = hostinfo.process_threads()

    failed = [r for r in results if r.problems]
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"failed_frac {len(failed) / len(results):.6g} ({len(failed)} of {len(results)} ops)")
    for r in failed:
        print(f"FAILED op {r.index} params={json.dumps(r.params, sort_keys=True)}: "
              + "; ".join(r.problems))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
