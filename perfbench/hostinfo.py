"""Set-up time, import breakdown and the host/thread record.

Set-up is measured in fresh interpreters, because every CLI invocation pays
it: ``setup_seconds`` times ``import stiefel_sr.cli`` and ``import_breakdown``
parses ``python -X importtime`` for the numpy, scipy.stats and stiefel_sr
shares.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import sys

_TIMED_IMPORT = (
    "import time; t0 = time.perf_counter(); import stiefel_sr.cli; "
    "print(repr(time.perf_counter() - t0))"
)
_CHILD_TIMEOUT_S = 60


def _child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("STIEFEL_SR_WORKERS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # use bytecode caches, as an installed copy does
    return env


def _run_child(args: list[str], src_dir: str, cwd: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        env=_child_env(src_dir),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=_CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh-interpreter import failed:\n{proc.stderr}")
    return proc


def setup_seconds(src_dir: str, cwd: str) -> float:
    """Seconds to ``import stiefel_sr.cli`` in a fresh interpreter."""
    return float(_run_child(["-c", _TIMED_IMPORT], src_dir, cwd).stdout.strip())


def parse_importtime(stderr: str) -> dict[str, float]:
    """numpy and scipy.stats cumulative seconds, stiefel_sr self seconds."""
    out = {"numpy_s": 0.0, "scipy_stats_s": 0.0, "stiefel_sr_self_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = (part.strip() for part in line[12:].split("|"))
        if not self_us.isdigit():
            continue  # the header line
        if name == "numpy":
            out["numpy_s"] = int(cum_us) * 1e-6
        elif name == "scipy.stats":
            out["scipy_stats_s"] = int(cum_us) * 1e-6
        elif name == "stiefel_sr" or name.startswith("stiefel_sr."):
            out["stiefel_sr_self_s"] += int(self_us) * 1e-6
    return out


def import_breakdown(src_dir: str, cwd: str, count: int) -> dict[str, float]:
    """Median over ``count`` fresh ``-X importtime`` imports of each share."""
    runs = [
        parse_importtime(
            _run_child(["-X", "importtime", "-c", "import stiefel_sr.cli"], src_dir, cwd).stderr
        )
        for _ in range(count)
    ]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def process_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def host_record() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
