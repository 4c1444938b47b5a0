"""Span tracing around calls into the library's layers, from outside the library.

``Tracer.install`` replaces every public function of the layer modules with a
timing wrapper, wherever callers look the function up: in its defining module
and in every ``from ... import`` binding inside the package.  Public methods of
the classes those modules define are wrapped on the class, including the
``__post_init__`` validation of the value types.  The NumPy kernels the layers
call (``numpy.linalg.eigh``/``svd``/``solve`` and ``numpy.einsum``) form the
``linalg`` layer.  ``Tracer.restore`` puts every original object back.

Spans (name, start, end, parent, op id) are kept in flat in-memory arrays and
written out by ``Tracer.save``; per-op call counts, inclusive and self times
are accumulated while the spans close.  Spans are recorded only inside
``Tracer.op`` blocks, so the benchmark's own input generation and checks stay
out of the numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = ("matcore", "homspace", "geodesic", "distribution", "cutlocus", "verify")
LINALG_KERNELS = (
    (np.linalg, "eigh"),
    (np.linalg, "svd"),
    (np.linalg, "solve"),
    (np, "einsum"),
)
ROOT = "bench.op"
PACKAGE = "stiefel_sr"


def _matrices(a) -> tuple[int, int]:
    """(number of matrices, trailing dimension) of a stacked-matrix argument."""
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)), int(shape[-1])


class OpRecord:
    """Per-op accumulators: name -> [calls, inclusive s, self s], plus counters."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.calls: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.wall = 0.0
        self.search_open = False
        self.first_batch_pending = False

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._local = threading.local()
        self._current: OpRecord | None = None
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._hooks = {
            "cutlocus.search_minimizers": (self._search_pre, self._search_post),
            "geodesic.batch_geodesic_columns": (self._batch_pre, None),
            "geodesic.grid_geodesic_columns": (self._grid_pre, None),
            "geodesic.sample_curve": (self._sample_curve_pre, None),
            "linalg.eigh": (self._eigh_pre, None),
            "linalg.svd": (self._svd_pre, None),
        }

    # -- counters at layer boundaries ------------------------------------------

    def _search_pre(self, rec, args, kwargs):
        rec.count("searches")
        rec.search_open = True
        rec.first_batch_pending = True

    def _search_post(self, rec, args, kwargs, out):
        rec.search_open = False
        rec.count("arrivals", len(out.arrivals))

    def _batch_pre(self, rec, args, kwargs):
        b = args[1] if len(args) > 1 else kwargs["b_blocks"]
        rows = int(np.shape(b)[0])
        rec.count("batch_rows", rows)
        if rec.search_open:
            rec.count("search_batch_rows", rows)
            if rec.first_batch_pending:
                rec.count("candidates", rows)
                rec.first_batch_pending = False

    def _grid_pre(self, rec, args, kwargs):
        b = args[1] if len(args) > 1 else kwargs["b_blocks"]
        ts = args[2] if len(args) > 2 else kwargs["ts"]
        rec.count("grid_points", int(np.shape(b)[0]) * int(np.size(ts)))
        if rec.search_open:
            rec.count("scan_chunks")

    def _sample_curve_pre(self, rec, args, kwargs):
        ts = args[1] if len(args) > 1 else kwargs["ts"]
        rec.count("sample_curve_points", int(np.size(ts)))

    def _eigh_pre(self, rec, args, kwargs):
        count, n = _matrices(args[0])
        rec.count("eigh_matrices", count)
        rec.count("eigh_n3", count * n**3)

    def _svd_pre(self, rec, args, kwargs):
        rec.count("svd_matrices", _matrices(args[0])[0])

    # -- spans -------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name_id: int) -> list:
        st = self._stack()
        parent = st[-1][0] if st else -1
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_op.append(self._current.op_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0, 0.0]  # span index, start, time covered by children
        st.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list, name: str, rec: OpRecord) -> float:
        end = time.perf_counter()
        st = self._stack()
        st.pop()
        dur = end - frame[1]
        self.span_start[frame[0]] = frame[1]
        self.span_end[frame[0]] = end
        if st:
            st[-1][2] += dur
        acc = rec.calls.get(name)
        if acc is None:
            acc = rec.calls[name] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - frame[2]
        return dur

    def _wrapper(self, name: str, fn):
        tracer = self
        name_id = self._name_id(name)
        pre, post = self._hooks.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._current
            if rec is None:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(rec, args, kwargs)
            frame = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name, rec)
            if post is not None:
                post(rec, args, kwargs, out)
            return out

        traced.__wrapped_original__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Record one op: a root span whose children are the layer calls inside it."""
        rec = OpRecord(op_id)
        self._current = rec
        frame = self._open(self._name_id(ROOT))
        try:
            yield rec
        finally:
            rec.wall = self._close(frame, ROOT, rec)
            self._current = None

    # -- install / restore -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrapper(f"{layer}.{attr}", obj)
                    originals[id(obj)] = wrapper
                    self._patch(mod, attr, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                            not meth.startswith("_") or meth == "__post_init__"
                        ):
                            self._patch(obj, meth, self._wrapper(f"{layer}.{attr}.{meth}", fn))
        for owner, attr in LINALG_KERNELS:
            fn = getattr(owner, attr)
            wrapper = self._wrapper(f"linalg.{attr}", fn)
            originals[id(fn)] = wrapper
            self._patch(owner, attr, wrapper)
        # re-point every `from ... import` binding inside the package
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped_original__:
                    self._patch(mod, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output ------------------------------------------------------------------

    def save(self, path) -> int:
        """Write the spans as a NumPy archive; returns the span count."""
        np.savez(
            path,
            names=np.array(self._names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_name)
