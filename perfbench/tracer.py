"""Outside-in tracer for the library under test.

install() rebinds every public module-level function of the canonica
package, in every canonica.* namespace that holds it, to a wrapper that
records a span; it also wraps the numpy.linalg factorizations the
library calls.  uninstall() puts the original objects back.  Nothing in
the library changes: the spans are taken at the calls between its
modules, from the benchmark's side.

A span is (name, op, span id, parent id, start, end, overhead) with
times from time.perf_counter.  overhead is the tracer's own
bookkeeping time spent inside the span, which is taken off every
duration, so that self time (duration minus the durations of direct
children) does not absorb the cost of tracing the children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "canonica"
LAPACK = {
    "svd": None,  # split into svd_full / svd_values by compute_uv
    "eigh": "lapack.eigh",
    "solve": "lapack.solve",
    "eigvals": "lapack.eigvals",
    "inv": "lapack.inv",
}


def _linalg_namespaces():
    spaces = [np.linalg]
    for inner in ("_linalg", "linalg"):
        mod = getattr(np.linalg, inner, None)
        if inspect.ismodule(mod):
            spaces.append(mod)
    return spaces


def _package_modules():
    """(name, module) for the package and its loaded submodules."""
    return [
        (key, mod) for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def library_functions() -> dict:
    """{function object: "module.name"} for the public module-level
    functions defined in each loaded submodule of the package."""
    found = {}
    for mod_name, mod in _package_modules():
        if mod_name == PACKAGE:
            continue
        short = mod_name[len(PACKAGE) + 1 :]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod_name
                and not name.startswith("_")
            ):
                # The function's own name, so an alias maps to it.
                found[obj] = f"{short}.{obj.__name__}"
    return found


class Tracer:
    """Span and counter recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack: list[int] = [0]
        self._next_id = 1
        self._overhead = 0.0
        self._op = -1
        self._op_n = 0
        self._seen_inputs: set = set()
        self._seen_errors: list = []
        self._patched: list[tuple[object, str, object]] = []

    # ----- installation -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, name) for fn, name in library_functions().items()}
        for _key, mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for space in _linalg_namespaces():
            for attr, span in LAPACK.items():
                self._patch(space, attr, self._wrap_lapack(getattr(space, attr), span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # ----- ops and counters ---------------------------------------------

    def begin_op(self, op: int, n: int) -> None:
        self._op = op
        self._op_n = n
        self._seen_inputs.clear()
        self._seen_errors.clear()
        self.ops += 1

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    # ----- wrappers -----------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _exit(self, name, sid, parent, t_in, t0, ov0, err) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        if err is not None and not any(e is err for e in self._seen_errors):
            self._seen_errors.append(err)
            kind = type(err).__name__
            if kind == "PreconditionError":
                self.counters["errors.precondition.count"] += 1
            elif kind == "ConvergenceError":
                self.counters["errors.convergence.count"] += 1
        self.spans.append((name, self._op, sid, parent, t0, t1, self._overhead - ov0))
        self._overhead += (t0 - t_in) + (time.perf_counter() - t1)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            sid, parent = tracer._enter()
            if name == "factorizations.cluster_complex":
                tracer.counters["factorizations.cluster_complex.values"] += len(args[0])
            ov0 = tracer._overhead
            err = None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = exc
                raise
            finally:
                tracer._exit(name, sid, parent, t_in, t0, ov0, err)

        return traced

    def _wrap_lapack(self, fn, span: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            t_in = time.perf_counter()
            sid, parent = tracer._enter()
            name = span
            if name is None:
                full = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
                name = "lapack.svd_full" if full else "lapack.svd_values"
            arr = np.asarray(a)
            if arr.shape[-2:] == (tracer._op_n, tracer._op_n):
                tracer.counters["lapack.full_size.calls"] += 1
            key = (arr.shape, arr.dtype.str, hash(np.ascontiguousarray(arr).tobytes()))
            if key in tracer._seen_inputs:
                tracer.counters["lapack.repeat.calls"] += 1
            tracer._seen_inputs.add(key)
            ov0 = tracer._overhead
            err = None
            t0 = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            except BaseException as exc:
                err = exc
                raise
            finally:
                tracer._exit(name, sid, parent, t_in, t0, ov0, err)

        return traced

    # ----- results ------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (outermost spans only, so that a
        recursive call is not counted twice) and self time, in seconds,
        summed over all traced ops."""
        child_time: dict[int, float] = defaultdict(float)
        parent_of: dict[int, int] = {}
        name_of: dict[int, str] = {}
        duration: dict[int, float] = {}
        for name, _op, sid, parent, t0, t1, ov in self.spans:
            d = (t1 - t0) - ov
            duration[sid] = d
            parent_of[sid] = parent
            name_of[sid] = name
            child_time[parent] += d
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, d in duration.items():
            name = name_of[sid]
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += d - child_time.get(sid, 0.0)
            up = parent_of[sid]
            while up and name_of.get(up) != name:
                up = parent_of.get(up, 0)
            if not up:
                rec["total_s"] += d
        return dict(out)

    def dump_spans(self, path, ops: int) -> None:
        """Write the spans of the first ops ops as JSON lines."""
        with open(path, "w") as fh:
            for name, op, sid, parent, t0, t1, ov in self.spans:
                if op >= ops:
                    continue
                fh.write(
                    json.dumps(
                        {"name": name, "op": op, "id": sid, "parent": parent,
                         "start": t0, "end": t1, "overhead": ov}
                    )
                    + "\n"
                )
