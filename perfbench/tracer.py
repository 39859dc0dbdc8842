"""In-memory spans around the program's layers, recorded from outside.

Nothing under ``src/`` is changed. Before a traced run the benchmark

* replaces ``builtins.__import__`` so that the first import of each module
  opens a span: ``<layer>.import`` for ``streamstab.<layer>``, and
  ``deps.import`` for everything outside the package (NumPy, SciPy and the
  standard library modules the package pulls in);
* wraps each public module-level function of every layer in every module
  namespace that holds it (``cli`` imports names, so it holds its own
  references), so that each call opens a span ``<layer>.<function>``.

A span is ``[id, parent, name, layer, kind, start_ns, end_ns, job, nbytes]``.
Spans stay in memory and are written as JSON lines at the end of the run.
A span's self time is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over its spans, so a layer's
module body executed at import counts as that layer's own work.
"""

from __future__ import annotations

import builtins
import functools
import json
import sys
import time
import types

PACKAGE = "streamstab"

ID, PARENT, NAME, LAYER, KIND, T0, T1, JOB, NBYTES = range(9)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.job = None
        self._stack: list[list] = []

    def begin(self, name: str, layer: str, kind: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, name, layer, kind, self.clock(), None,
                self.job, 0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list, nbytes: int = 0) -> None:
        span[T1] = self.clock()
        span[NBYTES] = nbytes
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def current_layer(self):
        return self._stack[-1][LAYER] if self._stack else None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- import spans ------------------------------------------------------------

def _resolve(name: str, globals_, level: int):
    if level == 0:
        return name
    package = (globals_ or {}).get("__package__")
    if not package:
        return None
    base = package.rsplit(".", level - 1)[0]
    return f"{base}.{name}" if name else base


def import_layer(module: str, layers) -> str:
    """Layer that owns the first import of `module`."""
    parts = module.split(".")
    if parts[0] != PACKAGE:
        return "deps"
    if len(parts) > 1 and parts[1] in layers:
        return parts[1]
    return "pkg"  # the package __init__, errors, __main__


def install_import_spans(tracer: Tracer, layers):
    """Open a span around each first import; return an undo callable."""
    original = builtins.__import__

    def traced_import(name, globals=None, locals=None, fromlist=(), level=0):
        target = _resolve(name, globals, level)
        if target is None or target in sys.modules:
            return original(name, globals, locals, fromlist, level)
        layer = import_layer(target, layers)
        if layer == "deps" and tracer.current_layer() == "deps":
            # a nested third-party import stays inside the outer span
            return original(name, globals, locals, fromlist, level)
        span = tracer.begin(f"{layer}.import", layer, "import")
        try:
            return original(name, globals, locals, fromlist, level)
        finally:
            tracer.end(span)

    builtins.__import__ = traced_import

    def undo():
        builtins.__import__ = original
    return undo


# -- call spans --------------------------------------------------------------

def _wrap(tracer: Tracer, fn, layer: str):
    name = f"{layer}.{fn.__name__}"
    reads = layer == "io_formats" and fn.__name__.startswith("read_")
    writes = layer == "io_formats" and fn.__name__.startswith("write_")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, layer, "call")
        nbytes = 0
        try:
            result = fn(*args, **kwargs)
            if writes and isinstance(result, (bytes, str)):
                nbytes = len(result)
            return result
        finally:
            if reads and args and isinstance(args[0], (bytes, str)):
                nbytes = len(args[0])
            tracer.end(span, nbytes)
    return wrapper


def wrap_layers(tracer: Tracer, layers) -> int:
    """Wrap every public function of every layer, in every namespace of the
    package that holds it. Returns the number of functions wrapped."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    wrappers = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                continue
            owner = obj.__module__.split(".")
            if owner[0] != PACKAGE or len(owner) < 2 or owner[1] not in layers:
                continue
            if obj.__name__.startswith("_"):
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _wrap(tracer, obj, owner[1])
            setattr(mod, attr, wrappers[id(obj)])
    return len(wrappers)


# -- arithmetic ----------------------------------------------------------------

def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s[T0], s[T1]
        covered = union_length(
            (max(c[T0], lo), min(c[T1], hi)) for c in children.get(s[ID], ())
            if c[T1] > lo and c[T0] < hi)
        out[s[ID]] = (hi - lo) - covered
    return out


def summarize(spans, wall_ns: int, wall_start_ns: int) -> dict:
    """Per-layer self time and calls, per-function inclusive time, bytes
    moved by io_formats, and the part of the wall time no span covers."""
    selfs = self_times(spans)
    layers: dict[str, dict] = {}
    funcs: dict[str, dict] = {}
    io = {"read_bytes": 0, "read_ns": 0, "write_bytes": 0, "write_ns": 0}
    for s in spans:
        dur = s[T1] - s[T0]
        lay = layers.setdefault(s[LAYER], {"self_ns": 0, "calls": 0,
                                           "import_ns": 0})
        lay["self_ns"] += selfs[s[ID]]
        if s[KIND] == "call":
            lay["calls"] += 1
            f = funcs.setdefault(s[NAME], {"calls": 0, "total_ns": 0,
                                           "self_ns": 0})
            f["calls"] += 1
            f["total_ns"] += dur
            f["self_ns"] += selfs[s[ID]]
            if s[LAYER] == "io_formats":
                kind = "read" if ".read_" in s[NAME] else "write"
                io[f"{kind}_bytes"] += s[NBYTES]
                io[f"{kind}_ns"] += dur
        elif s[KIND] == "import" and s[PARENT] is None:
            lay["import_ns"] += dur
    roots = [(s[T0], s[T1]) for s in spans if s[PARENT] is None]
    covered = union_length(
        (max(a, wall_start_ns), min(b, wall_start_ns + wall_ns)) for a, b in roots)
    return {"layers": layers, "funcs": funcs, "io": io,
            "unaccounted_ns": wall_ns - covered, "spans": len(spans)}
