"""Outside-in tracing of simdiff: spans around calls into each layer.

The tracer replaces named functions, methods and constructors with timing
wrappers and puts every original back on ``uninstall``.  A function is
replaced by object identity in every ``simdiff.*`` module namespace that
binds it, because modules share functions through ``from .exact import
smith_normal_form``; methods and constructors are replaced on their class.
Per-element functions such as ``Cochain.eval`` or
``Coefficients.normalize`` are never wrapped: they run millions of times
per op and a wrapper there would measure the tracer, not the program.

Each span records name, start, end and parent.  Spans stay in memory and
are written out by ``write`` when the run ends.  A layer's self time is the
span's duration minus the part of its interval covered by its children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import time
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, Sequence

# -- what is wrapped ---------------------------------------------------------


def _snf_probe(args, kwargs):
    """Work = rows x cols of the matrix; key = (rows, cols, content hash)."""
    A = args[0] if args else kwargs["A"]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    return rows * cols, (rows, cols, hash(tuple(map(tuple, A))))


def _pullback_probe(args, kwargs):
    """Work = source generators visited in the cochain's degree."""
    f = args[0] if args else kwargs["f"]
    c = args[1] if len(args) > 1 else kwargs["c"]
    return len(f.source.generators(c.degree)), None


# (layer, module, attribute path, probe).  The plain character model's
# on_morphism is the module function morphism_character.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("exact.smith_normal_form", "simdiff.exact", "smith_normal_form", _snf_probe),
    ("exact.solve", "simdiff.exact", "solve_int", None),
    ("exact.solve", "simdiff.exact", "solve_int_snf", None),
    ("exact.solve", "simdiff.exact", "solve_rational", None),
    ("exact.solve", "simdiff.exact", "solve_mod", None),
    ("exact.solve", "simdiff.exact", "solve_mod_snf", None),
    ("cohomology.cohomology", "simdiff.cohomology", "cohomology", None),
    ("cohomology.solve_closed_extension", "simdiff.cohomology",
     "solve_closed_extension", None),
    ("cochains.pullback", "simdiff.cochains", "pullback", _pullback_probe),
    ("cochains.coboundary", "simdiff.cochains", "coboundary", None),
    ("cochains.fiber_integrate", "simdiff.cochains", "fiber_integrate", None),
    ("em.moore_fill", "simdiff.em", "moore_fill", None),
    ("groupoid.ops", "simdiff.groupoid", "MappingGroupoid.compose", None),
    ("groupoid.ops", "simdiff.groupoid", "MappingGroupoid.inverse", None),
    ("groupoid.ops", "simdiff.groupoid", "MappingGroupoid.oplus_morphisms", None),
    ("groupoid.ops", "simdiff.groupoid", "MappingGroupoid.associator", None),
    ("groupoid.ops", "simdiff.groupoid", "MappingGroupoid.braid", None),
    ("groupoid.validate", "simdiff.groupoid", "MapObject.__init__", None),
    ("groupoid.validate", "simdiff.groupoid", "Homotopy2.__init__", None),
    ("groupoid.compare", "simdiff.groupoid", "MappingGroupoid.compare", None),
    ("groupoid.compare", "simdiff.groupoid", "MappingGroupoid.same_class", None),
    ("character.on_morphism", "simdiff.character", "morphism_character", None),
    ("diffhat.compare", "simdiff.diffhat", "HatTheory.compare", None),
    ("diffhat.homotopies", "simdiff.diffhat", "HatTheory.homotopies", None),
    ("moncat.check_coherence", "simdiff.moncat", "check_coherence", None),
    ("complexes.build", "simdiff.complexes", "from_facets", None),
    ("complexes.build", "simdiff.complexes", "product", None),
    ("complexes.build", "simdiff.complexes", "cylinder", None),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

# Root spans the benchmark opens itself.  Layer metrics count only spans
# under SETUP and OP; input generation and answer checks are excluded.
SETUP, OP, INPUT, CHECK = "bench.setup", "bench.op", "bench.input", "bench.check"


def span_name(module: str, path: str) -> str:
    return f"{module.removeprefix('simdiff.')}.{path}"


# -- the tracer ---------------------------------------------------------------


class Tracer:
    """Span recorder that patches simdiff in place while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: dict[int, int] = {}
        self.keys: dict[int, tuple] = {}
        self._stack: list[int] = []
        self.patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, probe: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if probe is not None:
                    work, key = probe(args, kwargs)
                    tracer.work[idx] = work
                    if key is not None:
                        tracer.keys[idx] = key

        traced.__bench_original__ = fn
        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; functions in every simdiff module that binds them."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        # import every submodule first, so none binds an original later
        package = importlib.import_module("simdiff")
        modules = [package] + [importlib.import_module(f"simdiff.{info.name}")
                               for info in pkgutil.iter_modules(package.__path__)]
        for _, module, path, probe in TARGETS:
            owner: object = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(span_name(module, path), original, probe)
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapper)

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped JSON: one [name, start, end, parent] per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans()}, fh, separators=(",", ":"))


# -- arithmetic on spans -------------------------------------------------------


def self_times(spans: Sequence[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals.

    Children are clipped to the parent's interval, so overlapping, nested,
    back-to-back and zero-length children are each counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def roots(spans: Sequence[tuple[str, float, float, int]]) -> list[int]:
    """Index of each span's outermost ancestor (itself when it has no parent)."""
    out: list[int] = []
    for idx, (_, _, _, parent) in enumerate(spans):
        out.append(idx if parent < 0 else out[parent])
    return out


def repeat_share(keys: Sequence[Hashable]) -> float:
    """Share of keys already seen earlier in the sequence (0 for no keys)."""
    seen: set[Hashable] = set()
    repeats = 0
    for k in keys:
        if k in seen:
            repeats += 1
        seen.add(k)
    return repeats / len(keys) if keys else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced run as {name: (value, unit)}.

    Calls, work and self time are per timed op; complexes.build also gets
    its self time during set-up.  The SNF repeat share runs over set-up
    and timed ops together, in call order.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    top = roots(spans)
    group = {span_name(m, p): layer for layer, m, p, _ in TARGETS}
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    work = dict.fromkeys(LAYERS, 0)
    build_setup = 0.0
    snf_keys = []
    for idx, (name, _, _, _) in enumerate(spans):
        layer = group.get(name)
        if layer is None:
            continue
        where = spans[top[idx]][0]
        if idx in tracer.keys and where in (SETUP, OP):
            snf_keys.append(tracer.keys[idx])
        if where == SETUP and layer == "complexes.build":
            build_setup += selfs[idx]
        if where != OP:
            continue
        calls[layer] += 1
        busy[layer] += selfs[idx]
        work[layer] += tracer.work.get(idx, 0)
    n = max(ops, 1)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / n, "count/op")
        out[f"{layer}.self_s"] = (busy[layer] / n, "s/op")
    out["exact.smith_normal_form.entries"] = (
        work["exact.smith_normal_form"] / n, "count/op")
    out["cochains.pullback.gens"] = (work["cochains.pullback"] / n, "count/op")
    out["exact.snf_repeat_share"] = (repeat_share(snf_keys), "ratio")
    out["complexes.build.setup_s"] = (build_setup, "s")
    return out


def snf_repeat_across_ops(tracer: Tracer) -> float:
    """Share of timed-op SNF calls on a matrix some earlier op already factored."""
    spans = tracer.spans()
    top = roots(spans)
    first_op: dict[tuple, int] = {}
    calls = repeats = 0
    for idx, key in tracer.keys.items():
        op = top[idx]
        if spans[op][0] != OP:
            continue
        calls += 1
        if first_op.setdefault(key, op) != op:
            repeats += 1
    return repeats / calls if calls else 0.0


def snf_shapes(tracer: Tracer) -> dict[str, int]:
    """How often each matrix shape ("rows x cols") was factored in timed ops."""
    spans = tracer.spans()
    top = roots(spans)
    shapes: dict[str, int] = {}
    for idx, (rows, cols, _) in tracer.keys.items():
        if spans[top[idx]][0] == OP:
            shape = f"{rows}x{cols}"
            shapes[shape] = shapes.get(shape, 0) + 1
    return dict(sorted(shapes.items(), key=lambda kv: (-kv[1], kv[0])))
