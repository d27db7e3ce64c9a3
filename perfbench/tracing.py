"""Spans around the calls into each klcograph layer, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules, in
every module namespace where callers look it up, with a wrapper.  Nested
library calls therefore show up as child spans (certify -> extract_colouring
-> kappa_hat / build_ferrers -> binarize).  The wrappers exist only in the
traced run; untraced runs call the library untouched.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from time import perf_counter

LAYERS = ("graphs", "cotree", "sequences", "ferrers", "certificate", "oracle", "cli")

# cli is measured as one layer: main covers argparse, payload JSON and output.
ONLY = {"cli": {"main"}}

# Metric buckets.  A span's self time goes to its own bucket if its function
# is a head, else to the nearest head above it in the same layer, else to a
# bucket of its own name.
GROUPS = {
    "cotree.cotree_to_text": "cotree.serialize",
    "cotree.cotree_to_json": "cotree.serialize",
    "cotree.cotree_from_text": "cotree.serialize",
    "cotree.cotree_from_json": "cotree.serialize",
    "ferrers.render_ascii": "ferrers.render",
    "ferrers.render_svg": "ferrers.render",
}
HEADS = set(GROUPS) | {
    "graphs.parse_edge_list",
    "graphs.parse_graph6",
    "cotree.build_cotree",
    "cotree.find_p4",
    "cotree.binarize",
    "sequences.kappa_hat",
    "sequences.lambda_hat",
    "sequences.kappa_hat_annotated",
    "ferrers.build_ferrers",
    "ferrers.columns",
    "ferrers.read_colouring",
    "certificate.certify_non_colourable",
    "certificate.verify_box_cograph",
    "oracle.kappa_hat_oracle",
    "oracle.lambda_hat_oracle",
    "cli.main",
}
# Buckets of functions that no query calls: they are timed in the check phase.
CHECK_PHASE = {"certificate.verify_box_cograph"}
# kappa/lambda-type traversals, counted for sequences.evals_per_query.
TRAVERSALS = {
    "sequences." + f
    for f in (
        "kappa_hat", "lambda_hat", "kappa_hat_fast", "lambda_hat_fast",
        "kappa_hat_naive", "lambda_hat_naive", "kappa_hat_annotated",
    )
}

OFF, SPANS, MEMORY = 0, 1, 2

# span record fields
NAME, LAYER, PARENT, QID, START, END, ERROR = range(7)


class Tracer:
    """Wrappers, spans and memory peaks of one traced run."""

    def __init__(self) -> None:
        self.mode = OFF
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid = -1
        self.mem_frames: list[list] = []  # [layer, base bytes, highest bytes seen]
        self.peak_kib: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [
            m for name, m in sys.modules.items() if name.startswith(package.__name__ + ".")
        ]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name not in ONLY.get(layer, {name})
                ):
                    continue
                wrapped = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._undo.append((m, attr, fn))
                            setattr(m, attr, wrapped)
        ferrers = sys.modules[f"{package.__name__}.ferrers"]
        cls = ferrers.FerrersRepresentation
        prop = cls.__dict__["columns"]
        self._undo.append((cls, "columns", prop))
        cls.columns = property(self._wrap("ferrers", "columns", prop.fget))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.mode == SPANS:
                return tracer._span(span_name, layer, fn, args, kwargs)
            if tracer.mode == MEMORY and tracer.mem_frames[-1][0] != layer:
                return tracer._mem_frame(layer, fn, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- recording ---------------------------------------------------------

    def _span(self, name, layer, fn, args, kwargs):
        rec = [name, layer, self.stack[-1] if self.stack else -1, self.qid, 0.0, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def root(self, phase: str):
        """Context manager for the root span of one query's ``query`` or ``check`` phase."""
        return _Root(self, phase)

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self.mem_frames:
            if peak > frame[2]:
                frame[2] = peak
        tracemalloc.reset_peak()

    def _mem_frame(self, layer, fn, args, kwargs):
        """Peak traced memory of one top-level call into a layer."""
        self._fold_peak()
        current = tracemalloc.get_traced_memory()[0]
        frame = [layer, current, current]
        self.mem_frames.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._fold_peak()
            self.mem_frames.pop()
            kib = (frame[2] - frame[1]) / 1024
            if kib > self.peak_kib[layer]:
                self.peak_kib[layer] = kib

    def memory_query(self, run, *args):
        """Run one query with tracemalloc on, recording per-layer peaks."""
        tracemalloc.start(1)
        self.mem_frames = [["bench", 0, 0]]
        self.mode = MEMORY
        try:
            return run(*args)
        finally:
            self.mode = OFF
            tracemalloc.stop()

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict:
        """Self time per bucket and per layer, span counts and failures."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        has_trav_child = [False] * len(spans)
        phase = [""] * len(spans)
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child_time[p] += s[END] - s[START]
                phase[i] = phase[p]
                if s[NAME] in TRAVERSALS:
                    has_trav_child[p] = True
            else:
                phase[i] = s[NAME]
        bucket_ms: dict[str, float] = {}
        layer_ms = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        failed: dict[str, int] = {}
        evals = 0
        for i, s in enumerate(spans):
            if s[PARENT] < 0:
                continue
            bucket = self._bucket(i)
            if phase[i] != ("check" if bucket in CHECK_PHASE else "query"):
                continue
            self_ms = (s[END] - s[START] - child_time[i]) * 1000
            bucket_ms[bucket] = bucket_ms.get(bucket, 0.0) + self_ms
            layer_ms[s[LAYER]] += self_ms
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
            if s[ERROR] is not None:
                group = GROUPS.get(s[NAME], s[NAME])
                failed[group] = failed.get(group, 0) + 1
            if s[NAME] in TRAVERSALS and not has_trav_child[i]:
                evals += 1
        return {
            "bucket_ms": bucket_ms,
            "layer_ms": layer_ms,
            "calls": calls,
            "failed": failed,
            "evals": evals,
        }

    def _bucket(self, i: int) -> str:
        spans = self.spans
        s = spans[i]
        if s[NAME] in HEADS:
            return GROUPS.get(s[NAME], s[NAME])
        p = s[PARENT]
        while p >= 0 and spans[p][LAYER] == s[LAYER]:
            if spans[p][NAME] in HEADS:
                return GROUPS.get(spans[p][NAME], spans[p][NAME])
            p = spans[p][PARENT]
        return s[NAME]


class _Root:
    def __init__(self, tracer: Tracer, phase: str) -> None:
        self.tracer = tracer
        self.phase = phase

    def __enter__(self):
        t = self.tracer
        t.stack = [len(t.spans)]
        t.spans.append([self.phase, "bench", -1, t.qid, perf_counter(), 0.0, None])
        t.mode = SPANS

    def __exit__(self, *exc):
        t = self.tracer
        t.mode = OFF
        t.spans[t.stack[0]][END] = perf_counter()
        t.stack = []
        return False
