"""Span tracer that wraps the public functions of each ``repro`` layer.

The benchmark records spans from its own side: while a tracer is
installed, every function named in :data:`TARGETS` is replaced, at each
binding the program calls it through, by a wrapper that records one
span ``(op, span, parent, layer, start, end)``.  Spans stay in memory
until :meth:`Tracer.write`; :meth:`Tracer.uninstall` puts the original
functions back.

A layer's self time is its spans' durations minus the durations of
their direct child spans.  The root span of an operation is the
benchmark's own call into ``glove``/``stream_glove``; its self time is
``glove.frontier_s``, the greedy loop's bookkeeping that no wrapped
layer claims.  The self times of one operation therefore sum to the
root span's duration, which the benchmark reconciles against the wall
time it measures around the call.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of the benchmark's root span around one operation.
ROOT = "glove.frontier"

#: ``(layer, module, class or None, attribute)`` for every wrapped call
#: site.  Modules are looked up in ``sys.modules`` because
#: ``repro.core.glove`` the attribute is the ``glove`` function
#: re-exported by ``repro.core``, not the module.  ``merge_fingerprints``
#: and ``reshape_fingerprint`` are bound in both the batch and the
#: stream modules, ``reshape_fingerprint`` calls its own
#: ``generalize_rows`` binding, and the sharded tier's boundary repair
#: calls its own ``one_vs_all`` binding.
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("kernels.bounded", "repro.core.kernels", None, "bounded_many_vs_all_arrays"),
    ("kernels.bounded", "repro.core.kernels", None, "bounded_many_vs_some_arrays"),
    ("pairwise.numpy", "repro.core.engine", "NumpyBackend", "one_vs_all"),
    ("pairwise.numpy", "repro.core.engine", "NumpyBackend", "many_vs_all"),
    ("pairwise.numpy", "repro.core.engine", "NumpyBackend", "many_vs_some"),
    ("engine.bounds", "repro.core.engine", "StretchEngine", "hull_lower_bounds"),
    ("engine.bounds", "repro.core.engine", "StretchEngine", "hull_lower_bounds_many"),
    ("engine.bounds", "repro.core.engine", "StretchEngine", "bucket_lower_bounds"),
    ("engine.dispatch", "repro.core.engine", "StretchEngine", "bounded_argmin"),
    ("engine.dispatch", "repro.core.engine", "StretchEngine", "bounded_rows_some"),
    ("engine.dispatch", "repro.core.engine", "StretchEngine", "row"),
    ("engine.dispatch", "repro.core.engine", "StretchEngine", "rows"),
    ("engine.dispatch", "repro.core.engine", "StretchEngine", "rows_some"),
    ("engine.init", "repro.core.engine", "StretchEngine", "__init__"),
    ("engine.append", "repro.core.engine", "StretchEngine", "append"),
    ("merge", "repro.core.glove", None, "merge_fingerprints"),
    ("merge", "repro.stream.driver", None, "merge_fingerprints"),
    ("merge.generalize", "repro.core.merge", None, "generalize_rows"),
    ("merge.generalize", "repro.core.reshape", None, "generalize_rows"),
    ("stretch.matrix", "repro.core.merge", None, "stretch_matrix"),
    ("reshape", "repro.core.glove", None, "reshape_fingerprint"),
    ("reshape", "repro.stream.driver", None, "reshape_fingerprint"),
    ("shard.partition", "repro.core.shard", None, "partition_indices"),
    ("shard.repair", "repro.core.shard", None, "one_vs_all"),
    ("stream.windows", "repro.stream.windows", "WindowManager", "push"),
    ("stream.windows", "repro.stream.windows", "WindowManager", "flush"),
    ("stream.windows", "repro.stream.windows", "ClosedWindow", "fingerprints"),
    ("io.read", "repro.cdr.io", None, "read_events_csv"),
)

#: layer -> (self-time metric, call-count metric or ``None``).
LAYER_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "kernels.bounded": ("kernels.bounded_s", "kernels.bounded_calls"),
    "pairwise.numpy": ("pairwise.numpy_s", "pairwise.numpy_calls"),
    "engine.bounds": ("engine.bounds_s", "engine.bounds_calls"),
    "engine.dispatch": ("engine.dispatch_s", "engine.dispatch_calls"),
    "engine.init": ("engine.init_s", "engine.init_calls"),
    "engine.append": ("engine.append_s", "engine.append_calls"),
    "merge": ("merge.self_s", "merge.calls"),
    "merge.generalize": ("merge.generalize_s", "merge.generalize_calls"),
    "stretch.matrix": ("stretch.matrix_s", "stretch.matrix_calls"),
    "reshape": ("reshape.s", "reshape.calls"),
    "shard.partition": ("shard.partition_s", None),
    "shard.repair": ("shard.repair_s", None),
    "stream.windows": ("stream.windows_s", None),
    ROOT: ("glove.frontier_s", None),
}

Span = Tuple[object, int, int, str, float, float]


class Tracer:
    """In-memory spans of one run; records only while an op id is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: object = None
        self._stack: List[int] = []
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> List[str]:
        """Wrap every target; returns the targets the program no longer has.

        A missing target is skipped, so a layer that a revision removes
        reads 0 instead of breaking the traced run.
        """
        missing = []
        for layer, module, cls, attr in TARGETS:
            owner = sys.modules.get(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or attr not in vars(owner):
                missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(layer, original))
            self._undo.append((owner, attr, original))
        return missing

    def uninstall(self) -> None:
        """Restore the original functions."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            return self.span(layer, fn, *args, **kwargs)

        return traced

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` for the current op."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((self.op, sid, parent, layer, t0, t1))

    def run(self, op: object, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span of operation ``op``."""
        self.op = op
        try:
            return self.span(layer, fn, *args, **kwargs)
        finally:
            self.op = None

    def write(self, path) -> None:
        """Write every span as CSV: op, span, parent, layer, start_s, end_s."""
        with open(path, "w") as f:
            f.write("op,span,parent,layer,start_s,end_s\n")
            f.writelines(
                f"{op},{sid},{parent},{layer},{t0!r},{t1!r}\n"
                for op, sid, parent, layer, t0, t1 in self.spans
            )


def layer_totals(spans: List[Span]) -> Dict[object, Dict[str, List[float]]]:
    """Per op and layer: ``[self seconds, calls]``."""
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, parent, _, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    totals: Dict[object, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(lambda: [0.0, 0])
    )
    for op, sid, _, layer, t0, t1 in spans:
        entry = totals[op][layer]
        entry[0] += (t1 - t0) - child_time[sid]
        entry[1] += 1
    return totals
