"""In-memory span tracer, and the wrappers that attach it to repro's layers.

A span records a name, its start and end (``perf_counter_ns``), the span
that was open when it began on the same thread, and an optional request
identifier shared by every span of one HTTP request.  Spans and counters
stay in memory until the run ends; :meth:`Tracer.dump` writes them out.

Wrappers are installed from outside the package: every public function
named in :data:`FUNCTIONS` is replaced in *each* ``repro`` module that
binds it, because callers look the name up through their own module
namespace (``repro.core.sweep.assess_chain`` is what the memo lambdas
call, not ``repro.circuits.performance.assess_chain``).  Class attributes
in :data:`METHODS` are replaced on the class.  Nothing under ``repro``
is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time


class Tracer:
    """Spans and counters of one process, collected while ``active``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self):
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value) -> None:
        self._local.request_id = value

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter_ns(), 0, stack[-1][4] if stack else -1,
                -1, self.request_id]
        with self._lock:
            span[4] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self, path) -> None:
        """Write spans as ``[name, start, end, parent, id, request]`` rows."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def load_dump(path) -> tuple[list, dict]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload["spans"], payload["counts"]


def self_times(spans: list) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover.

    Children of one span run on the span's own thread and nest inside
    it, so their intervals do not overlap and their durations add up.
    """
    child_ns: dict[int, int] = {}
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    totals: dict[str, float] = {}
    for name, start, end, _, ident, _ in spans:
        own = end - start - child_ns.get(ident, 0)
        totals[name] = totals.get(name, 0.0) + own / 1e9
    return totals


def _traced(tracer: Tracer, func, name, measures):
    """``func`` wrapped in a span; ``name`` may be a callable of the args.

    ``measures`` are ``(count name, amount of (args, kwargs, result))``
    pairs, added to the counters after each call.
    """
    if inspect.isgeneratorfunction(func):
        # One span per resumption, so the consumer's work between items
        # is not charged to the generator.
        @functools.wraps(func)
        def generator(*args, **kwargs):
            if not tracer.active:
                yield from func(*args, **kwargs)
                return
            label = name(args, kwargs) if callable(name) else name
            tracer.count(label + ".calls")
            items = func(*args, **kwargs)
            while True:
                span = tracer.begin(label)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                yield item

        return generator

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return func(*args, **kwargs)
        label = name(args, kwargs) if callable(name) else name
        span = tracer.begin(label)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(span)
        tracer.count(label + ".calls")
        for key, amount in measures:
            tracer.count(key, amount(args, kwargs, result))
        return result

    return wrapper


def _store_bytes(args, kwargs, store):
    return sum(path.stat().st_size for path in store.directory.iterdir())


def _batch_volumes(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["volumes"])


def _execute_name(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs["request"]
    kind = request.get("kind") if isinstance(request, dict) else None
    return f"queryservice.execute.{kind}"


#: ``(defining module, function, span name, measures)``: the function is
#: replaced wherever a ``repro`` module binds it.
FUNCTIONS = (
    ("repro.circuits.performance", "assess_chain", "circuits.assess_chain",
     ()),
    ("repro.area.placement", "trivial_placement", "area.trivial_placement",
     ()),
    ("repro.area.placement", "trivial_placement_batch",
     "area.trivial_placement_batch", ()),
    ("repro.cost.moe.analytic", "evaluate", "cost.evaluate", ()),
    ("repro.cost.moe.analytic", "evaluate_batch", "cost.evaluate_batch",
     (("cost.evaluate_batch.volumes", _batch_volumes),)),
    ("repro.core.sweep", "evaluate_cells", "sweep.evaluate_cells", ()),
    ("repro.core.sweep", "frame_for_cells", "sweep.frame_for_cells", ()),
    ("repro.core.sweep", "stream_design_sweep", "sweep.stream_design_sweep",
     ()),
    ("repro.core.pareto", "first_dominators", "pareto.first_dominators", ()),
    ("repro.core.pareto", "nondominated_mask", "pareto.nondominated_mask",
     (("pareto.nondominated_mask.rows", lambda a, k, mask: len(mask)),
      ("pareto.front_rows", lambda a, k, mask: int(mask.sum())))),
    ("repro.core.adaptive", "global_front_mask", "adaptive.global_front_mask",
     ()),
    ("repro.core.sharding", "run_shard", "sharding.run_shard", ()),
    ("repro.core.sharding", "write_shard_artifact",
     "sharding.write_shard_artifact",
     (("sharding.artifact.bytes", lambda a, k, path: path.stat().st_size),)),
    ("repro.core.sharding", "read_shard_artifact",
     "sharding.read_shard_artifact", ()),
    ("repro.core.framestore", "merge_artifacts_to_store",
     "framestore.merge_artifacts_to_store",
     (("framestore.chunks", lambda a, k, store: store.chunk_count),
      ("framestore.bytes_written", _store_bytes))),
    ("repro.core.framestore", "chunked_nondominated_mask",
     "framestore.chunked_nondominated_mask", ()),
    ("repro.core.warehouse", "read_warehouse_manifest",
     "warehouse.read_warehouse_manifest", ()),
    ("repro.core.warehouse", "load_warehouse", "warehouse.load_warehouse",
     ()),
    ("repro.core.warehouse", "append_shard_artifact",
     "warehouse.append_shard_artifact", ()),
    ("repro.core.queryservice", "rerank_frame", "queryservice.rerank_frame",
     ()),
    ("repro.core.queryservice", "response_bytes",
     "queryservice.response_bytes",
     (("queryservice.response.bytes", lambda a, k, body: len(body)),)),
)

#: ``(module, class, attribute, span name, measures)``.
METHODS = (
    ("repro.core.sweep", "EvaluationCache", "area_key", "sweep.cache_key",
     ()),
    ("repro.core.sweep", "EvaluationCache", "performance_key",
     "sweep.cache_key", ()),
    ("repro.core.sweep", "SweepGrid", "points", "sweep.grid_points", ()),
    ("repro.core.resultframe", "ResultFrame", "csv_lines",
     "resultframe.csv_lines",
     (("resultframe.csv.bytes",
       lambda a, k, lines: sum(len(line) + 1 for line in lines)),)),
    ("repro.core.framestore", "ChunkedFrameStore", "csv_lines",
     "framestore.csv_lines", ()),
    ("repro.core.queryservice", "QueryService", "execute", _execute_name,
     ()),
)


def zero_metrics() -> dict[str, float]:
    """Every fixed-name span's self time, call count and measure, as 0.

    Names chosen per call (the query kinds) are left out.
    """
    metrics: dict[str, float] = {}
    for *_, name, measures in FUNCTIONS + METHODS:
        if isinstance(name, str):
            metrics[f"{name}.s"] = 0.0
            metrics[f"{name}.calls"] = 0
        for key, _ in measures:
            metrics[key] = 0
    return metrics


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in :data:`FUNCTIONS` and :data:`METHODS`."""
    for module_name, attr, name, measures in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = _traced(tracer, original, name, measures)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, attr, None) is original
            ):
                setattr(module, attr, wrapped)
    for module_name, cls_name, attr, name, measures in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(
                _traced(tracer, raw.__func__, name, measures)))
        else:
            setattr(cls, attr, _traced(tracer, raw, name, measures))
