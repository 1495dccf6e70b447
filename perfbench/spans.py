"""Outside-in span tracing for the traced benchmark run.

The tracer wraps the public entry point of each layer of the serving
stack with a timer, from the benchmark's own files: no span lives in
the program.  Every call records one span -- layer name, start, end,
parent span and thread -- in per-thread arrays kept in memory, and
nothing is written until the run ends (:func:`write_trace`).

A layer's *self* time is its span minus the part its child spans on the
same thread cover, so self times of one thread partition that thread's
busy time.  ``DRange.prepare`` (re-identification during a recovery) is
traced as one opaque span: the noise draws it makes are identification
work, not harvest work, and are charged to it rather than to ``noise``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layer name of each span, in the order the table prints them.
LAYERS = (
    "serving.service",
    "serving.admission",
    "serving.pool.take",
    "serving.pool.refill",
    "core.integration",
    "core.drange.prepare",
    "core.sampler",
    "backends.quac",
    "noise",
    "postprocess",
    "health",
)

BitsFn = Callable[[tuple, Any], int]


#: Fields of one span record, stored flat in a per-thread array.
FIELDS = ("name", "parent", "start", "end", "bits")
_WIDTH = len(FIELDS)


class _ThreadSpans:
    """Span records of one thread, appended only by that thread.

    Record ``i`` occupies ``records[5*i : 5*i + 5]`` (:data:`FIELDS`);
    ``parent`` is a record index on the same thread, -1 for a root, and
    ``end`` stays 0 while the span is open.
    """

    __slots__ = ("ident", "records", "stack", "opaque")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.records = array("q")
        self.stack = [-1]
        self.opaque = 0


class Tracer:
    """Records spans from every thread that calls a wrapped function."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        bits: Optional[BitsFn] = None,
        opaque: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` timed as one span of ``layer``.

        ``bits(args, result)`` gives the bits the call handled; an
        ``opaque`` span records no spans for the calls it makes.
        """
        layer_id = LAYERS.index(layer)
        spans_of = self._spans
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = spans_of()
            if spans.opaque:
                return fn(*args, **kwargs)
            records, stack = spans.records, spans.stack
            at = len(records)
            records.extend((layer_id, stack[-1] // _WIDTH, clock(), 0, 0))
            stack.append(at)
            spans.opaque += opaque
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                records[at + 3] = clock()
                stack.pop()
                spans.opaque -= opaque
                if bits is not None and result is not None:
                    records[at + 4] = bits(args, result)

        return traced

    def wrap_context(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` returns a context manager; time its enter and exit.

        The ``with`` body is not part of the layer: it runs between the
        two spans and is charged to the caller's span.
        """
        timed_enter = self.wrap(layer, lambda manager: manager.__enter__())
        timed_exit = self.wrap(layer, lambda manager, *exc: manager.__exit__(*exc))

        class _Traced:
            def __init__(self, inner: Any) -> None:
                self._inner = inner

            def __enter__(self) -> Any:
                return timed_enter(self._inner)

            def __exit__(self, *exc_info: Any) -> Any:
                return timed_exit(self._inner, *exc_info)

        def traced(*args: Any, **kwargs: Any) -> Any:
            return _Traced(fn(*args, **kwargs))

        return traced

    def columns(self) -> Dict[str, np.ndarray]:
        """Every closed span as flat numpy columns (:data:`FIELDS` + thread).

        ``parent`` indexes into the same flat columns (-1 for a root);
        ``thread`` is 0 for the first thread that recorded a span.
        """
        with self._lock:
            threads = list(self._threads)
        tables = []
        offset = 0
        for number, spans in enumerate(threads):
            count = len(spans.records) // _WIDTH
            table = np.frombuffer(spans.records, dtype=np.int64)[: count * _WIDTH]
            table = table.reshape(count, _WIDTH).copy()
            table[table[:, 1] >= 0, 1] += offset
            tables.append(np.column_stack([table, np.full(count, number, dtype=np.int64)]))
            offset += count
        merged = np.concatenate(tables) if tables else np.zeros((0, _WIDTH + 1), dtype=np.int64)
        return {key: merged[:, i] for i, key in enumerate(FIELDS + ("thread",))}

    def thread_number(self, ident: int) -> int:
        """Column ``thread`` value of the thread with ``ident`` (-1 if none)."""
        with self._lock:
            for number, spans in enumerate(self._threads):
                if spans.ident == ident:
                    return number
        return -1


def _arg_size(position: int) -> BitsFn:
    return lambda args, result: int(np.asarray(args[position]).size)


def _arg_int(position: int) -> BitsFn:
    return lambda args, result: int(args[position])


def _result_size(args: tuple, result: Any) -> int:
    return int(np.asarray(result).size)


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's public calls; returns the function undoing it."""
    import repro.backends.quac as quac_module
    from repro.backends.quac import QuacBackend
    from repro.core.drange import DRange
    from repro.core.integration import DRangeService
    from repro.core.sampler import DRangeSampler
    from repro.health import HealthMonitor
    from repro.noise import NoiseSource
    from repro.serving.admission import AdmissionController
    from repro.serving.pool import EntropyPool
    from repro.serving.service import BufferedRngService

    plain: List[Tuple[Any, str, str, Optional[BitsFn], bool]] = [
        (BufferedRngService, "request", "serving.service", _arg_int(1), False),
        (EntropyPool, "take", "serving.pool.take", _arg_int(1), False),
        (EntropyPool, "_refill_once", "serving.pool.refill", None, False),
        (DRangeService, "request_into", "core.integration", _arg_size(1), False),
        (DRangeService, "request", "core.integration", _arg_int(1), False),
        (DRange, "prepare", "core.drange.prepare", None, True),
        (DRangeSampler, "generate_fast", "core.sampler", _arg_int(1), False),
        (QuacBackend, "sample", "backends.quac", _arg_int(2), False),
        (NoiseSource, "bernoulli_plane", "noise", _result_size, False),
        (quac_module, "sha256_block_condition", "postprocess", _arg_size(0), False),
        (HealthMonitor, "feed", "health", _arg_size(1), False),
        (HealthMonitor, "startup", "health", _arg_size(1), False),
    ]
    originals = []
    for owner, attribute, layer, bits, opaque in plain:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(layer, original, bits=bits, opaque=opaque))
    admit = AdmissionController.__dict__["admit"]
    originals.append((AdmissionController, "admit", admit))
    AdmissionController.admit = tracer.wrap_context("serving.admission", admit)

    def restore() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return restore


def layer_table(
    columns: Dict[str, np.ndarray], window: Tuple[int, int], caller: int
) -> Dict[str, Dict[str, float]]:
    """Per-layer totals over the spans that lie inside ``window``.

    For each layer: ``calls``, ``bits``, inclusive and self nanoseconds
    on the caller thread and on every other thread (the pool's refill
    thread).  A child whose parent fell outside the window counts as a
    root.
    """
    start, end = window
    keep = (columns["start"] >= start) & (columns["end"] <= end) & (columns["end"] > 0)
    duration = np.where(keep, columns["end"] - columns["start"], 0)
    parent = columns["parent"]
    child_ns = np.zeros(parent.size, dtype=np.int64)
    linked = keep & (parent >= 0)
    linked[linked] &= keep[parent[linked]]
    np.add.at(child_ns, parent[linked], duration[linked])
    self_ns = duration - child_ns
    on_caller = columns["thread"] == caller
    table: Dict[str, Dict[str, float]] = {}
    for layer_id, layer in enumerate(LAYERS):
        mine = keep & (columns["name"] == layer_id)
        table[layer] = {
            "calls": int(mine.sum()),
            "bits": int(columns["bits"][mine].sum()),
            "caller_ns": int(duration[mine & on_caller].sum()),
            "caller_self_ns": int(self_ns[mine & on_caller].sum()),
            "other_ns": int(duration[mine & ~on_caller].sum()),
            "other_self_ns": int(self_ns[mine & ~on_caller].sum()),
        }
    return table


def write_trace(
    directory: str,
    stem: str,
    columns: Dict[str, np.ndarray],
    report: Dict[str, Any],
) -> Tuple[str, str]:
    """Write the spans (``.npz``) and the per-layer report (``.json``)."""
    os.makedirs(directory, exist_ok=True)
    spans_path = os.path.join(directory, f"{stem}.spans.npz")
    report_path = os.path.join(directory, f"{stem}.layers.json")
    np.savez_compressed(spans_path, layers=np.array(LAYERS), **columns)
    with open(report_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return spans_path, report_path
