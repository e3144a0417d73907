"""Span tracing of the program's layers, installed from outside ``src/``.

The traced run wraps public entry points of each layer (module functions,
class methods) with timing wrappers.  Every call records one span::

    (span_id, parent_id, op_id, name, start, end, n, extra)

``parent_id`` is the span that was open in the same execution context when
the call began (context variables, so asyncio tasks nest correctly), and
``op_id`` is the benchmark operation the call served.  Spans are kept in
memory, written out as JSON at the end of the run, and folded into
per-layer figures by :func:`layer_metrics`.  A layer's self time is its
span's duration minus the time its direct child spans cover.

Nothing here runs unless :func:`install` is called, so untraced runs execute
the program unchanged.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import pickle
import sys
import time
from collections import defaultdict

_perf = time.perf_counter
_current_span = contextvars.ContextVar("e2ebench_span", default=0)
_current_op = contextvars.ContextVar("e2ebench_op", default=0)

SPANS: list[tuple] = []
_next_id = [0]
#: Wrappers record only while this is set; see :func:`enable`.
_enabled = [True]
_patches: list[tuple[object, str, object]] = []


def set_operation(op_id: int) -> None:
    """Tag the spans recorded from here on (in this context) with ``op_id``."""
    _current_op.set(op_id)


def enable(on: bool) -> None:
    """Switch recording on or off; switched-off wrappers call straight through.

    Lets one process interleave untraced and traced work on the same input
    to measure the tracing overhead under the same host conditions.
    """
    _enabled[0] = bool(on)


def _new_id() -> int:
    _next_id[0] += 1
    return _next_id[0]


def _wrap(name, fn, count=None, extra=None, busy=False, root_op=False):
    """Timing wrapper for a plain function, coroutine function or generator.

    ``count(args, kwargs)`` gives the span's work count ``n`` (observations,
    bytes); ``extra(result, args, kwargs)`` a per-call figure recorded after
    the clock stopped.  With ``busy`` the call returns an iterator and the
    span records *busy* time only — the call plus the time spent inside each
    ``next()`` — so a consumer's work between items is not charged to the
    producer.  ``root_op`` gives each call a fresh operation id.
    """

    def _enter(args, kwargs):
        span_id = _new_id()
        parent = _current_span.get()
        if root_op:
            _current_op.set(span_id)
        token = _current_span.set(span_id)
        n = count(args, kwargs) if count is not None else 1
        return span_id, parent, token, n

    def _leave(span_id, parent, token, n, start, end, result, args, kwargs):
        _current_span.reset(token)
        value = extra(result, args, kwargs) if extra is not None else None
        SPANS.append((span_id, parent, _current_op.get(), name, start, end, n, value))

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            if not _enabled[0]:
                return await fn(*args, **kwargs)
            span_id, parent, token, n = _enter(args, kwargs)
            start = _perf()
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                _current_span.reset(token)
                raise
            end = _perf()
            _leave(span_id, parent, token, n, start, end, result, args, kwargs)
            return result

        return async_wrapper

    if busy:

        @functools.wraps(fn)
        def iterator_wrapper(*args, **kwargs):
            if not _enabled[0]:
                return fn(*args, **kwargs)
            span_id = _new_id()
            parent = _current_span.get()
            start = _perf()
            iterator = fn(*args, **kwargs)
            return _busy_iterator(name, iterator, span_id, parent, start, _perf() - start, count)

        return iterator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _enabled[0]:
            return fn(*args, **kwargs)
        span_id, parent, token, n = _enter(args, kwargs)
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            _current_span.reset(token)
            raise
        end = _perf()
        _leave(span_id, parent, token, n, start, end, result, args, kwargs)
        return result

    return wrapper


_INHERITED = object()


def _busy_iterator(name, iterator, span_id, parent, first, spent, count):
    """Yield from ``iterator``, charging the span only the time inside ``next()``."""
    n = 0
    try:
        while True:
            start = _perf()
            try:
                item = next(iterator)
            except StopIteration:
                spent += _perf() - start
                break
            spent += _perf() - start
            n += count((item,), {}) if count is not None else 1
            yield item
    finally:
        SPANS.append((span_id, parent, _current_op.get(), name, first, first + spent, n, None))


def _patch(owner, attr: str, wrapper) -> None:
    if isinstance(owner, type):
        original = owner.__dict__.get(attr, _INHERITED)
    else:
        original = getattr(owner, attr)
    _patches.append((owner, attr, original))
    setattr(owner, attr, wrapper)


def _patch_method(cls, attr, name, **options):
    _patch(cls, attr, _wrap(name, getattr(cls, attr), **options))


def _patch_function(module_name: str, attr: str, name: str, **options) -> None:
    """Wrap a module-level function everywhere it was imported by name."""
    module = sys.modules[module_name]
    original = getattr(module, attr)
    wrapper = _wrap(name, original, **options)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.startswith("repro") and getattr(loaded, attr, None) is original:
            _patch(loaded, attr, wrapper)


def _values_len(args, kwargs):
    values = kwargs.get("values", args[1] if len(args) > 1 else None)
    return int(getattr(values, "shape", (len(values),))[0]) if values is not None else 0


def _batch_len(args, kwargs):
    return int(args[2].shape[0])


def _pickled_kib(result, args, kwargs):
    return len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)) / 1024.0


def install() -> None:
    """Wrap every layer entry point the per-layer ledger reads.

    Must run before services are constructed: the HTTP router binds its
    handler methods at construction time.
    """
    import repro.api.checkpoint  # noqa: F401  (patched by module name below)
    from repro.competitors.base import StreamSegmenter
    from repro.competitors.page_hinkley import PageHinkley
    from repro.core.class_segmenter import ClaSS
    from repro.core.significance import ChangePointSignificanceTest
    from repro.core.streaming_knn import StreamingKNN
    from repro.service.durability import DurabilityManager
    from repro.service.protocol import HTTPRequest
    from repro.service.routes import ServiceRoutes
    from repro.service.server import SegmentationService
    from repro.service.workers import ShardWorker, WorkerPool
    from repro.storage.checkpoints import CheckpointIndex
    from repro.storage.chunkstore import ChunkStoreWriter, StoredStream
    from repro.storage.eventlog import EventLog
    from repro.storage.history import StreamHistory
    from repro.storage.store import StreamStore

    # core
    _patch_method(StreamingKNN, "update_many", "core.streaming_knn", busy=True)
    segmenter_module = "repro.core.class_segmenter"
    _patch_function(segmenter_module, "cross_val_scores_from_thresholds", "core.cross_val")
    _patch_function(segmenter_module, "learn_subsequence_width", "core.window_size")
    _patch_method(
        ChangePointSignificanceTest, "test", "core.significance",
        extra=lambda result, a, k: bool(result.significant),
    )
    # api dispatch, events, checkpoints; the competitor's own work
    for cls in (ClaSS, StreamSegmenter):
        _patch_method(cls, "process", "api.process", count=_values_len)
        _patch_method(cls, "events", "api.events")
        _patch_method(cls, "save_state", "api.checkpoint.save", extra=_pickled_kib)
    _patch_function("repro.api.checkpoint", "restore", "api.checkpoint.restore")
    _patch_method(PageHinkley, "process_chunk", "competitors.page_hinkley", count=_values_len)
    # service
    _patch_method(SegmentationService, "_dispatch", "service.dispatch", root_op=True)
    _patch_method(HTTPRequest, "json", "service.protocol.decode")
    _patch_function("repro.service.protocol", "render_response", "service.protocol.encode")
    for handler in ("push_observations", "stream_events", "create_stream", "healthz", "metrics"):
        _patch_method(ServiceRoutes, handler, "service.routes.handler")
    _patch_method(WorkerPool, "process", "service.workers.pool")
    _patch_queue_wait(ShardWorker)
    _patch_method(DurabilityManager, "log_batch", "service.durability.log_batch")
    _patch_method(DurabilityManager, "checkpoint", "service.durability.checkpoint")
    # storage
    _patch_method(StreamHistory, "append", "storage.history.append")
    _patch_method(StreamHistory, "read_since", "storage.history.read_since")
    _patch_method(EventLog, "append", "storage.eventlog.append")
    _patch_method(EventLog, "read_range", "storage.eventlog.read_range")
    _patch_method(ChunkStoreWriter, "append", "storage.chunkstore.append",
                  count=lambda a, k: int(getattr(a[1], "nbytes", 0)))
    _patch_method(ChunkStoreWriter, "close", "storage.chunkstore.seal")
    _patch_method(StoredStream, "iter_chunks", "storage.chunkstore.read",
                  count=lambda a, k: int(a[0].nbytes), busy=True)
    _patch_method(CheckpointIndex, "add", "storage.checkpoints.add")
    _patch_method(CheckpointIndex, "load_at_or_before", "storage.checkpoints.load")
    _patch_method(StreamStore, "resegment", "storage.store.resegment")
    _patch(os, "fsync", _wrap("storage.fsync", os.fsync))


def _patch_queue_wait(worker_cls) -> None:
    """Record each batch's shard-queue wait: worker start minus enqueue time."""
    original = worker_cls._process

    @functools.wraps(original)
    def with_wait(self, stream, values, seq, enqueued_at):
        wait = _perf() - enqueued_at
        SPANS.append((_new_id(), 0, _current_op.get(), "service.workers.queue_wait",
                      enqueued_at, enqueued_at + wait, 1, None))
        return original(self, stream, values, seq, enqueued_at)

    _patch(worker_cls, "_process", _wrap("service.workers.exec", with_wait, count=_batch_len))


def uninstall() -> None:
    """Restore every wrapped attribute (last patched, first restored)."""
    while _patches:
        owner, attr, original = _patches.pop()
        if original is _INHERITED:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def dump(path) -> None:
    """Write the recorded spans as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(SPANS, handle)


def load(path) -> list[tuple]:
    """Read spans written by :func:`dump`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


# --------------------------------------------------------------------------- #
# folding spans into per-layer figures
# --------------------------------------------------------------------------- #


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times (µs/ms) from a list of spans.

    Layers absent from a workload report 0.
    """
    child_time: dict[int, float] = defaultdict(float)
    name_of: dict[int, str] = {}
    for span_id, parent, _op, name, start, end, _n, _extra in spans:
        name_of[span_id] = name
        if parent:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    extras: dict[str, list] = defaultdict(list)
    durations: dict[str, list] = defaultdict(list)
    spilled = 0
    for span_id, parent, _op, name, start, end, n, extra in spans:
        duration = end - start
        calls[name] += 1
        total[name] += duration
        self_total[name] += duration - child_time.get(span_id, 0.0)
        work[name] += n
        if extra is not None:
            extras[name].append(extra)
        if name == "service.workers.queue_wait":
            durations[name].append(duration)
        if name == "storage.eventlog.append" and name_of.get(parent) == "storage.history.append":
            spilled += 1

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    saves, restores = "api.checkpoint.save", "api.checkpoint.restore"
    checkpoint_calls = calls[saves] + calls[restores]
    fired = extras["core.significance"]
    waits = durations["service.workers.queue_wait"]
    return {
        "core.streaming_knn.calls": calls["core.streaming_knn"],
        "core.streaming_knn.us_per_obs": per(
            total["core.streaming_knn"], work["core.streaming_knn"], 1e6
        ),
        "core.cross_val.calls": calls["core.cross_val"],
        "core.cross_val.us_per_call": per(total["core.cross_val"], calls["core.cross_val"], 1e6),
        "core.window_size.ms_per_call": per(
            total["core.window_size"], calls["core.window_size"], 1e3
        ),
        "core.significance.calls": calls["core.significance"],
        "core.significance.us_per_call": per(
            total["core.significance"], calls["core.significance"], 1e6
        ),
        "core.significance.fired_per_test": per(sum(fired), len(fired)),
        "api.process.calls": calls["api.process"],
        "api.process.self_us_per_obs": per(self_total["api.process"], work["api.process"], 1e6),
        "api.events.calls": calls["api.events"],
        "api.events.us_per_call": per(total["api.events"], calls["api.events"], 1e6),
        "competitors.page_hinkley.us_per_obs": per(
            total["competitors.page_hinkley"], work["competitors.page_hinkley"], 1e6
        ),
        "api.checkpoint.calls": checkpoint_calls,
        "api.checkpoint.kb_per_call": per(sum(extras[saves]), len(extras[saves])),
        "api.checkpoint.ms_per_call": per(total[saves] + total[restores], checkpoint_calls, 1e3),
        "service.protocol.decode_us_per_req": per(
            total["service.protocol.decode"], calls["service.protocol.decode"], 1e6
        ),
        "service.protocol.encode_us_per_resp": per(
            total["service.protocol.encode"], calls["service.protocol.encode"], 1e6
        ),
        "service.routes.handler_us_per_req": per(
            self_total["service.routes.handler"], calls["service.routes.handler"], 1e6
        ),
        "service.workers.queue_wait_ms_p50": _quantile(waits, 0.50) * 1e3,
        "service.workers.queue_wait_ms_p99": _quantile(waits, 0.99) * 1e3,
        "service.workers.exec_us_per_obs": per(
            total["service.workers.exec"], work["service.workers.exec"], 1e6
        ),
        "service.durability.log_batch_us_per_call": per(
            total["service.durability.log_batch"], calls["service.durability.log_batch"], 1e6
        ),
        "service.durability.checkpoints": calls["service.durability.checkpoint"],
        "service.durability.checkpoint_ms_per_call": per(
            total["service.durability.checkpoint"], calls["service.durability.checkpoint"], 1e3
        ),
        "storage.history.read_since_ms_per_call": per(
            total["storage.history.read_since"], calls["storage.history.read_since"], 1e3
        ),
        "storage.history.spilled_events": spilled,
        "storage.eventlog.append_us_per_event": per(
            total["storage.eventlog.append"], calls["storage.eventlog.append"], 1e6
        ),
        "storage.eventlog.read_range_ms_per_call": per(
            total["storage.eventlog.read_range"], calls["storage.eventlog.read_range"], 1e3
        ),
        "storage.fsync.calls": calls["storage.fsync"],
        "storage.fsync.ms_total": total["storage.fsync"] * 1e3,
        # appends buffer rows; segment files are sealed (written, fsynced) on close
        "storage.chunkstore.append_mb_s": per(
            work["storage.chunkstore.append"],
            total["storage.chunkstore.append"] + total["storage.chunkstore.seal"],
            1e-6,
        ),
        "storage.chunkstore.read_mb_s": per(
            work["storage.chunkstore.read"], total["storage.chunkstore.read"], 1e-6
        ),
        "storage.checkpoints.add_ms_per_call": per(
            total["storage.checkpoints.add"], calls["storage.checkpoints.add"], 1e3
        ),
        "storage.checkpoints.load_ms_per_call": per(
            total["storage.checkpoints.load"], calls["storage.checkpoints.load"], 1e3
        ),
        "storage.store.resegment_ms_per_call": per(
            total["storage.store.resegment"], calls["storage.store.resegment"], 1e3
        ),
    }
