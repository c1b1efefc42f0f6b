"""Span tracer for the benchmark's traced runs.

Spans are recorded from this file only: :func:`install` replaces the
public functions of each layer (module functions in every ``repro``
module that imported them, methods on their classes) with timing
wrappers, and :meth:`Tracer.uninstall` puts the originals back.  No
source file of the program is edited.  ``MemoryHierarchy`` is slotted,
so its wrapper goes on the class, never on an instance; pool workers
inherit every wrapper through ``fork``.

Two kinds of span:

* coarse spans (one per job, trace build, cache call, WAL append,
  board call) keep a full record: id, parent id, name, start, end,
  self time and job id;
* per-op spans (predictor hooks, memory accesses, front-end calls,
  trace-window decodes) run hundreds of thousands of times per job, so
  they are folded into per-job aggregates keyed by
  ``(name, parent name, job)``: calls, total time, self time and, for
  ``predict``, the calls that returned a prediction.  Recording each
  of them would cost more memory than the simulation itself.

Self time is a span's duration minus the time its child spans cover;
it is computed exactly on a per-thread span stack as each span closes.

Fork children (pool workers) leave through ``os._exit``, which skips
``atexit``, and the daemon serves many jobs, so every process other
than the benchmark's own writes its spans to ``<out_dir>/spans-<pid>.jsonl``
each time a root span (a job, a cache call, a WAL append, ...) closes.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

perf = time.perf_counter

#: Span-name prefix → the layer it is charged to.
LAYERS = ("trace", "pipeline", "predictors", "frontend", "memory",
          "campaign", "service")

#: The tracer whose state a fork child must reset (one per process).
_ACTIVE: Optional["Tracer"] = None


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._reset_after_fork()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Tracer:
    """In-memory span recorder for one process (and its fork children).

    ``flush_roots`` makes the owning process itself write its spans out
    whenever a root span closes (the daemon); fork children always do.
    """

    def __init__(self, out_dir: str, flush_roots: bool = False) -> None:
        self.out_dir = out_dir
        self.owner = os.getpid()
        self.flush_roots = flush_roots
        self.local = threading.local()
        self.lock = threading.Lock()
        self.ids = itertools.count(1)
        #: (id, parent id, name, start, end, self, job, attrs)
        self.spans: List[tuple] = []
        #: (name, parent name, job) -> [calls, total, self, hits]
        self.hot: Dict[Tuple[str, str, Optional[str]], List[float]] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- per-thread state ----------------------------------------------
    def _stack(self) -> list:
        try:
            return self.local.stack
        except AttributeError:
            self.local.stack = []
            self.local.job = None
            return self.local.stack

    def set_job(self, job: Optional[str]) -> None:
        """Job id given to root spans opened on this thread."""
        self._stack()
        self.local.job = job

    def _reset_after_fork(self) -> None:
        self.local = threading.local()
        self.lock = threading.Lock()
        self.spans = []
        self.hot = {}

    # -- wrappers --------------------------------------------------------
    def coarse(self, name: str, fn: Callable,
               job_of: Optional[Callable] = None,
               attrs_of: Optional[Callable] = None,
               before: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a fully recorded span.  ``job_of(args)``
        names the job the span starts (job spans only);
        ``attrs_of(args, result, before(args))`` adds attributes."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            job = job_of(args) if job_of is not None else (
                parent[3] if parent is not None else tracer.local.job)
            sid = next(tracer.ids)
            frame = [sid, name, 0.0, job]
            pre = before(args) if before is not None else None
            stack.append(frame)
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                attrs = attrs_of(args, result, pre) \
                    if attrs_of is not None else None
                tracer.spans.append(
                    (sid, parent[0] if parent is not None else 0, name,
                     start, end, duration - frame[2], job, attrs))
                if parent is None and (tracer.flush_roots or
                                       os.getpid() != tracer.owner):
                    tracer.flush()

        wrapper.__wrapped__ = fn
        return wrapper

    def _close_hot(self, frame: list, parent: Optional[list],
                   duration: float) -> List[float]:
        if parent is not None:
            parent[2] += duration
        key = (frame[1], parent[1] if parent is not None else "",
               frame[3])
        acc = self.hot.get(key)
        if acc is None:
            acc = self.hot[key] = [0, 0.0, 0.0, 0]
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - frame[2]
        return acc

    def hot_call(self, name: str, fn: Callable,
                 count_hits: bool = False) -> Callable:
        """Wrap a per-op function in an aggregated span."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [0, name, 0.0,
                     parent[3] if parent is not None else tracer.local.job]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                acc = tracer._close_hot(frame, parent, duration)
            if count_hits and result is not None:
                acc[3] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hot_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: each ``next`` is one aggregated
        span (a trace window decoded), the consumer's work between
        items is not."""
        tracer = self

        def wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                frame = [0, name, 0.0,
                         parent[3] if parent is not None
                         else tracer.local.job]
                stack.append(frame)
                start = perf()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    duration = perf() - start
                    stack.pop()
                    tracer._close_hot(frame, parent, duration)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------
    def patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        had = attr in cls.__dict__
        self._patches.append((cls, attr, cls.__dict__.get(attr), had))
        setattr(cls, attr, wrapper)

    def patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in every loaded ``repro`` module that
        holds it (``from x import f`` copies the binding)."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, True))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []
        if _ACTIVE is self:
            _ACTIVE = None

    # -- output ------------------------------------------------------------
    def _take(self) -> Dict[str, Any]:
        spans, self.spans = self.spans, []
        hot, self.hot = self.hot, {}
        pid = os.getpid()
        return {"pid": pid,
                "role": "control" if pid == self.owner else "worker",
                "spans": spans,
                "hot": [list(key) + acc for key, acc in hot.items()]}

    def take(self) -> Dict[str, Any]:
        """This process's spans and aggregates since the last take."""
        with self.lock:
            return self._take()

    def flush(self) -> None:
        """Append this process's pending spans to its JSONL file (under
        the lock, so the daemon's threads never interleave lines)."""
        with self.lock:
            batch = self._take()
            if not batch["spans"] and not batch["hot"]:
                return
            path = os.path.join(self.out_dir,
                                f"spans-{batch['pid']}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(batch) + "\n")


def _job_label(args: tuple) -> str:
    return args[0].label


def _build_attrs(args: tuple, result: Any, pre: Any) -> list:
    profile, length = args[0], args[1]
    return [profile.name, profile.seed, length, len(result or ())]


def _run_attrs(args: tuple, result: Any, pre: Any) -> list:
    return [len(args[1])]


def _hit_attrs(args: tuple, result: Any, pre: Any) -> list:
    return [result is not None]


def _wal_before(args: tuple) -> int:
    return args[0].bytes_written


def _wal_attrs(args: tuple, result: Any, pre: int) -> list:
    return [args[0].bytes_written - pre]


def _predictor_classes() -> Iterable[type]:
    from repro.pipeline.vp_interface import ValuePredictor

    seen = set()
    todo = list(ValuePredictor.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            yield cls


def install(out_dir: str, level: str,
            flush_roots: bool = False) -> Tracer:
    """Install span wrappers on the program's layers.

    ``level="jobs"`` wraps only ``Engine.run`` and ``execute_job`` (one
    span per simulation: the near-untraced pass that gives KIPS and the
    baseline wall for the tracing overhead); ``level="full"`` wraps
    every layer boundary.
    """
    global _ACTIVE
    import repro.core.fvp  # noqa: F401 - registers predictor classes
    import repro.experiments.campaign as campaign
    import repro.experiments.figures  # noqa: F401 - loads runner
    import repro.predictors  # noqa: F401
    import repro.service.board as board
    import repro.service.wal as wal
    from repro.frontend.fetch import FrontEnd
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.pipeline.engine import Engine
    from repro.trace import builder
    from repro.trace.io import FileSource

    tracer = Tracer(out_dir, flush_roots=flush_roots)
    _ACTIVE = tracer
    tracer.patch_method(Engine, "run", tracer.coarse(
        "pipeline.run", Engine.run, attrs_of=_run_attrs))
    tracer.patch_function(campaign.execute_job, tracer.coarse(
        "campaign.execute_job", campaign.execute_job, job_of=_job_label))
    if level == "jobs":
        return tracer

    tracer.patch_function(builder.build_trace, tracer.coarse(
        "trace.build", builder.build_trace, attrs_of=_build_attrs))
    tracer.patch_method(FileSource, "chunks", tracer.hot_iter(
        "trace.decode", FileSource.chunks))
    soa_windows = getattr(FileSource, "soa_windows", None)
    if soa_windows is not None:
        tracer.patch_method(FileSource, "soa_windows", tracer.hot_iter(
            "trace.decode", soa_windows))
    for attr in ("process_control", "fetch_bubbles"):
        tracer.patch_method(FrontEnd, attr, tracer.hot_call(
            f"frontend.{attr}", getattr(FrontEnd, attr)))
    tracer.patch_method(MemoryHierarchy, "access", tracer.hot_call(
        "memory.access", MemoryHierarchy.access))
    for cls in _predictor_classes():
        for attr in ("predict", "train_execute", "on_forwarding",
                     "epoch_tick"):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, tracer.hot_call(
                    f"predictors.{attr}", cls.__dict__[attr],
                    count_hits=attr == "predict"))
    tracer.patch_function(campaign.job_key, tracer.coarse(
        "campaign.job_key", campaign.job_key))
    cache = campaign.ResultCache
    tracer.patch_method(cache, "get", tracer.coarse(
        "campaign.cache_get", cache.get, attrs_of=_hit_attrs))
    tracer.patch_method(cache, "put", tracer.coarse(
        "campaign.cache_put", cache.put))
    log = wal.WriteAheadLog
    tracer.patch_method(log, "append", tracer.coarse(
        "service.wal_append", log.append, attrs_of=_wal_attrs,
        before=_wal_before))
    for attr in ("submit", "on_event"):
        tracer.patch_method(board.JobBoard, attr, tracer.coarse(
            f"service.board_{attr}", getattr(board.JobBoard, attr)))
    return tracer


def load_batches(out_dir: str) -> List[Dict[str, Any]]:
    """Every span batch flushed to ``out_dir`` by other processes."""
    batches = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                batches.extend(json.loads(line) for line in fh if line)
    return batches
