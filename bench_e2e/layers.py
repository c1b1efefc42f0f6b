"""Per-layer metrics from the span batches of a traced run.

Accounting: a workload's capacity is its traced wall time times its
lanes, the processes that can work at once.  ``replay`` has one lane,
the benchmark process.  ``service`` has one lane per pool worker;
there the capacity that no worker job and no span of the
control processes (benchmark, daemon) covers is the pool's idle time,
charged to ``campaign``.  ``<layer>.share`` is the layer's self time
over that capacity, and ``unattributed`` is what no layer accounts for.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from spans import LAYERS


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def kips(batches: List[Dict[str, Any]]) -> float:
    """Thousands of micro-ops per second over every ``Engine.run``."""
    ops = seconds = 0.0
    for batch in batches:
        for span in batch["spans"]:
            if span[2] == "pipeline.run":
                ops += span[7][0]
                seconds += span[4] - span[3]
    return ops / seconds / 1e3 if seconds else 0.0


def per_layer(batches: List[Dict[str, Any]], wall: float, lanes: int,
              pooled: bool, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric except ``pipeline.kips`` and
    ``tracing_overhead``, which need the near-untraced pass."""
    capacity = wall * lanes
    self_s = {layer: 0.0 for layer in LAYERS}
    coarse: Dict[str, list] = defaultdict(list)
    #: name -> [calls, total, self, hits] over calls made from outside
    #: the span's own layer (the engine's calls, not nested ones).
    hot: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    worker_root = control_self = board_self = 0.0
    for batch in batches:
        worker = batch["role"] == "worker"
        for _sid, parent, name, start, end, own, _job, attrs in \
                batch["spans"]:
            self_s[_layer(name)] += own
            coarse[name].append((end - start, attrs))
            if name.startswith("service.board_"):
                board_self += own
            if not worker:
                control_self += own
            elif parent == 0:
                worker_root += end - start
        for name, parent_name, _job, calls, total, own, hits in \
                batch["hot"]:
            self_s[_layer(name)] += own
            if not worker:
                control_self += own
            if _layer(parent_name) != _layer(name):
                acc = hot[name]
                acc[0] += calls
                acc[1] += total
                acc[2] += own
                acc[3] += hits

    def total(name: str) -> float:
        return sum(duration for duration, _ in coarse[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pool_idle = max(0.0, capacity - worker_root - control_self) \
        if pooled else 0.0
    self_s["campaign"] += pool_idle

    builds = [attrs for _, attrs in coarse["trace.build"]]
    distinct = len({tuple(attrs[:3]) for attrs in builds})
    hooks = ("predictors.predict", "predictors.train_execute",
             "predictors.on_forwarding", "predictors.epoch_tick")
    hook_calls = sum(hot[name][0] for name in hooks)
    gets = [attrs[0] for _, attrs in coarse["campaign.cache_get"]]
    busy = total("campaign.execute_job")
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = ratio(self_s[layer], capacity)
    metrics.update({
        "trace.builds": len(builds),
        "trace.distinct": distinct,
        "trace.rebuild_ratio": ratio(len(builds), distinct),
        "trace.build_s": total("trace.build"),
        "trace.decode_s": hot["trace.decode"][2],
        "pipeline.runs": len(coarse["pipeline.run"]),
        "predictors.predict_calls": hot["predictors.predict"][0],
        "predictors.train_calls": hot["predictors.train_execute"][0],
        "predictors.us_per_call": 1e6 * ratio(self_s["predictors"],
                                              hook_calls),
        "predictors.hit_ratio": ratio(hot["predictors.predict"][3],
                                      hot["predictors.predict"][0]),
        "frontend.control_calls": hot["frontend.process_control"][0],
        "frontend.us_per_control": 1e6 * ratio(
            hot["frontend.process_control"][1],
            hot["frontend.process_control"][0]),
        "memory.access_calls": hot["memory.access"][0],
        "memory.us_per_access": 1e6 * ratio(hot["memory.access"][1],
                                            hot["memory.access"][0]),
        "campaign.jobs": len(coarse["campaign.execute_job"]) + sum(gets),
        "campaign.simulated": len(coarse["campaign.execute_job"]),
        "campaign.worker_busy_s": busy,
        "campaign.worker_util": ratio(busy, capacity) if pooled else 0.0,
        "campaign.idle_s": capacity - busy if pooled else 0.0,
        "campaign.job_key_s": total("campaign.job_key"),
        "campaign.cache_get_s": total("campaign.cache_get"),
        "campaign.cache_put_s": total("campaign.cache_put"),
        "campaign.cache_hit_ratio": ratio(sum(gets), len(gets)),
        "service.wal_appends": len(coarse["service.wal_append"]),
        "service.wal_append_s": total("service.wal_append"),
        "service.wal_bytes": sum(attrs[0] for _, attrs
                                 in coarse["service.wal_append"]),
        "service.board_s": board_self,
        "service.frames": extra.get("frames", 0),
        "service.dedup_ratio": ratio(extra.get("jobs_deduped", 0),
                                     extra.get("jobs_accepted", 0)),
        "unattributed": 1.0 - ratio(sum(self_s.values()), capacity),
    })
    return metrics
