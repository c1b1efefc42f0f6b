"""The benchmark's two workloads, each split into set-up, measured
phase and teardown.

* ``replay`` times long v2 trace files through ``Engine.run``, in
  process and serially: the engine and predictors do almost all the
  work, trace generation and the campaign none.  The baseline cells
  are the runs the default engine backend vectorizes.
* ``service`` drives a ``repro serve`` daemon (cache and WAL on) from
  one client: a batch of short jobs, a third of them already in the
  cache, then the same batch again, which the board answers from
  memory.  Durability, framing and per-job fork dominate; the engine
  does little.

Every measured phase returns an :class:`Outcome` whose ``outputs`` are
checked against ``expected.json``.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

perf = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

#: replay: (workload, predictor spec) cells over 50k-op trace files.
#: The mcf and gcc baselines give the two predictor cells their gains.
#: A repetition takes about 3-4 s, so a 45 s run has a dozen and their
#: median rides out a slow stretch of the host.
REPLAY_CELLS = (("mcf", "fvp"), ("gcc", "composite-8kb"),
                ("omnetpp", None), ("mcf", None), ("gcc", None))
REPLAY_LENGTH = 50_000

#: service: the first 25 catalogue workloads x 4 specs at 5k ops = 100
#: jobs, so each pass has 10 result samples beyond p90.
SERVICE_WORKLOADS = 25
SERVICE_SPECS = (None, "fvp", "composite-8kb", "mr-8kb")
SERVICE_LENGTH = 5_000
#: Every third job of the batch is put in the cache before the daemon
#: starts.  A third, not a half, keeps the median result latency inside
#: the simulated jobs instead of on the seam between hits and misses.
SERVICE_PREFILL_EVERY = 3
#: Seconds to wait for the daemon to answer ``ping`` or to exit.
DAEMON_WAIT = 60.0


@dataclass
class Outcome:
    """What one measured phase produced."""

    outputs: Dict[str, Any]
    attempted: int
    failed: int = 0
    #: Seconds from the start of the measured phase (the submit, for
    #: the service) to each job's result.
    results: List[float] = field(default_factory=list)
    #: Metrics only the measured phase can see (paper_err_pp, frames).
    extra: Dict[str, float] = field(default_factory=dict)


def spec_name(spec: Optional[str]) -> str:
    return spec if spec is not None else "baseline"


def paper_err_pp(gains: Dict[str, float]) -> float:
    """Mean absolute distance, in percentage points, between measured
    predictor gains and the paper's Fig 10 gains for those predictors."""
    from repro.experiments.figures import PAPER_FIG10

    errors = [abs(gain - PAPER_FIG10[spec]["gain"])
              for spec, gain in gains.items()]
    return 100.0 * sum(errors) / len(errors)


def child_env() -> Dict[str, str]:
    """Environment for the benchmark's own subprocesses: the (already
    hermetic) current one, with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Workload:
    """Set-up, measured phase and teardown of one workload.

    ``wseed`` is the trace-generation seed (the replayed profiles'
    ``reseeded`` seed, ``Job.seed`` for the service): it fixes every
    simulated result.  ``order`` is a ``random.Random`` seeded with the
    benchmark's ``--seed``; each set-up of the service draws from it
    the order jobs are submitted in, which moves timing but no
    result.  Replay cells keep a fixed order: with five result samples
    per repetition, their order would decide the result percentiles.
    ``lanes_are_workers`` says the work runs on the pool."""

    name = ""
    lanes_are_workers = False

    def __init__(self, wseed: int, order: random.Random,
                 workers: int) -> None:
        self.wseed = wseed
        self.order = order
        self.workers = workers
        #: Span tracer installed in this process for a traced run.
        self.tracer: Any = None
        #: (span dir, level) when the daemon must record spans too.
        self.trace: Optional[tuple] = None

    def prepare(self) -> None:
        """Once per run, before the first set-up: make inputs."""

    def setup(self, tmp: str) -> Any:
        raise NotImplementedError

    def measure(self, state: Any) -> Outcome:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what set-up started."""


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
class Replay(Workload):
    name = "replay"

    def setup(self, tmp: str) -> List[tuple]:
        from repro.trace.builder import build_trace
        from repro.trace.io import write_trace_file
        from repro.trace.workloads import get_profile, reseeded

        cells = []
        for workload, spec in REPLAY_CELLS:
            path = os.path.join(tmp, f"{workload}.rvt")
            if not os.path.exists(path):
                profile = reseeded(get_profile(workload), self.wseed)
                write_trace_file(build_trace(profile, REPLAY_LENGTH), path)
            cells.append((workload, spec, path))
        return cells

    def measure(self, cells: List[tuple]) -> Outcome:
        from repro.experiments.runner import core_config, default_warmup
        from repro.pipeline.engine import Engine
        from repro.predictors import make_predictor
        from repro.trace.io import open_trace

        outputs: Dict[str, int] = {}
        out = Outcome({"cells": outputs}, attempted=len(cells))
        start = perf()
        for workload, spec, path in cells:
            label = f"{workload}/{spec_name(spec)}"
            if self.tracer is not None:
                self.tracer.set_job(label)
            source = open_trace(path)
            try:
                predictor = make_predictor(spec) if spec else None
                engine = Engine(core_config("skylake"), predictor)
                result = engine.run(source, workload=workload,
                                    warmup=default_warmup(len(source)))
            finally:
                source.close()
            outputs[label] = result.cycles
            out.results.append(perf() - start)
        out.extra["paper_err_pp"] = paper_err_pp({
            spec: outputs[f"{workload}/baseline"] / outputs[
                f"{workload}/{spec}"] - 1.0
            for workload, spec, _ in cells if spec is not None})
        return out


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class Service(Workload):
    name = "service"
    lanes_are_workers = True

    def __init__(self, wseed: int, order: random.Random,
                 workers: int) -> None:
        from repro.experiments.campaign import Job
        from repro.experiments.runner import default_warmup
        from repro.trace.workloads import workload_names

        super().__init__(wseed, order, workers)
        warmup = default_warmup(SERVICE_LENGTH)
        self.batch = [Job(workload, "skylake", spec, SERVICE_LENGTH,
                          warmup, wseed)
                      for workload in workload_names()[:SERVICE_WORKLOADS]
                      for spec in SERVICE_SPECS]
        self.prefill: Dict[Any, Any] = {}

    def prepare(self) -> None:
        """Simulate the results of the pre-filled third of the batch,
        once per benchmark run: they are the benchmark's input, and
        only writing them into each fresh cache is set-up."""
        from repro.experiments.campaign import CampaignEngine

        jobs = self.batch[::SERVICE_PREFILL_EVERY]
        self.prefill = CampaignEngine(jobs=self.workers).run_jobs(jobs)

    def setup(self, tmp: str) -> Dict[str, Any]:
        from repro.errors import ServiceError, ServiceUnavailable
        from repro.experiments.campaign import ResultCache, job_key
        from repro.service import client

        cache_dir = os.path.join(tmp, "cache")
        sock = os.path.relpath(os.path.join(tmp, "s.sock"))
        start = perf()
        cache = ResultCache(cache_dir)
        for job, result in self.prefill.items():
            cache.put(job_key(job), result, label=job.label)
        serve_args = ["--socket", sock, "--cache-dir", cache_dir,
                      "--jobs", str(self.workers)]
        if self.trace is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            argv = [sys.executable, os.path.join(HERE, "serve.py"),
                    *self.trace, "--", *serve_args]
        log = open(os.path.join(tmp, "daemon.log"), "wb")
        proc = subprocess.Popen(argv, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        state = {"proc": proc, "log": log, "sock": sock,
                 "batch": self.order.sample(self.batch, len(self.batch))}
        started = False
        try:
            while not started:
                try:
                    client.ping(sock, timeout=5.0)
                    started = True
                except ServiceUnavailable:  # until the socket binds
                    if proc.poll() is not None or \
                            perf() - start > DAEMON_WAIT:
                        raise ServiceError(
                            f"daemon did not start (exit {proc.poll()})")
                    time.sleep(0.002)
        finally:
            if not started:
                self.teardown(state)
        return state

    def _pass(self, state: Dict[str, Any], out: Outcome,
              samples: bool) -> None:
        from repro.service import client

        submitted = perf()
        for frame in client.submit(state["sock"], state["batch"],
                                   watch=True):
            now = perf()
            out.extra["frames"] += 1
            kind = frame.get("event")
            if kind == "accepted":
                out.extra["jobs_accepted"] += frame["total"]
                out.extra["jobs_deduped"] += (frame["deduped_inflight"]
                                              + frame["deduped_cached"])
            elif kind == "job" and frame.get("status") in ("hit", "done"):
                out.outputs["jobs"][frame["label"]] = \
                    frame["result"]["cycles"]
                if samples:
                    out.results.append(now - submitted)
            elif kind == "job" and frame.get("status") == "fail":
                out.failed += 1

    def measure(self, state: Dict[str, Any]) -> Outcome:
        out = Outcome({"jobs": {}}, attempted=2 * len(self.batch),
                      extra={"frames": 0, "jobs_accepted": 0,
                             "jobs_deduped": 0})
        self._pass(state, out, samples=True)
        self._pass(state, out, samples=False)
        cycles = out.outputs["jobs"]
        workloads = {job.workload for job in self.batch}
        gains = {}
        for spec in SERVICE_SPECS[1:]:
            pairs = [(f"{w}/skylake/baseline", f"{w}/skylake/{spec}")
                     for w in sorted(workloads)]
            ratios = [cycles[base] / cycles[label] for base, label in pairs
                      if base in cycles and label in cycles]
            gains[spec] = statistics.geometric_mean(ratios) - 1.0
        out.extra["paper_err_pp"] = paper_err_pp(gains)
        return out

    def teardown(self, state: Dict[str, Any]) -> None:
        from repro.errors import ReproError
        from repro.service import client

        proc = state["proc"]
        if proc.poll() is None:
            try:
                client.shutdown(state["sock"])
            except ReproError:  # daemon already gone; reap it below
                pass
            try:
                proc.wait(timeout=DAEMON_WAIT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        state["log"].close()


WORKLOADS = {cls.name: cls for cls in (Replay, Service)}


def fresh_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
