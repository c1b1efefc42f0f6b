"""Repository benchmark: long-trace replay and a campaign service run,
with per-layer spans.

Run from the repository root:

    python3 bench_e2e/run.py --workload replay|service \\
        [--seed N] [--workload-seed W] [--seconds S] [--trace 0|1] [--record]

``--trace 0`` repeats set-up and measured phase until ``--seconds`` of
measured time have passed, sets up alone until there are
``MIN_SETUPS`` set-ups (or ``EXTRA_SETUP_SECONDS`` pass), and reports
every end-to-end metric of ``BENCHMARK.json`` (medians over the
repetitions).  ``--trace 1`` runs the workload twice, once with only
one span per simulation (the KIPS and the untraced wall) and once with
every layer wrapper installed, and reports every per-layer metric.  Either way each job's simulated
cycle count is checked against ``expected.json``; a mismatch counts
as a failed job.
``--record`` instead writes the outputs of one repetition into
``expected.json`` for the run's workload seed (after an intended model
change).

The last line of standard output is the result object; the line
before it is the host context (nproc, Python, load average, engine
backend, per-repetition values and sample counts).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

#: Trace-generation seed used unless ``--workload-seed`` says
#: otherwise; ``expected.json`` holds outputs for 1, 2 and 3.
DEFAULT_WORKLOAD_SEED = 1
#: Stop repeating when another repetition could pass this many
#: seconds of run time (the benchmark must end within 180 s).
TIME_CAP = 120.0
#: Set-ups wanted per ``--trace 0`` run, the extra ones without a
#: measured phase, within ``EXTRA_SETUP_SECONDS``: ``setup_s`` is
#: their median.
MIN_SETUPS = 9
EXTRA_SETUP_SECONDS = 4.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay", "service"))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the service's jobs; moves no result")
    parser.add_argument("--workload-seed", type=int,
                        default=DEFAULT_WORKLOAD_SEED,
                        help="trace-generation seed (reseeded profiles, "
                             "Job.seed); keys the output check")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    return parser.parse_args(argv)


def hermetic_env(tmp: str) -> None:
    """No ``REPRO_*`` setting reaches the program (``runner`` reads
    ``REPRO_LENGTH``/``REPRO_WARMUP`` at import, so this runs first),
    and temporary files stay inside the checkout."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            del os.environ[key]
    os.environ["TMPDIR"] = tmp


def workers() -> int:
    return len(os.sched_getaffinity(0))


def mismatches(expected, outputs) -> int:
    """Jobs whose output differs from ``expected``; a missing or
    unexpected entry counts too."""
    if expected is None:
        return 1
    bad = 0
    for section, want in expected.items():
        got = outputs.get(section, {})
        for key in set(want) | set(got):
            bad += want.get(key) != got.get(key)
    return bad


def engine_backend() -> str:
    from repro.experiments.runner import core_config
    from repro.pipeline.engine import Engine

    engine = Engine(core_config("skylake"))
    resolve = getattr(engine, "_resolve_backend", None)
    return resolve() if resolve is not None else "default"


def quantile(values, index):
    return statistics.quantiles(values, n=10, method="inclusive")[index]


def emit(spec, metrics, correct, attempted, failed, context) -> None:
    units = {m["name"]: m["unit"] for m in spec}
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))


def repetition(work, tmp, name, before_measure=None):
    """One set-up, measured phase and teardown in a fresh directory;
    returns ``(setup seconds, measured seconds, Outcome)``."""
    from workloads import fresh_dir

    rep_dir = fresh_dir(tmp, name)
    t0 = perf()
    state = work.setup(rep_dir)
    setup_s = perf() - t0
    try:
        if before_measure is not None:
            before_measure()
        t1 = perf()
        out = work.measure(state)
        wall_s = perf() - t1
    finally:
        work.teardown(state)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return setup_s, wall_s, out


def setup_only(work, tmp, name) -> float:
    """Seconds of one set-up, torn down without a measured phase."""
    from workloads import fresh_dir

    rep_dir = fresh_dir(tmp, name)
    t0 = perf()
    state = work.setup(rep_dir)
    setup_s = perf() - t0
    work.teardown(state)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return setup_s


def failures(expected, out) -> int:
    return min(out.attempted,
               out.failed + mismatches(expected, out.outputs))


def run_plain(work, args, tmp, expected, context):
    """--trace 0: repeat set-up + measured phase for --seconds."""
    setups, walls, results = [], [], []
    attempted = failed = 0
    started = perf()
    while True:
        setup_s, wall_s, out = repetition(work, tmp, f"rep{len(walls)}")
        setups.append(setup_s)
        walls.append(wall_s)
        results.extend(out.results)
        attempted += out.attempted
        failed += failures(expected, out)
        spent = perf() - started
        if sum(walls) >= args.seconds or \
                spent + spent / len(walls) > TIME_CAP:
            break
    extra_until = perf() + EXTRA_SETUP_SECONDS
    while len(setups) < MIN_SETUPS and perf() < extra_until:
        setups.append(setup_only(work, tmp, f"setup{len(setups)}"))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "result_p50_s": quantile(results, 4),
        "result_p90_s": quantile(results, 8),
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
        "paper_err_pp": out.extra["paper_err_pp"],
    }
    context.update({
        "repetitions": len(walls), "setup_s_each": setups,
        "wall_s_each": walls, "result_samples": len(results),
        "peak_rss_self_mb": self_kb / 1024.0,
        "peak_rss_child_mb": child_kb / 1024.0})
    return metrics, failed == 0, attempted, failed


def run_traced(work, args, tmp, expected, context):
    """--trace 1: a pass with one span per simulation, then a pass
    with every layer wrapped."""
    import layers
    import spans
    from workloads import fresh_dir

    passes = {}
    attempted = failed = 0
    for level in ("jobs", "full"):
        span_dir = fresh_dir(tmp, f"spans-{level}")
        work.trace = (span_dir, level)

        def install(span_dir=span_dir, level=level):
            work.tracer = spans.install(span_dir, level)

        try:
            _, wall, out = repetition(work, tmp, f"trace-{level}", install)
        finally:
            if work.tracer is not None:
                work.tracer.uninstall()
        batches = [work.tracer.take()] + spans.load_batches(span_dir)
        work.tracer = None
        attempted += out.attempted
        failed += failures(expected, out)
        passes[level] = (wall, batches, out)
    base_wall, base_batches, _ = passes["jobs"]
    wall, batches, out = passes["full"]
    lanes = work.workers if work.lanes_are_workers else 1
    metrics = layers.per_layer(batches, wall, lanes,
                               work.lanes_are_workers, out.extra)
    metrics["pipeline.kips"] = layers.kips(base_batches)
    metrics["tracing_overhead"] = wall / base_wall - 1.0
    context.update({"untraced_wall_s": base_wall, "traced_wall_s": wall,
                    "lanes": lanes})
    return metrics, failed == 0, attempted, failed


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program sources at {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=base)
    hermetic_env(tmp)
    sys.path.insert(0, SRC)
    try:
        return run(args, bench, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it


def run(args, bench, tmp) -> int:
    from workloads import WORKLOADS

    wseed = args.workload_seed
    context = {
        "workload": args.workload, "seed": args.seed,
        "workload_seed": wseed, "trace": args.trace,
        "nproc": os.cpu_count(), "workers": workers(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }
    with open(EXPECTED, encoding="utf-8") as fh:
        table = json.load(fh)
    expected = table.get(str(wseed), {}).get(args.workload)
    context["engine_backend"] = engine_backend()
    work = WORKLOADS[args.workload](wseed, random.Random(args.seed),
                                    workers())
    work.prepare()
    if args.record:
        _, _, out = repetition(work, tmp, "record")
        table.setdefault(str(wseed), {})[args.workload] = out.outputs
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {args.workload} outputs for workload seed {wseed}")
        return 0
    if args.trace:
        metrics, correct, attempted, failed = run_traced(
            work, args, tmp, expected, context)
        emit(bench["per_layer"], metrics, correct, attempted, failed,
             context)
    else:
        metrics, correct, attempted, failed = run_plain(
            work, args, tmp, expected, context)
        emit(bench["end_to_end"], metrics, correct, attempted, failed,
             context)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
