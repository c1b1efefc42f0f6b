"""Start the campaign daemon with the benchmark's span wrappers installed.

Usage: ``python3 bench_e2e/serve.py SPAN_DIR LEVEL -- <repro serve args>``

The daemon is the one ``repro serve`` starts (``repro.cli.main``); the
only difference from ``python -m repro serve`` is that the layer
wrappers of ``spans.install`` are in place first, so the daemon and
the pool workers it forks record spans into ``SPAN_DIR``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    span_dir, level, sep, *serve_args = argv
    if sep != "--":
        raise SystemExit("usage: serve.py SPAN_DIR LEVEL -- ARGS...")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    from repro import cli

    tracer = spans.install(span_dir, level, flush_roots=True)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
