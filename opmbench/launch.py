"""Run the ``repro`` CLI or daemon with the layer tracing installed.

Usage::

    python3 opmbench/launch.py --spans FILE [--job K] cli -- <CLI args>
    python3 opmbench/launch.py --spans FILE serve -- <serve args>

The same entry point ``python -m repro`` uses (``repro.__main__.run``)
runs after :func:`tracing.install`; spans are written to ``FILE`` when
it returns.  ``serve`` also traces the daemon's ``Simulator.run`` /
``Simulator.sweep`` solves.
"""

from __future__ import annotations

import argparse
import sys

import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--job", type=int, default=None, help="job id stamped on every span")
    parser.add_argument("mode", choices=("cli", "serve"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    import repro.__main__ as entry

    tracer = tracing.Tracer()
    tracing.install(tracer, service=opts.mode == "serve")
    tracer.job = opts.job
    try:
        if opts.mode == "serve":
            return entry.run(["serve", *args])
        with tracer.span("job"):
            return entry.run(args)
    finally:
        tracer.dump(opts.spans)


if __name__ == "__main__":
    sys.exit(main())
