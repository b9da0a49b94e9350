"""Server bootstrap: ``repro serve`` under the benchmark's control.

Runs the real CLI entry point (``repro.cli.main(["serve", ...])``) so the
server keeps every default, after optionally installing the layer
wrappers (``--trace``) in this process.  When the server has drained
(SIGTERM), writes peak RSS, the engine, and the layer table to
``--report``.

    python3 perfbench/serve_boot.py --report R.json [--trace] -- serve ...
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro import cli
    from repro.cpu import engine

    import layers

    tracer = layers.Tracer().install() if args.trace else None
    code = cli.main(cli_args)
    report = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "engine": engine.backend(),
    }
    if tracer is not None:
        report["layers"] = tracer.snapshot()
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
