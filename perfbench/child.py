"""One benchmark process: run the ``stokes-darcy`` CLI and time it.

Usage::

    python3 perfbench/child.py --sidecar FILE [--trace] [--setup-only] \\
        -- SUBCOMMAND --config INI --out DIR [--threads N]

Everything after ``--`` is passed unchanged to ``stokesdarcy.cli.main``,
the function behind the ``stokes-darcy`` console script.  The process
imports the package from ``src/`` of the checkout, parses the config
and records the moment it is ready to solve; with ``--setup-only`` it
stops there.  It then runs the command (with every layer wrapped by
:mod:`tracer` under ``--trace``) and records when the outputs are
written.  Times are ``CLOCK_MONOTONIC`` readings, which the parent
compares with its own reading taken just before it started this
process.  The results go to the sidecar JSON file.
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    from stokesdarcy import cli

    cli.load_run_config(cli_argv[cli_argv.index("--config") + 1])
    record = {
        "t_ready": time.monotonic(),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    sidecar = Path(args.sidecar)
    if args.setup_only:
        sidecar.write_text(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = cli.main(cli_argv)
    record["t_done"] = time.monotonic()
    if tracer is not None:
        record["layers"] = tracer.summary()
        record["spans"] = tracer.spans
    sidecar.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
