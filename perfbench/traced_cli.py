"""Traced CLI invocation in a fresh interpreter.

    python perfbench/traced_cli.py OUT.json SUBCOMMAND [ARGS...]

Times ``import fdpriv``, installs the tracer's wrappers, runs
``fdpriv.cli.main`` on the remaining arguments inside a span named
``cli.main.<subcommand>``, writes the spans and counts to OUT.json and exits
with the CLI's exit code.  ``src`` must be on PYTHONPATH.
"""

import json
import sys
import time

start = time.perf_counter()
import fdpriv.cli  # noqa: E402

imported = time.perf_counter()

import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import_fdpriv", start, imported, -1, None])
    tracing.install(tracer)
    tracer.active = True
    with tracer.span(f"cli.main.{argv[0]}"):
        code = fdpriv.cli.main(argv)
    tracer.active = False
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
