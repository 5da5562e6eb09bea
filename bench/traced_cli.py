"""The exceptio CLI with spans around its public functions.

    PYTHONPATH=src python3 bench/traced_cli.py SUBCOMMAND [ARGS...]

Behaves like ``python -m exceptio.cli`` on stdout and exit code, and adds one
last stderr line, ``BENCH-TRACE {json}``, with the summed layer figures of
this invocation and its import, main and subcommand times in milliseconds.
"""

import time

_started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import exceptio.cli as cli  # noqa: E402

_imported = time.perf_counter()

# The script's own directory is first on sys.path, so this finds bench/tracing.py.
from tracing import Tracer, accumulate  # noqa: E402


def main() -> int:
    sieve = sys.modules["exceptio.primescan"].sieve_primes
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.wrap("cli.main", cli.main)(sys.argv[1:])
    finally:
        tracer.uninstall()
    spans = tracer.spans
    acc: dict = {}
    accumulate(spans + [["cli.import", _started, _imported, -1, {}]], sieve, acc)
    main_ms = sum((s[2] - s[1]) * 1000 for s in spans if s[0] == "cli.main")
    command_ms = sum((s[2] - s[1]) * 1000 for s in spans if s[0] == "cli.command")
    trace = {"acc": acc, "import_ms": (_imported - _started) * 1000, "main_ms": main_ms, "command_ms": command_ms}
    sys.stdout.flush()
    print("BENCH-TRACE " + json.dumps(trace), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
