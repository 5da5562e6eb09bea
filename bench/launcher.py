"""Runs CLI invocations for the worker, one per stdin line, and reports each.

    python3 bench/launcher.py < requests

A request is a JSON list of arguments; the reply line is a JSON object with
the exit code, stdout, stderr, the latency in seconds and the child's peak
RSS in MB.  This process stays small on purpose: the kernel reports a child's
peak RSS as at least its parent's RSS when it was spawned, so spawning from
the worker would report the worker's memory instead of the CLI's.  stdout is
read to the end before stderr, which is safe because the CLI writes at most
one short line to stderr.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        with proc.stdout, proc.stderr:
            out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "stdout": out, "stderr": err,
                 "latency": latency, "rss_mb": usage.ru_maxrss / 1024}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
