"""exceptio benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library and CLI run from ``src/``.
The script of operations is built from the seed (`workloads.py`), then a
worker interpreter is started `SETUP_REPS` times: set-up time is the median
from spawning it to its ``ready`` line, and the last one goes on to the timed
passes.  Every output is checked outside the timed region (`checks.py`).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from a run whose passes alternate untraced and traced)
with ``--trace 1``.  The line before it summarises the run: passes, the tail
percentile and its sample count, the failure ratio and the first failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads
from worker import MIN_PASSES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 9
# The whole run, set-up and checks included, must end within 180 s.
DEADLINE_S = 170


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(ops_per_pass: int) -> float:
    """The highest percentile with at least 10 samples beyond it in the
    fewest samples a run takes (`MIN_PASSES` passes); fixed by the script, so
    a faster program compares the same percentile."""
    return 100 * (1 - 10 / (MIN_PASSES * ops_per_pass))


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def program_env() -> dict:
    """The environment of every process the benchmark starts: bytecode is
    cached next to the sources, as in an installed package, whatever the
    caller's environment says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_worker(script_path: Path, result_path: Path, args, setup_only: bool):
    cmd = [sys.executable, str(BENCH / "worker.py"), str(script_path), str(result_path),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=program_env())
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, setup_s


def wait_worker(proc, deadline: float) -> None:
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the run deadline") from None
    finally:
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")


def check_outputs(script: dict, result: dict, seed: int):
    """(failed operation count, first reasons), over every pass."""
    ops = workloads.expand(script["ops"])
    passes = len(result["passes"])
    limits = [op["limit"] for op in ops if "limit" in op]
    primes = checks.primes_upto(max(limits)) if limits else []
    failed, reasons = 0, []
    for i, (op, out) in enumerate(zip(ops, result["outputs"])):
        rng = random.Random(f"check:{seed}:{i}")
        problem = checks.check_op(op, out, result["references"].get(str(i)), primes, rng)
        if problem is not None:
            failed += passes
        elif result["mismatches"][i]:
            problem = "output differs between passes"
            failed += result["mismatches"][i]
        if problem is not None:
            reasons.append(f"op {i} ({op['kind']} {op.get('sub', '')}): {problem}")
    return failed, reasons


def per_op_medians(passes, field: str) -> list[float]:
    """Each operation's median over the passes."""
    return [median(values) for values in zip(*(p[field] for p in passes))]


def end_to_end(script: dict, result: dict, setups) -> tuple[dict, dict]:
    untraced = [p for p in result["passes"] if not p["traced"]]
    latencies = sorted(x for p in untraced for x in p["latencies"])
    pct = tail_percentile(len(latencies) // len(untraced))
    if script["workload"] == "cli-session":
        # the largest CLI process, each taken at its median over the passes
        peak_rss_mb = max(per_op_medians(untraced, "rss_mb"))
    else:
        peak_rss_mb = result["peak_rss_mb"]
    metrics = {
        "setup_s": (median(setups), "s"),
        # one pass with every operation at its median over the passes
        "wall_s": (sum(per_op_medians(untraced, "latencies")), "s"),
        # the median operation, each taken at its median over the passes
        "latency_p50_ms": (median(per_op_medians(untraced, "latencies")) * 1000, "ms"),
        "latency_tail_ms": (percentile(latencies, pct) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"tail_percentile": round(pct, 4), "latency_samples": len(latencies),
            "samples_beyond_tail": sum(1 for x in latencies if x > percentile(latencies, pct))}
    return metrics, info


def per_layer(result: dict) -> dict:
    passes = result["passes"]
    traced_walls = [p["wall_s"] for p in passes if p["traced"]]
    untraced_walls = [p["wall_s"] for p in passes if not p["traced"]]
    traced_wall = statistics.fmean(traced_walls)
    acc = result["acc"]
    values = tracing.layer_metrics(acc, len(traced_walls))
    values["primescan.root_test.share"] = values["primescan.root_test.self_ms"] / (traced_wall * 1000)
    values["primescan.primes_per_s"] = values["primescan.primes_tested"] / median(untraced_walls)
    calls = result["cli_calls"]
    values["cli.interpreter_ms"] = median([c["wall_ms"] - c["main_ms"] for c in calls])
    values["cli.import_ms"] = median([c["import_ms"] for c in calls])
    values["cli.main_ms"] = median([c["main_ms"] for c in calls])
    values["cli.envelope_ms"] = median([c["main_ms"] - c["command_ms"] for c in calls])
    values["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    values["trace.uncovered_share"] = 1 - acc.get("covered_ms", 0) / len(traced_walls) / (traced_wall * 1000)
    return {name: (value, unit_of(name)) for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if ".ns_per_prime." in name:
        return "ns"
    if name.endswith(("bytes_read", "bytes_written")):
        return "B"
    if name.endswith("_s"):
        return "s" if name.startswith("trace.") else "1/s"
    if name.endswith(("share", "ratio", "cpu_util")):
        return "ratio"
    return "count"


def baselines(workload: str, result: dict) -> dict:
    """Figures to compare with the ROADMAP baseline table."""
    if workload == "scan-generic":
        code = ("import sys, time; sys.path.insert(0, 'src'); from exceptio.primescan import sieve_primes; "
                "t = time.perf_counter(); sieve_primes(int(sys.argv[1])); print(time.perf_counter() - t)")
        out = {}
        for exp in (6, 7):
            runs = [float(subprocess.run([sys.executable, "-c", code, str(10**exp)], capture_output=True,
                                         text=True, cwd=ROOT, env=program_env(), check=True).stdout)
                    for _ in range(3)]
            out[f"sieve_1e{exp}_s"] = median(runs)
        return out
    if workload == "cli-session":
        untraced = [p for p in result["passes"] if not p["traced"]]
        # ops 0 and 2: the golden sextic verdict at 10^6, cold then from the cache
        return {"golden_verdict_1e6_cold_ms": median([p["latencies"][0] for p in untraced]) * 1000,
                "golden_verdict_1e6_hit_ms": median([p["latencies"][2] for p in untraced]) * 1000}
    return {}


def main() -> int:
    parser = argparse.ArgumentParser(description="exceptio benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "exceptio" / "cli.py").is_file():
        print(f"error: no exceptio sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    proc = None
    try:
        script = dict(workloads.build(args.workload, args.seed), workload=args.workload)
        script_path, result_path = workdir / "script.json", workdir / "result.json"
        script_path.write_text(json.dumps(script))
        setups = []
        for rep in range(SETUP_REPS):
            proc, setup_s = start_worker(script_path, result_path, args, setup_only=rep < SETUP_REPS - 1)
            setups.append(setup_s)
            wait_worker(proc, deadline)
        proc = None
        result = json.loads(result_path.read_text())
        failed, reasons = check_outputs(script, result, args.seed)
        ops_per_pass = len(result["outputs"])
        attempted = ops_per_pass * len(result["passes"])
        if args.trace:
            metrics = per_layer(result)
            print(json.dumps({"baselines": baselines(args.workload, result)}))
            info = {}
        else:
            metrics, info = end_to_end(script, result, setups)
        summary = {"workload": args.workload, "seed": args.seed, "passes": len(result["passes"]),
                   "ops_per_pass": ops_per_pass, **info,
                   "fail_ratio": failed / attempted, "failures": reasons[:5]}
        print(json.dumps(summary))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
