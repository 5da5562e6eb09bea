"""One workload in a fresh interpreter: set-up, then the timed passes.

    python3 bench/worker.py SCRIPT.json RESULT.json --seconds S --trace 0|1 [--setup-only]

Set-up imports ``exceptio.cli`` from ``src/`` and does the workload's warm-up,
then prints ``ready``.  The timed phase repeats the whole script (a *pass*)
until `--seconds` have passed and at least `MIN_PASSES` passes are done; only
whole passes run, so every pass does the same work.  With ``--trace 1`` the
passes alternate untraced and traced.  Outputs are encoded outside the timed
region; the first pass's outputs go to RESULT.json for checking, and later
passes are compared with them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import workloads
from tracing import Tracer, accumulate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
TRACE_MARK = "BENCH-TRACE "


def import_library():
    sys.path.insert(0, str(SRC))
    import exceptio.cli  # noqa: F401  (imports every module the CLI uses)

    from exceptio import goodsets, intpoly, kummer, permgroup, primescan, quadcomplete

    return {"goodsets": goodsets, "intpoly": intpoly, "kummer": kummer,
            "permgroup": permgroup, "primescan": primescan, "quadcomplete": quadcomplete}


# ---------------------------------------------------------------------------
# in-process operations: prepare() returns (call, encode) per op
# ---------------------------------------------------------------------------


def prepare(op: dict, lib: dict):
    ps, ip, km, gs = lib["primescan"], lib["intpoly"], lib["kummer"], lib["goodsets"]
    pg, qc = lib["permgroup"], lib["quadcomplete"]
    kind = op["kind"]
    if kind == "verdict":
        F, limit = ip.parse_factors(op["text"]), op["limit"]
        return (lambda: ps.exceptional_verdict(F, limit)), ps.verdict_payload
    if kind == "bridge_all":
        # Built lazily, pass by pass: 2^15 - 1 decisions per exponent.
        p = op["p"]

        def encode(r):
            (good, _), (exact, witness), B = r
            return [good, exact, list(witness.twists) if witness else None, list(B.support)]

        def decisions():
            for rads in workloads.bridge_sets():
                def bridge(rads=rads):
                    B = km.make_radicand_set(p, rads)
                    return gs.is_good(gs.forms_from_radicands(B)), km.is_exceptional_exact(B), B

                yield bridge, encode

        return decisions
    if kind == "family":
        p, primes = op["p"], op["primes"]

        def family():
            B = km.consecutive_products(km.make_prime_set(primes), p)
            return km.is_exceptional_exact(B), B

        def encode(r):
            (exact, witness), B = r
            return [exact, list(witness.twists) if witness else None, list(B.support)]

        return family, encode
    if kind == "full":
        p, rads = op["p"], op["radicands"]

        def full():
            B = km.make_radicand_set(p, rads)
            return km.is_exceptional_full(B), B

        def encode(r):
            (exact, em), B = r
            return [exact, list(em.twists) if em else None, em.unity_power if em else None, list(B.support)]

        return full, encode
    if kind in ("min_over_n", "min_good_size"):
        if kind == "min_over_n":
            call = lambda: gs.min_over_n(op["p"], op["n_max"])  # noqa: E731
        else:
            call = lambda: gs.min_good_size(op["p"], op["n"], op["budget"], op["symmetry"])  # noqa: E731

        def encode(r):
            return dict(gs.search_payload(r), n=r.witness.n if r.witness else None)

        return call, encode
    if kind == "transitive":
        return (lambda: pg.all_transitive_subgroups(op["n"])), (lambda gsub: [G.order for G in gsub])
    if kind == "payload":
        if op["family"] == "dihedral":
            make = lambda: pg.dihedral_group(op["n"])  # noqa: E731
        else:
            make = lambda: pg.frobenius_group(*op["pq"])  # noqa: E731
        return (lambda: pg.group_payload(make())), (lambda r: r)
    if kind == "screen":
        F, bound = ip.parse_factors(op["text"]), op["bound"]
        return (lambda: ps.intersective_screen(F, bound)), (lambda r: r)
    if kind == "introot":
        f = ip.make_poly(op["coeffs"])
        return (lambda: ip.has_integer_root(f)), (lambda r: r)
    if kind == "delta":
        F = ip.parse_factors(op["text"])
        return (lambda: ip.ramified_prime_bound(F)), (lambda r: r)
    if kind == "complete_d":
        return (lambda: qc.find_intersective_d(op["bad"], op["bound"])), qc.candidate_payload
    raise ValueError(f"unknown op kind {kind!r}")


def _calls(prepared):
    for item in prepared:
        if isinstance(item, tuple):
            yield item
        else:
            yield from item()


def run_in_process(prepared, first, mismatches):
    """One pass.  Each output is encoded right after its operation (outside
    its latency) and either kept, on the first pass, or compared with the
    first pass's."""
    latencies, outputs = array("d"), []
    clock = time.perf_counter
    for i, (call, encode) in enumerate(_calls(prepared)):
        t0 = clock()
        try:
            result, error = call(), None
        except Exception as exc:  # an unexpected error fails this op's check
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        out = {"error": error} if error else encode(result)
        if first is None:
            outputs.append(out)
        else:
            mismatches[i] += out != first[i]
    return latencies, outputs


# ---------------------------------------------------------------------------
# cli-session: one subprocess per operation
# ---------------------------------------------------------------------------


class CliSession:
    def __init__(self, script: dict, workdir: Path, lib: dict):
        self.ops = script["ops"]
        self.workdir = workdir
        self.cache = workdir / "cache"
        for name, text in script["groups"].items():
            (workdir / name).write_text(text)
        ip, ps = lib["intpoly"], lib["primescan"]
        key = ip.factored_text(ip.parse_factors(script["corrupt_key"]))
        self.corrupt_path = ps.ScanCache(self.cache).path_for(key)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("EXCEPTIO_CACHE_DIR", None)
        self.launcher = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True, cwd=workdir, env=self.env)
        self.fresh_cache()

    def fresh_cache(self) -> None:
        """An empty cache directory holding one corrupt cache file."""
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir()
        self.corrupt_path.write_text("not a cache line\n")

    def run_pass(self, traced: bool, acc: dict, cli_calls: list):
        self.fresh_cache()
        entry = [sys.executable, str(BENCH / "traced_cli.py")] if traced else [sys.executable, "-m", "exceptio.cli"]
        latencies, outputs, rss_mb = [], [], []
        for op in self.ops:
            latency, code, out, err, rss = self.run_cli(entry + op["argv"] + ["--cache-dir", str(self.cache)])
            latencies.append(latency)
            rss_mb.append(rss)
            lines = out.strip().splitlines()
            try:
                envelope = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                envelope = None
            outputs.append({"code": code, "envelope": envelope and {k: envelope.get(k) for k in ("result", "error")}})
            if traced:
                marked = [line for line in err.splitlines() if line.startswith(TRACE_MARK)]
                if not marked:
                    raise RuntimeError(f"traced CLI printed no trace: {err[-500:]}")
                trace = json.loads(marked[-1][len(TRACE_MARK):])
                for name, value in trace["acc"].items():
                    acc[name] = acc.get(name, 0) + value
                cli_calls.append({"wall_ms": latency * 1000, "import_ms": trace["import_ms"],
                                  "main_ms": trace["main_ms"], "command_ms": trace["command_ms"]})
        return latencies, outputs, rss_mb

    def run_cli(self, argv):
        """(latency s, exit code, stdout, stderr, peak RSS MB) of one invocation."""
        self.launcher.stdin.write(json.dumps(argv) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["latency"], reply["code"], reply["stdout"], reply["stderr"], reply["rss_mb"]

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def references(self, lib: dict) -> dict:
        """Cold results for every scan request: the library with no cache."""
        ip, ps, qc = lib["intpoly"], lib["primescan"], lib["quadcomplete"]
        out = {}
        for i, op in enumerate(self.ops):
            if "factors" in op and "limit" in op:
                F = ip.parse_factors(op["argv"][2])
            elif op["sub"] == "complete":
                h = ip.parse_poly(op["argv"][2])
                F = ip.product_of([qc.cubic_resolvent_completion(h), h])
            else:
                continue
            limit = int(op["argv"][op["argv"].index("--limit") + 1])
            report = ps.scan(F, limit)
            out[str(i)] = ps.report_payload(report, ps.exceptional_verdict(F, limit, report=report))
        return out


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("script")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    script = json.loads(Path(args.script).read_text())
    lib = import_library()
    session = prepared = None
    if script["workload"] == "cli-session":
        # a directory of its own, so set-up only ever creates files
        session = CliSession(script, Path(tempfile.mkdtemp(dir=Path(args.script).parent)), lib)
    else:
        prepared = [prepare(op, lib) for op in script["ops"]]
        for op in script["ops"]:
            if op["kind"] == "verdict":
                lib["primescan"].sieve_primes(op["limit"])
    try:
        print("ready", flush=True)
        if not args.setup_only:
            result = timed_passes(args, script, lib, session, prepared)
            Path(args.result).write_text(json.dumps(result, default=list))
    finally:
        if session is not None:
            session.close()
    return 0


def timed_passes(args, script, lib, session, prepared) -> dict:
    acc: dict = {}
    cli_calls: list = []
    passes, first, mismatches = [], None, [0] * len(workloads.expand(script["ops"]))
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if session is not None:
            latencies, outputs, rss_mb = session.run_pass(traced, acc, cli_calls)
            if first is not None:
                for i, (a, b) in enumerate(zip(first, outputs)):
                    mismatches[i] += a != b
        else:
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                latencies, outputs = run_in_process(prepared, first, mismatches)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                accumulate(tracer.spans, lib["primescan"].sieve_primes, acc)
        # The pass's wall time is the time spent inside its operations.
        passes.append({"wall_s": sum(latencies), "traced": traced, "latencies": latencies})
        if session is not None:
            passes[-1]["rss_mb"] = rss_mb
        first = first if first is not None else outputs
        done = time.perf_counter() - started >= args.seconds and len(passes) >= MIN_PASSES
        if done and (not args.trace or len(passes) >= 2):
            break
    return {
        "passes": passes,
        "outputs": first,
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "acc": acc,
        "cli_calls": cli_calls,
        "references": session.references(lib) if session is not None else {},
    }


if __name__ == "__main__":
    sys.exit(main())
