"""CLI envelopes, exit codes, flags, cache wiring."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exceptio
from exceptio.cli import main

ENVELOPE_KEYS = ["version", "subcommand", "inputs", "result", "elapsed_ms"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0, out
    lines = out.strip().splitlines()
    assert len(lines) == 1  # single-line envelope
    return json.loads(lines[0])


def test_verdict_golden_quintic(capsys, tmp_path):
    envelope = run_json(
        capsys,
        "verdict",
        "--poly",
        "x^2+108; x^3+2",
        "--limit",
        "100000",
        "--cache-dir",
        str(tmp_path),
    )
    assert list(envelope) == ENVELOPE_KEYS
    result = envelope["result"]
    assert result["verdict"]["tag"] == "ExceptionalLikely"
    assert result["poly"] == "x^2+108; x^3+2"
    assert result["limit"] == 100000
    for p in result["verdict"]["failures"]:
        assert result["delta"] % p == 0


def test_kummer_subcommand(capsys):
    envelope = run_json(capsys, "kummer", "--p", "3", "--primes", "2,3")
    result = envelope["result"]
    assert result["exceptional_exact"] is False
    assert result["predicted_exceptional"] is False
    assert result["witness"] == {"twists": {"2": 1, "3": 1}, "unity_power": 1}

    envelope = run_json(capsys, "kummer", "--p", "2", "--radicands", "2,3,6")
    result = envelope["result"]
    assert result["exceptional_exact"] is True
    assert result["predicted_exceptional"] is None
    assert result["witness"] is None


def test_scan_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "scan", "--poly", "x^2-2", "--limit", "0")
    assert code == 2
    assert "at least 2" in err


def test_domain_error_exit_1(capsys):
    code, out, err = run_cli(capsys, "pattern", "--poly", "x^2-2", "--p", "6")
    assert code == 1
    envelope = json.loads(out.strip())
    assert envelope["error"]["code"] == "NotPrime"
    assert "error:" in err


def test_parse_error_is_domain_error(capsys):
    code, out, _ = run_cli(capsys, "scan", "--poly", "x^^2", "--limit", "10")
    assert code == 1
    assert json.loads(out.strip())["error"]["code"] == "ParseError"


def test_pattern_subcommand(capsys):
    envelope = run_json(capsys, "pattern", "--poly", "x^3+2", "--p", "5")
    assert envelope["result"] == {"p": 5, "pattern": [1, 2]}


def test_density_subcommand(capsys, tmp_path):
    envelope = run_json(
        capsys, "density", "--poly", "x-1", "--limit", "100", "--cache-dir", str(tmp_path)
    )
    assert envelope["result"] == {"density": "1"}


def test_goodsets_subcommand(capsys):
    envelope = run_json(capsys, "goodsets", "--p", "3", "--n", "3", "--budget", "7")
    assert envelope["result"]["min"] == 6
    assert envelope["result"]["exhaustive"] is True
    assert len(envelope["result"]["witness"]) == 6
    nodes = envelope["result"]["nodes_explored"]
    assert isinstance(nodes, int) and nodes > 0


def test_group_subcommand(capsys, tmp_path):
    path = tmp_path / "d5.group"
    path.write_text("degree 5\n(0 1 2 3 4)\n(1 4)(2 3)\n")
    envelope = run_json(capsys, "group", "--group-file", str(path))
    result = envelope["result"]
    assert list(result) == ["order", "transitive", "coverage", "density", "quad_completion"]
    assert result["order"] == 10
    assert result["quad_completion"] is not None
    code, out, _ = run_cli(capsys, "group", "--group-file", str(tmp_path / "missing.group"))
    assert code == 1
    assert json.loads(out.strip())["error"]["code"] == "IoError"


def test_complete_subcommand(capsys, tmp_path):
    envelope = run_json(
        capsys,
        "complete",
        "--poly",
        "x^3+2",
        "--limit",
        "10000",
        "--cache-dir",
        str(tmp_path),
    )
    result = envelope["result"]
    assert result["quadratic"] == "x^2+108"
    assert result["report"]["poly"] == "x^2+108; x^3+2"
    assert result["report"]["verdict"]["tag"] == "ExceptionalLikely"


def test_complete_d_subcommand(capsys):
    envelope = run_json(capsys, "complete-d", "--bad", "3,5", "--bound", "10000")
    result = envelope["result"]
    assert result["d"] % 8 == 1
    assert result["qr_certificates"] == {"3": 1, "5": 1}
    assert run_json(capsys, "complete-d", "--bound", "100")["result"]["d"] == 17


def test_complete_d_bound_beyond_its_cap_is_a_domain_error(capsys):
    code, out, _ = run_cli(capsys, "complete-d", "--bad", "3,5", "--bound", "1000000000000")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "BadParameters"


def test_intersective_screen_subcommand(capsys):
    envelope = run_json(
        capsys, "intersective-screen", "--poly", "x^2+108; x^3+2", "--bound", "100"
    )
    assert envelope["result"] == {"failing_modulus": 64}
    envelope = run_json(capsys, "intersective-screen", "--poly", "x-1", "--bound", "100")
    assert envelope["result"] == {"failing_modulus": None}


def test_cache_dir_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("EXCEPTIO_CACHE_DIR", str(tmp_path / "envcache"))
    run_json(capsys, "scan", "--poly", "x^2-2", "--limit", "100")
    assert (tmp_path / "envcache").is_dir()
    assert list((tmp_path / "envcache").iterdir())


def test_cache_reused_across_invocations(capsys, tmp_path):
    first = run_json(
        capsys, "scan", "--poly", "x^2-2", "--limit", "1000", "--cache-dir", str(tmp_path)
    )
    second = run_json(
        capsys, "scan", "--poly", "x^2-2", "--limit", "1000", "--cache-dir", str(tmp_path)
    )
    assert first["result"] == second["result"]
    cache_files = list(tmp_path.iterdir())
    assert len(cache_files) == 1
    assert len(cache_files[0].read_text().splitlines()) == 1


def test_envelope_schema_stable_across_subcommands(capsys, tmp_path):
    invocations = [
        ("scan", "--poly", "x-1", "--limit", "10", "--cache-dir", str(tmp_path)),
        ("pattern", "--poly", "x^2-2", "--p", "7"),
        ("kummer", "--p", "2", "--primes", "2,3"),
        ("goodsets", "--p", "2", "--n", "2"),
        ("complete-d", "--bound", "100"),
        ("intersective-screen", "--poly", "x-1", "--bound", "10"),
    ]
    for argv in invocations:
        envelope = run_json(capsys, *argv)
        assert list(envelope) == ENVELOPE_KEYS, argv[0]
        assert envelope["subcommand"] == argv[0]
        assert envelope["version"]


def test_pretty_output(capsys):
    code, out, _ = run_cli(capsys, "kummer", "--p", "2", "--primes", "2,3", "--pretty")
    assert code == 0
    assert "exceptional_exact" in out and "\n" in out.strip()


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_kummer_flags_mutually_exclusive(capsys):
    code, _, _ = run_cli(capsys, "kummer", "--p", "2", "--primes", "2", "--radicands", "2")
    assert code == 2


def _loaded_after_cli_import(*names):
    """Which of the named modules a fresh `import exceptio.cli` loads."""
    src = str(Path(exceptio.__file__).resolve().parents[1])
    code = f"import sys, exceptio.cli; print(*[n for n in {names!r} if n in sys.modules])"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.split()


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib loads libcrypto; only cache file names need it
    assert _loaded_after_cli_import("hashlib") == []


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # records are NamedTuples; dataclasses would bring in inspect, ast and dis
    # on every CLI call
    assert _loaded_after_cli_import("dataclasses", "inspect") == []


def _without_timing(envelope):
    inputs = {k: v for k, v in envelope["inputs"].items() if k != "cache_dir"}
    return {**envelope, "inputs": inputs, "elapsed_ms": None}


def test_cached_envelopes_equal_cold_ones(capsys, tmp_path):
    # a hit at the same limit, and one truncating a larger cached scan, print
    # the cold envelope: the report counts its primes from the sieve flags
    for sub in ("verdict", "density"):
        for i, poly in enumerate(("x^2+108; x^3+2", "x^3-2", "x^4+x+1")):
            cold_dir, wide_dir = str(tmp_path / f"{sub}{i}-cold"), str(tmp_path / f"{sub}{i}-wide")
            argv = (sub, "--poly", poly, "--limit")
            cold = run_json(capsys, *argv, "20000", "--cache-dir", cold_dir)
            hit = run_json(capsys, *argv, "20000", "--cache-dir", cold_dir)
            run_json(capsys, *argv, "50000", "--cache-dir", wide_dir)
            truncated = run_json(capsys, *argv, "20000", "--cache-dir", wide_dir)
            assert _without_timing(hit) == _without_timing(cold) == _without_timing(truncated), (sub, poly)


def _run_module(*argv):
    src = str(Path(exceptio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "exceptio.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_concurrent_density_runs_share_one_cache_file(tmp_path):
    # four processes on one polynomial at four limits, three rounds: each
    # write replaces the file whole, so every run reads one valid line (or
    # none) and no temp file outlives its writer
    from exceptio.intpoly import parse_factors
    from exceptio.primescan import ScanCache, scan

    poly, limits = "x^3-x-1", (3000, 6000, 12000, 24000)
    F = parse_factors(poly)
    expected = {limit: str(scan(F, limit).density_estimate) for limit in limits}
    src = str(Path(exceptio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "exceptio.cli", "density", "--poly", poly, "--cache-dir", str(tmp_path)]
    for _ in range(3):
        runs = [
            (limit, subprocess.Popen(argv + ["--limit", str(limit)], env=env, stdout=subprocess.PIPE, text=True))
            for limit in limits
        ]
        for limit, run in runs:
            out, _ = run.communicate(timeout=60)
            assert run.returncode == 0, out
            assert json.loads(out)["result"]["density"] == expected[limit]
    cache = ScanCache(tmp_path)
    [(limit, failures)] = cache.load(poly)
    assert limit in limits and failures == scan(F, limit).failures
    assert list(tmp_path.iterdir()) == [cache.path_for(poly)]


def test_verdict_on_huge_constant_term_finishes(tmp_path):
    # the integer-root test takes the roots mod one prime above twice the
    # root bound instead of walking the divisors of 10^20 + 39
    argv = ["verdict", "--poly", "x^2-100000000000000000039", "--limit", "1000", "--cache-dir", str(tmp_path)]
    done = _run_module(*argv)
    assert done.returncode == 0, done.stderr
    envelope = json.loads(done.stdout)
    assert envelope["result"]["verdict"]["tag"] != "HasIntegerRoot"
    assert "HasIntegerRoot" not in done.stdout


def test_oversized_coefficient_gives_parse_error_envelope(tmp_path):
    # int() would raise a plain ValueError past 4300 digits
    done = _run_module("verdict", "--poly", "x^2-" + "9" * 5000, "--limit", "100", "--cache-dir", str(tmp_path))
    assert done.returncode == 1, done.stderr
    envelope = json.loads(done.stdout)
    assert list(envelope) == ["version", "subcommand", "inputs", "error", "elapsed_ms"]
    assert envelope["error"]["code"] == "ParseError"
    assert "Traceback" not in done.stderr


def test_kummer_on_large_prime_radicand_finishes():
    # trial division stops at 10^6; the cofactor 10^20 + 39 is proved prime
    done = _run_module("kummer", "--p", "2", "--radicands", "2,100000000000000000039")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)["result"]
    assert result["exceptional_exact"] is False
    assert result["witness"]["twists"] == {"2": 1, "100000000000000000039": 1}


def test_group_with_thirty_generators_finishes(tmp_path):
    # 30 generator lines: the index-two search walks the Cayley graph once, whatever the count
    lines = [f"({i} {j})" for i in range(6) for j in range(i + 1, 6)] * 2
    path = tmp_path / "s6.group"
    path.write_text("degree 6\n" + "\n".join(lines) + "\n")
    done = _run_module("group", "--group-file", str(path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)["result"]
    assert result["order"] == 720
    assert result["quad_completion"] is None


def test_kummer_on_400_primes_is_refused_before_building():
    from exceptio.primescan import sieve_primes

    primes = ",".join(map(str, sieve_primes(3000).primes[:400]))
    done = _run_module("kummer", "--p", "3", "--primes", primes)
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout)["error"]["code"] == "EnumerationTooLarge"


def test_group_on_s8_finishes(tmp_path):
    # index-two subgroups are checked by one sign labelling of the Cayley
    # graph, not by composing every pair of their elements
    path = tmp_path / "s8.group"
    path.write_text("degree 8\n(0 1 2 3 4 5 6 7)\n(0 1)\n")
    done = _run_module("group", "--group-file", str(path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)["result"]
    assert result["order"] == 40320
    assert result["density"] == "3641/5760"
    assert result["quad_completion"] is None
