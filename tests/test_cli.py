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


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib loads libcrypto; only cache file names need it
    src = str(Path(exceptio.__file__).resolve().parents[1])
    code = "import sys, exceptio.cli; print('hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def _run_module(*argv):
    src = str(Path(exceptio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "exceptio.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )


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
