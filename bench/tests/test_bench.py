"""The benchmark's own tests: seeded inputs are reproducible, and the result
checks reject corrupted outputs."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = json.dumps(workloads.build(workload, 7))
    assert json.dumps(workloads.build(workload, 7)) == first
    assert json.dumps(workloads.build(workload, 8)) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_script_shape_does_not_depend_on_the_seed(workload):
    def shape(seed):
        ops = workloads.expand(workloads.build(workload, seed)["ops"])
        return [(op["kind"], op.get("sub"), op.get("limit")) for op in ops]

    assert shape(1) == shape(2)


def test_generic_inputs_have_no_integer_root_and_nonzero_delta():
    for op in workloads.build("scan-generic", 3)["ops"]:
        assert all(checks.integer_root(f) is None for f in op["factors"])
        assert checks.delta(op["factors"]) != 0


def first_unramified_failure(factors, limit):
    D = checks.delta(factors)
    for p in checks.primes_upto(limit):
        if D % p and not checks.product_has_root_mod(factors, p):
            return p
    return None


def test_verdict_check_accepts_truth_and_flags_corruption():
    factors = [[-1, -1, 0, 1]]  # x^3 - x - 1, disc -23
    primes = checks.primes_upto(2000)
    w = first_unramified_failure(factors, 2000)
    ok = {"tag": "NotExceptional", "witness_prime": w}
    assert checks.check_verdict(factors, 2000, ok, primes, random.Random(0)) is None
    later = next(p for p in primes if p > w and not checks.product_has_root_mod(factors, p))
    for bad in (
        {"tag": "NotExceptional", "witness_prime": later},  # skips the first failure
        {"tag": "NotExceptional", "witness_prime": 23},  # divides Delta
        {"tag": "NotExceptional", "witness_prime": 5},  # x = 2 is a root mod 5
        {"tag": "ExceptionalLikely", "failures": [w]},
    ):
        assert checks.check_verdict(factors, 2000, bad, primes, random.Random(0)) is not None


def cold_report(factors, limit):
    primes = [p for p in checks.primes_upto(limit)]
    failures = [p for p in primes if not checks.product_has_root_mod(factors, p)]
    D = checks.delta(factors)
    unramified = [p for p in failures if D % p]
    verdict = ({"tag": "NotExceptional", "witness_prime": unramified[0]} if unramified
               else {"tag": "ExceptionalLikely", "failures": failures})
    return {"poly": "", "limit": limit, "primes_scanned": len(primes), "failures": failures,
            "density": str(Fraction(len(primes) - len(failures), len(primes))), "delta": D,
            "verdict": verdict}


def test_cli_scan_check_flags_a_cache_result_that_differs_from_a_cold_scan():
    factors = [[-3, 0, 0, 1]]
    reference = cold_report(factors, 3000)
    op = {"kind": "cli", "sub": "verdict", "factors": factors, "limit": 3000}
    primes = checks.primes_upto(3000)
    good = {"code": 0, "envelope": {"result": reference}}
    assert checks.check_op(op, good, reference, primes, random.Random(0)) is None

    stale = dict(reference, failures=reference["failures"][:-1])
    assert checks.check_op(op, {"code": 0, "envelope": {"result": stale}}, reference,
                           primes, random.Random(0)) is not None
    assert checks.check_op(op, good, stale, primes, random.Random(0)) is not None


def test_expected_error_check_wants_the_typed_code():
    op = {"kind": "cli", "sub": "verdict", "argv": [], "expected_error": "NotSquareFree"}
    right = {"code": 1, "envelope": {"error": {"code": "NotSquareFree"}}}
    wrong = {"code": 1, "envelope": {"error": {"code": "ZeroResultant"}}}
    assert checks.check_op(op, right, None, [], random.Random(0)) is None
    assert checks.check_op(op, wrong, None, [], random.Random(0)) is not None


@pytest.mark.parametrize(
    "op, good, bad",
    [
        ({"kind": "bridge", "p": 2, "radicands": [2, 3, 6]},
         [True, True, None, [2, 3]], [False, True, None, [2, 3]]),
        ({"kind": "bridge", "p": 2, "radicands": [2, 3]},
         [False, False, [1, 1], [2, 3]], [False, False, [0, 1], [2, 3]]),
        ({"kind": "family", "p": 5, "primes": [2, 3, 5, 7, 11]},
         [True, None, [2, 3, 5, 7, 11]], [False, [0, 0, 0, 0, 1], [2, 3, 5, 7, 11]]),
        ({"kind": "transitive", "n": 4}, [4, 4, 4, 4, 8, 8, 8, 12, 24], [4, 4, 4, 8, 8, 8, 12, 24]),
        ({"kind": "screen", "expected": 8}, 8, 64),
        ({"kind": "introot", "coeffs": [-49, 0, 1]}, 7, None),
        ({"kind": "min_good_size", "p": 3},
         {"min": 6, "witness": [[0], [1], [2], [0, 1], [0, 2], [0, 1, 2]], "exhaustive": True, "n": 3},
         {"min": 6, "witness": [[0], [1], [2], [0, 1], [0, 2], [1, 2]], "exhaustive": True, "n": 3}),
        ({"kind": "payload", "family": "dihedral", "n": 5},
         {"order": 10, "transitive": True, "coverage": False, "density": "3/5",
          "quad_completion": ["()"] * 5},
         {"order": 10, "transitive": True, "coverage": True, "density": "3/5",
          "quad_completion": ["()"] * 5}),
        ({"kind": "complete_d", "bad": [3], "bound": 100},
         {"d": 73, "mod8": 1, "qr_certificates": {"3": 1}},
         {"d": 17, "mod8": 1, "qr_certificates": {"3": 1}}),
    ],
)
def test_checks_accept_truth_and_flag_corruption(op, good, bad):
    assert checks.check_op(op, good, None, [], random.Random(0)) is None
    assert checks.check_op(op, bad, None, [], random.Random(0)) is not None
