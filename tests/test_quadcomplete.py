"""Quadratic completions: Legendre symbols, resolvents, completing discriminants."""

import random

import pytest

from exceptio import errors
from exceptio.intpoly import make_poly, parse_factors, parse_poly, poly_text, product_of
from exceptio.primescan import exceptional_verdict, intersective_screen, scan
from exceptio.quadcomplete import (
    COMPLETE_D_CAP,
    CompletionCandidate,
    cubic_resolvent_completion,
    find_intersective_d,
)

from oracles import EvenOrCompositeP, intersective_d_by_walk, legendre_symbol


def test_legendre_symbol_examples():
    assert legendre_symbol(2, 7) == 1  # 3^2 = 9 = 2
    assert legendre_symbol(35, 7) == 0
    assert legendre_symbol(2, 5) == -1  # squares mod 5 are {1, 4}
    with pytest.raises(EvenOrCompositeP):
        legendre_symbol(3, 2)
    with pytest.raises(EvenOrCompositeP):
        legendre_symbol(3, 9)


def test_legendre_symbol_against_square_tables():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre_symbol(a, p) == expected


def test_cubic_resolvent_examples():
    assert poly_text(cubic_resolvent_completion(parse_poly("x^3+2"))) == "x^2+108"
    assert poly_text(cubic_resolvent_completion(parse_poly("x^3-x-1"))) == "x^2+23"
    with pytest.raises(errors.SquareDiscriminant):
        cubic_resolvent_completion(parse_poly("x^3-3x-1"))  # disc = 81
    with pytest.raises(errors.ReducibleCubic):
        cubic_resolvent_completion(parse_poly("x^3-1"))
    with pytest.raises(errors.NotCubic):
        cubic_resolvent_completion(parse_poly("x^2-2"))
    with pytest.raises(errors.NotCubic):
        cubic_resolvent_completion(make_poly([1, 0, 0, 2]))


def test_resolvent_completions_scan_exceptional():
    rng = random.Random(303)
    produced = 0
    while produced < 20:
        h = make_poly([rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10), 1])
        try:
            g = cubic_resolvent_completion(h)
        except (errors.ReducibleCubic, errors.SquareDiscriminant, errors.NotCubic):
            continue
        verdict = exceptional_verdict(product_of([g, h]), 10**4)
        assert verdict.tag == "ExceptionalLikely", poly_text(h)
        produced += 1


def test_find_intersective_d_frozen():
    assert find_intersective_d([], 100).d == 17
    assert find_intersective_d([5], 100).d == 41
    assert find_intersective_d([3], 100).d == 73  # 33 and 57 are killed by 3 | d
    candidate = find_intersective_d([3, 5], 1000)
    assert candidate.d % 8 == 1
    assert candidate.qr_certificates == {3: 1, 5: 1}
    # 2 in the bad set is handled by the d = 1 mod 8 condition
    assert find_intersective_d([2], 100).d == 17
    with pytest.raises(errors.NoCandidateInRange):
        find_intersective_d([3, 5, 7, 11, 13], 20)
    with pytest.raises(errors.BadParameters):
        find_intersective_d([4], 100)
    # the bound is capped; the scan never reaches the cap when a d exists
    assert find_intersective_d([], COMPLETE_D_CAP).d == 17
    for bound in (1, COMPLETE_D_CAP + 1):
        with pytest.raises(errors.BadParameters):
            find_intersective_d([3], bound)


def test_find_intersective_d_matches_the_full_walk():
    # only d = 1 mod 8 is tried, residue tests first; the answer is the one
    # the walk over every d finds
    rng = random.Random(22)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for _ in range(40):
        bad = rng.sample(pool, rng.randint(0, 6))
        bound = rng.choice([2, 9, 100, 1000, 20_000])
        expected = intersective_d_by_walk(bad, bound)
        if expected is None:
            with pytest.raises(errors.NoCandidateInRange):
                find_intersective_d(bad, bound)
        else:
            certificates = {p: 1 for p in sorted(set(bad) - {2})}
            assert find_intersective_d(bad, bound) == (expected, 1, certificates), (bad, bound)


def test_candidate_invariants():
    rng = random.Random(9)
    pool = [3, 5, 7, 11, 13, 17]
    for _ in range(20):
        bad = rng.sample(pool, rng.randint(0, 3))
        candidate = find_intersective_d(bad, 10**4)
        assert candidate.d % 8 == 1
        assert all(v == 1 for v in candidate.qr_certificates.values())
        assert all(candidate.d % p for p in bad)
        assert isinstance(candidate, CompletionCandidate)


def _completed(F, d):
    return product_of(F.factors + (make_poly([-d, 0, 1]),))


def test_verify_completion_on_exceptional_family():
    F = parse_factors("x^2-2; x^2-3; x^2-6")
    candidate = find_intersective_d([], 100)
    assert scan(F, 1000).failures == ()  # no former failure, so no power to check
    assert scan(_completed(F, candidate.d), 1000).failures == ()


def test_verify_completion_cannot_repair_positive_density():
    F = parse_factors("x^2-2")
    former = scan(F, 100).failures
    completed = _completed(F, 41)
    # density-positive failures stay, and the smallest is the screen's answer
    assert scan(completed, 100).failures
    assert intersective_screen(completed, 100) == former[0] == 3


def test_verify_completion_trivial_root():
    F = parse_factors("x-1")
    completed = _completed(F, 17)
    assert scan(F, 100).failures == () and scan(completed, 100).failures == ()
    assert intersective_screen(completed, 100) is None


def test_completed_product_passes_intersective_screen():
    # Completing at the failure set alone is not enough when inseparable
    # primes linger: d = 17 is no square mod 3, and mod 27 the sextic's two
    # 3-divisible factors contribute only 3^2 to the product.
    F = parse_factors("x^2-2; x^2-3; x^2-6")
    assert scan(F, 1000).failures == ()
    weak = parse_factors("x^2-17; x^2-2; x^2-3; x^2-6")
    assert intersective_screen(weak, 1000) == 27
    # requiring d to be a square at the odd ramified primes closes the gap
    candidate = find_intersective_d([3], 1000)
    completed = parse_factors(f"x^2-{candidate.d}; x^2-2; x^2-3; x^2-6")
    assert intersective_screen(completed, 1000) is None


def test_completed_intersective_kummer_pair():
    # x^2-17 does complete the {2, 17} radical family: 34 = 1 mod 3 and
    # 4 mod 5 soak up the resultant primes, 2 is a square mod 17, and
    # multiplicativity of the Legendre symbol covers every other prime
    completed = parse_factors("x^2-17; x^2-2; x^2-34")
    assert exceptional_verdict(completed, 10**4).tag == "ExceptionalLikely"
    assert intersective_screen(completed, 1000) is None
