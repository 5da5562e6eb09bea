"""Radical families x^p - b: construction, exact decisions, zero sums."""

import itertools
import random

import pytest

from exceptio import errors
from exceptio.intpoly import factored_text
from exceptio.kummer import (
    ExponentMap,
    build_kummer_poly,
    consecutive_products,
    first_uncovered_point,
    fixes_some_root,
    is_exceptional_exact,
    is_exceptional_full,
    make_prime_set,
    make_radicand_set,
    non_fixing_witness,
    predicted_exceptional,
    zero_sum_consecutive,
)
from exceptio.primescan import scan

from oracles import first_uncovered_point_by_enumeration


def test_prime_set_validation():
    assert make_prime_set([5, 2, 3]).primes == (2, 3, 5)
    with pytest.raises(errors.NotPrime):
        make_prime_set([2, 4])


def test_radicand_set_validation():
    B = make_radicand_set(2, [6, 2, 3])
    assert B.radicands == (2, 3, 6)
    assert B.supports == ((2,), (3,), (2, 3))
    assert B.support == (2, 3)
    with pytest.raises(errors.BadParameters):
        make_radicand_set(2, [4])
    with pytest.raises(errors.BadParameters):
        make_radicand_set(2, [1])
    with pytest.raises(errors.NotPrime):
        make_radicand_set(4, [2])
    with pytest.raises(errors.EmptySet):
        make_radicand_set(2, [])


def test_radicand_factorisation_is_bounded():
    # trial division stops at 10^6: a cofactor past it must be provably prime
    q = 100000000000000000039
    assert make_radicand_set(3, [2, q]).support == (2, q)
    assert make_radicand_set(2, [10**16 + 61]).support == (10**16 + 61,)
    assert make_radicand_set(2, [999983 * 1000003]).support == (999983, 1000003)
    for b in (1000003 * 1000033, 2**89 - 1, 6 * 1000003**2):
        with pytest.raises(errors.FactorizationTooLarge):
            make_radicand_set(2, [b])


def test_consecutive_products_examples():
    assert consecutive_products(make_prime_set([2, 3, 5]), 3).radicands == (2, 3, 5, 6, 15, 30)
    assert consecutive_products(make_prime_set([3, 7]), 2).radicands == (3, 7, 21)
    assert consecutive_products(make_prime_set([7]), 3).radicands == (7,)
    for n in range(1, 7):
        L = make_prime_set([2, 3, 5, 7, 11, 13][:n])
        assert len(consecutive_products(L, 2).radicands) == n * (n + 1) // 2


def test_build_kummer_poly():
    B = make_radicand_set(2, [2, 3, 6])
    assert factored_text(build_kummer_poly(B)) == "x^2-2; x^2-3; x^2-6"
    assert factored_text(build_kummer_poly(make_radicand_set(3, [2]))) == "x^3-2"
    family = consecutive_products(make_prime_set([2, 3, 5]), 3)
    assert factored_text(build_kummer_poly(family)) == (
        "x^3-2; x^3-3; x^3-5; x^3-6; x^3-15; x^3-30"
    )


def test_fixes_some_root_examples():
    B3 = make_radicand_set(3, [2, 3, 6])
    psi = ExponentMap(3, (2, 3), (1, 1), 1)
    assert not fixes_some_root(psi, B3)  # twist sums 1, 1, 2 all nonzero
    assert fixes_some_root(ExponentMap(3, (2, 3), (1, 1), 2), B3)
    B2 = make_radicand_set(2, [2, 3, 6])
    assert fixes_some_root(ExponentMap(2, (2, 3), (1, 1), 1), B2)  # b = 6 cancels
    with pytest.raises(errors.SupportMismatch):
        fixes_some_root(ExponentMap(3, (2,), (1,), 1), B3)
    with pytest.raises(errors.BadParameters):
        fixes_some_root(ExponentMap(3, (2, 3), (0, 0), 3), B3)


def test_is_exceptional_exact_examples():
    exact, witness = is_exceptional_exact(make_radicand_set(2, [2, 3, 6]))
    assert exact and witness is None

    exact, witness = is_exceptional_exact(make_radicand_set(3, [2, 3, 6]))
    assert not exact
    assert witness.twists == (1, 1) and witness.unity_power == 1

    exact, _ = is_exceptional_exact(consecutive_products(make_prime_set([2, 3, 5]), 3))
    assert exact

    too_big = make_radicand_set(2, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])
    with pytest.raises(errors.EnumerationTooLarge):
        is_exceptional_exact(too_big)


def test_non_fixing_witness_examples():
    witness = non_fixing_witness(consecutive_products(make_prime_set([2, 3]), 3))
    assert witness.twists == (1, 1) and witness.unity_power == 1
    assert non_fixing_witness(make_radicand_set(2, [2, 3, 6])) is None
    witness = non_fixing_witness(make_radicand_set(2, [2, 3]))
    assert witness.twists == (1, 1)


def test_witness_replay_is_non_fixing():
    rng = random.Random(11)
    primes_pool = [2, 3, 5, 7]
    all_radicands = []
    for size in range(1, 4):
        for combo in itertools.combinations(primes_pool, size):
            value = 1
            for q in combo:
                value *= q
            all_radicands.append(value)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        chosen = rng.sample(all_radicands, rng.randint(1, 6))
        B = make_radicand_set(p, chosen)
        exact, witness = is_exceptional_exact(B)
        if not exact:
            assert not fixes_some_root(witness, B)


def test_size_criterion_matches_exact_small():
    first_six = [2, 3, 5, 7, 11, 13]
    for p in (2, 3):
        for size in range(1, p + 2):
            for combo in itertools.combinations(first_six, size):
                L = make_prime_set(combo)
                exact, _ = is_exceptional_exact(consecutive_products(L, p))
                assert exact == predicted_exceptional(L, p), (p, combo)


def test_full_enumeration_agrees_with_reduced():
    for p in (2, 3, 5):
        for support_size in (1, 2, 3):
            primes = [2, 3, 5, 7][:support_size]
            pool = []
            for size in range(1, support_size + 1):
                for combo in itertools.combinations(primes, size):
                    value = 1
                    for q in combo:
                        value *= q
                    pool.append(value)
            for r in range(1, len(pool) + 1):
                for chosen in itertools.combinations(pool, r):
                    B = make_radicand_set(p, chosen)
                    assert is_exceptional_exact(B)[0] == is_exceptional_full(B)[0], (p, chosen)


def test_full_enumeration_agrees_on_sampled_support_four():
    rng = random.Random(404)
    pool = []
    for size in range(1, 5):
        for combo in itertools.combinations([2, 3, 5, 7], size):
            value = 1
            for q in combo:
                value *= q
            pool.append(value)
    for p in (2, 3, 5):
        for _ in range(25):
            chosen = rng.sample(pool, rng.randint(1, 8))
            B = make_radicand_set(p, chosen)
            assert is_exceptional_exact(B)[0] == is_exceptional_full(B)[0], (p, chosen)


def test_first_uncovered_point_matches_enumeration():
    # the same point (or None) as the flat loop, so also the same order
    rng = random.Random(1100)
    covered = 0
    for _ in range(1500):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(1, 5)
        used = rng.sample(range(n), rng.randint(1, n))  # the rest stay unused
        index_sets = [rng.sample(used, rng.randint(1, len(used))) for _ in range(rng.randint(1, 8))]
        if len(index_sets) > 1 and rng.random() < 0.3:
            index_sets[-1] = index_sets[0][::-1]  # a duplicate set
        got = first_uncovered_point(p, n, index_sets)
        assert got == first_uncovered_point_by_enumeration(p, n, index_sets), (p, n, index_sets)
        covered += got is None
    assert 0 < covered < 1500


def test_zero_sum_consecutive_examples():
    assert zero_sum_consecutive([1, 1, 1], 3) == (1, 3)
    assert zero_sum_consecutive([1, 1], 2) == (1, 2)
    assert zero_sum_consecutive([1, 2, 2], 3) == (1, 2)
    assert zero_sum_consecutive([1, 2], 5) is None
    assert zero_sum_consecutive([(1, 1), (1, 1)], (2, 2)) == (1, 2)
    with pytest.raises(errors.BadParameters):
        zero_sum_consecutive([1], (0,))
    with pytest.raises(errors.BadParameters):
        zero_sum_consecutive([(1, 2)], (3,))


def test_zero_sum_pigeonhole_guarantee():
    rng = random.Random(64)
    shapes = [(2,), (5,), (8,), (2, 2), (3, 5), (4, 4), (64,), (2, 3, 5)]
    for moduli in shapes:
        order = 1
        for m in moduli:
            order *= m
        for _ in range(250):
            seq = [tuple(rng.randrange(m) for m in moduli) for _ in range(order)]
            hit = zero_sum_consecutive(seq, moduli)
            assert hit is not None
            i, j = hit
            sums = [sum(entry[t] for entry in seq[i - 1 : j]) % moduli[t] for t in range(len(moduli))]
            assert not any(sums)


def test_zero_sum_interval_is_lexicographically_first():
    rng = random.Random(123)
    for _ in range(300):
        m = rng.choice([2, 3, 5, 7])
        seq = [rng.randrange(m) for _ in range(rng.randint(1, 12))]
        got = zero_sum_consecutive(seq, m)
        best = None
        for i in range(len(seq)):
            for j in range(i, len(seq)):
                if sum(seq[i : j + 1]) % m == 0:
                    if best is None or (i + 1, j + 1) < best:
                        best = (i + 1, j + 1)
        assert got == best


def test_exceptional_families_scan_clean():
    # exceptional families only fail at primes dividing p * prod(support)
    for p in (2, 3):
        for size in range(p, 5):
            for combo in itertools.combinations([2, 3, 5, 7], size):
                L = make_prime_set(combo)
                B = consecutive_products(L, p)
                assert is_exceptional_exact(B)[0]
                F = build_kummer_poly(B)
                report = scan(F, 10**5)
                allowed = p
                for q in combo:
                    allowed *= q
                for failure in report.failures:
                    assert allowed % failure == 0, (p, combo, failure)


def test_non_exceptional_families_fail_scan():
    # non-exceptional families show an unramified failure prime quickly
    for p, primes in [(3, (2, 3)), (3, (5, 7)), (5, (2, 3, 5))]:
        B = consecutive_products(make_prime_set(primes), p)
        assert not is_exceptional_exact(B)[0]
        F = build_kummer_poly(B)
        report = scan(F, 10**4)
        assert any(report.delta % q for q in report.failures), (p, primes)
