"""Covering forms over F_p^n: goodness checks, exact minima, radicand bridge."""

import itertools
import random

import pytest

from exceptio import errors
from exceptio.goodsets import (
    FormSet,
    all_forms,
    forms_from_radicands,
    is_good,
    make_form_set,
    min_good_size,
    min_over_n,
    radicands_from_forms,
    search_payload,
)
from exceptio.kummer import is_exceptional_exact, make_prime_set, make_radicand_set

from oracles import min_good_size_unpruned


def test_all_forms():
    assert list(all_forms(2)) == [(0,), (1,), (0, 1)]
    assert len(all_forms(3)) == 7
    assert all_forms(1) == ((0,),)
    with pytest.raises(errors.DimensionTooLarge):
        all_forms(21)


def test_is_good_examples():
    full2 = make_form_set(2, 2, all_forms(2))
    good, uncovered = is_good(full2)
    assert good and uncovered is None

    partial = make_form_set(2, 2, [(0,), (1,)])
    good, uncovered = is_good(partial)
    assert not good and uncovered == (1, 1)

    single = make_form_set(3, 3, [(0,)])
    good, uncovered = is_good(single)
    assert not good and uncovered[0] != 0

    with pytest.raises(errors.EnumerationTooLarge):
        is_good(make_form_set(5, 11, [(0,)]))


def test_good_sets_monotone_under_supersets():
    rng = random.Random(500)
    for _ in range(500):
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        pool = list(all_forms(n))
        base = rng.sample(pool, rng.randint(1, len(pool)))
        T = make_form_set(p, n, base)
        if not is_good(T)[0]:
            continue
        extra = rng.sample(pool, rng.randint(0, len(pool)))
        assert is_good(make_form_set(p, n, base + extra))[0]


def test_min_good_size_examples():
    result = min_good_size(2, 2, 3)
    assert result.minimum == 3 and result.exhaustive
    assert is_good(result.witness)[0]

    result = min_good_size(3, 3, 7)
    assert result.minimum == 6 and result.exhaustive
    assert is_good(result.witness)[0]
    assert result.nodes_explored > 0

    result = min_good_size(3, 2, 3)
    assert result.minimum is None and result.witness is None and result.exhaustive

    with pytest.raises(errors.BadParameters):
        min_good_size(2, 2, 4)


def test_min_good_size_brute_force_cross_check():
    # exhaustive subset enumeration, independent of the branch-and-bound
    for p, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        forms = all_forms(n)
        brute = None
        for size in range(1, len(forms) + 1):
            for combo in itertools.combinations(forms, size):
                if is_good(FormSet(p, n, combo))[0]:
                    brute = size
                    break
            if brute:
                break
        got = min_good_size(p, n, len(forms)).minimum
        assert got == brute, (p, n, got, brute)


def test_symmetry_reduction_matches_unreduced():
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        budget = 2**n - 1
        plain = min_good_size(p, n, budget)
        reduced = min_good_size(p, n, budget, symmetry_reduction=True)
        assert plain.minimum == reduced.minimum, (p, n)
        if reduced.minimum is not None:
            assert is_good(reduced.witness)[0]
        assert reduced.nodes_explored <= plain.nodes_explored


def test_min_good_size_matches_unpruned_search():
    # the two-slot bound and the inline last slot change only the node count
    absent = 0
    for p in (2, 3):
        for n in range(1, 6):
            size = 2**n - 1
            known = min_good_size_unpruned(p, n, size)[0]
            budgets = {1, size} if known is None else {max(1, known - 1), known}
            for budget in sorted(budgets):
                for symmetry in (False, True):
                    minimum, witness, nodes, exhaustive = min_good_size_unpruned(p, n, budget, symmetry)
                    got = min_good_size(p, n, budget, symmetry)
                    key = (p, n, budget, symmetry)
                    assert got.minimum == minimum, key
                    assert (got.witness is None) == (witness is None), key
                    if witness is not None:
                        assert list(got.witness.forms) == witness, key
                    assert got.exhaustive == exhaustive, key
                    assert 0 < got.nodes_explored <= nodes, key
                    absent += minimum is None
    assert absent > 0


def test_min_over_n_closing_values():
    assert min_over_n(2, 4).minimum == 3
    assert min_over_n(3, 4).minimum == 6
    result = min_over_n(2, 1)
    assert result.minimum is None and result.exhaustive
    # p(p+1)/2 is attained
    for p in (2, 3):
        assert min_over_n(p, 4).minimum == p * (p + 1) // 2


# min_over_n payloads for p = 2, 3, 5, 7 and n_max = 1..4, as (min, witness,
# nodes_explored); every one is exhaustive
MIN_OVER_N_PAYLOADS = {
    (2, 1): (None, None, 1),
    (2, 2): (3, [[0], [1], [0, 1]], 8),
    (2, 3): (3, [[0], [1], [0, 1]], 14),
    (2, 4): (3, [[0], [1], [0, 1]], 27),
    (3, 1): (None, None, 1),
    (3, 2): (None, None, 4),
    (3, 3): (6, [[0], [1], [2], [0, 1], [0, 2], [0, 1, 2]], 25),
    (3, 4): (6, [[0], [1], [2], [0, 1], [0, 2], [0, 1, 2]], 236),
    (5, 1): (None, None, 1),
    (5, 2): (None, None, 4),
    (5, 3): (None, None, 11),
    (5, 4): (None, None, 26),
    (7, 1): (None, None, 1),
    (7, 2): (None, None, 4),
    (7, 3): (None, None, 11),
    (7, 4): (None, None, 26),
}


def test_min_over_n_payloads_frozen():
    for (p, n_max), (minimum, witness, nodes) in MIN_OVER_N_PAYLOADS.items():
        expected = {"min": minimum, "witness": witness, "exhaustive": True, "nodes_explored": nodes}
        assert search_payload(min_over_n(p, n_max)) == expected, (p, n_max)


def test_p5_search_reports_bounds_only():
    # for p = 5 low dimensions provably have no good set at all: even the
    # full form set leaves (1,1,...) uncovered, so the search reports absent
    result = min_over_n(5, 2)
    assert result.minimum is None and result.exhaustive
    result = min_good_size(5, 3, 7)
    assert result.minimum is None and result.exhaustive


def test_bridge_examples():
    B = make_radicand_set(2, [2, 3, 6])
    T = forms_from_radicands(B)
    assert list(T.forms) == [(0,), (1,), (0, 1)]
    back = radicands_from_forms(T, make_prime_set([2, 3]))
    assert back.radicands == (2, 3, 6)

    T = make_form_set(3, 1, [(0,)])
    assert radicands_from_forms(T, make_prime_set([7])).radicands == (7,)

    family = make_radicand_set(3, [2, 3, 5, 6, 15, 30])
    T = forms_from_radicands(family)
    assert radicands_from_forms(T, make_prime_set([2, 3, 5])) == family

    with pytest.raises(errors.SupportMismatch):
        radicands_from_forms(T, make_prime_set([2, 3]))


def test_bridge_equivalence_small_supports():
    # goodness of the exponent forms == exact exceptionality of the radicands
    for p in (2, 3, 5):
        primes = (2, 3, 5)
        pool = []
        for size in range(1, len(primes) + 1):
            for combo in itertools.combinations(primes, size):
                value = 1
                for q in combo:
                    value *= q
                pool.append(value)
        for r in range(1, len(pool) + 1):
            for chosen in itertools.combinations(pool, r):
                B = make_radicand_set(p, chosen)
                T = forms_from_radicands(B)
                good, point = is_good(T)
                exact, witness = is_exceptional_exact(B)
                assert good == exact, (p, chosen)
                if not exact:
                    assert witness.twists == point, (p, chosen)


def test_make_form_set_normalises_and_checks_forms():
    T = make_form_set(3, 3, [[2, 0], (1, 1), (0, 2, 2), (1,), {2}, range(3)])
    assert T.forms == ((1,), (2,), (0, 2), (0, 1, 2))
    for bad in [(), (-1,)]:
        with pytest.raises(errors.BadParameters):
            make_form_set(3, 2, [(0,), bad])
    with pytest.raises(errors.SupportMismatch):
        make_form_set(3, 2, [(0,), (2,)])

    # the bridge's forms are the stored exponent vectors, by size then support
    pool = [2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, 42, 70, 105, 210]
    rng = random.Random(1200)
    for p in (2, 3, 5):
        for _ in range(200):
            B = make_radicand_set(p, rng.sample(pool, rng.randint(1, len(pool))))
            T = forms_from_radicands(B)
            assert (T.p, T.n) == (p, len(B.support))
            assert T.forms == tuple(sorted(B.vectors, key=lambda s: (len(s), s)))
            assert T == make_form_set(p, len(B.support), B.vectors)


def test_search_payload_schema():
    payload = search_payload(min_good_size(3, 3, 7))
    assert list(payload) == ["min", "witness", "exhaustive", "nodes_explored"]
    assert payload["min"] == 6
    assert isinstance(payload["nodes_explored"], int) and payload["nodes_explored"] > 0
    assert payload["exhaustive"] is True
    assert len(payload["witness"]) == 6
    assert payload["witness"] == sorted(payload["witness"], key=lambda s: (len(s), s))
