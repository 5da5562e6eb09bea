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
    make_form,
    make_form_set,
    min_good_size,
    min_over_n,
    radicands_from_forms,
    search_payload,
)
from exceptio.kummer import is_exceptional_exact, make_prime_set, make_radicand_set


def test_all_forms():
    assert [f.support for f in all_forms(2)] == [(0,), (1,), (0, 1)]
    assert len(all_forms(3)) == 7
    assert all_forms(1) == (make_form([0]),)
    with pytest.raises(errors.DimensionTooLarge):
        all_forms(21)


def test_is_good_examples():
    full2 = make_form_set(2, 2, all_forms(2))
    good, uncovered = is_good(full2)
    assert good and uncovered is None

    partial = make_form_set(2, 2, [make_form([0]), make_form([1])])
    good, uncovered = is_good(partial)
    assert not good and uncovered == (1, 1)

    single = make_form_set(3, 3, [make_form([0])])
    good, uncovered = is_good(single)
    assert not good and uncovered[0] != 0

    with pytest.raises(errors.EnumerationTooLarge):
        is_good(make_form_set(5, 11, [make_form([0])]))


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


def test_min_over_n_closing_values():
    assert min_over_n(2, 4).minimum == 3
    assert min_over_n(3, 4).minimum == 6
    result = min_over_n(2, 1)
    assert result.minimum is None and result.exhaustive
    # p(p+1)/2 is attained
    for p in (2, 3):
        assert min_over_n(p, 4).minimum == p * (p + 1) // 2


def test_min_over_n_with_size_budget():
    # "absent within the budget" is itself an exhaustive claim
    capped = min_over_n(3, 4, size_budget=2)
    assert capped.minimum is None and capped.exhaustive
    # a budget at the minimum still finds it
    assert min_over_n(3, 4, size_budget=6).minimum == 6


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
    assert [f.support for f in T.forms] == [(0,), (1,), (0, 1)]
    back = radicands_from_forms(T, make_prime_set([2, 3]))
    assert back.radicands == (2, 3, 6)

    T = make_form_set(3, 1, [make_form([0])])
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


def test_search_payload_schema():
    payload = search_payload(min_good_size(3, 3, 7))
    assert list(payload) == ["min", "witness", "exhaustive"]
    assert payload["min"] == 6
    assert payload["exhaustive"] is True
    assert len(payload["witness"]) == 6
    assert payload["witness"] == sorted(payload["witness"], key=lambda s: (len(s), s))
