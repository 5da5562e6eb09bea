"""The library's records: immutable values that hash and compare field by field."""

import pytest

from exceptio.goodsets import make_form_set, min_good_size
from exceptio.intpoly import factorisation_pattern, parse_factors, reduce_mod
from exceptio.kummer import PrimeSet, is_exceptional_full, make_prime_set, make_radicand_set
from exceptio.permgroup import dihedral_group, index2_subgroups, unique_fp_coset_condition
from exceptio.primescan import exceptional_verdict, scan, sieve_primes
from exceptio.quadcomplete import find_intersective_d

RECORD_TYPES = {
    "FormSet", "SearchResult", "IntPolynomial", "ModPolynomial", "FactorisationPattern",
    "FactoredPolynomial", "PrimeSet", "RadicandSet", "ExponentMap", "PermutationGroup",
    "CosetCheck", "PrimeTable", "ScanReport", "Verdict", "CompletionCandidate",
}


def _one_of_each():
    F = parse_factors("x^2+108; x^3+2")
    G = dihedral_group(4)
    B = make_radicand_set(3, [2, 3])
    return [
        make_form_set(3, 2, [(0,), (1,), (0, 1)]),
        min_good_size(2, 2, 3),
        F.factors[0],
        reduce_mod(F.product, 7),
        factorisation_pattern(reduce_mod(F.product, 7)),
        F,
        make_prime_set([2, 3, 5]),
        B,
        is_exceptional_full(B)[1],
        G,
        unique_fp_coset_condition(G, index2_subgroups(G)[0]),
        sieve_primes(30),
        scan(F, 100),
        exceptional_verdict(F, 100),
        find_intersective_d([3, 5], 10_000),
    ]


def test_records_are_frozen_hashable_and_compared_by_field():
    records = _one_of_each()
    assert {type(r).__name__ for r in records} == RECORD_TYPES
    for r in records:
        cls, name = type(r), type(r).__name__
        values = {field: getattr(r, field) for field in cls._fields}
        twin = cls(**values)
        assert twin == r and twin is not r, name
        for field in values:
            with pytest.raises(AttributeError):
                setattr(r, field, values[field])
            assert cls(**{**values, field: object()}) != r, (name, field)
        with pytest.raises(AttributeError):
            r.note = 1
        if name == "CompletionCandidate":
            with pytest.raises(TypeError):  # its certificates are a dict
                hash(r)
        else:
            assert hash(twin) == hash(r), name


def test_prime_set_length_is_its_prime_count():
    # PrimeSet keeps tuple semantics: its primes are counted by len(L.primes),
    # and _replace builds a new set
    L = make_prime_set([7, 2, 3, 5])
    assert len(L.primes) == 4
    assert not make_prime_set([]).primes
    assert L._replace(primes=(2, 3)) == make_prime_set([3, 2])
    assert PrimeSet._make([(2, 3)]) == make_prime_set([2, 3])
