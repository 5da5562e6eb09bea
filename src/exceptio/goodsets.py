"""Minimal covering sets of 0/1 subset-sum forms over F_p.

A form is a sorted tuple of distinct coordinates: the nonzero positions of
a 0/1 vector, the same tuples as `RadicandSet.vectors`.  A set of forms is
*good* when every point of F_p^n is annihilated by at least one form.  Good
sets correspond to radicand sets whose radical family is exceptional, with
each form the exponent vector of a radicand over the support primes;
minimal good sets therefore give minimal exceptional families.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import (
    BadParameters,
    DimensionTooLarge,
    NotPrime,
    SupportMismatch,
)
from .kummer import PrimeSet, RadicandSet, make_radicand_set
from .kummer import check_enumeration_bounds, first_uncovered_point
from .nt import is_prime

FORM_DIMENSION_CAP = 20


def _size_then_support(form: tuple[int, ...]):
    return len(form), form


class FormSet(NamedTuple):
    p: int
    n: int
    forms: tuple[tuple[int, ...], ...]


def make_form_set(p: int, n: int, forms) -> FormSet:
    """The form set of iterables of coordinates: each form is sorted and
    deduplicated, repeated forms are dropped, and the rest are ordered by
    size, then support."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise BadParameters("dimension must be positive")
    distinct = {tuple(sorted({int(c) for c in form})) for form in forms}
    supports = sorted(distinct, key=_size_then_support)
    for s in supports:
        if not s:
            raise BadParameters("a form needs a nonempty support")
        if s[0] < 0:
            raise BadParameters("coordinates are nonnegative")
        if s[-1] >= n:
            raise SupportMismatch(f"form {s} exceeds dimension {n}")
    return FormSet(p, n, tuple(supports))


class SearchResult(NamedTuple):
    minimum: int | None
    witness: FormSet | None
    nodes_explored: int
    exhaustive: bool


def all_forms(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^n - 1 nonzero 0/1 forms in n coordinates, by size then support."""
    if not 1 <= n <= FORM_DIMENSION_CAP:
        raise DimensionTooLarge(f"dimension must be in [1, {FORM_DIMENSION_CAP}]")
    return tuple([c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)])


def is_good(T: FormSet):
    """(True, None) if some form vanishes at each point, else (False, point)
    with the first point, in lexicographic order, at which none does."""
    x = first_uncovered_point(T.p, T.n, T.forms)
    return x is None, x


def min_good_size(
    p: int,
    n: int,
    size_budget: int,
    symmetry_reduction: bool = False,
) -> SearchResult:
    """Smallest cardinality of a good subset of the 2^n - 1 forms, within the
    budget, by iterative deepening over sizes with branch-and-bound pruning.

    A branch stops when the forms not yet considered cannot cover the rest
    of F_p^n; with two slots left it also stops when twice the most new
    points any one remaining form covers falls short of the uncovered
    count; the last slot is filled by a direct test of each remaining form.
    The optional symmetry flag additionally skips selections that are not
    lexicographically minimal under coordinate permutations.  The two-slot
    bound and the last-slot test keep the minimum, the witness and
    `exhaustive` of the search without them
    (`tests/oracles.py::min_good_size_unpruned`).

    `nodes_explored` counts the selections the search visits: every partial
    selection it extends or prunes, and a full-size selection only when it
    completes the cover.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    check_enumeration_bounds(p, n)
    forms = all_forms(n)
    if not 1 <= size_budget <= len(forms):
        raise BadParameters(f"size budget must be in [1, {len(forms)}]")

    points = list(itertools.product(range(p), repeat=n))
    masks = []
    for form in forms:
        mask = 0
        for idx, x in enumerate(points):
            total = 0
            for c in form:
                total += x[c]
            if total % p == 0:
                mask |= 1 << idx
        masks.append(mask)
    full = (1 << len(points)) - 1
    suffix = [0] * (len(forms) + 1)
    for i in range(len(forms) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]

    coordinate_maps = None
    if symmetry_reduction:
        index_of = {form: i for i, form in enumerate(forms)}
        coordinate_maps = []
        for sigma in itertools.permutations(range(n)):
            coordinate_maps.append(
                tuple(index_of[tuple(sorted(sigma[c] for c in form))] for form in forms)
            )
        coordinate_maps = coordinate_maps[1:]  # drop the identity

    def is_canonical(chosen: list[int]) -> bool:
        for remap in coordinate_maps:
            if tuple(sorted(remap[i] for i in chosen)) < tuple(chosen):
                return False
        return True

    nodes = 0
    witness_indices: tuple[int, ...] | None = None

    def dfs(start: int, chosen: list[int], covered: int, target: int) -> bool:
        nonlocal nodes, witness_indices
        nodes += 1
        if covered == full:
            witness_indices = tuple(chosen)
            return True
        if len(chosen) == target:
            return False
        needed = target - len(chosen)
        if needed == 1:
            for i in range(start, len(forms)):
                if covered | suffix[i] != full:
                    break
                if covered | masks[i] == full and (
                    not symmetry_reduction or is_canonical(chosen + [i])
                ):
                    nodes += 1
                    witness_indices = (*chosen, i)
                    return True
            return False
        if needed == 2:
            uncovered = ~covered
            best = max((masks[i] & uncovered).bit_count() for i in range(start, len(forms)))
            if 2 * best < (full & uncovered).bit_count():
                return False
        for i in range(start, len(forms) - needed + 1):
            if covered | suffix[i] != full:
                break
            chosen.append(i)
            if not symmetry_reduction or is_canonical(chosen):
                if dfs(i + 1, chosen, covered | masks[i], target):
                    chosen.pop()
                    return True
            chosen.pop()
        return False

    for target in range(1, size_budget + 1):
        if dfs(0, [], 0, target):
            witness = FormSet(p, n, tuple(forms[i] for i in witness_indices))
            return SearchResult(len(witness_indices), witness, nodes, True)
    return SearchResult(None, None, nodes, True)


def min_over_n(p: int, n_max: int) -> SearchResult:
    """Minimum good-set size over dimensions 1..n_max, with the nodes
    explored summed over the dimensions.

    The first dimension with a good set is searched over all its forms,
    later ones only for sizes below the best found so far, so the search is
    always exhaustive: nothing smaller than the minimum exists up to n_max.
    """
    if n_max < 1:
        raise BadParameters("need at least one dimension")
    best = SearchResult(None, None, 0, True)
    nodes = 0
    for n in range(1, n_max + 1):
        # no single form vanishes on all of F_p^n, so best.minimum - 1 >= 1
        budget = 2**n - 1 if best.minimum is None else min(2**n - 1, best.minimum - 1)
        result = min_good_size(p, n, budget)
        nodes += result.nodes_explored
        if result.minimum is not None:
            best = result
    return best._replace(nodes_explored=nodes)


def radicands_from_forms(T: FormSet, L: PrimeSet) -> RadicandSet:
    """Radicands whose 0/1 exponent vectors over L are the given forms."""
    if len(L.primes) != T.n:
        raise SupportMismatch(f"need exactly {T.n} primes, got {len(L.primes)}")
    radicands = []
    for form in T.forms:
        value = 1
        for c in form:
            value *= L.primes[c]
        radicands.append(value)
    return make_radicand_set(T.p, radicands)


def forms_from_radicands(B: RadicandSet) -> FormSet:
    """The 0/1 exponent vectors of the radicands over the support primes.

    `make_radicand_set` makes them sorted, distinct and in range, so they
    are ordered here and need no further check."""
    return FormSet(B.p, len(B.support), tuple(sorted(B.vectors, key=_size_then_support)))


def search_payload(result: SearchResult) -> dict:
    witness = None
    if result.witness is not None:
        witness = [list(form) for form in result.witness.forms]
    return {
        "min": result.minimum,
        "witness": witness,
        "exhaustive": result.exhaustive,
        "nodes_explored": result.nodes_explored,
    }
