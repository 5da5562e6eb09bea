"""Minimal covering sets of 0/1 subset-sum forms over F_p.

A set of forms is *good* when every point of F_p^n is annihilated by at
least one form.  Good sets correspond to radicand sets whose radical family
is exceptional, with each form the 0/1 exponent vector of a radicand over
the support primes; minimal good sets therefore give minimal exceptional
families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True)
class LinearForm:
    """Sum of a nonempty subset of the coordinates (a 0/1 form)."""

    support: tuple[int, ...]


def make_form(support) -> LinearForm:
    support = tuple(sorted(set(int(c) for c in support)))
    if not support:
        raise BadParameters("a form needs a nonempty support")
    if any(c < 0 for c in support):
        raise BadParameters("coordinates are nonnegative")
    return LinearForm(support)


@dataclass(frozen=True)
class FormSet:
    p: int
    n: int
    forms: tuple[LinearForm, ...]


def make_form_set(p: int, n: int, forms) -> FormSet:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise BadParameters("dimension must be positive")
    forms = tuple(sorted(set(forms), key=lambda f: (len(f.support), f.support)))
    for f in forms:
        if f.support[-1] >= n:
            raise SupportMismatch(f"form {f.support} exceeds dimension {n}")
    return FormSet(p, n, forms)


@dataclass(frozen=True)
class SearchResult:
    minimum: int | None
    witness: FormSet | None
    nodes_explored: int
    exhaustive: bool


def all_forms(n: int) -> tuple[LinearForm, ...]:
    """All 2^n - 1 nonzero 0/1 forms in n coordinates, by size then support."""
    if not 1 <= n <= FORM_DIMENSION_CAP:
        raise DimensionTooLarge(f"dimension must be in [1, {FORM_DIMENSION_CAP}]")
    forms = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            forms.append(LinearForm(combo))
    return tuple(forms)


def is_good(T: FormSet):
    """(True, None) if some form vanishes at each point, else (False, point)
    with the first point, in lexicographic order, at which none does."""
    x = first_uncovered_point(T.p, T.n, [f.support for f in T.forms])
    return x is None, x


def min_good_size(
    p: int,
    n: int,
    size_budget: int,
    symmetry_reduction: bool = False,
) -> SearchResult:
    """Smallest cardinality of a good subset of the 2^n - 1 forms, within the
    budget, by iterative deepening over sizes with branch-and-bound pruning.

    Pruning uses the remaining-forms bound and the union of all not-yet
    considered vanishing sets; the optional symmetry flag additionally skips
    selections that are not lexicographically minimal under coordinate
    permutations (validated against the unreduced search in the tests).
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
            for c in form.support:
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
        index_of = {form.support: i for i, form in enumerate(forms)}
        coordinate_maps = []
        for sigma in itertools.permutations(range(n)):
            coordinate_maps.append(
                tuple(index_of[tuple(sorted(sigma[c] for c in form.support))] for form in forms)
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


def min_over_n(p: int, n_max: int, size_budget: int | None = None) -> SearchResult:
    """Minimum good-set size over dimensions 1..n_max.

    Later dimensions are only searched for strict improvements, which keeps
    the combined search exhaustive whenever the per-dimension budgets allow
    ruling out anything smaller than the reported minimum.
    """
    if n_max < 1:
        raise BadParameters("need at least one dimension")
    best: SearchResult | None = None
    nodes = 0
    searched: list[tuple[int, int]] = []
    for n in range(1, n_max + 1):
        budget = 2**n - 1
        if size_budget is not None:
            budget = min(budget, size_budget)
        if best is not None:
            budget = min(budget, best.minimum - 1)
        if budget < 1:
            searched.append((n, 0))
            continue
        result = min_good_size(p, n, budget)
        nodes += result.nodes_explored
        searched.append((n, budget))
        if result.minimum is not None and (best is None or result.minimum < best.minimum):
            best = result
    if best is None:
        exhaustive = all(
            budget >= min(2**n - 1, size_budget or 2**n - 1) for n, budget in searched
        )
        return SearchResult(None, None, nodes, exhaustive)
    exhaustive = all(
        budget >= min(2**n - 1, best.minimum - 1) for n, budget in searched
    )
    return SearchResult(best.minimum, best.witness, nodes, exhaustive)


def radicands_from_forms(T: FormSet, L: PrimeSet) -> RadicandSet:
    """Radicands whose 0/1 exponent vectors over L are the given forms."""
    if len(L.primes) != T.n:
        raise SupportMismatch(f"need exactly {T.n} primes, got {len(L.primes)}")
    radicands = []
    for form in T.forms:
        value = 1
        for c in form.support:
            value *= L.primes[c]
        radicands.append(value)
    return make_radicand_set(T.p, radicands)


def forms_from_radicands(B: RadicandSet, L: PrimeSet | None = None) -> FormSet:
    """The 0/1 exponent vectors of the radicands over the support primes."""
    primes = B.support if L is None else L.primes
    if not set(B.support) <= set(primes):
        raise SupportMismatch("prime list does not cover the radicand support")
    position = {q: i for i, q in enumerate(primes)}
    forms = [LinearForm(tuple(position[q] for q in sup)) for sup in B.supports]
    return make_form_set(B.p, len(primes), forms)


def search_payload(result: SearchResult) -> dict:
    witness = None
    if result.witness is not None:
        witness = [list(form.support) for form in result.witness.forms]
    return {"min": result.minimum, "witness": witness, "exhaustive": result.exhaustive}
