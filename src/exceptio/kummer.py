"""Exact exceptionality decisions for products of x^p - b factors.

The splitting-field automorphisms of such a family are in bijection with
exponent maps: a twist exponent for each base prime (how the automorphism
scales that prime's radical by a root of unity) plus a nonzero exponent
describing its action on the root of unity itself.  One depth-first walk over
the twists, `first_uncovered_point`, decides exceptionality exactly.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BadParameters,
    EmptySet,
    EnumerationTooLarge,
    NotPrime,
    SupportMismatch,
)
from .intpoly import FactoredPolynomial, make_poly, product_of
from .nt import factorize, is_prime

ENUMERATION_POINT_CAP = 10**7
SUPPORT_CAP = 12


class PrimeSet(NamedTuple):
    """Strictly increasing tuple of distinct rational primes."""

    primes: tuple[int, ...]


def make_prime_set(primes) -> PrimeSet:
    primes = tuple(sorted(set(int(q) for q in primes)))
    for q in primes:
        if not is_prime(q):
            raise NotPrime(f"{q} is not prime")
    return PrimeSet(primes)


class RadicandSet(NamedTuple):
    """Square-free radicands b > 1 under a fixed prime exponent p.

    `supports` lists, per radicand, its prime divisors; `support` is their
    sorted union.  `vectors` lists, per radicand, the positions of its
    primes in `support`: the 0/1 exponent vector of the radicand, given by
    its nonzero coordinates.
    """

    p: int
    radicands: tuple[int, ...]
    supports: tuple[tuple[int, ...], ...]
    support: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=4096)
def _radicand_support(b: int) -> tuple[int, ...]:
    """The prime divisors of the square-free radicand b > 1, ascending.

    Cached per process (errors are raised, never cached): the same
    radicands recur across the sets a caller decides."""
    if b <= 1:
        raise BadParameters(f"radicand {b} must exceed 1")
    factors = factorize(b)
    if any(e > 1 for _, e in factors):
        raise BadParameters(f"radicand {b} is not square free")
    return tuple(q for q, _ in factors)


def make_radicand_set(p: int, radicands) -> RadicandSet:
    if not is_prime(p):
        raise NotPrime(f"exponent {p} is not prime")
    radicands = tuple(sorted({int(b) for b in radicands}))
    if not radicands:
        raise EmptySet("need at least one radicand")
    # tuples from lists, not generators or map, get their exact size: resized
    # ones pile up in CPython's tuple free lists (~1 MB over 65 534 sets)
    supports = tuple([_radicand_support(b) for b in radicands])
    support = tuple(sorted(set().union(*supports)))
    position = {q: i for i, q in enumerate(support)}
    vectors = tuple([tuple([position[q] for q in sup]) for sup in supports])
    return RadicandSet(p, radicands, supports, support, vectors)


class ExponentMap(NamedTuple):
    """One splitting-field automorphism: per-prime radical twists plus the
    exponent of its action on the chosen root of unity (never zero)."""

    p: int
    primes: tuple[int, ...]
    twists: tuple[int, ...]
    unity_power: int


def consecutive_products(L: PrimeSet, p: int) -> RadicandSet:
    """All products of nonempty runs of consecutive elements of L; there are
    n(n+1)/2 of them for |L| = n.  L is their support, so a set the exact
    walk would refuse is refused before any product is factored."""
    if not L.primes:
        raise EmptySet("prime set is empty")
    check_enumeration_bounds(p, len(L.primes))
    products = []
    for i in range(len(L.primes)):
        value = 1
        for j in range(i, len(L.primes)):
            value *= L.primes[j]
            products.append(value)
    return make_radicand_set(p, products)


def build_kummer_poly(B: RadicandSet) -> FactoredPolynomial:
    """The product of x^p - b over the radicands, in ascending b order.

    Each factor is irreducible over Q (Eisenstein at any prime divisor of
    the square-free radicand)."""
    factors = [make_poly([-b] + [0] * (B.p - 1) + [1]) for b in B.radicands]
    return product_of(factors)


def fixes_some_root(em: ExponentMap, B: RadicandSet) -> bool:
    """Whether the automorphism fixes any root of the family polynomial.

    A root is a unity power times the p-th root of some radicand; the map
    fixes it exactly when the twist sum of the radicand cancels against a
    unity exponent solving the fixing congruence.
    """
    if em.p != B.p:
        raise SupportMismatch("exponent map and radicands use different p")
    if not set(B.support) <= set(em.primes):
        raise SupportMismatch("exponent map does not cover the radicand support")
    if em.unity_power % em.p == 0:
        raise BadParameters("unity exponent must be nonzero mod p")
    p = B.p
    twist = dict(zip(em.primes, em.twists))
    for sup in B.supports:
        s = sum(twist[q] for q in sup) % p
        for nu0 in range(p):
            if (nu0 * (em.unity_power - 1) + s) % p == 0:
                return True
    return False


def check_enumeration_bounds(p: int, n: int) -> None:
    if n > SUPPORT_CAP or p**n > ENUMERATION_POINT_CAP:
        raise EnumerationTooLarge(f"{p}^{n} points exceed the enumeration bound")


def first_uncovered_point(p: int, n: int, index_sets):
    """The lexicographically first x in F_p^n at which no index set sums to
    0 mod p, or None.  An odometer fixes x left to right and tests each set
    once its largest coordinate is fixed; a prefix on which one sums to 0 is
    covered at every completion, so its subtree is skipped."""
    check_enumeration_bounds(p, n)
    filed = [[] for _ in range(n)]
    for idxs in index_sets:
        filed[max(idxs)].append(idxs)
    x = [0] * n
    d = 0  # x[:d] is fixed and uncovered; x[d] is on trial
    while True:
        for idxs in filed[d]:
            total = 0
            for i in idxs:
                total += x[i]
            if total % p == 0:
                break
        else:
            if d == n - 1:
                return tuple(x)
            d += 1
            x[d] = 0
            continue
        while x[d] == p - 1:
            d -= 1
            if d < 0:
                return None
        x[d] += 1


def is_exceptional_exact(B: RadicandSet):
    """(True, None) if every automorphism fixes a root, else (False, witness).

    Maps that move the root of unity always fix a root, so only unity-fixing
    maps are searched: each fixes a root iff some radicand's twist sum is 0
    mod p.  The witness is the lexicographically first one that fixes none.
    """
    twists = first_uncovered_point(B.p, len(B.support), B.vectors)
    witness = None if twists is None else ExponentMap(B.p, B.support, twists, 1)
    return witness is None, witness


def is_exceptional_full(B: RadicandSet):
    """Full-enumeration cross-validator for is_exceptional_exact: iterates
    every (twists, unity power) pair and replays the fixing congruence."""
    check_enumeration_bounds(B.p, len(B.support))
    p = B.p
    if (p - 1) * p ** len(B.support) > ENUMERATION_POINT_CAP:
        raise EnumerationTooLarge("full enumeration exceeds the bound")
    for twists in itertools.product(range(p), repeat=len(B.support)):
        for unity in range(1, p):
            em = ExponentMap(p, B.support, twists, unity)
            if not fixes_some_root(em, B):
                return False, em
    return True, None


def predicted_exceptional(L: PrimeSet, p: int) -> bool:
    """Closed-form criterion for the consecutive-products family over L:
    exceptional exactly when L has at least p elements."""
    return len(L.primes) >= p


def zero_sum_consecutive(seq, moduli):
    """First (lexicographically earliest) interval [i, j], 1-indexed, of
    consecutive entries summing to zero in Z/m1 x ... x Z/mk, or None.

    Guaranteed to exist whenever the sequence is at least as long as the
    group order, by the prefix-sum pigeonhole.
    """
    if isinstance(moduli, int):
        moduli = (moduli,)
    moduli = tuple(int(m) for m in moduli)
    if not moduli or any(m < 1 for m in moduli):
        raise BadParameters("moduli must all be at least 1")
    entries = []
    for value in seq:
        if isinstance(value, int):
            value = (value,)
        value = tuple(value)
        if len(value) != len(moduli):
            raise BadParameters("entry arity does not match the moduli")
        entries.append(tuple(v % m for v, m in zip(value, moduli)))
    k = len(moduli)
    for i in range(len(entries)):
        totals = [0] * k
        for j in range(i, len(entries)):
            entry = entries[j]
            for t in range(k):
                totals[t] = (totals[t] + entry[t]) % moduli[t]
            if not any(totals):
                return (i + 1, j + 1)
    return None


def exponent_map_payload(em: ExponentMap | None):
    if em is None:
        return None
    return {
        "twists": {str(q): t for q, t in zip(em.primes, em.twists)},
        "unity_power": em.unity_power,
    }


def kummer_payload(B: RadicandSet, predicted: bool | None) -> dict:
    exact, witness = is_exceptional_exact(B)
    return {
        "exceptional_exact": exact,
        "predicted_exceptional": predicted,
        "witness": exponent_map_payload(witness),
    }
