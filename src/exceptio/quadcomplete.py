"""Quadratic completions.

Two constructions: the resolvent quadratic x^2 - disc(h) that completes an
irreducible cubic h with non-square discriminant to a product with a root
modulo almost every prime, and the search for a discriminant d that
completes an already-exceptional product towards having roots modulo every
prime power (a candidate, not a proof: `primescan.scan` and
`primescan.intersective_screen` check the completed product).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    BadParameters,
    NoCandidateInRange,
    NotCubic,
    ReducibleCubic,
    SquareDiscriminant,
)
from .intpoly import IntPolynomial, discriminant, has_integer_root, make_poly
from .nt import is_prime, is_square, is_squarefree_int, legendre_symbol


class CompletionCandidate(NamedTuple):
    """A completing discriminant with its residue class and QR certificates."""

    d: int
    mod8: int
    qr_certificates: dict[int, int]


def cubic_resolvent_completion(h: IntPolynomial) -> IntPolynomial:
    """x^2 - disc(h) for a monic irreducible cubic h with non-square
    discriminant; the product with h then has a root modulo almost all
    primes (confirmed downstream by scanning)."""
    if h.is_zero or h.degree != 3 or not h.is_monic:
        raise NotCubic("need a monic cubic")
    if has_integer_root(h) is not None:
        raise ReducibleCubic("cubic has an integer root")
    disc = discriminant(h)
    if is_square(disc):
        raise SquareDiscriminant(
            f"disc = {disc} is a perfect square; the splitting field has no "
            "quadratic subfield"
        )
    return make_poly([-disc, 0, 1])


def find_intersective_d(bad_primes, search_bound: int) -> CompletionCandidate:
    """Smallest square-free non-square d <= bound with d = 1 mod 8 that is a
    unit square modulo every odd bad prime.

    d = 1 mod 8 lifts a root of x^2 - d through all powers of 2; being a
    nonzero quadratic residue lifts through powers of each odd bad prime.
    """
    if search_bound < 2:
        raise BadParameters("search bound must be at least 2")
    odd_bad = sorted({int(p) for p in bad_primes} - {2})
    for p in odd_bad:
        if p == 2 or not is_prime(p):
            raise BadParameters(f"bad prime {p} is not prime")
    for d in range(2, search_bound + 1):
        if d % 8 != 1 or is_square(d) or not is_squarefree_int(d):
            continue
        if all(d % p != 0 and legendre_symbol(d, p) == 1 for p in odd_bad):
            certificates = {p: legendre_symbol(d, p) for p in odd_bad}
            return CompletionCandidate(d, d % 8, certificates)
    raise NoCandidateInRange(f"no completing d up to {search_bound}")


def candidate_payload(candidate: CompletionCandidate) -> dict:
    return {
        "d": candidate.d,
        "mod8": candidate.mod8,
        "qr_certificates": {str(p): v for p, v in candidate.qr_certificates.items()},
    }
