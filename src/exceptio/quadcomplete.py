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
from .nt import is_prime, is_square, is_squarefree_int

# d = 9, 17, ... up to 10^8: 1.25e7 candidates, 7.7 s on a 2-core VM when the
# first 40 odd primes are bad and no d qualifies
COMPLETE_D_CAP = 10**8


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
    Only d = 1 mod 8 is tried, and Euler's criterion comes first:
    d^((p-1)/2) = 1 mod p already rules out p | d, and about half the
    candidates fail at each prime.
    """
    if not 2 <= search_bound <= COMPLETE_D_CAP:
        raise BadParameters(f"search bound must be in [2, {COMPLETE_D_CAP}]")
    odd_bad = sorted({int(p) for p in bad_primes} - {2})
    for p in odd_bad:
        if not is_prime(p):
            raise BadParameters(f"bad prime {p} is not prime")
    halves = [(p, (p - 1) // 2) for p in odd_bad]
    for d in range(9, search_bound + 1, 8):
        if all(pow(d, h, p) == 1 for p, h in halves) and not is_square(d) and is_squarefree_int(d):
            return CompletionCandidate(d, 1, dict.fromkeys(odd_bad, 1))
    raise NoCandidateInRange(f"no completing d up to {search_bound}")


def candidate_payload(candidate: CompletionCandidate) -> dict:
    return {
        "d": candidate.d,
        "mod8": candidate.mod8,
        "qr_certificates": {str(p): v for p, v in candidate.qr_certificates.items()},
    }
