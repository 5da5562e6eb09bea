"""Quadratic completions.

Two constructions: the resolvent quadratic x^2 - disc(h) that completes an
irreducible cubic h with non-square discriminant to a product with a root
modulo almost every prime, and the search for a discriminant d that
completes an already-exceptional product towards having roots modulo every
prime power (an empirical screen, not a proof).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadParameters,
    NoCandidateInRange,
    NotCubic,
    ReducibleCubic,
    SquareDiscriminant,
)
from .intpoly import (
    FactoredPolynomial,
    IntPolynomial,
    discriminant,
    has_integer_root,
    make_poly,
    product_of,
)
from .nt import is_prime, is_square, is_squarefree_int, legendre_symbol
from .primescan import has_root_mod_m, scan


@dataclass(frozen=True)
class CompletionCandidate:
    """A completing discriminant with its residue class and QR certificates."""

    d: int
    mod8: int
    qr_certificates: dict[int, int]


@dataclass(frozen=True)
class CompletionReport:
    d: int
    prime_limit: int
    power_limit: int
    former_failures: tuple[int, ...]
    violating_primes: tuple[int, ...]
    violating_powers: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violating_primes and not self.violating_powers


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


def verify_completion(
    F: FactoredPolynomial,
    d: int,
    prime_limit: int,
    power_limit: int,
) -> CompletionReport:
    """Empirical screen of (x^2 - d) * F: roots mod every prime up to
    prime_limit, and mod every power q^k <= power_limit of the primes in
    the former failure set of F."""
    combined = product_of(F.factors + (make_poly([-d, 0, 1]),))
    report = scan(combined, prime_limit)
    former = scan(F, prime_limit).failures
    violating_powers = []
    for q in former:
        power = q
        while power <= power_limit:
            if has_root_mod_m(combined.product, power) is None:
                violating_powers.append(power)
            power *= q
    return CompletionReport(
        d=d,
        prime_limit=prime_limit,
        power_limit=power_limit,
        former_failures=former,
        violating_primes=report.failures,
        violating_powers=tuple(violating_powers),
    )


def candidate_payload(candidate: CompletionCandidate) -> dict:
    return {
        "d": candidate.d,
        "mod8": candidate.mod8,
        "qr_certificates": {str(p): v for p, v in candidate.qr_certificates.items()},
    }


def completion_report_payload(report: CompletionReport) -> dict:
    return {
        "d": report.d,
        "prime_limit": report.prime_limit,
        "power_limit": report.power_limit,
        "former_failures": list(report.former_failures),
        "violating_primes": list(report.violating_primes),
        "violating_powers": list(report.violating_powers),
        "ok": report.ok,
    }
