"""Small integer number-theory helpers used across modules."""

from __future__ import annotations

from math import isqrt

from .errors import FactorizationTooLarge

# Deterministic Miller-Rabin witnesses: the first twelve primes decide every
# n below MR_DETERMINISTIC_LIMIT, about 3.2 * 10^23 (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_DETERMINISTIC_LIMIT = 318_665_857_834_031_151_167_461

#: `factorize` trial-divides by candidates up to this bound only.
TRIAL_DIVISION_LIMIT = 10**6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n > 0 by trial division, as (prime, exponent) pairs.

    Divisors are tried up to TRIAL_DIVISION_LIMIT only, so a cofactor left
    below the limit's square is prime.  A larger one is accepted when
    `is_prime` proves it prime below MR_DETERMINISTIC_LIMIT; otherwise
    FactorizationTooLarge is raised.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            e += 1
            n //= p
        if e:
            out.append((p, e))
    d = 5
    while d * d <= n:
        if d > TRIAL_DIVISION_LIMIT:
            if n >= MR_DETERMINISTIC_LIMIT or not is_prime(n):
                raise FactorizationTooLarge(f"{n} has no factor below {d} and is not proved prime")
            break
        for q in (d, d + 2):
            e = 0
            while n % q == 0:
                e += 1
                n //= q
            if e:
                out.append((q, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return out


def prime_support(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def is_squarefree_int(n: int) -> bool:
    return n > 0 and all(e == 1 for _, e in factorize(n))


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def divisors_ascending(n: int) -> list[int]:
    """All positive divisors of n > 0 in ascending order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def primitive_root(p: int) -> int:
    """Smallest primitive root of an odd prime p."""
    if p == 2:
        return 1
    phi = p - 1
    prime_divs = prime_support(phi)
    g = 2
    while True:
        if all(pow(g, phi // q, p) != 1 for q in prime_divs):
            return g
        g += 1
