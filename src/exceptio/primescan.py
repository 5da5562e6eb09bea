"""Prime sieving, root scanning over prime ranges, and exceptionality verdicts.

A scan records, for every prime p up to a limit, whether some factor of a
product has a root mod p.  Each factor gets one root test, chosen once by its
shape: linear factors always have a root, binomials x^n - c take a power
residue test, quadratics Euler's criterion on the discriminant, and higher
degrees a Frobenius kernel (x^p mod f, then a gcd with x^p - x), hand-unrolled
for degrees 3 to 5.  Cubics first take Stickelberger's parity test: when
disc(f) is a non-residue mod an odd p not dividing it, f splits as 1 + 2 and
has a root with no Frobenius step (as it does when p divides disc(f)).
Factors are tried cheapest first (one pow before the Frobenius kernels, those
by degree) with a short-circuit, each prime independently of the others, so
failures scanned in chunks and merged in order equal a single pass and a
cache can extend a scan by its tail.

An in-process verdict without a report stops at the first witness prime, a
failure not dividing the ramified bound; given a report (the CLI passes the
one it prints, so `exceptio verdict` still scans the full range) it reads the
report's full failure set instead.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt
from operator import lt, mul
from pathlib import Path
from typing import NamedTuple

from .errors import (
    BadParameters,
    CacheIoError,
    CorruptCacheEntry,
    LimitTooLarge,
    ModulusTooLarge,
)
from .intpoly import (
    FactoredPolynomial,
    IntPolynomial,
    SWEEP_THRESHOLD,
    _mp_gcd,
    _mp_trim,
    discriminant,
    factored_text,
    has_integer_root,
    ramified_prime_bound,
)

SIEVE_CAP = 10**9
MODULUS_CAP = 10**8
SCREEN_CAP = 10**6


class PrimeTable(NamedTuple):
    primes: tuple[int, ...]


class ScanReport(NamedTuple):
    poly_key: str
    limit: int
    primes_scanned: int
    failures: tuple[int, ...]
    density_estimate: Fraction
    delta: int


class Verdict(NamedTuple):
    """Exceptionality verdict.

    HasIntegerRoot carries the root, NotExceptional a failure prime outside
    the ramified bound (a rigorous negative certificate), ExceptionalLikely
    the full failure set, all of which divides the bound.
    """

    tag: str
    root: int | None = None
    witness_prime: int | None = None
    failures: tuple[int, ...] | None = None


def sieve_primes(limit: int) -> PrimeTable:
    """All primes up to limit by an odd-only sieve of Eratosthenes, for
    2 <= limit <= SIEVE_CAP (BadParameters below, LimitTooLarge above)."""
    _check_sieve_limit(limit)
    return PrimeTable(_sieve_cached(limit))


def prime_count(limit: int) -> int:
    """The number of primes up to limit, counted from the sieve flags
    without building the primes; the same errors as `sieve_primes`."""
    _check_sieve_limit(limit)
    return 1 + _odd_prime_flags(limit).count(1)


def _check_sieve_limit(limit: int) -> None:
    if limit < 2:
        raise BadParameters("sieve limit must be at least 2")
    if limit > SIEVE_CAP:
        raise LimitTooLarge(f"sieve limit {limit} exceeds cap {SIEVE_CAP}")


@lru_cache(maxsize=8)
def _odd_prime_flags(limit: int) -> bytearray:
    """flags[i] is 1 iff the odd number 2i + 3 <= limit is prime.  Shared
    by every caller through the cache, so nothing may write to it."""
    flags = bytearray([1]) * ((limit - 1) // 2)
    for p in range(3, isqrt(limit) + 1, 2):
        if flags[(p - 3) // 2]:
            start = (p * p - 3) // 2
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    return flags


@lru_cache(maxsize=8)
def _sieve_cached(limit: int) -> tuple[int, ...]:
    return tuple(chain((2,), compress(range(3, limit + 1, 2), _odd_prime_flags(limit))))


# ---------------------------------------------------------------------------
# per-prime root existence: one kernel per factor, chosen by its shape
#
# A monic f of degree d >= 3 has a root mod p exactly when gcd(f, x^p - x)
# is not constant.  Its kernel computes x^p mod (f, p) left to right over
# the bits of p on d plain integers, folding the square's terms of degree
# d .. 2d-2 back with the reductions of those powers of x, and ends with one
# gcd.  Residue sweeps take the small primes.
# ---------------------------------------------------------------------------


def _prepare_factor(f: IntPolynomial):
    """The root test of one monic factor, as a callable has_root(p) -> bool."""
    coeffs = f.coeffs
    degree = len(coeffs) - 1
    if degree == 1:
        return _always
    if not any(coeffs[1:-1]):
        return _binomial_kernel(degree, -coeffs[0])
    if degree == 2:
        return _quadratic_kernel(f)
    return _UNROLLED_KERNELS.get(degree, _frobenius_kernel)(f)


def _prepare_factors(F: FactoredPolynomial) -> list:
    """The root tests of F's factors, cheapest first: linear, then one pow
    (binomials and quadratics), then the Frobenius kernels by degree.  The
    per-prime answer is an OR, so the order changes only the work done."""
    return [_prepare_factor(f) for f in sorted(F.factors, key=_test_cost)]


def _test_cost(f: IntPolynomial) -> int:
    degree = f.degree
    return degree if degree > 2 and any(f.coeffs[1:-1]) else min(degree, 2)


def _always(p: int) -> bool:
    return True


def _binomial_kernel(n: int, c: int):
    """x^n - c has a root mod p iff c is 0 or an n-th power residue.  When
    gcd(n, p - 1) = 1, x -> x^n permutes F_p, so every c is one."""

    def has_root(p: int) -> bool:
        g = gcd(n, p - 1)
        if g == 1:
            return True
        r = c % p
        return r == 0 or pow(r, (p - 1) // g, p) == 1

    return has_root


def _quadratic_kernel(f: IntPolynomial):
    """Euler's criterion on the discriminant a1^2 - 4 a0 for odd p."""
    a0, a1, _ = f.coeffs
    disc = a1 * a1 - 4 * a0

    def has_root(p: int) -> bool:
        if p == 2:
            return has_root_mod_m(f, p) is not None
        d = disc % p
        return d == 0 or pow(d, (p - 1) // 2, p) == 1

    return has_root


def _times_x(r, c, p: int) -> list[int]:
    """r * x mod (f, p), for r of degree < d and x^d = c mod (f, p)."""
    top = r[-1]
    return [(low + top * ci) % p for low, ci in zip([0, *r[:-1]], c)]


def _reduction_rows(coeffs, p: int) -> list[list[int]]:
    """x^d, ..., x^(2d-2) mod (f, p) for monic f of degree d."""
    rows = [[-a % p for a in coeffs[:-1]]]
    for _ in range(len(coeffs) - 3):
        rows.append(_times_x(rows[-1], rows[0], p))
    return rows


def _gcd_has_root(coeffs, xp, p: int) -> bool:
    """Whether gcd(f, x^p - x) is non-constant mod p, given x^p mod (f, p)
    with coefficients in [0, p)."""
    diff = list(xp)
    diff[1] = (diff[1] - 1) % p
    return len(_mp_gcd([a % p for a in coeffs], _mp_trim(diff), p)) > 1


def _cubic_kernel(f: IntPolynomial):
    coeffs = f.coeffs
    disc = discriminant(f)

    def has_root(p: int) -> bool:
        # Stickelberger: for odd p not dividing disc, (disc/p) = (-1)^(3 - r)
        # with r irreducible factors mod p, so a non-residue means 1 + 2.
        # When p divides disc, f mod p has a repeated factor, which for a
        # cubic is linear: a root too.
        if p > 2 and pow(disc % p, (p - 1) // 2, p) != 1:
            return True
        if p <= SWEEP_THRESHOLD:
            return has_root_mod_m(f, p) is not None
        (c0, c1, c2), (e0, e1, e2) = _reduction_rows(coeffs, p)
        r0, r1, r2 = 0, 1, 0
        for bit in bin(p)[3:]:
            s3, s4 = 2 * r1 * r2, r2 * r2
            r0, r1, r2 = (
                (r0 * r0 + s3 * c0 + s4 * e0) % p,
                (2 * r0 * r1 + s3 * c1 + s4 * e1) % p,
                (r1 * r1 + 2 * r0 * r2 + s3 * c2 + s4 * e2) % p,
            )
            if bit == "1":
                r0, r1, r2 = r2 * c0 % p, (r0 + r2 * c1) % p, (r1 + r2 * c2) % p
        return _gcd_has_root(coeffs, (r0, r1, r2), p)

    return has_root


def _quartic_kernel(f: IntPolynomial):
    coeffs = f.coeffs

    def has_root(p: int) -> bool:
        if p <= SWEEP_THRESHOLD:
            return has_root_mod_m(f, p) is not None
        (c0, c1, c2, c3), (e0, e1, e2, e3), (g0, g1, g2, g3) = _reduction_rows(coeffs, p)
        r0, r1, r2, r3 = 0, 1, 0, 0
        for bit in bin(p)[3:]:
            s4, s5, s6 = r2 * r2 + 2 * r1 * r3, 2 * r2 * r3, r3 * r3
            r0, r1, r2, r3 = (
                (r0 * r0 + s4 * c0 + s5 * e0 + s6 * g0) % p,
                (2 * r0 * r1 + s4 * c1 + s5 * e1 + s6 * g1) % p,
                (r1 * r1 + 2 * r0 * r2 + s4 * c2 + s5 * e2 + s6 * g2) % p,
                (2 * (r0 * r3 + r1 * r2) + s4 * c3 + s5 * e3 + s6 * g3) % p,
            )
            if bit == "1":
                r0, r1, r2, r3 = r3 * c0 % p, (r0 + r3 * c1) % p, (r1 + r3 * c2) % p, (r2 + r3 * c3) % p
        return _gcd_has_root(coeffs, (r0, r1, r2, r3), p)

    return has_root


def _quintic_kernel(f: IntPolynomial):
    coeffs = f.coeffs

    def has_root(p: int) -> bool:
        if p <= SWEEP_THRESHOLD:
            return has_root_mod_m(f, p) is not None
        rows = _reduction_rows(coeffs, p)
        (c0, c1, c2, c3, c4), (e0, e1, e2, e3, e4), (g0, g1, g2, g3, g4), (h0, h1, h2, h3, h4) = rows
        r0, r1, r2, r3, r4 = 0, 1, 0, 0, 0
        for bit in bin(p)[3:]:
            s5, s6 = 2 * (r1 * r4 + r2 * r3), r3 * r3 + 2 * r2 * r4
            s7, s8 = 2 * r3 * r4, r4 * r4
            r0, r1, r2, r3, r4 = (
                (r0 * r0 + s5 * c0 + s6 * e0 + s7 * g0 + s8 * h0) % p,
                (2 * r0 * r1 + s5 * c1 + s6 * e1 + s7 * g1 + s8 * h1) % p,
                (r1 * r1 + 2 * r0 * r2 + s5 * c2 + s6 * e2 + s7 * g2 + s8 * h2) % p,
                (2 * (r0 * r3 + r1 * r2) + s5 * c3 + s6 * e3 + s7 * g3 + s8 * h3) % p,
                (r2 * r2 + 2 * (r0 * r4 + r1 * r3) + s5 * c4 + s6 * e4 + s7 * g4 + s8 * h4) % p,
            )
            if bit == "1":
                r0, r1, r2, r3, r4 = (
                    r4 * c0 % p,
                    (r0 + r4 * c1) % p,
                    (r1 + r4 * c2) % p,
                    (r2 + r4 * c3) % p,
                    (r3 + r4 * c4) % p,
                )
        return _gcd_has_root(coeffs, (r0, r1, r2, r3, r4), p)

    return has_root


def _frobenius_kernel(f: IntPolynomial):
    """Any degree >= 3: the same computation as one fixed-length list loop."""
    coeffs = f.coeffs
    d = len(coeffs) - 1

    def has_root(p: int) -> bool:
        if p <= SWEEP_THRESHOLD:
            return has_root_mod_m(f, p) is not None
        rows = _reduction_rows(coeffs, p)
        columns = list(zip(*rows))
        r = [0] * d
        r[1] = 1
        for bit in bin(p)[3:]:
            s = [0] * (2 * d - 1)
            for i, ri in enumerate(r):
                k = 2 * i
                s[k] += ri * ri
                twice = 2 * ri
                for rj in r[i + 1 :]:
                    k += 1
                    s[k] += twice * rj
            high = s[d:]
            r = [(si + sum(map(mul, high, column))) % p for si, column in zip(s, columns)]
            if bit == "1":
                r = _times_x(r, rows[0], p)
        return _gcd_has_root(coeffs, r, p)

    return has_root


_UNROLLED_KERNELS = {3: _cubic_kernel, 4: _quartic_kernel, 5: _quintic_kernel}


def _failures(prepared, primes):
    """Yield, in order, the primes at which none of the prepared root tests
    succeeds."""
    for p in primes:
        for has_root in prepared:
            if has_root(p):
                break
        else:
            yield p


def _scan_primes(F: FactoredPolynomial, primes) -> tuple[int, ...]:
    return tuple(_failures(_prepare_factors(F), primes))


def _build_report(F: FactoredPolynomial, limit: int, failures) -> ScanReport:
    scanned = prime_count(limit)
    return ScanReport(
        poly_key=factored_text(F),
        limit=limit,
        primes_scanned=scanned,
        failures=tuple(failures),
        density_estimate=Fraction(scanned - len(failures), scanned),
        delta=ramified_prime_bound(F),
    )


def scan(F: FactoredPolynomial, limit: int) -> ScanReport:
    """Scan all primes up to limit for roots of the factors of F."""
    if limit < 2:
        raise BadParameters("scan limit must be at least 2")
    primes = sieve_primes(limit).primes
    return _build_report(F, limit, _scan_primes(F, primes))


def exceptional_verdict(
    F: FactoredPolynomial,
    limit: int,
    report: ScanReport | None = None,
) -> Verdict:
    """Classify F as having an integer root, provably not exceptional, or
    exceptional as far as the scan can tell.

    A failure prime outside the ramified bound is a rigorous negative
    certificate: at such a prime the factorisation pattern forces a
    positive density of rootless primes.  Positive verdicts stay 'Likely'
    because no scan limit can certify exceptionality.

    Without a report for this limit the scan stops at the first witness;
    the answer equals the one read from a full report.
    """
    for f in F.factors:
        root = has_integer_root(f)
        if root is not None:
            return Verdict("HasIntegerRoot", root=root)
    if report is not None and report.limit == limit:
        delta, failures = report.delta, report.failures
    else:
        if limit < 2:
            raise BadParameters("scan limit must be at least 2")
        primes = sieve_primes(limit).primes
        delta = ramified_prime_bound(F)
        failures = _failures(_prepare_factors(F), primes)
    seen = []
    for p in failures:
        if delta % p != 0:
            return Verdict("NotExceptional", witness_prime=p)
        seen.append(p)
    return Verdict("ExceptionalLikely", failures=tuple(seen))


def has_root_mod_m(f: IntPolynomial, m: int):
    """Smallest residue x in [0, m) with f(x) = 0 mod m, or None (brute force)."""
    if m < 2:
        raise BadParameters("modulus must be at least 2")
    if m > MODULUS_CAP:
        raise ModulusTooLarge(f"modulus {m} exceeds brute-force cap {MODULUS_CAP}")
    coeffs = [c % m for c in f.coeffs]
    for x in range(m):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % m
        if acc == 0:
            return x
    return None


def intersective_screen(F: FactoredPolynomial, modulus_bound: int):
    """Smallest modulus m <= bound with no root of the expanded product, or None.

    By the Chinese remainder theorem a root mod m exists iff one exists mod
    every prime power exactly dividing m, so the smallest rootless modulus
    is a prime power and only prime powers are tried, in ascending order.
    A prime q takes the factors' root tests (the product has a root mod q
    iff some factor has one); q^k with k >= 2 takes the residue sweep of
    `has_root_mod_m` on the product.

    A screening tool only: absence of a failing modulus up to the bound
    proves nothing.
    """
    if not 2 <= modulus_bound <= SCREEN_CAP:
        raise BadParameters(f"modulus bound must be in [2, {SCREEN_CAP}]")
    powers = []
    for q in sieve_primes(modulus_bound).primes:
        power = q
        while power <= modulus_bound:
            powers.append((power, q))
            power *= q
    powers.sort()
    prepared = _prepare_factors(F)
    for m, q in powers:
        if m == q:
            if not any(has_root(q) for has_root in prepared):
                return m
        elif has_root_mod_m(F.product, m) is None:
            return m
    return None


# ---------------------------------------------------------------------------
# scan cache: one file per polynomial key, holding one "limit<TAB>failures" line
# ---------------------------------------------------------------------------

_CACHE_LINE = re.compile(rb"([0-9]+)\t([0-9,]*)\n")


class ScanCache:
    """File-backed failure cache.  Each file holds one entry, for the
    largest limit scanned; smaller requests filter it, larger ones rescan
    the missing tail and replace it."""

    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, poly_key: str) -> Path:
        import hashlib  # deferred: it loads libcrypto, and only cache names use it

        slug = re.sub(r"[^0-9a-zA-Z._+-]+", "_", poly_key)[:80]
        digest = hashlib.sha256(poly_key.encode()).hexdigest()[:12]
        return self.root / f"{slug}__{digest}.scan"

    def load(self, poly_key: str) -> list[tuple[int, tuple[int, ...]]]:
        """`[(limit, failures)]`, or `[]` when nothing is cached.  A file that
        is not one consistent line (failures strictly rising, none above the
        limit) raises CorruptCacheEntry."""
        path = self.path_for(poly_key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise CacheIoError(f"cannot read {path}: {exc}")
        m = _CACHE_LINE.fullmatch(data)
        if m is None:
            raise CorruptCacheEntry(f"{path.name} is not one cache line")
        limit = int(m[1])
        failures = tuple(int(tok) for tok in m[2].split(b",") if tok)
        if not all(map(lt, failures, failures[1:])) or (failures and failures[-1] > limit):
            raise CorruptCacheEntry(f"inconsistent cache line in {path.name}")
        return [(limit, failures)]

    def append(self, poly_key: str, limit: int, failures) -> None:
        """Replace the cache file with the one entry (limit, failures): write
        a temporary file named for this process beside it, then `os.replace`
        it in, so a reader never sees part of a line.  Concurrent writers race
        last-writer-wins, which may cost a rescan, never a wrong answer."""
        path = self.path_for(poly_key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(f"{limit}\t{','.join(map(str, failures))}\n", encoding="ascii")
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise CacheIoError(f"cannot write {path}: {exc}")

    def scan_cached(self, F: FactoredPolynomial, limit: int) -> ScanReport:
        if limit < 2:
            raise BadParameters("scan limit must be at least 2")
        key = factored_text(F)
        try:
            entries = self.load(key)
        except CorruptCacheEntry:
            entries = []  # rescanned from 2 up, and replaced below
        base_limit, base_failures = entries[0] if entries else (0, ())
        if base_limit >= limit:
            return _build_report(F, limit, base_failures[: bisect_right(base_failures, limit)])
        primes = sieve_primes(limit).primes
        failures = base_failures + _scan_primes(F, primes[bisect_right(primes, base_limit) :])
        self.append(key, limit, failures)
        return _build_report(F, limit, failures)


# ---------------------------------------------------------------------------
# JSON payloads (field names are part of the wire format)
# ---------------------------------------------------------------------------


def verdict_payload(verdict: Verdict) -> dict:
    out: dict = {"tag": verdict.tag}
    if verdict.tag == "HasIntegerRoot":
        out["root"] = verdict.root
    elif verdict.tag == "NotExceptional":
        out["witness_prime"] = verdict.witness_prime
    else:
        out["failures"] = list(verdict.failures or ())
    return out


def report_payload(report: ScanReport, verdict: Verdict) -> dict:
    return {
        "poly": report.poly_key,
        "limit": report.limit,
        "primes_scanned": report.primes_scanned,
        "failures": list(report.failures),
        "density": str(report.density_estimate),
        "delta": report.delta,
        "verdict": verdict_payload(verdict),
    }
