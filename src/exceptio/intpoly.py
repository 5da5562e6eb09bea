"""Exact arithmetic for integer polynomials and their reductions mod p.

Coefficients are stored in ascending degree order with no leading zeros.
The zero polynomial is the single coefficient (0,) and reports degree
-infinity; analytic operations reject it.  All values are immutable and
every operation is a pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from .errors import (
    DegreeTooLarge,
    DegreeZero,
    EmptyCoefficients,
    NonMonic,
    NotPrime,
    NotSquareFree,
    ParseError,
    RootBoundTooLarge,
    ZeroFactor,
    ZeroModP,
    ZeroPolynomial,
    ZeroResultant,
)
from .nt import MR_DETERMINISTIC_LIMIT, divisors_ascending, is_prime

NEG_INFINITY = float("-inf")

#: Largest prime at which root finding and root tests sweep every residue
#: instead of taking the Frobenius gcd.
SWEEP_THRESHOLD = 256

#: Constant terms below this size (in absolute value) find integer roots by
#: walking their divisors; larger ones by the roots mod one prime.
DIVISOR_WALK_LIMIT = 1 << 24

#: Largest degree `parse_poly` accepts, which bounds its dense coefficient list.
MAX_PARSE_DEGREE = 10_000

#: Most digits `parse_poly` reads in one integer: Python's default limit on
#: int(str), past which int() raises a plain ValueError.
MAX_PARSE_DIGITS = 4300


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; coeffs[k] is the coefficient of x^k."""

    coeffs: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def degree(self):
        return NEG_INFINITY if self.is_zero else len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        if len(self.coeffs) == 1:
            return IntPolynomial((0,))
        return make_poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __str__(self) -> str:
        return poly_text(self)


@dataclass(frozen=True)
class ModPolynomial:
    """Polynomial over F_p; empty coeffs tuple means the zero reduction."""

    p: int
    coeffs: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return self.coeffs == ()

    @property
    def degree(self):
        return NEG_INFINITY if self.is_zero else len(self.coeffs) - 1


@dataclass(frozen=True)
class FactorisationPattern:
    """Multiset of irreducible-factor degrees, sorted ascending."""

    degrees: tuple[int, ...]


@dataclass(frozen=True)
class FactoredPolynomial:
    """Product of monic factors of degree >= 1, with the expanded product cached."""

    factors: tuple[IntPolynomial, ...]
    product: IntPolynomial

    def __str__(self) -> str:
        return factored_text(self)


def make_poly(coeffs) -> IntPolynomial:
    """Canonical polynomial from ascending coefficients; rejects empty input."""
    coeffs = [int(c) for c in coeffs]
    if not coeffs:
        raise EmptyCoefficients("a polynomial needs at least one coefficient")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return IntPolynomial(tuple(coeffs))


def multiply(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    if f.is_zero or g.is_zero:
        return IntPolynomial((0,))
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                out[i + j] += a * b
    return make_poly(out)


def product_of(factors) -> FactoredPolynomial:
    """Bundle monic factors with their exact convolution product."""
    factors = tuple(factors)
    if not factors:
        raise EmptyCoefficients("need at least one factor")
    for f in factors:
        if f.is_zero:
            raise ZeroFactor("zero polynomial cannot be a factor")
        if not f.is_monic or f.degree < 1:
            raise NonMonic(f"factor {poly_text(f)} must be monic of degree >= 1")
    prod = factors[0]
    for f in factors[1:]:
        prod = multiply(prod, f)
    return FactoredPolynomial(factors, prod)


def has_integer_root(f: IntPolynomial):
    """Some integer root of f, or None: the one with the smallest |r|, the
    positive one first.

    Every integer root divides the constant term c0 (when c0 != 0).  For
    |c0| < DIVISOR_WALK_LIMIT the signed divisors of c0 are tried in
    ascending order.  Above it, the roots of f mod the smallest prime
    p > 2B, with B the Cauchy bound 1 + max|a_i| / |a_n|, are lifted to
    their representatives in (-p/2, p/2) and checked by exact evaluation:
    every integer root lies within B, so it is one of them.  A prime beyond
    the deterministic range of `nt.is_prime` raises RootBoundTooLarge.
    """
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has every root")
    if f.degree == 0:
        return None
    c0 = f.coeffs[0]
    if c0 == 0:
        return 0
    if abs(c0) < DIVISOR_WALK_LIMIT:
        for d in divisors_ascending(abs(c0)):
            if f.evaluate(d) == 0:
                return d
            if f.evaluate(-d) == 0:
                return -d
        return None
    # dividing out the content keeps the roots and makes f nonzero mod p
    f = _positive_primitive(f)
    coeffs = f.coeffs
    bound = 1 + max(abs(c) for c in coeffs[:-1]) // abs(coeffs[-1])
    p = 2 * bound + 1
    while p < MR_DETERMINISTIC_LIMIT and not is_prime(p):
        p += 1
    if p >= MR_DETERMINISTIC_LIMIT:
        raise RootBoundTooLarge(
            f"root bound {bound} of {poly_text(f)} needs a prime beyond "
            f"the deterministic primality range"
        )
    lifts = (r - p if 2 * r > p else r for r in roots_mod_p(reduce_mod(f, p)))
    roots = [r for r in lifts if f.evaluate(r) == 0]
    return min(roots, key=lambda r: (abs(r), r < 0)) if roots else None


# ---------------------------------------------------------------------------
# text grammar: semicolon-separated factors in x, integer coefficients,
# '^' for powers, whitespace insignificant, e.g. "x^2-2; x^2-3; x^2-6"
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"(\d+)(x(\^(\d+))?)?|x(\^(\d+))?")


def _parse_digits(digits: str) -> int:
    if len(digits) > MAX_PARSE_DIGITS:
        raise ParseError(f"an integer of {len(digits)} digits exceeds {MAX_PARSE_DIGITS}")
    return int(digits)


def parse_poly(text: str) -> IntPolynomial:
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty polynomial text")
    pos = 0
    terms: dict[int, int] = {}
    first = True
    while pos < len(compact):
        sign = 1
        ch = compact[pos]
        if ch == "+" or ch == "-":
            sign = -1 if ch == "-" else 1
            pos += 1
        elif not first:
            raise ParseError(f"expected '+' or '-' at position {pos} in {text!r}")
        m = _TERM_RE.match(compact, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"cannot read a term at position {pos} in {text!r}")
        if m.group(1) is not None:
            coeff = _parse_digits(m.group(1))
            exp = 0
            if m.group(2) is not None:
                exp = _parse_digits(m.group(4)) if m.group(4) is not None else 1
        else:
            coeff = 1
            exp = _parse_digits(m.group(6)) if m.group(6) is not None else 1
        if exp > MAX_PARSE_DEGREE:
            raise DegreeTooLarge(f"degree {exp} exceeds the parser cap {MAX_PARSE_DEGREE}")
        terms[exp] = terms.get(exp, 0) + sign * coeff
        pos = m.end()
        first = False
    coeffs = [0] * (max(terms) + 1)
    for exp, c in terms.items():
        coeffs[exp] = c
    return make_poly(coeffs)


def parse_factors(text: str) -> FactoredPolynomial:
    pieces = [piece for piece in text.split(";")]
    if not pieces or all(not piece.strip() for piece in pieces):
        raise ParseError("empty factor list")
    return product_of(parse_poly(piece) for piece in pieces)


def poly_text(f: IntPolynomial) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        a = abs(c)
        if k == 0:
            body = str(a)
        else:
            power = "x" if k == 1 else f"x^{k}"
            body = power if a == 1 else f"{a}{power}"
        parts.append(sign + body)
    return "".join(parts)


def factored_text(F: FactoredPolynomial) -> str:
    return "; ".join(poly_text(f) for f in F.factors)


# ---------------------------------------------------------------------------
# arithmetic over F_p on bare coefficient tuples; () is the zero polynomial
# ---------------------------------------------------------------------------


def _mp_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _mp_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return _mp_trim(out)


def _mp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _mp_trim([v % p for v in out])


def _mp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    r = [v % p for v in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k] % p
        if c:
            c = c * inv % p
            q[k - db] = c
            for j in range(db + 1):
                r[k - db + j] = (r[k - db + j] - c * b[j]) % p
    return _mp_trim(q), _mp_trim(r)


def _mp_monic(a, p):
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(v * inv % p for v in a)


def _mp_gcd(a, b, p):
    while b:
        _, r = _mp_divmod(a, b, p)
        a, b = b, r
    return _mp_monic(a, p)


def _mp_pow_mod(base, e, mod, p):
    """base^e reduced mod the polynomial `mod`, over F_p."""
    _, result = _mp_divmod((1,), mod, p)
    _, base = _mp_divmod(base, mod, p)
    while e:
        if e & 1:
            result = _mp_divmod(_mp_mul(result, base, p), mod, p)[1]
        e >>= 1
        if e:
            base = _mp_divmod(_mp_mul(base, base, p), mod, p)[1]
    return result


def _mp_eval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _mp_derivative(a, p):
    return _mp_trim([k * c % p for k, c in enumerate(a)][1:])


def reduce_mod(f: IntPolynomial, p: int) -> ModPolynomial:
    """Coefficients of f reduced into [0, p), canonical."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return ModPolynomial(p, _mp_trim([c % p for c in f.coeffs]))


def roots_mod_p(f: ModPolynomial, *, sweep_threshold: int = SWEEP_THRESHOLD) -> list[int]:
    """All residues x in [0, p) with f(x) = 0 mod p, sorted ascending.

    Below the threshold every residue is tried directly.  Above it,
    gcd(f, x^p - x) isolates the linear part, whose roots are then split
    off by equal-degree splitting with deterministic shifts.
    """
    if f.is_zero:
        raise ZeroModP("polynomial vanishes identically mod p")
    p = f.p
    a = f.coeffs
    if len(a) == 1:
        return []
    if p == 2 or p <= sweep_threshold:
        return [x for x in range(p) if _mp_eval(a, x, p) == 0]
    xp = _mp_pow_mod((0, 1), p, a, p)
    linear_part = _mp_gcd(a, _mp_sub(xp, (0, 1), p), p)
    return sorted(_split_linear_roots(linear_part, p))


def _split_linear_roots(g, p) -> list[int]:
    """Roots of a monic product of distinct linear factors over F_p (p odd)."""
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(-g[0]) % p]
    half = (p - 1) // 2
    shift = 1
    while True:
        w = _mp_pow_mod((shift, 1), half, g, p)
        h = _mp_gcd(_mp_sub(w, (1,), p), g, p)
        if 0 < len(h) - 1 < len(g) - 1:
            cofactor, rem = _mp_divmod(g, h, p)
            assert rem == ()
            return _split_linear_roots(h, p) + _split_linear_roots(cofactor, p)
        shift += 1


def _mp_squarefree_parts(f, p) -> list[tuple[tuple[int, ...], int]]:
    """Decompose monic f over F_p into (squarefree factor, multiplicity) pairs."""
    out: list[tuple[tuple[int, ...], int]] = []
    stack = [(f, 1)]
    while stack:
        f, e = stack.pop()
        c = _mp_gcd(f, _mp_derivative(f, p), p)
        w = _mp_divmod(f, c, p)[0]
        i = 1
        while len(w) > 1:
            y = _mp_gcd(w, c, p)
            z = _mp_divmod(w, y, p)[0]
            if len(z) > 1:
                out.append((z, i * e))
            i += 1
            w = y
            c = _mp_divmod(c, y, p)[0]
        if len(c) > 1:
            # c is a polynomial in x^p; its p-th root has the coefficients
            # at indices divisible by p (a^p = a over F_p)
            stack.append((c[::p], e * p))
    return out


def _mp_distinct_degrees(g, p) -> list[tuple[int, int]]:
    """(degree, count) pairs of irreducible factors of squarefree monic g."""
    out = []
    h = (0, 1)
    d = 0
    f = g
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _mp_pow_mod(h, p, f, p)
        common = _mp_gcd(_mp_sub(h, (0, 1), p), f, p)
        if len(common) > 1:
            out.append((d, (len(common) - 1) // d))
            f = _mp_divmod(f, common, p)[0]
            _, h = _mp_divmod(h, f, p)
        if len(f) == 1:
            break
    if len(f) > 1:
        out.append((len(f) - 1, 1))
    return out


def factorisation_pattern(f: ModPolynomial) -> FactorisationPattern:
    """Degrees (with multiplicity) of the irreducible factors of f mod p."""
    if f.is_zero:
        raise ZeroModP("polynomial vanishes identically mod p")
    degrees: list[int] = []
    monic = _mp_monic(f.coeffs, f.p)
    for part, mult in _mp_squarefree_parts(monic, f.p):
        for d, count in _mp_distinct_degrees(part, f.p):
            degrees.extend([d] * (count * mult))
    return FactorisationPattern(tuple(sorted(degrees)))


# ---------------------------------------------------------------------------
# resultants over Z via the fraction-free subresultant remainder sequence
# ---------------------------------------------------------------------------


def _ip_deg(c) -> int:
    return len(c) - 1 if c else -1


def _ip_content(c) -> int:
    g = 0
    for v in c:
        g = gcd(g, v)
    return g


def _ip_exact_div(c, k):
    return tuple(v // k for v in c)


def _ip_prem(a, b) -> tuple[int, ...]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced by b."""
    da, db = _ip_deg(a), _ip_deg(b)
    d = b[-1]
    r = list(a)
    reductions = 0
    while _ip_deg(r) >= db:
        lead = r[-1]
        shift = _ip_deg(r) - db
        r = [d * v for v in r]
        for j in range(db + 1):
            r[shift + j] -= lead * b[j]
        r = list(_mp_trim(r))
        reductions += 1
    scale = d ** (da - db + 1 - reductions)
    return tuple(v * scale for v in r)


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Res(f, g), exact, by the fraction-free subresultant sequence."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial is undefined")
    a, b = f.coeffs, g.coeffs
    sign = 1
    if _ip_deg(a) < _ip_deg(b):
        a, b = b, a
        if _ip_deg(a) % 2 == 1 and _ip_deg(b) % 2 == 1:
            sign = -1
    if _ip_deg(a) == 0:
        return 1
    ca, cb = _ip_content(a), _ip_content(b)
    a = _ip_exact_div(a, ca)
    b = _ip_exact_div(b, cb)
    scale = ca ** _ip_deg(b) * cb ** _ip_deg(a)
    g_coef, h_coef = 1, 1
    while _ip_deg(b) > 0:
        da, db = _ip_deg(a), _ip_deg(b)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _ip_prem(a, b)
        if not r:
            return 0
        a, b = b, _ip_exact_div(r, g_coef * h_coef**delta)
        g_coef = a[-1]
        if delta > 0:
            h_coef = g_coef**delta // h_coef ** (delta - 1)
    da = _ip_deg(a)
    final = b[0] ** da // h_coef ** (da - 1) if da > 0 else 1
    return sign * scale * final


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor in Z[x], primitive with positive leading coefficient."""
    if f.is_zero:
        return g if g.is_zero else _positive_primitive(g)
    if g.is_zero:
        return _positive_primitive(f)
    a, b = f.coeffs, g.coeffs
    if _ip_deg(a) < _ip_deg(b):
        a, b = b, a
    content = gcd(_ip_content(a), _ip_content(b))
    a = _ip_exact_div(a, _ip_content(a))
    b = _ip_exact_div(b, _ip_content(b))
    g_coef, h_coef = 1, 1
    while _ip_deg(b) > 0:
        delta = _ip_deg(a) - _ip_deg(b)
        r = _ip_prem(a, b)
        if not r:
            prim = _ip_exact_div(b, _ip_content(b))
            return make_poly([content * v for v in _positive(prim)])
        a, b = b, _ip_exact_div(r, g_coef * h_coef**delta)
        g_coef = a[-1]
        if delta > 0:
            h_coef = g_coef**delta // h_coef ** (delta - 1)
    # b is a nonzero constant: the polynomials are coprime over Q
    return make_poly([content])


def _positive(c):
    return tuple(-v for v in c) if c[-1] < 0 else c


def _positive_primitive(f: IntPolynomial) -> IntPolynomial:
    c = _ip_exact_div(f.coeffs, _ip_content(f.coeffs))
    return make_poly(_positive(c))


def discriminant(f: IntPolynomial) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f of degree n >= 1."""
    if f.is_zero or not f.is_monic:
        raise NonMonic("discriminant requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise DegreeZero("discriminant requires degree >= 1")
    if n == 1:
        return 1
    df = f.derivative()
    if df.is_zero:
        return 0
    res = resultant(f, df)
    return -res if (n * (n - 1) // 2) % 2 else res


def is_square_free_over_Q(f: IntPolynomial) -> bool:
    """True iff gcd(f, f') over Q is constant."""
    if f.is_zero:
        return False
    if f.degree <= 1:
        return True
    return poly_gcd(f, f.derivative()).degree == 0


def ramified_prime_bound(F: FactoredPolynomial) -> int:
    """Product of factor discriminants and pairwise resultants, in absolute value.

    Any prime at which the expanded product becomes inseparable divides the
    returned bound, so all primes ramified in the splitting field do too.
    """
    for f in F.factors:
        if not is_square_free_over_Q(f):
            raise NotSquareFree(f"factor {poly_text(f)} has a repeated root")
    delta = 1
    for f in F.factors:
        delta *= abs(discriminant(f))
    for i in range(len(F.factors)):
        for j in range(i + 1, len(F.factors)):
            res = resultant(F.factors[i], F.factors[j])
            if res == 0:
                raise ZeroResultant(
                    f"factors {poly_text(F.factors[i])} and "
                    f"{poly_text(F.factors[j])} share a root"
                )
            delta *= abs(res)
    return delta
