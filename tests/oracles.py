"""Independent oracles used to freeze expected values and cross-check fast paths.

Everything here is deliberately naive or a different algorithm from the
library's: Sylvester determinants by fraction-free Bareiss elimination,
residue sweeps, trial division, a segmented sieve, the primitive remainder
sequence.  None of it shares code with the library.
"""

from __future__ import annotations


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix (ascending coeffs)."""
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
    while len(g) > 1 and g[-1] == 0:
        g = g[:-1]
    m, n = len(f) - 1, len(g) - 1
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    fd = f[::-1]  # descending
    gd = g[::-1]
    for i in range(n):
        rows.append([0] * i + fd + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gd + [0] * (size - n - 1 - i))
    return bareiss_determinant(rows)


def bareiss_determinant(m: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def divides_over_q(d: list[int], f: list[int]) -> bool:
    """Whether d divides f in Q[x], by long division with exact fractions."""
    from fractions import Fraction

    rem = [Fraction(c) for c in f]
    dd = [Fraction(c) for c in d]
    while len(dd) > 1 and dd[-1] == 0:
        dd.pop()
    if len(dd) == 1:
        return dd[0] != 0
    while len(rem) >= len(dd):
        if all(c == 0 for c in rem):
            return True
        factor = rem[-1] / dd[-1]
        shift = len(rem) - len(dd)
        for i, c in enumerate(dd):
            rem[shift + i] -= factor * c
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(dd):
            break
    return all(c == 0 for c in rem)


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def eval_poly(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def roots_by_sweep(f: list[int], p: int) -> list[int]:
    return [x for x in range(p) if eval_poly(f, x) % p == 0]


class EvenOrCompositeP(ValueError):
    """`legendre_symbol` was given a modulus that is not an odd prime."""


def legendre_symbol(a: int, p: int) -> int:
    """Euler's criterion, mapped into {-1, 0, 1}; p is proved an odd prime
    by trial division."""
    if p < 3 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise EvenOrCompositeP(f"{p} is not an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def primes_by_trial_division(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def segmented_sieve(limit: int, segment: int = 1 << 17) -> tuple[int, ...]:
    """All primes up to limit by a two-level segmented sieve: base primes up
    to sqrt(limit), then each block of `segment` numbers marked by them."""
    from math import isqrt

    root = isqrt(limit)
    base_flags = bytearray([1]) * (root + 1)
    base_flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(root) + 1):
        if base_flags[p]:
            base_flags[p * p :: p] = b"\x00" * len(range(p * p, root + 1, p))
    base_primes = [p for p in range(2, root + 1) if base_flags[p]]
    primes: list[int] = []
    lo = 2
    while lo <= limit:
        hi = min(lo + segment - 1, limit)
        marks = bytearray(hi - lo + 1)
        for p in base_primes:
            if p * p > hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            marks[start - lo :: p] = b"\x01" * len(range(start, hi + 1, p))
        primes.extend(lo + i for i, m in enumerate(marks) if not m)
        lo = hi + 1
    return tuple(primes)


def poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd(f, g) in Z[x] (ascending coefficients, not both zero) by the
    primitive remainder sequence: the gcd of the contents times the gcd of
    the primitive parts, with positive leading coefficient."""
    from math import gcd

    def trim(c):
        c = list(c)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return c

    def primitive(c):
        k = gcd(*c) if c[-1] > 0 else -gcd(*c)
        return [v // k for v in c]

    def pseudo_remainder(a, b):
        r = a
        while len(r) >= len(b) and any(r):
            lead, shift = r[-1], len(r) - len(b)
            r = [b[-1] * v for v in r]
            for j, v in enumerate(b):
                r[shift + j] -= lead * v
            r = trim(r)
        return r

    a, b = trim(f), trim(g)
    content = gcd(*a, *b)
    if len(a) < len(b):
        a, b = b, a
    a = primitive(a)
    while any(b):
        b = primitive(b)
        a, b = b, pseudo_remainder(a, b)
    return [content * v for v in a]


def brute_pattern(f: list[int], p: int) -> list[int]:
    """Factorisation-pattern oracle: repeated trial division by enumerated
    monic irreducibles over F_p.  Only viable for small p and degree."""

    def reduce(f):
        f = [c % p for c in f]
        while len(f) > 1 and f[-1] == 0:
            f.pop()
        return f

    def divmod_p(a, b):
        r = a[:]
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        q = [0] * max(len(r) - db, 0)
        for k in range(len(r) - 1, db - 1, -1):
            c = r[k] * inv % p
            if c:
                q[k - db] = c
                for j in range(db + 1):
                    r[k - db + j] = (r[k - db + j] - c * b[j]) % p
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        while len(q) > 1 and q[-1] == 0:
            q.pop()
        return q, r

    def monic_polys(deg):
        def rec(k):
            if k == 0:
                yield []
                return
            for rest in rec(k - 1):
                for c in range(p):
                    yield rest + [c]

        for tail in rec(deg):
            yield tail + [1]

    def is_irreducible(g):
        d = len(g) - 1
        if d == 1:
            return True
        for e in range(1, d // 2 + 1):
            for h in monic_polys(e):
                if divmod_p(g, h)[1] == [0]:
                    return False
        return True

    f = reduce(f)
    assert len(f) > 1 or f[0] != 0
    pattern = []
    deg = 1
    while len(f) > 1:
        progressed = False
        for g in monic_polys(deg):
            if not is_irreducible(g):
                continue
            while True:
                q, r = divmod_p(f, g)
                if r == [0] and len(q) >= 1:
                    pattern.append(deg)
                    f = q
                    progressed = True
                    if len(f) == 1:
                        break
                else:
                    break
            if len(f) == 1:
                break
        if not progressed:
            deg += 1
    return sorted(pattern)


def integer_root_by_divisors(f: list[int]):
    """The integer root of f (ascending coeffs, not all zero, degree >= 1)
    with the smallest |r|, the positive one first, or None: 0, then the
    signed divisors of the constant term in ascending order."""
    c0 = abs(f[0])
    if c0 == 0:
        return 0
    small, large = [], []
    d = 1
    while d * d <= c0:
        if c0 % d == 0:
            small.append(d)
            large.append(c0 // d)
        d += 1
    for d in small + large[::-1]:
        for r in (d, -d):
            if eval_poly(f, r) == 0:
                return r
    return None


def smallest_rootless_modulus(f: list[int], bound: int):
    """Smallest m in [2, bound] such that f has no root mod m, or None,
    by trying every residue of every modulus."""
    for m in range(2, bound + 1):
        if not any(eval_poly(f, x) % m == 0 for x in range(m)):
            return m
    return None


def intersective_d_by_walk(bad_primes, bound: int):
    """Smallest d in [2, bound] that is 1 mod 8, not a square, square-free
    and a nonzero square modulo every odd bad prime, or None: every d in
    turn, square-freeness by trial division before the residue tests."""
    from math import isqrt

    squares = {p: {x * x % p for x in range(1, p)} for p in set(bad_primes) - {2}}
    for d in range(2, bound + 1):
        if d % 8 != 1 or isqrt(d) ** 2 == d:
            continue
        if any(d % (k * k) == 0 for k in range(2, isqrt(d) + 1)):
            continue
        if all(d % p in residues for p, residues in squares.items()):
            return d
    return None


def is_index_two_subgroup(G, H) -> bool:
    """Whether the distinct members of H form an index-two subgroup of G
    (anything with `degree` and `elements`): half of G's elements, the
    identity among them, all inside G, and every pairwise product a member."""
    members = set(H)
    if 2 * len(members) != len(G.elements):
        return False
    if tuple(range(G.degree)) not in members or not members <= set(G.elements):
        return False
    return all(tuple(a[x] for x in b) in members for a in members for b in members)


def index2_subgroups_by_sign_sweep(G) -> list[tuple[tuple[int, ...], ...]]:
    """All index-two subgroups of G (anything with `degree`, `generators`
    and `elements`) by trying each of the 2^k - 1 non-trivial assignments
    of a sign to each of the k generators: an assignment that labels every
    Cayley edge g -> g s consistently from the identity is a homomorphism
    onto {1, -1}, and its kernel is kept."""
    from itertools import product

    def labels(signs):
        e = tuple(range(G.degree))
        label = {e: 1}
        frontier = [e]
        while frontier:
            fresh = []
            for g in frontier:
                for s, sign in zip(G.generators, signs):
                    h = tuple(g[x] for x in s)
                    if h not in label:
                        label[h] = label[g] * sign
                        fresh.append(h)
                    elif label[h] != label[g] * sign:
                        return None
            frontier = fresh
        return label

    kernels = set()
    for signs in product((1, -1), repeat=len(G.generators)):
        label = labels(signs) if -1 in signs else None
        if label is not None:
            kernels.add(tuple(g for g in G.elements if label[g] == 1))
    return sorted(kernels)


def transitive_subgroups_by_closure(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Element tuples of every transitive subgroup of S_n, sorted by order,
    then elements: closures of every generator set of size <= 3, built up
    one generator at a time, kept when the orbit of 0 is every point."""
    from itertools import permutations

    def closure(gens):
        elems = {tuple(range(n))}
        frontier = list(elems)
        while frontier:
            fresh = []
            for g in frontier:
                for s in gens:
                    h = tuple(g[x] for x in s)
                    if h not in elems:
                        elems.add(h)
                        fresh.append(h)
            frontier = fresh
        return frozenset(elems)

    perms = sorted(permutations(range(n)))
    closures = {}
    frontier = []
    for g in perms:
        elems = closure([g])
        if elems not in closures:
            closures[elems] = (g,)
            frontier.append((elems, (g,)))
    for _ in range(2):
        fresh = []
        for elems, gens in frontier:
            for h in perms:
                if h in elems:
                    continue
                extended = closure(gens + (h,))
                if extended not in closures:
                    closures[extended] = gens + (h,)
                    fresh.append((extended, gens + (h,)))
        frontier = fresh
    transitive = [elems for elems in closures if {g[0] for g in elems} == set(range(n))]
    return sorted((tuple(sorted(elems)) for elems in transitive), key=lambda e: (len(e), e))


def first_uncovered_point_by_enumeration(p: int, n: int, index_sets):
    """First x of F_p^n in lexicographic order at which no index set sums to
    0 mod p, or None, by testing every set at every point in turn."""
    from itertools import product

    for x in product(range(p), repeat=n):
        for idxs in index_sets:
            total = 0
            for i in idxs:
                total += x[i]
            if total % p == 0:
                break
        else:
            return x
    return None


def min_good_size_unpruned(p: int, n: int, size_budget: int, symmetry_reduction: bool = False):
    """The good-set search of `goodsets.min_good_size` without its two-slot
    bound and its inline last slot, as (minimum, witness supports, nodes,
    exhaustive).  Every visited selection counts as a node, full-size ones
    included.  The caller validates p, n and the budget.

    Pruning uses the remaining-forms bound and the union of all not-yet
    considered vanishing sets; the optional symmetry flag additionally skips
    selections that are not lexicographically minimal under coordinate
    permutations.
    """
    import itertools

    forms = [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]
    points = list(itertools.product(range(p), repeat=n))
    masks = []
    for support in forms:
        mask = 0
        for idx, x in enumerate(points):
            total = 0
            for c in support:
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
        index_of = {support: i for i, support in enumerate(forms)}
        coordinate_maps = []
        for sigma in itertools.permutations(range(n)):
            coordinate_maps.append(
                tuple(index_of[tuple(sorted(sigma[c] for c in support))] for support in forms)
            )
        coordinate_maps = coordinate_maps[1:]  # drop the identity

    def is_canonical(chosen: list[int]) -> bool:
        for remap in coordinate_maps:
            if tuple(sorted(remap[i] for i in chosen)) < tuple(chosen):
                return False
        return True

    nodes = 0
    witness_indices = None

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
            return len(witness_indices), [forms[i] for i in witness_indices], nodes, True
    return None, None, nodes, True
