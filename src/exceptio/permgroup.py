"""Finite permutation groups given by generators.

Groups are fully enumerated (desk scale; every criterion below quantifies
over all elements) with a deterministic lexicographic element order, so
witnesses and reports are reproducible.  Permutations are image tuples:
g maps i to g[i].
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .errors import (
    BadParameters,
    DegreeMismatch,
    DegreeTooLarge,
    DegreeTooSmall,
    GroupTooLarge,
    NotIndexTwo,
    NotTransitive,
    ParseError,
)
from .nt import is_prime, primitive_root

Perm = tuple[int, ...]

DEFAULT_CAP = 200_000
# DEFAULT_CAP elements of this degree take about 115 MB
MAX_GROUP_FILE_DEGREE = 64


def identity(n: int) -> Perm:
    return tuple(range(n))


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def fixed_point_count(a: Perm) -> int:
    return sum(1 for i, x in enumerate(a) if i == x)


def is_permutation(a) -> bool:
    return sorted(a) == list(range(len(a)))


class PermutationGroup(NamedTuple):
    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


class CosetCheck(NamedTuple):
    """Result of the unique-fixed-point test on the nontrivial coset."""

    verdict: bool
    violations: tuple[Perm, ...]


def _closure(gens, cap: int) -> set[Perm]:
    n = len(gens[0])
    elems = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        fresh = []
        for g in frontier:
            for s in gens:
                h = tuple(g[x] for x in s)
                if h not in elems:
                    elems.add(h)
                    if len(elems) > cap:
                        raise GroupTooLarge(f"closure exceeded cap {cap}")
                    fresh.append(h)
        frontier = fresh
    return elems


def generate_group(gens) -> PermutationGroup:
    """Breadth-first closure of the generators under composition, refused
    past DEFAULT_CAP elements."""
    gens = tuple(tuple(g) for g in gens)
    if not gens:
        raise BadParameters("need at least one generator (use the identity)")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatch("generators act on different point counts")
        if not is_permutation(g):
            raise BadParameters(f"{g} is not a permutation")
    elements = tuple(sorted(_closure(gens, DEFAULT_CAP)))
    return PermutationGroup(degree, gens, elements)


def has_fixed_point_coverage(G: PermutationGroup):
    """(True, None) if every element fixes a point, else (False, witness)."""
    for g in G.elements:
        if fixed_point_count(g) == 0:
            return False, g
    return True, None


def chebotarev_root_density(G: PermutationGroup) -> Fraction:
    """Fraction of elements with a fixed point; equals the natural density of
    primes at which a polynomial with this Galois action has a root."""
    with_fp = sum(1 for g in G.elements if fixed_point_count(g) > 0)
    return Fraction(with_fp, G.order)


def orbit_count(G: PermutationGroup) -> int:
    """Number of orbits: the classes of a union-find over the generators'
    edges i -> g[i]."""
    parent = list(range(G.degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in G.generators:
        for i, x in enumerate(g):
            ri, rx = find(i), find(x)
            if ri != rx:
                parent[ri] = rx
    return len({find(i) for i in range(G.degree)})


def is_transitive(G: PermutationGroup) -> bool:
    return orbit_count(G) == 1


def _parity_labels(G: PermutationGroup) -> tuple[dict[Perm, int], dict[int, int]]:
    """One walk of the Cayley graph g -> g s from the identity.  Each element
    is labelled with the F_2 vector (bit i for generator i) of its tree path;
    each other edge gives a relation, the sum of its ends' labels and its
    generator.  The distinct relations are reduced to a basis keyed by top
    bit.  A sign vector t orthogonal to every relation labels every edge
    consistently, so g -> t.label[g] is a homomorphism onto F_2 whose kernel
    has index at most two."""
    e = identity(G.degree)
    label = {e: 0}
    relations = set()
    frontier = [e]
    while frontier:
        fresh = []
        for g in frontier:
            lg = label[g]
            for i, s in enumerate(G.generators):
                h = tuple(g[x] for x in s)
                known = label.get(h)
                if known is None:
                    label[h] = lg ^ (1 << i)
                    fresh.append(h)
                else:
                    relations.add(known ^ lg ^ (1 << i))
        frontier = fresh
    basis: dict[int, int] = {}
    for r in relations:
        while r and r.bit_length() - 1 in basis:
            r ^= basis[r.bit_length() - 1]
        if r:
            basis[r.bit_length() - 1] = r
    return label, basis


def _odd(t: int, v: int) -> int:
    return (t & v).bit_count() & 1


def index2_subgroups(G: PermutationGroup) -> list[tuple[Perm, ...]]:
    """All index-two subgroups: the kernels of the nonzero sign vectors
    orthogonal to every relation of the parity labelling.  They are built
    one generator at a time: the basis relation with top bit i, if any,
    fixes bit i from the lower bits; otherwise bit i is free."""
    if G.order % 2:
        return []
    label, basis = _parity_labels(G)
    signs = [0]
    for i in range(len(G.generators)):
        r = basis.get(i)
        if r is None:
            signs += [t | (1 << i) for t in signs]
        else:
            signs = [t | (_odd(t, r) << i) for t in signs]
    return sorted(tuple(g for g in G.elements if not _odd(t, label[g])) for t in signs[1:])


def unique_fp_coset_condition(G: PermutationGroup, H) -> CosetCheck:
    """Check that every element outside the index-two subgroup H fixes
    exactly one point.

    H is validated by the parity labelling: the sign vector t with bit i set
    for each generator outside H must be nonzero and orthogonal to every
    relation, and H must be its kernel."""
    members = {tuple(h) for h in H}
    label, basis = _parity_labels(G)
    t = sum(1 << i for i, s in enumerate(G.generators) if s not in members)
    outside = {g for g, v in label.items() if _odd(t, v)}
    if not t or any(_odd(t, r) for r in basis.values()) or label.keys() - outside != members:
        raise NotIndexTwo("H is not an index-two subgroup of G")
    violations = tuple(g for g in G.elements if g in outside and fixed_point_count(g) != 1)
    return CosetCheck(not violations, violations)


def admits_quadratic_completion(G: PermutationGroup):
    """First index-two subgroup whose outside coset has unique fixed points,
    or None.  Only meaningful for transitive groups."""
    if not is_transitive(G):
        raise NotTransitive("quadratic completion criterion needs a transitive group")
    for H in index2_subgroups(G):
        if unique_fp_coset_condition(G, H).verdict:
            return H
    return None


def dihedral_group(n: int) -> PermutationGroup:
    """Symmetries of the n-gon on its n vertices, order 2n."""
    if n < 3:
        raise DegreeTooSmall("dihedral group needs n >= 3")
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((n - i) % n for i in range(n))
    G = generate_group([rotation, reflection])
    assert G.order == 2 * n
    return G


def frobenius_group(p: int, q: int) -> PermutationGroup:
    """Affine maps x -> ax + b on Z/p with a of order dividing q; order pq."""
    if not (is_prime(p) and is_prime(q)):
        raise BadParameters("both parameters must be prime")
    if (p - 1) % q:
        raise BadParameters(f"{q} does not divide {p} - 1")
    a = pow(primitive_root(p), (p - 1) // q, p)
    translation = tuple((i + 1) % p for i in range(p))
    scaling = tuple(a * i % p for i in range(p))
    G = generate_group([translation, scaling])
    assert G.order == p * q
    return G


# One generator set per conjugacy class of transitive subgroups of S_n, in
# cycle notation (Butler and McKay, "The transitive groups of degree up to
# eleven", Comm. Algebra 11 (1983)).
_TRANSITIVE_REPRESENTATIVES = {
    3: (
        ("(0 1 2)",),  # C3
        ("(0 1 2)", "(0 1)"),  # S3
    ),
    4: (
        ("(0 1 2 3)",),  # C4
        ("(0 1)(2 3)", "(0 2)(1 3)"),  # V4
        ("(0 1 2 3)", "(0 2)"),  # D4
        ("(0 1 2)", "(1 2 3)"),  # A4
        ("(0 1 2 3)", "(0 1)"),  # S4
    ),
    5: (
        ("(0 1 2 3 4)",),  # C5
        ("(0 1 2 3 4)", "(1 4)(2 3)"),  # D5
        ("(0 1 2 3 4)", "(1 2 4 3)"),  # F20: x -> 2x on Z/5
        ("(0 1 2 3 4)", "(0 1 2)"),  # A5
        ("(0 1 2 3 4)", "(0 1)"),  # S5
    ),
}


def all_transitive_subgroups(n: int) -> list[PermutationGroup]:
    """Every transitive subgroup of S_n (as an explicit subgroup, not up to
    conjugacy) for 3 <= n <= 5, sorted by order, then elements.

    Each listed class representative is closed once and conjugated by every
    element of S_n; equal element sets are kept once.  A conjugate's
    generators are the conjugated generators of its representative."""
    if n < 3:
        raise DegreeTooSmall("need degree at least 3")
    if n > 5:
        raise DegreeTooLarge("exhaustive subgroup enumeration capped at degree 5")
    cap = factorial(n)
    seen: set[frozenset] = set()
    groups = []
    for spec in _TRANSITIVE_REPRESENTATIVES[n]:
        gens = [parse_cycles(text, n) for text in spec]
        elements = _closure(gens, cap)
        for s in itertools.permutations(range(n)):
            s_inv = inverse(s)
            conjugate = frozenset(tuple(s[g[i]] for i in s_inv) for g in elements)
            if conjugate not in seen:
                seen.add(conjugate)
                conj_gens = tuple(tuple(s[g[i]] for i in s_inv) for g in gens)
                groups.append(PermutationGroup(n, conj_gens, tuple(sorted(conjugate))))
    groups.sort(key=lambda G: (G.order, G.elements))
    return groups


# ---------------------------------------------------------------------------
# group file format: first line "degree n", then one generator per line in
# cycle notation, e.g. "(0 1 2)(3 4)"; the identity is written "()"
# ---------------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    if not text.strip():
        raise ParseError("empty permutation")
    images = list(range(degree))
    seen: set[int] = set()
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _CYCLE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"malformed cycle notation: {text!r}")
        pos = m.end()
        body = m.group(1).split()
        if not body:
            continue
        try:
            points = [int(tok) for tok in body]
        except ValueError:
            raise ParseError(f"malformed cycle notation: {text!r}") from None
        for pt in points:
            if not 0 <= pt < degree:
                raise ParseError(f"point {pt} outside degree {degree}")
            if pt in seen:
                raise ParseError(f"point {pt} repeated in {text!r}")
            seen.add(pt)
        for i, pt in enumerate(points):
            images[pt] = points[(i + 1) % len(points)]
    return tuple(images)


def format_cycles(g: Perm) -> str:
    seen = [False] * len(g)
    cycles = []
    for start in range(len(g)):
        if seen[start] or g[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = g[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = g[nxt]
        cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) if cycles else "()"


def parse_group_file(text: str) -> PermutationGroup:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty group file")
    header = re.fullmatch(r"degree\s+0*([0-9]+)", lines[0])
    if header is None:
        raise ParseError(f"first line must be 'degree n', got {lines[0]!r}")
    # length first: int() refuses strings past 4300 digits
    if len(header[1]) > 4 or int(header[1]) > MAX_GROUP_FILE_DEGREE:
        raise DegreeTooLarge(f"group files are capped at degree {MAX_GROUP_FILE_DEGREE}")
    degree = int(header[1])
    if degree < 1:
        raise ParseError("degree must be positive")
    gens = [parse_cycles(line, degree) for line in lines[1:]]
    if not gens:
        gens = [identity(degree)]
    return generate_group(gens)


def group_payload(G: PermutationGroup) -> dict:
    covered, _ = has_fixed_point_coverage(G)
    transitive = is_transitive(G)
    if transitive:
        H = admits_quadratic_completion(G)
        completion = [format_cycles(h) for h in H] if H is not None else None
    else:
        completion = None
    return {
        "order": G.order,
        "transitive": transitive,
        "coverage": covered,
        "density": str(chebotarev_root_density(G)),
        "quad_completion": completion,
    }
