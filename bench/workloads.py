"""Seeded operation scripts for the three benchmark workloads.

A script is a JSON-serialisable list of operations.  The seed chooses the
values inside every operation, never the shape of the script: each slot has a
fixed kind, degree, limit and size, so two seeds cost about the same and the
run-to-run spread measures the machine rather than the draw.  Nothing here
imports exceptio; polynomials travel as coefficient lists (ascending degree)
and as text in the CLI grammar.
"""

from __future__ import annotations

import itertools
import random
from math import isqrt

import checks
from checks import QUINTIC, SEXTIC, poly_text

WORKLOADS = ("scan-generic", "cli-session", "exact-decide")

# scan-generic: one fixed limit for every verdict (2262 primes).
SCAN_LIMIT = 20_000
SCAN_DEGREES = (2, 3, 4, 5, 6)
SCAN_PER_DEGREE = 6
# Products mixing binomial ("b2" = x^2-c, "b3" = x^3-c) and generic factors;
# the order is part of the shape because the per-prime test short-circuits.
# "r" is the resolvent x^2 - disc(h) of the generic cubic h before or after
# it: that product is exceptional, so its verdict lists the whole failure set
# and a wrong root test anywhere in the range changes the output.
SCAN_PRODUCT_SHAPES = (
    ("b2", 3), ("3", "b2"), ("b3", 4), ("4", "b3"), ("b2", 5),
    ("2", "b3", 3), ("b2", 2, 4), ("3", "b2", "b3"), ("b3", 6), ("5", "b2"),
    ("3", "r"), ("r", "3"),
)

# cli-session limits.
CLI_LIMIT = 1_000_000
CLI_LADDER = (100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000)
CLI_GENERIC_LIMITS = (50_000, 100_000)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# polynomial text and seeded factors
# ---------------------------------------------------------------------------


def factors_text(factors) -> str:
    return "; ".join(poly_text(f) for f in factors)



def is_perfect_power(c: int, n: int) -> bool:
    """Whether c = r^n for some integer r (n is 2 or 3)."""
    if n == 2:
        return c >= 0 and isqrt(c) ** 2 == c
    r = round(abs(c) ** (1 / 3))
    return any((s if c >= 0 else -s) ** 3 == c for s in (r - 1, r, r + 1))


def binomial_factor(rng: random.Random, n: int) -> list[int]:
    """x^n - c with c not an n-th power, so the factor has no integer root."""
    while True:
        c = rng.choice((-1, 1)) * rng.randint(2, 60)
        if not is_perfect_power(c, n):
            return [-c] + [0] * (n - 1) + [1]


def generic_factor(rng: random.Random, deg: int) -> list[int]:
    """Monic, not a binomial, small coefficients, no integer root, disc != 0."""
    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [1]
        if coeffs[0] == 0 or not any(coeffs[1:deg]):
            continue
        if checks.integer_root(coeffs) is not None:
            continue
        if checks.discriminant(coeffs) == 0:
            continue
        return coeffs


def valid_product(factors) -> bool:
    """No factor has an integer root and Delta (discriminants times pairwise
    resultants) is non-zero."""
    if any(checks.integer_root(f) is not None for f in factors):
        return False
    return checks.delta(factors) != 0


def resolvent_pair(rng: random.Random) -> tuple[list[int], list[int]]:
    """A generic cubic with non-square discriminant D, and x^2 - D."""
    while True:
        cubic = generic_factor(rng, 3)
        D = checks.discriminant(cubic)
        if not checks.is_square(D):
            return cubic, [-D, 0, 1]


def shaped_product(rng: random.Random, shape) -> list[list[int]]:
    if "r" in shape:
        cubic, quadratic = resolvent_pair(rng)
        return [quadratic if part == "r" else cubic for part in shape]
    while True:
        factors = []
        for part in shape:
            if part == "b2":
                factors.append(binomial_factor(rng, 2))
            elif part == "b3":
                factors.append(binomial_factor(rng, 3))
            else:
                factors.append(generic_factor(rng, int(part)))
        if valid_product(factors):
            return factors


def kummer_family(rng: random.Random) -> list[list[int]]:
    """x^2-a; x^2-b; x^2-ab for distinct primes a, b: exceptional, like the sextic."""
    a, b = sorted(rng.sample(SMALL_PRIMES[1:10], 2))
    return [[-a, 0, 1], [-b, 0, 1], [-a * b, 0, 1]]


# ---------------------------------------------------------------------------
# scan-generic
# ---------------------------------------------------------------------------


def scan_generic(seed: int) -> list[dict]:
    rng = rng_for("scan-generic", seed)
    ops = []
    for deg in SCAN_DEGREES:
        for _ in range(SCAN_PER_DEGREE):
            ops.append({"kind": "verdict", "factors": [generic_factor(rng, deg)]})
    for shape in SCAN_PRODUCT_SHAPES:
        ops.append({"kind": "verdict", "factors": shaped_product(rng, shape)})
    rng.shuffle(ops)
    for op in ops:
        op["limit"] = SCAN_LIMIT
        op["text"] = factors_text(op["factors"])
    return ops


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def _scan_op(sub: str, factors, limit: int) -> dict:
    return {
        "kind": "cli",
        "sub": sub,
        "factors": factors,
        "limit": limit,
        "argv": [sub, "--poly", factors_text(factors), "--limit", str(limit)],
    }


def _cli_op(argv, **extra) -> dict:
    op = {"kind": "cli", "sub": argv[0], "argv": [str(a) for a in argv]}
    op.update(extra)
    return op


def cycles_text(perm) -> str:
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = perm[x]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "()"


def group_file_text(gens) -> str:
    return f"degree {len(gens[0])}\n" + "".join(cycles_text(g) + "\n" for g in gens)


def cli_session(seed: int) -> dict:
    """The command script plus the files set-up writes (group files and the
    key of the planted corrupt cache file)."""
    rng = rng_for("cli-session", seed)
    family = kummer_family(rng)
    family_reordered = [family[2], family[0], family[1]]
    cube = binomial_factor(rng, 3)
    mixed = [binomial_factor(rng, 2), binomial_factor(rng, 3)]
    while not valid_product(mixed):
        mixed = [binomial_factor(rng, 2), binomial_factor(rng, 3)]
    corrupt_family = kummer_family(rng)
    while corrupt_family == family:
        corrupt_family = kummer_family(rng)
    generics = [generic_factor(rng, 3), generic_factor(rng, 4)]
    cubic, _ = resolvent_pair(rng)
    x3m2 = [[-2, 0, 0, 1]]

    # Repeated requests at 10^6 on binomial products (cache hits) are the
    # largest group, so the median request is one of them.
    ops = [
        _scan_op("verdict", SEXTIC, CLI_LIMIT),
        _scan_op("verdict", QUINTIC, CLI_LIMIT),
        _scan_op("verdict", SEXTIC, CLI_LIMIT),
        _scan_op("density", QUINTIC, CLI_LIMIT),
        _scan_op("verdict", QUINTIC[::-1], CLI_LIMIT),
        _scan_op("density", SEXTIC, CLI_LIMIT),
        _scan_op("verdict", QUINTIC, CLI_LIMIT),
        _scan_op("density", QUINTIC[::-1], CLI_LIMIT),
        _scan_op("verdict", family, 100_000),
        _scan_op("verdict", family, CLI_LIMIT),
        _scan_op("density", family, 500_000),
        _scan_op("verdict", family_reordered, CLI_LIMIT),
        _scan_op("verdict", family, CLI_LIMIT),
        _scan_op("density", family_reordered, CLI_LIMIT),
        _scan_op("verdict", [cube], CLI_LIMIT),
        _scan_op("density", [cube], CLI_LIMIT),
    ]
    for limit in CLI_LADDER:
        ops.append(_scan_op("verdict", x3m2, limit))
    ops.append(_scan_op("density", x3m2, CLI_LIMIT))
    ops.append(_scan_op("verdict", mixed, CLI_LIMIT))
    ops.append(_scan_op("verdict", mixed, 300_000))
    for g in generics:
        ops.append(_scan_op("verdict", [g], CLI_GENERIC_LIMITS[0]))
        ops.append(_scan_op("density", [g], CLI_GENERIC_LIMITS[1]))
    ops.append(_scan_op("verdict", corrupt_family, 100_000))

    kummer_primes = sorted(rng.sample(SMALL_PRIMES, 4))
    ops.append(_cli_op(["kummer", "--p", 3, "--primes", ",".join(map(str, kummer_primes[:3]))],
                       p=3, primes=kummer_primes[:3]))
    ops.append(_cli_op(["kummer", "--p", 5, "--primes", ",".join(map(str, kummer_primes))],
                       p=5, primes=kummer_primes))
    q, r = kummer_primes[:2]
    ops.append(_cli_op(["kummer", "--p", 2, "--radicands", f"{q},{r},{q * r}"],
                       p=2, radicands=[q, r, q * r]))
    ops.append(_cli_op(["goodsets", "--p", 2, "--n", 3], p=2, n=3))
    ops.append(_cli_op(["goodsets", "--p", 3, "--n", 3], p=3, n=3))

    dihedral_n = rng.choice((5, 6, 7, 8, 9, 10, 11))
    frobenius_pq = rng.choice(((7, 3), (11, 5), (13, 3), (19, 3)))
    groups = {
        "dihedral.grp": {"family": "dihedral", "n": dihedral_n,
                         "text": group_file_text(checks.dihedral_gens(dihedral_n))},
        "frobenius.grp": {"family": "frobenius", "pq": list(frobenius_pq),
                          "text": group_file_text(checks.frobenius_gens(*frobenius_pq))},
    }
    for name, spec in groups.items():
        ops.append(_cli_op(["group", "--group-file", name], **{k: v for k, v in spec.items() if k != "text"}))

    for factors in (QUINTIC, family):
        p = rng.choice([q for q in checks.primes_upto(400) if q > 50 and checks.delta(factors) % q])
        ops.append(_cli_op(["pattern", "--poly", factors_text(factors), "--p", p], factors=factors, p=p))
    ops.append(_cli_op(["complete", "--poly", poly_text(cubic), "--limit", 50_000],
                       cubic=cubic, limit=50_000))
    bad = sorted(rng.sample(SMALL_PRIMES[:8], 3))
    ops.append(_cli_op(["complete-d", "--bad", ",".join(map(str, bad)), "--bound", 10_000],
                       bad=bad, bound=10_000))
    ops.append(_cli_op(["intersective-screen", "--poly", factors_text(QUINTIC), "--bound", 100],
                       expected=64))
    ops.append(_cli_op(["intersective-screen", "--poly", factors_text(SEXTIC), "--bound", 100],
                       expected=8))

    a = rng.choice(SMALL_PRIMES[:8])
    square = checks.poly_mul([-a, 0, 1], [-a, 0, 1])
    ops.append(_cli_op(["verdict", "--poly", poly_text(square), "--limit", 1000],
                       expected_error="NotSquareFree"))
    ops.append(_cli_op(["density", "--poly", factors_text([cube]), "--limit", 10**10],
                       expected_error="LimitTooLarge"))
    ops.append(_cli_op(["verdict", "--poly", rng.choice(("x^^2", "x^2-", "2*x+1", "x^2;;x")),
                        "--limit", 1000], expected_error="ParseError"))
    return {
        "ops": ops,
        "groups": {name: spec["text"] for name, spec in groups.items()},
        "corrupt_key": factors_text(corrupt_family),
    }


# ---------------------------------------------------------------------------
# exact-decide
# ---------------------------------------------------------------------------

BRIDGE_PRIMES = (2, 3, 5, 7)


def bridge_pool() -> list[int]:
    """All square-free products of 1 to 4 of the primes 2, 3, 5, 7."""
    pool = []
    for size in range(1, 5):
        for combo in itertools.combinations(BRIDGE_PRIMES, size):
            value = 1
            for q in combo:
                value *= q
            pool.append(value)
    return sorted(pool)


def bridge_sets():
    """Every non-empty set of radicands from `bridge_pool`, 2^15 - 1 of them."""
    pool = bridge_pool()
    for bits in range(1, 1 << len(pool)):
        yield [pool[i] for i in range(len(pool)) if bits >> i & 1]


def expand(ops) -> list[dict]:
    """The script with each "bridge_all" replaced by its single decisions;
    outputs, latencies and checks are per expanded operation."""
    out = []
    for op in ops:
        if op["kind"] == "bridge_all":
            out.extend({"kind": "bridge", "p": op["p"], "radicands": rads} for rads in bridge_sets())
        else:
            out.append(op)
    return out


def exact_decide(seed: int) -> list[dict]:
    rng = rng_for("exact-decide", seed)
    ops = []
    # Expanded by expand() into one "bridge" decision per radicand set.
    ops.append({"kind": "bridge_all", "p": 2})
    ops.append({"kind": "bridge_all", "p": 3})
    for p in (5, 7):
        for n in (5, 6, 7):
            primes = sorted(rng.sample(SMALL_PRIMES, n))
            ops.append({"kind": "family", "p": p, "primes": primes})
    for p, size in ((3, 3), (3, 4), (5, 3), (5, 4)):
        support = sorted(rng.sample(SMALL_PRIMES[:8], size))
        subsets = [c for k in range(1, size + 1) for c in itertools.combinations(support, k)]
        chosen = rng.sample(subsets, rng.randint(2, len(subsets)))
        rads = sorted({checks.product(c) for c in chosen})
        ops.append({"kind": "full", "p": p, "radicands": rads})
    ops.append({"kind": "min_over_n", "p": 2, "n_max": 4})
    ops.append({"kind": "min_over_n", "p": 3, "n_max": 4})
    ops.append({"kind": "min_good_size", "p": 3, "n": 5, "budget": 31, "symmetry": False})
    ops.append({"kind": "min_good_size", "p": 3, "n": 5, "budget": 31, "symmetry": True})
    ops.append({"kind": "min_good_size", "p": 3, "n": 6, "budget": 63, "symmetry": False})
    ops.append({"kind": "transitive", "n": 4})
    ops.append({"kind": "transitive", "n": 5})
    for n in sorted(rng.sample(range(5, 40), 4)):
        ops.append({"kind": "payload", "family": "dihedral", "n": n})
    for pq in rng.sample(((7, 3), (11, 5), (13, 3), (19, 3), (31, 5), (29, 7)), 3):
        ops.append({"kind": "payload", "family": "frobenius", "pq": list(pq)})
    for factors, bound, expected in (
        ([[108, 0, 1], [2, 0, 0, 1]], 10_000, 64),
        ([[-2, 0, 1], [-3, 0, 1], [-6, 0, 1]], 10_000, 8),
        ([[-13, 0, 1], [-17, 0, 1], [-221, 0, 1]], 10_000, None),
    ):
        ops.append({"kind": "screen", "factors": factors, "bound": bound, "expected": expected})
    for e in (10, 11, 12, 13, 14):
        if rng.random() < 0.5:
            r = rng.randint(isqrt(10**e), isqrt(10**e + 10**e // 20))
            c = r * r
        else:
            c = rng.randint(10**e, 10**e + 10**e // 20)
        ops.append({"kind": "introot", "coeffs": [-c, 0, 1]})
    for shape in ((2, 3, 4), (3, 3, 5), (2, 2, 4, 5), (2, 3, 4, 5, 6)):
        ops.append({"kind": "delta", "factors": shaped_product(rng, [str(d) for d in shape])})
    for _ in range(3):
        bad = sorted(rng.sample(SMALL_PRIMES[1:12], 4))
        ops.append({"kind": "complete_d", "bad": bad, "bound": 100_000})
    for op in ops:
        if "factors" in op:
            op["text"] = factors_text(op["factors"])
    return ops


def build(workload: str, seed: int):
    """The script of one workload: a list of ops, or for cli-session a dict
    with the ops and the files set-up writes."""
    if workload == "scan-generic":
        return {"ops": scan_generic(seed)}
    if workload == "cli-session":
        return cli_session(seed)
    if workload == "exact-decide":
        return {"ops": exact_decide(seed)}
    raise ValueError(f"unknown workload {workload!r}")
