"""Independent result checks for the benchmark.

Everything here is deliberately naive and shares no code with exceptio:
Sylvester resultants by Bareiss elimination, residue sweeps, trial division,
brute-force enumeration.  Each ``check_*`` function returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt

# Every prime up to this bound is swept in full; above it a seeded sample is.
SWEEP_CUTOFF = 1000
SAMPLE_PRIMES = 4
# Sampled primes stay below this bound, so one sweep costs at most this many
# evaluations per factor.
SAMPLE_CAP = 20_000


# ---------------------------------------------------------------------------
# integers and polynomials (coefficient lists, ascending degree)
# ---------------------------------------------------------------------------


def product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def primes_upto(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def poly_text(coeffs) -> str:
    """Text of an integer polynomial in the CLI grammar, highest degree first."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
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
    return "".join(parts) or "0"


def evaluate(f, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_mul(f, g) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def integer_root(f):
    """Some integer root of f, by the rational-root test, or None."""
    if f[0] == 0:
        return 0
    a = abs(f[0])
    for d in range(1, isqrt(a) + 1):
        if a % d == 0:
            for r in (d, -d, a // d, -(a // d)):
                if evaluate(f, r) == 0:
                    return r
    return None


def bareiss_determinant(rows) -> int:
    a = [row[:] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
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


def sylvester_resultant(f, g) -> int:
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    fd, gd = f[::-1], g[::-1]
    rows = [[0] * i + fd + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + gd + [0] * (size - n - 1 - i) for i in range(m)]
    return bareiss_determinant(rows)


def discriminant(f) -> int:
    """|disc f| up to sign is |Res(f, f')| for monic f; the sign is irrelevant
    to every use here except squareness, so it is fixed by the usual rule."""
    n = len(f) - 1
    if n == 1:
        return 1
    res = sylvester_resultant(f, [k * c for k, c in enumerate(f)][1:])
    return -res if (n * (n - 1) // 2) % 2 else res


def delta(factors) -> int:
    """Product of |disc| of each factor and |Res| of each pair."""
    out = 1
    for f in factors:
        out *= abs(discriminant(f))
    for f, g in itertools.combinations(factors, 2):
        out *= abs(sylvester_resultant(f, g))
    return out


def has_root_mod(f, p: int) -> bool:
    coeffs = [c % p for c in f]
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def product_has_root_mod(factors, p: int) -> bool:
    return any(has_root_mod(f, p) for f in factors)


def checked_primes(primes, upto: int, rng: random.Random) -> list[int]:
    """Primes below `upto` to verify: all of them up to the sweep cutoff, and a
    seeded sample above it (below the sample cap)."""
    low = [q for q in primes if q < upto and q <= SWEEP_CUTOFF]
    high = [q for q in primes if SWEEP_CUTOFF < q < min(upto, SAMPLE_CAP)]
    return low + sorted(rng.sample(high, min(SAMPLE_PRIMES, len(high))))


# ---------------------------------------------------------------------------
# prime scans and verdicts
# ---------------------------------------------------------------------------


def check_verdict(factors, limit: int, out: dict, primes, rng: random.Random):
    """`out` is a verdict payload: the tag plus its root, witness or failures."""
    tag = out.get("tag")
    roots = [integer_root(f) for f in factors]
    if any(r is not None for r in roots):
        root = out.get("root")
        if tag != "HasIntegerRoot" or root is None or all(evaluate(f, root) for f in factors):
            return f"expected an integer root, got {out}"
        return None
    D = delta(factors)
    if tag == "NotExceptional":
        w = out.get("witness_prime")
        if w not in primes or w > limit:
            return f"witness {w} is not a prime up to {limit}"
        if D % w == 0:
            return f"witness {w} divides Delta"
        if product_has_root_mod(factors, w):
            return f"witness {w} is not a failure prime"
        for q in checked_primes(primes, w, rng):
            if D % q and not product_has_root_mod(factors, q):
                return f"smaller unramified failure {q} precedes witness {w}"
        return None
    if tag == "ExceptionalLikely":
        failures = out.get("failures") or []
        if any(D % q for q in failures):
            return "an unramified failure is reported as ExceptionalLikely"
        return check_failures(factors, limit, failures, primes, rng)
    return f"unexpected verdict {out}"


def check_failures(factors, limit: int, failures, primes, rng: random.Random):
    if failures != sorted(set(failures)) or (failures and failures[-1] > limit):
        return "failures are not ascending primes up to the limit"
    failed = set(failures)
    if not failed <= set(primes):
        return "a failure is not prime"
    for q in checked_primes(primes, limit + 1, rng):
        if (q in failed) == product_has_root_mod(factors, q):
            return f"failure set wrong at p = {q}"
    return None


def check_report(factors, limit: int, result: dict, primes, rng: random.Random):
    """A CLI scan/verdict result: the report fields and its verdict."""
    in_range = [q for q in primes if q <= limit]
    if result.get("limit") != limit or result.get("primes_scanned") != len(in_range):
        return "limit or prime count wrong"
    D = delta(factors)
    if result.get("delta") != D:
        return f"delta {result.get('delta')} != {D}"
    failures = result.get("failures") or []
    n = len(in_range)
    if result.get("density") != str(Fraction(n - len(failures), n)):
        return "density does not match the failure count"
    problem = check_failures(factors, limit, failures, in_range, rng)
    if problem:
        return problem
    verdict = result.get("verdict", {})
    unramified = [q for q in failures if D % q]
    if unramified:
        expected = {"tag": "NotExceptional", "witness_prime": unramified[0]}
    else:
        expected = {"tag": "ExceptionalLikely", "failures": failures}
    return None if verdict == expected else f"verdict {verdict} != {expected}"


# ---------------------------------------------------------------------------
# Kummer families and good sets
# ---------------------------------------------------------------------------


def supports_of(radicands, support):
    return [[i for i, q in enumerate(support) if b % q == 0] for b in radicands]


def fixes_a_root(p: int, twists, unity: int, index_sets) -> bool:
    """Whether the map (twists, unity power) fixes some root nu^k * b^(1/p):
    it does when nu0 * (unity - 1) + twist sum = 0 mod p has a solution."""
    for idxs in index_sets:
        s = sum(twists[i] for i in idxs)
        if any((nu0 * (unity - 1) + s) % p == 0 for nu0 in range(p)):
            return True
    return False


def first_nonfixing_map(p: int, index_sets, n: int, full: bool):
    """Lexicographically first map fixing no root, or None (brute force)."""
    for twists in itertools.product(range(p), repeat=n):
        for unity in range(1, p) if full else (1,):
            if not fixes_a_root(p, twists, unity, index_sets):
                return twists, unity
    return None


def check_bridge(op: dict, out) -> str | None:
    good, exact, twists, support = out
    if good != exact:
        return f"is_good {good} != is_exceptional_exact {exact}"
    return _check_witness(op["p"], op["radicands"], support, exact, twists, 1)


def _check_witness(p, radicands, support, exact, twists, unity):
    if sorted({q for b in radicands for q in prime_divisors(b)}) != support:
        return "support is not the primes dividing the radicands"
    if exact:
        return None if twists is None else "exceptional family with a witness"
    if twists is None or len(twists) != len(support):
        return "non-exceptional family without a witness"
    if fixes_a_root(p, twists, unity, supports_of(radicands, support)):
        return f"witness {twists} fixes a root"
    return None


def consecutive_products(primes) -> list[int]:
    return sorted(product(primes[i:j]) for i in range(len(primes)) for j in range(i + 1, len(primes) + 1))


def check_family(op: dict, out) -> str | None:
    exact, twists, support = out
    if exact != (len(op["primes"]) >= op["p"]):
        return f"exact {exact} contradicts the |L| >= p criterion"
    return _check_witness(op["p"], consecutive_products(op["primes"]), support, exact, twists, 1)


def check_full(op: dict, out) -> str | None:
    exact, twists, unity, support = out
    if support != sorted({q for b in op["radicands"] for q in prime_divisors(b)}):
        return "support is not the primes dividing the radicands"
    index_sets = supports_of(op["radicands"], support)
    expected = first_nonfixing_map(op["p"], index_sets, len(support), full=True)
    if expected is None:
        return None if exact and twists is None else "brute force finds no witness"
    if exact or (tuple(twists), unity) != expected:
        return f"witness {twists, unity} != brute-force first {expected}"
    return None


def is_good_brute(p: int, n: int, forms) -> bool:
    return all(
        any(sum(x[c] for c in form) % p == 0 for form in forms)
        for x in itertools.product(range(p), repeat=n)
    )


def check_search(op: dict, out: dict) -> str | None:
    p = op["p"]
    if out["min"] != p * (p + 1) // 2:
        return f"minimum {out['min']} != p(p+1)/2"
    if not out["exhaustive"]:
        return "search not exhaustive"
    forms = out["witness"]
    if len(forms) != out["min"] or not is_good_brute(p, out["n"], forms):
        return "witness is not a good set of the minimum size"
    return None


TRANSITIVE_ORDERS = {4: {4: 4, 8: 3, 12: 1, 24: 1}, 5: {5: 6, 10: 6, 20: 6, 60: 1, 120: 1}}


def check_transitive(op: dict, orders) -> str | None:
    counts = {}
    for k in orders:
        counts[k] = counts.get(k, 0) + 1
    expected = TRANSITIVE_ORDERS[op["n"]]
    return None if counts == expected else f"subgroup orders {counts} != {expected}"


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------


def dihedral_gens(n: int):
    return [[(i + 1) % n for i in range(n)], [(n - i) % n for i in range(n)]]


def frobenius_gens(p: int, q: int):
    """Translation and scaling by an element of order q on Z/p."""
    a = next(a for a in range(2, p) if pow(a, q, p) == 1)
    return [[(i + 1) % p for i in range(p)], [a * i % p for i in range(p)]]


def closure(gens) -> set:
    n = len(gens[0])
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
    return elems


def check_group_payload(family: str, params, gens, out: dict) -> str | None:
    elems = closure([tuple(g) for g in gens])
    fixing = sum(1 for g in elems if any(i == x for i, x in enumerate(g)))
    orbit = {0}
    for g in elems:
        orbit.add(g[0])
    expected = {
        "order": len(elems),
        "transitive": len(orbit) == len(gens[0]),
        "coverage": fixing == len(elems),
        "density": str(Fraction(fixing, len(elems))),
    }
    got = {k: out.get(k) for k in expected}
    if got != expected:
        return f"group payload {got} != {expected}"
    # Odd dihedral groups complete (reflections fix exactly one vertex); even
    # dihedral groups and the odd-order Frobenius groups do not.
    completes = family == "dihedral" and params % 2 == 1
    completion = out.get("quad_completion")
    if (completion is not None) != completes:
        return f"quadratic completion {completion is not None}, expected {completes}"
    if completion is not None and 2 * len(completion) != len(elems):
        return "completion subgroup is not of index two"
    return None


# ---------------------------------------------------------------------------
# completions
# ---------------------------------------------------------------------------


def legendre(a: int, p: int) -> int:
    return 0 if a % p == 0 else (1 if any(x * x % p == a % p for x in range(1, p)) else -1)


def check_complete_d(bad, bound: int, out: dict) -> str | None:
    odd = sorted(set(bad) - {2})
    for d in range(2, bound + 1):
        if d % 8 == 1 and not is_square(d) and is_squarefree(d) and all(legendre(d, p) == 1 for p in odd):
            expected = {"d": d, "mod8": 1, "qr_certificates": {str(p): 1 for p in odd}}
            return None if out == expected else f"completion {out} != {expected}"
    return "no completing d exists, but one was reported"


def root_count_mod(factors, p: int) -> int:
    f = [1]
    for g in factors:
        f = poly_mul(f, g)
    return sum(1 for x in range(p) if evaluate(f, x) % p == 0)


def check_pattern(factors, p: int, pattern) -> str | None:
    """Degrees sum to the product's degree and the linear factors are the
    roots found by a residue sweep (the product is separable at p)."""
    degree = sum(len(f) - 1 for f in factors)
    if sum(pattern) != degree or pattern != sorted(pattern):
        return f"pattern {pattern} does not partition degree {degree}"
    if pattern.count(1) != root_count_mod(factors, p):
        return "linear factors do not match the roots mod p"
    return None


def check_integer_root(c: int, out) -> str | None:
    """x^2 - c: roots are +-sqrt(c) when c is a square."""
    if is_square(c):
        return None if out in (isqrt(c), -isqrt(c)) else f"root {out} wrong for c = {c}"
    return None if out is None else f"x^2 - {c} has no integer root, got {out}"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SEXTIC = [[-2, 0, 1], [-3, 0, 1], [-6, 0, 1]]
QUINTIC = [[108, 0, 1], [2, 0, 0, 1]]


def group_gens(spec: dict):
    if spec["family"] == "dihedral":
        return spec["n"], dihedral_gens(spec["n"])
    return tuple(spec["pq"]), frobenius_gens(*spec["pq"])


def check_op(op: dict, out, reference, primes, rng: random.Random) -> str | None:
    """Why the output of one operation is wrong, or None.

    `primes` lists every prime up to the largest limit of the workload;
    `reference` is the cold (uncached) scan result for a CLI scan request."""
    if isinstance(out, dict) and "error" in out and op["kind"] != "cli":
        return f"unexpected error {out['error']}"
    kind = op["kind"]
    if kind == "verdict":
        return check_verdict(op["factors"], op["limit"], out, primes, rng)
    if kind == "bridge":
        return check_bridge(op, out)
    if kind == "family":
        return check_family(op, out)
    if kind == "full":
        return check_full(op, out)
    if kind in ("min_over_n", "min_good_size"):
        return check_search(op, out)
    if kind == "transitive":
        return check_transitive(op, out)
    if kind == "payload":
        params, gens = group_gens(op)
        return check_group_payload(op["family"], params, gens, out)
    if kind == "screen":
        return None if out == op["expected"] else f"failing modulus {out} != {op['expected']}"
    if kind == "introot":
        return check_integer_root(-op["coeffs"][0], out)
    if kind == "delta":
        expected = delta(op["factors"])
        return None if out == expected else f"Delta {out} != {expected}"
    if kind == "complete_d":
        return check_complete_d(op["bad"], op["bound"], out)
    if kind == "cli":
        return check_cli(op, out, reference, primes, rng)
    return f"unknown op kind {kind}"


def check_cli(op: dict, out: dict, reference, primes, rng: random.Random) -> str | None:
    envelope = out.get("envelope") or {}
    if "expected_error" in op:
        code = (envelope.get("error") or {}).get("code")
        if out["code"] != 1 or code != op["expected_error"]:
            return f"expected error {op['expected_error']}, got exit {out['code']} code {code}"
        return None
    result = envelope.get("result")
    if out["code"] != 0 or result is None:
        return f"exit {out['code']} without a result"
    sub = op["sub"]
    if sub in ("verdict", "density"):
        factors, limit = op["factors"], op["limit"]
        problem = check_report(factors, limit, reference, primes, rng)
        if problem:
            return "cold reference: " + problem
        if sub == "verdict":
            if result != reference:
                return "result differs from a cold scan"
            if factors in (SEXTIC, QUINTIC, QUINTIC[::-1]) and result["verdict"]["tag"] != "ExceptionalLikely":
                return "golden product is not ExceptionalLikely"
        elif result != {"density": reference["density"]}:
            return "density differs from a cold scan"
        if factors == [[-2, 0, 0, 1]] and abs(Fraction(result.get("density", reference["density"])) - Fraction(2, 3)) > Fraction(1, 100):
            return "x^3-2 density is not within 0.01 of 2/3"
        return None
    if sub == "complete":
        quadratic = [-discriminant(op["cubic"]), 0, 1]
        problem = check_report([quadratic, op["cubic"]], op["limit"], reference, primes, rng)
        if problem:
            return "cold reference: " + problem
        if result["report"] != reference:
            return "completion report differs from a cold scan"
        return None if result["quadratic"] == poly_text(quadratic) else "wrong resolvent quadratic"
    if sub == "kummer":
        return check_kummer_cli(op, result)
    if sub == "goodsets":
        forms = result.get("witness") or []
        p = op["p"]
        if result.get("min") != p * (p + 1) // 2 or not result.get("exhaustive"):
            return f"goodsets minimum {result.get('min')} != p(p+1)/2"
        return None if len(forms) == result["min"] and is_good_brute(p, op["n"], forms) else "witness not good"
    if sub == "group":
        params, gens = group_gens(op)
        return check_group_payload(op["family"], params, gens, result)
    if sub == "pattern":
        return check_pattern(op["factors"], op["p"], result.get("pattern"))
    if sub == "complete-d":
        return check_complete_d(op["bad"], op["bound"], result)
    if sub == "intersective-screen":
        got = result.get("failing_modulus")
        return None if got == op["expected"] else f"failing modulus {got} != {op['expected']}"
    return f"unchecked subcommand {sub}"


def check_kummer_cli(op: dict, result: dict) -> str | None:
    p = op["p"]
    radicands = consecutive_products(op["primes"]) if "primes" in op else op["radicands"]
    support = sorted({q for b in radicands for q in prime_divisors(b)})
    index_sets = supports_of(radicands, support)
    expected = first_nonfixing_map(p, index_sets, len(support), full=False) is None
    if "primes" in op and expected != (len(op["primes"]) >= p):
        return "brute force contradicts the |L| >= p criterion"
    if result.get("exceptional_exact") != expected:
        return f"exceptional_exact {result.get('exceptional_exact')} != {expected}"
    predicted = (len(op["primes"]) >= p) if "primes" in op else None
    if result.get("predicted_exceptional") != predicted:
        return "wrong predicted_exceptional"
    witness = result.get("witness")
    if expected:
        return None if witness is None else "exceptional family with a witness"
    twists = [witness["twists"].get(str(q)) for q in support]
    if None in twists or fixes_a_root(p, twists, witness["unity_power"], index_sets):
        return f"witness {witness} fixes a root"
    return None
