"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance and runtime budget is asserted.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from exceptio.goodsets import forms_from_radicands, is_good, min_over_n
from exceptio.intpoly import make_poly, parse_factors, resultant, multiply
from exceptio.kummer import (
    build_kummer_poly,
    consecutive_products,
    fixes_some_root,
    is_exceptional_exact,
    make_prime_set,
    make_radicand_set,
    predicted_exceptional,
    zero_sum_consecutive,
)
from exceptio.permgroup import (
    all_transitive_subgroups,
    admits_quadratic_completion,
    chebotarev_root_density,
    dihedral_group,
    fixed_point_count,
    frobenius_group,
    generate_group,
    index2_subgroups,
    orbit_count,
    unique_fp_coset_condition,
)
from exceptio.primescan import (
    _failures,
    _prepare_factor,
    exceptional_verdict,
    intersective_screen,
    scan,
    sieve_primes,
)

SEXTIC = parse_factors("x^2-2; x^2-3; x^2-6")
QUINTIC = parse_factors("x^2+108; x^3+2")


@contextmanager
def criterion(num, text, budget):
    start = time.monotonic()
    try:
        yield
    except Exception as exc:
        elapsed = time.monotonic() - start
        print(f"criterion {num:2d} FAIL ({elapsed:6.2f}s / {budget:g}s) {text} :: {exc}")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed <= budget else "FAIL"
    print(f"criterion {num:2d} {status} ({elapsed:6.2f}s / {budget:g}s) {text}")
    assert elapsed <= budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_golden_examples_exceptional_likely():
    with criterion(1, "golden products verdict ExceptionalLikely at 10^5", 20):
        for F in (SEXTIC, QUINTIC):
            start = time.monotonic()
            report = scan(F, 10**5)
            verdict = exceptional_verdict(F, 10**5, report=report)
            assert time.monotonic() - start < 10, "single verdict over budget"
            assert verdict.tag == "ExceptionalLikely"
            for p in verdict.failures:
                assert report.delta % p == 0, f"unramified failure {p}"


def test_criterion_02_smallest_failing_modulus_64():
    # As specified: both golden examples report 64.  The quintic does; the
    # sextic factually fails first at m = 8 (no residue works: squares mod 8
    # are {0,1,4} and all three factors stay units there), so this criterion
    # cannot pass as stated.  See the decisions ledger; the library reports
    # the true smallest failing modulus.
    with criterion(2, "intersective screen reports 64 for both golden products", 1):
        assert intersective_screen(QUINTIC, 100) == 64
        assert intersective_screen(SEXTIC, 100) == 64, (
            "sextic first fails at modulus "
            f"{intersective_screen(SEXTIC, 100)}, not 64"
        )


def test_criterion_03_size_criterion_exactness():
    with criterion(3, "exact checker equals the |L| >= p criterion", 60):
        first_six = (2, 3, 5, 7, 11, 13)
        for p in (2, 3, 5):
            for size in range(1, p + 2):
                for combo in itertools.combinations(first_six, size):
                    L = make_prime_set(combo)
                    exact, witness = is_exceptional_exact(consecutive_products(L, p))
                    assert exact == predicted_exceptional(L, p), (p, combo)
                    if not exact:
                        assert witness is not None


def test_criterion_04_listed_families():
    with criterion(4, "the four listed families verify and scan clean", 30):
        q, r, s = 2, 3, 5
        families = [
            make_radicand_set(2, [q, r, q * r]),
            make_radicand_set(2, [2, 3, 6]),
            make_radicand_set(3, [q, r, s, q * r, q * s, r * s, q * r * s]),
            make_radicand_set(3, [2, 3, 5, 6, 15, 30]),
        ]
        # the first and third hold for any three primes; spot-check another triple
        q, r, s = 7, 11, 13
        families.append(make_radicand_set(2, [q, r, q * r]))
        families.append(make_radicand_set(3, [q, r, s, q * r, q * s, r * s, q * r * s]))
        for B in families:
            exact, _ = is_exceptional_exact(B)
            assert exact, B.radicands
            report = scan(build_kummer_poly(B), 10**4)
            unramified = [p for p in report.failures if report.delta % p]
            assert unramified == [], (B.radicands, unramified)


def test_criterion_05_chebotarev_densities():
    with criterion(5, "empirical densities at 10^6 within 0.01 of group values", 60):
        cases = [
            ("x^2-2", generate_group([(1, 0)]), Fraction(1, 2)),
            ("x^3-2", generate_group([(1, 2, 0), (1, 0, 2)]), Fraction(2, 3)),
            (
                "x^2-2; x^2-3; x^2-6",
                generate_group([(1, 0, 2, 3, 5, 4), (0, 1, 3, 2, 5, 4)]),
                Fraction(1, 1),
            ),
        ]
        for text, group, expected in cases:
            exact = chebotarev_root_density(group)
            assert exact == expected
            report = scan(parse_factors(text), 10**6)
            assert abs(float(report.density_estimate) - float(exact)) <= 0.01, text


def test_criterion_06_dihedral_and_frobenius_coset_condition():
    with criterion(6, "coset condition: D_n odd pass / even fail, Frobenius pass", 5):
        for n in range(3, 16):
            G = dihedral_group(n)
            rotations = tuple(sorted(tuple((i + k) % n for i in range(n)) for k in range(n)))
            check = unique_fp_coset_condition(G, rotations)
            assert check.verdict == (n % 2 == 1), n
        # Frobenius groups have odd order pq, so the analogous condition uses
        # the normal order-p subgroup: everything outside it fixes one point.
        for p, q in ((7, 3), (11, 5)):
            G = frobenius_group(p, q)
            translations = {tuple((i + b) % p for i in range(p)) for b in range(p)}
            assert translations <= set(G.elements)
            outside = [g for g in G.elements if g not in translations]
            assert len(outside) == p * (q - 1)
            assert all(fixed_point_count(g) == 1 for g in outside), (p, q)


def test_criterion_07_no_degree_four_completion():
    with criterion(7, "no transitive subgroup of S_4 admits a completion", 5):
        groups = all_transitive_subgroups(4)
        assert len(groups) == 9
        for G in groups:
            assert admits_quadratic_completion(G) is None, G.generators


def test_criterion_08_minimal_good_set_sizes():
    with criterion(8, "min over n: 3 forms for p=2 and 6 forms for p=3", 120):
        for p in (2, 3):
            result = min_over_n(p, 4)
            assert result.minimum == p * (p + 1) // 2, p
            assert result.exhaustive
            assert is_good(result.witness)[0]


def test_criterion_09_bridge_equivalence():
    with criterion(9, "form goodness == exact exceptionality, all B on <= 4 primes", 60):
        primes = (2, 3, 5, 7)
        pool = []
        for size in range(1, 5):
            for combo in itertools.combinations(primes, size):
                value = 1
                for qq in combo:
                    value *= qq
                pool.append(value)
        pool.sort()
        for p in (2, 3):
            for bits in range(1, 1 << len(pool)):
                chosen = [pool[i] for i in range(len(pool)) if bits >> i & 1]
                B = make_radicand_set(p, chosen)
                good = is_good(forms_from_radicands(B))[0]
                exact = is_exceptional_exact(B)[0]
                assert good == exact, (p, chosen)


def test_criterion_10_property_suites():
    with criterion(10, "exact property suites (Burnside, resultants, zero sums, scans)", 60):
        rng = random.Random(1010)

        # Burnside identity on a spread of groups
        groups = [dihedral_group(n) for n in range(3, 10)]
        groups += [frobenius_group(7, 3), frobenius_group(13, 3)]
        groups += [generate_group([(1, 0, 2, 3, 5, 4), (0, 1, 3, 2, 5, 4)])]
        for _ in range(10):
            deg = rng.randint(2, 6)
            groups.append(generate_group([tuple(rng.sample(range(deg), deg))]))
        for G in groups:
            total = sum(fixed_point_count(g) for g in G.elements)
            assert total == G.order * orbit_count(G)

        # resultant multiplicativity, exact integers
        for _ in range(40):
            f, g, h = (
                make_poly(
                    [rng.randrange(-9, 10) for _ in range(rng.randint(1, 5))]
                    + [rng.choice([-2, -1, 1, 2])]
                )
                for _ in range(3)
            )
            assert resultant(f, multiply(g, h)) == resultant(f, g) * resultant(f, h)

        # zero-sum pigeonhole guarantee
        for moduli in ((2,), (7,), (3, 4), (2, 2, 2)):
            order = 1
            for m in moduli:
                order *= m
            for _ in range(150):
                seq = [tuple(rng.randrange(m) for m in moduli) for _ in range(order)]
                span = zero_sum_consecutive(seq, moduli)
                assert span is not None
                i, j = span
                for t, m in enumerate(moduli):
                    assert sum(e[t] for e in seq[i - 1 : j]) % m == 0

        # scan determinism under partitioning
        report = scan(QUINTIC, 30_000)
        primes = sieve_primes(30_000).primes
        prepared = [_prepare_factor(f) for f in QUINTIC.factors]
        pieces = []
        for lo in range(0, len(primes), 511):
            pieces.extend(_failures(prepared, primes[lo : lo + 511]))
        assert tuple(pieces) == report.failures

        # witness replay: returned witnesses never fix a root
        for p in (2, 3, 5):
            for combo in itertools.combinations((2, 3, 5, 7), 2):
                B = consecutive_products(make_prime_set(combo), p)
                exact, witness = is_exceptional_exact(B)
                if not exact:
                    assert fixes_some_root(witness, B) is False
