"""Integer-polynomial arithmetic: golden values, oracle cross-checks, invariants."""

import random

import pytest

from exceptio import errors
from exceptio.intpoly import (
    DIVISOR_WALK_LIMIT,
    MAX_PARSE_DEGREE,
    MAX_PARSE_DIGITS,
    discriminant,
    factored_text,
    factorisation_pattern,
    has_integer_root,
    make_poly,
    multiply,
    parse_factors,
    parse_poly,
    poly_text,
    product_of,
    ramified_prime_bound,
    reduce_mod,
    resultant,
    roots_mod_p,
)

from oracles import (
    brute_pattern,
    integer_root_by_divisors,
    poly_gcd,
    poly_mul,
    roots_by_sweep,
    sylvester_resultant,
)

X2M2 = make_poly([-2, 0, 1])
X2M3 = make_poly([-3, 0, 1])
X2M6 = make_poly([-6, 0, 1])
X2P108 = make_poly([108, 0, 1])
X3P2 = make_poly([2, 0, 0, 1])


def test_make_poly_canonical():
    assert make_poly([-2, 0, 1]).coeffs == (-2, 0, 1)
    assert make_poly([1, 2, 0, 0]).coeffs == (1, 2)
    zero = make_poly([0])
    assert zero.is_zero and zero.degree == float("-inf")
    assert make_poly([0, 0, 0]).is_zero
    assert make_poly([2, 0, 0, 1]).degree == 3
    with pytest.raises(errors.EmptyCoefficients):
        make_poly([])


def test_product_of_examples():
    F = product_of([X2M2, X2M3])
    assert F.product.coeffs == (6, 0, -5, 0, 1)  # hand convolution
    assert product_of([X3P2]).product == X3P2
    assert product_of([make_poly([-1, 1]), make_poly([1, 1])]).product.coeffs == (-1, 0, 1)
    with pytest.raises(errors.ZeroFactor):
        product_of([X2M2, make_poly([0])])
    with pytest.raises(errors.NonMonic):
        product_of([make_poly([1, 2])])


def test_golden_products_frozen():
    sextic = product_of([X2M2, X2M3, X2M6])
    assert sextic.product.coeffs == (-36, 0, 36, 0, -11, 0, 1)
    quintic = product_of([X2P108, X3P2])
    assert quintic.product.coeffs == (216, 0, 2, 108, 0, 1)


def test_has_integer_root():
    assert has_integer_root(make_poly([-4, 0, 1])) == 2
    assert has_integer_root(X3P2) is None  # candidates +-1, +-2 all fail
    assert has_integer_root(make_poly([0, 0, 0, 0, 0, 1])) == 0
    assert has_integer_root(make_poly([-1, 1])) == 1
    # non-monic: only integer candidates reported
    assert has_integer_root(make_poly([-1, 0, 2])) is None  # roots +-1/sqrt2
    assert has_integer_root(make_poly([-2, 3, 1])) is None  # 2x^2? no: x^2+3x-2
    assert has_integer_root(make_poly([2, -3, 1])) == 1  # (x-1)(x-2)
    with pytest.raises(errors.ZeroPolynomial):
        has_integer_root(make_poly([0]))


def test_has_integer_root_matches_divisor_walk():
    # constant terms on both sides of the crossover, from two generators:
    # random linear factors (some repeated) times a random cofactor, with a
    # leading coefficient that is not always 1; and products of linear
    # factors a x - r alone, where the roots themselves set the root bound
    def with_cofactor(rng):
        f = [rng.choice([1, 1, 1, 2, -3, 5])]
        for _ in range(rng.randint(0, 3)):
            r = rng.choice([rng.randint(-50, 50), rng.randint(-6000, 6000)])
            f = poly_mul(f, [-r, 1])
            if rng.random() < 0.2:
                f = poly_mul(f, [-r, 1])
        return poly_mul(f, [rng.randint(-3000, 3000) for _ in range(rng.randint(1, 3))] + [1])

    def linear_only(rng):
        f = [rng.choice([1, 1, 1, -1, 2, -3])]
        for _ in range(rng.randint(1, 4)):
            f = poly_mul(f, [-rng.randint(-5000, 5000), rng.choice([1, 1, 1, 2, 3])])
        return f

    for seed, make in ((977, with_cofactor), (1202, linear_only)):
        rng = random.Random(seed)
        below = above = 0
        while below < 60 or above < 60:
            f = make(rng)
            c0 = abs(f[0])
            if not 0 < c0 < 1 << 30:
                continue
            if c0 < DIVISOR_WALK_LIMIT:
                below += 1
            else:
                above += 1
            assert has_integer_root(make_poly(f)) == integer_root_by_divisors(f), f


def test_has_integer_root_large_constant_terms():
    # expected roots by construction: walking the divisors of ~10^14 is the
    # slow path this replaces
    r = 10**7 + 19
    c = r * r
    cases = [
        ([-c, 0, 1], r),  # +-sqrt(c): the positive root first
        ([-(c + 2), 0, 1], None),
        (poly_mul(poly_mul([-r, 1], [-r, 1]), [1, 0, 1]), r),  # repeated root
        (poly_mul(poly_mul([r, 1], [r, 1]), [3, 0, 1]), -r),
        (poly_mul(poly_mul([-r, 1], [r, 1]), [-1, 1]), 1),  # smallest |r| wins
        (poly_mul([0, 1], [-(c + 1), 0, 1]), 0),  # 0 as a root
        (poly_mul([1, 3], [-(10**9 + 7), 1]), 10**9 + 7),  # non-monic: -1/3 is not an integer
        (poly_mul([-1, 2], [c + 5, 0, 1]), None),  # non-monic, root 1/2 only
        (poly_mul([7, 10**9], [1 << 25, 1]), -(1 << 25)),  # |r| = B/2 - 1 for the bound B
        ([-6 * c, 0, 6], r),  # content 6
        ([5 << 24, 5 << 24], -1),  # the prime, 5, divides every coefficient
        ([-(10**22), 0, 1], 10**11),
        ([-(10**24), 0, 1], 10**12),  # a Cauchy bound would pass the primality cap here
        (poly_mul(poly_mul([-r, 1], [-r, 1]), [-c, 0, 1]), r),  # coefficients near r^4
        ([-(10**46), 0, 1], 10**23),  # root bound just under the primality cap
    ]
    for f, expected in cases:
        assert f[0] == 0 or abs(f[0]) >= DIVISOR_WALK_LIMIT
        assert has_integer_root(make_poly(f)) == expected, f
    with pytest.raises(errors.RootBoundTooLarge):
        has_integer_root(make_poly([-(10**48), 0, 1]))
    with pytest.raises(errors.RootBoundTooLarge):
        has_integer_root(make_poly([10**12, 0, 0, -(10**30), 1]))


def test_reduce_mod():
    r = reduce_mod(X2P108, 2)
    assert (r.p, r.coeffs) == (2, (0, 0, 1))  # 108 = 0 mod 2
    assert reduce_mod(X2M2, 7).coeffs == (5, 0, 1)
    assert reduce_mod(X3P2, 2).coeffs == (0, 0, 0, 1)
    assert reduce_mod(make_poly([4, 2]), 2).is_zero
    with pytest.raises(errors.NotPrime):
        reduce_mod(X2M2, 6)


def test_roots_mod_p_examples():
    assert roots_mod_p(reduce_mod(X2M2, 7)) == [3, 4]
    assert roots_mod_p(reduce_mod(make_poly([-1, 1]), 5)) == [1]
    assert roots_mod_p(reduce_mod(make_poly([1, 0, 1]), 3)) == []
    with pytest.raises(errors.ZeroModP):
        roots_mod_p(reduce_mod(make_poly([10, 5]), 5))


def test_roots_mod_p_strategies_agree():
    # the residue sweep (p <= 256) and the Frobenius gcd (above) against the
    # oracle's sweep, over 200 random polynomials at primes up to 10^4
    rng = random.Random(20260809)
    small = [2, 3, 5, 7, 11, 13]
    bigger = [101, 257, 1009, 2003, 4099, 6367, 8191, 9973]
    for trial in range(200):
        p = rng.choice(small if trial % 2 else bigger)
        deg = rng.randint(1, 8)
        coeffs = [rng.randrange(-9, 10) for _ in range(deg)] + [rng.randint(1, 9)]
        f = reduce_mod(make_poly(coeffs), p)
        if f.is_zero:
            continue
        assert roots_mod_p(f) == roots_by_sweep(list(coeffs), p)


def test_roots_mod_p_split_path_with_many_roots():
    # the equal-degree splitting path on products of known linears
    rng = random.Random(606)
    p = 1_000_003
    for _ in range(10):
        wanted = sorted(rng.sample(range(p), rng.randint(2, 6)))
        f = make_poly([1])
        for r in wanted:
            f = multiply(f, make_poly([-r, 1]))
        got = roots_mod_p(reduce_mod(f, p))
        assert got == wanted


def test_roots_mod_p_large_prime():
    p = 1_000_003
    f = reduce_mod(X2M2, p)
    got = roots_mod_p(f)
    assert len(got) in (0, 2)
    for r in got:
        assert (r * r - 2) % p == 0
    # x^3 - x = x(x-1)(x+1) has the obvious roots at any p
    g = reduce_mod(make_poly([0, -1, 0, 1]), p)
    assert roots_mod_p(g) == [0, 1, p - 1]


def test_factorisation_pattern_examples():
    assert factorisation_pattern(reduce_mod(X3P2, 5)).degrees == (1, 2)
    assert factorisation_pattern(reduce_mod(X2M2, 7)).degrees == (1, 1)
    assert factorisation_pattern(reduce_mod(X2M2, 5)).degrees == (2,)


def test_factorisation_pattern_repeated_factors():
    # (x-1)^2 (x^2+x+1) mod 5; x^2+x+1 irreducible mod 5 (disc -3 = 2, non-square)
    f = multiply(multiply(make_poly([-1, 1]), make_poly([-1, 1])), make_poly([1, 1, 1]))
    assert factorisation_pattern(reduce_mod(f, 5)).degrees == (1, 1, 2)
    # x^p mod p is a p-fold repeated linear factor
    assert factorisation_pattern(reduce_mod(make_poly([0, 0, 0, 1]), 3)).degrees == (1, 1, 1)


def test_factorisation_pattern_larger_degrees():
    # x^8 + x^4 + x^3 + x + 1 is irreducible over F_2
    aes = make_poly([1, 1, 0, 1, 1, 0, 0, 0, 1])
    assert factorisation_pattern(reduce_mod(aes, 2)).degrees == (8,)
    # a product of two distinct irreducible quartics over F_2
    quartics = multiply(make_poly([1, 1, 0, 0, 1]), make_poly([1, 0, 0, 1, 1]))
    assert factorisation_pattern(reduce_mod(quartics, 2)).degrees == (4, 4)
    # and a square of one of them
    square = multiply(make_poly([1, 1, 0, 0, 1]), make_poly([1, 1, 0, 0, 1]))
    assert factorisation_pattern(reduce_mod(square, 2)).degrees == (4, 4)


def test_factorisation_pattern_against_brute_oracle():
    rng = random.Random(1207)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        f = reduce_mod(make_poly(coeffs), p)
        got = list(factorisation_pattern(f).degrees)
        assert got == brute_pattern(list(coeffs), p), (coeffs, p)


def test_pattern_degrees_sum_to_degree():
    rng = random.Random(99)
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7, 11])
        deg = rng.randint(1, 7)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        f = reduce_mod(make_poly(coeffs), p)
        assert sum(factorisation_pattern(f).degrees) == f.degree


def test_root_count_matches_linear_entries_when_squarefree():
    rng = random.Random(4242)
    checked = 0
    while checked < 40:
        p = rng.choice([3, 5, 7, 13, 31])
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        f = reduce_mod(make_poly(coeffs), p)
        pattern = factorisation_pattern(f)
        if len(set(roots_by_sweep(list(coeffs), p))) != list(pattern.degrees).count(1):
            # only guaranteed for squarefree reductions
            squarefree = sum(pattern.degrees) == f.degree and len(pattern.degrees) == len(
                set(enumerate(pattern.degrees))
            )
            assert not _is_squarefree_mod(coeffs, p)
            continue
        checked += 1


def _is_squarefree_mod(coeffs, p):
    from exceptio.intpoly import _mp_derivative, _mp_gcd, _mp_trim

    a = _mp_trim([c % p for c in coeffs])
    return len(_mp_gcd(a, _mp_derivative(a, p), p)) == 1


def test_resultant_examples_frozen():
    assert resultant(make_poly([-2, 1]), X2M3) == 1
    assert resultant(X2M2, make_poly([3])) == 9
    assert resultant(X2M2, X2M3) == 1
    assert resultant(X2M2, X2M6) == 16
    assert resultant(X2M3, X2M6) == 9
    assert resultant(X2P108, X3P2) == 1259716
    with pytest.raises(errors.ZeroPolynomial):
        resultant(make_poly([0]), X2M2)


def test_resultant_against_sylvester_oracle():
    rng = random.Random(5150)
    for _ in range(300):
        da, db = rng.randint(0, 6), rng.randint(0, 6)
        f = [rng.randrange(-9, 10) for _ in range(da)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        g = [rng.randrange(-9, 10) for _ in range(db)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        assert resultant(make_poly(f), make_poly(g)) == sylvester_resultant(f, g), (f, g)


def test_resultant_shared_root_is_zero():
    f = multiply(X2M2, make_poly([-1, 1]))
    g = multiply(X2M3, make_poly([-1, 1]))
    assert resultant(f, g) == 0


def test_resultant_multiplicative():
    rng = random.Random(777)
    for _ in range(60):
        polys = []
        for _ in range(3):
            d = rng.randint(1, 5)
            polys.append(
                make_poly([rng.randrange(-9, 10) for _ in range(d)] + [rng.choice([-2, -1, 1, 2])])
            )
        f, g, h = polys
        assert resultant(f, multiply(g, h)) == resultant(f, g) * resultant(f, h)


def test_discriminant_examples():
    assert discriminant(X3P2) == -108
    assert discriminant(X2M2) == 8
    assert discriminant(X2P108) == -432
    assert discriminant(make_poly([-5, 1])) == 1
    with pytest.raises(errors.NonMonic):
        discriminant(make_poly([1, 2]))
    with pytest.raises(errors.DegreeZero):
        discriminant(make_poly([1]))


def test_depressed_cubic_discriminant_formula():
    for a in range(-10, 11):
        for b in range(-10, 11):
            f = make_poly([b, a, 0, 1])
            assert discriminant(f) == -4 * a**3 - 27 * b**2, (a, b)


def test_poly_gcd():
    f = multiply(X2M2, X2M3)
    assert poly_gcd(f.coeffs, multiply(X2M2, X2M6).coeffs) == list(X2M2.coeffs)
    assert poly_gcd(X2M2.coeffs, X2M3.coeffs) == [1]
    # content is included
    assert poly_gcd([2, 2], [4, 8, 4]) == [2, 2]  # 2(x+1) and 4(x+1)^2
    # the leading coefficient is positive
    assert poly_gcd([1, -2, 1], [-2, 2]) == [-1, 1]


def test_poly_gcd_random_common_factors():
    from oracles import divides_over_q

    rng = random.Random(616)
    for _ in range(80):
        def rand_poly():
            deg = rng.randint(1, 3)
            return make_poly([rng.randrange(-5, 6) for _ in range(deg)] + [rng.randint(1, 3)])

        a, b, c = rand_poly(), rand_poly(), rand_poly()
        g = poly_gcd(multiply(a, c).coeffs, multiply(b, c).coeffs)
        # the planted factor divides the gcd, the gcd divides both products
        assert divides_over_q(list(c.coeffs), g), (a, b, c)
        assert divides_over_q(g, list(multiply(a, c).coeffs))
        assert divides_over_q(g, list(multiply(b, c).coeffs))


def _delta_by_gcd_pass(F):
    """Δ with square-freeness decided by its own pass: an oracle gcd(f, f')
    per factor first, then discriminants, then Sylvester resultants; the
    first error met is returned as its class."""
    for f in F.factors:
        if len(poly_gcd(f.coeffs, f.derivative().coeffs)) > 1:
            return errors.NotSquareFree
    delta = 1
    for f in F.factors:
        delta *= abs(discriminant(f))
    for i, f in enumerate(F.factors):
        for g in F.factors[i + 1 :]:
            res = sylvester_resultant(list(f.coeffs), list(g.coeffs))
            if res == 0:
                return errors.ZeroResultant
            delta *= abs(res)
    return delta


def test_square_freeness_from_discriminants_matches_gcd_pass():
    sextic = product_of([X2M2, X2M3, X2M6])
    assert ramified_prime_bound(sextic) == _delta_by_gcd_pass(sextic) == 331776
    assert poly_gcd(sextic.product.coeffs, sextic.product.derivative().coeffs) == [1]
    assert poly_gcd([7], [0]) == [7]  # a constant has no repeated root
    with pytest.raises(errors.NotSquareFree, match=r"factor x\^2-2x\+1 has a repeated root"):
        ramified_prime_bound(product_of([make_poly([1, -2, 1])]))  # (x-1)^2
    rng = random.Random(1717)
    outcomes = {errors.NotSquareFree: 0, errors.ZeroResultant: 0, int: 0}

    def rand_monic(low, high):
        deg = rng.randint(low, high)
        return make_poly([rng.randrange(-6, 7) for _ in range(deg)] + [1])

    for _ in range(300):
        factors = [rand_monic(1, 3) for _ in range(rng.randint(1, 4))]
        kind = rng.randrange(4)
        if kind == 0:  # a squared factor
            f = rand_monic(1, 2)
            factors.insert(rng.randrange(len(factors) + 1), multiply(f, f))
        elif kind == 1:  # (x - a)^2 g
            a = rng.randrange(-5, 6)
            lin = make_poly([-a, 1])
            factors.insert(
                rng.randrange(len(factors) + 1), multiply(multiply(lin, lin), rand_monic(0, 2))
            )
        elif kind == 2:  # two factors sharing a root
            shared = rand_monic(1, 2)
            factors.append(multiply(shared, rand_monic(0, 1)))
            factors.insert(rng.randrange(len(factors)), multiply(shared, rand_monic(0, 1)))
        F = product_of(factors)
        expected = _delta_by_gcd_pass(F)
        if expected in (errors.NotSquareFree, errors.ZeroResultant):
            with pytest.raises(expected):
                ramified_prime_bound(F)
            outcomes[expected] += 1
        else:
            assert ramified_prime_bound(F) == expected, factored_text(F)
            outcomes[int] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_ramified_prime_bound_frozen():
    assert ramified_prime_bound(product_of([X2M2, X2M3, X2M6])) == 331776
    assert ramified_prime_bound(product_of([X2P108, X3P2])) == 58773309696
    assert ramified_prime_bound(product_of([make_poly([-7, 1])])) == 1
    with pytest.raises(errors.NotSquareFree):
        ramified_prime_bound(product_of([make_poly([1, -2, 1])]))
    with pytest.raises(errors.ZeroResultant):
        ramified_prime_bound(product_of([X2M2, multiply(X2M2, X2M3)]))


def test_inseparable_primes_divide_bound():
    rng = random.Random(31337)
    small_primes = [p for p in range(2, 1000) if all(p % d for d in range(2, p))]
    for _ in range(100):
        factors = []
        seen = set()
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            f = make_poly([rng.randrange(-9, 10) for _ in range(d)] + [1])
            key = f.coeffs
            if key in seen:
                continue
            seen.add(key)
            factors.append(f)
        try:
            F = product_of(factors)
            delta = ramified_prime_bound(F)
        except (errors.NotSquareFree, errors.ZeroResultant):
            continue
        for p in small_primes:
            if not _is_squarefree_mod(F.product.coeffs, p):
                assert delta % p == 0, (factored_text(F), p)


def test_parse_and_format_round_trip():
    for text, coeffs in [
        ("x^2-2", (-2, 0, 1)),
        ("x^3+2", (2, 0, 0, 1)),
        (" x ^ 2 + 108 ", (108, 0, 1)),
        ("-x+1", (1, -1)),
        ("2x^3-x+17", (17, -1, 0, 2)),
        ("5", (5,)),
        ("x", (0, 1)),
        ("3x", (0, 3)),
        ("x^2+x+x", (0, 2, 1)),
    ]:
        assert parse_poly(text).coeffs == coeffs
    rng = random.Random(8)
    for _ in range(100):
        deg = rng.randint(0, 7)
        coeffs = [rng.randrange(-20, 21) for _ in range(deg)] + [rng.choice([1, 2, -1, 7])]
        f = make_poly(coeffs)
        assert parse_poly(poly_text(f)) == f


def test_parse_rejects_bad_input():
    for bad in ["", "   ", "x^2-", "0.5x", "x**2", "y+1", "x^2+", "x^-2", "++x", "2.0"]:
        with pytest.raises(errors.ParseError):
            parse_poly(bad)
    with pytest.raises(errors.ParseError):
        parse_factors(" ; ")


def test_parse_caps_degree_and_digits():
    # both caps raise typed errors before any large allocation or int()
    assert parse_poly(f"x^{MAX_PARSE_DEGREE}+1").degree == MAX_PARSE_DEGREE
    for text in (f"x^{MAX_PARSE_DEGREE + 1}", "x^1000000000", "0x^1000000000+x", "x^2+3x^99999"):
        with pytest.raises(errors.DegreeTooLarge):
            parse_poly(text)
    nines = "9" * MAX_PARSE_DIGITS
    assert parse_poly(f"x^2-{nines}").coeffs[0] == -int(nines)
    for text in (f"x^2-{nines}9", f"{nines}9x+1", f"x^{nines}9"):
        with pytest.raises(errors.ParseError):
            parse_poly(text)
    with pytest.raises(errors.ParseError):
        parse_factors(f"x-1; x^2-{'9' * 5000}")


def test_parse_factors_round_trip():
    F = parse_factors("x^2-2; x^2-3; x^2-6")
    assert factored_text(F) == "x^2-2; x^2-3; x^2-6"
    assert F.product.coeffs == (-36, 0, 36, 0, -11, 0, 1)
