"""Prime scanning: sieve, failure sets, verdicts, screen, cache."""

import random
from itertools import permutations

import pytest

from exceptio import errors
from exceptio.intpoly import (
    SWEEP_THRESHOLD,
    discriminant,
    factored_text,
    make_poly,
    multiply,
    parse_factors,
    product_of,
)
from exceptio.primescan import (
    ScanCache,
    exceptional_verdict,
    has_root_mod_m,
    intersective_screen,
    report_payload,
    scan,
    _binomial_kernel,
    _failures,
    _frobenius_kernel,
    _prepare_factor,
    prime_count,
    sieve_primes,
)

from oracles import (
    eval_poly,
    primes_by_trial_division,
    roots_by_sweep,
    segmented_sieve,
    smallest_rootless_modulus,
)

SEXTIC = parse_factors("x^2-2; x^2-3; x^2-6")
QUINTIC = parse_factors("x^2+108; x^3+2")

# quadratic reciprocity: x^2-2 is rootless mod p exactly when p = 3, 5 mod 8
QR_FAILURES_100 = (3, 5, 11, 13, 19, 29, 37, 43, 53, 59, 61, 67, 83)


def test_sieve_examples():
    assert sieve_primes(10).primes == (2, 3, 5, 7)
    assert len(sieve_primes(100).primes) == 25
    assert sieve_primes(2).primes == (2,)
    for sieve in (sieve_primes, prime_count):
        with pytest.raises(errors.LimitTooLarge):
            sieve(10**9 + 1)
        for limit in (1, 0, -5):
            with pytest.raises(errors.BadParameters):
                sieve(limit)


def test_sieve_matches_trial_division():
    assert list(sieve_primes(20_000).primes) == primes_by_trial_division(20_000)


def test_sieve_matches_segmented_sieve():
    # every small limit, both sides of each odd prime square, and both sides
    # of the oracle's first block end (its blocks of 2^17 start at 2)
    limits = list(range(2, 1001))
    for p in primes_by_trial_division(97):
        limits += [p * p - 1, p * p, p * p + 1]
    limits += [(1 << 17) + k for k in (-1, 0, 1, 2)] + [2 << 17, 10**6]
    for limit in limits:
        primes = sieve_primes(limit).primes
        assert primes == segmented_sieve(limit), limit
        assert prime_count(limit) == len(primes), limit


def test_scan_sextic_has_no_failures():
    report = scan(SEXTIC, 10_000)
    assert report.failures == ()
    assert report.primes_scanned == 1229
    assert report.density_estimate == 1
    # cross-check the first primes with a plain residue sweep on the product
    for p in primes_by_trial_division(100):
        assert roots_by_sweep([-36, 0, 36, 0, -11, 0, 1], p), p


def test_scan_x2_minus_2_failures_match_reciprocity():
    report = scan(product_of([make_poly([-2, 0, 1])]), 100)
    assert report.failures == QR_FAILURES_100
    for p in report.failures:
        assert not roots_by_sweep([-2, 0, 1], p)


def test_scan_linear_never_fails():
    report = scan(product_of([make_poly([-1, 1])]), 50)
    assert report.failures == ()
    assert report.density_estimate == 1


def test_scan_failures_are_prefix_stable():
    f = product_of([make_poly([-2, 0, 1])])
    small = scan(f, 100)
    large = scan(f, 1000)
    assert large.failures[: len(small.failures)] == small.failures
    assert small.failures == tuple(p for p in large.failures if p <= 100)


def test_scan_deterministic_under_partitioning():
    report_seq = scan(QUINTIC, 20_000)
    # explicit fragment merge equals the sequential scan
    primes = sieve_primes(20_000).primes
    prepared = [_prepare_factor(f) for f in QUINTIC.factors]
    merged = []
    for i in range(0, len(primes), 997):
        merged.extend(_failures(prepared, primes[i : i + 997]))
    assert tuple(merged) == report_seq.failures


def test_scan_generic_path_agrees_with_fast_paths():
    # same factors, once as binomials and once perturbed to generic form
    rng = random.Random(7)
    primes = sieve_primes(3000).primes
    for coeffs in [[-2, 0, 1], [2, 0, 0, 1], [-1, -1, 0, 1], [3, -1, 2, 1]]:
        f = make_poly(coeffs)
        prepared = [_prepare_factor(f)]
        fails = set(_failures(prepared, primes))
        sample = rng.sample(primes, 60)
        for p in sample:
            assert (p in fails) == (not roots_by_sweep(coeffs, p)), (coeffs, p)


def _has_root_by_sweep(coeffs, p):
    return any(eval_poly(coeffs, x) % p == 0 for x in range(p))


def test_root_kernels_match_residue_sweep():
    # every degree-chosen kernel: all primes to 300 (p = 2, 3 and both sides
    # of the sweep limit) plus a sample of primes to 10^4; cubics also the
    # cyclic x^3 - 3x + 1 (disc 81, so the Stickelberger test never decides)
    # and more random ones at more primes above the sweep limit
    rng = random.Random(11)
    small = primes_by_trial_division(300)
    large = [p for p in sieve_primes(10_000).primes if p > 300]
    inputs = []
    for degree in range(2, 9):
        for _ in range(4):
            inputs.append(([rng.randint(-50, 50) for _ in range(degree)] + [1], small + rng.sample(large, 8)))
    above = [p for p in large if p > SWEEP_THRESHOLD]
    for coeffs in [[1, -3, 0, 1]] + [[rng.randint(-50, 50) for _ in range(3)] + [1] for _ in range(8)]:
        inputs.append((coeffs, small + rng.sample(above, 24)))
    for coeffs, primes in inputs:
        kernels = [_prepare_factor(make_poly(coeffs))]
        if 3 <= len(coeffs) - 1 <= 5:  # the generic list loop on the unrolled degrees too
            kernels.append(_frobenius_kernel(make_poly(coeffs)))
        for p in primes:
            expected = _has_root_by_sweep(coeffs, p)
            assert [has_root(p) for has_root in kernels] == [expected] * len(kernels), (coeffs, p)


def test_binomial_kernel_matches_brute_force():
    # x^n - c at every prime to 3000, p = 2 included, against the n-th powers
    # of all residues (and the brute-force sweep below 200); when
    # gcd(n, p - 1) = 1 the kernel answers before its pow
    rng = random.Random(13)
    for n in (2, 3, 5, 6, 7):
        for p in primes_by_trial_division(3000):
            powers = {pow(x, n, p) for x in range(p)}
            for c in [0, 1, -1, p, -3 * p, p + 1] + [rng.randint(-10**6, 10**6) for _ in range(3)]:
                expected = c % p in powers
                assert _binomial_kernel(n, c)(p) == expected, (n, c, p)
                if p < 200:
                    f = make_poly([-c] + [0] * (n - 1) + [1])
                    assert (has_root_mod_m(f, p) is not None) == expected, (n, c, p)


def test_root_kernels_on_degenerate_reductions():
    # f mod p divisible by x, f mod p a binomial, cubics and quadratics with
    # p | disc
    rng = random.Random(12)
    for p in (2, 3, 5, 7, 257, 263, 1009, 7919):
        for degree in range(3, 8):
            middle = [p * rng.randint(1, 9) for _ in range(degree - 1)]
            with_x = [p * rng.randint(-9, 9)] + [rng.randint(-50, 50) for _ in range(degree - 1)] + [1]
            binomial = [rng.randint(-50, 50)] + middle + [1]
            for coeffs in (with_x, binomial):
                assert _prepare_factor(make_poly(coeffs))(p) == _has_root_by_sweep(coeffs, p), (coeffs, p)
        for _ in range(5):
            # (x - r)^2 (x - s) + p g with deg g <= 2 has a double root mod p
            r, s = rng.randint(-50, 50), rng.randint(-50, 50)
            lift = [p * rng.randint(-9, 9) for _ in range(3)]
            coeffs = [a + b for a, b in zip([-r * r * s, r * r + 2 * r * s, -2 * r - s], lift)] + [1]
            assert discriminant(make_poly(coeffs)) % p == 0
            assert _prepare_factor(make_poly(coeffs))(p) == _has_root_by_sweep(coeffs, p), (coeffs, p)
        for _ in range(5):
            r, t = rng.randint(1, 50), rng.randint(1, 9)
            # x^2 - 2r x + r^2 + p t has discriminant -4 p t and a double root r mod p
            coeffs = [r * r + p * t, -2 * r, 1]
            assert _prepare_factor(make_poly(coeffs))(p), (coeffs, p)
            assert _has_root_by_sweep(coeffs, p)


def test_scan_chunk_mixed_product_matches_sweep():
    factors = [[-5, 0, 0, 1], [7, 3, 1], [3, 1, 0, 0, 0, 1], [-2, 5, 1, 0, -3, 0, 1]]
    prepared = [_prepare_factor(make_poly(c)) for c in factors]
    primes = sieve_primes(1500).primes
    expected = [p for p in primes if not any(_has_root_by_sweep(c, p) for c in factors)]
    assert expected  # the product fails somewhere, so the merge is exercised
    assert list(_failures(prepared, primes)) == expected
    # factors are tried cheapest first; the failure set is the same in any order
    for perm in permutations(factors):
        assert scan(product_of([make_poly(c) for c in perm]), 1500).failures == tuple(expected), perm


def test_exceptional_verdict_examples():
    verdict = exceptional_verdict(QUINTIC, 10_000)
    assert verdict.tag == "ExceptionalLikely"
    report = scan(QUINTIC, 10_000)
    for p in verdict.failures:
        assert report.delta % p == 0

    verdict = exceptional_verdict(product_of([make_poly([-2, 0, 1])]), 100)
    assert verdict.tag == "NotExceptional"
    assert verdict.witness_prime == 3  # 3 does not divide delta = 8

    trivial = exceptional_verdict(parse_factors("x-1; x^2+1"), 100)
    assert trivial.tag == "HasIntegerRoot"
    assert trivial.root == 1

    with pytest.raises(errors.BadParameters):
        exceptional_verdict(QUINTIC, 1)


def _generic_factor(rng, degree):
    return [rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(degree - 2)] + [1]


def test_verdict_witness_consistency():
    # the verdict that stops at the first witness equals the one read from a
    # full report: seeded generic factors of degree 2-6, mixed binomial and
    # generic products, and cubics times their resolvent x^2 - disc, which
    # are exceptional, so the whole failure set must match
    rng = random.Random(13)
    # x^4+2x^2+4 = (x^2+1)^2 mod 3 fails first at the ramified prime 3
    texts = [("x^2-2", 200), ("x^2-5", 200), ("x^3-2; x^2+1", 500), ("x^4+2x^2+4", 4), ("x^4+2x^2+4", 200)]
    inputs = [(parse_factors(text), limit) for text, limit in texts]
    for degree in range(2, 7):
        inputs += [(product_of([make_poly(_generic_factor(rng, degree))]), 3000) for _ in range(3)]
    for _ in range(8):
        n = rng.choice((2, 3))
        binomial = [rng.choice((-1, 1)) * rng.randint(2, 60)] + [0] * (n - 1) + [1]
        factors = [binomial, _generic_factor(rng, rng.randint(2, 5))]
        rng.shuffle(factors)
        inputs.append((product_of([make_poly(c) for c in factors]), 3000))
    resolvents = 0
    while resolvents < 3:
        cubic = make_poly(_generic_factor(rng, 3))
        F = product_of([cubic, make_poly([-discriminant(cubic), 0, 1])])
        if exceptional_verdict(F, 3000).tag == "ExceptionalLikely":
            inputs.append((F, 3000))
            resolvents += 1
    for F, limit in inputs:
        verdict = exceptional_verdict(F, limit)
        report = scan(F, limit)
        assert verdict == exceptional_verdict(F, limit, report=report), F.factors
        if verdict.tag == "NotExceptional":
            assert report.delta % verdict.witness_prime != 0
        elif verdict.tag == "ExceptionalLikely":
            assert verdict.failures == report.failures
            assert all(report.delta % p == 0 for p in verdict.failures)


def test_has_root_mod_m_examples():
    assert has_root_mod_m(SEXTIC.product, 64) is None
    assert has_root_mod_m(QUINTIC.product, 64) is None
    assert has_root_mod_m(make_poly([-1, 0, 1]), 8) == 1
    with pytest.raises(errors.ModulusTooLarge):
        has_root_mod_m(make_poly([-1, 0, 1]), 10**8 + 1)
    with pytest.raises(errors.BadParameters):
        has_root_mod_m(make_poly([-1, 0, 1]), 1)


def test_intersective_screen_golden_examples():
    # The quintic first fails at 2^6.  The sextic already fails at 8: squares
    # mod 8 are {0,1,4} and the three factors evaluate to units there (the
    # criterion-2 value 64 holds only for the quintic; see the sweep below).
    assert intersective_screen(QUINTIC, 100) == 64
    assert intersective_screen(SEXTIC, 100) == 8
    for m in range(2, 8):
        assert any(eval_poly([-36, 0, 36, 0, -11, 0, 1], x) % m == 0 for x in range(m))
    assert all(eval_poly([-36, 0, 36, 0, -11, 0, 1], x) % 8 for x in range(8))
    for m in range(2, 64):
        assert any(eval_poly([216, 0, 2, 108, 0, 1], x) % m == 0 for x in range(m))
    assert all(eval_poly([216, 0, 2, 108, 0, 1], x) % 64 for x in range(64))


def test_intersective_screen_matches_every_modulus_sweep():
    # only prime powers are tried; the oracle tries every modulus
    rng = random.Random(20240611)
    cases = [(SEXTIC, 100), (QUINTIC, 100), (parse_factors("x^2-13; x^2-17; x^2-221"), 300)]
    while len(cases) < 40:
        factors = [
            make_poly([rng.randint(-40, 40) for _ in range(rng.randint(1, 3))] + [1])
            for _ in range(rng.randint(1, 3))
        ]
        cases.append((product_of(factors), rng.randint(2, 2000)))
    failing = set()
    for F, bound in cases:
        expected = smallest_rootless_modulus(list(F.product.coeffs), bound)
        assert intersective_screen(F, bound) == expected, (F, bound)
        failing.add(expected)
    # the cases reach odd prime, prime-power and no failing moduli
    assert {None, 8, 64} <= failing
    assert failing & set(primes_by_trial_division(2000)[1:])


def test_intersective_screen_trivial():
    assert intersective_screen(product_of([make_poly([-1, 1])]), 100) is None


def test_cache_roundtrip(tmp_path):
    cache = ScanCache(tmp_path)
    direct = scan(SEXTIC, 1000)
    first = cache.scan_cached(SEXTIC, 1000)
    second = cache.scan_cached(SEXTIC, 1000)
    assert first == direct == second
    path = cache.path_for(direct.poly_key)
    assert path.exists()
    assert path.read_text().splitlines() == ["1000\t"]


def test_cache_extension_preserves_prefix(tmp_path):
    cache = ScanCache(tmp_path)
    f = product_of([make_poly([-2, 0, 1])])
    small = cache.scan_cached(f, 100)
    large = cache.scan_cached(f, 1000)
    largest = cache.scan_cached(f, 3000)
    assert large == scan(f, 1000) and largest == scan(f, 3000)
    assert largest.failures[: len(large.failures)] == large.failures
    assert large.failures[: len(small.failures)] == small.failures
    # a miss and two extensions leave one line, at the largest limit
    path = cache.path_for(small.poly_key)
    assert path.read_text() == "3000\t" + ",".join(map(str, largest.failures)) + "\n"
    assert cache.load(small.poly_key) == [(3000, largest.failures)]
    # shrinking below the recorded limit filters, never rescans or rewrites
    shrunk = cache.scan_cached(f, 50)
    assert shrunk == scan(f, 50)
    assert cache.load(small.poly_key) == [(3000, largest.failures)]
    assert list(tmp_path.iterdir()) == [path]


def test_cache_write_failure_raises_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cache = ScanCache(blocker / "cache")
    with pytest.raises(errors.CacheIoError):
        cache.scan_cached(product_of([make_poly([-2, 0, 1])]), 100)


def test_cache_corruption_falls_back_to_rescan(tmp_path):
    # an unreadable line, or the multi-line log an earlier version appended,
    # is rescanned once and replaced by one line
    cache = ScanCache(tmp_path)
    f = product_of([make_poly([-2, 0, 1])])
    report = cache.scan_cached(f, 100)
    path = cache.path_for(report.poly_key)
    line = "100\t" + ",".join(map(str, report.failures)) + "\n"
    for text in ("100\tnot,numbers\n", "50\t3,5,11,13,19,29,37,43\n" + line):
        path.write_text(text)
        with pytest.raises(errors.CorruptCacheEntry):
            cache.load(report.poly_key)
        again = cache.scan_cached(f, 100)
        assert again == report
        assert path.read_text() == line


def test_cache_load_checks_its_one_line(tmp_path):
    # the file is one line whose failures rise strictly and end at or below
    # its limit; anything else, the multi-line logs of earlier versions
    # included, is corrupt
    cache = ScanCache(tmp_path)
    key = "x^2-2"
    path = cache.path_for(key)
    for text, expected in [
        (b"100\t3,5,5\n", None),
        (b"100\t3,7,5\n", None),
        (b"100\t3,5,101\n", None),
        (b"100\t3,5", None),
        (b"", None),
        (b"\xff\xfe\n", None),
        (b"100\t3,5\n1000\t3,5\n", None),
        (b"\n100\t3,5\n", None),
        (b"100\t\n", [(100, ())]),
        (b"100\t3,5\n", [(100, (3, 5))]),
    ]:
        path.write_bytes(text)
        if expected is None:
            with pytest.raises(errors.CorruptCacheEntry):
                cache.load(key)
        else:
            assert cache.load(key) == expected, text


def test_cache_keeps_the_previous_entry_when_replace_fails(tmp_path, monkeypatch):
    cache = ScanCache(tmp_path)
    f = product_of([make_poly([-2, 0, 1])])
    report = cache.scan_cached(f, 100)
    path = cache.path_for(report.poly_key)
    before = path.read_bytes()

    def refuse(src, dst):
        raise PermissionError("replace refused")

    monkeypatch.setattr("exceptio.primescan.os.replace", refuse)
    with pytest.raises(errors.CacheIoError):
        cache.scan_cached(f, 1000)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    assert cache.scan_cached(f, 100) == report


def test_cache_never_reads_a_leftover_temp_file(tmp_path):
    # a writer that died between its write and its replace leaves a temp
    # file; its content, here a false claim of no failures, is never read
    cache = ScanCache(tmp_path)
    f = product_of([make_poly([-2, 0, 1])])
    key = factored_text(f)
    path = cache.path_for(key)
    leftover = path.with_name(path.name + ".1.tmp")
    leftover.write_text("100000\t\n")
    assert cache.load(key) == []
    assert cache.scan_cached(f, 1000) == scan(f, 1000)
    assert cache.scan_cached(f, 500) == scan(f, 500)
    assert leftover.read_text() == "100000\t\n"


def test_pattern_frequencies_match_cycle_type_densities():
    # Frobenius correspondence for x^3 - 2: factorisation patterns at
    # unramified primes distribute like the cycle types of its S_3 action
    from collections import Counter
    from itertools import permutations

    from exceptio.intpoly import factorisation_pattern, reduce_mod

    def cycle_type(perm):
        seen, lengths = set(), []
        for start in range(len(perm)):
            if start in seen:
                continue
            length, here = 0, start
            while here not in seen:
                seen.add(here)
                here = perm[here]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

    expected = Counter(cycle_type(g) for g in permutations(range(3)))
    f = make_poly([-2, 0, 0, 1])
    primes = sieve_primes(25_000).primes
    observed = Counter()
    for p in primes:
        if 108 % p == 0:  # skip the ramified primes 2, 3
            continue
        observed[factorisation_pattern(reduce_mod(f, p)).degrees] += 1
    total = sum(observed.values())
    assert set(observed) == {(1, 1, 1), (1, 2), (3,)}
    for pattern, count in expected.items():
        assert abs(observed[pattern] / total - count / 6) < 0.02, pattern


def test_scan_propagates_polynomial_errors():
    # scan and the verdict compute the ramified bound, so ineligible inputs
    # surface the underlying polynomial errors
    shared_root = product_of([make_poly([-2, 0, 1]), make_poly([-2, 0, 1])])
    with pytest.raises(errors.ZeroResultant):
        scan(shared_root, 100)
    with pytest.raises(errors.ZeroResultant):
        exceptional_verdict(shared_root, 100)

    squared = product_of([multiply(make_poly([-1, 1]), make_poly([-1, 1]))])
    with pytest.raises(errors.NotSquareFree):
        scan(squared, 100)
    # the integer root is found before the bound is computed
    assert exceptional_verdict(squared, 100).tag == "HasIntegerRoot"
    with pytest.raises(errors.NotSquareFree):
        exceptional_verdict(product_of([multiply(make_poly([-2, 0, 1]), make_poly([-2, 0, 1]))]), 100)


def test_report_payload_schema():
    report = scan(SEXTIC, 1000)
    verdict = exceptional_verdict(SEXTIC, 1000, report=report)
    payload = report_payload(report, verdict)
    assert list(payload) == [
        "poly",
        "limit",
        "primes_scanned",
        "failures",
        "density",
        "delta",
        "verdict",
    ]
    assert payload["poly"] == "x^2-2; x^2-3; x^2-6"
    assert payload["density"] == "1"
    assert payload["verdict"] == {"tag": "ExceptionalLikely", "failures": []}
