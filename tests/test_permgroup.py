"""Permutation groups: closure, coverage, densities, index-two criteria."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from exceptio import errors
from exceptio.permgroup import (
    MAX_GROUP_FILE_DEGREE,
    admits_quadratic_completion,
    all_transitive_subgroups,
    chebotarev_root_density,
    dihedral_group,
    fixed_point_count,
    format_cycles,
    frobenius_group,
    generate_group,
    group_payload,
    has_fixed_point_coverage,
    identity,
    index2_subgroups,
    inverse,
    is_transitive,
    orbit_count,
    parse_cycles,
    parse_group_file,
    unique_fp_coset_condition,
)

from oracles import index2_subgroups_by_sign_sweep, is_index_two_subgroup, transitive_subgroups_by_closure

C3 = generate_group([(1, 2, 0)])
S3 = generate_group([(1, 2, 0), (1, 0, 2)])
KLEIN4 = generate_group([(1, 0, 3, 2), (2, 3, 0, 1)])
# (x^2-2)(x^2-3)(x^2-6) acting on the six roots, paired as (0 1), (2 3), (4 5)
KLEIN_SEXTIC = generate_group([(1, 0, 2, 3, 5, 4), (0, 1, 3, 2, 5, 4)])
S4 = generate_group([(1, 0, 2, 3), (1, 2, 3, 0)])


def test_generate_group_examples():
    assert C3.order == 3
    assert S3.order == 6
    assert KLEIN4.elements == (
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    )
    with pytest.raises(errors.DegreeMismatch):
        generate_group([(1, 0), (1, 2, 0)])
    with pytest.raises(errors.GroupTooLarge):  # S9 has 362 880 > DEFAULT_CAP elements
        parse_group_file("degree 9\n(0 1 2 3 4 5 6 7 8)\n(0 1)\n")


def test_group_closure_properties():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randint(2, 6)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        G = generate_group(gens)
        members = set(G.elements)
        assert identity(n) in members
        for g in G.elements:
            assert inverse(g) in members
        sample = rng.sample(G.elements, min(12, G.order))
        for a in sample:
            for b in sample:
                assert tuple(a[x] for x in b) in members  # a after b


def test_fixed_point_coverage():
    covered, witness = has_fixed_point_coverage(KLEIN_SEXTIC)
    assert covered and witness is None
    covered, witness = has_fixed_point_coverage(S3)
    assert not covered
    assert witness == (1, 2, 0)  # the 3-cycle, lexicographically first
    covered, _ = has_fixed_point_coverage(generate_group([identity(3)]))
    assert covered


def test_chebotarev_root_density():
    assert chebotarev_root_density(generate_group([(1, 0)])) == Fraction(1, 2)
    assert chebotarev_root_density(S3) == Fraction(2, 3)
    assert chebotarev_root_density(KLEIN_SEXTIC) == 1


def test_orbit_counts():
    assert is_transitive(S3) and orbit_count(S3) == 1
    assert orbit_count(KLEIN_SEXTIC) == 3  # Burnside: (6+2+2+2)/4
    assert orbit_count(generate_group([identity(4)])) == 4


def test_burnside_identity_random_groups():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 6)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 2))]
        G = generate_group(gens)
        total = sum(fixed_point_count(g) for g in G.elements)
        assert total == G.order * orbit_count(G)
        assert (chebotarev_root_density(G) == 1) == has_fixed_point_coverage(G)[0]


def test_index2_subgroups():
    subs = index2_subgroups(KLEIN4)
    assert len(subs) == 3
    for H in subs:
        assert len(H) == 2
    assert index2_subgroups(C3) == []
    d5 = dihedral_group(5)
    subs = index2_subgroups(d5)
    assert len(subs) == 1
    rotations = tuple(sorted(tuple((i + k) % 5 for i in range(5)) for k in range(5)))
    assert subs[0] == rotations


def test_index2_subgroups_match_the_sign_sweep():
    # one parity labelling against trying every sign assignment
    rng = random.Random(2407)
    groups = [G for n in (3, 4, 5) for G in all_transitive_subgroups(n)]
    for _ in range(60):
        n = rng.randint(2, 7)
        groups.append(generate_group([tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 6))]))
    for G in groups:
        assert index2_subgroups(G) == index2_subgroups_by_sign_sweep(G), G.generators


def _all_subgroups_brute(G):
    # staged closure of generator sets of size <= 3, independent of the
    # sign-character method
    from exceptio.permgroup import _closure

    found = {frozenset({identity(G.degree)}): ()}
    frontier = list(found)
    for _ in range(3):
        fresh = []
        for elems in frontier:
            for h in G.elements:
                if h in elems:
                    continue
                bigger = frozenset(_closure(sorted(elems | {h}), len(G.elements)))
                if bigger not in found:
                    found[bigger] = None
                    fresh.append(bigger)
        frontier = fresh
    return set(found)


def test_index2_subgroups_complete_against_brute_force():
    d6 = dihedral_group(6)
    cases = [KLEIN4, S4, d6, generate_group([(1, 2, 3, 0)]), dihedral_group(4)]
    for G in cases:
        half = G.order // 2
        brute = {
            tuple(sorted(H)) for H in _all_subgroups_brute(G) if len(H) == half
        }
        assert set(index2_subgroups(G)) == brute, G.generators
    # S4 has exactly one (the even permutations), D6 has three
    assert len(index2_subgroups(S4)) == 1
    assert len(index2_subgroups(d6)) == 3


def test_unique_fp_coset_condition():
    d3 = dihedral_group(3)
    rot3 = tuple(sorted(tuple((i + k) % 3 for i in range(3)) for k in range(3)))
    check = unique_fp_coset_condition(d3, rot3)
    assert check.verdict and check.violations == ()

    d4 = dihedral_group(4)
    rot4 = tuple(sorted(tuple((i + k) % 4 for i in range(4)) for k in range(4)))
    check = unique_fp_coset_condition(d4, rot4)
    assert not check.verdict
    for g in check.violations:
        assert fixed_point_count(g) in (0, 2)

    c2 = generate_group([(1, 0)])
    check = unique_fp_coset_condition(c2, [identity(2)])
    assert not check.verdict  # the swap fixes nothing

    with pytest.raises(errors.NotIndexTwo):
        unique_fp_coset_condition(d4, rot3)


def test_coset_condition_refuses_what_is_not_an_index_two_subgroup():
    c4 = generate_group([(1, 2, 3, 0)])
    e = identity(4)
    for H in ([e, e], [e, (1, 0, 2, 3)], [e, (1, 2, 3, 0)]):
        # a repeated member, a permutation outside C4, a set not closed
        with pytest.raises(errors.NotIndexTwo):
            unique_fp_coset_condition(c4, H)
    check = unique_fp_coset_condition(c4, [e, (2, 3, 0, 1)])
    assert check.violations == ((1, 2, 3, 0), (3, 0, 1, 2))


def test_coset_condition_matches_pairwise_subgroup_oracle():
    # the whole group, every kernel, every kernel with one member swapped for
    # an element outside it, and seeded half-size sets holding the identity
    d4_rotation, d4_reflection = (1, 2, 3, 0), (0, 3, 2, 1)
    groups = [
        S3,
        generate_group([(1, 2, 3, 0)]),
        KLEIN4,
        dihedral_group(4),
        dihedral_group(5),
        dihedral_group(6),
        generate_group([parse_cycles("(0 1 2)", 4), parse_cycles("(1 2 3)", 4)]),  # A4
        S4,
        generate_group([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)]),  # F20
        KLEIN_SEXTIC,
        # generator lists with a repeat or the identity
        generate_group([(1, 0, 2), (1, 2, 0), (1, 0, 2)]),
        generate_group([(1, 2, 3, 0), (1, 2, 3, 0)]),
        generate_group([identity(4), (1, 0, 3, 2), (2, 3, 0, 1)]),
        generate_group([d4_rotation, d4_reflection, identity(4), d4_reflection]),
    ]
    rng = random.Random(1806)
    for G in groups:
        e = identity(G.degree)
        candidates = [G.elements]
        for H in index2_subgroups(G):
            assert is_index_two_subgroup(G, H)
            candidates.append(H)
            outside = [g for g in G.elements if g not in set(H)]
            candidates += [H[:i] + (g,) + H[i + 1 :] for i in range(len(H)) for g in outside]
        others = [g for g in G.elements if g != e]
        candidates += [(e, *rng.sample(others, G.order // 2 - 1)) for _ in range(20)]
        for H in candidates:
            if not is_index_two_subgroup(G, H):
                with pytest.raises(errors.NotIndexTwo):
                    unique_fp_coset_condition(G, H)
                continue
            check = unique_fp_coset_condition(G, H)
            expected = tuple(g for g in G.elements if g not in set(H) and fixed_point_count(g) != 1)
            assert check.violations == expected
            assert check.verdict == (not expected)


def test_admits_quadratic_completion():
    d5 = dihedral_group(5)
    H = admits_quadratic_completion(d5)
    assert H is not None and len(H) == 5
    assert admits_quadratic_completion(S4) is None
    assert admits_quadratic_completion(generate_group([(1, 0)])) is None
    with pytest.raises(errors.NotTransitive):
        admits_quadratic_completion(KLEIN_SEXTIC)


def test_dihedral_groups():
    assert dihedral_group(3).elements == S3.elements == tuple(sorted(permutations(range(3))))
    assert dihedral_group(5).order == 10
    assert dihedral_group(4).order == 8
    with pytest.raises(errors.DegreeTooSmall):
        dihedral_group(2)


def test_dihedral_coset_condition_parity():
    for n in range(3, 16):
        G = dihedral_group(n)
        subs = index2_subgroups(G)
        rotations = tuple(sorted(tuple((i + k) % n for i in range(n)) for k in range(n)))
        if n % 2:
            assert subs == (rotations,) or subs == [rotations]
            assert unique_fp_coset_condition(G, rotations).verdict
        else:
            assert not unique_fp_coset_condition(G, rotations).verdict


def test_frobenius_group_examples():
    F21 = frobenius_group(7, 3)
    assert F21.order == 21
    order7 = tuple(sorted(tuple((i + k) % 7 for i in range(7)) for k in range(7)))
    for g in F21.elements:
        if g not in order7:
            assert fixed_point_count(g) == 1
    assert frobenius_group(5, 2).elements == dihedral_group(5).elements
    with pytest.raises(errors.BadParameters):
        frobenius_group(5, 3)
    with pytest.raises(errors.BadParameters):
        frobenius_group(9, 2)


def test_index2_coset_consequences():
    # whenever every element outside an index-2 subgroup has some fixed point,
    # each has exactly one and the subgroup acts transitively
    groups = [dihedral_group(n) for n in (3, 5, 7, 9)]
    groups += [frobenius_group(7, 3), frobenius_group(11, 5), frobenius_group(13, 3)]
    for G in groups:
        assert is_transitive(G)
        for H in index2_subgroups(G):
            outside = [g for g in G.elements if g not in set(H)]
            if all(fixed_point_count(g) >= 1 for g in outside):
                assert all(fixed_point_count(g) == 1 for g in outside)
                sub = generate_group(H)
                assert is_transitive(sub)


def test_frobenius_normal_subgroup_coset_consequences():
    # the odd-order analogue: outside the normal order-p subgroup every
    # element fixes exactly one point, and that subgroup acts transitively
    for p, q in ((7, 3), (11, 5), (13, 3)):
        G = frobenius_group(p, q)
        translations = tuple(sorted(tuple((i + b) % p for i in range(p)) for b in range(p)))
        assert set(translations) <= set(G.elements)
        assert is_transitive(generate_group(translations))
        for g in G.elements:
            if g not in set(translations):
                assert fixed_point_count(g) == 1, (p, q, g)


def test_all_transitive_subgroups_degree_3_and_4():
    deg3 = all_transitive_subgroups(3)
    assert [G.order for G in deg3] == [3, 6]
    deg4 = all_transitive_subgroups(4)
    assert len(deg4) == 9
    orders = sorted(G.order for G in deg4)
    assert orders == [4, 4, 4, 4, 8, 8, 8, 12, 24]
    with pytest.raises(errors.DegreeTooLarge):
        all_transitive_subgroups(6)
    with pytest.raises(errors.DegreeTooSmall):
        all_transitive_subgroups(2)


def test_transitive_subgroups_match_closure_search():
    # conjugates of the listed class representatives against the closure of
    # every generator set of size <= 3
    for n in (3, 4, 5):
        groups = all_transitive_subgroups(n)
        assert [G.elements for G in groups] == transitive_subgroups_by_closure(n)
        for G in groups:
            assert generate_group(G.generators).elements == G.elements
            assert is_transitive(G)


def test_no_degree4_quadratic_completion():
    for G in all_transitive_subgroups(4):
        assert admits_quadratic_completion(G) is None


def test_transitive_subgroups_degree_5_include_order_20():
    deg5 = all_transitive_subgroups(5)
    assert 20 in {G.order for G in deg5}
    # the degree-5 groups admitting a completion: the six dihedral copies and
    # the six affine F20 copies (outside their index-2 subgroup every affine
    # map x -> ax + b has a != 1, hence exactly one fixed point)
    admitting = sorted(G.order for G in deg5 if admits_quadratic_completion(G) is not None)
    assert admitting == [10] * 6 + [20] * 6


def test_cycle_notation_round_trip():
    g = parse_cycles("(0 1 2)(3 4)", 5)
    assert g == (1, 2, 0, 4, 3)
    assert format_cycles(g) == "(0 1 2)(3 4)"
    assert parse_cycles("()", 4) == identity(4)
    assert format_cycles(identity(4)) == "()"
    for bad in ["", "(0 1", "0 1 2", "(0 1)(1 2)", "(0 9)", "(a b)"]:
        with pytest.raises(errors.ParseError):
            parse_cycles(bad, 4)


def test_group_file_round_trip():
    text = "degree 5\n(0 1 2 3 4)\n(1 4)(2 3)\n"
    G = parse_group_file(text)
    assert G.elements == dihedral_group(5).elements
    text = "\n".join([f"degree {G.degree}", *map(format_cycles, G.generators)]) + "\n"
    assert parse_group_file(text).elements == G.elements
    assert parse_group_file("degree 3\n").order == 1
    for bad in ["", "degree x\n", "5\n(0 1)", "degree \u00b2\n(0 1)\n"]:
        with pytest.raises(errors.ParseError):
            parse_group_file(bad)


def test_group_file_degree_cap():
    # refused from the header, before any permutation is built
    with pytest.raises(errors.DegreeTooLarge):
        parse_group_file(f"degree {MAX_GROUP_FILE_DEGREE + 1}\n(0 1)\n")
    with pytest.raises(errors.DegreeTooLarge):
        parse_group_file("degree " + "9" * 5000 + "\n(0 1)\n")
    assert parse_group_file(f"degree {MAX_GROUP_FILE_DEGREE}\n(0 1)\n").order == 2


def test_group_payload_schema():
    payload = group_payload(dihedral_group(5))
    assert list(payload) == ["order", "transitive", "coverage", "density", "quad_completion"]
    assert payload["order"] == 10
    assert payload["transitive"] is True
    assert payload["coverage"] is False
    assert payload["density"] == "3/5"
    assert payload["quad_completion"] is not None
    intransitive = group_payload(KLEIN_SEXTIC)
    assert intransitive["quad_completion"] is None
    assert intransitive["coverage"] is True
    assert intransitive["density"] == "1"
