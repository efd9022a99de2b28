"""Constructions: orbit families, the two Furino paths, the cyclotomic
half-class family, unit matrices, the padded product, Singer sets, and the
two divisible-set builders."""

import math
from collections import Counter
from itertools import combinations

import pytest

from diffam import algebra, constructions
from diffam.algebra import (
    ExhaustiveCapError,
    GroupDescriptor,
    Isomorphism,
    RingDescriptor,
    ScalarAction,
    build_ring,
    cyclic_group,
    unit_subgroup_of_order,
)
from diffam.constructions import (
    ConstructionError,
    NotSemiregularError,
    _least_semiregular_unit,
    cyclotomic_half_ddf,
    dds_from_ds,
    furino_ddf,
    orbit_ddf,
    orbit_ddf_split,
    product_ddf,
    result1_ddf,
    result3star_dds,
    singer_ds,
    trivial_ds,
    units_hdm,
)
from diffam.designs import (
    DDSParams,
    DSParams,
    Family,
    classify_family,
    delta_multiset,
    extend_to_pdf,
    hdm_to_dm,
    normalize_dm,
    verify_dds,
    verify_df,
    verify_dm,
    verify_ds,
    verify_hdm,
)

# ---------------------------------------------------------------------------
# orbit families
# ---------------------------------------------------------------------------


def test_orbit_ddf_z7():
    g = cyclic_group(7)
    fam = orbit_ddf(g, ScalarAction(g, 2))
    assert fam.blocks == (((1,), (2,), (4,)), ((3,), (5,), (6,)))
    assert verify_df(fam, 2).ok
    assert classify_family(fam) == "disjoint"
    assert fam.uncovered() == [(0,)]


def test_orbit_ddf_z13():
    g = cyclic_group(13)
    fam = orbit_ddf(g, ScalarAction(g, 3))
    assert fam.blocks == (
        ((1,), (3,), (9,)),
        ((2,), (5,), (6,)),
        ((4,), (10,), (12,)),
        ((7,), (8,), (11,)),
    )
    assert verify_df(fam, 2).ok


def test_orbit_ddf_rejects_fixed_points():
    g = cyclic_group(8)
    with pytest.raises(NotSemiregularError) as info:
        orbit_ddf(g, ScalarAction(g, 3))
    assert info.value.witness == ((4,), 1)
    assert "(4,)" in str(info.value)
    with pytest.raises(NotSemiregularError):
        orbit_ddf_split(g, ScalarAction(g, 3))


def test_orbit_ddf_takes_a_map_list():
    def negation(g):
        return [{x: x for x in g.elements()}, {x: g.neg(x) for x in g.elements()}]

    g = cyclic_group(5)
    fam = orbit_ddf(g, negation(g))
    assert fam.blocks == (((1,), (4,)), ((2,), (3,)))
    assert verify_df(fam, 1).ok
    g4 = cyclic_group(4)
    with pytest.raises(NotSemiregularError) as info:
        orbit_ddf(g4, negation(g4))
    assert info.value.witness == ((2,), 1)


def test_orbit_ddf_refuses_a_map_that_is_not_additive():
    """Swapping 1 and 2 of Z5 is a bijection fixing zero, but 1 + 1 goes to
    2 + 2 = 4, not to the image of 2."""
    g = cyclic_group(5)
    identity = {x: x for x in g.elements()}
    swap = {**identity, (1,): (2,), (2,): (1,)}
    with pytest.raises(ValueError) as info:
        orbit_ddf(g, [identity, swap])
    assert str(info.value) == "map is not additive: differs at (1,) + (1,)"


def test_a_semiregular_map_list_is_validated_once(monkeypatch):
    """On a semiregular list every orbit is as long as the list has distinct
    maps, so the list is validated once; only a short orbit looks for the
    witness, which validates it again."""
    calls = []
    validate = algebra._validated_maps

    def counted(group, maps):
        calls.append(group)
        return validate(group, maps)

    for module in (algebra, constructions):
        monkeypatch.setattr(module, "_validated_maps", counted)
    g = cyclic_group(5)
    negation = [{x: x for x in g.elements()}, {x: g.neg(x) for x in g.elements()}]
    assert orbit_ddf(g, negation + negation[:1]).blocks == (((1,), (4,)), ((2,), (3,)))
    assert calls == [g]
    g4 = cyclic_group(4)
    with pytest.raises(NotSemiregularError) as info:
        orbit_ddf(g4, [{x: x for x in g4.elements()}, {x: g4.neg(x) for x in g4.elements()}])
    assert info.value.witness == ((2,), 1)


def test_orbit_ddf_identity_action():
    g = cyclic_group(5)
    fam = orbit_ddf(g, ScalarAction(g, 1))
    assert fam.block_sizes() == (1, 1, 1, 1)
    assert verify_df(fam, 0).ok


def test_orbit_split_z7():
    g = cyclic_group(7)
    first, second = orbit_ddf_split(g, ScalarAction(g, 2))
    assert first.blocks == (((1,), (2,), (4,)),)
    assert second.blocks == (((3,), (5,), (6,)),)
    assert verify_df(first, 1).ok and verify_df(second, 1).ok


def test_orbit_split_negation_pairing():
    g = cyclic_group(13)
    first, second = orbit_ddf_split(g, ScalarAction(g, 3))
    assert verify_df(first, 1).ok and verify_df(second, 1).ok
    neg_first = {tuple(sorted(g.neg(x) for x in block)) for block in first.blocks}
    assert set(second.blocks) == neg_first
    whole = orbit_ddf(g, ScalarAction(g, 3))
    assert set(first.blocks) | set(second.blocks) == set(whole.blocks)


def test_orbit_split_rejects_even_vk():
    g = cyclic_group(13)
    act = ScalarAction(g, 5)  # order 4, semiregular
    assert orbit_ddf(g, act).uniform_k() == 4
    with pytest.raises(ConstructionError, match="odd"):
        orbit_ddf_split(g, act)


# ---------------------------------------------------------------------------
# the two Furino paths
# ---------------------------------------------------------------------------


def test_least_semiregular_unit():
    assert _least_semiregular_unit(7, 3) == 2
    assert _least_semiregular_unit(49, 3) == 18
    assert _least_semiregular_unit(91, 3) == 9


def test_order_alone_is_not_enough():
    """29 has multiplicative order 3 mod 91 yet fixes 13: the canonical unit
    must also avoid common factors of u^j - 1 with v."""
    assert pow(29, 3, 91) == 1
    assert math.gcd(29 - 1, 91) == 7
    assert 29 * 13 % 91 == 13
    g = cyclic_group(91)
    with pytest.raises(NotSemiregularError) as info:
        orbit_ddf(g, ScalarAction(g, 29))
    assert info.value.witness[0] != (0,)


def test_furino_cyclic():
    fam = furino_ddf(7, 3)
    assert fam.blocks == (((1,), (2,), (4,)), ((3,), (5,), (6,)))
    assert verify_df(fam, 2).ok
    f49 = furino_ddf(49, 3)
    assert len(f49.blocks) == 16
    assert f49.blocks[0] == ((1,), (18,), (30,))
    assert verify_df(f49, 2).ok
    f91 = furino_ddf(91, 3)
    assert len(f91.blocks) == 30
    assert verify_df(f91, 2).ok


def test_furino_cyclic_half():
    fam = furino_ddf(91, 3, half=True)
    assert len(fam.blocks) == 15
    assert verify_df(fam, 1).ok
    assert classify_family(fam) == "disjoint"


def test_furino_rejects_bad_modulus():
    with pytest.raises(ConstructionError):
        furino_ddf(10, 3)  # 2 and 5 are not 1 mod 3
    with pytest.raises(ConstructionError):
        furino_ddf(49, 4)  # 7 is not 1 mod 4


def test_furino_v1_is_empty_family():
    fam = furino_ddf(1, 3)
    assert fam.blocks == ()
    assert verify_df(fam, 2).ok


def test_furino_k1_is_the_singleton_family_and_nonpositive_inputs_are_refused():
    fam = furino_ddf(7, 1)
    assert fam.blocks == tuple(((x,),) for x in range(1, 7))
    assert verify_df(fam, 0).ok
    with pytest.raises(ConstructionError, match=r"^block size must be positive, got 0$"):
        furino_ddf(7, 0)
    with pytest.raises(ConstructionError, match=r"^group order must be positive, got 0$"):
        furino_ddf(0, 3)


def test_cyclic_recipes_check_cap_before_work(monkeypatch):
    def never(*args):
        raise AssertionError(f"called with {args!r}")

    monkeypatch.setattr(constructions, "factorize", never)
    monkeypatch.setattr(constructions, "_least_semiregular_unit", never)
    monkeypatch.setattr(constructions, "cyclic_group", never)
    with pytest.raises(ExhaustiveCapError):
        furino_ddf(1000000009, 3)
    with pytest.raises(ExhaustiveCapError):
        trivial_ds(10**9)
    monkeypatch.setattr(constructions, "furino_ddf", never)
    with pytest.raises(ExhaustiveCapError):
        result1_ddf(2, build_ring([5, 7, 9, 11, 13, 17]))  # 3 * 765765 elements


def test_furino_ring():
    ring = build_ring([49])
    fam = furino_ddf(ring, 3)
    assert fam.group == ring.additive_group()
    assert len(fam.blocks) == 16
    assert verify_df(fam, 2).ok
    half = furino_ddf(build_ring([7, 13]), 3, half=True)
    assert len(half.blocks) == 15
    assert verify_df(half, 1).ok


def test_furino_ring_vs_cyclic_are_different_groups():
    """v = 49 admits both paths but over non-isomorphic groups."""
    assert furino_ddf(49, 3).group != furino_ddf(build_ring([49]), 3).group


def test_furino_rejects_unsupported_base():
    with pytest.raises(ConstructionError):
        furino_ddf("49", 3)
    with pytest.raises(ConstructionError):
        furino_ddf(build_ring([5, 7]), 3)


def test_furino_half_needs_odd_vk():
    with pytest.raises(ConstructionError, match="even"):
        furino_ddf(13, 4, half=True)
    with pytest.raises(ConstructionError, match="even"):
        furino_ddf(build_ring([4]), 3, half=True)


def test_each_returned_family_is_counted_once(monkeypatch):
    """One exact count certifies each family a recipe returns: the half
    furino builds and counts only the half it returns, and an even v*k is
    refused before the orbit walk."""
    calls = []

    def counted(family, lam):
        calls.append(lam)
        return verify_df(family, lam)

    monkeypatch.setattr(constructions, "verify_df", counted)
    g = cyclic_group(13)
    for build, lams in [
        (lambda: furino_ddf(91, 3, half=True), [1]),
        (lambda: furino_ddf(build_ring([7, 13]), 3, half=True), [1]),
        (lambda: orbit_ddf(g, ScalarAction(g, 3)), [2]),
        (lambda: orbit_ddf_split(g, ScalarAction(g, 3)), [1, 1]),
        (lambda: cyclotomic_half_ddf(build_ring([7, 13, 19]), 3), [1]),
    ]:
        calls.clear()
        build()
        assert calls == lams

    def no_walk(*args):
        raise AssertionError("the orbit walk ran")

    monkeypatch.setattr(constructions, "_semiregular_orbits", no_walk)
    with pytest.raises(ConstructionError, match=r"^v\*k = 13\*4 is even; no half-index variant$"):
        furino_ddf(13, 4, half=True)


def test_each_returned_dds_is_counted_once(monkeypatch):
    """result3star_dds counts the Singer set once (singer_ds's certificate)
    and only the transported set after it; dds_from_ds counts its outside
    input and its lift once each."""
    calls = []

    def counted(name, verify):
        def wrapped(*args):
            calls.append(name)
            return verify(*args)

        return wrapped

    monkeypatch.setattr(constructions, "verify_ds", counted("ds", constructions.verify_ds))
    monkeypatch.setattr(constructions, "verify_dds", counted("dds", constructions.verify_dds))
    built = result3star_dds(3, 7, 2, 2)
    assert calls == ["ds", "dds"]
    assert built.params == DDSParams(1093, 2, 728, 728, 242)
    calls.clear()
    dds_from_ds([(1,), (2,), (4,)], cyclic_group(7), 2)
    assert calls == ["ds", "dds"]


# ---------------------------------------------------------------------------
# cyclotomic half-class family
# ---------------------------------------------------------------------------


def test_cyclotomic_single_field():
    fam = cyclotomic_half_ddf(build_ring([7]), 3)
    assert fam.blocks == (((3,), (5,), (6,)),)
    assert verify_df(fam, 1).ok


def test_cyclotomic_two_fields():
    fam = cyclotomic_half_ddf(build_ring([7, 13]), 3)
    assert len(fam.blocks) == 15  # 1 + 2 + 12 class representatives
    assert fam.blocks[0] == ((3, 0), (5, 0), (6, 0))
    assert fam.uniform_k() == 3
    assert verify_df(fam, 1).ok
    assert classify_family(fam) == "disjoint"


def test_cyclotomic_1729():
    fam = cyclotomic_half_ddf(build_ring([7, 13, 19]), 3)
    assert len(fam.blocks) == 288
    assert fam.blocks[0] == ((3, 0, 0), (5, 0, 0), (6, 0, 0))
    assert fam.uniform_k() == 3
    assert classify_family(fam) == "disjoint"
    assert len(fam.uncovered()) == 865
    pdf = extend_to_pdf(fam)
    sizes = pdf.block_sizes()
    assert sizes.count(3) == 288 and sizes.count(1) == 865
    assert classify_family(pdf) == "partitioned"


def test_cyclotomic_sigma_override():
    ring = build_ring([7, 13])
    default = cyclotomic_half_ddf(ring, 3)
    overridden = cyclotomic_half_ddf(ring, 3, sigma_choice={2: 1})
    assert overridden.blocks != default.blocks
    assert verify_df(overridden, 1).ok
    assert len(overridden.blocks) == 15


def test_cyclotomic_sigma_choice_validation():
    ring = build_ring([7, 13])
    with pytest.raises(ConstructionError):
        cyclotomic_half_ddf(ring, 3, sigma_choice={2: 5})
    with pytest.raises(ConstructionError):
        cyclotomic_half_ddf(ring, 3, sigma_choice={9: 0})
    with pytest.raises(ConstructionError):
        cyclotomic_half_ddf(ring, 3, sigma_choice={0: 1})


def test_cyclotomic_preconditions():
    with pytest.raises(ConstructionError):
        cyclotomic_half_ddf(build_ring([7]), 4)  # k must be odd
    with pytest.raises(ConstructionError):
        cyclotomic_half_ddf(build_ring([5]), 3)  # 5 is not 1 mod 2k = 6


# ---------------------------------------------------------------------------
# trivial difference sets and unit matrices
# ---------------------------------------------------------------------------


def test_trivial_ds():
    dset, group = trivial_ds(3)
    assert group == cyclic_group(4)
    assert dset == ((1,), (2,), (3,))
    assert verify_ds(dset, group, DSParams(4, 3, 2)).ok
    dset1, group1 = trivial_ds(1)
    assert verify_ds(dset1, group1, DSParams(2, 1, 0)).ok
    dset6, group6 = trivial_ds(6)
    assert verify_ds(dset6, group6, DSParams(7, 6, 5)).ok
    with pytest.raises(ConstructionError):
        trivial_ds(0)


def test_units_hdm_f7():
    mat = units_hdm(build_ring([7]), 3)
    assert mat.rows == (
        tuple(((c * 1) % 7,) for c in range(7)),
        tuple(((c * 2) % 7,) for c in range(7)),
        tuple(((c * 4) % 7,) for c in range(7)),
    )
    assert verify_hdm(mat).ok


def test_units_hdm_f5_full_group():
    mat = units_hdm(build_ring([5]), 4)
    assert [row[1] for row in mat.rows] == [(1,), (2,), (4,), (3,)]
    assert verify_hdm(mat).ok
    dm = hdm_to_dm(mat)
    assert dm.k == 5
    assert verify_dm(dm).ok


def test_units_hdm_ring():
    mat = units_hdm(build_ring([7, 13]), 3)
    assert mat.k == 3
    assert mat.columns == 91
    assert verify_hdm(mat).ok


def test_units_hdm_validation():
    with pytest.raises(ValueError):
        units_hdm(build_ring([7, 13]), 4)  # 4 does not divide 6


# ---------------------------------------------------------------------------
# the padded product
# ---------------------------------------------------------------------------


def test_product_ddf_28():
    fam_g = trivial_family_z4()
    fam_h = furino_ddf(7, 3)
    hdm = units_hdm(build_ring([7]), 3)
    prod = product_ddf(fam_g, fam_h, hdm)
    assert prod.group == GroupDescriptor((4, 7))
    assert len(prod.blocks) == 9  # 1 block spread over 7 columns, plus 2
    assert verify_df(prod, 2).ok
    assert classify_family(prod) == "disjoint"
    assert prod.uncovered() == [(0, 0)]


def trivial_family_z4():
    from diffam.designs import Family

    dset, group = trivial_ds(3)
    return Family(group, [dset])


def test_product_ddf_364():
    fam_g = trivial_family_z4()
    ring = build_ring([7, 13])
    fam_h = furino_ddf(ring, 3)
    prod = product_ddf(fam_g, fam_h, units_hdm(ring, 3))
    assert prod.group.order == 364
    assert len(prod.blocks) == 121
    assert verify_df(prod, 2).ok
    assert prod.uncovered() == [(0, 0, 0)]


def test_product_ddf_k_mismatch():
    fam_g = trivial_family_z4()
    fam_h = furino_ddf(13, 4)
    with pytest.raises(ConstructionError):
        product_ddf(fam_g, fam_h, units_hdm(build_ring([13]), 4))


def test_product_ddf_group_mismatch():
    from diffam.designs import Family

    fam_g = trivial_family_z4()
    fam_h = Family(cyclic_group(4), [[(1,), (2,), (3,)]])
    hdm = units_hdm(build_ring([4]), 3)  # over GF(4), not Z_4
    with pytest.raises(ConstructionError, match="group"):
        product_ddf(fam_g, fam_h, hdm)


def test_product_ddf_refuses_a_wrong_row_count_and_overlapping_factors():
    fam_h = furino_ddf(7, 3)
    dm = hdm_to_dm(units_hdm(build_ring([7]), 3))  # 4 rows, blocks of 3
    with pytest.raises(ConstructionError, match=r"^matrix has 4 rows, families have block size 3$"):
        product_ddf(trivial_family_z4(), fam_h, dm)
    # the (7, 3, 1) set taken twice: a (7, 3, 2) family whose blocks overlap
    twice = Family(cyclic_group(7), [[(1,), (2,), (4,)]] * 2)
    assert verify_df(twice, 2).ok
    with pytest.raises(ConstructionError, match=r"^factor families must be disjoint$"):
        product_ddf(twice, fam_h, units_hdm(build_ring([7]), 3))


def test_product_ddf_needs_one_uncovered_element_per_factor():
    # {1} leaves 0 and 2 of Z3 uncovered
    fam_g, fam_h = Family(cyclic_group(3), [[(1,)]]), Family(cyclic_group(5), [[(1,)]])
    with pytest.raises(ConstructionError) as info:
        product_ddf(fam_g, fam_h, units_hdm(build_ring([5]), 1))
    assert str(info.value) == "first factor family leaves 2 elements uncovered; need exactly 1"


def test_product_ddf_ingredient_must_verify():
    from diffam.designs import Family

    fam_g = trivial_family_z4()
    broken = Family(cyclic_group(7), [[(1,), (2,), (3,)]])
    with pytest.raises(ConstructionError):
        product_ddf(fam_g, broken, units_hdm(build_ring([7]), 3))


# ---------------------------------------------------------------------------
# result1: trivial block + product
# ---------------------------------------------------------------------------


def test_result1_28():
    fam = result1_ddf(3, build_ring([7]))
    assert fam.group == GroupDescriptor((4, 7))
    assert len(fam.blocks) == 9
    assert verify_df(fam, 2).ok
    assert fam.uncovered() == [(0, 0)]


def test_result1_65():
    fam = result1_ddf(4, build_ring([13]))
    assert fam.group.order == 65
    assert fam.group.factor_sizes == (5, 13)
    assert len(fam.blocks) == 16
    assert verify_df(fam, 3).ok
    assert len(fam.uncovered()) == 1


def test_result1_364():
    fam = result1_ddf(3, build_ring([7, 13]))
    assert fam.group.order == 364
    assert len(fam.blocks) == 121
    assert verify_df(fam, 2).ok


def test_result1_preconditions():
    with pytest.raises(ConstructionError):
        result1_ddf(3, build_ring([5]))  # 5 is not 1 mod 3


# ---------------------------------------------------------------------------
# Singer difference sets
# ---------------------------------------------------------------------------


def test_singer_7_3_1_against_brute_force():
    dset, group = singer_ds(2, 3)
    assert group == cyclic_group(7)
    assert dset == ((3,), (5,), (6,))
    all_good = [
        comb
        for comb in combinations(range(7), 3)
        if verify_ds([(x,) for x in comb], group, DSParams(7, 3, 1)).ok
    ]
    assert len(all_good) == 14
    assert tuple(x for (x,) in dset) in all_good


def test_singer_13_4_1():
    dset, group = singer_ds(3, 3)
    assert group == cyclic_group(13)
    assert dset == ((0,), (2,), (5,), (6,))
    assert verify_ds(dset, group, DSParams(13, 4, 1)).ok


def test_singer_85_21_5():
    dset, group = singer_ds(4, 4)
    assert group == cyclic_group(85)
    assert len(dset) == 21
    assert verify_ds(dset, group, DSParams(85, 21, 5)).ok


def test_singer_preconditions():
    with pytest.raises(ConstructionError):
        singer_ds(6, 3)
    with pytest.raises(ConstructionError):
        singer_ds(4, 2)


# ---------------------------------------------------------------------------
# divisible difference sets
# ---------------------------------------------------------------------------


def test_dds_from_ds_7231():
    dset, group = singer_ds(2, 3)
    built = dds_from_ds(dset, group, 2)
    assert built.params == DDSParams(7, 2, 6, 6, 2)
    assert built.group == GroupDescriptor((7, 2))
    assert sorted(built.elements) == [(x, y) for (x,) in dset for y in (0, 1)]
    rep = verify_dds(built.elements, built.group, built.subgroup, built.params)
    assert rep.ok


def test_dds_inputs_may_be_one_shot_iterators():
    # each input is read once, so an iterator is not mistaken for a list
    # with repeated elements
    dset, group = singer_ds(2, 3)
    built = dds_from_ds(iter(dset), group, 2)
    assert built == dds_from_ds(dset, group, 2)
    rep = verify_dds(
        iter(built.elements), built.group, iter(built.subgroup), built.params
    )
    assert rep.ok
    assert rep == verify_dds(built.elements, built.group, built.subgroup, built.params)


def test_dds_from_ds_h1_degenerate():
    dset, group = singer_ds(2, 3)
    built = dds_from_ds(dset, group, 1)
    assert built.params == DDSParams(7, 1, 3, 3, 1)
    assert built.group == GroupDescriptor((7, 1))
    assert verify_dds(built.elements, built.group, built.subgroup, built.params).ok


def test_dds_from_ds_lambda_zero_input():
    built = dds_from_ds([(1,)], cyclic_group(2), 3)
    assert built.params == DDSParams(2, 3, 3, 3, 0)
    assert sorted(built.elements) == [(1, 0), (1, 1), (1, 2)]
    assert verify_dds(built.elements, built.group, built.subgroup, built.params).ok


def test_dds_from_ds_input_must_be_uniform():
    with pytest.raises(ConstructionError):
        dds_from_ds([(0,), (1,)], cyclic_group(4), 2)  # not a difference set
    with pytest.raises(ConstructionError):
        dds_from_ds([(1,), (2,), (4,)], cyclic_group(7), 0)
    # the empty set is a degenerate difference set with lambda = 0
    built = dds_from_ds([], cyclic_group(4), 2)
    assert built.params == DDSParams(4, 2, 0, 0, 0)
    assert built.elements == ()
    with pytest.raises(ConstructionError, match=r"^difference set input has repeated elements$"):
        dds_from_ds([(1,), (2,), (4,), (1,)], cyclic_group(7), 2)


def test_result3star_13():
    built = result3star_dds(3, 3, 2, 2)
    assert built.params == DDSParams(13, 2, 8, 8, 2)
    assert built.group == GroupDescriptor((13, 2))
    assert verify_dds(built.elements, built.group, built.subgroup, built.params).ok


def test_result3star_85():
    built = result3star_dds(4, 4, 3, 2)
    assert built.params == DDSParams(85, 2, 42, 42, 10)
    assert built.group == GroupDescriptor((85, 2))
    assert verify_dds(built.elements, built.group, built.subgroup, built.params).ok


def test_result3star_degenerate_h1_e1():
    built = result3star_dds(2, 3, 1, 1)
    assert built.params == DDSParams(7, 1, 3, 3, 1)
    assert built.group == GroupDescriptor((7, 1))
    assert sorted(built.elements) == [(3, 0), (5, 0), (6, 0)]


def test_result3star_hypothesis_errors():
    with pytest.raises(ConstructionError):
        result3star_dds(6, 3, 1, 1)  # q not a prime power
    with pytest.raises(ConstructionError):
        result3star_dds(4, 2, 3, 1)  # d too small
    with pytest.raises(ConstructionError):
        result3star_dds(4, 4, 2, 1)  # e does not divide q - 1
    with pytest.raises(ConstructionError):
        result3star_dds(4, 3, 3, 1)  # gcd(d, e) = 3
    with pytest.raises(ConstructionError):
        result3star_dds(3, 3, 2, 3)  # h > e


def test_result3star_nonisomorphic_target_fails_loudly():
    """For q=5, d=3, e=2, h=2 the construction lives in Z_31 x Z_4 but the
    nominal target is Z_62 x Z_2 — different invariant factors, so the
    transport must refuse instead of relabeling."""
    with pytest.raises(ConstructionError) as info:
        result3star_dds(5, 3, 2, 2)
    msg = str(info.value)
    assert "[124]" in msg and "[2, 62]" in msg


# ---------------------------------------------------------------------------
# every constructed family re-verifies from scratch
# ---------------------------------------------------------------------------


def test_constructed_families_reverify():
    cases = [
        (furino_ddf(13, 3), 2),
        (furino_ddf(build_ring([13]), 3), 2),
        (cyclotomic_half_ddf(build_ring([7, 13]), 3), 1),
        (result1_ddf(3, build_ring([7])), 2),
    ]
    for fam, lam in cases:
        dm = delta_multiset(fam)
        for x in fam.group.nonzero_elements():
            assert dm.count(x) == lam


# element-tuple arithmetic: the reference the tests use as an oracle
TUPLE_ARITHMETIC = [
    (GroupDescriptor, "add"),
    (GroupDescriptor, "sub"),
    (GroupDescriptor, "scalar_mul"),
    (RingDescriptor, "mul"),
    (Isomorphism, "apply"),
]


def _tuple_arithmetic_calls(monkeypatch, run) -> Counter:
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        for cls, name in TUPLE_ARITHMETIC:

            def counted(*args, _key=f"{cls.__name__}.{name}", _fn=getattr(cls, name)):
                calls[_key] += 1
                return _fn(*args)

            patch.setattr(cls, name, counted)
        run()
    return calls


def test_recipes_and_converters_compute_on_indices(monkeypatch):
    """normalize_dm and cyclotomic_half_ddf do no element-tuple arithmetic,
    and result3star_dds does as much at two group sizes: only abelian_iso's
    check on generator pairs is left."""
    dm = hdm_to_dm(units_hdm(build_ring([4, 25, 7]), 3))
    assert _tuple_arithmetic_calls(monkeypatch, lambda: normalize_dm(dm)) == Counter()
    for orders in ([7, 13], [7, 13, 19]):
        ring = build_ring(orders)
        calls = _tuple_arithmetic_calls(monkeypatch, lambda: cyclotomic_half_ddf(ring, 3))
        assert calls == Counter()
    small, large = (
        _tuple_arithmetic_calls(monkeypatch, lambda d=d: result3star_dds(3, d, 2, 2))
        for d in (3, 7)
    )
    assert small == large
    assert set(small) == {"GroupDescriptor.add", "Isomorphism.apply"}
