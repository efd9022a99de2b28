"""Verification layer: difference multisets, families, sets, divisible sets,
and (homogeneous) difference matrices.

The expected difference counts are recomputed in-test by a plain double loop
over ordered pairs, independent of the module's counting code.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from diffam.algebra import (
    ExhaustiveCapError,
    GroupDescriptor,
    UnitAction,
    abelian_iso,
    build_field,
    build_ring,
    cyclic_group,
    is_semiregular,
)
from diffam.designs import (
    DDSParams,
    DSParams,
    DiffMatrix,
    Family,
    IndexedElements,
    IndexLists,
    _ascending,
    _coverage,
    classify_family,
    counting_lambda,
    delta_multiset,
    ds_lambda,
    dm_to_hdm,
    extend_to_pdf,
    hdm_to_dm,
    normalize_dm,
    verify_dds,
    verify_df,
    verify_dm,
    verify_ds,
    verify_hdm,
)


def naive_delta(group, blocks):
    """Ordered-pair difference counts, written as directly as possible."""
    counts = {}
    for block in blocks:
        for x in block:
            for y in block:
                if x != y:
                    d = group.sub(x, y)
                    counts[d] = counts.get(d, 0) + 1
    return counts


def cyc(v, *blocks):
    return Family(cyclic_group(v), [[(x,) for x in b] for b in blocks])


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


def test_params_str_and_scaled():
    p = DSParams(85, 21, 5)
    assert str(p) == "(85,21,5)"
    assert p.scaled(2) == DSParams(170, 42, 10)
    assert str(DDSParams(85, 2, 42, 42, 10)) == "(85,2,42,42,10)"
    with pytest.raises(ValueError):
        DSParams(7, -1, 0)
    with pytest.raises(ValueError):
        DDSParams(7, 0, 3, 3, 1)


def test_counting_lambda_reads_lambda_off_the_block_sizes():
    assert counting_lambda(13, [4]) == ds_lambda(13, 4) == 1
    assert counting_lambda(13, [3, 3]) == 1  # the (13, 3, 1) ddf
    assert counting_lambda(21, [5, 4, 3, 2]) == 2  # 20 + 12 + 6 + 2 = 2 * 20
    assert counting_lambda(28, [3] * 9) == 2
    assert counting_lambda(28, [3] * 8) is None
    assert counting_lambda(7, []) == 0
    for v in (-1, 0, 1):
        assert counting_lambda(v, [3, 5]) == ds_lambda(v, 3) == 0
    for v in range(2, 40):
        for k in range(v + 1):
            lam, rest = divmod(k * (k - 1), v - 1)
            assert ds_lambda(v, k) == counting_lambda(v, [k]) == (None if rest else lam)


def test_report_truthiness():
    fam = cyc(7, (1, 2, 4))
    assert verify_df(fam, 1)
    assert not verify_df(fam, 2)


# ---------------------------------------------------------------------------
# families and difference multisets
# ---------------------------------------------------------------------------


def test_index_lists_read_a_list_by_index_as_iteration_does(monkeypatch):
    g = cyclic_group(11)
    lists = IndexLists(g, [1, 2, 3, 4, 5, 6, 7, 8, 9], [2, 0, 3, 1, 3])
    items = list(lists)
    assert items == [((1,), (2,)), (), ((3,), (4,), (5,)), ((6,),), ((7,), (8,), (9,))]
    # an index slices its own list off flat and cuts no other list
    monkeypatch.setattr(IndexLists, "cut", lambda self: pytest.fail("every list was cut"))
    assert [lists[i] for i in range(5)] == items
    assert [lists[i] for i in range(-5, 0)] == items
    assert lists[-1] == ((7,), (8,), (9,))
    for i in (5, -6):
        with pytest.raises(IndexError):
            lists[i]
    with pytest.raises(IndexError):
        IndexLists(g, [], [])[0]


def test_index_lists_and_indexed_elements_read_as_their_tuples():
    """Both compare equal to the tuple of their items, so an int, a
    negative int, an int out of range and a slice read as that tuple's."""
    g = cyclic_group(7)
    for seq, items in (
        (IndexedElements(g, [1, 2, 4]), ((1,), (2,), (4,))),
        (IndexLists(g, [1, 2, 4, 3, 5], [3, 0, 2]), (((1,), (2,), (4,)), (), ((3,), (5,)))),
    ):
        assert seq == items and (seq[0], seq[-1]) == (items[0], items[-1])
        for i in (3, -4):
            with pytest.raises(IndexError):
                seq[i]
        for cut in (slice(0, 2), slice(None, None, -1), slice(1, 1), slice(-2, None), slice(0, 9, 2)):
            assert isinstance(seq[cut], tuple) and seq[cut] == items[cut]


def test_family_normalizes_and_validates():
    fam = cyc(7, (4, 1, 2))
    assert fam.blocks == (((1,), (2,), (4,)),)
    assert fam.v == 7
    with pytest.raises(ValueError):
        cyc(7, ())
    with pytest.raises(ValueError):
        cyc(7, (1, 1, 2))
    with pytest.raises(ValueError):
        cyc(7, (1, 2, 9))


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([[(1,), ("a",)]], "('a',) is not an element of Z7"),
        ([[(1,), None]], "None is not an element of Z7"),
        # blocks are checked in order: a repeat before a bad element wins
        ([[(2,), (2,)], [(1,), None]], "block ((2,), (2,)) has a repeated element"),
        ([[(3,), (1,)], [], [None]], "blocks must be nonempty"),
    ],
)
def test_family_names_a_bad_element_before_sorting(blocks, message):
    with pytest.raises(ValueError) as info:
        Family(cyclic_group(7), blocks)
    assert str(info.value) == message


@pytest.mark.parametrize("flat", [[-3, 1], [2, 7], [1, 2, 3, 9, -1]])
def test_index_lists_out_of_the_group_are_refused(flat):
    """Family and DiffMatrix take an IndexLists of their group undecoded,
    but not an index outside it: a negative one would count at a wrong
    residue by negative list indexing."""
    group = cyclic_group(7)
    message = "^an index lies outside Z7$"
    with pytest.raises(ValueError, match=message):
        Family(group, IndexLists(group, flat, [len(flat)]))
    with pytest.raises(ValueError, match=message):
        DiffMatrix(group, IndexLists(group, flat, [len(flat)]))


def test_index_lists_refuse_an_index_outside_their_group():
    """The range check is the constructor's, so no IndexLists, however it
    was made, holds an index outside its group."""
    with pytest.raises(ValueError, match="^an index lies outside Z7$"):
        IndexLists(cyclic_group(7), [-3, 1], [2])


def test_ascending_blocks_of_alternating_sizes_are_range_checked_quickly():
    """Ascending blocks are range-checked at their ends in one pass over the
    list: 10^5 runs of one block each, sizes 1, 2, 1, 2, ..., take
    milliseconds, where stepping to every run from the list's start would
    take minutes.  The last index is checked."""
    group = cyclic_group(150_000)
    sizes = [1, 2] * 50_000
    started = time.perf_counter()
    family = Family(group, IndexLists(group, list(range(150_000)), sizes))
    assert time.perf_counter() - started < 3
    assert family.lists.sizes == sizes
    with pytest.raises(ValueError, match="^an index lies outside Z150000$"):
        Family(group, IndexLists(group, list(range(1, 150_001)), sizes))


def test_family_block_sizes_and_covered():
    fam = cyc(9, (1, 2, 4), (3, 5), (6,))
    assert fam.block_sizes() == (3, 2, 1)
    assert fam.uniform_k() is None
    assert cyc(7, (1, 2, 4), (3, 5, 6)).uniform_k() == 3
    assert fam.covered() == {(1,), (2,), (3,), (4,), (5,), (6,)}
    assert fam.uncovered() == [(0,), (7,), (8,)]


def test_delta_single_element_block_is_empty():
    fam = cyc(5, (3,))
    assert delta_multiset(fam).counts == {}


def test_delta_multiset_examples():
    fam = cyc(7, (1, 2, 4))
    dm = delta_multiset(fam)
    assert dm.counts == {(x,): 1 for x in range(1, 7)}
    assert dm.count((3,)) == 1
    assert dm.count((0,)) == 0
    assert dm.total() == 6
    doubled = cyc(7, (1, 2, 4), (3, 5, 6))
    assert delta_multiset(doubled).counts == {(x,): 2 for x in range(1, 7)}


def test_delta_matches_naive_oracle():
    f9 = build_field(3, 2)
    cases = [
        cyc(12, (1, 2, 4, 9), (3, 5), (7,)),
        cyc(5, (0, 1), (2, 3), (1, 4)),
        Family(GroupDescriptor((f9,)), [[(1,), (2,), (5,)], [(0,), (7,)]]),
        Family(
            GroupDescriptor((5, 3)),
            [[(0, 0), (1, 2), (4, 1)], [(2, 0), (3, 2)]],
        ),
    ]
    for fam in cases:
        dm = delta_multiset(fam)
        assert dm.counts == naive_delta(fam.group, fam.blocks)


def test_delta_conservation():
    """Total difference count equals sum over blocks of |B|(|B| - 1)."""
    cases = [
        cyc(7, (1, 2, 4)),
        cyc(12, (1, 2, 4, 9), (3, 5), (7,)),
        cyc(4, (1, 2, 3), (1, 2, 3)),
    ]
    for fam in cases:
        want = sum(len(b) * (len(b) - 1) for b in fam.blocks)
        assert delta_multiset(fam).total() == want


def test_delta_cap():
    with pytest.raises(ExhaustiveCapError):
        big = cyclic_group(10**6 + 3)
        fam = Family(big, [[(0,), (1,)]])
        delta_multiset(fam)


# ---------------------------------------------------------------------------
# difference-family verification
# ---------------------------------------------------------------------------


def test_verify_df_pass_cases():
    rep = verify_df(cyc(7, (1, 2, 4)), 1)
    assert rep.ok
    assert rep.kind == "df"
    assert rep.params == {"v": 7, "lambda": 1, "k": 3}
    assert rep.deviations == {}
    assert verify_df(cyc(4, (1, 2, 3)), 2).ok
    assert verify_df(cyc(7, (1, 2, 4), (3, 5, 6)), 2).ok


def test_verify_df_failure_lists_every_deviation():
    rep = verify_df(cyc(5, (1, 2)), 1)
    assert not rep.ok
    assert rep.deviations == {(2,): 0, (3,): 0}


def test_verify_df_nonuniform_params_key():
    fam = cyc(9, (1, 2, 4), (3, 5), (6,))
    rep = verify_df(fam, 1)
    assert "K" in rep.params and "k" not in rep.params
    assert rep.params["K"] == [3, 2, 1]


def test_verify_df_lambda_zero_and_negative():
    singles = cyc(5, (1,), (2,))
    assert verify_df(singles, 0).ok
    with pytest.raises(ValueError):
        verify_df(singles, -1)


def test_verify_df_duplicate_blocks_allowed():
    fam = cyc(4, (1, 2, 3), (1, 2, 3))
    assert verify_df(fam, 4).ok
    assert classify_family(fam) == "plain"


# ---------------------------------------------------------------------------
# classification and the singleton completion
# ---------------------------------------------------------------------------


def test_classify_family():
    assert classify_family(cyc(7, (1, 2, 4), (2, 3, 5))) == "plain"
    assert classify_family(cyc(7, (1, 2, 4), (3, 5, 6))) == "disjoint"
    assert classify_family(cyc(7, (0,), (1, 2, 4), (3, 5, 6))) == "partitioned"


def test_extend_to_pdf():
    fam = cyc(7, (1, 2, 4), (3, 5, 6))
    before = delta_multiset(fam).counts
    pdf = extend_to_pdf(fam)
    assert classify_family(pdf) == "partitioned"
    assert pdf.block_sizes() == (3, 3, 1)
    assert ((0,),) in pdf.blocks
    # singleton padding adds no differences
    assert delta_multiset(pdf).counts == before


def test_extend_empty_family():
    fam = Family(cyclic_group(3), [])
    pdf = extend_to_pdf(fam)
    assert pdf.blocks == (((0,),), ((1,),), ((2,),))
    assert classify_family(pdf) == "partitioned"


def test_extend_rejects_overlapping_family():
    with pytest.raises(ValueError):
        extend_to_pdf(cyc(7, (1, 2, 4), (2, 3, 5)))


# ---------------------------------------------------------------------------
# difference sets
# ---------------------------------------------------------------------------


def test_verify_ds_examples():
    assert verify_ds([(1,), (2,), (4,)], cyclic_group(7), DSParams(7, 3, 1)).ok
    assert verify_ds([(1,), (2,), (3,)], cyclic_group(4), DSParams(4, 3, 2)).ok
    rep = verify_ds([(0,), (1,)], cyclic_group(4), DSParams(4, 2, 1))
    assert not rep.ok
    assert rep.deviations == {(2,): 0}


def test_verify_ds_declared_mismatches():
    rep = verify_ds([(1,), (2,), (4,)], cyclic_group(7), DSParams(8, 3, 1))
    assert not rep.ok and "declared (8,3,1)" in rep.message and "v=7" in rep.message
    rep = verify_ds([(1,), (2,), (4,)], cyclic_group(7), DSParams(7, 4, 1))
    assert not rep.ok and "k=3" in rep.message
    with pytest.raises(ValueError):
        verify_ds([(1,), (1,), (2,)], cyclic_group(7), DSParams(7, 3, 1))


def quadratic_residue_set(p):
    return sorted({(x * x % p,) for x in range(1, p)})


def test_verify_ds_quadratic_residues():
    """Nonzero squares mod a prime p = 4t + 3 form a (p, (p-1)/2, (p-3)/4)
    difference set — an oracle family independent of the constructions."""
    for p in (7, 11, 19, 23):
        dset = quadratic_residue_set(p)
        params = DSParams(p, (p - 1) // 2, (p - 3) // 4)
        assert verify_ds(dset, cyclic_group(p), params).ok


def test_verify_ds_translation_invariant():
    for p in (7, 11, 19):
        group = cyclic_group(p)
        dset = quadratic_residue_set(p)
        params = DSParams(p, (p - 1) // 2, (p - 3) // 4)
        for (g,) in group.elements():
            shifted = [((x + g) % p,) for (x,) in dset]
            assert verify_ds(shifted, group, params).ok
    # a failing set fails in every translate too
    group = cyclic_group(4)
    for (g,) in group.elements():
        shifted = [((x + g) % 4,) for x in (0, 1)]
        assert not verify_ds(shifted, group, DSParams(4, 2, 1)).ok


# ---------------------------------------------------------------------------
# divisible difference sets
# ---------------------------------------------------------------------------


def test_verify_dds_pass():
    group = GroupDescriptor((7, 2))
    dset = [(x, y) for x in (1, 2, 4) for y in (0, 1)]
    sub = [(0, 0), (0, 1)]
    rep = verify_dds(dset, group, sub, DDSParams(7, 2, 6, 6, 2))
    assert rep.ok
    assert rep.kind == "dds"


def test_verify_dds_failures():
    group = GroupDescriptor((7, 2))
    dset = [(x, y) for x in (1, 2, 4) for y in (0, 1)]
    sub = [(0, 0), (0, 1)]
    rep = verify_dds(dset, group, sub, DDSParams(7, 2, 6, 6, 3))
    assert not rep.ok
    assert all(rep.deviations[key] == 2 for key in rep.deviations)
    assert len(rep.deviations) == 12  # every element outside the subgroup
    rep = verify_dds(dset, group, sub, DDSParams(7, 2, 6, 5, 2))
    assert not rep.ok
    with pytest.raises(ValueError, match="subgroup has order 2"):
        verify_dds(dset, group, sub, DDSParams(7, 3, 6, 6, 2))
    rep = verify_dds(dset, group, sub, DDSParams(6, 2, 6, 6, 2))
    assert not rep.ok and "m*n" in rep.message


def test_verify_dds_subgroup_validation():
    group = cyclic_group(4)
    with pytest.raises(ValueError):
        verify_dds([(1,)], group, [(1,), (2,)], DDSParams(2, 2, 1, 0, 1))
    with pytest.raises(ValueError):
        verify_dds([(1,)], group, [(0,), (1,)], DDSParams(2, 2, 1, 0, 1))
    with pytest.raises(ValueError):
        verify_dds([(1,)], group, [(0,), (2,), (2,)], DDSParams(2, 2, 1, 0, 1))


def test_subgroup_closure_is_decided_by_one_count(monkeypatch):
    """Closure of a whole-group subgroup of Z_3000 is read off one count of
    the subgroup as a block, not tested pair by pair (9 million subs)."""
    group = cyclic_group(3000)
    calls = []
    sub = group.sub

    def counting_sub(a, b):
        calls.append(1)
        return sub(a, b)

    monkeypatch.setattr(group, "sub", counting_sub)
    whole = list(group.elements())
    assert verify_dds(whole, group, whole, DDSParams(1, 3000, 3000, 3000, 0)).ok
    assert len(calls) < 10 * 3000


@pytest.mark.parametrize("order", [12, 3000])
def test_subgroup_not_closed_names_a_witness(order):
    """On both count engines: the missing difference is the least element
    outside the set, and the named pair really has it as difference."""
    group = cyclic_group(order)
    members = [(x,) for x in range(order) if x != order // 2]
    with pytest.raises(ValueError) as info:
        verify_dds([(1,)], group, members, DDSParams(1, order - 1, 1, 0, 0))
    a, b, c = 1, order // 2 + 1, order // 2
    assert str(info.value) == (
        f"subgroup is not closed: ({a},) - ({b},) = ({c},) is missing"
    )


def test_a_subgroup_member_that_is_not_an_element_is_named():
    # a list is not hashable: it is named as a non-element, not a TypeError
    with pytest.raises(ValueError) as info:
        verify_dds([(1,)], cyclic_group(4), [[0], [2]], DDSParams(2, 2, 1, 0, 1))
    assert str(info.value) == "[0] is not an element of Z4"


Z7 = cyclic_group(7)
# Z7 with (1,) spelled as the equal (True,): the whole group, and its identity map
Z7_WITH_TRUE = [(0,), (True,), *[(x,) for x in range(2, 7)]]
IDENTITY_WITH_TRUE = dict(zip(Z7.elements(), Z7_WITH_TRUE))


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: Family(Z7, [[(True,), (2,), (4,)]]), "(True,) is not an element of Z7"),
        (lambda: DiffMatrix(Z7, [[(0,)] * 7, [(True,)] * 7]), "(True,) is not an element of Z7"),
        (lambda: verify_ds([(True,), (2,), (4,)], Z7, DSParams(7, 3, 1)), "(True,) is not an element of Z7"),
        (lambda: verify_dds([(0,)], Z7, Z7_WITH_TRUE, DDSParams(1, 7, 1, 0, 0)), "(True,) is not an element of Z7"),
        (lambda: UnitAction(build_ring([7]), (True,)), "(True,) is not an element of GF(7)"),
        (lambda: abelian_iso(Z7, Z7).apply((True,)), "(True,) is not an element of Z7"),
        (lambda: is_semiregular(Z7, [IDENTITY_WITH_TRUE]), "automorphism map is not a bijection"),
    ],
    ids=["Family", "DiffMatrix", "verify_ds", "verify_dds subgroup", "UnitAction", "Isomorphism.apply", "explicit map"],
)
def test_a_bool_coordinate_is_refused_everywhere(refuse, message):
    # True == 1, so the bool would pass for the element (1,) were it taken
    with pytest.raises(ValueError) as info:
        refuse()
    assert str(info.value) == message


def test_report_stats_name_the_engine():
    group = cyclic_group(364)
    small = [(x,) for x in range(5)]
    big = [(x,) for x in range(10, 131)]
    for blocks, engine in (([small], "pairwise"), ([big], "convolution"), ([small, big], "both")):
        rep = verify_df(Family(group, blocks), 1)
        assert rep.stats == {
            "engine": engine,
            "pairs": sum(len(b) * (len(b) - 1) for b in blocks),
            "elements_scanned": 363,
        }
    assert verify_ds(small, group, DSParams(364, 4, 1)).stats == {}


def test_verify_dds_n1_degenerates_to_ds():
    """A trivial forbidden subgroup {0} makes the inside-count vacuous and
    the check collapses to the plain difference-set identity."""
    group = cyclic_group(7)
    dset = [(1,), (2,), (4,)]
    assert verify_dds(dset, group, [(0,)], DDSParams(7, 1, 3, 99, 1)).ok
    assert not verify_dds(dset, group, [(0,)], DDSParams(7, 1, 3, 99, 2)).ok


# ---------------------------------------------------------------------------
# difference matrices
# ---------------------------------------------------------------------------


def mult_rows(v, multipliers):
    return tuple(tuple(((c * m) % v,) for c in range(v)) for m in multipliers)


def test_diffmatrix_validation():
    g = cyclic_group(7)
    with pytest.raises(ValueError):
        DiffMatrix(g, ())
    with pytest.raises(ValueError):
        DiffMatrix(g, (((0,), (1,)), ((0,),)))
    with pytest.raises(ValueError):
        DiffMatrix(g, (((0,), (9,)),))
    mat = DiffMatrix(g, mult_rows(7, (1, 2, 4)))
    assert mat.k == 3
    assert mat.columns == 7


def test_verify_dm_and_hdm_examples():
    g = cyclic_group(7)
    dm = DiffMatrix(g, mult_rows(7, (0, 1, 2, 4)))
    assert verify_dm(dm).ok
    rep = verify_hdm(dm)
    assert not rep.ok  # the zero row is not a permutation
    assert rep.deviations[("row", 0, (0,))] == 7
    hdm = DiffMatrix(g, mult_rows(7, (1, 2, 4)))
    assert verify_hdm(hdm).ok
    assert verify_dm(hdm).ok  # homogeneity is on top of the dm property


def test_verify_dm_identical_rows():
    g = cyclic_group(7)
    row = mult_rows(7, (1,))[0]
    rep = verify_dm(DiffMatrix(g, (row, row)))
    assert not rep.ok
    assert rep.deviations[(0, 1, (0,))] == 7
    assert rep.deviations[(0, 1, (3,))] == 0
    assert len(rep.deviations) == 7


def test_verify_dm_wrong_column_count():
    g = cyclic_group(7)
    rows = (((0,), (1,)), ((0,), (2,)))
    rep = verify_dm(DiffMatrix(g, rows))
    assert not rep.ok and "column" in rep.message


def test_normalize_dm():
    g = cyclic_group(7)
    dm = DiffMatrix(g, mult_rows(7, (1, 2, 4, 0)))
    nd = normalize_dm(dm)
    assert nd.rows[0] == tuple((0,) for _ in range(7))
    assert nd.rows == mult_rows(7, (0, 1, 3, 6))
    assert verify_dm(nd).ok
    already = DiffMatrix(g, mult_rows(7, (0, 1, 2)))
    assert normalize_dm(already).rows == already.rows
    g4 = cyclic_group(4)
    dm4 = DiffMatrix(g4, (tuple((x,) for x in range(4)), tuple((0,) for _ in range(4))))
    assert normalize_dm(dm4).rows[1] == ((0,), (3,), (2,), (1,))
    with pytest.raises(ValueError):
        normalize_dm(DiffMatrix(g, (mult_rows(7, (1,))[0],) * 2))


def test_hdm_dm_roundtrip():
    g = cyclic_group(7)
    hdm = DiffMatrix(g, mult_rows(7, (1, 2, 4)))
    dm = hdm_to_dm(hdm)
    assert dm.k == 4
    assert dm.rows[0] == tuple((0,) for _ in range(7))
    assert verify_dm(dm).ok
    assert dm_to_hdm(dm).rows == hdm.rows


def test_dm_to_hdm_strips_zero_row_wherever_it_sits():
    g = cyclic_group(7)
    dm = DiffMatrix(g, mult_rows(7, (1, 2, 4, 0)))  # zero row is last
    assert dm_to_hdm(dm).rows == mult_rows(7, (1, 2, 4))


def test_matrix_converters_refuse_a_non_matrix():
    zeros = DiffMatrix(cyclic_group(7), (tuple((0,) for _ in range(7)),) * 2)
    message = r"^not a homogeneous difference matrix: 14 \(row, element\) occurrence counts != 1$"
    with pytest.raises(ValueError, match=message):
        hdm_to_dm(zeros)
    message = r"^not a difference matrix: 7 \(row pair, element\) difference counts != 1$"
    with pytest.raises(ValueError, match=message):
        dm_to_hdm(zeros)


def test_dm_to_hdm_requires_a_zero_row():
    g = cyclic_group(7)
    with pytest.raises(ValueError, match="normalize"):
        dm_to_hdm(DiffMatrix(g, mult_rows(7, (1, 2))))
    only_zero = DiffMatrix(g, (tuple((0,) for _ in range(7)),))
    with pytest.raises(ValueError):
        dm_to_hdm(only_zero)


def test_units_matrix_over_ring_group():
    ring = build_ring([5])
    g = ring.additive_group()
    rows = tuple(
        tuple(ring.mul((m,), (c,)) for c in range(5)) for m in (1, 2, 4, 3)
    )
    assert verify_hdm(DiffMatrix(g, rows)).ok


@st.composite
def _shaped_families(draw):
    """A family over Z_v or Z_a x GF(4) whose blocks partition the group,
    are disjoint but miss some elements, or overlap."""
    group = draw(st.sampled_from([cyclic_group(1), cyclic_group(2), cyclic_group(23), cyclic_group(60),
                                  GroupDescriptor([3, build_field(2, 2)])]))
    shape = draw(st.sampled_from(["partitioned", "disjoint", "plain"]))
    order = draw(st.permutations(range(group.order)))
    kept = len(order) if shape == "partitioned" else draw(st.integers(0, len(order) - 1))
    cuts = sorted(draw(st.lists(st.integers(1, max(kept - 1, 1)), max_size=5, unique=True)))
    bounds = [0] + [c for c in cuts if c < kept] + [kept]
    blocks = [order[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
    if shape == "plain" and blocks:
        blocks.append(draw(st.lists(st.sampled_from(order[:kept]), min_size=1, unique=True)))
    return Family(group, [group.elements_at(b) for b in blocks])


@settings(max_examples=150, deadline=None)
@given(_shaped_families())
def test_the_coverage_map_agrees_with_a_set_of_the_elements(family):
    """One byte per element, shared by classify_family, covered, uncovered
    and extend_to_pdf, gives what a set of the covered elements gives."""
    group, blocks = family.group, family.blocks
    held = [x for b in blocks for x in b]
    covered = set(held)
    uncovered = [x for x in group.elements() if x not in covered]
    assert list(_coverage(family)) == [int(x in covered) for x in group.elements()]
    assert family.covered() == covered
    assert family.uncovered() == uncovered
    expected = "plain" if len(covered) < len(held) else "partitioned" if not uncovered else "disjoint"
    assert classify_family(family) == expected
    if expected == "plain":
        with pytest.raises(ValueError, match="overlap"):
            extend_to_pdf(family)
    else:
        pdf = extend_to_pdf(family)
        assert pdf.blocks == blocks + tuple((x,) for x in uncovered)
        assert classify_family(pdf) == "partitioned"


@st.composite
def _runs_of_blocks(draw):
    """Blocks in runs of equal sizes (0 to 4), ascending, or with a swap, a
    repeat or a descent across a block end."""
    runs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=5))
    blocks = []
    for k, m in runs:
        for _ in range(m):
            block = sorted(draw(st.lists(st.integers(0, 30), min_size=k, max_size=k, unique=True)))
            if k > 1 and draw(st.integers(0, 5)) == 0:
                i = draw(st.integers(0, k - 2))
                block[i + 1] = draw(st.sampled_from([block[i], block[i] - 1, block[i + 1]]))
            blocks.append(block)
    return blocks


@settings(max_examples=300, deadline=None)
@given(_runs_of_blocks())
def test_ascending_blocks_are_those_with_every_descent_at_a_block_end(blocks):
    """_ascending, which counts descents at the block ends of each run of
    equal sizes, agrees with a check of each block."""
    flat, sizes = [x for b in blocks for x in b], [len(b) for b in blocks]
    expected = all(b and all(x < y for x, y in zip(b, b[1:])) for b in blocks)
    assert _ascending(flat, sizes) == expected
