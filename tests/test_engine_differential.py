"""Differential test of the count engines and deviation scan behind
verify_df, verify_ds and verify_dds.

Random blocks over random small groups of every shape (cyclic, extension
fields, mixed products) are checked against a brute-force oracle that counts
group.sub(x, y) over ordered pairs; the complete deviation maps must agree,
iteration order included.  Both engines are also called directly: the
pairwise engine on mixed, repeated and heavily padded blocks, the big-int
product engine on random blocks and at the slot-width boundaries, since the
verifiers route only large blocks through it.  Both return counts in
canonical element order, compared through ``as_dict``.  verify_dm and
verify_hdm, which fold one order of each row pair's differences, are
checked against a group.sub oracle of the row differences.
"""

import random
from collections import Counter
from itertools import cycle, islice
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from diffam.algebra import (
    FieldDescriptor,
    GroupDescriptor,
    build_field,
    build_ring,
    cyclic_group,
)
from diffam import designs
from diffam.constructions import dds_from_ds, furino_ddf, units_hdm
from diffam.designs import (
    DDSParams,
    DSParams,
    DiffMatrix,
    Family,
    _convolution_counts,
    _dense_counts,
    _index_counts,
    _Layout,
    _layout,
    _pairwise_counts,
    _use_convolution,
    verify_dds,
    verify_df,
    verify_dm,
    verify_ds,
    verify_hdm,
)

# cyclic orders and GF(p^n), n > 1; a group is a product of up to three
FACTOR_SPECS = [1, 2, 3, 4, 5, 6, 7, 9, 12, 13, (2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]


def _factor(spec):
    return build_field(*spec) if isinstance(spec, tuple) else spec


def _size(spec):
    return spec[0] ** spec[1] if isinstance(spec, tuple) else spec


@st.composite
def groups(draw):
    specs = [draw(st.sampled_from(FACTOR_SPECS))]
    for _ in range(draw(st.integers(0, 2))):
        room = 200 // prod(_size(s) for s in specs)
        specs.append(draw(st.sampled_from([s for s in FACTOR_SPECS if _size(s) <= room])))
    return GroupDescriptor([_factor(s) for s in specs])


def _block(group, min_size):
    elements = list(group.elements())
    return st.lists(st.sampled_from(elements), unique=True, min_size=min_size)


def oracle_counts(group, blocks):
    """Ordered-pair difference counts, nonzero entries only."""
    counts = {}
    for block in blocks:
        for x in block:
            for y in block:
                if x != y:
                    d = group.sub(x, y)
                    counts[d] = counts.get(d, 0) + 1
    return counts


def as_dict(group, dense):
    """Dense counts in canonical element order as a dict of nonzero entries,
    the shape oracle_counts returns; the zero element must count 0."""
    assert len(dense) == group.order and dense[0] == 0
    return {x: c for x, c in zip(group.elements(), dense) if c}


def oracle_deviations(group, blocks, expected):
    """Every nonzero element whose ordered-pair difference count differs from
    expected(x), in canonical element order."""
    counts = oracle_counts(group, blocks)
    out = {}
    for x in group.elements():
        if x != group.zero and counts.get(x, 0) != expected(x):
            out[x] = counts.get(x, 0)
    return out


def _subgroup(group, gens):
    """The subgroup generated by gens, by closing under addition."""
    members = {group.zero}
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        if x in members:
            continue
        members.add(x)
        frontier.extend(group.add(x, m) for m in list(members))
    return sorted(members)


def _same(report, expected):
    assert list(report.deviations.items()) == list(expected.items())
    assert report.ok == (not expected)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_df_matches_oracle(data):
    group = data.draw(groups())
    blocks = data.draw(st.lists(_block(group, 1), min_size=0, max_size=4))
    lam = data.draw(st.integers(0, 3))
    report = verify_df(Family(group, blocks), lam)
    _same(report, oracle_deviations(group, blocks, lambda x: lam))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_ds_matches_oracle(data):
    group = data.draw(groups())
    block = data.draw(_block(group, 0))
    lam = data.draw(st.integers(0, 3))
    report = verify_ds(block, group, DSParams(group.order, len(block), lam))
    _same(report, oracle_deviations(group, [block], lambda x: lam))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_dds_matches_oracle(data):
    group = data.draw(groups())
    elements = list(group.elements())
    gens = data.draw(st.lists(st.sampled_from(elements), max_size=2))
    subgroup = _subgroup(group, gens)
    block = data.draw(_block(group, 0))
    lam1, lam2 = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    n = len(subgroup)
    params = DDSParams(group.order // n, n, len(block), lam1, lam2)
    report = verify_dds(block, group, data.draw(st.permutations(subgroup)), params)
    inner = set(subgroup)
    expected = oracle_deviations(
        group, [block], lambda x: lam1 if x in inner else lam2
    )
    _same(report, expected)


def test_verify_dds_compares_the_subgroup_with_lambda1():
    """The (13, 4, 1) set lifted to Z13 x Z2 has lambda1 = 8 on {0} x Z2 and
    lambda2 = 2 elsewhere: a scan that ignores lambda1 fails it, and a wrong
    lambda1 deviates at exactly the one nonzero subgroup element."""
    lifted = dds_from_ds([(0,), (1,), (3,), (9,)], cyclic_group(13), 2)
    assert lifted.params == DDSParams(13, 2, 8, 8, 2)
    report = verify_dds(lifted.elements, lifted.group, lifted.subgroup, lifted.params)
    assert report.ok and report.stats["pairs"] == 8 * 7
    wrong = DDSParams(13, 2, 8, 2, 2)
    report = verify_dds(lifted.elements, lifted.group, lifted.subgroup, wrong)
    assert report.deviations == {(0, 1): 8}


# heavily padded groups (GF(2^12): 3^12 slots, about 130 v; GF(4) x GF(25):
# 729 slots for v = 100, folded through two runs of at most 4 v slots) and
# Z_1 factors
PADDED_GROUPS = [
    GroupDescriptor([build_field(2, 12)]),
    GroupDescriptor([1, build_field(2, 12)]),
    GroupDescriptor([3, 1, build_field(2, 2)]),
    GroupDescriptor([1]),
    GroupDescriptor([build_field(2, 2), build_field(5, 2)]),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairwise_counts_match_oracle(data):
    """Blocks of mixed sizes in one family, some repeated, over every group
    shape."""
    group = data.draw(st.one_of(groups(), st.sampled_from(PADDED_GROUPS)))
    blocks = data.draw(st.lists(_block(group, 1), max_size=5))
    if blocks:
        blocks += data.draw(st.lists(st.sampled_from(blocks), max_size=3))
    flat = group.indices([x for b in blocks for x in b])
    counts = _pairwise_counts(group, flat, list(map(len, blocks)))
    assert as_dict(group, counts) == oracle_counts(group, blocks)


def test_small_and_large_tallies_fold_through_both_cuts():
    """On one layout, a tally of a few keys folds through the one-digit runs
    and builds no wide runs; the first tally of a key per 8 of 4 v slots
    builds them, and small and large tallies then both fold through them."""
    group = GroupDescriptor([build_field(2, 2), build_field(5, 2)])
    _layout.cache_clear()
    layout = _layout(group)
    elements = list(group.elements())
    rng = random.Random(5)
    small = [rng.sample(elements, 3)]
    large = [rng.sample(elements, 12) for _ in range(6)]
    for blocks, built in ((small, False), (large, True), (small, True)):
        flat = group.indices([x for b in blocks for x in b])
        counts = _pairwise_counts(group, flat, list(map(len, blocks)))
        assert as_dict(group, counts) == oracle_counts(group, blocks)
        assert (layout.wide_runs is not None) == built


@pytest.mark.parametrize(
    "group",
    PADDED_GROUPS[:3]
    + PADDED_GROUPS[4:]
    + [
        GroupDescriptor([build_field(2, 2), build_field(5, 2), build_field(7, 2)]),
        GroupDescriptor([7, build_field(13), 5]),
        GroupDescriptor([2, 2, 2, 2, 2, 2, 2, 2, 2, 2]),
    ],
    ids=repr,
)
def test_wide_runs_fit_in_four_v_slots(group):
    """Every wide-run table has at most 4 v entries, one per slot of its
    run, and the runs' spans multiply to the padded slots."""
    layout, v = _Layout(group), group.order
    assert not layout.cyclic and layout.wide_runs is None
    counts = layout.counts([range(1 - v, v)])  # 2v - 1 keys build them
    assert sum(counts) == 2 * (2 * v - 1)  # each key counts in both orders
    spans = [span for _, span, _ in layout.wide_runs]
    assert prod(spans) == layout.slots
    assert all(len(table) == span <= 4 * v for _, span, table in layout.wide_runs)
    assert len(spans) < len(layout.digits) or len(spans) == 1
    if group == PADDED_GROUPS[4]:
        assert spans == [243, 3]


@pytest.mark.parametrize(
    "group",
    PADDED_GROUPS
    + [
        cyclic_group(1009),
        GroupDescriptor([build_field(3, 4)]),
        GroupDescriptor([build_field(2, 2), build_field(5, 2), build_field(7, 2)]),
    ],
    ids=repr,
)
def test_layout_subtract_matches_group_sub(group):
    """_Layout.subtract, given the positions of random elements x and y in
    step, yields the canonical index of group.sub(x, y).  On a fresh layout
    a subtract of fewer than v/2 keys folds through the one-digit runs and
    builds no wide runs, so every pair goes through them in slices of that
    size; one of at least v/2 keys builds them, and both cuts then give
    the same indices."""
    v = group.order
    rng = random.Random(v)
    xs = [rng.randrange(v) for _ in range(max(500, v))]
    ys = [rng.randrange(v) for _ in range(max(500, v))]
    pairs = zip(group.elements_at(xs), group.elements_at(ys))
    expected = group.indices([group.sub(x, y) for x, y in pairs])
    few, many = (v - 1) // 2, (v + 1) // 2  # the most keys that fold narrow, the fewest that build
    narrow, wide = _Layout(group), _Layout(group)
    positions = narrow.at(xs), narrow.at(ys)
    step = max(1, few)  # a group of order 1 has no narrow slice but one key
    for start in range(0, len(xs), step):
        cut = slice(start, start + step)
        assert list(narrow.subtract(positions[0][cut], positions[1][cut])) == expected[cut]
        assert narrow.wide_runs is None
    assert list(wide.subtract(positions[0][:many], positions[1][:many])) == expected[:many]
    assert (wide.wide_runs is not None) == (not wide.cyclic)
    # the few keys through the wide runs, and every key through them
    assert list(wide.subtract(positions[0][:few], positions[1][:few])) == expected[:few]
    assert list(wide.subtract(*positions)) == expected


def test_cyclic_layout_has_no_runs():
    """A one-digit layout folds nothing: a full tally counts each nonzero
    key in both orders, a full subtract reduces each key mod v, and neither
    builds run tables."""
    group = cyclic_group(125003)
    layout, v = _Layout(group), group.order
    assert layout.counts([range(v)])[1] == 2
    assert list(layout.subtract(range(v), [v - 1] * v)) == [*range(1, v), 0]
    assert layout.cyclic and layout.runs == () and layout.wide_runs is None


def _matrix_rows(group, rng, k):
    """k rows of v elements each: a permutation of the group, a multiple
    m x of every x in canonical order, a constant row, or anything."""
    elements = list(group.elements())
    rows = []
    for _ in range(k):
        shape = rng.randrange(4)
        if shape == 0:
            row = rng.sample(elements, len(elements))
        elif shape == 1:
            m = rng.randrange(1, group.exponent() + 1)
            row = [group.scalar_mul(m, x) for x in elements]
        elif shape == 2:
            row = [rng.choice(elements)] * len(elements)
        else:
            row = [rng.choice(elements) for _ in elements]
        rows.append(tuple(row))
    return rows


def oracle_dm_deviations(group, rows):
    """(i, j, x) -> count for every row pair i < j and element x that
    row i - row j does not hit exactly once, in that order."""
    out = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            counts = Counter(group.sub(x, y) for x, y in zip(rows[i], rows[j]))
            for x in group.elements():
                if counts[x] != 1:
                    out[(i, j, x)] = counts[x]
    return out


def oracle_hdm_deviations(group, rows):
    """The rows that are not permutations, by element; else the dm map."""
    out = {}
    for i, row in enumerate(rows):
        counts = Counter(row)
        for x in group.elements():
            if counts[x] != 1:
                out[("row", i, x)] = counts[x]
    return out or oracle_dm_deviations(group, rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_dm_and_hdm_match_oracle(data):
    """Row differences fold one order only; passing and failing matrices
    over every group shape, deviation maps compared in order."""
    group = data.draw(st.one_of(groups(), st.sampled_from(PADDED_GROUPS)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = _matrix_rows(group, rng, data.draw(st.integers(1, 4)))
    mat = DiffMatrix(group, rows)
    _same(verify_dm(mat), oracle_dm_deviations(group, rows))
    _same(verify_hdm(mat), oracle_hdm_deviations(group, rows))


def test_layout_tables_only_extension_fields():
    """A Z_n or GF(p) coordinate's position is the coordinate times a place,
    so a pure cyclic group's layout holds no per-element table; only a
    GF(p^n) factor, n > 1, has one, of q entries."""
    cyclic = _layout(cyclic_group(125003))
    assert cyclic.terms == (1,)
    sequences = [a for a in vars(cyclic).values() if isinstance(a, (list, tuple))]
    assert all(len(a) <= 1 for a in sequences)
    assert _layout(GroupDescriptor([7, build_field(13), 5])).terms == (25 * 9, 9, 1)
    mixed = _layout(GroupDescriptor([3, build_field(3, 2), build_field(2, 3)]))
    sizes = [len(t) if isinstance(t, list) else t for t in mixed.terms]
    assert sizes == [5 * 5 * 27, 9, 8]  # Z3's place, then GF(9)'s and GF(8)'s tables
    group = cyclic_group(12)
    assert _layout(group) is _layout(group)


def test_verifiers_subtract_no_elements(monkeypatch):
    """The count path works on positions: verify_df on a ring family and
    verify_hdm on a unit table never call FieldDescriptor.sub or group.sub."""
    ring = build_ring([4, 25, 7])
    family = furino_ddf(ring, 3)
    mat = units_hdm(ring, 3)
    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)

        return counted

    monkeypatch.setattr(FieldDescriptor, "sub", spy("field", FieldDescriptor.sub))
    for group in (family.group, mat.group):
        monkeypatch.setattr(group, "sub", spy("group", group.sub))
    assert verify_df(family, 2).ok
    assert verify_hdm(mat).ok
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_convolution_counts_match_oracle(data):
    group = data.draw(groups())
    block = sorted(data.draw(_block(group, 1)))
    counts = _convolution_counts(group, group.indices(block))
    assert as_dict(group, counts) == oracle_counts(group, [block])


@pytest.mark.parametrize(
    "factors",
    [(12,), (build_field(2, 3),), (build_field(3, 2), 4), (5, build_field(2, 2), 3)],
    ids=["cyclic", "GF(8)", "GF(9)xZ4", "Z5xGF(4)xZ3"],
)
def test_convolution_counts_every_shape(factors):
    """Every group shape, blocks of every size up to the whole group."""
    group = GroupDescriptor(factors)
    elements = list(group.elements())
    for k in range(1, len(elements) + 1):
        block = sorted(random.Random(k).sample(elements, k))
        counts = _convolution_counts(group, group.indices(block))
        assert as_dict(group, counts) == oracle_counts(group, [block])


@pytest.mark.parametrize("k", [255, 256])
def test_convolution_counts_at_one_byte_boundary(k):
    group = cyclic_group(300)
    block = [(x * 7 % 300,) for x in range(k)]
    counts = _convolution_counts(group, group.indices(block))
    assert as_dict(group, counts) == oracle_counts(group, [block])


@pytest.mark.parametrize(
    "factors, missing",
    [((65535,), None), ((65536,), None), ((255, 257), None), ((65536,), (7,))],
)
def test_convolution_counts_at_two_byte_boundary(factors, missing):
    """k = 65535 fills two-byte slots exactly and k = 65536 needs four.  A
    whole group G counts every nonzero difference |G| times; without one
    element, |G| - 2 times."""
    group = GroupDescriptor(factors)
    block = [x for x in group.elements() if x != missing]
    expected = group.order - (2 if missing else 0)
    counts = as_dict(group, _convolution_counts(group, group.indices(block)))
    assert len(counts) == group.order - 1
    assert set(counts.values()) == {expected}


@pytest.mark.parametrize("width", [(1, "B"), (2, "H"), (4, "I")], ids=["1-byte", "2-byte", "4-byte"])
@pytest.mark.parametrize(
    "factors",
    [(1093, 3), (build_field(2, 2), build_field(5, 2), build_field(7, 2))],
    ids=["Z1093xZ3", "GF4xGF25xGF49"],
)
def test_convolution_counts_fold_slots_of_every_width(factors, width, monkeypatch):
    """The fold moves whole slots of 1, 2 and 4 bytes, whether it reads a
    digit strided (Z3 and each field digit) or a row at a time (Z1093)."""
    group = GroupDescriptor(factors)
    monkeypatch.setattr(designs, "_slot", lambda k: width)
    elements = list(group.elements())
    for k in (3, 40):
        block = sorted(random.Random(k).sample(elements, k))
        counts = _convolution_counts(group, group.indices(block))
        assert as_dict(group, counts) == oracle_counts(group, [block])


def test_engine_choice():
    """Small blocks and heavily padded groups stay on the pairwise loop;
    the Singer (3280, 1093) block takes the product.  Nothing is counted."""
    assert not _use_convolution(cyclic_group(125003), 3)
    assert not _use_convolution(GroupDescriptor([build_field(2, 16)]), 4096)
    assert _use_convolution(cyclic_group(3280), 1093)


# the groups of the sweep, cyclic-large and ext-products benchmark workloads,
# whose blocks have 3 or 5 elements, and the (group, k) of each big-blocks file
WORKLOAD_GROUPS = [
    cyclic_group(11),
    cyclic_group(500),
    cyclic_group(125003),
    GroupDescriptor([build_field(11, 2)]),
    GroupDescriptor([build_field(2, 2), build_field(5, 2), build_field(7, 2)]),
]
BIG_BLOCKS = [
    (cyclic_group(3280), 1093),
    (cyclic_group(1093), 364),
    (GroupDescriptor([1093, 3]), 1092),
    (GroupDescriptor([1093, 2]), 728),
]


@pytest.mark.parametrize("group", WORKLOAD_GROUPS, ids=repr)
def test_blocks_of_at_most_five_elements_stay_pairwise(group):
    for k in (3, 5):
        for blocks in (1, 2, (group.order - 1) // k):
            assert not _use_convolution(group, k, blocks)


@pytest.mark.parametrize("group, k", BIG_BLOCKS, ids=repr)
def test_big_blocks_take_the_product(group, k):
    assert _use_convolution(group, k)


def test_mid_size_blocks_take_the_product_alone_but_not_in_a_large_family():
    """A lone block of 64 or more elements over a cyclic group takes the
    product; 96 blocks of 128 elements over Z_12289 stay on the loop, which
    counts them together, and the family's count reports that."""
    for v, k in [(3280, 64), (29524, 400), (125003, 5000), (12289, 128)]:
        assert _use_convolution(cyclic_group(v), k)
    assert not _use_convolution(cyclic_group(12289), 128, 96)
    family = furino_ddf(12289, 128)
    assert len(family.lists) == 96
    assert verify_df(family, 127).stats["engine"] == "pairwise"


@pytest.mark.parametrize("group", [cyclic_group(500), GroupDescriptor([4, build_field(5, 3)])], ids=repr)
def test_a_product_block_between_pairwise_blocks(group):
    """A block the model sends to the product sits between blocks of other
    sizes that stay on the pairwise loop, and sizes recur in separate runs:
    the product's block and the pairwise columns are cut from one flat list,
    and the counts match the oracle with both engines reported."""
    assert _use_convolution(group, 100) and not _use_convolution(group, 5)
    rng = random.Random(group.order)
    elements = list(group.elements())
    blocks = [rng.sample(elements, k) for k in (3, 5, 100, 3, 5, 4)]
    family = Family(group, blocks)
    assert as_dict(group, _dense_counts(family)[0]) == oracle_counts(group, blocks)
    report = verify_df(family, 1)
    assert report.stats["engine"] == "both"
    _same(report, oracle_deviations(group, blocks, lambda x: 1))


# one-digit groups, whose pairwise keys are index differences in (-v, v)
# tallied in a list of v counts
ONE_DIGIT_GROUPS = [cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(10), GroupDescriptor([build_field(13)])]


@pytest.mark.parametrize("group", ONE_DIGIT_GROUPS, ids=repr)
def test_one_digit_tally_at_the_ends_of_the_group(group):
    """Blocks holding 0 and v - 1, so that keys reach v - 1 and its negative
    1 - v, the whole group (every key), a block that repeats an element of
    another, and two blocks splitting the group: each count matches the
    oracle, and the zero element counts 0."""
    v = group.order
    ends = sorted({0, v - 1})
    cases = [[ends], [list(range(v))], [ends, [v - 1]], [list(range(0, v, 2)), list(range(1, v, 2)) or [0]]]
    for indices in cases:
        blocks = [group.elements_at(b) for b in indices]
        flat = [i for b in indices for i in b]
        counts = _pairwise_counts(group, flat, list(map(len, indices)))
        assert as_dict(group, counts) == oracle_counts(group, blocks)


@pytest.mark.parametrize("group", ONE_DIGIT_GROUPS[2:], ids=repr)
def test_one_digit_tally_reads_negative_keys_as_their_residues(group):
    """A tally of the keys 0, v - 1 and 1 - v counts them at indices 0,
    v - 1 and 1; the layout's counts add index x to index v - x, and index
    0, its own mirror, to itself."""
    layout, v = _Layout(group), group.order
    tally = _index_counts(v, [[0, v - 1, 1 - v, 1 - v]])
    assert tally[0] == 1 and tally[v - 1] == 1 and tally[1] == 2
    mirrored = layout.counts([[0, v - 1, 1 - v, 1 - v]])
    assert mirrored[0] == 2 and mirrored[1] == mirrored[v - 1] == 3
    assert sum(mirrored) == 8


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_digit_families_of_several_block_sizes(data):
    """Blocks of sizes 1 to 6 in one family over Z_v or GF(p): the report's
    deviation map matches the oracle's."""
    group = data.draw(st.sampled_from(ONE_DIGIT_GROUPS[1:] + [cyclic_group(61), cyclic_group(125)]))
    sizes = data.draw(st.lists(st.integers(1, min(6, group.order)), min_size=2, max_size=6))
    elements = list(group.elements())
    blocks = [data.draw(st.lists(st.sampled_from(elements), min_size=k, max_size=k, unique=True)) for k in sizes]
    lam = data.draw(st.integers(0, 2))
    _same(verify_df(Family(group, blocks), lam), oracle_deviations(group, blocks, lambda x: lam))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_index_counts_count_each_key_at_its_residue(data):
    """Keys in (-v, v), the ends 1 - v and v - 1 among them, in parts that
    may be empty, counted by the one-digit tally: each index below v holds
    the count of the keys congruent to it mod v, as a Counter counts them."""
    v = data.draw(st.sampled_from([1, 2]) | st.integers(1, 40))
    key = st.sampled_from([1 - v, v - 1]) | st.integers(1 - v, v - 1)
    parts = data.draw(st.lists(st.lists(key, max_size=6), max_size=5))
    oracle = Counter(x % v for part in parts for x in part)
    assert _index_counts(v, map(iter, parts)) == [oracle[i] for i in range(v)]


@pytest.mark.parametrize("order", ["ascending", "unsorted"])
@pytest.mark.parametrize("pattern", [(1, 2), (3, 1)], ids=str)
@pytest.mark.parametrize(
    "group", [cyclic_group(24), GroupDescriptor([build_field(3, 2)]), GroupDescriptor([build_field(2, 2), 3])], ids=repr
)
def test_families_whose_block_sizes_change_at_every_block(group, pattern, order):
    """Sizes 1, 2, 1, 2, ... or 3, 1, 3, 1, ..., so that no size's blocks
    form one run: a partition of the group and random overlapping blocks,
    given ascending (kept as they stand) or reversed (sorted by Family)."""
    rng = random.Random(f"{group!r}{pattern}")
    elements = list(group.elements())
    rank = {x: i for i, x in enumerate(elements)}  # canonical order
    rng.shuffle(elements)
    partition, start = [], 0
    for k in islice(cycle(pattern), len(elements)):
        if start < len(elements):
            partition.append(elements[start : start + k])
            start += k
    overlapping = [rng.sample(elements, k) for k in pattern * 5]
    for blocks in (partition, overlapping):
        blocks = [sorted(b, key=rank.__getitem__, reverse=order == "unsorted") for b in blocks]
        for lam in (0, 1):
            _same(verify_df(Family(group, blocks), lam), oracle_deviations(group, blocks, lambda x: lam))


@pytest.mark.parametrize("v", [2, 7, 12, 13])
def test_matrices_over_one_digit_groups(v):
    """Multiples of the elements of Z_v (an hdm when v is prime), with a
    zero row prepended (a dm), and a constant row whose differences with
    the zero row all fall at index 0: every deviation map matches the
    oracle's."""
    group = cyclic_group(v)
    rows = [tuple((m * x % v,) for x in range(v)) for m in range(1, min(v, 4))]
    zero = tuple((0,) for _ in range(v))
    constant = tuple(((v - 1),) for _ in range(v))
    for matrix in (rows, [zero] + rows, rows + [constant], [zero, constant]):
        mat = DiffMatrix(group, matrix)
        _same(verify_dm(mat), oracle_dm_deviations(group, matrix))
        _same(verify_hdm(mat), oracle_hdm_deviations(group, matrix))
