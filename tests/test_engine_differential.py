"""Differential test of the count engines and deviation scan behind
verify_df, verify_ds and verify_dds.

Random blocks over random small groups of every shape (cyclic, extension
fields, mixed products) are checked against a brute-force oracle that counts
group.sub(x, y) over ordered pairs; the complete deviation maps must agree,
iteration order included.  The big-int product engine is also called
directly, on random blocks and at the slot-width boundaries, since the
verifiers route only large blocks through it.
"""

import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from diffam.algebra import GroupDescriptor, build_field, cyclic_group
from diffam.designs import (
    DDSParams,
    DSParams,
    Family,
    _convolution_counts,
    _use_convolution,
    verify_dds,
    verify_df,
    verify_ds,
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_convolution_counts_match_oracle(data):
    group = data.draw(groups())
    block = sorted(data.draw(_block(group, 1)))
    assert _convolution_counts(group, block) == oracle_counts(group, [block])


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
        assert _convolution_counts(group, block) == oracle_counts(group, [block])


@pytest.mark.parametrize("k", [255, 256])
def test_convolution_counts_at_one_byte_boundary(k):
    group = cyclic_group(300)
    block = [(x * 7 % 300,) for x in range(k)]
    assert _convolution_counts(group, block) == oracle_counts(group, [block])


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
    counts = _convolution_counts(group, block)
    assert len(counts) == group.order - 1
    assert set(counts.values()) == {expected}


def test_engine_choice():
    """Small blocks and heavily padded groups stay on the pairwise loop;
    the Singer (3280, 1093) block takes the product.  Nothing is counted."""
    assert not _use_convolution(cyclic_group(125003), 3)
    assert not _use_convolution(GroupDescriptor([build_field(2, 16)]), 4096)
    assert _use_convolution(cyclic_group(3280), 1093)
