"""A product of fields is its own additive group: ``RingDescriptor`` is a
``GroupDescriptor`` that adds only its multiplication, and a group's
negation is subtraction from zero, over every factor shape."""

from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from diffam.algebra import (
    FieldDescriptor,
    GroupDescriptor,
    RingDescriptor,
    UnitAction,
    build_field,
    build_ring,
    cyclic_group,
)
from diffam.constructions import furino_ddf

# fields as (p, n); cyclic orders as ints
FIELD_SPECS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (3, 2),
               (5, 2), (2, 4), (7, 2), (3, 3), (2, 6)]
CYCLIC_SPECS = [1, 2, 4, 6, 9, 10, 12]
MAX_ORDER = 64


def _size(spec):
    return spec[0] ** spec[1] if isinstance(spec, tuple) else spec


def _draw_specs(draw, choices):
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        room = MAX_ORDER // prod(map(_size, specs))
        fits = [s for s in choices if _size(s) <= room]
        if not fits:
            break
        specs.append(draw(st.sampled_from(fits)))
    return [build_field(*s) if isinstance(s, tuple) else s for s in specs]


@st.composite
def rings(draw):
    return RingDescriptor(_draw_specs(draw, FIELD_SPECS))


@st.composite
def mixed_groups(draw):
    return GroupDescriptor(_draw_specs(draw, FIELD_SPECS + CYCLIC_SPECS))


@settings(max_examples=200, deadline=None)
@given(rings(), st.data())
def test_a_ring_is_its_additive_group(ring, data):
    assert isinstance(ring, GroupDescriptor)
    assert ring.additive_group() is ring
    group = GroupDescriptor(ring.factors)
    assert ring == group and group == ring
    assert hash(ring) == hash(group)
    assert ring.digits() == group.digits()
    assert repr(ring) == repr(group)
    unit = data.draw(st.sampled_from([x for x in ring.elements() if ring.is_unit(x)]))
    assert UnitAction(ring, unit).group is ring


@settings(max_examples=200, deadline=None)
@given(mixed_groups())
def test_neg_is_subtraction_from_zero(group):
    zero = group.zero
    for x in group.elements():
        minus_x = group.neg(x)
        assert minus_x == group.sub(zero, x)
        assert group.add(x, minus_x) == zero
        assert minus_x == tuple(
            f.neg(c) if isinstance(f, FieldDescriptor) else -c % f
            for f, c in zip(group.factors, x)
        )


@pytest.mark.parametrize("factors", [[7], [build_field(7), 13], [(7, 1)]])
def test_a_ring_refuses_a_non_field_factor(factors):
    with pytest.raises(ValueError, match="is not a field"):
        RingDescriptor(factors)


def test_a_ring_equals_the_group_it_adds_in():
    ring = build_ring([7, 13])
    assert ring.additive_group() is ring
    assert build_ring([7]) == cyclic_group(7)
    assert hash(build_ring([7])) == hash(cyclic_group(7))
    assert build_ring([4]) != GroupDescriptor((2, 2))
    # the family of a ring construction is over the ring object itself
    assert furino_ddf(ring, 3).group is ring
