"""Property test of the structural queries that read a group's digits:
``digits``, ``canonical_generators``, ``exponent``, ``invariant_factors``
and ``abelian_iso``, over random products of Z_1, Z_n, GF(p) and GF(p^n)
of order at most 256."""

from math import lcm, prod

from hypothesis import given, settings, strategies as st

from diffam.algebra import (
    GroupDescriptor,
    abelian_iso,
    build_field,
    invariant_factors,
)

# cyclic orders, GF(p) and GF(p^n), n > 1, as (p, n)
FACTOR_SPECS = [1, 2, 4, 6, 9, 10, 12, 15, 30, (2, 1), (3, 1), (7, 1),
                (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]
MAX_ORDER = 256


def _size(spec):
    return spec[0] ** spec[1] if isinstance(spec, tuple) else spec


@st.composite
def mixed_groups(draw):
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        room = MAX_ORDER // prod(map(_size, specs))
        specs.append(draw(st.sampled_from([s for s in FACTOR_SPECS if _size(s) <= room])))
    return GroupDescriptor([build_field(*s) if isinstance(s, tuple) else s for s in specs])


def _span(group, gens):
    """The subgroup generated by gens, closed under addition."""
    members = {group.zero}
    frontier = [group.zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.add(x, g)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


@settings(max_examples=200, deadline=None)
@given(mixed_groups())
def test_digits_spell_the_canonical_index(group):
    digits = group.digits()
    assert tuple(r for _, _, r in digits) == group.digit_radices()
    assert prod(group.digit_radices()) == group.order
    for index, x in enumerate(group.elements()):
        value = 0
        for i, w, r in digits:
            value = value * r + x[i] // w % r
        assert value == index


@settings(max_examples=200, deadline=None)
@given(mixed_groups())
def test_generators_exponent_and_invariant_factors(group):
    gens = group.canonical_generators()
    assert _span(group, gens) == set(group.elements())
    inv = invariant_factors(group)
    assert all(d > 1 for d in inv)
    assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
    assert prod(inv) == group.order
    assert group.exponent() == lcm(*inv)
    for g in gens:
        assert group.scalar_mul(group.exponent(), g) == group.zero


@settings(max_examples=200, deadline=None)
@given(mixed_groups())
def test_isomorphism_onto_the_invariant_factor_form(group):
    target = GroupDescriptor(invariant_factors(group) or [1])
    iso = abelian_iso(group, target)
    assert iso is not None
    image = {x: iso.apply(x) for x in group.elements()}
    assert set(image.values()) == set(target.elements())
    # additive on generators of the domain, hence on the whole group
    for g in group.canonical_generators():
        for x in group.elements():
            assert image[group.add(x, g)] == target.add(image[x], image[g])
