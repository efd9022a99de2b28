"""The orbit walk over canonical indices against a tuple walk.

``orbits`` and ``fixed_point_witness`` follow an action's generator as a
permutation of canonical indices (``index_orbits``).  The oracle here keeps
the tuple walk they replaced: start at each nonzero element not yet seen, in
canonical order, and apply ``action.step`` until the orbit closes.  Groups
are Z_n, GF(p), GF(p^n) and their products (rings when every factor is a
field), of order at most 512, under scalar and unit actions.  A family built
from the index orbits must equal the family checked and encoded from the
tuple orbits.
"""

from math import gcd, prod

from hypothesis import given, settings, strategies as st

from diffam.algebra import (
    GroupDescriptor,
    RingDescriptor,
    ScalarAction,
    UnitAction,
    build_field,
    fixed_point_witness,
    index_orbits,
    orbits,
)
from diffam.designs import Family, IndexLists, classify_family, verify_df

# cyclic orders, prime fields and extension fields GF(p^n), n > 1
CYCLIC_SPECS = [1, 2, 3, 4, 6, 8, 9, 10, 12, 15]
FIELD_SPECS = [
    (2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2)
]
ORDER_BOUND = 512


def _size(spec):
    return spec[0] ** spec[1] if isinstance(spec, tuple) else spec


def _factors(draw, specs):
    chosen = [draw(st.sampled_from(specs))]
    for _ in range(draw(st.integers(0, 2))):
        room = ORDER_BOUND // prod(map(_size, chosen))
        fitting = [s for s in specs if _size(s) <= room]
        if fitting:
            chosen.append(draw(st.sampled_from(fitting)))
    return [build_field(*s) if isinstance(s, tuple) else s for s in chosen]


@st.composite
def scalar_actions(draw):
    group = GroupDescriptor(_factors(draw, CYCLIC_SPECS + FIELD_SPECS))
    exponent = group.exponent()
    m = draw(st.integers(1, 4 * exponent).filter(lambda m: gcd(m, exponent) == 1))
    return group, ScalarAction(group, m)


@st.composite
def unit_actions(draw):
    ring = RingDescriptor(_factors(draw, FIELD_SPECS))
    unit = tuple(draw(st.integers(1, f.q - 1)) for f in ring.factors)
    return ring, UnitAction(ring, unit)


def tuple_orbits(group, action):
    """The oracle: orbits by stepping element tuples, each sorted, listed
    by least member."""
    seen, out = set(), []
    for x in group.elements():
        if x == group.zero or x in seen:
            continue
        orbit = [x]
        y = action.step(x)
        while y != x:
            orbit.append(y)
            y = action.step(y)
        seen.update(orbit)
        out.append(tuple(sorted(orbit)))
    return out


def _check(group, action, lam):
    expected = tuple_orbits(group, action)
    assert orbits(group, action) == expected
    walk = list(index_orbits(group, action))
    assert walk == [tuple(group.indices(orbit)) for orbit in expected]
    short = [orbit for orbit in expected if len(orbit) < action.order]
    witness = (short[0][0], len(short[0])) if short else None
    assert fixed_point_witness(group, action) == witness
    checked = Family(group, expected)
    flat = [i for orbit in walk for i in orbit]
    indexed = Family(group, IndexLists(group, flat, list(map(len, walk))))
    assert checked == indexed
    assert checked.blocks == indexed.blocks == tuple(expected)
    assert checked.block_sizes() == indexed.block_sizes()
    assert classify_family(checked) == classify_family(indexed)
    assert verify_df(checked, lam) == verify_df(indexed, lam)


@settings(max_examples=200, deadline=None)
@given(scalar_actions(), st.integers(0, 6))
def test_scalar_orbits_match_the_tuple_walk(case, lam):
    _check(*case, lam)


@settings(max_examples=200, deadline=None)
@given(unit_actions(), st.integers(0, 6))
def test_unit_orbits_match_the_tuple_walk(case, lam):
    _check(*case, lam)


@settings(max_examples=100, deadline=None)
@given(st.one_of(scalar_actions(), unit_actions()))
def test_canonical_indices_round_trip(case):
    group, _ = case
    elements = list(group.elements())
    assert group.indices(elements) == list(range(group.order))
    assert group.elements_at(range(group.order)) == elements
