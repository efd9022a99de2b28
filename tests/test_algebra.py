"""Exhaustive checks for the finite-field / ring / group layer.

Polynomial and field facts are cross-checked against naive in-test
implementations (trial-division irreducibility, schoolbook reduction,
walked element orders) rather than against the module's own helpers.
"""

import math
from itertools import product

import pytest

from diffam.algebra import (
    ExhaustiveCapError,
    FieldDescriptor,
    GroupDescriptor,
    ScalarAction,
    UnitAction,
    abelian_iso,
    build_field,
    build_ring,
    check_cap,
    cyclic_group,
    factorize,
    fixed_point_witness,
    invariant_factors,
    is_prime,
    is_semiregular,
    multiplicative_order,
    orbits,
    prime_power,
    product_group,
    unit_subgroup_of_order,
)

# ---------------------------------------------------------------------------
# naive polynomial oracle (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_divmod(num, den, p):
    """Schoolbook polynomial division over GF(p)."""
    num = poly_trim(num)
    den = poly_trim(den)
    assert den
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    while len(rem) >= len(den):
        coef = rem[-1] * inv_lead % p
        shift = len(rem) - len(den)
        quot[shift] = coef
        for i, d in enumerate(den):
            rem[shift + i] = (rem[shift + i] - coef * d) % p
        rem = poly_trim(rem)
        if not rem:
            break
    return quot, rem


def naive_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    poly = poly_trim(poly)
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            den = list(low) + [1]
            _, rem = poly_divmod(poly, den, p)
            if not rem:
                return False
    return True


def naive_polymul_mod(a, b, modulus, p):
    """Schoolbook product reduced mod the field modulus."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    _, rem = poly_divmod(out, modulus, p)
    return rem


def all_prime_powers(bound):
    out = []
    for q in range(2, bound + 1):
        pp = prime_power(q)
        if pp is not None:
            out.append((q,) + pp)
    return out


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------


def test_is_prime_small():
    sieve_primes = {
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
        61, 67, 71, 73, 79, 83, 89, 97,
    }
    for n in range(-5, 100):
        assert is_prime(n) is (n in sieve_primes)


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(91) == {7: 1, 13: 1}
    assert factorize(1729) == {7: 1, 13: 1, 19: 1}
    assert factorize(1024) == {2: 10}
    with pytest.raises(ValueError):
        factorize(0)
    for n in range(1, 2001):
        fac = factorize(n)
        assert all(is_prime(p) for p in fac)
        assert math.prod(p**a for p, a in fac.items()) == n


def test_prime_power():
    assert prime_power(7) == (7, 1)
    assert prime_power(49) == (7, 2)
    assert prime_power(1024) == (2, 10)
    assert prime_power(1) is None
    assert prime_power(12) is None
    assert prime_power(91) is None


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(29, 91) == 3
    assert multiplicative_order(5, 1) == 1
    # limit: order of 2 mod 101 is 100, far beyond 10
    assert multiplicative_order(2, 101, limit=10) is None
    assert multiplicative_order(2, 101, limit=100) == 100
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)
    # cross-check against a walked order for every unit of a few moduli
    for n in (7, 12, 45, 91):
        for u in range(1, n):
            if math.gcd(u, n) != 1:
                continue
            value, walked = u % n, 1
            while value != 1:
                value = value * u % n
                walked += 1
            assert multiplicative_order(u, n) == walked


# ---------------------------------------------------------------------------
# field construction: canonical moduli
# ---------------------------------------------------------------------------


def test_gf4_modulus_is_the_only_irreducible_quadratic():
    f = build_field(2, 2)
    assert f.modulus == (1, 1, 1)
    for low in product(range(2), repeat=2):
        poly = list(low) + [1]
        assert naive_irreducible(poly, 2) is (tuple(poly) == (1, 1, 1))


def test_canonical_modulus_is_least_irreducible():
    """The stored modulus must be irreducible and lexicographically first
    (low-degree coefficients compared first) among monic candidates."""
    for p, n in [(2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (5, 2), (7, 2), (13, 2)]:
        f = build_field(p, n)
        assert len(f.modulus) == n + 1 and f.modulus[-1] == 1
        assert naive_irreducible(list(f.modulus), p)
        low_part = f.modulus[:n]
        for cand in product(range(p), repeat=n):
            if cand >= low_part:
                break
            assert not naive_irreducible(list(cand) + [1], p)


def test_known_canonical_moduli():
    assert build_field(2, 3).modulus == (1, 0, 1, 1)
    assert build_field(2, 4).modulus == (1, 0, 0, 1, 1)
    assert build_field(3, 2).modulus == (1, 0, 1)


def test_field_descriptor_validation():
    with pytest.raises(ValueError):
        FieldDescriptor(4, 1)
    with pytest.raises(ValueError):
        FieldDescriptor(2, 0)
    with pytest.raises(ValueError):
        FieldDescriptor(2, 2, (1, 1))  # wrong length
    with pytest.raises(ValueError):
        FieldDescriptor(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2
    with pytest.raises(ValueError):
        FieldDescriptor(2, 2, (1, 1, 0))  # not monic


def test_explicit_modulus_field():
    """x^2 + 2x + 2 is irreducible over GF(3); a field built over it is a
    valid field distinct (as a descriptor) from the canonical GF(9)."""
    f = FieldDescriptor(3, 2, (2, 2, 1))
    g = build_field(3, 2)
    assert f != g
    assert f.q == 9
    for a in range(1, 9):
        assert f.mul(a, f.inv(a)) == f.one
    # multiplication agrees with naive reduction mod the explicit modulus
    for a in range(9):
        for b in range(9):
            want = naive_polymul_mod(
                list(f.coeffs(a)), list(f.coeffs(b)), [2, 2, 1], 3
            )
            want_t = tuple(want) + (0,) * (2 - len(want))
            assert f.mul(a, b) == f.element(want_t)


# ---------------------------------------------------------------------------
# element encoding
# ---------------------------------------------------------------------------


def test_gf4_encoding():
    f = build_field(2, 2)
    # constant coefficient is the most significant digit: one = p^(n-1)
    assert f.one == 2
    assert f.coeffs(2) == (1, 0)
    assert f.element((0, 1)) == 1
    assert f.coeffs(0) == (0, 0)
    # x * x = x + 1 under x^2 + x + 1
    assert f.mul(1, 1) == 3


def test_element_roundtrip_and_range():
    for f in (build_field(2, 3), build_field(3, 2)):
        for a in range(f.q):
            assert f.element(f.coeffs(a)) == a
    f9 = build_field(3, 2)
    with pytest.raises(ValueError):
        f9.element((3, 0))
    with pytest.raises(ValueError):
        f9.element((0,))


def test_characteristic2_addition_is_xor():
    for f in (build_field(2, 2), build_field(2, 3), build_field(2, 4)):
        for a in range(f.q):
            for b in range(f.q):
                assert f.add(a, b) == a ^ b


def test_gf4_mul_table_frozen():
    f = build_field(2, 2)
    table = [[f.mul(a, b) for b in range(4)] for a in range(4)]
    assert table == [
        [0, 0, 0, 0],
        [0, 3, 1, 2],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
    ]


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------


def test_field_axioms_exhaustive():
    for f in (build_field(7, 1), build_field(2, 2), build_field(2, 3), build_field(3, 2)):
        q = f.q
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.mul(a, f.one) == a
            assert f.add(a, f.neg(a)) == 0
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.sub(a, b) == f.add(a, f.neg(b))
                for c in range(q):
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == f.one
            assert f.pow(a, q - 1) == f.one


def test_mul_matches_naive_poly_mul():
    for f in (build_field(2, 3), build_field(3, 2), build_field(2, 4)):
        mod = list(f.modulus)
        for a in range(f.q):
            for b in range(f.q):
                rem = naive_polymul_mod(list(f.coeffs(a)), list(f.coeffs(b)), mod, f.p)
                rem_t = tuple(rem) + (0,) * (f.n - len(rem))
                assert f.mul(a, b) == f.element(rem_t)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 5), (2, 8), (5, 3), (2, 12)])
def test_exp_log_tables_match_the_polynomial_walk(p, n):
    """The packed exp/log table walk lists the same powers of the primitive
    element as multiplying by it polynomial by polynomial."""
    f = FieldDescriptor(p, n)
    g = list(f.coeffs(f.primitive_element()))
    exp, log = [], [0] * f.q
    value = f.one
    for i in range(f.q - 1):
        exp.append(value)
        log[value] = i
        rem = naive_polymul_mod(list(f.coeffs(value)), g, list(f.modulus), p)
        value = f.element(tuple(rem) + (0,) * (n - len(rem)))
    assert value == f.one
    assert f._tables() == (exp, log)


def test_pow_conventions():
    f = build_field(3, 2)
    assert f.pow(0, 0) == f.one
    assert f.pow(0, 5) == 0
    with pytest.raises(ValueError):
        f.pow(0, -1)
    with pytest.raises(ValueError):
        f.inv(0)
    for a in range(1, 9):
        assert f.pow(a, -1) == f.inv(a)
        acc = f.one
        for e in range(10):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_scalar_is_repeated_addition():
    for f in (build_field(7, 1), build_field(3, 2), build_field(2, 2)):
        for a in range(f.q):
            acc = 0
            for c in range(2 * f.p):
                assert f.scalar(c, a) == acc
                acc = f.add(acc, a)


def test_inverse_2_in_gf13():
    assert build_field(13, 1).inv(2) == 7


# ---------------------------------------------------------------------------
# primitive elements and element orders
# ---------------------------------------------------------------------------


def test_primitive_elements_pinned():
    assert build_field(7, 1).primitive_element() == 3
    assert build_field(13, 1).primitive_element() == 2
    assert build_field(19, 1).primitive_element() == 2
    assert build_field(2, 1).primitive_element() == 1
    assert build_field(2, 2).primitive_element() == 1
    assert build_field(2, 3).primitive_element() == 1
    assert build_field(3, 2).primitive_element() == 4


def test_primitive_element_order_walked_up_to_4096():
    """For every prime power q <= 4096 the canonical primitive element's
    order, computed by walking successive powers, is exactly q - 1."""
    for q, p, n in all_prime_powers(4096):
        f = build_field(p, n)
        g = f.primitive_element()
        value, order = g, 1
        while value != f.one:
            value = f.mul(value, g)
            order += 1
        assert order == q - 1, f"GF({q}): walked order {order}"


def test_primitive_element_is_least():
    for q, p, n in all_prime_powers(64):
        f = build_field(p, n)
        g = f.primitive_element()
        for smaller in range(1, g):
            value, order = smaller, 1
            while value != f.one:
                value = f.mul(value, smaller)
                order += 1
            assert order < q - 1


def test_element_order_matches_walk():
    for f in (build_field(13, 1), build_field(2, 4), build_field(3, 2)):
        for a in range(1, f.q):
            value, order = a, 1
            while value != f.one:
                value = f.mul(value, a)
                order += 1
            assert f.element_order(a) == order
    with pytest.raises(ValueError):
        build_field(7, 1).element_order(0)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_gf4_values():
    f = build_field(2, 2)
    assert f.trace(0) == 0
    assert f.trace(1) == f.one  # x + x^2 = 1
    assert f.trace(f.one) == 0  # 1 + 1 = 0


def test_gf8_zero_trace_count():
    f = build_field(2, 3)
    zero_trace = [a for a in range(8) if f.trace(a) == 0]
    assert zero_trace == [0, 3, 5, 6]
    assert len(zero_trace) == 4


def test_trace_additive_and_lands_in_subfield():
    cases = [
        (build_field(2, 2), 1),
        (build_field(2, 3), 1),
        (build_field(2, 4), 1),
        (build_field(2, 4), 2),
        (build_field(3, 2), 1),
        (build_field(2, 8), 1),
        (build_field(2, 8), 2),
        (build_field(2, 8), 4),
    ]
    for f, d in cases:
        s = f.p**d
        tr = {a: f.trace(a, d) for a in range(f.q)}
        for a in range(f.q):
            # the image is fixed by the subfield Frobenius x -> x^(p^d)
            assert f.pow(tr[a], s) == tr[a] or tr[a] == 0
            for b in range(f.q):
                assert tr[f.add(a, b)] == f.add(tr[a], tr[b])
    with pytest.raises(ValueError):
        build_field(2, 2).trace(1, 3)
    with pytest.raises(ValueError):
        build_field(2, 2).trace(1, 0)


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------


def test_build_ring_1729():
    ring = build_ring([7, 13, 19])
    assert ring.order == 1729
    assert ring.zero == (0, 0, 0)
    assert ring.one == (1, 1, 1)
    assert ring.is_unit((1, 1, 1))
    assert not ring.is_unit((0, 1, 1))
    assert ring.inv((2, 3, 7)) == (4, 9, 11)
    assert len(list(ring.elements())) == 1729


def test_build_ring_validation():
    with pytest.raises(ValueError):
        build_ring([6])
    with pytest.raises(ValueError):
        build_ring([])
    ring = build_ring([4])
    assert ring.order == 4
    assert ring.factors[0].modulus == (1, 1, 1)


def test_ring_componentwise_ops():
    ring = build_ring([7, 13])
    f7, f13 = ring.factors
    for x in ring.elements():
        for y in ((0, 0), (1, 1), (3, 5), (6, 12), (2, 7)):
            assert ring.add(x, y) == (f7.add(x[0], y[0]), f13.add(x[1], y[1]))
            assert ring.mul(x, y) == (f7.mul(x[0], y[0]), f13.mul(x[1], y[1]))
            assert ring.sub(x, y) == (f7.sub(x[0], y[0]), f13.sub(x[1], y[1]))
        assert ring.neg(x) == (f7.neg(x[0]), f13.neg(x[1]))
        if ring.is_unit(x):
            assert ring.mul(x, ring.inv(x)) == ring.one
            assert ring.pow(x, 3) == ring.mul(x, ring.mul(x, x))


# ---------------------------------------------------------------------------
# group descriptors
# ---------------------------------------------------------------------------


def test_cyclic_group_basics():
    g = cyclic_group(7)
    assert g.order == 7
    assert g.zero == (0,)
    assert list(g.elements()) == [(i,) for i in range(7)]
    assert g.add((3,), (5,)) == (1,)
    assert g.sub((0,), (2,)) == (5,)
    assert g.neg((4,)) == (3,)
    assert len(list(g.nonzero_elements())) == 6


def test_group_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor(())
    with pytest.raises(ValueError):
        GroupDescriptor((0,))
    with pytest.raises(ValueError):
        GroupDescriptor(("x",))
    g = cyclic_group(7)
    assert g.contains((3,))
    assert not g.contains((7,))
    assert not g.contains((1, 2))
    assert not g.contains("a")
    with pytest.raises(ValueError):
        g.validate_element((7,))


def test_mixed_group_ops():
    g = GroupDescriptor((4, build_field(2, 2)))
    assert g.order == 16
    f = g.factors[1]
    assert g.add((3, 1), (2, 1)) == (1, f.add(1, 1))
    assert g.add((3, 1), (2, 1)) == (1, 0)
    assert g.neg((1, 3)) == (3, 3)  # field negation is identity in char 2
    assert len(list(g.elements())) == 16


def test_prime_field_additive_group_equals_cyclic():
    """GF(p) carries the same additive group as Z_p, element for element,
    so the two descriptor spellings must compare (and hash) equal."""
    assert build_ring([7]).additive_group() == cyclic_group(7)
    assert hash(build_ring([7]).additive_group()) == hash(cyclic_group(7))
    assert GroupDescriptor((build_field(5, 1),)) == cyclic_group(5)
    # extension fields are genuinely different groups
    gf4_add = build_ring([4]).additive_group()
    assert gf4_add != cyclic_group(4)
    assert gf4_add != GroupDescriptor((2, 2))


def test_product_group_and_exponent():
    g = product_group(cyclic_group(4), cyclic_group(7))
    assert g.order == 28
    assert g.exponent() == 28
    assert GroupDescriptor((build_field(2, 2),)).exponent() == 2
    assert GroupDescriptor((build_field(2, 2), 3)).exponent() == 6
    assert cyclic_group(1).order == 1
    assert list(cyclic_group(1).elements()) == [(0,)]


def test_canonical_generators():
    assert cyclic_group(6).canonical_generators() == [(1,)]
    assert cyclic_group(1).canonical_generators() == []
    gens = GroupDescriptor((build_field(2, 2),)).canonical_generators()
    # the monomial basis 1, x of GF(4) as additive generators
    assert gens == [(2,), (1,)]
    assert GroupDescriptor((1, 6)).canonical_generators() == [(0, 1)]


def test_scalar_mul_is_repeated_addition():
    for g in (cyclic_group(12), GroupDescriptor((build_field(3, 2), 5))):
        for x in g.elements():
            acc = g.zero
            for c in range(13):
                assert g.scalar_mul(c, x) == acc
                acc = g.add(acc, x)


# ---------------------------------------------------------------------------
# actions: units of a ring, integer multipliers
# ---------------------------------------------------------------------------


def test_unit_action_basics():
    ring = build_ring([7])
    act = UnitAction(ring, (3,))
    assert act.order == 6
    elems = act.elements()
    assert elems == [(1,), (3,), (2,), (6,), (4,), (5,)]
    assert act.step((2,)) == (6,)
    with pytest.raises(ValueError):
        UnitAction(ring, (0,))


def test_unit_action_refuses_a_generator_outside_the_ring():
    # (9,) would act as multiplication by 2 under another name, and (7,)
    # would index past GF(4)'s log table
    for factors, generator, message in (
        ([7], (9,), r"\(9,\) is not an element of GF\(7\)"),
        ([4], (7,), r"\(7,\) is not an element of GF\(4\)"),
    ):
        with pytest.raises(ValueError, match=message):
            UnitAction(build_ring(factors), generator)


def test_unit_action_order_is_lcm_of_component_orders():
    ring = build_ring([7, 13])
    act = UnitAction(ring, (3, 2))
    assert act.order == 12  # lcm(ord 3 mod 7 = 6, ord 2 mod 13 = 12)
    assert len(set(act.elements())) == 12


def test_scalar_action_basics():
    act = ScalarAction(cyclic_group(7), 2)
    assert act.order == 3
    assert act.step((3,)) == (6,)
    act8 = ScalarAction(cyclic_group(8), 3)
    assert act8.order == 2
    assert act8.step((1,)) == (3,)
    with pytest.raises(ValueError):
        ScalarAction(cyclic_group(8), 2)


def test_unit_subgroup_of_order():
    ring = build_ring([7, 13, 19])
    sub = unit_subgroup_of_order(ring, 3)
    assert sub.generator == (2, 3, 7)
    assert sub.elements() == [(1, 1, 1), (2, 3, 7), (4, 9, 11)]
    f7 = build_ring([7])
    assert unit_subgroup_of_order(f7, 3).elements() == [(1,), (2,), (4,)]
    assert unit_subgroup_of_order(f7, 1).elements() == [(1,)]
    with pytest.raises(ValueError):
        unit_subgroup_of_order(build_ring([7, 13]), 4)  # 4 does not divide 6


def test_unit_subgroup_order_must_be_positive():
    with pytest.raises(ValueError, match=r"^subgroup order must be positive, got 0$"):
        unit_subgroup_of_order(build_ring([7]), 0)


def test_unit_subgroup_differences_are_units():
    """Distinct members of the order-k unit subgroup differ by a unit, the
    property that makes the subgroup usable as a block multiplier set."""
    cases = [
        (build_ring([7]), 3),
        (build_ring([13]), 4),
        (build_ring([7, 13]), 3),
        (build_ring([7, 13, 19]), 3),
        (build_ring([25]), 6),
    ]
    for ring, k in cases:
        members = unit_subgroup_of_order(ring, k).elements()
        assert len(set(members)) == k
        for a in members:
            for b in members:
                if a != b:
                    assert ring.is_unit(ring.sub(a, b))


# ---------------------------------------------------------------------------
# semiregularity and orbits
# ---------------------------------------------------------------------------


def test_fixed_point_witness_cyclic():
    assert fixed_point_witness(cyclic_group(7), ScalarAction(cyclic_group(7), 2)) is None
    witness = fixed_point_witness(cyclic_group(8), ScalarAction(cyclic_group(8), 3))
    assert witness == ((4,), 1)
    assert is_semiregular(cyclic_group(7), ScalarAction(cyclic_group(7), 2))
    assert not is_semiregular(cyclic_group(8), ScalarAction(cyclic_group(8), 3))


def test_witness_against_gcd_oracle():
    """For Z_v the multiplier action of u is semiregular exactly when
    gcd(u^j - 1, v) = 1 for every power 1 <= j < ord(u); a returned witness
    must actually be fixed by the named power."""
    for v in range(2, 80):
        g = cyclic_group(v)
        for u in range(1, v):
            if math.gcd(u, v) != 1:
                continue
            act = ScalarAction(g, u)
            expected = all(
                math.gcd(pow(u, j, v) - 1, v) == 1 for j in range(1, act.order)
            )
            witness = fixed_point_witness(g, act)
            assert (witness is None) is expected
            if witness is not None:
                (x,), j = witness
                assert x != 0 and 1 <= j < act.order
                assert x * pow(u, j, v) % v == x


def test_explicit_map_action():
    g = cyclic_group(5)
    ident = {x: x for x in g.elements()}
    negmap = {x: g.neg(x) for x in g.elements()}
    assert is_semiregular(g, [ident, negmap])
    assert orbits(g, [ident, negmap]) == [((1,), (4,)), ((2,), (3,))]
    # on Z_4 negation fixes 2
    g4 = cyclic_group(4)
    ident4 = {x: x for x in g4.elements()}
    neg4 = {x: g4.neg(x) for x in g4.elements()}
    assert fixed_point_witness(g4, [ident4, neg4]) == ((2,), 1)


def test_explicit_map_validation():
    g = cyclic_group(5)
    ident = {x: x for x in g.elements()}
    double = {x: g.add(x, x) for x in g.elements()}
    with pytest.raises(ValueError, match="closed"):
        orbits(g, [ident, double])  # missing composition x -> 4x
    with pytest.raises(ValueError, match="identity"):
        orbits(g, [double])
    with pytest.raises(ValueError, match="bijection"):
        orbits(g, [ident, {x: (0,) for x in g.elements()}])
    shifted = {x: g.add(x, (1,)) for x in g.elements()}
    with pytest.raises(ValueError):
        orbits(g, [ident, shifted])  # does not fix zero / not additive
    partial = dict(ident)
    del partial[(3,)]
    with pytest.raises(ValueError, match="whole group"):
        orbits(g, [ident, partial])


def test_explicit_map_values_outside_the_group_are_not_a_bijection():
    """A map whose values are distinct but not exactly the group's elements
    (non-integers, out of range, or equal only as numbers) is refused as a
    non-bijection before any arithmetic runs on its values."""
    g = cyclic_group(3)
    ident = {x: x for x in g.elements()}
    for image in ((("a",), ("b",)), ((4,), (5,)), ((1.0,), (2,))):
        bad = {(0,): (0,), (1,): image[0], (2,): image[1]}
        for call in (orbits, fixed_point_witness):
            with pytest.raises(ValueError, match="^automorphism map is not a bijection$"):
                call(g, [ident, bad])


def test_orbits_examples():
    g = cyclic_group(7)
    assert orbits(g, ScalarAction(g, 2)) == [
        ((1,), (2,), (4,)),
        ((3,), (5,), (6,)),
    ]
    g13 = cyclic_group(13)
    assert orbits(g13, ScalarAction(g13, 3)) == [
        ((1,), (3,), (9,)),
        ((2,), (5,), (6,)),
        ((4,), (10,), (12,)),
        ((7,), (8,), (11,)),
    ]
    g5 = cyclic_group(5)
    assert orbits(g5, ScalarAction(g5, 1)) == [((1,),), ((2,),), ((3,),), ((4,),)]


def test_orbits_refuse_an_action_on_another_group():
    with pytest.raises(ValueError, match="^action is defined on Z13, not on Z7$"):
        orbits(cyclic_group(7), ScalarAction(cyclic_group(13), 3))


def test_orbits_partition_nonzero():
    cases = [
        (cyclic_group(13), ScalarAction(cyclic_group(13), 3)),
        (cyclic_group(31), ScalarAction(cyclic_group(31), 5)),
        (
            build_ring([7, 13]).additive_group(),
            unit_subgroup_of_order(build_ring([7, 13]), 3),
        ),
    ]
    for g, act in cases:
        obs = orbits(g, act)
        seen = set()
        for orbit in obs:
            assert orbit == tuple(sorted(orbit))
            assert not (set(orbit) & seen)
            seen.update(orbit)
        assert seen == set(g.nonzero_elements())
        assert [o[0] for o in obs] == sorted(o[0] for o in obs)


def test_orbits_unit_action_on_ring():
    ring = build_ring([7, 13])
    act = unit_subgroup_of_order(ring, 3)
    obs = orbits(ring.additive_group(), act)
    assert len(obs) == 30
    assert all(len(o) == 3 for o in obs)


# ---------------------------------------------------------------------------
# exhaustiveness cap
# ---------------------------------------------------------------------------


def test_cap_errors():
    check_cap(10**6)
    with pytest.raises(ExhaustiveCapError):
        check_cap(10**6 + 1)
    assert issubclass(ExhaustiveCapError, ValueError)
    with pytest.raises(ExhaustiveCapError):
        big = cyclic_group(10**6 + 1)
        fixed_point_witness(big, ScalarAction(big, 10**6))


@pytest.mark.parametrize(
    "build, order",
    [
        (lambda: cyclic_group(10**6 + 1), 1000001),
        (lambda: product_group(cyclic_group(1000), build_ring([1009])), 1009000),
        (lambda: GroupDescriptor((1000, 1001)), 1001000),
        (lambda: build_ring([1000003]), 1000003),
    ],
    ids=["cyclic", "product", "descriptor", "ring"],
)
def test_no_group_over_the_cap_can_be_built(monkeypatch, build, order):
    """Every public constructor builds through GroupDescriptor, which refuses
    an order over the cap with the one cap text; a ring is refused before
    any field table or primitive element is computed."""

    def never(*args):
        raise AssertionError("a field table was built")

    monkeypatch.setattr(FieldDescriptor, "_tables", never)
    monkeypatch.setattr(FieldDescriptor, "_find_primitive", never)
    message = f"group order {order} exceeds the exhaustive-verification cap 1000000"
    with pytest.raises(ExhaustiveCapError) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# invariant factors and abelian isomorphism
# ---------------------------------------------------------------------------


def test_invariant_factors():
    assert invariant_factors(GroupDescriptor((85, 2))) == [170]
    assert invariant_factors(cyclic_group(4)) == [4]
    assert invariant_factors(GroupDescriptor((2, 2))) == [2, 2]
    assert invariant_factors(GroupDescriptor((6, 4))) == [2, 12]
    assert invariant_factors(build_ring([4]).additive_group()) == [2, 2]
    assert invariant_factors(GroupDescriptor((build_field(2, 3), 3))) == [2, 2, 6]
    assert invariant_factors(cyclic_group(1)) == []
    assert invariant_factors(GroupDescriptor((1, 6))) == [6]
    # each factor divides the next
    for g in (GroupDescriptor((6, 4)), GroupDescriptor((12, 18, 10))):
        inv = invariant_factors(g)
        assert math.prod(inv) == g.order
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


def exhaustive_iso_check(iso, g1, g2):
    image = [iso.apply(x) for x in g1.elements()]
    assert len(set(image)) == g1.order == g2.order
    for x in g1.elements():
        for y in g1.elements():
            assert iso.apply(g1.add(x, y)) == g2.add(iso.apply(x), iso.apply(y))


def test_abelian_iso_present():
    g1 = GroupDescriptor((85, 2))
    g2 = cyclic_group(170)
    iso = abelian_iso(g1, g2)
    assert iso is not None
    exhaustive_iso_check(iso, g1, g2)

    iso2 = abelian_iso(cyclic_group(6), GroupDescriptor((2, 3)))
    assert iso2 is not None
    exhaustive_iso_check(iso2, cyclic_group(6), GroupDescriptor((2, 3)))

    # the additive group of GF(4) is elementary abelian of order 4
    iso3 = abelian_iso(build_ring([4]).additive_group(), GroupDescriptor((2, 2)))
    assert iso3 is not None
    exhaustive_iso_check(iso3, build_ring([4]).additive_group(), GroupDescriptor((2, 2)))


def _additive_order(group, x):
    n, y = 1, x
    while y != group.zero:
        y, n = group.add(y, x), n + 1
    return n


@pytest.mark.parametrize(
    "g1, g2",
    [
        (GroupDescriptor((12, 18)), GroupDescriptor((6, 36))),
        (GroupDescriptor((build_field(3, 2), 4)), GroupDescriptor((3, 3, 4))),
        (GroupDescriptor((build_field(2, 3), 6)), GroupDescriptor((2, 2, 2, 6))),
        (GroupDescriptor((5, build_field(2, 2), 3)), GroupDescriptor((build_field(2, 2), 15))),
        (build_ring([4, 25]).additive_group(), GroupDescriptor((10, 10))),
        (GroupDescriptor((1, 4, 9)), cyclic_group(36)),
    ],
    ids=repr,
)
def test_isomorphism_index_map_matches_the_tuple_arithmetic(g1, g2):
    """Each combination sum c_i * (domain generator i) maps to the same
    combination of the image generators, both sides computed with the
    reference tuple arithmetic; the combinations cover the domain once, and
    the index map is a permutation."""
    iso = abelian_iso(g1, g2)
    pairs = iso.generator_images()
    seen = set()
    for cs in product(*(range(_additive_order(g1, src)) for src, _ in pairs)):
        x, y = g1.zero, g2.zero
        for c, (src, dst) in zip(cs, pairs):
            x, y = g1.add(x, g1.scalar_mul(c, src)), g2.add(y, g2.scalar_mul(c, dst))
        assert iso.apply(x) == y
        seen.add(x)
    assert len(seen) == g1.order
    assert sorted(iso.index_map()) == list(range(g1.order))


def test_abelian_iso_absent():
    assert abelian_iso(cyclic_group(4), GroupDescriptor((2, 2))) is None
    assert abelian_iso(cyclic_group(4), cyclic_group(8)) is None
    assert abelian_iso(build_ring([4]).additive_group(), cyclic_group(4)) is None


def test_abelian_iso_self_is_identity():
    iso = abelian_iso(cyclic_group(12), cyclic_group(12))
    assert iso is not None
    for x in cyclic_group(12).elements():
        assert iso.apply(x) == x


def test_isomorphism_generator_images_consistent():
    g1 = GroupDescriptor((85, 2))
    g2 = cyclic_group(170)
    iso = abelian_iso(g1, g2)
    for src, dst in iso.generator_images():
        assert iso.apply(src) == dst
        assert g1.contains(src) and g2.contains(dst)
    with pytest.raises(ValueError):
        iso.apply((200, 0))  # not a domain element
