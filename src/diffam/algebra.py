"""Multiplication in finite fields and their products, automorphism
actions and their orbits, and isomorphisms of finite abelian groups.  The
additive core (the cap, number theory, groups and the element encoding) is
``diffam.groups``, and every name of it is served here too."""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
from math import gcd, lcm
from operator import add, floordiv, mod, mul, ne

from .groups import (  # the additive core, its names served here too
    GROUP_ORDER_CAP, AdditiveField, Element, ExhaustiveCapError, GroupDescriptor,
    _is_irreducible, _poly_gcd, _poly_mulmod, _poly_powmod, _poly_trim, check_cap,
    check_power_cap, cyclic_group, factorize, is_prime, prime_power, product_group,
)


def multiplicative_order(a: int, n: int, limit: int | None = None) -> int | None:
    """Order of a modulo n (requires gcd(a, n) = 1).

    With ``limit`` set, give up and return None once the order is known to
    exceed it — handy when scanning for low-order units.
    """
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    order, value = 1, a
    while value != 1:
        order += 1
        if limit is not None and order > limit:
            return None
        value = value * a % n
    return order


def _least_irreducible(p: int, n: int) -> tuple[int, ...]:
    """The canonically least monic irreducible of degree n over GF(p)
    (coefficient lists compared low degree first)."""
    if n == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=n):
        if low[0] == 0:
            continue
        candidate = list(low) + [1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise RuntimeError(f"no irreducible of degree {n} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------


class FieldDescriptor(AdditiveField):
    """GF(p^n) with a fixed monic irreducible modulus polynomial (by
    default the canonically least one): its additive group plus
    multiplication.

    Elements are encoded integers (see ``diffam.groups``).  Prime fields
    use direct modular arithmetic; extension fields multiply through exp/log
    tables built lazily from the canonical primitive element.
    """

    def __init__(self, p: int, n: int = 1, modulus: Sequence[int] | None = None):
        super().__init__(p, n, modulus)
        self._primitive: int | None = None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if n == 1:
            self.mul = lambda a, b: a * b % p  # type: ignore[assignment]

    def _least_modulus(self) -> tuple[int, ...]:
        return _least_irreducible(self.p, self.n)

    # -- arithmetic ---------------------------------------------------------
    # (n == 1 instances override mul with a closure in __init__)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        exp, log = self._tables()
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError(f"zero has no inverse in GF({self.q})")
        if self.n == 1:
            return pow(a, -1, self.p)
        exp, log = self._tables()
        return exp[-log[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ValueError(f"zero has no inverse in GF({self.q})")
            return self.one if e == 0 else 0
        e %= self.q - 1
        if self.n == 1:
            return pow(a, e, self.p)
        exp, log = self._tables()
        return exp[log[a] * e % (self.q - 1)]

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        order = self.q - 1
        for ell in factorize(self.q - 1):
            while order % ell == 0 and self.pow(a, order // ell) == self.one:
                order //= ell
        return order

    def primitive_element(self) -> int:
        """The canonically least element of multiplicative order q - 1."""
        if self._primitive is None:
            self._primitive = self._find_primitive()
        return self._primitive

    def trace(self, a: int, sub_degree: int = 1) -> int:
        """Trace into the subfield GF(p^sub_degree):
        a + a^s + a^(s^2) + ... with s = p^sub_degree."""
        if sub_degree < 1 or self.n % sub_degree != 0:
            raise ValueError(
                f"sub_degree {sub_degree} does not divide extension degree {self.n}"
            )
        s = self.p**sub_degree
        acc = y = a
        for _ in range(self.n // sub_degree - 1):
            y = self.pow(y, s)
            acc = self.add(acc, y)
        return acc

    # -- internals ----------------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free multiplication via polynomial arithmetic."""
        pa = _poly_trim(list(self.coeffs(a)))
        pb = _poly_trim(list(self.coeffs(b)))
        prod_ = _poly_mulmod(pa, pb, self.modulus, self.p)
        prod_ += [0] * (self.n - len(prod_))
        return self.element(tuple(prod_[: self.n]))

    def _find_primitive(self) -> int:
        if self.q == 2:
            return 1
        exponents = [(self.q - 1) // ell for ell in factorize(self.q - 1)]
        if self.n == 1:
            for g in range(1, self.p):
                if all(pow(g, e, self.p) != 1 for e in exponents):
                    return g
        else:
            for g in range(1, self.q):
                poly = _poly_trim(list(self.coeffs(g)))
                if all(
                    _poly_powmod(poly, e, self.modulus, self.p) != [1]
                    for e in exponents
                ):
                    return g
        raise RuntimeError(f"no primitive element in GF({self.q})")  # unreachable

    def _tables(self) -> tuple[list[int], list[int]]:
        if self._exp is None:
            p, n, q = self.p, self.n, self.q
            g = self.primitive_element()
            # the walk multiplies a whole value by g in a few int operations.
            # A value is held packed: its digits (encoding order, c0 most
            # significant) in fields of `width` bits, room for a sum of two
            # digits plus a guard bit.  Multiplying by g is linear, so g*a is
            # g*(a's high digits) + g*(a's low digits); one dict per half maps
            # the packed half to that product, packed, shifted above the
            # half's share of the encoded value.  The product's fields sum to
            # below 2p, and one subtraction of p from every field that
            # reaches p (the guard bit of field + 2^bits - p) reduces them.
            bits = (2 * p - 2).bit_length()
            width = bits + 1
            low = n // 2
            split = low * width
            low_mask = (1 << split) - 1
            value_bits = q.bit_length()
            value_mask = (1 << value_bits) - 1
            fields = range(0, n * width, width)
            guard = sum(1 << (s + bits) for s in fields)
            excess = sum(((1 << bits) - p) << s for s in fields)

            def pack(a: int) -> int:
                return sum(c << s for c, s in zip(reversed(self.coeffs(a)), fields))

            def half_table(values, shift: int) -> dict[int, int]:
                return {
                    pack(a) >> shift: pack(self._raw_mul(a, g)) << value_bits | a
                    for a in values
                }

            high_table = half_table(range(0, q, p**low), split)
            low_table = half_table(range(p**low), 0)
            exp = [0] * (q - 1)
            log = [0] * q
            packed = pack(self.one)
            for i in range(q - 1):
                step = high_table[packed >> split] + low_table[packed & low_mask]
                value = step & value_mask
                exp[i] = value
                log[value] = i
                packed = step >> value_bits
                packed -= (((packed + excess) & guard) >> bits) * p
            # the walk closes when g^(q-1) is one
            if packed != pack(self.one):
                raise RuntimeError("primitive element walk failed to close")
            self._exp, self._log = exp, log
        return self._exp, self._log


@lru_cache(maxsize=None)
def build_field(p: int, n: int = 1) -> FieldDescriptor:
    """GF(p^n) with the canonically least monic irreducible modulus."""
    return FieldDescriptor(p, n)


# ---------------------------------------------------------------------------
# placewise maps of canonical indices
# ---------------------------------------------------------------------------


def _mixed_radix(columns: Sequence[Sequence[int]], radices: Sequence[int]) -> list[int]:
    """A placewise map, one column per place, most significant first: entry
    i, read in the mixed radix of the column lengths, maps to the value whose
    place j in the mixed radix ``radices`` is columns[j][place j of i].  A
    lone column is the map, returned as it is, not copied."""
    out = columns[0]
    for col, r in zip(columns[1:], radices[1:]):
        out = [a * r + b for a in out for b in col]
    return out


# ---------------------------------------------------------------------------
# product rings of finite fields
# ---------------------------------------------------------------------------


class RingDescriptor(GroupDescriptor):
    """Direct product of finite fields: its additive group, as a
    GroupDescriptor of field factors, plus coordinatewise multiplication.

    The unit group is exactly the set of tuples with every coordinate
    nonzero, so unit tests and unit inverses are coordinatewise.
    """

    def __init__(self, fields: Sequence[FieldDescriptor]):
        if not fields:
            raise ValueError("a ring needs at least one field factor")
        for f in fields:
            if not isinstance(f, FieldDescriptor):
                raise ValueError(f"ring factor {f!r} is not a field")
        super().__init__(fields)
        self.one: Element = tuple(f.one for f in self.factors)

    def mul(self, x: Element, y: Element) -> Element:
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def is_unit(self, x: Element) -> bool:
        return all(c != 0 for c in x)

    def inv(self, x: Element) -> Element:
        return tuple(f.inv(c) for f, c in zip(self.factors, x))

    def pow(self, x: Element, e: int) -> Element:
        return tuple(f.pow(c, e) for f, c in zip(self.factors, x))

    def additive_group(self) -> GroupDescriptor:
        return self


def build_ring(factor_orders: Sequence[int]) -> RingDescriptor:
    """Product of fields of the given orders, e.g. [7, 13, 19].

    Every order must be a prime power; fields are built with canonical moduli.
    """
    fields = []
    for m in factor_orders:
        pp = prime_power(m)
        if pp is None:
            raise ValueError(f"ring factor {m} is not a prime power")
        fields.append(build_field(*pp))
    return RingDescriptor(fields)


# ---------------------------------------------------------------------------
# automorphism actions: unit multiplication, scalar multiplication, explicit
# ---------------------------------------------------------------------------


class UnitAction:
    """The cyclic group of additive automorphisms x -> u^j * x of a product
    ring, generated by multiplication by a fixed unit u."""

    def __init__(self, ring: RingDescriptor, generator: Element):
        ring.validate_element(generator)
        if not ring.is_unit(generator):
            raise ValueError(f"{generator} is not a unit of {ring!r}")
        self.ring = ring
        self.generator = generator
        self.group = ring
        self.order = lcm(*map(FieldDescriptor.element_order, ring.factors, generator))

    def step(self, x: Element) -> Element:
        return self.ring.mul(self.generator, x)

    def index_map(self) -> list[int]:
        """``step`` as a permutation of canonical indices: a column of
        products per field factor, combined in mixed radix."""
        factors = zip(self.ring.factors, self.generator)
        columns = [list(map(f.mul, itertools.repeat(u), range(f.q))) for f, u in factors]
        return _mixed_radix(columns, self.ring.factor_sizes)

    def elements(self) -> list[Element]:
        """The k subgroup members in power order: one, u, u^2, ..."""
        return [self.ring.pow(self.generator, j) for j in range(self.order)]

    def __repr__(self) -> str:
        return f"<unit action by {self.generator} of order {self.order} on {self.ring!r}>"


class ScalarAction:
    """The cyclic group of automorphisms x -> m^j * x of an abelian group,
    for an integer m coprime to the group exponent."""

    def __init__(self, group: GroupDescriptor, multiplier: int):
        exponent = group.exponent()
        if gcd(multiplier, exponent) != 1:
            raise ValueError(
                f"multiplication by {multiplier} is not an automorphism of "
                f"{group!r} (gcd with exponent {exponent} is "
                f"{gcd(multiplier, exponent)})"
            )
        self.group = group
        self.multiplier = multiplier % exponent
        self.order = multiplicative_order(self.multiplier, exponent)

    def step(self, x: Element) -> Element:
        return self.group.scalar_mul(self.multiplier, x)

    def index_map(self) -> list[int]:
        """``step`` as a permutation of canonical indices, digit by digit."""
        m, radices = self.multiplier, self.group.digit_radices()
        return _mixed_radix([[m * d % r for d in range(r)] for r in radices], radices)

    def __repr__(self) -> str:
        return (
            f"<scalar action by {self.multiplier} of order {self.order} "
            f"on {self.group!r}>"
        )


def _translation(group: GroupDescriptor, h: int) -> list[int]:
    """Addition of the element of canonical index h as a permutation of
    canonical indices: digit by digit, modulo each digit's radix."""
    radices, place, columns = group.digit_radices(), group.order, []
    for r in radices:
        place //= r
        d = h // place % r
        columns.append([*range(d, r), *range(d)])
    return _mixed_radix(columns, radices)


def _validated_maps(group: GroupDescriptor, maps: Sequence[dict]) -> list[list[int]]:
    """Check an explicit automorphism list: every map is an additive bijection
    of the group fixing zero (homomorphism tested against the canonical
    generators, on index permutations), the identity is present, and the set
    is closed under composition.  Each map is returned as a permutation of
    canonical indices."""
    elements = list(group.elements())
    element_set = set(elements)
    gens = group.canonical_generators()
    shifts = [_translation(group, g) for g in group.indices(gens)]
    perms = []
    for m in maps:
        if set(m) != element_set:
            raise ValueError("automorphism map is not defined on the whole group")
        values = list(map(m.__getitem__, elements))
        if not group.check_elements(values) or set(values) != element_set:
            raise ValueError("automorphism map is not a bijection")
        if m[group.zero] != group.zero:
            raise ValueError("automorphism map does not fix zero")
        perm = group.indices(values)
        for g, shift in zip(gens, shifts):
            # m(x + g) against m(x) + m(g), for every x in canonical order
            image_shift = _translation(group, perm[shift[0]])
            bad = map(ne, map(perm.__getitem__, shift), map(image_shift.__getitem__, perm))
            x = next(itertools.compress(itertools.count(), bad), None)
            if x is not None:
                x = group.elements_at([x])[0]
                raise ValueError(f"map is not additive: differs at {x} + {g}")
        perms.append(perm)
    if list(range(group.order)) not in perms:
        raise ValueError("automorphism list must contain the identity map")
    fingerprints = set(map(tuple, perms))
    for p1 in perms:
        for p2 in perms:
            if tuple(map(p1.__getitem__, p2)) not in fingerprints:
                raise ValueError("automorphism list is not closed under composition")
    return perms


def fixed_point_witness(group: GroupDescriptor, action):
    """A nonzero element fixed by some non-identity member of the action, as
    (element, power-or-map-index), or None when the action is semiregular.
    A cyclic action's witness is the least member of its first orbit
    shorter than its order, with that orbit's length; the walk stops there.
    An explicit list's is the least fixed nonzero element of its first
    non-identity map that fixes one, with that map's place in the list."""
    if isinstance(action, (UnitAction, ScalarAction)):
        for orbit in index_orbits(group, action):
            if len(orbit) < action.order:
                return group.elements_at(orbit[:1])[0], len(orbit)
        return None
    identity = list(range(group.order))
    for j, perm in enumerate(_validated_maps(group, action)):
        if perm != identity:
            x = next((x for x in identity[1:] if perm[x] == x), None)
            if x is not None:
                return group.elements_at([x])[0], j
    return None


def is_semiregular(group: GroupDescriptor, action) -> bool:
    """True when no non-identity member of the action fixes a nonzero element."""
    return fixed_point_witness(group, action) is None


def _image_orbits(perms: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """The images of each nonzero index not yet seen under a list of
    permutations closed under composition (its orbit), sorted."""
    seen = bytearray(len(perms[0]))
    for x in range(1, len(seen)):
        if not seen[x]:
            orbit = sorted({perm[x] for perm in perms})
            for y in orbit:
                seen[y] = 1
            yield tuple(orbit)


def index_orbits(group: GroupDescriptor, action) -> Iterator[tuple[int, ...]]:
    """``orbits`` as sorted tuples of canonical indices, yielded one at a
    time, so a caller may stop at any orbit.  A ``UnitAction`` or
    ``ScalarAction`` is walked along its index permutation; under an
    explicit list, the orbit of x is the set of its images."""
    if not isinstance(action, (UnitAction, ScalarAction)):
        yield from _image_orbits(_validated_maps(group, action))
        return
    if action.group != group:
        raise ValueError(f"action is defined on {action.group!r}, not on {group!r}")
    step = action.index_map()
    seen = bytearray(group.order)
    for x in range(1, group.order):
        if seen[x]:
            continue
        orbit = [x]
        y = step[x]
        while y != x:
            orbit.append(y)
            seen[y] = 1
            y = step[y]
        orbit.sort()
        yield tuple(orbit)


def orbits(group: GroupDescriptor, action) -> list[tuple[Element, ...]]:
    """Orbits of the action on the nonzero elements, each orbit sorted
    canonically, listed in order of their least members."""
    walk = list(index_orbits(group, action))
    flat = iter(group.elements_at(itertools.chain.from_iterable(walk)))
    return [tuple(itertools.islice(flat, len(orbit))) for orbit in walk]


def unit_subgroup_of_order(ring: RingDescriptor, k: int) -> UnitAction:
    """The order-k subgroup of the unit group generated coordinatewise by
    w_i^((q_i - 1)/k), with w_i the canonical primitive element of factor i.

    Requires k to divide every q_i - 1.  Distinct members differ in every
    coordinate, so pairwise differences of members are units.
    """
    if k < 1:
        raise ValueError(f"subgroup order must be positive, got {k}")
    coords = []
    for f in ring.factors:
        if (f.q - 1) % k != 0:
            raise ValueError(
                f"{k} does not divide |GF({f.q})*| = {f.q - 1}"
            )
        coords.append(f.pow(f.primitive_element(), (f.q - 1) // k))
    action = UnitAction(ring, tuple(coords))
    if action.order != k:
        raise RuntimeError(
            f"unit subgroup generator has order {action.order}, expected {k}"
        )
    return action


# ---------------------------------------------------------------------------
# abelian group isomorphism via prime-power decomposition
# ---------------------------------------------------------------------------


def invariant_factors(group: GroupDescriptor) -> list[int]:
    """Invariant factor chain d1 | d2 | ... | dt (ascending) of the group."""
    ds = [r for r in group.digit_radices() if r > 1]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            if ds[j] % ds[i]:
                g = gcd(ds[i], ds[j])
                ds[i], ds[j] = g, ds[i] * ds[j] // g
    return sorted(d for d in ds if d > 1)


# An atom Z_{p^a} (size p^a) of the primary decomposition, split off one
# digit of radix r: the digit's position in digits(), its canonical place,
# the cofactor r / p^a and the embedded generator (cofactor in that digit).
_Atom = namedtuple("_Atom", "p a size digit place cofactor generator")


def _atoms(group: GroupDescriptor) -> list[_Atom]:
    """One atom per prime power of each digit's radix (its CRT split); a
    field digit, of prime radix p, is its own single atom."""
    atoms: list[_Atom] = []
    place = group.order
    for j, (i, w, r) in enumerate(group.digits()):
        place //= r
        for p, a in sorted(factorize(r).items()):
            pa = p**a
            cofactor = r // pa
            gen = group.zero[:i] + (w * cofactor,) + group.zero[i + 1 :]
            atoms.append(_Atom(p, a, pa, j, place, cofactor, gen))
    return atoms


class Isomorphism:
    """A verified isomorphism between two abelian groups through matched
    prime-power coordinates, held as a map of canonical indices."""

    def __init__(self, domain: GroupDescriptor, codomain: GroupDescriptor, pairs):
        self.domain = domain
        self.codomain = codomain
        self._pairs = pairs  # list of (_Atom in domain, _Atom in codomain)
        self._index_map: list[int] | None = None

    def index_map(self) -> list[int]:
        """The canonical index of the image of each canonical index, built
        once and shared.  Per atom pair, one column: the domain atom's
        coordinate (its digit mod p^a, times the inverse of its cofactor mod
        p^a) times the image atom's cofactor; each image digit sums its
        columns modulo its radix."""
        if self._index_map is None:
            v, repeat = self.domain.order, itertools.repeat
            radices = self.codomain.digit_radices()
            columns = [repeat(0, v) for _ in radices]
            for src, dst in self._pairs:
                digit = map(mod, map(floordiv, range(v), repeat(src.place)), repeat(src.size))
                term = map(mul, digit, repeat(pow(src.cofactor, -1, src.size) * dst.cofactor))
                columns[dst.digit] = map(add, columns[dst.digit], term)
            index = repeat(0, v)
            for r, column in zip(radices, columns):
                index = map(add, map(mul, index, repeat(r)), map(mod, column, repeat(r)))
            self._index_map = list(index)
        return self._index_map

    def apply(self, x: Element) -> Element:
        self.domain.validate_element(x)
        (i,) = self.domain.indices([x])
        return self.codomain.elements_at([self.index_map()[i]])[0]

    def generator_images(self) -> list[tuple[Element, Element]]:
        return [(src.generator, dst.generator) for src, dst in self._pairs]

    def __repr__(self) -> str:
        return f"<isomorphism {self.domain!r} -> {self.codomain!r}>"


def abelian_iso(g1: GroupDescriptor, g2: GroupDescriptor) -> Isomorphism | None:
    """An explicit isomorphism g1 -> g2 when the invariant-factor
    decompositions coincide, else None.  The returned map is verified to be
    a bijective homomorphism before it is handed back."""
    if g1.order != g2.order:
        return None
    a1 = sorted(_atoms(g1), key=lambda at: (at.p, at.a))
    a2 = sorted(_atoms(g2), key=lambda at: (at.p, at.a))
    if [(at.p, at.a) for at in a1] != [(at.p, at.a) for at in a2]:
        return None
    iso = Isomorphism(g1, g2, list(zip(a1, a2)))
    if len(set(iso.index_map())) != g1.order:
        raise RuntimeError("isomorphism candidate is not a bijection")
    gens = [at.generator for at in a1] or [g1.zero]
    image = {g: iso.apply(g) for g in gens}
    for ga in gens:
        for gb in gens:
            if iso.apply(g1.add(ga, gb)) != g2.add(image[ga], image[gb]):
                raise RuntimeError("isomorphism candidate is not additive")
    return iso
