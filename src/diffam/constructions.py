"""Constructions of difference families, difference sets, and difference
matrices.  Every function re-verifies its output with the exhaustive checkers
before returning, so a successful return is a certificate.

The orbit constructions rest on one fact: when a group A of automorphisms of
G acts semiregularly on the nonzero elements with |A| = k, the A-orbits form
a (v, k, k-1) disjoint difference family — each orbit contributes every value
a(x) - b(x) exactly once per (a, b) pair.  When v*k is odd no orbit is fixed
by negation, so orbits split into {B, -B} pairs and picking one member of
each pair halves every difference count, giving a (v, k, (k-1)/2) family.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd, prod

import itertools

from .algebra import (
    Element,
    GroupDescriptor,
    RingDescriptor,
    ScalarAction,
    UnitAction,
    _image_orbits,
    _validated_maps,
    abelian_iso,
    build_field,
    build_ring,
    check_cap,
    check_power_cap,
    cyclic_group,
    factorize,
    fixed_point_witness,
    index_orbits,
    invariant_factors,
    prime_power,
    product_group,
    unit_subgroup_of_order,
)
from .designs import (
    KIND_TABLE,
    ConstructionError,
    DDSParams,
    DSParams,
    DiffMatrix,
    Family,
    IndexedElements,
    IndexLists,
    NotSemiregularError,
    _element_indices,
    _Record,
    classify_family,
    counting_lambda,
    dm_to_hdm,
    ds_lambda,
    family_params,
    normalize_dm,
    verify_df,
    verify_dds,
    verify_ds,
    verify_hdm,
)

__all__ = [
    "ConstructionError",
    "NotSemiregularError",
    "DDSConstruction",
    "orbit_ddf",
    "orbit_ddf_split",
    "furino_ddf",
    "cyclotomic_half_ddf",
    "trivial_ds",
    "units_hdm",
    "product_ddf",
    "result1_ddf",
    "singer_ds",
    "dds_from_ds",
    "result3star_dds",
]


def _require(report, what: str) -> None:
    if not report.ok:
        raise ConstructionError(f"{what} failed verification: {report.message}")


def _certified(family: Family, lam: int, what: str) -> Family:
    """The family, once one exact count at lam and a disjointness check
    certify it as a disjoint difference family."""
    _require(verify_df(family, lam), what)
    if classify_family(family) == "plain":
        raise ConstructionError(f"{what} has overlapping blocks")
    return family


# ---------------------------------------------------------------------------
# orbit families
# ---------------------------------------------------------------------------


def _semiregular_orbits(group: GroupDescriptor, action) -> tuple[list[int], int]:
    """The action's orbits on the nonzero elements, each sorted, in walk
    order as one flat list of canonical indices, and their size k (1 when
    there are none); or NotSemiregularError with the fixed-point witness.
    By orbit-stabilizer an orbit with fewer members than the action has
    distinct members holds a fixed point, so the walk stops there and only
    then looks for the witness (``fixed_point_witness``)."""
    if isinstance(action, (UnitAction, ScalarAction)):
        walk, order = index_orbits(group, action), action.order
    else:
        perms = _validated_maps(group, action)
        walk, order = _image_orbits(perms), len(set(map(tuple, perms)))
    flat: list[int] = []
    for orbit in walk:
        if len(orbit) < order:
            x, j = fixed_point_witness(group, action)
            raise NotSemiregularError(
                f"action is not semiregular: nonzero element {x} is fixed "
                f"(automorphism index {j})",
                (x, j),
            )
        flat += orbit
    return flat, order if flat else 1


def orbit_ddf(group: GroupDescriptor, action) -> Family:
    """The orbits of a semiregular order-k automorphism group on the nonzero
    elements, returned as a verified (v, k, k-1) disjoint difference family."""
    flat, k = _semiregular_orbits(group, action)
    orbits = IndexLists(group, flat, [k] * (len(flat) // k))
    return _certified(Family(group, orbits), k - 1, "orbit difference family")


def _orbit_half(group: GroupDescriptor, action) -> tuple[Family, list[int]]:
    """The first half of the negation split of a semiregular order-k
    action's orbits, certified by one count as a (v, k, (k-1)/2) family, and
    negation as a permutation of canonical indices.  An even v*k is refused
    after the walk, which finds k."""
    flat, k = _semiregular_orbits(group, action)
    v = group.order
    if (v * k) % 2 == 0:
        raise ConstructionError(
            f"v*k = {v}*{k} is even; the negation split needs v*k odd"
        )
    neg = ScalarAction(group, -1).index_map()
    # the orbits B with min B < min(-B), in walk order: the walk meets orbits
    # in order of their least member, so these are the orbits met before their
    # negations; one fixed by negation is in neither half and fails the count
    orbits = zip(*[iter(flat)] * k)  # one orbit tuple at a time
    first = (b for b in orbits if b[0] < min(map(neg.__getitem__, b)))
    half = list(itertools.chain.from_iterable(first))
    del flat  # the count runs with only the half alive
    orbits = IndexLists(group, half, [k] * (len(half) // k))
    return _certified(Family(group, orbits), (k - 1) // 2, "half-index orbit family"), neg


def orbit_ddf_split(group: GroupDescriptor, action) -> tuple[Family, Family]:
    """Split the orbit family of a semiregular order-k action into the two
    half-index (v, k, (k-1)/2) families given by negation pairing.

    Requires v*k odd; then no orbit equals its own negation, and the orbits
    fall into pairs {B, -B} whose halves each cover every nonzero element
    (k-1)/2 times.  The first half holds each B with min B < min(-B), the
    second the negations -B in the same order.
    """
    first, neg = _orbit_half(group, action)
    # the negated blocks, each sorted by the constructor
    second = IndexLists(group, list(map(neg.__getitem__, first.lists.flat)), first.lists.sizes)
    lam = ((first.uniform_k() or 1) - 1) // 2  # (k-1)/2, and 0 for v = 1
    return first, _certified(Family(group, second), lam, "half-index orbit family")


def _least_semiregular_unit(v: int, k: int) -> int:
    """The least residue u acting semiregularly on Z_v with order k:
    u^k = 1 (mod v) and every u^j - 1 (1 <= j < k) coprime to v."""
    if k == 1:
        return 1
    for u in range(2, v):
        if pow(u, k, v) != 1:
            continue
        if all(gcd(pow(u, j, v) - 1, v) == 1 for j in range(1, k)):
            return u
    raise ConstructionError(
        f"no unit of order {k} acts semiregularly on Z_{v}"
    )


def furino_ddf(base, k: int, half: bool = False) -> Family:
    """Unit-orbit (v, k, k-1) disjoint difference families.

    ``base`` is either an integer v — every prime divisor of which must be
    congruent to 1 mod k — giving orbits of the least semiregular unit of
    order k on Z_v, or a product ring whose field orders q_i are all
    congruent to 1 mod k, giving orbits of the canonical order-k unit
    subgroup.  With ``half=True`` (requires v*k odd) only the first half of
    the negation split, a (v, k, (k-1)/2) family, is built and counted.
    """
    if k < 1:
        raise ConstructionError(f"block size must be positive, got {k}")
    if isinstance(base, int):
        v = base
        check_cap(v)
        if v < 1:
            raise ConstructionError(f"group order must be positive, got {v}")
        for p in factorize(v) if v > 1 else ():
            if (p - 1) % k != 0:
                raise ConstructionError(
                    f"prime divisor {p} of {v} is not congruent to 1 mod {k}"
                )
        group = cyclic_group(v)
        if v == 1:
            return Family(group, [])
        action = ScalarAction(group, _least_semiregular_unit(v, k))
    elif isinstance(base, RingDescriptor):
        for f in base.factors:
            if (f.q - 1) % k != 0:
                raise ConstructionError(
                    f"field order {f.q}: {f.q - 1} is not divisible by {k}"
                )
        group = base.additive_group()
        action = unit_subgroup_of_order(base, k)
    else:
        raise ConstructionError(f"unsupported base {base!r}: pass v or a ring")
    if half:
        if (group.order * k) % 2 == 0:
            raise ConstructionError(
                f"v*k = {group.order}*{k} is even; no half-index variant"
            )
        return _orbit_half(group, action)[0]
    return orbit_ddf(group, action)


# ---------------------------------------------------------------------------
# the explicit half-index family from multiplicative classes
# ---------------------------------------------------------------------------


def _associate_classes(t: int) -> list[tuple[int, ...]]:
    """Nonempty supports of the 2^t - 1 associate classes, ordered by size
    then lexicographically; the support lists the non-null factor positions."""
    out: list[tuple[int, ...]] = []
    for size in range(1, t + 1):
        out.extend(itertools.combinations(range(t), size))
    return out


def cyclotomic_half_ddf(
    ring: RingDescriptor, k: int, sigma_choice: dict[int, int] | None = None
) -> Family:
    """A (v, k, (k-1)/2) disjoint difference family over a product of fields
    of orders q_i = 2*k*n_i + 1, for odd k.

    Blocks are the order-k unit-subgroup multiples of a transversal X built
    classwise: each associate class (a choice of null/non-null factors) has
    one non-null position replaced by the index set
    S_i = {w_i, w_i^2, ..., w_i^(n_i)} of powers of the canonical primitive
    element, which picks exactly one representative from each {B, -B} orbit
    pair inside that class.  ``sigma_choice`` optionally overrides the
    replaced position per class index (default: the lowest non-null
    position); any legal choice yields a valid family.
    """
    if k < 1 or k % 2 == 0:
        raise ConstructionError(f"block size must be odd and positive, got {k}")
    index_sets = []
    for f in ring.factors:
        if (f.q - 1) % (2 * k) != 0:
            raise ConstructionError(
                f"field order {f.q}: expected q = 2*{k}*n + 1 for a positive n"
            )
        n = (f.q - 1) // (2 * k)
        index_sets.append(tuple(f.pow(f.primitive_element(), j) for j in range(1, n + 1)))
    t = len(ring.factors)
    classes = _associate_classes(t)
    if sigma_choice:
        for idx in sigma_choice:
            if not 0 <= idx < len(classes):
                raise ConstructionError(
                    f"class index {idx} out of range (have {len(classes)} classes)"
                )
    transversal: list[Element] = []
    for ci, support in enumerate(classes):
        pick = sigma_choice.get(ci, support[0]) if sigma_choice else support[0]
        if pick not in support:
            raise ConstructionError(
                f"class {ci} has support {support}; cannot replace factor {pick}"
            )
        coordinate_sets = []
        for i, f in enumerate(ring.factors):
            if i == pick:
                coordinate_sets.append(index_sets[i])
            elif i in support:
                coordinate_sets.append(tuple(range(1, f.q)))
            else:
                coordinate_sets.append((0,))
        transversal.extend(itertools.product(*coordinate_sets))
    # the block of x is row j of the unit table read at x, for every j
    starts = ring.indices(transversal)
    columns = [list(map(row.__getitem__, starts)) for row in _unit_table(ring, k)]
    flat = list(itertools.chain.from_iterable(zip(*columns)))
    group = ring.additive_group()
    family = Family(group, IndexLists(group, flat, [k] * len(starts)))
    return _certified(family, (k - 1) // 2, "half-index family")


# ---------------------------------------------------------------------------
# difference sets and matrices used as product ingredients
# ---------------------------------------------------------------------------


def trivial_ds(k: int) -> tuple[tuple[Element, ...], GroupDescriptor]:
    """The nonzero elements of Z_{k+1}: a (k+1, k, k-1) difference set."""
    if k < 1:
        raise ConstructionError(f"block size must be positive, got {k}")
    check_cap(k + 1)
    group = cyclic_group(k + 1)
    dset = tuple((i,) for i in range(1, k + 1))
    _require(verify_ds(dset, group, DSParams(k + 1, k, k - 1)), "trivial difference set")
    return dset, group


def _unit_table(ring: RingDescriptor, k: int) -> list[list[int]]:
    """One row per member u^j of the canonical order-k unit subgroup, in
    power order: row j read at the canonical index of x is the canonical
    index of u^j * x, so row j + 1 is the index map of u read at row j."""
    step = unit_subgroup_of_order(ring, k).index_map()
    rows = [list(range(ring.order))]
    for _ in range(k - 1):
        rows.append(list(map(step.__getitem__, rows[-1])))
    return rows


def units_hdm(ring: RingDescriptor, k: int) -> DiffMatrix:
    """The k x v multiplication table of the canonical order-k unit subgroup
    against all ring elements: a (v, k, 1) homogeneous difference matrix.

    Row differences (u - u')x run over the whole ring as x does because
    u - u' is a unit; each row ux is a permutation for the same reason.
    """
    flat = list(itertools.chain.from_iterable(_unit_table(ring, k)))
    group = ring.additive_group()
    mat = DiffMatrix(group, IndexLists(group, flat, [ring.order] * k))
    _require(verify_hdm(mat), "unit multiplication table")
    return mat


# ---------------------------------------------------------------------------
# the product construction and its ready-made composition
# ---------------------------------------------------------------------------


def _one_uncovered(family: Family, what: str) -> Element:
    missing = family.uncovered()
    if len(missing) != 1:
        raise ConstructionError(
            f"{what} leaves {len(missing)} elements uncovered; need exactly 1"
        )
    return missing[0]


def product_ddf(family_g: Family, family_h: Family, hdm_h: DiffMatrix) -> Family:
    """Compose a (u, k, k-1) DDF in G and a (v, k, k-1) DDF in H — each
    covering all but one element — with a (v, k, 1) homogeneous difference
    matrix over H into a (u*v, k, k-1) DDF in G x H.

    Each G-block A = {a_1 < ... < a_k} spawns v product blocks
    {(a_i, M[i][j]) : i} (one per column j); each H-block B is lifted as
    {g0} x B with g0 the element missed in G.  Exactly (g0, h0) stays
    uncovered.
    """
    k = family_g.uniform_k()
    if k is None or k != family_h.uniform_k():
        raise ConstructionError("both families must share one block size")
    if hdm_h.k != k:
        raise ConstructionError(
            f"matrix has {hdm_h.k} rows, families have block size {k}"
        )
    if hdm_h.group != family_h.group:
        raise ConstructionError("matrix and second family live over different groups")
    big = product_group(family_g.group, family_h.group)
    _require(verify_df(family_g, k - 1), "first factor family")
    _require(verify_df(family_h, k - 1), "second factor family")
    if classify_family(family_g) == "plain" or classify_family(family_h) == "plain":
        raise ConstructionError("factor families must be disjoint")
    g0 = _one_uncovered(family_g, "first factor family")
    _one_uncovered(family_h, "second factor family")
    _require(verify_hdm(hdm_h), "homogeneous difference matrix")
    # (x, y) in G x H has canonical index index(x) * |H| + index(y), so each
    # block below is ascending as its (distinct) G coordinates are
    v_h, entries = family_h.v, hdm_h.lists.flat  # M[i][j] is entries[i * v_h + j]
    (g0_index,) = family_g.group.indices([g0])
    flat = [
        a * v_h + entries[i * v_h + j]
        for block_a in family_g.lists.cut()
        for j in range(v_h)
        for i, a in enumerate(block_a)
    ]
    flat += [g0_index * v_h + y for y in family_h.lists.flat]
    product = IndexLists(big, flat, [k] * (len(flat) // k))
    return _certified(Family(big, product), k - 1, "product family")


def result1_ddf(k: int, ring: RingDescriptor) -> Family:
    """A (v*(k+1), k, k-1) DDF in Z_{k+1} x R for a product ring R of field
    orders congruent to 1 mod k: the trivial difference set, the unit-orbit
    family over R, and the unit multiplication table composed via the
    product construction."""
    check_cap((k + 1) * ring.order)
    dset, zk = trivial_ds(k)
    family_g = Family(zk, [dset])
    family_h = furino_ddf(ring, k, half=False)
    return product_ddf(family_g, family_h, units_hdm(ring, k))


# ---------------------------------------------------------------------------
# hyperplane difference sets and divisible variants
# ---------------------------------------------------------------------------


def singer_ds(q: int, m: int) -> tuple[tuple[Element, ...], GroupDescriptor]:
    """The classical point/hyperplane difference set of PG(m-1, q): indices i
    in Z_v, v = (q^m - 1)/(q - 1), with trace(alpha^i) = 0 in GF(q^m) over
    GF(q).  Parameters ((q^m-1)/(q-1), (q^(m-1)-1)/(q-1), (q^(m-2)-1)/(q-1)).

    The trace of alpha^i is scale-invariant under GF(q)* (trace is
    GF(q)-linear), so membership depends only on i mod v.  Being GF(p)-linear
    as well, the trace is tabulated once on the monomial basis, each of its
    coordinates is tabulated over all p^n codes a digit at a time, and
    alpha^i, alpha the canonical primitive element, is read off the field's
    exp table.
    """
    check_power_cap(q, m)  # before prime_power trial-divides q
    pp = prime_power(q)
    if pp is None:
        raise ConstructionError(f"{q} is not a prime power")
    if m < 3:
        raise ConstructionError(f"need dimension >= 3, got {m}")
    p, a = pp
    ext = build_field(p, a * m)
    v = (q**m - 1) // (q - 1)
    params = DSParams(v, (q ** (m - 1) - 1) // (q - 1), (q ** (m - 2) - 1) // (q - 1))
    # row l holds coefficient l of trace(x^j) for j = 0..n-1, so coefficient l
    # of trace(x) is the dot product of row l with the digits of x, mod p:
    # values[x] for every code x, grown from the most significant digit
    n = ext.n
    basis_traces = [ext.coeffs(ext.trace(p ** (n - 1 - j), a)) for j in range(n)]
    powers = ext._tables()[0][:v]  # alpha^i for i < v
    members = range(v)
    for row in zip(*basis_traces):
        if any(row):
            values = [0]
            for c in row:
                values = [(s + d * c) % p for s in values for d in range(p)]
            members = [i for i in members if not values[powers[i]]]
    group = cyclic_group(v)
    _require(verify_ds(IndexedElements(group, members), group, params), "hyperplane difference set")
    return tuple(zip(members)), group


class DDSConstruction(_Record):
    """A verified divisible difference set with its ambient group, the
    forbidden subgroup (both sets IndexedElements from a recipe) and parameters."""

    _fields = ("elements", "group", "subgroup", "params")

    def __init__(self, elements: tuple, group: GroupDescriptor, subgroup: tuple, params: DDSParams):
        self.elements, self.group, self.subgroup, self.params = elements, group, subgroup, params


def _lift(group: GroupDescriptor, block: list[int], lam: int, h: int):
    """The lift D x Z_h of a (v, k, lam) difference set D in G, given as its
    sorted canonical indices, as (G x Z_h, lifted set, subgroup {0} x Z_h,
    parameters), the two sets IndexedElements: (x, j) has canonical index
    x * h + j, so the lift of a sorted set is sorted."""
    big = product_group(group, cyclic_group(h))
    v, k = group.order, len(block)
    lifted = IndexedElements(big, [x * h + j for x in block for j in range(h)])
    params = DDSParams(v, h, k * h, k * h, lam * h)
    return big, lifted, IndexedElements(big, range(h)), params


def dds_from_ds(
    dset: Iterable[Element], group: GroupDescriptor, h: int
) -> DDSConstruction:
    """Lift a (v, k, lambda) difference set D in G to the divisible
    difference set D x Z_h in G x Z_h relative to {0} x Z_h, with parameters
    (v, h, k*h, k*h, lambda*h)."""
    if h < 1:
        raise ConstructionError(f"subgroup order must be positive, got {h}")
    check_cap(group.order * h)  # before Z_h is built, so the order named is v*h
    indices = _element_indices(group, dset)
    block = sorted(set(indices))
    if len(block) != len(indices):
        raise ConstructionError("difference set input has repeated elements")
    v, k = group.order, len(block)
    # the one verify_ds call below certifies that every count equals lam
    lam = ds_lambda(v, k)
    if lam is None:
        raise ConstructionError(
            f"input is not a difference set: k*(k-1) = {k * (k - 1)} is not "
            f"a multiple of v-1 = {v - 1}"
        )
    ds_params = DSParams(v, k, lam)
    _require(verify_ds(IndexedElements(group, block), group, ds_params), "difference set input")
    big, lifted, subgroup, params = _lift(group, block, lam, h)
    _require(verify_dds(lifted, big, subgroup, params), "lifted divisible set")
    return DDSConstruction(lifted, big, subgroup, params)


def result3star_dds(q: int, d: int, e: int, h: int) -> DDSConstruction:
    """The corrected divisible variant of the hyperplane family: lift the
    (q^d - 1)/(q - 1)-point hyperplane difference set by Z_n with
    n = h*(q-1)/e, then transport it along an explicit isomorphism into
    Z_((q^d - 1)/e) x Z_h.  Parameters:

        m = (q^d - 1)/(q - 1),    n = h*(q - 1)/e,
        k = lambda1 = h*(q^(d-1) - 1)/e,    lambda2 = h*(q^(d-2) - 1)/e.

    Requires e | q - 1, gcd(d, e) = 1, and 1 <= h <= e; those conditions
    make n integral and the two groups isomorphic.
    """
    check_power_cap(q, d)  # before prime_power trial-divides q
    if prime_power(q) is None:
        raise ConstructionError(f"{q} is not a prime power")
    if d < 3:
        raise ConstructionError(f"need dimension >= 3, got {d}")
    if e < 1 or (q - 1) % e != 0:
        raise ConstructionError(f"{e} does not divide q - 1 = {q - 1}")
    if gcd(d, e) != 1:
        raise ConstructionError(f"gcd(d, e) = gcd({d}, {e}) != 1")
    if not 1 <= h <= e:
        raise ConstructionError(f"need 1 <= h <= e, got h={h}, e={e}")
    dset, base_group = singer_ds(q, d)  # certified; in Z_v, (i,) has index i
    block = [i for (i,) in dset]
    lam = ds_lambda(base_group.order, len(block))
    big, lifted, subgroup, params = _lift(base_group, block, lam, h * (q - 1) // e)
    target = GroupDescriptor(((q**d - 1) // e, h))
    iso = abelian_iso(big, target)
    if iso is None:
        raise ConstructionError(
            f"constructed group {big!r} with invariant factors "
            f"{invariant_factors(big)} is not isomorphic to target "
            f"{target!r} with invariant factors {invariant_factors(target)}"
        )
    index_map = iso.index_map()
    moved, subgroup = (
        IndexedElements(target, sorted(map(index_map.__getitem__, xs.indices)))
        for xs in (lifted, subgroup)
    )
    _require(verify_dds(moved, target, subgroup, params), "transported divisible set")
    return DDSConstruction(moved, target, subgroup, params)


# ---------------------------------------------------------------------------
# the construct command: flags in, one certified design file out.  Only
# diffam.cli's construct runs these, through its recipe table (cli.RECIPES);
# nothing here imports diffam.cli, which `python -m diffam.cli` runs as
# __main__, so an import of it would compile and run it a second time.
# ---------------------------------------------------------------------------


def _require_flag(args, flag: str):
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise ValueError(f"construction {args.name!r} requires {flag}")
    return value


def _parse_factors(text: str) -> list[int]:
    try:
        factors = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --factors value {text!r}") from exc
    if not factors:
        raise ValueError(f"bad --factors value {text!r}")
    check_cap(prod(f for f in factors if f > 1))  # before any factor is factored
    return factors


def _parse_sigma_choice(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            idx, fac = piece.split(":")
            out[int(idx)] = int(fac)
        except ValueError as exc:
            raise ValueError(
                f"bad --sigma-choice entry {piece!r}, expected CLASS:FACTOR"
            ) from exc
    return out


def _ring(args) -> RingDescriptor:
    return build_ring(_parse_factors(_require_flag(args, "--factors")))


def _orbit_inputs(args):
    if args.factors is not None:
        ring = _ring(args)
        k = _require_flag(args, "--k")
        return ring.additive_group(), unit_subgroup_of_order(ring, k)
    if args.v is not None:
        mult = _require_flag(args, "--mult")
        group = cyclic_group(args.v)
        return group, ScalarAction(group, mult)
    raise ValueError("orbit constructions need --v with --mult, or --factors with --k")


def _furino(args) -> Family:
    k = _require_flag(args, "--k")
    if args.factors is not None:
        base = _ring(args)
    elif args.v is not None:
        base = args.v
    else:
        raise ValueError("furino needs --v or --factors")
    return furino_ddf(base, k, half=args.half)


def _cyclotomic_half(args) -> Family:
    ring = _ring(args)
    k = _require_flag(args, "--k")
    sigma = _parse_sigma_choice(args.sigma_choice) if args.sigma_choice else None
    return cyclotomic_half_ddf(ring, k, sigma)


def _load_family(path) -> Family:
    from .fileformat import load_design

    design = load_design(path)
    if KIND_TABLE[design.kind].payload == ("blocks",):
        return design.family()
    raise ValueError(f"{path}: expected a block-family design, found {design.kind!r}")


def _load_hdm(path) -> DiffMatrix:
    from .fileformat import load_design

    design = load_design(path)
    if design.kind == "hdm":
        return design.matrix()
    if design.kind == "dm":
        return dm_to_hdm(normalize_dm(design.matrix()))
    raise ValueError(f"{path}: expected a difference-matrix design, found {design.kind!r}")


def _product(args) -> Family:
    """product_ddf of the files its flags name."""
    return product_ddf(
        _load_family(_require_flag(args, "--ddf-g")),
        _load_family(_require_flag(args, "--ddf-h")),
        _load_hdm(_require_flag(args, "--dm")),
    )


def _one_block(dset, group) -> Family:
    return Family(group, [dset])


def _singer(args) -> Family:
    return _one_block(*singer_ds(_require_flag(args, "--q"), _require_flag(args, "--m")))


def _dds_product(args) -> DDSConstruction:
    from .fileformat import load_design

    source = load_design(_require_flag(args, "--ds"))
    if source.kind != "ds" or len(source.blocks) != 1:
        raise ValueError("--ds must point to a single-block ds design file")
    return dds_from_ds(source.blocks[0], source.group, _require_flag(args, "--h"))


def _result3star(args) -> DDSConstruction:
    return result3star_dds(*(_require_flag(args, flag) for flag in ("--q", "--d", "--e", "--h")))


def _design_file(kind: str, built) -> DesignFile:
    """The design file of a recipe's certified output, with the parameters
    read off that output."""
    from .fileformat import DesignFile

    if isinstance(built, DDSConstruction):  # the set as one block, and the subgroup
        params = dict(zip(KIND_TABLE[kind].params, built.params))
        block = _element_indices(built.group, built.elements)
        lists = [IndexLists(built.group, block, [len(block)]), built.subgroup]
    elif isinstance(built, DiffMatrix):
        params = {"v": built.group.order, "k": built.k, "lambda": 1}
        lists = [built.lists]
    elif built.lists:
        params = family_params(built, counting_lambda(built.v, built.lists.sizes))
        lists = [built.lists]
    else:
        # no lambda or K describes an empty family, so none is written
        raise ValueError(
            f"the construction gives no blocks over {built.group!r}; "
            "a design file needs at least one block"
        )
    return DesignFile(kind, built.group, params, **dict(zip(KIND_TABLE[kind].payload, lists)))
