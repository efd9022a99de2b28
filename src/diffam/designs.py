"""Block families over finite abelian groups and their exhaustive verifiers.

The central object is the difference multiset of a family F:

    dF = multiset of x - y over all ordered pairs x != y within each block.

A (v, K, lambda) difference family covers every nonzero group element exactly
lambda times; a difference set is the single-block case; the divisible
variant splits the nonzero elements into a subgroup part (covered lambda1
times) and the rest (lambda2 times).  Difference matrices move the same
balance condition to pairwise row differences.

Every verifier here scans the whole group and reports the complete deviation
map (element -> observed count) rather than just a boolean, so a failure
report is itself a checkable certificate.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import accumulate, chain, compress, count, groupby, islice, repeat, tee
from math import prod
from operator import add, eq, floordiv, ge, mod, mul, ne, sub

from .algebra import Element, GroupDescriptor, check_cap

__all__ = [
    "ConstructionError",
    "NotSemiregularError",
    "DSParams",
    "DDSParams",
    "Family",
    "IndexedElements",
    "DiffMultiset",
    "Report",
    "DiffMatrix",
    "counting_lambda",
    "ds_lambda",
    "delta_multiset",
    "family_params",
    "verify_df",
    "classify_family",
    "extend_to_pdf",
    "verify_ds",
    "verify_dds",
    "verify_dm",
    "verify_hdm",
    "normalize_dm",
    "hdm_to_dm",
    "dm_to_hdm",
]


class ConstructionError(ValueError):
    """A construction precondition failed, or (never expected) an output
    failed its own verification."""


class NotSemiregularError(ConstructionError):
    """The supplied action fixes a nonzero element; carries the witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class _Record:
    """A mutable record of the attributes named in ``_fields``: equal to a
    record of its own class equal in every field but those in
    ``_uncompared``, and shown as Name(field=value, ...)."""

    _fields: tuple = ()
    _uncompared: tuple = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = [f for f in self._fields if f not in self._uncompared]
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class DSParams(namedtuple("DSParams", "v k lam")):
    """Difference-set parameter triple (v, k, lambda)."""

    __slots__ = ()

    def __new__(cls, v: int, k: int, lam: int):
        if v < 1 or k < 0 or lam < 0:
            raise ValueError(f"bad parameter triple ({v},{k},{lam})")
        return super().__new__(cls, v, k, lam)

    def scaled(self, mu: int) -> "DSParams":
        return DSParams(self.v * mu, self.k * mu, self.lam * mu)

    def __str__(self) -> str:
        return f"({self.v},{self.k},{self.lam})"


def counting_lambda(v: int, sizes: Iterable[int]) -> int | None:
    """The lambda that sum k(k-1) = lambda*(v-1) forces on blocks of these
    sizes in a group of order v (0 if v <= 1), or None if not an integer."""
    lam, rest = divmod(sum(k * (k - 1) for k in sizes), v - 1) if v > 1 else (0, 0)
    return None if rest else lam


def ds_lambda(v: int, k: int) -> int | None:
    """The one-block case of counting_lambda: lambda*(v-1) = k*(k-1)."""
    return counting_lambda(v, (k,))


class DDSParams(namedtuple("DDSParams", "m n k lam1 lam2")):
    """Divisible difference-set parameters (m, n, k, lambda1, lambda2):
    m cosets of a subgroup of order n, inside-subgroup count lambda1,
    outside count lambda2."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, k: int, lam1: int, lam2: int):
        if min(m, n) < 1 or min(k, lam1, lam2) < 0:
            raise ValueError(f"bad parameter tuple ({m},{n},{k},{lam1},{lam2})")
        return super().__new__(cls, m, n, k, lam1, lam2)

    def __str__(self) -> str:
        return f"({self.m},{self.n},{self.k},{self.lam1},{self.lam2})"


# kind -> the integer parameters its file declares, in the order DSParams,
# DDSParams and `verify --expect-params` take them (a family with blocks of
# several sizes declares the size list K instead of k)
PARAM_KEYS = {
    "df": ("v", "k", "lambda"),
    "ddf": ("v", "k", "lambda"),
    "pdf": ("v", "k", "lambda"),
    "ds": ("v", "k", "lambda"),
    "dds": ("m", "n", "k", "lambda1", "lambda2"),
    "dm": ("v", "k", "lambda"),
    "hdm": ("v", "k", "lambda"),
}


class Family:
    """An ordered list of blocks over a fixed group.

    Blocks are sets (no repeated elements), each stored sorted in canonical
    order as a tuple of canonical indices (``indices``); ``blocks`` decodes
    the element tuples on demand.  The instance is treated as immutable."""

    def __init__(self, group: GroupDescriptor, blocks: Iterable):
        normalized = list(map(tuple, blocks))
        flat = list(chain.from_iterable(normalized))
        # every element is checked in one column pass; the per-block loop
        # runs only on failure, to name the first offender, and validates a
        # block's elements before it sorts them
        if not group.check_elements(flat):
            for b in normalized:
                for x in b:
                    group.validate_element(x)
                _check_block(sorted(b))
        self.group = group
        indices = _index_blocks(group, group.indices(flat), list(map(len, normalized)))
        self.indices: tuple[tuple[int, ...], ...] = tuple(indices)

    @classmethod
    def of_indices(cls, group: GroupDescriptor, blocks: Sequence[tuple]) -> "Family":
        """A family of blocks trusted to be sorted tuples of distinct indices."""
        family = cls.__new__(cls)
        family.group, family.indices = group, tuple(blocks)
        return family

    @classmethod
    def of_flat(
        cls, group: GroupDescriptor, flat: Sequence[int], sizes: Sequence[int]
    ) -> "Family":
        """A family of blocks of canonical indices of the group, given as one
        flat list and the block sizes: each block is sorted and checked to be
        nonempty and free of repeats, but the indices are not range-checked."""
        return cls.of_indices(group, _index_blocks(group, flat, sizes))

    @property
    def blocks(self) -> tuple[tuple[Element, ...], ...]:
        flat = self.group.elements_at(chain.from_iterable(self.indices))
        return tuple(_cut(flat, map(len, self.indices)))

    @property
    def v(self) -> int:
        return self.group.order

    def block_sizes(self) -> tuple[int, ...]:
        """Sizes as a multiset, largest first."""
        return tuple(sorted(map(len, self.indices), reverse=True))

    def uniform_k(self) -> int | None:
        sizes = set(map(len, self.indices))
        return sizes.pop() if len(sizes) == 1 else None

    def covered(self) -> set[Element]:
        return set(self.group.elements_at(set(chain.from_iterable(self.indices))))

    def uncovered(self) -> list[Element]:
        covered = set(chain.from_iterable(self.indices))
        return self.group.elements_at(i for i in range(self.v) if i not in covered)

    def __eq__(self, other: object) -> bool:
        same_group = isinstance(other, Family) and self.group == other.group
        return same_group and self.indices == other.indices

    def __repr__(self) -> str:
        return f"<family of {len(self.indices)} blocks over {self.group!r}>"


def _check_block(block: Sequence) -> None:
    """Refuse an empty block, or a sorted block that repeats an element."""
    if not block:
        raise ValueError("blocks must be nonempty")
    if any(map(eq, block, islice(block, 1, None))):
        raise ValueError(f"block {tuple(block)} has a repeated element")


def _index_blocks(
    group: GroupDescriptor, flat: Sequence[int], sizes: Sequence[int]
) -> list[tuple]:
    """The flat list of canonical indices cut into blocks of the given
    sizes, each sorted.  diffam writes blocks ascending, and then every
    descent of the flat list falls at a block end: the blocks are cut as
    they are, with no sort and no set pass.  A block that is empty or
    repeats an element is refused, named by its elements."""
    descents = compress(count(1), map(ge, flat, islice(flat, 1, None)))
    if all(sizes) and set(accumulate(sizes)).issuperset(descents):
        return _cut(flat, sizes)
    blocks = list(map(tuple, map(sorted, _cut(flat, sizes))))
    if not all(sizes) or sum(map(len, map(set, blocks))) != len(flat):
        for block in blocks:
            _check_block(group.elements_at(block))
    return blocks


def _cut(flat: Iterable, sizes: Iterable[int]) -> list[tuple]:
    """The items of flat cut into consecutive tuples of the given sizes, a
    run of equal sizes at a time."""
    it, out = iter(flat), []
    for k, run in groupby(sizes):
        m = sum(1 for _ in run)
        out.extend(islice(zip(*[it] * k), m) if k else repeat((), m))
    return out


class IndexedElements(Sequence):
    """A read-only sequence of group elements held as their canonical
    indices (``indices``); items decode to element tuples on demand.  It
    compares equal to the tuple of the same elements, so a block read from a
    file compares equal to the block that was written."""

    def __init__(self, group: GroupDescriptor, indices: Iterable[int]):
        self.group, self.indices = group, tuple(indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int) -> Element:
        return self.group.elements_at((self.indices[i],))[0]

    def __iter__(self):
        return iter(self.group.elements_at(self.indices))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IndexedElements):
            return self.group == other.group and self.indices == other.indices
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"


class DiffMultiset(_Record):
    """Counts of nonzero differences; elements with count zero are omitted
    from the dict but still count as zero.  ``engine`` names the engine
    that counted ("pairwise", "convolution" or "both"), not compared."""

    _fields = ("group", "counts", "engine")
    _uncompared = ("engine",)

    def __init__(self, group: GroupDescriptor, counts: dict[Element, int], engine: str = "pairwise"):
        self.group, self.counts, self.engine = group, counts, engine

    def count(self, x: Element) -> int:
        return self.counts.get(x, 0)

    def total(self) -> int:
        return sum(self.counts.values())


def delta_multiset(family: Family) -> DiffMultiset:
    """The difference multiset of the family (both orders of every pair).

    Each block is counted exactly by one of two engines, chosen per block
    size by ``_use_convolution``: position differences pair by pair
    (``_pairwise_counts``), or one big-int group-ring product
    (``_convolution_counts``)."""
    dense, engine = _dense_counts(family)
    counts = {x: c for x, c in zip(family.group.elements(), dense) if c}
    return DiffMultiset(family.group, counts, engine)


def _dense_counts(family: Family) -> tuple[list[int], str]:
    """The family's difference counts as one list in canonical element order
    (index 0, the zero element, stays 0), and the engine that counted them."""
    group, blocks = family.group, family.indices
    check_cap(group.order)
    # the engine is chosen once per block size, not once per block
    sizes = set(map(len, blocks))
    convolve = {k for k in sizes if _use_convolution(group, k)}
    dense = _pairwise_counts(
        group, [b for b in blocks if len(b) not in convolve] if convolve else blocks
    )
    for block in blocks:
        if len(block) in convolve:
            dense = list(map(add, dense, _convolution_counts(group, block)))
    engines = {"convolution" if k in convolve else "pairwise" for k in sizes}
    engine = "both" if len(engines) == 2 else next(iter(engines), "pairwise")
    return dense, engine


class _Layout:
    """The padded positions of a group's elements, read by both count engines.

    Every element is read as mixed-radix digits (``group.digits()``), and each
    digit of radix r is spread over 2r - 1 values, so that the digitwise
    difference d(x) - d(y) + r - 1 of two elements never borrows.  The
    position of x is the sum of its digits times their padded place values;
    pos(x) - pos(y) + top, top being the position of all digits r - 1, spells
    those shifted digits t, folding each to (t - (r - 1)) mod r gives the
    canonical index of x - y, and top - (pos(x) - pos(y)) spells the digits
    2(r - 1) - t of y - x.  A Z_n or GF(p) coordinate's position is the
    coordinate times its place; only a GF(p^n) factor, n > 1, has a table of
    its q positions.  A group of one digit needs no fold: its keys are the
    index differences mod v.  Other keys fold by one table lookup per run of
    digits: runs of one digit until a tally pays for runs of at most 4 v
    padded slots (built once, by dense), so each table stays O(v)."""

    def __init__(self, group: GroupDescriptor):
        digits = group.digits()
        self.order = group.order
        self.cyclic = len(digits) == 1
        # (padded place, padded radix, radix, canonical place), low digit first
        folds = []
        place = index_place = 1
        for _, _, r in reversed(digits):
            folds.append((place, 2 * r - 1, r, index_place))
            place, index_place = place * (2 * r - 1), index_place * r
        self.digits = tuple(folds)
        self.slots = place
        self.top = (place - 1) // 2  # the middle slot: every digit r - 1
        # per factor: its one digit's place, or its positions grown digitwise
        terms: dict = {}
        for (i, w, r), (place, _, _, _) in zip(digits, reversed(folds)):
            if w == 1 and i not in terms:
                terms[i] = place
            else:
                terms[i] = [t + d * place for t in terms.get(i, [0]) for d in range(r)]
        self.terms = tuple(terms.values())
        self.runs = () if self.cyclic else self._runs(0)  # one digit each
        self.wide_runs = None  # runs of at most 4 v slots, built by dense

    def _runs(self, limit: int) -> tuple:
        """Runs of as many digits as fit in limit padded slots (at least one) as
        (padded place, padded span, table of shifted digits to index term); no
        list of sums is freed, as that raises glibc's mmap threshold and RSS."""
        runs, shared = [], {}  # equal index terms share one int object
        for place, big, r, index_place in self.digits:
            column = [(t - (r - 1)) % r * index_place for t in range(big)]
            if runs and runs[-1][1] * big <= limit:  # the digit joins the last run
                place, span, table = runs.pop()
                sums = (tee(map(add, table, repeat(b))) for b in column)
                column = list(chain.from_iterable(map(shared.setdefault, *s) for s in sums))
                big *= span
            runs.append((place, big, column))
        return tuple(runs)

    def positions(self, columns: Iterable[Iterable[int]]) -> list[int]:
        """The positions of elements given as coordinate columns, one per
        factor (``group.coordinates``)."""
        total = None
        for term, coords in zip(self.terms, columns):
            if isinstance(term, list):
                part = map(term.__getitem__, coords)
            else:
                part = map(mul, coords, repeat(term)) if term != 1 else coords
            total = part if total is None else map(add, total, part)
        return [] if total is None else list(total)

    def differences(self, xs: Sequence[int], ys: Sequence[int]) -> Iterable[int]:
        """The keys of x - y for positions x, y taken in step: position
        differences, or canonical indices for a group of one digit."""
        diffs = map(sub, xs, ys)
        return map(mod, diffs, repeat(self.order)) if self.cyclic else diffs

    def subtract(self, xs: Sequence[int], ys: Sequence[int]) -> Iterable[int]:
        """The canonical index of x - y for positions x, y taken in step."""
        keys = list(self.differences(xs, ys))  # a fold reads them once per run
        return keys if self.cyclic else self._indices(keys, self.wide_runs or self.runs, False)

    def _indices(self, keys: Iterable[int], runs: tuple, mirror: bool) -> Iterable[int]:
        """The canonical index of x - y for each key pos(x) - pos(y), or of
        y - x with mirror: one table lookup per run of digits."""
        top, index = self.top, None
        for place, span, table in runs:
            shifted = map(sub, repeat(top), keys) if mirror else map(add, keys, repeat(top))
            if place > 1:
                shifted = map(floordiv, shifted, repeat(place))
            if place * span < self.slots:
                shifted = map(mod, shifted, repeat(span))
            term = map(table.__getitem__, shifted)
            index = term if index is None else map(add, index, term)
        return index

    def dense(self, tally: Counter, mirror: bool = False) -> list[int]:
        """A tally of difference keys as counts in canonical element order;
        with mirror, each key counts as x - y and as y - x."""
        v = self.order
        if self.cyclic:
            dense = list(map(tally.get, range(v), repeat(0)))
            # the key of -x is v - x (and of -0 is 0)
            return list(map(add, dense, dense[:1] + dense[:0:-1])) if mirror else dense
        # wide runs pay for themselves at a key per 8 of a run's 4 v slots
        if self.wide_runs is None and 8 * len(tally) >= 4 * v:
            self.wide_runs = self._runs(4 * v)
        runs = self.wide_runs or self.runs
        indices, counts = self._indices(tally, runs, False), tally.values()
        if mirror:
            indices = chain(indices, self._indices(tally, runs, True))
            counts = chain(counts, counts)
        dense = [0] * v
        for index, c in zip(indices, counts):
            dense[index] += c
        return dense


# the position layout of a group, kept for the groups counted last
_layout = lru_cache(maxsize=16)(_Layout)


def _pairwise_counts(group: GroupDescriptor, blocks: Sequence[Sequence[int]]) -> list[int]:
    """The difference counts of blocks of canonical indices in canonical
    element order, pair by pair: blocks of one size become columns of
    positions, each unordered pair of columns is subtracted and tallied
    once, and each distinct key is folded for both orders."""
    layout = _layout(group)
    tally: Counter = Counter()
    for k, same in groupby(sorted(blocks, key=len), len):
        flat = layout.positions(group.coordinates(chain.from_iterable(same)))
        columns = [flat[i::k] for i in range(k)]
        for i, xs in enumerate(columns):
            for ys in columns[:i]:
                tally.update(layout.differences(xs, ys))
    return layout.dense(tally, mirror=True)


def _slot_bytes(k: int) -> int:
    """Bytes per slot holding counts up to k without carry (k < 2^32: the
    group-order cap bounds k)."""
    return 1 if k < 1 << 8 else 2 if k < 1 << 16 else 4


def _use_convolution(group: GroupDescriptor, k: int) -> bool:
    """Whether a k-element block over the group is counted as one big-int
    product rather than pair by pair.

    Blocks of at most 64 elements always take the pairwise loop (a few ms at
    most).  So does a group whose digit padding makes more than 64 v slots
    (GF(2^n) pads by 1.5^n), which keeps the packed ints O(v) in memory.
    Otherwise the loop's k(k-1)/2 column subtractions, about 1 us each (a
    lone block's column pair took 0.7-1.5 us on a 2-vCPU x86-64 VM in every
    group shape), are weighed against the product's estimated microseconds:
    CPython's Karatsuba multiply, about 4e-4 * P^1.585 for P packed bytes,
    plus about 1 us per group element for the fold and the count dict
    (fitted on an x86-64 VM; only the order of magnitude matters)."""
    if k <= 64:
        return False
    slots = prod(2 * r - 1 for r in group.digit_radices())
    if slots > 64 * group.order:
        return False
    cost = 4e-4 * (slots * _slot_bytes(k)) ** 1.585 + group.order
    return k * (k - 1) // 2 > cost


_SLOT_FORMATS = {1: "B", 2: "H", 4: "I"}  # native unsigned 1, 2, 4 bytes


def _convolution_counts(group: GroupDescriptor, block: Sequence[int]) -> list[int]:
    """The difference counts of one block of distinct canonical indices, in
    canonical element order (index 0 is 0), as the group-ring product
    D * D^(-1) computed by Kronecker substitution.

    Each padded position of the group's layout (``_Layout``) becomes a
    w-byte slot of an int: A has a 1 in the slot of every x, B in the
    mirrored slot top - pos(y) of every y, so slot t of A*B counts the pairs
    whose shifted digitwise differences spell t.  No slot exceeds k < 256^w
    (x fixes y), so slots never carry.  Folding each digit t to
    (t - (r - 1)) mod r leaves the counts of x - y in canonical order."""
    layout = _layout(group)
    slots, top = layout.slots, layout.top
    w = _slot_bytes(len(block))
    a = bytearray(slots * w)
    b = bytearray(slots * w)
    for pos in layout.positions(group.coordinates(block)):
        a[pos * w] = 1
        b[(top - pos) * w] = 1
    a_int, b_int = int.from_bytes(a, "little"), int.from_bytes(b, "little")
    del a, b
    buf = (a_int * b_int).to_bytes(slots * w, "little")
    del a_int, b_int
    # fold digits most significant first: while folding digit j, every block
    # of (2r - 1) * span bytes holds one value of the digits already folded
    outer, span = 1, slots * w
    for _, big, r, _ in reversed(layout.digits):
        span //= big
        low = (r - 1) * span
        view = memoryview(buf)
        pieces = []
        for start in range(0, outer * big * span, big * span):
            hi = int.from_bytes(view[start + low : start + big * span], "little")
            lo = int.from_bytes(view[start : start + low], "little")
            pieces.append((hi + (lo << (8 * span))).to_bytes(r * span, "little"))
        view.release()
        buf = b"".join(pieces)
        outer *= r
    if sys.byteorder != "little":  # the cast below reads native byte order
        native = bytearray(len(buf))
        for i in range(w):
            native[i::w] = buf[w - 1 - i :: w]
        buf = native
    counts = memoryview(buf).cast(_SLOT_FORMATS[w]).tolist()
    counts[0] = 0  # the zero element, counted k times by x - x
    return counts


class Report(_Record):
    """Outcome of one verification: kind, derived parameters, and the full
    deviation map for failures (empty when ok).  ``stats``, not compared,
    is what the count did: "engine" (pairwise, convolution or both),
    ordered "pairs" counted and nonzero "elements_scanned"; empty when no
    count ran.  A dict left out is a new empty dict."""

    _fields = ("ok", "kind", "params", "deviations", "message", "stats")
    _uncompared = ("stats",)

    def __init__(
        self,
        ok: bool,
        kind: str,
        params: dict,
        deviations: dict | None = None,
        message: str = "",
        stats: dict | None = None,
    ):
        self.ok, self.kind, self.params = ok, kind, params
        self.deviations = {} if deviations is None else deviations
        self.message = message
        self.stats = {} if stats is None else stats

    def __bool__(self) -> bool:
        return self.ok


def family_params(family: Family, lam: int) -> dict:
    """The parameters a df report and a df design file declare: v, lambda,
    and k for uniform blocks or else the block-size multiset K."""
    params: dict = {"v": family.v, "lambda": lam}
    k = family.uniform_k()
    if k is not None:
        params["k"] = k
    else:
        params["K"] = list(family.block_sizes())
    return params


def _deviations(group: GroupDescriptor, counts: list[int], expected: list[int]) -> dict:
    """The elements whose count differs from the expected one, both lists in
    canonical element order, mapped to their counts in that order.  Equal
    lists are one C-level compare; only the deviating indices are decoded."""
    if counts == expected:
        return {}
    bad = list(compress(count(), map(ne, counts, expected)))
    return dict(zip(group.elements_at(bad), map(counts.__getitem__, bad)))


def _scan(
    kind: str,
    params: dict,
    family: Family,
    lam: int,
    subgroup: frozenset[int] = frozenset(),
    lam1: int = 0,
) -> Report:
    """Count the family's differences and compare every nonzero element's
    count with lam, or with lam1 on the subgroup (canonical indices).
    Deviations are listed in canonical element order; the failure message
    names lam only when there is no subgroup."""
    dense, engine = _dense_counts(family)
    expected = [lam] * family.v
    for i in subgroup:
        expected[i] = lam1
    expected[0] = 0  # the zero element, whose count dense[0] is always 0
    deviations = _deviations(family.group, dense, expected)
    message = ""
    if deviations:
        message = f"{len(deviations)} of {family.v - 1} nonzero elements deviate"
        if not subgroup:
            message += f" from lambda={lam}"
    stats = {
        "engine": engine,
        "pairs": sum(dense),  # every ordered pair x != y counts once
        "elements_scanned": family.v - 1,
    }
    return Report(not deviations, kind, params, deviations, message, stats)


def verify_df(family: Family, lam: int) -> Report:
    """Exhaustively check that every nonzero element occurs exactly lam times
    in the difference multiset."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    return _scan("df", family_params(family, lam), family, lam)


def classify_family(family: Family) -> str:
    """'plain' (blocks overlap), 'disjoint', or 'partitioned' (disjoint and
    covering the whole group)."""
    total = sum(map(len, family.indices))
    if len(set(chain.from_iterable(family.indices))) != total:
        return "plain"
    return "partitioned" if total == family.v else "disjoint"


def extend_to_pdf(family: Family) -> Family:
    """Append the uncovered elements as singleton blocks, turning a disjoint
    family into a partitioned one without touching its difference multiset."""
    cls = classify_family(family)
    if cls == "plain":
        raise ValueError("blocks overlap; only disjoint families can be extended")
    covered = set(chain.from_iterable(family.indices))
    extra = ((i,) for i in range(family.v) if i not in covered)
    return Family.of_indices(family.group, (*family.indices, *extra))


def _element_indices(group: GroupDescriptor, xs: Iterable[Element]) -> list[int]:
    """The canonical indices of elements: IndexedElements of the group as they
    are, element tuples checked once, naming the first offender."""
    if isinstance(xs, IndexedElements) and xs.group == group:
        return list(xs.indices)
    xs = list(xs)
    if not group.check_elements(xs):
        for x in xs:
            group.validate_element(x)
    return group.indices(xs)


def _set_family(group: GroupDescriptor, dset: Iterable[Element]) -> tuple[Family, int]:
    """A (divisible) difference set as a one-block family, and its size k;
    the empty set is the empty family."""
    block = _element_indices(group, dset)
    return Family.of_flat(group, block, [len(block)] if block else []), len(block)


def verify_ds(
    dset: Iterable[Element], group: GroupDescriptor, params: DSParams
) -> Report:
    """Exhaustively check a (v, k, lambda) difference set."""
    family, k = _set_family(group, dset)
    rparams = {"v": group.order, "k": k, "lambda": params.lam}
    if group.order != params.v or k != params.k:
        return Report(
            False, "ds", rparams, message=f"declared {params}, found v={group.order}, k={k}"
        )
    return _scan("ds", rparams, family, params.lam)


def _check_subgroup(group: GroupDescriptor, members: Iterable[Element]) -> frozenset[int]:
    """The canonical indices of the members, refused unless they are
    distinct and form a subgroup."""
    indices = _element_indices(group, members)
    mset = frozenset(indices)
    if len(mset) != len(indices):
        raise ValueError("subgroup list has repeated elements")
    if 0 not in mset:
        raise ValueError("subgroup does not contain zero")
    # a set holding zero is a subgroup iff it holds every difference of two
    # of its members (then -b = 0 - b and a + b = a - (-b) are in it too);
    # then each nonzero member is the difference of n ordered pairs and no
    # other element is one, so one count of the set as a block decides closure
    family = Family.of_indices(group, [tuple(sorted(mset))])
    deviations = _scan("subgroup", {}, family, 0, mset, len(mset)).deviations
    if deviations:
        elements = group.elements_at(family.indices[0])
        inside = set(elements)
        missing = next(x for x in deviations if x not in inside)
        for a in elements:
            b = group.sub(a, missing)
            if b in inside:
                raise ValueError(
                    f"subgroup is not closed: {a} - {b} = {missing} is missing"
                )
    return mset


def verify_dds(
    dset: Iterable[Element],
    group: GroupDescriptor,
    n_subgroup: Iterable[Element],
    params: DDSParams,
) -> Report:
    """Exhaustively check an (m, n, k, lambda1, lambda2) divisible difference
    set relative to the given subgroup of order n."""
    family, k = _set_family(group, dset)
    nset = _check_subgroup(group, n_subgroup)
    if len(nset) != params.n:
        raise ValueError(
            f"subgroup has order {len(nset)}, parameters declare n={params.n}"
        )
    rparams = {
        "m": params.m,
        "n": params.n,
        "k": k,
        "lambda1": params.lam1,
        "lambda2": params.lam2,
    }
    if group.order != params.m * params.n:
        message = f"group order {group.order} != m*n = {params.m * params.n}"
        return Report(False, "dds", rparams, message=message)
    if k != params.k:
        return Report(False, "dds", rparams, {}, f"declared k={params.k}, found {k}")
    return _scan("dds", rparams, family, params.lam2, nset, params.lam1)


# ---------------------------------------------------------------------------
# difference matrices
# ---------------------------------------------------------------------------


class DiffMatrix:
    """A rectangular matrix of group elements, stored as rows of canonical
    indices (``indices``); ``rows`` decodes the element tuples on demand."""

    def __init__(self, group: GroupDescriptor, rows: Iterable[Iterable[Element]]):
        normalized = [tuple(row) for row in rows]
        flat = _element_indices(group, chain.from_iterable(normalized))
        mat = DiffMatrix.of_flat(group, flat, list(map(len, normalized)))
        self.group, self.indices = group, mat.indices

    @classmethod
    def of_flat(
        cls, group: GroupDescriptor, flat: Iterable[int], sizes: Sequence[int]
    ) -> "DiffMatrix":
        """A matrix of canonical indices of the group, given as one flat
        sequence and the row lengths: only the shape is checked."""
        if not sizes or not sizes[0]:
            raise ValueError("difference matrix must have at least one row and column")
        if any(map(sizes[0].__ne__, sizes)):
            raise ValueError("rows have unequal lengths")
        mat = cls.__new__(cls)
        mat.group, mat.indices = group, tuple(_cut(flat, sizes))
        return mat

    @property
    def rows(self) -> tuple[tuple[Element, ...], ...]:
        flat = self.group.elements_at(chain.from_iterable(self.indices))
        return tuple(_cut(flat, repeat(self.columns, self.k)))

    @property
    def k(self) -> int:
        return len(self.indices)

    @property
    def columns(self) -> int:
        return len(self.indices[0])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiffMatrix)
            and self.group == other.group
            and self.indices == other.indices
        )

    def __repr__(self) -> str:
        return f"<{self.k} x {self.columns} matrix over {self.group!r}>"


def verify_dm(mat: DiffMatrix) -> Report:
    """Check that every pair of distinct rows differs in a permutation of the
    group (each element exactly once across the columns)."""
    return _verify_matrix("dm", mat)


def verify_hdm(mat: DiffMatrix) -> Report:
    """Check the row-permutation property on top of the difference-matrix
    property: every single row must itself enumerate the group."""
    return _verify_matrix("hdm", mat)


def _verify_matrix(kind: str, mat: DiffMatrix) -> Report:
    """Count each element per row (hdm only), then per pair of rows as their
    difference."""
    group, v = mat.group, mat.group.order
    check_cap(v)
    params = {"v": v, "k": mat.k, "lambda": 1}
    if mat.columns != v:
        message = f"matrix has {mat.columns} columns but the group has order {v}"
        return Report(False, kind, params, message=message)
    ones, deviations = [1] * v, {}
    for i, row in enumerate(mat.indices if kind == "hdm" else ()):
        counts = list(map(Counter(row).get, range(v), repeat(0)))
        for x, c in _deviations(group, counts, ones).items():
            deviations[("row", i, x)] = c
    if deviations:
        message = f"{len(deviations)} (row, element) occurrence counts != 1"
        return Report(False, kind, params, deviations, message)
    layout = _layout(group)
    rows = [layout.positions(group.coordinates(row)) for row in mat.indices]
    for i in range(mat.k):
        for j in range(i + 1, mat.k):
            counts = layout.dense(Counter(layout.differences(rows[i], rows[j])))
            for x, c in _deviations(group, counts, ones).items():
                deviations[(i, j, x)] = c
    message = f"{len(deviations)} (row pair, element) difference counts != 1"
    return Report(not deviations, kind, params, deviations, message if deviations else "")


def normalize_dm(mat: DiffMatrix) -> DiffMatrix:
    """Subtract the first row columnwise, producing a difference matrix whose
    first row is zero."""
    report = verify_dm(mat)
    if not report.ok:
        raise ValueError(f"not a difference matrix: {report.message}")
    group, layout = mat.group, _layout(mat.group)
    rows = [layout.positions(group.coordinates(row)) for row in mat.indices]
    flat = chain.from_iterable(layout.subtract(row, rows[0]) for row in rows)
    return DiffMatrix.of_flat(group, flat, [mat.columns] * mat.k)


def hdm_to_dm(mat: DiffMatrix) -> DiffMatrix:
    """Prepend a zero row: a (v, k, 1) homogeneous matrix becomes a
    (v, k+1, 1) difference matrix."""
    report = verify_hdm(mat)
    if not report.ok:
        raise ValueError(f"not a homogeneous difference matrix: {report.message}")
    flat = chain(repeat(0, mat.columns), *mat.indices)  # index 0 is the zero element
    return DiffMatrix.of_flat(mat.group, flat, [mat.columns] * (mat.k + 1))


def dm_to_hdm(mat: DiffMatrix) -> DiffMatrix:
    """Drop the first all-zero row; the remaining rows are each permutations
    (their difference with the removed zero row was one)."""
    report = verify_dm(mat)
    if not report.ok:
        raise ValueError(f"not a difference matrix: {report.message}")
    zero_row = (0,) * mat.columns  # index 0 is the zero element
    for i, row in enumerate(mat.indices):
        if row == zero_row:
            remaining = mat.indices[:i] + mat.indices[i + 1 :]
            if not remaining:
                raise ValueError("matrix has no rows besides the zero row")
            sizes = [mat.columns] * len(remaining)
            return DiffMatrix.of_flat(mat.group, chain.from_iterable(remaining), sizes)
    raise ValueError("no all-zero row; normalize the matrix first")
