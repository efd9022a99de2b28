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

import struct
from collections import Counter, deque, namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, count, groupby, islice, repeat, tee
from math import prod
from operator import add, eq, floordiv, ge, mod, mul, ne, not_, setitem, sub

from .groups import Element, GroupDescriptor

__all__ = [
    "ConstructionError",
    "NotSemiregularError",
    "DSParams",
    "DDSParams",
    "Family",
    "IndexLists",
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
# several sizes declares the size list K instead of k), and the element lists
# it carries: "blocks" (lists of elements, possibly none) or "rows" (lists of
# elements), and for dds also "subgroup" (one list of elements)
Kind = namedtuple("Kind", "params payload")
KIND_TABLE = {
    "df": Kind(("v", "k", "lambda"), ("blocks",)),
    "ddf": Kind(("v", "k", "lambda"), ("blocks",)),
    "pdf": Kind(("v", "k", "lambda"), ("blocks",)),
    "ds": Kind(("v", "k", "lambda"), ("blocks",)),
    "dds": Kind(("m", "n", "k", "lambda1", "lambda2"), ("blocks", "subgroup")),
    "dm": Kind(("v", "k", "lambda"), ("rows",)),
    "hdm": Kind(("v", "k", "lambda"), ("rows",)),
}
# the payload lists that are never empty
NONEMPTY = ("rows", "subgroup")


class IndexLists(Sequence):
    """Lists of group elements held as canonical indices: ``flat``, the
    index of every element in order, and ``sizes``, the length of each
    list.  The constructor refuses an index outside the group, found by
    one min and one max: a negative one would count at a wrong residue by
    negative list indexing.  So every IndexLists, however it was made,
    holds indices of its group, and no reader checks them again.  This is
    the one store of a family's blocks, a matrix's rows and a read file's
    payload lists.  Each list reads as an IndexedElements, decoded on
    demand; the lists compare equal to the tuple of the element tuples
    they hold."""

    def __init__(self, group: GroupDescriptor, flat: list[int], sizes: list[int]):
        if min(flat, default=0) < 0 or max(flat, default=0) >= group.order:
            raise ValueError(f"an index lies outside {group!r}")
        self.group, self.flat, self.sizes = group, flat, sizes

    def cut(self) -> tuple[tuple[int, ...], ...]:
        """The indices of each list as a tuple."""
        return tuple(_cut(self.flat, self.sizes))

    def decoded(self) -> tuple[tuple[Element, ...], ...]:
        """The elements of each list as a tuple."""
        return tuple(_cut(self.group.elements_at(self.flat), self.sizes))

    def __len__(self) -> int:
        return len(self.sizes)

    @cached_property
    def _starts(self) -> list[int]:
        """Where each list starts in flat, found on the first index."""
        return list(accumulate(self.sizes, initial=0))

    def __getitem__(self, i: int) -> "IndexedElements":
        i = range(len(self.sizes))[i]  # negative indices and IndexError as a tuple's
        start = self._starts[i]
        return IndexedElements(self.group, self.flat[start : start + self.sizes[i]])

    def __iter__(self):
        return (IndexedElements(self.group, items) for items in self.cut())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IndexLists):
            return (self.group, self.flat, self.sizes) == (other.group, other.flat, other.sizes)
        return self.decoded() == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.decoded()!r})"


class _Indexed:
    """Lists of canonical indices of a group, held as one IndexLists
    (``lists``) in the shape the class checks (``_shaped``); ``indices``
    cuts them into tuples on demand.  The one constructor keeps an
    IndexLists of the group as it stands and checks and encodes element
    lists; then ``_shaped`` checks the shape.  The instance is treated as
    immutable."""

    def __init__(self, group: GroupDescriptor, lists: Iterable[Iterable[Element]]):
        self.group, self.lists = group, self._shaped(_index_lists(group, lists))

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return self.lists.cut()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self.lists == other.lists


class Family(_Indexed):
    """An ordered list of blocks over a fixed group.

    Blocks are sets (no repeated elements), each ascending in canonical
    order; ``blocks`` decodes the element tuples on demand."""

    def __init__(self, group: GroupDescriptor, blocks: Iterable):
        if not (isinstance(blocks, IndexLists) and blocks.group == group):
            blocks = list(map(tuple, blocks))
            flat = list(chain.from_iterable(blocks))
            # every element is checked in one column pass; the per-block loop
            # runs only on failure, to name the first offender, and validates a
            # block's elements before it sorts them
            if not group.check_elements(flat):
                for b in blocks:
                    for x in b:
                        group.validate_element(x)
                    _check_block(sorted(b))
            blocks = IndexLists(group, group.indices(flat), list(map(len, blocks)))
        super().__init__(group, blocks)

    @staticmethod
    def _shaped(lists: IndexLists) -> IndexLists:
        """The blocks, each ascending.  diffam writes blocks ascending, and
        then the lists are kept as they stand, with no sort or copy.
        Otherwise each block is sorted into a new flat list, and a block
        that is empty or repeats an element is refused, named by its
        elements."""
        flat, sizes = lists.flat, lists.sizes
        if _ascending(flat, sizes):
            return lists
        blocks = list(map(sorted, _cut(flat, sizes)))
        if not all(sizes) or sum(map(len, map(set, blocks))) != len(flat):
            for block in blocks:
                _check_block(lists.group.elements_at(block))
        return IndexLists(lists.group, list(chain.from_iterable(blocks)), sizes)

    @property
    def blocks(self) -> tuple[tuple[Element, ...], ...]:
        return self.lists.decoded()

    @property
    def v(self) -> int:
        return self.group.order

    def block_sizes(self) -> tuple[int, ...]:
        """Sizes as a multiset, largest first."""
        return tuple(sorted(self.lists.sizes, reverse=True))

    def uniform_k(self) -> int | None:
        sizes = set(self.lists.sizes)
        return sizes.pop() if len(sizes) == 1 else None

    def covered(self) -> set[Element]:
        return set(self.group.elements_at(compress(count(), _coverage(self))))

    def uncovered(self) -> list[Element]:
        return self.group.elements_at(_uncovered(self))

    def __repr__(self) -> str:
        return f"<family of {len(self.lists)} blocks over {self.group!r}>"


def _check_block(block: Sequence) -> None:
    """Refuse an empty block, or a sorted block that repeats an element."""
    if not block:
        raise ValueError("blocks must be nonempty")
    if any(map(eq, block, islice(block, 1, None))):
        raise ValueError(f"block {tuple(block)} has a repeated element")


def _coverage(family: Family) -> bytearray:
    """One byte per group element in canonical order: 1 if a block holds
    it, filled at C level."""
    seen = bytearray(family.v)
    deque(map(setitem, repeat(seen), family.lists.flat, repeat(1)), maxlen=0)
    return seen


def _uncovered(family: Family) -> list[int]:
    """The canonical indices no block holds, ascending."""
    return list(compress(count(), map(not_, _coverage(family))))


def _ascending(flat: list[int], sizes: list[int]) -> bool:
    """Whether every block is nonempty and strictly ascending: the flat
    list's descents, a byte per position, all fall at block ends, which a
    run of equal sizes finds in one strided slice."""
    if not all(sizes):
        return False
    descents = bytes(map(ge, flat, islice(flat, 1, None)))  # 1 at i if flat[i] >= flat[i + 1]
    at_ends = start = 0
    for k, run in groupby(sizes):
        stop = start + k * sum(1 for _ in run)
        at_ends += descents[start + k - 1 : stop : k].count(1)
        start = stop
    return at_ends == descents.count(1)


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
    compares equal to, and is shown as, the tuple of the same elements, so
    a block read from a file compares equal to the block that was written."""

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
        return repr(tuple(self))


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
    group, flat, sizes = family.group, family.lists.flat, family.lists.sizes
    # the engine is chosen once per block size, not once per block
    kinds = set(sizes)
    convolve = {k for k in kinds if _use_convolution(group, k, sizes.count(k))}
    dense = _pairwise_counts(group, flat, sizes, convolve)
    for start, k in zip(accumulate(sizes, initial=0), sizes) if convolve else ():
        if k in convolve:  # the block is a slice of the flat list
            dense = list(map(add, dense, _convolution_counts(group, flat[start : start + k])))
    engines = {"convolution" if k in convolve else "pairwise" for k in kinds}
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
    its q positions.  ``at`` reads positions, ``subtract`` folds position
    differences to canonical indices and ``counts`` tallies them.  A group of
    one digit needs no fold: its keys are the index differences, in
    (-v, v), and a list tally counts the key -d at slot v - d, the index of
    -d.  Other keys fold by one table lookup per run of digits: runs of one
    digit until a fold pays for runs of at most 4 v padded slots (built
    once, by ``_fold_runs``), so each table stays O(v)."""

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
        self.coordinates = group.coordinates
        self.runs = () if self.cyclic else self._runs(0)  # one digit each
        self.wide_runs = None  # runs of at most 4 v slots, built by _fold_runs

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

    def at(self, flat: list[int]) -> list[int]:
        """The positions of elements given by canonical index: the index list
        itself in a group of one digit, else a sum of a term per factor."""
        if self.cyclic:
            return flat
        total = None
        for term, coords in zip(self.terms, self.coordinates(flat)):
            if isinstance(term, list):
                part = map(term.__getitem__, coords)
            else:
                part = map(mul, coords, repeat(term)) if term != 1 else coords
            total = part if total is None else map(add, total, part)
        return [] if total is None else list(total)

    def subtract(self, xs: Sequence[int], ys: Sequence[int]) -> Iterable[int]:
        """The canonical index of x - y for positions x, y taken in step."""
        if self.cyclic:
            return map(mod, map(sub, xs, ys), repeat(self.order))
        keys = list(map(sub, xs, ys))  # a fold reads them once per run
        return self._indices(keys, self._fold_runs(len(keys)), False)

    def counts(self, keys: Iterable[Iterable[int]]) -> list[int]:
        """How often each element is x - y or y - x, in canonical element
        order, over the keys pos(x) - pos(y) of every iterable in keys: a
        list tally in a group of one digit, else a Counter of keys, which
        take up to 1.5^n v values, each distinct key folded for both orders."""
        v = self.order
        if self.cyclic:
            dense = _index_counts(v, keys)
            # x and -x, of index v - x, each count both, written in place
            # from a list of the lower half's sums; 0 is its own mirror
            dense[0] *= 2
            half = v // 2
            sums = list(map(add, islice(dense, 1, half + 1), islice(reversed(dense), half)))
            dense[1 : half + 1] = sums
            sums.reverse()
            dense[v - half :] = sums
            return dense
        tally = Counter(chain.from_iterable(keys))
        runs = self._fold_runs(len(tally))
        indices = chain(self._indices(tally, runs, False), self._indices(tally, runs, True))
        dense = [0] * v
        for index, c in zip(indices, chain(tally.values(), tally.values())):
            dense[index] += c
        return dense

    def _fold_runs(self, n: int) -> tuple:
        """The runs that fold n keys: the wide runs, built by the first fold
        of at least v/2 keys (a key per 8 of their 4 v slots pays for them),
        until then the runs of one digit."""
        if self.wide_runs is None and 8 * n >= 4 * self.order:
            self.wide_runs = self._runs(4 * self.order)
        return self.wide_runs or self.runs

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


# the position layout of a group, kept for the groups counted last
_layout = lru_cache(maxsize=16)(_Layout)


def _index_counts(v: int, keys: Iterable[Iterable[int]]) -> list[int]:
    """How often each index below v occurs in the keys of every iterable in
    keys, as a list of v counts; a key -d in (-v, 0) counts at v - d as a
    negative list index, in a plain loop with no Python call per key."""
    counts = [0] * v
    for part in keys:
        for key in part:
            counts[key] += 1
    return counts


def _pairwise_counts(group: GroupDescriptor, flat: list[int], sizes: Sequence[int], skip=()) -> list[int]:
    """The difference counts, in canonical element order, of blocks given as
    one flat list of canonical indices and their sizes, but for blocks of a
    size in skip.  Each unordered pair of a size's columns (``_columns``) is
    subtracted and tallied once, and each distinct key is folded for both
    orders."""
    layout = _layout(group)
    columns = _columns(layout.at(flat), sizes, skip)
    keys = (map(sub, xs, ys) for cut in columns.values() for i, xs in enumerate(cut) for ys in cut[:i])
    del columns  # freed once tallied, before the counts are mirrored
    return layout.counts(keys)


def _columns(positions: list[int], sizes: Sequence[int], skip) -> dict[int, list[list[int]]]:
    """Column i of the size-k blocks, for each size k not in skip: the
    positions of their i-th members, cut off the positions a run of equal
    sizes at a time.  A function of its own, so that no loop variable of
    the caller still holds a column once the tally has read it."""
    columns: dict[int, list[list[int]]] = {}
    start = 0
    for k, run in groupby(sizes):
        stop = start + k * len(list(run))
        if k not in skip:
            cut = [positions[start + i : stop : k] for i in range(k)]
            if k in columns:
                for column, part in zip(columns[k], cut):
                    column += part
            else:
                columns[k] = cut
        start = stop
    return columns


def _slot(k: int) -> tuple[int, str]:
    """The bytes per slot that hold counts up to k without carry, and the
    struct format of such a slot (k < 2^32: the group-order cap bounds k)."""
    return (1, "B") if k < 1 << 8 else (2, "H") if k < 1 << 16 else (4, "I")


def _use_convolution(group: GroupDescriptor, k: int, blocks: int = 1) -> bool:
    """Whether a family's k-element blocks, ``blocks`` of them, are each
    counted as one big-int product rather than pair by pair.

    A group whose padding makes more than 64 v slots (GF(2^n) pads by 1.5^n)
    stays on the loop, which keeps the packed ints O(v).  Otherwise two
    estimates in us are compared, fitted to both engines on a 2-vCPU x86-64
    VM with CPython 3.11 (only the order of magnitude matters).  The loop
    costs 1 per column pair and 0.2 per key.  Measured: 0.25-0.55 per pair
    of a lone block and 0.05-0.11 per key in orbit families of one-digit
    groups up to v = 125000 (0.22-0.29 at v = 999979); 0.3-0.7 per pair and
    0.18-0.74 per key in other groups, whose Counter folds each distinct key.  The
    product costs, per block, 4e-4 P^1.585 for P packed bytes (Karatsuba;
    measured 1.5e-4 to 5.7e-4 on full slots, less on sparse ones), 0.1 per
    group element for the fold, the read and the add (measured 0.07-0.09),
    and 20 per call: above the 4-8 measured on the smallest groups, so that
    a block of at most 5 elements, where the product saves a few us at
    most, stays on the loop."""
    slots = prod(2 * r - 1 for r in group.digit_radices())
    if slots > 64 * group.order:
        return False
    product = 20 + 0.1 * group.order + 4e-4 * (slots * _slot(k)[0]) ** 1.585
    return k * (k - 1) / 2 * (1 + 0.2 * blocks) > blocks * product


def _convolution_counts(group: GroupDescriptor, block: Sequence[int]) -> list[int]:
    """The difference counts of one block of distinct canonical indices, in
    canonical element order (index 0 is 0), as the group-ring product
    D * D^(-1) computed by Kronecker substitution.

    Each padded position of the group's layout (``_Layout``) becomes a
    w-byte slot of an int: A has a 1 in the slot of every x, B in the
    mirrored slot top - pos(y) of every y, so slot t of A*B counts the pairs
    whose shifted digitwise differences spell t.  No slot exceeds k < 256^w
    (x fixes y), so slots never carry.  Folding each digit t to
    (t - (r - 1)) mod r leaves the counts of x - y in canonical order, read
    as little-endian slots on every host."""
    layout = _layout(group)
    slots, top = layout.slots, layout.top
    w, fmt = _slot(len(block))
    a = bytearray(slots * w)
    b = bytearray(slots * w)
    for pos in layout.at(block):
        a[pos * w] = 1
        b[(top - pos) * w] = 1
    a_int, b_int = int.from_bytes(a, "little"), int.from_bytes(b, "little")
    del a, b
    buf = (a_int * b_int).to_bytes(slots * w, "little")
    del a_int, b_int
    # fold each digit, lowest first, into the top digit of the next buffer,
    # whose lowest digit is then the next to fold, so the last buffer holds
    # the digits in canonical order: a pass per value of the digit reads its
    # slots strided, or a pass per value of the other digits reads one row;
    # 1-byte slots are read strided fastest as bytes, wider ones by a cast
    for _, big, r, _ in layout.digits:
        view = buf if w == 1 else memoryview(buf).cast(fmt)
        rest = len(view) // big
        if r <= rest:
            pieces = []
            for d in range(r):
                t = int.from_bytes(view[d + r - 1 :: big], "little")
                if d:
                    t += int.from_bytes(view[d - 1 :: big], "little")
                pieces.append(t.to_bytes(rest * w, "little"))
            buf = b"".join(pieces)
        else:
            folded = bytearray(r * rest * w)
            target = memoryview(folded).cast(fmt)
            for i in range(rest):
                row = view[i * big : (i + 1) * big]
                t = int.from_bytes(row[r - 1 :], "little") + (int.from_bytes(row[: r - 1], "little") << 8 * w)
                target[i::rest] = memoryview(t.to_bytes(r * w, "little")).cast(fmt)
            buf = folded
    counts = list(struct.unpack(f"<{group.order}{fmt}", buf))
    counts[0] = 0  # the zero element, counted k times by x - x
    return counts


class Report(_Record):
    """Outcome of one verification: kind, derived parameters, and the full
    deviation map for failures (empty when ok).  ``stats``, not compared,
    is what the count did: "engine" (pairwise, convolution or both),
    ordered "pairs" counted and nonzero "elements_scanned"; empty on a
    matrix report and when no count ran.  A dict left out is a new empty
    dict."""

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


def _off(counts: list[int], value: int, skip: frozenset[int] = frozenset()) -> list[int]:
    """The indices not in skip whose count is not value, ascending.  When
    one C-level count of value shows that there are none, no other pass
    runs, and no list of expected counts is built."""
    if counts.count(value) - sum(counts[i] == value for i in skip) == len(counts) - len(skip):
        return []
    return [i for i in compress(count(), map(ne, counts, repeat(value))) if i not in skip]


def _deviations(group: GroupDescriptor, counts: list[int], bad: list[int]) -> dict:
    """The elements of the ascending canonical indices bad mapped to their
    counts, in canonical element order; only these indices are decoded."""
    return dict(zip(group.elements_at(bad), map(counts.__getitem__, bad))) if bad else {}


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
    # the zero element, whose count dense[0] is always 0, is never off
    bad = _off(dense, lam, subgroup | {0}) + [i for i in subgroup if i and dense[i] != lam1]
    deviations = _deviations(family.group, dense, sorted(bad))
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
    total = len(family.lists.flat)
    if _coverage(family).count(1) != total:
        return "plain"
    return "partitioned" if total == family.v else "disjoint"


def extend_to_pdf(family: Family) -> Family:
    """Append the uncovered elements as singleton blocks, turning a disjoint
    family into a partitioned one without touching its difference multiset."""
    cls = classify_family(family)
    if cls == "plain":
        raise ValueError("blocks overlap; only disjoint families can be extended")
    extra = _uncovered(family)
    sizes = family.lists.sizes + [1] * len(extra)
    return Family(family.group, IndexLists(family.group, family.lists.flat + extra, sizes))


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


def _index_lists(group: GroupDescriptor, lists: Iterable[Iterable[Element]]) -> IndexLists:
    """Lists of elements as canonical indices: an IndexLists of the group
    (a read file's payload, a family's blocks) as it stands, element tuples
    checked once, naming the first offender, and encoded."""
    if isinstance(lists, IndexLists) and lists.group == group:
        return lists
    lists = [tuple(items) for items in lists]
    flat = _element_indices(group, chain.from_iterable(lists))
    return IndexLists(group, flat, list(map(len, lists)))


def _set_family(group: GroupDescriptor, dset: Iterable[Element]) -> tuple[Family, int]:
    """A (divisible) difference set as a one-block family, and its size k;
    the empty set is the empty family."""
    block = _element_indices(group, dset)
    return Family(group, IndexLists(group, block, [len(block)] if block else [])), len(block)


def verify_ds(
    dset: Iterable[Element], group: GroupDescriptor, params: DSParams
) -> Report:
    """Exhaustively check a (v, k, lambda) difference set."""
    family, k = _set_family(group, dset)
    declared = dict(zip(KIND_TABLE["ds"].params, params))  # the found ones, once checked
    if group.order != params.v or k != params.k:
        message = f"declared {params}, found v={group.order}, k={k}"
        return Report(False, "ds", declared, message=message)
    return _scan("ds", declared, family, params.lam)


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
    block = sorted(mset)
    family = Family(group, IndexLists(group, block, [len(block)]))
    deviations = _scan("subgroup", {}, family, 0, mset, len(mset)).deviations
    if deviations:
        elements = group.elements_at(block)
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
    declared = dict(zip(KIND_TABLE["dds"].params, params))  # the found ones, once checked
    if group.order != params.m * params.n:
        message = f"group order {group.order} != m*n = {params.m * params.n}"
        return Report(False, "dds", declared, message=message)
    if k != params.k:
        return Report(False, "dds", declared, {}, f"declared k={params.k}, found {k}")
    return _scan("dds", declared, family, params.lam2, nset, params.lam1)


# ---------------------------------------------------------------------------
# difference matrices
# ---------------------------------------------------------------------------


class DiffMatrix(_Indexed):
    """A rectangular matrix of group elements, its rows held as canonical
    indices, all of one size; ``rows`` decodes the element tuples on demand."""

    @staticmethod
    def _shaped(lists: IndexLists) -> IndexLists:
        """The rows, refused unless there are some, all of one nonzero size."""
        sizes = lists.sizes
        if not sizes or not sizes[0]:
            raise ValueError("difference matrix must have at least one row and column")
        if any(map(sizes[0].__ne__, sizes)):
            raise ValueError("rows have unequal lengths")
        return lists

    @property
    def rows(self) -> tuple[tuple[Element, ...], ...]:
        return self.lists.decoded()

    @property
    def k(self) -> int:
        return len(self.lists.sizes)

    @property
    def columns(self) -> int:
        return self.lists.sizes[0]

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
    params = {"v": v, "k": mat.k, "lambda": 1}
    if mat.columns != v:
        message = f"matrix has {mat.columns} columns but the group has order {v}"
        return Report(False, kind, params, message=message)
    deviations = {}
    for i, row in enumerate(mat.lists.cut() if kind == "hdm" else ()):
        counts = _index_counts(v, [row])
        for x, c in _deviations(group, counts, _off(counts, 1)).items():
            deviations[("row", i, x)] = c
    if deviations:
        message = f"{len(deviations)} (row, element) occurrence counts != 1"
        return Report(False, kind, params, deviations, message)
    layout = _layout(group)
    rows = _cut(layout.at(mat.lists.flat), mat.lists.sizes)
    for i in range(mat.k):
        for j in range(i + 1, mat.k):
            # a list tally reads a key of one digit, in (-v, v), at its residue
            keys = map(sub, rows[i], rows[j]) if layout.cyclic else layout.subtract(rows[i], rows[j])
            counts = _index_counts(v, [keys])
            for x, c in _deviations(group, counts, _off(counts, 1)).items():
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
    rows = _cut(layout.at(mat.lists.flat), mat.lists.sizes)
    flat = list(chain.from_iterable(layout.subtract(row, rows[0]) for row in rows))
    return DiffMatrix(group, IndexLists(group, flat, mat.lists.sizes))


def hdm_to_dm(mat: DiffMatrix) -> DiffMatrix:
    """Prepend a zero row: a (v, k, 1) homogeneous matrix becomes a
    (v, k+1, 1) difference matrix."""
    report = verify_hdm(mat)
    if not report.ok:
        raise ValueError(f"not a homogeneous difference matrix: {report.message}")
    flat = [0] * mat.columns + mat.lists.flat  # index 0 is the zero element
    return DiffMatrix(mat.group, IndexLists(mat.group, flat, [mat.columns] * (mat.k + 1)))


def dm_to_hdm(mat: DiffMatrix) -> DiffMatrix:
    """Drop the first all-zero row; the remaining rows are each permutations
    (their difference with the removed zero row was one)."""
    report = verify_dm(mat)
    if not report.ok:
        raise ValueError(f"not a difference matrix: {report.message}")
    flat, c = mat.lists.flat, mat.columns
    zero_row = [0] * c  # index 0 is the zero element
    for start in range(0, len(flat), c):
        if flat[start : start + c] == zero_row:
            remaining = flat[:start] + flat[start + c :]
            if not remaining:
                raise ValueError("matrix has no rows besides the zero row")
            return DiffMatrix(mat.group, IndexLists(mat.group, remaining, mat.lists.sizes[1:]))
    raise ValueError("no all-zero row; normalize the matrix first")
