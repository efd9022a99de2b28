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

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Sequence

from .algebra import Element, GroupDescriptor, check_cap

__all__ = [
    "DSParams",
    "DDSParams",
    "Family",
    "DiffMultiset",
    "Report",
    "DiffMatrix",
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


@dataclass(frozen=True)
class DSParams:
    """Difference-set parameter triple (v, k, lambda)."""

    v: int
    k: int
    lam: int

    def __post_init__(self):
        if self.v < 1 or self.k < 0 or self.lam < 0:
            raise ValueError(f"bad parameter triple ({self.v},{self.k},{self.lam})")

    def scaled(self, mu: int) -> "DSParams":
        return DSParams(self.v * mu, self.k * mu, self.lam * mu)

    def __str__(self) -> str:
        return f"({self.v},{self.k},{self.lam})"


@dataclass(frozen=True)
class DDSParams:
    """Divisible difference-set parameters (m, n, k, lambda1, lambda2):
    m cosets of a subgroup of order n, inside-subgroup count lambda1,
    outside count lambda2."""

    m: int
    n: int
    k: int
    lam1: int
    lam2: int

    def __post_init__(self):
        if min(self.m, self.n) < 1 or min(self.k, self.lam1, self.lam2) < 0:
            raise ValueError(
                f"bad parameter tuple ({self.m},{self.n},{self.k},"
                f"{self.lam1},{self.lam2})"
            )

    def __str__(self) -> str:
        return f"({self.m},{self.n},{self.k},{self.lam1},{self.lam2})"


class Family:
    """An ordered list of blocks over a fixed group.

    Blocks are sets (no repeated elements); each is stored sorted in the
    canonical element order and the instance is treated as immutable.
    """

    def __init__(self, group: GroupDescriptor, blocks: Iterable[Iterable[Element]]):
        normalized = []
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise ValueError("blocks must be nonempty")
            for x in b:
                group.validate_element(x)
            if any(b[i] == b[i + 1] for i in range(len(b) - 1)):
                raise ValueError(f"block {b} has a repeated element")
            normalized.append(b)
        self.group = group
        self.blocks: tuple[tuple[Element, ...], ...] = tuple(normalized)

    @property
    def v(self) -> int:
        return self.group.order

    def block_sizes(self) -> tuple[int, ...]:
        """Sizes as a multiset, largest first."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def uniform_k(self) -> int | None:
        sizes = {len(b) for b in self.blocks}
        return sizes.pop() if len(sizes) == 1 else None

    def covered(self) -> set[Element]:
        out: set[Element] = set()
        for b in self.blocks:
            out.update(b)
        return out

    def uncovered(self) -> list[Element]:
        cov = self.covered()
        return [x for x in self.group.elements() if x not in cov]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Family)
            and self.group == other.group
            and self.blocks == other.blocks
        )

    def __repr__(self) -> str:
        return f"<family of {len(self.blocks)} blocks over {self.group!r}>"


@dataclass
class DiffMultiset:
    """Counts of nonzero differences; elements with count zero are omitted
    from the dict but still count as zero."""

    group: GroupDescriptor
    counts: dict[Element, int]

    def count(self, x: Element) -> int:
        return self.counts.get(x, 0)

    def total(self) -> int:
        return sum(self.counts.values())


def delta_multiset(family: Family) -> DiffMultiset:
    """The difference multiset of the family (both orders of every pair)."""
    check_cap(family.group.order)
    sub = family.group.sub
    counts: Counter = Counter()
    for block in family.blocks:
        for i, x in enumerate(block):
            for y in block[i + 1 :]:
                counts[sub(x, y)] += 1
                counts[sub(y, x)] += 1
    return DiffMultiset(family.group, dict(counts))


@dataclass
class Report:
    """Outcome of one verification: kind, derived parameters, and the full
    deviation map for failures (empty when ok)."""

    ok: bool
    kind: str
    params: dict
    deviations: dict = dataclass_field(default_factory=dict)
    message: str = ""

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


def _scan(
    kind: str,
    params: dict,
    family: Family,
    lam: int,
    subgroup: set | frozenset = frozenset(),
    lam1: int = 0,
) -> Report:
    """Count the family's differences and compare every nonzero element's
    count with lam, or with lam1 on the given subgroup.  Deviations are
    listed in canonical element order; the failure message names lam only
    when there is no subgroup."""
    counts = delta_multiset(family).counts
    deviations = {}
    for x in family.group.nonzero_elements():
        c = counts.get(x, 0)
        if c != (lam1 if x in subgroup else lam):
            deviations[x] = c
    message = ""
    if deviations:
        message = f"{len(deviations)} of {family.v - 1} nonzero elements deviate"
        if not subgroup:
            message += f" from lambda={lam}"
    return Report(not deviations, kind, params, deviations, message)


def verify_df(family: Family, lam: int) -> Report:
    """Exhaustively check that every nonzero element occurs exactly lam times
    in the difference multiset."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    return _scan("df", family_params(family, lam), family, lam)


def classify_family(family: Family) -> str:
    """'plain' (blocks overlap), 'disjoint', or 'partitioned' (disjoint and
    covering the whole group)."""
    total = sum(len(b) for b in family.blocks)
    union = family.covered()
    if len(union) != total:
        return "plain"
    return "partitioned" if total == family.v else "disjoint"


def extend_to_pdf(family: Family) -> Family:
    """Append the uncovered elements as singleton blocks, turning a disjoint
    family into a partitioned one without touching its difference multiset."""
    cls = classify_family(family)
    if cls == "plain":
        raise ValueError("blocks overlap; only disjoint families can be extended")
    extra = [(x,) for x in family.uncovered()]
    return Family(family.group, list(family.blocks) + extra)


def _set_family(group: GroupDescriptor, dset: Iterable[Element]) -> tuple[Family, int]:
    """A (divisible) difference set as a one-block family, and its size k;
    the empty set is the empty family."""
    block = tuple(dset)
    return Family(group, [block] if block else []), len(block)


def verify_ds(
    dset: Iterable[Element], group: GroupDescriptor, params: DSParams
) -> Report:
    """Exhaustively check a (v, k, lambda) difference set."""
    family, k = _set_family(group, dset)
    rparams = {"v": group.order, "k": k, "lambda": params.lam}
    if group.order != params.v or k != params.k:
        return Report(
            False,
            "ds",
            rparams,
            {},
            f"declared {params}, found v={group.order}, k={k}",
        )
    return _scan("ds", rparams, family, params.lam)


def _check_subgroup(group: GroupDescriptor, members: Sequence[Element]) -> set:
    mset = set(members)
    if len(mset) != len(tuple(members)):
        raise ValueError("subgroup list has repeated elements")
    for x in mset:
        group.validate_element(x)
    if group.zero not in mset:
        raise ValueError("subgroup does not contain zero")
    sub = group.sub
    for a in mset:
        for b in mset:
            if sub(a, b) not in mset:
                raise ValueError(
                    f"subgroup is not closed: {a} - {b} = {sub(a, b)} is missing"
                )
    return mset


def verify_dds(
    dset: Iterable[Element],
    group: GroupDescriptor,
    n_subgroup: Sequence[Element],
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
        return Report(
            False,
            "dds",
            rparams,
            {},
            f"group order {group.order} != m*n = {params.m * params.n}",
        )
    if k != params.k:
        return Report(False, "dds", rparams, {}, f"declared k={params.k}, found {k}")
    return _scan("dds", rparams, family, params.lam2, nset, params.lam1)


# ---------------------------------------------------------------------------
# difference matrices
# ---------------------------------------------------------------------------


class DiffMatrix:
    """A rectangular matrix of group elements, stored as a tuple of rows."""

    def __init__(self, group: GroupDescriptor, rows: Iterable[Iterable[Element]]):
        normalized = tuple(tuple(row) for row in rows)
        if not normalized or not normalized[0]:
            raise ValueError("difference matrix must have at least one row and column")
        width = len(normalized[0])
        for row in normalized:
            if len(row) != width:
                raise ValueError("rows have unequal lengths")
            for x in row:
                group.validate_element(x)
        self.group = group
        self.rows = normalized

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def columns(self) -> int:
        return len(self.rows[0])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiffMatrix)
            and self.group == other.group
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"<{self.k} x {self.columns} matrix over {self.group!r}>"


def verify_dm(mat: DiffMatrix) -> Report:
    """Check that every pair of distinct rows differs in a permutation of the
    group (each element exactly once across the columns)."""
    v = mat.group.order
    check_cap(v)
    params = {"v": v, "k": mat.k, "lambda": 1}
    if mat.columns != v:
        return Report(
            False,
            "dm",
            params,
            {},
            f"matrix has {mat.columns} columns but the group has order {v}",
        )
    sub = mat.group.sub
    deviations = {}
    for i in range(mat.k):
        ri = mat.rows[i]
        for j in range(i + 1, mat.k):
            rj = mat.rows[j]
            counts = Counter(sub(a, b) for a, b in zip(ri, rj))
            if len(counts) == v:
                continue  # v distinct differences across v columns: each once
            for x in mat.group.elements():
                c = counts.get(x, 0)
                if c != 1:
                    deviations[(i, j, x)] = c
    ok = not deviations
    message = (
        "" if ok else f"{len(deviations)} (row pair, element) difference counts != 1"
    )
    return Report(ok, "dm", params, deviations, message)


def verify_hdm(mat: DiffMatrix) -> Report:
    """Check the row-permutation property on top of the difference-matrix
    property: every single row must itself enumerate the group."""
    v = mat.group.order
    check_cap(v)
    params = {"v": v, "k": mat.k, "lambda": 1}
    deviations = {}
    if mat.columns != v:
        return Report(
            False,
            "hdm",
            params,
            {},
            f"matrix has {mat.columns} columns but the group has order {v}",
        )
    for i, row in enumerate(mat.rows):
        counts = Counter(row)
        if len(counts) == v:
            continue
        for x in mat.group.elements():
            c = counts.get(x, 0)
            if c != 1:
                deviations[("row", i, x)] = c
    if deviations:
        return Report(
            False,
            "hdm",
            params,
            deviations,
            f"{len(deviations)} (row, element) occurrence counts != 1",
        )
    inner = verify_dm(mat)
    return Report(inner.ok, "hdm", params, inner.deviations, inner.message)


def normalize_dm(mat: DiffMatrix) -> DiffMatrix:
    """Subtract the first row columnwise, producing a difference matrix whose
    first row is zero."""
    report = verify_dm(mat)
    if not report.ok:
        raise ValueError(f"not a difference matrix: {report.message}")
    sub = mat.group.sub
    first = mat.rows[0]
    return DiffMatrix(
        mat.group,
        [tuple(sub(x, f) for x, f in zip(row, first)) for row in mat.rows],
    )


def hdm_to_dm(mat: DiffMatrix) -> DiffMatrix:
    """Prepend a zero row: a (v, k, 1) homogeneous matrix becomes a
    (v, k+1, 1) difference matrix."""
    report = verify_hdm(mat)
    if not report.ok:
        raise ValueError(f"not a homogeneous difference matrix: {report.message}")
    zero_row = (mat.group.zero,) * mat.columns
    return DiffMatrix(mat.group, (zero_row,) + mat.rows)


def dm_to_hdm(mat: DiffMatrix) -> DiffMatrix:
    """Drop the first all-zero row; the remaining rows are each permutations
    (their difference with the removed zero row was one)."""
    report = verify_dm(mat)
    if not report.ok:
        raise ValueError(f"not a difference matrix: {report.message}")
    zero_row = (mat.group.zero,) * mat.columns
    for i, row in enumerate(mat.rows):
        if row == zero_row:
            remaining = mat.rows[:i] + mat.rows[i + 1 :]
            if not remaining:
                raise ValueError("matrix has no rows besides the zero row")
            return DiffMatrix(mat.group, remaining)
    raise ValueError("no all-zero row; normalize the matrix first")
