"""Self-contained JSON files for designs.

A design file carries everything needed to re-verify it from scratch:

    {
      "kind": "df" | "ddf" | "pdf" | "ds" | "dds" | "dm" | "hdm",
      "group": {"factors": [{"cyclic": n} | {"field": {"p": p, "n": n,
                                                       "modulus": [c0..cn]}}]},
      "params": {...},                  # declared parameters, all integers
      "blocks": [[element, ...], ...]   # families and (d)ds kinds
      "rows":   [[element, ...], ...]   # dm / hdm kinds
      "subgroup": [element, ...]        # dds only
    }

An element is a list with one entry per group factor: a plain residue for a
cyclic factor, or the coefficient list (low degree first) for a field
factor.  Field moduli are embedded so the file never depends on how this
library chooses canonical irreducibles.

Serialization is deterministic — sorted keys, fixed indentation, trailing
newline — so identical designs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from itertools import chain, groupby, islice, repeat
from json.decoder import WHITESPACE, JSONObject
from operator import eq, itemgetter

from .algebra import (
    Element,
    FieldDescriptor,
    GroupDescriptor,
    check_cap,
    check_power_cap,
)
from .designs import PARAM_KEYS, DiffMatrix, Family, IndexedElements, _element_indices, _Record

KINDS = tuple(PARAM_KEYS)

FAMILY_KINDS = ("df", "ddf", "pdf")
SET_KINDS = ("ds", "dds")
MATRIX_KINDS = ("dm", "hdm")


def group_to_obj(group: GroupDescriptor) -> dict:
    factors = []
    for fac in group.factors:
        if isinstance(fac, FieldDescriptor):
            factors.append(
                {"field": {"p": fac.p, "n": fac.n, "modulus": list(fac.modulus)}}
            )
        else:
            factors.append({"cyclic": fac})
    return {"factors": factors}


def _is_int(value) -> bool:
    """JSON integers only: a JSON boolean parses to a Python bool, which is
    an int subclass but never a valid count, order or coordinate."""
    return isinstance(value, int) and not isinstance(value, bool)


def group_from_obj(obj) -> GroupDescriptor:
    if not isinstance(obj, dict) or not isinstance(obj.get("factors"), list):
        raise ValueError("group must be an object with a 'factors' list")
    factors = []
    order = 1
    for i, fac in enumerate(obj["factors"]):
        if not isinstance(fac, dict) or len(fac) != 1:
            raise ValueError(f"group factor {i} must be a one-key object")
        if "cyclic" in fac:
            n = fac["cyclic"]
            if not _is_int(n) or n < 1:
                raise ValueError(f"group factor {i}: bad cyclic order {n!r}")
            order *= n
            check_cap(order)
            factors.append(n)
        elif "field" in fac:
            fd = fac["field"]
            if not isinstance(fd, dict):
                raise ValueError(f"group factor {i}: 'field' must be an object")
            try:
                p, n, modulus = fd["p"], fd["n"], fd["modulus"]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"group factor {i}: field needs p, n, modulus") from exc
            if not (_is_int(p) and _is_int(n)):
                raise ValueError(f"group factor {i}: p and n must be integers")
            if not isinstance(modulus, list) or not all(_is_int(c) for c in modulus):
                raise ValueError(f"group factor {i}: modulus must be an integer list")
            # refuse an over-cap field before is_prime trial-divides p
            check_cap(order * p)
            check_power_cap(p, n)
            factors.append(FieldDescriptor(p, n, modulus))  # validates irreducibility
            order *= factors[-1].q
            check_cap(order)
        else:
            raise ValueError(f"group factor {i}: expected 'cyclic' or 'field'")
    return GroupDescriptor(factors)


def element_to_obj(group: GroupDescriptor, x: Element) -> list:
    group.validate_element(x)
    out = []
    for fac, coord in zip(group.factors, x):
        if isinstance(fac, FieldDescriptor):
            out.append(list(fac.coeffs(coord)))
        else:
            out.append(coord)
    return out


def element_from_obj(group: GroupDescriptor, obj) -> Element:
    if not isinstance(obj, list) or len(obj) != len(group.factors):
        raise ValueError(
            f"element must be a list of {len(group.factors)} coordinates, got {obj!r}"
        )
    coords = []
    for i, (fac, coord) in enumerate(zip(group.factors, obj)):
        if isinstance(fac, FieldDescriptor):
            if not isinstance(coord, list) or not all(_is_int(c) for c in coord):
                raise ValueError(
                    f"coordinate {i} must be a coefficient list for {fac!r}"
                )
            coords.append(fac.element(coord))  # range-checks the coefficients
        else:
            if not _is_int(coord) or not 0 <= coord < fac:
                raise ValueError(f"coordinate {i} out of range for Z_{fac}: {coord!r}")
            coords.append(coord)
    return tuple(coords)


class IndexLists(Sequence):
    """Lists of group elements held as canonical indices: ``flat``, the
    index of every element in order, and ``sizes``, the length of each
    list.  The indices are trusted to lie in the group.  Each list reads as
    an IndexedElements, decoded on demand; the lists compare equal to the
    tuple of the element tuples they hold."""

    def __init__(self, group: GroupDescriptor, flat: list[int], sizes: list[int]):
        self.group, self.flat, self.sizes = group, flat, sizes

    @classmethod
    def of_blocks(cls, group: GroupDescriptor, blocks: Sequence[tuple]) -> "IndexLists":
        """Lists given as tuples of indices, such as a family's ``indices``."""
        return cls(group, list(chain.from_iterable(blocks)), list(map(len, blocks)))

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, i: int) -> IndexedElements:
        i = range(len(self.sizes))[i]
        start = sum(islice(self.sizes, i))
        return IndexedElements(self.group, self.flat[start : start + self.sizes[i]])

    def __iter__(self):
        flat = iter(self.flat)
        return (IndexedElements(self.group, islice(flat, k)) for k in self.sizes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IndexLists):
            return (self.group, self.flat, self.sizes) == (other.group, other.flat, other.sizes)
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(map(tuple, self))!r})"


class DesignFile(_Record):
    """A design file: the declared kind and parameters plus the payload
    (blocks, or matrix rows, and for divisible sets the subgroup).  Blocks
    and rows are sequences of element sequences, the subgroup one sequence
    of elements.  A read file holds them as canonical indices (IndexLists,
    IndexedElements) that decode on demand; element tuples passed in are
    checked and encoded once, when the design is written."""

    _fields = ("kind", "group", "params", "blocks", "rows", "subgroup")

    def __init__(
        self,
        kind: str,
        group: GroupDescriptor,
        params: dict,
        blocks: Sequence | None = None,
        rows: Sequence | None = None,
        subgroup: Sequence | None = None,
    ):
        self.kind, self.group, self.params = kind, group, params
        self.blocks, self.rows, self.subgroup = blocks, rows, subgroup

    def family(self) -> Family:
        blocks = self.blocks
        if blocks is None:
            raise ValueError(f"design of kind {self.kind!r} has no blocks")
        if isinstance(blocks, IndexLists) and blocks.group == self.group:
            return Family.of_flat(self.group, blocks.flat, blocks.sizes)
        return Family(self.group, blocks)

    def matrix(self) -> DiffMatrix:
        if self.rows is None:
            raise ValueError(f"design of kind {self.kind!r} has no matrix rows")
        if isinstance(self.rows, IndexLists) and self.rows.group == self.group:
            return DiffMatrix.of_flat(self.group, self.rows.flat, self.rows.sizes)
        return DiffMatrix(self.group, self.rows)


def _params_to_obj(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, list):
            if not all(_is_int(x) for x in value):
                raise ValueError(f"parameter {key} must be an integer list")
            out[key] = list(value)
        elif _is_int(value):
            out[key] = value
        else:
            raise ValueError(f"parameter {key} has unsupported value {value!r}")
    return out


def _payload(design: DesignFile) -> tuple[str, Sequence]:
    """The payload key ("rows" or "blocks") and lists of a design to write,
    after the rules every written file keeps: a known kind, the payload its
    kind needs, and a subgroup for kind dds and no other."""
    kind = design.kind
    if kind not in KINDS:
        raise ValueError(f"unknown design kind {kind!r}")
    key, what = ("rows", "matrix rows") if kind in MATRIX_KINDS else ("blocks", "blocks")
    lists = getattr(design, key)
    if lists is None:
        raise ValueError(f"kind {kind!r} needs {what}")
    if kind == "dds" and design.subgroup is None:
        raise ValueError("kind 'dds' needs the forbidden subgroup")
    if kind != "dds" and design.subgroup is not None:
        raise ValueError(f"kind {kind!r} must not carry a subgroup")
    return key, lists


def design_to_obj(design: DesignFile) -> dict:
    key, lists = _payload(design)
    group = design.group
    obj: dict = {
        "kind": design.kind,
        "group": group_to_obj(group),
        "params": _params_to_obj(design.params),
        key: [[element_to_obj(group, x) for x in items] for items in lists],
    }
    if design.subgroup is not None:
        obj["subgroup"] = [element_to_obj(group, x) for x in design.subgroup]
    return obj


def _header_from_obj(obj) -> tuple[str, GroupDescriptor, dict]:
    """The kind, group and parameters of a design object, its keys checked."""
    if not isinstance(obj, dict):
        raise ValueError("design file must contain a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown design kind {kind!r}")
    allowed = {"kind", "group", "params", "subgroup"}
    allowed.add("rows" if kind in MATRIX_KINDS else "blocks")
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unexpected design file keys: {sorted(extra)}")
    group = group_from_obj(obj.get("group"))
    params = obj.get("params")
    if not isinstance(params, dict):
        raise ValueError("design file needs a 'params' object")
    return kind, group, _params_to_obj(params)


def design_from_obj(obj) -> DesignFile:
    kind, group, params = _header_from_obj(obj)
    blocks = rows = subgroup = None
    if kind in MATRIX_KINDS:
        raw = obj.get("rows")
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"kind {kind!r} needs a nonempty 'rows' list")
        rows = _payload_from_obj(group, raw, "row")
    else:
        raw = obj.get("blocks")
        if not isinstance(raw, list):
            raise ValueError(f"kind {kind!r} needs a 'blocks' list")
        blocks = _payload_from_obj(group, raw, "block")
    if kind == "dds":
        raw = obj.get("subgroup")
        if not isinstance(raw, list) or not raw:
            raise ValueError("kind 'dds' needs a nonempty 'subgroup' list")
        subgroup = _payload_from_obj(group, [raw], "subgroup")[0]
    elif "subgroup" in obj:
        raise ValueError(f"kind {kind!r} must not carry a subgroup")
    return DesignFile(kind, group, params, blocks, rows, subgroup)


def _payload_from_obj(group: GroupDescriptor, raw: list, what: str) -> IndexLists:
    """Blocks or matrix rows, decoded element by element: an error names the first offender."""
    lists = []
    for item in raw:
        if not isinstance(item, list):
            raise ValueError(f"each {what} must be a list, got {item!r}")
        lists.append(group.indices([element_from_obj(group, x) for x in item]))
    return IndexLists.of_blocks(group, lists)


def _runs(lengths) -> list[tuple[int, int]]:
    """(length, count) for each run of equal consecutive list lengths: the
    codec reads and writes a run of equal-length lists with one template."""
    return [(k, len(list(run))) for k, run in groupby(lengths)]


def _list_template(item: str, count: int, depth: int) -> str:
    """A str.format template of a list of `count` items, each written by the
    template `item`, laid out as json.dumps(indent=2) lays out a list that
    opens at indent depth `depth`."""
    if not count:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join([item] * count) + "\n" + "  " * depth + "]"


def _header_text(obj) -> str:
    """A small top-level value (group, params) as json.dumps(indent=2)
    writes it at depth 1; a JSON text holds no raw newline inside a string."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n  ")


def _index_lists(group: GroupDescriptor, lists) -> IndexLists:
    """Lists of elements as canonical indices.  Lists already held as
    indices of the group (a read file's payload, a family's blocks) are
    taken as they are; element tuples are checked once, naming the first
    offender, and encoded."""
    if isinstance(lists, IndexLists) and lists.group == group:
        return lists
    lists = [tuple(items) for items in lists]
    xs = list(chain.from_iterable(lists))
    flat = _element_indices(group, xs)
    for i in range(len(group.factors)):
        if any(map(isinstance, map(itemgetter(i), xs), repeat(bool))):
            x = next(x for x in xs if isinstance(x[i], bool))
            raise ValueError(f"{x!r} has a bool coordinate, not an integer")
    return IndexLists(group, flat, list(map(len, lists)))


def _lists_texts(group: GroupDescriptor, lists: IndexLists, depth: int) -> list[str]:
    """The text of each list of elements as json.dumps(indent=2) writes it
    at indent depth `depth`, one template per run of equal-length lists.
    The coordinate texts are built a column at a time from the indices: a
    cyclic coordinate is its decimal text, a field coordinate looks its
    coefficient-list text up in a table of the values present."""
    columns = []
    for fac, col in zip(group.factors, group.coordinates(lists.flat)):
        if isinstance(fac, FieldDescriptor):
            col = list(col)
            fmt = _list_template("{}", fac.n, depth + 2).format
            table = {c: fmt(*fac.coeffs(c)) for c in set(col)}
            columns.append(map(table.__getitem__, col))
        else:
            columns.append(map(int.__repr__, col))
    element = _list_template("{}", len(columns), depth + 1)
    out: list[str] = []
    for k, m in _runs(lists.sizes):
        fmt = _list_template(element, k, depth).format
        out.extend(islice(map(fmt, *(columns * k)), m) if k else repeat("[]", m))
    return out


def _payload_parts(group: GroupDescriptor, lists) -> list[str]:
    """Blocks or matrix rows, a list at depth 1 of element lists, as the
    pieces of its text: each list's text, and the brackets and separators
    between them."""
    texts = _lists_texts(group, _index_lists(group, lists), 2)
    if not texts:
        return ["[]"]
    parts = [",\n    "] * (2 * len(texts) + 1)
    parts[1::2] = texts
    parts[0], parts[-1] = "[\n    ", "\n  ]"
    return parts


def _design_parts(design: DesignFile) -> list[str]:
    """The file text as pieces, keys in sorted order.  A payload list's text
    is a piece of its own, so the payload (most of the file) is never built
    as one string: each whole copy adds to the peak memory of a large write."""
    key, lists = _payload(design)
    texts = {
        "kind": [json.dumps(design.kind)],
        "group": [_header_text(group_to_obj(design.group))],
        "params": [_header_text(_params_to_obj(design.params))],
        key: _payload_parts(design.group, lists),
    }
    if design.subgroup is not None:
        subgroup = _index_lists(design.group, [design.subgroup])
        texts["subgroup"] = _lists_texts(design.group, subgroup, 1)
    parts: list[str] = []
    for name in sorted(texts):
        parts += (",\n  " if parts else "{\n  ", f'"{name}": ')
        parts += texts[name]
    parts.append("\n}\n")
    return parts


def dumps_design(design: DesignFile) -> str:
    """The file text, byte for byte what
    json.dumps(design_to_obj(design), sort_keys=True, indent=2) + "\n"
    gives, written directly from the fixed schema (keys in sorted order)."""
    return "".join(_design_parts(design))


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"design file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("design file is nested too deeply to parse") from exc


_SPACE = b" \t\n\r"  # JSON whitespace
# a payload byte's shape: "d" for a digit or minus, "?" (in no shape) for all but "[],"
_SHAPE = bytes(c if c in b"[]," else 100 if c in b"0123456789-" else 63 for c in range(256))
_UNBRACKET = bytes.maketrans(b"[]", b"  ")
# characters read at a time: a chunk's buffers stay below glibc's mmap threshold
_CHUNK = 1 << 16
_DECODER = json.JSONDecoder()
# what follows a top-level value: the next key and its colon, or the last brace
_MEMBER = re.compile(r'(?:,[ \t\n\r]*"(?:[^"\\]|\\.)*"[ \t\n\r]*:|\}[ \t\n\r]*\Z)')


def _walk(text: str) -> dict | None:
    """The top-level object of a text, read by json's object parser with each
    list that holds no string or object kept as its span (start, end), up to
    the comma or brace before the next member.  A span replaced by a
    repeated key must be JSON."""

    def value(text: str, i: int):
        quote = text.find('"', i) % (len(text) + 1)  # the text's end if there is none
        end = max(text.rfind(",", i, quote), text.rfind("}", i, quote))
        if text.startswith("[", i) and end >= 0 and _MEMBER.match(text, end):
            return (i, end), end  # a quote or brace inside the list opens no member
        return _DECODER.scan_once(text, i)

    brace = WHITESPACE.match(text).end()  # str.index refuses any other first token
    pairs, end = JSONObject((text, text.index("{", brace, brace + 1) + 1), True, value, None, list)
    obj = dict(pairs)
    replaced = [span for key, span in pairs if isinstance(span, tuple) and obj[key] is not span]
    valid = all(WHITESPACE.match(text, _DECODER.raw_decode(text, i)[1]).end() == j for i, j in replaced)
    return obj if valid and WHITESPACE.match(text, end).end() == len(text) else None


def _scanned_lists(group: GroupDescriptor, text: str, start: int, end: int, one: bool):
    """The lists of elements (one list if `one`) in text[start:end], or None
    unless they are JSON in the writer's shape, whitespace aside, with each
    int in range.  Each chunk of about _CHUNK characters, ending after a
    comma, gives its shape (its brackets and commas, and "x" for each int)
    and its ints, read by json.loads with the brackets blanked."""
    shapes, nums = [], []
    while start < end:
        stop = text.find(",", start + _CHUNK, end) + 1 or end
        chunk = text[start:stop].encode("ascii")
        shape = chunk.translate(_SHAPE, _SPACE)
        shapes.append(shape.replace(b"d]", b"x]").replace(b"d,", b"x,").translate(None, b"d"))
        body = chunk.translate(_UNBRACKET)
        if b"[]" in shape:  # regroup the commas around an empty list
            body = b",".join(body.replace(b",", b" ").split())
        nums += json.loads(b"[" + body.removesuffix(b",") + b"]")
        start = stop
    # an element's shape: the writer's text of a list holding the zero element
    zero = _lists_texts(group, IndexLists(group, [0], [1]), 0)[0].encode().translate(_SHAPE, _SPACE)
    items = (b"[" * one + b"".join(shapes) + b"]" * one).replace(zero[1:-1].replace(b"d", b"x"), b"e")
    sizes = [] if items == b"[]" else list(map(len, items.translate(None, b",")[2:-2].split(b"][")))
    texts = {k: b"[" + b",".join([b"e"] * k) + b"]" for k in set(sizes)}
    radices = group.digit_radices()
    if items != b"[%b]" % b",".join(map(texts.__getitem__, sizes)) or len(nums) != len(radices) * sum(sizes):
        return None
    columns = [nums[j :: len(radices)] for j in range(len(radices))] if len(radices) > 1 else [nums]
    if nums and any(min(col) < 0 or max(col) >= r for col, r in zip(columns, radices)):
        return None
    lists = IndexLists(group, group.column_indices(columns, radices), sizes)
    return lists[0] if one else lists


def loads_design(text: str) -> DesignFile:
    """The design of a file text, its payload scanned straight into indices.
    A text the scan refuses goes through json.loads and design_from_obj,
    whose error names the first offender."""
    try:
        obj = _walk(text) if isinstance(text, str) else None
        kind, group, params = _header_from_obj(obj)
        names = ["rows" if kind in MATRIX_KINDS else "blocks"] + ["subgroup"] * (kind == "dds")
        if ("subgroup" not in obj or kind == "dds") and all(isinstance(obj.get(n), tuple) for n in names):
            lists = {n: _scanned_lists(group, text, *obj[n], n == "subgroup") for n in names}
            if None not in lists.values() and all(lists.get(n, 1) for n in ("rows", "subgroup")):
                return DesignFile(kind, group, params, **lists)
    except (ValueError, RecursionError):
        pass  # the scan refuses the text; the tree path decides
    return design_from_obj(_parse(text))


def save_design(path, design: DesignFile) -> None:
    # encode before opening, so a design that fails to encode leaves the file
    # as it was; then write a few thousand pieces at a time, never the whole text
    parts = _design_parts(design)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(0, len(parts), 4096):
            handle.write("".join(parts[i : i + 4096]))


def load_design(path) -> DesignFile:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_design(handle.read())
