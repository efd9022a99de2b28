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
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, chain, cycle, islice, repeat
from operator import add

from .groups import AdditiveField, Element, GroupDescriptor, _is_int, check_cap, check_power_cap
from .designs import KIND_TABLE, NONEMPTY, DiffMatrix, Family, IndexLists, _element_indices, _index_lists, _Record

KINDS = tuple(KIND_TABLE)  # a tuple: a kind read from a file may be unhashable


def group_to_obj(group: GroupDescriptor) -> dict:
    factors = []
    for fac in group.factors:
        if isinstance(fac, AdditiveField):
            factors.append(
                {"field": {"p": fac.p, "n": fac.n, "modulus": list(fac.modulus)}}
            )
        else:
            factors.append({"cyclic": fac})
    return {"factors": factors}


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
            factors.append(AdditiveField(p, n, modulus))  # validates irreducibility
            order *= factors[-1].q
            check_cap(order)
        else:
            raise ValueError(f"group factor {i}: expected 'cyclic' or 'field'")
    return GroupDescriptor(factors)


def element_to_obj(group: GroupDescriptor, x: Element) -> list:
    group.validate_element(x)
    out = []
    for fac, coord in zip(group.factors, x):
        if isinstance(fac, AdditiveField):
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
        if isinstance(fac, AdditiveField):
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
        if self.blocks is None:
            raise ValueError(f"design of kind {self.kind!r} has no blocks")
        return Family(self.group, self.blocks)

    def matrix(self) -> DiffMatrix:
        if self.rows is None:
            raise ValueError(f"design of kind {self.kind!r} has no matrix rows")
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


# how the writer names a payload list its design lacks
_NEEDS = {"blocks": "blocks", "rows": "matrix rows", "subgroup": "the forbidden subgroup"}


def _payload(design: DesignFile) -> dict[str, Sequence]:
    """The payload lists of a design to write, by name, after the rules
    every read file keeps (``designs.KIND_TABLE``): a known kind, each list
    its kind carries, none of them empty that must not be, and no other
    list, each refused as the reader refuses it in a file."""
    kind = design.kind
    if kind not in KINDS:
        raise ValueError(f"unknown design kind {kind!r}")
    names = KIND_TABLE[kind].payload
    for name in names:
        lists = getattr(design, name)
        if lists is None or (name in NONEMPTY and not len(lists)):
            raise ValueError(f"kind {kind!r} needs {_NEEDS[name]}")
    if "subgroup" not in names and design.subgroup is not None:
        raise ValueError(f"kind {kind!r} must not carry a subgroup")
    extra = [name for name in ("blocks", "rows") if name not in names and getattr(design, name) is not None]
    if extra:
        raise ValueError(f"unexpected design file keys: {extra}")
    return {name: getattr(design, name) for name in names}


def design_to_obj(design: DesignFile) -> dict:
    payload = _payload(design)
    group = design.group
    obj: dict = {
        "kind": design.kind,
        "group": group_to_obj(group),
        "params": _params_to_obj(design.params),
    }
    for name, lists in payload.items():
        if name == "subgroup":  # one list of elements
            obj[name] = [element_to_obj(group, x) for x in lists]
        else:
            obj[name] = [[element_to_obj(group, x) for x in items] for items in lists]
    return obj


def _header_from_obj(obj) -> tuple[str, GroupDescriptor, dict]:
    """The kind, group and parameters of a design object, its keys checked."""
    if not isinstance(obj, dict):
        raise ValueError("design file must contain a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown design kind {kind!r}")
    # a subgroup on another kind is refused once the payload is read
    extra = set(obj) - {"kind", "group", "params", "subgroup", *KIND_TABLE[kind].payload}
    if extra:
        raise ValueError(f"unexpected design file keys: {sorted(extra)}")
    group = group_from_obj(obj.get("group"))
    params = obj.get("params")
    if not isinstance(params, dict):
        raise ValueError("design file needs a 'params' object")
    return kind, group, _params_to_obj(params)


def design_from_obj(obj) -> DesignFile:
    kind, group, params = _header_from_obj(obj)
    lists = {}
    for name in KIND_TABLE[kind].payload:
        raw, nonempty = obj.get(name), name in NONEMPTY
        if not isinstance(raw, list) or (nonempty and not raw):
            raise ValueError(f"kind {kind!r} needs a {'nonempty ' * nonempty}{name!r} list")
        if name == "subgroup":  # one list of elements
            lists[name] = _payload_from_obj(group, [raw], name)[0]
        else:
            lists[name] = _payload_from_obj(group, raw, name)
    if "subgroup" in obj and "subgroup" not in lists:
        raise ValueError(f"kind {kind!r} must not carry a subgroup")
    return DesignFile(kind, group, params, **lists)


def _payload_from_obj(group: GroupDescriptor, raw: list, name: str) -> IndexLists:
    """The lists of a payload, decoded element by element: an error names the first offender."""
    lists = []
    for item in raw:
        if not isinstance(item, list):
            raise ValueError(f"each {name[:-1]} must be a list, got {item!r}")
        lists.append(group.indices([element_from_obj(group, x) for x in item]))
    return IndexLists(group, list(chain.from_iterable(lists)), list(map(len, lists)))


def _list_template(items: list[str], depth: int) -> str:
    """The template of a list holding `items` (each a template), laid out as
    json.dumps(indent=2) lays out a list that opens at indent depth `depth`."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _header_text(obj) -> str:
    """A small top-level value (group, params) as json.dumps(indent=2)
    writes it at depth 1; a JSON text holds no raw newline inside a string."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n  ")


def _budget(width: int) -> int:
    """The elements a chunk of lists may hold, each of at most `width`
    characters, for its text to stay under _CHUNK characters."""
    return max(1, _CHUNK // width)


def _lists_texts(group: GroupDescriptor, lists: IndexLists, depth: int, sep: str = "") -> Iterator[str]:
    """The text of lists of elements as json.dumps(indent=2) writes them at
    indent depth `depth`, each after `sep`, in pieces of at most _budget
    elements, a list's brackets counting as one more.  A piece is one
    %-format of a chunk of whole lists, its template joined from a template
    per list size (the chunk's template reused while its sizes repeat), or
    of part of a list too long for one piece; its coordinates are taken off
    the interleaved columns.  A cyclic coordinate is written by %d, a field
    coordinate by %s from a table of the coefficient-list texts of the
    values present."""
    columns, items, width = [], [], 0
    for fac, col in zip(group.factors, group.coordinates(lists.flat)):
        if isinstance(fac, AdditiveField):
            col = list(col)
            coeffs = _list_template(["%d"] * fac.n, depth + 2)
            table = {c: coeffs % fac.coeffs(c) for c in set(col)}
            columns.append(map(table.__getitem__, col))
            items.append("%s")
            width += max(map(len, table.values()), default=0)
        else:
            columns.append(col)
            items.append("%d")
            width += len(str(fac - 1))
    args = columns[0] if len(columns) == 1 else chain.from_iterable(zip(*columns))
    element = _list_template(items, depth + 1)
    step = ",\n" + "  " * (depth + 1) + element  # an element after another
    budget = _budget(len(step) + width)
    sizes, start, last = lists.sizes, 0, None
    # the template of a list of each size that fits in a piece, the last few kept
    template_of = lru_cache(maxsize=64)(lambda k: sep + _list_template([element] * k, depth))
    most = max(1, budget // (min(sizes, default=0) + 1))  # the lists a piece can hold
    while start < len(sizes):
        window = sizes[start : start + most]
        ends = list(accumulate(map(add, window, repeat(1))))
        n = bisect_right(ends, budget)
        if n:
            if window[:n] != last:
                last = window[:n]
                template = "".join(map(template_of, last))
            yield template % tuple(islice(args, len(columns) * (ends[n - 1] - n)))
        else:  # one list, a piece of budget - 1 elements at a time
            k, n, per = window[0], 1, max(1, budget - 1)
            for done in range(0, k, per):
                count = min(per, k - done)
                text = step * count
                if not done:  # the first element follows the bracket
                    text = sep + "[" + text[1:]
                if done + count == k:
                    text += "\n" + "  " * depth + "]"
                yield text % tuple(islice(args, len(columns) * count))
        start += n


def _payload_parts(group: GroupDescriptor, lists: IndexLists) -> Iterator[str]:
    """Blocks or matrix rows, a list at depth 1 of element lists, as the
    pieces of its text: the brackets, and each list's text after a comma
    and a new line, the first after the opening bracket instead."""
    texts = _lists_texts(group, lists, 2, ",\n    ")
    first = next(texts, None)
    if first is None:
        return iter(["[]"])
    return chain(["[" + first[1:]], texts, ["\n  ]"])


def _design_parts(design: DesignFile) -> Iterator[str]:
    """The file text as pieces, keys in sorted order, made as they are
    read, so the payload (most of the file) is never built whole.  Every
    check that can refuse the design runs before the first piece."""
    payload, group = _payload(design), design.group
    texts = {
        "kind": [json.dumps(design.kind)],
        "group": [_header_text(group_to_obj(group))],
        "params": [_header_text(_params_to_obj(design.params))],
    }
    for name, lists in payload.items():
        if name == "subgroup":  # one list of elements, its indices taken as they stand
            flat = _element_indices(group, lists)
            texts[name] = _lists_texts(group, IndexLists(group, flat, [len(flat)]), 1)
        else:
            texts[name] = _payload_parts(group, _index_lists(group, lists))
    heads = chain(["{\n  "], repeat(",\n  "))
    members = (chain((head, f'"{name}": '), texts[name]) for head, name in zip(heads, sorted(texts)))
    return chain(chain.from_iterable(members), ["\n}\n"])


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
# a payload byte's shape: "d" for a digit or minus, "?" (in no shape) for all
# but "[]," and whitespace, which the shape deletes
_SHAPE = bytes(c if c in b"[]," + _SPACE else 100 if c in b"0123456789-" else 63 for c in range(256))
_UNBRACKET = bytes.maketrans(b"[]", b"  ")
# bytes of a file (characters of a text) read at a time: a chunk's buffers
# stay below glibc's mmap threshold
_CHUNK = 1 << 16
_DECODER = json.JSONDecoder()
_WHITESPACE = re.compile(rb"[ \t\n\r]*")
# what follows a whole top-level value or key
_FOLLOW = re.compile(r"[ \t\n\r]*[,:}]")


class _Scanned:
    """A payload list as it streamed past: its shape, each piece's brackets
    and commas, and "x" for each int, appended to one buffer, and its ints."""

    def __init__(self):
        self.shapes, self.nums = bytearray(), []

    def add(self, piece: bytes, shape: bytes) -> None:
        """Take the next piece of the list, which starts with its first
        bracket or with a comma and ends before a comma or at the list's
        end, and its shape; its ints are read by json.loads with the
        brackets blanked and that first comma dropped, refused unless they
        are JSON ints."""
        body = piece.translate(_UNBRACKET).removeprefix(b",")
        if b"[]" in shape:  # regroup the commas around an empty list
            body = b",".join(body.replace(b",", b" ").split())
        self.nums += json.loads(b"[" + body + b"]")
        # an int follows a bracket or a comma, in the same piece
        self.shapes += shape.replace(b"[d", b"[x").replace(b",d", b",x").translate(None, b"d")


class _Reader:
    """A design file's bytes, read a chunk at a time: buf[pos:] is what is
    read and not yet taken."""

    def __init__(self, chunks: Iterator[bytes]):
        self.chunks, self.buf, self.pos, self.done = chunks, b"", 0, False

    def grow(self) -> bool:
        """Read chunks onto the bytes not yet taken until they are at least
        twice as many, joined once; False if the input had already ended."""
        rest = self.buf[self.pos :]
        parts, size = [rest], len(rest)
        for chunk in self.chunks:
            parts.append(chunk)
            size += len(chunk)
            if size >= 2 * len(rest):
                break
        else:
            self.done = True
        self.buf, self.pos = b"".join(parts), 0
        return size > len(rest)

    def token(self) -> int | None:
        """The next byte after whitespace, not taken, or None at the end."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if not self.grow():
                return None

    def take(self, token: bytes) -> None:
        """Take the next byte after whitespace, refused unless it is token."""
        if self.token() != token[0]:
            raise ValueError(f"expected {token!r}")
        self.pos += 1

    def value(self):
        """The JSON value that starts here, decoded from its own text once a
        window of the bytes read holds it and what follows it up to a comma,
        colon or brace, or the input has ended; refused unless its bytes are
        UTF-8.  The window starts small and doubles, so a value costs bytes
        decoded in proportion to its own length, not to the buffer's."""
        window = 64
        while True:
            whole = self.pos + window >= len(self.buf)
            text = self.buf[self.pos : self.pos + window].decode("utf-8", "replace")
            try:
                obj, end = _DECODER.raw_decode(text)
            except ValueError:
                end = None
            if end is not None and (_FOLLOW.match(text, end) or whole and self.done):
                raw = text[:end].encode("utf-8")
                if not self.buf.startswith(raw, self.pos):
                    raise ValueError("a value that is not UTF-8")
                self.pos += len(raw)
                return obj
            if not whole:
                window *= 2
            elif self.done:
                raise ValueError("the input ends inside a value")
            else:
                self.grow()

    def payload(self) -> _Scanned:
        """The payload list that starts here, read a piece at a time, each
        piece up to the last comma read, which starts the next piece.  The
        list ends before the first byte outside its shape: the last brace,
        or the quote of the next key after a comma, left with that comma to
        be read as the object's; any other byte is refused."""
        scanned = _Scanned()
        while True:
            buf, start = self.buf, self.pos
            cut = buf.rfind(b",", start + 1)
            piece = buf[start:] if cut < 0 else buf[start:cut]
            shape = piece.translate(_SHAPE, _SPACE)
            last = b"?" in shape
            if last:
                at = start + piece.translate(_SHAPE).find(b"?")
                piece = buf[start:at].rstrip(_SPACE)
                if buf[at] == ord('"') and piece.endswith(b","):
                    piece = piece[:-1]
                elif buf[at] != ord("}"):
                    raise ValueError("a byte outside a payload list's shape")
                shape = piece.translate(_SHAPE, _SPACE)
            elif cut < 0:  # neither a comma nor the list's end read yet
                if not self.grow():
                    raise ValueError("the input ends inside a payload list")
                continue
            self.pos = start + len(piece)
            scanned.add(piece, shape)
            if last:
                return scanned


def _members(reader: _Reader) -> tuple[dict, list]:
    """The top-level object of the input as json.loads reads it (a repeated
    key keeps its last value), each list under a payload name scanned as it
    streams, every other value decoded from its own text; and every scanned
    list with its name, in file order."""
    obj, scanned = {}, []
    reader.take(b"{")
    more = reader.token() != ord("}")
    while more:
        if reader.token() != ord('"'):
            raise ValueError("expected a key")
        key = reader.value()
        reader.take(b":")
        if reader.token() == ord("[") and key in _NEEDS:
            obj[key] = reader.payload()
            scanned.append((key, obj[key]))
        else:
            obj[key] = reader.value()
        more = reader.token() == ord(",")
        reader.pos += more  # the comma
    reader.take(b"}")
    if reader.token() is not None:
        raise ValueError("data after the object")
    return obj, scanned


def _streamed(chunks: Iterator[bytes]) -> DesignFile | None:
    """The design of the bytes chunks yields, read once as they stream,
    its payload lists scanned straight into indices; or None if the scan
    refuses them: a byte outside a payload list's shape, a payload list,
    kept or replaced by a repeated key, out of the writer's shape, or a
    header or kind rule.  The kept lists its kind carries must all have
    been scanned, and a NONEMPTY one must not be empty."""
    try:
        obj, scanned = _members(_Reader(chunks))
        kind, group, params = _header_from_obj(obj)
        names = KIND_TABLE[kind].payload
        if "subgroup" in obj and "subgroup" not in names:
            return None
        lists = {}
        for name, payload in scanned:
            items = _scanned_lists(group, payload, name == "subgroup")
            if items is None:
                return None
            if obj[name] is payload:
                lists[name] = items
        if any(name not in lists or (name in NONEMPTY and not lists[name]) for name in names):
            return None
        return DesignFile(kind, group, params, **lists)
    except (ValueError, RecursionError):
        return None


def _scanned_lists(group: GroupDescriptor, scanned: _Scanned, one: bool):
    """The lists of elements (one list if `one`) of a scanned payload list,
    or None unless its ints are in the writer's shape, whitespace aside,
    with each element in the group.  Each digit below the top one is
    checked here; IndexLists refuses an index outside the group, and with
    the lower digits in range that puts the top digit in range too."""
    nums = scanned.nums
    # an element's shape: the writer's text of a list holding the zero element
    zero = next(_lists_texts(group, IndexLists(group, [0], [1]), 0)).encode().translate(_SHAPE, _SPACE)
    items = scanned.shapes.replace(zero[1:-1].replace(b"d", b"x"), b"e")
    scanned.shapes.clear()  # freed before _sizes runs
    sizes = _sizes(b"[" + items + b"]" if one else items)
    radices = group.digit_radices()
    if sizes is None or len(nums) != len(radices) * sum(sizes):
        return None
    columns = [nums[j :: len(radices)] for j in range(len(radices))] if len(radices) > 1 else [nums]
    if nums and any(min(col) < 0 or max(col) >= r for col, r in zip(columns[1:], radices[1:])):
        return None
    try:
        lists = IndexLists(group, group.column_indices(columns, radices), sizes)
    except ValueError:
        return None
    return lists[0] if one else lists


def _sizes(items: bytes) -> list[int] | None:
    """The length of each list in items, the shape [[e,e],[e],...] of lists
    of elements with each element an "e", or None unless items is exactly
    that.  A pattern of lists is read at a time: the lists up to the next
    copy of its first list, if that copy is near, else the first list
    alone.  Each list of the pattern is checked against the text of a list
    of its size, and then how often the pattern repeats, by comparing it
    repeated once, then twice as often while it matches (up to _CHUNK
    bytes), then half as often, down to once: a run of m equal lists, or of
    m copies of a pattern such as sizes 1, 2, costs O(m) bytes compared in
    O(log m) calls.  No object is made per list."""
    sizes, pos, last = [], 1, len(items) - 1  # items[last] closes the outer list
    if not items.startswith(b"[") or not items.endswith(b"]"):
        return None
    texts = {}  # k: the text of a list of k elements, alone and after a comma
    while pos < last:
        if sizes:  # a comma after the last pattern
            if not items.startswith(b",", pos):
                return None
            pos += 1
        start, pattern, stop = pos, [], last
        while pos < stop or not pattern:  # a comma before the closing "]" finds no list
            if pattern:  # a comma between the pattern's lists
                if not items.startswith(b",", pos):
                    return None
                pos += 1
            close = items.find(b"]", pos, stop)
            k = (close - pos) // 2  # "[e,e]" spans 2k + 1 bytes
            if close < 0:
                return None
            if k not in texts:
                text = b"[" + b",".join([b"e"] * k) + b"]"
                texts[k] = text, b"," + text
            text, unit = texts[k]
            if not items.startswith(text, pos):
                return None
            pos += len(text)
            if not pattern:  # the next copy of the first list, if near, ends the pattern
                stop = items.find(unit, pos, min(last, pos + 16 * len(unit)))
                stop = pos if stop < 0 else stop
            pattern.append(k)
        if len(pattern) > 1:
            unit = b"," + items[start:pos]
        m, step, most, repeated = 1, 1, max(1, _CHUNK // len(unit)), unit
        while items.startswith(repeated, pos, last):
            pos, m = pos + len(repeated), m + step
            if 2 * step <= most:
                step, repeated = 2 * step, repeated + repeated
        while step > 1:  # fewer than step repeats are left
            step //= 2
            repeated = repeated[: len(unit) * step]
            if items.startswith(repeated, pos, last):
                pos, m = pos + len(repeated), m + step
        sizes += islice(cycle(pattern), len(pattern) * m)
    return sizes


def loads_design(text: str) -> DesignFile:
    """The design of a file text, read in one pass by the streamed scan of
    load_design, fed _CHUNK characters at a time.  A text the scan refuses
    goes straight through json.loads and design_from_obj, which read it or
    name its first offender."""
    if isinstance(text, str):
        design = _streamed(text[i : i + _CHUNK].encode() for i in range(0, len(text), _CHUNK))
        if design is not None:
            return design
    return design_from_obj(_parse(text))


def save_design(path, design: DesignFile) -> None:
    # check before opening, so a design that fails to encode leaves the file
    # as it was; then write each piece as it is made, never the whole text
    parts = _design_parts(design)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(parts)


def _file_chunks(path) -> Iterator[bytes]:
    with open(path, "rb") as handle:
        yield from iter(lambda: handle.read(_CHUNK), b"")


def load_design(path) -> DesignFile:
    """The design of a file, read once as bytes _CHUNK at a time by the
    streamed scan, so its whole text is never held.  A file the scan
    refuses is then read whole as text and goes through json.loads and
    design_from_obj, which read it or name its first offender."""
    design = _streamed(_file_chunks(path))
    if design is not None:
        return design
    with open(path, "r", encoding="utf-8") as handle:
        return design_from_obj(_parse(handle.read()))
