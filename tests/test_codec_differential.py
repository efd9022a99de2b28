"""Differential tests of the column codec.

The design-file writer is checked byte for byte against
``json.dumps(design_to_obj(d), sort_keys=True, indent=2) + "\\n"``, the
reader's streamed scan, of a text or of a file read a chunk at a time,
against ``design_from_obj(json.loads(text))``, which
decodes the JSON tree element by element, the family and the
matrix of a read file against ``Family`` and ``DiffMatrix`` of the decoded
blocks and rows, the shared column element check against
``GroupDescriptor.contains``, and the writer against the reader (what one
writes the other reads back, what the reader would refuse the writer
refuses), on every group shape and design kind, valid or with one
coordinate spoiled."""

import copy
import json
import re
from math import prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from diffam import fileformat
from diffam.algebra import GroupDescriptor, build_field, build_ring
from diffam.constructions import units_hdm
from diffam.designs import KIND_TABLE, DiffMatrix, Family, hdm_to_dm, verify_dm, verify_hdm
from diffam.fileformat import (
    DesignFile,
    IndexLists,
    design_from_obj,
    design_to_obj,
    dumps_design,
    element_from_obj,
    load_design,
    loads_design,
    save_design,
)

# cyclic orders (Z_1 included), GF(p) as a field factor, GF(2^n) and GF(p^n)
FACTOR_SPECS = [1, 2, 3, 5, 12, 13, (2, 1), (7, 1), (2, 2), (2, 3), (2, 5), (3, 2), (5, 2)]


def _size(spec):
    return spec[0] ** spec[1] if isinstance(spec, tuple) else spec


@st.composite
def groups(draw):
    specs = [draw(st.sampled_from(FACTOR_SPECS))]
    for _ in range(draw(st.integers(0, 2))):
        room = 200 // prod(_size(s) for s in specs)
        specs.append(draw(st.sampled_from([s for s in FACTOR_SPECS if _size(s) <= room])))
    return GroupDescriptor(
        [build_field(*s) if isinstance(s, tuple) else s for s in specs]
    )


@st.composite
def _element(draw, elements):
    """An element, now and then with a bool for one coordinate."""
    x = draw(st.sampled_from(elements))
    if draw(st.integers(0, 19)) == 0:
        i = draw(st.integers(0, len(x) - 1))
        x = x[:i] + (draw(st.booleans()),) + x[i + 1:]
    return x


def _elements(group, max_size=6):
    return st.lists(_element(list(group.elements())), max_size=max_size)


@st.composite
def designs(draw):
    """A DesignFile of any kind; the writer does not certify the design, so
    blocks, rows and the subgroup are any lists of elements (mixed sizes,
    empty payload lists, repeated elements, now and then a bool coordinate
    and a list its kind does not carry included)."""
    group = draw(groups())
    kind = draw(st.sampled_from(tuple(KIND_TABLE)))
    params = draw(
        st.dictionaries(
            st.sampled_from(["K", "k", "lambda", "lambda1", "m", "v"]),
            st.one_of(st.integers(-5, 10**6), st.lists(st.integers(0, 9), max_size=3)),
            max_size=4,
        )
    )
    lists = tuple(tuple(b) for b in draw(st.lists(_elements(group), max_size=5)))
    names = list(KIND_TABLE[kind].payload)
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(["blocks", "rows", "subgroup"])))
    payload = dict.fromkeys(names, lists)
    if "subgroup" in payload:
        payload["subgroup"] = tuple(draw(_elements(group)))
    return DesignFile(kind, group, params, **payload)


def _spots(design):
    """(payload name, list index, element index) of every element."""
    out = []
    for name in ("blocks", "rows"):
        for i, items in enumerate(getattr(design, name) or ()):
            out.extend((name, i, j) for j in range(len(items)))
    out.extend(("subgroup", None, j) for j in range(len(design.subgroup or ())))
    return out


def _replace(design, spot, x):
    name, i, j = spot
    if name == "subgroup":
        items = list(design.subgroup)
        items[j] = x
        return DesignFile(**{**vars(design), "subgroup": tuple(items)})
    lists = [list(items) for items in getattr(design, name)]
    lists[i][j] = x
    return DesignFile(**{**vars(design), name: tuple(map(tuple, lists))})


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("ValueError", str(exc))


def oracle_text(design):
    return json.dumps(design_to_obj(design), sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(designs(), st.data())
def test_dumps_design_matches_the_json_oracle(design, data):
    spots = _spots(design)
    spoil = bool(spots) and data.draw(st.booleans())
    if spoil:
        spot = data.draw(st.sampled_from(spots))
        x = getattr(design, spot[0])[spot[2]] if spot[0] == "subgroup" else (
            getattr(design, spot[0])[spot[1]][spot[2]]
        )
        coord = data.draw(st.integers(0, len(x) - 1))
        bad = data.draw(
            st.one_of(
                st.sampled_from([True, False, -1, 1.0, "1", None, [0]]),
                st.integers(design.group.factor_sizes[coord], 10**6),
            )
        )
        if data.draw(st.integers(0, 4)) == 0:
            spoiled = data.draw(st.sampled_from([list(x), x + (0,), x[:-1], 0]))
        else:
            spoiled = x[:coord] + (bad,) + x[coord + 1:]
        design = _replace(design, spot, spoiled)
    fast = _outcome(dumps_design, design)
    oracle = _outcome(oracle_text, design)
    if oracle[0] == "ok":
        assert fast == oracle
    else:
        assert fast[0] == oracle[0]


@settings(max_examples=200, deadline=None)
@given(groups(), st.sampled_from(tuple(KIND_TABLE)), st.data())
def test_the_writer_pieces_join_to_the_oracle_at_any_chunk_budget(group, kind, data):
    """With pieces of 1, 2 or 7 elements the writer still gives the oracle's
    text: empty lists, alternating sizes and lists longer than a piece, over
    cyclic, field and mixed groups, in blocks, rows and a subgroup."""
    elements = list(group.elements())
    sizes = data.draw(
        st.one_of(
            st.lists(st.integers(0, 9), max_size=8),
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 6)).map(lambda t: [t[0], t[1]] * t[2]),
        )
    )
    lists = tuple(tuple(data.draw(st.lists(st.sampled_from(elements), min_size=k, max_size=k))) for k in sizes)
    payload = dict.fromkeys(KIND_TABLE[kind].payload, lists)
    if "subgroup" in payload:
        payload["subgroup"] = tuple(data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=12)))
    design = DesignFile(kind, group, {"v": group.order}, **payload)
    oracle = _outcome(oracle_text, design)
    for budget in (1, 2, 7):
        with mock.patch.object(fileformat, "_budget", lambda width: budget):
            assert _outcome(dumps_design, design) == oracle


def _spoil_obj(obj, data):
    """Replace one element, coordinate or coefficient of a design object by
    junk, a bool, or an out-of-range or negative integer."""
    places = []
    for name in ("blocks", "rows"):
        for items in obj.get(name, ()):
            places.extend((items, j) for j in range(len(items)))
    places.extend((obj["subgroup"], j) for j in range(len(obj.get("subgroup", ()))))
    if not places:
        return
    parent, key = data.draw(st.sampled_from(places))
    depth = data.draw(st.integers(0, 2))
    while depth and isinstance(parent[key], list) and parent[key]:
        parent, key = parent[key], data.draw(st.integers(0, len(parent[key]) - 1))
        depth -= 1
    parent[key] = data.draw(
        st.one_of(
            st.sampled_from([True, False, None, 1.5, "0", [], [0], [[0]], {"a": 1}]),
            st.integers(-3, 10**6),
        )
    )


@settings(max_examples=300, deadline=None)
@given(designs(), st.data())
def test_reader_matches_the_per_element_decode(design, data):
    obj = _outcome(design_to_obj, design)
    if obj[0] != "ok":  # a dm/hdm design with no rows, say
        return
    obj = copy.deepcopy(obj[1])
    if data.draw(st.booleans()):
        _spoil_obj(obj, data)
    fast = _outcome(loads_design, json.dumps(obj))
    slow = _outcome(design_from_obj, obj)
    assert fast == slow
    if fast[0] == "ok" and "blocks" in obj:
        assert _family_outcomes(fast[1], slow[1]) == [_family_oracle(obj)] * 2


def _family_oracle(obj):
    """Family of the blocks of a design object decoded element by element."""

    def build():
        group = fileformat.group_from_obj(obj["group"])
        blocks = [[element_from_obj(group, x) for x in block] for block in obj["blocks"]]
        return Family(group, blocks)

    return _outcome(build)


def _family_outcomes(*designs):
    return [_outcome(design.family) for design in designs]


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([[1, 2, 4], [3, 5, 6]], None),
        ([[4, 1, 2], [6, 3, 5]], None),  # unsorted blocks are sorted
        ([[0, 3], [6, 5, 1], [2]], None),
        ([[0, 1, 3], [1, 2, 2]], "block ((1,), (2,), (2,)) has a repeated element"),
        ([[2, 1, 2]], "block ((1,), (2,), (2,)) has a repeated element"),
        ([[1, 2, 4], []], "blocks must be nonempty"),
        ([[], [1, 1]], "blocks must be nonempty"),
    ],
)
def test_family_of_a_read_file_matches_the_family_oracle(blocks, message):
    obj = {
        "kind": "df",
        "group": {"factors": [{"cyclic": 7}]},
        "params": {"v": 7, "k": 3, "lambda": 1},
        "blocks": [[[x] for x in block] for block in blocks],
    }
    fast = loads_design(json.dumps(obj))
    slow = design_from_obj(obj)
    oracle = _family_oracle(obj)
    assert _family_outcomes(fast, slow) == [oracle] * 2
    assert oracle[0] == ("ValueError" if message else "ok")
    if message:
        assert oracle[1] == message


@pytest.mark.parametrize("spoiled", [[7], [-1], [True], [1.0], ["1"], [[1]], [1, 2], None])
def test_a_spoiled_coordinate_is_refused_before_the_family(spoiled):
    obj = {
        "kind": "df",
        "group": {"factors": [{"cyclic": 7}]},
        "params": {"v": 7, "k": 3, "lambda": 1},
        "blocks": [[[1], [2], [4]], [[3], spoiled, [6]]],
    }
    fast = _outcome(loads_design, json.dumps(obj))
    slow = _outcome(design_from_obj, obj)
    assert fast == slow
    assert fast[0] == "ValueError"
    assert fast == _family_oracle(obj)


@st.composite
def families(draw):
    group = draw(groups())
    elements = list(group.elements())
    blocks = draw(
        st.lists(
            st.lists(st.sampled_from(elements), min_size=1, max_size=6, unique=True),
            max_size=5,
        )
    )
    return Family(group, blocks)


@settings(max_examples=200, deadline=None)
@given(families(), st.sampled_from(["df", "ddf", "pdf"]))
def test_a_family_design_writes_the_oracle_bytes(family, kind):
    params = {"v": family.v, "lambda": 1}
    indexed = DesignFile(kind, family.group, params, family.lists)
    assert dumps_design(indexed) == oracle_text(
        DesignFile(kind, family.group, params, family.blocks)
    )


def _matrix_outcomes(group, rows):
    """The matrix of a file holding the rows, read through its canonical
    indices and through DiffMatrix of the decoded rows: its indices and
    both matrix reports, or the ValueError text."""
    obj = design_to_obj(DesignFile("hdm", group, {}, rows=rows))
    assert isinstance(design_from_obj(obj).rows, IndexLists)

    def oracle():
        decoded = [[element_from_obj(group, x) for x in row] for row in obj["rows"]]
        return DiffMatrix(group, decoded)

    def outcome(build):
        try:
            mat = build()
        except ValueError as exc:
            return ("ValueError", str(exc))
        return ("ok", mat.indices, verify_dm(mat), verify_hdm(mat))

    return outcome(design_from_obj(obj).matrix), outcome(oracle)


def _unit_table(fields, dm=False):
    mat = units_hdm(build_ring(fields), 3)
    mat = hdm_to_dm(mat) if dm else mat
    return mat.group, mat.rows


@pytest.mark.parametrize(
    "group, rows, expected",
    [
        # valid shapes: whether verify_dm and verify_hdm pass
        (*_unit_table([7]), (True, True)),
        (*_unit_table([4, 7]), (True, True)),
        (*_unit_table([4, 7], dm=True), (True, False)),
        (GroupDescriptor((7,)), [[(0,)] * 7, [(x,) for x in range(7)]], (True, False)),
        (GroupDescriptor((7,)), [[(x,) for x in range(7)]] * 2, (False, False)),
        (GroupDescriptor((5,)), [[(0,), (1,)], [(2,), (3,)]], (False, False)),  # 2 columns
        # refused shapes
        (GroupDescriptor((7,)), [[(0,), (1,)], [(2,)]], "rows have unequal lengths"),
        (
            GroupDescriptor((7,)),
            [[], [(1,)]],
            "difference matrix must have at least one row and column",
        ),
    ],
)
def test_matrix_of_a_read_file_matches_the_matrix_oracle(group, rows, expected):
    fast, oracle = _matrix_outcomes(group, rows)
    assert fast == oracle
    if isinstance(expected, str):
        assert oracle == ("ValueError", expected)
    else:
        assert (oracle[2].ok, oracle[3].ok) == expected


@st.composite
def matrix_rows(draw):
    """A group and rows of its elements: mostly v columns, each row a
    permutation or any elements, sometimes few columns, a short row or an
    empty one."""
    group = draw(groups())
    elements = list(group.elements())
    width = draw(st.sampled_from([len(elements), len(elements), 1, 2]))
    anything = st.lists(st.sampled_from(elements), min_size=width, max_size=width)
    row = st.one_of(st.permutations(elements), anything) if width == len(elements) else anything
    rows = draw(st.lists(row, min_size=1, max_size=4))
    i = draw(st.integers(0, len(rows) - 1))
    rows[i] = rows[i][: draw(st.sampled_from([None, None, None, -1, 0]))]
    return group, rows


@settings(max_examples=200, deadline=None)
@given(matrix_rows())
def test_matrix_of_a_read_file_matches_the_matrix_oracle_on_any_rows(case):
    fast, oracle = _matrix_outcomes(*case)
    assert fast == oracle


@st.composite
def candidates(draw, group):
    """Elements of the group, and near misses: a bool, negative, too large,
    float, string or list coordinate, the wrong width, a list not a tuple."""
    x = draw(st.sampled_from(list(group.elements())))
    kind = draw(st.integers(0, 5))
    if kind <= 2:
        return x
    if kind == 3:
        i = draw(st.integers(0, len(x) - 1))
        bad = draw(
            st.one_of(
                st.sampled_from([True, False, -1, 0.0, "0", [0], None]),
                st.integers(group.factor_sizes[i], group.factor_sizes[i] + 2),
            )
        )
        return x[:i] + (bad,) + x[i + 1:]
    return draw(st.sampled_from([list(x), x + (0,), x[:-1], None, 0]))


@settings(max_examples=300, deadline=None)
@given(groups(), st.data())
def test_check_elements_matches_contains(group, data):
    xs = data.draw(st.lists(candidates(group), max_size=8))
    assert group.check_elements(xs) == all(map(group.contains, xs))


def test_check_elements_covers_bool_and_empty():
    group = GroupDescriptor((7, build_field(2, 2)))
    assert group.check_elements([])
    assert group.check_elements([(True, 3)]) == group.contains((True, 3)) is False
    assert not group.check_elements([(6, 4)])
    assert not group.check_elements([(0, 0), (7, 0)])
    assert not group.check_elements([(0, 0), (-1, 0)])


@pytest.mark.parametrize("bad", [True, False])
def test_dumps_design_refuses_a_bool_coordinate(bad):
    group = GroupDescriptor((7,))
    design = DesignFile("ds", group, {"v": 7}, (((1,), (bad,)),))
    with pytest.raises(ValueError, match=re.escape(f"({bad},) is not an element of Z7")):
        dumps_design(design)


@settings(max_examples=300, deadline=None)
@given(designs())
@example(DesignFile("dm", GroupDescriptor((7,)), {}, rows=()))
@example(DesignFile("dds", GroupDescriptor((7,)), {}, ((),), subgroup=()))
def test_the_writer_refuses_what_the_reader_refuses(tmp_path_factory, design):
    """A design the writer writes reads back, by the scan alone, to an equal
    design; any other design the writer refuses, leaving a file as it was."""
    written = _outcome(dumps_design, design)
    if written[0] == "ok":
        with mock.patch.object(fileformat, "_parse", side_effect=AssertionError("tree")):
            assert loads_design(written[1]) == design
        return
    path = tmp_path_factory.getbasetemp() / "agreement.json"
    path.write_text("before")
    with pytest.raises(ValueError, match=re.escape(written[1])):
        save_design(path, design)
    assert path.read_text() == "before"


SPACE = " \t\n\r"
# earlier values of a repeated key: any JSON, strings holding brackets,
# braces and quotes, lists of strings and objects
JUNK = [[], [[[0]]], [[[1.5]]], [["x"]], [1, "}"], "}", {"a": "]"}, None, [[['"}']]], {"blocks": []}]


def _layout(pairs, rnd):
    """The JSON object of the (key, value) pairs, in their order, with a
    random run of JSON whitespace between every two tokens."""

    def ws():
        return "".join(rnd.choices(SPACE, k=rnd.choice((0, 0, 1, 2, 5))))

    def members(items):
        return "{" + (",".join(ws() + json.dumps(k) + ws() + ":" + value(x) for k, x in items) or ws()) + "}"

    def value(x):
        if isinstance(x, dict):
            text = members(x.items())
        elif isinstance(x, list):
            text = "[" + (",".join(value(y) for y in x) or ws()) + "]"
        else:
            text = json.dumps(x, ensure_ascii=False)
        return ws() + text + ws()

    return value(dict.fromkeys(range(0))) if not pairs else ws() + members(pairs) + ws()


@settings(max_examples=300, deadline=None)
@given(designs(), st.data())
def test_the_scan_reads_any_layout_of_a_file_as_the_tree_does(design, data):
    """Any whitespace, key order and repeated key: a file the tree reads is
    read by the scan alone, to the same design, family and matrix; any
    other file gives the tree's error."""
    obj = _outcome(design_to_obj, design)
    if obj[0] != "ok":
        return
    pairs, other_list = data.draw(st.permutations(list(obj[1].items()))), False
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(pairs) - 1))
        junk = data.draw(st.sampled_from(JUNK + [pairs[j][1]]))
        # an earlier payload list other than the file's own may be out of shape
        other_list = isinstance(junk, list) and junk not in ([], pairs[j][1]) and pairs[j][0] in fileformat._NEEDS
        pairs.insert(data.draw(st.integers(0, j)), (pairs[j][0], junk))
    text = _layout(pairs, data.draw(st.randoms(use_true_random=False)))
    oracle = _outcome(design_from_obj, json.loads(text))
    # chunks of a few characters put a chunk end after every kind of comma
    with mock.patch.object(fileformat, "_CHUNK", data.draw(st.sampled_from([1, 7, 1 << 16]))):
        if oracle[0] == "ok":
            with mock.patch.object(fileformat, "_parse", wraps=fileformat._parse) as tree:
                design = loads_design(text)
            assert design == oracle[1] and (other_list or not tree.called)
            made = [_outcome(d.family if d.rows is None else d.matrix) for d in (design, oracle[1])]
            assert made[0] == made[1]
        else:
            assert _outcome(loads_design, text) == oracle


BASE = (
    '{"blocks": [[[1], [2], [%s]]], "group": {"factors": [{"cyclic": 7}]},'
    ' "kind": "df", "params": {"k": 3, "lambda": 1, "v": 7}}'
)


@pytest.mark.parametrize(
    "text, expected",
    [
        (BASE % "-0", "ok"),
        (BASE % "6", "ok"),
        (BASE % " \t\n\r4\r\n", "ok"),
        (BASE % "01", "design file is not valid JSON: Expecting ','"),
        (BASE % "1.0", "coordinate 0 out of range for Z_7: 1.0"),
        (BASE % "1e0", "coordinate 0 out of range for Z_7: 1.0"),
        (BASE % "true", "coordinate 0 out of range for Z_7: True"),
        (BASE % "7", "coordinate 0 out of range for Z_7: 7"),
        (BASE % "-1", "coordinate 0 out of range for Z_7: -1"),
        (BASE % ("9" * 5000), "Exceeds the limit (4300 digits)"),
        (BASE % "1 2", "design file is not valid JSON: Expecting ','"),
        (BASE % "- 1", "design file is not valid JSON: Expecting value"),
        (BASE % "5[1]", "design file is not valid JSON: Expecting ','"),
        (BASE % "[1]", "coordinate 0 out of range for Z_7: [1]"),
        (BASE % "", "element must be a list of 1 coordinates, got []"),
        (BASE % "４", "design file is not valid JSON: Expecting value"),
        (BASE % ("[" * 100000), "design file is nested too deeply to parse"),
        (BASE.replace('"k": 3', '"k": ' + "[" * 100000) % "4", "design file is nested too deeply to parse"),
        (BASE.replace('"k"', '"ü"') % "4", "ok"),
        (BASE.replace("[2], ", "[2],\f") % "4", "design file is not valid JSON: Expecting value"),
        (BASE.replace(', "kind"', ',\f"kind"') % "4", "design file is not valid JSON: Expecting"),
        ("﻿" + BASE % "4", "design file is not valid JSON: Unexpected UTF-8 BOM"),
        (BASE.replace('"blocks"', '"bl\\u006fcks"') % "4", "ok"),
        (BASE.replace("{", '{"blocks": [["x", {"}": 1}]], ', 1) % "4", "ok by the tree"),
        (BASE.replace("{", '{"blocks": [[1.5]], ', 1) % "4", "ok by the tree"),
        (BASE.replace("{", '{"blocks": [[1.5]] ', 1) % "4", "design file is not valid JSON"),
        (BASE.replace("]]],", "]]],,") % "4", "design file is not valid JSON"),
        (BASE.replace("]]],", "],]],") % "4", "design file is not valid JSON"),
        (BASE.replace("{", '{"blocks": [[1 2]], ', 1) % "4", "design file is not valid JSON"),
        (BASE.replace("{", '{"blocks": [{}], ', 1) % "4", "ok by the tree"),
        (BASE.replace("[[[1]", "[[], [[1]") % "5 6", "design file is not valid JSON: Expecting ','"),
        (BASE.replace("[[[1]", "[[], [[1]") % "5[6]", "design file is not valid JSON: Expecting ','"),
        (BASE.replace("[[[1]", "[[], [[1]") % "0", "ok"),
        ((BASE % "4")[:-1] + ', "kind": "ds"}', "ok"),
        ((BASE % "4")[:-1] + ', "subgroup": [[1]]}', "kind 'df' must not carry a subgroup"),
        (BASE.replace('"df"', '"dds"') % "4", "kind 'dds' needs a nonempty 'subgroup' list"),
        (BASE.replace('"df"', '"dds"')[:-1] % "4" + ', "subgroup": 5}', "kind 'dds' needs a nonempty"),
        (BASE.replace('"df"', '"dds"')[:-1] % "4" + ', "subgroup": []}', "kind 'dds' needs a nonempty"),
        (BASE.replace('"df"', '"dds"')[:-1] % "4" + ', "subgroup": [[0]]}', "ok"),
        (BASE.replace('"df"', '"dm"') % "4", "unexpected design file keys: ['blocks']"),
        (BASE.replace('"df"', '"dm"').replace('"blocks"', '"rows"') % "4", "ok"),
        (BASE.replace('"df"', '"dm"').replace('"blocks": [[[1], [2], [%s]]]', '"rows": []'), "kind 'dm' needs a nonempty 'rows' list"),
        ((BASE % "4") + "\n \t", "ok"),
        ((BASE % "4") + " 1", "design file is not valid JSON: Extra data"),
    ],
    ids=lambda value: repr(value)[:40],
)
@pytest.mark.parametrize("chunk", [1, 1 << 16])
def test_the_scan_keeps_json_and_the_tree_on_edge_tokens(text, expected, chunk, monkeypatch):
    """Each text gives the tree's exact design, read by the scan alone
    unless an earlier payload list is out of the writer's shape, or the
    tree's exact error, which the scan leaves to it."""
    monkeypatch.setattr(fileformat, "_CHUNK", chunk)
    oracle = _outcome(lambda: design_from_obj(fileformat._parse(text)))
    assert expected.startswith("ok") if oracle[0] == "ok" else expected in oracle[1]
    with mock.patch.object(fileformat, "_parse", wraps=fileformat._parse) as tree:
        assert _outcome(loads_design, text) == oracle
    assert tree.called == (expected != "ok")


MIXED = (
    '{"blocks": [[%s]], "group": {"factors": [{"cyclic": 3}, {"cyclic": 5}]},'
    ' "kind": "df", "params": {"k": 1, "lambda": 0, "v": 15}}'
)
GF4 = (
    '{"blocks": [[%s]], "group": {"factors": [{"field": {"modulus": [1, 1, 1], "n": 2, "p": 2}}]},'
    ' "kind": "df", "params": {"k": 1, "lambda": 0, "v": 4}}'
)


@pytest.mark.parametrize(
    "text, expected",
    [
        (MIXED % "[2, 4]", "ok"),
        (MIXED % "[3, 0]", "coordinate 0 out of range for Z_3: 3"),
        (MIXED % "[-1, 4]", "coordinate 0 out of range for Z_3: -1"),
        (GF4 % "[[1, 1]]", "ok"),
        (GF4 % "[[2, 0]]", "coefficient 2 out of range for GF(2^2)"),
        (GF4 % "[[-1, 1]]", "coefficient -1 out of range for GF(2^2)"),
    ],
    ids=lambda value: repr(value)[:40],
)
@pytest.mark.parametrize("chunk", [1, 1 << 16])
def test_the_scan_leaves_a_top_digit_out_of_range_to_the_tree(text, expected, chunk, monkeypatch):
    """The scan checks every digit but the top one, whose range follows
    from the index's, which IndexLists checks: a bad top digit under good
    lower ones gives the tree's exact error, and a good element is read by
    the scan alone."""
    monkeypatch.setattr(fileformat, "_CHUNK", chunk)
    oracle = _outcome(lambda: design_from_obj(fileformat._parse(text)))
    assert oracle[0] == "ok" if expected == "ok" else oracle == ("ValueError", expected)
    with mock.patch.object(fileformat, "_parse", wraps=fileformat._parse) as tree:
        assert _outcome(loads_design, text) == oracle
    assert tree.called == (expected != "ok")


@settings(max_examples=150, deadline=None)
@given(designs(), st.data())
def test_load_design_streams_any_layout_at_any_chunk(tmp_path_factory, design, data):
    """load_design reads a file a _CHUNK of bytes at a time.  With chunks of
    1, 2, 7 and 64 bytes, any key order, repeated key and JSON whitespace,
    and now and then a list longer than a chunk, a file the tree reads is
    read by the scan alone, to the tree's design, family and matrix; any
    other file gives the tree's error."""
    if data.draw(st.booleans()):  # a list longer than a chunk
        name = KIND_TABLE[design.kind].payload[0]
        elements = list(design.group.elements())
        long = tuple(data.draw(st.lists(st.sampled_from(elements), min_size=20, max_size=40)))
        design = DesignFile(**{**vars(design), name: tuple(getattr(design, name) or ()) + (long,)})
    obj = _outcome(design_to_obj, design)
    if obj[0] != "ok":
        return
    pairs, other_list = data.draw(st.permutations(list(obj[1].items()))), False
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(pairs) - 1))
        junk = data.draw(st.sampled_from(JUNK + [pairs[j][1]]))
        # an earlier payload list other than the file's own may be out of shape
        other_list = isinstance(junk, list) and junk not in ([], pairs[j][1]) and pairs[j][0] in fileformat._NEEDS
        pairs.insert(data.draw(st.integers(0, j)), (pairs[j][0], junk))
    path = tmp_path_factory.getbasetemp() / "layout.json"
    path.write_text(_layout(pairs, data.draw(st.randoms(use_true_random=False))), encoding="utf-8")
    oracle = _outcome(lambda: design_from_obj(fileformat._parse(path.read_text(encoding="utf-8"))))
    for chunk in (1, 2, 7, 64):
        with mock.patch.object(fileformat, "_CHUNK", chunk):
            if oracle[0] == "ok":
                with mock.patch.object(fileformat, "_parse", wraps=fileformat._parse) as tree:
                    design = load_design(path)
                assert design == oracle[1] and (other_list or not tree.called)
                made = [_outcome(d.family if d.rows is None else d.matrix) for d in (design, oracle[1])]
                assert made[0] == made[1]
            else:
                assert _outcome(load_design, path) == oracle
