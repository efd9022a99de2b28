"""Differential tests of the column codec.

The design-file writer is checked byte for byte against
``json.dumps(design_to_obj(d), sort_keys=True, indent=2) + "\\n"``, the
reader against its own element-by-element decode, the family and the
matrix of a read file against ``Family`` and ``DiffMatrix`` of the decoded
blocks and rows, and the shared column element check against
``GroupDescriptor.contains``, on every group shape and design kind, valid
or with one coordinate spoiled."""

import copy
import json
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from diffam import fileformat
from diffam.algebra import GroupDescriptor, build_field, build_ring
from diffam.constructions import units_hdm
from diffam.designs import DiffMatrix, Family, hdm_to_dm, verify_dm, verify_hdm
from diffam.fileformat import (
    KINDS,
    MATRIX_KINDS,
    DesignFile,
    IndexLists,
    design_from_obj,
    design_to_obj,
    dumps_design,
    element_from_obj,
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


def _elements(group, min_size=0, max_size=6):
    return st.lists(
        st.sampled_from(list(group.elements())), min_size=min_size, max_size=max_size
    )


@st.composite
def designs(draw):
    """A DesignFile of any kind; the writer does not certify the design, so
    blocks, rows and the subgroup are any lists of elements (mixed sizes,
    an empty payload list and repeated elements included)."""
    group = draw(groups())
    kind = draw(st.sampled_from(KINDS))
    params = draw(
        st.dictionaries(
            st.sampled_from(["K", "k", "lambda", "lambda1", "m", "v"]),
            st.one_of(st.integers(-5, 10**6), st.lists(st.integers(0, 9), max_size=3)),
            max_size=4,
        )
    )
    payload = tuple(
        tuple(b) for b in draw(st.lists(_elements(group), max_size=5))
    )
    if kind in MATRIX_KINDS:
        return DesignFile(kind, group, params, rows=payload)
    subgroup = tuple(draw(_elements(group, 1))) if kind == "dds" else None
    return DesignFile(kind, group, params, payload, subgroup=subgroup)


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
    if spoil and isinstance(spoiled, tuple) and any(isinstance(c, bool) for c in spoiled):
        # the oracle writes a bool as true/false (or, in a field factor, as
        # the coefficients of 0/1), which the reader refuses; the fast
        # writer refuses it instead
        assert fast[0] == "ValueError"
        return
    oracle = _outcome(oracle_text, design)
    if oracle[0] == "ok":
        assert fast == oracle
    else:
        assert fast[0] == oracle[0]


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
    fast = _outcome(design_from_obj, obj)
    with mock.patch.object(fileformat, "_columns_from_obj", lambda group, raw: None):
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
    fast = design_from_obj(obj)
    with mock.patch.object(fileformat, "_columns_from_obj", lambda group, raw: None):
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
    fast = _outcome(design_from_obj, obj)
    with mock.patch.object(fileformat, "_columns_from_obj", lambda group, raw: None):
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
    indexed = DesignFile(
        kind, family.group, params, IndexLists.of_blocks(family.group, family.indices)
    )
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
    assert group.check_elements([(True, 3)]) == group.contains((True, 3)) is True
    assert not group.check_elements([(6, 4)])
    assert not group.check_elements([(0, 0), (7, 0)])
    assert not group.check_elements([(0, 0), (-1, 0)])


@pytest.mark.parametrize("bad", [True, False])
def test_dumps_design_refuses_a_bool_coordinate(bad):
    group = GroupDescriptor((7,))
    design = DesignFile("ds", group, {"v": 7}, (((1,), (bad,)),))
    with pytest.raises(ValueError, match="bool"):
        dumps_design(design)
