"""JSON design files: strict parsing, canonical serialization, round-trips
for every design kind, and byte-stable output."""

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from diffam import fileformat, groups
from diffam.algebra import (
    ExhaustiveCapError,
    FieldDescriptor,
    GroupDescriptor,
    build_field,
    build_ring,
    cyclic_group,
)
from diffam.constructions import (
    furino_ddf,
    result3star_dds,
    singer_ds,
    trivial_ds,
    units_hdm,
)
from diffam.designs import (
    DiffMatrix,
    Family,
    IndexLists,
    extend_to_pdf,
    hdm_to_dm,
    verify_df,
    verify_dm,
    verify_hdm,
)
from diffam.fileformat import (
    DesignFile,
    design_from_obj,
    design_to_obj,
    dumps_design,
    element_from_obj,
    element_to_obj,
    group_from_obj,
    group_to_obj,
    load_design,
    loads_design,
    save_design,
)

# ---------------------------------------------------------------------------
# group and element codecs
# ---------------------------------------------------------------------------


def test_group_roundtrip():
    groups = [
        cyclic_group(7),
        GroupDescriptor((4, 7)),
        GroupDescriptor((build_field(2, 2),)),
        GroupDescriptor((85, 2)),
        GroupDescriptor((4, build_field(7, 1), build_field(3, 2))),
        build_ring([7, 13, 19]).additive_group(),
    ]
    for g in groups:
        obj = group_to_obj(g)
        assert group_from_obj(obj) == g


def test_group_obj_shape():
    obj = group_to_obj(GroupDescriptor((4, build_field(2, 2))))
    assert obj == {
        "factors": [
            {"cyclic": 4},
            {"field": {"p": 2, "n": 2, "modulus": [1, 1, 1]}},
        ]
    }


def test_group_obj_custom_modulus_survives():
    f = FieldDescriptor(3, 2, (2, 2, 1))
    g = GroupDescriptor((f,))
    back = group_from_obj(group_to_obj(g))
    assert back == g
    assert back.factors[0].modulus == (2, 2, 1)


def _never_called(*args):
    raise AssertionError(f"called with {args!r}")


def test_group_from_obj_strict(monkeypatch):
    with pytest.raises(ValueError):
        group_from_obj({"factors": []})
    with pytest.raises(ValueError):
        group_from_obj({"factors": [{"cyclic": 0}]})
    with pytest.raises(ValueError):
        group_from_obj({"factors": [{"weird": 3}]})
    with pytest.raises(ValueError):
        group_from_obj({"factors": [{"field": {"p": 4, "n": 1, "modulus": [0, 1]}}]})
    with pytest.raises(ValueError):
        group_from_obj({"factors": [{"field": {"p": 2, "n": 2, "modulus": [1, 0, 1]}}]})
    # a modulus coefficient out of 0..p-1 is refused, not reduced mod p
    for modulus in ([13, 1], [-13, 1]):
        with pytest.raises(ValueError):
            group_from_obj({"factors": [{"field": {"p": 13, "n": 1, "modulus": modulus}}]})
    with pytest.raises(ValueError):
        group_from_obj([])
    with pytest.raises(ValueError):
        group_from_obj({})
    # JSON booleans are not integers
    for fac in (
        {"cyclic": True},
        {"field": {"p": 2, "n": True, "modulus": [1, 1]}},
        {"field": {"p": 2, "n": 2, "modulus": [1, True, 1]}},
    ):
        with pytest.raises(ValueError):
            group_from_obj({"factors": [fac]})
    # over-cap orders are refused before a primality test or a huge power
    monkeypatch.setattr(groups, "is_prime", _never_called)
    for factors in (
        [{"cyclic": 10**6 + 1}],
        [{"cyclic": 1000}, {"cyclic": 1001}],
        [{"field": {"p": 10**30 + 57, "n": 1, "modulus": [0, 1]}}],
        [{"field": {"p": 2, "n": 3 * 10**8, "modulus": [1, 1]}}],
        [{"cyclic": 1000}, {"field": {"p": 1009, "n": 1, "modulus": [0, 1]}}],
    ):
        with pytest.raises(ExhaustiveCapError):
            group_from_obj({"factors": factors})


@pytest.mark.parametrize(
    "p, n, modulus, bad",
    [(13, 1, [13, 1], 13), (13, 1, [-13, 1], -13), (3, 1, [1, 3], 3), (2, 2, [1, 3, 1], 3)],
)
def test_group_from_obj_names_the_modulus_coefficient_as_written(p, n, modulus, bad):
    field = {"p": p, "n": n, "modulus": modulus}
    with pytest.raises(ValueError) as info:
        group_from_obj({"factors": [{"field": field}]})
    assert str(info.value) == f"modulus coefficient {bad} out of range for GF({p})"


def test_element_codec():
    g = GroupDescriptor((4, build_field(2, 2)))
    for x in g.elements():
        assert element_from_obj(g, element_to_obj(g, x)) == x
    obj = element_to_obj(g, (3, 1))
    assert obj == [3, [0, 1]]  # cyclic coordinate as int, field as coeff list
    with pytest.raises(ValueError):
        element_from_obj(g, [4, [0, 1]])
    with pytest.raises(ValueError):
        element_from_obj(g, [3, [2, 1]])
    with pytest.raises(ValueError):
        element_from_obj(g, [3])
    with pytest.raises(ValueError):
        element_from_obj(g, [3, 1])  # field coordinate must be a coeff list
    with pytest.raises(ValueError):
        element_from_obj(g, [True, [0, 1]])
    with pytest.raises(ValueError):
        element_from_obj(g, [3, [False, 1]])


def test_element_codec_cyclic_only():
    g = cyclic_group(7)
    assert element_to_obj(g, (5,)) == [5]
    assert element_from_obj(g, [5]) == (5,)
    with pytest.raises(ValueError):
        element_from_obj(g, [[5]])


# ---------------------------------------------------------------------------
# design round-trips for every kind
# ---------------------------------------------------------------------------


def roundtrip(design):
    return design_from_obj(json.loads(dumps_design(design)))


def family_file(kind, fam, lam):
    params = {"v": fam.v, "lambda": lam}
    k = fam.uniform_k()
    if k is None:
        params["K"] = list(fam.block_sizes())
    else:
        params["k"] = k
    return DesignFile(kind=kind, group=fam.group, params=params, blocks=fam.blocks)


def test_roundtrip_df_ddf_pdf():
    fam = furino_ddf(7, 3)
    for kind in ("df", "ddf"):
        design = family_file(kind, fam, 2)
        back = roundtrip(design)
        assert back == design
        assert back.family().blocks == fam.blocks
    pdf = extend_to_pdf(fam)
    design = family_file("pdf", pdf, 2)
    assert roundtrip(design) == design


def test_roundtrip_ds():
    dset, group = singer_ds(3, 3)
    design = DesignFile(
        kind="ds",
        group=group,
        params={"v": 13, "k": 4, "lambda": 1},
        blocks=(dset,),
    )
    assert roundtrip(design) == design


def test_roundtrip_dds():
    built = result3star_dds(3, 3, 2, 2)
    design = DesignFile(
        kind="dds",
        group=built.group,
        params={"m": 13, "n": 2, "k": 8, "lambda1": 8, "lambda2": 2},
        blocks=(tuple(sorted(built.elements)),),
        subgroup=tuple(sorted(built.subgroup)),
    )
    back = roundtrip(design)
    assert back == design
    assert back.subgroup == design.subgroup


def test_roundtrip_dm_hdm():
    hdm = units_hdm(build_ring([7]), 3)
    design = DesignFile(
        kind="hdm",
        group=hdm.group,
        params={"v": 7, "k": 3, "lambda": 1},
        rows=hdm.rows,
    )
    back = roundtrip(design)
    assert back == design
    assert back.matrix().rows == hdm.rows
    dm = hdm_to_dm(hdm)
    design2 = DesignFile(
        kind="dm",
        group=dm.group,
        params={"v": 7, "k": 4, "lambda": 1},
        rows=dm.rows,
    )
    assert roundtrip(design2) == design2


def test_a_design_of_element_tuples_gives_the_family_and_matrix_they_spell():
    fam = furino_ddf(build_ring([7, 13]), 3)
    hdm = units_hdm(build_ring([4, 7]), 3)
    ddf = DesignFile("ddf", fam.group, {"v": 91, "k": 3, "lambda": 2}, blocks=fam.blocks)
    mat = DesignFile("hdm", hdm.group, {"v": 28, "k": 3, "lambda": 1}, rows=hdm.rows)
    assert isinstance(ddf.blocks, tuple) and isinstance(mat.rows, tuple)  # not IndexLists
    assert ddf.family() == fam and roundtrip(ddf).family() == fam
    assert mat.matrix() == hdm and roundtrip(mat).matrix() == hdm
    group = cyclic_group(7)
    bad = DesignFile("ddf", group, {}, blocks=(((1,), (9,), (2,)),))
    with pytest.raises(ValueError, match=r"^\(9,\) is not an element of Z7$"):
        bad.family()
    bad = DesignFile("hdm", group, {}, rows=(((0,), (1,)), ((0,), (-1,))))
    with pytest.raises(ValueError, match=r"^\(-1,\) is not an element of Z7$"):
        bad.matrix()


def test_index_lists_of_the_group_go_in_undecoded(tmp_path, monkeypatch):
    """Family and DiffMatrix keep an IndexLists of their group as it
    stands, and so do a read file's family() and matrix(): each builds and
    verifies with no element decoded or checked.  An IndexLists of another
    group takes the element path: its elements are checked and encoded."""
    fam = furino_ddf(build_ring([7, 13]), 3)
    hdm = units_hdm(build_ring([4, 7]), 3)
    dm = hdm_to_dm(hdm)
    save_design(tmp_path / "ddf.json", family_file("ddf", fam, 2))
    for kind, mat in (("hdm", hdm), ("dm", dm)):
        params = {"v": mat.columns, "k": mat.k, "lambda": 1}
        save_design(tmp_path / f"{kind}.json", DesignFile(kind, mat.group, params, rows=mat.rows))

    def copied(design):
        return IndexLists(design.group, list(design.lists.flat), list(design.lists.sizes))

    def refused(*args):
        raise AssertionError("an element was decoded or checked")

    monkeypatch.setattr(groups.GroupDescriptor, "elements_at", refused)
    monkeypatch.setattr(groups.GroupDescriptor, "check_elements", refused)
    family = Family(fam.group, copied(fam))
    assert family == fam and verify_df(family, 2).ok
    assert verify_df(load_design(tmp_path / "ddf.json").family(), 2).ok
    for kind, mat, verify in (("hdm", hdm, verify_hdm), ("dm", dm, verify_dm)):
        matrix = DiffMatrix(mat.group, copied(mat))
        assert matrix == mat and verify(matrix).ok
        assert verify(load_design(tmp_path / f"{kind}.json").matrix()).ok
    monkeypatch.undo()
    square, wide = GroupDescriptor([3, 3]), GroupDescriptor([5, 5])
    other = IndexLists(square, [5, 1], [2])  # (1, 2) and (0, 1) of Z3 x Z3
    assert Family(wide, other).lists.flat == [1, 7]  # their indices in Z5 x Z5
    assert DiffMatrix(wide, other).lists.flat == [7, 1]
    other = IndexLists(cyclic_group(20), [1, 19], [2])
    with pytest.raises(ValueError, match=r"^\(19,\) is not an element of Z7$"):
        Family(cyclic_group(7), other)
    with pytest.raises(ValueError, match=r"^\(19,\) is not an element of Z7$"):
        DiffMatrix(cyclic_group(7), other)


def test_a_design_without_the_payload_asked_for_is_refused():
    group = cyclic_group(7)
    with pytest.raises(ValueError, match=r"^design of kind 'hdm' has no blocks$"):
        DesignFile("hdm", group, {}, rows=(((0,), (1,)),)).family()
    with pytest.raises(ValueError, match=r"^design of kind 'df' has no matrix rows$"):
        DesignFile("df", group, {}, blocks=(((1,),),)).matrix()


def test_design_payload_validated_at_serialization():
    # the writer and the JSON oracle refuse the same payloads, in the same words
    dset, group = trivial_ds(3)
    for write in (design_to_obj, dumps_design):
        with pytest.raises(ValueError, match="^kind 'ds' needs blocks$"):
            write(DesignFile(kind="ds", group=group, params={"v": 4}, blocks=None))
        with pytest.raises(ValueError, match="^unknown design kind 'nope'$"):
            write(DesignFile(kind="nope", group=group, params={}, blocks=(dset,)))
        with pytest.raises(ValueError, match="^kind 'dm' needs matrix rows$"):
            write(DesignFile(kind="dm", group=group, params={}, blocks=(dset,)))
        with pytest.raises(ValueError, match="^kind 'df' needs blocks$"):
            write(DesignFile(kind="df", group=group, params={}, rows=(dset,)))
        with pytest.raises(ValueError, match="^kind 'dds' needs the forbidden subgroup$"):
            write(DesignFile(kind="dds", group=group, params={}, blocks=(dset,)))
        with pytest.raises(ValueError, match="^kind 'hdm' must not carry a subgroup$"):
            write(DesignFile("hdm", group, {}, rows=(dset,), subgroup=((0,),)))


def test_design_to_obj_subgroup_rules():
    dset, group = trivial_ds(3)
    plain = DesignFile(kind="ds", group=group, params={"v": 4, "k": 3, "lambda": 2}, blocks=(dset,))
    obj = design_to_obj(plain)
    assert "subgroup" not in obj
    with_sub = DesignFile(
        kind="ds",
        group=group,
        params={"v": 4, "k": 3, "lambda": 2},
        blocks=(dset,),
        subgroup=((0,),),
    )
    with pytest.raises(ValueError):
        design_to_obj(with_sub)
    built = result3star_dds(3, 3, 2, 2)
    nosub = DesignFile(
        kind="dds",
        group=built.group,
        params={"m": 13, "n": 2, "k": 8, "lambda1": 8, "lambda2": 2},
        blocks=(tuple(sorted(built.elements)),),
    )
    with pytest.raises(ValueError):
        design_to_obj(nosub)


def test_design_from_obj_strict_keys():
    dset, group = trivial_ds(3)
    design = DesignFile(kind="ds", group=group, params={"v": 4, "k": 3, "lambda": 2}, blocks=(dset,))
    obj = json.loads(dumps_design(design))
    bad = dict(obj)
    bad["extra"] = 1
    with pytest.raises(ValueError):
        design_from_obj(bad)
    bad2 = dict(obj)
    bad2["kind"] = "mystery"
    with pytest.raises(ValueError):
        design_from_obj(bad2)
    bad3 = dict(obj)
    del bad3["blocks"]
    with pytest.raises(ValueError):
        design_from_obj(bad3)
    bad4 = dict(obj)
    bad4["subgroup"] = [[0]]
    with pytest.raises(ValueError):
        design_from_obj(bad4)
    bad5 = dict(obj)
    bad5["blocks"] = [[[1], [2], [9]]]
    with pytest.raises(ValueError):
        design_from_obj(bad5)


def test_loads_design_errors():
    with pytest.raises(ValueError):
        loads_design("{not json")
    with pytest.raises(ValueError):
        loads_design('"a string"')
    with pytest.raises(ValueError, match="nested too deeply"):
        loads_design("[" * 100000)

    def ds_text(params, block):
        group = {"factors": [{"cyclic": 7}]}
        obj = {"kind": "ds", "group": group, "params": params, "blocks": [block]}
        return json.dumps(obj)

    params, block = {"v": 7, "k": 3, "lambda": 1}, [[1], [2], [4]]
    loads_design(ds_text(params, block))
    with pytest.raises(ValueError, match="lambda"):
        loads_design(ds_text({**params, "lambda": True}, block))
    with pytest.raises(ValueError, match="K"):
        loads_design(ds_text({**params, "K": [3, False]}, block))
    with pytest.raises(ValueError, match="coordinate 0"):
        loads_design(ds_text(params, [[True], [2], [4]]))


# ---------------------------------------------------------------------------
# byte stability
# ---------------------------------------------------------------------------

GOLDEN_TRIVIAL_DS = """{
  "blocks": [
    [
      [
        1
      ],
      [
        2
      ],
      [
        3
      ]
    ]
  ],
  "group": {
    "factors": [
      {
        "cyclic": 4
      }
    ]
  },
  "kind": "ds",
  "params": {
    "k": 3,
    "lambda": 2,
    "v": 4
  }
}
"""


@pytest.mark.parametrize(
    "blocks, indices",
    [
        ([[1, 2, 4]], ((1, 2, 4),)),
        ([[5, 6], [0, 1, 3], [2]], ((5, 6), (0, 1, 3), (2,))),
        ([[4, 1, 2]], ((1, 2, 4),)),
        ([[0, 3], [6, 5, 1], [2, 4, 5]], ((0, 3), (1, 5, 6), (2, 4, 5))),
    ],
)
def test_family_of_a_read_file_takes_ascending_blocks_and_sorts_others(blocks, indices):
    obj = {
        "kind": "df",
        "group": {"factors": [{"cyclic": 7}]},
        "params": {"v": 7, "k": 3, "lambda": 1},
        "blocks": [[[x] for x in block] for block in blocks],
    }
    assert loads_design(json.dumps(obj)).family().indices == indices


@pytest.mark.parametrize(
    "blocks, ascending",
    [([[1, 2, 4], [0, 5], [3]], True), ([[1, 2, 4], [5, 0], [3]], False)],
)
def test_family_of_a_read_file_shares_its_list_or_sorts_a_copy(blocks, ascending):
    """A read file's ascending blocks become the family's blocks with no
    copy of the reader's flat list; unsorted blocks are sorted into a new
    list, and the read design is left equal to its tree-path oracle."""
    text = json.dumps({
        "kind": "df",
        "group": {"factors": [{"cyclic": 7}]},
        "params": {"v": 7, "K": [3, 2, 1], "lambda": 1},
        "blocks": [[[x] for x in block] for block in blocks],
    })
    design = loads_design(text)
    family = design.family()
    assert (family.lists.flat is design.blocks.flat) == ascending
    assert family.indices == ((1, 2, 4), (0, 5), (3,))
    assert family.blocks == (((1,), (2,), (4,)), ((0,), (5,)), ((3,),))
    assert design == design_from_obj(json.loads(text))


def test_family_of_a_read_file_refuses_a_repeated_element():
    obj = {
        "kind": "df",
        "group": {"factors": [{"cyclic": 7}]},
        "params": {"v": 7, "k": 3, "lambda": 1},
        "blocks": [[[0], [1], [3]], [[1], [2], [2]]],
    }
    with pytest.raises(ValueError, match=r"^block \(\(1,\), \(2,\), \(2,\)\) has a repeated"):
        loads_design(json.dumps(obj)).family()


def test_dumps_design_golden_bytes():
    dset, group = trivial_ds(3)
    design = DesignFile(kind="ds", group=group, params={"v": 4, "k": 3, "lambda": 2}, blocks=(dset,))
    assert dumps_design(design) == GOLDEN_TRIVIAL_DS
    assert dumps_design(design) == dumps_design(design)


def test_save_load_roundtrip(tmp_path):
    fam = furino_ddf(13, 3)
    design = family_file("ddf", fam, 2)
    path = tmp_path / "f13.json"
    save_design(path, design)
    again = tmp_path / "f13b.json"
    save_design(again, design)
    assert path.read_bytes() == again.read_bytes()
    back = load_design(path)
    assert back == design
    assert back.family().group == fam.group


def test_a_file_written_in_pieces_is_the_dumped_text(tmp_path):
    """save_design writes the text a piece at a time; 2050 blocks make
    several pieces, and the bytes are dumps_design's."""
    design = family_file("ddf", furino_ddf(6151, 3), 2)
    path = tmp_path / "f6151.json"
    save_design(path, design)
    text = json.dumps(design_to_obj(design), sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == dumps_design(design).encode() == text.encode()


def test_a_refused_save_leaves_the_existing_file_unchanged(tmp_path):
    path = tmp_path / "f13.json"
    save_design(path, family_file("ddf", furino_ddf(13, 3), 2))
    before = path.read_bytes()
    group = GroupDescriptor((7,))
    for refused in (
        DesignFile("ds", group, {"v": 7}, (((1,), (True,)),)),  # a bool coordinate
        DesignFile("zdb", group, {"v": 7}, (((1,),),)),  # an unknown kind
    ):
        with pytest.raises(ValueError):
            save_design(path, refused)
        assert path.read_bytes() == before


def _shape(sizes):
    """The reader's shape of lists of these sizes, each element an "e"."""
    return b"[" + b",".join(b"[" + b",".join([b"e"] * k) + b"]" for k in sizes) + b"]"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 40)), max_size=6),
    st.sampled_from([1, 7, 1 << 16]),
    st.data(),
)
def test_the_reader_sizes_runs_of_equal_lists(runs, chunk, data):
    """_sizes reads the sizes of any shape, run by run, whatever the chunk
    that bounds its repeated text; a shape with one byte changed, added or
    dropped is refused unless it is the shape of other sizes."""
    sizes = [k for k, m in runs for _ in range(m)]
    shape = _shape(sizes)
    with mock.patch.object(fileformat, "_CHUNK", chunk):
        assert fileformat._sizes(shape) == sizes
        at = data.draw(st.integers(0, len(shape)))
        byte = data.draw(st.sampled_from([b"", b"e", b",", b"[", b"]", b"x"]))
        drop = data.draw(st.integers(0, 1))
        mutated = shape[:at] + byte + shape[at + drop :]
        read = fileformat._sizes(mutated)
        assert read is None or _shape(read) == mutated


def test_the_reader_refuses_a_missing_comma_inside_a_pattern():
    """[e] comes back after [e,e], so the two make a pattern, but the comma
    between them is missing."""
    assert fileformat._sizes(b"[[e][e,e],[e]]") is None


@pytest.mark.parametrize("shape", [b"[[e],]", b"[[],[e,e],[e,e],]", b"[[e,e],[e],[e,e],[e],]"])
def test_the_reader_refuses_a_comma_before_the_closing_bracket(shape):
    """A trailing comma, after one list or a repeated pattern, is no shape."""
    for chunk in (1, 1 << 16):
        with mock.patch.object(fileformat, "_CHUNK", chunk):
            assert fileformat._sizes(shape) is None


class _Compared(bytes):
    """A shape that adds up the bytes of every prefix it is asked to start
    with: the work _sizes does comparing runs."""

    def startswith(self, prefix, *span):
        self.compared = getattr(self, "compared", 0) + len(prefix)
        return super().startswith(prefix, *span)


@pytest.mark.parametrize("sizes", [[1, 2] * 50_000, [3] * 100_000, [k for k in range(1, 300) for _ in range(k)]])
def test_the_reader_sizes_compares_bytes_linear_in_the_shape(sizes):
    """A run of m equal lists costs O(m) bytes compared, however short the
    runs: 10^5 runs of one list each compare a few bytes per list, not a
    repeated text of _CHUNK bytes per run."""
    shape = _Compared(_shape(sizes))
    assert fileformat._sizes(shape) == sizes
    assert shape.compared <= 4 * len(shape)


_FILE = (
    '{"blocks": [[[1], [2], [4]]], "group": {"factors": [{"cyclic": 7}]},'
    ' "kind": "df", "params": {"k": 3, "lambda": 1, "v": 7}}'
)


def test_the_reader_decodes_repeated_keys_in_linear_work(tmp_path, monkeypatch):
    """Each key and value is decoded from a window about its own length, not
    from the rest of the chunk read: 5000 repeated header keys before the
    file's own cost a few bytes decoded per byte of the file."""
    path = tmp_path / "keys.json"
    path.write_text(_FILE.replace("{", "{" + '"kind": "ds", ' * 5000, 1), encoding="utf-8")
    decoded = []

    class Counting:
        def raw_decode(self, text):
            decoded.append(len(text))
            return json.JSONDecoder().raw_decode(text)

    monkeypatch.setattr(fileformat, "_DECODER", Counting())
    monkeypatch.setattr(fileformat, "_parse", _never_called)
    assert load_design(path) == design_from_obj(json.loads(_FILE))
    assert sum(decoded) <= 12 * path.stat().st_size


def test_the_reader_streams_a_file_at_most_once(tmp_path, monkeypatch):
    """A payload list out of the writer's shape sends the file to the tree
    after one streamed pass: 2000 of them are not read again one by one."""
    path = tmp_path / "floats.json"
    path.write_text(_FILE.replace("{", "{" + '"blocks": [[1.5]], ' * 2000, 1), encoding="utf-8")
    streamed = []
    chunks = fileformat._file_chunks
    monkeypatch.setattr(fileformat, "_file_chunks", lambda p: (streamed.append(len(c)) or c for c in chunks(p)))
    assert load_design(path) == design_from_obj(json.loads(_FILE))
    assert sum(streamed) <= path.stat().st_size
