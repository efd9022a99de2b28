"""Fuzz tests of the two inputs that come from outside the program: design
files and ``construct`` flags.  Whatever the input, the program must end in
a result or in one ``error:`` line on stderr with exit code 1 or 2, never in
an uncaught exception."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from diffam import cli
from diffam.algebra import build_ring
from diffam.constructions import dds_from_ds, furino_ddf, singer_ds, units_hdm
from diffam.designs import family_params, hdm_to_dm
from diffam.fileformat import DesignFile, design_to_obj, loads_design, save_design


def _valid_designs() -> list[dict]:
    """One valid design object per payload shape: a cyclic family, a family
    over a product with an extension field, a ds, a dds, an hdm and a dm."""
    designs = []
    for base in (13, build_ring([4, 7])):
        family = furino_ddf(base, 3)
        designs.append(
            DesignFile("ddf", family.group, family_params(family, 2), family.blocks)
        )
    dset, group = singer_ds(2, 3)
    designs.append(DesignFile("ds", group, {"v": 7, "k": 3, "lambda": 1}, (dset,)))
    built = dds_from_ds(dset, group, 2)
    params = {"m": 7, "n": 2, "k": 6, "lambda1": 6, "lambda2": 2}
    designs.append(
        DesignFile("dds", built.group, params, (built.elements,), subgroup=built.subgroup)
    )
    hdm = units_hdm(build_ring([4]), 3)
    designs.append(DesignFile("hdm", hdm.group, {"v": 4, "k": 3, "lambda": 1}, rows=hdm.rows))
    dm = hdm_to_dm(hdm)
    designs.append(DesignFile("dm", dm.group, {"v": 4, "k": 4, "lambda": 1}, rows=dm.rows))
    return [design_to_obj(d) for d in designs]


VALID_DESIGNS = _valid_designs()

JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=4),
    st.integers(-(10**40), 10**40),
    st.recursive(st.integers(-3, 9), lambda inner: st.lists(inner, max_size=3), max_leaves=6),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 9), max_size=2),
)


def _places(node, path=()):
    """Every (path to a container, key in it) of a JSON object tree."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        yield path, key
        if isinstance(node[key], (dict, list)):
            yield from _places(node[key], path + (key,))


def _mutate(obj, data) -> None:
    """Replace one node of a JSON object tree by junk, or drop it.  The node
    is drawn by its shape (its path with list indices ignored) first, so the
    few group and params nodes are hit as often as element coordinates."""
    by_shape: dict = {}
    for path, key in _places(obj):
        shape = tuple(k if isinstance(k, str) else "*" for k in path + (key,))
        by_shape.setdefault(shape, []).append((path, key))
    shape = data.draw(st.sampled_from(list(by_shape)))
    path, key = data.draw(st.sampled_from(by_shape[shape]))
    parent = obj
    for step in path:
        parent = parent[step]
    if data.draw(st.integers(0, 3)) == 0:
        del parent[key]
    else:
        parent[key] = data.draw(JUNK)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VALID_DESIGNS), st.data())
def test_loads_design_of_a_mutated_file_raises_only_value_error(base, data):
    obj = copy.deepcopy(base)
    _mutate(obj, data)
    try:
        loads_design(json.dumps(obj))
    except ValueError:
        pass


FIELD_DESIGNS = [
    d for d in VALID_DESIGNS if any("field" in f for f in d["group"]["factors"])
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELD_DESIGNS), st.data())
def test_loads_design_refuses_a_modulus_coefficient_out_of_range(base, data):
    """A field modulus coefficient moved out of 0..p-1, by a multiple of p
    (the same residue) or anywhere, is refused rather than reduced."""
    obj = copy.deepcopy(base)
    fields = [f["field"] for f in obj["group"]["factors"] if "field" in f]
    field = data.draw(st.sampled_from(fields))
    modulus, p = field["modulus"], field["p"]
    i = data.draw(st.integers(0, len(modulus) - 1))
    modulus[i] = data.draw(
        st.one_of(
            st.integers(-3, 3).filter(bool).map(lambda m: modulus[i] + m * p),
            st.integers(-(10**40), -1),
            st.integers(p, 10**40),
        )
    )
    with pytest.raises(ValueError, match="^modulus coefficient "):
        loads_design(json.dumps(obj))


INT_FLAGS = ("--v", "--k", "--mult", "--q", "--m", "--d", "--e", "--h")
PATH_FLAGS = ("--ddf-g", "--ddf-h", "--dm", "--ds")
SMALL_INTS = st.integers(-64, 64)
BAD_TEXT = st.text(alphabet=" ,:-.x", max_size=6)
FACTORS = st.one_of(
    st.lists(SMALL_INTS, min_size=1, max_size=2).map(lambda fs: ",".join(map(str, fs))),
    BAD_TEXT,
    st.sampled_from(["7,x", "1.5", "7;13", "0x7", "7,,13"]),
)
SIGMA_CHOICE = st.one_of(
    st.lists(st.tuples(SMALL_INTS, SMALL_INTS), max_size=2).map(
        lambda pairs: ",".join(f"{c}:{f}" for c, f in pairs)
    ),
    BAD_TEXT,
    st.sampled_from(["1:2:3", "a:b", "2"]),
)


@pytest.fixture(scope="module")
def design_paths(tmp_path_factory):
    """Files a path flag may name: designs of every kind the product recipes
    read, a malformed file, a directory, and a missing path."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = [str(root / "missing.json"), str(root)]
    (root / "bad.json").write_text("{not json")
    paths.append(str(root / "bad.json"))
    for i, obj in enumerate(VALID_DESIGNS):
        path = root / f"valid{i}.json"
        save_design(path, loads_design(json.dumps(obj)))
        paths.append(str(path))
    return paths


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(tuple(cli.RECIPES)), data=st.data())
def test_construct_flags_end_in_a_result_or_one_error_line(
    name, data, design_paths, tmp_path_factory
):
    argv = ["construct", name]
    for flag in INT_FLAGS:
        if data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(SMALL_INTS)}")
    if data.draw(st.booleans()):
        argv.append(f"--factors={data.draw(FACTORS)}")
    if data.draw(st.integers(0, 3)) == 0:
        argv.append(f"--sigma-choice={data.draw(SIGMA_CHOICE)}")
    if data.draw(st.booleans()):
        argv.append("--half")
    for flag in PATH_FLAGS:
        if data.draw(st.integers(0, 2)) == 0:
            argv.append(f"{flag}={data.draw(st.sampled_from(design_paths))}")
    argv.append(f"--out={tmp_path_factory.getbasetemp() / 'fuzz-out.json'}")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 0:
        assert err.getvalue() == "" and out.getvalue().startswith("wrote ")
    else:
        assert rc in (1, 2), argv
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
