"""The additive core (``diffam.groups``) against the fields of
``diffam.algebra``: a field factor read from a design file is an
``AdditiveField``, a field a recipe builds is a ``FieldDescriptor``, and
the two compare, hash, print and encode alike."""

import contextlib
import hashlib
import io

import pytest

from diffam import cli
from diffam.algebra import FieldDescriptor, GroupDescriptor, RingDescriptor, build_field, build_ring
from diffam.cli import format_element
from diffam.designs import Family
from diffam.fileformat import DesignFile, dumps_design, element_to_obj, load_design, save_design
from diffam.groups import AdditiveField

# every GF(p^n) that test_fileformat.py and test_ring_group.py build, as
# (p, n, modulus or None for the canonical one)
FIELDS = [(2, 1, None), (3, 1, None), (5, 1, None), (7, 1, None), (13, 1, None),
          (19, 1, None), (2, 2, None), (2, 3, None), (3, 2, None), (5, 2, None),
          (2, 4, None), (7, 2, None), (3, 3, None), (2, 6, None), (3, 2, (2, 2, 1))]


def _field(p, n, modulus):
    return build_field(p, n) if modulus is None else FieldDescriptor(p, n, modulus)


def _written_and_read(tmp_path, group):
    """A one-block ds-kind file over the group, written and read back."""
    block = tuple(group.elements_at(range(1, min(group.order, 4))))
    design = DesignFile("ds", group, {"v": group.order, "k": len(block), "lambda": 0}, (block,))
    save_design(tmp_path / "d.json", design)
    return design, load_design(tmp_path / "d.json")


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"GF({s[0]}^{s[1]})")
def test_a_read_field_equals_the_built_one_both_ways(tmp_path, spec):
    built = _field(*spec)
    for group in (GroupDescriptor((built,)), GroupDescriptor((3, built))):
        design, read = _written_and_read(tmp_path, group)
        f = read.group.factors[-1]
        assert type(f) is AdditiveField and isinstance(built, FieldDescriptor)
        assert f == built and built == f and hash(f) == hash(built)
        assert read.group == group and group == read.group
        assert hash(read.group) == hash(group)
        assert read.family() == Family(group, design.blocks)
        assert dumps_design(read) == dumps_design(design)
    direct = AdditiveField(built.p, built.n, built.modulus)
    assert direct == built and built == direct and hash(direct) == hash(built)
    assert {built: 1}[direct] == 1 and repr(direct) == repr(built)


def test_a_read_ring_equals_the_ring_and_keeps_its_multiplication_apart(tmp_path):
    ring = build_ring([4, 25, 7])
    _, read = _written_and_read(tmp_path, ring)
    assert read.group == ring and ring == read.group and hash(read.group) == hash(ring)
    assert not isinstance(read.group, RingDescriptor)
    assert not any(isinstance(f, FieldDescriptor) for f in read.group.factors)
    with pytest.raises(ValueError, match="is not a field"):
        RingDescriptor(read.group.factors)


def test_a_read_field_factor_prints_and_encodes_as_the_built_one(tmp_path):
    ring = build_ring([4, 9])
    _, read = _written_and_read(tmp_path, ring)
    for x in ring.elements():
        assert format_element(read.group, x) == format_element(ring, x)
        assert element_to_obj(read.group, x) == element_to_obj(ring, x)
    assert format_element(read.group, (2, 5)) == "([1,0],[1,2])"
    # a deviation map over a read GF(p^n) factor names elements as before
    blocks = (((0, 1), (1, 0), (2, 0)),)
    design = DesignFile("ddf", ring, {"v": 36, "k": 3, "lambda": 1}, blocks)
    save_design(tmp_path / "bad.json", design)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", str(tmp_path / "bad.json")]) == 1
    lines = out.getvalue().splitlines()
    assert lines[:3] == [
        "FAIL: ddf over GF(4) x GF(9) [k=3 lambda=1 v=36]",
        "  31 of 35 nonzero elements deviate from lambda=1",
        "  element ([0,0],[0,1]): count 0",
    ]
    assert lines[-1] == "  element ([1,1],[2,2]): count 0" and len(lines) == 2 + 31
    # the whole text, as written when the reader built FieldDescriptor factors
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "6a811c3f67bb7154c161746d5702a6035601749eb8d91e4568c88a4b2d518b2a"
