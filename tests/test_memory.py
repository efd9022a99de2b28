"""Memory bounds on the exact count, the writer and the reader.

A cyclic Furino family at v = 30001 (10000 blocks of 3) is built once with
tracemalloc on; each operation's traced peak above what was live before it
is bounded by a multiple of the family's own traced size.  Each bound sits
between the transient of the current code and that of the code it
replaced: a Counter of up to v int keys in the count, every block's text
built before the first write (for one block of 30000 elements, that
block's text and template), a set of every element in classify_family,
and a bytes object per block in the reader.  Measured ratios (CPython
3.11, x86-64):

    operation       replaced   current   bound
    verify_df         1.77       0.57     1.0
    save_design       1.63       0.60     1.0
    one long block    3.52       0.21     1.0
    classify_family   2.04       0.02     0.25
    loads_design      1.95       1.18     1.5

The saved file's reader result is itself about the family's size.
"""

import gc
import tracemalloc

import pytest

from diffam.constructions import furino_ddf
from diffam.designs import Family, classify_family, family_params, verify_df
from diffam.groups import GroupDescriptor
from diffam.fileformat import DesignFile, dumps_design, loads_design, save_design

V = 30001  # 30001 = 19 * 1579, both 1 mod 3


@pytest.fixture(scope="module")
def traced():
    """The family, its design and its traced size, with tracemalloc on
    for the tests of this module."""
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        family = furino_ddf(V, 3)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
        design = DesignFile("ddf", family.group, family_params(family, 2), blocks=family.lists)
        yield family, design, size
    finally:
        tracemalloc.stop()


def _peak(run) -> int:
    """The traced peak of run() above what was live before it."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    run()
    return tracemalloc.get_traced_memory()[1] - before


def test_the_count_holds_a_list_of_v_counts(traced):
    family, _, size = traced
    assert _peak(lambda: verify_df(family, 2)) < 1.0 * size


def test_the_writer_streams_the_block_texts(traced, tmp_path):
    _, design, size = traced
    path = tmp_path / "family.json"
    assert _peak(lambda: save_design(path, design)) < 1.0 * size
    assert path.read_text(encoding="utf-8") == dumps_design(design)


def test_the_writer_streams_one_long_block(traced, tmp_path):
    """A block longer than a piece is written a piece at a time too."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    family = Family(GroupDescriptor((V,)), [[(x,) for x in range(1, V)]])
    gc.collect()
    size = tracemalloc.get_traced_memory()[0] - before
    design = DesignFile("df", family.group, family_params(family, 1), blocks=family.lists)
    path = tmp_path / "block.json"
    assert _peak(lambda: save_design(path, design)) < 1.0 * size
    assert path.read_text(encoding="utf-8") == dumps_design(design)


def test_classify_family_marks_a_byte_per_element(traced):
    family, _, size = traced
    assert _peak(lambda: classify_family(family)) < 0.25 * size


def test_the_reader_makes_no_object_per_block(traced):
    family, design, size = traced
    text = dumps_design(design)
    read = []
    assert _peak(lambda: read.append(loads_design(text))) < 1.5 * size
    assert read[0].family() == family
