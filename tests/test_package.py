"""The package surface: lazy re-exports from ``diffam`` and the record
classes every command passes around."""

import importlib

import pytest

import diffam
from diffam import admissibility, constructions, designs
from diffam.admissibility import IdentityVerdict, refute_result3
from diffam.algebra import cyclic_group
from diffam.constructions import DDSConstruction, dds_from_ds
from diffam.designs import DDSParams, DiffMultiset, DSParams, Report
from diffam.fileformat import DesignFile

# every name the package re-exported when it imported all its modules eagerly
PUBLIC = {
    "algebra": """GROUP_ORDER_CAP ExhaustiveCapError FieldDescriptor GroupDescriptor
        Isomorphism RingDescriptor ScalarAction UnitAction abelian_iso build_field
        build_ring cyclic_group invariant_factors is_semiregular orbits product_group
        unit_subgroup_of_order""",
    "admissibility": """IdentityVerdict Result3Verdict dds_counting_identity
        ds_admissible proportional_pair_admissible refute_result3""",
    "constructions": """ConstructionError DDSConstruction NotSemiregularError
        cyclotomic_half_ddf dds_from_ds furino_ddf orbit_ddf orbit_ddf_split
        product_ddf result1_ddf result3star_dds singer_ds trivial_ds units_hdm""",
    "designs": """DDSParams DSParams DiffMatrix DiffMultiset Family Report
        classify_family delta_multiset dm_to_hdm extend_to_pdf hdm_to_dm
        normalize_dm verify_dds verify_df verify_dm verify_ds verify_hdm""",
    "fileformat": "DesignFile load_design save_design",
}


def test_every_public_name_resolves_to_its_module_attribute():
    star: dict = {}
    exec("from diffam import *", star)
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"diffam.{module}")
        for name in names.split():
            assert getattr(diffam, name) is getattr(owner, name)
            assert star[name] is getattr(owner, name)
            assert name in diffam.__all__ and name in dir(diffam)
    assert constructions.ConstructionError is designs.ConstructionError
    assert constructions.NotSemiregularError is designs.NotSemiregularError
    assert admissibility.ds_lambda is designs.ds_lambda
    with pytest.raises(AttributeError):
        diffam.no_such_name
    from diffam import algebra, fileformat  # submodules still import

    assert diffam.algebra is algebra and diffam.fileformat is fileformat


def test_records_keep_their_text_equality_and_defaults():
    group = cyclic_group(3)
    records = {
        DSParams(7, 3, 1): "DSParams(v=7, k=3, lam=1)",
        DDSParams(13, 2, 8, 8, 2): "DDSParams(m=13, n=2, k=8, lam1=8, lam2=2)",
        IdentityVerdict(True, "k = k", 1, 1): (
            "IdentityVerdict(ok=True, identity='k = k', lhs=1, rhs=1, note='')"
        ),
        refute_result3(2, 3, 1, 1): (
            "Result3Verdict(ok=True, singer_case=True, base=DSParams(v=7, k=3, lam=1), "
            "mu=1, triple=DSParams(v=7, k=3, lam=1), evidence=IdentityVerdict(ok=True, "
            "identity='lambda*(v-1) = k*(k-1)', lhs=6, rhs=6, note=''), "
            "residual=IdentityVerdict(ok=True, identity='(v-k)*(mu-1) = 0', lhs=0, "
            "rhs=0, note='scaled triple (7,3,1)'))"
        ),
    }
    for record, text in records.items():  # frozen records are hashable
        assert repr(record) == text
        with pytest.raises(AttributeError):
            record.ok = False
    # cli reads a frozen record's fields in order as a tuple
    assert tuple(DDSParams(13, 2, 8, 8, 2)) == (13, 2, 8, 8, 2)
    assert tuple(IdentityVerdict(False, "x", 1, 2)) == (False, "x", 1, 2, "")
    with pytest.raises(ValueError, match=r"bad parameter triple \(0,3,1\)"):
        DSParams(0, 3, 1)
    with pytest.raises(ValueError, match=r"bad parameter tuple \(1,0,1,1,1\)"):
        DDSParams(1, 0, 1, 1, 1)

    report = Report(False, "df", {"v": 7}, {(3,): 2}, "1 of 6", {"engine": "pairwise"})
    assert repr(report) == (
        "Report(ok=False, kind='df', params={'v': 7}, deviations={(3,): 2}, "
        "message='1 of 6', stats={'engine': 'pairwise'})"
    )
    assert not report and Report(True, "df", {})
    assert report == Report(False, "df", {"v": 7}, {(3,): 2}, "1 of 6")
    assert report != Report(False, "df", {"v": 7}, {(3,): 1}, "1 of 6")
    first, second = Report(True, "df", {}), Report(ok=True, kind="df", params={})
    assert first.deviations == first.stats == {} and first.message == ""
    assert first.deviations is not second.deviations and first.stats is not second.stats

    counts = DiffMultiset(group, {(1,): 2}, "convolution")
    assert repr(counts) == "DiffMultiset(group=Z3, counts={(1,): 2}, engine='convolution')"
    assert counts == DiffMultiset(group, {(1,): 2}) and DiffMultiset(group, {}).engine == "pairwise"
    assert counts != DiffMultiset(group, {(2,): 2}, "convolution")

    design = DesignFile("ds", cyclic_group(7), {"v": 7}, (((1,),),))
    assert repr(design) == (
        "DesignFile(kind='ds', group=Z7, params={'v': 7}, blocks=(((1,),),), "
        "rows=None, subgroup=None)"
    )
    assert design == DesignFile(kind="ds", group=cyclic_group(7), params={"v": 7}, blocks=(((1,),),))
    assert design != DesignFile("ds", cyclic_group(7), {"v": 7}, rows=(((1,),),))

    built = dds_from_ds([(1,)], cyclic_group(2), 3)
    assert repr(built) == (
        "DDSConstruction(elements=((1, 0), (1, 1), (1, 2)), group=Z2 x Z3, "
        "subgroup=((0, 0), (0, 1), (0, 2)), params=DDSParams(m=2, n=3, k=3, lam1=3, lam2=0))"
    )
    assert built == DDSConstruction(
        built.elements, built.group, built.subgroup, DDSParams(2, 3, 3, 3, 0)
    )
    for mutable in (report, counts, design, built):  # compared by value, so unhashable
        with pytest.raises(TypeError):
            hash(mutable)
