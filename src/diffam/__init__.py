"""Difference families, difference sets, and difference matrices over finite
abelian groups: constructions, exhaustive verification, and admissibility.

The public names are re-exported lazily (PEP 562): ``diffam.X`` and
``from diffam import X`` import the module that defines X on first use, so
a process loads only the modules it uses."""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("algebra", """GROUP_ORDER_CAP ExhaustiveCapError FieldDescriptor
            GroupDescriptor Isomorphism RingDescriptor ScalarAction UnitAction
            abelian_iso build_field build_ring cyclic_group invariant_factors
            is_semiregular orbits product_group unit_subgroup_of_order"""),
        ("admissibility", """IdentityVerdict Result3Verdict dds_counting_identity
            ds_admissible proportional_pair_admissible refute_result3"""),
        ("constructions", """DDSConstruction cyclotomic_half_ddf dds_from_ds
            furino_ddf orbit_ddf orbit_ddf_split product_ddf result1_ddf
            result3star_dds singer_ds trivial_ds units_hdm"""),
        ("designs", """ConstructionError NotSemiregularError DDSParams DSParams
            DiffMatrix DiffMultiset Family Report classify_family delta_multiset
            dm_to_hdm extend_to_pdf hdm_to_dm normalize_dm verify_dds verify_df
            verify_dm verify_ds verify_hdm"""),
        ("fileformat", "DesignFile load_design save_design"),
    )
    for name in names.split()
}
# the additive core, also served by algebra, comes from groups; __all__ keeps its order
_CORE = "GROUP_ORDER_CAP ExhaustiveCapError GroupDescriptor cyclic_group product_group"
_EXPORTS.update(dict.fromkeys(_CORE.split(), "groups"))
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:  # a submodule not yet imported falls through to import
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
