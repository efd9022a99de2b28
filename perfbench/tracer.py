"""Spans around diffam's public functions, recorded from outside the package.

``install()`` replaces each traced function by a wrapper in every diffam
module namespace that binds it (and, for methods, on the class), so calls
made through any import path are seen.  Spans stay in memory as
``(name, start, end, parent)`` tuples and are written out once by ``dump``.
``layer_metrics`` turns the spans of one pass into the per-layer metrics.

The package itself is not modified; nothing here runs unless a child
process of the benchmark calls ``install``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

MODULES = (
    "diffam",
    "diffam.algebra",
    "diffam.designs",
    "diffam.constructions",
    "diffam.fileformat",
    "diffam.cli",
)

# span name -> per-layer metric its self time is added to.  Every name but
# cli.main is a function or Class.method of the module its metric's layer
# is named after.
BUCKETS = {
    "fixed_point_witness": "algebra.witness_s",
    "orbits": "algebra.orbits_s",
    "FieldDescriptor.trace": "algebra.trace_s",
    "build_ring": "algebra.field_setup_s",
    "unit_subgroup_of_order": "algebra.field_setup_s",
    "build_field": "algebra.field_setup_s",
    "abelian_iso": "algebra.iso_s",
    "Isomorphism.apply": "algebra.iso_s",
    "Family.__init__": "designs.family_s",
    "verify_df": "designs.count_s",
    "verify_ds": "designs.count_s",
    "verify_dds": "designs.count_s",
    "verify_dm": "designs.matrix_s",
    "verify_hdm": "designs.matrix_s",
    "furino_ddf": "constructions.furino_s",
    "singer_ds": "constructions.singer_s",
    "dds_from_ds": "constructions.dds_s",
    "result3star_dds": "constructions.dds_s",
    "units_hdm": "constructions.product_s",
    "product_ddf": "constructions.product_s",
    "cyclotomic_half_ddf": "constructions.cyclotomic_s",
    "save_design": "fileformat.save_s",
    "load_design": "fileformat.load_s",
    "cli.main": "cli.self_s",
}

RECIPES = frozenset(
    name for name, bucket in BUCKETS.items() if bucket.startswith("constructions.")
)
VERIFIERS = frozenset(("verify_df", "verify_ds", "verify_dds", "verify_dm", "verify_hdm"))


class Tracer:
    """In-memory span recorder plus the exact counters kept at the same
    boundaries: pairs and scanned elements per verifier call, trace calls,
    and bytes moved through the file layer."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counts = {
            "designs.pairs": 0,
            "designs.scan_elements": 0,
            "algebra.trace_calls": 0,
            "fileformat.bytes_written": 0,
            "fileformat.bytes_read": 0,
        }

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            span = self.spans[idx]
            span[1] = t0
            span[2] = t1

    def wrap(self, name: str, fn):
        tracer = self
        counts = self.counts
        if name == "build_field":
            info = fn.cache_info

            def wrapped(*args, **kwargs):
                misses = info().misses
                idx = len(tracer.spans)
                out = tracer.call(name, fn, args, kwargs)
                if info().misses == misses:
                    del tracer.spans[idx]  # a cache hit has no child spans
                return out

            wrapped.cache_info = fn.cache_info
            wrapped.cache_clear = fn.cache_clear
            return wrapped
        if name == "verify_df":

            def wrapped(family, *args, **kwargs):
                out = tracer.call(name, fn, (family,) + args, kwargs)
                counts["designs.pairs"] += sum(len(b) * (len(b) - 1) for b in family.blocks)
                counts["designs.scan_elements"] += family.group.order
                return out

            return wrapped
        if name in ("verify_ds", "verify_dds"):

            def wrapped(dset, group, *args, **kwargs):
                out = tracer.call(name, fn, (dset, group) + args, kwargs)
                counts["designs.pairs"] += len(dset) * (len(dset) - 1)
                counts["designs.scan_elements"] += group.order
                return out

            return wrapped
        if name == "FieldDescriptor.trace":

            def wrapped(*args, **kwargs):
                counts["algebra.trace_calls"] += 1
                return tracer.call(name, fn, args, kwargs)

            return wrapped
        if name in ("save_design", "load_design"):
            key = "fileformat.bytes_written" if name == "save_design" else "fileformat.bytes_read"

            def wrapped(path, *args, **kwargs):
                out = tracer.call(name, fn, (path,) + args, kwargs)
                counts[key] += os.path.getsize(path)
                return out

            return wrapped

        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapped

    def install(self) -> None:
        """Patch every target in every diffam namespace that binds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for path, bucket in BUCKETS.items():
            if path == "cli.main":
                continue
            owner = importlib.import_module("diffam." + bucket.split(".")[0])
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(path, getattr(cls, attr)))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(path, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path) -> None:
        algebra = sys.modules["diffam.algebra"]
        info = algebra.build_field.cache_info()
        payload = {
            "spans": self.spans,
            "counts": self.counts,
            "field_cache": [info.hits, info.misses],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# Which end-to-end metric each layer metric should move, and on which workload:
#   algebra.witness_s, algebra.orbits_s   construct_s on cyclic-large and sweep
#   algebra.trace_s, algebra.trace_calls  construct_s on big-blocks only
#   algebra.field_setup_s, field_cache_hit_ratio  construct_s on sweep, ext-products
#   algebra.iso_s                         construct_s on big-blocks
#   designs.family_s                      construct_s, verify_s on cyclic-large, sweep
#   designs.count_s, designs.ns_per_pair  verify_s everywhere; construct_s too,
#                                         since recipes re-verify their output
#   designs.matrix_s                      construct_s, verify_s on ext-products
#   constructions.*_s                     construct_s on the workload running the recipe
#   constructions.reverify_frac           the cost of "a return is a certificate"
#   fileformat.*                          construct_s, verify_s, peak_rss_mb on
#                                         cyclic-large; load also in ext-products
#   cli.self_s, cli.process_overhead_s    construct_s, verify_s (process: cyclic-large)
# designs.pairs and designs.scan_elements are exact counts computed from the
# verifiers' inputs.  trace.wall_s is the traced pass's wall time, and
# trace.remainder_s is what the self times and process overhead leave of it:
# the benchmark's own work between children (speed probes, oracle checks).
PER_LAYER_UNITS = {
    "algebra.witness_s": "s",
    "algebra.orbits_s": "s",
    "algebra.trace_s": "s",
    "algebra.trace_calls": "count",
    "algebra.field_setup_s": "s",
    "algebra.field_cache_hit_ratio": "ratio",
    "algebra.iso_s": "s",
    "designs.family_s": "s",
    "designs.count_s": "s",
    "designs.pairs": "count",
    "designs.scan_elements": "count",
    "designs.ns_per_pair": "ns",
    "designs.matrix_s": "s",
    "constructions.furino_s": "s",
    "constructions.singer_s": "s",
    "constructions.dds_s": "s",
    "constructions.product_s": "s",
    "constructions.cyclotomic_s": "s",
    "constructions.reverify_frac": "ratio",
    "fileformat.save_s": "s",
    "fileformat.load_s": "s",
    "fileformat.bytes_written": "bytes",
    "fileformat.bytes_read": "bytes",
    "fileformat.save_mb_per_s": "MB/s",
    "fileformat.load_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "cli.process_overhead_s": "s",
    "trace_overhead_frac": "ratio",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
}


def _self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children.  Spans
    come from one thread, so children nest strictly inside their parent."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost_time(spans, names, under=None) -> float:
    """Summed duration of spans named in ``names`` with no such ancestor
    (and, when ``under`` is given, with an ancestor named in ``under``)."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        found_under = under is None
        nested = False
        p = parent
        while p >= 0:
            pname = spans[p][0]
            if pname in names:
                nested = True
                break
            if under is not None and pname in under:
                found_under = True
            p = spans[p][3]
        if found_under and not nested:
            total += end - start
    return total


def layer_metrics(children: list[dict], pass_wall: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``children`` holds, for each child process of the pass, its dumped span
    file contents plus ``wall`` (child wall time seen by the parent).
    """
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    recipe_wall = reverify_wall = 0.0
    hits = misses = 0
    self_total = 0.0
    for child in children:
        spans = child["spans"]
        for (name, _, _, _), own in zip(spans, _self_times(spans)):
            out[BUCKETS[name]] += own
            self_total += own
        for key, value in child["counts"].items():
            out[key] += value
        h, m = child["field_cache"]
        hits += h
        misses += m
        recipe_wall += _outermost_time(spans, RECIPES)
        reverify_wall += _outermost_time(spans, VERIFIERS, under=RECIPES)
        main_wall = sum(end - start for name, start, end, _ in spans if name == "cli.main")
        if main_wall:
            out["cli.process_overhead_s"] += child["wall"] - main_wall
    out["algebra.field_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["constructions.reverify_frac"] = reverify_wall / recipe_wall if recipe_wall else 0.0
    if out["designs.pairs"]:
        out["designs.ns_per_pair"] = out["designs.count_s"] * 1e9 / out["designs.pairs"]
    if out["fileformat.save_s"]:
        out["fileformat.save_mb_per_s"] = out["fileformat.bytes_written"] / 1e6 / out["fileformat.save_s"]
    if out["fileformat.load_s"]:
        out["fileformat.load_mb_per_s"] = out["fileformat.bytes_read"] / 1e6 / out["fileformat.load_s"]
    out["trace.wall_s"] = pass_wall
    out["trace.remainder_s"] = pass_wall - self_total - out["cli.process_overhead_s"]
    return out
