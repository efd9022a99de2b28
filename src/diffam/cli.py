"""Command-line interface.

Three subcommands:

    diffam construct NAME [flags] --out FILE   build a design, verify it,
                                               write it as a JSON design file
    diffam verify FILE [--expect-kind K] [--expect-params CSV]
                                               re-verify a design file from
                                               scratch, printing the full
                                               deviation map on failure
    diffam check ds|dds|proportional|result3 ...
                                               integer admissibility checks,
                                               no design required

Exit codes: 0 verified/admissible, 1 mathematical failure or refutation,
2 usage or parse errors (including the exhaustive-size cap).
"""

from __future__ import annotations

import argparse
import sys
from itertools import groupby

from .designs import (
    KIND_TABLE, ConstructionError, DDSParams, DSParams, Report, classify_family, verify_dds,
    verify_df, verify_dm, verify_ds, verify_hdm,
)
from .groups import AdditiveField, GroupDescriptor

# the codec (diffam.fileformat, and with it json) is imported only by the
# functions that read or write a design file, so `check` never loads it, and
# only construct loads diffam.constructions and diffam.algebra


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _coord_str(fac, coord: int) -> str:
    if isinstance(fac, AdditiveField) and fac.n > 1:
        return "[" + ",".join(str(c) for c in fac.coeffs(coord)) + "]"
    return str(coord)


def format_element(group: GroupDescriptor, x) -> str:
    parts = [_coord_str(f, c) for f, c in zip(group.factors, x)]
    return parts[0] if len(parts) == 1 else "(" + ",".join(parts) + ")"


def _compact_sizes(sizes) -> str:
    """Render a size multiset as e.g. '3^288,1^865'."""
    runs = ((size, len(list(run))) for size, run in groupby(sorted(sizes, reverse=True)))
    return ",".join(f"{size}^{n}" if n > 1 else str(size) for size, n in runs)


def _format_params(params: dict) -> str:
    parts = []
    for key, value in sorted(params.items()):
        if key == "K" and isinstance(value, list):
            parts.append(f"K={_compact_sizes(value)}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _format_deviation_key(group: GroupDescriptor, key) -> str:
    if isinstance(key, tuple) and key and key[0] == "row":
        return f"row {key[1]}, element {format_element(group, key[2])}"
    if (
        isinstance(key, tuple)
        and len(key) == 3
        and isinstance(key[0], int)
        and isinstance(key[1], int)
        and isinstance(key[2], tuple)
    ):
        return f"rows ({key[0]},{key[1]}), element {format_element(group, key[2])}"
    return f"element {format_element(group, key)}"


def _print_report(design_kind: str, group: GroupDescriptor, report: Report) -> None:
    status = "PASS" if report.ok else "FAIL"
    print(f"{status}: {design_kind} over {group!r} [{_format_params(report.params)}]")
    if report.message:
        print(f"  {report.message}")
    for key, count in report.deviations.items():
        print(f"  {_format_deviation_key(group, key)}: count {count}")


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_expect_params(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --expect-params value {text!r}") from exc


def _int_param(params: dict, key: str) -> int:
    if key not in params:
        raise ValueError(f"design file params are missing {key!r}")
    value = params[key]
    if not isinstance(value, int):
        raise ValueError(f"design file param {key!r} must be an integer")
    return value


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


# recipe name -> (kind of design it writes, builder).  A builder reads its
# flags and returns what the recipe certified: a Family for a ddf or (its one
# block) a ds, a DiffMatrix for an hdm, a DDSConstruction for a dds.  It looks
# names up at call time in c, the diffam.constructions module (which construct
# alone imports), so a rebinding (a test double, a tracer) is seen.
RECIPES = {
    "orbit": ("ddf", lambda args, c: c.orbit_ddf(*c._orbit_inputs(args))),
    "orbit-split": ("ddf", lambda args, c: c._orbit_half(*c._orbit_inputs(args))[0]),
    "furino": ("ddf", lambda args, c: c._furino(args)),
    "cyclotomic-half": ("ddf", lambda args, c: c._cyclotomic_half(args)),
    "units-hdm": ("hdm", lambda args, c: c.units_hdm(c._ring(args), c._require_flag(args, "--k"))),
    "product": ("ddf", lambda args, c: c._product(args)),
    "result1": ("ddf", lambda args, c: c.result1_ddf(c._require_flag(args, "--k"), c._ring(args))),
    "trivial-ds": ("ds", lambda args, c: c._one_block(*c.trivial_ds(c._require_flag(args, "--k")))),
    "singer": ("ds", lambda args, c: c._singer(args)),
    "dds-product": ("dds", lambda args, c: c._dds_product(args)),
    "result3star": ("dds", lambda args, c: c._result3star(args)),
}


def cmd_construct(args) -> int:
    from . import constructions  # the one command that builds designs
    from .fileformat import save_design

    kind, build = RECIPES[args.name]
    design = constructions._design_file(kind, build(args, constructions))
    save_design(args.out, design)
    name = KIND_TABLE[kind].payload[0]  # "blocks" or "rows"
    count = len(getattr(design, name))
    print(
        f"wrote {design.kind} over {design.group!r} [{_format_params(design.params)}] "
        f"({count} {name[:-1]}{'s' * (count != 1)}) to {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _fail(kind: str, params: dict, message: str) -> Report:
    return Report(False, kind, params, {}, message)


def _verify_family_design(design: DesignFile) -> Report:
    lam = _int_param(design.params, "lambda")
    family = design.family()
    if _int_param(design.params, "v") != family.v:
        return _fail(
            design.kind,
            design.params,
            f"declared v={design.params['v']} but the group has order {family.v}",
        )
    declared_sizes = design.params.get("K")
    if declared_sizes is not None and not isinstance(declared_sizes, list):
        raise ValueError("design file param 'K' must be an integer list")
    if declared_sizes is not None and sorted(declared_sizes, reverse=True) != list(
        family.block_sizes()
    ):
        return _fail(design.kind, design.params, "declared K does not match the blocks")
    if "k" in design.params and _int_param(design.params, "k") != family.uniform_k():
        return _fail(design.kind, design.params, "declared k does not match the blocks")
    report = verify_df(family, lam)
    if not report.ok:
        return report
    classification = classify_family(family)
    if design.kind == "ddf" and classification == "plain":
        return _fail(design.kind, report.params, "blocks are not pairwise disjoint")
    if design.kind == "pdf" and classification != "partitioned":
        return _fail(
            design.kind,
            report.params,
            f"blocks form a {classification} family, not a partition",
        )
    return report


def _verify_design(design: DesignFile) -> Report:
    kind = design.kind
    if kind in ("ds", "dds"):
        if len(design.blocks) != 1:
            return _fail(
                kind, design.params, f"a {kind} design must have exactly one block"
            )
        values = [_int_param(design.params, key) for key in KIND_TABLE[kind].params]
        if kind == "ds":
            return verify_ds(design.blocks[0], design.group, DSParams(*values))
        return verify_dds(
            design.blocks[0], design.group, design.subgroup, DDSParams(*values)
        )
    if design.rows is None:
        return _verify_family_design(design)
    mat = design.matrix()
    for key, actual, found in (
        ("k", mat.k, f"the matrix has {mat.k} rows"),
        ("v", mat.group.order, f"the group has order {mat.group.order}"),
        ("lambda", 1, "a difference matrix has lambda=1"),
    ):
        if _int_param(design.params, key) != actual:
            message = f"declared {key}={design.params[key]} but {found}"
            return _fail(kind, design.params, message)
    return verify_dm(mat) if kind == "dm" else verify_hdm(mat)


def cmd_verify(args) -> int:
    from .fileformat import load_design

    design = load_design(args.file)
    if args.expect_kind is not None and design.kind != args.expect_kind:
        print(
            f"FAIL: file declares kind {design.kind!r}, expected {args.expect_kind!r}"
        )
        return 1
    if args.expect_params is not None:
        expected = _parse_expect_params(args.expect_params)
        keys = KIND_TABLE[design.kind].params
        if len(expected) != len(keys):
            raise ValueError(
                f"--expect-params for kind {design.kind!r} needs "
                f"{len(keys)} integers {keys}"
            )
        declared = [_int_param(design.params, key) for key in keys]
        if declared != expected:
            print(
                f"FAIL: declared parameters {declared} do not match "
                f"expected {expected}"
            )
            return 1
    report = _verify_design(design)
    _print_report(design.kind, design.group, report)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    from . import admissibility  # the one command that checks admissibility

    return admissibility.cmd_check(args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line."""

    def error(self, message: str):
        self.exit(2, f"error: {message} (usage: {self.prog} --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diffam",
        description="Construct and exhaustively verify difference families, "
        "difference sets, and difference matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a design and write it to a file")
    con.add_argument("name", choices=tuple(RECIPES), help="construction recipe")
    con.add_argument("--v", type=int, help="cyclic group order")
    con.add_argument("--factors", help="comma-separated field orders of a product ring")
    con.add_argument("--k", type=int, help="block size / unit subgroup order")
    con.add_argument("--mult", type=int, help="orbit multiplier on a cyclic group")
    con.add_argument(
        "--half", action="store_true", help="furino: take the half-index variant"
    )
    con.add_argument(
        "--sigma-choice",
        help="cyclotomic-half: CLASS:FACTOR overrides for the replaced position, "
        "comma separated (classes are numbered by support size, then "
        "lexicographically)",
    )
    con.add_argument("--q", type=int, help="field order (singer, result3star)")
    con.add_argument("--m", type=int, help="dimension (singer)")
    con.add_argument("--d", type=int, help="dimension (result3star)")
    con.add_argument("--e", type=int, help="divisor of q-1 (result3star)")
    con.add_argument("--h", type=int, help="subgroup scale (dds-product, result3star)")
    con.add_argument("--ddf-g", help="product: first factor family file")
    con.add_argument("--ddf-h", help="product: second factor family file")
    con.add_argument("--dm", help="product: difference matrix file (dm or hdm)")
    con.add_argument("--ds", help="dds-product: source difference set file")
    con.add_argument("--out", required=True, help="output design file path")
    con.set_defaults(func=cmd_construct)

    ver = sub.add_parser("verify", help="re-verify a design file from scratch")
    ver.add_argument("file", help="design file path")
    ver.add_argument("--expect-kind", choices=tuple(KIND_TABLE))
    ver.add_argument(
        "--expect-params",
        help="comma-separated integers that must match the declared parameters",
    )
    ver.set_defaults(func=cmd_verify)

    chk = sub.add_parser("check", help="integer admissibility checks")
    what = chk.add_subparsers(dest="what", required=True)
    c_ds = what.add_parser("ds", help="lambda*(v-1) = k*(k-1)")
    c_ds.add_argument("v", type=int)
    c_ds.add_argument("k", type=int)
    c_ds.add_argument("lam", type=int, metavar="lambda")
    c_dds = what.add_parser("dds", help="divisible counting identity")
    c_dds.add_argument("m", type=int)
    c_dds.add_argument("n", type=int)
    c_dds.add_argument("k", type=int)
    c_dds.add_argument("lam1", type=int, metavar="lambda1")
    c_dds.add_argument("lam2", type=int, metavar="lambda2")
    c_prop = what.add_parser(
        "proportional", help="can a scaled admissible triple stay admissible"
    )
    c_prop.add_argument("v", type=int)
    c_prop.add_argument("k", type=int)
    c_prop.add_argument("lam", type=int, metavar="lambda")
    c_prop.add_argument("mu", type=int)
    c_r3 = what.add_parser(
        "result3", help="scaled hyperplane triples: valid only for e=q-1, h=1"
    )
    c_r3.add_argument("q", type=int)
    c_r3.add_argument("m", type=int)
    c_r3.add_argument("e", type=int)
    c_r3.add_argument("h", type=int)
    chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # argparse reads the value of `--flag=--` as the end-of-options marker
        # and stores an empty list; no option here takes a list
        for key, value in vars(args).items():
            if isinstance(value, list):
                raise ValueError(f"argument --{key.replace('_', '-')}: expected a value")
        return args.func(args)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
