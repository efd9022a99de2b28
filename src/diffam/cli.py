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
from math import prod

from .algebra import (
    FieldDescriptor,
    GroupDescriptor,
    ScalarAction,
    build_ring,
    check_cap,
    cyclic_group,
    unit_subgroup_of_order,
)
from .designs import (
    PARAM_KEYS,
    ConstructionError,
    DDSParams,
    DSParams,
    DiffMatrix,
    Family,
    Report,
    classify_family,
    counting_lambda,
    dm_to_hdm,
    family_params,
    normalize_dm,
    verify_dds,
    verify_df,
    verify_dm,
    verify_ds,
    verify_hdm,
)

# the codec (diffam.fileformat, and with it json) is imported only by the
# functions that read or write a design file, so `check` never loads it


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _coord_str(fac, coord: int) -> str:
    if isinstance(fac, FieldDescriptor) and fac.n > 1:
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


def _parse_factors(text: str) -> list[int]:
    try:
        factors = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --factors value {text!r}") from exc
    if not factors:
        raise ValueError(f"bad --factors value {text!r}")
    check_cap(prod(f for f in factors if f > 1))  # before any factor is factored
    return factors


def _parse_sigma_choice(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            idx, fac = piece.split(":")
            out[int(idx)] = int(fac)
        except ValueError as exc:
            raise ValueError(
                f"bad --sigma-choice entry {piece!r}, expected CLASS:FACTOR"
            ) from exc
    return out


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


def _require_flag(args, flag: str):
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise ValueError(f"construction {args.name!r} requires {flag}")
    return value


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _ring(args):
    return build_ring(_parse_factors(_require_flag(args, "--factors")))


def _orbit_inputs(args):
    if args.factors is not None:
        ring = _ring(args)
        k = _require_flag(args, "--k")
        return ring.additive_group(), unit_subgroup_of_order(ring, k)
    if args.v is not None:
        mult = _require_flag(args, "--mult")
        check_cap(args.v)  # before ScalarAction walks the multiplier's order
        group = cyclic_group(args.v)
        return group, ScalarAction(group, mult)
    raise ValueError("orbit constructions need --v with --mult, or --factors with --k")


def _load_family(path) -> Family:
    from .fileformat import FAMILY_KINDS, load_design

    design = load_design(path)
    if design.kind in FAMILY_KINDS or design.kind == "ds":
        return design.family()
    raise ValueError(f"{path}: expected a block-family design, found {design.kind!r}")


def _load_hdm(path) -> DiffMatrix:
    from .fileformat import load_design

    design = load_design(path)
    if design.kind == "hdm":
        return design.matrix()
    if design.kind == "dm":
        return dm_to_hdm(normalize_dm(design.matrix()))
    raise ValueError(f"{path}: expected a difference-matrix design, found {design.kind!r}")


def _furino(args, recipes):
    k = _require_flag(args, "--k")
    if args.factors is not None:
        base = _ring(args)
    elif args.v is not None:
        base = args.v
    else:
        raise ValueError("furino needs --v or --factors")
    return recipes.furino_ddf(base, k, half=args.half)


def _cyclotomic_half(args, recipes):
    ring = _ring(args)
    k = _require_flag(args, "--k")
    sigma = _parse_sigma_choice(args.sigma_choice) if args.sigma_choice else None
    return recipes.cyclotomic_half_ddf(ring, k, sigma)


def _product(args, recipes):
    return recipes.product_ddf(
        _load_family(_require_flag(args, "--ddf-g")),
        _load_family(_require_flag(args, "--ddf-h")),
        _load_hdm(_require_flag(args, "--dm")),
    )


def _one_block(dset, group) -> Family:
    return Family(group, [dset])


def _dds_product(args, recipes):
    from .fileformat import load_design

    source = load_design(_require_flag(args, "--ds"))
    if source.kind != "ds" or source.blocks is None or len(source.blocks) != 1:
        raise ValueError("--ds must point to a single-block ds design file")
    return recipes.dds_from_ds(source.blocks[0], source.group, _require_flag(args, "--h"))


# recipe name -> (kind of design it writes, builder).  A builder reads its
# flags and returns what the recipe certified: a Family for a ddf or (its one
# block) a ds, a DiffMatrix for an hdm, a DDSConstruction for a dds.
# Builders are passed the diffam.constructions module, which only construct
# imports, and look the recipe functions up in it at call time, so a
# rebinding of those names (a test double, a tracer) is seen.
RECIPES = {
    "orbit": ("ddf", lambda args, recipes: recipes.orbit_ddf(*_orbit_inputs(args))),
    "orbit-split": (
        "ddf",
        lambda args, recipes: recipes.orbit_ddf_split(*_orbit_inputs(args))[0],
    ),
    "furino": ("ddf", _furino),
    "cyclotomic-half": ("ddf", _cyclotomic_half),
    "units-hdm": (
        "hdm",
        lambda args, recipes: recipes.units_hdm(_ring(args), _require_flag(args, "--k")),
    ),
    "product": ("ddf", _product),
    "result1": (
        "ddf",
        lambda args, recipes: recipes.result1_ddf(_require_flag(args, "--k"), _ring(args)),
    ),
    "trivial-ds": (
        "ds",
        lambda args, recipes: _one_block(*recipes.trivial_ds(_require_flag(args, "--k"))),
    ),
    "singer": (
        "ds",
        lambda args, recipes: _one_block(
            *recipes.singer_ds(_require_flag(args, "--q"), _require_flag(args, "--m"))
        ),
    ),
    "dds-product": ("dds", _dds_product),
    "result3star": (
        "dds",
        lambda args, recipes: recipes.result3star_dds(
            *(_require_flag(args, flag) for flag in ("--q", "--d", "--e", "--h"))
        ),
    ),
}


def _design_file(kind: str, built) -> DesignFile:
    """The design file of a recipe's certified output, with the parameters
    read off that output."""
    from .fileformat import DesignFile, IndexLists

    if isinstance(built, Family):
        if not built.indices:
            # no lambda or K describes an empty family, so none is written
            raise ValueError(
                f"the construction gives no blocks over {built.group!r}; "
                "a design file needs at least one block"
            )
        lam = counting_lambda(built.v, map(len, built.indices))
        blocks = IndexLists.of_blocks(built.group, built.indices)
        return DesignFile(kind, built.group, family_params(built, lam), blocks)
    if isinstance(built, DiffMatrix):
        params = {"v": built.group.order, "k": built.k, "lambda": 1}
        rows = IndexLists.of_blocks(built.group, built.indices)
        return DesignFile(kind, built.group, params, rows=rows)
    # a DDSConstruction
    params = dict(zip(PARAM_KEYS[kind], built.params))
    return DesignFile(kind, built.group, params, (built.elements,), subgroup=built.subgroup)


def cmd_construct(args) -> int:
    from . import constructions  # the one command that builds designs
    from .fileformat import save_design

    kind, build = RECIPES[args.name]
    design = _design_file(kind, build(args, constructions))
    save_design(args.out, design)
    if design.rows is not None:
        payload = f"{len(design.rows)} rows"
    else:
        count = len(design.blocks)
        payload = f"{count} block" + ("s" if count != 1 else "")
    print(
        f"wrote {design.kind} over {design.group!r} "
        f"[{_format_params(design.params)}] ({payload}) to {args.out}"
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
    from .fileformat import FAMILY_KINDS, SET_KINDS

    kind = design.kind
    if kind in FAMILY_KINDS:
        return _verify_family_design(design)
    if kind in SET_KINDS:
        if design.blocks is None or len(design.blocks) != 1:
            return _fail(
                kind, design.params, f"a {kind} design must have exactly one block"
            )
        values = [_int_param(design.params, key) for key in PARAM_KEYS[kind]]
        if kind == "ds":
            return verify_ds(design.blocks[0], design.group, DSParams(*values))
        return verify_dds(
            design.blocks[0], design.group, design.subgroup, DDSParams(*values)
        )
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
        keys = PARAM_KEYS[design.kind]
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


def _print_identity(verdict, label: str) -> None:
    relation = "=" if verdict.lhs == verdict.rhs else "!="
    print(f"  {label}: {verdict.lhs} {relation} {verdict.rhs}")
    if verdict.note:
        print(f"  {verdict.note}")


def _refuse_unprintable(values: dict) -> None:
    """Refuse, before any output, a value the check would print whose
    decimal text passes Python's int-to-str digit limit, naming it (as
    refute_result3 refuses its parameters)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for name, x in values.items():
        if limit and abs(x) >= 10**limit:
            raise ValueError(
                f"{name} has more than {limit} digits, more than Python prints"
            )


def cmd_check(args) -> int:
    from . import admissibility  # the one command that checks admissibility

    if args.what == "ds":
        _refuse_unprintable({"v": args.v, "k": args.k, "lambda": args.lam})
        params = DSParams(args.v, args.k, args.lam)
        verdict = admissibility.ds_admissible(params)
        _refuse_unprintable({"lambda*(v-1)": verdict.lhs, "k*(k-1)": verdict.rhs})
        print(f"ds {params}: {'ADMISSIBLE' if verdict.ok else 'INADMISSIBLE'}")
        _print_identity(verdict, "lambda*(v-1) vs k*(k-1)")
        return 0 if verdict.ok else 1
    if args.what == "dds":
        values = (args.m, args.n, args.k, args.lam1, args.lam2)
        _refuse_unprintable(dict(zip(("m", "n", "k", "lambda1", "lambda2"), values)))
        params = DDSParams(*values)
        verdict = admissibility.dds_counting_identity(params)
        _refuse_unprintable(
            {"k*(k-1)": verdict.lhs, "lambda1*(n-1) + lambda2*n*(m-1)": verdict.rhs}
        )
        print(f"dds {params}: {'CONSISTENT' if verdict.ok else 'INCONSISTENT'}")
        _print_identity(verdict, "k*(k-1) vs lambda1*(n-1) + lambda2*n*(m-1)")
        return 0 if verdict.ok else 1
    if args.what == "proportional":
        _refuse_unprintable({"v": args.v, "k": args.k, "lambda": args.lam, "mu": args.mu})
        params = DSParams(args.v, args.k, args.lam)
        # the base identity is printed when it fails; once it holds,
        # 0 <= lambda <= k <= v, so mu*v bounds every other printed value
        base = admissibility.ds_admissible(params)
        _refuse_unprintable(
            {"lambda*(v-1)": base.lhs, "k*(k-1)": base.rhs, "mu*v": args.mu * args.v}
        )
        verdict = admissibility.proportional_pair_admissible(params, args.mu)
        scaled = params.scaled(args.mu)
        status = "ADMISSIBLE" if verdict.ok else "INADMISSIBLE"
        print(f"proportional {params} scaled by {args.mu} -> {scaled}: {status}")
        _print_identity(verdict, "(v-k)*(mu-1) vs 0")
        return 0 if verdict.ok else 1
    # result3
    verdict = admissibility.refute_result3(args.q, args.m, args.e, args.h)
    header = f"result3 (q,m,e,h)=({args.q},{args.m},{args.e},{args.h})"
    if verdict.ok:
        print(f"{header}: VALID (hyperplane case e=q-1, h=1), triple {verdict.triple}")
        return 0
    print(f"{header}: REFUTED")
    print(
        f"  base triple {verdict.base} scaled by mu={verdict.mu} "
        f"claims {verdict.triple}"
    )
    _print_identity(verdict.evidence, "lambda*(v-1) vs k*(k-1)")
    _print_identity(verdict.residual, "(v-k)*(mu-1) vs 0")
    return 1


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
    ver.add_argument("--expect-kind", choices=tuple(PARAM_KEYS))
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
