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
from math import prod

from .admissibility import (
    dds_counting_identity,
    ds_admissible,
    proportional_pair_admissible,
    refute_result3,
)
from .algebra import (
    ExhaustiveCapError,
    FieldDescriptor,
    GroupDescriptor,
    ScalarAction,
    build_ring,
    check_cap,
    cyclic_group,
    unit_subgroup_of_order,
)
from .constructions import (
    ConstructionError,
    cyclotomic_half_ddf,
    dds_from_ds,
    furino_ddf,
    orbit_ddf,
    orbit_ddf_split,
    product_ddf,
    result1_ddf,
    result3star_dds,
    singer_ds,
    trivial_ds,
    units_hdm,
)
from .designs import (
    DDSParams,
    DSParams,
    DiffMatrix,
    Family,
    Report,
    classify_family,
    dm_to_hdm,
    family_params,
    normalize_dm,
    verify_dds,
    verify_df,
    verify_dm,
    verify_ds,
    verify_hdm,
)
from .fileformat import (
    FAMILY_KINDS,
    DesignFile,
    load_design,
    save_design,
)

CONSTRUCTIONS = (
    "orbit",
    "orbit-split",
    "furino",
    "cyclotomic-half",
    "units-hdm",
    "product",
    "result1",
    "trivial-ds",
    "singer",
    "dds-product",
    "result3star",
)


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
    runs: list[str] = []
    for size in sorted(set(sizes), reverse=True):
        count = sizes.count(size) if isinstance(sizes, list) else list(sizes).count(size)
        runs.append(f"{size}^{count}" if count > 1 else str(size))
    return ",".join(runs)


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


def _family_design(kind: str, family: Family, lam: int) -> DesignFile:
    return DesignFile(kind, family.group, family_params(family, lam), family.blocks)


def _matrix_design(kind: str, mat: DiffMatrix) -> DesignFile:
    return DesignFile(
        kind, mat.group, {"v": mat.group.order, "k": mat.k, "lambda": 1}, rows=mat.rows
    )


def _orbit_inputs(args):
    if args.factors is not None:
        ring = build_ring(_parse_factors(args.factors))
        k = _require_flag(args, "--k")
        return ring.additive_group(), unit_subgroup_of_order(ring, k)
    if args.v is not None:
        mult = _require_flag(args, "--mult")
        check_cap(args.v)  # before ScalarAction walks the multiplier's order
        group = cyclic_group(args.v)
        return group, ScalarAction(group, mult)
    raise ValueError("orbit constructions need --v with --mult, or --factors with --k")


def _load_family(path) -> Family:
    design = load_design(path)
    if design.kind in FAMILY_KINDS or design.kind == "ds":
        return design.family()
    raise ValueError(f"{path}: expected a block-family design, found {design.kind!r}")


def _load_hdm(path) -> DiffMatrix:
    design = load_design(path)
    if design.kind == "hdm":
        return design.matrix()
    if design.kind == "dm":
        return dm_to_hdm(normalize_dm(design.matrix()))
    raise ValueError(f"{path}: expected a difference-matrix design, found {design.kind!r}")


def _build_design(args) -> DesignFile:
    name = args.name
    if name in ("orbit", "orbit-split"):
        group, action = _orbit_inputs(args)
        if name == "orbit":
            family = orbit_ddf(group, action)
            k = family.uniform_k()
            return _family_design("ddf", family, (k - 1) if k else 0)
        family = orbit_ddf_split(group, action)[0]
        k = family.uniform_k()
        return _family_design("ddf", family, (k - 1) // 2 if k else 0)
    if name == "furino":
        k = _require_flag(args, "--k")
        if args.factors is not None:
            base = build_ring(_parse_factors(args.factors))
        elif args.v is not None:
            base = args.v
        else:
            raise ValueError("furino needs --v or --factors")
        family = furino_ddf(base, k, half=args.half)
        lam = (k - 1) // 2 if args.half else k - 1
        return _family_design("ddf", family, lam)
    if name == "cyclotomic-half":
        ring = build_ring(_parse_factors(_require_flag(args, "--factors")))
        k = _require_flag(args, "--k")
        sigma = _parse_sigma_choice(args.sigma_choice) if args.sigma_choice else None
        family = cyclotomic_half_ddf(ring, k, sigma)
        return _family_design("ddf", family, (k - 1) // 2)
    if name == "units-hdm":
        ring = build_ring(_parse_factors(_require_flag(args, "--factors")))
        return _matrix_design("hdm", units_hdm(ring, _require_flag(args, "--k")))
    if name == "product":
        family_g = _load_family(_require_flag(args, "--ddf-g"))
        family_h = _load_family(_require_flag(args, "--ddf-h"))
        hdm = _load_hdm(_require_flag(args, "--dm"))
        family = product_ddf(family_g, family_h, hdm)
        return _family_design("ddf", family, family.uniform_k() - 1)
    if name == "result1":
        k = _require_flag(args, "--k")
        ring = build_ring(_parse_factors(_require_flag(args, "--factors")))
        family = result1_ddf(k, ring)
        return _family_design("ddf", family, k - 1)
    if name == "trivial-ds":
        k = _require_flag(args, "--k")
        dset, group = trivial_ds(k)
        return DesignFile(
            "ds", group, {"v": k + 1, "k": k, "lambda": k - 1}, (dset,)
        )
    if name == "singer":
        q = _require_flag(args, "--q")
        m = _require_flag(args, "--m")
        dset, group = singer_ds(q, m)
        v = (q**m - 1) // (q - 1)
        k = (q ** (m - 1) - 1) // (q - 1)
        lam = (q ** (m - 2) - 1) // (q - 1)
        return DesignFile("ds", group, {"v": v, "k": k, "lambda": lam}, (dset,))
    if name == "dds-product":
        source = load_design(_require_flag(args, "--ds"))
        if source.kind != "ds" or source.blocks is None or len(source.blocks) != 1:
            raise ValueError("--ds must point to a single-block ds design file")
        built = dds_from_ds(source.blocks[0], source.group, _require_flag(args, "--h"))
        return _dds_design(built)
    if name == "result3star":
        built = result3star_dds(
            _require_flag(args, "--q"),
            _require_flag(args, "--d"),
            _require_flag(args, "--e"),
            _require_flag(args, "--h"),
        )
        return _dds_design(built)
    raise ValueError(f"unknown construction {name!r}")


def _dds_design(built) -> DesignFile:
    params = built.params
    return DesignFile(
        "dds",
        built.group,
        {
            "m": params.m,
            "n": params.n,
            "k": params.k,
            "lambda1": params.lam1,
            "lambda2": params.lam2,
        },
        (built.elements,),
        subgroup=built.subgroup,
    )


def cmd_construct(args) -> int:
    design = _build_design(args)
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
    if design.kind in FAMILY_KINDS:
        return _verify_family_design(design)
    if design.kind == "ds":
        if design.blocks is None or len(design.blocks) != 1:
            return _fail("ds", design.params, "a ds design must have exactly one block")
        params = DSParams(
            _int_param(design.params, "v"),
            _int_param(design.params, "k"),
            _int_param(design.params, "lambda"),
        )
        return verify_ds(design.blocks[0], design.group, params)
    if design.kind == "dds":
        if design.blocks is None or len(design.blocks) != 1:
            return _fail(
                "dds", design.params, "a dds design must have exactly one block"
            )
        params = DDSParams(
            _int_param(design.params, "m"),
            _int_param(design.params, "n"),
            _int_param(design.params, "k"),
            _int_param(design.params, "lambda1"),
            _int_param(design.params, "lambda2"),
        )
        return verify_dds(design.blocks[0], design.group, design.subgroup, params)
    # dm / hdm
    mat = design.matrix()
    if _int_param(design.params, "k") != mat.k:
        return _fail(
            design.kind,
            design.params,
            f"declared k={design.params['k']} but the matrix has {mat.k} rows",
        )
    if _int_param(design.params, "v") != mat.group.order:
        return _fail(
            design.kind,
            design.params,
            f"declared v={design.params['v']} but the group has order {mat.group.order}",
        )
    return verify_dm(mat) if design.kind == "dm" else verify_hdm(mat)


_EXPECT_PARAM_KEYS = {
    "df": ("v", "k", "lambda"),
    "ddf": ("v", "k", "lambda"),
    "pdf": ("v", "k", "lambda"),
    "ds": ("v", "k", "lambda"),
    "dds": ("m", "n", "k", "lambda1", "lambda2"),
    "dm": ("v", "k", "lambda"),
    "hdm": ("v", "k", "lambda"),
}


def cmd_verify(args) -> int:
    design = load_design(args.file)
    if args.expect_kind is not None and design.kind != args.expect_kind:
        print(
            f"FAIL: file declares kind {design.kind!r}, expected {args.expect_kind!r}"
        )
        return 1
    if args.expect_params is not None:
        expected = _parse_expect_params(args.expect_params)
        keys = _EXPECT_PARAM_KEYS[design.kind]
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


def cmd_check(args) -> int:
    if args.what == "ds":
        params = DSParams(args.v, args.k, args.lam)
        verdict = ds_admissible(params)
        print(f"ds {params}: {'ADMISSIBLE' if verdict.ok else 'INADMISSIBLE'}")
        _print_identity(verdict, "lambda*(v-1) vs k*(k-1)")
        return 0 if verdict.ok else 1
    if args.what == "dds":
        params = DDSParams(args.m, args.n, args.k, args.lam1, args.lam2)
        verdict = dds_counting_identity(params)
        print(f"dds {params}: {'CONSISTENT' if verdict.ok else 'INCONSISTENT'}")
        _print_identity(verdict, "k*(k-1) vs lambda1*(n-1) + lambda2*n*(m-1)")
        return 0 if verdict.ok else 1
    if args.what == "proportional":
        params = DSParams(args.v, args.k, args.lam)
        verdict = proportional_pair_admissible(params, args.mu)
        scaled = params.scaled(args.mu)
        status = "ADMISSIBLE" if verdict.ok else "INADMISSIBLE"
        print(f"proportional {params} scaled by {args.mu} -> {scaled}: {status}")
        _print_identity(verdict, "(v-k)*(mu-1) vs 0")
        return 0 if verdict.ok else 1
    # result3
    verdict = refute_result3(args.q, args.m, args.e, args.h)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffam",
        description="Construct and exhaustively verify difference families, "
        "difference sets, and difference matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a design and write it to a file")
    con.add_argument("name", choices=CONSTRUCTIONS, help="construction recipe")
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
    ver.add_argument(
        "--expect-kind", choices=("df", "ddf", "pdf", "ds", "dds", "dm", "hdm")
    )
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
        return args.func(args)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExhaustiveCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
