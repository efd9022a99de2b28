"""End-to-end tests for the ``diffam`` command line interface.

Every test drives ``diffam.cli.main`` in process and asserts on the exact
exit code and output text, so the CLI surface is pinned down as strictly
as the library underneath it.
"""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from diffam import admissibility, algebra, cli, constructions, designs, fileformat
from diffam.algebra import abelian_iso, build_ring, cyclic_group, product_group
from diffam.cli import main
from diffam.constructions import dds_from_ds, furino_ddf, singer_ds, units_hdm
from diffam.designs import extend_to_pdf, family_params, hdm_to_dm, verify_df
from diffam.fileformat import DesignFile, load_design, save_design


def run(argv):
    """Invoke the CLI once, capturing (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_the_cli_imports_only_the_standard_library():
    # a fresh interpreter, so no module a test imported hides a dependency
    code = (
        "import sys; before = set(sys.modules); import diffam.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "diffam" in out
    assert [m for m in out if m != "diffam" and m not in sys.stdlib_module_names] == []


def _loaded_by(argv, cwd) -> tuple[int, set]:
    """The exit code of main(argv) in a fresh interpreter, and every module
    that importing diffam.cli and running it loaded."""
    code = (
        "import sys; before = set(sys.modules); from diffam import cli; "
        "code = cli.main(sys.argv[1:]); "
        "print(); print(code, *sorted(set(sys.modules) - before))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-B", "-c", code, *map(str, argv)],
        env={"PYTHONPATH": src},
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()[-1].split()
    return int(out[0]), set(out[1:])


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    rc, loaded = _loaded_by(["construct", "trivial-ds", "--k", 3, "--out", "ds.json"], tmp_path)
    assert rc == 0 and "diffam.constructions" in loaded
    assert {"diffam.admissibility", "dataclasses"}.isdisjoint(loaded)
    rc, loaded = _loaded_by(["verify", "ds.json"], tmp_path)
    assert rc == 0 and "diffam.designs" in loaded
    assert {"diffam.constructions", "diffam.admissibility", "dataclasses"}.isdisjoint(loaded)
    rc, loaded = _loaded_by(["check", "ds", 7, 3, 1], tmp_path)
    assert rc == 0 and "diffam.admissibility" in loaded
    assert {"diffam.constructions", "diffam.fileformat", "json", "dataclasses"}.isdisjoint(
        loaded
    )


# ---------------------------------------------------------------------------
# top-level parser
# ---------------------------------------------------------------------------


def test_no_arguments_is_a_usage_error():
    rc, out, err = run([])
    assert rc == 2
    assert "usage:" in err


def test_help_exits_zero():
    rc, out, err = run(["--help"])
    assert rc == 0
    assert "construct" in out and "verify" in out and "check" in out


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_furino_cyclic(tmp_path):
    path = tmp_path / "f7.json"
    rc, out, err = run(["construct", "furino", "--v", 7, "--k", 3, "--out", path])
    assert rc == 0
    assert out == f"wrote ddf over Z7 [k=3 lambda=2 v=7] (2 blocks) to {path}\n"
    design = load_design(path)
    assert design.kind == "ddf"
    assert design.params == {"v": 7, "k": 3, "lambda": 2}
    assert design.blocks == (((1,), (2,), (4,)), ((3,), (5,), (6,)))


def test_construct_furino_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["construct", "furino", "--v", 49, "--k", 3, "--out", a])[0] == 0
    assert run(["construct", "furino", "--v", 49, "--k", 3, "--out", b])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_furino_ring_half(tmp_path):
    path = tmp_path / "f91h.json"
    rc, out, err = run(
        ["construct", "furino", "--factors", "7,13", "--k", 3, "--half", "--out", path]
    )
    assert rc == 0
    assert out.startswith("wrote ddf over GF(7) x GF(13) [k=3 lambda=1 v=91] (15 blocks)")
    design = load_design(path)
    assert len(design.blocks) == 15


def test_construct_furino_needs_a_group():
    rc, out, err = run(["construct", "furino", "--k", 3, "--out", "/tmp/never.json"])
    assert rc == 2
    assert "error: furino needs --v or --factors" in err


def test_construct_furino_rejects_bad_modulus(tmp_path):
    rc, out, err = run(
        ["construct", "furino", "--v", 10, "--k", 3, "--out", tmp_path / "x.json"]
    )
    assert rc == 1
    assert "prime divisor 2 of 10 is not congruent to 1 mod 3" in err
    assert not (tmp_path / "x.json").exists()


def test_construct_bad_factors_value(tmp_path):
    rc, out, err = run(
        ["construct", "furino", "--factors", "7,x", "--k", 3, "--out", tmp_path / "x.json"]
    )
    assert rc == 2
    assert "error: bad --factors value '7,x'" in err


def test_construct_orbit_and_split(tmp_path):
    whole = tmp_path / "w.json"
    rc, out, err = run(["construct", "orbit", "--v", 13, "--mult", 3, "--out", whole])
    assert rc == 0
    assert out == f"wrote ddf over Z13 [k=3 lambda=2 v=13] (4 blocks) to {whole}\n"

    halved = tmp_path / "h.json"
    rc, out, err = run(["construct", "orbit-split", "--v", 13, "--mult", 3, "--out", halved])
    assert rc == 0
    assert out == f"wrote ddf over Z13 [k=3 lambda=1 v=13] (2 blocks) to {halved}\n"
    assert len(load_design(halved).blocks) == 2


def test_construct_orbit_not_semiregular(tmp_path):
    rc, out, err = run(["construct", "orbit", "--v", 8, "--mult", 3, "--out", tmp_path / "x.json"])
    assert rc == 1
    assert err == (
        "error: action is not semiregular: nonzero element (4,) is fixed"
        " (automorphism index 1)\n"
    )


def test_construct_orbit_requires_mult(tmp_path):
    rc, out, err = run(["construct", "orbit", "--v", 13, "--out", tmp_path / "x.json"])
    assert rc == 2
    assert "error: construction 'orbit' requires --mult" in err


def test_construct_orbit_respects_exhaustive_cap(tmp_path):
    rc, out, err = run(
        ["construct", "orbit", "--v", 1000003, "--mult", 2, "--out", tmp_path / "x.json"]
    )
    assert rc == 2
    assert "exceeds the exhaustive-verification cap 1000000" in err


def test_construct_cyclic_cap_precedes_unit_search(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError(f"called with {args!r}")

    monkeypatch.setattr(cli, "ScalarAction", never)
    monkeypatch.setattr(constructions, "_least_semiregular_unit", never)
    cap = "error: group order 1000000009 exceeds the exhaustive-verification cap 1000000\n"
    for argv in (
        ["orbit", "--v", 1000000009, "--mult", 2],
        ["orbit-split", "--v", 1000000009, "--mult", 2],
        ["furino", "--v", 1000000009, "--k", 3],
    ):
        rc, out, err = run(["construct", *argv, "--out", tmp_path / "x.json"])
        assert (rc, out, err) == (2, "", cap)


def test_construct_refuses_over_cap_flags_before_work(tmp_path, monkeypatch):
    monkeypatch.setattr(algebra, "factorize", lambda n: pytest.fail(f"factorize({n})"))
    monkeypatch.setattr(constructions, "cyclic_group", lambda n: pytest.fail(f"Z_{n}"))
    for argv, order in (
        (["furino", "--factors", 10**30 + 57, "--k", 2], str(10**30 + 57)),
        (["cyclotomic-half", "--factors", "1009,1013", "--k", 3], "1022117"),
        (["singer", "--q", 2, "--m", 3 * 10**8], "2^300000000"),
        (["result3star", "--q", 2, "--d", 10**8, "--e", 1, "--h", 1], "2^100000000"),
        (["trivial-ds", "--k", 10**9], "1000000001"),
    ):
        rc, out, err = run(["construct", *argv, "--out", tmp_path / "x.json"])
        assert (rc, out) == (2, "")
        assert err == (
            f"error: group order {order} exceeds the exhaustive-verification cap 1000000\n"
        )


def test_an_option_given_the_end_of_options_marker_is_a_usage_error(tmp_path):
    out_path = tmp_path / "x.json"
    for argv, flag in (
        (["construct", "orbit", "--factors=--", "--k", 3, "--out", out_path], "--factors"),
        (["construct", "orbit", "--v=--", "--mult", 2, "--out", out_path], "--v"),
        (["construct", "trivial-ds", "--k", 3, "--out=--"], "--out"),
        (["verify", out_path, "--expect-kind=--"], "--expect-kind"),
    ):
        rc, out, err = run(argv)
        assert (rc, out, err) == (2, "", f"error: argument {flag}: expected a value\n")


def test_a_usage_error_is_one_stderr_line():
    for argv, prog, message in (
        (["construct", "trivial-ds", "--k", 3, "--out", "--"], "diffam construct",
         "argument --out: expected one argument"),
        (["verify", "f.json", "--stats"], "diffam", "unrecognized arguments: --stats"),
        (["construct", "furino", "--v", 7, "--k", 3, "--out", "x.json", "--bogus"],
         "diffam", "unrecognized arguments: --bogus"),
    ):
        rc, out, err = run(argv)
        assert (rc, out) == (2, "")
        assert err == f"error: {message} (usage: {prog} --help)\n"


def test_construct_refuses_an_empty_family(tmp_path):
    """A recipe that gives no blocks writes no file, whatever lambda it
    would have declared (furino says 2, orbit 0 over Z1)."""
    out_path = tmp_path / "empty.json"
    message = (
        "error: the construction gives no blocks over Z1; "
        "a design file needs at least one block\n"
    )
    for argv in (
        ["construct", "furino", "--v", 1, "--k", 3, "--out", out_path],
        ["construct", "orbit", "--v", 1, "--mult", 1, "--out", out_path],
        ["construct", "orbit-split", "--v", 1, "--mult", 1, "--out", out_path],
    ):
        assert run(argv) == (2, "", message)
        assert not out_path.exists()


def test_readme_lists_the_recipe_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("### Constructions", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (\w+) \|", section, re.MULTILINE)
    assert rows == [(name, kind) for name, (kind, _) in cli.RECIPES.items()]


def test_construct_cyclotomic_with_sigma_override(tmp_path):
    path = tmp_path / "c91.json"
    rc, out, err = run(
        [
            "construct", "cyclotomic-half", "--factors", "7,13", "--k", 3,
            "--sigma-choice", "2:1", "--out", path,
        ]
    )
    assert rc == 0
    assert out.startswith("wrote ddf over GF(7) x GF(13) [k=3 lambda=1 v=91] (15 blocks)")


def test_construct_cyclotomic_sigma_errors(tmp_path):
    rc, out, err = run(
        [
            "construct", "cyclotomic-half", "--factors", "7,13", "--k", 3,
            "--sigma-choice", "zz", "--out", tmp_path / "x.json",
        ]
    )
    assert rc == 2
    assert "error: bad --sigma-choice entry 'zz', expected CLASS:FACTOR" in err

    rc, out, err = run(
        [
            "construct", "cyclotomic-half", "--factors", "7,13", "--k", 3,
            "--sigma-choice", "2:9", "--out", tmp_path / "x.json",
        ]
    )
    assert rc == 1
    assert "error: class 2 has support (0, 1); cannot replace factor 9" in err


def test_construct_trivial_ds_singular_block(tmp_path):
    path = tmp_path / "t4.json"
    rc, out, err = run(["construct", "trivial-ds", "--v", 4, "--k", 3, "--out", path])
    assert rc == 0
    assert out == f"wrote ds over Z4 [k=3 lambda=2 v=4] (1 block) to {path}\n"


def test_construct_units_hdm(tmp_path):
    path = tmp_path / "h7.json"
    rc, out, err = run(["construct", "units-hdm", "--factors", "7", "--k", 3, "--out", path])
    assert rc == 0
    assert out == f"wrote hdm over GF(7) [k=3 lambda=1 v=7] (3 rows) to {path}\n"
    design = load_design(path)
    assert design.kind == "hdm"
    assert len(design.rows) == 3 and len(design.rows[0]) == 7


def test_construct_product_from_hdm_or_dm_file(tmp_path):
    base = DesignFile(
        kind="ddf",
        group=cyclic_group(4),
        params={"v": 4, "k": 3, "lambda": 2},
        blocks=(((1,), (2,), (3,)),),
    )
    save_design(tmp_path / "t4.json", base)
    run(["construct", "furino", "--v", 7, "--k", 3, "--out", tmp_path / "f7.json"])
    run(["construct", "units-hdm", "--factors", "7", "--k", 3, "--out", tmp_path / "h7.json"])

    out_a = tmp_path / "p28a.json"
    rc, out, err = run(
        [
            "construct", "product", "--ddf-g", tmp_path / "t4.json",
            "--ddf-h", tmp_path / "f7.json", "--dm", tmp_path / "h7.json",
            "--out", out_a,
        ]
    )
    assert rc == 0
    assert out == f"wrote ddf over Z4 x Z7 [k=3 lambda=2 v=28] (9 blocks) to {out_a}\n"

    # a dm-kind matrix file (zero row included) works just as well
    dm = hdm_to_dm(units_hdm(build_ring([7]), 3))
    save_design(
        tmp_path / "d7.json",
        DesignFile(kind="dm", group=dm.group, params={"v": 7, "k": 4, "lambda": 1}, rows=dm.rows),
    )
    out_b = tmp_path / "p28b.json"
    rc, out, err = run(
        [
            "construct", "product", "--ddf-g", tmp_path / "t4.json",
            "--ddf-h", tmp_path / "f7.json", "--dm", tmp_path / "d7.json",
            "--out", out_b,
        ]
    )
    assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    fam = load_design(out_a)
    assert fam.params == {"v": 28, "k": 3, "lambda": 2}
    assert len(fam.blocks) == 9


def test_construct_result1(tmp_path):
    path = tmp_path / "r28.json"
    rc, out, err = run(["construct", "result1", "--k", 3, "--factors", "7", "--out", path])
    assert rc == 0
    assert out == f"wrote ddf over Z4 x GF(7) [k=3 lambda=2 v=28] (9 blocks) to {path}\n"


def test_construct_singer(tmp_path):
    path = tmp_path / "s13.json"
    rc, out, err = run(["construct", "singer", "--q", 3, "--m", 3, "--out", path])
    assert rc == 0
    assert out == f"wrote ds over Z13 [k=4 lambda=1 v=13] (1 block) to {path}\n"
    assert load_design(path).blocks == (((0,), (2,), (5,), (6,)),)

    rc, out, err = run(["construct", "singer", "--q", 6, "--m", 3, "--out", tmp_path / "x.json"])
    assert rc == 1
    assert "error: 6 is not a prime power" in err


def test_construct_dds_product_chain(tmp_path):
    ds_path = tmp_path / "s85.json"
    rc, out, err = run(["construct", "singer", "--q", 4, "--m", 4, "--out", ds_path])
    assert rc == 0
    assert out == f"wrote ds over Z85 [k=21 lambda=5 v=85] (1 block) to {ds_path}\n"

    dds_path = tmp_path / "dds85.json"
    rc, out, err = run(["construct", "dds-product", "--ds", ds_path, "--h", 2, "--out", dds_path])
    assert rc == 0
    assert out == (
        f"wrote dds over Z85 x Z2 [k=42 lambda1=42 lambda2=10 m=85 n=2] (1 block) to {dds_path}\n"
    )

    rc, out, err = run(["verify", dds_path])
    assert rc == 0
    assert out == "PASS: dds over Z85 x Z2 [k=42 lambda1=42 lambda2=10 m=85 n=2]\n"


def test_construct_result3star(tmp_path):
    path = tmp_path / "dds13.json"
    rc, out, err = run(
        ["construct", "result3star", "--q", 3, "--d", 3, "--e", 2, "--h", 2, "--out", path]
    )
    assert rc == 0
    assert out == (
        f"wrote dds over Z13 x Z2 [k=8 lambda1=8 lambda2=2 m=13 n=2] (1 block) to {path}\n"
    )
    design = load_design(path)
    assert design.kind == "dds"
    assert design.subgroup == ((0, 0), (0, 1))


# out file, construct arguments, sha256 of the bytes written; product reads
# the three files before it, and dds-product the singer file
RECIPE_DIGESTS = (
    ("orbit_v.json", ["orbit", "--v", 13, "--mult", 3],
     "ad0e5637fb45473f67061cc72a9dcef04a6017f4cc8eb2bd3a171b5e8e84b27e"),
    ("orbit_f.json", ["orbit", "--factors", "7,13", "--k", 3],
     "37c9aec07fce05618ffac75290b0adb173bc55a5a10ae8906ce2695eb4ee6100"),
    ("orbit_split.json", ["orbit-split", "--v", 13, "--mult", 3],
     "fb58183285bd10f9a5da7893ccd0f5cf8408aa019ca3e14492fffda3bb00e237"),
    ("furino_v.json", ["furino", "--v", 49, "--k", 3],
     "07377253582c0787a2fc833aab66996c3bd24a6dd3a63a721aaf89aad3dc641b"),
    ("furino_half.json", ["furino", "--factors", "7,13", "--k", 3, "--half"],
     "2c2f0ee2c6d2dedfff60a6ed092d82494bf66c3367b969b3c7e1fd6cf3ac2044"),
    ("cyc.json", ["cyclotomic-half", "--factors", "7,13", "--k", 3],
     "53e197fb03237a3a35f9140955c0c24dd55fe72f92d4775d78ac614c097044aa"),
    ("hdm.json", ["units-hdm", "--factors", "4,7", "--k", 3],
     "d9197b7c2ef8c706335e3c0bcbf356e03a3ddf88ecff70a36746e3d00731351a"),
    ("tds.json", ["trivial-ds", "--k", 3],
     "e14bc6ffe767a99ed3569b40b272bf578bdca1bcbf1e07f9e518be99c2fcf9d7"),
    ("f47.json", ["furino", "--factors", "4,7", "--k", 3],
     "6b1c00fbe1f67aa9fa38b9c3effe8ff8a0973c23bdbf92078a94b26b64387b46"),
    ("prod.json", ["product", "--ddf-g", "tds.json", "--ddf-h", "f47.json", "--dm", "hdm.json"],
     "ae87df1e79c6154efc533ee6f7f49d86fe198c9cb8f3169f1abcd5aab0396a4f"),
    ("r1.json", ["result1", "--k", 3, "--factors", "4,7"],
     "ae87df1e79c6154efc533ee6f7f49d86fe198c9cb8f3169f1abcd5aab0396a4f"),
    ("singer.json", ["singer", "--q", 3, "--m", 3],
     "9fa1edc64e09af76c4319a17c4863245fc07a6f4d575cdc6fd78d4fdc5974dba"),
    ("ddsp.json", ["dds-product", "--ds", "singer.json", "--h", 3],
     "2f4b736c88e104c902c88f7afe8d5d569757cd0f992ac69a144fdedd300f7d85"),
    ("r3s.json", ["result3star", "--q", 3, "--d", 3, "--e", 2, "--h", 2],
     "7c0be3d97868104665caefd2ed0f63c65bbe6daa19774ed52b002421a2f862a4"),
)


def test_every_recipe_writes_its_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert {argv[0] for _, argv, _ in RECIPE_DIGESTS} == set(cli.RECIPES)
    for name, argv, digest in RECIPE_DIGESTS:
        rc, out, err = run(["construct", *argv, "--out", name])
        assert (rc, err) == (0, ""), argv
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, argv
        rc, out, err = run(["verify", name])
        assert rc == 0 and out.startswith("PASS: "), argv


def test_no_recipe_output_is_read_through_the_json_tree(tmp_path, monkeypatch):
    """Every recipe's file, and the files product and dds-product read,
    load by the payload scan alone, to the design the tree decodes."""
    monkeypatch.chdir(tmp_path)
    design_from_obj = fileformat.design_from_obj

    def tree(*args):
        raise AssertionError("a valid file reached the JSON tree")

    monkeypatch.setattr(fileformat, "design_from_obj", tree)
    monkeypatch.setattr(fileformat, "_parse", tree)
    for name, argv, _ in RECIPE_DIGESTS:
        assert run(["construct", *argv, "--out", name])[:3:2] == (0, ""), argv
        oracle = design_from_obj(json.loads((tmp_path / name).read_text()))
        design = load_design(name)
        assert design == oracle, argv
        if design.rows is None:
            assert design.family().indices == oracle.family().indices, argv
        else:
            assert design.matrix() == oracle.matrix(), argv
        rc, out, err = run(["verify", name])
        assert rc == 0 and out.startswith("PASS: "), argv


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_pass_line_and_expectations(tmp_path):
    path = tmp_path / "p28.json"
    base = DesignFile(
        kind="ddf",
        group=cyclic_group(4),
        params={"v": 4, "k": 3, "lambda": 2},
        blocks=(((1,), (2,), (3,)),),
    )
    save_design(tmp_path / "t4.json", base)
    run(["construct", "furino", "--v", 7, "--k", 3, "--out", tmp_path / "f7.json"])
    run(["construct", "units-hdm", "--factors", "7", "--k", 3, "--out", tmp_path / "h7.json"])
    run(
        [
            "construct", "product", "--ddf-g", tmp_path / "t4.json",
            "--ddf-h", tmp_path / "f7.json", "--dm", tmp_path / "h7.json", "--out", path,
        ]
    )

    rc, out, err = run(["verify", path])
    assert rc == 0
    assert out == "PASS: ddf over Z4 x Z7 [k=3 lambda=2 v=28]\n"

    rc, out, err = run(
        ["verify", path, "--expect-kind", "ddf", "--expect-params", "28,3,2"]
    )
    assert rc == 0

    rc, out, err = run(["verify", path, "--expect-params", "28,3,1"])
    assert rc == 1
    assert out == "FAIL: declared parameters [28, 3, 2] do not match expected [28, 3, 1]\n"

    rc, out, err = run(["verify", path, "--expect-kind", "pdf"])
    assert rc == 1
    assert out == "FAIL: file declares kind 'ddf', expected 'pdf'\n"

    rc, out, err = run(["verify", path, "--expect-params", "28,3"])
    assert rc == 2
    assert "error: --expect-params for kind 'ddf' needs 3 integers ('v', 'k', 'lambda')" in err


def test_verify_large_block_through_the_product_engine(tmp_path, monkeypatch):
    """The (364, 121, 40) Singer set is counted as one big-int product; a
    corrupted copy must print the deviation map of a raw pairwise recount."""
    calls = []
    engine = designs._convolution_counts

    def counted_engine(group, block):
        calls.append(len(block))
        return engine(group, block)

    monkeypatch.setattr(designs, "_convolution_counts", counted_engine)
    path = tmp_path / "s364.json"
    rc, out, err = run(["construct", "singer", "--q", 3, "--m", 6, "--out", path])
    assert out == f"wrote ds over Z364 [k=121 lambda=40 v=364] (1 block) to {path}\n"
    assert run(["verify", path]) == (0, "PASS: ds over Z364 [k=121 lambda=40 v=364]\n", "")

    obj = json.loads(path.read_text())
    block = [x for (x,) in obj["blocks"][0]]
    block[0] = min(set(range(364)) - set(block))
    obj["blocks"][0] = [[x] for x in block]
    path.write_text(json.dumps(obj))
    counts = [0] * 364
    for x in block:
        for y in block:
            if x != y:
                counts[(x - y) % 364] += 1
    deviating = [(d, c) for d, c in enumerate(counts) if d and c != 40]
    assert deviating
    expected = "FAIL: ds over Z364 [k=121 lambda=40 v=364]\n"
    expected += f"  {len(deviating)} of 363 nonzero elements deviate from lambda=40\n"
    expected += "".join(f"  element {d}: count {c}\n" for d, c in deviating)
    assert run(["verify", path]) == (1, expected, "")
    assert calls == [121] * 3  # construct's self-check, then both verifies


def test_verify_catches_a_tampered_block(tmp_path):
    path = tmp_path / "f7.json"
    run(["construct", "furino", "--v", 7, "--k", 3, "--out", path])
    obj = json.loads(path.read_text())
    assert obj["blocks"][0][0] == [1]
    obj["blocks"][0][0] = [5]
    path.write_text(json.dumps(obj))

    rc, out, err = run(["verify", path])
    assert rc == 1
    assert out.startswith("FAIL: ddf over Z7 [k=3 lambda=2 v=7]\n")
    assert "blocks are not pairwise disjoint" in out


def test_verify_catches_a_wrong_difference_count(tmp_path):
    path = tmp_path / "s13.json"
    run(["construct", "singer", "--q", 3, "--m", 3, "--out", path])
    obj = json.loads(path.read_text())
    obj["blocks"][0][-1] = [7]  # {0,2,5,6} -> {0,2,5,7}
    path.write_text(json.dumps(obj))

    rc, out, err = run(["verify", path])
    assert rc == 1
    assert "FAIL: ds over Z13" in out
    assert "deviate from lambda=1" in out


def test_verify_kind_strictness_for_duplicates_and_partitions(tmp_path):
    # the same block twice is fine for a plain df with doubled lambda ...
    dup = DesignFile(
        kind="df",
        group=cyclic_group(7),
        params={"v": 7, "k": 3, "lambda": 2},
        blocks=(((1,), (2,), (4,)), ((1,), (2,), (4,))),
    )
    save_design(tmp_path / "dup.json", dup)
    rc, out, err = run(["verify", tmp_path / "dup.json"])
    assert rc == 0
    assert out == "PASS: df over Z7 [k=3 lambda=2 v=7]\n"

    # ... but a ddf with the same blocks must fail on disjointness
    save_design(
        tmp_path / "dupd.json",
        DesignFile(
            kind="ddf",
            group=cyclic_group(7),
            params={"v": 7, "k": 3, "lambda": 2},
            blocks=(((1,), (2,), (4,)), ((1,), (2,), (4,))),
        ),
    )
    rc, out, err = run(["verify", tmp_path / "dupd.json"])
    assert rc == 1
    assert "blocks are not pairwise disjoint" in out

    # a disjoint family that misses elements is not a pdf
    save_design(
        tmp_path / "notpdf.json",
        DesignFile(
            kind="pdf",
            group=cyclic_group(7),
            params={"v": 7, "K": [3, 3], "lambda": 2},
            blocks=(((1,), (2,), (4,)), ((3,), (5,), (6,))),
        ),
    )
    rc, out, err = run(["verify", tmp_path / "notpdf.json"])
    assert rc == 1
    assert "blocks form a disjoint family, not a partition" in out


def test_verify_transported_dds_twins(tmp_path):
    # A (85,21,5) difference set lifted to Z85 x Z2 and transported to Z170:
    # as a dds it passes, while the same 42 elements declared as a plain ds
    # fail with exactly one deviating difference.
    dset, group = singer_ds(4, 4)
    built = dds_from_ds(dset, group, 2)
    iso = abelian_iso(built.group, cyclic_group(170))
    assert iso is not None
    moved = tuple(sorted(iso.apply(x) for x in built.elements))
    sub = tuple(sorted(iso.apply(s) for s in built.subgroup))

    save_design(
        tmp_path / "ds170.json",
        DesignFile(
            kind="ds",
            group=cyclic_group(170),
            params={"v": 170, "k": 42, "lambda": 10},
            blocks=(moved,),
        ),
    )
    rc, out, err = run(["verify", tmp_path / "ds170.json"])
    assert rc == 1
    assert out == (
        "FAIL: ds over Z170 [k=42 lambda=10 v=170]\n"
        "  1 of 169 nonzero elements deviate from lambda=10\n"
        "  element 85: count 42\n"
    )

    save_design(
        tmp_path / "dds170.json",
        DesignFile(
            kind="dds",
            group=cyclic_group(170),
            params={"m": 85, "n": 2, "k": 42, "lambda1": 42, "lambda2": 10},
            blocks=(moved,),
            subgroup=sub,
        ),
    )
    rc, out, err = run(["verify", tmp_path / "dds170.json"])
    assert rc == 0
    assert out == "PASS: dds over Z170 [k=42 lambda1=42 lambda2=10 m=85 n=2]\n"


def test_verify_matrix_files(tmp_path):
    dm = hdm_to_dm(units_hdm(build_ring([7]), 3))
    save_design(
        tmp_path / "dm7.json",
        DesignFile(kind="dm", group=dm.group, params={"v": 7, "k": 4, "lambda": 1}, rows=dm.rows),
    )
    rc, out, err = run(["verify", tmp_path / "dm7.json"])
    assert rc == 0
    assert out == "PASS: dm over GF(7) [k=4 lambda=1 v=7]\n"

    # the same rows declared homogeneous must fail on the zero row
    save_design(
        tmp_path / "badh.json",
        DesignFile(kind="hdm", group=dm.group, params={"v": 7, "k": 4, "lambda": 1}, rows=dm.rows),
    )
    rc, out, err = run(["verify", tmp_path / "badh.json"])
    assert rc == 1
    assert out.startswith("FAIL: hdm over GF(7) [k=4 lambda=1 v=7]\n")
    assert "7 (row, element) occurrence counts != 1" in out
    assert "  row 0, element 0: count 7\n" in out


def test_verify_matrix_files_check_the_declared_lambda(tmp_path):
    path = tmp_path / "h7.json"
    run(["construct", "units-hdm", "--factors", "7", "--k", 3, "--out", path])
    obj = json.loads(path.read_text())
    obj["params"]["lambda"] = 5
    path.write_text(json.dumps(obj))
    rc, out, err = run(["verify", path, "--expect-params", "7,3,5"])
    assert (rc, err) == (1, "")
    assert out == (
        "FAIL: hdm over GF(7) [k=3 lambda=5 v=7]\n"
        "  declared lambda=5 but a difference matrix has lambda=1\n"
    )

    dm = hdm_to_dm(units_hdm(build_ring([7]), 3))
    params = {"v": 7, "k": 4, "lambda": 2}
    save_design(path, DesignFile(kind="dm", group=dm.group, params=params, rows=dm.rows))
    rc, out, err = run(["verify", path])
    assert (rc, err) == (1, "")
    assert out.startswith("FAIL: dm over GF(7) [k=4 lambda=2 v=7]\n")

    del params["lambda"]
    save_design(path, DesignFile(kind="dm", group=dm.group, params=params, rows=dm.rows))
    rc, out, err = run(["verify", path])
    assert (rc, out, err) == (2, "", "error: design file params are missing 'lambda'\n")


def _verify_written(path, design):
    save_design(path, design)
    return run(["verify", path])


def test_verify_family_files_check_the_declared_v_k_and_K(tmp_path):
    path = tmp_path / "f.json"
    pdf = extend_to_pdf(furino_ddf(13, 3))
    design = DesignFile("pdf", pdf.group, family_params(pdf, 2), pdf.blocks)
    assert _verify_written(path, design) == (
        0, "PASS: pdf over Z13 [K=3^4,1 lambda=2 v=13]\n", ""
    )

    params = {"v": 13, "K": [3, 3, 3, 1, 1, 1, 1, 1], "lambda": 2}
    assert _verify_written(path, DesignFile("pdf", pdf.group, params, pdf.blocks)) == (
        1,
        "FAIL: pdf over Z13 [K=3^3,1^5 lambda=2 v=13]\n"
        "  declared K does not match the blocks\n",
        "",
    )

    params = {**family_params(pdf, 2), "v": 14}
    assert _verify_written(path, DesignFile("pdf", pdf.group, params, pdf.blocks)) == (
        1,
        "FAIL: pdf over Z13 [K=3^4,1 lambda=2 v=14]\n"
        "  declared v=14 but the group has order 13\n",
        "",
    )

    ddf = furino_ddf(13, 3)
    params = {"v": 13, "k": 4, "lambda": 2}
    assert _verify_written(path, DesignFile("ddf", ddf.group, params, ddf.blocks)) == (
        1,
        "FAIL: ddf over Z13 [k=4 lambda=2 v=13]\n"
        "  declared k does not match the blocks\n",
        "",
    )


def test_verify_names_field_coordinates_in_the_deviation_map(tmp_path):
    group = product_group(build_ring([4]).additive_group(), cyclic_group(3))
    params = {"v": 12, "k": 3, "lambda": 1}
    design = DesignFile("df", group, params, (((0, 0), (1, 1), (2, 2)),))
    assert _verify_written(tmp_path / "df.json", design) == (
        1,
        "FAIL: df over GF(4) x Z3 [k=3 lambda=1 v=12]\n"
        "  5 of 11 nonzero elements deviate from lambda=1\n"
        "  element ([0,0],1): count 0\n"
        "  element ([0,0],2): count 0\n"
        "  element ([0,1],0): count 0\n"
        "  element ([1,0],0): count 0\n"
        "  element ([1,1],0): count 0\n",
        "",
    )


def test_verify_refuses_a_ds_file_with_two_blocks(tmp_path):
    block = ((1,), (2,), (4,))
    params = {"v": 7, "k": 3, "lambda": 1}
    design = DesignFile("ds", cyclic_group(7), params, (block, block))
    assert _verify_written(tmp_path / "ds.json", design) == (
        1,
        "FAIL: ds over Z7 [k=3 lambda=1 v=7]\n  a ds design must have exactly one block\n",
        "",
    )


def test_verify_lists_the_row_pairs_of_a_spoiled_dm(tmp_path):
    dm = hdm_to_dm(units_hdm(build_ring([7]), 3))
    rows = [list(row) for row in dm.rows]
    rows[1][1], rows[1][2] = rows[1][2], rows[1][1]
    params = {"v": 7, "k": 4, "lambda": 1}
    design = DesignFile("dm", dm.group, params, rows=rows)
    assert _verify_written(tmp_path / "dm.json", design) == (
        1,
        "FAIL: dm over GF(7) [k=4 lambda=1 v=7]\n"
        "  8 (row pair, element) difference counts != 1\n"
        "  rows (1,2), element 0: count 2\n"
        "  rows (1,2), element 4: count 2\n"
        "  rows (1,2), element 5: count 0\n"
        "  rows (1,2), element 6: count 0\n"
        "  rows (1,3), element 0: count 2\n"
        "  rows (1,3), element 1: count 0\n"
        "  rows (1,3), element 4: count 0\n"
        "  rows (1,3), element 5: count 2\n",
        "",
    )


def test_verify_checks_the_declared_k_of_a_dds(tmp_path):
    built = dds_from_ds(*singer_ds(2, 3), 2)
    params = {"m": 7, "n": 2, "k": 5, "lambda1": 6, "lambda2": 2}
    design = DesignFile("dds", built.group, params, (built.elements,), subgroup=built.subgroup)
    assert _verify_written(tmp_path / "dds.json", design) == (
        1,
        "FAIL: dds over Z7 x Z2 [k=6 lambda1=6 lambda2=2 m=7 n=2]\n  declared k=5, found 6\n",
        "",
    )


def test_bad_option_values_and_a_wrong_matrix_file_are_usage_errors(tmp_path):
    path = tmp_path / "f13.json"
    run(["construct", "furino", "--v", 13, "--k", 3, "--out", path])
    assert run(["verify", path, "--expect-params", "1,x"]) == (
        2, "", "error: bad --expect-params value '1,x'\n"
    )
    argv = ["construct", "product", "--ddf-g", path, "--ddf-h", path, "--dm", path]
    assert run([*argv, "--out", tmp_path / "out.json"]) == (
        2, "", f"error: {path}: expected a difference-matrix design, found 'ddf'\n"
    )


def test_verify_missing_and_malformed_files(tmp_path):
    rc, out, err = run(["verify", tmp_path / "absent.json"])
    assert rc == 2
    assert "error: [Errno 2] No such file or directory" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out, err = run(["verify", bad])
    assert rc == 2
    assert "error: design file is not valid JSON:" in err

    bad.write_text("[" * 100000)
    rc, out, err = run(["verify", bad])
    assert (rc, out, err) == (2, "", "error: design file is nested too deeply to parse\n")

    z7 = {"factors": [{"cyclic": 7}]}
    design = {"kind": "ds", "group": z7, "params": {"v": 7, "k": 3, "lambda": True}}
    bad.write_text(json.dumps({**design, "blocks": [[[1], [2], [4]]]}))
    rc, out, err = run(["verify", bad])
    assert (rc, out, err) == (2, "", "error: parameter lambda has unsupported value True\n")

    design["params"]["lambda"] = 1
    bad.write_text(json.dumps({**design, "blocks": [[[True], [2], [4]]]}))
    rc, out, err = run(["verify", bad])
    assert (rc, out, err) == (2, "", "error: coordinate 0 out of range for Z_7: True\n")

    family = {"kind": "df", "group": z7, "params": {"v": 7, "K": 3, "lambda": 1}}
    bad.write_text(json.dumps({**family, "blocks": [[[1], [2], [4]]]}))
    rc, out, err = run(["verify", bad])
    assert (rc, out, err) == (2, "", "error: design file param 'K' must be an integer list\n")

    family["params"] = {"v": 7, "k": [3], "lambda": 1}
    bad.write_text(json.dumps({**family, "blocks": [[[1], [2], [4]]]}))
    rc, out, err = run(["verify", bad])
    assert (rc, out, err) == (2, "", "error: design file param 'k' must be an integer\n")


def test_verify_refuses_a_modulus_coefficient_out_of_range(tmp_path):
    """GF(13)'s modulus x written as 13 + x or -13 + x is the same residue
    list, but not a modulus with coefficients in GF(13): one error line."""
    path = tmp_path / "f13.json"
    rc, out, err = run(["construct", "furino", "--factors", 13, "--k", 3, "--out", path])
    assert rc == 0
    for c in (13, -13):
        obj = json.loads(path.read_text())
        obj["group"]["factors"][0]["field"]["modulus"] = [c, 1]
        edited = tmp_path / f"edited{c}.json"
        edited.write_text(json.dumps(obj))
        rc, out, err = run(["verify", edited])
        assert (rc, out, err) == (
            2, "", f"error: modulus coefficient {c} out of range for GF(13)\n"
        )


def test_verify_refuses_over_cap_files_before_work(tmp_path, monkeypatch):
    monkeypatch.setattr(algebra, "is_prime", lambda n: pytest.fail(f"is_prime({n})"))
    path = tmp_path / "big.json"
    for field, order in (
        ({"p": 10**30 + 57, "n": 1, "modulus": [0, 1]}, str(10**30 + 57)),
        ({"p": 2, "n": 3 * 10**8, "modulus": [1, 1]}, "2^300000000"),
    ):
        group = {"factors": [{"field": field}]}
        params = {"v": 7, "k": 3, "lambda": 1}
        path.write_text(
            json.dumps({"kind": "ds", "group": group, "params": params, "blocks": [[]]})
        )
        rc, out, err = run(["verify", path])
        assert (rc, out) == (2, "")
        assert err == (
            f"error: group order {order} exceeds the exhaustive-verification cap 1000000\n"
        )


@pytest.mark.parametrize(
    "recipe",
    [
        ["furino", "--v", 31, "--k", 3],
        ["furino", "--factors", "4,7,13", "--k", 3],
        ["singer", "--q", 3, "--m", 3],
        ["units-hdm", "--factors", "4,7", "--k", 3],
        ["dds-product", "--ds", "singer.json", "--h", 2],
    ],
)
def test_verify_of_a_written_file_never_decodes_element_tuples(tmp_path, monkeypatch, recipe):
    monkeypatch.chdir(tmp_path)
    if "--ds" in recipe:
        assert run(["construct", "singer", "--q", 3, "--m", 3, "--out", "singer.json"])[0] == 0
    assert run(["construct", *recipe, "--out", "design.json"])[0] == 0

    def refuse(*args):
        pytest.fail("an element tuple was decoded or encoded")

    monkeypatch.setattr(algebra.GroupDescriptor, "elements_at", refuse)
    monkeypatch.setattr(algebra.GroupDescriptor, "indices", refuse)
    monkeypatch.setattr(fileformat, "element_from_obj", refuse)
    design = load_design("design.json")
    report = cli._verify_design(design)
    assert report.ok, report.message
    if design.kind == "hdm":
        assert cli._load_hdm("design.json") == design.matrix()


@pytest.mark.parametrize(
    "block, expected",
    [
        ([[4], [1], [2]], (0, "PASS: ds over Z7 [k=3 lambda=1 v=7]\n", "")),
        ([[2], [1], [2]], (2, "", "error: block ((1,), (2,), (2,)) has a repeated element\n")),
    ],
)
def test_verify_sorts_a_read_ds_block_and_refuses_a_repeat(tmp_path, block, expected):
    path = tmp_path / "ds.json"
    obj = {
        "kind": "ds",
        "group": {"factors": [{"cyclic": 7}]},
        "params": {"v": 7, "k": 3, "lambda": 1},
        "blocks": [block],
    }
    path.write_text(json.dumps(obj))
    assert run(["verify", path]) == expected


def test_verified_constructions_round_trip_through_files(tmp_path):
    path = tmp_path / "c91.json"
    run(["construct", "cyclotomic-half", "--factors", "7,13", "--k", 3, "--out", path])
    design = load_design(path)
    assert verify_df(design.family(), 1).ok
    rc, out, err = run(["verify", path])
    assert rc == 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_ds_admissible_and_not():
    rc, out, err = run(["check", "ds", 7, 3, 1])
    assert rc == 0
    assert out == ("ds (7,3,1): ADMISSIBLE\n  lambda*(v-1) vs k*(k-1): 6 = 6\n")

    rc, out, err = run(["check", "ds", 170, 42, 10])
    assert rc == 1
    assert out == ("ds (170,42,10): INADMISSIBLE\n  lambda*(v-1) vs k*(k-1): 1690 != 1722\n")


def test_check_proportional():
    rc, out, err = run(["check", "proportional", 85, 21, 5, 2])
    assert rc == 1
    assert out == (
        "proportional (85,21,5) scaled by 2 -> (170,42,10): INADMISSIBLE\n"
        "  (v-k)*(mu-1) vs 0: 64 != 0\n"
        "  scaled triple (170,42,10)\n"
    )


def test_check_result3():
    rc, out, err = run(["check", "result3", 4, 4, 3, 2])
    assert rc == 1
    assert out == (
        "result3 (q,m,e,h)=(4,4,3,2): REFUTED\n"
        "  base triple (85,21,5) scaled by mu=2 claims (170,42,10)\n"
        "  lambda*(v-1) vs k*(k-1): 1690 != 1722\n"
        "  (v-k)*(mu-1) vs 0: 64 != 0\n"
        "  scaled triple (170,42,10)\n"
    )

    rc, out, err = run(["check", "result3", 4, 4, 3, 1])
    assert rc == 0
    assert out == (
        "result3 (q,m,e,h)=(4,4,3,1): VALID (hyperplane case e=q-1, h=1),"
        " triple (85,21,5)\n"
    )


def test_check_result3_refuses_large_parameters_in_one_line(monkeypatch):
    rc, out, err = run(["check", "result3", 1000003, 3, 1, 1])
    assert (rc, err) == (1, "")
    assert out.startswith("result3 (q,m,e,h)=(1000003,3,1,1): REFUTED\n")
    monkeypatch.setattr(
        admissibility, "prime_power", lambda n: pytest.fail(f"prime_power({n})")
    )
    for argv, name in (
        ([1000000000000000003, 3, 1, 1], "q = 1000000000000000003"),
        ([3, 10000001, 2, 1], "m = 10000001"),
        ([3, 100001, 2, 1], "m = 100001"),
    ):
        rc, out, err = run(["check", "result3", *argv])
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {name} ") and err.count("\n") == 1


def test_check_refuses_sides_too_long_to_print_in_one_line():
    """A printed side past Python's int-to-str digit limit is refused before
    any output, naming it; a 10-digit case still prints its verdict."""
    nines = int("9" * 3000)  # printable, but k*(k-1) has 6000 digits
    for argv, name in (
        (["ds", nines, nines, 5], "k*(k-1)"),
        (["dds", 5, 2, nines, 1, 1], "k*(k-1)"),
        (["proportional", nines, nines, 1, 2], "k*(k-1)"),
        (["proportional", nines, 1, 0, 10**2000], "mu*v"),
    ):
        rc, out, err = run(["check", *argv])
        assert (rc, out) == (2, ""), argv
        assert err.startswith(f"error: {name} has more than ") and err.count("\n") == 1
    rc, out, err = run(["check", "ds", 10**10, 5, 2])
    assert (rc, err) == (1, "")
    assert out.startswith("ds (10000000000,5,2): INADMISSIBLE\n")


def test_check_dds():
    rc, out, err = run(["check", "dds", 85, 2, 42, 42, 10])
    assert rc == 0
    assert out == (
        "dds (85,2,42,42,10): CONSISTENT\n"
        "  k*(k-1) vs lambda1*(n-1) + lambda2*n*(m-1): 1722 = 1722\n"
    )

    rc, out, err = run(["check", "dds", 7, 2, 6, 6, 3])
    assert rc == 1
    assert "INCONSISTENT" in out
    assert "30 != 42" in out


def test_check_missing_arguments_is_usage_error():
    rc, out, err = run(["check", "ds", 7, 3])
    assert rc == 2
    assert "usage:" in err
