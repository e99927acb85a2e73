import hashlib
import json
import shlex
import time
from pathlib import Path

import pytest

from cubetri.acsa import ab_type, build_canonical
from cubetri import cli, sl2rep
from cubetri.cli import main
from cubetri.exactnum import GaussianRational
from cubetri.hypercube import cube
from cubetri.linalg import parse_matrix, write_matrix
from cubetri.quotient import quotient
from cubetri.suites import run_suite
from cubetri.tmodules import decompose, quotient_modules, split_and_type


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_writes_exchange_files(tmp_path, capsys):
    code, out = run_cli(
        capsys, "build", "--D", "4", "--matrix", "A", "--matrix", "E*2",
        "--out", str(tmp_path),
    )
    assert code == 0
    a = parse_matrix((tmp_path / "A.mtx").read_text())
    assert (a.nrows, a.ncols, a.nnz()) == (16, 16, 64)
    e2 = parse_matrix((tmp_path / "Estar2.mtx").read_text())
    assert e2.nnz() == 6  # diagonal 0/1 projector onto weight-2 vertices
    payload = json.loads(out)
    assert payload["D"] == 4 and len(payload["written"]) == 2


def test_build_weighted_and_quotient(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "build", "--D", "3", "--matrix", "C", "--out", str(tmp_path)
    )
    assert code == 0
    c = parse_matrix((tmp_path / "C.mtx").read_text())
    assert {str(v) for v in c.entries.values()} == {"1", "-1"}
    code, _ = run_cli(
        capsys, "build", "--D", "5", "--matrix", "A~", "--out", str(tmp_path)
    )
    assert code == 0
    at = parse_matrix((tmp_path / "Atilde.mtx").read_text())
    assert at.nrows == at.ncols == 16


def test_build_rejects_bad_input(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "build", "--D", "4", "--matrix", "nope", "--out", str(tmp_path)
    )
    assert code == 2
    code, _ = run_cli(
        capsys, "build", "--D", "12", "--matrix", "A", "--out", str(tmp_path)
    )
    assert code == 2  # exceeds the default --max-D


def test_build_reads_only_ascii_digit_suffixes(tmp_path, capsys):
    # '²' and the Arabic-Indic '٢' pass str.isdigit: one once reached int()
    # and the other built E_2 into a file named E٢.mtx
    for name in ("A²", "E٢"):
        code = main(["build", "--D", "3", "--matrix", name, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: unknown matrix name {name!r}")
        assert err.count("\n") == 1 and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "D, bad, error",
    [
        ("3", "nope", "error: unknown matrix name 'nope'"),
        ("3", "E9", "error: index 9 out of range 0..3"),
        ("4", "A~", "error: antipodal quotient needs odd D >= 3"),
    ],
)
def test_build_resolves_every_name_before_it_writes(tmp_path, capsys, D, bad, error):
    # A resolves and the second name does not: no directory and no A.mtx
    out_dir = tmp_path / "newdir"
    code = main(["build", "--D", D, "--matrix", "A", "--matrix", bad, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(error) and err.count("\n") == 1
    assert not out_dir.exists()


def test_decompose_censuses(capsys):
    code, out = run_cli(capsys, "decompose", "--D", "4")
    assert code == 0
    payload = json.loads(out)
    assert [m["dim"] for m in payload["modules"]] == [5, 3, 3, 3, 1, 1]
    code, out = run_cli(capsys, "decompose", "--D", "2")
    payload = json.loads(out)
    assert [(m["endpoint"], m["dim"]) for m in payload["modules"]] == [(0, 3), (1, 1)]


def test_decompose_quotient_types(capsys):
    code, out = run_cli(capsys, "decompose", "--D", "7", "--quotient")
    assert code == 0
    payload = json.loads(out)
    types = {m["id"]: m["type"] for m in payload["modules"]}
    assert types["r0#0"] == "AB(3,z)"
    assert types["r1#0"] == "AB(2,z)"
    assert sum(m["dim"] for m in payload["modules"]) == 64


def test_module_summary_shape():
    m = decompose(cube(3))[0]
    record = cli.module_summary(m)
    assert record["id"] == "r0#0"
    assert record["type"] is None
    assert record["parity_split"] == {"plus": "AB(1,z)", "minus": "AB(1,x)"}
    sb = quotient_modules(quotient(3))[0]
    (t,) = split_and_type(sb)
    record = cli.module_summary(sb)
    assert (record["type"], record["parity_split"]) == (str(t), None)


# sha256 of each `verify ... --format json` report without its `timing` block,
# and of each `decompose` listing as printed, keyed by its arguments.  The
# idempotents suite at D=9 and D=10 runs outside the default range.
OUTPUT_DIGESTS = {
    "verify": "f7ccb0050d56453f77449d5f03e19665cb3ab86123aa555b08658753ec63dd0f",
    "verify --suite idempotents --D 9": "4cc57fbf04a016f58121432912b473487aae61019ee282c8c940068ec79ea2f8",
    "verify --suite idempotents --D 10": "7cfec11fa4438ebff1cceac40ce4b5027ada93b15fe3264e25236206703c232c",
    "decompose --D 5": "bf198bfaad89b5ff0e318a16139cf3609c3373c771d661bf2526bb7ee4f53d31",
    "decompose --D 5 --quotient": "0ec3fe7b33f363646fade15c139c2500c7f61f61019e059c3be2e0aa73206b3b",
    "decompose --D 7": "9902c2e65f60b7421f3b0d51f2a24902569b57a79e32bc2ef62268a4853a5dc6",
    "decompose --D 7 --quotient": "0b08d5141178805dfe0bcf5d4989e96e7c58fa85de4e7babc52479b087f992dd",
    "decompose --D 8": "c0059730ac9344c9b923f47c21bb0978279036499f9bf72e08c40c420b302656",
    "decompose --D 9": "bf6b43d1417a751f6b09d0ea13256822faac276e0bf1b959ddca108f7d8a223d",
    "decompose --D 9 --quotient": "c9cc72351198c63d9f06b9082499d2faa548ff6e83858d23534359a71ce81926",
}


def test_default_outputs_are_pinned(capsys):
    def sha256(text):
        return hashlib.sha256(text.encode()).hexdigest()

    digests = {}
    for argv in OUTPUT_DIGESTS:
        if argv.startswith("verify"):
            code, out = run_cli(capsys, *argv.split(), "--format", "json")
            report = json.loads(out)
            del report["timing"]
            out = json.dumps(report, indent=2)
        else:
            code, out = run_cli(capsys, *argv.split())
        assert code == 0
        digests[argv] = sha256(out)
    assert digests == OUTPUT_DIGESTS


def test_verify_pass_and_exit_codes(capsys):
    code, out = run_cli(
        capsys, "verify", "--D", "4", "--suite", "relations", "--suite", "decomposition"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert [s["status"] for s in payload["suites"]] == ["pass", "pass"]


def test_verify_reference_tables_fails_with_analysis(capsys):
    code, out = run_cli(
        capsys, "verify", "--D", "5", "--suite", "leonard-quotient", "--reference-tables"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["overall"] == "fail"
    assert "reference table says AB(1,x), exact classification is AB(1,0)" in payload["suites"][0]["detail"]


def test_verify_reports_are_deterministic(capsys):
    def snapshot():
        code, out = run_cli(
            capsys, "verify", "--D", "3", "--suite", "transport", "--suite", "weights"
        )
        assert code == 0
        payload = json.loads(out)
        del payload["timing"]
        return json.dumps(payload, sort_keys=True)

    assert snapshot() == snapshot()


def test_verify_accepts_seed_that_no_suite_reads(capsys):
    def report(*extra):
        code, out = run_cli(
            capsys, "verify", "--suite", "idempotents", "--D", "3", *extra, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        del payload["timing"]
        return payload

    assert report("--seed", "1") == report()


def test_verify_weights_at_even_D_checks_no_quotient(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "weights", "--D", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["suites"][0]["detail"] == (
        "D=4: C is (+-1)-weighted with sign (-1)^min-weight on every edge"
    )


def test_verify_suite_parity_guards(capsys):
    code, _ = run_cli(capsys, "verify", "--D", "5", "--suite", "leonard-even")
    assert code == 2
    code, _ = run_cli(capsys, "verify", "--D", "4", "--suite", "transport")
    assert code == 2


def test_verify_all_suites_rejects_parity_before_running_any(capsys, monkeypatch):
    def no_run(name, **_kw):
        raise AssertionError(f"suite {name} ran before the parity check")

    monkeypatch.setattr(cli, "run_suite", no_run)
    message = (
        "--D without --suite runs every suite, but leonard-even needs even D and "
        "leonard-quotient needs odd D; pick suites with --suite"
    )
    for D in ("9", "8"):
        assert main(["verify", "--D", D]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
    for D, message in (("9", "leonard-even needs even D"), ("8", "leonard-quotient needs odd D")):
        assert main(["verify", "--D", D, "--suite", "weights", "--suite", "leonard-even",
                     "--suite", "leonard-quotient"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_usage_errors_are_one_line(capsys):
    for argv, what in (
        (["verify", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
        (["verify", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["decompose", "--D", "seven"], "argument --D: invalid int value: 'seven'"),
        (["nocommand"], "argument command: invalid choice: 'nocommand'"),
        ([], "the following arguments are required: command"),
        (["build", "--D", "3"], "the following arguments are required: --matrix"),
        (["verify", "--D"], "argument --D: expected one argument"),
        (["verify", "--D", "--suite", "weights"], "argument --D: expected one argument"),
        (["decompose", "--quotient=yes"], "argument --quotient: ignored explicit argument 'yes'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert captured.out == "" and captured.err.startswith(f"error: {what}"), argv
        assert captured.err.count("\n") == 1, argv


def test_each_subcommand_rejects_the_flags_it_does_not_read(capsys):
    # the parser refuses these before a matrix file is opened or a suite runs
    files = ["--x", "x.mtx", "--y", "y.mtx", "--z", "z.mtx"]
    for argv, flag in (
        (["skew", "--d", "3", "--D", "5"], "--D 5"),
        (["verify", "--quotient"], "--quotient"),
        (["classify", *files, "--seed", "1"], "--seed 1"),
        (["verify", "--reference"], "--reference"),  # a prefix is not the flag it starts
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert (captured.out, captured.err) == ("", f"error: unrecognized arguments: {flag}\n"), argv


def test_flag_values_after_an_equals_sign_or_repeated(capsys):
    code, out = run_cli(capsys, "verify", "--suite=weights", "--D=3")
    assert code == 0
    report = json.loads(out)
    assert (report["D"], [s["suite"] for s in report["suites"]]) == (3, ["weights"])
    # a repeated single-valued flag keeps its last value
    code, out = run_cli(capsys, "verify", "--D", "5", "--suite", "weights", "--D", "3", "--format=text")
    assert code == 0 and out.startswith("verification report (D=3, odd)\n")


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["verify", "--help"], ["verify", "--D", "3", "-h"]], ids=" ".join
)
def test_help_prints_usage_from_the_command_table_and_exits_zero(capsys, monkeypatch, argv):
    def no_run(name, **_kw):
        raise AssertionError(f"suite {name} ran under --help")

    monkeypatch.setattr(cli, "run_suite", no_run)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    assert captured.out.startswith("usage: cubetri")
    if argv[0] == "verify":
        flags = ("--D", "--format", "--max-D", "--out", "--seed", "--suite", "--reference-tables")
        words = {line.split()[0] for line in captured.out.splitlines() if line.startswith("  --")}
        assert words == set(flags)
        assert all(name in captured.out for name in cli.SUITES)
    else:
        for command in ("build", "decompose", "verify", "classify", "skew"):
            assert f"\n  {command} " in captured.out, command


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_line_examples_parse():
    # every `cubetri ...` line of the README's Command line code block names
    # a command and flags that the table knows; no handler runs
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()]
    examples = [argv for argv in examples if argv[:1] == ["cubetri"]]
    assert len(examples) >= 9
    for argv in examples:
        args = cli._parse(argv[1:])
        assert args.handler.__name__ == f"cmd_{argv[1]}", argv


def test_verify_rejects_a_nonpositive_d_before_running_any_suite(capsys, monkeypatch):
    def no_run(name, **_kw):
        raise AssertionError(f"suite {name} ran with a nonpositive --D")

    monkeypatch.setattr(cli, "run_suite", no_run)
    for d_flag, suite in ((["--D", "-3"], "families"), (["--D=-3"], "weights"), (["--D", "-1"], "skew"),
                          (["--D", "0"], "weights")):
        assert main(["verify", *d_flag, "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --D must be positive\n")


def test_verify_reports_running_out_of_memory_as_one_error_line(capsys, monkeypatch):
    def exhausted(name, **_kw):
        raise MemoryError

    monkeypatch.setattr(cli, "run_suite", exhausted)
    assert main(["verify", "--suite", "families"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory\n")


def test_quotient_commands_reject_d_one(capsys, monkeypatch):
    def no_run(name, **_kw):
        raise AssertionError(f"suite {name} ran at D=1")

    monkeypatch.setattr(cli, "run_suite", no_run)
    for argv in (
        ("verify", "--suite", "transport"),
        ("verify", "--suite", "leonard-quotient"),
        ("decompose", "--quotient"),
        ("build", "--matrix", "A~"),
    ):
        assert main([*argv, "--D", "1"]) == 2, argv
        err = capsys.readouterr().err
        assert err == "error: antipodal quotient needs odd D >= 3\n", argv


def test_weights_at_d_one_checks_the_cube_only(capsys):
    code, out = run_cli(capsys, "verify", "--D", "1", "--suite", "weights")
    assert code == 0
    (suite,) = json.loads(out)["suites"]
    assert suite["status"] == "pass"
    assert "quotient" not in suite["detail"]


def test_classify_round_trip(tmp_path, capsys):
    triple = build_canonical(ab_type(3, "y"))
    paths = []
    for name, m in zip("xyz", triple.matrices()):
        p = tmp_path / f"{name}.mtx"
        write_matrix(m, p)
        paths.append(str(p))
    code, out = run_cli(
        capsys, "classify", "--x", paths[0], "--y", paths[1], "--z", paths[2]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["relations"] == "ok"
    assert payload["irreducible"] is True
    assert payload["type"] == "AB(3,y)"
    assert payload["certificate"]["verdict"] == "y-normalized-AB"


def test_classify_rejects_non_module(tmp_path, capsys):
    from cubetri.linalg import ExactMatrix

    eye = ExactMatrix.identity(2)
    zero = ExactMatrix.zeros(2, 2)
    for name, m in (("x", eye), ("y", eye), ("z", zero)):
        write_matrix(m, tmp_path / f"{name}.mtx")
    code, out = run_cli(
        capsys,
        "classify",
        "--x", str(tmp_path / "x.mtx"),
        "--y", str(tmp_path / "y.mtx"),
        "--z", str(tmp_path / "z.mtx"),
    )
    assert code == 1
    assert "xy+yx=2z" in json.loads(out)["relations"]


def test_classify_certifies_only_irreducible_triples(tmp_path, capsys):
    from cubetri.linalg import ExactMatrix

    zero = tmp_path / "zero.mtx"
    write_matrix(ExactMatrix.zeros(2, 2), zero)
    argv = ("classify", "--x", str(zero), "--y", str(zero), "--z", str(zero))
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {
        "dim": 2, "relations": "ok", "irreducible": False, "certificate": None,
    }
    code, out = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert out.splitlines() == ["dim 2", "relations: ok", "irreducible: False"]


def test_classify_reports_the_zero_module_as_reducible(tmp_path, capsys):
    from cubetri.linalg import ExactMatrix

    empty = tmp_path / "empty.mtx"
    write_matrix(ExactMatrix.zeros(0, 0), empty)
    assert empty.read_text() == "dims 0 0\n"
    code, out = run_cli(capsys, "classify", "--x", str(empty), "--y", str(empty), "--z", str(empty))
    assert code == 0
    assert json.loads(out) == {
        "dim": 0, "relations": "ok", "irreducible": False, "certificate": None,
    }


def test_skew_command(capsys):
    code, out = run_cli(capsys, "skew", "--d", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["h_squared"] == "-1"
    assert payload["induced"]["structure_1"] == ["AB(3,y)", "AB(3,0)"]
    code, out = run_cli(capsys, "skew", "--d", "4")
    payload = json.loads(out)
    assert payload["induced"] == {"first": "B(4)", "second": "B(4)"}


def test_skew_command_rejects_a_wrong_sign_h(capsys, monkeypatch):
    # s = hk satisfies its relations with either sign of h, and at even d
    # both induced structures still classify as B(d), so only the closed
    # form h = diag((-1)^i i^d) that the command prints can see it
    build_h = sl2rep.build_h
    monkeypatch.setattr(sl2rep, "build_h", lambda action: -build_h(action))
    assert main(["skew", "--d", "4"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: d=4: h eigenvalues differ from (-1)^i i^d\n")
    r = run_suite("skew", ds=(4,))
    assert (r.status, r.detail) == ("fail", "d=4: h eigenvalues differ from (-1)^i i^d")


def test_skew_respects_the_d_cap(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "checked_skew", built.append)
    for argv in (("--d", "60"), ("--d", "4", "--max-D", "3")):
        assert main(["skew", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: d=") and "--max-D" in err
    assert built == []


def test_classify_reports_malformed_scalar_line(tmp_path, capsys):
    from cubetri.linalg import ExactMatrix

    good = tmp_path / "good.mtx"
    write_matrix(ExactMatrix.identity(2), good)
    bad = tmp_path / "bad.mtx"
    bad.write_text("dims 2 2\n\n0 0 1/0\n")
    code = main(["classify", "--x", str(bad), "--y", str(good), "--z", str(good)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: line 3:") and "1/0" in err
    assert err.count("\n") == 1


def test_classify_caps_the_declared_dimension(tmp_path, capsys):
    zero = tmp_path / "zero.mtx"
    zero.write_text("dims 600 600\n")
    small = tmp_path / "small.mtx"
    small.write_text("dims 3 3\n")
    for path, extra in ((zero, ()), (small, ("--max-D", "1"))):
        start = time.perf_counter()
        code = main(["classify", "--x", str(path), "--y", str(path), "--z", str(path), *extra])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: diameter=") and "--max-D" in err
        assert err.count("\n") == 1
        assert elapsed < 1.0


def test_classify_caps_the_dims_line_before_parsing_an_entry(tmp_path, capsys, monkeypatch):
    # entries with unrelated denominators would pay the lcm scaling of
    # ExactMatrix before a cap applied after parsing
    def refuse(text):
        raise AssertionError(f"entry {text!r} parsed")

    monkeypatch.setattr(GaussianRational, "parse", staticmethod(refuse))
    big = tmp_path / "big.mtx"
    big.write_text("dims 12 12\n" + "".join(f"{k} {k} 1/{2 * k + 3}\n" for k in range(12)))
    small = tmp_path / "small.mtx"
    small.write_text("dims 2 2\n0 0 1\n")
    for paths in ((big, small, small), (small, small, big)):
        code = main(["classify", *(f"--{n}={p}" for n, p in zip("xyz", paths))])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: diameter=11 exceeds --max-D 10; raise --max-D to run it\n"


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "verify", "--D", "3", "--suite", "weights", "--out", str(target)
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["overall"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--D", "3", "--suite", "weights"],
        ["decompose", "--D", "3"],
        ["classify", "--x", "x.mtx", "--y", "y.mtx", "--z", "z.mtx"],
        ["skew", "--d", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_report_out_that_names_a_directory_is_one_line_error(tmp_path, capsys, monkeypatch, argv):
    # the report would have gone to stdout under exit 0; build alone reads --out as a directory
    monkeypatch.chdir(tmp_path)
    for name, m in zip("xyz", build_canonical(ab_type(3, "y")).matrices()):
        write_matrix(m, tmp_path / f"{name}.mtx")
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == f"error: argument --out: {out_dir} is a directory; name the report file\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--D", "3", "--suite", "weights"],
        ["decompose", "--D", "3"],
        ["classify", "--x", "x.mtx", "--y", "y.mtx", "--z", "z.mtx"],
        ["skew", "--d", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_report_out_that_cannot_be_looked_up_is_one_line_error(tmp_path, capsys, monkeypatch, argv):
    # looking up a name longer than the system allows fails with an error
    # other than "not found" (ENAMETOOLONG)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "r" * 5000])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: argument --out: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unreadable_input_and_unwritable_output_are_one_line_errors(tmp_path, capsys):
    blocker = tmp_path / "plain"
    blocker.write_text("")
    missing = str(tmp_path / "missing.mtx")
    for argv in (
        ["classify", "--x", missing, "--y", missing, "--z", missing],
        ["classify", "--x", str(tmp_path), "--y", str(tmp_path), "--z", str(tmp_path)],
        ["verify", "--D", "3", "--suite", "weights", "--out", str(blocker / "x.json")],
        ["build", "--D", "2", "--matrix", "A", "--out", str(blocker)],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
