import json
import time

from cubetri.acsa import ab_type, build_canonical
from cubetri import cli
from cubetri.cli import main
from cubetri.linalg import read_matrix, write_matrix


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
    a = read_matrix(tmp_path / "A.mtx")
    assert (a.nrows, a.ncols, a.nnz()) == (16, 16, 64)
    e2 = read_matrix(tmp_path / "Estar2.mtx")
    assert e2.nnz() == 6  # diagonal 0/1 projector onto weight-2 vertices
    payload = json.loads(out)
    assert payload["D"] == 4 and len(payload["written"]) == 2


def test_build_weighted_and_quotient(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "build", "--D", "3", "--matrix", "C", "--out", str(tmp_path)
    )
    assert code == 0
    c = read_matrix(tmp_path / "C.mtx")
    assert {str(v) for v in c.entries.values()} == {"1", "-1"}
    code, _ = run_cli(
        capsys, "build", "--D", "5", "--matrix", "A~", "--out", str(tmp_path)
    )
    assert code == 0
    at = read_matrix(tmp_path / "Atilde.mtx")
    assert at.nrows == at.ncols == 16


def test_build_rejects_bad_input(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "build", "--D", "4", "--matrix", "nope", "--out", str(tmp_path)
    )
    assert code == 2
    code, _ = run_cli(
        capsys, "build", "--D", "12", "--matrix", "A", "--out", str(tmp_path)
    )
    assert code == 2  # exceeds --max-D without --force


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
    for D, message in (("9", "leonard-even needs even D"), ("8", "leonard-quotient needs odd D")):
        assert main(["verify", "--D", D]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_verify_rejects_a_nonpositive_d_before_running_any_suite(capsys, monkeypatch):
    def no_run(name, **_kw):
        raise AssertionError(f"suite {name} ran with a nonpositive --D")

    monkeypatch.setattr(cli, "run_suite", no_run)
    for D, suite in (("-3", "families"), ("-1", "skew"), ("0", "weights")):
        assert main(["verify", "--D", D, "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --D must be positive\n")


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


def test_skew_command(capsys):
    code, out = run_cli(capsys, "skew", "--d", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["h_squared"] == "-1"
    assert payload["induced"]["structure_1"] == ["AB(3,y)", "AB(3,0)"]
    code, out = run_cli(capsys, "skew", "--d", "4")
    payload = json.loads(out)
    assert payload["induced"] == {"first": "B(4)", "second": "B(4)"}


def test_skew_respects_the_d_cap(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_irreducible_sl2", built.append)
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


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "verify", "--D", "3", "--suite", "weights", "--out", str(target)
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["overall"] == "pass"
