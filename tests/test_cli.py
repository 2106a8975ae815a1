import json
import os
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def rfun(*args, **kw):
    # the CLI runs in a child process, which must import this checkout too
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rfun.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kw)


def test_run_fib_forward():
    r = rfun("run", str(FIXTURES / "arith.rfun"), "--entry", "fib",
             "--input", "S(S(S(S(Z))))")
    assert r.returncode == 0
    assert r.stdout.strip() == \
        "<S(S(S(S(S(Z))))), S(S(S(S(S(S(S(S(Z))))))))>"


def test_run_fib_backward():
    r = rfun("run", "--backward", str(FIXTURES / "arith.rfun"),
             "--entry", "fib", "--input", "<S(Z), S(Z)>")
    assert r.returncode == 0
    assert r.stdout.strip() == "Z"


def test_run_identity_defaults_entry():
    r = rfun("run", str(FIXTURES / "id.rfun"), "--input", "Z")
    assert r.returncode == 0
    assert r.stdout.strip() == "Z"


def test_run_no_match_exit_code():
    r = rfun("run", str(FIXTURES / "arith.rfun"), "--entry", "plus",
             "--input", "Q")
    assert r.returncode == 2
    assert r.stdout == ""


def test_run_out_of_fuel_exit_code():
    r = rfun("run", str(FIXTURES / "loop.rfun"), "--input", "Z",
             "--fuel", "50")
    assert r.returncode == 3


def test_run_violation_is_a_fault():
    r = rfun("run", str(FIXTURES / "bad_first_match.rfun"),
             "--input", "S(Z)")
    assert r.returncode == 1
    assert "FirstMatchViolation" in r.stderr


def test_static_error_exit_code(tmp_path):
    bad = tmp_path / "bad.rfun"
    bad.write_text("f x =: <x, x>")
    r = rfun("run", str(bad), "--input", "Z")
    assert r.returncode == 1
    assert "linearity" in r.stderr or "unbound" in r.stderr


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "nope.rfun"
    bad.write_text("f x =:")
    r = rfun("run", str(bad), "--input", "Z")
    assert r.returncode == 1
    assert "parse error" in r.stderr


def test_missing_entry_listed():
    r = rfun("run", str(FIXTURES / "arith.rfun"), "--input", "Z")
    assert r.returncode == 1
    assert "plus" in r.stderr and "fib" in r.stderr


def test_invert_outputs_deterministic_valid_program():
    a = rfun("invert", str(FIXTURES / "arith.rfun"))
    b = rfun("invert", str(FIXTURES / "arith.rfun"))
    assert a.returncode == 0 and a.stdout == b.stdout
    # the inverse re-parses, passes the checks, and inverts back
    from rfun.inverter import alpha_eq, invert_program
    from rfun.syntax import check_static, parse_program
    inv = parse_program(a.stdout)
    assert check_static(inv) == []
    orig = parse_program((FIXTURES / "arith.rfun").read_text())
    assert alpha_eq(invert_program(inv), orig)


def test_invert_twice_roundtrips_through_text():
    first = rfun("invert", str(FIXTURES / "arith.rfun")).stdout
    tmp = FIXTURES.parent / "_inv_tmp.rfun"
    try:
        tmp.write_text(first)
        second = rfun("invert", str(tmp)).stdout
        from rfun.inverter import alpha_eq
        from rfun.syntax import parse_program
        assert alpha_eq(parse_program(second),
                        parse_program((FIXTURES / "arith.rfun").read_text()))
    finally:
        tmp.unlink(missing_ok=True)


def test_check_json_report_schema_and_determinism():
    args = ("check", str(FIXTURES / "arith.rfun"), "--entry", "plus",
            "--samples", "20", "--seed", "9", "--json")
    a, b = rfun(*args), rfun(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout            # byte-identical reports
    report = json.loads(a.stdout)
    assert report["program"].endswith("arith.rfun")
    assert report["entry"] == "plus"
    assert report["seed"] == 9
    assert set(report["fuel"]) == {"opsem", "densem"}
    assert len(report["cases"]) == 20
    assert {c["verdict"] for c in report["cases"]} == {"match"}
    assert all({"input", "opsem", "densem", "verdict"} <= set(c)
               for c in report["cases"])


def test_check_all_entries_summary():
    r = rfun("check", str(FIXTURES / "arith.rfun"), "--samples", "15",
             "--seed", "0")
    assert r.returncode == 0
    assert "plus: 15 cases, 0 mismatches" in r.stdout
    assert "fib: 15 cases, 0 mismatches" in r.stdout


def test_check_zero_samples_exits_clean():
    r = rfun("check", str(FIXTURES / "arith.rfun"), "--samples", "0",
             "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["mismatches"] == 0


def test_check_violating_program_agrees():
    r = rfun("check", str(FIXTURES / "bad_first_match.rfun"),
             "--samples", "40", "--seed", "2", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    statuses = {(c["opsem"]["status"], c["densem"]["status"])
                for sub in report["reports"] for c in sub["cases"]}
    assert ("violation", "violation") in statuses


def test_unknown_command_fails():
    r = rfun("frobnicate")
    assert r.returncode != 0
