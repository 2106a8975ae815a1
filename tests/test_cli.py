import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rfun.inverter import alpha_eq, invert_program
from rfun.syntax import parse_program

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def rfun(*args, env=None, **kw):
    # the CLI runs in a child process, which must import this checkout too
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rfun.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, **(env or {}), "PYTHONPATH": path},
                          **kw)


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


def test_unreadable_program_file_is_a_one_line_fault(tmp_path):
    r = rfun("run", str(tmp_path / "missing.rfun"), "--input", "Z")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert "missing.rfun: cannot read:" in r.stderr


def test_program_file_is_utf8_under_an_ascii_locale(tmp_path):
    src = tmp_path / "unicode.rfun"
    src.write_text("f x ≜ case x of { Z → Z; S(y) → S(y) }\n", encoding="utf-8")
    r = rfun("run", str(src), "--input", "S(Z)",
             env={"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "S(Z)"


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


def test_undefined_function_is_a_fault(tmp_path):
    # the call is rejected statically, before any step, even where no run
    # reaches it (run on Z below)
    prog = tmp_path / "undef.rfun"
    for text, at in (("f x =: let y = g x in y", "1:8"),
                     ("f x =: case x of { Z -> Z; S(u) -> let v = g u in S(v) }",
                      "1:36")):
        prog.write_text(text)
        for args in (("run", str(prog), "--input", "Z"), ("check", str(prog))):
            r = rfun(*args)
            assert r.returncode == 1
            assert r.stdout == ""
            assert r.stderr.strip() == (
                f"{prog}:{at}: unknown-function: call of undefined function "
                "'g' in 'f'")


def test_deeply_chained_lets_run_check_and_invert(tmp_path):
    # Every pass over program text is a loop over its own stack, so 5,000
    # chained lets cost heap, not Python stack.
    chain = "".join(f"let x{i + 1} = id x{i} in " for i in range(5000))
    text = f"id x =: x;\nf x0 =: {chain}x5000"
    prog = tmp_path / "deep.rfun"
    prog.write_text(text)
    r = rfun("run", str(prog), "--entry", "f", "--input", "S(Z)")
    assert (r.returncode, r.stdout, r.stderr) == (0, "S(Z)\n", "")
    r = rfun("run", str(prog), "--entry", "f", "--backward", "--input", "S(Z)")
    assert (r.returncode, r.stdout, r.stderr) == (0, "S(Z)\n", "")
    r = rfun("check", str(prog), "--entry", "f", "--samples", "2")
    assert (r.returncode, r.stdout, r.stderr) == (0, "f: 2 cases, 0 mismatches\n"
                                                  "first-match checks discharged statically:"
                                                  " opsem 0, densem 0\n", "")
    r = rfun("invert", str(prog))
    assert (r.returncode, r.stderr) == (0, "")
    assert alpha_eq(parse_program(r.stdout), invert_program(parse_program(text)))


def test_deeply_nested_leaf_runs_checks_and_inverts(tmp_path):
    # The interpreter builds and matches left expressions in loops, so a
    # leaf 5,000 constructors deep runs both ways and checks against the
    # denotation; inversion and its printer take it too.
    leaf = "S(" * 5000 + "Z" + ")" * 5000
    prog = tmp_path / "deep.rfun"
    prog.write_text(f"f x =: case x of {{ Z -> {leaf}; S(y) -> S(y) }}")
    r = rfun("run", str(prog), "--entry", "f", "--input", "Z")
    assert (r.returncode, r.stdout, r.stderr) == (0, leaf + "\n", "")
    r = rfun("run", str(prog), "--entry", "f", "--backward", "--input", leaf)
    assert (r.returncode, r.stdout, r.stderr) == (0, "Z\n", "")
    r = rfun("check", str(prog), "--entry", "f")
    assert (r.returncode, r.stdout, r.stderr) == (0, "f: 50 cases, 0 mismatches\n"
                                                  "first-match checks discharged statically:"
                                                  " opsem 1, densem 1\n", "")
    r = rfun("invert", str(prog))
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == ("f! x' =:\n  case x' of {\n    " + leaf
                        + " -> Z;\n    S(y) -> S(y)\n  }\n")


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "nope.rfun"
    bad.write_text("f x =:")
    r = rfun("run", str(bad), "--input", "Z")
    assert r.returncode == 1
    assert r.stderr == f"{bad}: parse error: 1:7: expected a left expression, found ''\n"


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
    assert report["fuel"] == 10_000
    assert len(report["cases"]) == 20
    assert {c["verdict"] for c in report["cases"]} == {"match"}
    assert all({"input", "opsem", "densem", "verdict"} <= set(c)
               for c in report["cases"])
    # first-match checks each semantics discharged statically, program-wide
    assert report["discharged"] == {"opsem": 2, "densem": 2}


# Reports pinned byte for byte, so that a change to the harness that alters
# a report shows.  Paths are relative to the repository root, because the
# report names the program file as given.
GOLDEN = [
    ("arith.json", ("tests/fixtures/arith.rfun", "--samples", "20", "--seed", "7")),
    ("extra_bounce.json", ("tests/fixtures/extra.rfun", "--entry", "bounce",
                           "--samples", "20", "--fuel", "200")),
]


@pytest.mark.parametrize("golden, args", GOLDEN)
def test_check_json_reproduces_the_golden_reports(golden, args):
    r = rfun("check", *args, "--json", cwd=SRC.parent)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (SRC.parent / "tests" / "golden" / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [("run", "--input", "Z"), ("check",)])
def test_an_unknown_entry_is_a_one_line_fault(command):
    path = str(FIXTURES / "arith.rfun")
    r = rfun(command[0], path, "--entry", "nope", *command[1:])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"{path}: no function named 'nope'\n"


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


def test_check_rejects_negative_samples():
    r = rfun("check", str(FIXTURES / "arith.rfun"), "--samples", "-3")
    assert r.returncode == 2
    assert "--samples" in r.stderr
    assert r.stdout == ""


def test_run_and_check_reject_negative_fuel():
    for args in (("run", str(FIXTURES / "arith.rfun"), "--entry", "plus",
                  "--input", "<Z, Z>"),
                 ("check", str(FIXTURES / "arith.rfun"), "--samples", "3")):
        r = rfun(*args, "--fuel", "-3")
        assert r.returncode == 2, args
        assert "--fuel" in r.stderr
        assert r.stdout == ""
        assert rfun(*args, "--fuel", "0").returncode == 0, args


def test_check_one_fuel_meters_both_semantics():
    # fib S(S(Z)) needs call depth 3 but six calls: both semantics give a
    # value at fuel 4
    r = rfun("check", str(FIXTURES / "arith.rfun"), "--samples", "50",
             "--seed", "2", "--fuel", "4")
    assert r.returncode == 0, r.stdout
    assert "fib: 50 cases, 0 mismatches" in r.stdout


def test_check_violating_program_agrees():
    r = rfun("check", str(FIXTURES / "bad_first_match.rfun"),
             "--samples", "40", "--seed", "2", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    statuses = {(c["opsem"]["status"], c["densem"]["status"])
                for sub in report["reports"] for c in sub["cases"]}
    assert ("violation", "violation") in statuses


def test_import_leaves_the_recursion_limit_alone():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", "import sys; before = sys.getrecursionlimit(); "
         "import rfun; print(before, sys.getrecursionlimit())"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    before, after = r.stdout.split()
    assert before == after


def test_both_semantics_compile_through_one_text_cache():
    # A fresh process, in which no primitive of arith's denotation is
    # compiled yet: the interpreter's first run and the denotation's first
    # run each compile texts into invcat's one cache.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from rfun import invcat\n"
        "from rfun.densem import SymbolTable, function_morphism, run_denotation\n"
        "from rfun.opsem import apply_forward\n"
        "from rfun.syntax import parse_program, parse_value\n"
        "prog = parse_program(open(sys.argv[1]).read())\n"
        "v, texts = parse_value('<S(Z), S(S(Z))>'), invcat._code.cache_info\n"
        "invcat._code.cache_clear()\n"
        "apply_forward(prog, 'plus', v)\n"
        "run = texts().currsize\n"
        "tbl = SymbolTable.from_program(prog)\n"
        "run_denotation(function_morphism(prog, 'plus', tbl), v, tbl)\n"
        "print(run, texts().currsize - run)\n")
    r = subprocess.run([sys.executable, "-c", script, str(FIXTURES / "arith.rfun")],
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    opsem_texts, densem_texts = map(int, r.stdout.split())
    assert opsem_texts > 0 and densem_texts > 0


def test_unknown_command_fails():
    r = rfun("frobnicate")
    assert r.returncode != 0
