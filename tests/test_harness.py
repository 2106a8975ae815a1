import json

import pytest

from rfun import densem, harness, opsem
from rfun.densem import SymbolTable, function_morphism
from rfun.harness import (
    check_program, densem_outcome, gen_value, opsem_outcome,
    outcomes_agree, vocabulary,
)
from rfun.invcat import dagger
from rfun.opsem import FirstMatchViolation, UnknownFunction
from rfun.syntax import parse_program, parse_value
from rfun.values import TUPLE, Value, tup

from helpers import FIXTURES, load_program

import random


def test_vocabulary_first_occurrence_order():
    for name in ("arith.rfun", "extra.rfun"):
        prog = load_program(name)
        assert vocabulary(prog) == [(TUPLE, 2), ("Z", 0), (TUPLE, 1), ("S", 1)]
    # let and rlet contribute their call argument before their binder
    prog = parse_program("f x =: case x of { C(y) -> rlet D = g E(y) in let A = g B in F }")
    assert vocabulary(prog) == [("C", 1), ("E", 1), ("D", 0), ("B", 0), ("A", 0), ("F", 0)]


def test_vocabulary_always_has_a_nullary():
    prog = load_program("iseq.rfun")
    vocab = vocabulary(prog)
    assert any(arity == 0 for _, arity in vocab)


def test_gen_value_grounds_out():
    prog = load_program("iseq.rfun")
    vocab = vocabulary(prog)
    rng = random.Random(1)
    for _ in range(50):
        gen_value(rng, vocab, 4)   # must not raise


def test_check_plus_has_no_mismatches():
    prog = load_program("arith.rfun")
    report = check_program(prog, "plus", samples=50, seed=11)
    assert report["mismatches"] == 0
    assert len(report["cases"]) == 50
    statuses = {c["opsem"]["status"] for c in report["cases"]}
    assert "value" in statuses       # the sampler does hit the domain


def test_check_zero_samples_is_empty_and_clean():
    prog = load_program("arith.rfun")
    report = check_program(prog, "plus", samples=0, seed=5)
    assert report["cases"] == [] and report["mismatches"] == 0


def test_check_report_is_seed_deterministic():
    prog = load_program("arith.rfun")
    a = check_program(prog, samples=25, seed=3)
    b = check_program(prog, samples=25, seed=3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = check_program(prog, samples=25, seed=4)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_check_covers_all_functions_without_entry():
    prog = load_program("arith.rfun")
    report = check_program(prog, samples=10, seed=0)
    assert [r["entry"] for r in report["reports"]] == ["plus", "fib"]
    assert report["mismatches"] == 0


def test_violating_program_agrees_on_violation():
    prog = load_program("bad_first_match.rfun")
    report = check_program(prog, "bad", samples=60, seed=2, depth=3)
    kinds = {(c["opsem"]["status"], c["densem"]["status"])
             for c in report["cases"]}
    assert ("violation", "violation") in kinds
    assert report["mismatches"] == 0


def test_divergent_program_agrees_on_out_of_fuel():
    prog = load_program("loop.rfun")
    report = check_program(prog, "loop", samples=5, seed=1,
                           fuel=500, depth=2)
    assert report["mismatches"] == 0
    assert all(c["opsem"]["status"] == "out-of-fuel" for c in report["cases"])


def test_check_program_rejects_an_unknown_entry():
    prog = load_program("arith.rfun")
    for samples in (0, 5):
        with pytest.raises(UnknownFunction, match="'nope'"):
            check_program(prog, "nope", samples=samples)


def test_check_program_takes_a_second_fuel_only_when_it_is_the_same():
    prog = load_program("loop.rfun")
    args = (prog, None, 3, 1, 50)
    report = check_program(*args)
    assert report["fuel"] == 50
    assert check_program(*args, 50) == report
    with pytest.raises(ValueError):
        check_program(*args, 60)


def test_outcomes_agree_mapping():
    assert outcomes_agree({"status": "no-match"}, {"status": "undefined"})
    assert outcomes_agree({"status": "value", "value": "Z"},
                          {"status": "value", "value": "Z"})
    assert not outcomes_agree({"status": "value", "value": "Z"},
                              {"status": "value", "value": "S(Z)"})
    assert not outcomes_agree({"status": "no-match"}, {"status": "out-of-fuel"})


def test_corpus_check_across_programs():
    for name, entries in (("mirror.rfun", ["mirror"]),
                          ("iseq.rfun", ["dup", "iseq"]),
                          ("id.rfun", ["f"]),
                          ("extra.rfun", ["plus", "sub", "subsnd", "swapc",
                                          "bounce", "bounce'"])):
        prog = load_program(name)
        report = check_program(prog, samples=25, seed=6)
        assert [r["entry"] for r in report["reports"]] == entries, name
        assert report["mismatches"] == 0, name


def test_opsem_outcome_shape():
    prog = load_program("arith.rfun")
    from helpers import peano
    from rfun.values import tup
    out = opsem_outcome(prog, "plus", tup(peano(0), peano(1)), 100)
    assert out == {"status": "value", "value": "<Z, S(Z)>"}


# Per fixture, the first-match checks (one per case, direction and pair of
# an arm and an earlier arm) whose left expressions clash.  In arith, plus
# keeps its forward check (<x', S(u')> against |_ <x> _|) and discharges its
# backward one (<x, S(u)> against <x, Z>); so does fib (z against
# <S(Z), S(Z)>; S(m) against Z).  mirror discharges both.
DISCHARGED = {"arith": 2, "arith_inv": 2, "bad_first_match": 1, "extra": 5, "id": 0,
              "iseq": 1, "loop": 0, "mirror": 2, "plus_sugared": 1}


def test_both_semantics_discharge_the_same_checks_on_every_fixture():
    # Each semantics derives its table from the program on its own.
    paths = sorted(FIXTURES.glob("*.rfun"))
    assert [p.stem for p in paths] == sorted(DISCHARGED)
    for path in paths:
        prog = load_program(path.name)
        assert opsem.discharged(prog) == densem.discharged(prog) == DISCHARGED[path.stem]
        assert check_program(prog, samples=0)["discharged"] == {
            "opsem": DISCHARGED[path.stem], "densem": DISCHARGED[path.stem]}
    prog = load_program("mirror.rfun")
    assert check_program(prog, "mirror", samples=0)["discharged"]["opsem"] == 2


def test_violation_messages_on_the_fixtures():
    # Skipping checks that can never fire leaves the first check that does
    # fire, and so every message, as it was.
    bad, iseq = load_program("bad_first_match.rfun"), load_program("iseq.rfun")
    tbl = SymbolTable.from_program(bad)
    v = parse_value("S(Z)")
    assert opsem_outcome(bad, "bad", v, 100)["detail"] == (
        "case result matches a leaf of an earlier branch: A vs pattern at (6, 10)")
    assert densem_outcome(function_morphism(bad, "bad", tbl), v, tbl, 100)["detail"] == (
        "case result of arm 1 matches a leaf of arm 0")
    tbl = SymbolTable.from_program(iseq)
    v = parse_value("Diff(<>, <>)")
    with pytest.raises(FirstMatchViolation) as exc:
        opsem.apply_backward(iseq, "iseq", v)
    assert str(exc.value) == ("backward case input matches an earlier branch pattern: "
                              "<<>, <>> vs pattern at (7, 5)")
    morph = dagger(function_morphism(iseq, "iseq", tbl))
    assert densem_outcome(morph, v, tbl, 100)["detail"] == (
        "case input recovered by arm 1 matches the pattern of arm 0")


def _wrong(r):
    """A wrong interned value in place of a value result r."""
    return tup(r) if isinstance(r, Value) else r


def test_a_wrong_decoded_value_is_a_mismatch(monkeypatch):
    prog = load_program("arith.rfun")
    honest = check_program(prog, samples=30, seed=4)
    values = sum(c["densem"]["status"] == "value"
                 for r in honest["reports"] for c in r["cases"])
    assert honest["mismatches"] == 0 and values > 0
    decode = densem.decode_value
    monkeypatch.setattr(densem, "decode_value", lambda e, tbl: _wrong(decode(e, tbl)))
    assert check_program(prog, samples=30, seed=4)["mismatches"] == values


def test_a_wrong_interpreter_value_is_a_mismatch(monkeypatch):
    prog = load_program("arith.rfun")
    honest = check_program(prog, samples=30, seed=4)
    values = sum(c["opsem"]["status"] == "value"
                 for r in honest["reports"] for c in r["cases"])
    assert values > 0
    run = harness.apply_forward
    monkeypatch.setattr(harness, "apply_forward", lambda *args: _wrong(run(*args)))
    assert check_program(prog, samples=30, seed=4)["mismatches"] == values
    assert check_program(prog, "plus", samples=30, seed=4)["mismatches"] > 0


def test_one_report_whichever_way_a_definition_is_checked():
    for path in sorted(FIXTURES.glob("*.rfun")):
        prog = load_program(path.name)
        whole = check_program(prog, None, 20, 3, 200)
        for d, report in zip(prog.defs, whole["reports"]):
            alone = check_program(prog, d.name, 20, 3, 200)
            assert alone.pop("discharged") == whole["discharged"]
            assert json.dumps(alone, sort_keys=True) == json.dumps(report, sort_keys=True), (
                path.name, d.name)
