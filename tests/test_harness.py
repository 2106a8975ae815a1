import json

from rfun.harness import (
    check_function, check_program, gen_value, opsem_outcome, outcomes_agree,
    vocabulary,
)
from rfun.syntax import parse_program
from rfun.values import TUPLE

from helpers import load_program

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
    report = check_function(prog, "plus", samples=50, seed=11)
    assert report["mismatches"] == 0
    assert len(report["cases"]) == 50
    statuses = {c["opsem"]["status"] for c in report["cases"]}
    assert "value" in statuses       # the sampler does hit the domain


def test_check_zero_samples_is_empty_and_clean():
    prog = load_program("arith.rfun")
    report = check_function(prog, "plus", samples=0, seed=5)
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
    report = check_function(prog, "bad", samples=60, seed=2, depth=3)
    kinds = {(c["opsem"]["status"], c["densem"]["status"])
             for c in report["cases"]}
    assert ("violation", "violation") in kinds
    assert report["mismatches"] == 0


def test_divergent_program_agrees_on_out_of_fuel():
    prog = load_program("loop.rfun")
    report = check_function(prog, "loop", samples=5, seed=1,
                            op_fuel=500, den_fuel=500, depth=2)
    assert report["mismatches"] == 0
    assert all(c["opsem"]["status"] == "out-of-fuel" for c in report["cases"])


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
