"""Differential testing on randomly generated programs and on the corpus.

Programs are built from random linear left expressions: multi-branch cases
whose bodies reshuffle the pattern variables, wrap them in constructors,
route them through the duplication/equality operator, or pipe them through
let/rlet calls to a sibling function.  Every statically valid program is
run through the interpreter and the denotation on random inputs, forward
and backward.

Generated programs may violate the symmetric first-match policy at run
time.  Both semantics follow that policy in both directions: where the
interpreter raises FirstMatchViolation, the denotation's case raises
IncompatibleJoin.  So every case must agree exactly, forward and backward:
equal values, no-match with undefined, violation with violation.

Both semantics meter fuel as the depth of nested calls, so at equal fuel
out-of-fuel agrees with out-of-fuel too.  Generated programs recurse too
little to run out, so the corpus, run on a ladder of small fuels, checks
that part of the relation.
"""
from __future__ import annotations

import random

import pytest

from rfun import densem, opsem
from rfun.densem import SymbolTable, function_morphism, run_denotation, sem_program
from rfun.harness import vocabulary
from rfun.invcat import NO_FUEL, UNDEF, IncompatibleJoin, dagger
from rfun.opsem import (
    NO_MATCH, OUT_OF_FUEL, FirstMatchViolation, apply_backward, apply_forward,
)
from rfun.syntax import (
    Def, ECase, ELeaf, ELet, LCtor, LDup, LVar, Program, check_static,
    render_program,
)
from rfun.values import TUPLE, Value

from helpers import FIXTURES, load_program, random_value

FUEL = 3_000
FUEL_LADDER = (0, 1, 2, 3, 5, 8, 13, 40)

CTOR_POOL = [("Z", 0), ("A", 0), ("S", 1), ("W", 1), ("P", 2), (TUPLE, 1),
             (TUPLE, 2)]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def gen_linear_left(rng: random.Random, vs: list[str], depth: int):
    """A left expression using exactly the variables vs, each once."""
    if depth <= 0:
        if not vs:
            return LCtor(rng.choice(["Z", "A"]))
        if len(vs) == 1:
            return LVar(vs[0])
        return LCtor(TUPLE, tuple(LVar(v) for v in vs))
    roll = rng.random()
    if vs and roll < 0.3:
        if len(vs) == 1:
            return LVar(vs[0])
        return LCtor(TUPLE, tuple(LVar(v) for v in vs))
    if roll < 0.45:
        # duplication/equality over a 1- or 2-tuple
        if rng.random() < 0.5 or len(vs) < 2:
            inner = LCtor(TUPLE, (gen_linear_left(rng, vs, depth - 1),))
        else:
            cut = rng.randrange(1, len(vs))
            inner = LCtor(TUPLE, (gen_linear_left(rng, vs[:cut], depth - 1),
                                  gen_linear_left(rng, vs[cut:], depth - 1)))
        return LDup(inner)
    ctor, arity = rng.choice([ca for ca in CTOR_POOL if ca[1] > 0 or not vs])
    if arity == 0:
        return LCtor(ctor)
    cuts = sorted(rng.randrange(len(vs) + 1) for _ in range(arity - 1))
    pieces = []
    prev = 0
    for c in list(cuts) + [len(vs)]:
        pieces.append(vs[prev:c])
        prev = c
    return LCtor(ctor, tuple(gen_linear_left(rng, piece, depth - 1)
                             for piece in pieces))


def gen_case_body(rng: random.Random, vs: list[str], depth: int,
                  callee: str | None):
    """An expression consuming exactly vs, optionally calling callee."""
    shuffled = list(vs)
    rng.shuffle(shuffled)
    if callee and vs and rng.random() < 0.5:
        cut = rng.randrange(len(shuffled) + 1)
        through, kept = shuffled[:cut], shuffled[cut:]
        arg = gen_linear_left(rng, through, 1)
        fresh = [f"w{i}" for i in range(rng.randrange(1, 3))]
        bound = gen_linear_left(rng, list(fresh), 1)
        leaf = gen_linear_left(rng, kept + fresh, depth)
        if rng.random() < 0.5:
            return ELet(bound, callee, arg, ELeaf(leaf))
        # rlet consumes its bound side and binds the argument pattern
        return ELet(arg, callee, bound, ELeaf(leaf), backward=True)
    return ELeaf(gen_linear_left(rng, shuffled, depth))


def gen_program(rng: random.Random) -> Program:
    base_branches = []
    for pat_vars in (["a"], ["a", "b"]):
        pat = gen_linear_left(rng, list(pat_vars), 2)
        body = gen_case_body(rng, list(pat_vars), 2, None)
        base_branches.append((pat, body))
    base = Def("base", "x", ECase(LVar("x"), tuple(base_branches)))

    main_branches = []
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(0, 3)
        pat_vars = [f"v{i}" for i in range(k)]
        pat = gen_linear_left(rng, list(pat_vars), 2)
        body = gen_case_body(rng, list(pat_vars), 2, "base")
        main_branches.append((pat, body))
    main = Def("main", "x", ECase(LVar("x"), tuple(main_branches)))
    return Program((base, main))


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

def op_outcome(prog, fname, v, backward=False, fuel=FUEL):
    apply = apply_backward if backward else apply_forward
    try:
        return apply(prog, fname, v, fuel)
    except FirstMatchViolation:
        return "violation"


def den_outcome(morph, v, tbl, backward=False, fuel=FUEL):
    try:
        return run_denotation(dagger(morph) if backward else morph, v, tbl,
                              fuel)
    except IncompatibleJoin:
        return "violation"


def is_violation(x) -> bool:
    return x == "violation"


def strict_agree(op, den) -> bool:
    if op is NO_MATCH:
        return den is UNDEF
    if op is OUT_OF_FUEL:
        return den is NO_FUEL
    if isinstance(op, Value):
        return den == op
    return is_violation(op) and is_violation(den)


# ---------------------------------------------------------------------------
# The differential run
# ---------------------------------------------------------------------------

def differential_runs(seed: int, programs: int = 25):
    """(program, function, input, backward?, interpreter outcome, denotation
    outcome) on 12 inputs per function of each of programs generated
    programs, both ways."""
    rng = random.Random(0xD1FF + seed)
    while programs:
        prog = gen_program(rng)
        if check_static(prog):
            continue
        programs -= 1
        vocab = vocabulary(prog)
        tbl = SymbolTable.from_program(prog)
        pm = sem_program(prog, tbl)
        for d in prog.defs:
            morph = function_morphism(prog, d.name, tbl, pm)
            for _ in range(12):
                v = random_value(rng, vocab, 4)
                for backward in (False, True):
                    yield (prog, d.name, v, backward, op_outcome(prog, d.name, v, backward),
                           den_outcome(morph, v, tbl, backward))


@pytest.mark.parametrize("seed", range(8))
def test_random_programs_agree_both_ways(seed):
    checks = violations = 0
    for prog, fname, v, backward, op, den in differential_runs(seed):
        assert strict_agree(op, den), (
            f"{'backward' if backward else 'forward'} disagreement "
            f"on {fname}: {op!r} vs {den!r}\ninput {v!r}\n"
            f"program:\n{render_program(prog)}")
        checks += 1
        violations += is_violation(op)
    # the test must keep teeth: many cases, and the policy exercised
    assert checks >= 300, checks
    assert violations >= 1, violations


@pytest.mark.parametrize("semantics", ["opsem", "densem"])
def test_an_unsound_discharge_shows(monkeypatch, semantics):
    # Each semantics skips the first-match checks that its own clash test
    # proves can never fire.  A clash test that calls every pair disjoint
    # skips them all; the differential run and bad_first_match must see it.
    if semantics == "opsem":
        monkeypatch.setattr(opsem, "_apart", lambda a, b: True)
    else:
        monkeypatch.setattr(densem, "_clash", lambda a, b: True)
    prog = load_program("bad_first_match.rfun")
    tbl = SymbolTable.from_program(prog)
    v = Value("S", (Value("Z"),))
    op, den = op_outcome(prog, "bad", v), den_outcome(function_morphism(prog, "bad", tbl), v, tbl)
    assert {op, den} == {"violation", Value("A")}
    for seed in range(8):
        if any(not strict_agree(op, den) for *_, op, den in differential_runs(seed)):
            break
    else:
        pytest.fail("no generated program shows the unsound discharge")


def test_corpus_agrees_exactly_on_a_fuel_ladder():
    rng = random.Random(0xF0E1)
    fuel_outs = values = 0
    for path in sorted(FIXTURES.glob("*.rfun")):
        prog = load_program(path.name)
        vocab = vocabulary(prog)
        tbl = SymbolTable.from_program(prog)
        pm = sem_program(prog, tbl)
        for d in prog.defs:
            morph = function_morphism(prog, d.name, tbl, pm)
            for _ in range(60):
                v = random_value(rng, vocab, 4)
                for fuel in FUEL_LADDER:
                    for backward in (False, True):
                        op = op_outcome(prog, d.name, v, backward, fuel)
                        den = den_outcome(morph, v, tbl, backward, fuel)
                        assert strict_agree(op, den), (
                            f"{path.name} {d.name} "
                            f"{'backward' if backward else 'forward'} at fuel "
                            f"{fuel} on {v!r}: {op!r} vs {den!r}")
                        fuel_outs += op is OUT_OF_FUEL
                        values += isinstance(op, Value)
    # the test must keep teeth: both kinds of outcome, many times over
    assert fuel_outs >= 1000, fuel_outs
    assert values >= 1000, values


def test_generated_left_expressions_are_linear():
    rng = random.Random(7)
    from rfun.syntax import lvars
    for _ in range(300):
        k = rng.randrange(0, 4)
        vs = [f"v{i}" for i in range(k)]
        l = gen_linear_left(rng, list(vs), 3)
        assert lvars(l) == vs or sorted(lvars(l)) == sorted(vs)
        assert len(lvars(l)) == len(set(lvars(l)))
