import random

import pytest

from rfun.opsem import (
    NO_MATCH, OUT_OF_FUEL, FirstMatchViolation, SubstitutionError,
    UnknownFunction, apply_backward, apply_forward, eval_expr, instantiate,
    match_pattern,
)
from rfun.syntax import ELeaf, LCtor, LDup, LVar, StaticError, parse_program
from rfun.values import TUPLE, Value, tup, val

from helpers import ARITH_VOCAB, fib_pair, load_program, peano, random_value, unpeano

Z = val("Z")
SZ = val("S", Z)


# ---------------------------------------------------------------------------
# instantiate / match_pattern
# ---------------------------------------------------------------------------

def test_instantiate_constructor():
    assert instantiate({"x": Z}, LCtor("S", (LVar("x"),))) == SZ


def test_instantiate_variable():
    v = tup(SZ, Z)
    assert instantiate({"x": v}, LVar("x")) == v


def test_instantiate_dupeq():
    l = LDup(LCtor(TUPLE, (LVar("x"),)))
    assert instantiate({"x": Z}, l) == tup(Z, Z)


def test_instantiate_dupeq_undefined():
    l = LDup(LCtor(TUPLE, (LVar("a"), LVar("b"), LVar("c"))))
    assert instantiate({"a": Z, "b": Z, "c": Z}, l) is None


def test_instantiate_domain_must_match():
    with pytest.raises(SubstitutionError):
        instantiate({}, LVar("x"))
    with pytest.raises(SubstitutionError):
        instantiate({"x": Z, "y": Z}, LVar("x"))


def test_match_inverts_instantiate():
    assert match_pattern(SZ, LCtor("S", (LVar("u"),))) == {"u": Z}


def test_match_constructor_mismatch():
    assert match_pattern(Z, LCtor("S", (LVar("u"),))) is None


def test_match_through_dupeq():
    assert match_pattern(tup(Z, Z), LDup(LCtor(TUPLE, (LVar("x"),)))) == {"x": Z}
    assert match_pattern(tup(Z, SZ), LDup(LCtor(TUPLE, (LVar("x"),)))) is None


def test_match_instantiate_galois_seeded():
    rng = random.Random(11)
    patterns = [
        LCtor("S", (LVar("a"),)),
        LCtor(TUPLE, (LVar("a"), LVar("b"))),
        LDup(LCtor(TUPLE, (LVar("a"),))),
        LCtor("Node", (LVar("a"), LCtor("S", (LVar("b"),)))),
    ]
    for _ in range(300):
        v = random_value(rng, ARITH_VOCAB + [("Node", 2)], 4)
        for l in patterns:
            sigma = match_pattern(v, l)
            if sigma is not None:
                assert instantiate(sigma, l) == v


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------

def test_plus_forward_example():
    p = load_program("arith.rfun")
    assert apply_forward(p, "plus", tup(peano(1), peano(1))) == tup(peano(1), peano(2))


def test_plus_against_arithmetic_oracle():
    p = load_program("arith.rfun")
    for m in range(6):
        for n in range(6):
            r = apply_forward(p, "plus", tup(peano(m), peano(n)))
            assert isinstance(r, Value)
            a, b = r.args
            assert (unpeano(a), unpeano(b)) == (m, m + n)


def test_fib_base_case():
    p = load_program("arith.rfun")
    assert apply_forward(p, "fib", Z) == tup(peano(1), peano(1))


def test_fib_against_oracle():
    p = load_program("arith.rfun")
    r = apply_forward(p, "fib", peano(4))
    assert r == tup(peano(5), peano(8))
    assert fib_pair(4) == (5, 8)


def test_eval_expr_direct():
    p = load_program("id.rfun")
    assert eval_expr(p, {"w": SZ}, ELeaf(LVar("w"))) == SZ


def test_statically_invalid_input_raises_before_running():
    twice = parse_program("f x =: <x, x>")          # x used twice
    with pytest.raises(StaticError):
        apply_forward(twice, "f", Z)
    with pytest.raises(StaticError):
        apply_backward(twice, "f", tup(Z, Z))
    with pytest.raises(StaticError):
        eval_expr(twice, {"w": Z}, ELeaf(LVar("w")))
    valid = load_program("id.rfun")
    with pytest.raises(StaticError):                # y is never used
        eval_expr(valid, {"x": Z, "y": Z}, ELeaf(LVar("x")))


def test_no_match_on_non_numeral():
    p = load_program("arith.rfun")
    assert apply_forward(p, "fib", val("Q")) is NO_MATCH
    assert apply_forward(p, "plus", tup(Z, val("Q"))) is NO_MATCH


def test_unknown_function():
    p = load_program("id.rfun")
    with pytest.raises(UnknownFunction):
        apply_forward(p, "nope", Z)


def test_out_of_fuel_on_divergence():
    p = load_program("loop.rfun")
    for fuel in (0, 1, 10, 1000):
        assert apply_forward(p, "loop", Z, fuel=fuel) is OUT_OF_FUEL


def test_fuel_counts_applications():
    p = load_program("arith.rfun")
    # plus <2, n> needs n recursive calls below the root application
    v = tup(peano(2), peano(5))
    assert apply_forward(p, "plus", v, fuel=4) is OUT_OF_FUEL
    assert isinstance(apply_forward(p, "plus", v, fuel=5), Value)


# ---------------------------------------------------------------------------
# Backward evaluation
# ---------------------------------------------------------------------------

def test_plus_backward_example():
    p = load_program("arith.rfun")
    assert apply_backward(p, "plus", tup(peano(1), peano(2))) == tup(peano(1), peano(1))


def test_fib_backward_example():
    p = load_program("arith.rfun")
    assert apply_backward(p, "fib", tup(peano(1), peano(1))) == Z


def test_plus_backward_no_match():
    p = load_program("arith.rfun")
    assert apply_backward(p, "plus", Z) is NO_MATCH


def test_backward_of_rlet():
    # sub runs plus backward through an rlet; inverting sub runs plus forward
    p = parse_program(
        "plus p =: case p of { <x, Z> -> |_ <x> _|;"
        " <x, S(u)> -> let <x', u'> = plus <x, u> in <x', S(u')> };"
        "sub q =: rlet q = plus r in r"
    )
    r = apply_forward(p, "sub", tup(peano(2), peano(5)))
    assert r == tup(peano(2), peano(3))
    assert apply_backward(p, "sub", tup(peano(2), peano(3))) == tup(peano(2), peano(5))


def test_roundtrip_seeded_random_inputs():
    p = load_program("arith.rfun")
    rng = random.Random(99)
    hits = 0
    for _ in range(150):
        v = random_value(rng, ARITH_VOCAB, 5)
        for fname in ("plus", "fib"):
            w = apply_forward(p, fname, v)
            if isinstance(w, Value):
                hits += 1
                assert apply_backward(p, fname, w) == v
    assert hits > 10


def test_backward_forward_roundtrip_mirror():
    p = load_program("mirror.rfun")
    rng = random.Random(5)
    for _ in range(100):
        v = random_value(rng, [("Tip", 0), ("Node", 2)], 5)
        w = apply_forward(p, "mirror", v)
        assert isinstance(w, Value)
        assert apply_forward(p, "mirror", w) == v          # involution
        assert apply_backward(p, "mirror", w) == v


def test_first_match_violation_forward():
    p = load_program("bad_first_match.rfun")
    assert apply_forward(p, "bad", Z) == val("A")
    with pytest.raises(FirstMatchViolation):
        apply_forward(p, "bad", peano(1))


def test_first_match_violation_backward():
    p = load_program("iseq.rfun")
    # Diff(u, u) is not in iseq's image; its backward run must be flagged
    with pytest.raises(FirstMatchViolation):
        apply_backward(p, "iseq", val("Diff", Z, Z))
    assert apply_backward(p, "iseq", val("Diff", Z, SZ)) == tup(Z, SZ)
    assert apply_backward(p, "iseq", val("Same", SZ)) == tup(SZ, SZ)


def test_iseq_forward():
    p = load_program("iseq.rfun")
    assert apply_forward(p, "iseq", tup(Z, Z)) == val("Same", Z)
    assert apply_forward(p, "iseq", tup(Z, SZ)) == val("Diff", Z, SZ)
    assert apply_forward(p, "iseq", tup(Z)) is NO_MATCH


def test_determinism():
    p = load_program("arith.rfun")
    v = tup(peano(3), peano(2))
    assert apply_forward(p, "plus", v) == apply_forward(p, "plus", v)


def test_fuel_monotone_seeded():
    p = load_program("arith.rfun")
    rng = random.Random(3)
    for _ in range(60):
        v = random_value(rng, ARITH_VOCAB, 5)
        base = apply_forward(p, "plus", v, fuel=8)
        if base is not OUT_OF_FUEL:
            for fuel in (16, 32, 1000):
                assert apply_forward(p, "plus", v, fuel=fuel) == base


def test_deep_recursion_uses_heap_not_stack():
    p = load_program("arith.rfun")
    r = apply_forward(p, "plus", tup(peano(1), peano(3000)), fuel=5000)
    assert isinstance(r, Value)
    assert unpeano(r.args[1]) == 3001
