import copy
import pickle
import random

import pytest

from rfun import invcat, opsem
from rfun.densem import SymbolTable, function_morphism, run_denotation
from rfun.harness import check_program
from rfun.opsem import (
    NO_MATCH, OUT_OF_FUEL, FirstMatchViolation, SubstitutionError,
    UnknownFunction, apply_backward, apply_forward, eval_expr, instantiate,
    match_pattern,
)
from rfun.syntax import ELeaf, LCtor, LDup, LVar, StaticError, parse_program
from rfun.values import TUPLE, Value, tup, val

from helpers import (
    ARITH_VOCAB, fib_pair, load_program, no_recursion, peano, random_value,
    unpeano,
)

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


def test_instantiate_and_match_reject_a_non_linear_left_expression():
    twice = LCtor(TUPLE, (LVar("x"), LVar("x")))
    with pytest.raises(SubstitutionError, match="non-linear"):
        instantiate({"x": Z}, twice)
    with pytest.raises(SubstitutionError, match="non-linear"):
        match_pattern(tup(Z, Z), twice)


def test_match_inverts_instantiate():
    assert match_pattern(SZ, LCtor("S", (LVar("u"),))) == {"u": Z}


def test_match_constructor_mismatch():
    assert match_pattern(Z, LCtor("S", (LVar("u"),))) is None


def test_match_through_dupeq():
    assert match_pattern(tup(Z, Z), LDup(LCtor(TUPLE, (LVar("x"),)))) == {"x": Z}
    assert match_pattern(tup(Z, SZ), LDup(LCtor(TUPLE, (LVar("x"),)))) is None


def test_deep_left_expression_builds_and_matches_without_recursion():
    l = LVar("x")
    for _ in range(5000):
        l = LCtor("S", (l,))
    assert no_recursion(instantiate, {"x": Z}, l) == peano(5000)
    assert no_recursion(match_pattern, peano(5001), l) == {"x": SZ}
    assert no_recursion(match_pattern, peano(4999), l) is None


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


def _body(text):
    """The body of the one definition in text, whose cases have no arms yet."""
    return parse_program(text).defs[0].body


def test_eval_expr_runs_a_let_and_a_case():
    # Neither case is under a definition of p, so eval_expr derives its arms.
    p = load_program("arith.rfun")
    step = _body("g n =: let p = fib n in case p of { <x, y> -> let q = plus <y, x> in q }")
    assert "arms" not in step.body.__dict__
    for n in range(4):          # one step of fib: fib(n + 1) from fib n
        assert eval_expr(p, {"n": peano(n)}, step) == apply_forward(p, "fib", peano(n + 1))
    assert "arms" in step.body.__dict__
    assert eval_expr(p, {"n": val("Q")}, step) is NO_MATCH
    # The second arm's leaf is checked against the first arm's: its derived leaves.
    clash = _body("g n =: let p = plus n in case p of { <x, Z> -> L(x); <x, S(y)> -> L(<x, y>) }")
    assert eval_expr(p, {"n": tup(Z, Z)}, clash) == val("L", Z)
    with pytest.raises(FirstMatchViolation):
        eval_expr(p, {"n": tup(Z, SZ)}, clash)


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


def test_outcomes_are_the_categorys_own():
    assert NO_MATCH is invcat.UNDEF
    assert OUT_OF_FUEL is invcat.NO_FUEL


# |_x_| on A is outside the operator's domain: each site where a call or a
# case consumes a value gives no match, in both semantics.
_ID = "g y =: y; "
_DUPEQ_SITES = {
    "leaf": ("f x =: |_ x _|", True),
    "let argument": (_ID + "f x =: let z = g |_ x _| in z", True),
    "rlet bound side": (_ID + "f x =: rlet |_ x _| = g z in z", True),
    "case scrutinee": ("f x =: case |_ x _| of { y -> y }", True),
    "let binder": (_ID + "f x =: let |_ z _| = g x in z", False),
    "rlet argument": (_ID + "f x =: rlet x = g |_ z _| in z", False),
    "case pattern": ("f x =: case x of { |_ y _| -> y }", False),
}


@pytest.mark.parametrize("site", _DUPEQ_SITES)
def test_dupeq_outside_its_domain_is_no_match(site):
    src, forward = _DUPEQ_SITES[site]
    p = parse_program(src)
    a = val("A")
    tbl = SymbolTable.from_program(p, ["A"])
    m = function_morphism(p, "f", tbl)
    if forward:
        assert apply_forward(p, "f", a) is NO_MATCH
        assert run_denotation(m, a, tbl) is invcat.UNDEF
    else:
        assert apply_backward(p, "f", a) is NO_MATCH
        assert run_denotation(invcat.dagger(m), a, tbl) is invcat.UNDEF


def test_unknown_function():
    p = load_program("id.rfun")
    with pytest.raises(UnknownFunction):
        apply_forward(p, "nope", Z)


def test_out_of_fuel_on_divergence():
    p = load_program("loop.rfun")
    for fuel in (0, 1, 10, 1000):
        assert apply_forward(p, "loop", Z, fuel=fuel) is OUT_OF_FUEL


def test_fuel_bounds_linear_recursion_depth():
    p = load_program("arith.rfun")
    # plus <2, n> nests n recursive calls below the root application
    v = tup(peano(2), peano(5))
    assert apply_forward(p, "plus", v, fuel=4) is OUT_OF_FUEL
    assert isinstance(apply_forward(p, "plus", v, fuel=5), Value)


def test_fuel_bounds_call_depth_not_call_count():
    # fib S(S(Z)) makes six calls below the root, nested at most three deep
    # (fib S(Z), then plus <S(Z), S(Z)>, then plus <S(Z), Z>): it needs
    # fuel 3, in both semantics and both directions.
    p = load_program("arith.rfun")
    tbl = SymbolTable.from_program(p)
    m = function_morphism(p, "fib", tbl)
    n, out = peano(2), tup(peano(2), peano(3))
    assert apply_forward(p, "fib", n, fuel=4) == out
    for fuel, want_fwd, want_bwd in ((2, OUT_OF_FUEL, OUT_OF_FUEL), (3, out, n)):
        assert apply_forward(p, "fib", n, fuel=fuel) == want_fwd
        assert run_denotation(m, n, tbl, fuel) == want_fwd
        assert apply_backward(p, "fib", out, fuel=fuel) == want_bwd
        assert run_denotation(invcat.dagger(m), out, tbl, fuel) == want_bwd


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


# sub runs plus backward through an rlet; inverting sub runs plus forward
RLET = ("plus p =: case p of { <x, Z> -> |_ <x> _|;"
        " <x, S(u)> -> let <x', u'> = plus <x, u> in <x', S(u')> };"
        "sub q =: rlet q = plus r in r")


def test_backward_of_rlet():
    p = parse_program(RLET)
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
    r = no_recursion(apply_forward, p, "plus", tup(peano(1), peano(3000)), fuel=5000)
    assert isinstance(r, Value)
    assert unpeano(r.args[1]) == 3001


def test_deep_leaf_runs_both_ways_without_recursion():
    leaf = "S(" * 5000 + "Z" + ")" * 5000
    p = parse_program(f"f x =: case x of {{ Z -> {leaf}; S(y) -> S(y) }}")
    assert no_recursion(apply_forward, p, "f", Z) == peano(5000)
    assert no_recursion(apply_backward, p, "f", peano(5000)) == Z
    assert no_recursion(apply_backward, p, "f", SZ) == SZ


def test_a_name_bound_again_reuses_its_slot():
    # x is consumed and bound again three times; each binding reuses x's slot.
    p = parse_program("id x =: x; g x =: let x = id x in"
                      " case x of { S(x) -> let x = id x in S(x); Z -> Z }")
    for v in (Z, peano(2)):
        assert apply_forward(p, "g", v) == v
        assert apply_backward(p, "g", v) == v


def test_deep_backward_recursion_uses_heap_not_stack():
    p = load_program("arith.rfun")
    v = tup(peano(1), peano(3001))
    assert no_recursion(apply_backward, p, "plus", v, fuel=2999) is OUT_OF_FUEL
    r = no_recursion(apply_backward, p, "plus", v, fuel=3000)
    assert r == tup(peano(1), peano(3000))


def _least_fuel(run):
    fuel = 0
    while run(fuel) is OUT_OF_FUEL:
        fuel += 1
    return fuel


def test_least_fuel_of_fib_both_ways():
    # fib n nests its deepest call chain through plus, so the least fuel
    # grows with the Fibonacci numbers; backward needs exactly as much.
    p = load_program("arith.rfun")
    want = [0, 2, 3, 4, 5, 6, 9, 14, 22]
    for n, least in enumerate(want):
        out = apply_forward(p, "fib", peano(n))
        assert _least_fuel(lambda f: apply_forward(p, "fib", peano(n), fuel=f)) == least
        assert _least_fuel(lambda f: apply_backward(p, "fib", out, fuel=f)) == least


def test_least_fuel_of_rlet_both_ways():
    p = parse_program(RLET)
    u, v = tup(peano(2), peano(5)), tup(peano(2), peano(3))
    assert _least_fuel(lambda f: apply_forward(p, "sub", u, fuel=f)) == 4
    assert _least_fuel(lambda f: apply_backward(p, "sub", v, fuel=f)) == 4


def test_nested_cases_run_both_ways_from_a_few_shared_texts():
    # 5,000 nested one-branch cases: each case's code is generated from the
    # same few texts, which differ only in the slots and constructors passed
    # as defaults, so compiling them compiles a constant number of texts.
    n = 5000
    src = ("f x0 =: " + "".join(f"case x{i} of {{ S(x{i + 1}) -> " for i in range(n))
           + f"x{n}" + " }" * n)
    invcat._code.cache_clear()
    p = parse_program(src)
    assert no_recursion(apply_forward, p, "f", peano(n + 1)) == SZ
    assert no_recursion(apply_backward, p, "f", SZ) == peano(n + 1)
    assert apply_forward(p, "f", peano(n - 1)) is NO_MATCH
    assert invcat._code.cache_info().currsize <= 10


def test_apart_left_expressions_clash_on_a_constructor_or_an_arity():
    S, Zl = (lambda a: LCtor("S", (a,))), LCtor("Z")
    x, y = LVar("x"), LVar("y")
    assert opsem._apart(Zl, S(x))
    assert opsem._apart(S(Zl), S(S(y)))
    assert opsem._apart(LCtor(TUPLE, (x,)), LCtor(TUPLE, (x, y)))   # arity
    assert not opsem._apart(S(x), S(S(y)))
    assert not opsem._apart(x, Zl)
    # |_ _| may give any value
    assert not opsem._apart(LDup(LCtor(TUPLE, (x,))), Zl)
    assert not opsem._apart(S(LDup(LCtor(TUPLE, (x,)))), S(Zl))


def test_a_kept_check_still_fires_beside_discharged_ones():
    # Of the six checks only one is kept: arm 2's result against arm 0's
    # leaf W(v).  Every other pair of leaves, and every pair of patterns,
    # clashes.
    p = parse_program("h x =: case x of { S(S(v)) -> W(v); S(Z) -> B; Z -> W(Z) }")
    assert opsem.discharged(p) == 5
    with pytest.raises(FirstMatchViolation) as exc:
        apply_forward(p, "h", Z)
    assert str(exc.value) == ("case result matches a leaf of an earlier branch: "
                              "W(Z) vs pattern at (1, 31)")
    assert apply_backward(p, "h", val("B")) == SZ
    assert apply_backward(p, "h", val("W", Z)) == val("S", SZ)


# ---------------------------------------------------------------------------
# Copies and pickles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("outcome", [NO_MATCH, OUT_OF_FUEL])
def test_outcomes_keep_their_identity_when_copied_or_pickled(outcome):
    assert copy.copy(outcome) is outcome
    assert copy.deepcopy(outcome) is outcome
    assert pickle.loads(pickle.dumps(outcome)) is outcome


def test_a_copied_no_match_is_still_no_match():
    p = load_program("arith.rfun")
    assert copy.deepcopy([apply_forward(p, "plus", Z)])[0] is NO_MATCH


def test_a_program_that_has_run_pickles_and_runs_again():
    p = load_program("arith.rfun")
    v = tup(peano(2), peano(3))
    w = apply_forward(p, "plus", v)
    check_program(p, samples=10, seed=1)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q is not p
    assert apply_forward(q, "plus", v) == w
    assert apply_backward(q, "plus", w) == v
    assert apply_forward(q, "plus", Z) is NO_MATCH
    assert apply_backward(q, "fib", tup(peano(5), peano(8))) == peano(4)
