import itertools
import operator
import random

import pytest

import rfun
from rfun import invcat, opsem
from rfun.densem import (
    LTS, S, TS, ContextMismatch, DecodeError, SymbolTable, UnknownSymbol,
    decode_value,
    dupeq_morphism, encode_value, function_morphism, node_morphism, pack,
    DEFAULT_FUEL, pattern_idem, rewire, run_denotation, sem_expr, sem_left,
    sem_program, sym_elem, symbol_morphism, tpow, tuple_morphism, unpack,
    xi_component,
)
from rfun.invcat import (
    NO_FUEL, ONE, UNDEF, InL, InR, Morph, Pair, Prod, Roll, STAR,
    complement, compose, compose_all, dagger, fix, fold, identity, inj_n,
    join, obj_L, otimes, restrict, unfold, zero_morph,
)
from rfun.harness import check_program
from rfun.inverter import invert_name, invert_program
from rfun.opsem import NO_MATCH, UnknownFunction, apply_backward, apply_forward
from rfun.syntax import (
    LCtor, LDup, LVar, parse_program, parse_value, render_value,
)
from rfun.values import TUPLE, dupeq_value, tup, val

from helpers import (
    ARITH_VOCAB, FIXTURES, enumerate_elems, load_program, no_recursion, peano,
    prod_unitr, random_value, sample_elem, well_formed,
)

FUEL = 100_000


@pytest.fixture(scope="module")
def arith():
    prog = load_program("arith.rfun")
    tbl = SymbolTable.from_program(prog)
    morph = sem_program(prog, tbl)
    return prog, tbl, morph


# ---------------------------------------------------------------------------
# Symbol tables and value encoding
# ---------------------------------------------------------------------------

def test_symbol_table_orders_by_first_occurrence(arith):
    _, tbl, _ = arith
    assert tbl.names == (TUPLE, "Z", "S")
    assert SymbolTable.from_program(load_program("extra.rfun")).names == (TUPLE, "Z", "S")
    prog = parse_program("f x =: case x of { C(y) -> rlet D = g E(y) in let A = g B in F }")
    assert SymbolTable.from_program(prog).names == (TUPLE, "C", "E", "D", "B", "A", "F")
    assert tbl.index(TUPLE) == 1
    assert tbl.index("S") == 3
    with pytest.raises(UnknownSymbol, match="constructor 'Missing' is not in the symbol table"):
        tbl.index("Missing")


def test_symbol_table_index_is_not_part_of_its_value():
    a = SymbolTable.from_names(["Z", "S"])
    b = SymbolTable((TUPLE, "Z", "S"))
    assert a == b and hash(a) == hash(b) and a != SymbolTable.from_names(["S", "Z"])
    assert repr(a) == "SymbolTable(names=('<>', 'Z', 'S'))"
    assert [a.index(n) for n in a.names] == [1, 2, 3]
    with pytest.raises(AttributeError):
        a.names = (TUPLE,)
    with pytest.raises(ValueError, match="distinct"):
        SymbolTable((TUPLE, "Z", "Z"))


def test_encode_leaf_shape(arith):
    _, tbl, _ = arith
    z = encode_value(val("Z"), tbl)
    nil = Roll(InL(STAR))
    assert z == Roll(Pair(sym_elem(2), nil))
    assert well_formed(z, TS)


def test_encode_unary_node_shape():
    tbl = SymbolTable.from_names(["B", "C"])
    e = encode_value(val("B", val("C")), tbl)
    # root labelled b with a single child c
    assert isinstance(e, Roll)
    root, spine = e.value.fst, e.value.snd
    assert root == sym_elem(tbl.index("B"))
    child = spine.value.value.fst
    assert child == encode_value(val("C"), tbl)


def test_decode_encode_roundtrip_on_fib_output(arith):
    prog, tbl, _ = arith
    w = apply_forward(prog, "fib", peano(4))
    assert decode_value(encode_value(w, tbl), tbl) == w


def test_a_shared_memo_gives_the_fresh_encodings(arith):
    _, tbl, _ = arith
    x = tup(peano(2), val("Z"))
    memo = {}
    pair = encode_value(tup(x, x), tbl, memo)
    first = pair.value.snd.value.value
    assert first.fst is first.snd.value.value.fst       # <x, x>: x encoded once
    assert pair == encode_value(tup(x, x), tbl)
    deeper = encode_value(val("S", peano(2)), tbl, memo)
    assert deeper == encode_value(val("S", peano(2)), tbl)
    assert deeper.value.snd.value.value.fst is memo[peano(2)]
    assert encode_value(x, tbl, memo) is memo[x] == encode_value(x, tbl)
    assert set(memo) == {tup(x, x), x, val("S", peano(2)), peano(2), peano(1), val("Z")}


def test_decode_encode_roundtrip_seeded(arith):
    _, tbl, _ = arith
    rng = random.Random(8)
    for _ in range(100):
        v = random_value(rng, ARITH_VOCAB, 5)
        assert decode_value(encode_value(v, tbl), tbl) == v


DEEP = 100_000


def test_deep_numeral_round_trips_on_the_main_thread():
    text = "S(" * DEEP + "Z" + ")" * DEEP
    tbl = SymbolTable.from_names(["Z", "S"])
    e = no_recursion(encode_value, no_recursion(parse_value, text), tbl)
    assert no_recursion(render_value, no_recursion(decode_value, e, tbl)) == text


def test_symbol_table_takes_a_deep_value():
    tbl = no_recursion(SymbolTable.from_names(["Z"]).with_value, peano(DEEP))
    assert tbl.names == (TUPLE, "Z", "S")


def test_deep_encodings_compare_without_recursion():
    tbl = SymbolTable.from_names(["Z", "S", "Q"])
    a = no_recursion(encode_value, peano(DEEP), tbl)
    b = no_recursion(encode_value, peano(DEEP), tbl)
    assert no_recursion(operator.eq, a, b) and hash(a) == hash(b)
    q = val("Q")
    for _ in range(DEEP):
        q = val("S", q)
    c = no_recursion(encode_value, q, tbl)
    assert no_recursion(operator.ne, a, c)
    # through one memo: the second value reuses the first's DEEP nodes
    memo = {}
    assert no_recursion(operator.eq, no_recursion(encode_value, q, tbl, memo), c)
    d = no_recursion(encode_value, val("S", q), tbl, memo)
    assert d.value.snd.value.value.fst is memo[q] and len(memo) == DEEP + 2
    assert no_recursion(operator.eq, d, no_recursion(encode_value, val("S", q), tbl))


@pytest.mark.parametrize("elem, what", [
    (STAR, "tree"), (Roll(InL(STAR)), "tree"),
    (Roll(Pair(STAR, STAR)), "symbol"), (Roll(Pair(Roll(InL(STAR)), STAR)), "list"),
])
def test_decode_rejects_an_element_that_is_not_a_tree(arith, elem, what):
    _, tbl, _ = arith
    with pytest.raises(DecodeError, match=f"not a {what} element"):
        decode_value(elem, tbl)


def test_decode_reports_a_deep_malformed_element(arith):
    _, tbl, _ = arith
    e = STAR
    for _ in range(5_000):
        e = InL(e)
    with pytest.raises(DecodeError, match="not a tree element"):
        no_recursion(decode_value, e, tbl)


def test_encode_unknown_symbol(arith):
    _, tbl, _ = arith
    with pytest.raises(UnknownSymbol):
        encode_value(val("Nope"), tbl)


# ---------------------------------------------------------------------------
# Symbol morphisms
# ---------------------------------------------------------------------------

def test_symbol_morphism_total_and_assertive(arith):
    _, tbl, _ = arith
    for name in tbl.names:
        s = symbol_morphism(name, tbl)
        assert s.fwd(STAR, FUEL) == sym_elem(tbl.index(name))
        assert compose(dagger(s), s).fwd(STAR, FUEL) == STAR
    a, b = symbol_morphism("Z", tbl), symbol_morphism("S", tbl)
    assert compose(dagger(a), b).fwd(STAR, FUEL) is UNDEF


def test_symbol_chain_follows_fold_structure(arith):
    _, tbl, _ = arith
    s1, s2 = sym_elem(1), sym_elem(2)
    assert unfold(S).fwd(s2, FUEL) == InR(s1)
    assert unfold(S).fwd(s1, FUEL) == InL(STAR)


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------

def test_pack_zero_is_empty_list():
    assert pack(0).fwd(STAR, FUEL) == Roll(InL(STAR))


def test_pack_unpack_roundtrip(arith):
    _, tbl, _ = arith
    rng = random.Random(3)
    for n in (1, 2, 3):
        for _ in range(20):
            x = sample_elem(rng, tpow(n), 8)
            packed = pack(n).fwd(x, FUEL)
            assert well_formed(packed, LTS)
            assert unpack(n).fwd(packed, FUEL) == x


def test_unpack_disjointness_over_one_lists():
    lone = obj_L(ONE)
    lists = list(enumerate_elems(lone, 12))     # lengths 0..3
    assert len(lists) >= 4
    for n, m in itertools.combinations(range(4), 2):
        both = compose(restrict(unpack(n, ONE)), restrict(unpack(m, ONE)))
        assert all(both.fwd(x, FUEL) is UNDEF for x in lists)


def test_unpack_length_filter_over_one_lists():
    lone = obj_L(ONE)
    lists = list(enumerate_elems(lone, 12))

    def length(e):
        n = 0
        while isinstance(e.value, InR):
            n += 1
            e = e.value.value.snd
        return n

    is2 = restrict(unpack(2, ONE))
    non2 = complement(is2)
    for x in lists:
        expected = x if length(x) != 2 else UNDEF
        assert non2.fwd(x, FUEL) == expected


def _chain_pack(n, obj):
    """pack as a chain of single steps: fold, inj_n, the tensor and the unitor."""
    lst = obj_L(obj)
    nil, cons = (compose(fold(lst), inj_n(i, [ONE, Prod(obj, lst)])) for i in (0, 1))
    if n == 0:
        return nil
    if n == 1:
        return compose_all(cons, otimes(identity(obj), nil), dagger(prod_unitr(obj)))
    return compose(cons, otimes(identity(obj), _chain_pack(n - 1, obj)))


def _same_both_ways(f, g, xs, ys):
    assert f.src == g.src and f.tgt == g.tgt
    for x in xs:
        assert f.fwd(x, FUEL) == g.fwd(x, FUEL), x
    for y in ys:
        assert f.bwd(y, FUEL) == g.bwd(y, FUEL), y


def test_pack_is_one_step_that_agrees_with_its_chain():
    rng = random.Random(41)
    lists = list(enumerate_elems(obj_L(ONE), 14))      # lengths 0..4
    for n in range(5):
        m = pack(n, ONE)
        assert type(m) is Morph
        _same_both_ways(m, _chain_pack(n, ONE), list(enumerate_elems(m.src, 2 * n)), lists)
        xs = [sample_elem(rng, tpow(n), 6) for _ in range(20)]
        ys = [pack(n).fwd(x, FUEL) for x in xs] + [sample_elem(rng, LTS, 8) for _ in range(20)]
        _same_both_ways(pack(n), _chain_pack(n, TS), xs, ys)


def test_denotation_of_a_wide_constructor_agrees_with_interpreter():
    # 400 arguments make a context object 400 products deep, which the
    # composition's type check compares; 1,000 make layouts 1,000 pairs
    # deep, which rewire walks, compares and caches.
    for n in (100, 400, 1_000):
        args = ", ".join(f"a{i}" for i in range(n))
        prog = parse_program(f"f x =: case x of {{ C({args}) -> D({args}) }}")
        tbl = SymbolTable.from_program(prog, extra=["Z", "S"])
        m = function_morphism(prog, "f", tbl)
        v = val("C", *(peano(i % 4) for i in range(n)))
        out = run_denotation(m, v, tbl)
        assert out == apply_forward(prog, "f", v) == val("D", *v.args)
        assert run_denotation(dagger(m), out, tbl) == apply_backward(prog, "f", out) == v


def test_denotation_of_a_deep_leaf_runs_both_ways():
    # Each constructor fuses with the one inside it until the caps stop it,
    # so the leaf's map is a composite of capped primitives, run both ways
    # without recursion.
    n = 5_000
    prog = parse_program("f x =: " + "S(" * n + "x" + ")" * n)
    tbl = SymbolTable.from_program(prog, extra=["Z"])
    m = no_recursion(function_morphism, prog, "f", tbl)
    out = no_recursion(run_denotation, m, val("Z"), tbl)
    assert out is peano(n) is apply_forward(prog, "f", val("Z"))
    assert no_recursion(run_denotation, dagger(m), out, tbl) is val("Z")
    assert no_recursion(run_denotation, dagger(m), peano(n - 1), tbl) is UNDEF


# ---------------------------------------------------------------------------
# dupeq
# ---------------------------------------------------------------------------

def test_dupeq_examples(arith):
    _, tbl, _ = arith
    d = dupeq_morphism(tbl)
    assert run_denotation(d, tup(val("Z")), tbl) == tup(val("Z"), val("Z"))
    assert run_denotation(d, tup(val("Z"), val("Z")), tbl) == tup(val("Z"))
    assert run_denotation(d, tup(val("Z"), val("Z"), val("Z")), tbl) is UNDEF
    assert run_denotation(d, val("Z"), tbl) is UNDEF


def test_dupeq_self_adjoint_pointwise(arith):
    _, tbl, _ = arith
    d = dupeq_morphism(tbl)
    rng = random.Random(12)
    for _ in range(150):
        x = encode_value(random_value(rng, ARITH_VOCAB, 4), tbl)
        assert d.fwd(x, FUEL) == d.bwd(x, FUEL)


def _tuples_to_depth(max_depth):
    """All 1- and 2-tuples whose components are trees over two symbols."""
    def trees(depth):
        if depth <= 1:
            return [val("A"), val("B")]
        smaller = trees(depth - 1)
        out = list(smaller)
        out += [val("A", t) for t in smaller]
        out += [tup(t) for t in smaller]
        return out

    comps = trees(max_depth - 1)
    return [tup(t) for t in comps] + [tup(t, u) for t in comps for u in comps]


def test_dupeq_is_the_encoded_value_operator():
    tbl = SymbolTable.from_names(["A", "B"])
    d = dupeq_morphism(tbl)
    domain = _tuples_to_depth(4)
    assert len(domain) > 100
    for v in domain:
        expected = dupeq_value(v)
        got = run_denotation(d, v, tbl)
        assert got == (expected if expected is not None else UNDEF), v


def test_dupeq_agrees_with_the_checked_join_of_its_cases():
    tbl = SymbolTable.from_names(["A", "B"])
    d = dupeq_morphism(tbl)
    checked = join(list(d.parts))
    rng = random.Random(31)
    one, two = tuple_morphism(1, tbl), tuple_morphism(2, tbl)
    points = []
    for _ in range(150):
        x = sample_elem(rng, TS, rng.randrange(4, 12))
        y = sample_elem(rng, TS, rng.randrange(4, 12))
        points += [x, one.fwd(x, FUEL), two.fwd(Pair(x, y), FUEL),
                   two.fwd(Pair(x, x), FUEL), two.fwd(Pair(y, y), FUEL)]
    points += [one.fwd(x, FUEL) for x in enumerate_elems(tpow(1), 13)]
    points += [two.fwd(xy, FUEL) for xy in enumerate_elems(tpow(2), 12)]
    answered = {i for p in points for i, f in enumerate(d.parts)
                if f.fwd(p, FUEL) is not UNDEF}
    assert answered == {0, 1, 2}    # contract, keep and duplicate
    for p in points:
        assert d.fwd(p, FUEL) == checked.fwd(p, FUEL), p
        assert d.bwd(p, FUEL) == checked.bwd(p, FUEL), p


def test_denotation_of_plus_runs_deep_numerals(arith):
    prog, tbl, morph = arith
    m = function_morphism(prog, "plus", tbl, morph)
    x = tup(peano(2_000), peano(2_000))
    out = apply_forward(prog, "plus", x)
    assert out is tup(peano(2_000), peano(4_000))
    assert run_denotation(m, x, tbl) == out
    assert run_denotation(dagger(m), out, tbl) == x == apply_backward(prog, "plus", out)


def test_numeral_encodings_have_distinct_hashes():
    tbl = SymbolTable.from_names(["Z", "S"])
    e = encode_value(peano(2_000), tbl)
    encodings = [e]
    for _ in range(2_000):      # S(v) is Roll(Pair(S, [v])): step down to v
        e = e.value.snd.value.value.fst
        encodings.append(e)
    encodings.reverse()
    assert len({e.h for e in encodings}) == 2_001
    for n in (0, 1, 7, 500, 2_000):
        again = encode_value(peano(n), tbl)
        assert again is not encodings[n]
        assert again == encodings[n] and again.h == encodings[n].h


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

REWIRINGS = [
    # permutations (1,0), (2,0,1), (3,1,0,2) of flat layouts
    (("a", "b"), ("b", "a")),
    (("a", ("b", "c")), ("c", ("a", "b"))),
    (("a", ("b", ("c", "d"))), ("d", ("b", ("a", "c")))),
    # groupings (2,1), (0,2), (1,0), (1,2,1) of flat layouts
    (("a", ("b", "c")), (("a", "b"), "c")),
    (("a", "b"), ((), ("a", "b"))),
    ("a", ("a", ())),
    (("a", ("b", ("c", "d"))), ("a", (("b", "c"), "d"))),
    # nested to nested
    ((("a", "b"), ("c", ())), (("c", ("a", ())), "b")),
    (((("a", ()), "b"), "c"), ("c", ("b", "a"))),
    (((), ()), ()),
]


def test_rewire_is_an_iso():
    rng = random.Random(77)
    for src, tgt in REWIRINGS:
        m = rewire(src, tgt)
        assert compose(m, rewire(src, src)) is m
        assert compose(rewire(tgt, tgt), m) is m
        for _ in range(20):
            x = sample_elem(rng, m.src, 8)
            y = m.fwd(x, FUEL)
            assert well_formed(y, m.tgt)
            assert m.bwd(y, FUEL) == x
            assert rewire(tgt, src).fwd(y, FUEL) == x
    for src, tgt in ((("a", "b"), "a"), ("a", ("a", "b")), ("a", "b"),
                     (("a", "a"), ("a", "a")), (("a", "b"), ("a", "a"))):
        with pytest.raises(ContextMismatch):
            rewire(src, tgt)


# ---------------------------------------------------------------------------
# Left expressions
# ---------------------------------------------------------------------------

def test_sem_left_variable_is_identity(arith):
    _, tbl, _ = arith
    m = sem_left(LVar("x"), ("x",), tbl)
    rng = random.Random(2)
    for _ in range(20):
        x = sample_elem(rng, TS, 8)
        assert m.fwd(x, FUEL) == x


def test_sem_left_constructor(arith):
    _, tbl, _ = arith
    m = sem_left(LCtor("S", (LVar("u"),)), ("u",), tbl)
    z = encode_value(val("Z"), tbl)
    assert m.fwd(z, FUEL) == encode_value(peano(1), tbl)
    # the dagger is the pattern: it refuses values of other shapes
    assert dagger(m).fwd(z, FUEL) is UNDEF
    assert dagger(m).fwd(encode_value(peano(1), tbl), FUEL) == z


def test_sem_left_permutes_context(arith):
    _, tbl, _ = arith
    l = LCtor(TUPLE, (LVar("b"), LVar("a")))
    m = sem_left(l, ("a", "b"), tbl)
    va, vb = encode_value(val("Z"), tbl), encode_value(peano(2), tbl)
    out = m.fwd(Pair(va, vb), FUEL)
    assert decode_value(out, tbl) == tup(peano(2), val("Z"))


def test_sem_left_round_trips_with_match(arith):
    _, tbl, _ = arith
    pats = [
        LCtor("S", (LVar("u"),)),
        LCtor(TUPLE, (LVar("a"), LVar("b"))),
        LDup(LCtor(TUPLE, (LVar("x"),))),
        LCtor(TUPLE, (LVar("a"), LCtor("S", (LVar("b"),)))),
    ]
    rng = random.Random(6)
    for l in pats:
        m = sem_left(l, tuple(v for v in _ordered_vars(l)), tbl)
        for _ in range(40):
            x = sample_elem(rng, m.src, 8)
            y = m.fwd(x, FUEL)
            if not isinstance(y, type(UNDEF)):
                assert m.bwd(y, FUEL) == x


def _ordered_vars(l):
    from rfun.syntax import lvars
    return lvars(l)


def test_sem_left_context_mismatch(arith):
    _, tbl, _ = arith
    with pytest.raises(ContextMismatch):
        sem_left(LVar("x"), ("y",), tbl)
    with pytest.raises(ContextMismatch):
        sem_left(LCtor("S", (LVar("x"),)), ("x", "y"), tbl)


def test_pattern_idem_decides(arith):
    _, tbl, _ = arith
    idem = pattern_idem(LCtor("S", (LVar("u"),)), tbl)
    two, zero = encode_value(peano(2), tbl), encode_value(val("Z"), tbl)
    assert idem.fwd(two, FUEL) == two
    assert idem.fwd(zero, FUEL) is UNDEF


# ---------------------------------------------------------------------------
# Expressions and programs
# ---------------------------------------------------------------------------

def test_sem_expr_leaf_is_sem_left(arith):
    prog, tbl, morph = arith
    from rfun.syntax import ELeaf
    fn_index = {d.name: i for i, d in enumerate(prog.defs)}
    m = sem_expr(ELeaf(LVar("x")), ("x",), morph, fn_index, tbl)
    rng = random.Random(1)
    for _ in range(20):
        x = sample_elem(rng, TS, 8)
        assert m.fwd(x, FUEL) == x


def test_single_branch_variable_case_is_identity(arith):
    prog, tbl, morph = arith
    case = parse_program("f x =: case x of { w -> w }")
    tbl2 = SymbolTable.from_program(case)
    m = function_morphism(case, "f", tbl2)
    rng = random.Random(9)
    for _ in range(20):
        x = sample_elem(rng, TS, 8)
        assert m.fwd(x, FUEL) == x


def test_plus_body_agrees_with_interpreter(arith):
    prog, tbl, morph = arith
    plus = function_morphism(prog, "plus", tbl, morph)
    v = tup(peano(1), peano(1))
    assert run_denotation(plus, v, tbl) == apply_forward(prog, "plus", v)


def test_program_components_fwd_and_bwd(arith):
    prog, tbl, morph = arith
    plus = function_morphism(prog, "plus", tbl, morph)
    assert run_denotation(plus, tup(peano(1), peano(1)), tbl) == tup(peano(1), peano(2))
    back = dagger(plus)
    assert run_denotation(back, tup(peano(1), peano(2)), tbl) == tup(peano(1), peano(1))


def test_divergent_program_denotes_bottom():
    loop = load_program("loop.rfun")
    tbl = SymbolTable.from_program(loop, extra=["Z"])
    m = function_morphism(loop, "loop", tbl)
    for fuel in (1, 10, 100, 500):
        assert run_denotation(m, val("Z"), tbl, fuel=fuel) is NO_FUEL


def test_loop_at_default_fuel_fits_the_deep_stack():
    loop = load_program("loop.rfun")
    tbl = SymbolTable.from_program(loop, extra=["Z"])
    m = function_morphism(loop, "loop", tbl)
    assert no_recursion(run_denotation, m, val("Z"), tbl, fuel=FUEL) is NO_FUEL


def test_one_default_fuel_for_both_semantics():
    assert opsem.DEFAULT_FUEL is DEFAULT_FUEL is rfun.DEFAULT_FUEL == 10_000


def test_unknown_entry_raises_unknown_function(arith):
    prog, tbl, morph = arith
    with pytest.raises(UnknownFunction, match="'nope'"):
        function_morphism(prog, "nope", tbl, morph)
    with pytest.raises(UnknownFunction, match="'nope'"):
        check_program(prog, "nope", samples=1)


def test_adequacy_spot_checks(arith):
    prog, tbl, morph = arith
    rng = random.Random(0xFEED)
    for d in prog.defs:
        m = function_morphism(prog, d.name, tbl, morph)
        for _ in range(40):
            v = random_value(rng, ARITH_VOCAB, 5)
            op = apply_forward(prog, d.name, v, fuel=FUEL)
            den = run_denotation(m, v, tbl, fuel=FUEL)
            if op is NO_MATCH:
                assert den is UNDEF, (d.name, v)
            else:
                assert den == op, (d.name, v)


def test_inversion_coherence(arith):
    prog, tbl, morph = arith
    inv = invert_program(prog)
    tbl_inv = SymbolTable.from_program(inv)
    inv_morph = sem_program(inv, tbl_inv)
    rng = random.Random(0xD1CE)
    for d in prog.defs:
        fwd = function_morphism(prog, d.name, tbl, morph)
        bwd = function_morphism(inv, invert_name(d.name), tbl_inv, inv_morph)
        for _ in range(25):
            v = random_value(rng, ARITH_VOCAB, 5)
            lhs = run_denotation(dagger(fwd), v, tbl, fuel=FUEL)
            rhs = run_denotation(bwd, v, tbl_inv, fuel=FUEL)
            assert lhs == rhs, (d.name, v)


# ---------------------------------------------------------------------------
# The symmetric first-match policy, both ways
# ---------------------------------------------------------------------------

COMMITTED_ARM = """
k x =: case x of { A -> A };
h x =: case x of { S(u) -> let w = k u in w; Z -> Z }
"""


def test_case_commits_like_the_interpreter_both_ways():
    from rfun.invcat import IncompatibleJoin
    from rfun.opsem import FirstMatchViolation
    prog = parse_program(COMMITTED_ARM)
    tbl = SymbolTable.from_program(prog)
    h = function_morphism(prog, "h", tbl)
    # forward, Z matches the first branch's leaf w
    with pytest.raises(FirstMatchViolation):
        apply_forward(prog, "h", val("Z"))
    with pytest.raises(IncompatibleJoin):
        run_denotation(h, val("Z"), tbl)
    # backward, Z commits to the first branch, where k! rejects it
    assert apply_backward(prog, "h", val("Z")) is NO_MATCH
    assert run_denotation(dagger(h), val("Z"), tbl) is UNDEF
    assert check_program(prog, "h", samples=60, seed=3, depth=3)["mismatches"] == 0


def test_bad_first_match_dagger_follows_apply_backward():
    from rfun.invcat import IncompatibleJoin
    prog = load_program("bad_first_match.rfun")
    tbl = SymbolTable.from_program(prog)
    bad = function_morphism(prog, "bad", tbl)
    assert apply_backward(prog, "bad", val("A")) == val("Z")
    assert run_denotation(dagger(bad), val("A"), tbl) == val("Z")
    with pytest.raises(IncompatibleJoin):
        run_denotation(bad, val("S", val("Z")), tbl)


TWO_LEAF_ARM = "h x =: case x of { S(u) -> case u of { Z -> B; S(v) -> W(v) }; Z -> W(Z) }"


def _both_semantics(src, fname):
    """apply(v, forward) for the interpreter and for the denotation."""
    prog = parse_program(src)
    tbl = SymbolTable.from_program(prog)
    m = function_morphism(prog, fname, tbl)

    def opsem_apply(v, forward):
        return (apply_forward if forward else apply_backward)(prog, fname, v)

    def densem_apply(v, forward):
        return run_denotation(m if forward else dagger(m), v, tbl)
    return opsem_apply, densem_apply


@pytest.mark.parametrize("semantics", ["opsem", "densem"])
def test_case_with_a_two_leaf_arm_both_ways(semantics):
    # arm 0's body has two leaves, so its leaf test is a join of two guards
    from rfun.invcat import IncompatibleJoin
    from rfun.opsem import FirstMatchViolation
    op, den = _both_semantics(TWO_LEAF_ARM, "h")
    apply = den if semantics == "densem" else op
    with pytest.raises((FirstMatchViolation, IncompatibleJoin)):
        apply(val("Z"), True)       # W(Z) matches arm 0's leaf W(v)
    assert apply(parse_value("S(Z)"), True) == val("B")
    assert apply(parse_value("S(S(B))"), True) == parse_value("W(B)")
    assert apply(val("B"), True) is UNDEF
    assert apply(val("B"), False) == parse_value("S(Z)")
    assert apply(parse_value("W(Z)"), False) == parse_value("S(S(Z))")
    assert apply(val("Z"), False) is UNDEF


def test_case_violation_messages_both_ways():
    from rfun.invcat import IncompatibleJoin
    from rfun.opsem import FirstMatchViolation
    op, den = _both_semantics(TWO_LEAF_ARM, "h")
    with pytest.raises(IncompatibleJoin) as exc:
        den(val("Z"), True)
    assert str(exc.value) == "case result of arm 1 matches a leaf of arm 0"
    with pytest.raises(FirstMatchViolation) as exc:
        op(val("Z"), True)
    assert str(exc.value) == ("case result matches a leaf of an earlier branch: "
                              "W(Z) vs pattern at (1, 56)")
    op, den = _both_semantics("k x =: case x of { S(Z) -> A; S(u) -> W(u) }", "k")
    with pytest.raises(IncompatibleJoin) as exc:
        den(parse_value("W(Z)"), False)
    assert str(exc.value) == "case input recovered by arm 1 matches the pattern of arm 0"
    with pytest.raises(FirstMatchViolation) as exc:
        op(parse_value("W(Z)"), False)
    assert str(exc.value) == ("backward case input matches an earlier branch pattern: "
                              "S(Z) vs pattern at (1, 20)")


def test_a_second_load_only_looks_its_fusions_up():
    # Every primitive a denotation is built from is cached, and fusion is
    # cached on the identity of its operands, so loading again fuses nothing.
    def load():
        prog = load_program("arith.rfun")
        return sem_program(prog, SymbolTable.from_program(prog))

    load()
    misses = invcat._fused.cache_info().misses
    load()
    assert invcat._fused.cache_info().misses == misses


def test_sem_program_requires_static_validity():
    from rfun.syntax import StaticError
    bad = parse_program("f x =: <x, x>")
    with pytest.raises(StaticError):
        sem_program(bad)


def test_both_semantics_share_one_static_check(monkeypatch):
    import rfun.syntax as syntax
    calls = []
    real = syntax.check_static
    monkeypatch.setattr(syntax, "check_static", lambda p: calls.append(p) or real(p))
    prog = parse_program((FIXTURES / "arith.rfun").read_text())
    assert apply_forward(prog, "fib", peano(2)) == tup(peano(2), peano(3))
    sem_program(prog)
    assert apply_backward(prog, "fib", tup(peano(2), peano(3))) == peano(2)
    sem_program(prog)
    assert calls == [prog]


def test_unknown_function_in_body():
    from rfun.syntax import StaticError
    prog = parse_program("f x =: let y = g x in y")
    with pytest.raises(StaticError, match="unknown-function"):
        sem_program(prog)


def test_xi_component_routing(arith):
    prog, tbl, morph = arith
    fibm = xi_component(morph, 1, 2)
    assert run_denotation(fibm, val("Z"), tbl) == tup(peano(1), peano(1))


# ---------------------------------------------------------------------------
# The copy scheme as a fixed point over encoded numerals
# ---------------------------------------------------------------------------

def test_fix_of_peano_copy_scheme(arith):
    _, tbl, _ = arith
    mkz = node_morphism("Z", 0, tbl)           # 1 -> T(S)
    mks = node_morphism("S", 1, tbl)           # T(S) -> T(S)

    def scheme(h):
        base = compose(mkz, dagger(mkz))
        step = compose_all(mks, h, dagger(mks))
        return join([base, step])

    m = fix(scheme, TS, TS)
    for n in range(21):
        x = encode_value(peano(n), tbl)
        assert m.fwd(x, FUEL) == x
    assert m.fwd(encode_value(val("Q"), tbl.with_value(val("Q"))), FUEL) is UNDEF
