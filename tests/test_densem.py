import itertools
import random

import pytest

from rfun.densem import (
    LTS, S, TS, ContextMismatch, SymbolTable, UnknownSymbol, decode_value,
    dupeq_morphism, encode_value, function_morphism, node_morphism, pack,
    pattern_idem, perm_morph, regroup, run_denotation, sem_expr, sem_left,
    sem_program, sym_elem, symbol_morphism, tpow, tuple_morphism, unpack,
    xi_component,
)
from rfun.invcat import (
    NO_FUEL, ONE, UNDEF, InL, InR, Pair, Roll, STAR, complement, compose,
    compose_all, dagger, decidable_restriction, enumerate_elems, fix,
    identity, join, obj_L, restrict, sample_elem, unfold, well_formed,
    zero_morph,
)
from rfun.inverter import invert_name, invert_program
from rfun.opsem import NO_MATCH, apply_backward, apply_forward
from rfun.syntax import LCtor, LDup, LVar, parse_program
from rfun.values import TUPLE, dupeq_value, tup, val

from helpers import ARITH_VOCAB, FIXTURES, load_program, peano, random_value

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
    with pytest.raises(UnknownSymbol):
        tbl.index("Missing")


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


def test_decode_encode_roundtrip_seeded(arith):
    _, tbl, _ = arith
    rng = random.Random(8)
    for _ in range(100):
        v = random_value(rng, ARITH_VOCAB, 5)
        assert decode_value(encode_value(v, tbl), tbl) == v


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

    is2 = decidable_restriction(unpack(2, ONE))
    non2 = complement(is2).as_morph()
    for x in lists:
        expected = x if length(x) != 2 else UNDEF
        assert non2.fwd(x, FUEL) == expected


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


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

def test_perm_and_regroup_are_isos(arith):
    _, tbl, _ = arith
    rng = random.Random(77)
    for k, perm in ((2, (1, 0)), (3, (2, 0, 1)), (4, (3, 1, 0, 2))):
        m = perm_morph(perm)
        for _ in range(20):
            x = sample_elem(rng, tpow(k), 8)
            y = m.fwd(x, FUEL)
            assert m.bwd(y, FUEL) == x
    for sizes in ((2, 1), (0, 2), (1, 0), (1, 2, 1)):
        g = regroup(sizes)
        for _ in range(20):
            x = sample_elem(rng, tpow(sum(sizes)), 8)
            y = g.fwd(x, FUEL)
            assert well_formed(y, g.tgt)
            assert g.bwd(y, FUEL) == x


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
    assert idem.decide(encode_value(peano(2), tbl), FUEL) is True
    assert idem.decide(encode_value(val("Z"), tbl), FUEL) is False


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
    from rfun.opsem import UnknownFunction
    prog = parse_program("f x =: let y = g x in y")
    with pytest.raises(UnknownFunction):
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
