import copy
import operator
import os
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from rfun.syntax import (
    Def, ECase, ELeaf, ELet, LCtor, LDup, LVar, ParseError, Program,
    check_static, leaves, lvars, parse_program, parse_value, render_program,
    render_value, walk,
)
from rfun.densem import SymbolTable, function_morphism, run_denotation, sem_program
from rfun.harness import vocabulary
from rfun.inverter import alpha_eq, invert_program
from rfun.opsem import apply_forward
from rfun.values import TUPLE, Value

from helpers import ARITH_VOCAB, FIXTURES, load_program, no_recursion, random_value


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_identity_program():
    p = parse_program("f x =: x")
    assert p.defs == (Def("f", "x", ELeaf(LVar("x"))),)


def test_parse_sugared_plus_listing():
    src = (FIXTURES / "plus_sugared.rfun").read_text()
    p = parse_program(src)
    d = p.defs[0]
    assert d.name == "plus"
    # tuple parameter desugars to a fresh variable cased on the pattern
    assert isinstance(d.body, ECase)
    assert d.body.scrutinee == LVar(d.param)
    (pattern, inner), = d.body.branches
    assert pattern == LCtor(TUPLE, (LVar("x"), LVar("y")))
    assert isinstance(inner, ECase) and len(inner.branches) == 2


def test_desugared_parameter_is_fresh():
    p = parse_program("id <a, b> =: <a, b>")
    d = p.defs[0]
    assert d.param == "x0"
    assert d.body == ECase(LVar("x0"),
                           ((LCtor(TUPLE, (LVar("a"), LVar("b"))),
                             ELeaf(LCtor(TUPLE, (LVar("a"), LVar("b"))))),))


def test_fresh_parameter_avoids_clashes():
    p = parse_program("f <x0, x1> =: <x1, x0>")
    assert p.defs[0].param == "x2"


def test_parse_let_rlet_case():
    p = parse_program(
        "g w =: let y = f w in rlet z = f y in case z of { A -> B; C(k) -> k }")
    d = p.defs[0]
    assert isinstance(d.body, ELet) and not d.body.backward
    assert isinstance(d.body.body, ELet) and d.body.body.backward
    assert isinstance(d.body.body.body, ECase)


def test_parse_unicode_spellings():
    a = parse_program("f x ≜ case x of { Z → ⌊<x>⌋ }")
    b = parse_program("f x =: case x of { Z -> |_ <x> _| }")
    assert a == b


def test_dupeq_brackets_lex_tightly():
    a = parse_program("f x =: |_x_|")
    b = parse_program("f x =: |_ x _|")
    assert a == b


def test_empty_argument_list_reads_as_a_bare_constructor():
    assert parse_program("f x =: case x of { C() -> D(<>, E()) }") == \
        parse_program("f x =: case x of { C -> D(<>, E) }")
    assert parse_value("C()") is parse_value("C")
    assert parse_value("S(C(), <C()>)") is parse_value("S(C, <C>)")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_program("f x =: case x of { Z -> }")
    assert err.value.line == 1 and err.value.col > 0
    with pytest.raises(ParseError):
        parse_program("f x =:")
    with pytest.raises(ParseError):
        parse_value("x")        # lowercase is a variable, not a value
    with pytest.raises(ParseError):
        parse_value("|_ <A> _|")


def test_lexer_positions_across_lines():
    src = "f! x' ≜ -- a comment\r\n\tcase x' of {\r\n  Z → ⌊<x'>⌋; S(x) -> |_x_|\n}"
    d, = parse_program(src).defs
    (z, dup), (s, leaf) = d.body.branches
    nodes = (d, d.body, d.body.scrutinee, z, dup, dup.left, dup.left.arg,
             dup.left.arg.args[0], s, s.args[0], leaf, leaf.left, leaf.left.arg)
    assert [n.pos for n in nodes] == [
        (1, 1), (2, 2), (2, 7), (3, 3), (3, 7), (3, 7), (3, 8),
        (3, 9), (3, 15), (3, 17), (3, 23), (3, 23), (3, 25)]
    # a parameter keeps its position once it is a pattern
    (param, _), = parse_program(src.replace("x' ≜", "X' ≜")).defs[0].body.branches
    assert param.pos == (1, 4)
    # each symbol, swapped for a token of its width, is reported where it stands
    for old, new, message, line, col in (
            ("≜", "→", "expected '=:', found '→'", 1, 7),
            ("of", "in", "expected 'of', found 'in'", 2, 10),
            ("{", "(", "expected '{', found '('", 2, 13),
            ("→", "≜", "expected '->', found '≜'", 3, 5),
            ("x'>", "x')", "expected gt, found ')'", 3, 11),
            ("⌋", ")", "expected '_|', found ')'", 3, 12),
            (";", ",", "expected '}', found ','", 3, 13),
            ("S(x", "S<x", "expected '->', found '<'", 3, 16),
            ("(x)", "(x>", "expected rpar, found '>'", 3, 18),
            ("->", "=:", "expected '->', found '=:'", 3, 20),
            ("x_|", "x))", "expected '_|', found ')'", 3, 26),
            ("\n}", "\n)", "expected '}', found ')'", 4, 1),
            ("\n}", "\n;", "expected a left expression, found ''", 4, 2)):
        assert src.count(old) == 1
        with pytest.raises(ParseError) as err:
            parse_program(src.replace(old, new))
        assert str(err.value) == f"{line}:{col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)
    for parse, text, message, line, col in (
            (parse_program, "f x =:\n  # x", "unexpected character '#'", 2, 3),
            (parse_value, "S!", "misplaced '!' in 'S!'", 1, 1),
            # end of input is one column past the trailing comment
            (parse_program, "f x =: case x of { Z -> Z -- note",
             "expected '}', found ''", 1, 34)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{line}:{col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)


def test_function_names_may_end_in_bang():
    p = parse_program("f! x =: x")
    assert p.defs[0].name == "f!"
    with pytest.raises(ParseError):
        parse_program("f x =: ca!se")
    with pytest.raises(ParseError):
        parse_program("f x! =: x!")


# ---------------------------------------------------------------------------
# Static checks
# ---------------------------------------------------------------------------

def test_corpus_programs_pass_static_checks():
    for name in ("arith.rfun", "plus_sugared.rfun", "mirror.rfun",
                 "iseq.rfun", "id.rfun", "loop.rfun", "bad_first_match.rfun"):
        load_program(name)   # raises on violations


def test_variable_used_twice_is_rejected():
    p = parse_program("f x =: <x, x>")
    kinds = [v.kind for v in check_static(p)]
    assert "unbound-variable" in kinds or "linearity" in kinds


def test_unused_variable_is_rejected():
    p = parse_program("f x =: Z")
    [v] = check_static(p)
    assert v.kind == "linearity" and "never used" in v.message


def test_unbound_variable_is_rejected():
    p = parse_program("f x =: case x of { Z -> y }")
    kinds = [v.kind for v in check_static(p)]
    assert "unbound-variable" in kinds


def test_nonlinear_pattern_is_rejected():
    p = parse_program("f x =: case x of { <a, a> -> a }")
    kinds = [v.kind for v in check_static(p)]
    assert "linearity" in kinds


def test_duplicate_function_is_rejected():
    p = parse_program("f x =: x; f y =: y")
    kinds = [v.kind for v in check_static(p)]
    assert kinds.count("duplicate-function") == 1


def test_rebinding_after_consumption_is_fine():
    p = parse_program("g x =: x; f x =: let y = g x in let x = g y in x")
    assert check_static(p) == []


def test_shadowing_live_variable_is_rejected():
    p = parse_program("g x =: x; f x =: case x of { <a, b> -> let a = g b in <a, a> }")
    kinds = [v.kind for v in check_static(p)]
    assert "linearity" in kinds


def test_case_pattern_shadowing_live_variable_is_rejected():
    p = parse_program("f p =: case p of { <x, y> -> case y of { x -> <x> } }")
    assert [v.kind for v in check_static(p)] == ["linearity"]


@pytest.mark.parametrize("body, bad", [(42, 42), (ELet(LVar("y"), "f", LVar("x"), "oops"), "oops")],
                         ids=["body", "let-body"])
def test_a_node_that_is_not_an_expression_is_a_type_error(body, bad):
    # A hand-built AST can hold anything; every pass that checks the program
    # names the definition and the node instead of failing inside the check.
    p = Program((Def("f", "x", body),))
    for use in (check_static, invert_program, sem_program,
                lambda p: apply_forward(p, "f", Value("Z", ()))):
        with pytest.raises(TypeError, match=re.escape(f"not an expression in 'f': {bad!r}")):
            use(p)


# ---------------------------------------------------------------------------
# leaves and lvars
# ---------------------------------------------------------------------------

def test_leaves_of_plus_branches():
    plus = load_program("plus_sugared.rfun").defs[0]
    (_, inner), = plus.body.branches
    first, second = inner.branches
    assert leaves(first[1]) == [LDup(LCtor(TUPLE, (LVar("x"),)))]
    assert leaves(second[1]) == [LCtor(TUPLE, (LVar("x'"), LCtor("S", (LVar("u'"),))))]


def test_leaves_single_leaf():
    assert leaves(ELeaf(LVar("x"))) == [LVar("x")]


def test_leaves_of_fib_body():
    fib = load_program("arith.rfun").defs[1]
    assert leaves(fib.body) == [
        LCtor(TUPLE, (LCtor("S", (LCtor("Z"),)), LCtor("S", (LCtor("Z"),)))),
        LVar("z"),
    ]


def test_leaves_of_a_long_let_chain():
    body: object = ELeaf(LVar("x5000"))
    for i in reversed(range(5000)):
        body = ELet(LVar(f"x{i + 1}"), "id", LVar(f"x{i}"), body)
    assert no_recursion(leaves, body) == [LVar("x5000")]


DEEP = 5000
_DEEP_PROGRAMS = {
    "let-chain": "id x =: x;\nf x0 =: "
                 + "".join(f"let x{i + 1} = id x{i} in " for i in range(DEEP)) + f"x{DEEP}",
    "nested-cases": "f x0 =: " + "".join(f"case x{i} of {{ S(x{i + 1}) -> " for i in range(DEEP))
                    + f"x{DEEP}" + " }" * DEEP,
    "deep-leaf": "f x =: case x of { Z -> " + "S(" * DEEP + "Z" + ")" * DEEP
                 + "; S(y) -> S(y) }",
}


def _deep_passes(name: str, text: str) -> None:
    prog = parse_program(text)
    assert check_static(prog) == []
    tbl = SymbolTable.from_program(prog, extra=["Z", "S"])
    pm = sem_program(prog, tbl)
    assert alpha_eq(parse_program(render_program(prog)), prog)
    if name == "let-chain":
        v = parse_value("S(Z)")
        m = function_morphism(prog, "f", tbl, pm)
        assert apply_forward(prog, "f", v) == run_denotation(m, v, tbl) == v
    if name != "nested-cases":      # inverting nested cases is superlinear
        assert alpha_eq(invert_program(invert_program(prog)), prog)


@pytest.mark.parametrize("name", list(_DEEP_PROGRAMS))
def test_passes_over_deep_programs_do_not_recurse(name):
    no_recursion(_deep_passes, name, _DEEP_PROGRAMS[name])


def test_lvars_order():
    l = LCtor(TUPLE, (LVar("b"), LCtor("S", (LVar("a"),))))
    assert lvars(l) == ["b", "a"]


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------

def test_fixture_programs_roundtrip_through_printer():
    for name in ("arith.rfun", "arith_inv.rfun", "mirror.rfun", "iseq.rfun",
                 "id.rfun", "loop.rfun"):
        p = load_program(name)
        assert parse_program(render_program(p)) == p


_lefts = st.deferred(lambda: (
    st.sampled_from([LVar("x"), LVar("y"), LVar("veryLong'Name")])
    | st.builds(lambda: LCtor("Z"))
    | st.builds(lambda a: LCtor("S", (a,)), _lefts)
    | st.builds(lambda a, b: LCtor(TUPLE, (a, b)), _lefts, _lefts)
    | st.builds(LDup, _lefts)
))

_exprs = st.deferred(lambda: (
    st.builds(ELeaf, _lefts)
    | st.builds(lambda b, a, e: ELet(b, "f", a, e), _lefts, _lefts, _exprs)
    | st.builds(lambda b, a, e: ELet(b, "g!", a, e, backward=True), _lefts, _lefts, _exprs)
    | st.builds(lambda s, p1, e1, p2, e2: ECase(s, ((p1, e1), (p2, e2))),
                _lefts, _lefts, _exprs, _lefts, _exprs)
))


@given(_exprs)
def test_printer_parser_roundtrip_on_generated_asts(e):
    # programs need not be statically valid for the syntax round-trip
    src = render_program(type(load_program("id.rfun"))((Def("f", "x", e),)))
    assert parse_program(src).defs[0].body == e


def test_value_text_roundtrip_seeded():
    rng = random.Random(2024)
    for _ in range(200):
        v = random_value(rng, ARITH_VOCAB + [("Leaf", 0), ("Node", 2), (TUPLE, 0)], 5)
        assert parse_value(render_value(v)) == v


def test_value_reader_round_trips_every_fixture_vocabulary():
    rng = random.Random(15)
    pads = ["", " ", "  ", "\n", "\r\n\t", " -- a note\n "]
    for path in sorted(FIXTURES.glob("*.rfun")):
        vocab = vocabulary(parse_program(path.read_text()))
        for _ in range(40):
            v = random_value(rng, vocab, rng.randint(0, 5))
            text = render_value(v)
            assert parse_value(text) is v
            spaced = re.sub(r"[(),<>]", lambda m: rng.choice(pads) + m[0] + rng.choice(pads), text)
            assert parse_value(f"\n {spaced}\n  -- a trailing comment") is v


# The program parser's error for each text read as a left expression.
@pytest.mark.parametrize("text, message, line, col", [
    ("S(Z,)", "expected a left expression, found ')'", 1, 5),
    ("<Z,>", "expected a left expression, found '>'", 1, 4),
    ("S(,Z)", "expected a left expression, found ','", 1, 3),
    ("S(Z>", "expected rpar, found '>'", 1, 4),
    ("<Z)", "expected gt, found ')'", 1, 3),
    ("(Z)", "expected a left expression, found '('", 1, 1),
    ("Z Z", "trailing input 'Z'", 1, 3),
    ("S(Z))", "trailing input ')'", 1, 5),
    ("<Z", "expected gt, found ''", 1, 3),
    ("", "expected a left expression, found ''", 1, 1),
    ("x", "'x' is a variable; values use uppercase constructors", 1, 1),
    ("S(x)", "'x' is a variable; values use uppercase constructors", 1, 3),
    ("|_ <A> _|", "the |_._| operator cannot occur in a value", 1, 1),
    ("⌊<A>⌋", "the |_._| operator cannot occur in a value", 1, 1),
    ("S!", "misplaced '!' in 'S!'", 1, 1),
    ("S(Z) # c", "unexpected character '#'", 1, 6),
    ("S(Z)\n  , Z", "trailing input ','", 2, 3),
    # a character no token starts with is reported first, wherever it is
    ("S(,#)", "unexpected character '#'", 1, 4),
    ("S(x) S!", "misplaced '!' in 'S!'", 1, 6),
    # other tokens of the program syntax, and where the text ends
    ("S(Z) -> Z", "trailing input '->'", 1, 6),
    ("S(in)", "expected a left expression, found 'in'", 1, 3),
    ("S(x, y!)", "'y!' is not a valid variable", 1, 6),
    ("|_ A, B _|", "expected '_|', found ','", 1, 5),
    ("x y", "trailing input 'y'", 1, 3),
    ("S(Z\n", "expected rpar, found ''", 2, 1),
    ("--", "expected a left expression, found ''", 1, 3),
])
def test_value_reader_errors(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_value(text)
    assert str(err.value) == f"{line}:{col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


# The program parser's errors: each message, and where it points.
@pytest.mark.parametrize("text, message, line, col", [
    ("", "expected a function name, found ''", 1, 1),
    ("F x =: x", "expected a function name, found 'F'", 1, 1),
    ("f x = x", "expected '=:', found '='", 1, 5),
    ("f x → x", "expected '=:', found '→'", 1, 5),
    ("f x =: x y", "expected ';' or end of input, found 'y'", 1, 10),
    ("f x =: x;\n  ;", "expected a function name, found ';'", 2, 3),
    ("f x =: let y f x in y", "expected '=', found 'f'", 1, 14),
    ("f x =: let y = G x in y", "expected a function name, found 'G'", 1, 16),
    ("f x =: let y = of x in y", "expected a function name, found 'of'", 1, 16),
    ("f x =: let y = f x y", "expected 'in', found 'y'", 1, 20),
    ("f x =: case x { Z -> Z }", "expected 'of', found '{'", 1, 15),
    ("f x =: case of", "expected a left expression, found 'of'", 1, 13),
    ("f x =: case x of { Z Z }", "expected '->', found 'Z'", 1, 22),
    ("f x =: case x of { Z -> Z Z }", "expected '}', found 'Z'", 1, 27),
    ("f x =: case x of { Z -> Z }; g", "expected a left expression, found ''", 1, 31),
    ("f x ≜\r\n\tcase x of { Z → ⌊<x>⌋\r\n", "expected '}', found ''", 3, 1),
    ("f x! =: x", "'x!' is not a valid variable", 1, 3),
    ("f x =: ca!se", "'ca!' is not a valid variable", 1, 8),
    ("f x =: S(let)", "expected a left expression, found 'let'", 1, 10),
    ("f x =: S(x", "expected rpar, found ''", 1, 11),
    ("f x =: S(S(S(", "expected a left expression, found ''", 1, 14),
    ("f x =: <x y>", "expected gt, found 'y'", 1, 11),
    ("f x =: |_ x, y _|", "expected '_|', found ','", 1, 12),
    ("f x =: é", "unexpected character 'é'", 1, 8),
    # a character no token starts with is reported first, wherever it is
    ("f x =: case x of { Z -> S(, # }", "unexpected character '#'", 1, 29),
    ("f x =: case x of { Z -> Z; S(y) -> S!(y) }", "misplaced '!' in 'S!'", 1, 36),
    ("f x =: x y\n S!", "misplaced '!' in 'S!'", 2, 2),
])
def test_program_reader_errors(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == f"{line}:{col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


# ---------------------------------------------------------------------------
# Nodes: equality, hashing, printing, immutability, copies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(_DEEP_PROGRAMS))
def test_deep_programs_compare_hash_and_print_without_recursion(name):
    a, b = parse_program(_DEEP_PROGRAMS[name]), parse_program(_DEEP_PROGRAMS[name])
    assert a is not b
    for x, y in ((a, b), (a.defs[-1], b.defs[-1]), (a.defs[-1].body, b.defs[-1].body)):
        assert no_recursion(operator.eq, x, y)
        assert no_recursion(hash, x) == no_recursion(hash, y)
        assert no_recursion(repr, x) == no_recursion(repr, y)
    text = no_recursion(repr, a)
    assert text.startswith("Program(defs=(Def(name=")
    assert len(text) < 1000 * DEEP       # linear in the node count
    renamed = parse_program(_DEEP_PROGRAMS[name].replace("x", "w"))
    assert no_recursion(operator.ne, a, renamed)


def test_deep_programs_that_differ_in_a_name_compare_unequal():
    text = _DEEP_PROGRAMS["nested-cases"]
    a, b = parse_program(text), parse_program("g" + text[1:])
    assert a.defs[0].name == "f" and b.defs[0].name == "g"
    assert no_recursion(operator.ne, a, b) and no_recursion(operator.ne, a.defs[0], b.defs[0])
    assert not no_recursion(operator.eq, b, a)


@pytest.mark.parametrize("name", list(_DEEP_PROGRAMS))
def test_deep_programs_survive_pickle_and_deepcopy(name):
    p = parse_program(_DEEP_PROGRAMS[name])
    for again in (no_recursion(pickle.loads, no_recursion(pickle.dumps, p)),
                  no_recursion(copy.deepcopy, p)):
        assert again is not p and no_recursion(operator.eq, again, p)
        assert [n.pos for d in again.defs for n in walk(d.body)] == \
            [n.pos for d in p.defs for n in walk(d.body)]


def test_equality_and_hash_ignore_positions():
    a = parse_program("f x =: case x of { Z -> Z; S(y) -> let z = g y in S(z) }; g y =: y")
    b = parse_program("f x =:\n  case x of {\n    Z -> Z;\n"
                      "    S(y) ->\n      let z = g y in S(z)\n  };\n\ng y =: y\n")
    assert a.defs[0].body.branches[1][1].pos != b.defs[0].body.branches[1][1].pos
    assert a == b and hash(a) == hash(b)
    assert LVar("x", pos=(1, 2)) == LVar("x") and hash(LVar("x", pos=(1, 2))) == hash(LVar("x"))
    assert a != parse_program("f x =: case x of { Z -> Z; S(y) -> let z = g y in S(z) }; g u =: u")


def test_a_node_never_equals_a_node_of_another_type():
    x = LVar("x")
    assert ELeaf(x) != LDup(x) and LDup(x) != ELeaf(x)
    assert LCtor("S", (x,)) != LCtor("S", (LDup(x),))
    assert ELet(x, "f", x, ELeaf(x)) != ELet(x, "f", x, ELeaf(x), backward=True)
    assert x != "x" and Program(()) != ()
    assert len({ELeaf(x), LDup(x), ELeaf(LVar("x"))}) == 2


def test_node_reprs_name_every_field_but_the_position():
    assert repr(LCtor("S", (LVar("x", pos=(1, 2)),))) == "LCtor(ctor='S', args=(LVar(name='x'),))"
    assert repr(LCtor("<>", (LVar("x"), LCtor("Z")))) == \
        "LCtor(ctor='<>', args=(LVar(name='x'), LCtor(ctor='Z', args=())))"
    body = parse_program("f x =: rlet y = g x in case y of { Z -> |_ y _| }").defs[0].body
    assert repr(body) == (
        "ELet(bound=LVar(name='y'), fname='g', arg=LVar(name='x'), body=ECase("
        "scrutinee=LVar(name='y'), branches=((LCtor(ctor='Z', args=()), "
        "ELeaf(left=LDup(arg=LVar(name='y')))),)), backward=True)")
    assert repr(Program((Def("f", "x", ELeaf(LVar("x"))),))) == \
        "Program(defs=(Def(name='f', param='x', body=ELeaf(left=LVar(name='x'))),))"
    bad = check_static(parse_program("f x =: y"))[0]
    assert repr(bad).startswith("Violation(kind='unbound-variable', message=")
    assert repr(bad).endswith(", pos=(1, 8))")


def test_nodes_are_immutable():
    p = load_program("id.rfun")
    case = parse_program("f x =: case x of { S(y) -> y }").defs[0].body
    assert case.arms
    for node, field in ((p, "defs"), (p, "checked_defs"), (p.defs[0], "name"), (case, "arms"),
                        (case.scrutinee, "pos"), (case.scrutinee, "extra"),
                        (SymbolTable.from_names([]), "names")):
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert case.scrutinee == LVar("x") and case.scrutinee.pos == (1, 13)
    assert p.checked_defs and case.arms[0][0] == LCtor("S", (LVar("y"),))


def test_nodes_and_a_program_that_has_run_survive_pickle_and_copy():
    node = parse_program("f x =: case x of { Z -> Z; S(y) -> S(y) }").defs[0]
    p = load_program("arith.rfun")
    apply_forward(p, "plus", parse_value("<S(Z), Z>"))
    for x in (node, node.body, node.body.branches[1][0], p):
        for again in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert again == x and type(again) is type(x) and again.pos == x.pos
    q = pickle.loads(pickle.dumps(p))
    assert apply_forward(q, "plus", parse_value("<S(Z), Z>")) == parse_value("<S(Z), S(Z)>")
    bad = check_static(parse_program("f x =: y"))
    assert pickle.loads(pickle.dumps(bad)) == bad and copy.deepcopy(bad) == bad
    tbl = SymbolTable.from_program(p)
    again = pickle.loads(pickle.dumps(tbl))
    assert again == tbl and again.index("S") == tbl.index("S")


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(FIXTURES.parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = "import sys, rfun; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
