import random
import time

import pytest

from rfun.inverter import alpha_eq, invert_name, invert_program
from rfun.opsem import apply_backward, apply_forward
from rfun.syntax import (
    Program, StaticError, check_static, parse_program, render_program,
)
from rfun.values import Value, val

from helpers import ARITH_VOCAB, FIXTURES, load_program, no_recursion, random_value
from test_differential import gen_program

Z = val("Z")

CORPUS = ("arith.rfun", "mirror.rfun", "iseq.rfun", "id.rfun", "loop.rfun")


def test_invert_name_is_an_involution():
    assert invert_name("plus") == "plus!"
    assert invert_name("plus!") == "plus"


def test_inverse_of_arith_matches_reference_listings():
    inv = invert_program(load_program("arith.rfun"))
    fixture = load_program("arith_inv.rfun")
    assert alpha_eq(inv, fixture)


def test_sugared_plus_has_the_same_inverse():
    sugared = load_program("plus_sugared.rfun")
    fixture = load_program("arith_inv.rfun")
    assert alpha_eq(invert_program(sugared), Program((fixture.defs[0],)))


def test_inversion_is_involutive_on_corpus():
    for name in CORPUS:
        p = load_program(name)
        assert alpha_eq(invert_program(invert_program(p)), p), name


def test_inversion_is_involutive_on_its_image():
    # Inversion flattens nested cases (extra's swapc rebuilds a composite
    # scrutinee), so invert(invert(p)) need not be p; from the image onward
    # it is an involution.
    progs = [load_program(path.name) for path in sorted(FIXTURES.glob("*.rfun"))]
    progs += [gen_program(random.Random(seed)) for seed in range(50)]
    for p in progs:
        q = invert_program(p)
        assert alpha_eq(invert_program(invert_program(q)), q), render_program(p)


def test_inverses_pass_static_checks():
    for name in CORPUS + ("extra.rfun",):
        assert check_static(invert_program(load_program(name))) == []


def test_inverse_output_reparses_and_is_stable():
    p = load_program("arith.rfun")
    text = render_program(invert_program(p))
    again = parse_program(text)
    assert render_program(again) == text
    assert alpha_eq(again, invert_program(p))


def test_identity_program_inverts_to_identity():
    p = load_program("id.rfun")
    inv = invert_program(p)
    assert inv.defs[0].name == "f!"
    assert alpha_eq(Program((inv.defs[0],)),
                    Program((parse_program("f! y =: y").defs[0],)))


def test_semantic_inverse_on_seeded_corpus_inputs():
    rng = random.Random(42)
    vocab = {
        "arith.rfun": (ARITH_VOCAB, 5),
        "mirror.rfun": ([("Tip", 0), ("Node", 2)], 5),
        "iseq.rfun": (ARITH_VOCAB + [("<>", 1)], 5),
        # sub and friends have narrow domains; any hit still must round-trip
        "extra.rfun": (ARITH_VOCAB + [("A", 0)], 1),
    }
    for name, (voc, min_hits) in vocab.items():
        p = load_program(name)
        q = invert_program(p)
        for d in p.defs:
            hits = 0
            for _ in range(200):
                v = random_value(rng, voc, 5)
                w = apply_forward(p, d.name, v)
                if isinstance(w, Value):
                    hits += 1
                    assert apply_forward(q, invert_name(d.name), w) == v, (name, d.name)
            assert hits >= min_hits, (name, d.name)


def test_sub_inverse_on_a_grid():
    p = load_program("extra.rfun")
    q = invert_program(p)
    from helpers import peano
    from rfun.values import tup
    for m in range(5):
        for n in range(5):
            w = apply_forward(p, "sub", tup(peano(m), peano(m + n)))
            assert w == tup(peano(m), peano(n))
            assert apply_forward(q, "sub!", w) == tup(peano(m), peano(m + n))
            assert apply_backward(p, "sub", w) == tup(peano(m), peano(m + n))


def test_alpha_eq_pure_renaming():
    a = parse_program("f x =: case x of { S(u) -> u; P(u) -> u }")
    b = parse_program("f y =: case y of { S(w) -> w; P(v) -> v }")
    assert alpha_eq(a, b)


def test_alpha_eq_scoped_rebinding():
    a = parse_program("g x =: x; f x =: let y = g x in let x = g y in x")
    b = parse_program("g x =: x; f x =: let y = g x in let z = g y in z")
    assert alpha_eq(a, b)


def test_alpha_eq_distinguishes_shapes():
    plus = Program((load_program("arith.rfun").defs[0],))
    fib = Program((load_program("arith.rfun").defs[1],))
    assert not alpha_eq(plus, fib)
    a = parse_program("f x =: case x of { Z -> A }")
    b = parse_program("f x =: case x of { Z -> B }")
    assert not alpha_eq(a, b)
    c = parse_program("f x =: x")
    d = parse_program("g x =: x")
    assert not alpha_eq(c, d)


@pytest.mark.parametrize("a, b", [
    # a node's kind: a variable against a constructor, a leaf against a let
    ("f x =: x", "f x =: S(x)"),
    ("g x =: x; f x =: x", "g x =: x; f x =: let y = g x in y"),
    # a let's callee, and its direction
    ("g x =: x; h x =: x; f x =: let y = g x in y",
     "g x =: x; h x =: x; f x =: let y = h x in y"),
    ("g x =: x; f x =: let y = g x in y", "g x =: x; f x =: rlet x = g y in y"),
    # a case's branch count, when the one branch of the shorter is alike
    ("f x =: case x of { Z -> Z; S(u) -> S(u) }", "f x =: case x of { S(u) -> S(u) }"),
    ("f x =: case x of { Z -> Z; S(u) -> S(u) }", "f x =: case x of { Z -> Z }"),
])
def test_alpha_eq_rejects_a_different_kind_callee_direction_or_branch_count(a, b):
    a, b = parse_program(a), parse_program(b)
    assert not alpha_eq(a, b) and not alpha_eq(b, a)
    assert alpha_eq(a, a) and alpha_eq(b, b)


def test_alpha_eq_requires_consistent_renaming():
    a = parse_program("f x =: case x of { <u, v> -> <u, v> }")
    b = parse_program("f x =: case x of { <u, v> -> <v, u> }")
    assert not alpha_eq(a, b)


def test_alpha_eq_matches_a_free_variable_only_to_itself():
    # y is free where it is used; check_static rejects both programs
    p = parse_program("g x =: x; f x =: rlet y = g x in y")
    assert alpha_eq(p, p)
    a, b = parse_program("f x =: y"), parse_program("f y =: y")
    assert not alpha_eq(a, b) and not alpha_eq(b, a)
    assert alpha_eq(a, a) and alpha_eq(b, b)


def test_inverse_keeps_variables_rebound_after_use_apart():
    # v is used and then bound again; inlining the rebuilt input for v must
    # stop at the new binder, in a let and in a case
    p = parse_program(
        "g y =: y;"
        "f v =: let v = g v in case v of { S(w) -> w };"
        "h v =: case <v> of { <v> -> case v of { S(w) -> w } }")
    inv = invert_program(p)
    assert check_static(inv) == []
    for fname in ("f", "h"):
        assert apply_forward(inv, invert_name(fname), Z) == val("S", Z)
        assert apply_backward(inv, invert_name(fname), val("S", Z)) == Z


def test_rlet_inversion_roundtrip():
    p = parse_program(
        "plus p =: case p of { <x, Z> -> |_ <x> _|;"
        " <x, S(u)> -> let <x', u'> = plus <x, u> in <x', S(u')> };"
        "sub q =: rlet q = plus r in r"
    )
    assert check_static(p) == []
    inv = invert_program(p)
    assert check_static(inv) == []
    assert alpha_eq(invert_program(inv), p)


# Program text -> the exact listing of its inverse.
LISTINGS = [
    ("f x =: x", "f! x' =:\n  x'\n"),
    ("f x =: case x of { S(y) -> case y of { S(z) -> z } }",
     "f! x' =:\n  S(S(x'))\n"),
    # v bound again by a let
    ("g y =: y; f v =: let v = g v in case v of { S(w) -> w }",
     "g! y' =:\n  y';\n\n"
     "f! v' =:\n  let v = g! S(v') in\n  v\n"),
    # v bound again by a pattern; a non-variable scrutinee stays a case
    ("g y =: y; h v =: case <v> of { <v> -> case v of { S(w) -> w } }",
     "g! y' =:\n  y';\n\n"
     "h! v' =:\n  case <S(v')> of {\n    <v> -> v\n  }\n"),
    ("f x =: case |_ x _| of { <y> -> y; <y, z> -> <z, y> }",
     "f! x' =:\n  case x' of {\n"
     "    y ->\n      case <y> of {\n        |_ x _| -> x\n      };\n"
     "    <z, y> ->\n      case <y, z> of {\n        |_ x _| -> x\n      }\n  }\n"),
    ("f x =: case x of { <y> -> case |_ y _| of { <u> -> A(u); <u, v> -> B(u, v) } }",
     "f! x' =:\n  case x' of {\n"
     "    A(u) ->\n      case <u> of {\n        |_ y _| -> <y>\n      };\n"
     "    B(u, v) ->\n      case <u, v> of {\n        |_ y _| -> <y>\n      }\n  }\n"),
    ("g x =: x; f x =: rlet x = g y in case y of { S(z) -> <z> }",
     "g! x' =:\n  x';\n\n"
     "f! x' =:\n  case x' of {\n    <z> ->\n      rlet S(z) = g! x in\n      x\n  }\n"),
    ("plus p =: case p of { <x, Z> -> |_ <x> _|;"
     " <x, S(u)> -> let <x2, u2> = plus <x, u> in <x2, S(u2)> };"
     " sub q =: rlet q = plus r in r",
     "plus! p' =:\n  case p' of {\n    |_ <x> _| -> <x, Z>;\n"
     "    <x2, S(u2)> ->\n      let <x, u> = plus! <x2, u2> in\n      <x, S(u)>\n  };\n\n"
     "sub! q' =:\n  rlet q' = plus! q in\n  q\n"),
]


def test_inverse_listings():
    for text, listing in LISTINGS:
        assert render_program(invert_program(parse_program(text))) == listing, text


def test_inverting_a_statically_invalid_program_raises():
    # y is used twice, and so would be in the inverse, case x' of { <y, y> -> S(y) }
    with pytest.raises(StaticError):
        invert_program(parse_program("f x =: case x of { S(y) -> <y, y> }"))


def test_inversion_is_linear_in_case_nesting():
    n = 4000
    p = parse_program("f x0 =: " + "".join(f"case x{i} of {{ S(x{i + 1}) -> " for i in range(n))
                      + f"x{n}" + " }" * n)
    started = time.perf_counter()
    inv = no_recursion(invert_program, p)
    elapsed = time.perf_counter() - started
    assert no_recursion(render_program, inv) == "f! x0' =:\n  " + "S(" * n + "x0'" + ")" * n + "\n"
    assert elapsed < 2.0, elapsed
    # lets and cases alternate, each binding x again after its use, so the
    # inverse's lets drop the renamings pending for x all the way down
    half = n // 2
    p = parse_program("g y =: y; f x =: " + "let x = g x in case x of { S(x) -> " * half
                      + "x" + " }" * half)
    closed = parse_program("g! y' =: y'; f! x' =: let x = g! S(x') in "
                           + "let x = g! S(x) in " * (half - 1) + "x")
    assert no_recursion(alpha_eq, no_recursion(invert_program, p), closed)
