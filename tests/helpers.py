"""Shared helpers for the test suite."""
from __future__ import annotations

import random
from pathlib import Path

from rfun.invcat import (
    ONE, Morph, Prod, Sum, compose, dagger, delta, identity, inj1, inj2,
    join, oplus, otimes, prod_swap, restrict, sum_swap, zero_morph,
)
from rfun.harness import gen_value as random_value  # noqa: F401  (re-exported)
from rfun.syntax import Program, check_static_or_raise, parse_program
from rfun.values import TUPLE, Value, val

FIXTURES = Path(__file__).parent / "fixtures"

BOOL = Sum(ONE, ONE)
TRI = Sum(ONE, BOOL)
PAIRB = Prod(BOOL, BOOL)
SMALL_OBJS = [ONE, BOOL, TRI, PAIRB, Prod(ONE, BOOL), Sum(BOOL, PAIRB)]


def gen_morphism(rng: random.Random, src, depth: int) -> Morph:
    """Random morphism out of src built from the category's combinators."""
    options = ["id", "zero", "restrict", "compose", "delta", "inj1", "inj2"]
    if depth <= 0:
        options = ["id", "zero", "delta", "inj1", "inj2"]
    if isinstance(src, Sum):
        options += ["oplus", "proj1", "proj2", "sum_swap", "join_injs"]
    if isinstance(src, Prod):
        options += ["otimes", "prod_swap", "eq_test"]
    match rng.choice(options):
        case "id":
            return identity(src)
        case "zero":
            return zero_morph(src, rng.choice(SMALL_OBJS))
        case "restrict":
            return restrict(gen_morphism(rng, src, depth - 1))
        case "compose":
            f = gen_morphism(rng, src, depth - 1)
            g = gen_morphism(rng, f.tgt, depth - 1)
            return compose(g, f)
        case "delta":
            return delta(src)
        case "inj1":
            return inj1(src, rng.choice(SMALL_OBJS))
        case "inj2":
            return inj2(rng.choice(SMALL_OBJS), src)
        case "oplus":
            return oplus(gen_morphism(rng, src.left, depth - 1),
                         gen_morphism(rng, src.right, depth - 1))
        case "proj1":
            return dagger(inj1(src.left, src.right))
        case "proj2":
            return dagger(inj2(src.left, src.right))
        case "sum_swap":
            return sum_swap(src.left, src.right)
        case "join_injs":
            a, b = src.left, src.right
            return join([compose(inj1(a, b), dagger(inj1(a, b))),
                         compose(inj2(a, b), dagger(inj2(a, b)))])
        case "otimes":
            return otimes(gen_morphism(rng, src.left, depth - 1),
                          gen_morphism(rng, src.right, depth - 1))
        case "prod_swap":
            return prod_swap(src.left, src.right)
        case "eq_test":
            if src.left == src.right:
                return dagger(delta(src.left))
            return prod_swap(src.left, src.right)
    raise AssertionError


def load_program(name: str) -> Program:
    return check_static_or_raise(parse_program((FIXTURES / name).read_text()))


def peano(n: int) -> Value:
    v = val("Z")
    for _ in range(n):
        v = val("S", v)
    return v


def unpeano(v: Value) -> int:
    n = 0
    while v.ctor == "S" and len(v.args) == 1:
        n += 1
        v = v.args[0]
    assert v.ctor == "Z" and not v.args, f"not a numeral: {v}"
    return n


def fib_pair(n: int) -> tuple[int, int]:
    """(Fib(n+1), Fib(n+2)) with Fib(1) = Fib(2) = 1, by plain arithmetic."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b


ARITH_VOCAB = [("Z", 0), ("S", 1), (TUPLE, 2)]
