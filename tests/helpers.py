"""Shared helpers for the test suite."""
from __future__ import annotations

import math
import random
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional

import pytest

from rfun.invcat import (
    NO_FUEL, ONE, STAR, UNDEF, Elem, InL, InR, Morph, Mu, ObjDesc, One, Pair,
    Prod, Roll, Star, Sum, TypeMismatch, Var, Zero, compose, dagger, delta,
    identity, inj1, inj2, join, obj_str, oplus, otimes, prod_swap, restrict,
    sum_swap, unfold_obj, zero_morph,
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


def no_recursion(fn, *args, **kwargs):
    """fn(*args, **kwargs), failing the test at once if it raises
    RecursionError.

    pytest looks for the start of a recursion by comparing the locals of
    same-line frames with ==, which walks any deep values they hold and can
    take minutes.  Failing outside the except block, with no Python
    traceback, leaves it nothing to compare."""
    try:
        return fn(*args, **kwargs)
    except RecursionError as exc:
        message = f"{getattr(fn, '__name__', fn)} recursed too deeply: {exc}"
    pytest.fail(message, pytrace=False)


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


# ---------------------------------------------------------------------------
# Elements of objects, enumerated and sampled (used by the law suite)
# ---------------------------------------------------------------------------

def has_mu(o: ObjDesc) -> bool:
    match o:
        case Mu():
            return True
        case Sum(a, b) | Prod(a, b):
            return has_mu(a) or has_mu(b)
        case _:
            return False


def well_formed(e: Elem, obj: ObjDesc) -> bool:
    match obj, e:
        case One(), Star():
            return True
        case Sum(a, _), InL(x):
            return well_formed(x, a)
        case Sum(_, b), InR(x):
            return well_formed(x, b)
        case Prod(a, b), Pair(x, y):
            return well_formed(x, a) and well_formed(y, b)
        case Mu(), Roll(x):
            return well_formed(x, unfold_obj(obj))
        case _:
            return False


def enumerate_elems(obj: ObjDesc, depth: Optional[int] = None) -> Iterator[Elem]:
    """All elements of obj; for objects containing Mu a depth bound is
    required (depth counts element constructors)."""
    if depth is None and has_mu(obj):
        raise ValueError("enumerating a recursive object requires a depth bound")
    yield from _enum(obj, math.inf if depth is None else depth)


def _enum(obj: ObjDesc, budget) -> Iterator[Elem]:
    match obj:
        case Zero():
            return
        case One():
            if budget >= 0:
                yield STAR
        case Sum(a, b):
            if budget >= 1:
                for x in _enum(a, budget - 1):
                    yield InL(x)
                for x in _enum(b, budget - 1):
                    yield InR(x)
        case Prod(a, b):
            if budget >= 1:
                for x in _enum(a, budget - 1):
                    for y in _enum(b, budget - 1):
                        yield Pair(x, y)
        case Mu():
            if budget >= 1:
                for x in _enum(unfold_obj(obj), budget - 1):
                    yield Roll(x)
        case Var():
            raise TypeMismatch("open object")


def count_elems(obj: ObjDesc) -> int:
    """Cardinality of a Mu-free object."""
    match obj:
        case Zero():
            return 0
        case One():
            return 1
        case Sum(a, b):
            return count_elems(a) + count_elems(b)
        case Prod(a, b):
            return count_elems(a) * count_elems(b)
    raise TypeMismatch(f"{obj_str(obj)} is not a finite, Mu-free object")


@lru_cache(maxsize=None)
def min_depth(obj: ObjDesc) -> float:
    """Depth of the shallowest element, or inf for empty objects."""
    return _min_depth(obj, ())


def _min_depth(obj: ObjDesc, env: tuple) -> float:
    match obj:
        case Zero():
            return math.inf
        case One():
            return 0
        case Var(i):
            return env[i]
        case Sum(a, b):
            return 1 + min(_min_depth(a, env), _min_depth(b, env))
        case Prod(a, b):
            return 1 + max(_min_depth(a, env), _min_depth(b, env))
        case Mu(b):
            d = math.inf
            for _ in range(64):
                d2 = 1 + _min_depth(b, (d,) + env)
                if d2 == d:
                    break
                d = d2
            return d
    raise AssertionError


def sample_elem(rng: random.Random, obj: ObjDesc, depth: int = 6) -> Elem:
    """Depth-bounded random element; deterministic for a seeded rng."""
    md = min_depth(obj)
    if md == math.inf:
        raise ValueError(f"{obj_str(obj)} has no elements")
    return _sample(rng, obj, max(depth, int(md)))


def _sample(rng: random.Random, obj: ObjDesc, budget: int) -> Elem:
    match obj:
        case One():
            return STAR
        case Sum(a, b):
            viable = [(wrap, child) for wrap, child in ((InL, a), (InR, b))
                      if min_depth(child) <= budget - 1]
            wrap, child = rng.choice(viable)
            return wrap(_sample(rng, child, budget - 1))
        case Prod(a, b):
            return Pair(_sample(rng, a, budget - 1), _sample(rng, b, budget - 1))
        case Mu():
            return Roll(_sample(rng, unfold_obj(obj), budget - 1))
    raise TypeMismatch(f"cannot sample from {obj_str(obj)}")


# ---------------------------------------------------------------------------
# Pointwise comparisons (sampled; used by the law suite and the harness)
# ---------------------------------------------------------------------------

def leq_pointwise(f: Morph, g: Morph, elems: list[Elem], fuel: int) -> bool:
    """f <= g on the given sample: wherever f is defined, g agrees.

    NO_FUEL samples are inconclusive and skipped.
    """
    for x in elems:
        rf = f.fwd(x, fuel)
        if rf is NO_FUEL or rf is UNDEF:
            continue
        if g.fwd(x, fuel) != rf:
            return False
    return True


# ---------------------------------------------------------------------------
# Sizes of values
# ---------------------------------------------------------------------------

def value_depth(v: Value) -> int:
    depth = 0
    layer = [v]
    while layer:
        depth += 1
        layer = [c for x in layer for c in x.args]
    return depth


def value_size(v: Value) -> int:
    size = 0
    todo = [v]
    while todo:
        x = todo.pop()
        size += 1
        todo.extend(x.args)
    return size
