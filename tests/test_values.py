import random

from hypothesis import given, strategies as st

from rfun.syntax import render_value
from rfun.values import (
    TUPLE, Value, dupeq_value, tup, val, value_depth, value_eq, value_size,
)

from helpers import ARITH_VOCAB, no_recursion, peano, random_value

Z = val("Z")
SZ = val("S", Z)


def test_value_eq_reflexive():
    assert value_eq(Z, Z)
    assert value_eq(tup(SZ, SZ), tup(SZ, SZ))


def test_value_eq_ctor_mismatch():
    assert not value_eq(SZ, Z)
    assert not value_eq(val("S", Z), val("S", SZ))
    assert not value_eq(tup(Z), tup(Z, Z))


def test_deep_value_eq_does_not_recurse():
    a, b = peano(50_000), peano(50_000)
    assert no_recursion(value_eq, a, b)
    assert not no_recursion(value_eq, a, peano(50_001))


def test_dupeq_singleton_duplicates():
    assert dupeq_value(tup(SZ)) == tup(SZ, SZ)


def test_dupeq_equal_pair_contracts():
    assert dupeq_value(tup(Z, Z)) == tup(Z)


def test_dupeq_unequal_pair_fixed():
    assert dupeq_value(tup(Z, SZ)) == tup(Z, SZ)


def test_dupeq_undefined_outside_domain():
    assert dupeq_value(Z) is None
    assert dupeq_value(tup()) is None
    assert dupeq_value(tup(Z, Z, Z)) is None


values_strategy = st.recursive(
    st.sampled_from([Z, val("A"), val("B")]),
    lambda children: st.builds(lambda a: val("S", a), children)
    | st.builds(tup, children)
    | st.builds(tup, children, children),
    max_leaves=12,
)


@given(values_strategy)
def test_dupeq_self_inverse_on_tuples(v):
    for candidate in (tup(v), tup(v, v), tup(v, val("Q"))):
        w = dupeq_value(candidate)
        assert w is not None
        assert dupeq_value(w) == candidate


def test_dupeq_injective_on_small_domain():
    rng = random.Random(7)
    domain = [tup(random_value(rng, ARITH_VOCAB, 3)) for _ in range(40)]
    domain += [tup(random_value(rng, ARITH_VOCAB, 3), random_value(rng, ARITH_VOCAB, 3))
               for _ in range(80)]
    seen = {}
    for v in domain:
        w = dupeq_value(v)
        if w is None:
            continue
        if w in seen and seen[w] != v:
            raise AssertionError(f"dupeq not injective: {v} and {seen[w]} map to {w}")
        seen[w] = v


@given(values_strategy)
def test_render_is_injective_enough(v):
    # identical text implies identical value for the generated family
    w = val("S", v)
    assert render_value(v) != render_value(w)


def test_render_shapes():
    assert render_value(Z) == "Z"
    assert render_value(val("S", Z)) == "S(Z)"
    assert render_value(tup(SZ, Z)) == "<S(Z), Z>"
    assert render_value(tup()) == "<>"


def test_depth_and_size():
    assert value_depth(Z) == 1
    assert value_depth(peano(3)) == 4
    assert value_size(tup(Z, SZ)) == 4
    assert TUPLE == "<>"
