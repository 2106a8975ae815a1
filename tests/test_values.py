import copy
import gc
import operator
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from rfun import values
from rfun.densem import SymbolTable, decode_value, encode_value
from rfun.harness import gen_value
from rfun.opsem import apply_backward, apply_forward
from rfun.syntax import parse_value, render_value
from rfun.values import (
    TUPLE, Value, dupeq_value, tup, val,
)

from helpers import (
    ARITH_VOCAB, load_program, no_recursion, peano, random_value, value_depth,
    value_size,
)

Z = val("Z")
SZ = val("S", Z)


def test_value_eq_reflexive():
    assert Z is Z
    assert tup(SZ, SZ) is tup(SZ, SZ)


def test_value_eq_ctor_mismatch():
    assert SZ is not Z
    assert val("S", Z) is not val("S", SZ)
    assert tup(Z) is not tup(Z, Z)


def test_deep_value_eq_does_not_recurse():
    a, b = peano(50_000), peano(50_000)
    assert no_recursion(operator.eq, a, b)
    assert not no_recursion(operator.eq, a, peano(50_001))


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


# ---------------------------------------------------------------------------
# Hash-consing: structurally equal live values are one object
# ---------------------------------------------------------------------------

def test_equal_values_built_apart_are_one_object():
    v = tup(val("S", Z), val("Nil"))
    assert val("S", val("Z")) is SZ
    assert parse_value("<S(Z), Nil>") is v
    tbl = SymbolTable.from_names(["Z", "S", "Nil"])
    assert decode_value(encode_value(v, tbl), tbl) is v
    assert gen_value(random.Random(5), ARITH_VOCAB, 4) is gen_value(random.Random(5), ARITH_VOCAB, 4)
    prog = load_program("arith.rfun")
    out = apply_forward(prog, "plus", tup(peano(2), peano(3)))
    assert out is tup(peano(2), peano(5))
    assert apply_backward(prog, "plus", out) is tup(peano(2), peano(3))


def test_deep_numerals_are_identical_and_compare_in_constant_time():
    a, b = peano(100_000), peano(100_000)
    assert a is b
    # Equality and hashing are object's own: no walk, whatever the depth.
    assert Value.__eq__ is object.__eq__ and Value.__hash__ is object.__hash__
    assert a == b and a is b
    assert a != peano(99_999) and a is not peano(100_001)


def _table_size():
    return sum(map(len, values._table.values()))


def test_table_frees_values_nobody_uses():
    gc.collect()
    before = _table_size()
    v = val("Leak", val("Probe"))
    for _ in range(1_000):
        v = val("Leak", v)
    assert _table_size() == before + 1_002
    del v
    gc.collect()
    assert _table_size() == before


def test_table_shrinks_after_a_large_value_dies():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        v = peano(300_000)
        assert tracemalloc.get_traced_memory()[0] - before > 10_000_000
        del v
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < 1_000_000
    finally:
        tracemalloc.stop()


def test_stale_callback_keeps_the_newer_entry():
    old = val("Stale", Z)
    old_ref = values._table["Stale"][(Z,)]
    del old
    assert old_ref() is None and (Z,) not in values._table["Stale"]
    new = val("Stale", Z)
    values._evict(old_ref)          # the dead value's callback, run late
    assert values._table["Stale"][(Z,)]() is new
    assert val("Stale", Z) is new


def test_values_are_immutable():
    v = val("S", Z)
    with pytest.raises(AttributeError):
        v.ctor = "T"
    with pytest.raises(AttributeError):
        v.extra = 1
    with pytest.raises(AttributeError):
        del v.args
    assert v.ctor == "S" and v.args == (Z,)


def test_copies_and_pickles_are_the_interned_value():
    v = tup(SZ, val("Cons", Z, val("Nil")))
    assert copy.copy(v) is v
    assert copy.deepcopy(v) is v
    assert pickle.loads(pickle.dumps(v)) is v
    shared = tup(v, v)
    assert pickle.loads(pickle.dumps(shared)) is shared
    deep = peano(100_000)
    assert no_recursion(lambda: pickle.loads(pickle.dumps(deep))) is deep
    assert no_recursion(copy.deepcopy, deep) is deep


def test_class_patterns_bind():
    match SZ:
        case Value("S", (w,)):
            assert w is Z
        case _:
            raise AssertionError("S(Z) did not match Value('S', (w,))")
