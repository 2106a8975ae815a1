"""Operational values of the reversible language: finite constructor trees.

A value is ``c(v1, ..., vn)`` for a constructor name ``c`` and zero or more
child values.  Tuples are ordinary values built with the distinguished
constructor ``TUPLE``; they print as ``<v1, ..., vn>``.  Their concrete syntax
is that of closed left expressions: :mod:`rfun.syntax` prints them with the
printer of left expressions (``render_value``) and reads them with the
reader of left expressions (``parse_value``).

Values are hash-consed: building a value returns the live value with the same
constructor and children if there is one, so structurally equal live values
are one object.  Equality and hashing are therefore identity, O(1) at any
depth.  The table holds its values weakly, so a value nobody uses is freed.
Values are immutable and safe to share.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from typing import Optional
from weakref import ref

# Distinguished tuple constructor.  The surface syntax has no way to spell it
# as an identifier, so it cannot collide with user constructors.
TUPLE = "<>"

# ctor -> args -> a weak reference to the one live value with those fields.
# The children in args are interned already, so args hashes them by id.
_table: defaultdict[str, dict[tuple, "_Ref"]] = defaultdict(dict)


class _Ref(ref):
    """A weak reference to a value that knows its entry in the table."""
    __slots__ = ("sub", "args")


def _evict(r: _Ref) -> None:
    # The value behind r died.  A value built again since then has its own
    # entry under the same key, which this late callback must leave alone.
    sub = r.sub
    if sub.get(r.args) is r:
        del sub[r.args]
        # A dict never shrinks on deletes.  When one is mostly empty, refill
        # it in place, so that every _Ref.sub still names it.  A dict built
        # by inserts takes at most 60 B per entry (CPython 3.11).
        n = len(sub)
        if n & 1023 == 0 and sys.getsizeof(sub) > 256 * (n + 1024):
            live = sub.copy()
            sub.clear()
            sub.update(live)


class Value:
    __slots__ = ("ctor", "args", "__weakref__")
    __match_args__ = ("ctor", "args")
    ctor: str
    args: tuple["Value", ...]

    def __new__(cls, ctor: str, args: tuple["Value", ...] = ()) -> "Value":
        sub = _table[ctor]
        r = sub.get(args)
        if r is not None:
            v = r()
            if v is not None:
                return v
        v = object.__new__(cls)
        _set_ctor(v, ctor)
        _set_args(v, args)
        r = sub[args] = _Ref(v, _evict)
        r.sub, r.args = sub, args
        return v

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Value is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Flat, so that pickling or copying a deep value does not recurse.
        return _unflatten, (_flatten(self),)

    def __repr__(self) -> str:
        from .syntax import render_value    # syntax imports this module
        return f"Value({render_value(self)!r})"


_set_ctor, _set_args = Value.ctor.__set__, Value.args.__set__


def _flatten(v: Value) -> tuple:
    """v's distinct nodes in post-order, each (ctor, its children's indices)."""
    index: dict[Value, int] = {}
    nodes = []
    todo = [v]
    while todo:
        w = todo[-1]
        if w in index:
            todo.pop()
            continue
        pending = [c for c in w.args if c not in index]
        if pending:
            todo.extend(pending)
        else:
            todo.pop()
            index[w] = len(nodes)
            nodes.append((w.ctor, tuple(index[c] for c in w.args)))
    return tuple(nodes)


def _unflatten(nodes: tuple) -> Value:
    built: list[Value] = []
    for ctor, kids in nodes:
        built.append(Value(ctor, tuple(built[i] for i in kids)))
    return built[-1]


def val(ctor: str, *args: Value) -> Value:
    return Value(ctor, tuple(args))


def tup(*args: Value) -> Value:
    return Value(TUPLE, tuple(args))


def dupeq_value(v: Value) -> Optional[Value]:
    """The duplication/equality operator on values.

    Defined only on tuples of arity 1 or 2:

        <x>    ->  <x, x>
        <x, y> ->  <x>      if x = y
        <x, y> ->  <x, y>   if x != y

    Returns None outside that domain.  Self-inverse where defined.
    """
    if v.ctor != TUPLE:
        return None
    if len(v.args) == 1:
        (x,) = v.args
        return Value(TUPLE, (x, x))
    if len(v.args) == 2:
        x, y = v.args
        if x is y:
            return Value(TUPLE, (x,))
        return v
    return None


def fold_tree(root, expand, build):
    """build(label, the children's results) at every node, bottom-up and
    without recursion; expand(node) gives (label, children), in pre-order."""
    nodes, todo = [], [root]
    while todo:
        label, kids = expand(todo.pop())
        nodes.append((label, len(kids)))
        todo.extend(reversed(kids))
    results: list = []
    # In reverse pre-order a node's children's results are the top n, first topmost.
    for label, n in reversed(nodes):
        args = results[:-n - 1:-1]
        del results[len(results) - n:]
        results.append(build(label, args))
    return results[0]
