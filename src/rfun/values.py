"""Operational values of the reversible language: finite constructor trees.

A value is ``c(v1, ..., vn)`` for a constructor name ``c`` and zero or more
child values.  Tuples are ordinary values built with the distinguished
constructor ``TUPLE``; they print as ``<v1, ..., vn>``.  Values are immutable
and safe to share.  Their concrete syntax is that of closed left expressions,
so :mod:`rfun.syntax` reads (``parse_value``) and prints (``render_value``)
them with the same code as left expressions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Distinguished tuple constructor.  The surface syntax has no way to spell it
# as an identifier, so it cannot collide with user constructors.
TUPLE = "<>"


@dataclass(frozen=True, eq=False)
class Value:
    ctor: str
    args: tuple["Value", ...] = ()

    # Equality and hashing are spelled out by hand so that neither recurses
    # along the tree depth (Peano encodings get deep quickly).
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Value):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.ctor != b.ctor or len(a.args) != len(b.args):
                return False
            todo.extend(zip(a.args, b.args))
        return True

    def __hash__(self) -> int:
        return hash((self.ctor, len(self.args)))

    def __repr__(self) -> str:
        from .syntax import render_value    # syntax imports this module
        return f"Value({render_value(self)!r})"


def val(ctor: str, *args: Value) -> Value:
    return Value(ctor, tuple(args))


def tup(*args: Value) -> Value:
    return Value(TUPLE, tuple(args))


def value_eq(a: Value, b: Value) -> bool:
    """Decidable structural equality."""
    return a == b


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
        if x == y:
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
