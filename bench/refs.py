"""Plain-Python reference semantics for the benchmark's programs.

Nothing here imports rfun.  A value is a ``(ctor, args)`` pair, with ``"<>"``
as the tuple constructor, and ``text`` renders it in the toolkit's concrete
syntax, so an output is correct when ``render_value`` of it equals the text
this module computes.  Peano numerals are handled as Python ints.
"""
from __future__ import annotations

import random

TUPLE = "<>"

# Outcome texts for runs that return no value.
OUT_OF_FUEL = "out-of-fuel"
NO_MATCH = "no-match"


def tup(*xs):
    return (TUPLE, xs)


def text(v) -> str:
    """Concrete syntax: ``c``, ``c(v1, ..., vn)``, ``<v1, ..., vn>``."""
    out: list[str] = []
    todo: list = [v]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        ctor, args = item
        if ctor == TUPLE:
            out.append("<")
            closer = ">"
        elif not args:
            out.append(ctor)
            continue
        else:
            out.append(ctor + "(")
            closer = ")"
        todo.append(closer)
        for i in range(len(args) - 1, -1, -1):
            todo.append(args[i])
            if i:
                todo.append(", ")
    return "".join(out)


def num_text(n: int) -> str:
    return "S(" * n + "Z" + ")" * n


def pair_text(a: int, b: int) -> str:
    return f"<{num_text(a)}, {num_text(b)}>"


def fibs(n: int) -> tuple[int, int]:
    """fib n = <F(n+1), F(n+2)> with F(1) = F(2) = 1."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b


def fib_apps(n: int) -> int:
    """Interpreter applications of ``fib n``: n+1 calls of fib, and for each
    m < n one ``plus <F(m+2), F(m+1)>`` of F(m+1)+1 applications."""
    total = n + 1
    for m in range(n):
        total += fibs(m)[0] + 1
    return total


def random_tree(rng: random.Random, inner: int):
    """A binary tree of ``Node``/``Tip`` with ``inner`` Nodes, shaped like a
    random binary search tree (expected depth O(log inner))."""
    if inner == 0:
        return ("Tip", ())
    left = rng.randrange(inner)
    return ("Node", (random_tree(rng, left), random_tree(rng, inner - 1 - left)))


def mirror(t):
    if t[0] == "Tip":
        return t
    a, b = t[1]
    return ("Node", (mirror(b), mirror(a)))


def size(v) -> int:
    return 1 + sum(size(a) for a in v[1])


def random_value(rng: random.Random, vocab: list[tuple[str, int]], nodes: int):
    """A value over ``vocab`` with exactly ``nodes`` constructors, for
    vocabularies with a nullary constructor and one of arity >= 1."""
    if nodes <= 1:
        return (rng.choice([c for c in vocab if c[1] == 0])[0], ())
    ctor, arity = rng.choice([c for c in vocab if c[1] >= 1 and c[1] < nodes])
    rest = nodes - 1
    cuts = sorted(rng.randint(0, rest - arity) for _ in range(arity - 1))
    sizes = [b - a + 1 for a, b in zip([0] + cuts, cuts + [rest - arity])]
    return (ctor, tuple(random_value(rng, vocab, s) for s in sizes))
