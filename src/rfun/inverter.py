"""Syntactic program inversion.

For every definition ``f x =: e`` the inverter emits ``f! y =: e'`` where
``e'`` matches y against the leaves of e (in source order), undoes each
call with the inverse call, and rebuilds the original argument.  Each
branch is one walk up its leaf's path with a renaming environment: a case
over a variable, ``case v of { p -> ... }``, undoes to ``v := p`` (the
inlining of ``case p of { v -> body }``, sound because bindings are
linear), and a binder drops its names from there inward.  Nothing is
substituted into a built expression, so inversion is linear in its output.

Inversion flattens nested cases into one case over the leaves, so
``invert(invert(p))`` need not be alpha-equal to ``p``.  What holds is
``invert(invert(q)) ≡α q`` for every ``q`` in the image of ``invert``: from
its first output on, inversion is an involution up to variable renaming.
A statically valid program has a statically valid inverse; others raise StaticError.
"""
from __future__ import annotations

from .syntax import (
    Def, ECase, ELeaf, ELet, Expr, LCtor, LDup, LeftExpr, LVar, Program,
    lvars, walk,
)
from .values import fold_tree


def invert_name(fname: str) -> str:
    """f <-> f!  (the trailing-bang convention for inverse functions)."""
    return fname[:-1] if fname.endswith("!") else fname + "!"


def invert_program(prog: Program) -> Program:
    return Program(tuple(_invert_def(d) for d in prog.checked_defs.values()))


def _invert_def(d: Def) -> Def:
    taken = {d.name, d.param}
    taken.update(n.name for n in walk(d.body) if isinstance(n, LVar))
    fresh = d.param + "'"
    while fresh in taken:
        fresh += "'"
    # Every leaf of the body, in source order, with its path: the lets and
    # case branches above it, nearest first, as a linked list
    # ((step, pattern), rest) whose common prefixes the branches share.
    leaves: list = []
    todo = [(d.body, None)]
    while todo:
        e, path = todo.pop()
        if type(e) is ELeaf:
            leaves.append((e.left, path))
        elif type(e) is ELet:
            todo.append((e.body, ((e, None), path)))
        else:                           # checked_defs has ruled out all but ECase
            todo += ((body, ((e, pat), path)) for pat, body in reversed(e.branches))
    if len(leaves) == 1 and type(leaves[0][0]) is LVar:     # case y of { v -> body } inlined
        body = _undo(leaves[0][1], d.param, {leaves[0][0].name: LVar(fresh)})
    else:
        body = ECase(LVar(fresh), tuple((leaf, _undo(path, d.param, {})) for leaf, path in leaves))
    return Def(invert_name(d.name), fresh, body)


def _undo(path, param: str, env: dict[str, LeftExpr]) -> Expr:
    """The expression that rebuilds param from one leaf, undoing its path
    nearest step first; env maps a variable to what stands for it."""
    frames = []
    while path:
        (step, pat), path = path
        if type(step) is ELet:          # let bound = f arg  undoes to  let arg = f! bound
            uses, binder = step.binds, step.uses
        elif type(step.scrutinee) is LVar:  # case v of { pat -> ... }  undoes to  v := pat
            env[step.scrutinee.name] = _rename(pat, env)
            continue
        else:
            uses, binder = pat, step.scrutinee
        frames.append((step, _rename(uses, env)))
        if env:                         # binder's names are bound again from here inward
            for v in lvars(binder):
                env.pop(v, None)
    e = ELeaf(env.get(param, LVar(param)))
    for step, uses in reversed(frames):
        if type(step) is ECase:
            e = ECase(uses, ((step.scrutinee, e),))
        else:                           # rlet likewise, both sides swapped
            bound, arg = (uses, step.bound) if step.backward else (step.arg, uses)
            e = ELet(bound, invert_name(step.fname), arg, e, step.backward)
    return e


def _rename(l: LeftExpr, env: dict[str, LeftExpr]) -> LeftExpr:
    """l with each variable v in env replaced by env[v]."""
    if not env:                     # nothing pending: l as it is, not a copy
        return l
    def build(n, args):
        if type(n) is LCtor:
            return LCtor(n.ctor, tuple(args), pos=n.pos)
        return LDup(args[0], pos=n.pos) if type(n) is LDup else env.get(n.name, n)
    return fold_tree(l, lambda n: (n, n.args if type(n) is LCtor else
                                      (n.arg,) if type(n) is LDup else ()), build)


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def alpha_eq(p: Program, q: Program) -> bool:
    """Structural equality modulo consistent renaming of variables.

    Function and constructor names must match exactly; definitions must come
    in the same order.  Renamings are scoped: a binder opens a fresh scope, so
    distinct branches may reuse names independently.  A free variable matches
    only itself, never the image of a bound one.
    """
    if len(p.defs) != len(q.defs) or any(a.name != b.name for a, b in zip(p.defs, q.defs)):
        return False
    # One loop over pairs to compare, each with the renaming in scope and
    # whether they bind; binders come after the uses beside them.
    todo = [(a.body, b.body, {a.param: b.param}, False) for a, b in zip(p.defs, q.defs)]
    while todo:
        a, b, env, bind = todo.pop()
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is LVar:
            if bind:
                env[a.name] = b.name
            elif a.name in env:
                if env[a.name] != b.name:
                    return False
            elif a.name != b.name or b.name in env.values():   # a free use
                return False
        elif kind is LCtor:
            if a.ctor != b.ctor or len(a.args) != len(b.args):
                return False
            todo += ((x, y, env, bind) for x, y in zip(reversed(a.args), reversed(b.args)))
        elif kind is LDup:
            todo.append((a.arg, b.arg, env, bind))
        elif kind is ELeaf:
            todo.append((a.left, b.left, env, False))
        elif kind is ELet:
            if a.fname != b.fname or a.backward != b.backward:
                return False
            todo += ((a.body, b.body, env, False), (a.binds, b.binds, env, True),
                     (a.uses, b.uses, env, False))
        elif kind is ECase and len(a.branches) == len(b.branches):
            for (pa, ea), (pb, eb) in zip(reversed(a.branches), reversed(b.branches)):
                inner = dict(env)
                todo += ((ea, eb, inner, False), (pa, pb, inner, True))
            todo.append((a.scrutinee, b.scrutinee, env, False))
        else:
            return False
    return True
