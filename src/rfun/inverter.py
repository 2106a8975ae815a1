"""Syntactic program inversion.

For every definition ``f x =: e`` the inverter emits ``f! y =: e'`` where
``e'`` matches y against the leaves of e (in source order), undoes each
call with the inverse call, and rebuilds the original argument.  One
cleanup keeps the output in the shape people actually write: a one-branch
case over a variable pattern, ``case l of { v -> body }``, is inlined to
``body[v := l]`` (sound because bindings are linear).

Inversion flattens nested cases into one case over the leaves, so
``invert(invert(p))`` need not be alpha-equal to ``p``.  What holds is
``invert(invert(q)) ≡α q`` for every ``q`` in the image of ``invert``: from
its first output on, inversion is an involution up to variable renaming.
The inverse of a statically valid program is statically valid.
"""
from __future__ import annotations

from .syntax import (
    Def, ECase, ELeaf, ELet, Expr, LCtor, LDup, LeftExpr, LVar, Program,
    lvars, walk,
)


class InversionError(Exception):
    """A construct outside the expression grammar; unreachable for parsed
    programs."""


def invert_name(fname: str) -> str:
    """f <-> f!  (the trailing-bang convention for inverse functions)."""
    return fname[:-1] if fname.endswith("!") else fname + "!"


def invert_program(prog: Program) -> Program:
    return Program(tuple(_invert_def(d) for d in prog.defs))


def _invert_def(d: Def) -> Def:
    taken = {d.name, d.param}
    taken.update(n.name for n in walk(d.body) if isinstance(n, LVar))
    fresh = d.param + "'"
    while fresh in taken:
        fresh += "'"
    # One branch per leaf of the body, in source order, with its cont: the
    # expression that rebuilds the original input once the leaf's variables
    # are recovered.  One loop over (expression, its cont).
    branches: list[tuple[LeftExpr, Expr]] = []
    todo = [(d.body, ELeaf(LVar(d.param)))]
    while todo:
        e, cont = todo.pop()
        if type(e) is ELeaf:
            branches.append((e.left, cont))
        elif type(e) is ELet:
            # let bound = f arg  undoes to  let arg = f! bound; rlet likewise
            todo.append((e.body, ELet(e.arg, invert_name(e.fname), e.bound, cont, e.backward)))
        elif type(e) is ECase:
            todo += ((body, _mk_case(pat, [(e.scrutinee, cont)]))
                     for pat, body in reversed(e.branches))
        else:
            raise InversionError(f"not an expression: {e!r}")
    return Def(invert_name(d.name), fresh, _mk_case(LVar(fresh), branches))


def _mk_case(scrut: LeftExpr, branches: list[tuple[LeftExpr, Expr]]) -> Expr:
    if len(branches) == 1 and isinstance(branches[0][0], LVar):
        pat, body = branches[0]
        return _subst(body, pat.name, scrut)
    return ECase(scrut, tuple(branches))


def _subst(e: Expr, name: str, repl: LeftExpr) -> Expr:
    """e[name := repl] for a variable name free in e.  Once used, name may be
    bound again; the body under that binder is left as it is.

    One loop: a node goes back on the stack as [node] under its parts, to be
    rebuilt from their results, first on top; (node,) is kept as it is.
    """
    todo: list = [e]
    built: list = []
    while todo:
        n = todo.pop()
        kind = type(n)
        if kind is tuple:
            built.append(n[0])
        elif kind is LVar:
            built.append(repl if n.name == name else n)
        elif kind is LCtor:
            todo += ([n], *n.args)
        elif kind is LDup or kind is ELeaf:
            todo += ([n], n.arg if kind is LDup else n.left)
        elif kind is ELet:
            todo += ([n], n.uses, (n.body,) if name in lvars(n.binds) else n.body)
        elif kind is ECase:
            todo += ([n], n.scrutinee,
                     *((b,) if name in lvars(p) else b for p, b in n.branches))
        else:
            n = n[0]
            kind = type(n)
            if kind is LCtor:
                n = LCtor(n.ctor, tuple(built.pop() for _ in n.args), pos=n.pos)
            elif kind is ELet:
                n = n.with_uses(built.pop(), built.pop())
            elif kind is ECase:
                n = ECase(built.pop(), tuple((p, built.pop()) for p, _ in n.branches),
                          pos=n.pos)
            else:                       # an LDup or an ELeaf
                n = kind(built.pop(), pos=n.pos)
            built.append(n)
    return built[0]


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def alpha_eq(p: Program, q: Program) -> bool:
    """Structural equality modulo consistent renaming of variables.

    Function and constructor names must match exactly; definitions must come
    in the same order.  Renamings are scoped: a binder opens a fresh scope, so
    distinct branches may reuse names independently.
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
            elif env.get(a.name) != b.name:
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
