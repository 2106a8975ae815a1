"""Syntactic program inversion.

For every definition ``f x =: e`` the inverter emits ``f! y =: e'`` where
``e'`` matches y against the leaves of e (in source order), undoes each
let/rlet with the inverse call, and rebuilds the original argument.  One
cleanup keeps the output in the shape people actually write: a one-branch
case over a variable pattern, ``case l of { v -> body }``, is inlined to
``body[v := l]`` (sound because bindings are linear).

Inversion is an involution up to variable renaming, and the inverse of a
statically valid program is statically valid.
"""
from __future__ import annotations

from .syntax import (
    Def, ECase, ELeaf, ELet, ERLet, Expr, LCtor, LDup, LeftExpr, LVar,
    Program, walk,
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
    branches = _invert_branches(d.body, ELeaf(LVar(d.param)))
    return Def(invert_name(d.name), fresh, _mk_case(LVar(fresh), branches))


def _invert_branches(e: Expr, cont: Expr) -> list[tuple[LeftExpr, Expr]]:
    """Branches of the inverted case: one per leaf of e, in source order.

    cont is the expression that rebuilds the original input once the free
    variables of e have been recovered.
    """
    match e:
        case ELeaf(left):
            return [(left, cont)]
        case ELet(bound, fname, arg, body):
            # let bound = f arg  undoes to  let arg = f! bound
            undo = ELet(arg, invert_name(fname), bound, cont)
            return _invert_branches(body, undo)
        case ERLet(bound, fname, arg, body):
            # rlet bound = f arg  undoes to  rlet arg = f! bound
            undo = ERLet(arg, invert_name(fname), bound, cont)
            return _invert_branches(body, undo)
        case ECase(scrut, branches):
            out: list[tuple[LeftExpr, Expr]] = []
            for pat, body in branches:
                rebuild = _mk_case(pat, [(scrut, cont)])
                out.extend(_invert_branches(body, rebuild))
            return out
    raise InversionError(f"not an expression: {e!r}")


def _mk_case(scrut: LeftExpr, branches: list[tuple[LeftExpr, Expr]]) -> Expr:
    if len(branches) == 1 and isinstance(branches[0][0], LVar):
        pat, body = branches[0]
        return _subst_expr(body, pat.name, scrut)
    return ECase(scrut, tuple(branches))


def _subst_left(l: LeftExpr, name: str, repl: LeftExpr) -> LeftExpr:
    match l:
        case LVar(n):
            return repl if n == name else l
        case LCtor(ctor, args, pos=pos):
            return LCtor(ctor, tuple(_subst_left(a, name, repl) for a in args), pos=pos)
        case LDup(arg, pos=pos):
            return LDup(_subst_left(arg, name, repl), pos=pos)
    raise AssertionError


def _subst_expr(e: Expr, name: str, repl: LeftExpr) -> Expr:
    match e:
        case ELeaf(left, pos=pos):
            return ELeaf(_subst_left(left, name, repl), pos=pos)
        case ELet(bound, fname, arg, body, pos=pos):
            return ELet(bound, fname, _subst_left(arg, name, repl),
                        _subst_expr(body, name, repl), pos=pos)
        case ERLet(bound, fname, arg, body, pos=pos):
            return ERLet(_subst_left(bound, name, repl), fname, arg,
                         _subst_expr(body, name, repl), pos=pos)
        case ECase(scrut, branches, pos=pos):
            return ECase(_subst_left(scrut, name, repl),
                         tuple((p, _subst_expr(b, name, repl)) for p, b in branches),
                         pos=pos)
    raise AssertionError


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def alpha_eq(p: Program, q: Program) -> bool:
    """Structural equality modulo consistent renaming of variables.

    Function and constructor names must match exactly; definitions must come
    in the same order.  Renamings are scoped: a binder opens a fresh scope, so
    distinct branches may reuse names independently.
    """
    if len(p.defs) != len(q.defs):
        return False
    return all(_alpha_def(a, b) for a, b in zip(p.defs, q.defs))


_Env = dict[str, str]


def _alpha_def(a: Def, b: Def) -> bool:
    if a.name != b.name:
        return False
    return _alpha_expr(a.body, b.body, {a.param: b.param})


def _bind_left(a: LeftExpr, b: LeftExpr, env: _Env) -> bool:
    """Extend env (in place, on a scope-local copy) with pattern bindings."""
    match a, b:
        case LVar(x), LVar(y):
            env[x] = y
            return True
        case LCtor(c1, a1), LCtor(c2, a2):
            return (c1 == c2 and len(a1) == len(a2)
                    and all(_bind_left(x, y, env) for x, y in zip(a1, a2)))
        case LDup(x), LDup(y):
            return _bind_left(x, y, env)
    return False


def _use_left(a: LeftExpr, b: LeftExpr, env: _Env) -> bool:
    match a, b:
        case LVar(x), LVar(y):
            return env.get(x) == y
        case LCtor(c1, a1), LCtor(c2, a2):
            return (c1 == c2 and len(a1) == len(a2)
                    and all(_use_left(x, y, env) for x, y in zip(a1, a2)))
        case LDup(x), LDup(y):
            return _use_left(x, y, env)
    return False


def _alpha_expr(a: Expr, b: Expr, env: _Env) -> bool:
    match a, b:
        case ELeaf(l1), ELeaf(l2):
            return _use_left(l1, l2, env)
        case ELet(b1, f1, a1, e1), ELet(b2, f2, a2, e2):
            if f1 != f2 or not _use_left(a1, a2, env):
                return False
            inner = dict(env)
            return _bind_left(b1, b2, inner) and _alpha_expr(e1, e2, inner)
        case ERLet(b1, f1, a1, e1), ERLet(b2, f2, a2, e2):
            # rlet uses its bound side and binds its argument pattern
            if f1 != f2 or not _use_left(b1, b2, env):
                return False
            inner = dict(env)
            return _bind_left(a1, a2, inner) and _alpha_expr(e1, e2, inner)
        case ECase(s1, br1), ECase(s2, br2):
            if len(br1) != len(br2) or not _use_left(s1, s2, env):
                return False
            for (p1, e1), (p2, e2) in zip(br1, br2):
                inner = dict(env)
                if not _bind_left(p1, p2, inner):
                    return False
                if not _alpha_expr(e1, e2, inner):
                    return False
            return True
    return False
