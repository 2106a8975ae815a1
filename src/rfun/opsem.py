"""Big-step operational semantics, forward and backward.

Evaluation follows the judgement <q, sigma> |- e v v.  A program is checked
once, when either semantics first uses it (StaticError before any step),
and on the interpreter's first call each definition is compiled once, by a
loop, into code over slot-indexed registers: one slot per variable name,
the parameter's 0, which check_static's ban on shadowing makes sound.  One
eval/apply machine runs that code both ways (a let backward is the let
forward with its sides and direction swapped) on an explicit continuation
stack, so nothing recurses in Python, at any value, leaf or call depth.  It
trusts the static guarantees and checks only the symmetric first-match
policy.  Values are hash-consed: |_ _|'s equality test is one identity test.

Fuel bounds the depth of nested calls, as in the denotation, and not a
terminating run's total work.  A result other than OUT_OF_FUEL at fuel F is
the same at every larger fuel.
NO_MATCH and OUT_OF_FUEL are the same objects as invcat's UNDEF and NO_FUEL.
"""
from __future__ import annotations

from typing import Iterable, Optional, Union

from .invcat import NO_FUEL as OUT_OF_FUEL, UNDEF as NO_MATCH, _Outcome
from .syntax import (
    ELeaf, ELet, Expr, LCtor, LeftExpr, LVar, Program, StaticError,
    check_expr, lvars, render_value, walk,
)
from .values import Value, dupeq_value

DEFAULT_FUEL = 10_000
Subst = dict[str, Value]
EvalResult = Union[Value, _Outcome]


class RfunRuntimeError(Exception):
    """Faults, as opposed to the normal NO_MATCH / OUT_OF_FUEL outcomes."""


class UnknownFunction(RfunRuntimeError):
    pass


class SubstitutionError(RfunRuntimeError):
    """A substitution that does not fit a left expression, passed to
    instantiate or match_pattern."""


class FirstMatchViolation(RfunRuntimeError):
    """A case produced (or, backward, consumed) a value that the symmetric
    first-match policy assigns to an earlier branch."""


def _left(l: LeftExpr, slots: dict[str, int]) -> tuple:
    """(builder, matcher) of l, whose variables have the given slots.

    A lone variable is its slot number.  Otherwise both are tuples of one
    instruction per node: a slot (a variable), a Value (a constructor of no
    arguments), (ctor, n) (of n > 0 arguments) or None (|_ _|).  The matcher
    lists the nodes in pre-order, children last to first; the builder in
    reverse: post-order."""
    if type(l) is LVar:
        return slots[l.name], slots[l.name]
    match, todo = [], [l]
    while todo:
        n = todo.pop()
        if type(n) is LVar:
            match.append(slots[n.name])
        elif type(n) is LCtor:
            match.append((n.ctor, len(n.args)) if n.args else Value(n.ctor))
            todo += n.args
        else:
            match.append(None)
            todo.append(n.arg)
    return tuple(reversed(match)), tuple(match)


def _build(env: list, code) -> Optional[Value]:
    """The value code builds from env, or None where |_ _| is undefined."""
    if type(code) is int:
        return env[code]
    stack = []
    for op in code:
        if type(op) is int:
            stack.append(env[op])
        elif type(op) is tuple:
            n = len(stack) - op[1]
            stack[n:] = (Value(op[0], tuple(stack[n:])),)
        elif op is None:
            stack[-1] = v = dupeq_value(stack[-1])
            if v is None:
                return None
        else:
            stack.append(op)
    return stack[0]


def _match(env, code, v: Value) -> bool:
    """Whether v matches code, binding its variables in env as it goes.  A
    failed match may have bound some; env may be a dict if only the verdict
    counts."""
    if type(code) is int:
        env[code] = v
        return True
    stack = [v]
    for op in code:
        v = stack.pop()
        if type(op) is int:
            env[op] = v
        elif type(op) is tuple:
            if v.ctor != op[0] or len(v.args) != op[1]:
                return False
            stack += v.args
        elif op is None:
            v = dupeq_value(v)
            if v is None:
                return False
            stack.append(v)
        elif v is not op:
            return False
    return True


def _slots(names: Iterable[str], e: Union[Expr, LeftExpr]) -> dict[str, int]:
    """One slot per distinct name: names first, then e's in walk order."""
    slots: dict[str, int] = {}
    for name in (*names, *(n.name for n in walk(e) if type(n) is LVar)):
        slots.setdefault(name, len(slots))
    return slots


def _linear_slots(l: LeftExpr) -> dict[str, int]:
    slots, names = _slots((), l), lvars(l)
    if len(slots) != len(names):
        raise SubstitutionError(f"non-linear left expression {names}")
    return slots


def instantiate(subst: Subst, l: LeftExpr) -> Optional[Value]:
    """The value v with <q, subst> |- l v v, or None when the |_._| operator
    is applied outside its domain.

    The substitution must bind exactly the variables of l.
    """
    slots = _linear_slots(l)
    for what, names in (("unbound", slots.keys() - subst), ("leftover", subst.keys() - slots)):
        if names:
            raise SubstitutionError(f"{what} variable(s) {sorted(names)}")
    return _build([subst[name] for name in slots], _left(l, slots)[0])


def match_pattern(v: Value, l: LeftExpr) -> Optional[Subst]:
    """The unique subst with instantiate(subst, l) = v, or None.

    |_l_| matches v by first applying the (self-inverse) duplication/equality
    operator to v and then matching l against the result.
    """
    slots = _linear_slots(l)
    env = [None] * len(slots)
    return dict(zip(slots, env)) if _match(env, _left(l, slots)[1], v) else None


LEAF, LET, CASE, CALL, K_BIND, K_CASE, K_UNCASE, K_PROJ = range(8)
_PROJ = (K_PROJ,)


def _expr(e: Expr, slots: dict[str, int], fns: dict[str, list]) -> tuple:
    """The code of e, by one post-order loop: (LEAF, builder, matcher),
    (LET, forward call, backward call, body) or (CASE, scrutinee builder,
    scrutinee matcher, arms).  A call (CALL, builds, binds, then, callee,
    callee runs forward) builds one side of a let, calls, and binds the
    other; then is the let's body forward, None backward, where the sides
    and direction swap.  An arm is (pattern matcher, body, earlier leaves,
    own leaves, pattern builder, earlier patterns), with each leaf or
    pattern the first-match policy checks as (matcher, pos).  The last arm's
    own leaves are None: a value none matches fails at the leaf it reaches."""
    todo, done = [e], []    # done: (code, its leaves' (matcher, pos)), first body on top
    while todo:
        n = todo.pop()
        if type(n) is ELeaf:
            b, m = _left(n.left, slots)
            done.append(((LEAF, b, m), ((m, n.left.pos),)))
        elif type(n) is not tuple:
            todo += ((n,), n.body) if type(n) is ELet else ((n,), *(b for _, b in n.branches))
        elif type(n[0]) is ELet:
            (n,), (body, leaves) = n, done.pop()
            (ub, um), (bb, bm), fn = _left(n.uses, slots), _left(n.binds, slots), fns[n.fname]
            done.append(((LET, (CALL, ub, bm, body, fn, not n.backward),
                          (CALL, bb, um, None, fn, n.backward), body), leaves))
        else:
            (n,), arms, leaves, pats = n, [], (), ()
            for j, (pat, _) in enumerate(n.branches, 1 - len(n.branches)):  # j = 0 at the last
                (body, own), (pb, pm) = done.pop(), _left(pat, slots)
                arms.append((pm, body, leaves, own if j else None, pb, pats))
                leaves, pats = leaves + own, pats + ((pm, pat.pos),)
            done.append(((CASE, *_left(n.scrutinee, slots), tuple(arms)), leaves))
    return done[0][0]


def _code(prog: Program) -> dict[str, list]:
    """Name -> [body code, slot count], compiled once and kept on prog."""
    fns = prog.__dict__.get("_opsem_code")
    if fns is None:
        fns = {name: [None, 0] for name in prog.checked_defs}
        for name, d in prog.checked_defs.items():
            slots = _slots((d.param,), d.body)
            fns[name][:] = _expr(d.body, slots, fns), len(slots)
        prog.__dict__["_opsem_code"] = fns
    return fns


def _first_match(earlier: tuple, v: Value, what: str) -> None:
    for m, pos in earlier:
        if _match({}, m, v):
            raise FirstMatchViolation(f"{what}: {render_value(v)} vs pattern at {pos}")


def _run(e: Optional[tuple], forward: bool, env: list, reg: Optional[Value],
         fuel: int, stack: list) -> EvalResult:
    """Eval runs the code e, forward on env or backward on the value reg,
    until a leaf gives the result (forward a value in reg, backward the
    filled env); apply then pops a continuation from stack:
        call                               a let backward's call
        (K_BIND, binds, env, fuel, then)   bind a call's result in the
                                           caller's env and fuel, run then
        (K_CASE, earlier leaves)           check a case's result
        (K_UNCASE, scrutinee matcher, arm) rebuild, check, bind a scrutinee
        _PROJ                              a backward run's parameter value
    A call runs its callee in a fresh env on one unit of fuel less, so the
    caller's env waits in K_BIND uncopied.  A step that finds no match
    returns NO_MATCH at once: nothing on the stack could use it."""
    while True:
        if e is not None:               # eval
            tag = e[0]
            if tag == LEAF:
                if forward:
                    reg = _build(env, e[1])
                elif not _match(env, e[2], reg):
                    reg = None
                if reg is None:
                    return NO_MATCH
                e = None
                continue
            if tag == CASE:
                if forward:
                    v = _build(env, e[1])
                    if v is None:
                        return NO_MATCH
                    for arm in e[3]:
                        if _match(env, arm[0], v):
                            break
                    else:
                        return NO_MATCH
                    if arm[2]:
                        stack.append((K_CASE, arm[2]))
                else:
                    for arm in e[3]:
                        if arm[3] is None or any(_match({}, m, reg) for m, _ in arm[3]):
                            break
                    else:
                        return NO_MATCH
                    stack.append((K_UNCASE, e[2], arm))
                e = arm[1]
                continue
            if not forward:             # a let backward: its body, then its call
                stack.append(e[2])
                e = e[3]
                continue
            call = e[1]
        elif not stack:
            return reg
        else:                           # apply
            call = stack.pop()
            tag = call[0]
            if tag != CALL:
                if tag == K_BIND:
                    _, binds, env, fuel, e = call
                    if not _match(env, binds, reg):
                        return NO_MATCH
                    forward = True      # unused if e is None: a backward caller
                elif tag == K_CASE:
                    _first_match(call[1], reg, "case result matches a leaf of an earlier branch")
                elif tag == K_UNCASE:
                    v = _build(env, call[2][4])
                    if v is None:
                        return NO_MATCH
                    _first_match(call[2][5], v,
                                 "backward case input matches an earlier branch pattern")
                    if not _match(env, call[1], v):
                        return NO_MATCH
                else:
                    reg = env[0]
                continue
        _, builds, binds, e, fn, forward = call
        w = _build(env, builds)
        if w is None:
            return NO_MATCH
        if fuel <= 0:
            return OUT_OF_FUEL
        stack.append((K_BIND, binds, env, fuel, e))
        fuel -= 1
        e, size = fn
        env = [None] * size
        if forward:
            env[0] = w
        else:
            stack.append(_PROJ)
            reg = w


def _fn(prog: Program, fname: str) -> list:
    # Entry points only: check_static rejects calls to undefined functions.
    if fname not in prog.checked_defs:
        raise UnknownFunction(f"no definition for {fname!r}")
    return _code(prog)[fname]


def eval_expr(prog: Program, subst: Subst, e: Expr, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Evaluate e under subst; Value, NO_MATCH or OUT_OF_FUEL.

    Raises StaticError unless prog is statically valid and e uses each
    variable of subst exactly once."""
    violations = check_expr(e, subst, prog.checked_defs)
    if violations:
        raise StaticError(violations)
    slots = _slots(subst, e)
    env = [*subst.values(), *[None] * (len(slots) - len(subst))]
    return _run(_expr(e, slots, _code(prog)), True, env, None, fuel, [])


def apply_forward(prog: Program, fname: str, v: Value, fuel: int = DEFAULT_FUEL) -> EvalResult:
    body, size = _fn(prog, fname)
    return _run(body, True, [v, *[None] * (size - 1)], None, fuel, [])


def apply_backward(prog: Program, fname: str, v: Value, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """The u with apply_forward(prog, fname, u) = v, via the machine run
    backward: leaves are matched against v under the symmetric first-match
    policy, lets swap sides and direction, cases run inside out."""
    body, size = _fn(prog, fname)
    return _run(body, False, [None] * size, v, fuel, [_PROJ])
