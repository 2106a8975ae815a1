"""Big-step operational semantics, forward and backward.

Evaluation follows the judgement <q, sigma> |- e v v.  A program is checked
once, when either semantics first uses it (StaticError before any step),
and on the interpreter's first call each definition is compiled once, by a
loop, into code over slot-indexed registers: one slot per variable name,
the parameter's 0, which check_static's ban on shadowing makes sound.  Each
left expression becomes generated Python, a builder and a matcher that binds
the slots of its variables, and each case one generated dispatch per
direction: forward it builds the scrutinee and tries the arms' patterns in
order, backward it tries the arms' leaves in order (the last arm commits
untested); it binds the slots of the arm it commits to and returns that
arm.  The code is emitted through invcat.Gen, as the denotation's
primitives are: each text is compiled once per process, and slots,
constructors and constant values are the defaults of a copy of the
compiled function, so alike shapes share one text.

One eval/apply machine runs that code both ways (a let backward is the let
forward with its sides and direction swapped) on an explicit continuation
stack, so nothing recurses in Python, at any value, leaf or call depth.  It
trusts the static guarantees and checks only the symmetric first-match
policy, and of that only what the patterns leave open: when a case is
compiled, it drops the check of a result against an earlier arm's leaf
(forward) or of a recovered input against an earlier arm's pattern
(backward) wherever the two left expressions clash on a constructor or an
arity, so that no value matches both; |_ _| may give any value.  Values are
hash-consed: |_ _|'s equality test is one identity test.

Fuel bounds the depth of nested calls, as in the denotation, and not a
terminating run's total work.  A result other than OUT_OF_FUEL at fuel F is
the same at every larger fuel.
NO_MATCH and OUT_OF_FUEL are the same objects as invcat's UNDEF and NO_FUEL.
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from .invcat import NO_FUEL as OUT_OF_FUEL, UNDEF as NO_MATCH, Gen, _FLAT, _Outcome
from .syntax import (
    ECase, ELeaf, ELet, Expr, LCtor, LDup, LeftExpr, LVar, Program,
    StaticError, check_expr, lvars, render_value, walk,
)
from .values import Value, dupeq_value as dupeq

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


def _violation(what: str, v: Value, pos) -> FirstMatchViolation:
    return FirstMatchViolation(f"{what}: {render_value(v)} vs pattern at {pos}")


_RESULT = "case result matches a leaf of an earlier branch"
_INPUT = "backward case input matches an earlier branch pattern"


def _chain(n: LCtor) -> tuple[int, LeftExpr]:
    """How many times in a row, from n down, n's constructor wraps a single
    argument, and what the last one wraps."""
    r, inner = 0, n
    while type(inner) is LCtor and inner.ctor == n.ctor and len(inner.args) == 1:
        r, inner = r + 1, inner.args[0]
    return r, inner


def _peel(v: Value, ctor: str, r: int) -> Optional[Value]:
    """What r layers of the unary constructor ctor wrap in v, or None."""
    for _ in range(r):
        if v.ctor != ctor or len(v.args) != 1:
            return None
        v, = v.args
    return v


def _wrap(v: Value, ctor: str, r: int) -> Value:
    for _ in range(r):
        v = Value(ctor, (v,))
    return v


def _match(g: Gen, l: LeftExpr, slots: Optional[dict], fail: str) -> None:
    """Lines that run fail unless the value in v matches l and, given slots,
    store l's variables at theirs in env.  A part at depth i of the loop's
    stack is t<i>, so a chain of any depth takes one name; a chain of _FLAT
    or more of one unary constructor is one call of _peel."""
    todo = [(l, "v")]
    while todo:
        n, var = todo.pop()
        kind = type(n)
        r, inner = _chain(n) if kind is LCtor else (0, n)
        if kind is LDup or r >= _FLAT:
            t = f"t{len(todo)}"
            peel = f"dupeq({var})" if kind is LDup else f"_peel({var}, {g.k(n.ctor)}, {g.k(r)})"
            g.add(f"{t} = {peel}")
            g.add(f"if {t} is None: {fail}")
            todo.append((n.arg if kind is LDup else inner, t))
        elif kind is LVar:
            if slots is not None:
                g.add(f"env[{g.k(slots[n.name])}] = {var}")
        elif not n.args:
            g.add(f"if {var} is not {g.k(Value(n.ctor))}: {fail}")
        else:
            g.add(f"if {var}.ctor != {g.k(n.ctor)} or len({var}.args) != {len(n.args)}: {fail}")
            parts = []
            for a in n.args:
                if type(a) is not LVar:
                    parts.append(f"t{len(todo)}")
                    todo.append((a, parts[-1]))
                else:
                    parts.append("_" if slots is None else f"env[{g.k(slots[a.name])}]")
            if parts.count("_") < len(parts):
                g.add(f"{', '.join(parts)}, = {var}.args")


def _build(g: Gen, l: LeftExpr, slots: dict, fail: str) -> str:
    """The expression of the value l builds from env, after the lines it
    needs, which run fail where |_ _| is undefined.  A variable names each
    |_ _|'s result and each expression _FLAT deep, so the text stays flat,
    and a chain of _FLAT or more of one unary constructor is one call of
    _wrap."""
    built, todo = [], [l]               # built: (text, depth), first part first
    while todo:
        n = todo.pop()
        kind = type(n)
        if kind is LVar:
            built.append((f"env[{g.k(slots[n.name])}]", 0))
        elif kind is LCtor and not n.args:
            built.append((g.k(Value(n.ctor)), 0))
        elif kind is not tuple:
            r, inner = _chain(n) if kind is LCtor else (0, n)
            if r >= _FLAT:
                todo += ((n, r), inner)
            else:
                todo.append((n, 0))
                todo += reversed(n.args) if kind is LCtor else (n.arg,)
        else:
            n, r = n
            if r:
                text, depth = built.pop()
                text, depth = f"_wrap({text}, {g.k(n.ctor)}, {g.k(r)})", depth + 1
            elif type(n) is LDup:
                text, depth = f"dupeq({built.pop()[0]})", _FLAT
            else:
                parts = built[len(built) - len(n.args):]
                del built[len(built) - len(n.args):]
                text = f"Value({g.k(n.ctor)}, ({', '.join(t for t, _ in parts)},))"
                depth = 1 + max(d for _, d in parts)
            if depth == _FLAT:
                b = f"b{len(g.lines)}"
                g.add(f"{b} = {text}")
                if type(n) is LDup:
                    g.add(f"if {b} is None: {fail}")
                text, depth = b, 0
            built.append((text, depth))
    return built[0][0]


def _builder(l: LeftExpr, slots: dict) -> Callable:
    """builder(env): the value l builds, or None where |_ _| is undefined."""
    g = Gen()
    g.add(f"return {_build(g, l, slots, 'return None')}")
    return g.function("env", globals())


def _matcher(l: LeftExpr, slots: dict) -> Callable:
    """matcher(env, v): True, with l's variables bound in env, if v matches
    l, else None, with some perhaps bound."""
    g = Gen()
    _match(g, l, slots, "return None")
    g.add("return True")
    return g.function("env, v", globals())


def _attempt(g: Gen, l: LeftExpr, slots: Optional[dict], then: str) -> None:
    """A block that runs then if the value in v matches l, binding l's
    variables given slots, and else falls through."""
    g.add("while True:")
    g.ind += "    "
    _match(g, l, slots, "break")
    g.add(then)
    g.ind = g.ind[:-4]


def _checks(g: Gen, earlier: list[LeftExpr], what: str) -> None:
    """Lines raising FirstMatchViolation on the first of earlier that the
    value in v matches."""
    for m in earlier:
        _attempt(g, m, None, f"raise _violation({g.k(what)}, v, {g.k(m.pos)})")


def _apart(a: LeftExpr, b: LeftExpr) -> bool:
    """Whether no value matches both a and b: at a position both reach
    through constructors, they clash on a constructor or an arity."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is LCtor and type(b) is LCtor:
            if a.ctor != b.ctor or len(a.args) != len(b.args):
                return True
            todo += zip(a.args, b.args)
    return False


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
    return _builder(l, slots)([subst[name] for name in slots])


def match_pattern(v: Value, l: LeftExpr) -> Optional[Subst]:
    """The unique subst with instantiate(subst, l) = v, or None.

    |_l_| matches v by first applying the (self-inverse) duplication/equality
    operator to v and then matching l against the result.
    """
    slots = _linear_slots(l)
    env = [None] * len(slots)
    return dict(zip(slots, env)) if _matcher(l, slots)(env, v) else None


LEAF, LET, CASE, CALL, K_BIND, K_TEST, K_PROJ = range(7)
_PROJ = (K_PROJ,)


def _case(n: ECase, bodies: list, slots: dict) -> tuple[tuple, int]:
    """(CASE, forward dispatch, backward dispatch) of the case n, whose arms'
    bodies have the codes bodies, and how many of its first-match checks
    the patterns discharge.  A dispatch returns the arm it commits to,
    (K_TEST, test, body), or None; test(env, v), a continuation when not
    None, checks the arm's result forward, and backward rebuilds its input
    from the pattern, checks it and binds the scrutinee's slots.  A check of
    arm i against an earlier arm j counts as discharged when it tests
    nothing: forward, each leaf of j clashes with each leaf of i; backward,
    pattern j clashes with pattern i."""
    fwd, bwd, discharged = Gen(), Gen(), 0
    fwd.add(f"v = {_build(fwd, n.scrutinee, slots, 'return None')}")
    for i, ((pat, body, own), code) in enumerate(zip(n.arms, bodies)):
        leaves, pats = [], []
        for p, _, theirs in n.arms[:i]:
            kept = [m for m in theirs if not all(_apart(l, m) for l in own)]
            clash = _apart(pat, p)
            leaves += kept
            pats += () if clash else (p,)
            discharged += (not kept) + clash
        test = None
        if leaves:
            g = Gen()
            _checks(g, leaves, _RESULT)
            g.add("return True")
            test = g.function("env, v", globals())
        _attempt(fwd, pat, slots, f"return {fwd.k((K_TEST, test, code))}")

        g = Gen()
        g.add(f"v = {_build(g, pat, slots, 'return None')}")
        _checks(g, pats, _INPUT)
        _match(g, n.scrutinee, slots, "return None")
        g.add("return True")
        test = g.function("env, v", globals())
        if type(body) is ELeaf:         # matched and bound here, not run again
            _attempt(bwd, body.left, slots, f"return {bwd.k((K_TEST, test, None))}")
        else:
            arm = bwd.k((K_TEST, test, code))
            if i == len(bodies) - 1:
                bwd.add(f"return {arm}")
            else:
                for l in own:
                    _attempt(bwd, l, None, f"return {arm}")
    fwd.add("return None")
    bwd.add("return None")
    return (CASE, fwd.function("env", globals()), bwd.function("env, v", globals())), discharged


def _expr(e: Expr, slots: dict[str, int], fns: dict[str, list]) -> tuple[tuple, int]:
    """The code of e, by one post-order loop, and how many first-match
    checks its cases discharge: (LEAF, builder, matcher), (LET, forward
    call, backward call, body) or (CASE, forward dispatch, backward
    dispatch).  A call (CALL, builds, binds, then, callee, callee runs
    forward) builds one side of a let, calls, and binds the other; then is
    the let's body forward, None backward, where the sides and direction
    swap."""
    todo, done, discharged = [e], [], 0     # done: codes, first body on top
    while todo:
        n = todo.pop()
        if type(n) is ELeaf:
            done.append((LEAF, _builder(n.left, slots), _matcher(n.left, slots)))
        elif type(n) is not tuple:
            todo += ((n,), n.body) if type(n) is ELet else ((n,), *(b for _, b in n.branches))
        elif type(n[0]) is ELet:
            (n,), body, fn = n, done.pop(), fns[n[0].fname]
            done.append((LET, (CALL, _builder(n.uses, slots), _matcher(n.binds, slots),
                               body, fn, not n.backward),
                         (CALL, _builder(n.binds, slots), _matcher(n.uses, slots),
                          None, fn, n.backward), body))
        else:
            code, k = _case(n[0], [done.pop() for _ in n[0].branches], slots)
            done.append(code)
            discharged += k
    return done[0], discharged


_set_compiled = Program.compiled.__set__


def _code(prog: Program) -> tuple[dict[str, list], int]:
    """Name -> [body code, slot count], and how many first-match checks the
    patterns discharge, compiled once and kept on prog."""
    compiled = getattr(prog, "compiled", None)
    if compiled is None:
        fns, discharged = {name: [None, 0] for name in prog.checked_defs}, 0
        for name, d in prog.checked_defs.items():
            slots = _slots((d.param,), d.body)
            code, k = _expr(d.body, slots, fns)
            fns[name][:] = code, len(slots)
            discharged += k
        _set_compiled(prog, compiled := (fns, discharged))
    return compiled


def discharged(prog: Program) -> int:
    """How many first-match checks of prog's cases compiling it discharged
    statically: one per case, direction and pair of an arm and an earlier
    arm whose left expressions clash (see _case)."""
    return _code(prog)[1]


def _run(e: Optional[tuple], forward: bool, env: list, reg: Optional[Value],
         fuel: int, stack: list) -> EvalResult:
    """Eval runs the code e, forward on env or backward on the value reg,
    until a leaf gives the result (forward a value in reg, backward the
    filled env); apply then pops a continuation from stack:
        call                               a let backward's call
        (K_BIND, binds, env, fuel, then)   bind a call's result in the
                                           caller's env and fuel, run then
        (K_TEST, test, body)               a case arm's test(env, reg)
        _PROJ                              a backward run's parameter value
    A call runs its callee in a fresh env on one unit of fuel less, so the
    caller's env waits in K_BIND uncopied.  A step that finds no match
    returns NO_MATCH at once: nothing on the stack could use it."""
    while True:
        if e is not None:               # eval
            tag = e[0]
            if tag == LEAF:
                if forward:
                    reg = e[1](env)
                    if reg is None:
                        return NO_MATCH
                elif e[2](env, reg) is None:
                    return NO_MATCH
                e = None
                continue
            if tag == CASE:
                arm = e[1](env) if forward else e[2](env, reg)
                if arm is None:
                    return NO_MATCH
                if arm[1] is not None:
                    stack.append(arm)
                e = arm[2]
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
                if tag == K_TEST:
                    if call[1](env, reg) is None:
                        return NO_MATCH
                elif tag == K_BIND:
                    _, binds, env, fuel, e = call
                    if binds(env, reg) is None:
                        return NO_MATCH
                    forward = True      # unused if e is None: a backward caller
                else:
                    reg = env[0]
                continue
        _, builds, binds, e, fn, forward = call
        w = builds(env)
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
    return _code(prog)[0][fname]


def eval_expr(prog: Program, subst: Subst, e: Expr, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Evaluate e under subst; Value, NO_MATCH or OUT_OF_FUEL.

    Raises StaticError unless prog is statically valid and e uses each
    variable of subst exactly once."""
    violations = check_expr(e, subst, prog.checked_defs)
    if violations:
        raise StaticError(violations)
    slots = _slots(subst, e)
    env = [*subst.values(), *[None] * (len(slots) - len(subst))]
    return _run(_expr(e, slots, _code(prog)[0])[0], True, env, None, fuel, [])


def apply_forward(prog: Program, fname: str, v: Value, fuel: int = DEFAULT_FUEL) -> EvalResult:
    body, size = _fn(prog, fname)
    return _run(body, True, [v, *[None] * (size - 1)], None, fuel, [])


def apply_backward(prog: Program, fname: str, v: Value, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """The u with apply_forward(prog, fname, u) = v, via the machine run
    backward: leaves are matched against v under the symmetric first-match
    policy, lets swap sides and direction, cases run inside out."""
    body, size = _fn(prog, fname)
    return _run(body, False, [None] * size, v, fuel, [_PROJ])
