"""Big-step operational semantics, forward and backward.

Evaluation follows the judgement <q, sigma> |- e v v.  One machine runs both
directions on one explicit work/continuation stack (a let backward is the let
forward with its sides and direction swapped), so recursion depth in the object
language costs heap, not interpreter stack; only the pattern helpers
(_take, _match) recurse, bounded by the pattern depth.  Values are hash-consed,
so the equality test in |_ _| is one identity test at any value depth.

A program is checked once, when either semantics first uses it, and a
statically invalid one raises StaticError before any step.  The machine then
trusts the static guarantees and re-checks no substitution domain and no
linearity; only the symmetric first-match policy is checked as it runs.

Fuel bounds the depth of nested calls, as in the denotation, and not a
terminating run's total work.  A result other than OUT_OF_FUEL at fuel F is
the same at every larger fuel.
NO_MATCH and OUT_OF_FUEL are the same objects as invcat's UNDEF and NO_FUEL.
"""
from __future__ import annotations

from typing import Optional, Union

from .invcat import NO_FUEL as OUT_OF_FUEL, UNDEF as NO_MATCH, _Outcome
from .syntax import (
    Def, ECase, ELeaf, Expr, LCtor, LeftExpr, LVar,
    Program, StaticError, check_expr, lvars, render_value,
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


# ---------------------------------------------------------------------------
# Patterns: instantiation and matching
# ---------------------------------------------------------------------------

def instantiate(subst: Subst, l: LeftExpr) -> Optional[Value]:
    """The value v with <q, subst> |- l v v, or None when the |_._| operator
    is applied outside its domain.

    The substitution must bind exactly the variables of l.
    """
    names = _linear_vars(l)
    if set(names) != set(subst):
        missing = set(names) - set(subst)
        extra = set(subst) - set(names)
        if missing:
            raise SubstitutionError(f"unbound variable(s) {sorted(missing)}")
        raise SubstitutionError(f"leftover variable(s) {sorted(extra)}")
    return _take(dict(subst), l)


def match_pattern(v: Value, l: LeftExpr) -> Optional[Subst]:
    """The unique subst with instantiate(subst, l) = v, or None.

    |_l_| matches v by first applying the (self-inverse) duplication/equality
    operator to v and then matching l against the result.
    """
    _linear_vars(l)
    out: Subst = {}
    return out if _match(v, l, out) else None


def _linear_vars(l: LeftExpr) -> list[str]:
    names = lvars(l)
    if len(set(names)) != len(names):
        raise SubstitutionError(f"non-linear left expression {names}")
    return names


# _take and _match run several times per step: dispatch on type() is two to
# three times faster here than class patterns (an LDup is the third case).

def _take(env: Subst, l: LeftExpr) -> Optional[Value]:
    """instantiate for a linear l, removing l's variables from env."""
    t = type(l)
    if t is LVar:
        return env.pop(l.name)
    if t is LCtor:
        out = []
        for a in l.args:
            v = _take(env, a)
            if v is None:
                return None
            out.append(v)
        return Value(l.ctor, tuple(out))
    v = _take(env, l.arg)
    return None if v is None else dupeq_value(v)


def _match(v: Value, l: LeftExpr, out: Subst) -> bool:
    """match_pattern for a linear l, adding the bindings to out."""
    t = type(l)
    if t is LVar:
        out[l.name] = v
        return True
    if t is LCtor:
        args = l.args
        if v.ctor != l.ctor or len(v.args) != len(args):
            return False
        for c, a in zip(v.args, args):
            if not _match(c, a, out):
                return False
        return True
    w = dupeq_value(v)
    return w is not None and _match(w, l.arg, out)


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

# Work items (pushed on one stack; "K_" frames consume the result register).
# One machine runs both ways: the register holds what a frame runs on, a
# Subst forward and a Value backward, and a run leaves the other.
# Every step that finds no match returns NO_MATCH at once: RUN frames are
# only pushed on top of the stack, so nothing below could use it.
#   ("RUN", e, forward)           run e forward or backward
#   ("CALL", let, forward)        take one side of a let, call, bind the other
#   ("K_BIND", binds, rest, fuel, then)    bind a call's result, run then
#   ("K_CASE", earlier_leaves)
#   ("K_UNCASE", scrutinee, earlier_arms, pattern)   rebuild, bind as K_BIND
#   ("K_PROJ", param)             project a Subst back to the parameter value
# A let backward is the let forward with its sides and direction swapped, run
# after its body.  A call runs its callee on one unit of fuel less; K_BIND
# resumes the caller with the fuel it had (then is None backward).
# Each step owns the substitution it takes and builds by removing the
# variables it uses; what it leaves for later frames goes into a fresh dict.


def _def_for(defs: dict[str, Def], fname: str) -> Def:
    # Entry points only: check_static rejects calls to undefined functions.
    d = defs.get(fname)
    if d is None:
        raise UnknownFunction(f"no definition for {fname!r}")
    return d


def _run(defs: dict[str, Def], work: list, reg: Union[Value, Subst], fuel: int) -> EvalResult:
    while work:
        frame = work.pop()
        tag = frame[0]

        if tag == "RUN" or tag == "CALL":
            _, e, forward = frame
            t = type(e)
            if t is ELeaf:
                if forward:
                    reg = _take(reg, e.left)
                    if reg is None:
                        return NO_MATCH
                else:
                    sigma: Subst = {}
                    if not _match(reg, e.left, sigma):
                        return NO_MATCH
                    reg = sigma
            elif t is ECase:
                if forward:
                    v0 = _take(reg, e.scrutinee)
                    if v0 is None:
                        return NO_MATCH
                    for pat, body, _, earlier in e.arms:
                        sigma = {}
                        if _match(v0, pat, sigma):
                            break
                    else:
                        return NO_MATCH
                    if earlier:
                        work.append(("K_CASE", earlier))
                    sigma.update(reg)
                    reg = sigma
                else:
                    arms = e.arms
                    for j, (pat, body, own, _) in enumerate(arms):
                        if any(_match(reg, l, {}) for l in own):
                            break
                    else:
                        return NO_MATCH
                    work.append(("K_UNCASE", e.scrutinee, arms[:j], pat))
                work.append(("RUN", body, forward))
            elif tag == "RUN" and not forward:
                # A let backward undoes its body, then its call.
                work.append(("CALL", e, False))
                work.append(("RUN", e.body, False))
            else:                       # a let's call (see the table)
                uses, binds, then, backward = (
                    (e.uses, e.binds, e.body, e.backward) if forward
                    else (e.binds, e.uses, None, not e.backward))
                w = _take(reg, uses)
                if w is None:
                    return NO_MATCH
                if fuel <= 0:
                    return OUT_OF_FUEL
                work.append(("K_BIND", binds, dict(reg), fuel, then))
                fuel -= 1
                d = defs[e.fname]
                if backward:
                    work.append(("K_PROJ", d.param))
                else:
                    w = {d.param: w}
                work.append(("RUN", d.body, not backward))
                reg = w

        elif tag == "K_BIND" or tag == "K_UNCASE":
            if tag == "K_BIND":
                _, pat, rest, fuel, then = frame
            else:                       # rebuild the scrutinee, then bind it
                _, pat, earlier_arms, arm = frame
                v_scrut = _take(reg, arm)
                if v_scrut is None:
                    return NO_MATCH
                for p, _, _, _ in earlier_arms:
                    if _match(v_scrut, p, {}):
                        raise FirstMatchViolation(
                            "backward case input matches an earlier branch pattern: "
                            f"{render_value(v_scrut)} vs pattern at {p.pos}")
                rest, reg, then = reg, v_scrut, None
            sigma = {}
            if not _match(reg, pat, sigma):
                return NO_MATCH
            sigma.update(rest)
            reg = sigma
            if then is not None:
                work.append(("RUN", then, True))

        elif tag == "K_CASE":
            for l in frame[1]:
                if _match(reg, l, {}):
                    raise FirstMatchViolation(
                        "case result matches a leaf of an earlier branch: "
                        f"{render_value(reg)} vs pattern at {l.pos}")

        elif tag == "K_PROJ":
            reg = reg[frame[1]]

        else:  # pragma: no cover
            raise AssertionError(tag)

    return reg


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def eval_expr(prog: Program, subst: Subst, e: Expr, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Evaluate e under subst; Value, NO_MATCH or OUT_OF_FUEL.

    Raises StaticError unless prog is statically valid and e uses each
    variable of subst exactly once."""
    defs = prog.checked_defs
    violations = check_expr(e, subst, defs)
    if violations:
        raise StaticError(violations)
    return _run(defs, [("RUN", e, True)], dict(subst), fuel)


def apply_forward(prog: Program, fname: str, v: Value, fuel: int = DEFAULT_FUEL) -> EvalResult:
    defs = prog.checked_defs
    d = _def_for(defs, fname)
    return _run(defs, [("RUN", d.body, True)], {d.param: v}, fuel)


def apply_backward(prog: Program, fname: str, v: Value, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """The u with apply_forward(prog, fname, u) = v, via the machine run
    backward: leaves are matched against v under the symmetric first-match
    policy, lets swap sides and direction, cases run inside out."""
    defs = prog.checked_defs
    d = _def_for(defs, fname)
    return _run(defs, [("K_PROJ", d.param), ("RUN", d.body, False)], v, fuel)
