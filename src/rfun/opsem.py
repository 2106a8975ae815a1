"""Big-step operational semantics, forward and backward.

Evaluation follows the judgement <q, sigma> |- e v v.  Both directions are
run on one explicit work/continuation stack, so recursion depth in the object
language costs heap, not interpreter stack; only the pattern helpers
(_take, _match) recurse, bounded by the pattern or value depth.

A program is checked once, when either semantics first uses it, and a
statically invalid one raises StaticError before any step.  The machine then
trusts the static guarantees and re-checks no substitution domain and no
linearity; only the symmetric first-match policy is checked as it runs.

Fuel counts function applications (in either direction).  A result other
than OUT_OF_FUEL obtained at fuel F is identical at every larger fuel.
"""
from __future__ import annotations

from typing import Optional, Union

from .syntax import (
    Def, ECase, ELeaf, ELet, ERLet, Expr, LCtor, LDup, LeftExpr, LVar,
    Program, StaticError, check_expr, lvars,
)
from .values import Value, dupeq_value

DEFAULT_FUEL = 10_000

Subst = dict[str, Value]


class _Outcome:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


NO_MATCH = _Outcome("NO_MATCH")
OUT_OF_FUEL = _Outcome("OUT_OF_FUEL")

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


class BackwardAmbiguity(RfunRuntimeError):
    """Two distinct preimages found; unreachable for statically accepted,
    first-match-respecting programs."""


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


def _take(env: Subst, l: LeftExpr) -> Optional[Value]:
    """instantiate for a linear l, removing l's variables from env."""
    match l:
        case LVar(name):
            return env.pop(name)
        case LCtor(ctor, args):
            out = []
            for a in args:
                v = _take(env, a)
                if v is None:
                    return None
                out.append(v)
            return Value(ctor, tuple(out))
        case LDup(arg):
            v = _take(env, arg)
            return None if v is None else dupeq_value(v)
    raise AssertionError


def _match(v: Value, l: LeftExpr, out: Subst) -> bool:
    """match_pattern for a linear l, adding the bindings to out."""
    match l:
        case LVar(name):
            out[name] = v
            return True
        case LCtor(ctor, args):
            if v.ctor != ctor or len(v.args) != len(args):
                return False
            return all(_match(c, a, out) for c, a in zip(v.args, args))
        case LDup(arg):
            w = dupeq_value(v)
            return False if w is None else _match(w, arg, out)
    raise AssertionError


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

# Work items (pushed on one stack; "K_" frames consume the result register).
# Every step that finds no match returns NO_MATCH at once: EVAL and UNEVAL
# frames are only pushed on top of the stack, so nothing below could use it.
#   ("EVAL", e, subst)            evaluate e, leaving a Value
#   ("UNEVAL", e, v)              run e backward from v, leaving a Subst
#   ("APPLY", fname)              forward-apply to the register Value
#   ("UNAPPLY", fname)            backward-apply to the register Value
#   ("K_BIND", pattern, rest, body)  bind a let/rlet call's result, go on
#   ("K_CASE", earlier_leaves)
#   ("K_UNBODY", l_pattern, l_call_arg, fname, mode)
#   ("K_UNCALL", l_bind, rest)
#   ("K_UNCASE", scrutinee, earlier_arms, pattern, v_out)
#   ("K_PROJ", param)             project a Subst back to the parameter value
# Each step owns the substitution it takes and builds by removing the
# variables it uses; what it leaves for later frames goes into a fresh dict.


def _def_for(defs: dict[str, Def], fname: str) -> Def:
    d = defs.get(fname)
    if d is None:
        raise UnknownFunction(f"no definition for {fname!r}")
    return d


def _run(defs: dict[str, Def], work: list, fuel: int) -> EvalResult:
    reg: Union[Value, Subst, None] = None
    while work:
        frame = work.pop()
        tag = frame[0]

        if tag == "EVAL":
            _, e, subst = frame
            match e:
                case ELeaf(left):
                    reg = _take(subst, left)
                    if reg is None:
                        return NO_MATCH
                case ELet(bound, fname, arg, body):
                    reg = _take(subst, arg)
                    if reg is None:
                        return NO_MATCH
                    work.append(("K_BIND", bound, dict(subst), body))
                    work.append(("APPLY", fname))
                case ERLet(bound, fname, arg, body):
                    # rlet bound = f arg: the bound side holds f's *output*;
                    # run f backward to recover the argument bindings.
                    reg = _take(subst, bound)
                    if reg is None:
                        return NO_MATCH
                    work.append(("K_BIND", arg, dict(subst), body))
                    work.append(("UNAPPLY", fname))
                case ECase(scrut):
                    v0 = _take(subst, scrut)
                    if v0 is None:
                        return NO_MATCH
                    for pat, body, _, earlier in e.arms:
                        sigma: Subst = {}
                        if _match(v0, pat, sigma):
                            break
                    else:
                        return NO_MATCH
                    if earlier:
                        work.append(("K_CASE", earlier))
                    sigma.update(subst)
                    work.append(("EVAL", body, sigma))

        elif tag == "APPLY":
            if fuel <= 0:
                return OUT_OF_FUEL
            fuel -= 1
            d = _def_for(defs, frame[1])
            work.append(("EVAL", d.body, {d.param: reg}))

        elif tag == "UNAPPLY":
            if fuel <= 0:
                return OUT_OF_FUEL
            fuel -= 1
            d = _def_for(defs, frame[1])
            work.append(("K_PROJ", d.param))
            work.append(("UNEVAL", d.body, reg))

        elif tag == "K_BIND":
            _, pat, rest, body = frame
            sigma = {}
            if not _match(reg, pat, sigma):
                return NO_MATCH
            sigma.update(rest)
            work.append(("EVAL", body, sigma))

        elif tag == "K_CASE":
            for l in frame[1]:
                if _match(reg, l, {}):
                    raise FirstMatchViolation(
                        "case result matches a leaf of an earlier branch: "
                        f"{_describe(reg)} vs pattern at {l.pos}")

        elif tag == "UNEVAL":
            _, e, v = frame
            match e:
                case ELeaf(left):
                    reg = {}
                    if not _match(v, left, reg):
                        return NO_MATCH
                case ELet(bound, fname, arg, body):
                    work.append(("K_UNBODY", bound, arg, fname, "UNAPPLY"))
                    work.append(("UNEVAL", body, v))
                case ERLet(bound, fname, arg, body):
                    work.append(("K_UNBODY", arg, bound, fname, "APPLY"))
                    work.append(("UNEVAL", body, v))
                case ECase(scrut):
                    arms = e.arms
                    for j, (pat, body, own, _) in enumerate(arms):
                        if any(_match(v, l, {}) for l in own):
                            break
                    else:
                        return NO_MATCH
                    work.append(("K_UNCASE", scrut, arms[:j], pat, v))
                    work.append(("UNEVAL", body, v))

        elif tag == "K_UNBODY":
            # After inverting a let/rlet body: rebuild the callee result from
            # the binder pattern, then run the call in the opposite direction.
            _, bound, call_arg, fname, mode = frame
            w = _take(reg, bound)
            if w is None:
                return NO_MATCH
            work.append(("K_UNCALL", call_arg, dict(reg)))
            work.append((mode, fname))
            reg = w

        elif tag == "K_UNCALL":
            _, l_bind, rest = frame
            sigma = {}
            if not _match(reg, l_bind, sigma):
                return NO_MATCH
            sigma.update(rest)
            reg = sigma

        elif tag == "K_UNCASE":
            _, scrut, earlier_arms, pat, v_out = frame
            v_scrut = _take(reg, pat)
            if v_scrut is None:
                return NO_MATCH
            for p, _, own, _ in earlier_arms:
                if _match(v_scrut, p, {}):
                    if any(_match(v_out, l, {}) for l in own):
                        # Committed-choice scanning makes this unreachable, but
                        # it is the exact two-preimage condition; keep it named.
                        raise BackwardAmbiguity(
                            f"two backward derivations for {_describe(v_out)}")
                    raise FirstMatchViolation(
                        "backward case input matches an earlier branch pattern: "
                        f"{_describe(v_scrut)} vs pattern at {p.pos}")
            sigma = {}
            if not _match(v_scrut, scrut, sigma):
                return NO_MATCH
            sigma.update(reg)
            reg = sigma

        elif tag == "K_PROJ":
            reg = reg[frame[1]]

        else:  # pragma: no cover
            raise AssertionError(tag)

    return reg


def _describe(v) -> str:
    from .values import render_value
    return render_value(v) if isinstance(v, Value) else repr(v)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def eval_expr(prog: Program, subst: Subst, e: Expr, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """Evaluate e under subst; Value, NO_MATCH or OUT_OF_FUEL.

    Raises StaticError unless prog is statically valid and e uses each
    variable of subst exactly once."""
    defs = prog.checked_defs
    violations = check_expr(e, subst)
    if violations:
        raise StaticError(violations)
    return _run(defs, [("EVAL", e, dict(subst))], fuel)


def apply_forward(prog: Program, fname: str, v: Value, fuel: int = DEFAULT_FUEL) -> EvalResult:
    defs = prog.checked_defs
    d = _def_for(defs, fname)
    return _run(defs, [("EVAL", d.body, {d.param: v})], fuel)


def apply_backward(prog: Program, fname: str, v: Value, fuel: int = DEFAULT_FUEL) -> EvalResult:
    """The u with apply_forward(prog, fname, u) = v, via a direct inverse
    interpreter: leaves are matched against v under the symmetric first-match
    policy, lets and rlets swap direction, cases run inside out."""
    defs = prog.checked_defs
    d = _def_for(defs, fname)
    return _run(defs, [("K_PROJ", d.param), ("UNEVAL", d.body, v)], fuel)
