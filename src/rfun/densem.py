"""Denotational semantics: programs as morphisms of the concrete category.

Values embed into T(S), the object of constructor trees over the symbol
object S.  A left expression with k free variables denotes a morphism
T(S)^{*k} -> T(S) (its dagger is the pattern semantics); an expression
denotes the same shape relative to a program context xi : T(S)^{+n} ->
T(S)^{+n}; a program is the least fixed point of the scheme assembling the
sum of its definition bodies.

Wire discipline: a context is an ordered tuple of variable names; the k-fold
product is right-nested, with the empty context denoting the unit object.
Sub-expressions receive the unconsumed wires first, then the wires a pattern
produced.  Permutations and regroupings between those layouts are total
structural isomorphisms built directly as evaluator pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .invcat import (
    NO_FUEL, ONE, UNDEF, Elem, InL, InR, Morph, ObjDesc, Pair, Prod, Roll,
    STAR, Star, Sum, _Outcome, complement, compose, compose_all, dagger,
    decidable_restriction, delta, fix, fold, identity, inj_n, join, meet_idem,
    obj_L, obj_S, obj_T, oplus_all, otimes, prod_unitl, prod_unitr,
)
from .opsem import UnknownFunction
from .syntax import (
    ECase, ELeaf, ELet, ERLet, Expr, LCtor, LDup, LeftExpr, LVar, Program,
    check_static_or_raise, lvars, walk,
)
from .values import TUPLE, Value

S = obj_S()
TS = obj_T(S)
LTS = obj_L(TS)

DEFAULT_FUEL = 100_000


class UnknownSymbol(Exception):
    pass


class DecodeError(Exception):
    pass


class ContextMismatch(Exception):
    pass


# ---------------------------------------------------------------------------
# Symbol tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolTable:
    """Bijection between constructor names and the symbol indices 1, 2, ...

    The tuple constructor always has index 1, so encodings are stable across
    every program that is explicit about nothing else.
    """
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names or self.names[0] != TUPLE:
            raise ValueError("symbol 1 must be the tuple constructor")
        if len(set(self.names)) != len(self.names):
            raise ValueError("constructor names must be distinct")

    @staticmethod
    def from_names(names) -> "SymbolTable":
        out = [TUPLE]
        for n in names:
            if n not in out:
                out.append(n)
        return SymbolTable(tuple(out))

    @staticmethod
    def from_program(prog: Program, extra=()) -> "SymbolTable":
        """Indices follow first occurrence in the program text, tuples first."""
        return SymbolTable.from_names(list(_program_ctors(prog)) + list(extra))

    def with_value(self, v: Value) -> "SymbolTable":
        return SymbolTable.from_names(list(self.names[1:]) + list(_value_ctors(v)))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise UnknownSymbol(f"constructor {name!r} is not in the symbol table") from None

    def name(self, index: int) -> str:
        if not 1 <= index <= len(self.names):
            raise UnknownSymbol(f"symbol index {index} out of range")
        return self.names[index - 1]


def _program_ctors(prog: Program):
    for d in prog.defs:
        for node in walk(d.body):
            if isinstance(node, LCtor):
                yield node.ctor


def _value_ctors(v: Value):
    yield v.ctor
    for a in v.args:
        yield from _value_ctors(a)


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------

def sym_elem(index: int) -> Elem:
    """The element of S identifying symbol number `index` (1-based)."""
    e: Elem = InL(STAR)
    for _ in range(index - 1):
        e = InR(Roll(e))
    return Roll(e)


def encode_value(v: Value, tbl: SymbolTable) -> Elem:
    idx = tbl.index(v.ctor)
    spine: Elem = Roll(InL(STAR))
    for child in reversed(v.args):
        spine = Roll(InR(Pair(encode_value(child, tbl), spine)))
    return Roll(Pair(sym_elem(idx), spine))


def decode_value(e: Elem, tbl: SymbolTable) -> Value:
    if not isinstance(e, Roll) or not isinstance(e.value, Pair):
        raise DecodeError(f"not a tree element: {e!r}")
    sym, spine = e.value.fst, e.value.snd
    index = 0
    while True:
        if not isinstance(sym, Roll):
            raise DecodeError(f"not a symbol element: {sym!r}")
        index += 1
        match sym.value:
            case InL(Star()):
                break
            case InR(rest):
                sym = rest
            case _:
                raise DecodeError(f"not a symbol element: {sym!r}")
    args = []
    while True:
        if not isinstance(spine, Roll):
            raise DecodeError(f"not a list element: {spine!r}")
        match spine.value:
            case InL(Star()):
                break
            case InR(Pair(hd, tl)):
                args.append(decode_value(hd, tbl))
                spine = tl
            case _:
                raise DecodeError(f"not a list element: {spine!r}")
    return Value(tbl.name(index), tuple(args))


# ---------------------------------------------------------------------------
# Wiring: tensor powers, permutations, regroupings
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def tpow(k: int) -> ObjDesc:
    """Right-nested k-fold product of T(S); the unit object for k = 0."""
    if k == 0:
        return ONE
    if k == 1:
        return TS
    return Prod(TS, tpow(k - 1))


def _untuple(e: Elem, k: int) -> list[Elem]:
    if k == 0:
        return []
    out = []
    for _ in range(k - 1):
        out.append(e.fst)
        e = e.snd
    out.append(e)
    return out


def _retuple(xs: list[Elem]) -> Elem:
    if not xs:
        return STAR
    out = xs[-1]
    for x in reversed(xs[:-1]):
        out = Pair(x, out)
    return out


def perm_morph(perm: tuple[int, ...]) -> Morph:
    """Total iso on tpow(len(perm)); output slot i carries input slot perm[i]."""
    k = len(perm)
    inverse = tuple(perm.index(i) for i in range(k))

    def fwd(x, fuel):
        xs = _untuple(x, k)
        return _retuple([xs[i] for i in perm])

    def bwd(y, fuel):
        ys = _untuple(y, k)
        return _retuple([ys[i] for i in inverse])

    return Morph(tpow(k), tpow(k), fwd, bwd, "perm")


def _perm_for(src: tuple[str, ...], tgt: tuple[str, ...]) -> Morph:
    if sorted(src) != sorted(tgt):
        raise ContextMismatch(f"cannot permute {src} into {tgt}")
    return perm_morph(tuple(src.index(v) for v in tgt))


def regroup(sizes: tuple[int, ...]) -> Morph:
    """Total iso tpow(sum) -> tpow(s1) * (tpow(s2) * ...)."""
    if not sizes:
        raise ContextMismatch("regroup of no groups")
    total = sum(sizes)
    objs = [tpow(s) for s in sizes]
    tgt = objs[-1]
    for o in reversed(objs[:-1]):
        tgt = Prod(o, tgt)

    def fwd(x, fuel):
        xs = _untuple(x, total)
        groups = []
        at = 0
        for s in sizes:
            groups.append(_retuple(xs[at:at + s]))
            at += s
        return _retuple(groups) if len(sizes) > 1 else groups[0]

    def bwd(y, fuel):
        groups = _untuple(y, len(sizes)) if len(sizes) > 1 else [y]
        xs = []
        for g, s in zip(groups, sizes):
            xs.extend(_untuple(g, s))
        return _retuple(xs)

    return Morph(tpow(total), tgt, fwd, bwd, "regroup")


# ---------------------------------------------------------------------------
# Symbols, nodes, pack/unpack
# ---------------------------------------------------------------------------

def symbol_morphism(name: str, tbl: SymbolTable) -> Morph:
    """The total injection 1 -> S identifying the symbol; its dagger asserts it."""
    index = tbl.index(name)
    m = compose(fold(S), inj_n(0, [ONE, S]))
    for _ in range(index - 1):
        m = compose_all(fold(S), inj_n(1, [ONE, S]), m)
    return m


@lru_cache(maxsize=None)
def _nil(obj: ObjDesc) -> Morph:
    lst = obj_L(obj)
    return compose(fold(lst), inj_n(0, [ONE, Prod(obj, lst)]))


@lru_cache(maxsize=None)
def _cons(obj: ObjDesc) -> Morph:
    lst = obj_L(obj)
    return compose(fold(lst), inj_n(1, [ONE, Prod(obj, lst)]))


@lru_cache(maxsize=None)
def pack(n: int, obj: ObjDesc = TS) -> Morph:
    """The n-th tupling map into lists, X^{*n} -> L(X); by default X = T(S)."""
    if n < 0:
        raise ContextMismatch("pack of negative arity")
    if n == 0:
        return _nil(obj)
    if n == 1:
        return compose_all(_cons(obj), otimes(identity(obj), _nil(obj)),
                           dagger(prod_unitr(obj)))
    return compose(_cons(obj), otimes(identity(obj), pack(n - 1, obj)))


def unpack(n: int, obj: ObjDesc = TS) -> Morph:
    """Defined precisely on lists of length n."""
    return dagger(pack(n, obj))


def node_morphism(ctor: str, arity: int, tbl: SymbolTable) -> Morph:
    """tpow(n) -> T(S): build a tree node from the packed children."""
    return compose_all(
        fold(TS),
        otimes(symbol_morphism(ctor, tbl), pack(arity)),
        dagger(prod_unitl(tpow(arity))),
    )


def tuple_morphism(arity: int, tbl: SymbolTable) -> Morph:
    return node_morphism(TUPLE, arity, tbl)


# ---------------------------------------------------------------------------
# The duplication/equality morphism
# ---------------------------------------------------------------------------

def dupeq_morphism(tbl: SymbolTable) -> Morph:
    """Join of the three disjoint cases of the duplication/equality operator.

    Equal pairs contract, unequal pairs stay put, singletons duplicate.
    Self-adjoint: the dagger permutes the (pairwise disjoint) cases, which a
    join cannot observe.
    """
    t1 = tuple_morphism(1, tbl)
    t2 = tuple_morphism(2, tbl)
    eq = dagger(delta(TS))
    neq = complement(decidable_restriction(eq)).as_morph()
    contract = compose_all(t1, eq, dagger(t2))
    keep = compose_all(t2, neq, dagger(t2))
    duplicate = compose_all(t2, delta(TS), dagger(t1))
    return join([contract, keep, duplicate])


# ---------------------------------------------------------------------------
# Left expressions
# ---------------------------------------------------------------------------

def sem_left(l: LeftExpr, ctx: tuple[str, ...], tbl: SymbolTable) -> Morph:
    """tpow(|ctx|) -> T(S); the dagger is the pattern semantics."""
    order = tuple(lvars(l))
    if len(set(order)) != len(order):
        raise ContextMismatch(f"non-linear left expression over {order}")
    if set(order) != set(ctx) or len(ctx) != len(set(ctx)):
        raise ContextMismatch(f"context {ctx} does not match variables {order}")
    return _sem_left(l, ctx, tbl)


def _sem_left(l: LeftExpr, ctx: tuple[str, ...], tbl: SymbolTable) -> Morph:
    match l:
        case LVar():
            return identity(TS)
        case LDup(arg):
            return compose(dupeq_morphism(tbl), _sem_left(arg, ctx, tbl))
        case LCtor(ctor, args):
            child_orders = [tuple(lvars(a)) for a in args]
            flat = tuple(v for o in child_orders for v in o)
            phi = _perm_for(ctx, flat)
            builder = node_morphism(ctor, len(args), tbl)
            if not args:
                return compose(builder, phi)
            children = [_sem_left(a, o, tbl) for a, o in zip(args, child_orders)]
            tensor = children[-1]
            for c in reversed(children[:-1]):
                tensor = otimes(c, tensor)
            grouped = regroup(tuple(len(o) for o in child_orders))
            return compose_all(builder, tensor, grouped, phi)
    raise AssertionError


def pattern_idem(l: LeftExpr, tbl: SymbolTable):
    """The decidable restriction idempotent of matching against l."""
    return decidable_restriction(dagger(sem_left(l, tuple(lvars(l)), tbl)))


# ---------------------------------------------------------------------------
# Expressions in a program context
# ---------------------------------------------------------------------------

def xi_component(xi: Morph, i: int, n: int) -> Morph:
    """The i-th function of an n-function program context (0-based here)."""
    inj = inj_n(i, [TS] * n)
    return compose_all(dagger(inj), xi, inj)


def sem_expr(e: Expr, ctx: tuple[str, ...], xi: Morph,
             fn_index: dict[str, int], tbl: SymbolTable) -> Morph:
    """tpow(|ctx|) -> T(S) relative to the program context xi."""
    n = len(fn_index)
    match e:
        case ELeaf(left):
            return sem_left(left, ctx, tbl)

        case ELet() | ERLet():
            # let consumes the call argument and binds the result pattern;
            # rlet consumes its bound side and binds the argument pattern,
            # running the callee backward.
            if isinstance(e, ELet):
                consumed, produced = e.arg, e.bound
            else:
                consumed, produced = e.bound, e.arg
            if e.fname not in fn_index:
                raise UnknownFunction(f"no definition for {e.fname!r}")
            call = xi_component(xi, fn_index[e.fname], n)
            if isinstance(e, ERLet):
                call = dagger(call)
            in_vars = tuple(lvars(consumed))
            rest = tuple(v for v in ctx if v not in set(in_vars))
            out_vars = tuple(lvars(produced))
            phi = _perm_for(ctx, rest + in_vars)
            grouped = regroup((len(rest), len(in_vars)))
            through = compose_all(
                dagger(sem_left(produced, out_vars, tbl)),
                call,
                sem_left(consumed, in_vars, tbl),
            )
            body = sem_expr(e.body, rest + out_vars, xi, fn_index, tbl)
            return compose_all(
                body,
                dagger(regroup((len(rest), len(out_vars)))),
                otimes(identity(tpow(len(rest))), through),
                grouped,
                phi,
            )

        case ECase(scrut, branches):
            s_vars = tuple(lvars(scrut))
            rest = tuple(v for v in ctx if v not in set(s_vars))
            r = len(rest)
            pre = compose_all(
                otimes(identity(tpow(r)), sem_left(scrut, s_vars, tbl)),
                regroup((r, len(s_vars))),
                _perm_for(ctx, rest + s_vars),
            )
            arms = []
            guard = None
            for pat, body in branches:
                p_vars = tuple(lvars(pat))
                split = dagger(sem_left(pat, p_vars, tbl))
                if guard is not None:
                    split = compose(split, guard.as_morph())
                body_m = sem_expr(body, rest + p_vars, xi, fn_index, tbl)
                arms.append(compose_all(
                    body_m,
                    dagger(regroup((r, len(p_vars)))),
                    otimes(identity(tpow(r)), split),
                ))
                blocked = complement(pattern_idem(pat, tbl))
                guard = blocked if guard is None else meet_idem(guard, blocked)
            return compose(join(arms), pre)

    raise AssertionError


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

def sem_program(prog: Program, tbl: SymbolTable | None = None) -> Morph:
    """T(S)^{+n} -> T(S)^{+n}: the least fixed point over the sum of the
    definition denotations."""
    check_static_or_raise(prog)
    if tbl is None:
        tbl = SymbolTable.from_program(prog)
    fn_index = {d.name: i for i, d in enumerate(prog.defs)}
    n = len(prog.defs)
    obj = _nsum(n)

    def scheme(xi: Morph) -> Morph:
        return oplus_all([
            sem_expr(d.body, (d.param,), xi, fn_index, tbl) for d in prog.defs
        ])

    return fix(scheme, obj, obj)


def _nsum(n: int) -> ObjDesc:
    obj: ObjDesc = TS
    for _ in range(n - 1):
        obj = Sum(TS, obj)
    return obj


def function_morphism(prog: Program, fname: str,
                      tbl: SymbolTable | None = None,
                      program_morph: Morph | None = None) -> Morph:
    """T(S) -> T(S): the denotation of one function of the program."""
    if program_morph is None:
        program_morph = sem_program(prog, tbl)
    i = prog.index_of(fname)
    return xi_component(program_morph, i, len(prog.defs))


def run_denotation(m: Morph, v: Value, tbl: SymbolTable,
                   fuel: int = DEFAULT_FUEL):
    """Evaluate a T(S) -> T(S) morphism on an encoded value.

    Returns a decoded Value, UNDEF or NO_FUEL; IncompatibleJoin propagates.
    """
    r = m.fwd(encode_value(v, tbl), fuel)
    if isinstance(r, _Outcome):
        return r
    return decode_value(r, tbl)
