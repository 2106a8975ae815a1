"""Denotational semantics: programs as morphisms of the concrete category.

Values embed into T(S), the object of constructor trees over the symbol
object S.  A left expression with k free variables denotes a morphism
T(S)^{*k} -> T(S) (its dagger is the pattern semantics); an expression
denotes the same shape relative to a program context xi : T(S)^{+n} ->
T(S)^{+n}; a program is the least fixed point of the scheme assembling the
sum of its definition bodies.

Denotations are invcat nodes, run by its evaluator; the case of the
symmetric first-match policy is a node of its own (Case), its forward and
backward rules generator frames.  A symbol is a primitive point of S whose
inverse, an equality test, is given as data.

Wire discipline: a layout is a variable name (one wire, T(S)), () (the unit
object) or a pair of layouts (their product); a flat context of k names is
the right-nested layout on T(S)^{*k}.  Each binding site rewires its input
once, by the total iso between two layouts of the same wires, into the pair
(unconsumed wires, consumed wires); a sub-expression receives the pair
(unconsumed wires, wires a pattern produced) as it is, not flattened.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .invcat import (
    ONE, UNDEF, Elem, FirstJoin, Hole, IncompatibleJoin, InL, InR, Morph, Node,
    ObjDesc, Pair, Prod, Roll, STAR, _Outcome, _sum_all, complement, compose,
    compose_all, dagger, delta, equations, fix, fold, identity, inj_n, join,
    obj_L, obj_S, obj_T, oplus_all, otimes, prod_unitl, restrict,
)
from .opsem import DEFAULT_FUEL, UnknownFunction
from .syntax import (
    ELeaf, ELet, Expr, LDup, LeftExpr, LVar, Program,
    check_static_or_raise, constructors, lvars,
)
from .values import TUPLE, Value, fold_tree

S = obj_S()
TS = obj_T(S)
LTS = obj_L(TS)
_NIL = Roll(InL(STAR))      # the empty list of L(T(S)), and symbol 1 of S


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
        return SymbolTable.from_names([c for c, _ in constructors(prog)] + list(extra))

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


def _value_ctors(v: Value):
    todo = [v]
    while todo:
        w = todo.pop()
        yield w.ctor
        todo.extend(reversed(w.args))


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sym_elem(index: int) -> Elem:
    """The element of S identifying symbol number `index` (1-based)."""
    e: Elem = InL(STAR)
    for _ in range(index - 1):
        e = InR(Roll(e))
    return Roll(e)


def encode_value(v: Value, tbl: SymbolTable) -> Elem:
    return fold_tree(v, lambda w: (tbl.index(w.ctor), w.args), _encode_node)


def _encode_node(index: int, children: list[Elem]) -> Elem:
    spine: Elem = _NIL
    for child in reversed(children):
        spine = Roll(InR(Pair(child, spine)))
    return Roll(Pair(sym_elem(index), spine))


def decode_value(e: Elem, tbl: SymbolTable) -> Value:
    return fold_tree(e, _decode_node,
                     lambda index, args: Value(tbl.name(index), tuple(args)))


def _decode_node(e: Elem) -> tuple[int, list[Elem]]:
    """The symbol index of a tree element and its children's elements."""
    if type(e) is not Roll or type(e.value) is not Pair:
        raise DecodeError(f"not a tree element: {e!r}")
    sym, spine = e.value.fst, e.value.snd
    index = 1                           # symbol n is n - 1 successors of _NIL
    while type(sym) is Roll and type(sym.value) is InR:
        sym, index = sym.value.value, index + 1
    if sym != _NIL:
        raise DecodeError(f"not a symbol element: {sym!r}")
    children = []                       # a list is cons cells ending in _NIL
    while type(spine) is Roll and type(spine.value) is InR and type(spine.value.value) is Pair:
        children.append(spine.value.value.fst)
        spine = spine.value.value.snd
    if spine != _NIL:
        raise DecodeError(f"not a list element: {spine!r}")
    return index, children


# ---------------------------------------------------------------------------
# Wiring: tensor powers, layouts, rewiring
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def tpow(k: int) -> ObjDesc:
    """Right-nested k-fold product of T(S); the unit object for k = 0."""
    return _obj(_nest(["x"] * k))


def _nest(items) -> tuple | str:
    """Right-nested layout of a sequence of layouts; for wire names, the flat
    layout on tpow(len(names))."""
    items = tuple(items)
    out = items[-1] if items else ()
    for item in reversed(items[:-1]):
        out = (item, out)
    return out


def _obj(layout) -> ObjDesc:
    if isinstance(layout, str):
        return TS
    return Prod(_obj(layout[0]), _obj(layout[1])) if layout else ONE


def _shape(layout) -> Elem:
    """The element shape of a layout: a hole for each wire."""
    if isinstance(layout, str):
        return Hole(layout)
    return Pair(_shape(layout[0]), _shape(layout[1])) if layout else STAR


def _names(layout) -> list[str]:
    return [layout] if isinstance(layout, str) else [w for part in layout for w in _names(part)]


@lru_cache(maxsize=1024)
def rewire(src, tgt) -> Morph:
    """The total iso moving the wires laid out as src into the layout tgt:
    a primitive given by one equation, the shape of src is the shape of tgt."""
    wires = _names(src)
    if len(set(wires)) != len(wires) or sorted(wires) != sorted(_names(tgt)):
        raise ContextMismatch(f"cannot rewire {src} into {tgt}")
    if src == tgt:
        return identity(_obj(src))
    return Morph(_obj(src), _obj(tgt), *equations((_shape(src), _shape(tgt))), "wire")


def _rest(layout, used: list[str]):
    """The flat layout of the wires of layout not in used, in order."""
    return _nest(w for w in _names(layout) if w not in used)


# ---------------------------------------------------------------------------
# Symbols, nodes, pack/unpack
# ---------------------------------------------------------------------------

def symbol_morphism(name: str, tbl: SymbolTable) -> Morph:
    """The total injection 1 -> S identifying the symbol; its dagger asserts it."""
    # A point of S: its inverse, an equality test, is given as data.
    sym = sym_elem(tbl.index(name))
    return Morph(ONE, S, lambda x, fuel: sym,
                 lambda y, fuel: STAR if y == sym else UNDEF, "symbol")


@lru_cache(maxsize=None)
def pack(n: int, obj: ObjDesc = TS) -> Morph:
    """The n-th tupling map into lists, X^{*n} -> L(X); by default X = T(S).
    A primitive given by one equation, (x0, (x1, ...)) = [x0, x1, ...], so
    its dagger is defined on the lists of length n only."""
    if n < 0:
        raise ContextMismatch("pack of negative arity")
    shape, src, lst = STAR, ONE, _NIL
    for i in reversed(range(n)):
        x = Hole(f"x{i}")
        shape, src = (x, obj) if i == n - 1 else (Pair(x, shape), Prod(obj, src))
        lst = Roll(InR(Pair(x, lst)))
    return Morph(src, obj_L(obj), *equations((shape, lst)), "pack")


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
    join cannot observe.  Disjoint in domain and in codomain by construction,
    no two cases can disagree or share an output, so the join is a FirstJoin,
    which the first defined case answers unchecked.
    """
    t1 = tuple_morphism(1, tbl)
    t2 = tuple_morphism(2, tbl)
    eq = dagger(delta(TS))
    neq = complement(restrict(eq))
    contract = compose_all(t1, eq, dagger(t2))
    keep = compose_all(t2, neq, dagger(t2))
    duplicate = compose_all(t2, delta(TS), dagger(t1))
    return FirstJoin(TS, TS, (contract, keep, duplicate), label="join")


# ---------------------------------------------------------------------------
# Left expressions
# ---------------------------------------------------------------------------

def sem_left(l: LeftExpr, ctx: tuple[str, ...], tbl: SymbolTable) -> Morph:
    """tpow(|ctx|) -> T(S); the dagger is the pattern semantics."""
    return _sem_left(l, _nest(ctx), tbl)


def _sem_left(l: LeftExpr, layout, tbl: SymbolTable) -> Morph:
    # One loop: a constructor or |_._| goes back on the stack as a list under
    # its arguments, built from their (denotation, variables), first on top.
    # A constructor's argument takes the flat layout of its variables (None).
    todo: list = [(l, layout)]
    built: list[tuple[Morph, list[str]]] = []
    while todo:
        item = todo.pop()
        n, lay = item
        if type(n) is LVar:
            built.append((rewire(n.name if lay is None else lay, n.name), [n.name]))
        elif type(item) is tuple:
            todo.append([n, lay])
            todo += ((n.arg, lay),) if type(n) is LDup else ((a, None) for a in n.args)
        elif type(n) is LDup:
            m, names = built.pop()
            built.append((compose(dupeq_morphism(tbl), m), names))
        else:
            parts = [built.pop() for _ in n.args]
            m = node_morphism(n.ctor, len(parts), tbl)
            if parts:                   # the arguments' right-nested tensor
                m = compose(m, reduce(lambda t, p: otimes(p[0], t), parts[-2::-1], parts[-1][0]))
            names = [w for _, ws in parts for w in ws]
            kids = _nest(_nest(ws) for _, ws in parts)
            built.append((compose(m, rewire(_nest(names) if lay is None else lay, kids)), names))
    return built[0][0]


def pattern_idem(l: LeftExpr, tbl: SymbolTable) -> Morph:
    """The guard of matching against l: the identity on the trees l matches."""
    return restrict(dagger(sem_left(l, tuple(lvars(l)), tbl)))


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
    # One loop over (expression, layout, the map run before it).  A let or
    # case splits off the wires it uses; a case's arms wait for their bodies.
    layout = _nest(ctx)
    todo: list = [(e, layout, identity(_obj(layout)))]
    built: list[Morph] = []
    while todo:
        e, layout, before = todo.pop()
        kind = type(e)
        if kind is ELeaf:
            built.append(compose(_sem_left(e.left, layout, tbl), before))
            continue
        if kind is tuple:               # a case's arms; layout is its rest
            arms = tuple((dagger(_sem_left(pat, _nest(lvars(pat)), tbl)), built.pop(), own,
                          isinstance(body, ELeaf)) for pat, body, own, _ in e)
            # Not a join of the arms: the case commits to the first arm
            # whose pattern (forward) or leaf (backward) matches and raises
            # IncompatibleJoin on a value that an earlier arm claims.
            case = Case(Prod(_obj(layout), TS), TS, arms, tbl, [None] * len(e), label="case")
            built.append(compose(case, before))
            continue
        consumed = e.uses if kind is ELet else e.scrutinee
        in_vars = lvars(consumed)
        rest, ins = _rest(layout, in_vars), _nest(in_vars)
        m = _sem_left(consumed, ins, tbl)
        if kind is ELet:
            call = xi_component(xi, fn_index[e.fname], len(fn_index))
            outs = _nest(lvars(e.binds))
            m = compose_all(dagger(_sem_left(e.binds, outs, tbl)),
                            dagger(call) if e.backward else call, m)
        before = compose_all(otimes(identity(_obj(rest)), m), rewire(layout, (rest, ins)), before)
        if kind is ELet:
            todo.append((e.body, (rest, outs), before))
            continue
        todo.append((e.arms, rest, before))
        for pat, body, _, _ in e.arms:  # built last first, so popped first first
            inner = (rest, _nest(lvars(pat)))
            todo.append((body, inner, identity(_obj(inner))))
    return built[0]


class Case(Node):
    """rest * T(S) -> T(S): a case under the symmetric first-match policy.

    Each arm is (split, body, leaves, leaf_body): split, the dagger of the
    pattern, takes the scrutinee to the pattern's wires P; body maps rest * P
    to T(S); leaves are the body's leaves; leaf_body says the body is one leaf.
    As in the interpreter, forward commits to the first arm whose pattern
    matches, and flags a result matching a leaf of an earlier arm; backward
    commits to the first arm with a leaf matching, and flags a recovered
    scrutinee matching an earlier pattern.  A committed arm does not fall
    through, and a flag raises IncompatibleJoin, so the dagger is the case
    of the inverted program.
    """
    __slots__ = ("arms", "tbl", "tests")

    def frames(self, forward, x, fuel):
        return self._forward(x) if forward else self._backward(x)

    def leaf_test(self, i: int) -> Morph:
        """The guard of the trees that match a leaf of arm i; built on first use."""
        if self.tests[i] is None:
            guards = [pattern_idem(l, self.tbl) for l in self.arms[i][2]]
            self.tests[i] = guards[0] if len(guards) == 1 else join(guards)
        return self.tests[i]

    def _forward(self, x):
        for i, (split, body, _, _) in enumerate(self.arms):
            p = yield split, True, x.snd
            if p is UNDEF:
                continue
            y = yield body, True, Pair(x.fst, p)
            if type(y) is not _Outcome:
                for j in range(i):
                    if (yield self.leaf_test(j), True, y) is not UNDEF:
                        raise IncompatibleJoin(
                            f"case result of arm {i} matches a leaf of arm {j}")
            return y
        return UNDEF

    def _backward(self, y):
        last = len(self.arms) - 1
        for i, (split, body, _, leaf_body) in enumerate(self.arms):
            if leaf_body or i == last:
                # the body's own leaf match decides the commit; on the last
                # arm an undefined body is undefined either way
                z = yield body, False, y
                if z is UNDEF:
                    continue
            elif (yield self.leaf_test(i), True, y) is not UNDEF:
                z = yield body, False, y
            else:
                continue
            if type(z) is _Outcome:
                return z
            s = yield split, False, z.snd
            if type(s) is _Outcome:
                return s
            for j in range(i):
                if (yield self.arms[j][0], True, s) is not UNDEF:
                    raise IncompatibleJoin(
                        f"case input recovered by arm {i} matches the "
                        f"pattern of arm {j}")
            return Pair(z.fst, s)
        return UNDEF


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
    obj = _sum_all([TS] * len(prog.defs))

    def scheme(xi: Morph) -> Morph:
        return oplus_all([
            sem_expr(d.body, (d.param,), xi, fn_index, tbl) for d in prog.defs
        ])

    return fix(scheme, obj, obj)


def function_morphism(prog: Program, fname: str,
                      tbl: SymbolTable | None = None,
                      program_morph: Morph | None = None) -> Morph:
    """T(S) -> T(S): the denotation of one function of the program."""
    names = list(prog.checked_defs)
    if fname not in names:
        raise UnknownFunction(f"no definition for {fname!r}")
    if program_morph is None:
        program_morph = sem_program(prog, tbl)
    return xi_component(program_morph, names.index(fname), len(names))


def run_denotation(m: Morph, v: Value, tbl: SymbolTable,
                   fuel: int = DEFAULT_FUEL):
    """Evaluate a T(S) -> T(S) morphism on an encoded value.

    Returns a decoded Value, UNDEF or NO_FUEL; IncompatibleJoin propagates.
    """
    r = m.fwd(encode_value(v, tbl), fuel)
    if isinstance(r, _Outcome):
        return r
    return decode_value(r, tbl)
