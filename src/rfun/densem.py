"""Denotational semantics: programs as morphisms of the concrete category.

Values embed into T(S), the object of constructor trees over the symbol
object S.  A left expression with k free variables denotes a morphism
T(S)^{*k} -> T(S) (its dagger is the pattern semantics); an expression
denotes the same shape relative to a program context xi : T(S)^{+n} ->
T(S)^{+n}; a program is the least fixed point of the scheme assembling the
sum of its definition bodies.

Denotations are invcat nodes, run by its evaluator; the case of the
symmetric first-match policy is a node of its own (Case), whose one rule,
a generator of frames, serves both directions.  A symbol is the primitive
point of S given by one equation, STAR = its element, so it fuses with the
maps around it like every other primitive.

Wire discipline: a layout is a variable name (one wire, T(S)), () (the unit
object) or a pair of layouts (their product); a flat context of k names is
the right-nested layout on T(S)^{*k}.  Each binding site rewires its input
once, by the total iso between two layouts of the same wires, into the pair
(unconsumed wires, consumed wires); a sub-expression receives the pair
(unconsumed wires, wires a pattern produced) as it is, not flattened.  A
layout is held as a tuple in pre-order, a pair as None and then its two
parts, so that layouts of any size hash and compare without recursion.
"""
from __future__ import annotations

from functools import lru_cache, reduce

from .invcat import (
    ONE, UNDEF, Elem, FirstJoin, Hole, IncompatibleJoin, InL, InR, Morph, Node,
    ObjDesc, Pair, Prod, Roll, STAR, _Outcome, _sum_all, complement, compose,
    compose_all, dagger, delta, fix, fold, identity, inj_n, obj_L,
    obj_S, obj_T, oplus_all, otimes, primitive, prod_unitl, restrict,
)
from .opsem import DEFAULT_FUEL, UnknownFunction
from .syntax import (
    ECase, ELeaf, ELet, Expr, LCtor, LDup, LeftExpr, LVar, Program, _Node,
    _set_pos, _setters, check_static_or_raise, constructors, lvars,
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

class SymbolTable(_Node):
    """Bijection between constructor names and the symbol indices 1, 2, ...

    The tuple constructor always has index 1, so encodings are stable across
    every program that is explicit about nothing else.  Tables are equal
    when their names are.
    """
    __slots__ = ("names", "_indices")
    __match_args__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        if not names or names[0] != TUPLE:
            raise ValueError("symbol 1 must be the tuple constructor")
        indices = {n: i for i, n in enumerate(names, 1)}
        if len(indices) != len(names):
            raise ValueError("constructor names must be distinct")
        _set_names(self, names)
        _set_indices(self, indices)
        _set_pos(self, None)

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
            return self._indices[name]
        except KeyError:
            raise UnknownSymbol(f"constructor {name!r} is not in the symbol table") from None

    def name(self, index: int) -> str:
        if not 1 <= index <= len(self.names):
            raise UnknownSymbol(f"symbol index {index} out of range")
        return self.names[index - 1]


_set_names, _set_indices = _setters(SymbolTable)


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


def encode_value(v: Value, tbl: SymbolTable, memo: dict | None = None) -> Elem:
    """The element of T(S) encoding v: each node c(v1, ..., vn) becomes the
    Roll of the pair of c's symbol and the list of the vi's elements.

    One loop over an explicit stack builds each node after its children.
    memo maps values already encoded under tbl to their elements, and gains
    every node of v.  Values are interned, so a subtree met again, in v or in
    an earlier value encoded with the same memo, is encoded once and its
    element shared.  Without a memo the call uses a fresh one."""
    if memo is None:
        memo = {}
    todo = [v]
    while todo:
        w = todo.pop()
        if w in memo:
            continue
        args = w.args
        ready = True
        for c in args:
            if c not in memo:
                if ready:
                    todo.append(w)
                    ready = False
                todo.append(c)
        if ready:
            spine: Elem = _NIL
            for c in reversed(args):
                spine = Roll(InR(Pair(memo[c], spine)))
            memo[w] = Roll(Pair(sym_elem(tbl.index(w.ctor)), spine))
    return memo[v]


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
    return _obj(_wires(["x"] * k))


def _nest(layouts) -> tuple:
    """The right-nested layout (l0, (l1, ...)) of a sequence of layouts."""
    layouts = list(layouts)
    if not layouts:
        return ((),)
    out: list = []
    for layout in layouts[:-1]:
        out.append(None)
        out += layout
    out += layouts[-1]
    return tuple(out)


def _wires(names) -> tuple:
    """The layout of the wires names, on tpow(len(names)): _nest of the
    names, None before each name but the last."""
    names = list(names)
    if not names:
        return ((),)
    out = [None] * (2 * len(names) - 1)
    out[1::2] = names[:-1]
    out[-1] = names[-1]
    return tuple(out)


def _build(layout: tuple, leaf, pair):
    """A layout folded bottom-up: leaf(w) at each wire w or (), pair of the
    two results at each pair."""
    out: list = []
    for item in reversed(layout):       # a pair's first part is on top
        out.append(leaf(item) if item is not None else pair(out.pop(), out.pop()))
    return out[0]


def _obj(layout: tuple) -> ObjDesc:
    """The object of a layout: T(S) for each wire."""
    return _build(layout, lambda w: TS if w else ONE, Prod)


def _names(layout: tuple) -> list[str]:
    return [w for w in layout if type(w) is str]


def _rest(layout: tuple, used: list[str]) -> tuple:
    """The flat layout of the wires of layout not in used, in order."""
    return _wires(w for w in _names(layout) if w not in used)


def rewire(src, tgt) -> Morph:
    """The total iso moving the wires laid out as src into the layout tgt,
    both given as nested tuples."""
    return _rewire(_flat(src), _flat(tgt))


def _flat(nested) -> tuple:
    """A layout given as nested tuples, in pre-order."""
    out, todo = [], [nested]
    while todo:
        item = todo.pop()
        if type(item) is tuple and item:
            out.append(None)
            todo += (item[1], item[0])
        else:
            out.append(item)
    return tuple(out)


@lru_cache(maxsize=1024)
def _rewire(src: tuple, tgt: tuple) -> Morph:
    """rewire: a primitive given by one equation, the shape of src is the
    shape of tgt, with a hole for each wire."""
    wires, targets = _names(src), _names(tgt)
    if len(set(wires)) != len(wires) or sorted(wires) != sorted(targets):
        raise ContextMismatch(f"cannot rewire the wires {wires} into {targets}")
    if src == tgt:
        return identity(_obj(src))
    src_shape, tgt_shape = (_build(f, lambda w: Hole(w) if w else STAR, Pair) for f in (src, tgt))
    return primitive(_obj(src), _obj(tgt), ((src_shape, tgt_shape),), "wire")


# ---------------------------------------------------------------------------
# Symbols, nodes, pack/unpack
# ---------------------------------------------------------------------------

def symbol_morphism(name: str, tbl: SymbolTable) -> Morph:
    """The total injection 1 -> S identifying the symbol; its dagger asserts it."""
    return _symbol(tbl.index(name))


@lru_cache(maxsize=1024)
def _symbol(index: int) -> Morph:
    """A point of S, given by one equation, STAR = the symbol's element."""
    return primitive(ONE, S, ((STAR, sym_elem(index)),), "symbol")


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
    return primitive(src, obj_L(obj), ((shape, lst),), "pack")


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
    return _sem_left(l, _wires(ctx), tbl)


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
            built.append((_rewire((n.name,) if lay is None else lay, (n.name,)), [n.name]))
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
            kids = _nest(_wires(ws) for _, ws in parts)
            built.append((compose(m, _rewire(_wires(names) if lay is None else lay, kids)), names))
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
    # One loop over (expression, layout, the maps run before it, in order).  A
    # let or case splits off the wires it uses; a case's arms wait for their
    # bodies.  A let's body goes on with the let's list, and each chain of
    # lets is composed once, where it ends.
    todo: list = [(e, _wires(ctx), [])]
    built: list[Morph] = []
    while todo:
        e, layout, before = todo.pop()
        kind = type(e)
        if kind is ELeaf:
            built.append(compose_all(_sem_left(e.left, layout, tbl), *reversed(before)))
            continue
        if kind is tuple:               # a case's arms, after the map into rest * T(S)
            rest = identity(before[-1].tgt.left)
            arms = tuple((otimes(rest, dagger(_sem_left(pat, _wires(lvars(pat)), tbl))),
                          built.pop(), own, isinstance(body, ELeaf)) for pat, body, own in e)
            # Not a join of the arms: the case commits to the first arm
            # whose pattern (forward) or leaf (backward) matches and raises
            # IncompatibleJoin on a value that an earlier arm claims.
            case = Case(before[-1].tgt, TS, arms, tbl, [None] * len(e), e, None, label="case")
            built.append(compose_all(case, *reversed(before)))
            continue
        consumed = e.uses if kind is ELet else e.scrutinee
        in_vars = lvars(consumed)
        rest, ins = _rest(layout, in_vars), _wires(in_vars)
        m = _sem_left(consumed, ins, tbl)
        if kind is ELet:
            call = xi_component(xi, fn_index[e.fname], len(fn_index))
            outs = _wires(lvars(e.binds))
            m = compose_all(dagger(_sem_left(e.binds, outs, tbl)),
                            dagger(call) if e.backward else call, m)
        split = _rewire(layout, (None, *rest, *ins))
        before += (split, otimes(identity(split.tgt.left), m))
        if kind is ELet:
            todo.append((e.body, (None, *rest, *outs), before))
            continue
        todo.append((e.arms, None, before))
        for pat, body, _ in e.arms:  # built last first, so popped first first
            inner = (None, *rest, *_wires(lvars(pat)))
            todo.append((body, inner, []))
    return built[0]


class Case(Node):
    """rest * T(S) -> T(S): a case under the symmetric first-match policy.

    Each arm is (enter, body, leaves, leaf_body): enter = id_rest * pattern^
    takes rest * T(S) to rest * P, P the pattern's wires; body maps rest * P
    to T(S); leaves are the body's leaves; leaf_body says the body is one
    leaf.  An arm runs as body . enter forward and enter^ . body^ backward.
    As in the interpreter, forward commits to the first arm whose pattern
    matches and flags a result matching a leaf of an earlier arm; backward
    commits to the first arm with a leaf matching and flags a recovered input
    matching an earlier pattern.  A committed arm does not fall through and a
    flag raises IncompatibleJoin, so the rule is self-dual: the dagger is the
    case of the inverted program.  source holds the case's arms as the
    program states them, from which the first run derives checks:
    checks[forward][i] lists the earlier arms whose test can fire on arm i's
    output (see _checks).
    """
    __slots__ = ("arms", "tbl", "tests", "source", "checks")

    def frames(self, forward, x, fuel):
        # An arm's first map decides the commit where it is undefined exactly
        # off the arm: enter, a one-leaf body^, and any map of the last arm
        # (undefined there is undefined either way).  Else the leaf test does.
        for i, (enter, body, _, leaf_body) in enumerate(self.arms):
            decides = forward or leaf_body or i == len(self.arms) - 1
            if not decides and (yield self.test(i, False), True, x) is UNDEF:
                continue
            y = yield (enter if forward else body), forward, x
            if y is UNDEF and decides:
                continue
            if type(y) is not _Outcome:
                y = yield (body if forward else enter), forward, y
            if type(y) is not _Outcome and i:
                if self.checks is None:
                    self.checks = _checks(self.source)
                for j in self.checks[forward][i]:   # the earlier arms' tests from the other side
                    if (yield self.test(j, not forward), True, y) is not UNDEF:
                        raise IncompatibleJoin(
                            f"case result of arm {i} matches a leaf of arm {j}" if forward
                            else f"case input recovered by arm {i} matches the pattern of arm {j}")
            return y
        return UNDEF

    def test(self, i: int, pattern: bool) -> Morph:
        """Arm i's enter map if pattern, else the guard of the trees that
        match a leaf of arm i, built on first use: a FirstJoin of the leaves'
        pattern guards, restriction idempotents with no fixed point in them,
        which agree wherever two are defined and never run out of fuel."""
        if pattern:
            return self.arms[i][0]
        if self.tests[i] is None:
            guards = tuple(pattern_idem(l, self.tbl) for l in self.arms[i][2])
            self.tests[i] = (guards[0] if len(guards) == 1
                             else FirstJoin(TS, TS, guards, label="join"))
        return self.tests[i]


def _clash(a: LeftExpr, b: LeftExpr) -> bool:
    """Whether no tree matches both left expressions: somewhere both fix a
    constructor, with different names or arities.  |_ _| fixes none."""
    pairs = [(a, b)]
    for a, b in pairs:                  # breadth first: the loop sees what it appends
        if type(a) is LCtor and type(b) is LCtor:
            if (a.ctor, len(a.args)) != (b.ctor, len(b.args)):
                return True
            pairs += zip(a.args, b.args)
    return False


def _checks(arms: tuple) -> tuple[tuple, tuple]:
    """Per direction (backward, forward) and per arm i of a case's arms
    (pattern, body, leaves), the earlier arms j whose test can fire on arm
    i's output: backward, pattern j, unless it clashes with pattern i;
    forward, j's leaves, unless each clashes with each of i's."""
    return (
        tuple(tuple(j for j in range(i) if not _clash(arms[i][0], arms[j][0]))
              for i in range(len(arms))),
        tuple(tuple(j for j in range(i)
                    if not all(_clash(l, m) for l in arms[i][2] for m in arms[j][2]))
              for i in range(len(arms))),
    )


def discharged(prog: Program) -> int:
    """How many first-match checks of prog's cases the denotation skips
    because the patterns or leaves clash: one per case, direction and pair
    of an arm and an earlier arm (see _checks)."""
    check_static_or_raise(prog)
    todo, count = [d.body for d in prog.defs], 0
    while todo:
        e = todo.pop()
        if type(e) is ELet:
            todo.append(e.body)
        elif type(e) is ECase:
            count += sum(i - len(row) for table in _checks(e.arms) for i, row in enumerate(table))
            todo += (body for _, body in e.branches)
    return count


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
                   fuel: int = DEFAULT_FUEL, memo: dict | None = None):
    """Evaluate a T(S) -> T(S) morphism on an encoded value (encoded through
    memo, as encode_value does).

    Returns a decoded Value, UNDEF or NO_FUEL; IncompatibleJoin propagates.
    """
    r = m.fwd(encode_value(v, tbl, memo), fuel)
    if isinstance(r, _Outcome):
        return r
    return decode_value(r, tbl)
