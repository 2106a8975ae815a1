"""A concrete join inverse rig category of fuel-bounded partial injections.

Objects are shape descriptors (empty, unit, sum, product, least fixed point);
elements are the finite trees inhabiting them, immutable by convention and
hashed once when built.  A morphism maps an element and a fuel budget to an
element, ``UNDEF`` or ``NO_FUEL`` both ways, through ``m.fwd`` and
``m.bwd``, and is a partial isomorphism pointwise: whenever ``fwd(x) = y``
is defined, ``bwd(y) = x`` and conversely.

A primitive morphism (``Morph``: the structural isos, the injections,
duplication) is given by its equations between element shapes, which it
keeps as data and ``equations`` reads both ways into its two evaluators,
generated Python emitted through ``Gen``, which the interpreter uses too:
one cache of compiled texts, with constants passed as defaults.
Composition, both tensors and the dagger of such primitives fuse them into
one by rewriting the equations (``_fused``), so a subterm with no other
combinator runs as one generated function per direction.  Every other
combinator builds a ``Node`` that holds its parts as data: an n-ary
composition (flattened when built), the dagger, both tensors, joins, guards
(restriction idempotents and their complements), trace and the fixed-point
reference.  One function, ``run``, evaluates any node in either direction
on an explicit stack of frames, so no evaluation recurses in Python.  The
combinators commute with the dagger ((g . f)^ = f^ . g^, and likewise for
the others), so the dagger is a direction flag that ``run`` flips, and
each combinator's rule is written once for both directions.  The unit laws
are applied when a morphism is built (identities drop out of a composite,
two identities tensor to one) and when run enters id * f, by f alone.

The three-valued outcome separates decidable failure (UNDEF, stable under
more fuel) from exhausted recursion (NO_FUEL, which more fuel may refine).
The interpreter's NO_MATCH and OUT_OF_FUEL are these same two objects.
"""
from __future__ import annotations

from functools import lru_cache, partial
from itertools import count
from types import CodeType, FunctionType
from typing import Callable, Optional, Union

# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


class _Outcome:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __reduce__(self) -> str:
        return self.name        # the module global: copies and unpickles are it


UNDEF = _Outcome("UNDEF")
NO_FUEL = _Outcome("NO_FUEL")


class InvCatError(Exception):
    pass


class TypeMismatch(InvCatError):
    pass


class IncompatibleJoin(InvCatError):
    """Two join components disagreed at a visited point."""


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------

class _Obj:
    """Objects are interned: building one returns the object built before
    with the same kind and parts, so equality and hashing are identity, O(1)
    at any depth (a context of many variables is a deep product).  Objects
    are few and small, so the table keeps every one.  An object's parts are
    set once, when it is first built, and never change."""
    __slots__ = ()
    _table: dict[tuple, "_Obj"] = {}

    def __new__(cls, *parts):
        key = (cls, *parts)
        obj = _Obj._table.get(key)
        if obj is None:
            if len(parts) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__match_args__)} parts")
            obj = super().__new__(cls)
            for name, part in zip(cls.__match_args__, parts):
                object.__setattr__(obj, name, part)
            _Obj._table[key] = obj
        return obj

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        parts = (f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({', '.join(parts)})"


class Zero(_Obj):
    __slots__ = __match_args__ = ()


class One(_Obj):
    __slots__ = __match_args__ = ()


class Sum(_Obj):
    __slots__ = __match_args__ = ("left", "right")


class Prod(_Obj):
    __slots__ = __match_args__ = ("left", "right")


class Mu(_Obj):
    """Least fixed point; the body refers to the binder via de Bruijn Var."""
    __slots__ = __match_args__ = ("body",)


class Var(_Obj):
    __slots__ = __match_args__ = ("index",)


ObjDesc = Union[Zero, One, Sum, Prod, Mu, Var]

ZERO = Zero()
ONE = One()


def obj_str(o: ObjDesc) -> str:
    match o:
        case Zero():
            return "0"
        case One():
            return "1"
        case Sum(a, b):
            return f"({obj_str(a)}+{obj_str(b)})"
        case Prod(a, b):
            return f"({obj_str(a)}*{obj_str(b)})"
        case Mu(b):
            return f"mu.{obj_str(b)}"
        case Var(i):
            return f"X{i}"
    raise AssertionError


def shift_obj(o: ObjDesc, by: int, cutoff: int = 0) -> ObjDesc:
    match o:
        case Zero() | One():
            return o
        case Var(i):
            return Var(i + by) if i >= cutoff else o
        case Sum(a, b):
            return Sum(shift_obj(a, by, cutoff), shift_obj(b, by, cutoff))
        case Prod(a, b):
            return Prod(shift_obj(a, by, cutoff), shift_obj(b, by, cutoff))
        case Mu(b):
            return Mu(shift_obj(b, by, cutoff + 1))
    raise AssertionError


def _subst_obj(o: ObjDesc, index: int, repl: ObjDesc) -> ObjDesc:
    """Substitute a *closed* object for the de Bruijn variable `index`."""
    match o:
        case Zero() | One():
            return o
        case Var(i):
            if i == index:
                return repl
            return Var(i - 1) if i > index else o
        case Sum(a, b):
            return Sum(_subst_obj(a, index, repl), _subst_obj(b, index, repl))
        case Prod(a, b):
            return Prod(_subst_obj(a, index, repl), _subst_obj(b, index, repl))
        case Mu(b):
            return Mu(_subst_obj(b, index + 1, repl))
    raise AssertionError


@lru_cache(maxsize=None)
def unfold_obj(o: Mu) -> ObjDesc:
    if not isinstance(o, Mu):
        raise TypeMismatch(f"cannot unfold {obj_str(o)}")
    return _subst_obj(o.body, 0, o)


# The recursive objects of interest: symbols S = mu X. 1 + X, lists
# L(A) = mu K. 1 + (A * K), and nonempty trees T(A) = mu K. A * L(K).

def obj_S() -> Mu:
    return Mu(Sum(ONE, Var(0)))


def obj_L(a: ObjDesc) -> Mu:
    return Mu(Sum(ONE, Prod(shift_obj(a, 1), Var(0))))


def obj_T(a: ObjDesc) -> Mu:
    return Mu(Prod(shift_obj(a, 1), obj_L(Var(0))))


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class _Element:
    """Equality and hashing shared by the element classes.  The structural
    hash h, cached when built, tells unequal elements apart at once almost
    always; equal ones (or colliding) are walked in full, without recursion."""
    __slots__ = ("h",)
    __match_args__ = ()

    def __eq__(self, other: object) -> bool:
        todo = []
        a, b = self, other
        while True:
            if a is not b:
                kind = type(a)
                if kind is not type(b) or a.h != b.h:
                    return False
                if kind is Pair:
                    todo.append((a.snd, b.snd))
                    a, b = a.fst, b.fst
                    continue
                if kind is Hole:
                    if a != b:
                        return False
                elif kind is not Star:
                    a, b = a.value, b.value
                    continue
            if not todo:
                return True
            a, b = todo.pop()

    def __hash__(self) -> int:
        return self.h

    def __repr__(self) -> str:
        return _text(self)


class Star(_Element):
    __slots__ = ()
    h = 0


class Pair(_Element):
    __slots__ = __match_args__ = ("fst", "snd")

    def __init__(self, fst: "Elem", snd: "Elem"):
        self.fst, self.snd, self.h = fst, snd, hash((fst.h, snd.h))


class _Wrap(_Element):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: "Elem"):
        self.value, self.h = value, hash((self.tag, value.h))


class InL(_Wrap):
    __slots__ = ()
    tag = 1


class InR(_Wrap):
    __slots__ = ()
    tag = 2


class Roll(_Wrap):
    __slots__ = ()
    tag = 3


Elem = Union[Star, Pair, InL, InR, Roll]

STAR = Star()


# ---------------------------------------------------------------------------
# Equations: the primitives' evaluators
# ---------------------------------------------------------------------------

class Hole(str):
    """A named leaf of an element shape, an element with holes.  Holes are
    equal when their names are, alone or inside shapes."""
    __slots__ = __match_args__ = ()
    h = property(str.__hash__)


_A, _B, _C = Hole("a"), Hole("b"), Hole("c")
_FLAT = 16      # the deepest expression code holds before a variable names it


class Gen:
    """The lines of a generated function and its constants: each distinct
    one (by value if an int or a str, else by identity) is the default k<i>
    of a copy of the function compiled from the text, which names none of
    them, so alike shapes share one text.  Both semantics emit through it."""

    def __init__(self):
        self.lines: list[str] = []
        self.consts: list = []
        self.names: dict = {}
        self.ind = "    "                # a line's indent in the function's body

    def k(self, c) -> str:
        key = (type(c), c) if type(c) in (int, str) else id(c)
        if key not in self.names:
            self.names[key] = f"k{len(self.consts)}"
            self.consts.append(c)
        return self.names[key]

    def add(self, line: str) -> None:
        self.lines.append(self.ind + line)

    def function(self, params: str, scope: dict) -> Callable:
        """The function of params and the constants with these lines as its
        body, over the globals scope."""
        text = "\n".join((f"def f({', '.join((params, *self.names.values()))}):", *self.lines))
        return FunctionType(_code(text), scope, None, tuple(self.consts))


@lru_cache(maxsize=2048)
def _code(text: str) -> CodeType:
    """The code of the function text defines, compiled once per text."""
    exec(text, {}, scope := {})
    return scope["f"].__code__


def _text(e, at: Optional[dict] = None, g: Optional[Gen] = None) -> str:
    """Constructor text of an element or shape, built children first.  As
    code, given at, the variable of each hole, and g, which takes the lines
    before it and each largest part with no hole as a constant, the unit is
    STAR and a variable names each expression _FLAT deep."""
    built, todo = [], [e]               # built: (text, depth, the part if hole-free)
    while todo:
        e = todo.pop()
        if type(e) is tuple:            # a constructor, over its built parts
            e, = e
            n = len(built) - len(e.__match_args__)
            if g is not None and all(p is not None for _, _, p in built[n:]):
                built[n:] = [(None, 0, e)]      # named, if at all, as a whole
                continue
            texts = [g.k(p) if t is None else t for t, _, p in built[n:]]
            text = f"{type(e).__name__}({', '.join(texts)})"
            depth = 1 + max((d for _, d, _ in built[n:]), default=0)
            if g is not None and depth == _FLAT:
                g.add(f"t{len(g.lines)} = {text}")
                text, depth = f"t{len(g.lines) - 1}", 0
            built[n:] = [(text, depth, None)]
        elif type(e) is Hole:
            built.append((e if g is None else at[e], 0, None))
        elif type(e) is Star and g is not None:
            built.append(("STAR", 0, e))
        else:
            todo += ((e,), *(getattr(e, p) for p in reversed(e.__match_args__)))
    text, _, whole = built[0]
    return g.k(whole) if text is None else text


def _clause(lhs, rhs, g: Gen) -> None:
    """A block returning rhs built from an element x of the shape lhs, else
    breaking.  Variables name each pair below the top and expressions _FLAT
    deep, and no hole, so shapes alike share it; the parts of rhs with no
    hole are constants."""
    g.add("while True:")
    g.ind += "    "
    at, todo = {}, [("x", 0, lhs)]
    while todo:                         # parents first, so tests guard reads
        var, depth, e = todo.pop()
        if type(e) is Hole:
            if e in at:
                g.add(f"if {at[e]} != {var}: break")
            at.setdefault(e, var)
        elif type(e) is InL or type(e) is InR:
            g.add(f"if type({var}) is not {type(e).__name__}: break")
        if (depth == _FLAT or type(e) is Pair and depth > 1) and e.__match_args__:
            g.add(f"t{len(g.lines)} = {var}")
            var, depth = f"t{len(g.lines) - 1}", 0
        todo += ((f"{var}.{part}", depth + 1, getattr(e, part)) for part in e.__match_args__)
    g.add(f"return {_text(rhs, at, g)}")
    g.ind = g.ind[:-4]


def equations(*eqs: tuple[Elem, Elem]) -> tuple[Evaluator, Evaluator]:
    """The two evaluators of the primitive given by equations lhs = rhs between
    shapes: forward reads each left to right, backward right to left, and the
    first side that matches (its sum tags, and equal elements at a hole met
    twice; the object guarantees the rest) answers, else UNDEF."""
    return _compiled(eqs, True), _compiled(eqs, False)


def _compiled(eqs, forward: bool) -> Evaluator:
    """The evaluator reading each equation left to right if forward, else
    right to left, as one loop left by break per clause.  It trusts x's
    shape, so an element of another object, which lacks a part it reads,
    raises TypeMismatch."""
    g = Gen()
    g.add("try:")
    g.ind = "        "
    try:
        for eq in eqs:
            _clause(*(eq if forward else eq[::-1]), g)
    except KeyError as hole:
        raise TypeMismatch(f"hole {hole} is on one side of an equation only") from None
    g.add("return UNDEF")
    g.ind = "    "
    g.add("except AttributeError:")
    g.add("    raise _misfit(x) from None")
    return g.function("x, fuel", globals())


def _misfit(x: Elem) -> TypeMismatch:
    return TypeMismatch(f"element {x!r} is not of the primitive's object")


# ---------------------------------------------------------------------------
# Fusion: primitives combined by their equations
# ---------------------------------------------------------------------------

_MAX_CLAUSES = 16   # a fused primitive's caps; past them the node stays
_MAX_NODES = 256    # element constructors and holes, over all its shapes
_FRESH = count()    # numbers no hole name has used


def _apply(e, sub: dict, done: dict, rename: bool = False):
    """The shape e with each hole bound in sub replaced by its binding, itself
    applied, and if rename, each other hole by one never used before; None if
    a binding holds its own hole, which no finite element fits.  A part that
    does not change is kept, not copied; done memoises the holes replaced."""
    built, todo, open_ = [], [e], set()
    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is tuple:               # a hole replaced, or a part to rebuild
            e, = e
            kind = type(e)
            if kind is Hole:
                open_.discard(e)
                done[e] = built[-1]
            elif kind is Pair:
                snd = built.pop()
                if built[-1] is not e.fst or snd is not e.snd:
                    e = Pair(built[-1], snd)
                built[-1] = e
            else:
                built[-1] = e if built[-1] is e.value else kind(built[-1])
        elif kind is Hole:
            if e in done:
                built.append(done[e])
            elif e in sub:
                if e in open_:
                    return None
                open_.add(e)
                todo += ((e,), sub[e])
            else:
                built.append(done.setdefault(e, Hole(f"_{next(_FRESH)}")) if rename else e)
        elif kind is Pair:
            todo += ((e,), e.snd, e.fst)
        elif kind is Star:
            built.append(e)
        else:
            todo += ((e,), e.value)
    return built[0]


def _unify(a, b, sub: dict) -> bool:
    """Extend sub, from holes to shapes, so that a and b agree under it; False
    if they clash.  A binding may hold holes bound later (see _apply)."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        while type(a) is Hole and a in sub:
            a = sub[a]
        while type(b) is Hole and b in sub:
            b = sub[b]
        if a is b:
            continue
        if type(a) is Hole:
            if type(b) is not Hole or a != b:
                sub[a] = b
        elif type(b) is Hole:
            sub[b] = a
        elif type(a) is not type(b):
            return False
        else:
            todo += ((getattr(a, p), getattr(b, p)) for p in a.__match_args__)
    return True


def _renamed(eqs) -> list:
    """The equations with each hole renamed to a name never used before."""
    out = []
    for lhs, rhs in eqs:
        done: dict = {}
        out.append((_apply(lhs, {}, done, True), _apply(rhs, {}, done, True)))
    return out


def _disjoint(eqs) -> bool:
    """No two left sides and no two right sides of eqs have a common instance."""
    if len(eqs) < 2:
        return True
    eqs = _renamed(eqs)
    return not any(_unify(p[side], q[side], {})
                   for i, p in enumerate(eqs) for q in eqs[:i] for side in (0, 1))


def _small(eqs) -> bool:
    """eqs are within the caps."""
    if len(eqs) > _MAX_CLAUSES:
        return False
    todo, n = [e for eq in eqs for e in eq], 0
    while todo:
        n += 1
        if n > _MAX_NODES:
            return False
        e = todo.pop()
        if type(e) is Pair:
            todo += (e.fst, e.snd)
        elif type(e) is not Star and type(e) is not Hole:
            todo.append(e.value)
    return True


def _is_id(lhs, rhs) -> bool:
    """lhs = rhs is the identity: one side, with no sum tag and no hole twice."""
    if lhs != rhs:
        return False
    seen, todo = set(), [lhs]
    while todo:
        e = todo.pop()
        if type(e) is Hole:
            if e in seen:
                return False
            seen.add(e)
        elif type(e) is InL or type(e) is InR:
            return False
        todo += (getattr(e, p) for p in e.__match_args__)
    return True


@lru_cache(maxsize=2048)
def _fused(op: str, f: Morph, g: Morph) -> Optional[Morph]:
    """g . f (op "."), f * g ("*") or f + g ("+") of two primitives given by
    equations, as one primitive, or None past the caps.

    Composition unifies each right side of f with each left side of g and
    keeps the instances; the tensors pair the sides or tag them.  Evaluation
    takes the first clause that matches, so this is sound when, as in every
    primitive here, no two left sides overlap and no two right sides do:
    then at most one clause of each operand, and of the result, applies.
    The three operations keep that property, which primitive asserts."""
    if (len(f.eqs) + len(g.eqs) if op == "+" else len(f.eqs) * len(g.eqs)) > _MAX_CLAUSES:
        return None
    if op == "+":
        eqs = ([(InL(lhs), InL(rhs)) for lhs, rhs in f.eqs]
               + [(InR(lhs), InR(rhs)) for lhs, rhs in g.eqs])
        src, tgt = Sum(f.src, g.src), Sum(f.tgt, g.tgt)
    else:
        fs, gs = f.eqs, _renamed(g.eqs)        # no hole of g is one of f's
        if op == "*":
            eqs = [(Pair(l1, l2), Pair(r1, r2)) for l1, r1 in fs for l2, r2 in gs]
            src, tgt = Prod(f.src, g.src), Prod(f.tgt, g.tgt)
        else:
            eqs = []
            for l1, r1 in fs:
                for l2, r2 in gs:
                    sub: dict = {}
                    if _unify(r1, l2, sub):
                        done: dict = {}
                        lhs, rhs = _apply(l1, sub, done), _apply(r2, sub, done)
                        if lhs is not None and rhs is not None:
                            eqs.append((lhs, rhs))
            src, tgt = f.src, g.tgt
    if not _small(eqs):
        return None
    if len(eqs) == 1 and _is_id(*eqs[0]):
        return identity(src)
    return primitive(src, tgt, tuple(eqs), "eqs")


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

Evaluator = Callable[[Elem, int], Union[Elem, _Outcome]]


class Morph:
    """A morphism src -> tgt: a primitive, given by its evaluators and, if
    they come from equations, by the equations eqs as data (see primitive),
    or a Node, which holds a combinator's parts as data for run to evaluate.
    On either, m.fwd(x, fuel) and m.bwd(y, fuel) evaluate."""
    __slots__ = ("src", "tgt", "fwd", "bwd", "label", "eqs")

    def __init__(self, src: ObjDesc, tgt: ObjDesc, fwd: Evaluator,
                 bwd: Evaluator, label: str = "", eqs: Optional[tuple] = None):
        self.src, self.tgt, self.fwd, self.bwd = src, tgt, fwd, bwd
        self.label, self.eqs = label, eqs

    def __repr__(self) -> str:
        name = self.label or "morph"
        return f"<{name}: {obj_str(self.src)} -> {obj_str(self.tgt)}>"


class Node(Morph):
    """A combinator applied to morphisms; its parts fill the subclass's slots
    in order.  A node that run has no rule for gives frames(forward, x, fuel):
    a generator that yields (morphism, forward?, element) for each evaluation
    it needs, is sent each result, and returns its own."""
    __slots__ = ()

    def __init__(self, src: ObjDesc, tgt: ObjDesc, *parts, label: str = ""):
        self.src, self.tgt, self.label = src, tgt, label
        for name, part in zip(self.__slots__, parts):
            setattr(self, name, part)

    # Methods: they shadow the evaluator slots, which a node leaves empty.
    def fwd(self, x: Elem, fuel: int):
        return run(self, True, x, fuel)

    def bwd(self, y: Elem, fuel: int):
        return run(self, False, y, fuel)


class Compose(Node):
    """parts applied in order."""
    __slots__ = ("parts",)


class Dagger(Node):
    __slots__ = ("inner",)


class Oplus(Node):
    __slots__ = ("left", "right")


class Otimes(Node):
    __slots__ = ("left", "right")


class Guard(Node):
    """The identity where inner's forward map is defined (keep) or where it
    is undefined (not keep), in both directions."""
    __slots__ = ("inner", "keep")


class FixRef(Node):
    """A fixed point's reference to itself: the callee runs on one unit less."""
    __slots__ = ("knot",)


class Join(Node):
    __slots__ = ("parts",)

    def frames(self, forward, x, fuel):
        # The first component defined at x answers.  Compatibility is
        # checked on the visited point: a second component defined with a
        # different output, or an earlier component whose opposite map hits
        # the produced output (a second preimage), raises IncompatibleJoin.
        first = first_i = None
        for i, f in enumerate(self.parts):
            r = yield f, forward, x
            if r is NO_FUEL:
                if first is None:
                    return NO_FUEL
                continue        # best effort once an answer exists
            if r is UNDEF:
                continue
            if first is None:
                first, first_i = r, i
            elif r != first:
                raise IncompatibleJoin(
                    f"components {first_i} and {i} disagree at a visited point")
        if first is None:
            return UNDEF
        for i in range(first_i):
            r = yield self.parts[i], not forward, first
            if r is NO_FUEL:
                return NO_FUEL
            if r is not UNDEF:
                raise IncompatibleJoin(
                    f"output of component {first_i} is already reachable "
                    f"through component {i}")
        return first


class FirstJoin(Node):
    """The join of parts that cannot disagree, unchecked: parts disjoint by
    construction in domain and in codomain, or restriction idempotents that
    never run out of fuel, which agree wherever two are defined.  The first
    part defined at the point answers."""
    __slots__ = ("parts",)

    def frames(self, forward, x, fuel):
        for f in self.parts:
            r = yield f, forward, x
            if r is not UNDEF:
                return r
        return UNDEF


class Trace(Node):
    __slots__ = ("step",)

    def frames(self, forward, x, fuel):
        z = InL(x)
        for _ in range(fuel + 1):
            r = yield self.step, forward, z
            if type(r) is _Outcome:
                return r
            if type(r) is InL:
                return r.value
            z = r
        return NO_FUEL


def primitive(src: ObjDesc, tgt: ObjDesc, eqs: tuple, label: str = "") -> Morph:
    """The primitive src -> tgt given by the equations eqs (see equations),
    which it keeps, so that the combinators can fuse it with others.  Its
    evaluators are compiled when first called, each direction apart: a
    primitive built only to be fused is never compiled.  No two left sides
    of eqs may overlap, nor two right sides (see _fused)."""
    assert _disjoint(eqs), f"overlapping equations: {eqs}"
    m = Morph(src, tgt, None, None, label, eqs)
    m.fwd, m.bwd = partial(_first_call, m, True), partial(_first_call, m, False)
    return m


def _first_call(m: Morph, forward: bool, x: Elem, fuel: int):
    evaluate = _compiled(m.eqs, forward)
    setattr(m, "fwd" if forward else "bwd", evaluate)
    return evaluate(x, fuel)


_prim = lru_cache(maxsize=256)(primitive)       # the structural maps, built once


def _fusible(m: Morph) -> bool:
    return type(m) is Morph and m.eqs is not None


def _same(x, fuel):
    return x


@lru_cache(maxsize=256)
def identity(a: ObjDesc) -> Morph:
    return Morph(a, a, _same, _same, "id", ((_A, _A),))


def _is_identity(f: Morph) -> bool:
    return f.fwd is _same and f.bwd is _same


def zero_morph(a: ObjDesc, b: ObjDesc) -> Morph:
    return _prim(a, b, (), "zero")


def compose(g: Morph, f: Morph) -> Morph:
    """g after f."""
    return compose_all(g, f)


def _check_composable(g: Morph, f: Morph) -> None:
    if f.tgt != g.src:
        raise TypeMismatch(
            f"cannot compose {g!r} after {f!r}: {obj_str(f.tgt)} != {obj_str(g.src)}")


def _parts(f: Morph) -> tuple:
    return f.parts if type(f) is Compose else (f,)


def compose_all(*ms: Morph) -> Morph:
    """compose_all(h, g, f) = h . g . f, as by compose two at a time, but the
    flattened composite is built once: time linear in the number of maps.
    Where two primitives given by equations meet, they fuse into one."""
    f = ms[-1]
    kept = [] if _is_identity(f) else [f]
    for g in ms[-2::-1]:
        _check_composable(g, f)
        if not _is_identity(g):
            kept.append(g)
        f = g
    parts: list = []
    for m in kept:
        more, i = _parts(m), 0
        while i < len(more) and parts and _fusible(parts[-1]) and _fusible(more[i]):
            fused = _fused(".", parts[-1], more[i])
            if fused is None:
                break
            parts.pop()
            i += 1
            if not _is_identity(fused):
                parts.append(fused)
        parts += more[i:]
    if len(parts) < 2:
        return parts[0] if parts else identity(ms[-1].src)
    return Compose(parts[0].src, parts[-1].tgt, tuple(parts))


def dagger(f: Morph) -> Morph:
    label = f.label and f.label + "^"
    if type(f) is Morph:
        if _is_identity(f):
            return f
        if f.eqs is not None:
            return _dagger_eqs(f)
        return Morph(f.tgt, f.src, f.bwd, f.fwd, label)
    if type(f) is Dagger:
        return f.inner
    return Dagger(f.tgt, f.src, f, label=label)


@lru_cache(maxsize=1024)
def _dagger_eqs(f: Morph) -> Morph:
    """The primitive f read the other way: its equations with sides swapped."""
    return primitive(f.tgt, f.src, tuple((rhs, lhs) for lhs, rhs in f.eqs), f.label + "^")


def restrict(f: Morph) -> Morph:
    """The restriction idempotent: identity exactly where f is defined."""
    return Guard(f.src, f.src, f, True, label="restrict")


def complement(e: Morph) -> Morph:
    """The complement of a guard e (a decidable restriction idempotent): the
    identity exactly where e is undefined.  e.fwd must answer an element or
    UNDEF given enough fuel, as pattern guards and equality tests do."""
    return Guard(e.src, e.src, e, False, label="complement")


def join(fs: list[Morph]) -> Morph:
    """Join of pairwise inverse compatible morphisms.

    Compatibility is not certified here but checked lazily on the points
    visited (see Join); the dagger of a join is the join of the daggers.
    """
    if not fs:
        raise TypeMismatch("join of no morphisms has no type; use zero_morph")
    src, tgt = fs[0].src, fs[0].tgt
    for f in fs[1:]:
        if f.src != src or f.tgt != tgt:
            raise TypeMismatch("join of non-parallel morphisms")
    return Join(src, tgt, tuple(fs), label="join")


# -- disjointness tensor ------------------------------------------------------

def oplus(f: Morph, g: Morph) -> Morph:
    if _is_identity(f) and _is_identity(g):
        return identity(Sum(f.src, g.src))
    if _fusible(f) and _fusible(g) and (fused := _fused("+", f, g)) is not None:
        return fused
    return Oplus(Sum(f.src, g.src), Sum(f.tgt, g.tgt), f, g)


def oplus_all(ms: list[Morph]) -> Morph:
    out = ms[-1]
    for m in reversed(ms[:-1]):
        out = oplus(m, out)
    return out


def inj_n(i: int, objs: list[ObjDesc]) -> Morph:
    """Injection of the i-th summand into the right-nested n-ary sum."""
    if not 0 <= i < len(objs):
        raise TypeMismatch("index out of range")
    if len(objs) == 1:
        return identity(objs[0])
    return _prim(objs[i], _sum_all(objs), _inj(i, len(objs)), f"inj{i + 1}")


@lru_cache(maxsize=None)
def _inj(i: int, n: int) -> tuple:
    """a = InR(...InR(InL(a))) with i InRs; the last summand has no InL."""
    shape = _A if i == n - 1 else InL(_A)
    for _ in range(i):
        shape = InR(shape)
    return ((_A, shape),)


def _sum_all(objs: list[ObjDesc]) -> ObjDesc:
    out = objs[-1]
    for o in reversed(objs[:-1]):
        out = Sum(o, out)
    return out


# -- inverse product ----------------------------------------------------------

def otimes(f: Morph, g: Morph) -> Morph:
    if _is_identity(f) and _is_identity(g):
        return identity(Prod(f.src, g.src))
    if _fusible(f) and _fusible(g) and (fused := _fused("*", f, g)) is not None:
        return fused
    return Otimes(Prod(f.src, g.src), Prod(f.tgt, g.tgt), f, g)


_DELTA = ((_A, Pair(_A, _A)),)


def delta(a: ObjDesc) -> Morph:
    """Duplication; its dagger is the partial equality test."""
    return _prim(a, Prod(a, a), _DELTA, "delta")


# -- structural isomorphisms --------------------------------------------------

_UNITL = ((Pair(STAR, _A), _A),)
_SUM_UNITL = ((InR(_A), _A),)
_SUM_UNITR = ((InL(_A), _A),)
_SUM_ASSOC = ((InL(_A), InL(InL(_A))), (InR(InL(_B)), InL(InR(_B))),
              (InR(InR(_C)), InR(_C)))
_SUM_SWAP = ((InL(_A), InR(_A)), (InR(_B), InL(_B)))
_DIST_L = ((Pair(_A, InL(_B)), InL(Pair(_A, _B))),
           (Pair(_A, InR(_C)), InR(Pair(_A, _C))))
_DIST_R = ((Pair(InL(_A), _C), InL(Pair(_A, _C))),
           (Pair(InR(_B), _C), InR(Pair(_B, _C))))
_FOLD = ((_A, Roll(_A)),)
_UNFOLD = ((Roll(_A), _A),)


def prod_unitl(a: ObjDesc) -> Morph:
    return _prim(Prod(ONE, a), a, _UNITL, "unitl")


def sum_unitl(a: ObjDesc) -> Morph:
    return _prim(Sum(ZERO, a), a, _SUM_UNITL, "sum_unitl")


def sum_unitr(a: ObjDesc) -> Morph:
    return _prim(Sum(a, ZERO), a, _SUM_UNITR, "sum_unitr")


def sum_assoc(a: ObjDesc, b: ObjDesc, c: ObjDesc) -> Morph:
    """A + (B + C) -> (A + B) + C"""
    return _prim(Sum(a, Sum(b, c)), Sum(Sum(a, b), c), _SUM_ASSOC, "sum_assoc")


def sum_swap(a: ObjDesc, b: ObjDesc) -> Morph:
    return _prim(Sum(a, b), Sum(b, a), _SUM_SWAP, "sum_swap")


def dist_l(a: ObjDesc, b: ObjDesc, c: ObjDesc) -> Morph:
    """A * (B + C) -> (A * B) + (A * C)"""
    return _prim(Prod(a, Sum(b, c)), Sum(Prod(a, b), Prod(a, c)), _DIST_L, "dist_l")


def dist_r(a: ObjDesc, b: ObjDesc, c: ObjDesc) -> Morph:
    """(A + B) * C -> (A * C) + (B * C)"""
    return _prim(Prod(Sum(a, b), c), Sum(Prod(a, c), Prod(b, c)), _DIST_R, "dist_r")


def annihil_l(a: ObjDesc) -> Morph:
    # 0 * A -> 0 has an empty domain; both directions are vacuously total.
    return _prim(Prod(ZERO, a), ZERO, (), "annihil_l")


def annihil_r(a: ObjDesc) -> Morph:
    return _prim(Prod(a, ZERO), ZERO, (), "annihil_r")


def fold(mu: Mu) -> Morph:
    return _prim(unfold_obj(mu), mu, _FOLD, "fold")


def unfold(mu: Mu) -> Morph:
    return _prim(mu, unfold_obj(mu), _UNFOLD, "unfold")


# ---------------------------------------------------------------------------
# Trace and fixed points
# ---------------------------------------------------------------------------

def trace(f: Morph) -> Morph:
    """Feedback iteration over the sum: from A + U to B + U down to A -> B.

    Satisfies dagger symmetry: trace(f)^ = trace(f^) pointwise.
    """
    if not (isinstance(f.src, Sum) and isinstance(f.tgt, Sum)
            and f.src.right == f.tgt.right):
        raise TypeMismatch(f"trace needs A+U -> B+U, got {f!r}")
    return Trace(f.src.left, f.tgt.left, f, label="trace")


def fix(scheme: Callable[[Morph], Morph], src: ObjDesc, tgt: ObjDesc) -> Morph:
    """Least fixed point of a morphism scheme.

    The scheme is applied once to a self-reference that runs the callee on
    one unit of fuel less: fuel F bounds the depth of nested calls (the F-th
    Kleene approximant), and a result other than NO_FUEL is stable above F.
    """
    ref = FixRef(src, tgt, label="fix-ref")
    built = scheme(ref)
    if built.src != src or built.tgt != tgt:
        raise TypeMismatch(
            f"scheme changed the type: {built!r} is not {obj_str(src)} -> {obj_str(tgt)}")
    ref.knot = built
    return built


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

# Frames: (_SEQ, steps, next step, forward?, fuel), (_TIMES, right, second
# component, forward?, fuel), (_PAIR, first result), (_WRAP, InL or InR),
# (_GUARD, input, keep), (_GEN, generator, fuel).  The frames numbered
# below _GUARD pass UNDEF and NO_FUEL up unchanged.
_SEQ, _TIMES, _PAIR, _WRAP, _GUARD, _GEN = range(6)
_WRAP_L, _WRAP_R = (_WRAP, InL), (_WRAP, InR)


def run(m: Morph, forward: bool, x: Elem, fuel: int) -> Union[Elem, _Outcome]:
    """m's forward map at x, or its backward map if not forward: an element,
    UNDEF or NO_FUEL.

    One loop over an explicit stack of frames: entering a node pushes a
    frame for what remains of it, and each result goes to the frame on top,
    so the Python stack stays flat however deep the morphism and its
    recursion.  A frame keeps the direction and the fuel of its own call.
    """
    stack: list = []
    push, pop = stack.append, stack.pop
    d = forward
    while True:
        while m is not None:            # enter m, in direction d, at x
            kind = type(m)
            if kind is Compose:
                steps, i = m.parts if d else m.parts[::-1], 0
                break
            if kind is Morph:
                x = m.fwd(x, fuel) if d else m.bwd(x, fuel)
                m = None
            elif kind is Otimes:
                if type(x) is not Pair:
                    raise TypeMismatch(f"not a product element: {x!r}")
                if type(m.left) is Morph and m.left.fwd is m.left.bwd is _same:
                    push((_PAIR, x.fst))    # id * f: f on the right part
                    m, x = m.right, x.snd
                else:
                    push((_TIMES, m.right, x.snd, d, fuel))
                    m, x = m.left, x.fst
            elif kind is Dagger:
                m, d = m.inner, not d
            elif kind is Oplus:
                if type(x) is InL:
                    push(_WRAP_L)
                    m = m.left
                elif type(x) is InR:
                    push(_WRAP_R)
                    m = m.right
                else:
                    raise TypeMismatch(f"not a sum element: {x!r}")
                x = x.value
            elif kind is FixRef:
                if fuel <= 0:
                    m, x = None, NO_FUEL
                else:
                    m, fuel = m.knot, fuel - 1
            elif kind is Guard:
                push((_GUARD, x, m.keep))
                m, d = m.inner, True
            else:
                push((_GEN, m.frames(d, x, fuel), fuel))
                m = x = None
        else:                           # a result: hand it to the top frame
            if not stack:
                return x
            frame = pop()
            tag = frame[0]
            if type(x) is _Outcome and tag < _GUARD:
                continue
            if tag != _SEQ:
                if tag == _TIMES:
                    _, m, second, d, fuel = frame
                    push((_PAIR, x))
                    x = second
                elif tag == _PAIR:
                    x = Pair(frame[1], x)
                elif tag == _WRAP:
                    x = frame[1](x)
                elif tag == _GUARD:
                    if x is not NO_FUEL:
                        x = frame[1] if (x is not UNDEF) == frame[2] else UNDEF
                else:
                    _, gen, fuel = frame
                    try:
                        m, d, x = gen.send(x)
                    except StopIteration as done:
                        x = done.value
                    else:
                        push(frame)
                continue
            _, steps, i, d, fuel = frame
        # A composition, entered or resumed at step i: primitive steps run
        # here, and a node step is entered with a frame for the steps after it.
        m = None
        n = len(steps)
        while i < n:
            step = steps[i]
            i += 1
            if type(step) is not Morph:
                if i < n:
                    push((_SEQ, steps, i, d, fuel))
                m = step
                break
            x = step.fwd(x, fuel) if d else step.bwd(x, fuel)
            if type(x) is _Outcome:
                break
