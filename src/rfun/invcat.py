"""A concrete join inverse rig category of fuel-bounded partial injections.

Objects are shape descriptors (empty, unit, sum, product, least fixed point);
elements are the finite trees inhabiting them.  A morphism is a pair of
evaluators ``fwd`` and ``bwd`` mapping an element and a fuel budget to an
element, ``UNDEF`` or ``NO_FUEL``, and forming a partial isomorphism
pointwise: whenever ``fwd(x) = y`` is defined, ``bwd(y) = x`` and conversely.

Partial inverses are unique, so the combinators commute with the dagger
((g . f)^ = f^ . g^, and likewise for sums, products, joins, trace and fixed
points): each is one factory from component evaluators to an evaluator,
applied to the forward parts for ``fwd`` and to the backward parts for
``bwd``.  Only maps whose inverse is given as data have two bodies: the
structural isos, injections and duplication are plain evaluator pairs.
The unit laws are applied when a morphism is built: composing with an
identity returns the other side, and the tensor of two identities is an
identity.

The three-valued outcome separates decidable failure (UNDEF, stable under
more fuel) from exhausted recursion (NO_FUEL, which more fuel may refine).
The interpreter's NO_MATCH and OUT_OF_FUEL are these same two objects.
Join compatibility is not certified at construction time; the join evaluator
checks it lazily on the points it actually visits and raises
IncompatibleJoin when two components disagree.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


class _Outcome:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


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

@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Sum:
    left: "ObjDesc"
    right: "ObjDesc"


@dataclass(frozen=True)
class Prod:
    left: "ObjDesc"
    right: "ObjDesc"


@dataclass(frozen=True)
class Mu:
    """Least fixed point; the body refers to the binder via de Bruijn Var."""
    body: "ObjDesc"


@dataclass(frozen=True)
class Var:
    index: int


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


def has_mu(o: ObjDesc) -> bool:
    match o:
        case Mu():
            return True
        case Sum(a, b) | Prod(a, b):
            return has_mu(a) or has_mu(b)
        case _:
            return False


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

@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class Pair:
    fst: "Elem"
    snd: "Elem"


@dataclass(frozen=True)
class InL:
    value: "Elem"


@dataclass(frozen=True)
class InR:
    value: "Elem"


@dataclass(frozen=True)
class Roll:
    value: "Elem"


Elem = Union[Star, Pair, InL, InR, Roll]

STAR = Star()


def well_formed(e: Elem, obj: ObjDesc) -> bool:
    match obj, e:
        case One(), Star():
            return True
        case Sum(a, _), InL(x):
            return well_formed(x, a)
        case Sum(_, b), InR(x):
            return well_formed(x, b)
        case Prod(a, b), Pair(x, y):
            return well_formed(x, a) and well_formed(y, b)
        case Mu(), Roll(x):
            return well_formed(x, unfold_obj(obj))
        case _:
            return False


def enumerate_elems(obj: ObjDesc, depth: Optional[int] = None) -> Iterator[Elem]:
    """All elements of obj; for objects containing Mu a depth bound is
    required (depth counts element constructors)."""
    if depth is None and has_mu(obj):
        raise ValueError("enumerating a recursive object requires a depth bound")
    yield from _enum(obj, math.inf if depth is None else depth)


def _enum(obj: ObjDesc, budget) -> Iterator[Elem]:
    match obj:
        case Zero():
            return
        case One():
            if budget >= 0:
                yield STAR
        case Sum(a, b):
            if budget >= 1:
                for x in _enum(a, budget - 1):
                    yield InL(x)
                for x in _enum(b, budget - 1):
                    yield InR(x)
        case Prod(a, b):
            if budget >= 1:
                for x in _enum(a, budget - 1):
                    for y in _enum(b, budget - 1):
                        yield Pair(x, y)
        case Mu():
            if budget >= 1:
                for x in _enum(unfold_obj(obj), budget - 1):
                    yield Roll(x)
        case Var():
            raise TypeMismatch("open object")


def count_elems(obj: ObjDesc) -> int:
    """Cardinality of a Mu-free object."""
    match obj:
        case Zero():
            return 0
        case One():
            return 1
        case Sum(a, b):
            return count_elems(a) + count_elems(b)
        case Prod(a, b):
            return count_elems(a) * count_elems(b)
    raise TypeMismatch(f"{obj_str(obj)} is not a finite, Mu-free object")


@lru_cache(maxsize=None)
def min_depth(obj: ObjDesc) -> float:
    """Depth of the shallowest element, or inf for empty objects."""
    return _min_depth(obj, ())


def _min_depth(obj: ObjDesc, env: tuple) -> float:
    match obj:
        case Zero():
            return math.inf
        case One():
            return 0
        case Var(i):
            return env[i]
        case Sum(a, b):
            return 1 + min(_min_depth(a, env), _min_depth(b, env))
        case Prod(a, b):
            return 1 + max(_min_depth(a, env), _min_depth(b, env))
        case Mu(b):
            d = math.inf
            for _ in range(64):
                d2 = 1 + _min_depth(b, (d,) + env)
                if d2 == d:
                    break
                d = d2
            return d
    raise AssertionError


def sample_elem(rng: random.Random, obj: ObjDesc, depth: int = 6) -> Elem:
    """Depth-bounded random element; deterministic for a seeded rng."""
    md = min_depth(obj)
    if md == math.inf:
        raise ValueError(f"{obj_str(obj)} has no elements")
    return _sample(rng, obj, max(depth, int(md)))


def _sample(rng: random.Random, obj: ObjDesc, budget: int) -> Elem:
    match obj:
        case One():
            return STAR
        case Sum(a, b):
            viable = [(wrap, child) for wrap, child in ((InL, a), (InR, b))
                      if min_depth(child) <= budget - 1]
            wrap, child = rng.choice(viable)
            return wrap(_sample(rng, child, budget - 1))
        case Prod(a, b):
            return Pair(_sample(rng, a, budget - 1), _sample(rng, b, budget - 1))
        case Mu():
            return Roll(_sample(rng, unfold_obj(obj), budget - 1))
    raise TypeMismatch(f"cannot sample from {obj_str(obj)}")


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

Evaluator = Callable[[Elem, int], Union[Elem, _Outcome]]


@dataclass(frozen=True, eq=False)
class Morph:
    src: ObjDesc
    tgt: ObjDesc
    fwd: Evaluator
    bwd: Evaluator
    label: str = field(default="", compare=False)

    def __repr__(self) -> str:
        name = self.label or "morph"
        return f"<{name}: {obj_str(self.src)} -> {obj_str(self.tgt)}>"


def _same(x, fuel):
    return x


def _undef(x, fuel):
    return UNDEF


def identity(a: ObjDesc) -> Morph:
    return Morph(a, a, _same, _same, "id")


def _is_identity(f: Morph) -> bool:
    return f.fwd is _same and f.bwd is _same


def zero_morph(a: ObjDesc, b: ObjDesc) -> Morph:
    return Morph(a, b, _undef, _undef, "zero")


def _then(first: Evaluator, second: Evaluator) -> Evaluator:
    def run(x, fuel):
        r = first(x, fuel)
        if isinstance(r, _Outcome):
            return r
        return second(r, fuel)

    return run


def compose(g: Morph, f: Morph) -> Morph:
    """g after f."""
    if f.tgt != g.src:
        raise TypeMismatch(
            f"cannot compose {g!r} after {f!r}: {obj_str(f.tgt)} != {obj_str(g.src)}")
    if _is_identity(f):
        return g
    if _is_identity(g):
        return f
    return Morph(f.src, g.tgt, _then(f.fwd, g.fwd), _then(g.bwd, f.bwd))


def compose_all(*ms: Morph) -> Morph:
    """compose_all(h, g, f) = h . g . f"""
    out = ms[-1]
    for m in reversed(ms[:-1]):
        out = compose(m, out)
    return out


def dagger(f: Morph) -> Morph:
    return Morph(f.tgt, f.src, f.bwd, f.fwd, f.label and f.label + "^")


def restrict(f: Morph) -> Morph:
    """The restriction idempotent: identity exactly where f is defined."""
    fwd = f.fwd

    def guard(x, fuel):
        r = fwd(x, fuel)
        if isinstance(r, _Outcome):
            return r
        return x

    return Morph(f.src, f.src, guard, guard, "restrict")


def join(fs: list[Morph]) -> Morph:
    """Join of pairwise inverse compatible morphisms.

    The forward evaluator answers with the first component defined at the
    point.  Compatibility is checked lazily on the visited point: a second
    component defined with a different output, or an earlier component whose
    backward map hits the produced output (a second preimage), raises
    IncompatibleJoin.  The backward evaluator is symmetric.
    """
    if not fs:
        raise TypeMismatch("join of no morphisms has no type; use zero_morph")
    src, tgt = fs[0].src, fs[0].tgt
    for f in fs[1:]:
        if f.src != src or f.tgt != tgt:
            raise TypeMismatch("join of non-parallel morphisms")

    def scan(through: list[Evaluator], back: list[Evaluator]) -> Evaluator:
        def run(x, fuel):
            first = None
            first_i = None
            for i, f in enumerate(through):
                r = f(x, fuel)
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
            # An earlier component reaching the same output from elsewhere
            # would make the join non-injective; checked against the
            # components before the producing one.
            for i in range(first_i):
                r = back[i](first, fuel)
                if r is NO_FUEL:
                    return NO_FUEL
                if r is not UNDEF:
                    raise IncompatibleJoin(
                        f"output of component {first_i} is already reachable "
                        f"through component {i}")
            return first

        return run

    fwds = [f.fwd for f in fs]
    bwds = [f.bwd for f in fs]
    return Morph(src, tgt, scan(fwds, bwds), scan(bwds, fwds), "join")


# -- disjointness tensor ------------------------------------------------------

# The injections and the structural isos below give their inverses as data,
# not derived from the forward maps, so they keep two bodies.

def inj1(a: ObjDesc, b: ObjDesc) -> Morph:
    return Morph(a, Sum(a, b),
                 lambda x, fuel: InL(x),
                 lambda y, fuel: y.value if isinstance(y, InL) else UNDEF,
                 "inj1")


def inj2(a: ObjDesc, b: ObjDesc) -> Morph:
    return Morph(b, Sum(a, b),
                 lambda x, fuel: InR(x),
                 lambda y, fuel: y.value if isinstance(y, InR) else UNDEF,
                 "inj2")


def _oplus(left: Evaluator, right: Evaluator) -> Evaluator:
    def run(x, fuel):
        match x:
            case InL(v):
                r = left(v, fuel)
                return r if isinstance(r, _Outcome) else InL(r)
            case InR(v):
                r = right(v, fuel)
                return r if isinstance(r, _Outcome) else InR(r)
        raise TypeMismatch(f"not a sum element: {x!r}")

    return run


def oplus(f: Morph, g: Morph) -> Morph:
    return Morph(Sum(f.src, g.src), Sum(f.tgt, g.tgt),
                 _oplus(f.fwd, g.fwd), _oplus(f.bwd, g.bwd))


def oplus_all(ms: list[Morph]) -> Morph:
    out = ms[-1]
    for m in reversed(ms[:-1]):
        out = oplus(m, out)
    return out


def inj_n(i: int, objs: list[ObjDesc]) -> Morph:
    """Injection of the i-th summand into the right-nested n-ary sum."""
    if len(objs) == 1:
        if i != 0:
            raise TypeMismatch("index out of range")
        return identity(objs[0])
    rest = _sum_all(objs[1:])
    if i == 0:
        return inj1(objs[0], rest)
    return compose(inj2(objs[0], rest), inj_n(i - 1, objs[1:]))


def _sum_all(objs: list[ObjDesc]) -> ObjDesc:
    out = objs[-1]
    for o in reversed(objs[:-1]):
        out = Sum(o, out)
    return out


# -- inverse product ----------------------------------------------------------

def _otimes(left: Evaluator, right: Evaluator) -> Evaluator:
    def run(x, fuel):
        if not isinstance(x, Pair):
            raise TypeMismatch(f"not a product element: {x!r}")
        a = left(x.fst, fuel)
        if isinstance(a, _Outcome):
            return a
        b = right(x.snd, fuel)
        if isinstance(b, _Outcome):
            return b
        return Pair(a, b)

    return run


def otimes(f: Morph, g: Morph) -> Morph:
    if _is_identity(f) and _is_identity(g):
        return identity(Prod(f.src, g.src))
    return Morph(Prod(f.src, g.src), Prod(f.tgt, g.tgt),
                 _otimes(f.fwd, g.fwd), _otimes(f.bwd, g.bwd))


def delta(a: ObjDesc) -> Morph:
    """Duplication; its dagger is the partial equality test."""
    # The inverse compares the two copies, which the forward map never does.
    return Morph(a, Prod(a, a),
                 lambda x, fuel: Pair(x, x),
                 lambda y, fuel: y.fst if y.fst == y.snd else UNDEF,
                 "delta")


# -- structural isomorphisms --------------------------------------------------

def prod_unitl(a: ObjDesc) -> Morph:
    return Morph(Prod(ONE, a), a, lambda x, fuel: x.snd,
                 lambda y, fuel: Pair(STAR, y), "unitl")


def prod_unitr(a: ObjDesc) -> Morph:
    return Morph(Prod(a, ONE), a, lambda x, fuel: x.fst,
                 lambda y, fuel: Pair(y, STAR), "unitr")


def prod_assoc(a: ObjDesc, b: ObjDesc, c: ObjDesc) -> Morph:
    """A * (B * C) -> (A * B) * C"""
    return Morph(Prod(a, Prod(b, c)), Prod(Prod(a, b), c),
                 lambda x, fuel: Pair(Pair(x.fst, x.snd.fst), x.snd.snd),
                 lambda y, fuel: Pair(y.fst.fst, Pair(y.fst.snd, y.snd)),
                 "assoc")


def prod_swap(a: ObjDesc, b: ObjDesc) -> Morph:
    return Morph(Prod(a, b), Prod(b, a),
                 lambda x, fuel: Pair(x.snd, x.fst),
                 lambda y, fuel: Pair(y.snd, y.fst),
                 "swap")


def sum_unitl(a: ObjDesc) -> Morph:
    return Morph(Sum(ZERO, a), a,
                 lambda x, fuel: x.value,
                 lambda y, fuel: InR(y),
                 "sum_unitl")


def sum_unitr(a: ObjDesc) -> Morph:
    return Morph(Sum(a, ZERO), a,
                 lambda x, fuel: x.value,
                 lambda y, fuel: InL(y),
                 "sum_unitr")


def sum_assoc(a: ObjDesc, b: ObjDesc, c: ObjDesc) -> Morph:
    """A + (B + C) -> (A + B) + C"""

    def f(x, fuel):
        match x:
            case InL(v):
                return InL(InL(v))
            case InR(InL(v)):
                return InL(InR(v))
            case InR(InR(v)):
                return InR(v)
        raise TypeMismatch(repr(x))

    def g(y, fuel):
        match y:
            case InL(InL(v)):
                return InL(v)
            case InL(InR(v)):
                return InR(InL(v))
            case InR(v):
                return InR(InR(v))
        raise TypeMismatch(repr(y))

    return Morph(Sum(a, Sum(b, c)), Sum(Sum(a, b), c), f, g, "sum_assoc")


def sum_swap(a: ObjDesc, b: ObjDesc) -> Morph:
    def f(x, fuel):
        return InR(x.value) if isinstance(x, InL) else InL(x.value)

    return Morph(Sum(a, b), Sum(b, a), f, f, "sum_swap")


def dist_l(a: ObjDesc, b: ObjDesc, c: ObjDesc) -> Morph:
    """A * (B + C) -> (A * B) + (A * C)"""

    def f(x, fuel):
        if isinstance(x.snd, InL):
            return InL(Pair(x.fst, x.snd.value))
        return InR(Pair(x.fst, x.snd.value))

    def g(y, fuel):
        if isinstance(y, InL):
            return Pair(y.value.fst, InL(y.value.snd))
        return Pair(y.value.fst, InR(y.value.snd))

    return Morph(Prod(a, Sum(b, c)), Sum(Prod(a, b), Prod(a, c)), f, g, "dist_l")


def dist_r(a: ObjDesc, b: ObjDesc, c: ObjDesc) -> Morph:
    """(A + B) * C -> (A * C) + (B * C)"""

    def f(x, fuel):
        if isinstance(x.fst, InL):
            return InL(Pair(x.fst.value, x.snd))
        return InR(Pair(x.fst.value, x.snd))

    def g(y, fuel):
        if isinstance(y, InL):
            return Pair(InL(y.value.fst), y.value.snd)
        return Pair(InR(y.value.fst), y.value.snd)

    return Morph(Prod(Sum(a, b), c), Sum(Prod(a, c), Prod(b, c)), f, g, "dist_r")


def annihil_l(a: ObjDesc) -> Morph:
    # 0 * A -> 0 has an empty domain; both directions are vacuously total.
    return Morph(Prod(ZERO, a), ZERO, _undef, _undef, "annihil_l")


def annihil_r(a: ObjDesc) -> Morph:
    return Morph(Prod(a, ZERO), ZERO, _undef, _undef, "annihil_r")


def fold(mu: Mu) -> Morph:
    return Morph(unfold_obj(mu), mu, lambda x, fuel: Roll(x),
                 lambda y, fuel: y.value, "fold")


def unfold(mu: Mu) -> Morph:
    return Morph(mu, unfold_obj(mu), lambda x, fuel: x.value,
                 lambda y, fuel: Roll(y), "unfold")


_STRUCTURAL = {
    "unitl_prod": prod_unitl,
    "unitr_prod": prod_unitr,
    "assoc_prod": prod_assoc,
    "swap_prod": prod_swap,
    "unitl_sum": sum_unitl,
    "unitr_sum": sum_unitr,
    "assoc_sum": sum_assoc,
    "swap_sum": sum_swap,
    "dist_l": dist_l,
    "dist_r": dist_r,
    "annihil_l": annihil_l,
    "annihil_r": annihil_r,
    "fold": fold,
    "unfold": unfold,
}


def structural(name: str, *objs: ObjDesc) -> Morph:
    """Named structural isomorphism (unitors, associators, commutators,
    distributors, annihilators, fold/unfold)."""
    try:
        builder = _STRUCTURAL[name]
    except KeyError:
        raise TypeMismatch(f"unknown structural morphism {name!r}") from None
    return builder(*objs)


# ---------------------------------------------------------------------------
# Decidable restriction idempotents
# ---------------------------------------------------------------------------

Decider = Callable[[Elem, int], Union[bool, _Outcome]]


@dataclass(frozen=True, eq=False)
class DecIdem:
    """A restriction idempotent together with a total decision procedure."""
    obj: ObjDesc
    decide: Decider

    def as_morph(self) -> Morph:
        def guard(x, fuel):
            r = self.decide(x, fuel)
            if r is NO_FUEL:
                return NO_FUEL
            return x if r else UNDEF

        return Morph(self.obj, self.obj, guard, guard, "idem")


def decidable_restriction(f: Morph) -> DecIdem:
    """View the domain of f as a decidable idempotent.

    The caller asserts decidability: f.fwd must answer Elem or UNDEF given
    enough fuel.  Pattern-matching morphisms and the equality test satisfy
    this; arbitrary fixed points need not.
    """
    fwd = f.fwd

    def decide(x, fuel):
        r = fwd(x, fuel)
        if r is NO_FUEL:
            return NO_FUEL
        return r is not UNDEF

    return DecIdem(f.src, decide)


def identity_idem(a: ObjDesc) -> DecIdem:
    return DecIdem(a, lambda x, fuel: True)


def zero_idem(a: ObjDesc) -> DecIdem:
    return DecIdem(a, lambda x, fuel: False)


def complement(e: DecIdem) -> DecIdem:
    def decide(x, fuel):
        r = e.decide(x, fuel)
        if r is NO_FUEL:
            return NO_FUEL
        return not r

    return DecIdem(e.obj, decide)


def meet_idem(a: DecIdem, b: DecIdem) -> DecIdem:
    if a.obj != b.obj:
        raise TypeMismatch("meet of idempotents on different objects")

    def decide(x, fuel):
        ra = a.decide(x, fuel)
        if ra is NO_FUEL:
            return NO_FUEL
        if not ra:
            return False
        return b.decide(x, fuel)

    return DecIdem(a.obj, decide)


def join_idem(a: DecIdem, b: DecIdem) -> DecIdem:
    if a.obj != b.obj:
        raise TypeMismatch("join of idempotents on different objects")

    def decide(x, fuel):
        ra = a.decide(x, fuel)
        if ra is NO_FUEL:
            return NO_FUEL
        if ra:
            return True
        return b.decide(x, fuel)

    return DecIdem(a.obj, decide)


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
    a, u, b = f.src.left, f.src.right, f.tgt.left

    def run(step: Evaluator) -> Evaluator:
        def loop(start, fuel):
            z: Union[Elem, _Outcome] = InL(start)
            for _ in range(fuel + 1):
                r = step(z, fuel)
                if isinstance(r, _Outcome):
                    return r
                if isinstance(r, InL):
                    return r.value
                z = r
            return NO_FUEL

        return loop

    return Morph(a, b, run(f.fwd), run(f.bwd), "trace")


def fix(scheme: Callable[[Morph], Morph], src: ObjDesc, tgt: ObjDesc) -> Morph:
    """Least fixed point of a morphism scheme.

    The scheme is applied once to a self-reference whose every invocation
    consumes one unit of fuel; exhausting the fuel approximates bottom, so a
    result other than NO_FUEL at fuel F is stable at every larger fuel.
    """
    knot: list[Evaluator] = []       # [built.fwd, built.bwd], tied below

    def ref(i: int) -> Evaluator:
        def call(x, fuel):
            if fuel <= 0:
                return NO_FUEL
            return knot[i](x, fuel - 1)

        return call

    built = scheme(Morph(src, tgt, ref(0), ref(1), "fix-ref"))
    if built.src != src or built.tgt != tgt:
        raise TypeMismatch(
            f"scheme changed the type: {built!r} is not {obj_str(src)} -> {obj_str(tgt)}")
    knot += [built.fwd, built.bwd]
    return built


# ---------------------------------------------------------------------------
# Pointwise comparisons (sampled; used by the law suite and the harness)
# ---------------------------------------------------------------------------

def leq_pointwise(f: Morph, g: Morph, elems: list[Elem], fuel: int) -> bool:
    """f <= g on the given sample: wherever f is defined, g agrees.

    NO_FUEL samples are inconclusive and skipped.
    """
    for x in elems:
        rf = f.fwd(x, fuel)
        if rf is NO_FUEL or rf is UNDEF:
            continue
        if g.fwd(x, fuel) != rf:
            return False
    return True
