import math
import random

import pytest

from rfun import invcat
from rfun.invcat import (
    NO_FUEL, UNDEF, ZERO, ONE, Compose, Dagger, FirstJoin, Hole,
    IncompatibleJoin, InL, InR, Morph, Mu, Oplus, Otimes, Pair, Prod, Roll,
    STAR, Star, Sum, TypeMismatch, Var,
    annihil_l, annihil_r, complement, compose, compose_all, dagger, delta,
    dist_l, dist_r, equations, fix, fold, identity, inj_n, join, obj_L,
    obj_S, obj_T, oplus, otimes, prod_unitl, restrict, sum_assoc, sum_swap,
    sum_unitl, sum_unitr, trace, unfold, unfold_obj, zero_morph,
)

from helpers import (
    count_elems, enumerate_elems, has_mu, inj1, inj2, leq_pointwise,
    min_depth, prod_assoc, prod_swap, prod_unitr, sample_elem, well_formed,
)

FUEL = 1000

BOOL = Sum(ONE, ONE)
TRI = Sum(ONE, BOOL)
PAIRB = Prod(BOOL, BOOL)

SMALL_OBJS = [ONE, BOOL, TRI, PAIRB, Prod(ONE, BOOL), Sum(BOOL, PAIRB)]


def elems(obj, depth=None):
    return list(enumerate_elems(obj, depth))


def ptwise_eq(f, g, xs, fuel=FUEL):
    assert f.src == g.src and f.tgt == g.tgt
    for x in xs:
        assert f.fwd(x, fuel) == g.fwd(x, fuel), x
        # compare the backward maps on everything either produces
        rf = f.fwd(x, fuel)
        if not isinstance(rf, type(UNDEF)):
            assert f.bwd(rf, fuel) == g.bwd(rf, fuel)
    return True


# ---------------------------------------------------------------------------
# Objects and elements
# ---------------------------------------------------------------------------

def test_count_and_enumerate_small_objects():
    assert count_elems(BOOL) == 2
    assert count_elems(PAIRB) == 4
    assert count_elems(ZERO) == 0
    assert len(elems(Sum(PAIRB, BOOL))) == 6
    assert elems(ONE) == [STAR]


def test_enumerate_requires_depth_for_mu():
    with pytest.raises(ValueError):
        elems(obj_S())
    assert len(elems(obj_S(), 3)) == 1  # only s1 is that shallow
    assert len(elems(obj_S(), 5)) == 2  # s1 and s2


def test_well_formed():
    assert well_formed(InL(STAR), BOOL)
    assert not well_formed(InL(STAR), ONE)
    s1 = Roll(InL(STAR))
    assert well_formed(s1, obj_S())
    assert well_formed(Roll(InR(s1)), obj_S())
    assert not well_formed(Roll(InR(InR(STAR))), obj_S())


def test_min_depth():
    assert min_depth(ONE) == 0
    assert min_depth(BOOL) == 1
    assert min_depth(obj_S()) == 2
    assert min_depth(ZERO) == math.inf
    assert min_depth(obj_L(ONE)) == 2       # nil
    assert min_depth(obj_T(obj_S())) < math.inf


def test_sample_elem_is_seeded_and_well_formed():
    for obj in (BOOL, PAIRB, obj_S(), obj_L(BOOL), obj_T(obj_S())):
        a = [sample_elem(random.Random(5), obj, 6) for _ in range(20)]
        b = [sample_elem(random.Random(5), obj, 6) for _ in range(20)]
        assert a == b
        assert all(well_formed(x, obj) for x in a)


def test_unfold_obj_of_list():
    lst = obj_L(BOOL)
    assert unfold_obj(lst) == Sum(ONE, Prod(BOOL, lst))
    tree = obj_T(obj_S())
    assert unfold_obj(tree) == Prod(obj_S(), obj_L(tree))


# ---------------------------------------------------------------------------
# Law sampling (generator shared with the acceptance suite)
# ---------------------------------------------------------------------------

from helpers import gen_morphism, no_recursion


def sampled(rng: random.Random, n: int):
    """n samples of (f, g out of f's source, element of the source)."""
    out = []
    while len(out) < n:
        src = rng.choice(SMALL_OBJS)
        f = gen_morphism(rng, src, 3)
        g = gen_morphism(rng, src, 3)
        x = sample_elem(rng, src, 5)
        out.append((f, g, x))
    return out


# ---------------------------------------------------------------------------
# Restriction structure
# ---------------------------------------------------------------------------

def test_restriction_laws_on_samples():
    rng = random.Random(0xC0FFEE)
    for f, g, x in sampled(rng, 400):
        rf = restrict(f)
        # (i) f . f~ = f
        assert compose(f, rf).fwd(x, FUEL) == f.fwd(x, FUEL)
        # (ii) f~ . g~ = g~ . f~
        rg = restrict(g)
        assert compose(rf, rg).fwd(x, FUEL) == compose(rg, rf).fwd(x, FUEL)
        # (iii) restrict(g . f~) = g~ . f~
        assert restrict(compose(g, rf)).fwd(x, FUEL) == compose(rg, rf).fwd(x, FUEL)
        # (iv) g~ . f = f . restrict(g . f)  for g out of f's target
        h = gen_morphism(rng, f.tgt, 2)
        lhs = compose(restrict(h), f)
        rhs = compose(f, restrict(compose(h, f)))
        assert lhs.fwd(x, FUEL) == rhs.fwd(x, FUEL)


def test_restriction_lemma_identities_on_samples():
    rng = random.Random(0xBEEF)
    for f, g, x in sampled(rng, 300):
        rf = restrict(f)
        # restrict is idempotent
        assert compose(rf, rf).fwd(x, FUEL) == rf.fwd(x, FUEL)
        assert restrict(rf).fwd(x, FUEL) == rf.fwd(x, FUEL)
        h = gen_morphism(rng, f.tgt, 2)
        # restrict(h . f) = restrict(restrict(h) . f)
        assert restrict(compose(h, f)).fwd(x, FUEL) == \
            restrict(compose(restrict(h), f)).fwd(x, FUEL)
        # restrict(h . f) . f~ = restrict(h . f)
        assert compose(restrict(compose(h, f)), rf).fwd(x, FUEL) == \
            restrict(compose(h, f)).fwd(x, FUEL)


def test_partial_iso_roundtrip_on_samples():
    rng = random.Random(0xABBA)
    for f, _, x in sampled(rng, 400):
        y = f.fwd(x, FUEL)
        if not isinstance(y, type(UNDEF)):
            assert f.bwd(y, FUEL) == x
            assert well_formed(y, f.tgt)


def test_compose_unit_and_zero():
    f = delta(BOOL)
    xs = elems(BOOL)
    ptwise_eq(compose(identity(f.tgt), f), f, xs)
    ptwise_eq(compose(f, identity(BOOL)), f, xs)
    z = compose(zero_morph(f.tgt, TRI), f)
    assert all(z.fwd(x, FUEL) is UNDEF for x in xs)


def test_unit_laws_hold_when_built():
    f = delta(BOOL)
    assert compose(f, identity(f.src)) is f
    assert compose(identity(f.tgt), f) is f
    assert compose(f, dagger(identity(f.src))) is f
    ids = otimes(identity(BOOL), identity(TRI))
    _same_both_ways(ids, identity(Prod(BOOL, TRI)))


def test_compose_type_mismatch():
    with pytest.raises(TypeMismatch):
        compose(delta(BOOL), delta(TRI))


def test_dagger_involution_and_restrict_via_dagger():
    rng = random.Random(0xDAD)
    for f, _, x in sampled(rng, 200):
        assert dagger(dagger(f)).fwd(x, FUEL) == f.fwd(x, FUEL)
        # f^ . f = f~ pointwise
        assert compose(dagger(f), f).fwd(x, FUEL) == restrict(f).fwd(x, FUEL)


def test_restrict_identity_and_symbols():
    xs = elems(TRI)
    ptwise_eq(restrict(identity(TRI)), identity(TRI), xs)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

def test_join_singleton():
    f = delta(BOOL)
    ptwise_eq(join([f]), f, elems(BOOL))


def test_join_of_injection_ranges_is_identity():
    a = b = ONE
    f = join([compose(inj1(a, b), dagger(inj1(a, b))),
              compose(inj2(a, b), dagger(inj2(a, b)))])
    ptwise_eq(f, identity(Sum(a, b)), elems(Sum(a, b)))


def test_join_laws_on_disjoint_family():
    # family: restrictions of the identity on TRI to single points
    pts = elems(TRI)
    parts = [compose_all(inj_pt, dagger(inj_pt))
             for inj_pt in [_point(TRI, p) for p in pts]]
    total = join(parts)
    # (i) each part below the join, and join minimal among upper bounds
    for part in parts:
        assert leq_pointwise(part, total, pts, FUEL)
    assert leq_pointwise(total, identity(TRI), pts, FUEL)
    # (ii) restriction of the join is the join of restrictions
    ptwise_eq(restrict(total), join([restrict(p) for p in parts]), pts)
    # (iii)/(iv) composition distributes over the join
    g = sum_swap(ONE, BOOL)
    ptwise_eq(compose(g, total), join([compose(g, p) for p in parts]), pts)
    h = dagger(g)
    ptwise_eq(compose(total, h), join([compose(p, h) for p in parts]),
              elems(Sum(BOOL, ONE)))


def _point(obj, p):
    """The morphism 1 -> obj selecting p."""
    return Morph(ONE, obj,
                 lambda x, fuel: p,
                 lambda y, fuel: STAR if y == p else UNDEF,
                 "point")


def test_join_incompatible_outputs_raises_lazily():
    f = identity(BOOL)
    g = sum_swap(ONE, ONE)           # same type, different outputs
    j = join([f, g])
    with pytest.raises(IncompatibleJoin):
        j.fwd(InL(STAR), FUEL)


def test_join_second_preimage_raises_lazily():
    # two constant maps onto the same point from different inputs
    t, f = InL(STAR), InR(STAR)
    m1 = Morph(BOOL, BOOL,
               lambda x, fuel: t if x == t else UNDEF,
               lambda y, fuel: t if y == t else UNDEF)
    m2 = Morph(BOOL, BOOL,
               lambda x, fuel: t if x == f else UNDEF,
               lambda y, fuel: f if y == t else UNDEF)
    j = join([m1, m2])
    assert j.fwd(t, FUEL) == t          # first component answers first
    with pytest.raises(IncompatibleJoin):
        j.fwd(f, FUEL)                  # second answers, first can reach it


def test_join_out_of_fuel_after_an_answer_and_in_the_preimage_check():
    spin = fix(lambda r: r, BOOL, BOOL)     # out of fuel everywhere
    t = InL(STAR)
    # a later component out of fuel: the answer found stands
    assert join([identity(BOOL), spin]).fwd(t, FUEL) == t
    assert join([identity(BOOL), spin]).bwd(t, FUEL) == t
    # an earlier component out of fuel checking the answer's second preimage
    blind = Morph(BOOL, BOOL, lambda x, fuel: UNDEF, lambda y, fuel: NO_FUEL)
    assert join([blind, identity(BOOL)]).fwd(t, FUEL) is NO_FUEL
    assert join([dagger(blind), identity(BOOL)]).bwd(t, FUEL) is NO_FUEL


def test_join_type_checks():
    with pytest.raises(TypeMismatch):
        join([])
    with pytest.raises(TypeMismatch):
        join([identity(BOOL), identity(TRI)])


def test_first_join_answers_with_the_first_defined_part():
    left = restrict(dagger(inj1(ONE, ONE)))
    right = restrict(dagger(inj2(ONE, ONE)))
    fj = FirstJoin(BOOL, BOOL, (left, right))
    for x in elems(BOOL):
        assert fj.fwd(x, FUEL) == x and fj.bwd(x, FUEL) == x
    assert FirstJoin(BOOL, BOOL, (left, zero_morph(BOOL, BOOL))).fwd(
        InR(STAR), FUEL) is UNDEF
    # Unchecked: overlapping parts raise nothing, the first one answers.
    flip = FirstJoin(BOOL, BOOL, (sum_swap(ONE, ONE), identity(BOOL)))
    assert flip.fwd(InL(STAR), FUEL) == InR(STAR)


def test_forced_hash_collision_costs_time_not_correctness():
    pairs = [
        (Pair(STAR, InL(STAR)), Pair(STAR, InR(STAR))),
        (InL(Pair(STAR, STAR)), InL(STAR)),
        (Roll(InL(STAR)), Roll(InL(Pair(STAR, STAR)))),
    ]
    for a, b in pairs:
        b.h = a.h
        assert hash(a) == hash(b)
        assert a != b and b != a and not a == b
        assert len({a, b}) == 2
    deep_a, deep_b = STAR, InL(STAR)
    for _ in range(50_000):
        deep_a, deep_b = Roll(deep_a), Roll(deep_b)
    deep_b.h = deep_a.h
    assert deep_a != deep_b


def test_shapes_compare_their_holes_by_name():
    a, b = Pair(Hole("a"), STAR), Pair(Hole("b"), STAR)
    assert a != b and not a == b
    again = Pair(Hole("a"), STAR)
    assert again is not a and again == a and hash(again) == hash(a)
    assert Hole("a") is not Hole("a") and InL(Hole("a")) == InL(Hole("a"))
    assert InL(Hole("a")) != InL(STAR) != InL(Hole("a"))
    assert len({a, b, again, Pair(STAR, Hole("a"))}) == 3


def test_equal_elements_share_their_hash():
    a, b = Pair(InL(STAR), Roll(STAR)), Pair(InL(STAR), Roll(STAR))
    assert a is not b and a == b and hash(a) == hash(b) == a.h
    assert InL(STAR).h != InR(STAR).h != Roll(STAR).h
    assert Pair(STAR, InL(STAR)).h != Pair(InL(STAR), STAR).h


# ---------------------------------------------------------------------------
# Disjointness tensor and inverse product
# ---------------------------------------------------------------------------

def test_oplus_identity_functorial():
    ptwise_eq(oplus(identity(ONE), identity(BOOL)), identity(Sum(ONE, BOOL)),
              elems(Sum(ONE, BOOL)))


def test_injections_disjoint():
    m = compose(dagger(inj1(BOOL, ONE)), inj2(BOOL, ONE))
    assert m.fwd(STAR, FUEL) is UNDEF


def test_oplus_acts_componentwise():
    rng = random.Random(17)
    f = gen_morphism(rng, BOOL, 2)
    g = gen_morphism(rng, TRI, 2)
    fg = oplus(f, g)
    for x in elems(BOOL):
        r = f.fwd(x, FUEL)
        expect = r if isinstance(r, type(UNDEF)) else InL(r)
        assert fg.fwd(InL(x), FUEL) == expect


def test_otimes_undefined_if_either_side_is():
    f = zero_morph(BOOL, BOOL)
    g = identity(BOOL)
    m = otimes(f, g)
    assert m.fwd(Pair(InL(STAR), InR(STAR)), FUEL) is UNDEF
    # an identity on the left: the right part alone decides
    p = Pair(InL(STAR), InR(STAR))
    for right, out in ((f, UNDEF), (fix(lambda r: r, BOOL, BOOL), NO_FUEL)):
        m = otimes(identity(BOOL), right)
        assert m.fwd(p, 3) is out and m.bwd(p, 3) is out and dagger(m).fwd(p, 3) is out
    for run_m in (m.fwd, m.bwd):
        with pytest.raises(TypeMismatch):
            run_m(InL(STAR), 3)


def test_delta_speciality():
    for obj in (BOOL, TRI, PAIRB):
        ptwise_eq(compose(dagger(delta(obj)), delta(obj)), identity(obj),
                  elems(obj))


def test_delta_commutativity():
    for obj in (BOOL, TRI):
        ptwise_eq(compose(prod_swap(obj, obj), delta(obj)), delta(obj),
                  elems(obj))


def test_frobenius_condition():
    for obj in (BOOL, TRI):
        d = delta(obj)
        lhs = compose(d, dagger(d))
        alpha = prod_assoc(obj, obj, obj)
        rhs = compose_all(otimes(dagger(d), identity(obj)), alpha,
                          otimes(identity(obj), d))
        ptwise_eq(lhs, rhs, elems(Prod(obj, obj)))


def test_dist_l_shape():
    x = Pair(InL(STAR), InR(InR(STAR)))      # BOOL * (ONE + BOOL)
    m = dist_l(BOOL, ONE, BOOL)
    assert m.fwd(x, FUEL) == InR(Pair(InL(STAR), InR(STAR)))
    y = Pair(InL(STAR), InL(STAR))
    assert m.fwd(y, FUEL) == InL(Pair(InL(STAR), STAR))


def test_dist_l_naturality_square():
    rng = random.Random(23)
    f = gen_morphism(rng, ONE, 2)
    g = gen_morphism(rng, BOOL, 2)
    h = gen_morphism(rng, BOOL, 2)
    src = Prod(ONE, Sum(BOOL, BOOL))
    top = compose(dist_l(f.tgt, g.tgt, h.tgt), otimes(f, oplus(g, h)))
    bot = compose(oplus(otimes(f, g), otimes(f, h)), dist_l(ONE, BOOL, BOOL))
    ptwise_eq(top, bot, elems(src))


def test_annihilators_are_vacuous():
    for m in (annihil_l(BOOL), annihil_r(BOOL)):
        assert elems(m.src) == []
        assert elems(m.tgt) == []


def test_structural_isos_are_total_isos():
    cases = [
        prod_unitl(BOOL), prod_unitr(TRI),
        prod_assoc(ONE, BOOL, BOOL),
        prod_swap(BOOL, TRI),
        sum_unitl(BOOL), sum_unitr(BOOL),
        sum_assoc(ONE, BOOL, ONE),
        sum_swap(BOOL, TRI),
        dist_l(BOOL, ONE, ONE),
        dist_r(ONE, ONE, BOOL),
        fold(obj_S()), unfold(obj_S()),
    ]
    for m in cases:
        xs = elems(m.src, 6) if _needs_depth(m.src) else elems(m.src)
        for x in xs:
            y = m.fwd(x, FUEL)
            assert not isinstance(y, type(UNDEF)), (m, x)
            assert well_formed(y, m.tgt)
            assert m.bwd(y, FUEL) == x


EQUATION_PRIMITIVES = [
    inj1(BOOL, ONE), inj2(BOOL, ONE), inj_n(0, [ONE, BOOL, ONE]),
    inj_n(1, [ONE, BOOL, ONE]), inj_n(2, [ONE, BOOL, ONE]),
    delta(BOOL), delta(TRI), zero_morph(BOOL, TRI),
    annihil_l(BOOL), annihil_r(BOOL),
    prod_unitl(BOOL), prod_unitr(TRI), sum_unitl(BOOL), sum_unitr(TRI),
    prod_assoc(ONE, BOOL, BOOL), sum_assoc(ONE, BOOL, ONE),
    prod_swap(BOOL, TRI), sum_swap(BOOL, TRI),
    dist_l(BOOL, ONE, ONE), dist_r(ONE, ONE, BOOL),
    fold(obj_S()), unfold(obj_S()),
]


@pytest.mark.parametrize("m", EQUATION_PRIMITIVES, ids=repr)
def test_equation_primitives_are_partial_bijections(m):
    assert type(m) is Morph
    for x in elems(m.src, 3):
        y = m.fwd(x, FUEL)
        if y is not UNDEF:
            assert well_formed(y, m.tgt) and m.bwd(y, FUEL) == x, (m, x)
    for y in elems(m.tgt, 3):
        x = m.bwd(y, FUEL)
        if x is not UNDEF:
            assert well_formed(x, m.src) and m.fwd(x, FUEL) == y, (m, y)


def test_delta_inverse_is_an_equality_test():
    eq = dagger(delta(TRI))
    for x in elems(TRI):
        for y in elems(TRI):
            assert eq.fwd(Pair(x, y), FUEL) == (x if x == y else UNDEF)


def test_sum_assoc_reads_each_clause_both_ways():
    m = sum_assoc(ONE, ONE, ONE)
    clauses = [(InL(STAR), InL(InL(STAR))), (InR(InL(STAR)), InL(InR(STAR))),
               (InR(InR(STAR)), InR(STAR))]
    for x, y in clauses:
        assert m.fwd(x, FUEL) == y and m.bwd(y, FUEL) == x
    # outside its domain, like every partial map: UNDEF, not an error
    assert m.fwd(STAR, FUEL) is UNDEF and m.bwd(STAR, FUEL) is UNDEF


def test_the_first_matching_equation_answers():
    a = Hole("a")
    fwd, bwd = equations((InL(a), InR(a)), (a, a))
    assert fwd(InL(STAR), FUEL) == InR(STAR) and fwd(InR(STAR), FUEL) == InR(STAR)
    assert bwd(InR(STAR), FUEL) == InL(STAR) and bwd(InL(STAR), FUEL) == InL(STAR)


def test_equation_sides_must_hold_the_same_holes():
    a, b = Hole("a"), Hole("b")
    for lhs, rhs in ((Pair(a, b), a), (a, Pair(a, b)), (InL(a), InR(b)), (STAR, a)):
        with pytest.raises(TypeMismatch):
            equations((lhs, rhs))
    equations((a, Pair(a, a)))          # a hole met twice is an equality test


def test_a_hole_free_part_built_twice_is_one_constant():
    # The built side's hole-free parts are defaults of the evaluator, one
    # per distinct part, so a part built twice is passed once.
    a, part = Hole("a"), InL(STAR)
    fwd, bwd = equations((a, Pair(part, Pair(a, part))))
    assert len(fwd.__defaults__) == 1 and fwd.__defaults__[0] is part
    y = fwd(InR(STAR), FUEL)
    assert y == Pair(part, Pair(InR(STAR), part)) and y.fst is y.snd.snd is part
    assert bwd(y, FUEL) == InR(STAR)
    assert bwd(Pair(InR(STAR), Pair(STAR, part)), FUEL) is UNDEF


def test_injection_into_a_wide_sum_is_one_step():
    objs = [ONE] * 300
    for i in (0, 150, 298, 299):
        m = inj_n(i, objs)
        y = m.fwd(STAR, FUEL)
        assert type(m) is Morph and well_formed(y, m.tgt) and m.bwd(y, FUEL) == STAR
        assert inj_n(149, objs).bwd(y, FUEL) is UNDEF


def test_equations_on_deep_shapes_compile():
    a, deep = Hole("a"), Hole("a")
    for _ in range(1_000):
        deep = InR(Pair(STAR, deep))
    fwd, bwd = equations((a, deep))
    y = fwd(STAR, FUEL)
    assert bwd(y, FUEL) == STAR and bwd(InL(STAR), FUEL) is UNDEF


def _needs_depth(obj):
    return has_mu(obj)


# ---------------------------------------------------------------------------
# Fusion: the smart constructors against the nodes they replace
# ---------------------------------------------------------------------------

def _prim_term(rng, src, depth):
    """A random fix-free term out of src: primitives under nodes built from
    the node classes, so that no smart constructor fuses them."""
    leaves = ["id", "delta", "inj1", "inj2", "zero"]
    match src:
        case Sum(_, Sum()):
            leaves.append("sum_assoc")
        case Sum(Sum(), _):
            leaves.append("sum_assoc^")
        case Prod(_, Prod()):
            leaves.append("assoc")
        case Prod(Sum(), _):
            leaves.append("dist_r")
    if isinstance(src, Sum):
        leaves += ["proj1", "proj2", "sum_swap"]
    if isinstance(src, Prod):
        leaves += ["swap", "eq_test"] + ["unitl"] * (src.left == ONE)
        leaves += ["dist_l"] * isinstance(src.right, Sum)
        leaves += ["eq_test"] * 3 * (src.left == src.right)
    nodes = ["compose", "restrict", "roundtrip", "dagger"] + ["oplus"] * isinstance(src, Sum)
    nodes += ["otimes"] * isinstance(src, Prod)
    match rng.choice(leaves + nodes * (depth > 0)):
        case "id":
            return identity(src)
        case "delta":
            return delta(src)
        case "inj1":
            return inj1(src, rng.choice(SMALL_OBJS))
        case "inj2":
            return inj2(rng.choice(SMALL_OBJS), src)
        case "zero":
            return zero_morph(src, rng.choice(SMALL_OBJS))
        case "sum_assoc":
            return sum_assoc(src.left, src.right.left, src.right.right)
        case "sum_assoc^":
            a, b, c = src.left.left, src.left.right, src.right
            return Dagger(src, Sum(a, Sum(b, c)), sum_assoc(a, b, c))
        case "assoc":
            return prod_assoc(src.left, src.right.left, src.right.right)
        case "dist_l":
            return dist_l(src.left, src.right.left, src.right.right)
        case "dist_r":
            return dist_r(src.left.left, src.left.right, src.right)
        case "proj1":
            return dagger(inj1(src.left, src.right))
        case "proj2":
            return dagger(inj2(src.left, src.right))
        case "sum_swap":
            return sum_swap(src.left, src.right)
        case "swap":
            return prod_swap(src.left, src.right)
        case "unitl":
            return prod_unitl(src.right)
        case "eq_test":
            if src.left == src.right:
                return dagger(delta(src.left))
            return prod_swap(src.left, src.right)
        case "compose":
            f = _prim_term(rng, src, depth - 1)
            g = _prim_term(rng, f.tgt, depth - 1)
            return Compose(src, g.tgt, (f, g))
        case "restrict":                # h^ . h
            h = _prim_term(rng, src, depth - 1)
            return Compose(src, src, (h, Dagger(h.tgt, h.src, h)))
        case "roundtrip":               # h^ . h . f
            f = _prim_term(rng, src, depth - 1)
            h = _prim_term(rng, f.tgt, depth - 1)
            return Compose(src, f.tgt, (f, h, Dagger(h.tgt, h.src, h)))
        case "dagger":                  # of a map into src, after one out of it
            f = _prim_term(rng, src, depth - 1)
            h = _prim_term(rng, rng.choice(SMALL_OBJS), depth - 1)
            k = _prim_term(rng, h.tgt, depth - 1)
            if k.tgt != f.tgt:
                return f
            return Compose(src, h.tgt, (f, Dagger(k.tgt, k.src, k)))
        case "oplus":
            f = _prim_term(rng, src.left, depth - 1)
            g = _prim_term(rng, src.right, depth - 1)
            return Oplus(src, Sum(f.tgt, g.tgt), f, g)
        case "otimes":
            f = _prim_term(rng, src.left, depth - 1)
            g = _prim_term(rng, src.right, depth - 1)
            return Otimes(src, Prod(f.tgt, g.tgt), f, g)
    raise AssertionError


def _smart(t):
    """The term t rebuilt by the smart constructors, which fuse primitives."""
    match t:
        case Compose():
            return compose_all(*reversed([_smart(p) for p in t.parts]))
        case Dagger():
            return dagger(_smart(t.inner))
        case Oplus():
            return oplus(_smart(t.left), _smart(t.right))
        case Otimes():
            return otimes(_smart(t.left), _smart(t.right))
    return t


def _fusion_disagreements(seed, count=1_000):
    """Where the fused term and the term of nodes differ, forward on every
    element of the source or backward on every element of the target,
    UNDEF included; and how many terms fused to one primitive."""
    rng, out, fused_whole = random.Random(seed), [], 0
    for _ in range(count):
        t = _prim_term(rng, rng.choice(SMALL_OBJS), 3)
        if count_elems(t.src) * count_elems(t.tgt) > 400:
            continue                    # keep the enumerations small
        m = _smart(t)
        assert m.src == t.src and m.tgt == t.tgt
        fused_whole += type(m) is Morph
        out += [(t, "fwd", x) for x in elems(t.src) if m.fwd(x, FUEL) != t.fwd(x, FUEL)]
        out += [(t, "bwd", y) for y in elems(t.tgt) if m.bwd(y, FUEL) != t.bwd(y, FUEL)]
    return out, fused_whole


def test_fused_primitives_agree_with_the_nodes_they_replace():
    bad, fused_whole = _fusion_disagreements(0xF05E)
    assert bad == []
    assert fused_whole >= 900           # the caps leave most small terms whole


def test_fusion_oracle_catches_a_dropped_equality_test(monkeypatch):
    # Taking a clause lhs = lhs with a hole met twice for the identity drops
    # the test that the two parts are equal: delta . delta^, the identity on
    # the diagonal only, would become the identity everywhere.
    def is_id_with_repeats(lhs, rhs):
        todo = [lhs]
        while todo:
            e = todo.pop()
            if type(e) is InL or type(e) is InR:
                return False
            todo += (getattr(e, p) for p in e.__match_args__)
        return lhs == rhs

    invcat._fused.cache_clear()
    monkeypatch.setattr(invcat, "_is_id", is_id_with_repeats)
    try:
        bad, _ = _fusion_disagreements(0xF05E)
    finally:
        invcat._fused.cache_clear()
    assert any(type(x) is Pair and x.fst != x.snd for _, _, x in bad), \
        "the oracle missed a fusion that drops an equality test"


def test_fusion_cancels_inverse_neighbours():
    mu = obj_S()
    assert compose(fold(mu), unfold(mu)) is identity(mu)
    assert compose(dagger(delta(TRI)), delta(TRI)) is identity(TRI)
    assert compose(prod_swap(TRI, BOOL), prod_swap(BOOL, TRI)) is identity(Prod(BOOL, TRI))
    kept = compose(delta(TRI), dagger(delta(TRI)))      # the diagonal stays a test
    assert type(kept) is Morph and kept is not identity(TRI)
    assert kept.fwd(Pair(InL(STAR), InR(InL(STAR))), FUEL) is UNDEF


def test_fusion_drops_a_clause_no_finite_element_fits():
    # delta gives <n, n>, the succession test wants <n, S(n)>: unifying them
    # binds n to S(n), so the composite's one clause is dropped.
    nat = obj_S()
    n = Hole("n")
    succ_pair = invcat.primitive(Prod(nat, nat), nat, ((Pair(n, Roll(InR(n))), n),))
    fused = compose(succ_pair, delta(nat))
    assert type(fused) is Morph and fused.eqs == ()
    nodes = Compose(nat, nat, (delta(nat), succ_pair))
    numerals = elems(nat, 20)
    ptwise_eq(fused, nodes, numerals)
    for y in numerals:
        assert fused.bwd(y, FUEL) is nodes.bwd(y, FUEL) is UNDEF


def test_fusion_is_cached_and_capped():
    f, g = prod_swap(BOOL, TRI), delta(Prod(TRI, BOOL))
    assert compose(g, f) is compose(g, f)
    six = oplus(sum_assoc(ONE, ONE, ONE), sum_assoc(ONE, BOOL, ONE))
    assert type(six) is Morph and len(six.eqs) == 6
    assert type(oplus(six, six)) is Morph
    assert type(otimes(six, six)) is Otimes         # 36 clauses: over the cap


# ---------------------------------------------------------------------------
# Decidable idempotents: guards
# ---------------------------------------------------------------------------

def test_complement_of_identity_is_zero():
    e = complement(identity(BOOL))
    ptwise_eq(e, zero_morph(BOOL, BOOL), elems(BOOL))


def test_double_complement():
    e = restrict(compose(inj1(ONE, ONE), dagger(inj1(ONE, ONE))))
    ptwise_eq(complement(complement(e)), e, elems(BOOL))


def test_decidability_e_join_not_e_is_identity():
    e = restrict(compose(inj1(ONE, BOOL), dagger(inj1(ONE, BOOL))))
    total = join([e, complement(e)])
    ptwise_eq(total, identity(TRI), elems(TRI))
    nothing = compose(e, complement(e))
    assert all(nothing.fwd(x, FUEL) is UNDEF for x in elems(TRI))


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

def test_trace_of_swap_is_identity():
    m = trace(sum_swap(ONE, ONE))
    assert m.fwd(STAR, FUEL) == STAR
    assert m.bwd(STAR, FUEL) == STAR


def test_trace_without_feedback():
    f = oplus(sum_swap(ONE, ONE), identity(BOOL))
    m = trace(f)
    ptwise_eq(m, sum_swap(ONE, ONE), elems(Sum(ONE, ONE)))


def test_trace_dagger_symmetry():
    rng = random.Random(31)
    fs = [
        sum_swap(BOOL, BOOL),
        oplus(gen_morphism(rng, BOOL, 2), identity(BOOL)),
        compose(sum_swap(BOOL, BOOL), oplus(identity(BOOL), sum_swap(ONE, ONE))),
    ]
    for f in fs:
        if not (isinstance(f.tgt, Sum) and f.tgt.right == f.src.right):
            continue
        lhs = dagger(trace(f))
        rhs = trace(dagger(f))
        for y in elems(lhs.src):
            assert lhs.fwd(y, FUEL) == rhs.fwd(y, FUEL)


def _same_both_ways(f, g):
    assert f.src == g.src and f.tgt == g.tgt
    for x in elems(f.src):
        assert f.fwd(x, FUEL) == g.fwd(x, FUEL), (f, x)
    for y in elems(f.tgt):
        assert f.bwd(y, FUEL) == g.bwd(y, FUEL), (f, y)


def test_dagger_is_functorial():
    rng = random.Random(0xDA66)
    tried = 0
    while tried < 60:
        src = rng.choice(SMALL_OBJS)
        f = gen_morphism(rng, src, 2)
        g = gen_morphism(rng, f.tgt, 2)
        h = gen_morphism(rng, rng.choice(SMALL_OBJS), 2)
        if max(count_elems(m.src) * count_elems(m.tgt) for m in (f, g, h)) > 400:
            continue                    # keep the enumerations small
        tried += 1
        _same_both_ways(dagger(compose(g, f)), compose(dagger(f), dagger(g)))
        _same_both_ways(dagger(oplus(f, h)), oplus(dagger(f), dagger(h)))
        _same_both_ways(dagger(otimes(f, h)), otimes(dagger(f), dagger(h)))
        # f restricted to each point of its source: a disjoint family
        pts = elems(src)
        parts = [compose_all(f, _point(src, p), dagger(_point(src, p)))
                 for p in pts]
        _same_both_ways(dagger(join(parts)), join([dagger(p) for p in parts]))


def test_trace_type_check():
    with pytest.raises(TypeMismatch):
        trace(identity(ONE))        # not a sum
    with pytest.raises(TypeMismatch):
        trace(inj1(BOOL, BOOL))     # feedback objects disagree


def test_trace_runs_out_of_fuel_on_livelock():
    spin = Morph(Sum(ONE, ONE), Sum(ONE, ONE),
                 lambda x, fuel: InR(STAR),
                 lambda y, fuel: InR(STAR))
    assert trace(spin).fwd(STAR, 50) is NO_FUEL


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

def test_fix_constant_scheme():
    m = fix(lambda h: identity(BOOL), BOOL, BOOL)
    ptwise_eq(m, identity(BOOL), elems(BOOL))


def test_fix_identity_scheme_is_bottom():
    m = fix(lambda h: h, BOOL, BOOL)
    for fuel in (0, 1, 5, 1000):
        assert m.fwd(InL(STAR), fuel) is NO_FUEL


def test_fix_results_are_fuel_monotone():
    nat = obj_S()

    def scheme(h):
        base = compose(fold(nat), inj1(ONE, nat))          # 1 -> S picking s1
        z_case = compose(base, dagger(base))               # partial id on s1
        step = compose_all(fold(nat), inj2(ONE, nat), h,
                           dagger(inj2(ONE, nat)), unfold(nat))
        return join([z_case, step])

    m = fix(scheme, nat, nat)

    def sym(k):
        e = InL(STAR)
        for _ in range(k):
            e = InR(Roll(e))
        return Roll(e)

    for k in range(12):
        x = sym(k)
        assert m.fwd(x, k) is NO_FUEL or m.fwd(x, k) == x
        r = m.fwd(x, k + 1)
        assert r == x
        for bigger in (2 * (k + 1), 4 * (k + 1), 100):
            assert m.fwd(x, bigger) == r


def test_fix_under_every_combinator_runs_on_the_main_thread():
    # The self-reference sits under dagger, oplus, trace, otimes, a guard
    # and a join; nothing recurses in Python, so fuel 1e5 needs no big stack.
    def scheme(h):
        t = trace(oplus(dagger(h), identity(ONE)))
        body = compose_all(prod_unitr(BOOL), otimes(t, identity(ONE)),
                           dagger(prod_unitr(BOOL)))
        return join([zero_morph(BOOL, BOOL), restrict(body)])

    m = fix(scheme, BOOL, BOOL)
    assert no_recursion(m.fwd, InL(STAR), 100_000) is NO_FUEL


def test_fix_type_check():
    with pytest.raises(TypeMismatch):
        fix(lambda h: delta(BOOL), BOOL, BOOL)


@pytest.mark.parametrize("make", [
    lambda: otimes(inj1(ONE, ONE), inj1(ONE, ONE)),
    lambda: prod_swap(ONE, ONE),
], ids=["fused-tensor", "plain-primitive"])
def test_a_primitive_rejects_an_element_of_another_object(make):
    # Generated evaluators trust the element's shape; one that lacks a part
    # they read is a TypeMismatch, as in the nodes' rules, both ways.
    m = make()
    with pytest.raises(TypeMismatch):
        m.fwd(STAR, 5)
    with pytest.raises(TypeMismatch):
        m.bwd(STAR, 5)
