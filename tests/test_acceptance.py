"""Acceptance suite.

One test per criterion; each prints a single verdict line (visible with
pytest -s or in the captured output).  Expected values come from
independent oracles: plain integer arithmetic for the numeric programs,
exhaustive enumeration for the categorical laws, and the interpreter and
denotation are compared against each other only where cross-agreement is
itself the criterion.
"""
import itertools
import random
import time

import pytest

from rfun.densem import (
    SymbolTable, dupeq_morphism, encode_value, function_morphism, pack,
    run_denotation, sem_program, unpack,
)
from rfun.harness import check_program, densem_outcome, opsem_outcome
from rfun.invcat import (
    NO_FUEL, ONE, STAR, UNDEF, Morph, Prod, Sum, compose, compose_all,
    dagger, delta, identity, join, obj_L, oplus, otimes, prod_assoc,
    prod_swap, restrict, sum_swap, trace, zero_morph,
)
from rfun.inverter import alpha_eq, invert_name, invert_program
from rfun.opsem import (
    NO_MATCH, OUT_OF_FUEL, FirstMatchViolation, apply_backward, apply_forward,
)
from rfun.values import Value, tup, val

from helpers import (
    ARITH_VOCAB, BOOL, PAIRB, SMALL_OBJS, TRI, enumerate_elems, fib_pair,
    gen_morphism, leq_pointwise, load_program, no_recursion, peano,
    random_value, sample_elem, unpeano,
)

SEED = 0x5EED


def report(criterion: int, text: str):
    print(f"[acceptance {criterion}] PASS - {text}")


# ---------------------------------------------------------------------------
# 1. Golden forward runs against integer oracles
# ---------------------------------------------------------------------------

def test_acceptance_1_golden_forward_runs():
    started = time.time()
    prog = load_program("arith.rfun")
    for m in range(11):
        for n in range(11):
            r = apply_forward(prog, "plus", tup(peano(m), peano(n)))
            assert isinstance(r, Value), (m, n)
            a, b = r.args
            assert (unpeano(a), unpeano(b)) == (m, m + n), (m, n)
    for n in range(11):
        r = apply_forward(prog, "fib", peano(n))
        assert isinstance(r, Value), n
        a, b = r.args
        assert (unpeano(a), unpeano(b)) == fib_pair(n), n
    elapsed = time.time() - started
    assert elapsed < 1.0, f"golden runs took {elapsed:.2f}s"
    report(1, f"plus on 0..10 x 0..10 and fib on 0..10 match the "
              f"integer oracles exactly ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. Inverter fidelity against the printed inverse listings
# ---------------------------------------------------------------------------

def test_acceptance_2_inverter_fidelity():
    prog = load_program("arith.rfun")
    fixture = load_program("arith_inv.rfun")
    inv = invert_program(prog)
    assert alpha_eq(inv, fixture), "inverse differs from the printed listings"
    report(2, "invert(plus) and invert(fib) are alpha-equivalent to the "
              "printed inverse listings")


# ---------------------------------------------------------------------------
# 3. Bidirectional round-trips, 200 seeded inputs per corpus function
# ---------------------------------------------------------------------------

CORPUS_FUNCTIONS = [
    ("arith.rfun", "plus", ARITH_VOCAB),
    ("arith.rfun", "fib", ARITH_VOCAB),
    ("mirror.rfun", "mirror", [("Tip", 0), ("Node", 2)]),
    ("iseq.rfun", "dup", ARITH_VOCAB),
    ("iseq.rfun", "iseq", ARITH_VOCAB + [("<>", 1)]),
]


def _roundtrip_targets():
    """Corpus functions plus their syntactic inverses, with input vocab."""
    out = []
    for name, fname, vocab in CORPUS_FUNCTIONS:
        prog = load_program(name)
        out.append((prog, fname, vocab))
        out.append((invert_program(prog), invert_name(fname), vocab))
    return out


def _backward_or_status(prog, fname, v):
    try:
        return apply_backward(prog, fname, v)
    except FirstMatchViolation:
        return "violation"


def test_acceptance_3_bidirectional_roundtrip():
    started = time.time()
    checked_fwd = checked_bwd = sampled_points = 0
    for pos, (prog, fname, vocab) in enumerate(_roundtrip_targets()):
        inverted = invert_program(prog)
        rng = random.Random(SEED + pos)
        for _ in range(200):
            v = random_value(rng, vocab, 5)
            sampled_points += 1
            w = apply_forward(prog, fname, v)
            if isinstance(w, Value):
                checked_fwd += 1
                assert apply_backward(prog, fname, w) == v, (fname, v)
            # backward from a sampled point, wherever defined
            u = _backward_or_status(prog, fname, v)
            if isinstance(u, Value):
                checked_bwd += 1
                assert apply_forward(prog, fname, u) == v, (fname, v)
            # the direct inverse interpreter agrees with the inverted program
            try:
                via_inv = apply_forward(inverted, invert_name(fname), v)
            except FirstMatchViolation:
                via_inv = "violation"
            assert via_inv == u, (fname, v)
    elapsed = time.time() - started
    assert checked_fwd >= 200 and checked_bwd >= 200
    assert elapsed < 10.0, f"round-trips took {elapsed:.2f}s"
    report(3, f"round-trips exact on {checked_fwd} forward / {checked_bwd} "
              f"backward defined cases; applyBackward agrees with the "
              f"inverted program on all {sampled_points} sampled points "
              f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. Categorical law suite
# ---------------------------------------------------------------------------

EXHAUSTIVE_OBJS = [
    BOOL, TRI, PAIRB,
    Sum(PAIRB, PAIRB),
    Prod(PAIRB, PAIRB),
    Prod(PAIRB, Sum(PAIRB, PAIRB)),
]

LAW_FUEL = 1000


def _law_battery(f, g, h_from_tgt, x, fuel=LAW_FUEL):
    """Pointwise law instances for f, g out of one source; h out of f's
    target.  Returns None or a failure description."""
    rf, rg = restrict(f), restrict(g)
    checks = [
        ("restriction i", compose(f, rf), f),
        ("restriction ii", compose(rf, rg), compose(rg, rf)),
        ("restriction iii", restrict(compose(g, rf)), compose(rg, rf)),
        ("restriction iv", compose(restrict(h_from_tgt), f),
         compose(f, restrict(compose(h_from_tgt, f)))),
        ("lemma i", compose(rf, rf), rf),
        ("lemma ii", restrict(compose(h_from_tgt, f)),
         restrict(compose(restrict(h_from_tgt), f))),
        ("lemma iii", restrict(compose(rg, rf)), compose(rg, rf)),
        ("lemma iv", compose(restrict(compose(h_from_tgt, f)), rf),
         restrict(compose(h_from_tgt, f))),
        ("dagger roundtrip", compose_all(f, dagger(f), f), f),
        ("restrict via dagger", compose(dagger(f), f), rf),
        ("restriction zero", restrict(zero_morph(f.src, f.src)),
         zero_morph(f.src, f.src)),
    ]
    for name, lhs, rhs in checks:
        if lhs.fwd(x, fuel) != rhs.fwd(x, fuel):
            return f"{name} fails at {x!r}"
    y = f.fwd(x, fuel)
    if not isinstance(y, type(UNDEF)) and f.bwd(y, fuel) != x:
        return f"partial isomorphism fails at {x!r}"
    return None


def _point_family(obj, elems):
    """Disjoint point restrictions of the identity, one per element."""
    parts = []
    for p in elems:
        point = Morph(ONE, obj, lambda x, fu, p=p: p,
                      lambda y, fu, p=p: STAR if y == p else UNDEF)
        parts.append(compose(point, dagger(point)))
    return parts


def test_acceptance_4_categorical_law_suite():
    started = time.time()

    # restriction laws, lemma identities, partial-iso round-trips
    rng = random.Random(SEED)
    battery_samples = 0
    while battery_samples < 1000:
        src = rng.choice(SMALL_OBJS)
        f = gen_morphism(rng, src, 3)
        g = gen_morphism(rng, src, 3)
        h = gen_morphism(rng, f.tgt, 2)
        x = sample_elem(rng, src, 5)
        failure = _law_battery(f, g, h, x)
        assert failure is None, failure
        battery_samples += 1

    # ... and exhaustively on Mu-free objects of at most 32 elements
    exhaustive = 0
    for obj in EXHAUSTIVE_OBJS:
        elems = list(enumerate_elems(obj))
        assert len(elems) <= 32
        fixed_rng = random.Random(SEED + 1)
        f = gen_morphism(fixed_rng, obj, 3)
        g = gen_morphism(fixed_rng, obj, 3)
        h = gen_morphism(fixed_rng, f.tgt, 2)
        for x in elems:
            failure = _law_battery(f, g, h, x)
            assert failure is None, failure
            exhaustive += 1

    # join laws (i)-(iv) on constructed disjoint families
    rng = random.Random(SEED + 4)
    join_samples = 0
    families = {}
    while join_samples < 1000:
        obj = rng.choice([BOOL, TRI, PAIRB, Sum(PAIRB, PAIRB)])
        if obj not in families:
            elems = list(enumerate_elems(obj))
            parts = _point_family(obj, elems)
            families[obj] = (elems, parts, join(parts),
                             join([restrict(p) for p in parts]),
                             gen_morphism(random.Random(SEED + 5), obj, 2))
        elems, parts, total, joined_restricts, post = families[obj]
        x = rng.choice(elems)
        for part in parts:                                   # (i) upper bound
            assert leq_pointwise(part, total, [x], LAW_FUEL)
        assert leq_pointwise(total, identity(obj), [x], LAW_FUEL)   # (i) least
        assert restrict(total).fwd(x, LAW_FUEL) == (            # (ii)
            joined_restricts.fwd(x, LAW_FUEL))
        assert compose(post, total).fwd(x, LAW_FUEL) == (       # (iii)
            join([compose(post, p) for p in parts]).fwd(x, LAW_FUEL))
        pre = dagger(post)
        assert compose(total, pre).bwd(x, LAW_FUEL) == \
            join([compose(p, pre) for p in parts]).bwd(x, LAW_FUEL)    # (iv)
        join_samples += 1

    # Frobenius, speciality, commutativity of duplication
    rng = random.Random(SEED + 6)
    frobenius_samples = 0
    while frobenius_samples < 1000:
        obj = rng.choice(SMALL_OBJS)
        d = delta(obj)
        x = sample_elem(rng, obj, 5)
        assert compose(dagger(d), d).fwd(x, LAW_FUEL) == x            # special
        assert compose(prod_swap(obj, obj), d).fwd(x, LAW_FUEL) == (
            d.fwd(x, LAW_FUEL))                                   # commutative
        alpha = prod_assoc(obj, obj, obj)
        frob_lhs = compose(d, dagger(d))
        frob_rhs = compose_all(otimes(dagger(d), identity(obj)), alpha,
                               otimes(identity(obj), d))
        xy = sample_elem(rng, Prod(obj, obj), 6)
        assert frob_lhs.fwd(xy, LAW_FUEL) == frob_rhs.fwd(xy, LAW_FUEL)
        frobenius_samples += 1

    # dupeq self-adjointness on encoded values
    tbl = SymbolTable.from_names(["Z", "S"])
    dq = dupeq_morphism(tbl)
    rng = random.Random(SEED + 2)
    dupeq_samples = 0
    while dupeq_samples < 1000:
        x = encode_value(random_value(rng, ARITH_VOCAB, 4), tbl)
        assert dq.fwd(x, 10_000) == dq.bwd(x, 10_000)
        dupeq_samples += 1

    # unpack disjointness: sampled over One-lists, plus exhaustive length <= 4
    lone = obj_L(ONE)
    rng = random.Random(SEED + 7)
    unpack_samples = 0
    filters = {n: restrict(unpack(n, ONE)) for n in range(5)}
    while unpack_samples < 1000:
        x = sample_elem(rng, lone, rng.randrange(2, 18))
        n, m = rng.sample(range(5), 2)
        both = compose(filters[n], filters[m])
        assert both.fwd(x, LAW_FUEL) is UNDEF
        unpack_samples += 1
    lists = list(enumerate_elems(lone, 15))
    assert len(lists) >= 5
    for n, m in itertools.combinations(range(5), 2):
        both = compose(filters[n], filters[m])
        for x in lists:
            assert both.fwd(x, LAW_FUEL) is UNDEF

    # trace dagger symmetry on sampled feedback loops
    rng = random.Random(SEED + 3)
    trace_samples = 0
    while trace_samples < 1000:
        f = rng.choice([
            sum_swap(BOOL, BOOL),
            oplus(gen_morphism(rng, BOOL, 2), identity(BOOL)),
            compose(sum_swap(BOOL, BOOL),
                    oplus(identity(BOOL), sum_swap(ONE, ONE))),
        ])
        if not (isinstance(f.tgt, Sum) and f.tgt.right == f.src.right):
            continue
        lhs, rhs = dagger(trace(f)), trace(dagger(f))
        y = sample_elem(rng, lhs.src, 4)
        assert lhs.fwd(y, LAW_FUEL) == rhs.fwd(y, LAW_FUEL)
        trace_samples += 1

    elapsed = time.time() - started
    assert elapsed < 60.0, f"law suite took {elapsed:.2f}s"
    report(4, f"zero violations: {battery_samples} restriction/lemma/iso "
              f"samples (+{exhaustive} exhaustive), {join_samples} join, "
              f"{frobenius_samples} Frobenius/special/commutative, "
              f"{dupeq_samples} dupeq, {unpack_samples} unpack, "
              f"{trace_samples} trace ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 5. Adequacy of the denotational semantics
# ---------------------------------------------------------------------------

def test_acceptance_5_adequacy():
    started = time.time()
    arith = load_program("arith.rfun")
    corpus = [
        (arith, "plus"),
        (arith, "fib"),
        (invert_program(arith), "plus!"),
        (invert_program(arith), "fib!"),
        (load_program("mirror.rfun"), "mirror"),
        (load_program("iseq.rfun"), "dup"),
        (load_program("iseq.rfun"), "iseq"),
        (load_program("extra.rfun"), "sub"),
        (load_program("extra.rfun"), "subsnd"),
        (load_program("extra.rfun"), "swapc"),
        (load_program("extra.rfun"), "bounce"),
    ]
    total_cases = 0
    for prog, entry in corpus:
        rep = check_program(prog, entry, samples=24, seed=SEED,
                            fuel=100_000, depth=5)
        assert rep["mismatches"] == 0, (entry, [
            c for c in rep["cases"] if c["verdict"] == "mismatch"])
        total_cases += len(rep["cases"])
    elapsed = time.time() - started
    assert total_cases >= 5 * 20
    assert elapsed < 120.0, f"adequacy took {elapsed:.2f}s"
    report(5, f"operational and denotational outcomes agree on "
              f"{total_cases} cases across {len(corpus)} corpus entries "
              f"at fuel 1e5 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 6. Fuel monotonicity
# ---------------------------------------------------------------------------

def test_acceptance_6_fuel_monotonicity():
    started = time.time()
    pairs = []
    rng = random.Random(SEED + 6)
    for name, fname, vocab in CORPUS_FUNCTIONS:
        prog = load_program(name)
        tbl = SymbolTable.from_program(prog, extra=[c for c, _ in vocab])
        morph = function_morphism(prog, fname, tbl)
        for _ in range(20):
            pairs.append((prog, fname, morph, tbl, random_value(rng, vocab, 5)))
    assert len(pairs) == 100

    def stable(outcome_at):
        base = outcome_at(16)
        if base["status"] == "out-of-fuel":
            return True
        return outcome_at(32) == base and outcome_at(64) == base

    for prog, fname, morph, tbl, v in pairs:
        assert stable(lambda fu: opsem_outcome(prog, fname, v, fu)), (fname, v)
        assert stable(lambda fu: densem_outcome(morph, v, tbl, fu)), (fname, v)
    elapsed = time.time() - started
    assert elapsed < 30.0, f"monotonicity took {elapsed:.2f}s"
    report(6, f"100 seeded (program, input) pairs stable from fuel 16 to 32 "
              f"and 64 in both semantics ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 7. Divergence
# ---------------------------------------------------------------------------

def test_acceptance_7_divergence():
    started = time.time()
    prog = load_program("loop.rfun")
    tbl = SymbolTable.from_program(prog, extra=["Z"])
    morph = function_morphism(prog, "loop", tbl)

    # interpreter: heap-allocated continuations make 1e6 cheap
    for fuel in (1, 10, 100, 1000, 10_000, 1_000_000):
        r = no_recursion(apply_forward, prog, "loop", val("Z"), fuel=fuel)
        assert r is OUT_OF_FUEL, fuel

    # denotation: its frames live on the heap too
    for fuel in (1, 10, 100, 1000, 10_000, 50_000):
        r = no_recursion(run_denotation, morph, val("Z"), tbl, fuel=fuel)
        assert r is NO_FUEL, fuel

    elapsed = time.time() - started
    assert elapsed < 10.0, f"divergence checks took {elapsed:.2f}s"
    report(7, f"divergent program reports out-of-fuel at every tested fuel "
              f"(interpreter up to 1e6, denotation up to 5e4) ({elapsed:.2f}s)")
