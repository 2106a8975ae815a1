"""The benchmark's workloads: which programs each loads and which ops it runs.

An *op* is one call sequence named as in the CLI, on one input, with the
output a plain-Python reference (``refs``) says it must give.  ``run`` ops go
through the interpreter (``parse_value``, ``apply_forward`` or
``apply_backward``, ``render_value``); ``den`` ops through the denotation
(``parse_value``, ``run_denotation`` on the function's morphism or its
dagger, ``render_value``).  A backward op's input is the forward reference
output and its expected output is the forward input.

Every workload also loads (set-up), checks (``check_program``) and inverts
(``invert_program`` + ``render_program``) each of its programs, so each
end-to-end metric is measured, and is never zero, on every workload.  Where
a seed draws a size that drives cost, it draws an antithetic pair whose sizes
sum to a constant: inputs change with the seed, the amount of work does not.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import refs
from refs import OUT_OF_FUEL, num_text, pair_text, text, tup

# Fuel of the check op, on both sides.  Well below the CLI defaults
# (10^4 / 10^5): at the default denotational fuel `loop` raises
# RecursionError (see README), and at 2,000 the divergent cases take most
# of a corpus pass.
CHECK_FUEL = 200
CHECK_SAMPLES = 100

OP_FUEL = 10_000        # interpreter default (opsem.DEFAULT_FUEL)
DEN_FUEL = 100_000      # denotation default (densem.DEFAULT_FUEL)
# `loop` runs LOOP_OPS times per pass and semantics, for 10^5 interpreter
# applications and 5x10^4 denotational unfoldings in all.  Ten short ops
# rather than one long one, so each has samples that fall in one phase of
# the host's speed (see README).
LOOP_OPS = 10
LOOP_RUN_FUEL = 10_000
LOOP_DEN_FUEL = 5_000


@dataclass(frozen=True)
class Op:
    kind: str           # "run" (interpreter) or "den" (denotation)
    backward: bool
    prog: str           # fixture stem
    entry: str
    text: str           # input value
    want: str           # expected rendered output, or refs.OUT_OF_FUEL
    family: str         # for the per-family figures
    size: int           # ladder rung; 0 when not on a ladder
    apps: int           # interpreter applications, derived from the input
    unfolds: int        # fixed-point unfoldings for chain recursions, else 0
    fuel: int

    @property
    def metric(self) -> str:
        return f"{self.kind}_{'bwd' if self.backward else 'fwd'}_s"


@dataclass
class Workload:
    name: str
    programs: list[str]          # fixture stems, loaded in this order
    setup_reps: int              # loads of every program per pass
    invert_reps: int             # inversions of every program per pass
    ops: list[Op] = field(default_factory=list)


def _both_ways(kinds, prog, entry, pairs, family, fuel_by_kind):
    """Forward and backward ops of each kind for (input, output, size, apps,
    unfolds) tuples."""
    out = []
    for kind in kinds:
        fuel = fuel_by_kind[kind]
        for backward in (False, True):
            for x, y, size, apps, unfolds in pairs:
                # a divergent op diverges both ways on the same input
                src, dst = (y, x) if backward and y != OUT_OF_FUEL else (x, y)
                out.append(Op(kind, backward, prog, entry, src, dst, family,
                              size, apps, unfolds, fuel))
    return out


def _antithetic(rng: random.Random, n: int, lo: int | None = None) -> tuple[int, int]:
    """Two draws from [lo, n] (lo defaults to n/2) with a constant sum."""
    lo = n // 2 if lo is None else lo
    a = rng.randint(lo, n)
    return a, lo + n - a


FUELS = {"run": OP_FUEL, "den": DEN_FUEL}

# ---------------------------------------------------------------------------
# peano: deep numerals, where value equality dominates
# ---------------------------------------------------------------------------

PLUS_RUN = (12, 25, 50, 100, 200)
PLUS_DEN = (12, 25, 50)
FIB_RUN = (2, 4, 6, 8, 10)
FIB_DEN = (2, 4, 6)


def _plus_pairs(rng, sizes):
    pairs = []
    for n in sizes:
        for a in _antithetic(rng, n):
            pairs.append((pair_text(a, n), pair_text(a, a + n), n, n + 1, n))
    return pairs


def _fib_pairs(sizes):
    return [(num_text(n), pair_text(*refs.fibs(n)), n, refs.fib_apps(n), 0)
            for n in sizes]


def peano(seed: int) -> Workload:
    rng = random.Random(seed)
    plus = _plus_pairs(rng, PLUS_RUN)
    den_plus = [p for p in plus if p[2] in PLUS_DEN]
    fib = _fib_pairs(FIB_RUN)
    den_fib = [p for p in fib if p[2] in FIB_DEN]
    ops = (_both_ways(["run"], "arith", "plus", plus, "plus", FUELS)
           + _both_ways(["run"], "arith", "fib", fib, "fib", FUELS)
           + _both_ways(["den"], "arith", "plus", den_plus, "plus", FUELS)
           + _both_ways(["den"], "arith", "fib", den_fib, "fib", FUELS))
    return Workload("peano", ["arith"], setup_reps=12, invert_reps=100, ops=ops)


# ---------------------------------------------------------------------------
# shallow: wide trees and a divergent loop, where dispatch dominates
# ---------------------------------------------------------------------------

MIRROR_RUN = (31, 63, 127, 255, 511)     # Nodes per tree
MIRROR_DEN = (31, 63, 127)


def shallow(seed: int) -> Workload:
    rng = random.Random(seed)
    mirror = []
    for inner in MIRROR_RUN:
        t = refs.random_tree(rng, inner)
        nodes = 2 * inner + 1
        mirror.append((text(t), text(refs.mirror(t)), nodes, nodes, 0))
    den_mirror = [p for p in mirror if (p[2] - 1) // 2 in MIRROR_DEN]
    loop_in = text(tup())
    ops = (_both_ways(["run"], "mirror", "mirror", mirror, "mirror", FUELS)
           + _both_ways(["den"], "mirror", "mirror", den_mirror, "mirror", FUELS)
           + [Op("run", False, "loop", "loop", loop_in, OUT_OF_FUEL, "loop",
                 0, LOOP_RUN_FUEL, 0, LOOP_RUN_FUEL)] * LOOP_OPS
           + [Op("den", False, "loop", "loop", loop_in, OUT_OF_FUEL, "loop",
                 0, 0, LOOP_DEN_FUEL, LOOP_DEN_FUEL)] * LOOP_OPS)
    return Workload("shallow", ["mirror", "loop"], setup_reps=12,
                    invert_reps=150, ops=ops)


# ---------------------------------------------------------------------------
# corpus: every fixture, every entry, small inputs
# ---------------------------------------------------------------------------

CORPUS = ["arith", "arith_inv", "bad_first_match", "extra", "id", "iseq",
          "loop", "mirror", "plus_sugared"]
CORPUS_INPUTS = 8        # inputs per entry and direction


def _corpus_entries(rng: random.Random):
    """(prog, entry, family, [(input, output, apps, unfolds)]) for every entry
    of every fixture; references in plain Python."""
    k = CORPUS_INPUTS
    plus, plus_inv, sub, subsnd, swap, bounce = [], [], [], [], [], []
    for j in range(k // 2):
        b = j + 2
        for a in _antithetic(rng, 2 * b, lo=0):
            plus.append((pair_text(a, b), pair_text(a, a + b), b + 1, b))
            plus_inv.append((pair_text(a, a + b), pair_text(a, b), b + 1, b))
            sub.append((pair_text(a, a + b), pair_text(a, b), b + 2, 0))
            c = rng.randint(0, 6)
            subsnd.append((f"<{num_text(c)}, {pair_text(a, a + b)}>",
                           f"<{num_text(c)}, {pair_text(a, b)}>", b + 2, 0))
            swap.append((pair_text(a, b), pair_text(b, a), 1, 0))
            bounce.append((num_text(a), num_text(a), a + 1, a))
    fib = [(num_text(n), pair_text(*refs.fibs(n)), refs.fib_apps(n), 0)
           for n in range(k)]
    fib_inv = [(y, x, apps, 0) for x, y, apps, _ in fib]
    tuple_vocab = [(refs.TUPLE, 0), (refs.TUPLE, 1), (refs.TUPLE, 2)]
    iseq_vocab = [(refs.TUPLE, 0), (refs.TUPLE, 2), ("Same", 1), ("Diff", 2)]
    ids, dups, iseqs, mirrors = [], [], [], []
    for i in range(k):
        v = refs.random_value(rng, tuple_vocab, 3 + 2 * i)
        ids.append((text(v), text(v), 1, 0))
        w = refs.random_value(rng, iseq_vocab, 3 + 2 * i)
        dups.append((text(w), text(tup(w, w)), 1, 0))
        if i % 2:
            iseqs.append((text(tup(w, w)), text(("Same", (w,))), 1, 0))
        else:
            u = refs.random_value(rng, iseq_vocab, 2 + 2 * i)
            iseqs.append((text(tup(w, u)), text(("Diff", (w, u))), 1, 0))
        t = refs.random_tree(rng, 2 + 2 * i)
        mirrors.append((text(t), text(refs.mirror(t)), refs.size(t), 0))
    loop = [(text(tup()), OUT_OF_FUEL, CHECK_FUEL, CHECK_FUEL)]
    return [
        ("arith", "plus", "plus", plus),
        ("arith", "fib", "fib", fib),
        ("arith_inv", "plus!", "plus", plus_inv),
        ("arith_inv", "fib!", "fib", fib_inv),
        ("bad_first_match", "bad", "other", [("Z", "A", 1, 0)]),
        ("extra", "plus", "plus", plus),
        ("extra", "sub", "plus", sub),
        ("extra", "subsnd", "plus", subsnd),
        ("extra", "swapc", "other", swap),
        ("extra", "bounce", "bounce", bounce),
        ("extra", "bounce'", "bounce", bounce),
        ("id", "f", "other", ids),
        ("iseq", "dup", "other", dups),
        ("iseq", "iseq", "other", iseqs),
        ("loop", "loop", "loop", loop),
        ("mirror", "mirror", "mirror", mirrors),
        ("plus_sugared", "plus", "plus", plus),
    ]



def corpus(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    fuels = {"run": CHECK_FUEL, "den": CHECK_FUEL}
    for prog, entry, family, cases in _corpus_entries(rng):
        pairs = [(x, y, 0, apps, unfolds) for x, y, apps, unfolds in cases]
        ops += _both_ways(["run", "den"], prog, entry, pairs, family, fuels)
    # The dagger of `bad` raises IncompatibleJoin on A (the adequacy defect);
    # it is a probe in run.py, not a timed op.
    ops = [op for op in ops
           if not (op.entry == "bad" and op.kind == "den" and op.backward)]
    return Workload("corpus", list(CORPUS), setup_reps=3, invert_reps=30,
                    ops=ops)


WORKLOADS = {"peano": peano, "shallow": shallow, "corpus": corpus}
