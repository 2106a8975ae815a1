"""Cross-validation harness: interpreter vs. denotation, case by case.

check_program is the one entry point: for a program, or one entry of it, it
draws seeded, depth-bounded random inputs over the program's own constructor
vocabulary, once, and every definition checked runs on the same samples.
Within one call each sample is encoded once, through one encoding memo, and
each value is rendered once.  On each distinct sample it runs the
operational semantics and the denotational morphism once per definition,
at one fuel (a bound on call depth in both), and compares outcomes: both
are deterministic, so a repeated draw reuses them, and the report still
lists every draw.  Statuses correspond as

    value        <->  value (decoded, equal)
    no-match     <->  undefined
    out-of-fuel  <->  out-of-fuel
    violation    <->  violation   (first-match assertion / incompatible join)

The report is plain data with a stable layout: same program, entry, seed and
fuel give byte-identical JSON.  It also says how many first-match checks each
semantics discharged statically, where the patterns or leaves clash.
"""
from __future__ import annotations

import functools
import random
from typing import Optional

from . import densem, opsem
from .densem import SymbolTable, function_morphism, run_denotation, sem_program
from .invcat import NO_FUEL, UNDEF, IncompatibleJoin, Morph
from .opsem import DEFAULT_FUEL, FirstMatchViolation, apply_forward
from .syntax import Program, constructors, render_value
from .values import TUPLE, Value


def vocabulary(prog: Program) -> list[tuple[str, int]]:
    """(constructor, arity) pairs in first-occurrence order, guaranteed to
    contain at least one nullary entry so that value generation grounds out."""
    out = constructors(prog)
    if not any(arity == 0 for _, arity in out):
        out.append((TUPLE, 0))
    return out


def gen_value(rng: random.Random, vocab: list[tuple[str, int]], depth: int) -> Value:
    options = vocab if depth > 0 else [ca for ca in vocab if ca[1] == 0]
    ctor, arity = rng.choice(options)
    return Value(ctor, tuple(gen_value(rng, vocab, depth - 1) for _ in range(arity)))


def _status(r, undefined_name: str, render) -> dict:
    """Report a Value (rendered), UNDEF (NO_MATCH) or NO_FUEL (OUT_OF_FUEL)."""
    if r is UNDEF:
        return {"status": undefined_name}
    if r is NO_FUEL:
        return {"status": "out-of-fuel"}
    return {"status": "value", "value": render(r)}


def opsem_outcome(prog: Program, fname: str, v: Value, fuel: int,
                  render=render_value) -> dict:
    try:
        r = apply_forward(prog, fname, v, fuel)
    except FirstMatchViolation as exc:
        return {"status": "violation", "detail": str(exc)}
    return _status(r, "no-match", render)


def densem_outcome(morph: Morph, v: Value, tbl: SymbolTable, fuel: int,
                   memo: Optional[dict] = None, render=render_value) -> dict:
    """memo is encode_value's, so that v is encoded once across calls."""
    try:
        r = run_denotation(morph, v, tbl, fuel, memo)
    except IncompatibleJoin as exc:
        return {"status": "violation", "detail": str(exc)}
    return _status(r, "undefined", render)


_AGREEING = {"value": "value", "no-match": "undefined",
             "out-of-fuel": "out-of-fuel", "violation": "violation"}


def outcomes_agree(op: dict, den: dict) -> bool:
    return (_AGREEING[op["status"]] == den["status"]
            and op.get("value") == den.get("value"))


def check_program(prog: Program, entry: Optional[str] = None, samples: int = 50,
                  seed: int = 0, fuel: int = DEFAULT_FUEL,
                  den_fuel: Optional[int] = None, depth: int = 6) -> dict:
    """Reports for one entry, or for every definition when entry is None,
    with the first-match checks each semantics discharged statically.  The
    samples are drawn once and shared by every definition checked; within
    the call each is encoded once (one encoding memo) and each value is
    rendered once (values are interned, so the caches key by identity).
    Each distinct sample runs once per definition in each semantics; every
    later draw of it gets copies of those outcomes, and is still a case of
    its own.  den_fuel, kept for positional callers, must be None or fuel."""
    if den_fuel not in (None, fuel):
        raise ValueError(f"one fuel meters both semantics, not {fuel} and {den_fuel}")
    tbl = SymbolTable.from_program(prog)
    pm = sem_program(prog, tbl)
    discharged = {"opsem": opsem.discharged(prog), "densem": densem.discharged(prog)}
    entries = [d.name for d in prog.defs] if entry is None else [entry]
    morphs = [function_morphism(prog, e, tbl, pm) for e in entries]
    vocab = vocabulary(prog)
    rng = random.Random(seed)
    inputs = [gen_value(rng, vocab, depth) for _ in range(samples)]
    memo: dict = {}
    render = functools.cache(render_value)
    reports = []
    for e, morph in zip(entries, morphs):
        cases = []
        mismatches = 0
        first: dict = {}                # a sample's outcomes, from its first draw
        for i, v in enumerate(inputs):
            if v in first:
                op, den = map(dict, first[v])
            else:
                op, den = first[v] = (opsem_outcome(prog, e, v, fuel, render),
                                      densem_outcome(morph, v, tbl, fuel, memo, render))
            agree = outcomes_agree(op, den)
            mismatches += not agree
            cases.append({"index": i, "input": render(v), "opsem": op, "densem": den,
                          "verdict": "match" if agree else "mismatch"})
        reports.append({"program": None,          # caller fills in the file name
                        "entry": e, "seed": seed, "fuel": fuel, "samples": samples,
                        "mismatches": mismatches, "cases": cases})
    if entry is not None:
        return {**reports[0], "discharged": discharged}
    return {
        "program": None,
        "seed": seed,
        "fuel": fuel,
        "samples": samples,
        "mismatches": sum(r["mismatches"] for r in reports),
        "discharged": discharged,
        "reports": reports,
    }
