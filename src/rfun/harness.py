"""Cross-validation harness: interpreter vs. denotation, case by case.

For a program and an entry function the harness draws seeded, depth-bounded
random inputs over the program's own constructor vocabulary, runs the
operational semantics and the denotational morphism on each at one fuel (a
bound on call depth in both), and compares outcomes.  Statuses correspond as

    value        <->  value (decoded, equal)
    no-match     <->  undefined
    out-of-fuel  <->  out-of-fuel
    violation    <->  violation   (first-match assertion / incompatible join)

The report is plain data with a stable layout: same program, entry, seed and
fuel give byte-identical JSON.  It also says how many first-match checks each
semantics discharged statically, where the patterns or leaves clash.
"""
from __future__ import annotations

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


def _status(r, undefined_name: str) -> dict:
    """Report a Value, UNDEF (NO_MATCH) or NO_FUEL (OUT_OF_FUEL)."""
    if r is UNDEF:
        return {"status": undefined_name}
    if r is NO_FUEL:
        return {"status": "out-of-fuel"}
    return {"status": "value", "value": render_value(r)}


def opsem_outcome(prog: Program, fname: str, v: Value, fuel: int) -> dict:
    try:
        r = apply_forward(prog, fname, v, fuel)
    except FirstMatchViolation as exc:
        return {"status": "violation", "detail": str(exc)}
    return _status(r, "no-match")


def densem_outcome(morph: Morph, v: Value, tbl: SymbolTable, fuel: int) -> dict:
    try:
        r = run_denotation(morph, v, tbl, fuel)
    except IncompatibleJoin as exc:
        return {"status": "violation", "detail": str(exc)}
    return _status(r, "undefined")


_AGREEING = {"value": "value", "no-match": "undefined",
             "out-of-fuel": "out-of-fuel", "violation": "violation"}


def outcomes_agree(op: dict, den: dict) -> bool:
    return (_AGREEING[op["status"]] == den["status"]
            and op.get("value") == den.get("value"))


def check_function(prog: Program, entry: str, samples: int, seed: int,
                   fuel: int = DEFAULT_FUEL, depth: int = 6,
                   tbl: Optional[SymbolTable] = None,
                   program_morph: Optional[Morph] = None) -> dict:
    """Adequacy report for one entry point; deterministic in the seed."""
    if tbl is None:
        tbl = SymbolTable.from_program(prog)
    morph = function_morphism(prog, entry, tbl, program_morph)
    vocab = vocabulary(prog)
    rng = random.Random(seed)
    inputs = [gen_value(rng, vocab, depth) for _ in range(samples)]
    cases = []
    mismatches = 0
    for i, v in enumerate(inputs):
        op = opsem_outcome(prog, entry, v, fuel)
        den = densem_outcome(morph, v, tbl, fuel)
        verdict = "match" if outcomes_agree(op, den) else "mismatch"
        mismatches += verdict == "mismatch"
        cases.append({"index": i, "input": render_value(v),
                      "opsem": op, "densem": den, "verdict": verdict})
    return {
        "program": None,          # caller fills in the file name
        "entry": entry,
        "seed": seed,
        "fuel": fuel,
        "samples": samples,
        "mismatches": mismatches,
        "cases": cases,
    }


def check_program(prog: Program, entry: Optional[str] = None, samples: int = 50,
                  seed: int = 0, fuel: int = DEFAULT_FUEL,
                  den_fuel: Optional[int] = None, depth: int = 6) -> dict:
    """Reports for one entry, or for every definition when entry is None,
    with the first-match checks each semantics discharged statically.
    den_fuel, kept for positional callers, must be None or fuel."""
    if den_fuel not in (None, fuel):
        raise ValueError(f"one fuel meters both semantics, not {fuel} and {den_fuel}")
    tbl = SymbolTable.from_program(prog)
    pm = sem_program(prog, tbl)
    discharged = {"opsem": opsem.discharged(prog), "densem": densem.discharged(prog)}
    if entry is not None:
        return {**check_function(prog, entry, samples, seed, fuel, depth, tbl, pm),
                "discharged": discharged}
    reports = [check_function(prog, d.name, samples, seed, fuel, depth, tbl, pm)
               for d in prog.defs]
    return {
        "program": None,
        "seed": seed,
        "fuel": fuel,
        "samples": samples,
        "mismatches": sum(r["mismatches"] for r in reports),
        "discharged": discharged,
        "reports": reports,
    }
