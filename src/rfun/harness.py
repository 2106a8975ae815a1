"""Cross-validation harness: interpreter vs. denotation, case by case.

For a program and an entry function the harness draws seeded, depth-bounded
random inputs over the program's own constructor vocabulary, runs the
operational semantics and the denotational morphism on each, and compares
outcomes.  Statuses correspond as

    value        <->  value (decoded, equal)
    no-match     <->  undefined
    out-of-fuel  <->  out-of-fuel
    violation    <->  violation   (first-match assertion / incompatible join)

The report is plain data with a stable layout: same program, entry, seed and
fuel give byte-identical JSON.
"""
from __future__ import annotations

import random
from typing import Optional

from ._stack import run_deep
from .densem import (
    DEFAULT_FUEL as DEN_FUEL, SymbolTable, function_morphism, run_denotation,
    sem_program,
)
from .invcat import NO_FUEL as DEN_NO_FUEL, IncompatibleJoin, Morph, UNDEF
from .opsem import (
    DEFAULT_FUEL as OP_FUEL, NO_MATCH, OUT_OF_FUEL, FirstMatchViolation,
    apply_forward,
)
from .syntax import LCtor, Program, walk
from .values import TUPLE, Value, render_value


def vocabulary(prog: Program) -> list[tuple[str, int]]:
    """(constructor, arity) pairs in first-occurrence order, guaranteed to
    contain at least one nullary entry so that value generation grounds out."""
    seen: dict[tuple[str, int], None] = {}
    for d in prog.defs:
        for node in walk(d.body):
            if isinstance(node, LCtor):
                seen.setdefault((node.ctor, len(node.args)), None)
    out = list(seen)
    if not any(arity == 0 for _, arity in out):
        out.append((TUPLE, 0))
    return out


def gen_value(rng: random.Random, vocab: list[tuple[str, int]], depth: int) -> Value:
    options = vocab if depth > 0 else [ca for ca in vocab if ca[1] == 0]
    ctor, arity = rng.choice(options)
    return Value(ctor, tuple(gen_value(rng, vocab, depth - 1) for _ in range(arity)))


def opsem_outcome(prog: Program, fname: str, v: Value, fuel: int) -> dict:
    try:
        r = apply_forward(prog, fname, v, fuel)
    except FirstMatchViolation as exc:
        return {"status": "violation", "detail": str(exc)}
    if r is NO_MATCH:
        return {"status": "no-match"}
    if r is OUT_OF_FUEL:
        return {"status": "out-of-fuel"}
    return {"status": "value", "value": render_value(r)}


def densem_outcome(morph: Morph, v: Value, tbl: SymbolTable, fuel: int) -> dict:
    try:
        r = run_denotation(morph, v, tbl, fuel)
    except IncompatibleJoin as exc:
        return {"status": "violation", "detail": str(exc)}
    if r is UNDEF:
        return {"status": "undefined"}
    if r is DEN_NO_FUEL:
        return {"status": "out-of-fuel"}
    return {"status": "value", "value": render_value(r)}


_AGREEING = {
    ("value", "value"),
    ("no-match", "undefined"),
    ("out-of-fuel", "out-of-fuel"),
    ("violation", "violation"),
}


def outcomes_agree(op: dict, den: dict) -> bool:
    if (op["status"], den["status"]) not in _AGREEING:
        return False
    if op["status"] == "value":
        return op["value"] == den["value"]
    return True


def check_function(prog: Program, entry: str, samples: int, seed: int,
                   op_fuel: int = OP_FUEL, den_fuel: int = DEN_FUEL,
                   depth: int = 6,
                   tbl: Optional[SymbolTable] = None,
                   program_morph: Optional[Morph] = None) -> dict:
    """Adequacy report for one entry point; deterministic in the seed."""
    if tbl is None:
        tbl = SymbolTable.from_program(prog)
    morph = function_morphism(prog, entry, tbl, program_morph)
    vocab = vocabulary(prog)
    rng = random.Random(seed)
    inputs = [gen_value(rng, vocab, depth) for _ in range(samples)]

    def work():
        cases = []
        mismatches = 0
        for i, v in enumerate(inputs):
            op = opsem_outcome(prog, entry, v, op_fuel)
            den = densem_outcome(morph, v, tbl, den_fuel)
            verdict = "match" if outcomes_agree(op, den) else "mismatch"
            mismatches += verdict == "mismatch"
            cases.append({"index": i, "input": render_value(v),
                          "opsem": op, "densem": den, "verdict": verdict})
        return cases, mismatches

    cases, mismatches = run_deep(work)
    return {
        "program": None,          # caller fills in the file name
        "entry": entry,
        "seed": seed,
        "fuel": {"opsem": op_fuel, "densem": den_fuel},
        "samples": samples,
        "mismatches": mismatches,
        "cases": cases,
    }


def check_program(prog: Program, entry: Optional[str] = None, samples: int = 50,
                  seed: int = 0, op_fuel: int = OP_FUEL,
                  den_fuel: int = DEN_FUEL, depth: int = 6) -> dict:
    """Reports for one entry, or for every definition when entry is None."""
    tbl = SymbolTable.from_program(prog)
    pm = sem_program(prog, tbl)
    if entry is not None:
        return check_function(prog, entry, samples, seed, op_fuel, den_fuel,
                              depth, tbl, pm)
    reports = [check_function(prog, d.name, samples, seed, op_fuel, den_fuel,
                              depth, tbl, pm)
               for d in prog.defs]
    return {
        "program": None,
        "seed": seed,
        "fuel": {"opsem": op_fuel, "densem": den_fuel},
        "samples": samples,
        "mismatches": sum(r["mismatches"] for r in reports),
        "reports": reports,
    }
