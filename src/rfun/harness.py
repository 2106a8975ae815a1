"""Cross-validation harness: interpreter vs. denotation, case by case.

For a program the harness draws seeded, depth-bounded random inputs over the
program's own constructor vocabulary, once: every definition checked (or the
one entry) runs on the same samples.  Within one call each sample is encoded
once, through one encoding memo, and each value is rendered once.  On each
sample it runs the operational semantics and the denotational morphism at
one fuel (a bound on call depth in both) and compares outcomes.  Statuses
correspond as

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


class _Texts(dict):
    """Values' renderings, each rendered once.  Values are interned, so one
    value, and one text, stands for all that are equal: an input checked
    against every definition, or a result both semantics agree on."""

    def __missing__(self, v: Value) -> str:
        text = self[v] = render_value(v)
        return text


_AGREEING = {"value": "value", "no-match": "undefined",
             "out-of-fuel": "out-of-fuel", "violation": "violation"}


def outcomes_agree(op: dict, den: dict) -> bool:
    return (_AGREEING[op["status"]] == den["status"]
            and op.get("value") == den.get("value"))


def _reports(prog: Program, entries: list[str], samples: int, seed: int,
             fuel: int, depth: int, tbl: SymbolTable, pm: Optional[Morph]) -> list[dict]:
    """One adequacy report per entry, all on the same samples, drawn once.
    Each sample is encoded once (one encoding memo for the call) and each
    value rendered once."""
    morphs = [function_morphism(prog, entry, tbl, pm) for entry in entries]
    vocab = vocabulary(prog)
    rng = random.Random(seed)
    inputs = [gen_value(rng, vocab, depth) for _ in range(samples)]
    memo: dict = {}
    render = _Texts().__getitem__
    reports = []
    for entry, morph in zip(entries, morphs):
        cases = []
        mismatches = 0
        for i, v in enumerate(inputs):
            op = opsem_outcome(prog, entry, v, fuel, render)
            den = densem_outcome(morph, v, tbl, fuel, memo, render)
            verdict = "match" if outcomes_agree(op, den) else "mismatch"
            mismatches += verdict == "mismatch"
            cases.append({"index": i, "input": render(v),
                          "opsem": op, "densem": den, "verdict": verdict})
        reports.append({
            "program": None,          # caller fills in the file name
            "entry": entry,
            "seed": seed,
            "fuel": fuel,
            "samples": samples,
            "mismatches": mismatches,
            "cases": cases,
        })
    return reports


def check_function(prog: Program, entry: str, samples: int, seed: int,
                   fuel: int = DEFAULT_FUEL, depth: int = 6,
                   tbl: Optional[SymbolTable] = None,
                   program_morph: Optional[Morph] = None) -> dict:
    """Adequacy report for one entry point; deterministic in the seed."""
    if tbl is None:
        tbl = SymbolTable.from_program(prog)
    return _reports(prog, [entry], samples, seed, fuel, depth, tbl, program_morph)[0]


def check_program(prog: Program, entry: Optional[str] = None, samples: int = 50,
                  seed: int = 0, fuel: int = DEFAULT_FUEL,
                  den_fuel: Optional[int] = None, depth: int = 6) -> dict:
    """Reports for one entry, or for every definition when entry is None,
    with the first-match checks each semantics discharged statically.  The
    samples are drawn once and shared by every definition checked.
    den_fuel, kept for positional callers, must be None or fuel."""
    if den_fuel not in (None, fuel):
        raise ValueError(f"one fuel meters both semantics, not {fuel} and {den_fuel}")
    tbl = SymbolTable.from_program(prog)
    pm = sem_program(prog, tbl)
    discharged = {"opsem": opsem.discharged(prog), "densem": densem.discharged(prog)}
    entries = [d.name for d in prog.defs] if entry is None else [entry]
    reports = _reports(prog, entries, samples, seed, fuel, depth, tbl, pm)
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
