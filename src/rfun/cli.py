"""Command line front end.

    rfun run FILE --entry f --input "S(Z)" [--backward] [--fuel N]
    rfun invert FILE
    rfun check FILE [--entry f] [--samples N] [--seed N] [--fuel N]
                    [--den-fuel N] [--json]

Exit codes for run: 0 the printed value, 2 no match, 3 out of fuel, 1 any
parse, static or runtime fault.  check exits 0 only when every sampled case
agrees between the interpreter and the denotation.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._stack import run_deep
from .densem import DEFAULT_FUEL as DEN_FUEL
from .harness import check_program
from .inverter import invert_program
from .opsem import (
    DEFAULT_FUEL as OP_FUEL, NO_MATCH, OUT_OF_FUEL, RfunRuntimeError,
    apply_backward, apply_forward,
)
from .syntax import (
    ParseError, Program, StaticError, check_static_or_raise, parse_program,
    parse_value, render_program,
)
from .values import render_value

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_NO_MATCH = 2
EXIT_OUT_OF_FUEL = 3


def _load(path: str) -> Program:
    prog = parse_program(Path(path).read_text())
    try:
        return check_static_or_raise(prog)
    except StaticError as exc:
        for v in exc.violations:
            print(f"{path}:{v}", file=sys.stderr)
        raise SystemExit(EXIT_FAULT) from None


def _pick_entry(prog: Program, entry: str | None, path: str) -> str:
    if entry is not None:
        if entry not in prog.checked_defs:
            print(f"{path}: no function named {entry!r}", file=sys.stderr)
            raise SystemExit(EXIT_FAULT)
        return entry
    if len(prog.defs) == 1:
        return prog.defs[0].name
    names = ", ".join(d.name for d in prog.defs)
    print(f"{path}: --entry required (candidates: {names})", file=sys.stderr)
    raise SystemExit(EXIT_FAULT)


def cmd_run(args) -> int:
    prog = _load(args.file)
    entry = _pick_entry(prog, args.entry, args.file)
    try:
        value = parse_value(args.input)
    except ParseError as exc:
        print(f"input: {exc}", file=sys.stderr)
        return EXIT_FAULT
    apply = apply_backward if args.backward else apply_forward
    try:
        result = apply(prog, entry, value, fuel=args.fuel)
    except RfunRuntimeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAULT
    if result is NO_MATCH:
        print("no match", file=sys.stderr)
        return EXIT_NO_MATCH
    if result is OUT_OF_FUEL:
        print("out of fuel", file=sys.stderr)
        return EXIT_OUT_OF_FUEL
    print(render_value(result))
    return EXIT_OK


def cmd_invert(args) -> int:
    prog = _load(args.file)
    sys.stdout.write(render_program(invert_program(prog)))
    return EXIT_OK


def cmd_check(args) -> int:
    prog = _load(args.file)
    if args.entry is not None:
        _pick_entry(prog, args.entry, args.file)
    report = check_program(prog, entry=args.entry, samples=args.samples,
                           seed=args.seed, op_fuel=args.fuel,
                           den_fuel=args.den_fuel)
    report["program"] = args.file
    for sub in report.get("reports", ()):
        sub["program"] = args.file
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        subs = report.get("reports") or [report]
        for sub in subs:
            print(f"{sub['entry']}: {sub['samples']} cases, "
                  f"{sub['mismatches']} mismatches")
            for case in sub["cases"]:
                if case["verdict"] == "mismatch":
                    print(f"  case {case['index']} input {case['input']}: "
                          f"opsem={case['opsem']} densem={case['densem']}")
    return EXIT_OK if report["mismatches"] == 0 else EXIT_FAULT


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rfun",
        description="Run, invert and cross-validate programs of the "
                    "reversible language Rfun.")
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a function on a value")
    run.add_argument("file")
    run.add_argument("--entry", help="function to apply (default: the only one)")
    run.add_argument("--input", required=True, help="value in textual syntax")
    run.add_argument("--backward", action="store_true",
                     help="apply the function's inverse")
    run.add_argument("--fuel", type=int, default=OP_FUEL)
    run.set_defaults(handler=cmd_run)

    inv = sub.add_parser("invert", help="print the syntactic inverse program")
    inv.add_argument("file")
    inv.set_defaults(handler=cmd_invert)

    chk = sub.add_parser("check",
                         help="compare interpreter and denotation on random inputs")
    chk.add_argument("file")
    chk.add_argument("--entry", help="check one function (default: all)")
    chk.add_argument("--samples", type=int, default=50)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--fuel", type=int, default=OP_FUEL,
                     help="interpreter fuel")
    chk.add_argument("--den-fuel", type=int, default=DEN_FUEL,
                     help="denotational fuel")
    chk.add_argument("--json", action="store_true",
                     help="emit the full machine-readable report")
    chk.set_defaults(handler=cmd_check)
    return top


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        code = run_deep(args.handler, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = EXIT_FAULT
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_FAULT
    sys.exit(code)


if __name__ == "__main__":
    main()
