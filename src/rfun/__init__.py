"""Toolkit for the reversible functional language Rfun.

Parse programs, run them forward and backward, invert them syntactically,
and compile them to fuel-bounded partial injections whose behaviour is
cross-checked against the interpreter.
"""

from .values import TUPLE, Value, dupeq_value, tup, val
from .syntax import (
    Def, ECase, ELeaf, ELet, LCtor, LDup, LVar, ParseError, Program,
    StaticError, check_static, check_static_or_raise, leaves, parse_program,
    parse_value, render_program, render_value,
)
from .opsem import (
    DEFAULT_FUEL, NO_MATCH, OUT_OF_FUEL, FirstMatchViolation,
    RfunRuntimeError, SubstitutionError, UnknownFunction, apply_backward,
    apply_forward, eval_expr, instantiate, match_pattern,
)
from .inverter import alpha_eq, invert_name, invert_program
from .densem import (
    SymbolTable, decode_value, dupeq_morphism, encode_value,
    function_morphism, run_denotation, sem_expr, sem_left, sem_program,
)
from .harness import check_program

__version__ = "0.1.0"


def run_deep(fn, *args, **kwargs):
    """fn(*args, **kwargs): kept for callers of the old big-stack runner."""
    return fn(*args, **kwargs)


__all__ = [
    "TUPLE", "Value", "dupeq_value", "render_value", "tup", "val",
    "Def", "ECase", "ELeaf", "ELet", "LCtor", "LDup", "LVar",
    "ParseError", "Program", "StaticError", "check_static",
    "check_static_or_raise", "leaves", "parse_program", "parse_value",
    "render_program",
    "DEFAULT_FUEL", "NO_MATCH", "OUT_OF_FUEL", "FirstMatchViolation",
    "RfunRuntimeError", "SubstitutionError", "UnknownFunction",
    "apply_backward", "apply_forward", "eval_expr", "instantiate",
    "match_pattern",
    "alpha_eq", "invert_name", "invert_program",
    "SymbolTable", "decode_value", "dupeq_morphism", "encode_value",
    "function_morphism", "run_denotation", "sem_expr", "sem_left",
    "sem_program",
    "check_program", "run_deep",
]
