"""Concrete syntax, parsing, desugaring and the static reversibility checks.

Grammar (ASCII form; the unicode variants in brackets are also accepted):

    program  ::=  def (';' def)* [';']
    def      ::=  fname lexpr '=:' expr                  [=: or U+225C]
    expr     ::=  lexpr
               |  'let'  lexpr '=' fname lexpr 'in' expr
               |  'rlet' lexpr '=' fname lexpr 'in' expr
               |  'case' lexpr 'of' '{' branch (';' branch)* [';'] '}'
    branch   ::=  lexpr '->' expr                        [-> or U+2192]
    lexpr    ::=  var
               |  Ctor | Ctor '(' lexpr (',' lexpr)* ')'
               |  '<' [lexpr (',' lexpr)*] '>'
               |  '|_' lexpr '_|'                        [or U+230A ... U+230B]

Variables and function names start lowercase, constructors uppercase; a
function name may carry a single trailing '!' (the convention used for
inverses).  '--' starts a line comment.  Tuples desugar to the distinguished
constructor, and a definition whose parameter is a pattern rather than a
variable desugars to a one-branch case over a fresh variable.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

from .values import TUPLE, Value

Pos = tuple[int, int]


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LVar:
    name: str
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LCtor:
    ctor: str
    args: tuple["LeftExpr", ...] = ()
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LDup:
    arg: "LeftExpr"
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


LeftExpr = Union[LVar, LCtor, LDup]


@dataclass(frozen=True)
class ELeaf:
    left: LeftExpr
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ELet:
    """``let bound = fname arg in body`` (forward call)."""
    bound: LeftExpr
    fname: str
    arg: LeftExpr
    body: "Expr"
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ERLet:
    """``rlet bound = fname arg in body`` (backward call)."""
    bound: LeftExpr
    fname: str
    arg: LeftExpr
    body: "Expr"
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ECase:
    scrutinee: LeftExpr
    branches: tuple[tuple[LeftExpr, "Expr"], ...]
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)

    @cached_property
    def arms(self) -> tuple[tuple, ...]:
        """Per branch: its pattern, its body, the body's leaves, and the
        leaves of every earlier branch, which the symmetric first-match
        policy checks against.  Derived once per case."""
        out = []
        earlier: tuple[LeftExpr, ...] = ()
        for pat, body in self.branches:
            own = tuple(leaves(body))
            out.append((pat, body, own, earlier))
            earlier += own
        return tuple(out)


Expr = Union[ELeaf, ELet, ERLet, ECase]


@dataclass(frozen=True)
class Def:
    name: str
    param: str
    body: Expr
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Program:
    defs: tuple[Def, ...]

    @cached_property
    def checked_defs(self) -> dict[str, Def]:
        """Name -> definition, for a program that check_static accepts.

        The first use runs the static checks and raises StaticError if they
        fail; after that the program counts as checked, so both semantics
        check a program once and then trust its guarantees.  Every case's
        arms are derived here as well.
        """
        violations = check_static(self)
        if violations:
            raise StaticError(violations)
        for d in self.defs:
            for node in walk(d.body):
                if isinstance(node, ECase):
                    node.arms  # derived now, not mid-run
        return {d.name: d for d in self.defs}

    def index_of(self, fname: str) -> int:
        for i, d in enumerate(self.defs):
            if d.name == fname:
                return i
        raise KeyError(fname)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {"let", "rlet", "case", "of", "in"}

_SYMBOLS = [
    ("=:", "DEFEQ"), ("≜", "DEFEQ"),
    ("->", "ARROW"), ("→", "ARROW"),
    ("|_", "LDUP"), ("_|", "RDUP"),
    ("⌊", "LDUP"), ("⌋", "RDUP"),
    ("(", "LPAR"), (")", "RPAR"),
    ("<", "LT"), (">", "GT"),
    ("{", "LBRACE"), ("}", "RBRACE"),
    (",", "COMMA"), (";", "SEMI"), ("=", "EQ"),
]

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_']*!?")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        for text, kind in _SYMBOLS:
            if src.startswith(text, i):
                toks.append(Token(kind, text, line, col))
                i += len(text)
                col += len(text)
                break
        else:
            m = _IDENT.match(src, i)
            if m is None:
                raise ParseError(f"unexpected character {c!r}", line, col)
            word = m.group(0)
            # Keep '_|' out of a greedy identifier match, so |_x_| lexes.
            while word.endswith("_") and i + len(word) < n and src[i + len(word)] == "|":
                word = word[:-1]
            if word in _KEYWORDS:
                kind = word.upper()
            elif word[0].isupper():
                kind = "UNAME"
            else:
                kind = "LNAME"
            if "!" in word and (kind != "LNAME" or not word.endswith("!") or word.count("!") > 1):
                raise ParseError(f"misplaced '!' in {word!r}", line, col)
            toks.append(Token(kind, word, line, col))
            i += len(word)
            col += len(word)
    toks.append(Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.next()
        if t.kind != kind:
            want = what or kind.lower()
            raise ParseError(f"expected {want}, found {t.text!r}", t.line, t.col)
        return t

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    # -- left expressions ---------------------------------------------------

    def lexpr(self) -> LeftExpr:
        t = self.peek()
        pos = (t.line, t.col)
        if t.kind == "LNAME":
            self.next()
            if t.text.endswith("!"):
                raise ParseError(f"{t.text!r} is not a valid variable", t.line, t.col)
            return LVar(t.text, pos=pos)
        if t.kind == "UNAME":
            self.next()
            args: tuple[LeftExpr, ...] = ()
            if self.peek().kind == "LPAR":
                self.next()
                args = tuple(self.lexpr_list("RPAR"))
                self.expect("RPAR")
            return LCtor(t.text, args, pos=pos)
        if t.kind == "LT":
            self.next()
            args = tuple(self.lexpr_list("GT"))
            self.expect("GT")
            return LCtor(TUPLE, args, pos=pos)
        if t.kind == "LDUP":
            self.next()
            inner = self.lexpr()
            self.expect("RDUP", "'_|'")
            return LDup(inner, pos=pos)
        raise self.fail(f"expected a left expression, found {t.text!r}")

    def lexpr_list(self, closer: str) -> list[LeftExpr]:
        if self.peek().kind == closer:
            return []
        items = [self.lexpr()]
        while self.peek().kind == "COMMA":
            self.next()
            items.append(self.lexpr())
        return items

    # -- expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        t = self.peek()
        pos = (t.line, t.col)
        if t.kind in ("LET", "RLET"):
            self.next()
            bound = self.lexpr()
            self.expect("EQ", "'='")
            fname = self.expect("LNAME", "a function name").text
            arg = self.lexpr()
            self.expect("IN", "'in'")
            body = self.expr()
            cls = ELet if t.kind == "LET" else ERLet
            return cls(bound, fname, arg, body, pos=pos)
        if t.kind == "CASE":
            self.next()
            scrut = self.lexpr()
            self.expect("OF", "'of'")
            self.expect("LBRACE", "'{'")
            branches = [self.branch()]
            while self.peek().kind == "SEMI":
                self.next()
                if self.peek().kind == "RBRACE":
                    break
                branches.append(self.branch())
            self.expect("RBRACE", "'}'")
            return ECase(scrut, tuple(branches), pos=pos)
        left = self.lexpr()
        return ELeaf(left, pos=pos)

    def branch(self) -> tuple[LeftExpr, Expr]:
        pat = self.lexpr()
        self.expect("ARROW", "'->'")
        return (pat, self.expr())

    # -- definitions and programs ---------------------------------------------

    def raw_def(self) -> tuple[str, LeftExpr, Expr, Pos]:
        t = self.expect("LNAME", "a function name")
        param = self.lexpr()
        self.expect("DEFEQ", "'=:'")
        body = self.expr()
        return (t.text, param, body, (t.line, t.col))

    def program(self) -> list[tuple[str, LeftExpr, Expr, Pos]]:
        defs = [self.raw_def()]
        while self.peek().kind == "SEMI":
            self.next()
            if self.peek().kind == "EOF":
                break
            defs.append(self.raw_def())
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"expected ';' or end of input, found {t.text!r}", t.line, t.col)
        return defs


def parse_program(src: str) -> Program:
    """Parse and desugar a program.

    Definitions ``f l =: e`` with a non-variable parameter become
    ``f x =: case x of { l -> e }`` for a fresh ``x`` not occurring anywhere
    in the source program.
    """
    raw = _Parser(tokenize(src)).program()
    used: set[str] = set()
    for name, param, body, _ in raw:
        used.add(name)
        for node in (*walk(param), *walk(body)):
            if isinstance(node, LVar):
                used.add(node.name)
            elif isinstance(node, (ELet, ERLet)):
                used.add(node.fname)
    defs = []
    for name, param, body, pos in raw:
        if isinstance(param, LVar):
            defs.append(Def(name, param.name, body, pos=pos))
        else:
            fresh = _fresh_name(used)
            used.add(fresh)
            desugared = ECase(LVar(fresh, pos=pos), ((param, body),), pos=pos)
            defs.append(Def(name, fresh, desugared, pos=pos))
    return Program(tuple(defs))


def parse_value(src: str) -> Value:
    """Parse a closed value: constructors and tuples only, no variables."""
    p = _Parser(tokenize(src))
    left = p.lexpr()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)

    def conv(l: LeftExpr) -> Value:
        match l:
            case LCtor(ctor, args):
                return Value(ctor, tuple(conv(a) for a in args))
            case LVar(name):
                raise ParseError(
                    f"{name!r} is a variable; values use uppercase constructors",
                    *(l.pos or (1, 1)))
            case LDup():
                raise ParseError("the |_._| operator cannot occur in a value",
                                 *(l.pos or (1, 1)))
        raise AssertionError

    return conv(left)


def _fresh_name(used: set[str]) -> str:
    k = 0
    while f"x{k}" in used:
        k += 1
    return f"x{k}"


# ---------------------------------------------------------------------------
# Traversal and variable bookkeeping
# ---------------------------------------------------------------------------

def walk(node: Union[Expr, LeftExpr]) -> Iterator[Union[Expr, LeftExpr]]:
    """node and every expression and left expression under it, pre-order.

    Children come in source order, except that a let or rlet visits its
    call argument before its binder.  Symbol tables and harness
    vocabularies number constructors by first occurrence in this order.
    """
    todo = [node]
    while todo:
        n = todo.pop()
        yield n
        # Exact type tests: three times faster here than class patterns.
        kind = type(n)
        if kind is LCtor:
            todo.extend(reversed(n.args))
        elif kind is LDup:
            todo.append(n.arg)
        elif kind is ELeaf:
            todo.append(n.left)
        elif kind is ELet or kind is ERLet:
            todo += (n.body, n.bound, n.arg)
        elif kind is ECase:
            for pat, body in reversed(n.branches):
                todo += (body, pat)
            todo.append(n.scrutinee)


def _var_nodes(l: LeftExpr) -> list[LVar]:
    return [n for n in walk(l) if isinstance(n, LVar)]


def lvars(l: LeftExpr) -> list[str]:
    """Variables of a left expression, first-use order, duplicates kept."""
    return [v.name for v in _var_nodes(l)]


def leaves(e: Expr) -> list[LeftExpr]:
    """Left expressions in return position."""
    match e:
        case ELeaf(left):
            return [left]
        case ELet(body=body) | ERLet(body=body):
            return leaves(body)
        case ECase(branches=branches):
            return [l for _, b in branches for l in leaves(b)]
    raise AssertionError


# ---------------------------------------------------------------------------
# Static checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str       # "duplicate-function" | "linearity" | "unbound-variable"
    message: str
    pos: Optional[Pos]

    def __str__(self) -> str:
        where = f"{self.pos[0]}:{self.pos[1]}: " if self.pos else ""
        return f"{where}{self.kind}: {self.message}"


class StaticError(Exception):
    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(map(str, violations)))
        self.violations = violations


def check_static(prog: Program) -> list[Violation]:
    """The three reversibility restrictions, plus distinct function names.

    Patterns are linear, every bound variable is used exactly once, function
    results flow only through let/rlet binders (enforced by the grammar), and
    sharing happens only through the |_._| operator.  Returns the empty list
    when the program is fine.
    """
    out: list[Violation] = []
    seen: dict[str, Def] = {}
    for d in prog.defs:
        if d.name in seen:
            out.append(Violation("duplicate-function",
                                 f"function {d.name!r} defined twice", d.pos))
        seen[d.name] = d
    for d in prog.defs:
        _check_expr(d.body, {d.param: d.pos}, out, d.name)
    return out


def check_static_or_raise(prog: Program) -> Program:
    """prog, if check_static accepts it; raises StaticError otherwise.  The
    verdict is kept on the program (see Program.checked_defs)."""
    prog.checked_defs  # its first use runs the check
    return prog


def check_expr(e: Expr, free: Iterable[str]) -> list[Violation]:
    """check_static for one expression whose free variables are `free`."""
    out: list[Violation] = []
    _check_expr(e, dict.fromkeys(free), out, "expression")
    return out


def _pattern_vars(l: LeftExpr, out: list[Violation], where: str) -> dict[str, Optional[Pos]]:
    bound: dict[str, Optional[Pos]] = {}
    for v in _var_nodes(l):
        if v.name in bound:
            out.append(Violation("linearity",
                                 f"variable {v.name!r} bound twice in a pattern of {where!r}",
                                 v.pos))
        bound[v.name] = v.pos
    return bound


def _consume(l: LeftExpr, env: dict[str, Optional[Pos]], out: list[Violation], where: str) -> None:
    for v in _var_nodes(l):
        if v.name in env:
            del env[v.name]
        else:
            out.append(Violation("unbound-variable",
                                 f"variable {v.name!r} is not available in {where!r} "
                                 "(unbound, or already used once)", v.pos))


def _check_expr(e: Expr, env: dict[str, Optional[Pos]], out: list[Violation], where: str) -> None:
    env = dict(env)
    match e:
        case ELeaf(left):
            _consume(left, env, out, where)
            for name, pos in env.items():
                out.append(Violation("linearity",
                                     f"variable {name!r} is never used in {where!r}", pos))
        case ELet(bound, _, arg, body) | ERLet(bound, _, arg, body):
            # let consumes the call argument and binds the result pattern;
            # rlet consumes the bound side (the callee's output) and binds
            # the callee's argument pattern.
            consumed, fresh_side = (arg, bound) if isinstance(e, ELet) else (bound, arg)
            _consume(consumed, env, out, where)
            fresh = _pattern_vars(fresh_side, out, where)
            for name, pos in fresh.items():
                if name in env:
                    out.append(Violation("linearity",
                                         f"binder shadows live variable {name!r} in {where!r}",
                                         pos))
                env[name] = pos
            _check_expr(body, env, out, where)
        case ECase(scrut, branches):
            _consume(scrut, env, out, where)
            for pat, body in branches:
                branch_env = dict(env)
                fresh = _pattern_vars(pat, out, where)
                for name, pos in fresh.items():
                    if name in branch_env:
                        out.append(Violation("linearity",
                                             f"pattern shadows live variable {name!r} in {where!r}",
                                             pos))
                    branch_env[name] = pos
                _check_expr(body, branch_env, out, where)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def render_left(l: LeftExpr) -> str:
    match l:
        case LVar(name):
            return name
        case LCtor(ctor, args):
            if ctor == TUPLE:
                return "<" + ", ".join(render_left(a) for a in args) + ">"
            if not args:
                return ctor
            return ctor + "(" + ", ".join(render_left(a) for a in args) + ")"
        case LDup(arg):
            return "|_ " + render_left(arg) + " _|"
    raise AssertionError


def render_expr(e: Expr, indent: int = 0) -> str:
    pad = "  " * indent
    match e:
        case ELeaf(left):
            return pad + render_left(left)
        case ELet(bound, fname, arg, body):
            head = f"{pad}let {render_left(bound)} = {fname} {render_left(arg)} in"
            return head + "\n" + render_expr(body, indent)
        case ERLet(bound, fname, arg, body):
            head = f"{pad}rlet {render_left(bound)} = {fname} {render_left(arg)} in"
            return head + "\n" + render_expr(body, indent)
        case ECase(scrut, branches):
            lines = [f"{pad}case {render_left(scrut)} of {{"]
            for i, (pat, body) in enumerate(branches):
                sep = ";" if i != len(branches) - 1 else ""
                rendered = render_expr(body, indent + 2)
                if "\n" in rendered or len(rendered.strip()) > 60:
                    lines.append(f"{pad}  {render_left(pat)} ->\n{rendered}{sep}")
                else:
                    lines.append(f"{pad}  {render_left(pat)} -> {rendered.strip()}{sep}")
            lines.append(pad + "}")
            return "\n".join(lines)
    raise AssertionError


def render_def(d: Def) -> str:
    return f"{d.name} {d.param} =:\n" + render_expr(d.body, 1)


def render_program(prog: Program) -> str:
    return ";\n\n".join(render_def(d) for d in prog.defs) + "\n"
