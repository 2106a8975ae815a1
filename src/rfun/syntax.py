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

Values share the concrete syntax of left expressions: a value is a closed
left expression, and ``render_value`` is ``render_left``, the one printer of
both.  ``parse_program`` and ``parse_value`` share one lexer and one reader
of left expressions, which gives both the same errors.  Every pass here is a
loop over an explicit stack, so nesting depth costs heap, not Python stack.
"""
from __future__ import annotations

import re
from functools import partial
from typing import Iterable, Iterator, NoReturn, Optional, Union

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

class _Node:
    """An immutable node: the fields __match_args__ names, and pos, which ==,
    hash and repr leave out unless it is a field.  These three and pickling
    read a node in loops over explicit stacks, so depth costs heap, not
    Python stack; a node equals only nodes of its type.  __init__ and caches
    set slots by _setters."""
    __slots__ = ("pos",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        """Both nodes read in step, in _flat's pre-order, to the first difference."""
        if type(other) is not type(self):
            return NotImplemented
        todo: list = [(self, other)]
        while todo:
            a, b = todo.pop()
            if isinstance(a, _Node) and type(b) is type(a):
                names = a.__match_args__
                a, b = [getattr(a, n) for n in names], [getattr(b, n) for n in names]
            elif type(a) is not tuple or type(b) is not tuple or len(a) != len(b):
                if a != b:              # a field's value, or parts of two shapes
                    return False
                continue
            todo += zip(reversed(a), reversed(b))
        return True

    def __hash__(self) -> int:
        return hash(_flat(self))

    def __repr__(self) -> str:
        return "".join(_flat(self, text=True))

    def __reduce__(self):       # flat, so that deep nodes pickle; caches are derived again
        return _rebuild, (_flat(self, pos=True),)


def _rebuild(parts: tuple) -> _Node:
    """The node whose parts _flat read with positions.  Reversed, they are
    its post-order, last child first: (type, pos) and (tuple, n) take the
    values built last, as many as the type has fields or n."""
    built: list = []
    for part in reversed(parts):
        if type(part) is tuple:
            make, arg = part
            at = len(built) - (arg if make is tuple else len(make.__match_args__))
            args = built[at:][::-1]
            del built[at:]
            part = tuple(args) if make is tuple else make(*args) if arg is None else make(*args, arg)
        built.append(part)
    return built[0]


def _flat(node: _Node, text: bool = False, pos: bool = False) -> tuple:
    """node read pre-order by one loop over an explicit stack: for hash (==
    reads in this order too), each node as its type and then its fields,
    each tuple as its length and then its items; with pos, for pickling,
    each node as (type, pos) and each tuple as (tuple, length); with text,
    the pieces of its repr, which names every field:
    LCtor(ctor='S', args=(LVar(name='x'),))."""
    out: list = []
    todo: list = [node]
    while todo:
        x = todo.pop()
        if isinstance(x, _Node):
            names = x.__match_args__
            parts = [getattr(x, name) for name in names]
            out.append(f"{type(x).__name__}(" if text else (type(x), x.pos) if pos else type(x))
            close = ")"
        elif type(x) is tuple:
            names, parts = (), x
            out.append("(" if text else (tuple, len(x)) if pos else len(x))
            close = ",)" if len(x) == 1 else ")"
        else:                           # a field's value, or a piece of text
            out.append(x)
            continue
        if not text:
            todo += reversed(parts)
            continue
        todo.append(close)
        for i in reversed(range(len(parts))):
            part = parts[i]
            todo += (part if isinstance(part, (_Node, tuple)) else repr(part),
                     (", " if i else "") + (f"{names[i]}=" if names else ""))
    return tuple(out)


def _setters(cls: type) -> list:
    """The setters of the slots cls adds, in order, which get past __setattr__."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class LVar(_Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str, pos: Optional[Pos] = None):
        _set_var_name(self, name)
        _set_pos(self, pos)


class LCtor(_Node):
    __slots__ = __match_args__ = ("ctor", "args")

    def __init__(self, ctor: str, args: tuple["LeftExpr", ...] = (),
                 pos: Optional[Pos] = None):
        _set_ctor(self, ctor)
        _set_args(self, args)
        _set_pos(self, pos)


class LDup(_Node):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: "LeftExpr", pos: Optional[Pos] = None):
        _set_dup_arg(self, arg)
        _set_pos(self, pos)


LeftExpr = Union[LVar, LCtor, LDup]


class ELeaf(_Node):
    __slots__ = __match_args__ = ("left",)

    def __init__(self, left: LeftExpr, pos: Optional[Pos] = None):
        _set_left(self, left)
        _set_pos(self, pos)


class ELet(_Node):
    """``let bound = fname arg in body``, or with backward set ``rlet``, which
    runs the callee backward: from its output, bound, to its argument, arg."""
    __slots__ = __match_args__ = ("bound", "fname", "arg", "body", "backward")

    def __init__(self, bound: LeftExpr, fname: str, arg: LeftExpr, body: "Expr",
                 backward: bool = False, pos: Optional[Pos] = None):
        _set_bound(self, bound)
        _set_fname(self, fname)
        _set_let_arg(self, arg)
        _set_let_body(self, body)
        _set_backward(self, backward)
        _set_pos(self, pos)

    @property
    def uses(self) -> LeftExpr:
        """The side the call consumes: the argument, or an rlet's bound side."""
        return self.bound if self.backward else self.arg

    @property
    def binds(self) -> LeftExpr:
        """The side the call binds: the other one."""
        return self.arg if self.backward else self.bound


class ECase(_Node):
    """A case.  Its arms, derived on first use, hold per branch its pattern,
    its body and the body's leaves, which the symmetric first-match policy
    checks later branches against: derived once per case, with those of
    every case under it (see _fill_arms)."""
    __match_args__ = ("scrutinee", "branches")
    __slots__ = (*__match_args__, "arms")

    def __init__(self, scrutinee: LeftExpr, branches: tuple[tuple[LeftExpr, "Expr"], ...],
                 pos: Optional[Pos] = None):
        _set_scrutinee(self, scrutinee)
        _set_branches(self, branches)
        _set_pos(self, pos)

    def __getattr__(self, name: str) -> tuple[tuple, ...]:
        if name != "arms":
            raise AttributeError(f"'ECase' object has no attribute {name!r}")
        _fill_arms(self)
        return self.arms


Expr = Union[ELeaf, ELet, ECase]


class Def(_Node):
    __slots__ = __match_args__ = ("name", "param", "body")

    def __init__(self, name: str, param: str, body: Expr, pos: Optional[Pos] = None):
        _set_def_name(self, name)
        _set_param(self, param)
        _set_def_body(self, body)
        _set_pos(self, pos)


class Program(_Node):
    """A program, with two caches: checked_defs, and compiled, the
    interpreter's code, which opsem derives on the first run."""
    __match_args__ = ("defs",)
    __slots__ = (*__match_args__, "checked_defs", "compiled")

    def __init__(self, defs: tuple[Def, ...]):
        _set_defs(self, defs)
        _set_pos(self, None)

    def __getattr__(self, name: str) -> dict[str, Def]:
        """checked_defs: name -> definition, for a program that check_static
        accepts.

        The first use runs the static checks and raises StaticError if they
        fail; after that the program counts as checked, so both semantics
        check a program once and then trust its guarantees.  Every case's
        arms are derived here as well.
        """
        if name != "checked_defs":
            raise AttributeError(f"'Program' object has no attribute {name!r}")
        violations = check_static(self)
        if violations:
            raise StaticError(violations)
        for d in self.defs:
            _fill_arms(d.body)          # derived now, not mid-run
        _set_checked_defs(self, {d.name: d for d in self.defs})
        return self.checked_defs


_set_pos, = _setters(_Node)
_set_var_name, = _setters(LVar)
_set_ctor, _set_args = _setters(LCtor)
_set_dup_arg, = _setters(LDup)
_set_left, = _setters(ELeaf)
_set_bound, _set_fname, _set_let_arg, _set_let_body, _set_backward = _setters(ELet)
_set_scrutinee, _set_branches, _set_arms = _setters(ECase)
_set_def_name, _set_param, _set_def_body = _setters(Def)
_set_defs, _set_checked_defs = _setters(Program)[:2]


def _fill_arms(e: Expr) -> tuple[LeftExpr, ...]:
    """The leaves of e, deriving on the way the arms of every case under e in
    one post-order loop, so each body is walked once however deep cases nest."""
    todo: list = [e]
    done: list[tuple[LeftExpr, ...]] = []
    while todo:
        n = todo.pop()
        if type(n) is ELet:
            todo.append(n.body)         # a let's leaves are its body's
        elif type(n) is ELeaf:
            done.append((n.left,))
        elif type(n) is ECase:          # derived once its bodies' leaves are done
            todo += ((n,), *(body for _, body in n.branches))
        else:
            n, = n
            arms, leaves = [], ()
            for pat, body in n.branches:    # the first body's leaves on top
                own = done.pop()
                arms.append((pat, body, own))
                leaves += own
            _set_arms(n, tuple(arms))
            done.append(leaves)
    return done[0]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = {"let", "rlet", "case", "of", "in"}

# The symbols, longest first, and the ASCII one each unicode spelling means.
_ASCII = {"≜": "=:", "→": "->", "⌊": "|_", "⌋": "_|"}
_SYMBOLS = ("=:", "->", "|_", "_|", *_ASCII, "(", ")", "<", ">", "{", "}", ",", ";", "=")

# The lexemes of a text, with whitespace and comments skipped and the end of
# the text read as "".  A word stops before a '_' that precedes '|', so |_x_|
# reads as three lexemes; at most one '!' ends it.  A character no other
# alternative takes is a lexeme of its own, which starts no token.
_LEXEME = re.compile(
    r"[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*([(),<>]|[A-Za-z](?:[A-Za-z0-9']|_(?!\|))*!?|"
    + "|".join(map(re.escape, _SYMBOLS)) + r"|.|\Z)")


class _Lexeme(str):
    """A lexeme of a program, which knows its line and column."""
    pos: Pos


def _lexemes(src: str) -> list[_Lexeme]:
    """The lexemes of src, each with its position."""
    out = []
    line, line_start, newline = 1, 0, src.find("\n")
    for m in _LEXEME.finditer(src):
        offset = m.start(1)
        while 0 <= newline < offset:
            line, line_start, newline = line + 1, newline + 1, src.find("\n", newline + 1)
        out.append(lexeme := _Lexeme(m[1]))
        lexeme.pos = (line, offset - line_start + 1)
    return out


def _error(src: str, toks: list[str], at: int, message: str) -> ParseError:
    """The error for lexeme `at` of src, for either parser.  A lexeme that
    starts no token, or an uppercase word ending in '!', is reported first,
    wherever it is."""
    for j, t in enumerate(toks):
        if t and t not in _SYMBOLS and not (t[0].isascii() and t[0].isalpha()):
            return ParseError(f"unexpected character {t!r}", *_lexemes(src)[j].pos)
        if "A" <= t < "[" and t[-1] == "!":
            return ParseError(f"misplaced '!' in {t!r}", *_lexemes(src)[j].pos)
    return ParseError(message, *_lexemes(src)[at].pos)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_CLOSER_NAMES = {")": "rpar", ">": "gt", "_|": "'_|'"}


def _left(src: str, toks: list[str], i: int, nodes: tuple) -> tuple:
    """The left expression that starts at lexeme i of src, and the index of
    the lexeme after it: the one reader of left expressions, for programs and
    values alike.

    nodes holds ctor(t, args), tup(t, args), var(t) and dup(t, (arg,)), which
    build its nodes, t being a node's first lexeme.  Each open constructor,
    tuple or |_ _| waits on a stack for its arguments, so nesting depth costs
    heap, not Python stack.
    """
    ctor, tup, var, dup = nodes
    opened: list[tuple] = []
    while True:
        t = toks[i]
        i += 1
        if "A" <= t < "[" and t[-1] != "!":     # a constructor: a word from A to Z
            if toks[i] != "(":
                done = ctor(t, ())
            elif toks[i + 1] == ")":
                i += 2
                done = ctor(t, ())
            else:
                i += 1
                opened.append((ctor, t, ")", []))
                continue
        elif t == "<":
            if toks[i] != ">":
                opened.append((tup, t, ">", []))
                continue
            i += 1
            done = tup(t, ())
        elif t == "|_" or t == "⌊":
            opened.append((dup, t, "_|", []))
            continue
        elif "a" <= t < "{" and t not in _KEYWORDS:
            if t[-1] == "!":
                raise _error(src, toks, i - 1, f"{t!r} is not a valid variable")
            done = var(t)
        else:
            raise _error(src, toks, i - 1, f"expected a left expression, found {t!r}")
        while opened:                   # close what `done` completes
            make, first, closer, args = opened[-1]
            args.append(done)
            t = toks[i]
            i += 1
            if t == closer or t == "⌋" and closer == "_|":
                done = make(first, tuple(args))
                opened.pop()
            elif t == "," and closer != "_|":
                break
            else:
                raise _error(src, toks, i - 1, f"expected {_CLOSER_NAMES[closer]}, found {t!r}")
        else:
            return done, i


# The nodes of a program's left expressions, which keep their positions.
_PROGRAM_NODES = (lambda t, args: LCtor(str(t), args, t.pos),
                  lambda t, args: LCtor(TUPLE, args, t.pos),
                  lambda t: LVar(str(t), t.pos),
                  lambda t, args: LDup(args[0], t.pos))


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _lexemes(src)
        self.i = 0

    def peek(self) -> _Lexeme:
        return self.toks[self.i]

    def fail(self, what: str) -> ParseError:
        return _error(self.src, self.toks, self.i, f"expected {what}, found {self.peek()!r}")

    def accept(self, symbol: str) -> bool:
        """Whether the next lexeme is symbol, in either spelling; if so, it is read."""
        t = self.peek()
        if _ASCII.get(t, t) != symbol:
            return False
        self.i += 1
        return True

    def expect(self, symbol: str) -> None:
        if not self.accept(symbol):
            raise self.fail(repr(symbol))

    def name(self) -> str:
        t = self.peek()
        if not ("a" <= t < "{" and t not in _KEYWORDS):
            raise self.fail("a function name")
        self.i += 1
        return str(t)

    def lexpr(self) -> LeftExpr:
        done, self.i = _left(self.src, self.toks, self.i, _PROGRAM_NODES)
        return done

    # -- expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        # Iterative, like _left: an open let (an ELet wanting its body) or case
        # (a list) waits on `opened` for its body or its last pattern's body.
        opened: list = []
        while True:
            t = self.peek()
            if t not in ("let", "rlet", "case"):
                done: Expr = ELeaf(self.lexpr(), pos=t.pos)
                while opened:           # close what `done` completes
                    top = opened[-1]
                    if type(top) is partial:
                        done = top(done)
                    else:
                        top[1][-1] = (top[1][-1], done)
                        if self.accept(";") and self.peek() != "}":
                            break
                        self.expect("}")
                        done = ECase(top[0], tuple(top[1]), pos=top[2])
                    opened.pop()
                else:
                    return done
            elif self.accept("case"):
                scrut = self.lexpr()
                self.expect("of")
                self.expect("{")
                opened.append([scrut, [], t.pos])
            else:
                self.i += 1
                bound = self.lexpr()
                self.expect("=")
                fname = self.name()
                arg = self.lexpr()
                self.expect("in")
                opened.append(partial(ELet, bound, fname, arg, backward=t == "rlet", pos=t.pos))
                continue
            opened[-1][1].append(self.lexpr())      # an open case's next pattern
            self.expect("->")

    # -- definitions and programs ---------------------------------------------

    def program(self) -> list[tuple[str, LeftExpr, Expr, Pos]]:
        defs = []
        while not defs or (self.accept(";") and self.peek()):
            pos = self.peek().pos
            name = self.name()
            param = self.lexpr()
            self.expect("=:")
            defs.append((name, param, self.expr(), pos))
        if self.peek():
            raise self.fail("';' or end of input")
        return defs


def parse_program(src: str) -> Program:
    """Parse and desugar a program.

    Definitions ``f l =: e`` with a non-variable parameter become
    ``f x =: case x of { l -> e }`` for a fresh ``x`` not occurring anywhere
    in the source program.
    """
    raw = _Parser(src).program()
    used: set[str] = set()
    for name, param, body, _ in raw:
        used.add(name)
        for node in (*walk(param), *walk(body)):
            if isinstance(node, LVar):
                used.add(node.name)
            elif isinstance(node, ELet):
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


class _NoValue(Exception):
    """A variable or |_ _| in a value text."""


def _no_value(*_) -> NoReturn:
    raise _NoValue


# The nodes of a value, in which a variable or |_ _| has no place.
_VALUE_NODES = (Value, lambda _, args: Value(TUPLE, args), _no_value, _no_value)


def parse_value(src: str) -> Value:
    """Parse a closed value: constructors and tuples only, no variables.

    One regex scan and the reader of left expressions, building interned
    values.  A text that is no value gets the error the program parser gives
    it as a left expression; a variable or |_ _| in it is reported only if
    the text has no other fault.
    """
    toks = _LEXEME.findall(src)
    try:
        done, i = _left(src, toks, 0, _VALUE_NODES)
    except _NoValue:        # read on as a program would, for a fault that comes first
        toks = _lexemes(src)
        left, i = _left(src, toks, 0, _PROGRAM_NODES)
        done = next(n for n in walk(left) if type(n) is not LCtor)
    if toks[i]:
        raise _error(src, toks, i, f"trailing input {toks[i]!r}")
    if type(done) is LDup:
        raise ParseError("the |_._| operator cannot occur in a value", *done.pos)
    if type(done) is LVar:
        raise ParseError(f"{done.name!r} is a variable; values use uppercase constructors", *done.pos)
    return done


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

    Children come in source order, except that a call visits its argument
    before its bound side.  Symbol tables and harness vocabularies number
    constructors by first occurrence in this order (see constructors).
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
        elif kind is ELet:
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
    """Left expressions in return position, in source order."""
    return [n.left for n in walk(e) if type(n) is ELeaf]


def constructors(prog: Program) -> list[tuple[str, int]]:
    """(constructor, arity) pairs of the bodies, by first occurrence in walk
    order: the numbering of symbol tables and harness vocabularies."""
    return list(dict.fromkeys((n.ctor, len(n.args)) for d in prog.defs
                              for n in walk(d.body) if type(n) is LCtor))


# ---------------------------------------------------------------------------
# Static checks
# ---------------------------------------------------------------------------

class Violation(_Node):
    """A finding of the static checks: unlike an AST node's, its position
    counts in == and hash."""
    __slots__ = ("kind", "message")
    __match_args__ = (*__slots__, "pos")

    def __init__(self, kind: str, message: str, pos: Optional[Pos]):
        _set_kind(self, kind)   # duplicate-function, linearity, unbound-variable, unknown-function
        _set_message(self, message)
        _set_pos(self, pos)

    def __reduce__(self):
        return Violation, (self.kind, self.message, self.pos)

    def __str__(self) -> str:
        where = f"{self.pos[0]}:{self.pos[1]}: " if self.pos else ""
        return f"{where}{self.kind}: {self.message}"


_set_kind, _set_message = _setters(Violation)


class StaticError(Exception):
    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(map(str, violations)))
        self.violations = violations


def check_static(prog: Program) -> list[Violation]:
    """The three reversibility restrictions, plus distinct function names
    and calls to defined functions only.

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
        _check_expr(d.body, {d.param: d.pos}, out, d.name, seen)
    return out


def check_static_or_raise(prog: Program) -> Program:
    """prog, if check_static accepts it; raises StaticError otherwise.  The
    verdict is kept on the program (see Program.checked_defs)."""
    prog.checked_defs  # its first use runs the check
    return prog


def check_expr(e: Expr, free: Iterable[str],
               fnames: Iterable[str]) -> list[Violation]:
    """check_static for one expression whose free variables are `free`, in a
    program defining the functions `fnames`."""
    out: list[Violation] = []
    _check_expr(e, dict.fromkeys(free), out, "expression", fnames)
    return out


def _consume(l: LeftExpr, env: dict[str, Optional[Pos]], out: list[Violation], where: str) -> None:
    for v in _var_nodes(l):
        if v.name in env:
            del env[v.name]
        else:
            out.append(Violation("unbound-variable",
                                 f"variable {v.name!r} is not available in {where!r} "
                                 "(unbound, or already used once)", v.pos))


def _bind(l: LeftExpr, env: dict[str, Optional[Pos]], out: list[Violation],
          where: str, what: str) -> None:
    bound: dict[str, Optional[Pos]] = {}
    for v in _var_nodes(l):
        if v.name in bound:
            out.append(Violation("linearity",
                                 f"variable {v.name!r} bound twice in a pattern of {where!r}",
                                 v.pos))
        bound[v.name] = v.pos
    for name, pos in bound.items():
        if name in env:
            out.append(Violation("linearity",
                                 f"{what} shadows live variable {name!r} in {where!r}", pos))
        env[name] = pos


def _check_expr(e: Expr, env: dict[str, Optional[Pos]], out: list[Violation],
                where: str, fnames) -> None:
    # One loop, in source order; each item owns the variables live at it.
    todo: list = [(e, env)]
    while todo:
        e, env = todo.pop()
        if type(e) is tuple:            # a branch: its pattern binds first
            pat, e = e
            _bind(pat, env, out, where, "pattern")
        if type(e) is ELeaf:
            _consume(e.left, env, out, where)
            for name, pos in env.items():
                out.append(Violation("linearity",
                                     f"variable {name!r} is never used in {where!r}", pos))
        elif type(e) is ELet:
            if e.fname not in fnames:
                out.append(Violation("unknown-function",
                                     f"call of undefined function {e.fname!r} in {where!r}",
                                     e.pos))
            _consume(e.uses, env, out, where)
            _bind(e.binds, env, out, where, "binder")
            todo.append((e.body, env))
        elif type(e) is ECase:
            _consume(e.scrutinee, env, out, where)
            todo += ((branch, dict(env)) for branch in reversed(e.branches))
        else:
            raise TypeError(f"not an expression in {where!r}: {e!r}")


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def render_left(l: Union[LeftExpr, Value]) -> str:
    """Textual form of a left expression or a value: ``x``, ``c``,
    ``c(l1, ..., ln)``, ``<l1, ..., ln>``, ``|_ l _|``.

    Round-trips through the parser.  Iterative, so deep trees never exhaust
    the interpreter stack.
    """
    out: list[str] = []
    todo: list = [l]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
        elif kind is LVar:
            out.append(item.name)
        elif kind is LDup:
            out.append("|_ ")
            todo += (" _|", item.arg)
        else:                           # an LCtor or a Value
            ctor, args = item.ctor, item.args
            if ctor == TUPLE:
                out.append("<")
                todo.append(">")
            elif args:
                out.append(ctor + "(")
                todo.append(")")
            else:
                out.append(ctor)
                continue
            for child in reversed(args):
                todo += (child, ", ")
            if args:
                todo.pop()              # no separator before the first child
    return "".join(out)


render_value = render_left


def render_expr(e: Expr, indent: int = 0) -> str:
    # One loop over a stack of text and (expression, indent) items.
    out: list[str] = []
    todo: list = [(e, indent)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, indent = item
        pad = "  " * indent
        if type(e) is ELeaf:
            out.append(pad + render_left(e.left))
        elif type(e) is ELet:
            kw = "rlet" if e.backward else "let"
            out.append(f"{pad}{kw} {render_left(e.bound)} = {e.fname} {render_left(e.arg)} in\n")
            todo.append((e.body, indent))
        else:
            items: list = [f"{pad}case {render_left(e.scrutinee)} of {{"]
            for pat, body in e.branches:
                head = f"\n{pad}  {render_left(pat)} ->"
                if type(body) is ELeaf and len(leaf := render_left(body.left)) <= 60:
                    items += (f"{head} {leaf}", ";")
                else:
                    items += (head + "\n", (body, indent + 2), ";")
            items[-1] = f"\n{pad}}}"
            todo += reversed(items)
    return "".join(out)


def render_def(d: Def) -> str:
    return f"{d.name} {d.param} =:\n" + render_expr(d.body, 1)


def render_program(prog: Program) -> str:
    return ";\n\n".join(render_def(d) for d in prog.defs) + "\n"
