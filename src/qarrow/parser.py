"""Lexer and recursive-descent parser for the surface language.

Surface forms::

    name [: type] = term         -- one definition per clause; the signature
                                 -- may instead stand on a line of its own
    \\x. M                        -- function abstraction (patterns allowed)
    \\@x. Q    or   \\•x. Q        -- arrow abstraction over a command
    (M, N, ...)                  -- tuple, nested to the right (so are
                                 -- tuple patterns and tuple types)
    [M]                          -- unit (term level or command level)
    let p = M in N               -- let (term or command level by context)
    f @ x      or   f • x        -- arrow application (command level)
    meas M, trL M                -- measurement / left partial trace commands;
                                 -- an optional @ may follow the keyword
    M + N, M - N, c * M          -- vector arithmetic; c is a complex literal
                                 -- or invsqrt2
    mzero, True, False, fst, snd, ==, if/then/else
    Bool, Vec A, Lin A B, Super A B, A -> B    -- types
    -- comment to end of line

Complex literals are written without spaces: ``0.5``, ``2.0i``, ``0.5-0.5i``.
There is no exponent notation, and a literal too large for a float is a
parse error at its position.  A leading minus makes a literal negative
where no operand precedes it; it negates only the real part of a two-part
literal.

The lexer is one compiled pattern, run over the source by ``finditer``: at
each offset it skips blanks (spaces, tabs, carriage returns) and reads one
token class, whose name ``lastgroup`` gives.  Keywords are names found in
``KEYWORDS``; symbols map to their kind through ``_SYMBOLS``.  The one
context-dependent rule, the negative literal, is settled in the loop from
the kind of the token before it.  Names and digits are ASCII: any other
character is an "unexpected character" error at its position.  Lines count
``\\n`` only, and columns count characters from 1.

The scan makes each token a plain tuple ``(kind, text, line, col)`` and
ends the list in an EOF token.  A parse makes a token for every few bytes
of source.  CPython's cyclic collector stops tracking a plain tuple of
strings and ints at the first collection it survives, but tracks a
``NamedTuple`` (such as ``Token`` or ``Pos``) for as long as it lives, and
every tracked object makes each later collection longer.  So the parser
keeps the source name once and makes a ``Pos`` only for a node it builds
or an error it raises.  ``tokenize`` is the public view of the same
scan: one ``Token`` (kind, text, ``Pos``) per token.  The parser reads the
scan's list with a second EOF appended, so it can look one token ahead
anywhere without a bounds check.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional

from .syntax import (App, ArrowAbs, BoolLit, BoolT, CApp, CLet, CUnit, Command,
                     Def, Eq, Fst, FunT, If, Lam, Let, lin_type, Meas,
                     MZero, Pair, Pattern, pattern_names, PPair, Pos, ProdT,
                     Program, PVar, QarrowError, Snd, SuperT, Term,
                     TrL, TypeExpr, Var, VecAdd, VecScale, VecSub, VecT,
                     VecUnit)

INV_SQRT2 = 2 ** -0.5


class ParseError(QarrowError, SyntaxError):
    """A parse error.  It is also a ``SyntaxError``, so callers that catch
    Python's own parse failures catch it too."""


KEYWORDS = {
    "let", "in", "if", "then", "else", "True", "False", "fst", "snd",
    "meas", "trL", "mzero", "invsqrt2",
    "Bool", "Vec", "Lin", "Super",
}

# Tokens that can end an operand; a `-` right after one of these is the
# subtraction operator, anywhere else it starts a negative scalar literal.
_OPERAND_END = {"NAME", "NUM", ")", "]", "True", "False", "mzero", "invsqrt2"}

# Symbol text -> token kind.  The bullet is another spelling of `@`.
_SYMBOLS = {"\\@": "\\@", "\\•": "\\@", "==": "==", "->": "->", "•": "@",
            **{c: c for c in "()[].,=:+-*@\\"}}

_NUM = r"[0-9]+(?:\.[0-9]+)?(?:[+-][0-9]+(?:\.[0-9]+)?i|i)?"

# Blanks, then one alternative per token class, tried in this order: a `--`
# comment before a negative literal before the symbol `-`, and two-character
# symbols before one.  OTHER matches any other character but a blank, so the
# matches tile the source up to its trailing blanks, and a character no
# class reads is an error.
_TOKEN_RE = re.compile(r"[ \t\r]*(?:" + "|".join(
    f"(?P<{cls}>{pattern})" for cls, pattern in [
        ("NEWLINE", r"\n"),
        ("COMMENT", r"--[^\n]*"),
        ("NUM", _NUM),
        ("NAME", r"[A-Za-z_][A-Za-z0-9_']*"),
        ("NEG", "-" + _NUM),
        ("SYMBOL", "|".join(map(re.escape, sorted(_SYMBOLS, key=len,
                                                   reverse=True)))),
        ("OTHER", r"[^ \t\r]"),
    ]) + ")")


class Token(NamedTuple):
    kind: str          # NAME, NUM, or the symbol/keyword itself
    text: str
    pos: Pos


# Builds a Pos from the tuple of its fields, without the Python frame of a
# NamedTuple's own constructor.
_make = tuple.__new__


def _scan(src: str, source: str) -> list[tuple[str, str, int, int]]:
    """The tokens of `src` as plain ``(kind, text, line, col)`` tuples,
    ending in an EOF token; `source` names the file in an error."""
    toks: list[tuple[str, str, int, int]] = []
    append = toks.append
    line, start = 1, 0          # the current line's number and offset
    m = None
    for m in _TOKEN_RE.finditer(src):
        cls = m.lastgroup
        if cls == "NEWLINE":
            line += 1
            start = m.end()
            continue
        if cls == "COMMENT":
            continue
        text = m.group(cls)
        col = m.start(cls) - start + 1
        if cls == "NAME":
            kind = text if text in KEYWORDS else "NAME"
        elif cls == "SYMBOL":
            kind = _SYMBOLS[text]
        elif cls == "NUM":
            kind = "NUM"
        elif cls == "NEG":
            # A minus immediately before digits where no operand precedes is
            # a negative scalar literal, not the subtraction operator.
            kind = "NUM"
            if toks and toks[-1][0] in _OPERAND_END:
                append(("-", "-", line, col))
                text = text[1:]
                col += 1
        else:
            raise ParseError(f"unexpected character {text!r}",
                             Pos(line, col, source))
        append((kind, text, line, col))
    # The end is after the last line's blanks but before its comment.
    end = len(src)
    if m is not None and m.lastgroup == "COMMENT":
        end = m.start("COMMENT")
    append(("EOF", "", line, end - start + 1))
    return toks


def tokenize(src: str, source: str = "<input>") -> list[Token]:
    """The tokens of `src`, each with its position, ending in an EOF token."""
    return [Token(kind, text, Pos(line, col, source))
            for kind, text, line, col in _scan(src, source)]


def _parse_scalar(text: str) -> complex:
    # A leading minus negates only the real part of "a+bi" / "a-bi", as
    # complex() reads it, but the whole of a one-part literal: "-2" is
    # -2-0j and "-0i" is -0-0j.
    if text[0] == "-" and "+" not in text and "-" not in text[1:]:
        return -_parse_scalar(text[1:])
    return complex(text.replace("i", "j"))


class Parser:
    """Recursive descent over the tokens of one source.  Each rule calls the
    next one directly: a helper between two levels would add a frame per
    level and lower the nesting depth accepted (see ``_parse_all``)."""

    def __init__(self, src: str, source: str):
        toks = _scan(src, source)
        # A second EOF: looking one token past the end reads an EOF.
        toks.append(toks[-1])
        self.toks = toks
        self.source = source
        self.i = 0

    # ---- token plumbing

    def pos(self, tok: tuple) -> Pos:
        """The position of `tok`, made for the node or error that keeps it."""
        return _make(Pos, (tok[2], tok[3], self.source))

    def peek(self, ahead: int = 0) -> tuple:
        return self.toks[self.i + ahead]

    def next(self) -> tuple:
        t = self.toks[self.i]
        if t[0] != "EOF":
            self.i += 1
        return t

    def at(self, *kinds: str) -> bool:
        return self.toks[self.i][0] in kinds

    def expect(self, *kinds: str) -> tuple:
        t = self.toks[self.i]
        if t[0] not in kinds:
            expected = " or ".join(repr(k) for k in kinds)
            found = repr(t[1]) if t[1] else "end of input"
            raise ParseError(f"expected {expected}, found {found}", self.pos(t))
        if t[0] != "EOF":
            self.i += 1
        return t

    def _at_definition_boundary(self) -> bool:
        # A NAME followed by '=' or ':' starts the next top-level clause.
        return self.at("NAME") and self.peek(1)[0] in ("=", ":")

    # ---- types

    def parse_type(self) -> TypeExpr:
        t = self.parse_type_app()
        if self.at("->"):
            self.next()
            return FunT(t, self.parse_type())
        return t

    def parse_type_app(self) -> TypeExpr:
        tok = self.peek()
        if tok[0] == "Vec":
            self.next()
            return VecT(self.parse_type_atom(), pos=self.pos(tok))
        if tok[0] in ("Lin", "Super"):
            self.next()
            a = self.parse_type_atom()
            b = self.parse_type_atom()
            if tok[0] == "Lin":
                return lin_type(a, b)
            return SuperT(a, b, pos=self.pos(tok))
        return self.parse_type_atom()

    def parse_type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok[0] == "Bool":
            self.next()
            return BoolT(pos=self.pos(tok))
        if tok[0] == "(":
            self.next()
            parts = [self.parse_type()]
            while self.at(","):
                self.next()
                parts.append(self.parse_type())
            self.expect(")")
            return _nest(parts, ProdT, self.pos(tok))
        raise ParseError(f"expected a type, found {tok[1]!r}", self.pos(tok))

    # ---- patterns

    def parse_pattern(self) -> Pattern:
        tok = self.peek()
        if tok[0] == "NAME":
            self.next()
            return PVar(tok[1], pos=self.pos(tok))
        if tok[0] == "(":
            self.next()
            parts = [self.parse_pattern()]
            while self.at(","):
                self.next()
                parts.append(self.parse_pattern())
            self.expect(")")
            p = _nest(parts, PPair, self.pos(tok))
            names = pattern_names(p)
            if len(set(names)) != len(names):
                raise ParseError("pattern variables must be distinct",
                                 self.pos(tok))
            return p
        raise ParseError(f"expected a pattern, found {tok[1]!r}", self.pos(tok))

    # ---- terms

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok[0] in ("\\", "\\@"):
            self.next()
            pat = self.parse_pattern()
            self.expect(".")
            if tok[0] == "\\":
                return Lam(pat, self.parse_term(), pos=self.pos(tok))
            return ArrowAbs(pat, self.parse_command(), pos=self.pos(tok))
        if tok[0] == "let":
            self.next()
            pat = self.parse_pattern()
            self.expect("=")
            bound = self.parse_term()
            self.expect("in")
            body = self.parse_term()
            return Let(pat, bound, body, pos=self.pos(tok))
        if tok[0] == "if":
            self.next()
            cond = self.parse_term()
            self.expect("then")
            then = self.parse_term()
            self.expect("else")
            orelse = self.parse_term()
            return If(cond, then, orelse, pos=self.pos(tok))
        return self.parse_addsub()

    def parse_addsub(self) -> Term:
        t = self.parse_scaled()
        while self.at("+", "-"):
            op = self.next()
            rhs = self.parse_scaled()
            cls = VecAdd if op[0] == "+" else VecSub
            t = cls(t, rhs, pos=self.pos(op))
        return t

    def parse_scaled(self) -> Term:
        tok = self.peek()
        if tok[0] in ("NUM", "invsqrt2") and self.peek(1)[0] == "*":
            self.next()
            self.expect("*")
            c = (_parse_scalar(tok[1]) if tok[0] == "NUM"
                 else complex(INV_SQRT2, 0.0))
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ParseError("scalar literal is too large to be finite",
                                 self.pos(tok))
            return VecScale(c, self.parse_eqterm(), pos=self.pos(tok))
        return self.parse_eqterm()

    def parse_eqterm(self) -> Term:
        t = self.parse_app()
        if self.at("=="):
            op = self.next()
            return Eq(t, self.parse_app(), pos=self.pos(op))
        return t

    _ATOM_START = ("NAME", "True", "False", "mzero", "(", "[", "fst", "snd")

    def parse_app(self) -> Term:
        t = self.parse_atom()
        while self.at(*self._ATOM_START) and not self._at_definition_boundary():
            arg = self.parse_atom()
            t = App(t, arg, pos=t.pos)
        return t

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok[0] == "NAME":
            self.next()
            return Var(tok[1], pos=self.pos(tok))
        if tok[0] in ("True", "False"):
            self.next()
            return BoolLit(tok[0] == "True", pos=self.pos(tok))
        if tok[0] == "mzero":
            self.next()
            return MZero(pos=self.pos(tok))
        if tok[0] in ("fst", "snd"):
            self.next()
            cls = Fst if tok[0] == "fst" else Snd
            return cls(self.parse_atom(), pos=self.pos(tok))
        if tok[0] == "[":
            self.next()
            content = self.parse_term()
            self.expect("]")
            return VecUnit(content, pos=self.pos(tok))
        if tok[0] == "(":
            self.next()
            parts = [self.parse_term()]
            while self.at(","):
                self.next()
                parts.append(self.parse_term())
            self.expect(")")
            return _nest(parts, Pair, self.pos(tok))
        raise ParseError(f"expected a term, found {tok[1] or 'end of input'!r}",
                         self.pos(tok))

    # ---- commands

    def parse_command(self) -> Command:
        tok = self.peek()
        if tok[0] == "let":
            self.next()
            pat = self.parse_pattern()
            self.expect("=")
            bound = self.parse_command()
            self.expect("in")
            body = self.parse_command()
            return CLet(pat, bound, body, pos=self.pos(tok))
        if tok[0] == "[":
            self.next()
            content = self.parse_term()
            self.expect("]")
            return CUnit(content, pos=self.pos(tok))
        if tok[0] in ("meas", "trL"):
            self.next()
            if self.at("@"):
                self.next()
            cls = Meas if tok[0] == "meas" else TrL
            return cls(self.parse_app(), pos=self.pos(tok))
        fn = self.parse_term()
        if not self.at("@"):
            t = self.peek()
            raise ParseError(
                "expected '@' (arrow application) after the function term of a command",
                self.pos(t if t[0] != "EOF" else tok))
        self.next()
        arg = self.parse_term()
        return CApp(fn, arg, pos=self.pos(tok))

    # ---- programs

    def parse_program(self) -> Program:
        defs: list[Def] = []
        seen: set[str] = set()
        while not self.at("EOF"):
            name_tok = self.expect("NAME")
            if name_tok[1] in seen:
                raise ParseError(f"duplicate definition of {name_tok[1]!r}",
                                 self.pos(name_tok))
            seen.add(name_tok[1])
            annot: Optional[TypeExpr] = None
            if self.at(":"):
                self.next()
                annot = self.parse_type()
                if not self.at("="):
                    # separate signature line: the definition follows
                    def_tok = self.expect("NAME")
                    if def_tok[1] != name_tok[1]:
                        raise ParseError(
                            f"signature for {name_tok[1]!r} must be followed "
                            f"by its definition, found {def_tok[1]!r}",
                            self.pos(def_tok))
            self.expect("=")
            term = self.parse_term()
            defs.append(Def(name_tok[1], annot, term, pos=self.pos(name_tok)))
        return Program(tuple(defs))


def _nest(parts: list, cls, pos: Pos):
    """``(a, b, c)`` as ``cls(a, cls(b, c))``: tuples nest to the right."""
    node = parts[-1]
    for part in reversed(parts[:-1]):
        node = cls(part, node, pos=pos)
    return node


def _parse_all(src: str, source_name: str, rule):
    """Parse the whole of `src` with `rule`, a `Parser` method.

    The parser descends a fixed number of Python frames per nesting level
    (one per let, three per tuple type, six per parenthesis), so nesting is
    bounded by the interpreter's stack: a program nested deeper than that is
    refused at the token where the stack ran out, instead of crashing."""
    p = Parser(src, source_name)
    try:
        node = rule(p)
    except RecursionError:
        raise ParseError("nesting too deep", p.pos(p.peek())) from None
    p.expect("EOF")
    return node


def parse_program(src: str, source_name: str = "<input>") -> Program:
    return _parse_all(src, source_name, Parser.parse_program)


def parse_term(src: str, source_name: str = "<input>") -> Term:
    return _parse_all(src, source_name, Parser.parse_term)


def parse_command(src: str, source_name: str = "<input>") -> Command:
    return _parse_all(src, source_name, Parser.parse_command)


def parse_type(src: str, source_name: str = "<type>") -> TypeExpr:
    return _parse_all(src, source_name, Parser.parse_type)
