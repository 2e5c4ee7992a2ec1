"""Lexer and recursive-descent parser for the surface language.

Surface forms::

    name [: type] = term        -- one definition per clause
    \\x. M                       -- function abstraction (patterns allowed)
    \\@x. Q    or   \\•x. Q       -- arrow abstraction over a command
    [M]                          -- unit (term level or command level)
    let p = M in N               -- let (term or command level by context)
    f @ x      or   f • x        -- arrow application (command level)
    meas M, trL M                -- measurement / left partial trace commands
    M + N, M - N, c * M          -- vector arithmetic; c is a complex literal
    mzero, invsqrt2, True, False, fst, snd, ==, if/then/else
    -- comment to end of line

Complex literals are written without spaces: ``0.5``, ``2.0i``, ``0.5-0.5i``.
"""

from __future__ import annotations

import re
from typing import Optional

from .syntax import (App, ArrowAbs, BoolLit, BoolT, CApp, CLet, CUnit, Command,
                     Def, Eq, Fst, FunT, If, Lam, Let, lin_type, Meas,
                     MZero, Pair, Pattern, pattern_names, PPair, Pos, ProdT,
                     Program, PVar, QarrowError, Record, Snd, SuperT, Term,
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

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_NUM_RE = re.compile(r"\d+(?:\.\d+)?(?:[+-]\d+(?:\.\d+)?i|i)?", re.ASCII)


class Token(Record):
    kind: str          # NAME, NUM, or the symbol/keyword itself
    text: str
    pos: Pos


def tokenize(src: str, source: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        pos = Pos(line, col, source)
        # str.isdigit and str.isalpha accept non-ASCII characters, which the
        # patterns do not: those fall through to "unexpected character"
        if c.isdigit() and (m := _NUM_RE.match(src, i)):
            toks.append(Token("NUM", m.group(), pos))
            col += m.end() - i
            i = m.end()
            continue
        if (c.isalpha() or c == "_") and (m := _NAME_RE.match(src, i)):
            word = m.group()
            kind = word if word in KEYWORDS else "NAME"
            toks.append(Token(kind, word, pos))
            col += m.end() - i
            i = m.end()
            continue
        if c == "\\":
            if i + 1 < n and src[i + 1] in "@•":
                toks.append(Token("\\@", src[i:i + 2], pos))
                i += 2
                col += 2
            else:
                toks.append(Token("\\", c, pos))
                i += 1
                col += 1
            continue
        if src.startswith("==", i):
            toks.append(Token("==", "==", pos))
            i += 2
            col += 2
            continue
        if src.startswith("->", i):
            toks.append(Token("->", "->", pos))
            i += 2
            col += 2
            continue
        if (c == "-" and (m := _NUM_RE.match(src, i + 1))
                and (not toks or toks[-1].kind not in _OPERAND_END)):
            # A minus immediately before digits where no operand precedes is
            # a negative scalar literal, not the subtraction operator.
            toks.append(Token("NUM", "-" + m.group(), pos))
            col += m.end() - i
            i = m.end()
            continue
        if c in "()[].,=:+-*@":
            toks.append(Token(c, c, pos))
            i += 1
            col += 1
            continue
        if c == "•":  # bullet, same role as @
            toks.append(Token("@", c, pos))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", pos)
    toks.append(Token("EOF", "", Pos(line, col, source)))
    return toks


def _parse_scalar(text: str) -> complex:
    if text.startswith("-"):
        rest = text[1:]
        # "-a+bi" / "-a-bi" negate the real component only; "-a" and "-bi"
        # negate the single component they spell.
        two_part = re.match(r"\d+(?:\.\d+)?[+-]\d+(?:\.\d+)?i$", rest)
        inner = _parse_scalar(rest)
        if two_part:
            return complex(-inner.real, inner.imag)
        return -inner
    if text.endswith("i"):
        body = text[:-1]
        m = re.match(r"(\d+(?:\.\d+)?)([+-])(\d+(?:\.\d+)?)$", body)
        if m:
            re_part = float(m.group(1))
            im_part = float(m.group(3))
            if m.group(2) == "-":
                im_part = -im_part
            return complex(re_part, im_part)
        return complex(0.0, float(body))
    return complex(float(text), 0.0)


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # ---- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def expect(self, *kinds: str) -> Token:
        t = self.peek()
        if t.kind not in kinds:
            expected = " or ".join(repr(k) for k in kinds)
            found = repr(t.text) if t.text else "end of input"
            raise ParseError(f"expected {expected}, found {found}", t.pos)
        return self.next()

    def _at_definition_boundary(self) -> bool:
        # A NAME followed by '=' or ':' starts the next top-level clause.
        return self.at("NAME") and self.peek(1).kind in ("=", ":")

    # ---- types

    def parse_type(self) -> TypeExpr:
        t = self.parse_type_app()
        if self.at("->"):
            self.next()
            return FunT(t, self.parse_type())
        return t

    def parse_type_app(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind == "Vec":
            self.next()
            return VecT(self.parse_type_atom(), pos=tok.pos)
        if tok.kind == "Lin":
            self.next()
            a = self.parse_type_atom()
            b = self.parse_type_atom()
            return lin_type(a, b)
        if tok.kind == "Super":
            self.next()
            a = self.parse_type_atom()
            b = self.parse_type_atom()
            return SuperT(a, b, pos=tok.pos)
        return self.parse_type_atom()

    def parse_type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind == "Bool":
            self.next()
            return BoolT(pos=tok.pos)
        if tok.kind == "(":
            self.next()
            parts = [self.parse_type()]
            while self.at(","):
                self.next()
                parts.append(self.parse_type())
            self.expect(")")
            t = parts[-1]
            for p in reversed(parts[:-1]):
                t = ProdT(p, t, pos=tok.pos)
            return t
        raise ParseError(f"expected a type, found {tok.text!r}", tok.pos)

    # ---- patterns

    def parse_pattern(self) -> Pattern:
        tok = self.peek()
        if tok.kind == "NAME":
            self.next()
            return PVar(tok.text, pos=tok.pos)
        if tok.kind == "(":
            self.next()
            parts = [self.parse_pattern()]
            while self.at(","):
                self.next()
                parts.append(self.parse_pattern())
            self.expect(")")
            p = parts[-1]
            for q in reversed(parts[:-1]):
                p = PPair(q, p, pos=tok.pos)
            self._check_distinct(p, tok.pos)
            return p
        raise ParseError(f"expected a pattern, found {tok.text!r}", tok.pos)

    def _check_distinct(self, p: Pattern, pos: Pos) -> None:
        names = pattern_names(p)
        if len(set(names)) != len(names):
            raise ParseError("pattern variables must be distinct", pos)

    # ---- terms

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "\\":
            self.next()
            pat = self.parse_pattern()
            self.expect(".")
            return Lam(pat, self.parse_term(), pos=tok.pos)
        if tok.kind == "\\@":
            self.next()
            pat = self.parse_pattern()
            self.expect(".")
            return ArrowAbs(pat, self.parse_command(), pos=tok.pos)
        if tok.kind == "let":
            self.next()
            pat = self.parse_pattern()
            self.expect("=")
            bound = self.parse_term()
            self.expect("in")
            body = self.parse_term()
            return Let(pat, bound, body, pos=tok.pos)
        if tok.kind == "if":
            self.next()
            cond = self.parse_term()
            self.expect("then")
            then = self.parse_term()
            self.expect("else")
            orelse = self.parse_term()
            return If(cond, then, orelse, pos=tok.pos)
        return self.parse_addsub()

    def parse_addsub(self) -> Term:
        t = self.parse_scaled()
        while self.at("+", "-"):
            op = self.next()
            rhs = self.parse_scaled()
            cls = VecAdd if op.kind == "+" else VecSub
            t = cls(t, rhs, pos=op.pos)
        return t

    def parse_scaled(self) -> Term:
        tok = self.peek()
        if tok.kind == "NUM" and self.peek(1).kind == "*":
            self.next()
            self.expect("*")
            return VecScale(_parse_scalar(tok.text), self.parse_eqterm(), pos=tok.pos)
        if tok.kind == "invsqrt2" and self.peek(1).kind == "*":
            self.next()
            self.expect("*")
            return VecScale(complex(INV_SQRT2, 0.0), self.parse_eqterm(), pos=tok.pos)
        return self.parse_eqterm()

    def parse_eqterm(self) -> Term:
        t = self.parse_app()
        if self.at("=="):
            op = self.next()
            return Eq(t, self.parse_app(), pos=op.pos)
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
        if tok.kind == "NAME":
            self.next()
            return Var(tok.text, pos=tok.pos)
        if tok.kind == "True":
            self.next()
            return BoolLit(True, pos=tok.pos)
        if tok.kind == "False":
            self.next()
            return BoolLit(False, pos=tok.pos)
        if tok.kind == "mzero":
            self.next()
            return MZero(pos=tok.pos)
        if tok.kind == "fst":
            self.next()
            return Fst(self.parse_atom(), pos=tok.pos)
        if tok.kind == "snd":
            self.next()
            return Snd(self.parse_atom(), pos=tok.pos)
        if tok.kind == "[":
            self.next()
            content = self.parse_term()
            self.expect("]")
            return VecUnit(content, pos=tok.pos)
        if tok.kind == "(":
            self.next()
            parts = [self.parse_term()]
            while self.at(","):
                self.next()
                parts.append(self.parse_term())
            self.expect(")")
            t = parts[-1]
            for p in reversed(parts[:-1]):
                t = Pair(p, t, pos=tok.pos)
            return t
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}",
                         tok.pos)

    # ---- commands

    def parse_command(self) -> Command:
        tok = self.peek()
        if tok.kind == "let":
            self.next()
            pat = self.parse_pattern()
            self.expect("=")
            bound = self.parse_command()
            self.expect("in")
            body = self.parse_command()
            return CLet(pat, bound, body, pos=tok.pos)
        if tok.kind == "[":
            self.next()
            content = self.parse_term()
            self.expect("]")
            return CUnit(content, pos=tok.pos)
        if tok.kind == "meas":
            self.next()
            if self.at("@"):
                self.next()
            return Meas(self.parse_app(), pos=tok.pos)
        if tok.kind == "trL":
            self.next()
            if self.at("@"):
                self.next()
            return TrL(self.parse_app(), pos=tok.pos)
        fn = self.parse_term()
        if not self.at("@"):
            t = self.peek()
            raise ParseError(
                "expected '@' (arrow application) after the function term of a command",
                t.pos if t.kind != "EOF" else tok.pos)
        self.next()
        arg = self.parse_term()
        return CApp(fn, arg, pos=tok.pos)

    # ---- programs

    def parse_program(self) -> Program:
        defs: list[Def] = []
        seen: set[str] = set()
        while not self.at("EOF"):
            name_tok = self.expect("NAME")
            if name_tok.text in seen:
                raise ParseError(f"duplicate definition of {name_tok.text!r}",
                                 name_tok.pos)
            seen.add(name_tok.text)
            annot: Optional[TypeExpr] = None
            if self.at(":"):
                self.next()
                annot = self.parse_type()
                if not self.at("="):
                    # separate signature line: the definition follows
                    def_tok = self.expect("NAME")
                    if def_tok.text != name_tok.text:
                        raise ParseError(
                            f"signature for {name_tok.text!r} must be followed "
                            f"by its definition, found {def_tok.text!r}",
                            def_tok.pos)
            self.expect("=")
            term = self.parse_term()
            defs.append(Def(name_tok.text, annot, term, pos=name_tok.pos))
        return Program(tuple(defs))


def _parse_all(src: str, source_name: str, rule):
    """Parse the whole of `src` with `rule`, a `Parser` method.

    The parser descends one Python frame per nesting level (six for each
    parenthesis), so nesting is bounded by the interpreter's stack: a program
    nested deeper than that is refused at the token where the stack ran out,
    instead of crashing."""
    p = Parser(tokenize(src, source_name))
    try:
        node = rule(p)
    except RecursionError:
        raise ParseError("nesting too deep", p.peek().pos) from None
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
