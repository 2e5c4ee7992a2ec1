"""The hand-written character loop that once was ``qarrow.parser.tokenize``,
kept as the oracle the one-pattern lexer is checked against: same token
kinds, texts and positions, and the same ``ParseError`` texts.

Its tables are copied here, not imported, so a change to the lexer's own
tables shows up as a difference from this oracle."""

import re

from qarrow.parser import ParseError, Token
from qarrow.syntax import Pos

KEYWORDS = {
    "let", "in", "if", "then", "else", "True", "False", "fst", "snd",
    "meas", "trL", "mzero", "invsqrt2",
    "Bool", "Vec", "Lin", "Super",
}

# Tokens that can end an operand; a `-` right after one of these is the
# subtraction operator, anywhere else it starts a negative scalar literal.
_OPERAND_END = {"NAME", "NUM", ")", "]", "True", "False", "mzero", "invsqrt2"}

# Symbol text -> token kind.  Two characters are tried before one; the
# bullet is another spelling of `@`.
_SYMBOLS = {"\\@": "\\@", "\\•": "\\@", "==": "==", "->": "->", "•": "@",
            **{c: c for c in "()[].,=:+-*@\\"}}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_NUM_RE = re.compile(r"\d+(?:\.\d+)?(?:[+-]\d+(?:\.\d+)?i|i)?", re.ASCII)


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
        if (c == "-" and (m := _NUM_RE.match(src, i + 1))
                and (not toks or toks[-1].kind not in _OPERAND_END)):
            # A minus immediately before digits where no operand precedes is
            # a negative scalar literal, not the subtraction operator.
            toks.append(Token("NUM", "-" + m.group(), pos))
            col += m.end() - i
            i = m.end()
            continue
        text = src[i:i + 2]
        if text not in _SYMBOLS:
            text = c
            if c not in _SYMBOLS:
                raise ParseError(f"unexpected character {c!r}", pos)
        toks.append(Token(_SYMBOLS[text], text, pos))
        i += len(text)
        col += len(text)
    toks.append(Token("EOF", "", Pos(line, col, source)))
    return toks
