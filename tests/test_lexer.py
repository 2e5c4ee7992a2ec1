"""The one-pattern lexer against the hand-written one it replaced
(``lexer_oracle``): the same ``(kind, text, pos)`` stream, or the same
``ParseError`` text, on the prelude, the README demo, the benchmark's
programs, generated programs and fuzzed text."""
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarrow.parser import ParseError, tokenize
from qarrow.stdlib import prelude_source
from qarrow.syntax import pretty, type_str

import lexer_oracle
import randprog

ROOT = Path(__file__).resolve().parent.parent


def lexed(lexer, src):
    """`lexer`'s tokens of `src` as plain tuples, or its error text."""
    try:
        return [tuple(t) for t in lexer(src, "f.qarr")]
    except ParseError as e:
        return str(e)


def assert_same(src):
    assert lexed(tokenize, src) == lexed(lexer_oracle.tokenize, src), src


def _perfbench_programs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_programs", ROOT / "perfbench" / "programs.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod        # its dataclasses look it up there
    spec.loader.exec_module(mod)
    return mod


def test_prelude_and_readme_demo():
    assert_same(prelude_source())
    assert_same((ROOT / "perfbench" / "readme" / "demo.qarr").read_text(
        encoding="utf-8"))
    assert_same(randprog.DEMO_SRC)


def test_benchmark_programs():
    programs = _perfbench_programs()
    for seed in (1, 2):
        assert_same(programs.frontend(seed)[0])
    for src in (programs.TOFFOLI, programs.TELEPORT, programs.BELL):
        assert_same(src)
    for n in range(2, 6):
        for style in ("proj", "tuple"):
            assert_same(programs.ghz_source(f"g{n}", n, style))


def test_generated_programs():
    for seed in range(100):
        term, ty = randprog.random_super(seed, depth=3)
        assert_same(f"f{seed} : {type_str(ty)}\nf{seed} = {pretty(term)}\n")
    for family in sorted(randprog.FAMILIES):
        for seed in range(10):
            assert_same(pretty(randprog.law_instance(seed, family).term))
    for n in range(2, 6):
        for style in ("proj", "tuple"):
            assert_same(randprog.ghz_source(n, style))


# Every kind of token that ends an operand, then a minus before digits: the
# subtraction operator there, a negative literal anywhere else.
OPERAND_ENDS = ["x", "x'", "3", "2.5i", "0.5-0.5i", ")", "]", "True",
                "False", "mzero", "invsqrt2"]
NOT_OPERAND_ENDS = ["", "(", "[", ",", "=", "*", "+", "-", "@", "\\", ".",
                    "==", "->", "let", "in", "if", "fst", "meas", "Bool"]


@pytest.mark.parametrize("before", OPERAND_ENDS + NOT_OPERAND_ENDS)
@pytest.mark.parametrize("gap", ["", " ", "\t", "\r\n"])
def test_minus_before_digits(before, gap):
    for after in ("-1", "-2.5", "-1.5+2i", "-0i", "- 1", "-x", "--1", "->1"):
        assert_same(f"{before}{gap}{after} y")
        assert_same(f"{before}{gap}{after}")


@pytest.mark.parametrize("src", [
    "", " ", "\n", "\t\r\n ", "-- only a comment", "x -- to the end",
    "x\n  -- indented\n", "--\n--", "x--y", "a\rb", "\\•x. f • x",
    "\\@x. f@x", "•", "\\", "x ? y", "f'' g_1 _h", "é", "x = ²",
    "1٣", "-²", "aé", "٣\n", "\u2028", "\x0b", "\x0c", "a\x0bb",
    "a\x0c b", "a\u00a0b", "a\u2028b", "a\x85b",
    "1.", "1.2.3", ".5", "2ii", "1+2", "1+2.i", "1e5", "0x1f",
])
def test_edge_cases(src):
    assert_same(src)


# The lexer's alphabet: blanks, comments, symbols and their bullet
# spellings, primes, keywords, digits and literals, and characters that no
# token reads, among them other whitespace.
FRAGMENTS = [" ", "  ", "\t", "\r", "\n", "\x0b", "\u00a0", "--", "-- c",
             "•", "\\•", "\\@", "\\", "@", "'", "x", "y'", "_z", "Bool",
             "let", "in", "True", "mzero", "invsqrt2", "0", "12", "3.5", "2i",
             "1.0-0.5i", "-", "+", "*", "->", "==", "=", ":", ".", ",", "(",
             ")", "[", "]", "é", "٣", "²", "λ", "?", "#"]


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=30))
def test_fuzz(fragments):
    assert_same("".join(fragments))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.text(alphabet=sorted(set("".join(FRAGMENTS))), max_size=40))
def test_fuzz_characters(src):
    assert_same(src)
