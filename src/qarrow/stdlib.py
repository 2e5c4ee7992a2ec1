"""Bundled prelude: parse and typecheck it once, then share.  Its values are
evaluated on first use of ``env``, so commands that only check, rewrite or
translate never load the evaluator."""

from __future__ import annotations

from functools import cached_property
from importlib.resources import files

from .parser import parse_program
from .syntax import Program, Record
from .typecheck import elaborate_program


def prelude_source() -> str:
    return files("qarrow").joinpath("prelude.qarr").read_text(encoding="utf-8")


class Prelude(Record):
    program: Program            # elaborated definitions
    types: dict                 # name -> TypeExpr

    @cached_property
    def env(self) -> dict:
        """name -> evaluated Value"""
        from .evaluator import eval_program
        return eval_program(self.program)


_cached: Prelude | None = None


def load_prelude() -> Prelude:
    global _cached
    if _cached is None:
        prog = parse_program(prelude_source(), "prelude.qarr")
        types, elaborated = elaborate_program(prog)
        _cached = Prelude(elaborated, types)
    return _cached
