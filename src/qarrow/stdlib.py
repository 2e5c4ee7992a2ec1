"""Bundled prelude: parse and typecheck it once, then share.  Its values are
evaluated on first use of ``env``, so commands that only check, rewrite or
translate never load the evaluator.

``prelude.qarr`` sits next to this module and is read with a plain ``open``
from the directory of ``__file__``, so start-up loads no
``importlib.resources`` (which brings ``zipfile``, ``tempfile`` and more)."""

from __future__ import annotations

import os
from functools import cached_property

from .parser import parse_program
from .syntax import Program, Record
from .typecheck import elaborate_program


def prelude_source() -> str:
    path = os.path.join(os.path.dirname(__file__), "prelude.qarr")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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
