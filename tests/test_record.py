"""The record contract of syntax nodes, traces, verdicts and the prelude:
what a frozen dataclass gave them, kept by ``syntax.Record``; and the repr
texts of nodes, tokens (a ``NamedTuple``) and traces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qarrow
from qarrow.parser import parse_program, parse_term, tokenize
from qarrow.rewriter import normalize
from qarrow.syntax import (BoolT, Fst, FunT, Node, Pos, ProdT, Record, Snd,
                           SuperT, Var)
from qarrow.typecheck import elaborate_program, elaborate_term
import qarrow.stdlib  # noqa: F401  (defines Prelude, a record too)


def _record_classes():
    todo, out = [Record], []
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def _instances(cls):
    """Two instances that differ in every keyword-only field, and the
    values of their compared fields."""
    args = tuple(f"{name}-value" for name in cls.compared_fields)
    keywords = [n for n in cls.fields if n not in cls.compared_fields]
    plain = cls(*args)
    annotated = cls(*args, **{n: Pos(3, 4) for n in keywords})
    return plain, annotated, args, keywords


@pytest.mark.parametrize("cls", _record_classes(), ids=lambda c: c.__name__)
def test_record_contract(cls):
    plain, annotated, args, keywords = _instances(cls)
    assert [getattr(plain, n) for n in cls.compared_fields] == list(args)
    assert all(getattr(annotated, n) == Pos(3, 4) for n in keywords)
    if issubclass(cls, Node):
        assert "pos" in keywords and plain.pos is None
    # eq and hash read the compared fields only
    assert plain == annotated and not plain != annotated
    assert hash(plain) == hash(annotated) == hash(args)
    if args:
        changed = (*args[:-1], "another-value")
        other = cls(*changed)
        assert other != plain and hash(other) == hash(changed)
    # annotations are keyword-only
    if keywords:
        with pytest.raises(TypeError):
            cls(*args, *[None] * len(keywords))
    # frozen: every field, and any other name, refuses assignment
    for name in (*cls.fields, "not_a_field"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(plain, name, 1)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(plain, name)
    assert [getattr(plain, n) for n in cls.compared_fields] == list(args)


def test_equality_needs_the_same_class():
    assert Fst(Var("x")) != Snd(Var("x"))
    assert ProdT(BoolT(), BoolT()) != FunT(BoolT(), BoolT())
    assert ProdT(BoolT(), BoolT()) != (BoolT(), BoolT())
    assert len({SuperT(BoolT(), BoolT()), FunT(BoolT(), BoolT()),
                SuperT(BoolT(), BoolT(), pos=Pos(1, 1))}) == 2


# literal repr texts: records print as frozen dataclasses do


DEMO = """\
dneg : Super Bool Bool
dneg = \\@x. let y = (\\@z. [not z]) @ x in (\\@w. [not w]) @ y

mix : Super Bool Bool
mix = \\@q. let h = Had @ q in QMeas @ h
"""

DEMO_REPR = (
    "Program(defs=(Def(name='dneg', annot=SuperT(arg=BoolT(), res=BoolT()), "
    "term=ArrowAbs(pat=PVar(name='x'), cmd=CLet(pat=PVar(name='y'), "
    "bound=CApp(fn=ArrowAbs(pat=PVar(name='z'), cmd=CUnit(content=App("
    "fn=Var(name='not'), arg=Var(name='z')))), arg=Var(name='x')), "
    "body=CApp(fn=ArrowAbs(pat=PVar(name='w'), cmd=CUnit(content=App("
    "fn=Var(name='not'), arg=Var(name='w')))), arg=Var(name='y'))))), "
    "Def(name='mix', annot=SuperT(arg=BoolT(), res=BoolT()), "
    "term=ArrowAbs(pat=PVar(name='q'), cmd=CLet(pat=PVar(name='h'), "
    "bound=CApp(fn=Var(name='Had'), arg=Var(name='q')), "
    "body=CApp(fn=Var(name='QMeas'), arg=Var(name='h')))))))")

TOKENS_REPR = (
    "[Token(kind='NAME', text='f', pos=Pos(line=1, col=1, source='<input>')), "
    "Token(kind='@', text='@', pos=Pos(line=1, col=3, source='<input>')), "
    "Token(kind='(', text='(', pos=Pos(line=1, col=5, source='<input>')), "
    "Token(kind='NAME', text='x', pos=Pos(line=1, col=6, source='<input>')), "
    "Token(kind=',', text=',', pos=Pos(line=1, col=7, source='<input>')), "
    "Token(kind='True', text='True', "
    "pos=Pos(line=1, col=9, source='<input>')), "
    "Token(kind=')', text=')', pos=Pos(line=1, col=13, source='<input>')), "
    "Token(kind='EOF', text='', pos=Pos(line=1, col=14, source='<input>'))]")

TRACE_REPR = (
    "ProofTrace(start=App(fn=Lam(pat=PVar(name='x'), body=Var(name='x')), "
    "arg=BoolLit(value=True)), steps=(Step(law=<Law.BETA_FUN: 'beta'>, "
    "path=(), direction='L2R', result=BoolLit(value=True)),), "
    "end=BoolLit(value=True), complete=True)")


def test_repr_text_is_unchanged(prelude):
    _, program = elaborate_program(parse_program(DEMO, "demo.qarr"),
                                   dict(prelude.types))
    assert repr(program) == DEMO_REPR
    assert repr(tokenize("f @ (x, True)")) == TOKENS_REPR
    _, term = elaborate_term(dict(prelude.types), parse_term("(\\x. x) True"))
    assert repr(normalize(term)) == TRACE_REPR


def test_front_end_loads_no_dataclasses():
    """Parsing, checking and rewriting build their records without the
    ``dataclasses`` module (and the ``inspect`` it imports)."""
    src = Path(qarrow.__file__).resolve().parent.parent
    probe = ("import sys, qarrow.rewriter, qarrow.stdlib; "
             "print(sorted(m for m in ('dataclasses', 'qarrow.syntax', "
             "'qarrow.parser', 'qarrow.typecheck') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == ("['qarrow.parser', 'qarrow.syntax', "
                           "'qarrow.typecheck']\n")
