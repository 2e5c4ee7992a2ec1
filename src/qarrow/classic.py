"""Point-free combinator form and translation to/from arrow abstractions.

An arrow abstraction elaborates into a pipeline built from:

* ``Arr``      — lift a pure function on basis values,
* ``LiftLin``  — lift a vector-valued (amplitude-producing) function,
* ``Compose``  — sequential composition (left runs first),
* ``FanoutC``  — ``arr keep &&& bound``: a pure map of the context paired
  with a pipeline over it,
* ``MeasC``    — computational-basis measurement,
* ``TrLC``     — partial trace of the left half,
* ``NamedSuper`` — a reference to a variable holding a superoperator.

Translation tracks the *binding context*: the ordered list of patterns
(with their types) bound so far by the abstraction head and command lets.
The context is passed along the pipeline as a left-nested tuple, so a
command let extends it with ``(context, new)`` — exactly the shape
``FanoutC`` produces, which keeps the clauses repacking-free.  This is the
translation of ``let y ⇐ P in Q`` as ``(arr keep &&& ⟦P⟧) >>> ⟦Q⟧`` in
Lindley, Wadler & Yallop's arrow calculus, so the left leg of every
``&&&`` is an ``Arr``, and the pipeline language has no ``first`` or
``second`` node of its own.  As there, an ``Arr`` or a ``LiftLin`` holds
a lambda over the context tuple: its pattern pairs the context's patterns
in the tuple's left-nested shape, so it binds the tuple as it stands.
Context entries that the remainder of a command never mentions are
dropped at each let (pure rewiring, so the denotation is unchanged);
without this the context for a chain of n lets has dimension exponential
in n.

``inverse_translate`` maps a pipeline back to an arrow abstraction; the
round trip is the identity up to the equational laws (and is checked
denotationally in the tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce

from .syntax import (App, ArrowAbs, CApp, CLet, Command, CUnit, free_vars,
                     Lam, Meas, Pair, Pattern, pattern_names, pattern_term,
                     PPair, ProdT, PVar, QarrowError, SuperT, Term, TrL,
                     TypeExpr, Var, pretty)

DeltaEntry = tuple[Pattern, TypeExpr]


class TranslationError(QarrowError):
    pass


def delta_pattern(delta: tuple[DeltaEntry, ...]) -> Pattern:
    return reduce(PPair, [p for p, _ in delta])


def delta_tuple_type(delta: tuple[DeltaEntry, ...]) -> TypeExpr:
    return reduce(ProdT, [t for _, t in delta])


@dataclass(frozen=True)
class ClassicExpr:
    in_type: TypeExpr = field(kw_only=True)
    out_type: TypeExpr = field(kw_only=True)


@dataclass(frozen=True)
class Arr(ClassicExpr):
    fn: Lam


@dataclass(frozen=True)
class LiftLin(ClassicExpr):
    fn: Lam


@dataclass(frozen=True)
class Compose(ClassicExpr):
    first_: ClassicExpr
    then_: ClassicExpr


@dataclass(frozen=True)
class FanoutC(ClassicExpr):
    left_: Arr
    right_: ClassicExpr


@dataclass(frozen=True)
class MeasC(ClassicExpr):
    pass


@dataclass(frozen=True)
class TrLC(ClassicExpr):
    pass


@dataclass(frozen=True)
class NamedSuper(ClassicExpr):
    name: str


# --------------------------------------------------------------------------
# Translation (elaborated input required: type annotations must be present)


def translate_term(t: ArrowAbs) -> ClassicExpr:
    if t.type_ is None or not isinstance(t.type_, SuperT):
        raise TranslationError("arrow abstraction lacks its type; "
                               "typecheck before translating", t.pos)
    delta: tuple[DeltaEntry, ...] = ((t.pat, t.type_.arg),)
    return translate_command(delta, t.cmd)


def _let_body_vars(cmd: Command, out: dict) -> frozenset[str]:
    """Free variables of `cmd`.  Records those of each command let's body in
    `out`, keyed by the let's id, so that one pass serves every let."""
    if not isinstance(cmd, CLet):
        return free_vars(cmd)
    body = _let_body_vars(cmd.body, out)
    out[id(cmd)] = body
    return _let_body_vars(cmd.bound, out) | (body - set(pattern_names(cmd.pat)))


def _arr_of(delta: tuple[DeltaEntry, ...], body: Term, out_type: TypeExpr,
            node: type = Arr) -> ClassicExpr:
    """``arr`` (or ``lift``, as `node`) of the lambda over the context."""
    return node(Lam(delta_pattern(delta), body),
                in_type=delta_tuple_type(delta), out_type=out_type)


def _step(cmd: Command) -> ClassicExpr:
    """What an arrow application, a measurement or a left trace applies to
    its argument: the callee (a variable or an arrow abstraction literal),
    ``meas`` or ``trL``."""
    if isinstance(cmd, Meas):
        if cmd.arg_type is None:
            raise TranslationError("measurement lacks elaboration data", cmd.pos)
        return MeasC(in_type=cmd.arg_type,
                     out_type=ProdT(cmd.arg_type, cmd.arg_type))
    if isinstance(cmd, TrL):
        if cmd.arg_type is None or not isinstance(cmd.arg_type, ProdT):
            raise TranslationError("left trace lacks elaboration data", cmd.pos)
        return TrLC(in_type=cmd.arg_type, out_type=cmd.arg_type.right)
    if cmd.fn_type is None or not isinstance(cmd.fn_type, SuperT):
        raise TranslationError("arrow application lacks elaboration data",
                               cmd.pos)
    if isinstance(cmd.fn, Var):
        return NamedSuper(cmd.fn.name, in_type=cmd.fn_type.arg,
                          out_type=cmd.fn_type.res)
    if isinstance(cmd.fn, ArrowAbs):
        return translate_term(cmd.fn)
    raise TranslationError(
        "the function of an arrow application must be a variable or an "
        "arrow abstraction", cmd.fn.pos)


def translate_command(delta: tuple[DeltaEntry, ...], cmd: Command) -> ClassicExpr:
    body_vars: dict = {}
    _let_body_vars(cmd, body_vars)
    return _translate(delta, cmd, body_vars)


def _translate(delta: tuple[DeltaEntry, ...], cmd: Command,
               body_vars: dict) -> ClassicExpr:
    """The pipeline of `cmd` over the context `delta`; `body_vars` maps the
    id of each command let inside `cmd` to its body's free variables."""
    dtt = delta_tuple_type(delta)

    if isinstance(cmd, CUnit):
        if cmd.mode is None or cmd.content_type is None:
            raise TranslationError("command unit lacks elaboration data", cmd.pos)
        return _arr_of(delta, cmd.content, cmd.content_type,
                       Arr if cmd.mode == "classical" else LiftLin)

    if isinstance(cmd, (CApp, Meas, TrL)):
        step = _step(cmd)
        return Compose(_arr_of(delta, cmd.arg, step.in_type), step,
                       in_type=dtt, out_type=step.out_type)

    if isinstance(cmd, CLet):
        if cmd.bound_type is None:
            raise TranslationError("command let lacks elaboration data", cmd.pos)
        bound = _translate(delta, cmd.bound, body_vars)
        live = body_vars[id(cmd)] - set(pattern_names(cmd.pat))
        kept = tuple(entry for entry in delta
                     if set(pattern_names(entry[0])) & live)
        if not kept:
            # nothing from the old context survives: plain sequencing
            body = _translate(((cmd.pat, cmd.bound_type),), cmd.body,
                              body_vars)
            return Compose(bound, body, in_type=dtt, out_type=body.out_type)
        delta2 = kept + ((cmd.pat, cmd.bound_type),)
        body = _translate(delta2, cmd.body, body_vars)
        keep = _arr_of(delta, pattern_term(delta_pattern(kept)),
                       delta_tuple_type(kept))
        fan = FanoutC(keep, bound, in_type=dtt,
                      out_type=ProdT(keep.out_type, cmd.bound_type))
        return Compose(fan, body, in_type=dtt, out_type=body.out_type)

    raise TranslationError(f"cannot translate command {cmd!r}", cmd.pos)


# --------------------------------------------------------------------------
# Inverse translation: pipeline -> arrow abstraction


def inverse_translate(e: ClassicExpr) -> ArrowAbs:
    counter = itertools.count(1)

    def fresh(base: str) -> str:
        n = next(counter)
        return base if n == 1 else f"{base}{n}"

    def go(e: ClassicExpr) -> ArrowAbs:
        ty = SuperT(e.in_type, e.out_type)

        if isinstance(e, (Arr, LiftLin)):
            x = fresh("x")
            call = App(e.fn, Var(x))
            return ArrowAbs(PVar(x), CUnit(call), type_=ty)

        if isinstance(e, Compose):
            x, w = fresh("x"), fresh("w")
            f, g = go(e.first_), go(e.then_)
            cmd = CLet(PVar(w), CApp(f, Var(x), fn_type=f.type_),
                       CApp(g, Var(w), fn_type=g.type_),
                       bound_type=e.first_.out_type)
            return ArrowAbs(PVar(x), cmd, type_=ty)

        if isinstance(e, FanoutC):
            # the pure left leg is computed inside the unit instead of a
            # second binding, which keeps the re-translated context one
            # entry narrower
            z, y = fresh("z"), fresh("y")
            g = go(e.right_)
            keep = App(e.left_.fn, Var(z))
            cmd = CLet(PVar(y), CApp(g, Var(z), fn_type=g.type_),
                       CUnit(Pair(keep, Var(y))),
                       bound_type=e.right_.out_type)
            return ArrowAbs(PVar(z), cmd, type_=ty)

        if isinstance(e, (MeasC, TrLC)):
            z = fresh("z")
            node = Meas if isinstance(e, MeasC) else TrL
            return ArrowAbs(PVar(z), node(Var(z), arg_type=e.in_type),
                            type_=ty)

        if isinstance(e, NamedSuper):
            x = fresh("x")
            return ArrowAbs(PVar(x), CApp(Var(e.name), Var(x), fn_type=ty),
                            type_=ty)

        raise TranslationError(f"cannot invert {e!r}")

    return go(e)


# --------------------------------------------------------------------------
# Rendering


# The word that begins each combinator's s-expression.
_WORDS = {Arr: "arr", LiftLin: "lift", Compose: ">>>", FanoutC: "&&&",
          MeasC: "meas", TrLC: "trL"}


def sexpr(e: ClassicExpr) -> str:
    if isinstance(e, NamedSuper):
        return e.name
    word = _WORDS.get(type(e))
    if word is None:
        raise TranslationError(f"cannot render {e!r}")
    args = ([f"({pretty(e.fn)})"] if isinstance(e, (Arr, LiftLin))
            else [sexpr(k) for k in classic_children(e)])
    return f"({word} {' '.join(args)})" if args else word


def classic_children(e: ClassicExpr) -> tuple[ClassicExpr, ...]:
    if isinstance(e, Compose):
        return (e.first_, e.then_)
    if isinstance(e, FanoutC):
        return (e.left_, e.right_)
    return ()
