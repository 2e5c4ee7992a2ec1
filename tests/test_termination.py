"""The termination measure that ``qarrow.rewriter`` states: every automatic
step strictly lowers the pair (w, s), compared lexicographically.

w is a monotone interpretation in the style of Gandy ("Proofs of strong
normalization", 1980).  Values are naturals (at least 1), pairs of values,
and Python functions from values to values.  A natural n also stands for
the pair (n, n) and for the function a -> n + |a|, where |v| collapses a
value to a natural: itself, the sum of a pair's, or a function's at 1.  So
an opaque name (an arrow definition, a free variable) denotes 1 at any
type.  s is the sum, over command lets and binds, of the size of the bound
part, plus, over sums, the size of the left summand.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randprog
import structural
from helpers import laws
from qarrow import apply_law_at, elaborate_term, parse_term, parse_type
from qarrow.rewriter import _size, Law, Rewriter
from qarrow.syntax import (App, ArrowAbs, BoolLit, CApp, CLet, CUnit, Eq, Fst,
                           If, Lam, Let, Meas, MZero, Pair, PVar, Snd, TrL,
                           Var, VecAdd, VecLet, VecScale, VecSub, VecUnit)


def collapse(v) -> int:
    if isinstance(v, int):
        return v
    if isinstance(v, tuple):
        return collapse(v[0]) + collapse(v[1])
    return collapse(v(1))


def shift(v, k: int):
    """v + k, pointwise."""
    if isinstance(v, int):
        return v + k
    if isinstance(v, tuple):
        return (shift(v[0], k), shift(v[1], k))
    return lambda a: shift(v(a), k)


def apply(f, a):
    return f(a) if callable(f) else f + collapse(a)


def part(v, i: int):
    return v[i] if isinstance(v, tuple) else v


def plus(v, w):
    """v + w, pointwise, for two values of one type."""
    if isinstance(v, int) and isinstance(w, int):
        return v + w
    if callable(v) or callable(w):
        return lambda a: plus(apply(v, a), apply(w, a))
    return (plus(part(v, 0), part(w, 0)), plus(part(v, 1), part(w, 1)))


def scale(k: int, v):
    if isinstance(v, int):
        return k * v
    if isinstance(v, tuple):
        return (scale(k, v[0]), scale(k, v[1]))
    return lambda a: scale(k, v(a))


def fst(v):
    return shift(part(v, 0), collapse(part(v, 1)))


def snd(v):
    return shift(part(v, 1), collapse(part(v, 0)))


def bind(pat, v, env: dict) -> dict:
    """`env` with `pat` bound to `v`, each name to the projection that
    ``pattern_subst`` would substitute for it."""
    if isinstance(pat, PVar):
        return {**env, pat.name: v}
    return bind(pat.right, snd(v), bind(pat.left, fst(v), env))


class Interpretation:
    def __init__(self, defs: dict):
        self.unfold = {n: t for n, t in defs.items()
                       if not isinstance(t, ArrowAbs)}
        self.named: dict = {}

    def abstraction(self, pat, body, env):
        return lambda a: shift(self.w(body, bind(pat, a, env)), collapse(a))

    def let(self, pat, bound, body, env):
        v = self.w(bound, env)
        return shift(self.w(body, bind(pat, v, env)), collapse(v))

    def w(self, t, env: dict):
        cls = type(t)
        if cls is Var:
            if t.name in env:
                return env[t.name]
            if t.name in self.unfold:
                if t.name not in self.named:
                    self.named[t.name] = shift(
                        self.w(self.unfold[t.name], {}), 1)
                return self.named[t.name]
            return 1
        if cls in (BoolLit, MZero):
            return 1
        if cls is Pair:
            return (self.w(t.left, env), self.w(t.right, env))
        if cls is Fst:
            return fst(self.w(t.arg, env))
        if cls is Snd:
            return snd(self.w(t.arg, env))
        if cls is Eq:
            return (collapse(self.w(t.left, env))
                    + collapse(self.w(t.right, env)) + 1)
        if cls is Lam:
            return self.abstraction(t.pat, t.body, env)
        if cls is ArrowAbs:
            return self.abstraction(t.pat, t.cmd, env)
        if cls in (App, CApp):
            return apply(self.w(t.fn, env), self.w(t.arg, env))
        if cls in (Let, VecLet, CLet):
            return self.let(t.pat, t.bound, t.body, env)
        if cls is If:
            branches = plus(self.w(t.then, env), self.w(t.orelse, env))
            return scale(collapse(self.w(t.cond, env)), shift(branches, 1))
        if cls in (VecAdd, VecSub):
            return shift(plus(self.w(t.left, env), self.w(t.right, env)), 1)
        if cls in (VecUnit, CUnit):
            return shift(self.w(t.content, env), 1)
        if cls in (VecScale, Meas, TrL):
            return shift(self.w(t.arg, env), 1)
        raise TypeError(f"no interpretation for {t!r}")


def size(t) -> int:
    return 1 + sum(size(getattr(t, f)) for f in t.child_fields)


def nesting(t) -> int:
    """s: how far lets and sums lean to the left."""
    own = 0
    if isinstance(t, (CLet, VecLet)):
        own = size(t.bound)
    elif isinstance(t, VecAdd):
        own = size(t.left)
    return own + sum(nesting(getattr(t, f)) for f in t.child_fields)


def measure(interp, t) -> tuple[int, int]:
    return collapse(interp.w(t, {})), nesting(t)


def assert_every_step_decreases(defs, term, fuel=200):
    """Also checks that a law not declared ``grows`` never grows the term,
    since the size bound counts growth through those laws only."""
    interp = Interpretation(defs)
    trace = Rewriter(defs, fuel).normalize(term)
    before, size = measure(interp, term), _size(term)
    for step in trace.steps:
        after, new_size = measure(interp, step.result), _size(step.result)
        assert after < before, (step.law, before, after)
        assert step.law.grows or new_size <= size, (step.law, size,
                                                    new_size)
        before, size = after, new_size
    return trace


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(structural.terms(3))
def test_measure_decreases_on_structural_terms(prelude, defs_map, case):
    src, type_src = case
    _, term = elaborate_term(prelude.types, parse_term(src),
                             parse_type(type_src))
    assert_every_step_decreases(defs_map, term)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(sorted(randprog.FAMILIES)), st.integers(0, 10 ** 6),
       st.booleans())
def test_measure_decreases_on_law_instances(prelude, defs_map, family, seed,
                                            after):
    inst = randprog.law_instance(seed, family)
    _, term = elaborate_term(prelude.types, inst.term, inst.type_)
    if after:
        term = apply_law_at(term, inst.path, inst.law, inst.direction,
                            defs=defs_map)
        _, term = elaborate_term(prelude.types, term, inst.type_)
    assert_every_step_decreases(defs_map, term)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 10 ** 6))
def test_measure_decreases_on_random_supers(prelude, defs_map, seed):
    term, ty = randprog.random_super(seed, depth=3)
    _, term = elaborate_term(prelude.types, term, ty)
    assert_every_step_decreases(defs_map, term)


def test_every_automatic_law_was_checked(prelude, defs_map):
    """Between them, the law instances of seeds 0-11 and a few written
    terms fire every automatic law, each step checked as above."""
    seen = set()
    for family in sorted(randprog.FAMILIES):
        for seed in range(12):
            inst = randprog.law_instance(seed, family)
            _, term = elaborate_term(prelude.types, inst.term, inst.type_)
            seen |= set(laws(assert_every_step_decreases(defs_map, term)))
    for src, type_src in [
            ("\\@x. let y = let z = QNot @ x in [z] in Had @ y",
             "Super Bool Bool"),
            ("\\@x. QNot @ x", "Super Bool Bool"),
            ("\\b. not b", "Bool -> Bool"),
            ("let v = (let u = hadamard True in hadamard u) in [v]",
             "Vec Bool"),
            ("let v = (hadamard True) in mzero", "Vec Bool"),
            ("(hadamard True + hadamard False) + mzero", "Vec Bool"),
            ("if (if True then False else True) then True else False",
             "Bool")]:
        _, term = elaborate_term(prelude.types, parse_term(src),
                                 parse_type(type_src))
        seen |= set(laws(assert_every_step_decreases(defs_map, term)))
    auto = {law for law in Law if law.auto}
    assert auto <= seen, auto - seen


@pytest.mark.parametrize("src,law,path", [
    ("\\@x. let z = QNot @ x in let y = Had @ z in [y]", Law.ASSOC, (0,)),
    ("hadamard True + (hadamard False + [True])", Law.PLUS_ASSOC, ()),
])
def test_the_manual_directions_raise_the_measure(prelude, defs_map, src, law,
                                                 path):
    """A control: the left-nesting directions, which normalization never
    takes, do not lower (w, s)."""
    interp = Interpretation(defs_map)
    _, term = elaborate_term(prelude.types, parse_term(src))
    after = apply_law_at(term, path, law, "R2L")
    assert measure(interp, after) > measure(interp, term)
