"""AST utilities: pretty/parse round trips, substitution, alpha-equivalence,
and the per-class child declaration the generic walks rest on."""
import inspect
import sys
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarrow.parser import parse_program, parse_term
from qarrow.rewriter import Rewriter
from qarrow.syntax import (App, ArrowAbs, BoolLit, BoolT, CApp, Command, CUnit,
                           Fst, FunT, Lam, Let, Node, Pair, Pattern, Pos,
                           PPair, ProdT, PVar, rebuild, SuperT, Term, TypeExpr,
                           Var, VecScale, VecT, alpha_eq, free_vars, lin_type,
                           pattern_names, pretty, subst_map, type_str)
from qarrow.typecheck import Checker, elaborate_term, EnvPair

import randprog


# ---- pretty / parse round trips --------------------------------------------

ROUND_TRIP_SOURCES = [
    "True",
    "\\x. x",
    "\\(a,b). (b, a)",
    "\\@x. [x]",
    "\\@(x,y). let h = Had @ x in Cnot @ (h, y)",
    "\\@q. let (a,b) = meas q in trL (a, b)",
    "if x == y then fst p else snd p",
    "let x = True in (x, not x)",
    "[False] + [True]",
    "mzero - 0.5+0.5i * [True]",
    "invsqrt2 * ([False] - [True])",
    "\\x. if x then hadamard x else [x]",
    "\\@x. (\\@z. [not z]) @ (fst (x, True))",
]

# Surface `let` is one form; elaboration decides classical vs monadic.  The
# families below build VecLet nodes directly, so their raw round trip goes
# through elaboration (see test_vec_families_round_trip_via_elaboration).
VEC_FAMILIES = {"bind", "zero", "plus"}


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_source_round_trip(src):
    t = parse_term(src)
    assert alpha_eq(t, parse_term(pretty(t)))


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_pretty_is_stable(src):
    s1 = pretty(parse_term(src))
    assert pretty(parse_term(s1)) == s1


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_random_super_round_trip(seed):
    term, _ = randprog.random_super(seed, depth=2)
    assert alpha_eq(term, parse_term(pretty(term)))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 10**6),
       st.sampled_from(sorted(set(randprog.FAMILIES) - VEC_FAMILIES)))
def test_random_law_instance_round_trip(seed, family):
    inst = randprog.law_instance(seed, family)
    assert alpha_eq(inst.term, parse_term(pretty(inst.term)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(VEC_FAMILIES)))
def test_vec_families_round_trip_via_elaboration(seed, family):
    from qarrow import elaborate_term, load_prelude
    p = load_prelude()
    inst = randprog.law_instance(seed, family)
    _, direct = elaborate_term(p.types, inst.term, inst.type_)
    _, reparsed = elaborate_term(p.types, parse_term(pretty(inst.term)),
                                 inst.type_)
    assert alpha_eq(direct, reparsed)


def test_prelude_round_trip(prelude):
    from qarrow.stdlib import prelude_source
    raw = parse_program(prelude_source())
    again = parse_program("".join(
        f"{d.name} : {type_str(d.annot)} = {pretty(d.term)}\n"
        for d in raw.defs))
    assert len(raw.defs) == len(again.defs)
    for d1, d2 in zip(raw.defs, again.defs):
        assert d1.name == d2.name
        assert type_str(d1.annot) == type_str(d2.annot)
        assert alpha_eq(d1.term, d2.term)


def test_negative_scalar_round_trip():
    for c in (complex(-0.5, -0.25), complex(-0.5, 0), complex(0, -0.25),
              complex(0.75, -1.0)):
        from qarrow.syntax import VecScale, VecUnit
        t = VecScale(c, VecUnit(BoolLit(True)))
        back = parse_term(pretty(t))
        assert alpha_eq(t, back), pretty(t)


@pytest.mark.parametrize("c, text", [
    # repr would print these with an exponent, which the lexer does not
    # read: they print as the same digits written out
    (complex(1e-05, 0), "0.00001"),
    (complex(1e+17, 0), "100000000000000000.0"),
    (complex(-1.5e-07, 0), "-0.00000015"),
    (complex(0, 2e+16), "20000000000000000.0i"),
    (complex(0, -3e-06), "0.0-0.000003i"),
    (complex(1e-05, 2.5e+17), "0.00001+250000000000000000.0i"),
    (complex(-1.25e+18, -1e-10), "-1250000000000000000.0-0.0000000001i"),
    (complex(5e-324, 0), "0." + "0" * 323 + "5"),
    # digits repr prints without an exponent are printed as before
    (complex(0.1, 0), "0.1"),
    (complex(1e+16 - 2, 0), "9999999999999998.0"),
])
def test_scalar_digits_round_trip(c, text):
    from qarrow.syntax import VecScale, VecUnit
    t = VecScale(c, VecUnit(BoolLit(True)))
    assert pretty(t) == f"{text} * [True]"
    back = parse_term(pretty(t))
    assert back.scalar == c and alpha_eq(t, back)


# ---- alpha equivalence ------------------------------------------------------

def test_alpha_eq_binders():
    assert alpha_eq(parse_term("\\x. x"), parse_term("\\y. y"))
    assert alpha_eq(parse_term("\\@x. [x]"), parse_term("\\@q. [q]"))
    assert alpha_eq(parse_term("\\(a,b). (b, a)"), parse_term("\\(x,y). (y, x)"))
    assert alpha_eq(
        parse_term("\\@x. let y = QNot @ x in [y]"),
        parse_term("\\@a. let b = QNot @ a in [b]"))


def test_alpha_eq_distinguishes():
    assert not alpha_eq(parse_term("\\x. x"), parse_term("\\x. True"))
    assert not alpha_eq(parse_term("(a, b)"), parse_term("(b, a)"))
    assert not alpha_eq(parse_term("\\x. y"), parse_term("\\x. z"))
    # bound occurrences must line up, not just names
    assert not alpha_eq(parse_term("\\x. \\y. x"), parse_term("\\x. \\y. y"))
    # literals and scalars are compared by value
    assert not alpha_eq(parse_term("True"), parse_term("False"))
    assert not alpha_eq(parse_term("0.5 * [True]"), parse_term("0.25 * [True]"))


def test_alpha_eq_free_vars_by_name():
    assert alpha_eq(parse_term("f x"), parse_term("f x"))
    assert not alpha_eq(parse_term("f x"), parse_term("g x"))


# ---- free variables and substitution ---------------------------------------

def test_free_vars():
    from qarrow.parser import parse_command
    assert free_vars(parse_term("\\x. (x, y)")) == {"y"}
    assert free_vars(parse_term("let x = y in x")) == {"y"}
    assert free_vars(parse_term("\\@x. let y = f @ x in [(y, z)]")) == {"f", "z"}
    assert free_vars(parse_command("meas q")) == {"q"}


def test_subst_basic():
    t = parse_term("(x, x)")
    out = subst_map(t, {"x": BoolLit(True)})
    assert alpha_eq(out, parse_term("(True, True)"))


def test_subst_shadowing():
    t = parse_term("\\x. (x, y)")
    out = subst_map(t, {"x": BoolLit(True)})
    assert alpha_eq(out, t)   # bound x untouched


def test_subst_capture_avoidance():
    # substituting y for x under a binder named y must rename the binder
    t = parse_term("\\y. (x, y)")
    out = subst_map(t, {"x": Var("y")})
    assert alpha_eq(out, parse_term("\\z. (y, z)"))
    assert not alpha_eq(out, parse_term("\\z. (z, z)"))


def test_subst_capture_avoidance_command():
    t = parse_term("\\@y. [(x, y)]")
    out = subst_map(t, {"x": Var("y")})
    assert alpha_eq(out, parse_term("\\@z. [(y, z)]"))


def test_subst_keeps_untouched_subtrees():
    t = parse_term("(\\@y. [(x, y)], (\\z. z, w))")
    out = subst_map(t, {"x": BoolLit(True)})
    assert out.right is t.right and out.left is not t.left
    assert subst_map(t, {"v": BoolLit(True)}) is t


# ---- rebuild: the one copy rule -----------------------------------------

def _fields_are(node, changes, like):
    """Every field of `node` is that of `changes`, or else that of `like`."""
    return all(getattr(node, f) is changes.get(f, getattr(like, f))
               for f in node.fields)


def test_rebuild_returns_the_node_when_nothing_changes():
    sup = SuperT(ProdT(BoolT(), BoolT()), BoolT())
    node = CApp(Var("f"), Var("x", pos=Pos(1, 6)), pos=Pos(1, 1), fn_type=sup)
    assert rebuild(node, {}) is node
    # every child is the old one, by identity
    assert rebuild(node, {"fn": node.fn, "arg": node.arg}) is node
    assert rebuild(node, {"arg": node.arg, "fn_type": sup}) is node
    lam = Lam(PVar("x"), node, pos=Pos(1, 1))
    assert rebuild(lam, {"pat": lam.pat, "body": node}) is lam


def test_rebuild_copies_a_distinct_field():
    sup = SuperT(BoolT(), BoolT())
    node = CApp(Var("f"), Var("x", pos=Pos(1, 6)), pos=Pos(1, 1), fn_type=sup)
    # `==` ignores positions and annotations, so an equal child may be a
    # moved or re-typed one, and must be kept; an equal annotation may
    # carry other positions
    inner = ArrowAbs(PVar("y"), CUnit(Var("y")))
    typed = rebuild(inner, {"type_": sup})
    outer = Lam(PVar("z"), inner, pos=Pos(3, 1))
    cases = [
        (node, {"arg": Var("x", pos=Pos(1, 7))}),
        (node, {"fn_type": SuperT(ProdT(BoolT(), BoolT()), BoolT())}),
        (node, {"fn_type": SuperT(BoolT(pos=Pos(2, 1)), BoolT())}),
        (node, {"fn_type": None}),
        (outer, {"body": typed}),
        (outer, {"pat": PVar("z")}),
        (VecScale(0.5, Var("v")), {"scalar": complex(0.5)}),
    ]
    for old, changes in cases:
        new = rebuild(old, changes)
        assert new is not old and new == old, changes
        assert _fields_are(new, changes, old), changes
    assert typed is not inner and typed.type_ is sup
    assert rebuild(outer, {"body": typed}).body.type_ is sup


# ---- misc helpers -----------------------------------------------------------

def test_pattern_names():
    t = parse_term("\\(a,(b,c)). a")
    assert tuple(pattern_names(t.pat)) == ("a", "b", "c")


def test_lin_type_desugars():
    from qarrow.parser import parse_type
    assert parse_type("Lin Bool Bool") == FunT(BoolT(), VecT(BoolT()))
    assert lin_type(BoolT(), BoolT()) == FunT(BoolT(), VecT(BoolT()))


def test_type_str_shapes():
    from qarrow.parser import parse_type
    for src, expect in [
        ("Bool", "Bool"),
        ("(Bool,Bool)", "(Bool,Bool)"),
        ("Super (Bool,Bool) Bool", "Super (Bool,Bool) Bool"),
        ("Bool -> Vec Bool", "Bool -> Vec Bool"),
    ]:
        assert type_str(parse_type(src)) == expect


# ---- the child declaration ---------------------------------------------------

def _node_classes():
    todo, out = [Term, Command, TypeExpr], []
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


@pytest.mark.parametrize("cls", _node_classes(), ids=lambda c: c.__name__)
def test_child_declaration_is_complete(cls):
    hints = typing.get_type_hints(cls)
    names = list(cls.fields)
    # every annotation is a field, a base's first
    assert set(hints) == set(names) and names[0] == "pos"
    # declared children are real fields, listed in field order
    assert list(cls.child_fields) == [n for n in names if n in cls.child_fields]
    for name in names:
        hint = hints[name]
        holds_node = isinstance(hint, type) and issubclass(hint, Node)
        if name == "pat":
            assert hint is Pattern and cls.binder
            assert len(cls.child_fields) >= 1   # the binder's scope
        elif name in cls.compared_fields:
            # every compared subtree is a child; everything else is data
            assert holds_node == (name in cls.child_fields), name
            assert (name in cls.data_fields) == (not holds_node), name
        elif name != "pos":
            # recorded annotations: the checker resolves the TypeExpr ones
            assert name in cls.annot_fields
            assert not holds_node
    assert cls.binder == ("pat" in names)


def _bound_names(node):
    names = set(pattern_names(node.pat)) if node.binder else set()
    for f in node.child_fields:
        names |= _bound_names(getattr(node, f))
    return names


def _freshen_all(node, env, counter):
    """Rename every binder to a name no source program can contain."""
    if type(node) is Var:
        return Var(env.get(node.name, node.name))
    if not node.binder:
        return rebuild(node, {f: _freshen_all(getattr(node, f), env, counter)
                              for f in node.child_fields})
    *outer, body = node.child_fields
    changes = {f: _freshen_all(getattr(node, f), env, counter) for f in outer}
    inner = dict(env)

    def rename(p):
        if isinstance(p, PVar):
            counter[0] += 1
            inner[p.name] = f"#{counter[0]}"
            return PVar(inner[p.name])
        return PPair(rename(p.left), rename(p.right))

    changes["pat"] = rename(node.pat)
    changes[body] = _freshen_all(getattr(node, body), inner, counter)
    return rebuild(node, changes)


def _within(frames, walk, *args):
    """`walk(*args)`, run with `frames` stack frames to spare beyond this
    call's own, and a margin for the calls in between."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames + 50)
    try:
        return walk(*args)
    finally:
        sys.setrecursionlimit(limit)


def test_walks_recurse_once_per_level():
    # each walk of a 400-deep let chain takes one frame per level, or two
    # for substitution (through its binder helper) and for elaboration
    # (``elaborate_term`` and ``_elab_term``); a comprehension per level
    # would add 400 more, which the budget below does not leave
    n = 400
    t = Var("y")
    for i in range(n):
        t = Let(PVar(f"x{i}"), Var("y"), t)
    out = _within(2 * n, subst_map, t, {"y": BoolLit(True)})
    assert _within(n, free_vars, t) == {"y"} and free_vars(out) == set()
    assert _within(n, alpha_eq, t, t) and not alpha_eq(t, out)
    # the innermost binder is named like a definition
    apart = _within(n, Rewriter({"x0": BoolLit(True)}).rename_apart, t)
    assert alpha_eq(apart, t) and "x0" not in _bound_names(apart)

    # unannotated, so the checker makes type variables; each let pairs
    # the one before with the argument, so the type is as deep as the chain
    chain = Var(f"x{n - 1}")
    for i in reversed(range(1, n)):
        chain = Let(PVar(f"x{i}"), Pair(Var(f"x{i - 1}"), Var("y")), chain)
    chain = Let(PVar("x0"), Pair(Var("y"), Var("y")), chain)
    app = App(Lam(PVar("y"), chain), BoolLit(True))
    checker = Checker()
    ty, tree = _within(2 * n, checker.elaborate_term, EnvPair(), app)
    assert checker.uni._next
    ty = _within(n, checker.uni.resolve, ty)
    tree = _within(n, checker.finalize, tree)
    # checked again at its type, the elaborated chain comes back as it is
    again = _within(2 * n, elaborate_term, {}, tree, ty)
    assert type_str(again[0]) == type_str(ty) and again[1] is tree


def _random_term(seed, family):
    if family == "super":
        return randprog.random_super(seed, depth=2)[0]
    return randprog.law_instance(seed, family).term


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 10**6),
       st.sampled_from(["super"] + sorted(randprog.FAMILIES)),
       st.integers(0, 10**6))
def test_walks_respect_binders(seed, family, pick):
    t = _random_term(seed, family)
    fv = sorted(free_vars(t))
    if fv:
        # substitute a term mentioning a name bound inside t, so that
        # capture avoidance must rename a binder
        x = fv[pick % len(fv)]
        bound = sorted(_bound_names(t)) or ["z"]
        n = Pair(Var(bound[pick % len(bound)]), Var("z"))
        out = subst_map(t, {x: n})
        assert free_vars(out) == (free_vars(t) - {x}) | free_vars(n)
    fresh = _freshen_all(t, {}, [0])
    assert alpha_eq(t, fresh) and alpha_eq(fresh, t)
    assert free_vars(fresh) == free_vars(t)
