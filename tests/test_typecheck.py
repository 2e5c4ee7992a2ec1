"""Two-environment typechecker: inference, elaboration, diagnostics."""
import hashlib
import operator
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

import randprog
import structural
from qarrow.parser import parse_program, parse_term, parse_type
from qarrow.rewriter import apply_law_at, Law, normalize
from qarrow.stdlib import prelude_source
from qarrow.syntax import (ArrowAbs, BoolLit, BoolT, CApp, CLet, CUnit, FunT,
                           Lam, Let, Meas, MZero, Pair, Pos, pretty, ProdT,
                           PVar, SuperT, TrL, TypeExpr, type_str, Var, VecLet,
                           VecT, VecUnit)
from qarrow.typecheck import (elaborate_program, elaborate_term, EnvPair,
                              TypeCheckError, Unifier)

from ill_typed import ILL_TYPED

B = BoolT()
BB = ProdT(B, B)


def infer_str(src, types=None, expected=None):
    ty, _ = elaborate_term(types or {}, parse_term(src), expected)
    return type_str(ty)


# ---- inference ---------------------------------------------------------------

def test_literals_and_pairs():
    assert infer_str("True") == "Bool"
    assert infer_str("(True, (False, True))") == "(Bool,(Bool,Bool))"


def test_lambda_with_expected():
    assert infer_str("\\x. x", expected=FunT(B, B)) == "Bool -> Bool"
    assert infer_str("\\(a,b). b", expected=FunT(BB, B)) == "(Bool,Bool) -> Bool"


def test_lambda_inferred_from_body():
    assert infer_str("\\x. if x then False else True") == "Bool -> Bool"
    assert infer_str("\\x. (x == True, x)") == "Bool -> (Bool,Bool)"


def test_app_and_projections(prelude):
    assert infer_str("not True", prelude.types) == "Bool"
    assert infer_str("fst (True, (False, False))") == "Bool"
    assert infer_str("snd (True, (False, False))") == "(Bool,Bool)"


def test_classical_let():
    assert infer_str("let p = (True, False) in fst p") == "Bool"


def test_monadic_let_backtracking(prelude):
    # bound term is Vec, so the let must elaborate monadically
    ty, t = elaborate_term(prelude.types,
                           parse_term("let y = hadamard True in [not y]"))
    assert type_str(ty) == "Vec Bool"
    assert isinstance(t, VecLet)
    # bound term classical: stays a plain let
    ty2, t2 = elaborate_term(prelude.types,
                             parse_term("let y = not True in [y]"))
    assert type_str(ty2) == "Vec Bool"
    assert isinstance(t2, Let)
    # body not a vector: the monadic reading is dropped for a plain let
    ty3, t3 = elaborate_term(prelude.types,
                             parse_term("let x = hadamard True in True"))
    assert type_str(ty3) == "Bool"
    assert isinstance(t3, Let)
    # the monadic reading fails to check (v + v needs vectors, the bind
    # gives v : Bool): the let falls back to a plain one, v : Vec Bool
    ty4, t4 = elaborate_term(prelude.types,
                             parse_term("let v = hadamard True in v + v"))
    assert type_str(ty4) == "Vec Bool"
    assert isinstance(t4, Let)


def test_vec_operations(prelude):
    assert infer_str("[True] + [False]") == "Vec Bool"
    assert infer_str("mzero - [True]") == "Vec Bool"
    assert infer_str("0.5+0.5i * [(True, False)]") == "Vec (Bool,Bool)"
    assert infer_str("hadamard True", prelude.types) == "Vec Bool"


def test_mzero_needs_context():
    assert infer_str("mzero", expected=VecT(BB)) == "Vec (Bool,Bool)"
    with pytest.raises(TypeCheckError) as ei:
        infer_str("mzero")
    assert "ambiguous" in str(ei.value)


def test_arrow_abs_types(prelude):
    assert infer_str("\\@x. [not x]", prelude.types) == "Super Bool Bool"
    # measurement alone does not pin its operand type; the signature does
    assert infer_str("\\@q. let (a,b) = meas q in trL (a, b)",
                     prelude.types, SuperT(B, B)) == "Super Bool Bool"
    assert infer_str("\\@(x,y). let h = Had @ x in Cnot @ (h, y)",
                     prelude.types) == "Super (Bool,Bool) (Bool,Bool)"
    # arrow application of a function whose type is still unsolved
    assert infer_str("(\\f. \\@x. f @ x) Had",
                     prelude.types) == "Super Bool Bool"


def test_meas_and_trl_types(prelude):
    assert infer_str("\\@q. meas q", prelude.types,
                     SuperT(B, BB)) == "Super Bool (Bool,Bool)"
    assert infer_str("\\@p. trL p", prelude.types,
                     SuperT(BB, B)) == "Super (Bool,Bool) Bool"


def test_polymorphic_forms_are_ambiguous(prelude):
    for src in ("\\x. x", "\\@x. [x]", "\\@q. meas q"):
        with pytest.raises(TypeCheckError) as ei:
            infer_str(src, prelude.types)
        assert "ambiguous" in str(ei.value)


@pytest.mark.parametrize("src, message", [
    ("\\x. x x",
     "t.qarr:1:5: mismatch: expected ?, found ? -> ? (cyclic type)"),
    ("\\x. [x] + x",
     "t.qarr:1:9: mismatch: expected ?, found Vec ? (cyclic type)"),
    ("\\@x. True @ x",
     "t.qarr:1:6: mismatch: expected Super ? ?, found Bool "
     "(arrow application needs a superoperator)"),
    ("\\f. (fst f, f True)",
     "t.qarr:1:13: mismatch: expected Bool -> ?, found (?,?) "
     "(application needs a function)"),
])
def test_unknown_types_print_as_question_marks(prelude, src, message):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_term(prelude.types, parse_term(src, "t.qarr"))
    assert str(ei.value) == message


def test_unit_modes(prelude):
    # classical content -> classical unit; Vec content -> monadic lift
    _, t1 = elaborate_term(prelude.types, parse_term("\\@x. [not x]"),
                           SuperT(B, B))
    assert t1.cmd.mode == "classical"
    _, t2 = elaborate_term(prelude.types, parse_term("\\@x. [hadamard x]"),
                           SuperT(B, B))
    assert t2.cmd.mode == "vec"


# ---- elaboration annotations ---------------------------------------------------

def test_elaboration_annotates(prelude):
    src = "\\@(m,a). let p = Cnot @ (m, a) in let (z,v) = meas (fst p) in trL (z, v)"
    ty, t = elaborate_term(prelude.types, parse_term(src))
    assert type_str(ty) == "Super (Bool,Bool) Bool"
    assert type_str(t.type_) == "Super (Bool,Bool) Bool"
    outer = t.cmd
    assert isinstance(outer, CLet)
    assert type_str(outer.bound_type) == "(Bool,Bool)"
    assert type_str(outer.bound.fn_type) == "Super (Bool,Bool) (Bool,Bool)"
    inner = outer.body
    assert isinstance(inner.bound, Meas)
    assert type_str(inner.bound.arg_type) == "Bool"
    assert isinstance(inner.body, TrL)
    assert type_str(inner.body.arg_type) == "(Bool,Bool)"


def test_annotations_survive_reelaboration(prelude):
    src = "\\@x. QNot @ x"
    ty, t = elaborate_term(prelude.types, parse_term(src),
                           SuperT(B, B))
    # elaborated output re-checks without an expected type
    ty2, t2 = elaborate_term(prelude.types, t)
    assert type_str(ty2) == type_str(ty)


def test_inner_abstraction_closed_over_commands(prelude):
    # a closed inner abstraction in function position is fine...
    src = "\\@x. (\\@z. [not z]) @ x"
    ty, _ = elaborate_term(prelude.types, parse_term(src), SuperT(B, B))
    assert type_str(ty) == "Super Bool Bool"
    # ...but one that reads the enclosing command variable would select a
    # superoperator based on quantum data: delta-misuse, not unbound
    with pytest.raises(TypeCheckError) as ei:
        elaborate_term(prelude.types,
                       parse_term("\\@x. (\\@z. [(x, z)]) @ x"),
                       SuperT(B, BB))
    assert ei.value.kind == "delta-misuse"


def test_shadowing():
    src = "\\x. let x = (x, x) in fst x"
    assert infer_str(src, expected=FunT(B, B)) == "Bool -> Bool"


# ---- environments ---------------------------------------------------------------

def test_env_pair_delta_lookup(prelude):
    env = EnvPair(dict(prelude.types), {"q": B})
    ty, _ = elaborate_term(env, parse_term("not q"))
    assert type_str(ty) == "Bool"


def test_env_pair_keeps_hidden_names():
    env = EnvPair({}, {"q": B}, frozenset({"x"}))
    with pytest.raises(TypeCheckError) as ei:
        elaborate_term(env, parse_term("x"))
    assert ei.value.kind == "delta-misuse"


# ---- diagnostics ----------------------------------------------------------------

@pytest.mark.parametrize("src,kind,why", ILL_TYPED,
                         ids=[c[2].replace(" ", "-") for c in ILL_TYPED])
def test_ill_typed_programs(prelude, src, kind, why):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(parse_program(src), dict(prelude.types))
    assert ei.value.kind == kind


def test_error_rendering_format(prelude):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(parse_program("f : Bool = [True]", "demo.qarr"),
                          dict(prelude.types))
    msg = str(ei.value)
    assert msg.startswith("demo.qarr:1:12: mismatch: ")
    assert "expected Bool" in msg and "found Vec Bool" in msg


# One rule checks fst and snd, one meas and trL, one both Vec and Super
# annotations, and one every ambiguity; each keeps its own text, byte for byte.
@pytest.mark.parametrize("src, message", [
    ("f = fst True",
     "t.qarr:1:5: mismatch: expected (?,?), found Bool (fst needs a pair)"),
    ("f = snd True",
     "t.qarr:1:5: mismatch: expected (?,?), found Bool (snd needs a pair)"),
    ("f : Super Bool Bool = \\@x. trL x",
     "t.qarr:1:28: mismatch: expected (?,?), found Bool (trL needs a pair)"),
    ("f : Vec (Bool -> Bool) = mzero",
     "t.qarr:1:5: non-classical-basis: Vec (Bool -> Bool) needs a classical "
     "index type"),
    ("f : Super (Bool -> Bool) Bool = \\@x. [True]",
     "t.qarr:1:5: non-classical-basis: Super (Bool -> Bool) Bool needs "
     "classical index types"),
    ("f : Bool -> Super Bool (Bool -> Bool) = \\x. \\@y. [x]",
     "t.qarr:1:13: non-classical-basis: Super Bool (Bool -> Bool) needs "
     "classical index types"),
    ("f : Super Bool Bool = \\@x. [\\y. y]",
     "t.qarr:1:28: non-classical-basis: a command unit needs a classical or "
     "vector-typed content, found ? -> ?"),
    # an obligation left unsolved: the unit's content type
    ("f = snd (\\@x. [x], True)",
     "t.qarr:1:15: mismatch: ambiguous type; an annotation is required"),
    # the result type left unsolved
    ("f = \\x. x",
     "t.qarr:1:5: mismatch: ambiguous type; an annotation is required"),
])
def test_error_texts(prelude, src, message):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(parse_program(src, "t.qarr"), dict(prelude.types))
    assert str(ei.value) == message


def test_error_positions(prelude):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(
            parse_program("f : Bool = True\ng : Bool = not (True, True)"),
            dict(prelude.types))
    assert ei.value.pos.line == 2


def test_annotation_validation_positions():
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(
            parse_program("f : Super (Vec Bool) Bool = \\@x. [x]"), {})
    assert ei.value.kind == "non-classical-basis"


def test_delta_misuse_is_not_unbound(prelude):
    # the same name resolves fine as an argument...
    ty, _ = elaborate_term(prelude.types, parse_term("\\@x. QNot @ x"),
                           SuperT(B, B))
    # ...but is a delta-misuse, not an unbound error, in function position
    with pytest.raises(TypeCheckError) as ei:
        elaborate_term(prelude.types,
                       parse_term("\\@x. (fst (x, QNot)) @ x"), SuperT(B, B))
    assert ei.value.kind == "delta-misuse"


@pytest.mark.parametrize("src, name", [
    ("f = \\@q. let Had = QNot @ q in Had @ q", "Had"),   # a prelude name
    ("g = \\f. \\@q. let f = f @ q in f @ q", "f"),     # a lambda's name
], ids=["global", "lambda"])
def test_delta_binding_hides_a_gamma_name(prelude, src, name):
    """A command ``let`` takes its name out of gamma, so the name used as an
    arrow's function is the command variable, which is a delta-misuse."""
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(parse_program(src, "d.qarr"), dict(prelude.types))
    assert ei.value.kind == "delta-misuse"
    assert (ei.value.pos.line, ei.value.pos.col) == (1, src.rindex(name) + 1)


def test_program_duplicate_definition(prelude):
    # duplicates never reach the checker; the parser rejects them
    from qarrow.parser import ParseError
    with pytest.raises(ParseError) as ei:
        parse_program("f : Bool = True\nf : Bool = False")
    assert "duplicate" in str(ei.value)


def test_whole_prelude_checks(prelude):
    # load_prelude already elaborates; spell it out once explicitly
    from qarrow.parser import parse_program as pp
    from qarrow.stdlib import prelude_source
    types, _ = elaborate_program(pp(prelude_source(), "prelude.qarr"))
    assert type_str(types["teleport"]) == "Super (Bool,(Bool,Bool)) Bool"
    assert type_str(types["toffoli"]) == \
        "Super (Bool,(Bool,Bool)) (Bool,(Bool,Bool))"


# ---- pinned elaborations ------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_demo():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```text\n(.*?)^```", text, re.M | re.S)[0]


def _random_source(n=200):
    parts = []
    for seed in range(n):
        term, ty = randprog.random_super(seed, depth=4)
        parts.append(f"rand{seed} : {type_str(ty)}\n"
                     f"rand{seed} = {pretty(term)}\n")
    return "\n".join(parts)


def _pinned_corpus(prelude):
    """(name, parsed program, gamma): the prelude, the README demo and 200
    random superoperators, each parsed with positions."""
    return [
        ("prelude", parse_program(prelude_source(), "prelude.qarr"), {}),
        ("demo", parse_program(_readme_demo(), "demo.qarr"), prelude.types),
        ("random", parse_program(_random_source(), "rand.qarr"),
         prelude.types),
    ]


def _type_lines(t, out):
    out.append(repr(t.pos))
    for f in t.child_fields:
        _type_lines(getattr(t, f), out)


def _tree_lines(node, out):
    """Each node's position and recorded annotations, and the position of
    every node of each recorded type, in preorder."""
    out.append(f"{type(node).__name__} {node.pos!r}")
    for f in node.annot_fields:
        a = getattr(node, f)
        out.append(f"{f}={a!r}")
        if isinstance(a, TypeExpr):
            _type_lines(a, out)
    for f in node.child_fields:
        _tree_lines(getattr(node, f), out)


PINNED_SHA256 = (
    "aeed2cfdd1044acf55203b80390f581d2a5e074e3bfdbb187cf2a8eae7953278")


def test_elaborated_trees_keep_their_positions(prelude):
    """The elaborated trees, with the position of every node and of every
    node of every type they record, are those the unifier has always
    produced: which of several equal types a node records shows only in
    these positions."""
    digest = hashlib.sha256()
    for name, prog, gamma in _pinned_corpus(prelude):
        types, el = elaborate_program(prog, dict(gamma))
        for d in el.defs:
            out = [name, d.name, repr(d.term), repr(types[d.name])]
            _tree_lines(d.term, out)
            digest.update("\n".join(out).encode())
    assert digest.hexdigest() == PINNED_SHA256


def _copies(parsed, elaborated, out):
    """Append to `out` each elaborated node that is not its parsed node
    though its children are the parsed node's own and it records nothing."""
    if elaborated is parsed:
        return
    kids = [getattr(parsed, f) for f in parsed.child_fields]
    new = [getattr(elaborated, f) for f in elaborated.child_fields]
    if (len(kids) == len(new) and all(map(operator.is_, kids, new))
            and all(getattr(elaborated, f) is None
                    for f in elaborated.annot_fields)):
        out.append(elaborated)
    for p, e in zip(kids, new):
        _copies(p, e, out)


def test_unchanged_nodes_are_shared(prelude):
    """The checker returns the very node it was given wherever no child
    changed and there is nothing to record on it."""
    for name, prog, gamma in _pinned_corpus(prelude):
        _, el = elaborate_program(prog, dict(gamma))
        copies = []
        for before, after in zip(prog.defs, el.defs):
            _copies(before.term, after.term, copies)
        assert copies == [], name


def test_reelaborating_an_elaborated_definition_returns_it(prelude):
    """An elaborated definition checked again, at its type or at none,
    comes back as the very same object: every type it records comes out
    equal, so no node is copied."""
    checked = 0
    for name, prog, gamma in _pinned_corpus(prelude):
        types, el = elaborate_program(prog, dict(gamma))
        env = dict(gamma)
        for d in el.defs:
            for expected in (types[d.name], None):
                assert elaborate_term(env, d.term, expected)[1] is d.term, (
                    name, d.name, expected)
            env[d.name] = types[d.name]
            checked += 1
    assert checked > 200


def _elaborated_sides(prelude, defs_map):
    """(law instance, its type, side, whether the side is the result of
    the law) for both sides of law instances of every family."""
    for family in sorted(randprog.FAMILIES):
        for seed in (1, 2, 3):
            for j in range(24):
                inst = randprog.law_instance(seed * 1000 + j, family)
                ty, before = elaborate_term(prelude.types, inst.term,
                                            inst.type_)
                after = apply_law_at(before, inst.path, inst.law,
                                     inst.direction, defs=defs_map)
                yield inst, ty, before, False
                yield inst, ty, after, True


def _steps_keep_their_types(prelude, defs_map, term, ty) -> int:
    """Check that the result of every step of normalizing `term`, checked
    again at `ty`, comes back as the same object; the number of steps."""
    steps = normalize(term, defs_map).steps
    for step in steps:
        assert elaborate_term(prelude.types, step.result, ty)[1] \
            is step.result, (step.law, step.path)
    return len(steps)


def test_every_law_step_keeps_the_recorded_types(prelude, defs_map):
    """Subject reduction, step by step: a law instance's sides and the
    result of every step of their normalization, checked again at their
    type, come back as the same object, recorded types and positions
    included.  One law result is the exception: ``bind.assoc`` right to
    left regroups a bind whose bound's type is recorded nowhere, so it
    builds that ``VecLet`` with ``type_=None`` and the checker fills it."""
    steps = regrouped = 0
    for inst, ty, side, result in _elaborated_sides(prelude, defs_map):
        again = elaborate_term(prelude.types, side, ty)[1]
        unrecorded = result and inst.law is Law("bind.assoc") \
            and inst.direction == "R2L"
        assert (again is side) is not unrecorded, (inst.law, inst.direction)
        regrouped += unrecorded
        steps += _steps_keep_their_types(prelude, defs_map, again, ty)
    assert steps > 2000 and regrouped > 0


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(structural.terms(3))
def test_every_structural_step_keeps_the_recorded_types(prelude, defs_map,
                                                        case):
    src, type_src = case
    ty = parse_type(type_src)
    _, term = elaborate_term(prelude.types, parse_term(src), ty)
    assert elaborate_term(prelude.types, term, ty)[1] is term
    _steps_keep_their_types(prelude, defs_map, term, ty)


def test_reelaborating_the_prelude_makes_no_type_variable(prelude,
                                                          monkeypatch):
    """An elaborated definition checked again at its own type has every
    type it needs on hand: the checker reads it, makes no variable, and
    gives the same tree back, positions and annotations included."""
    made = []
    fresh = Unifier.fresh

    def counted(self):
        made.append(1)
        return fresh(self)

    monkeypatch.setattr(Unifier, "fresh", counted)
    for d in prelude.program.defs:
        made.clear()
        ty, tree = elaborate_term(prelude.types, d.term, prelude.types[d.name])
        assert (d.name, len(made)) == (d.name, 0)
        assert ty == prelude.types[d.name] and tree == d.term
        want, got = [], []
        _tree_lines(d.term, want)
        _tree_lines(tree, got)
        assert got == want, d.name


# Each error on the checker's unification path, with the type wrong where
# it is known and where it is not yet; the texts were recorded before the
# checker learned to read a known pair or vector type.
def _at(line, col):
    return Pos(line, col, "c.qarr")


@pytest.mark.parametrize("src, message", [
    ("v = [True] + [False]\nw = fst v",
     "c.qarr:2:5: mismatch: expected (?,?), found Vec Bool (fst needs a pair)"),
    ("v = [True] + [False]\nw = snd v",
     "c.qarr:2:5: mismatch: expected (?,?), found Vec Bool (snd needs a pair)"),
    ("f = \\x. (x + x, fst x)",
     "c.qarr:1:17: mismatch: expected (?,?), found Vec ? (fst needs a pair)"),
    ("f : Super Bool Bool = \\@x. trL [x]",
     "c.qarr:1:28: mismatch: expected (?,?), found Vec Bool "
     "(trL needs a pair)"),
    ("f = True + False",
     "c.qarr:1:10: mismatch: expected Vec ?, found Bool "
     "(+/- applies to vector-typed terms)"),
    ("f = (True, False) - (True, False)",
     "c.qarr:1:19: mismatch: expected Vec ?, found (Bool,Bool) "
     "(+/- applies to vector-typed terms)"),
    ("f = \\x. (fst x, x + x)",
     "c.qarr:1:19: mismatch: expected Vec ?, found (?,?) "
     "(+/- applies to vector-typed terms)"),
    ("f = 0.5 * True",
     "c.qarr:1:5: mismatch: expected Vec ?, found Bool "
     "(scaling applies to vector-typed terms)"),
    ("f = \\x. (fst x, 0.5 * x)",
     "c.qarr:1:17: mismatch: expected Vec ?, found (?,?) "
     "(scaling applies to vector-typed terms)"),
], ids=["fst-known", "snd-known", "fst-solved", "trL-known", "plus-known",
        "minus-known", "plus-solved", "scale-known", "scale-solved"])
def test_fallback_error_texts(prelude, src, message):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(parse_program(src, "c.qarr"), dict(prelude.types))
    assert str(ei.value) == message


# `VecLet` and an annotated `mzero` come only from elaborated trees, so
# these are built by hand.
@pytest.mark.parametrize("term, message", [
    (VecLet(PVar("x"), BoolLit(True, pos=_at(1, 9)),
            VecUnit(Var("x", pos=_at(1, 18)), pos=_at(1, 17)), pos=_at(1, 1)),
     "c.qarr:1:1: mismatch: expected Vec ?, found Bool (vector bind)"),
    (Lam(PVar("y"),
         VecLet(PVar("x"), Var("y", pos=_at(1, 9)),
                Pair(Var("y", pos=_at(1, 18)), Var("x", pos=_at(1, 21)),
                     pos=_at(1, 17)), pos=_at(1, 5)), pos=_at(1, 1)),
     "c.qarr:1:5: mismatch: expected Vec ?, found (Vec ?,?) "
     "(vector bind body)"),
    (VecLet(PVar("x"), VecUnit(BoolLit(True, pos=_at(1, 10)), pos=_at(1, 9)),
            Var("x", pos=_at(1, 18)), pos=_at(1, 1)),
     "c.qarr:1:1: mismatch: expected Vec ?, found Bool (vector bind body)"),
    (MZero(pos=_at(1, 1), type_=BoolT()),
     "c.qarr:1:1: mismatch: expected Vec ?, found Bool (mzero is vector-typed)"),
    (MZero(pos=_at(1, 1), type_=ProdT(BoolT(), BoolT())),
     "c.qarr:1:1: mismatch: expected Vec ?, found (Bool,Bool) "
     "(mzero is vector-typed)"),
], ids=["bind-known", "bind-body-solved", "bind-body-known", "mzero-bool",
        "mzero-pair"])
def test_fallback_error_texts_on_elaborated_forms(prelude, term, message):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_term(prelude.types, term)
    assert str(ei.value) == message
