"""Rewriting engine: the law catalog, single-step application, automatic
normalization with replayable traces, and the equality prover."""

import itertools

import numpy as np
import pytest

from qarrow import (
    Law,
    NotEqual,
    ProvedByNormalization,
    ProvedSemantically,
    RewriteError,
    Unknown,
    alpha_eq,
    apply_law_at,
    elaborate_term,
    eval_term,
    free_vars,
    normalize,
    parse_command,
    parse_term,
    parse_type,
    pretty,
    prove_equal,
    render_trace,
    trace_to_json,
    type_str,
)
from qarrow.evaluator import _witness_states, compare_values
from qarrow.linalg import dim, pure_density
from qarrow.rewriter import ProofTrace, Rewriter, get_at, replace_at
from qarrow.syntax import (BoolT, CLet, CUnit, FunT, MZero, ProdT, PVar,
                           Var, VecAdd, VecLet, VecT)

import randprog
from dense_arrow import apply_super
from helpers import laws, rebind, replay

B = BoolT()
BB = ProdT(B, B)
T = parse_term
C = parse_command


def unitc(src):
    return CUnit(T(src), mode="classical")


def vlet(name, bound, body, type_=None):
    return VecLet(PVar(name), bound, body, type_=type_)


# --------------------------------------------------------------------------
# Catalog


def test_law_catalog():
    assert len(Law) == 27
    assert len({law.value for law in Law}) == 27


def test_auto_laws_are_reducing():
    # the eta contractions and the right-nesting associativities are
    # automatic too; tests/test_termination.py checks that every automatic
    # step lowers the termination measure.  bind.plus copies its body and
    # eta.x compares two whole subterms: both stay manual.
    auto = [law for law in Law if law.auto]
    assert set(Law) - set(auto) == {Law.ETA_PAIR, Law.BIND_PLUS}
    assert len(auto) == 25


def test_unsupported_direction():
    with pytest.raises(RewriteError, match="not supported"):
        apply_law_at(T("(\\x. x) True"), (), Law.BETA_FUN, "R2L")
    # a direction is exactly L2R or R2L; R2L applies here
    cmd = C("let x = QNot @ a in let y = Had @ x in [y]")
    apply_law_at(cmd, (), Law.ASSOC, "R2L")
    for direction in ("L2R ", "r2l", "backwards"):
        with pytest.raises(RewriteError, match="direction must be"):
            apply_law_at(cmd, (), Law.ASSOC, direction)


# --------------------------------------------------------------------------
# Single-step application: positive cases

POSITIVE = [
    (Law.BETA_ARROW, "L2R", C("(\\@z. [not z]) @ True"), C("[not True]")),
    (Law.ETA_ARROW, "L2R", T("\\@x. QNot @ x"), T("QNot")),
    (Law.LEFT_UNIT, "L2R",
     CLet(PVar("y"), unitc("True"), unitc("(y, y)")), unitc("(True, True)")),
    (Law.RIGHT_UNIT, "L2R",
     CLet(PVar("y"), C("QNot @ x"), unitc("y")), C("QNot @ x")),
    (Law.ASSOC, "L2R",
     C("let y = let w = QNot @ a in Had @ w in [not y]"),
     C("let w = QNot @ a in let y = Had @ w in [not y]")),
    (Law.ASSOC, "R2L",
     C("let w = QNot @ a in let y = Had @ w in [not y]"),
     C("let y = let w = QNot @ a in Had @ w in [not y]")),
    (Law.BETA_FUN, "L2R", T("(\\x. (x, x)) True"), T("(True, True)")),
    (Law.ETA_FUN, "L2R", T("\\x. not x"), T("not")),
    (Law.BETA_PAIR1, "L2R", T("fst (True, False)"), T("True")),
    (Law.BETA_PAIR2, "L2R", T("snd (True, False)"), T("False")),
    (Law.ETA_PAIR, "L2R", T("(fst p, snd p)"), T("p")),
    (Law.LET_SUBST, "L2R",
     T("let x = not True in (x, x)"), T("(not True, not True)")),
    (Law.IF_TRUE, "L2R", T("if True then a else b"), T("a")),
    (Law.IF_FALSE, "L2R", T("if False then a else b"), T("b")),
    (Law.EQ_LIT, "L2R", T("True == False"), T("False")),
    (Law.EQ_TRUE, "L2R", T("x == True"), T("x")),
    (Law.EQ_TRUE, "L2R", T("True == x"), T("x")),
    (Law.IF_DISTRIB, "L2R",
     T("if (if c then a else b) then p else q"),
     T("if c then (if a then p else q) else (if b then p else q)")),
    (Law.IF_DISTRIB, "R2L",
     T("if c then (if a then p else q) else (if b then p else q)"),
     T("if (if c then a else b) then p else q")),
    (Law.IF_ETA, "L2R", T("if c then True else False"), T("c")),
    (Law.BIND_LEFT, "L2R",
     vlet("y", T("[x]"), T("[not y]")), T("[not x]")),
    (Law.BIND_RIGHT, "L2R", vlet("y", Var("v"), T("[y]")), Var("v")),
    (Law.BIND_ASSOC, "L2R",
     vlet("y", vlet("w", Var("u"), T("[not w]")), T("[(y, y)]")),
     vlet("w", Var("u"), vlet("y", T("[not w]"), T("[(y, y)]")))),
    (Law.BIND_ASSOC, "R2L",
     vlet("w", Var("u"), vlet("y", T("[not w]"), T("[(y, y)]"))),
     vlet("y", vlet("w", Var("u"), T("[not w]")), T("[(y, y)]"))),
    (Law.ZERO_BIND, "L2R",
     vlet("y", MZero(), T("[not y]"), type_=VecT(B)), MZero(type_=VecT(B))),
    (Law.BIND_ZERO, "L2R",
     vlet("y", Var("v"), MZero(type_=VecT(B))), MZero(type_=VecT(B))),
    (Law.ZERO_PLUS, "L2R", T("mzero + v"), T("v")),
    (Law.PLUS_ZERO, "L2R", T("v + mzero"), T("v")),
    (Law.PLUS_ASSOC, "L2R", T("a + b + c"), T("a + (b + c)")),
    (Law.PLUS_ASSOC, "R2L", T("a + (b + c)"), T("a + b + c")),
    (Law.BIND_PLUS, "L2R",
     vlet("y", T("u + v"), T("[not y]")),
     VecAdd(vlet("y", Var("u"), T("[not y]")),
            vlet("y", Var("v"), T("[not y]")))),
    (Law.BIND_PLUS, "R2L",
     VecAdd(vlet("y", Var("u"), T("[not y]")),
            vlet("y", Var("v"), T("[not y]"))),
     vlet("y", T("u + v"), T("[not y]"))),
]


@pytest.mark.parametrize(
    "law,direction,node,expected", POSITIVE,
    ids=[f"{law.name}-{d}-{i}" for i, (law, d, _, _) in enumerate(POSITIVE)])
def test_positive_application(law, direction, node, expected):
    got = apply_law_at(node, (), law, direction)
    assert alpha_eq(got, expected), f"{pretty(got)} != {pretty(expected)}"


def test_delta_unfolds_classical_definitions(defs_map):
    got = apply_law_at(Var("not"), (), Law.DELTA, defs=defs_map)
    assert alpha_eq(got, defs_map["not"])


def test_delta_skips_arrow_definitions(defs_map):
    # unfolding a named superoperator inside a term would lose sharing and
    # is never needed; the rewriter leaves those names opaque
    with pytest.raises(RewriteError, match="not applicable"):
        apply_law_at(Var("QNot"), (), Law.DELTA, defs=defs_map)
    with pytest.raises(RewriteError, match="not applicable"):
        apply_law_at(Var("mystery"), (), Law.DELTA, defs=defs_map)


@pytest.mark.parametrize("src,unfolds", [
    # the binder's not, not the prelude's
    pytest.param("\\@not. [not]", False, id="\\@not. [not]"),
    # cnot's body reads the prelude's not, so the binder is renamed apart
    pytest.param("\\not. cnot (not, True)", True,
                 id="\\not. cnot (not, True)"),
])
def test_delta_refuses_a_bound_or_capturing_name(defs_map, src, unfolds):
    if not unfolds:
        with pytest.raises(RewriteError, match="not applicable"):
            apply_law_at(T(src), (0, 0), Law.DELTA, defs=defs_map)
        return
    got = apply_law_at(T(src), (0, 0), Law.DELTA, defs=defs_map)
    assert got.pat.name == "not'" and pretty(got.body.arg) == "(not', True)"
    assert alpha_eq(got.body.fn, defs_map["cnot"])


def test_delta_unfolds_once_the_capturing_binder_is_gone(defs_map):
    """The binder ``not`` would capture the name that ``cnot``'s body reads;
    normalization renames it apart before its search starts, so that binder
    is gone at once and the first step unfolds a ``cnot``."""
    trace = normalize(T("\\y. \\not. (if y then cnot else cnot) "
                        "(fst (not, True))"), defs=defs_map)
    first = trace.steps[0]
    assert (first.law, first.path) == (Law.DELTA, (0, 0, 0, 1))
    assert pretty(first.result).startswith("\\y. \\not'. (if y then \\(x,y).")
    assert trace.complete and "cnot" not in free_vars(trace.end)
    assert replay(Rewriter(defs_map), trace)


def test_delta_unfolds_under_a_binder_that_captures_nothing(defs_map):
    got = apply_law_at(T("\\y. cnot (y, True)"), (0, 0), Law.DELTA,
                       defs=defs_map)
    assert alpha_eq(got.body.fn, defs_map["cnot"])


# --------------------------------------------------------------------------
# Single-step application: side conditions and near misses

NEGATIVE = [
    (Law.BETA_ARROW, "L2R", C("QNot @ True")),
    (Law.ETA_ARROW, "L2R", T("\\@x. QNot @ (x, x)")),
    (Law.ETA_ARROW, "L2R", T("\\@x. (f x) @ x")),
    (Law.LEFT_UNIT, "L2R", CLet(PVar("y"), C("QNot @ x"), unitc("y"))),
    (Law.LEFT_UNIT, "L2R",
     CLet(PVar("y"), CUnit(T("hadamard x"), mode="vec"), unitc("(y, y)"))),
    (Law.RIGHT_UNIT, "L2R", CLet(PVar("y"), C("QNot @ x"), unitc("not y"))),
    (Law.ASSOC, "L2R",
     C("let w = QNot @ a in let y = Had @ w in [(y, w)]")),
    (Law.ASSOC, "R2L",
     C("let w = QNot @ a in let y = Had @ a in [(w, y)]")),
    (Law.BETA_FUN, "L2R", T("not True")),
    (Law.ETA_FUN, "L2R", T("\\x. not (x, x)")),
    (Law.ETA_FUN, "L2R", T("\\x. x x")),
    (Law.BETA_PAIR1, "L2R", T("fst p")),
    (Law.ETA_PAIR, "L2R", T("(fst p, snd q)")),
    (Law.LET_SUBST, "L2R", T("True")),
    (Law.IF_TRUE, "L2R", T("if x then a else b")),
    (Law.IF_FALSE, "L2R", T("if True then a else b")),
    (Law.EQ_LIT, "L2R", T("x == False")),
    (Law.EQ_TRUE, "L2R", T("x == False")),
    (Law.IF_DISTRIB, "L2R", T("if c then a else b")),
    (Law.IF_DISTRIB, "R2L",
     T("if c then (if a then p else q) else (if b then q else p)")),
    (Law.IF_ETA, "L2R", T("if c then False else True")),
    (Law.BIND_LEFT, "L2R", vlet("y", Var("v"), T("[y]"))),
    (Law.BIND_RIGHT, "L2R", vlet("y", Var("v"), T("[not y]"))),
    (Law.ZERO_BIND, "L2R", vlet("y", MZero(), T("[not y]"))),
    (Law.BIND_ZERO, "L2R", vlet("y", Var("v"), T("[y]"))),
    (Law.ZERO_PLUS, "L2R", T("v + mzero")),
    (Law.PLUS_ZERO, "L2R", T("mzero + v")),
    (Law.PLUS_ASSOC, "L2R", T("a + (b + c)")),
    (Law.BIND_PLUS, "R2L",
     VecAdd(vlet("y", Var("u"), T("[y]")), vlet("y", Var("v"), T("[not y]")))),
]


@pytest.mark.parametrize(
    "law,direction,node", NEGATIVE,
    ids=[f"{law.name}-{d}-{i}" for i, (law, d, _) in enumerate(NEGATIVE)])
def test_negative_application(law, direction, node):
    with pytest.raises(RewriteError, match="not applicable"):
        apply_law_at(node, (), law, direction)


# boolean laws are sound for every assignment of their free variables
BOOLEAN_EQUIV = [
    ("(\\x. (x, x)) True", "(True, True)"),
    ("if True then a else b", "a"),
    ("if False then a else b", "b"),
    ("True == False", "False"),
    ("x == True", "x"),
    ("True == x", "x"),
    ("if (if c then a else b) then p else q",
     "if c then (if a then p else q) else (if b then p else q)"),
    ("if c then True else False", "c"),
    ("fst (True, False)", "True"),
]


@pytest.mark.parametrize("before,after", BOOLEAN_EQUIV)
def test_boolean_laws_truth_tables(before, after):
    lhs, rhs = T(before), T(after)
    names = sorted(free_vars(lhs) | free_vars(rhs))
    for bits in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        assert eval_term(lhs, env) == eval_term(rhs, env)


# --------------------------------------------------------------------------
# Paths


def test_paths_walk_the_tree():
    t = T("\\@x. let y = QNot @ x in [not y]")
    assert len(t.child_fields) == 1
    cmd = get_at(t, (0,))
    assert isinstance(cmd, CLet)
    assert pretty(get_at(t, (0, 1, 0))) == "not y"
    swapped = replace_at(t, (0, 1, 0), T("y"))
    assert pretty(swapped) == "\\@x. let y = QNot @ x in [y]"
    assert pretty(t) == "\\@x. let y = QNot @ x in [not y]"  # original intact


def test_deep_application():
    t = T("\\@x. [not (fst (True, False))]")
    out = apply_law_at(t, (0, 0, 1), Law.BETA_PAIR1)
    assert pretty(out) == "\\@x. [not True]"


def test_invalid_path():
    for term, path in [("True", (0,)),
                       ("(fst (True, False), snd (True, False))", (-1,))]:
        with pytest.raises(RewriteError, match="leaves the tree"):
            get_at(T(term), path)
        with pytest.raises(RewriteError, match="leaves the tree"):
            replace_at(T(term), path, T("False"))


# --------------------------------------------------------------------------
# Normalization and traces

GOLDEN_START = "\\@x. let y = (\\@z. [not z]) @ x in (\\@w. [not w]) @ y"
GOLDEN_LAWS = [
    Law.BETA_ARROW, Law.LEFT_UNIT, Law.BETA_ARROW, Law.DELTA, Law.BETA_FUN,
    Law.DELTA, Law.BETA_FUN, Law.IF_DISTRIB, Law.IF_FALSE, Law.IF_TRUE,
    Law.IF_ETA,
]


def golden_term(prelude):
    # normalization acts on elaborated terms, where each unit knows whether
    # it embeds a classical value or lifts a vector
    _, term = elaborate_term(prelude.types, T(GOLDEN_START))
    return term


def test_golden_normalization(prelude, defs_map):
    trace = normalize(golden_term(prelude), defs=defs_map)
    assert laws(trace) == GOLDEN_LAWS
    assert pretty(trace.end) == "\\@x. [x]"
    assert trace.complete


def test_normalize_is_idempotent_and_deterministic(prelude, defs_map):
    t1 = normalize(golden_term(prelude), defs=defs_map)
    t2 = normalize(golden_term(prelude), defs=defs_map)
    assert [(s.law, s.path) for s in t1.steps] == \
           [(s.law, s.path) for s in t2.steps]
    again = normalize(t1.end, defs=defs_map)
    assert again.steps == () and alpha_eq(again.end, t1.end)


def test_render_trace_small():
    trace = normalize(T("(\\x. x) True"))
    assert render_trace(trace) == (
        "    (\\x. x) True\n"
        "= { beta }\n"
        "    True")


def test_trace_to_json_small():
    trace = normalize(T("(\\x. x) True"))
    assert trace_to_json(trace) == {
        "start": "(\\x. x) True",
        "steps": [{"law": "beta", "path": [], "direction": "L2R",
                   "result": "True"}],
        "end": "True",
        "complete": True,
    }


def test_fuel_exhaustion(prelude, defs_map):
    trace = normalize(golden_term(prelude), defs=defs_map, fuel=3)
    assert not trace.complete
    assert len(trace.steps) == 3
    assert "fuel exhausted" in render_trace(trace)
    assert trace_to_json(trace)["complete"] is False


def test_replay(prelude, defs_map):
    rw = Rewriter(defs_map)
    trace = rw.normalize(golden_term(prelude))
    assert replay(rw, trace)
    # a tampered step no longer replays
    bad_step = type(trace.steps[1])(trace.steps[1].law, trace.steps[1].path,
                                    trace.steps[1].direction, T("True"))
    tampered = ProofTrace(trace.start,
                          trace.steps[:1] + (bad_step,) + trace.steps[2:],
                          trace.end, trace.complete)
    assert not replay(rw, tampered)


def test_leftmost_outermost_order():
    # both projections are redexes; the outer-left one fires first
    trace = normalize(T("(fst (True, False), snd (True, False))"))
    assert [s.path for s in trace.steps] == [(0,), (1,)]
    assert pretty(trace.end) == "(True, False)"


# --------------------------------------------------------------------------
# The equality prover


def proved_kinds(v):
    return v.kind


def test_prove_by_normalization(prelude, defs_map):
    v = prove_equal(T("(\\x. not x) True"), T("not True"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, ProvedByNormalization)
    assert v.kind == "proved-by-normalization"
    assert "equal: both sides normalize" in v.describe()
    assert pretty(v.left_trace.end) == pretty(v.right_trace.end) == "False"


def test_prove_alpha_variants(prelude, defs_map):
    v = prove_equal(T("\\@x. let y = QNot @ x in [not y]"),
                    T("\\@w. let v = QNot @ w in [not v]"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, ProvedByNormalization)


def test_prove_semantically(prelude, defs_map):
    v = prove_equal(T("\\@q. let h = Had @ q in Had @ h"), T("\\@q. [q]"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, ProvedSemantically)
    assert v.max_diff <= 1e-12
    assert "denotations agree" in v.describe()


def test_prove_eta_arrow_by_normalization(prelude, defs_map):
    v = prove_equal(T("\\@x. QNot @ x"), T("QNot"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, ProvedByNormalization)
    assert laws(v.left_trace) == [Law.ETA_ARROW]


def test_prove_hadamard_involution(prelude, defs_map):
    v = prove_equal(T("\\@x. let y = Had @ x in Had @ y"), T("\\@x. [x]"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, ProvedSemantically)
    assert v.max_diff <= 1e-12


def test_refute_with_witness(prelude, defs_map):
    v = prove_equal(T("\\@x. QNot @ x"), T("\\@x. [x]"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, NotEqual)
    assert v.kind == "not-equal"
    assert isinstance(v.witness, np.ndarray)
    assert "separates them" in v.describe()


def test_refute_booleans(prelude, defs_map):
    v = prove_equal(T("True"), T("False"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, NotEqual)
    assert v.witness is None


def test_refute_different_types(prelude, defs_map):
    v = prove_equal(T("True"), T("(True, True)"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, NotEqual)
    assert "types differ" in v.reason


def test_types_deeper_than_record_equality_reaches(defs_map):
    # the two sides' types are compared by their printed form: `==` on
    # records recurses about three frames per level of a type, and runs
    # out of stack on this 350-deep pair type
    n = 350
    lets = " ".join(f"let x{i} = (x{i - 1}, y) in" for i in range(1, n))
    t = T(f"(\\y. let x0 = (y, y) in {lets} x{n - 1}) True")
    v = prove_equal(t, t, types={}, env={}, defs=defs_map)
    assert isinstance(v, ProvedByNormalization)


def test_an_elaborated_side_is_typed_by_its_record():
    # `\x. x` is ambiguous on its own.  Checked at Bool -> Bool, the
    # checker records that type with the tree it returns, and the prover
    # reads it, where it used to check the tree again and find it
    # ambiguous; a tree the checker never returned still is
    _, tree = elaborate_term({}, T("\\x. x"), FunT(B, B))
    v = prove_equal(tree, tree, types={}, env={})
    assert v.describe() == ("equal: both sides normalize to the same term "
                            "(0 steps)")
    raw = T("\\x. x")
    v = prove_equal(raw, raw, types={}, env={})
    assert v.describe() == ("unknown: typechecking failed: <input>:1:1: "
                            "mismatch: ambiguous type; an annotation is "
                            "required")


def test_unknown_for_ill_typed(prelude, defs_map):
    v = prove_equal(T("nosuch"), T("True"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, Unknown)
    assert "typechecking failed" in v.reason


def test_unknown_for_open_terms(prelude, defs_map):
    types = dict(prelude.types)
    types["q"] = B
    v = prove_equal(T("(q, True)"), T("(q, False)"),
                    types=types, env=prelude.env, defs=defs_map)
    assert isinstance(v, Unknown)
    assert "open terms" in v.reason


def test_unknown_when_fuel_runs_out(prelude, defs_map):
    types = dict(prelude.types)
    types["q"] = B
    v = prove_equal(T("(\\x. x) q"), T("q"),
                    types=types, env=prelude.env, defs=defs_map, fuel=0)
    assert isinstance(v, Unknown)
    assert "fuel" in v.reason


def test_unknown_for_values_it_cannot_compare(prelude, defs_map):
    # both sides are closed and normalize apart; a function that takes a
    # function has no extensional comparison
    v = prove_equal(T("\\f. if f True then f else f"),
                    T("\\f. \\x. if x then f True else f False"),
                    types=prelude.types, env=prelude.env, defs=defs_map)
    assert isinstance(v, Unknown)
    assert v.describe() == ("unknown: values of this type cannot be compared "
                            "extensionally")


# --------------------------------------------------------------------------
# The largest observable difference between two values


def test_value_diff(prelude):
    """``compare_values``' first result: 0 or 1 for booleans, the amplitude
    gap for vectors, pointwise for closures, NaN when incomparable."""
    h = prelude.env["hadamard"]
    from qarrow import apply_closure
    v0 = apply_closure(h, False)
    v1 = apply_closure(h, True)
    VB = VecT(B)
    assert compare_values(v0, v0, VB, 1e-9)[0] == 0.0
    assert abs(compare_values(v0, v1, VB, 1e-9)[0] - np.sqrt(2)) <= 1e-12
    assert compare_values(True, False, B, 1e-9)[0] == 1.0
    assert compare_values((True, v0), (False, v0), ProdT(B, VB), 1e-9)[0] == 1.0
    qnot = prelude.env["QNot"]
    assert compare_values(qnot, qnot, prelude.types["QNot"], 1e-9)[0] == 0.0
    incomparable, _ = compare_values(eval_term(T("\\v. v"), {}),
                                     eval_term(T("\\w. w"), {}),
                                     parse_term_type("Vec Bool -> Vec Bool"),
                                     1e-9)
    assert incomparable != incomparable  # NaN


def parse_term_type(src):
    from qarrow import parse_type
    return parse_type(src)


def _witness_by_oracle(a, b):
    """``compare_values``' (diff, gap, witness) for two superoperators,
    worked out with the dense oracle's ``apply_super``: the first witness
    state whose gap is strictly the largest."""
    sa, sb = a.val, b.val
    diff = float(np.max(np.abs(sa.action - sb.action)))
    best, best_rho = 0.0, None
    for amp in _witness_states(dim(a.in_type)):
        rho = pure_density(amp)
        gap = float(np.max(np.abs(apply_super(sa, rho)
                                  - apply_super(sb, rho))))
        if gap > best:
            best, best_rho = gap, rho
    return diff, best, best_rho


def _random_pair(seed):
    (lhs, t), (rhs, _) = (randprog.random_super(s, BB, BB)
                          for s in (seed, seed + 1))
    return lhs, rhs, t


WITNESS_PAIRS = {
    "Had-QNot": lambda: (T("Had"), T("QNot"), parse_type("Super Bool Bool")),
    # equal up to rounding: only a zero tolerance reaches the witnesses
    "teleport-trL": lambda: (T("teleport"), T("\\@(m,ab). trL (ab, m)"),
                             parse_type("Super (Bool,(Bool,Bool)) Bool")),
    **{f"random{seed}": (lambda seed=seed: _random_pair(seed))
       for seed in (0, 2, 4)},
}


@pytest.mark.parametrize("pair", sorted(WITNESS_PAIRS))
def test_witness_search_matches_the_dense_oracle(prelude, pair):
    """The witness search multiplies the two matrices it compares; its
    diff, gap and witness equal, bit for bit, those of applying each
    matrix to each witness state with the oracle."""
    lhs, rhs, t = WITNESS_PAIRS[pair]()
    a, b = (eval_term(elaborate_term(prelude.types, term, t)[1],
                      dict(prelude.env)) for term in (lhs, rhs))
    diff, best, best_rho = _witness_by_oracle(a, b)
    assert diff > 0.0
    got_diff, (got_gap, got_rho) = compare_values(a, b, t, 0.0)
    assert got_diff == diff and got_gap == best
    assert np.array_equal(got_rho, best_rho)


# --------------------------------------------------------------------------
# Law application preserves typing and denotation (one instance per family;
# the acceptance gate runs one hundred)


@pytest.mark.parametrize("family", sorted(randprog.FAMILIES))
def test_law_instance_smoke(prelude, defs_map, family):
    inst = randprog.law_instance(3, family)
    t1, before = elaborate_term(prelude.types, inst.term, inst.type_)
    after = apply_law_at(before, inst.path, inst.law, inst.direction,
                         defs=defs_map)
    t2, after2 = elaborate_term(prelude.types, after, inst.type_)
    assert type_str(t2) == type_str(t1)
    va = eval_term(before, dict(prelude.env))
    vb = eval_term(after2, dict(prelude.env))
    assert compare_values(va, vb, t1, 1e-9)[0] <= 1e-9


# --------------------------------------------------------------------------
# The structural laws as automatic steps


def _agree(prelude, lhs, rhs, type_):
    """Both terms elaborate at `type_` and denote the same value."""
    _, a = elaborate_term(prelude.types, lhs, type_)
    _, b = elaborate_term(prelude.types, rhs, type_)
    env = dict(prelude.env)
    return compare_values(eval_term(a, env), eval_term(b, env), type_,
                          1e-9)[0] <= 1e-9


@pytest.mark.parametrize("src,law,want,type_src", [
    ("\\@z. let y = let z = QNot @ z in Had @ z in [(y, z)]", Law.ASSOC,
     "\\@z. let z' = QNot @ z in let y = Had @ z' in [(y, z)]",
     "Super Bool (Bool,Bool)"),
    ("\\x. let v = (let x = hadamard x in hadamard x) in [(v, x)]",
     Law.BIND_ASSOC,
     "\\x. let x' = hadamard x in let v = hadamard x' in [(v, x)]",
     "Bool -> Vec (Bool,Bool)"),
])
def test_assoc_renames_a_capturing_binder(prelude, defs_map, src, law, want,
                                          type_src):
    type_ = parse_type(type_src)
    _, term = elaborate_term(prelude.types, T(src), type_)
    got = apply_law_at(term, (0,), law)
    assert pretty(got) == want
    assert _agree(prelude, term, got, type_)
    trace = normalize(term, defs=defs_map)
    assert laws(trace)[0] == law
    assert _agree(prelude, term, trace.end, type_)


def test_assoc_keeps_a_binder_that_the_outer_one_shadows():
    # R reads y, and y is the outer binder: nothing to rename
    got = apply_law_at(C("let y = let y = QNot @ a in Had @ y in [y]"), (),
                       Law.ASSOC)
    assert pretty(got) == "let y = QNot @ a in let y = Had @ y in [y]"


def test_assoc_renames_inside_a_pair_binder(prelude):
    # the outer body reads a, which the inner pair binder (a, b) shadows:
    # only that component is renamed
    src = ("\\@(x, a). let y = let (a, b) = Cnot @ (x, a) in [b] "
           "in Cnot @ (a, y)")
    _, term = elaborate_term(prelude.types, T(src))
    got = apply_law_at(term, (0,), Law.ASSOC)
    assert pretty(got) == ("\\@(x,a). let (a',b) = Cnot @ (x, a) in "
                           "let y = [b] in Cnot @ (a, y)")


NEW_LAWS = {Law.ETA_ARROW, Law.ETA_FUN, Law.ASSOC, Law.BIND_ASSOC,
            Law.PLUS_ASSOC}


def test_normalization_proofs_agree_semantically(prelude, defs_map):
    """Every law-instance pair (13 families, seeds 0-15) that normalization
    proves equal also agrees under ``compare_values``, among them at least
    50 whose traces take one of the structural laws."""
    with_new = 0
    for family in sorted(randprog.FAMILIES):
        for seed in range(16):
            inst = randprog.law_instance(seed, family)
            _, before = elaborate_term(prelude.types, inst.term, inst.type_)
            after = apply_law_at(before, inst.path, inst.law, inst.direction,
                                 defs=defs_map)
            v = prove_equal(before, after, types=prelude.types,
                            env=prelude.env, defs=defs_map)
            if not isinstance(v, ProvedByNormalization):
                continue
            fired = set(laws(v.left_trace)) | set(laws(v.right_trace))
            with_new += bool(fired & NEW_LAWS)
            assert _agree(prelude, before, after, inst.type_), (family, seed)
    assert with_new >= 50


DEFINITION_NAMES = ("not", "cnot", "hadamard")


def test_normalizing_under_binders_named_like_definitions(prelude,
                                                          defs_map):
    """Generated programs whose binders are renamed to definition names
    (``not``, ``cnot``, ``hadamard``) keep their meaning when normalized:
    ``delta`` unfolds none of the renamed variables, and no definition
    under a binder that would capture a name its body reads."""
    names = itertools.cycle(DEFINITION_NAMES)
    cases = [randprog.random_super(seed) for seed in range(24)]
    for family in sorted(randprog.FAMILIES):
        for seed in range(4):
            inst = randprog.law_instance(seed, family)
            if inst.type_ is not None:
                cases.append((inst.term, inst.type_))
    renamed = 0
    for term, type_ in cases:
        term, k = rebind(term, names)
        renamed += k
        _, term = elaborate_term(prelude.types, term, type_)
        trace = normalize(term, defs=defs_map)
        assert _agree(prelude, term, trace.end, type_), pretty(term)
    assert renamed >= 80


def _if_chain(depth):
    cond = "(if c0 then c1 else not c1)"
    for i in range(2, depth + 1):
        cond = f"(if {cond} then c{i} else not c{i})"
    return cond


def test_size_bound_stops_a_distributing_normalization(prelude, defs_map):
    # if.distrib doubles the term at each level of a nested condition
    types = dict(prelude.types, **{f"c{i}": B for i in range(11)})
    _, deep = elaborate_term(types, T(_if_chain(10)))
    trace = normalize(deep, defs=defs_map)
    assert not trace.complete and trace.stopped == "size"
    assert laws(trace) == [Law.IF_DISTRIB] * 8
    assert render_trace(trace).endswith(
        "\n-- size bound reached; not a normal form")
    assert trace_to_json(trace)["stopped"] == "size"
    # a level less fits, and reaches its normal form
    _, shallower = elaborate_term(types, T(_if_chain(9)))
    assert normalize(shallower, defs=defs_map).complete
    v = prove_equal(deep, deep, types=types, env={}, defs=defs_map)
    assert isinstance(v, Unknown) and "size bound" in v.reason


def test_fuel_is_named_in_json(prelude, defs_map):
    trace = normalize(golden_term(prelude), defs=defs_map, fuel=3)
    assert trace.stopped == "fuel"
    assert trace_to_json(trace)["stopped"] == "fuel"
    assert "stopped" not in trace_to_json(normalize(golden_term(prelude),
                                                    defs=defs_map))
