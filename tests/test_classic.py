"""Translation to point-free combinators, and its inverse.

Soundness oracle: `reference_super` (in `dense_arrow`) interprets commands clause by clause with
dense context tuples and no liveness narrowing — an independent, exponential
semantics that the production translation must agree with exactly.
"""
import hashlib
import json

import numpy as np
import pytest

from qarrow import elaborate_program, elaborate_term, load_prelude
from qarrow.classic import (Arr, Compose, FanoutC, LiftLin, MeasC,
                            NamedSuper, TranslationError, TrLC,
                            classic_children, inverse_translate, sexpr,
                            translate_term)
from qarrow.evaluator import eval_term, materialize_super
from qarrow.linalg import dim
from qarrow.parser import parse_program, parse_term
from qarrow.syntax import ArrowAbs, BoolT, ProdT, SuperT, pretty, type_str

import randprog
from dense_arrow import reference_super

B = BoolT()
BB = ProdT(B, B)


def translate(prelude, src, ty=None):
    _, t = elaborate_term(prelude.types, parse_term(src), ty)
    return translate_term(t)


# ---- structural goldens ---------------------------------------------------------

SEXPR_GOLDENS = [
    ("\\@x. [x]", SuperT(B, B), "(arr (\\x. x))"),
    ("\\@x. [not x]", SuperT(B, B), "(arr (\\x. not x))"),
    ("\\@x. QNot @ x", SuperT(B, B), "(>>> (arr (\\x. x)) QNot)"),
    ("\\@x. [hadamard x]", SuperT(B, B), "(lift (\\x. hadamard x))"),
    ("\\@q. meas q", SuperT(B, BB), "(>>> (arr (\\q. q)) meas)"),
    ("\\@p. trL p", SuperT(BB, B), "(>>> (arr (\\p. p)) trL)"),
    ("\\@x. let y = QNot @ x in [y]", SuperT(B, B),
     "(>>> (>>> (arr (\\x. x)) QNot) (arr (\\y. y)))"),
    ("\\@x. let y = QNot @ x in [(x, y)]", SuperT(B, BB),
     "(>>> (&&& (arr (\\x. x)) (>>> (arr (\\x. x)) QNot)) "
     "(arr (\\(x,y). (x, y))))"),
    ("\\@(x,y). let h = Had @ x in Cnot @ (h, y)", SuperT(BB, BB),
     "(>>> (&&& (arr (\\(x,y). (x, y))) (>>> (arr (\\(x,y). x)) Had)) "
     "(>>> (arr (\\((x,y),h). (h, y))) Cnot))"),
]


@pytest.mark.parametrize("src,ty,expect", SEXPR_GOLDENS,
                         ids=[c[0][:30] for c in SEXPR_GOLDENS])
def test_sexpr_goldens(prelude, src, ty, expect):
    assert sexpr(translate(prelude, src, ty)) == expect


def test_context_tuples_nest_left(prelude):
    # after two lets the kept context is ((x,y1),y2): visible in the final arr
    src = ("\\@x. let a = QNot @ x in let b = QNot @ a in [(x, (a, b))]")
    s = sexpr(translate(prelude, src, SuperT(B, ProdT(B, BB))))
    assert "(\\((x,a),b). (x, a, b))" in s


def test_types_chain_through_pipelines(prelude):
    # translation emits only these nodes, and the left leg of every &&& is
    # pure: (arr keep &&& bound) for each command let
    nodes = (Arr, LiftLin, Compose, FanoutC, MeasC, TrLC, NamedSuper)

    def walk(e):
        assert type(e) in nodes, sexpr(e)
        if isinstance(e, Compose):
            assert e.first_.in_type == e.in_type
            assert e.first_.out_type == e.then_.in_type
            assert e.then_.out_type == e.out_type
        if isinstance(e, FanoutC):
            assert isinstance(e.left_, Arr), sexpr(e)
            assert e.left_.in_type == e.in_type
            assert e.right_.in_type == e.in_type
            assert ProdT(e.left_.out_type, e.right_.out_type) == e.out_type
        for k in classic_children(e):
            walk(k)

    _, demo = elaborate_program(parse_program(randprog.DEMO_SRC),
                                dict(prelude.types))
    terms = [d.term for d in prelude.program.defs + demo.defs]
    for seed in range(20):
        term, ty = randprog.random_super(seed)
        terms.append(elaborate_term(prelude.types, term, ty)[1])
    abstractions = [t for t in terms if isinstance(t, ArrowAbs)]
    assert len(abstractions) == 12 + 2 + 20
    for t in abstractions:
        walk(translate_term(t))


def test_liveness_narrowing_bounds_widths(prelude):
    # without narrowing, toffoli's context reaches dimension 8192
    for name, bound in [("toffoli", 32), ("Alice", 16), ("teleport", 32)]:
        d = next(d for d in prelude.program.defs if d.name == name)
        widths = []

        def walk(e):
            widths.append(dim(e.in_type))
            widths.append(dim(e.out_type))
            for k in classic_children(e):
                walk(k)

        walk(translate_term(d.term))
        assert max(widths) <= bound, f"{name}: width {max(widths)}"


def test_dead_context_dropped(prelude):
    # x is dead after the let: no fanout appears at the top of the pipeline
    e = translate(prelude, "\\@x. let y = QNot @ x in [y]", SuperT(B, B))

    def has_fanout(x):
        return isinstance(x, FanoutC) or any(
            has_fanout(k) for k in classic_children(x))

    assert not has_fanout(e)
    # keeping x forces one
    e2 = translate(prelude, "\\@x. let y = QNot @ x in [(x, y)]",
                   SuperT(B, BB))
    assert has_fanout(e2)


def test_liveness_costs_linear_time_in_lets(prelude, monkeypatch):
    # free-variable sets are computed once per translation, not once per
    # let: doubling a chain of lets doubles the nodes free_vars visits
    import qarrow.classic
    import qarrow.syntax

    def chain(n):
        lets = " ".join(f"let x{i + 1} = QNot @ x{i} in" for i in range(n))
        _, t = elaborate_term(prelude.types,
                              parse_term(f"\\@x0. {lets} [(x0, x{n})]"),
                              SuperT(B, BB))
        return t

    terms = {n: chain(n) for n in (100, 200)}
    visits = [0]
    real = qarrow.syntax.free_vars

    def counting(node):
        visits[0] += 1
        return real(node)

    # the walk recurses through the module global, so this counts nodes
    monkeypatch.setattr(qarrow.syntax, "free_vars", counting)
    monkeypatch.setattr(qarrow.classic, "free_vars", counting)
    counts = {}
    for n, t in terms.items():
        visits[0] = 0
        translate_term(t)
        counts[n] = visits[0]
    assert counts[100] > 0
    assert counts[200] <= 2.1 * counts[100], counts


def test_translation_requires_elaboration():
    with pytest.raises(TranslationError):
        translate_term(parse_term("\\@x. [x]"))


def test_fn_position_must_be_name_or_literal(prelude):
    _, t = elaborate_term(prelude.types,
                          parse_term("\\@x. (fst (QNot, QNot)) @ x"),
                          SuperT(B, B))
    with pytest.raises(TranslationError):
        translate_term(t)


# ---- semantic soundness -----------------------------------------------------------

def test_translation_matches_reference_on_prelude(prelude):
    # reference semantics is exponential; check it on the small definitions
    for name in ("QNot", "Had", "Cnot", "Cz", "cV", "cVdagger", "QMeas",
                 "bell"):
        d = next(d for d in prelude.program.defs if d.name == name)
        prod = eval_term(d.term, prelude.env).val
        ref = reference_super(d.term, prelude.env)
        assert np.max(np.abs(prod.action - ref.action)) < 1e-12, name


@pytest.mark.parametrize("seed", range(40))
def test_translation_matches_reference_on_random_programs(prelude, seed):
    term, ty = randprog.random_super(seed, small=True, depth=2)
    _, t = elaborate_term(prelude.types, term, ty)
    prod = eval_term(t, prelude.env).val
    ref = reference_super(t, prelude.env)
    assert np.max(np.abs(prod.action - ref.action)) < 1e-12


# ---- inverse translation ------------------------------------------------------------

def test_inverse_golden(prelude):
    e = translate(prelude, "\\@x. QNot @ x", SuperT(B, B))
    inv = inverse_translate(e)
    assert pretty(inv) == \
        "\\@x. let w2 = (\\@x3. [(\\x. x) x3]) @ x in (\\@x4. QNot @ x4) @ w2"


def test_inverse_is_deterministic(prelude):
    e = translate(prelude, "\\@(x,y). let h = Had @ x in Cnot @ (h, y)",
                  SuperT(BB, BB))
    assert pretty(inverse_translate(e)) == pretty(inverse_translate(e))


@pytest.mark.parametrize("name", ["QNot", "Had", "Cnot", "Cz", "cV",
                                  "cVdagger", "QMeas", "toffoli", "bell",
                                  "Alice", "Bob", "teleport"])
def test_inverse_round_trip_prelude(prelude, name):
    d = next(d for d in prelude.program.defs if d.name == name)
    direct = eval_term(d.term, prelude.env).val
    e = translate_term(d.term)
    inv = inverse_translate(e)
    _, inv2 = elaborate_term(prelude.types, inv,
                             SuperT(e.in_type, e.out_type))
    back = eval_term(inv2, prelude.env).val
    assert np.max(np.abs(direct.action - back.action)) < 1e-12, name


@pytest.mark.parametrize("seed", range(20))
def test_inverse_round_trip_random(prelude, seed):
    term, ty = randprog.random_super(seed + 1000, depth=2)
    _, t = elaborate_term(prelude.types, term, ty)
    direct = eval_term(t, prelude.env).val
    inv = inverse_translate(translate_term(t))
    _, inv2 = elaborate_term(prelude.types, inv, ty)
    back = eval_term(inv2, prelude.env).val
    assert np.max(np.abs(direct.action - back.action)) < 1e-12


def test_classic_via_materialize_equals_direct(prelude):
    # materializing the combinator pipeline equals evaluating the abstraction
    for name in ("bell", "Alice", "teleport"):
        d = next(d for d in prelude.program.defs if d.name == name)
        direct = eval_term(d.term, prelude.env).val
        via = materialize_super(translate_term(d.term), prelude.env)
        assert np.max(np.abs(direct.action - via.action)) < 1e-12


# ---- the emitted text, pinned ----------------------------------------------

EMIT_PIPELINES = 12 + 300
EMIT_SHA256 = (
    "b07a4d18de3cf82a11b73b6b2ad321890677efc537cd916ec0a7e8334b7ea989")


def test_emitted_text_is_unchanged(prelude):
    """``sexpr`` and the printed inverse of the prelude's arrows and of 300
    random supers keep the text hashed below; the README's examples pin
    only two pipelines."""
    terms = [(d.name, d.term) for d in prelude.program.defs
             if isinstance(d.term, ArrowAbs)]
    for seed in range(300):
        term, ty = randprog.random_super(seed, depth=3)
        terms.append((f"super-{seed}",
                      elaborate_term(prelude.types, term, ty)[1]))
    digest = hashlib.sha256()
    for name, t in terms:
        e = translate_term(t)
        digest.update(json.dumps(
            [name, sexpr(e), pretty(inverse_translate(e))]).encode())
    assert (len(terms), digest.hexdigest()) == (EMIT_PIPELINES, EMIT_SHA256)
