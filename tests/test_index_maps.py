"""Index maps and lift matrices over wires.

``evaluator._arr_index_map`` and ``_lift_matrix`` compute a pure map over
the wires each subterm reads.  The reference semantics' per-element maps
(``reference.index_map`` and ``lift_matrix``), which evaluate the body once
per basis element of the whole context, are the oracle: on every ``arr``
and ``lift`` node of the prelude, the README demo, GHZ-2..5, random supers
and law instances, the two must agree exactly.
"""
import itertools

import numpy as np
import pytest

from qarrow import (ClosureV, EvalError, SuperV, elaborate_program,
                    elaborate_term, eval_program, eval_term, parse_program,
                    parse_term)
from qarrow import evaluator as ev
from qarrow.classic import Arr, LiftLin
from qarrow.linalg import dim
from qarrow.rewriter import apply_law_at
from qarrow.syntax import (ArrowAbs, BoolLit, BoolT, Fst, Lam, Pair, PPair,
                           ProdT, PVar, Snd, Var)

import randprog
import reference
from helpers import classic_children

B = BoolT()


# --------------------------------------------------------------------------
# The evaluator's maps, and the oracle's from ``reference``


def index_map(e: Arr, env: dict) -> np.ndarray:
    return ev._arr_index_map(e, env, ev._context_wires(e.in_type,
                                                        dim(e.in_type)))


def lift_matrix(e: LiftLin, env: dict) -> np.ndarray:
    return ev._lift_matrix(e, env, dim(e.in_type), dim(e.out_type))


def _outcome(f, *args):
    try:
        return f(*args)
    except EvalError as err:
        return err


def assert_agrees(e, env) -> None:
    """The wire computation of `e` equals the oracle's, or both refuse."""
    ours, oracle = ((index_map, reference.index_map) if isinstance(e, Arr)
                    else (lift_matrix, reference.lift_matrix))
    new = _outcome(ours, e, env)
    old = _outcome(oracle, ClosureV(e.fn.pat, e.fn.body, env), e.in_type,
                   e.out_type)
    if isinstance(old, EvalError) or isinstance(new, EvalError):
        assert type(new) is type(old), (e, new, old)
    else:
        assert np.array_equal(new, old), e


def pipe_nodes(e):
    yield e
    for c in classic_children(e):
        yield from pipe_nodes(c)


def maps_of(s: SuperV) -> list:
    return [n for n in pipe_nodes(s.pipe) if isinstance(n, (Arr, LiftLin))]


def check_supers(supers) -> int:
    """Every map of every superoperator agrees; returns how many there are."""
    count = 0
    for s in supers:
        for n in maps_of(s):
            assert_agrees(n, s.env)
            count += 1
    return count


def supers_of(env: dict) -> list:
    return [v for v in env.values() if isinstance(v, SuperV)]


def eval_source(prelude, src: str) -> dict:
    """The values of the definitions in `src`."""
    _, el = elaborate_program(parse_program(src), dict(prelude.types))
    env = eval_program(el, dict(prelude.env))
    return {d.name: env[d.name] for d in el.defs}


def eval_arrow(prelude, ty: str, src: str) -> SuperV:
    return eval_source(prelude, f"f : Super {ty}\nf = {src}\n")["f"]


@pytest.fixture
def recorded(monkeypatch):
    """Every superoperator value that evaluation creates."""
    made = []
    orig = ev.eval_arrow_abs

    def record(t, env):
        s = orig(t, env)
        made.append(s)
        return s

    monkeypatch.setattr(ev, "eval_arrow_abs", record)
    return made


# --------------------------------------------------------------------------
# Sources


def test_prelude_and_demo(prelude):
    supers = supers_of(prelude.env)
    assert len(supers) == 12
    demo = supers_of(eval_source(prelude, randprog.DEMO_SRC))
    assert len(demo) == 2
    assert check_supers(supers + demo) >= 40


@pytest.mark.parametrize("style", ["proj", "tuple"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ghz(prelude, n, style):
    ghz = eval_source(prelude, randprog.ghz_source(n, style))["ghz"]
    assert check_supers([ghz]) >= 2 * n


@pytest.mark.parametrize("seed", range(40))
def test_random_supers(prelude, seed):
    term, t = randprog.random_super(seed, depth=4)
    _, term = elaborate_term(prelude.types, term, t)
    assert check_supers([eval_term(term, dict(prelude.env))]) > 0


def _arrows(node):
    if isinstance(node, ArrowAbs):
        yield node
    for f in node.child_fields:
        yield from _arrows(getattr(node, f))


def test_law_instances(prelude, defs_map, recorded):
    """Each instance before and after its law: the supers its evaluation
    and comparison create, with their environments, and every arrow
    abstraction in the term over the prelude's environment."""
    count = 0
    for family, seed in itertools.product(sorted(randprog.FAMILIES), range(8)):
        inst = randprog.law_instance(seed, family)
        t1, before = elaborate_term(prelude.types, inst.term, inst.type_)
        after = apply_law_at(before, inst.path, inst.law, inst.direction,
                             defs=defs_map)
        _, after = elaborate_term(prelude.types, after, inst.type_)
        va = eval_term(before, dict(prelude.env))
        vb = eval_term(after, dict(prelude.env))
        ev.compare_values(va, vb, t1, 1e-9)
        statics = [ev.eval_arrow_abs(a, prelude.env)
                   for term in (before, after) for a in _arrows(term)]
        count += check_supers(recorded) + check_supers(statics)
        recorded.clear()
    assert count > 100


# --------------------------------------------------------------------------
# Edge cases


SHADOW = "\\@(a,b). let b = QNot @ a in [(a, b)]"     # b bound twice
MEAS_TRL = "\\@(a,b). let (m, v) = meas (b, a) in trL (m, v)"
BB, BBB = "(Bool,Bool)", "(Bool,(Bool,Bool))"


@pytest.mark.parametrize("ty, src", [
    (f"{BB} {BB}", SHADOW),
    (f"{BB} Bool", "\\@p. [fst p]"),
    (f"{BB} Bool", "\\@(x,y). let p = Cnot @ (x, y) in [fst p]"),
    ("Bool Bool", "\\@x. [True]"),
    (f"{BB} {BB}", "\\@(a,b). [(not a, b)]"),
    (f"{BBB} {BB}", "\\@(a,(b,c)). [if a then (b, c) else (c, b)]"),
    (f"{BB} {BB}", MEAS_TRL),
    (f"{BBB} Bool", "\\@(a,(b,c)). [hadamard b]"),
    (f"{BBB} {BB}", "\\@(a,(b,c)). [cz (c, a)]"),
    (f"{BB} {BB}", "\\@(a,b). [cnot (b, a)]"),
    (f"{BB} Bool", "\\@(a,b). [hadamard True]"),
    ("Bool Bool", "\\@x. [snd (not, x)]"),
    ("Bool Bool", "\\@x. [fst (x, hadamard x)]"),
    (f"{BB} Bool", "\\@(a,b). [fst (fst ((not, a), b))  b]"),
    (f"{BB} {BB}", "\\@(a,b). [(snd (hadamard a, b), fst (a, \\y. y))]"),
])
def test_edge_cases(prelude, ty, src):
    assert check_supers([eval_arrow(prelude, ty, src)]) > 0


def test_shadowed_context_name_reads_the_later_binding(prelude):
    s = eval_arrow(prelude, f"{BB} {BB}", SHADOW)
    # the context ((a,b), b) after the let: the later b is the bound one
    pats = [n.fn.pat for n in maps_of(s)]
    assert PPair(PPair(PVar("a"), PVar("b")), PVar("b")) in pats
    bb = ProdT(B, B)
    dup = Arr(Lam(PPair(PVar("x"), PVar("x")), Var("x")),
              in_type=bb, out_type=B)
    assert index_map(dup, {}).tolist() == [0, 1, 0, 1]
    assert_agrees(dup, {})


@pytest.mark.parametrize("body", ["\\y. y", "(x, \\y. y)", "[x]"])
def test_a_map_to_values_that_are_not_basis_values_is_refused(body):
    e = Arr(Lam(PVar("x"), parse_term(body)), in_type=B, out_type=B)
    with pytest.raises(EvalError):
        index_map(e, {})
    with pytest.raises(EvalError, match="not a basis value"):
        reference.index_map(ClosureV(e.fn.pat, e.fn.body, {}), B, B)


def test_argument_maps_of_meas_and_trl(prelude):
    s = eval_arrow(prelude, f"{BB} {BB}", MEAS_TRL)
    bodies = [n.fn.body for n in maps_of(s)]
    assert Pair(Var("b"), Var("a")) in bodies
    assert Pair(Var("m"), Var("v")) in bodies


# --------------------------------------------------------------------------
# Evaluations an index map makes


@pytest.fixture
def eval_calls(monkeypatch):
    """Counts the calls of ``eval_term`` not made from inside another."""
    calls, depth = [0], [0]
    orig = ev.eval_term

    def counted(t, env):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return orig(t, env)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ev, "eval_term", counted)
    return calls


def _structural(t) -> bool:
    if isinstance(t, (Var, BoolLit)):
        return True
    if isinstance(t, (Pair, Fst, Snd)):
        return all(_structural(getattr(t, f)) for f in t.child_fields)
    return False


def test_structural_maps_evaluate_nothing(prelude, eval_calls):
    ghz = eval_source(prelude, randprog.ghz_source(5))["ghz"]
    arrs = [n for n in maps_of(ghz) if isinstance(n, Arr)]
    assert len(arrs) >= 10 and all(_structural(n.fn.body) for n in arrs)
    eval_calls[0] = 0
    for n in arrs:
        index_map(n, ghz.env)
    assert eval_calls[0] == 0


def test_computation_runs_over_its_own_wires(prelude, eval_calls):
    q5 = "(Bool,(Bool,(Bool,(Bool,Bool))))"
    s = eval_arrow(prelude, f"{q5} {q5}",
                   "\\@(a,(b,(c,(d,e)))). [(not a, (b, (c, (d, e))))]")
    (arr,) = maps_of(s)
    eval_calls[0] = 0
    index_map(arr, s.env)
    assert eval_calls[0] == 2
    eval_calls[0] = 0
    reference.index_map(ClosureV(arr.fn.pat, arr.fn.body, s.env), arr.in_type,
                        arr.out_type)
    assert eval_calls[0] == 32
