"""Elaboration checks a term a second time only when the first pass guessed,
checked against the elaboration it replaces: with no expected type, one pass
to infer the type and a second at that type, always.  The two must give the
same tree (positions and the checker's annotations included, which node
equality ignores), the same type, and the same error."""

import randprog
from ill_typed import ILL_TYPED
from qarrow import (apply_law_at, elaborate_term, Law, parse_program,
                    parse_term, pretty, prove_equal)
from qarrow.stdlib import prelude_source
from qarrow.syntax import (ArrowAbs, BoolT, CApp, Let, Pos, PVar, rebuild, Record,
                           SuperT, TypeExpr, Var, VecLet)
from qarrow.typecheck import Checker, EnvPair, TypeCheckError, validate_type

DEMO = """
dneg : Super Bool Bool
dneg = \\@x. let y = (\\@z. [not z]) @ x in (\\@w. [not w]) @ y

mix : Super Bool Bool
mix = \\@q. let h = Had @ q in QMeas @ h
"""
README_TERMS = ["\\@x. [x]", "\\@q. let h = Had @ q in Had @ h", "\\@q. [q]",
                "Had", "QNot", "bell", "teleport", "toffoli"]

# The first pass chooses a plain `let` here, and the second, knowing the
# type, a monadic one: the bound term's type is unknown when the let is
# checked (x), or the body's is (g).
RETRY_TERMS = ["\\x. (let y = x in hadamard True, x + hadamard False)",
               "\\g. (let y = hadamard True in g, g + hadamard False)"]


def _finalize_every_node(checker, node):
    """Finalization as it was: every child and every recorded type
    resolved, with no test of what changed."""
    changes = {}
    for f in node.child_fields:
        changes[f] = _finalize_every_node(checker, getattr(node, f))
    for f in node.annot_fields:
        t = getattr(node, f)
        if isinstance(t, TypeExpr):
            changes[f] = checker.uni.resolve_full(t, node.pos)
    return rebuild(node, changes)


def _one_pass(gamma, term, expected):
    checker = Checker()
    ty, t2 = checker.elaborate_term(EnvPair(gamma), term, expected)
    resolved = checker.uni.resolve_full(ty, term.pos)
    checker.check_obligations()
    validate_type(resolved, term.pos)
    return resolved, _finalize_every_node(checker, t2)


def two_pass(gamma, term, expected=None):
    """The reference: with no expected type, infer it, then elaborate again
    at it, whatever the first pass decided."""
    if expected is None:
        expected, _ = _one_pass(gamma, term, None)
    return _one_pass(gamma, term, expected)


def same(a, b):
    """Equal field by field, including the fields node equality skips."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Record):
        return all(same(getattr(a, f), getattr(b, f)) for f in a.fields)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def test_same_sees_positions_and_annotations():
    """The oracle's comparison is stricter than node equality: one moved
    position or one dropped annotation, deep in the tree, makes it False."""
    inner = CApp(Var("f"), Var("x", pos=Pos(1, 9)),
                 fn_type=SuperT(BoolT(), BoolT()))
    tree = ArrowAbs(PVar("x"), inner, pos=Pos(1, 1))
    copy = rebuild(tree, {"cmd": rebuild(inner, {"arg": Var("x", pos=Pos(1, 9))})})
    moved = rebuild(tree, {"cmd": rebuild(inner, {"arg": Var("x", pos=Pos(1, 8))})})
    retyped = rebuild(tree, {"cmd": rebuild(inner, {"fn_type": None})})
    assert same(tree, copy)
    for other in (moved, retyped):
        assert other == tree and not same(tree, other)


def outcome(elaborate, gamma, term, expected):
    try:
        return elaborate(gamma, term, expected)
    except TypeCheckError as e:
        return e.kind, str(e)


def _law_instances(prelude, defs_map, seeds):
    for family in sorted(randprog.FAMILIES):
        for seed in seeds:
            inst = randprog.law_instance(seed, family)
            _, before = elaborate_term(prelude.types, inst.term, inst.type_)
            after = apply_law_at(before, inst.path, inst.law, inst.direction,
                                 defs=defs_map)
            yield f"{family}-{seed}", inst, before, after


def _corpus(prelude, defs_map):
    """(name, term, type) triples: raw and elaborated prelude definitions,
    the README demo, the ill-typed programs, law instances before and after
    the law (as built, elaborated and printed and re-parsed) and printed and
    re-parsed random superoperators."""
    out = []
    for d in parse_program(prelude_source()).defs:
        out.append((f"prelude-{d.name}", d.term, d.annot))
        out.append((f"elaborated-{d.name}", defs_map[d.name], d.annot))
    for d in parse_program(DEMO).defs:
        out.append((f"demo-{d.name}", d.term, d.annot))
    for src in README_TERMS + RETRY_TERMS:
        out.append((src, parse_term(src), None))
    for src, _, why in ILL_TYPED:
        d = parse_program(src).defs[0]
        out.append((f"ill-typed: {why}", d.term, d.annot))
    for name, inst, before, after in _law_instances(prelude, defs_map,
                                                    range(8)):
        out.append((f"{name}-raw", inst.term, inst.type_))
        out.append((f"{name}-printed", parse_term(pretty(inst.term)),
                    inst.type_))
        out.append((f"{name}-before", before, inst.type_))
        out.append((f"{name}-after", after, inst.type_))
        out.append((f"{name}-after-printed", parse_term(pretty(after)),
                    inst.type_))
    for seed in range(40):
        term, ty = randprog.random_super(seed, depth=3)
        out.append((f"super-{seed}", parse_term(pretty(term)), ty))
    return out


def test_same_result_as_two_passes(prelude, defs_map, checkers):
    corpus = _corpus(prelude, defs_map)
    assert len(corpus) > 600
    retried = failed = 0
    for name, term, ty in corpus:
        for expected in ((ty, None) if ty is not None else (None,)):
            checkers[0] = 0
            got = outcome(elaborate_term, prelude.types, term, expected)
            passes = checkers[0]
            want = outcome(two_pass, prelude.types, term, expected)
            assert same(got, want), (name, expected)
            assert passes in (1, 2), name
            if passes == 2:
                assert expected is None, name
                retried += 1
            failed += isinstance(got[1], str)
    # the retry branch runs, but for a few terms only; errors are compared
    assert 2 <= retried <= 20
    assert failed >= len(ILL_TYPED)


def test_retry_changes_the_first_guess(prelude, checkers):
    for src in RETRY_TERMS:
        term = parse_term(src)
        first = _one_pass(prelude.types, term, None)[1]
        checkers[0] = 0
        _, tree = elaborate_term(prelude.types, term)
        assert checkers[0] == 2
        assert isinstance(first.body.left, Let)
        assert isinstance(tree.body.left, VecLet)


def test_prove_equal_elaborates_each_side_once(prelude, defs_map, checkers):
    # the elaborated side is the checker's own result, so it is read from
    # its record; the law's result is elaborated once (not at all when it
    # is a definition's body, which the checker returned as the prelude
    # loaded), and that elaboration returns it itself, so a second proof
    # elaborates nothing.  The exception is a bind.assoc right-to-left
    # result, whose regrouped bound records no type: the checker returns a
    # copy that records it
    bodies = {id(t) for t in defs_map.values()}
    for name, inst, before, after in _law_instances(prelude, defs_map,
                                                    range(2)):
        untyped = (inst.law, inst.direction) == (Law.BIND_ASSOC, "R2L")
        for want in (int(id(after) not in bodies), int(untyped)):
            checkers[0] = 0
            result = prove_equal(before, after, types=dict(prelude.types),
                                 env=dict(prelude.env), defs=defs_map)
            assert result.kind.startswith("proved"), name
            assert checkers[0] == want, name


def test_cli_prove_of_two_definitions_builds_no_checker(
        tmp_path, monkeypatch, capsys, checkers, prelude, defs_map):
    from qarrow import rewriter
    from qarrow.cli import main

    # a definition checked again, at a type equal to its own but another
    # object or at none, is recorded again, reading the same gamma objects,
    # so a side that names it still takes its type from the record
    for d in parse_program(prelude_source()).defs:
        for expected in (d.annot, None):
            elaborate_term(prelude.types, defs_map[d.name], expected)

    src = tmp_path / "demo.qarr"
    src.write_text(DEMO + "\nident : Super Bool Bool\nident = \\@x. [x]\n")
    during = []
    prove = rewriter.prove_equal

    def counted(*args, **kwargs):
        checkers[0] = 0
        verdict = prove(*args, **kwargs)
        during.append(checkers[0])
        return verdict

    monkeypatch.setattr(rewriter, "prove_equal", counted)
    for lhs, rhs in (("dneg", "ident"), ("mix", "mix"), ("Had", "dneg")):
        main(["prove", str(src), lhs, rhs])
    assert during == [0, 0, 0]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("equal: both sides normalize to the same term")
