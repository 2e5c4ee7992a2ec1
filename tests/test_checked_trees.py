"""The checker's records of the trees it returned, and the prover's use of
them.  ``prove_equal`` reads a side's record instead of elaborating it only
for that very tree, under a gamma that maps every name the record read to
the same type object.  Any other side is elaborated as it always was,
with the same verdict and the same error text: the reference for that is
the same proof of a copy of each side's root, which has no record."""

import copy
import gc
import pickle
import weakref

from qarrow import (elaborate_program, elaborate_term, parse_program,
                    parse_term, parse_type, prove_equal)
from qarrow.syntax import BoolLit, BoolT, FunT, ProdT, rebuild, SuperT
from qarrow.typecheck import checked, recall

BB = FunT(BoolT(), BoolT())
SUPER = SuperT(BoolT(), BoolT())


def _prove(tree, checkers, **kwargs):
    """The verdict on `tree` against itself and the `Checker`s it built,
    and the verdict on copies of its root, which no record names."""
    checkers[0] = 0
    got = prove_equal(tree, tree, env={}, **kwargs)
    built = checkers[0]
    fresh = copy.copy(tree)
    want = prove_equal(fresh, fresh, env={}, **kwargs)
    assert got.describe() == want.describe()
    return got, built


def test_a_record_names_its_tree_only():
    term = parse_term("\\@x. f @ x")
    ty, tree = elaborate_term({"f": SUPER}, term)
    rec = checked(tree)
    assert tree._checked is rec and rec.type_ is ty
    assert rec.reads == (("f", SUPER),) and set(rec.binders) == {"x"}
    assert checked(copy.copy(tree)) is None
    assert recall({"f": SUPER}, tree) is ty


def test_a_name_read_from_gamma_must_keep_its_type_object(checkers):
    _, tree = elaborate_term({"f": SUPER}, parse_term("\\@x. f @ x"))
    got, built = _prove(tree, checkers, types={"f": SUPER})
    assert got.kind == "proved-by-normalization" and built == 0
    # an equal but distinct type object: the left side is elaborated again,
    # which records the tree anew under this gamma, so the right side, the
    # same tree, reads that record
    got, built = _prove(tree, checkers, types={"f": SuperT(BoolT(), BoolT())})
    assert got.kind == "proved-by-normalization" and built == 1
    # rebound to another type, or gone: the errors of a new elaboration
    got, built = _prove(tree, checkers, types={"f": BB})
    assert "typechecking failed" in got.describe() and "mismatch" in got.reason
    assert built >= 2
    got, _ = _prove(tree, checkers, types={})
    assert "unbound: f" in got.reason


def test_a_name_bound_in_the_tree_is_not_a_read():
    # so gamma may change or drop it
    gamma = {"x": ProdT(BoolT(), BoolT()), "not": BB}
    _, tree = elaborate_term(gamma, parse_term("\\x. not x"))
    assert checked(tree).reads == (("not", BB),)
    assert recall({"not": BB}, tree) is checked(tree).type_


def test_a_recorded_side_keeps_its_type_against_any_other_side():
    # the checker returns the parsed `\x. x` itself at Bool -> Bool, so
    # that object records Bool -> Bool, which it keeps whatever the other
    # side is: an ambiguous side that has no record borrows it, and a side
    # of another type makes the types differ.  `qarrow prove` prints the
    # same for definitions f : Bool -> Bool and g : (Bool,Bool) ->
    # (Bool,Bool), both `\x. x`
    term = parse_term("\\x. x")
    _, tree = elaborate_term({}, term, BB)
    assert tree is term and checked(term).type_ == BB
    pairs = FunT(ProdT(BoolT(), BoolT()), ProdT(BoolT(), BoolT()))
    _, other = elaborate_term({}, parse_term("\\x. x"), pairs)
    cases = [
        (parse_term("(True, True)"),
         "not equal: types differ: Bool -> Bool vs (Bool,Bool)"),
        (parse_term("nosuch"),
         "unknown: typechecking failed: <input>:1:1: unbound: nosuch"),
        (parse_term("\\x. x"),
         "equal: both sides normalize to the same term (0 steps)"),
        (other, "not equal: types differ: Bool -> Bool vs "
                "(Bool,Bool) -> (Bool,Bool)"),
    ]
    for right, want in cases:
        got = prove_equal(term, right, types={}, env={})
        assert got.describe() == want


def test_a_record_that_holds_stands_when_its_tree_is_checked_again():
    # `\x. x` checked again at another type comes back as itself; its
    # record read nothing from gamma, so it still holds and keeps the
    # definition's type, which is what `qarrow prove` prints
    types, program = elaborate_program(parse_program(
        "f : Bool -> Bool\nf = \\x. x\n"))
    f = program.defs[0].term
    pairs = parse_type("(Bool,Bool) -> (Bool,Bool)")
    assert elaborate_term(types, f, pairs)[1] is f
    assert checked(f).type_ is types["f"]
    got = prove_equal(f, parse_term("(True, True)"), types=types, env={})
    assert got.describe() == (
        "not equal: types differ: Bool -> Bool vs (Bool,Bool)")


def test_no_copy_of_a_checked_tree_carries_its_record():
    _, tree = elaborate_term({"f": SUPER}, parse_term("\\@x. f @ x"))
    assert checked(tree) is not None
    for other in (copy.copy(tree), copy.deepcopy(tree),
                  pickle.loads(pickle.dumps(tree))):
        assert other == tree and other is not tree
        assert checked(other) is None
    _, pair = elaborate_term({}, parse_term("(True, True)"))
    assert checked(pair) is not None
    other = rebuild(pair, {"left": BoolLit(False)})
    assert other is not pair and checked(other) is None


def test_records_die_with_their_trees(prelude):
    src = "\n".join([
        "dneg : Super Bool Bool",
        "dneg = \\@x. let y = (\\@z. [not z]) @ x in (\\@w. [not w]) @ y",
        "mix : Super Bool Bool",
        "mix = \\@q. let h = Had @ q in QMeas @ h",
        "flip = \\b. not b",
        "t = True",
    ])
    passes = []     # weak references to each pass's program and trees
    for _ in range(50):
        _, program = elaborate_program(parse_program(src), prelude.types)
        assert all(checked(d.term) is not None for d in program.defs)
        passes.append([weakref.ref(program)]
                      + [weakref.ref(d.term) for d in program.defs])
    gc.collect()
    assert all(ref() is None for refs in passes[:-1] for ref in refs)
    assert passes[-1][0]() is program
