"""The redex search of ``Rewriter.normalize``, which skips subtrees it has
found free of redexes, checked against the plain search with no memo:
restart from the root after every rewrite and try every automatic law at
every node.  The two must take the same steps."""

import itertools

import pytest
from hypothesis import given, settings

import randprog
import structural
from qarrow import apply_law_at, elaborate_term, parse_term, parse_type, pretty
from qarrow import rewriter
from qarrow.rewriter import Law, Rewriter, replace_at

from helpers import rebind

GOLDEN_START = "\\@x. let y = (\\@z. [not z]) @ x in (\\@w. [not w]) @ y"


def plain_steps(rw, node, fuel):
    """The reference search: leftmost-outermost, the first law in priority
    order, every law tried at every node, from the root after each rewrite.
    Returns the steps as (law, path, pretty result) and the complete flag."""
    def find(n, path):
        for law in Law:
            new = rw.try_law(n, law) if law.auto else None
            if new is not None:
                return path, law, new
        for i, f in enumerate(n.child_fields):
            found = find(getattr(n, f), path + (i,))
            if found is not None:
                return found
        return None

    steps = []
    while True:
        found = find(node, ())
        if found is None:
            return steps, True
        if fuel <= 0:
            return steps, False
        path, law, new = found
        node = replace_at(node, path, new)
        steps.append((law, path, pretty(node)))
        fuel -= 1


def normalize_steps(rw, node, fuel):
    trace = rw.normalize(node, fuel)
    return ([(s.law, s.path, pretty(s.result)) for s in trace.steps],
            trace.complete)


def _terms(prelude, defs_map):
    """Every law family's instance before and after its law, over a few
    seeds; every prelude definition; the README's ``dneg``; and each of
    these whose binders can take definition names, so renamed."""
    out = {}
    for family in sorted(randprog.FAMILIES):
        for seed in range(4):
            inst = randprog.law_instance(seed, family)
            _, before = elaborate_term(prelude.types, inst.term, inst.type_)
            after = apply_law_at(before, inst.path, inst.law, inst.direction,
                                 defs=defs_map)
            _, after = elaborate_term(prelude.types, after, inst.type_)
            out[f"{family}-{seed}-before"] = before
            out[f"{family}-{seed}-after"] = after
    for name, term in defs_map.items():
        out[f"prelude-{name}"] = term
    out["dneg"] = elaborate_term(prelude.types, parse_term(GOLDEN_START))[1]
    names = itertools.cycle(("not", "cnot", "hadamard"))
    for name, term in list(out.items()):
        term, renamed = rebind(term, names)
        if renamed:
            out[f"{name}-rebound"] = term
    return out


def test_traces_match_the_plain_search(prelude, defs_map):
    rw = Rewriter(defs_map)
    terms = _terms(prelude, defs_map)
    assert len(terms) > 100
    stepped = 0
    assert sum(name.endswith("-rebound") for name in terms) > 50
    for name, term in terms.items():
        # normalize renames the binders of definition names apart first
        term = rw.rename_apart(term)
        for fuel in (1, 2, 3, 10000):
            got = normalize_steps(rw, term, fuel)
            want = plain_steps(rw, term, fuel)
            assert got == want, (name, fuel)
        stepped += bool(want[0])
    # most inputs take steps, and some stop early at small fuel
    assert stepped > len(terms) // 2


def _count_matches(monkeypatch):
    calls = [0]

    def counting(match):
        def counted(rw, node):
            calls[0] += 1
            return match(rw, node)
        return counted

    monkeypatch.setattr(rewriter, "_AUTO_BY_CLASS", {
        cls: tuple((law, counting(m)) for law, m in pairs)
        for cls, pairs in rewriter._AUTO_BY_CLASS.items()})
    return calls


def test_matcher_calls_on_a_long_normalization(prelude, defs_map, monkeypatch):
    # 433 steps; the plain search makes about 6.5 million matcher calls here
    inst = randprog.law_instance(2027, "beta_arrow")
    _, term = elaborate_term(prelude.types, inst.term, inst.type_)
    calls = _count_matches(monkeypatch)
    trace = Rewriter(defs_map).normalize(term)
    assert len(trace.steps) == 433 and trace.complete
    assert calls[0] <= 30_000


# an eta redex (at path (0,)) whose side condition a rewrite three levels
# further down makes true
ETA_DEEP = "\\q. \\x. (if q then (if True then not else (\\y. x)) else not) x"


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(structural.terms(3))
def test_traces_match_the_plain_search_on_structural_terms(prelude, defs_map,
                                                           case):
    src, type_src = case
    _, term = elaborate_term(prelude.types, parse_term(src),
                             parse_type(type_src))
    rw = Rewriter(defs_map)
    for fuel in (2, 10000):
        assert normalize_steps(rw, term, fuel) == plain_steps(rw, term,
                                                                fuel)


@pytest.mark.parametrize("src,first", [
    pytest.param(ETA_DEEP,
                 [(Law.IF_TRUE, (0, 0, 0, 1)), (Law.ETA_FUN, (0,))],
                 id="eta"),
    # the unit's content becomes the pattern's term three levels down
    pytest.param("\\@p. let (a,b) = Cnot @ p in [(fst (a, True), b)]",
                 [(Law.BETA_PAIR1, (0, 1, 0, 0)), (Law.RIGHT_UNIT, (0,))],
                 id="right-unit"),
])
def test_a_deep_rewrite_enables_an_outer_redex(prelude, defs_map, src, first):
    _, term = elaborate_term(prelude.types, parse_term(src))
    rw = Rewriter(defs_map)
    got = normalize_steps(rw, term, 10000)
    assert got == plain_steps(rw, term, 10000)
    assert [(law, path) for law, path, _ in got[0][:2]] == first
