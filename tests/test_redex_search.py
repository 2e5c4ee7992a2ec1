"""The redex search of ``Rewriter.normalize``, which resumes where its last
step was, checked against the plain search: restart from the root after
every rewrite and try every automatic law at every node.  The two must take
the same steps, and a step must cost its redex, not the whole term.  The
facts that nodes keep (size, free variables) must be those a walk finds."""

import itertools

import pytest
from hypothesis import given, settings

import randprog
import structural
from qarrow import apply_law_at, elaborate_term, parse_term, parse_type, pretty
from qarrow import rewriter, syntax
from qarrow.rewriter import Law, Rewriter, replace_at
from qarrow.syntax import free_vars, kept_free_vars, pattern_names, rebuild

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
    seeds; every prelude definition; the README's ``dneg``; a short
    ``_chain``, whose ``assoc`` steps go down a spine; and each of these
    whose binders can take definition names, so renamed."""
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
    out["chain-6"] = elaborate_term(prelude.types, _chain(6))[1]
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


def _count_rebuilds(monkeypatch):
    calls = [0]

    def counted(node, changes):
        calls[0] += 1
        return rebuild(node, changes)

    # the rewriter holds its own reference; substitution reads syntax's
    monkeypatch.setattr(syntax, "rebuild", counted)
    monkeypatch.setattr(rewriter, "rebuild", counted)
    return calls


def _chain(n):
    # a chain of n gate lets bound by an outer let, which assoc flattens one
    # level per step, beside a chain of n classical lets that each reduce
    # (left unit) at the same position
    gates = " ".join(f"let x{i + 1} = QNot @ x{i} in" for i in range(n))
    units = " ".join(f"let z{i + 1} = [{'True' if i == 0 else f'z{i}'}] in"
                     for i in range(n))
    return parse_term(f"\\@x0. let y = {gates} Had @ x{n} in "
                      f"{units} [(y, z{n})]")


def test_a_deep_chain_costs_linear_work(prelude, defs_map, monkeypatch):
    # each assoc step is one level deeper than the last; restarting at the
    # root and rebuilding the spine made 182 708 matcher calls at n = 200
    # and 725 408 at n = 400
    rw = Rewriter(defs_map)
    matches, rebuilds = [], []
    for n in (40, 80, 160):
        term = elaborate_term(prelude.types, _chain(n))[1]
        calls = _count_matches(monkeypatch)
        copies = _count_rebuilds(monkeypatch)
        trace = rw.normalize(term)
        assert len(trace.steps) == 2 * n and trace.complete
        matches.append(calls[0])
        rebuilds.append(copies[0])
        monkeypatch.undo()
    for counts in (matches, rebuilds):
        assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1]


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


def _walked_size(node):
    return 1 + sum(_walked_size(getattr(node, f)) for f in node.child_fields)


def _walked_free_vars(node, bound=frozenset()):
    if isinstance(node, syntax.Var):
        return set() if node.name in bound else {node.name}
    out = set()
    for f in node.child_fields:
        inner = bound
        if node.binder and f == node.child_fields[-1]:
            inner = bound | set(pattern_names(node.pat))
        out |= _walked_free_vars(getattr(node, f), inner)
    return out


def _nodes(node):
    yield node
    for f in node.child_fields:
        yield from _nodes(getattr(node, f))


def test_facts_never_go_stale(prelude, defs_map):
    # a node's size and free variables, read from its facts where it has
    # them, are what a walk that reads no fact finds, on every tree of every
    # normalization: the start, each step's result and the end
    rw = Rewriter(defs_map)
    checked_steps = 0
    for name, term in _terms(prelude, defs_map).items():
        trace = rw.normalize(term)
        for step in trace.steps:
            for node in _nodes(step.result):
                assert rewriter._size(node) == _walked_size(node), name
                assert kept_free_vars(node) == _walked_free_vars(node), name
            checked_steps += 1
    assert checked_steps > 500


def test_a_rebuilt_node_carries_no_fact(prelude):
    term = elaborate_term(prelude.types, parse_term(GOLDEN_START))[1]
    body = term.cmd
    # the plain walk, which classic and the evaluator use, keeps nothing
    assert free_vars(term) == {"not"} and getattr(term, "_free", None) is None
    assert rewriter._size(term) > 1 and kept_free_vars(term) == {"not"}
    for slot in ("_size", "_free"):
        assert getattr(term, slot, None) is not None
        assert getattr(body, slot, None) is not None
    copy = rebuild(term, {"cmd": body.body})
    for slot in ("_size", "_free"):
        assert getattr(copy, slot, None) is None
    assert rewriter._size(copy) == _walked_size(copy)
    assert kept_free_vars(copy) == _walked_free_vars(copy) == {"not", "y"}
