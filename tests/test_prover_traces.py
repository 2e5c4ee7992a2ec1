"""The structural laws change nothing where they do not fire.  On law
instances of the four seeds below (24 per family each, built as the
benchmark's prover builds its pairs), every proof in which none of the
newly automatic laws fires gives the verdict and the traces, step by step,
that it gave while those laws were manual: the hash below was taken then,
over the same proofs.

On the same pairs, the checker's records change no verdict: a proof that
reads them gives what a proof that elaborates both sides gives; and a
step's tree, built when it is first read, is the tree that applying the
step's law to the tree before it gives, whichever order the trees are read
in.  The benchmark's seed-1 prover corpus gives the verdicts and traces it
gave before the search resumed where its last step was."""

import copy
import hashlib
import json
import pickle

import randprog
from qarrow import (apply_law_at, elaborate_term, parse_term, pretty,
                    prove_equal)
from qarrow.rewriter import (get_at, render_trace, replace_at, Rewriter,
                             trace_to_json)
from qarrow.syntax import pattern_names
from qarrow.typecheck import checked

from helpers import laws

SEEDS = (501, 6101, 2, 9901)
PER_FAMILY = 24
STRUCTURAL = {"eta~>", "eta", "assoc", "bind.assoc", "plus.assoc"}
UNCHANGED = 878
UNCHANGED_SHA256 = (
    "6be99b96bab9554431057a4fe0506c48b16601ed2d45321515b191aa01a08605")


def _trace(trace):
    return [[s.law.value, list(s.path), s.direction, pretty(s.result)]
            for s in trace.steps] + [trace.complete]


def _pairs(prelude, defs_map):
    """(key, before, after) for each law instance of the corpus."""
    for seed in SEEDS:
        for family in sorted(randprog.FAMILIES):
            for j in range(PER_FAMILY):
                inst = randprog.law_instance(seed * 1000 + j, family)
                _, before = elaborate_term(prelude.types, inst.term,
                                           inst.type_)
                after = apply_law_at(before, inst.path, inst.law,
                                     inst.direction, defs=defs_map)
                yield f"{seed}/{family}/{j}", before, after


def test_proofs_without_structural_steps_are_unchanged(prelude, defs_map):
    digest = hashlib.sha256()
    unchanged = 0
    for key, before, after in _pairs(prelude, defs_map):
        v = prove_equal(before, after, types=dict(prelude.types),
                        env=prelude.env, defs=defs_map)
        record = [v.kind, v.describe()]
        fired = set()
        for side in ("left_trace", "right_trace"):
            trace = getattr(v, side, None)
            if trace is not None:
                record.append(_trace(trace))
                fired |= {law.value for law in laws(trace)}
        if fired & STRUCTURAL:
            continue
        digest.update(json.dumps([key, record]).encode())
        unchanged += 1
    assert (unchanged, digest.hexdigest()) == (UNCHANGED, UNCHANGED_SHA256)


def _verdict(v):
    return (v.kind, v.describe(), repr(getattr(v, "left_trace", None)),
            repr(getattr(v, "right_trace", None)))


def test_records_change_no_verdict(prelude, defs_map):
    # the reference proves copies of both roots, which no record names, so
    # both sides are elaborated; the first proof reads the elaborated side's
    # record, and the second reads the law result's too
    for key, before, after in _pairs(prelude, defs_map):
        kwargs = dict(types=dict(prelude.types), env=prelude.env,
                      defs=defs_map)
        want = _verdict(prove_equal(copy.copy(before), copy.copy(after),
                                    **kwargs))
        for _ in range(2):
            assert _verdict(prove_equal(before, after, **kwargs)) == want, key


def _shown(trace):
    return repr(trace), render_trace(trace), trace_to_json(trace)


def test_trees_built_on_read_are_the_eager_trees(prelude, defs_map):
    rw = Rewriter(defs_map)
    steps = 0
    for key, before, after in _pairs(prelude, defs_map):
        for side in (before, after):
            shown = []
            # read each step's tree last first, first to last, or only
            # through the trace's repr
            for order in (reversed, iter, None):
                trace = rw.normalize(side)
                if trace.steps:
                    assert trace.steps[-1].result is trace.end, key
                for step in order(trace.steps) if order else ():
                    step.result
                shown.append(_shown(trace))
            assert shown[0] == shown[1] == shown[2], key
            node = rw.rename_apart(side)
            for step in trace.steps:
                new = rw.try_law(get_at(node, step.path), step.law)
                node = replace_at(node, step.path, new)
                assert node == step.result, key
                steps += 1
    assert steps > 5000


def test_a_trace_copies_and_pickles_with_its_trees(prelude, defs_map):
    # a fresh trace, whose steps before the last have not built their trees
    rw = Rewriter(defs_map)
    copied = 0
    for key, before, after in _pairs(prelude, defs_map):
        for side in (before, after):
            if len(rw.normalize(side).steps) < 2:
                continue
            for clone in (copy.deepcopy, copy.copy,
                          lambda t: pickle.loads(pickle.dumps(t))):
                trace = rw.normalize(side)
                got = clone(trace)
                assert got == trace and repr(got) == repr(trace), key
                assert render_trace(got) == render_trace(trace), key
            copied += 1
        if copied >= 40:
            break
    assert copied >= 40


def test_a_proof_builds_only_the_end_trees(prelude, defs_map):
    built = 0
    for key, before, after in _pairs(prelude, defs_map):
        v = prove_equal(before, after, types=dict(prelude.types),
                        env=prelude.env, defs=defs_map)
        for side in ("left_trace", "right_trace"):
            trace = getattr(v, side, None)
            if trace is None or not trace.steps:
                continue
            *middle, last = trace.steps
            assert not any("result" in vars(step) for step in middle), key
            assert vars(last)["result"] is trace.end, key
            built += 1
    assert built > 1000


def test_every_record_holds_its_trees_binder_names(prelude, defs_map):
    # the trees the test holds: the prelude's definitions, and each pair's
    # sides once the pair is proved, when the checker returned them
    recorded = 0
    for tree in defs_map.values():
        assert set(checked(tree).binders) == _binder_names(tree), pretty(tree)
        recorded += 1
    pairs = 0
    for _, before, after in _pairs(prelude, defs_map):
        prove_equal(before, after, types=dict(prelude.types),
                    env=prelude.env, defs=defs_map)
        for tree in (before, after):
            rec = checked(tree)
            if rec is not None:
                assert set(rec.binders) == _binder_names(tree), pretty(tree)
                recorded += 1
        pairs += 1
    assert recorded > len(defs_map) + pairs


def _binder_names(node):
    names = set(pattern_names(node.pat)) if node.binder else set()
    for f in node.child_fields:
        names |= _binder_names(getattr(node, f))
    return names


# the benchmark's seed-1 prover corpus: 120 law instances per family, then
# three fixed pairs whose names resolve in the prelude
CORPUS_SEED = 1
CORPUS_PER_FAMILY = 120
TOFFOLI_TABLE = ("\\@(x,(y,z)). [if x then (if y then (x, (y, not z)) "
                 "else (x, (y, z))) else (x, (y, z))]")
FIXED_PAIRS = (("toffoli", TOFFOLI_TABLE),
               ("teleport", "\\@(m,ab). trL (ab, m)"),
               ("Had", "QNot"))
CORPUS_PROOFS = 2 * (len(randprog.FAMILIES) * CORPUS_PER_FAMILY
                     + len(FIXED_PAIRS))
CORPUS_SHA256 = (
    "fa4be457facd700b83b92a90f085cc1d9347329dffe9178ad5a10a31f46d5ba0")


def test_the_prover_corpus_gives_its_verdicts_and_traces(prelude, defs_map):
    # each pair is proved twice, as a benchmark pass after the first proves
    # the same trees again; the hash covers each verdict's repr and text and
    # both traces' repr, every step's tree included
    pairs = []
    for family in sorted(randprog.FAMILIES):
        for j in range(CORPUS_PER_FAMILY):
            inst = randprog.law_instance(CORPUS_SEED * 1000 + j, family)
            _, before = elaborate_term(prelude.types, inst.term, inst.type_)
            after = apply_law_at(before, inst.path, inst.law, inst.direction,
                                 defs=defs_map)
            pairs.append((before, after))
    pairs += [(parse_term(lhs), parse_term(rhs)) for lhs, rhs in FIXED_PAIRS]
    digest = hashlib.sha256()
    proofs = 0
    for left, right in pairs:
        for _ in range(2):
            v = prove_equal(left, right, types=dict(prelude.types),
                            env=dict(prelude.env), defs=defs_map)
            digest.update(repr(v).encode())
            digest.update(v.describe().encode())
            for side in ("left_trace", "right_trace"):
                digest.update(repr(getattr(v, side, None)).encode())
            proofs += 1
    assert (proofs, digest.hexdigest()) == (CORPUS_PROOFS, CORPUS_SHA256)
