"""The structural laws change nothing where they do not fire.  On law
instances of the four seeds below (24 per family each, built as the
benchmark's prover builds its pairs), every proof in which none of the
newly automatic laws fires gives the verdict and the traces, step by step,
that it gave while those laws were manual: the hash below was taken then,
over the same proofs.

On the same pairs, the checker's records change no verdict: a proof that
reads them gives what a proof that elaborates both sides gives."""

import copy
import hashlib
import json

import randprog
from qarrow import apply_law_at, elaborate_term, pretty, prove_equal
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
