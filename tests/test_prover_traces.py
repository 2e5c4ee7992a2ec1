"""The structural laws change nothing where they do not fire.  On law
instances of the four seeds below (24 per family each, built as the
benchmark's prover builds its pairs), every proof in which none of the
newly automatic laws fires gives the verdict and the traces, step by step,
that it gave while those laws were manual: the hash below was taken then,
over the same proofs."""

import hashlib
import json

import randprog
from qarrow import apply_law_at, elaborate_term, pretty, prove_equal

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


def test_proofs_without_structural_steps_are_unchanged(prelude, defs_map):
    digest = hashlib.sha256()
    unchanged = 0
    for seed in SEEDS:
        for family in sorted(randprog.FAMILIES):
            for j in range(PER_FAMILY):
                inst = randprog.law_instance(seed * 1000 + j, family)
                _, before = elaborate_term(prelude.types, inst.term,
                                           inst.type_)
                after = apply_law_at(before, inst.path, inst.law,
                                     inst.direction, defs=defs_map)
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
                key = f"{seed}/{family}/{j}"
                digest.update(json.dumps([key, record]).encode())
                unchanged += 1
    assert (unchanged, digest.hexdigest()) == (UNCHANGED, UNCHANGED_SHA256)
