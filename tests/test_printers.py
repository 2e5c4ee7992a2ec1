"""The printers, pinned on every node class: ``pretty``, ``type_str`` and
``render_trace`` over the prelude, raw random supers and both sides of the
law instances keep the text hashed below."""
import hashlib
import json

from qarrow.parser import parse_program
from qarrow.rewriter import apply_law_at, normalize, render_trace
from qarrow.stdlib import prelude_source
from qarrow.syntax import (Command, Node, Pattern, pretty, Term, TVar,
                           type_str, TypeExpr)
from qarrow.typecheck import elaborate_term

import randprog

LAW_SEEDS = range(16)


def _subclasses(base):
    todo, out = [base], set()
    while todo:
        for sub in todo.pop().__subclasses__():
            out.add(sub)
            todo.append(sub)
    return out


def _classes(node, seen):
    """Add the class of every node that prints as part of `node`, types
    and patterns included, to `seen`."""
    seen.add(type(node))
    for f in type(node).compared_fields:
        v = getattr(node, f)
        if isinstance(v, Node):
            _classes(v, seen)
        elif isinstance(v, tuple):
            for x in v:
                if isinstance(x, Node):
                    _classes(x, seen)


def _printed(prelude, defs_map):
    """Each input's printed texts, and the classes of the nodes printed."""
    texts, seen = [], set()

    def add(*nodes):
        for n in nodes:
            _classes(n, seen)
        texts.append([type_str(n) if isinstance(n, TypeExpr) else pretty(n)
                      for n in nodes])

    for d in parse_program(prelude_source()).defs:
        add(d.annot, d.term)
    for d in prelude.program.defs:
        add(d.term)
    for seed in range(300):
        add(*randprog.random_super(seed, depth=3))
    for family in sorted(randprog.FAMILIES):
        for seed in LAW_SEEDS:
            inst = randprog.law_instance(seed, family)
            _, before = elaborate_term(prelude.types, inst.term, inst.type_)
            after = apply_law_at(before, inst.path, inst.law, inst.direction,
                                 defs=defs_map)
            add(inst.term, before, after)
            if inst.type_ is not None:
                add(inst.type_)
            texts.append(render_trace(normalize(before, defs_map)))
    return texts, seen


PRINTED = 19 + 19 + 300 + 3 * 13 * len(LAW_SEEDS)
PRINTED_SHA256 = (
    "8cf6e0bf7776f13523ee202633a973418b27b4132b01af9e490f44879792c0c6")


def test_printed_text_is_unchanged(prelude, defs_map):
    texts, _ = _printed(prelude, defs_map)
    digest = hashlib.sha256(json.dumps(texts).encode()).hexdigest()
    assert (len(texts), digest) == (PRINTED, PRINTED_SHA256)


def test_pinned_inputs_cover_every_printed_class(prelude, defs_map):
    _, seen = _printed(prelude, defs_map)
    every = set().union(*map(_subclasses, (Term, Command, TypeExpr, Pattern)))
    assert every - seen == {TVar}
