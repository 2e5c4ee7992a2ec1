"""Warm workloads: one process that has imported qarrow and loaded the
prelude runs a fixed op list through qarrow's public functions, pass after
pass.  Each op returns its output; ``check`` judges it outside the timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import programs
import speed
from probes import prelude_usage, record

TOL = 1e-9
KIND = {"proved-by-normalization": "equal", "proved-semantically": "equal",
        "not-equal": "not-equal"}


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    slot: str = ""              # circuits: the program's row name


def call(tr, name: str, fn, *args, **kwargs):
    """``fn(*args)`` inside a span named for its layer, when tracing."""
    if not tr.enabled:
        return fn(*args, **kwargs)
    with tr.span(name) as attrs:
        result = fn(*args, **kwargs)
        record(name, attrs, args, result)
    return result


def circuits(seed: int, tr, prelude) -> tuple[list[Op], dict]:
    """Parse, elaborate, evaluate and run each program from source."""
    from qarrow.evaluator import eval_program, run_super
    from qarrow.parser import parse_program
    from qarrow.typecheck import elaborate_program

    def op(c: programs.Circuit) -> Op:
        def run():
            prog = call(tr, "parser.parse", parse_program, c.source, c.name)
            _, el = call(tr, "typecheck.elaborate", elaborate_program, prog,
                         dict(prelude.types))
            env = call(tr, "evaluator.materialize", eval_program, el,
                       dict(prelude.env))
            return [call(tr, "linalg.apply", run_super, env[c.name], rho)
                    for rho in c.inputs]

        def check(outs) -> bool:
            return len(outs) == len(c.expected) and all(
                o.shape == e.shape and np.max(np.abs(o - e)) <= TOL
                for o, e in zip(outs, c.expected))

        return Op(c.name, run, check, c.slot)

    progs = programs.circuits(seed, prelude)
    terms = {c.name: parse_program(c.source).defs[0].term for c in progs}
    return [op(c) for c in progs], terms


def prover(seed: int, tr, prelude) -> tuple[list[Op], dict]:
    """``prove_equal`` on pairs whose answer is known."""
    from qarrow.rewriter import prove_equal

    defs = {d.name: d.term for d in prelude.program.defs}

    def op(p: programs.Proof) -> Op:
        def run():
            return call(tr, "rewriter.prove", prove_equal, p.lhs, p.rhs,
                        types=dict(prelude.types), env=dict(prelude.env),
                        defs=defs)
        return Op(p.label, run, lambda v: KIND.get(v.kind) == p.answer)

    proofs = programs.proofs(seed, prelude, defs)
    terms = {f"{p.label}/{side}": t for p in proofs
             for side, t in (("lhs", p.lhs), ("rhs", p.rhs))}
    return [op(p) for p in proofs], terms


def frontend(seed: int, tr, prelude) -> tuple[list[Op], dict]:
    """Parse and elaborate one generated program, then translate, invert
    and print every definition; nothing is evaluated."""
    from qarrow.classic import inverse_translate, sexpr, translate_term
    from qarrow.parser import parse_program, parse_term
    from qarrow.syntax import pretty
    from qarrow.typecheck import elaborate_program, elaborate_term

    source, defs = programs.frontend(seed)
    want = {d.name: d.type_ for d in defs}
    state: dict = {}

    def parse():
        state["prog"] = call(tr, "parser.parse", parse_program, source,
                             "frontend.qarr")
        return [d.name for d in state["prog"].defs]

    def elaborate():
        types, state["el"] = call(tr, "typecheck.elaborate", elaborate_program,
                                  state["prog"], dict(prelude.types))
        state["terms"] = {d.name: d.term for d in state["el"].defs}
        return types

    def op(name: str) -> Op:
        first: list = []

        def run():
            pipe = call(tr, "classic.translate", translate_term,
                        state["terms"][name])
            inv = call(tr, "classic.inverse", inverse_translate, pipe)
            text = (call(tr, "syntax.pretty", sexpr, pipe),
                    call(tr, "syntax.pretty", pretty, inv))
            return pipe.in_type, pipe.out_type, text

        def check(out) -> bool:
            in_t, out_t, text = out
            t = want[name]
            if (in_t, out_t) != (t.arg, t.res):
                return False
            if not first:       # the first printing is checked in depth
                first.append(text)
                s, p = text
                if s.count("(") != s.count(")"):
                    return False
                got, _ = elaborate_term(prelude.types, parse_term(p), t)
                return got == t
            return text == first[0]     # later passes must print the same

        return Op(name, run, check)

    ops = [Op("parse", parse, lambda names: names == list(want)),
           Op("elaborate", elaborate,
              lambda types: all(types.get(n) == t for n, t in want.items()))]
    terms = {d.name: d.term for d in parse_program(source).defs}
    return ops + [op(d.name) for d in defs], terms


BUILDERS = {"circuits": circuits, "prover": prover, "frontend": frontend}

# The host-speed reference each workload's passes are scaled by (see
# ``speed``): circuits spend their time in numpy, the others in the
# interpreter.  Measured on the 2-vCPU VM, each reference tracks its own
# workloads' drift several times better than the other one does.
REFERENCE = {
    "circuits": (speed.array_seconds, speed.NOMINAL_ARRAYS_S),
    "prover": (speed.interpreter_seconds, speed.NOMINAL_INTERPRETER_S),
    "frontend": (speed.interpreter_seconds, speed.NOMINAL_INTERPRETER_S),
}


def build(workload: str, seed: int, tr, prelude):
    """The op list, and (prelude superoperators its programs reach, prelude
    superoperators built)."""
    ops, terms = BUILDERS[workload](seed, tr, prelude)
    return ops, prelude_usage(prelude, list(terms), terms)
