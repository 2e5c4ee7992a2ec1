"""What the traced runs count at each layer boundary, and the wrappers that
put spans around qarrow's public functions inside a replayed CLI command.

Standard library only at import time (see ``tracing``); qarrow is imported
by the functions that need it.
"""

from __future__ import annotations

import dataclasses
import functools

# public function -> span name
SPAN_OF = {
    "load_prelude": "stdlib.prelude",
    "parse_program": "parser.parse",
    "parse_term": "parser.parse",
    "elaborate_program": "typecheck.elaborate",
    "elaborate_term": "typecheck.elaborate",
    "eval_program": "evaluator.materialize",
    "eval_term": "evaluator.materialize",
    "run_super": "linalg.apply",
    "prove_equal": "rewriter.prove",
    "translate_term": "classic.translate",
    "inverse_translate": "classic.inverse",
    "sexpr": "syntax.pretty",
    "pretty": "syntax.pretty",
}

# The names each module calls that ``instrument`` wraps.  Functions that
# call themselves through their module (eval_term in qarrow.evaluator) are
# wrapped only where another module calls them.
WRAPPED = {
    "qarrow.cli": tuple(SPAN_OF),
    "qarrow.stdlib": ("parse_program", "elaborate_program", "eval_program"),
    "qarrow.rewriter": ("elaborate_term", "eval_term", "run_super", "pretty"),
    "qarrow.evaluator": ("translate_term",),
}


def super_cells(v) -> int:
    """Cells of a superoperator value's matrix; 0 for any other value."""
    from qarrow.evaluator import SuperV
    if not isinstance(v, SuperV):
        return 0
    action = getattr(getattr(v, "val", None), "action", None)
    return 0 if action is None else action.size


def pipeline_nodes(e) -> int:
    from qarrow.classic import ClassicExpr
    return 1 + sum(pipeline_nodes(getattr(e, f.name))
                   for f in dataclasses.fields(e)
                   if isinstance(getattr(e, f.name), ClassicExpr))


def record(name: str, attrs: dict, args: tuple, result) -> None:
    """Fill a span's counters from the call it wrapped."""
    if name == "parser.parse" and args and isinstance(args[0], str):
        attrs["bytes"] = len(args[0].encode())
    elif name == "evaluator.materialize":
        if isinstance(result, dict):
            new = {d.name for d in args[0].defs}
            attrs["cells"] = sum(super_cells(v) for k, v in result.items()
                                 if k in new)
        else:
            attrs["cells"] = super_cells(result)
    elif name == "linalg.apply":
        attrs["states"] = 1
    elif name == "rewriter.prove":
        attrs["kind"] = result.kind
        attrs["steps"] = sum(len(t.steps) for t in (
            getattr(result, "left_trace", None),
            getattr(result, "right_trace", None)) if t is not None)
    elif name == "classic.translate":
        attrs["nodes"] = pipeline_nodes(result)


def _wrap(tr, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.enabled:
            return fn(*args, **kwargs)
        with tr.span(name) as attrs:
            result = fn(*args, **kwargs)
            record(name, attrs, args, result)
        return result
    return traced


def instrument(tr) -> None:
    """Wrap the public functions the CLI, the prelude loader, the prover and
    the evaluator call through their module namespaces, so spans follow
    qarrow's own sequence of steps.  Wrappers cost one call when ``tr`` is
    disabled."""
    import importlib
    import qarrow.rewriter

    for modname, names in WRAPPED.items():
        mod = importlib.import_module(modname)
        for fname in names:
            fn = getattr(mod, fname, None)
            if callable(fn):
                setattr(mod, fname, _wrap(tr, SPAN_OF[fname], fn))

    base = qarrow.rewriter.Rewriter

    class TracedRewriter(base):
        def normalize(self, node, fuel=None):
            with tr.span("rewriter.normalize") as attrs:
                trace = super().normalize(node, fuel)
                attrs["steps"] = len(trace.steps)
            return trace

    for modname in ("qarrow.cli", "qarrow.rewriter"):
        mod = importlib.import_module(modname)
        if getattr(mod, "Rewriter", None) is base:
            mod.Rewriter = TracedRewriter


def prelude_usage(prelude, targets: list[str], defs: dict) -> tuple[int, int]:
    """(prelude superoperators reachable through free_vars from the targets,
    each a definition name or an inline term; superoperator values the
    prelude holds)."""
    from qarrow.evaluator import SuperV
    from qarrow.parser import parse_term
    from qarrow.syntax import free_vars, SuperT

    terms = {d.name: d.term for d in prelude.program.defs}
    terms.update(defs)
    seen: set[str] = set()
    todo = [n for t in targets
            for n in ([t] if t in terms else free_vars(parse_term(t)))]
    while todo:
        n = todo.pop()
        if n in seen or n not in terms:
            continue
        seen.add(n)
        todo.extend(free_vars(terms[n]))
    reached = sum(1 for d in prelude.program.defs
                  if d.name in seen and d.name not in defs
                  and isinstance(prelude.types.get(d.name), SuperT))
    built = sum(1 for v in prelude.env.values() if isinstance(v, SuperV))
    return reached, built
