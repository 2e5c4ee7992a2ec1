"""qarrow: a typed arrow-calculus language for quantum programs.

Programs are written with arrow abstractions over classical basis types;
they typecheck against a two-environment discipline, translate to
point-free combinator pipelines, evaluate as superoperators on density
matrices, and can be rewritten with a sound equational law set.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a caller that never
touches the evaluator never loads numpy.
"""

import importlib

_EXPORTS = {
    "classic": ("Arr", "ClassicExpr", "Compose", "FanoutC",
                "inverse_translate", "LiftLin", "MeasC", "NamedSuper",
                "sexpr", "translate_command", "translate_term",
                "TranslationError", "TrLC"),
    "evaluator": ("apply_closure", "ClosureV", "EvalError", "eval_program",
                  "eval_term", "run_super", "SuperV", "VecV"),
    "linalg": ("basis", "dens_from_json", "dens_to_json", "dim",
               "elem_index", "pure_density", "render_density", "SuperVal"),
    "parser": ("parse_command", "parse_program", "parse_term", "parse_type",
               "ParseError", "tokenize"),
    "rewriter": ("apply_law_at", "Law", "normalize", "NotEqual",
                 "ProofTrace", "ProvedByNormalization", "ProvedSemantically",
                 "prove_equal", "render_trace", "RewriteError", "Rewriter",
                 "Step", "trace_to_json", "Unknown"),
    "stdlib": ("load_prelude",),
    "syntax": ("alpha_eq", "ArrowAbs", "BoolT", "free_vars", "FunT",
               "is_classical", "pretty", "ProdT", "Program", "QarrowError",
               "SuperT", "type_str", "TypeExpr", "VecT"),
    "typecheck": ("elaborate_program", "elaborate_term", "TypeCheckError"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value         # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
