"""qarrow: a typed arrow-calculus language for quantum programs.

Programs are written with arrow abstractions over classical basis types;
they typecheck against a two-environment discipline, translate to
point-free combinator pipelines, evaluate as superoperators on density
matrices, and can be rewritten with a sound equational law set.
"""

from .classic import (Arr, ClassicExpr, Compose, FanoutC, First, inverse_translate,
                      LiftLin, MeasC, NamedSuper, PureFun, Second, sexpr,
                      translate_command, translate_term, TranslationError, TrLC)
from .evaluator import (apply_closure, BoolV, ClosureV, EvalError,
                        eval_program, eval_term, materialize_lin, PairV,
                        reference_super, run_super, SuperV, VecV)
from .linalg import (apply_super, basis, dens_close, dens_from_json,
                     dens_to_json, dim, elem_index, pure_density,
                     random_density, render_density, super_arr, super_compose,
                     super_fanout, super_first, super_identity, super_meas,
                     super_second, super_trL, SuperVal)
from .parser import parse_command, parse_program, parse_term, parse_type, ParseError
from .rewriter import (apply_law_at, Law, law_by_name, normalize, NotEqual,
                       ProofTrace, ProvedByNormalization, ProvedSemantically,
                       prove_equal, render_trace, RewriteError, Rewriter, Step,
                       trace_to_json, Unknown, value_diff)
from .stdlib import load_prelude, prelude_env, prelude_program, prelude_types
from .syntax import (alpha_eq, ArrowAbs, BoolT, DensT, free_vars, FunT,
                     is_classical, pretty, ProdT, Program, SuperT, type_str,
                     TypeExpr, VecT)
from .typecheck import (check_program, elaborate_program, elaborate_term,
                        EnvPair, infer_term, TypeCheckError)

__version__ = "0.1.0"
