"""Two-environment typechecker: inference, elaboration, diagnostics."""
import pytest

from qarrow.parser import parse_program, parse_term, parse_type
from qarrow.syntax import (ArrowAbs, BoolT, CApp, CLet, CUnit, FunT, Let,
                           Meas, ProdT, SuperT, TrL, Var, VecLet, VecT,
                           type_str)
from qarrow.typecheck import (elaborate_program, elaborate_term, EnvPair,
                              TypeCheckError)

from ill_typed import ILL_TYPED

B = BoolT()
BB = ProdT(B, B)


def infer_str(src, types=None, expected=None):
    ty, _ = elaborate_term(types or {}, parse_term(src), expected)
    return type_str(ty)


# ---- inference ---------------------------------------------------------------

def test_literals_and_pairs():
    assert infer_str("True") == "Bool"
    assert infer_str("(True, (False, True))") == "(Bool,(Bool,Bool))"


def test_lambda_with_expected():
    assert infer_str("\\x. x", expected=FunT(B, B)) == "Bool -> Bool"
    assert infer_str("\\(a,b). b", expected=FunT(BB, B)) == "(Bool,Bool) -> Bool"


def test_lambda_inferred_from_body():
    assert infer_str("\\x. if x then False else True") == "Bool -> Bool"
    assert infer_str("\\x. (x == True, x)") == "Bool -> (Bool,Bool)"


def test_app_and_projections(prelude):
    assert infer_str("not True", prelude.types) == "Bool"
    assert infer_str("fst (True, (False, False))") == "Bool"
    assert infer_str("snd (True, (False, False))") == "(Bool,Bool)"


def test_classical_let():
    assert infer_str("let p = (True, False) in fst p") == "Bool"


def test_monadic_let_backtracking(prelude):
    # bound term is Vec, so the let must elaborate monadically
    ty, t = elaborate_term(prelude.types,
                           parse_term("let y = hadamard True in [not y]"))
    assert type_str(ty) == "Vec Bool"
    assert isinstance(t, VecLet)
    # bound term classical: stays a plain let
    ty2, t2 = elaborate_term(prelude.types,
                             parse_term("let y = not True in [y]"))
    assert type_str(ty2) == "Vec Bool"
    assert isinstance(t2, Let)
    # body not a vector: the monadic reading is dropped for a plain let
    ty3, t3 = elaborate_term(prelude.types,
                             parse_term("let x = hadamard True in True"))
    assert type_str(ty3) == "Bool"
    assert isinstance(t3, Let)
    # the monadic reading fails to check (v + v needs vectors, the bind
    # gives v : Bool): the let falls back to a plain one, v : Vec Bool
    ty4, t4 = elaborate_term(prelude.types,
                             parse_term("let v = hadamard True in v + v"))
    assert type_str(ty4) == "Vec Bool"
    assert isinstance(t4, Let)


def test_vec_operations(prelude):
    assert infer_str("[True] + [False]") == "Vec Bool"
    assert infer_str("mzero - [True]") == "Vec Bool"
    assert infer_str("0.5+0.5i * [(True, False)]") == "Vec (Bool,Bool)"
    assert infer_str("hadamard True", prelude.types) == "Vec Bool"


def test_mzero_needs_context():
    assert infer_str("mzero", expected=VecT(BB)) == "Vec (Bool,Bool)"
    with pytest.raises(TypeCheckError) as ei:
        infer_str("mzero")
    assert "ambiguous" in str(ei.value)


def test_arrow_abs_types(prelude):
    assert infer_str("\\@x. [not x]", prelude.types) == "Super Bool Bool"
    # measurement alone does not pin its operand type; the signature does
    assert infer_str("\\@q. let (a,b) = meas q in trL (a, b)",
                     prelude.types, SuperT(B, B)) == "Super Bool Bool"
    assert infer_str("\\@(x,y). let h = Had @ x in Cnot @ (h, y)",
                     prelude.types) == "Super (Bool,Bool) (Bool,Bool)"
    # arrow application of a function whose type is still unsolved
    assert infer_str("(\\f. \\@x. f @ x) Had",
                     prelude.types) == "Super Bool Bool"


def test_meas_and_trl_types(prelude):
    assert infer_str("\\@q. meas q", prelude.types,
                     SuperT(B, BB)) == "Super Bool (Bool,Bool)"
    assert infer_str("\\@p. trL p", prelude.types,
                     SuperT(BB, B)) == "Super (Bool,Bool) Bool"


def test_polymorphic_forms_are_ambiguous(prelude):
    for src in ("\\x. x", "\\@x. [x]", "\\@q. meas q"):
        with pytest.raises(TypeCheckError) as ei:
            infer_str(src, prelude.types)
        assert "ambiguous" in str(ei.value)


@pytest.mark.parametrize("src, message", [
    ("\\x. x x",
     "t.qarr:1:5: mismatch: expected ?, found ? -> ? (cyclic type)"),
    ("\\x. [x] + x",
     "t.qarr:1:9: mismatch: expected ?, found Vec ? (cyclic type)"),
    ("\\@x. True @ x",
     "t.qarr:1:6: mismatch: expected Super ? ?, found Bool "
     "(arrow application needs a superoperator)"),
    ("\\f. (fst f, f True)",
     "t.qarr:1:13: mismatch: expected Bool -> ?, found (?,?) "
     "(application needs a function)"),
])
def test_unknown_types_print_as_question_marks(prelude, src, message):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_term(prelude.types, parse_term(src, "t.qarr"))
    assert str(ei.value) == message


def test_unit_modes(prelude):
    # classical content -> classical unit; Vec content -> monadic lift
    _, t1 = elaborate_term(prelude.types, parse_term("\\@x. [not x]"),
                           SuperT(B, B))
    assert t1.cmd.mode == "classical"
    _, t2 = elaborate_term(prelude.types, parse_term("\\@x. [hadamard x]"),
                           SuperT(B, B))
    assert t2.cmd.mode == "vec"


# ---- elaboration annotations ---------------------------------------------------

def test_elaboration_annotates(prelude):
    src = "\\@(m,a). let p = Cnot @ (m, a) in let (z,v) = meas (fst p) in trL (z, v)"
    ty, t = elaborate_term(prelude.types, parse_term(src))
    assert type_str(ty) == "Super (Bool,Bool) Bool"
    assert type_str(t.type_) == "Super (Bool,Bool) Bool"
    outer = t.cmd
    assert isinstance(outer, CLet)
    assert type_str(outer.bound_type) == "(Bool,Bool)"
    assert type_str(outer.bound.fn_type) == "Super (Bool,Bool) (Bool,Bool)"
    inner = outer.body
    assert isinstance(inner.bound, Meas)
    assert type_str(inner.bound.arg_type) == "Bool"
    assert isinstance(inner.body, TrL)
    assert type_str(inner.body.arg_type) == "(Bool,Bool)"


def test_annotations_survive_reelaboration(prelude):
    src = "\\@x. QNot @ x"
    ty, t = elaborate_term(prelude.types, parse_term(src),
                           SuperT(B, B))
    # elaborated output re-checks without an expected type
    ty2, t2 = elaborate_term(prelude.types, t)
    assert type_str(ty2) == type_str(ty)


def test_inner_abstraction_closed_over_commands(prelude):
    # a closed inner abstraction in function position is fine...
    src = "\\@x. (\\@z. [not z]) @ x"
    ty, _ = elaborate_term(prelude.types, parse_term(src), SuperT(B, B))
    assert type_str(ty) == "Super Bool Bool"
    # ...but one that reads the enclosing command variable would select a
    # superoperator based on quantum data: delta-misuse, not unbound
    with pytest.raises(TypeCheckError) as ei:
        elaborate_term(prelude.types,
                       parse_term("\\@x. (\\@z. [(x, z)]) @ x"),
                       SuperT(B, BB))
    assert ei.value.kind == "delta-misuse"


def test_shadowing():
    src = "\\x. let x = (x, x) in fst x"
    assert infer_str(src, expected=FunT(B, B)) == "Bool -> Bool"


# ---- environments ---------------------------------------------------------------

def test_env_pair_delta_lookup(prelude):
    env = EnvPair(dict(prelude.types), {"q": B})
    ty, _ = elaborate_term(env, parse_term("not q"))
    assert type_str(ty) == "Bool"


def test_env_pair_keeps_hidden_names():
    env = EnvPair({}, {"q": B}, frozenset({"x"}))
    with pytest.raises(TypeCheckError) as ei:
        elaborate_term(env, parse_term("x"))
    assert ei.value.kind == "delta-misuse"


# ---- diagnostics ----------------------------------------------------------------

@pytest.mark.parametrize("src,kind,why", ILL_TYPED,
                         ids=[c[2].replace(" ", "-") for c in ILL_TYPED])
def test_ill_typed_programs(prelude, src, kind, why):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(parse_program(src), dict(prelude.types))
    assert ei.value.kind == kind


def test_error_rendering_format(prelude):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(parse_program("f : Bool = [True]", "demo.qarr"),
                          dict(prelude.types))
    msg = str(ei.value)
    assert msg.startswith("demo.qarr:1:12: mismatch: ")
    assert "expected Bool" in msg and "found Vec Bool" in msg


def test_error_positions(prelude):
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(
            parse_program("f : Bool = True\ng : Bool = not (True, True)"),
            dict(prelude.types))
    assert ei.value.pos.line == 2


def test_annotation_validation_positions():
    with pytest.raises(TypeCheckError) as ei:
        elaborate_program(
            parse_program("f : Super (Vec Bool) Bool = \\@x. [x]"), {})
    assert ei.value.kind == "non-classical-basis"


def test_delta_misuse_is_not_unbound(prelude):
    # the same name resolves fine as an argument...
    ty, _ = elaborate_term(prelude.types, parse_term("\\@x. QNot @ x"),
                           SuperT(B, B))
    # ...but is a delta-misuse, not an unbound error, in function position
    with pytest.raises(TypeCheckError) as ei:
        elaborate_term(prelude.types,
                       parse_term("\\@x. (fst (x, QNot)) @ x"), SuperT(B, B))
    assert ei.value.kind == "delta-misuse"


def test_program_duplicate_definition(prelude):
    # duplicates never reach the checker; the parser rejects them
    from qarrow.parser import ParseError
    with pytest.raises(ParseError) as ei:
        parse_program("f : Bool = True\nf : Bool = False")
    assert "duplicate" in str(ei.value)


def test_whole_prelude_checks(prelude):
    # load_prelude already elaborates; spell it out once explicitly
    from qarrow.parser import parse_program as pp
    from qarrow.stdlib import prelude_source
    types, _ = elaborate_program(pp(prelude_source(), "prelude.qarr"))
    assert type_str(types["teleport"]) == "Super (Bool,(Bool,Bool)) Bool"
    assert type_str(types["toffoli"]) == \
        "Super (Bool,(Bool,Bool)) (Bool,(Bool,Bool))"
