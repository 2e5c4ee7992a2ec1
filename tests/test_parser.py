"""Surface syntax: tokens, grammar shapes, error positions."""
import pytest

from qarrow.parser import ParseError, parse_command, parse_program, parse_term, parse_type
from qarrow.syntax import (App, ArrowAbs, BoolLit, BoolT, CApp, CLet, CUnit,
                           Eq, FunT, If, Lam, Let, Meas, MZero, Pair, PPair,
                           ProdT, PVar, SuperT, TrL, Var, VecAdd, VecScale,
                           VecSub, VecT, VecUnit, pretty)


# ---- term grammar ------------------------------------------------------------

def test_application_left_assoc():
    t = parse_term("f x y")
    assert isinstance(t, App) and isinstance(t.fn, App)
    assert t.fn.fn == Var("f") and t.fn.arg == Var("x") and t.arg == Var("y")


def test_projections_bind_tighter_than_pairs():
    t = parse_term("(fst p, snd q)")
    assert isinstance(t, Pair)
    assert pretty(t) == "(fst p, snd q)"


def test_if_then_else_nested():
    t = parse_term("if a then if b then x else y else z")
    assert isinstance(t, If) and isinstance(t.then, If)


def test_eq_operator():
    t = parse_term("x == not y")
    assert isinstance(t, Eq)


def test_lambda_patterns():
    t = parse_term("\\(a,(b,c)). b")
    assert isinstance(t, Lam) and isinstance(t.pat, PPair)
    assert isinstance(t.pat.right, PPair)


def test_let_surface_is_untagged():
    # both classical and monadic lets share one surface form
    t = parse_term("let x = hadamard True in x")
    assert isinstance(t, Let)


def test_vector_operators_precedence():
    t = parse_term("0.5+0.5i * [True] + 0.5-0.5i * [False]")
    assert isinstance(t, VecAdd)
    assert isinstance(t.left, VecScale) and isinstance(t.right, VecScale)
    assert t.left.scalar == complex(0.5, 0.5)
    assert t.right.scalar == complex(0.5, -0.5)


def test_invsqrt2_scalar():
    t = parse_term("invsqrt2 * [False]")
    assert isinstance(t, VecScale)
    assert abs(t.scalar - 2 ** -0.5) < 1e-15


def test_negative_scalars():
    assert parse_term("-0.5 * [True]").scalar == complex(-0.5, 0)
    assert parse_term("-0.5-0.5i * [True]").scalar == complex(-0.5, -0.5)
    assert parse_term("-0.5+0.5i * [True]").scalar == complex(-0.5, 0.5)
    assert parse_term("0.0-1.0i * [True]").scalar == complex(0, -1)
    sub = parse_term("mzero - [True]")
    assert isinstance(sub, VecSub)


def test_mzero():
    assert isinstance(parse_term("mzero"), MZero)


# ---- commands -----------------------------------------------------------------

def test_command_forms():
    assert isinstance(parse_command("[x]"), CUnit)
    assert isinstance(parse_command("meas q"), Meas)
    assert isinstance(parse_command("trL (a, b)"), TrL)
    assert isinstance(parse_command("f @ x"), CApp)
    c = parse_command("let y = f @ x in [y]")
    assert isinstance(c, CLet) and isinstance(c.bound, CApp)


def test_arrow_abs_and_bullet_aliases():
    a = parse_term("\\@x. f @ x")
    b = parse_term("\\•x. f • x")   # \•x. f • x
    from qarrow.syntax import alpha_eq
    assert isinstance(a, ArrowAbs) and alpha_eq(a, b)


def test_capp_argument_is_term():
    c = parse_command("Cnot @ (h, y)")
    assert isinstance(c, CApp) and isinstance(c.arg, Pair)


# ---- types ---------------------------------------------------------------------

def test_type_grammar():
    assert parse_type("Bool") == BoolT()
    assert parse_type("(Bool,Bool)") == ProdT(BoolT(), BoolT())
    assert parse_type("Bool -> Bool") == FunT(BoolT(), BoolT())
    assert parse_type("Vec Bool") == VecT(BoolT())
    assert parse_type("Super Bool (Bool,Bool)") == SuperT(
        BoolT(), ProdT(BoolT(), BoolT()))
    # arrows associate right
    assert parse_type("Bool -> Bool -> Bool") == FunT(
        BoolT(), FunT(BoolT(), BoolT()))


def test_lin_desugars_to_function_type():
    assert parse_type("Lin Bool Bool") == FunT(BoolT(), VecT(BoolT()))


def test_no_dens_type():
    # no term produces or consumes a density value, so there is no type
    # for one: `Dens` is an ordinary name, not a type
    with pytest.raises(ParseError) as ei:
        parse_type("Dens Bool")
    assert str(ei.value) == "<type>:1:1: expected a type, found 'Dens'"
    assert (ei.value.pos.line, ei.value.pos.col) == (1, 1)


# ---- programs ------------------------------------------------------------------

def test_program_inline_signature():
    p = parse_program("f : Bool -> Bool = \\x. x")
    assert len(p.defs) == 1 and p.defs[0].name == "f"


def test_program_separate_signature():
    p = parse_program("f : Bool -> Bool\nf = \\x. x\n")
    assert len(p.defs) == 1
    assert p.defs[0].annot == FunT(BoolT(), BoolT())


def test_program_signature_name_mismatch():
    with pytest.raises(ParseError) as ei:
        parse_program("f : Bool -> Bool\ng = \\x. x\n")
    assert "signature" in str(ei.value)


def test_program_multiple_defs_and_comments():
    src = """-- leading comment
a : Bool = True
-- between defs
b : Bool -> Bool
b = \\x. a
"""
    p = parse_program(src, "demo.qarr")
    assert [d.name for d in p.defs] == ["a", "b"]
    assert {d.pos.source for d in p.defs} == {"demo.qarr"}


# ---- errors ---------------------------------------------------------------------

def test_error_position_line_col():
    with pytest.raises(ParseError) as ei:
        parse_term("\\@x. [x")
    assert ei.value.pos.line == 1 and ei.value.pos.col == 8


def test_error_position_multiline():
    with pytest.raises(ParseError) as ei:
        parse_program("f : Bool = True\ng : Bool = (")
    assert ei.value.pos.line == 2


def test_error_message_has_file_prefix():
    with pytest.raises(ParseError) as ei:
        parse_program("f : Bool = )", "bad.qarr")
    assert str(ei.value).startswith("bad.qarr:1:")


def test_pattern_variables_must_be_distinct():
    with pytest.raises(ParseError) as ei:
        parse_term("\\(x, x). x")
    assert str(ei.value) == "<input>:1:2: pattern variables must be distinct"


def test_keyword_not_a_name():
    with pytest.raises(ParseError):
        parse_term("\\let. let")


def test_unexpected_character():
    with pytest.raises(ParseError) as ei:
        parse_term("x ? y")
    assert "unexpected character" in str(ei.value)


@pytest.mark.parametrize("src, col, char", [
    ("x = \u00e9", 5, "\u00e9"),          # a letter outside ASCII
    ("x = \u00b2", 5, "\u00b2"),          # a superscript digit
    ("v = 1\u0663 * [True]", 6, "\u0663"),  # an Arabic-Indic digit after 1
    ("v = -\u00b2 * [True]", 6, "\u00b2"),
    ("v = a\u00e9", 6, "\u00e9"),
])
def test_non_ascii_character_is_unexpected(src, col, char):
    with pytest.raises(ParseError) as ei:
        parse_program(src, "u.qarr")
    assert str(ei.value) == f"u.qarr:1:{col}: unexpected character {char!r}"


def test_trailing_junk_rejected():
    with pytest.raises(ParseError):
        parse_term("True True True)")


def test_node_positions_recorded():
    t = parse_term("  (True, False)")
    assert t.pos.line == 1 and t.pos.col == 3


def test_nesting_depth_within_the_recursion_limit():
    # The descent takes six frames per parenthesis, three per tuple type
    # and one per let.  Under pytest the default limit admits about 158,
    # 317 and 948 levels; one more frame per level would refuse these.
    n = 145
    assert parse_term("(" * n + "True" + ")" * n) == BoolLit(True)
    n = 300
    t = parse_type("(Bool, " * n + "Bool" + ")" * n)
    for _ in range(n):
        t = t.right
    assert t == BoolT()
    n = 900
    t = parse_term("".join(f"let x{i} = True in " for i in range(n)) + "x0")
    for _ in range(n):
        t = t.body
    assert t == Var("x0")
