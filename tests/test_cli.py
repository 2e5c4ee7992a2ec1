"""Command-line interface: subcommands, output formats, and exit codes,
exercised in-process through ``main(argv)``."""

import ast
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qarrow
from qarrow import (alpha_eq, dens_to_json, parse_term, pure_density,
                    render_density, Rewriter)
from qarrow.cli import (BADINPUT, CliError, elaborated_target, FAIL,
                        load_file, main, OK, parse_ket, UNDECIDED)
from qarrow.linalg import render_vector

import randprog
from helpers import replay

INV = 1 / np.sqrt(2)

FLIP_SRC = """\
flip : Super Bool Bool
flip = \\@x. QNot @ x
"""

GOLDEN_START = "\\@x. let y = (\\@z. [not z]) @ x in (\\@w. [not w]) @ y"
GOLDEN_LAW_NAMES = ["beta~>", "left", "beta~>", "delta", "beta", "delta",
                    "beta", "if.distrib", "if.false", "if.true", "if.eta"]


@pytest.fixture
def demo(tmp_path):
    f = tmp_path / "demo.qarr"
    f.write_text(FLIP_SRC)
    return str(f)


@pytest.fixture
def runcli(capsys, monkeypatch):
    def run(*argv, stdin=None):
        if isinstance(stdin, bytes):
            # a console's stdin: text over the bytes it was given
            stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
        elif stdin is not None:
            stdin = io.StringIO(stdin)
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", stdin)
        code = main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return run


# --------------------------------------------------------------------------
# check


def test_check_lists_types(runcli, demo):
    code, out, err = runcli("check", demo)
    assert code == OK and err == ""
    assert out == "flip : Super Bool Bool\n"


def test_check_json(runcli, demo):
    code, out, _ = runcli("check", demo, "--json")
    assert code == OK
    assert json.loads(out) == {
        "defs": [{"name": "flip", "type": "Super Bool Bool"}]}


def test_check_of_no_definitions_prints_nothing(runcli, tmp_path):
    f = tmp_path / "empty.qarr"
    f.write_text("")
    assert runcli("check", str(f)) == (OK, "", "")
    assert runcli("check", str(f), "--json") == (OK, '{"defs": []}\n', "")


def test_check_type_error_exits_1(runcli, tmp_path):
    f = tmp_path / "bad.qarr"
    f.write_text("b : Bool\nb = (True, True)\n")
    code, out, err = runcli("check", str(f))
    assert code == FAIL
    assert "mismatch" in err and "bad.qarr:2:" in err


def test_check_parse_error_exits_2(runcli, tmp_path):
    f = tmp_path / "oops.qarr"
    f.write_text("b : Bool\nb = (True\n")
    code, _, err = runcli("check", str(f))
    assert code == BADINPUT
    assert "oops.qarr:" in err


def test_parse_error_is_one_positioned_line(runcli, tmp_path):
    f = tmp_path / "oops.qarr"
    f.write_text("b : Bool\nb = (True\n")
    code, _, err = runcli("check", str(f))
    assert code == BADINPUT
    assert err == f"{f}:3:1: expected ')', found end of input\n"
    code, _, err = runcli("normalize", "-", "fli p(", stdin="")
    assert code == BADINPUT
    assert err == "<arg>:1:7: expected a term, found 'end of input'\n"
    g = tmp_path / "g.qarr"
    g.write_text("g = \\(x, x). x\n")
    code, _, err = runcli("check", str(g))
    assert code == BADINPUT
    assert err == f"{g}:1:6: pattern variables must be distinct\n"


@pytest.mark.parametrize("via_stdin", [False, True])
def test_invalid_utf8_is_a_positioned_parse_error(runcli, tmp_path,
                                                  via_stdin):
    f = tmp_path / "bad.qarr"
    f.write_bytes(b"-- \xe9t\xc3\xa9\r\nf : Bool\nf = \xff\xfe True\n")
    if via_stdin:
        code, _, err = runcli("check", "-", stdin=f.read_bytes())
    else:
        code, _, err = runcli("check", str(f))
    source = "<stdin>" if via_stdin else f
    assert (code, err) == (BADINPUT, f"{source}:1:4: invalid UTF-8 byte "
                                     f"0xe9\n")
    f.write_bytes(b"f : Bool\r\nf = \xff\xfe True\n")
    code, _, err = runcli("check", str(f))
    assert (code, err) == (BADINPUT, f"{f}:2:5: invalid UTF-8 byte 0xff\n")


@pytest.mark.parametrize("cmd", [("check",), ("normalize", "v"),
                                 ("run", "v"), ("emit", "v")])
def test_non_finite_scalar_exits_2(runcli, tmp_path, cmd):
    f = tmp_path / "big.qarr"
    f.write_text("v = 1" + "0" * 400 + " * [True]\n")
    code, out, err = runcli(cmd[0], str(f), *cmd[1:])
    assert (code, out, err) == (
        BADINPUT, "", f"{f}:1:5: scalar literal is too large to be finite\n")


def test_check_missing_file_exits_2(runcli):
    code, _, err = runcli("check", "/nonexistent/f.qarr")
    assert code == BADINPUT
    assert "cannot read" in err


def test_no_prelude_makes_gates_unknown(runcli, demo):
    code, _, err = runcli("check", demo, "--no-prelude")
    assert code == FAIL
    assert "unbound" in err


def test_no_prelude_self_contained(runcli, tmp_path):
    f = tmp_path / "própria.qarr"
    f.write_text("myNot : Bool -> Bool\n"
                 "myNot = \\x. if x then False else True\n")
    code, out, _ = runcli("check", str(f), "--no-prelude")
    assert code == OK and out == "myNot : Bool -> Bool\n"


# --------------------------------------------------------------------------
# run


def test_run_super_with_ket(runcli, demo):
    code, out, err = runcli("run", demo, "flip", "--input", "|0>")
    assert code == OK and err == ""
    want = render_density(pure_density(np.array([0, 1], dtype=complex)))
    assert out == want + "\n"


def test_run_prelude_name_from_stdin(runcli):
    code, out, _ = runcli("run", "-", "bell", "--input", "|00>", stdin="")
    assert code == OK
    phi_plus = pure_density(np.array([1, 0, 0, 1]) * INV)
    assert out == render_density(phi_plus) + "\n"


def test_run_json_is_deterministic(runcli, demo):
    code, out1, _ = runcli("run", demo, "flip", "--input", "|1>", "--json")
    assert code == OK
    obj = json.loads(out1)
    assert obj["def"] == "flip" and obj["type"] == "Super Bool Bool"
    assert obj["output"]["basis"] == ["False", "True"]
    _, out2, _ = runcli("run", demo, "flip", "--input", "|1>", "--json")
    assert out1 == out2


def test_run_density_file(runcli, demo, tmp_path):
    rho = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    f = tmp_path / "rho.json"
    f.write_text(json.dumps(dens_to_json(rho)))
    code, out, _ = runcli("run", demo, "flip", "--density", str(f))
    assert code == OK
    x = np.array([[0, 1], [1, 0]])
    assert out == render_density(x @ rho @ x) + "\n"


def test_run_bad_density_file(runcli, demo, tmp_path):
    f = tmp_path / "rho.json"
    f.write_text("not json at all {")
    code, _, err = runcli("run", demo, "flip", "--density", str(f))
    assert code == BADINPUT and "cannot read density" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("as_json", [False, True])
def test_run_non_finite_density_refused(runcli, demo, tmp_path, bad, as_json):
    # Python's json reads NaN and Infinity; they are not densities
    obj = dens_to_json(np.eye(2, dtype=complex) / 2)
    obj["rows"][1][0]["im"] = bad
    f = tmp_path / "rho.json"
    f.write_text(json.dumps(obj))
    code, out, err = runcli("run", demo, "flip", "--density", str(f),
                            *(["--json"] if as_json else []))
    assert code == BADINPUT and out == ""
    assert err.count("\n") == 1 and "non-finite" in err


@pytest.mark.parametrize("rows", [
    [[1, 5], [0, -3]],                  # not Hermitian
    [[2, 0], [0, -1]],                  # Hermitian, eigenvalue -1
    [[0.5, 1], [1, 0.5]],               # Hermitian, eigenvalue -0.5
])
def test_run_matrix_that_is_not_a_density_refused(runcli, demo, tmp_path,
                                                  rows):
    obj = dens_to_json(np.array(rows, dtype=complex))
    f = tmp_path / "rho.json"
    f.write_text(json.dumps(obj))
    code, out, err = runcli("run", demo, "flip", "--density", str(f))
    assert code == BADINPUT and out == ""
    assert err == ("cannot read density: the matrix is not Hermitian "
                   "positive semidefinite\n")


def test_run_density_trace_is_used_as_written(runcli, demo, tmp_path):
    rho = np.array([[2, 0], [0, 0]], dtype=complex)
    f = tmp_path / "rho.json"
    f.write_text(json.dumps(dens_to_json(rho)))
    code, out, _ = runcli("run", demo, "flip", "--density", str(f))
    assert code == OK
    assert out == render_density(np.array([[0, 0], [0, 2]])) + "\n"


def test_run_input_and_density_exclusive(capsys, demo, tmp_path):
    f = tmp_path / "rho.json"
    f.write_text(json.dumps(dens_to_json(np.eye(2, dtype=complex) / 2)))
    with pytest.raises(SystemExit) as exc:
        main(["run", demo, "flip", "--input", "|0>", "--density", str(f)])
    cap = capsys.readouterr()
    assert exc.value.code == BADINPUT and cap.out == ""
    assert ("error: argument --density: not allowed with argument --input"
            in cap.err)


def test_run_dimension_mismatch(runcli, demo):
    code, _, err = runcli("run", demo, "flip", "--input", "|00>")
    assert code == BADINPUT
    assert "expects 2" in err


@pytest.mark.parametrize("flag, given, said", [
    ("--density", dens_to_json(np.eye(4) / 4),
     "input has dimension 4, but mix expects 2"),
    # "dim" says 3, the rows are 2 by 2
    ("--density", {**dens_to_json(np.eye(2) / 2), "dim": 3},
     "cannot read density: density dimension mismatch"),
    ("--input", "(|0>", "bad ket expression: missing ')'"),
], ids=["density-dimension", "density-rows", "ket"])
def test_run_refuses_an_unusable_input(runcli, tmp_path, flag, given, said):
    f = tmp_path / "demo.qarr"
    f.write_text(randprog.DEMO_SRC)
    if flag == "--density":
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(given))
        given = str(rho)
    assert runcli("run", str(f), "mix", flag, given) == (BADINPUT, "",
                                                         said + "\n")


@pytest.mark.parametrize("qubits", [20, 5000])
def test_run_oversized_ket_refused_before_allocation(runcli, demo, qubits):
    # a 20-qubit density matrix would need 16 TiB; the ket's bit count is
    # checked against the definition before any amplitude is allocated
    code, out, err = runcli("run", demo, "flip", "--input",
                            "|" + "0" * qubits + ">")
    assert code == BADINPUT and out == ""
    assert "expects 2" in err and "Traceback" not in err


def test_run_super_needs_input(runcli, demo):
    code, _, err = runcli("run", demo, "flip")
    assert code == BADINPUT and "needs --input" in err


def test_run_unknown_name(runcli, demo):
    code, _, err = runcli("run", demo, "nosuch", "--input", "|0>")
    assert code == BADINPUT and "no definition named" in err


def test_run_boolean_def(runcli, tmp_path):
    f = tmp_path / "b.qarr"
    f.write_text("b : (Bool, Bool)\nb = (True, not True)\n")
    code, out, _ = runcli("run", str(f), "b")
    assert code == OK and out == "(True, False)\n"


VALUES_SRC = """\
p : (Bool, (Bool, Bool))
p = (True, (False, True))
b : Bool
b = not True
"""


@pytest.mark.parametrize("name, shown", [("p", "(True, (False, True))"),
                                         ("b", "False")])
def test_run_classical_values_print(runcli, tmp_path, name, shown):
    f = tmp_path / "values.qarr"
    f.write_text(VALUES_SRC)
    assert runcli("run", str(f), name) == (OK, shown + "\n", "")
    assert runcli("run", str(f), name, "--json") == (
        OK, f'{{"def": "{name}", "value": "{shown}"}}\n', "")


def test_run_vector_def(runcli, tmp_path):
    f = tmp_path / "v.qarr"
    f.write_text("v : Vec Bool\nv = invsqrt2 * [False] + invsqrt2 * [True]\n")
    code, out, _ = runcli("run", str(f), "v")
    assert code == OK
    assert out == render_vector(np.array([INV, INV])) + "\n"


def test_run_vector_json(runcli, tmp_path):
    f = tmp_path / "v.qarr"
    f.write_text("v : Vec Bool\nv = [True]\n")
    code, out, _ = runcli("run", str(f), "v", "--json")
    assert code == OK
    obj = json.loads(out)
    assert obj["value"]["basis"] == ["False", "True"]
    assert "amps" in obj["value"]


def test_run_function_def_is_rejected(runcli):
    code, _, err = runcli("run", "-", "not", stdin="")
    assert code == BADINPUT and "evaluates to a function" in err


HOLDS_NO_BASIS_VALUE = """\
p : (Vec Bool, Bool)
p = ([True], False)
q : (Bool -> Bool, Bool)
q = (\\x. x, True)
s = (QNot, True)
"""


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("name", ["p", "q", "s"])
def test_run_refuses_a_pair_that_holds_no_basis_value(runcli, tmp_path,
                                                      name, json_flag):
    f = tmp_path / "pairs.qarr"
    f.write_text(HOLDS_NO_BASIS_VALUE)
    code, out, err = runcli("run", str(f), name, *json_flag)
    assert (code, out) == (BADINPUT, "")
    assert err.count("\n") == 1 and err.startswith(f"{name} evaluates to")


def test_run_classical_value_rejects_input_flag(runcli, tmp_path):
    f = tmp_path / "b.qarr"
    f.write_text("b : Bool\nb = True\n")
    code, _, err = runcli("run", str(f), "b", "--input", "|0>")
    assert code == BADINPUT and "takes no input" in err


# --------------------------------------------------------------------------
# normalize


def test_normalize_golden_trace(runcli):
    code, out, _ = runcli("normalize", "-", GOLDEN_START, stdin="")
    assert code == OK
    laws = [line.strip()[4:-2].strip() for line in out.splitlines()
            if line.startswith("= {")]
    assert laws == GOLDEN_LAW_NAMES
    assert out.splitlines()[-1] == "    \\@x. [x]"


def test_normalize_json(runcli):
    code, out, _ = runcli("normalize", "-", GOLDEN_START, "--json", stdin="")
    assert code == OK
    obj = json.loads(out)
    assert obj["complete"] is True
    assert len(obj["steps"]) == 11
    assert obj["end"] == "\\@x. [x]"
    assert [s["law"] for s in obj["steps"]] == GOLDEN_LAW_NAMES


def test_normalize_prints_scalars_it_reads_back(runcli, tmp_path):
    f = tmp_path / "s.qarr"
    f.write_text("v = 0.00001 * [True]\nw = 100000000000000000.0 * [True]\n")
    for name, text in (("v", "0.00001 * [True]"),
                       ("w", "100000000000000000.0 * [True]")):
        assert runcli("normalize", str(f), name) == (OK, f"    {text}\n", "")
        assert runcli("normalize", str(f), text) == (OK, f"    {text}\n", "")


def test_normalize_out_of_fuel_exits_3(runcli):
    code, out, _ = runcli("normalize", "-", GOLDEN_START, "--fuel", "3",
                          stdin="")
    assert code == UNDECIDED
    assert "fuel exhausted" in out


def test_normalize_ill_typed_inline_exits_1(runcli):
    code, _, err = runcli("normalize", "-", "\\@x. not @ x", stdin="")
    assert code == FAIL and "mismatch" in err
    # the position is in the argument, not in the file
    assert err.startswith("<arg>:1:"), err
    code, _, err = runcli("normalize", "-", "not (x, True)", stdin="")
    assert code == FAIL and err.startswith("<arg>:1:6: unbound: x"), err


def test_normalize_unparseable_target_exits_2(runcli):
    code, _, err = runcli("normalize", "-", "fli p(", stdin="")
    assert code == BADINPUT


# --------------------------------------------------------------------------
# prove


def test_prove_semantically_golden(runcli):
    code, out, _ = runcli("prove", "-", "\\@x. let y = QNot @ x in [y]",
                          "QNot", stdin="")
    assert code == OK
    assert out == ("equal: normal forms differ syntactically but denotations "
                   "agree (max deviation 0.000e+00)\n")


def test_prove_by_normalization(runcli):
    code, out, _ = runcli("prove", "-", "(\\x. not x) True", "not True",
                          stdin="")
    assert code == OK
    assert out.startswith("equal: both sides normalize to the same term")


def test_prove_refutation_exits_1(runcli):
    code, out, _ = runcli("prove", "-", "QNot", "\\@x. [x]", stdin="")
    assert code == FAIL
    assert out.startswith("not equal:")
    assert "witness density:" in out


def test_prove_unknown_exits_3(runcli, tmp_path):
    code, out, _ = runcli("prove", "-", "nosuch", "True", stdin="")
    assert code == UNDECIDED
    assert out.startswith("unknown: typechecking failed")
    # neither side types on its own
    f = tmp_path / "f.qarr"
    f.write_text("f : Bool -> Bool\nf = \\x. x\n")
    code, out, _ = runcli("prove", str(f), "\\x. x", "\\y. y")
    assert code == UNDECIDED
    assert out == ("unknown: typechecking failed: <arg>:1:1: mismatch: "
                   "ambiguous type; an annotation is required\n")


# differences above a zero tolerance but below the 1e-6 the prover trusts
@pytest.mark.parametrize("lhs, rhs, said", [
    ("\\@q. let h = Had @ q in Had @ h", "\\@q. [q]",
     r"matrix actions differ by \d\.\d{3}e-\d\d but no probed state "
     r"separates them beyond 1e-6"),
    ("invsqrt2 * (invsqrt2 * [True])", "0.5 * [True]",
     r"denotations differ by \d\.\d{3}e-\d\d, between the tolerance 0 and "
     r"1e-6"),
], ids=["super", "vector"])
def test_prove_a_rounding_difference_is_unknown(runcli, lhs, rhs, said):
    code, out, err = runcli("prove", "-", lhs, rhs, "--tolerance", "0",
                            stdin="")
    assert code == UNDECIDED and err == ""
    assert re.fullmatch(f"unknown: {said}\n", out), out


def test_prove_types_a_definition_at_its_annotation(runcli, tmp_path):
    """``f`` alone is ambiguous; as a side of ``prove`` it has its declared
    type, an inline side that is ambiguous on its own borrows the other
    side's, and a definition or term of another type differs by type."""
    f = tmp_path / "f.qarr"
    f.write_text("f : Bool -> Bool\nf = \\x. x\n"
                 "g : (Bool,Bool) -> (Bool,Bool)\ng = \\x. x\n"
                 "h : Super Bool Bool\nh = \\@x. [x]\n")
    same = "equal: both sides normalize to the same term (0 steps)"
    cases = [
        ("f", "f", OK, same),
        ("f", "g", FAIL, "not equal: types differ: Bool -> Bool vs "
                         "(Bool,Bool) -> (Bool,Bool)"),
        ("f", "nosuch", UNDECIDED,
         "unknown: typechecking failed: <arg>:1:1: unbound: nosuch"),
        ("f", "(True,True)", FAIL,
         "not equal: types differ: Bool -> Bool vs (Bool,Bool)"),
        ("\\x.x", "f", OK, same),
        ("g", "\\x.x", OK, same),
        ("h", "\\@x.[x]", OK, same),
        ("f", "\\y.y", OK, same),
        ("g", "g", OK, same),
    ]
    for lhs, rhs, code, line in cases:
        assert runcli("prove", str(f), lhs, rhs) == (code, line + "\n", ""), \
            (lhs, rhs)


UNEQUAL_HIGHER_ORDER = [
    # x = True, f = id tells them apart; the inner functions on Bool -> Bool
    # cannot be compared, so the answer is unknown, not equal
    ("\\x. \\f. if f x then True else False",
     "\\x. \\f. if f (x == False) then True else False", UNDECIDED),
    # a part that differs decides, on whichever side of the part that
    # cannot be compared it stands
    ("(\\f. if f True then True else False, True)",
     "(\\f. if f True then True else False, False)", FAIL),
    ("(True, \\f. if f True then True else False)",
     "(False, \\f. if f True then True else False)", FAIL),
]


@pytest.mark.parametrize("left, right, code", UNEQUAL_HIGHER_ORDER,
                         ids=["curried", "pair-left", "pair-right"])
def test_an_incomparable_part_never_proves_equal(runcli, left, right, code):
    got, out, _ = runcli("prove", "-", left, right, "--no-prelude", stdin="")
    assert got == code
    assert out.startswith("unknown: values of this type cannot be compared"
                          if code == UNDECIDED
                          else "not equal: denotations differ")


SHADOWING_SRC = """\
x : Bool
x = True
ident : Super Bool Bool
ident = \\@x. [x]
konst : Super Bool Bool
konst = \\@y. [True]
"""


def test_delta_leaves_a_bound_name_alone(runcli, tmp_path):
    """``ident``'s binder shadows the definition ``x``: its body reads the
    binder, so it normalizes to itself, with the binder renamed apart from
    the definition, and is not equal to ``konst``.  A trace starts from the
    user's names; its steps and its end are over the renamed term, and it
    replays."""
    f = tmp_path / "shadow.qarr"
    f.write_text(SHADOWING_SRC)
    assert runcli("normalize", str(f), "ident") == (OK, "    \\@x. [x]\n", "")
    code, out, _ = runcli("prove", str(f), "ident", "konst")
    assert code == FAIL
    assert out.startswith("not equal: denotations differ")
    _, gamma, _, defs = load_file(str(f), True)
    rw = Rewriter(defs)
    # the prelude's not reads its own binder x, renamed apart as it unfolds
    for target, start, steps in (("ident", "\\@x. [x]", 0),
                                 ("\\@x. [not (not x)]", None, 8)):
        code, out, _ = runcli("normalize", str(f), target, "--json")
        obj = json.loads(out)
        assert (code, obj["start"]) == (OK, start or target)
        assert obj["end"] == "\\@x'. [x']"
        assert len(obj["steps"]) == steps
        assert all(s["result"].startswith("\\@x'. [") for s in obj["steps"])
        assert not re.search(r"\bx\b(?!')",
                             " ".join(s["result"] for s in obj["steps"]))
        assert replay(rw, rw.normalize(elaborated_target(target, gamma,
                                                         defs)))


def test_delta_does_not_unfold_under_a_capturing_binder(runcli):
    """``cnot``'s body reads the prelude's ``not``, which the binder would
    capture: the binder is renamed apart, and ``cnot`` unfolds under it."""
    code, out, _ = runcli("normalize", "-", "\\not. cnot (not, True)",
                          stdin="")
    lines = out.splitlines()
    assert code == OK
    assert lines[:2] == ["    \\not. cnot (not, True)", "= { delta }"]
    assert lines[-1] == ("    \\not'. if not' then [(not', False)] "
                         "else [(not', True)]")
    code, out, _ = runcli("prove", "-", "\\not. cnot (not, True)",
                          "\\y. cnot (y, True)", stdin="")
    assert code == OK
    assert out.startswith("equal: both sides normalize to the same term")


FRESH_SRC = """\
y' : Bool
y' = True
g : Bool -> Bool
g = \\z. y'
t : Bool -> (Bool -> (Bool,(Bool,Bool)), Bool)
t = \\y. ((\\x. \\y. (x, (g y, y))) y, y)
"""


def test_a_fresh_binder_avoids_the_definitions(runcli, tmp_path):
    """``beta`` renames the inner binder ``y`` apart from the argument
    ``y``.  The fresh name must not be the definition ``y'``: ``delta``
    would then unfold the bound variable to ``True``."""
    f = tmp_path / "fresh.qarr"
    f.write_text(FRESH_SRC)
    code, out, _ = runcli("normalize", str(f), "t", "--no-prelude", "--json")
    assert code == OK
    assert alpha_eq(parse_term(json.loads(out)["end"]),
                    parse_term("\\y. (\\y''. (y, True, y''), y)"))


def test_prove_json(runcli):
    code, out, _ = runcli("prove", "-", "(\\x. x) True", "True", "--json",
                          stdin="")
    assert code == OK
    obj = json.loads(out)
    assert obj["kind"] == "proved-by-normalization"
    assert obj["left_trace"]["end"] == "True"
    code, out, _ = runcli("prove", "-", "QNot", "\\@x. [x]", "--json",
                          stdin="")
    assert code == FAIL
    obj = json.loads(out)
    assert obj["kind"] == "not-equal" and "witness" in obj


@pytest.mark.parametrize("argv", [
    ("prove", "-", "Had", "QNot", "--tolerance", "inf"),
    ("prove", "-", "Had", "QNot", "--tolerance=-inf"),
    ("prove", "-", "Had", "QNot", "--tolerance", "nan"),
    ("prove", "-", "Had", "QNot", "--tolerance", "-1"),
    ("prove", "-", "Had", "QNot", "--fuel", "-5"),
    ("normalize", "-", GOLDEN_START, "--fuel", "-5"),
], ids=["tol-inf", "tol-minus-inf", "tol-nan", "tol-negative", "prove-fuel",
        "normalize-fuel"])
def test_unusable_limits_are_refused(runcli, argv):
    code, out, err = runcli(*argv, stdin="")
    assert code == BADINPUT and out == ""
    option = next(a for a in argv if a.startswith("--")).split("=")[0]
    assert err.count("\n") == 1 and err.startswith(f"{option} must be ")


@pytest.mark.parametrize("argv", [
    ("prove", "-", "Had", "Had", "--tolerance", "0", "--fuel", "0"),
    ("normalize", "-", GOLDEN_START, "--fuel", "0"),
])
def test_zero_limits_are_accepted(runcli, argv):
    code, _, err = runcli(*argv, stdin="")
    assert code in (OK, UNDECIDED) and err == ""


# --------------------------------------------------------------------------
# emit


def test_emit_pipeline_golden(runcli, demo):
    code, out, _ = runcli("emit", demo, "flip")
    assert code == OK
    assert out == "(>>> (arr (\\x. x)) QNot)\n"


def test_emit_invert_golden_and_deterministic(runcli, demo):
    code, out1, _ = runcli("emit", demo, "flip", "--invert")
    assert code == OK
    lines = out1.splitlines()
    assert lines[0] == "(>>> (arr (\\x. x)) QNot)"
    assert lines[1] == ("\\@x. let w2 = (\\@x3. [(\\x. x) x3]) @ x "
                        "in (\\@x4. QNot @ x4) @ w2")
    _, out2, _ = runcli("emit", demo, "flip", "--invert")
    assert out1 == out2


def test_emit_json(runcli, demo):
    code, out, _ = runcli("emit", demo, "flip", "--json", "--invert")
    assert code == OK
    obj = json.loads(out)
    assert obj["pipeline"] == "(>>> (arr (\\x. x)) QNot)"
    assert obj["in_type"] == "Bool" and obj["out_type"] == "Bool"
    assert obj["inverse"].startswith("\\@x. let w2")


def test_emit_inline_term(runcli):
    code, out, _ = runcli("emit", "-", "\\@x. Had @ x", stdin="")
    assert code == OK
    assert out == "(>>> (arr (\\x. x)) Had)\n"


def test_emit_ambiguous_inline_needs_annotation(runcli):
    # trL accepts any product, so the inline term pins nothing down
    code, _, err = runcli("emit", "-", "\\@p. trL p", stdin="")
    assert code == FAIL and "annotation" in err


def test_emit_non_arrow_exits_2(runcli):
    code, _, err = runcli("emit", "-", "not", stdin="")
    assert code == BADINPUT and "not an arrow abstraction" in err


def test_emit_translation_restriction_exits_1(runcli):
    code, _, err = runcli("emit", "-", "\\@x. (fst (QNot, QNot)) @ x",
                          stdin="")
    assert (code, err) == (FAIL, f"<arg>:1:7: {FN_POSITION}")


# a closure whose body holds an arrow abstraction that cannot be translated
UNTRANSLATABLE = ("f : Bool -> Super Bool Bool\n"
                  "f = \\b. \\@x. (fst (QNot, QNot)) @ x\n")
FN_POSITION = ("the function of an arrow application must be a variable or "
               "an arrow abstraction\n")


@pytest.mark.parametrize("applied", [True, False])
@pytest.mark.parametrize("cmd", [("check",), ("normalize", "f"),
                                 ("emit", "QNot"), ("run", "f"),
                                 ("prove", "f", "f")])
def test_every_arrow_abstraction_is_translated(runcli, tmp_path, cmd,
                                               applied):
    """Every subcommand translates every arrow abstraction in the file, so
    the error shows whether or not evaluation would reach the body."""
    f = tmp_path / "closure.qarr"
    f.write_text(UNTRANSLATABLE
                 + ("g : Super Bool Bool\ng = f True\n" if applied else ""))
    assert runcli(cmd[0], str(f), *cmd[1:]) == (FAIL, "",
                                                f"{f}:2:15: {FN_POSITION}")


# a parse, a type and a translation error, with the exit code and the
# line:col each is reported at
BAD_PROGRAMS = {
    "parse": ("b : Bool\nb = (True,\n", BADINPUT, "3:1"),
    "type": ("b : Bool\nb = (True, True)\n", FAIL, "2:5"),
    "translation": (UNTRANSLATABLE, FAIL, "2:15"),
}
TARGETS = {"check": [], "run": ["f"], "normalize": ["f"], "prove": ["f", "f"],
           "emit": ["f"]}
# inline targets, read against a well-typed file
INLINE = [
    ("parse", ["normalize", "FILE", "not ("], BADINPUT, "<arg>:1:6"),
    ("type", ["normalize", "FILE", "not (y, True)"], FAIL, "<arg>:1:6"),
    ("parse", ["emit", "FILE", "\\@x. [y"], BADINPUT, "<arg>:1:8"),
    ("type", ["emit", "FILE", "\\@x. [y]"], FAIL, "<arg>:1:7"),
    ("translation", ["emit", "FILE", "\\@x. (fst (QNot, QNot)) @ x"], FAIL,
     "<arg>:1:7"),
    ("parse", ["prove", "FILE", "not (", "True"], BADINPUT, "<arg>:1:6"),
    ("type", ["prove", "FILE", "not (y, True)", "True"], UNDECIDED,
     "<arg>:1:6"),
]


def _position_cases():
    for error, (src, code, at) in BAD_PROGRAMS.items():
        for cmd, targets in TARGETS.items():
            for file, source in (("FILE", "FILE"), ("-", "<stdin>")):
                yield pytest.param([cmd, file, *targets], src, code,
                                   f"{source}:{at}",
                                   id=f"{error}-{cmd}-{source}")
    for error, argv, code, where in INLINE:
        yield pytest.param(argv, FLIP_SRC, code, where,
                           id=f"{error}-{argv[0]}-<arg>")


@pytest.mark.parametrize("argv, program, code, where",
                         list(_position_cases()))
def test_errors_carry_their_source_position(runcli, tmp_path, argv, program,
                                            code, where):
    """Every error in a file, on stdin or in an inline target starts with
    its ``source:line:col``; ``prove`` reports an ill-typed side in its
    ``unknown`` verdict."""
    f = tmp_path / "prog.qarr"
    f.write_text(program)
    got, out, err = runcli(*[str(f) if a == "FILE" else a for a in argv],
                           stdin=program if argv[1] == "-" else None)
    line = (out.removeprefix("unknown: typechecking failed: ")
            if got == UNDECIDED else err)
    assert got == code
    assert line.startswith(where.replace("FILE", str(f)) + ": "), (out, err)


def test_definition_targets_keep_their_annotation(runcli, tmp_path):
    """A definition is used as the file elaborated it, at its annotation;
    on its own, neither term has a type."""
    f = tmp_path / "poly.qarr"
    f.write_text("f : Bool -> Bool\nf = \\x. x\n"
                 "g : Super Bool Bool\ng = \\@x. [x]\n")
    assert runcli("normalize", str(f), "f") == (OK, "    \\x. x\n", "")
    code, out, _ = runcli("emit", str(f), "g")
    assert (code, out) == (OK, "(arr (\\x. x))\n")


def test_check_does_not_evaluate(tmp_path):
    """A 40-qubit vector would need 16 TiB of amplitudes; checking it needs
    none."""
    t, v = "Bool", "True"
    for _ in range(39):
        t, v = f"(Bool, {t})", f"(True, {v})"
    (tmp_path / "wide.qarr").write_text(f"v : Vec {t}\nv = [{v}]\n")
    proc = _cli_child(tmp_path, "check", "wide.qarr", address_space=1 << 30)
    assert proc.returncode == OK, proc.stderr[-300:]
    assert proc.stdout == f"v : Vec {t.replace(', ', ',')}\n"


# --------------------------------------------------------------------------
# evaluation on demand

STATIC_COMMANDS = [("check",), ("normalize", "dneg"), ("emit", "dneg"),
                   ("emit", "toffoli", "--invert")]


def test_static_commands_build_no_matrix(runcli, tmp_path, monkeypatch):
    f = tmp_path / "demo.qarr"
    f.write_text(randprog.DEMO_SRC)
    want = [runcli(cmd[0], str(f), *cmd[1:]) for cmd in STATIC_COMMANDS]

    def refuse(*args):
        raise AssertionError("matrix or plan built")

    monkeypatch.setattr("qarrow.evaluator._plan", refuse)
    got = [runcli(cmd[0], str(f), *cmd[1:]) for cmd in STATIC_COMMANDS]
    assert got == want
    assert all(code == OK for code, _, _ in got)


def _module_loaded(tmp_path, module, cmds, python_flags=()):
    """Run a fresh interpreter on `tmp_path` holding ``demo.qarr``: it
    imports ``qarrow``, then ``qarrow.cli``, then runs each command of
    `cmds` (its arguments joined by tabs) in turn through ``main``.  Returns
    one ``(step, exit code, loaded)`` per step, where `loaded` tells
    whether `module` was in ``sys.modules`` after it."""
    (tmp_path / "demo.qarr").write_text(randprog.DEMO_SRC)
    probe = "\n".join([
        "import sys",
        "def report(step, code=None):",
        "    print(repr((step, code, sys.argv[1] in sys.modules)),",
        "          file=sys.stderr)",
        "import qarrow",
        "report('import qarrow')",
        "from qarrow.cli import main",
        "report('import qarrow.cli')",
        "for argv in sys.argv[2:]:",
        "    report(argv, main(argv.split('\\t')))",
    ])
    src = Path(qarrow.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, *python_flags, "-c", probe,
                           module, *cmds], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-300:]
    return [ast.literal_eval(line) for line in proc.stderr.splitlines()]


IMPORTS = ["import qarrow", "import qarrow.cli"]


def test_static_commands_load_no_numpy(tmp_path):
    """``import qarrow``, the static subcommands and a ``prove`` that
    normalization decides leave numpy (and so the evaluator) unloaded;
    ``run`` loads it."""
    cmds = ["check\tdemo.qarr", "normalize\tdemo.qarr\tdneg",
            "emit\tdemo.qarr\ttoffoli\t--invert",
            "prove\tdemo.qarr\tdneg\t\\@x. [x]",
            "run\tdemo.qarr\tmix\t--input\t|0>"]
    assert _module_loaded(tmp_path, "numpy", cmds) == [
        *((step, None, False) for step in IMPORTS),
        *((c, 0, c.startswith("run")) for c in cmds)]


def test_only_json_output_loads_json(tmp_path):
    """``check`` and ``run`` leave ``json`` unloaded; ``--json`` loads it."""
    cmds = ["check\tdemo.qarr", "run\tdemo.qarr\tmix\t--input\t|0>",
            "check\tdemo.qarr\t--json"]
    assert _module_loaded(tmp_path, "json", cmds)[len(IMPORTS):] == [
        (c, 0, c.endswith("--json")) for c in cmds]


def test_only_normalize_and_prove_load_the_rewriter(tmp_path):
    cmds = ["check\tdemo.qarr", "emit\tdemo.qarr\ttoffoli\t--invert",
            "run\tdemo.qarr\tmix\t--input\t|0>",
            "normalize\tdemo.qarr\tdneg"]
    assert _module_loaded(tmp_path, "qarrow.rewriter", cmds) == [
        *((step, None, False) for step in IMPORTS),
        *((c, 0, c.startswith("normalize")) for c in cmds)]
    prove = ["prove\tdemo.qarr\tdneg\t\\@x. [x]"]
    assert _module_loaded(tmp_path, "qarrow.rewriter", prove)[-1] == (
        prove[0], 0, True)


def test_prelude_is_read_without_importlib_resources(tmp_path):
    """Without ``site`` (whose ``.pth`` files may import it first), loading
    the CLI and the prelude leaves ``importlib.resources`` unloaded."""
    cmds = ["check\tdemo.qarr", "emit\tdemo.qarr\ttoffoli",
            "normalize\tdemo.qarr\tdneg"]
    assert _module_loaded(tmp_path, "importlib.resources", cmds,
                          ["-S"]) == [
        *((step, None, False) for step in IMPORTS),
        *((c, 0, False) for c in cmds)]


def test_prelude_source_is_the_packaged_file():
    from importlib.resources import files

    from qarrow.stdlib import prelude_source
    packaged = files("qarrow").joinpath("prelude.qarr")
    assert prelude_source() == packaged.read_text(encoding="utf-8")


def test_every_export_resolves():
    assert set(qarrow.__all__) <= set(dir(qarrow))
    for name in qarrow.__all__:
        assert getattr(qarrow, name) is not None, name
    with pytest.raises(AttributeError):
        qarrow.no_such_name


def test_redefinition_leaves_earlier_closures_alone(runcli, tmp_path):
    f = tmp_path / "redef.qarr"
    f.write_text("g : Bool -> Bool\ng = \\x. not x\n"
                 "not : Bool -> Bool\nnot = \\x. x\n"
                 "v : Bool\nv = g True\n")
    assert runcli("run", str(f), "v") == (OK, "False\n", "")


def test_redefinition_leaves_earlier_supers_alone(runcli, tmp_path):
    f = tmp_path / "redef.qarr"
    f.write_text("f : Super Bool Bool\nf = \\@x. QNot @ x\n"
                 "QNot : Super Bool Bool\nQNot = \\@x. [x]\n")
    code, out, _ = runcli("run", str(f), "f", "--input", "|0>")
    want = render_density(pure_density(np.array([0, 1], dtype=complex)))
    assert (code, out) == (OK, want + "\n")


def _cli_child(tmp_path, *argv, address_space=None):
    """Run the CLI in a fresh process, optionally under an address-space
    cap, so that a failed allocation or a crash shows as it would to a
    user."""
    def limit():
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS,
                               (address_space, address_space))

    src = Path(qarrow.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "qarrow.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, preexec_fn=limit, timeout=120)


@pytest.mark.parametrize("n", [4, 5])
def test_ghz_runs_within_one_gib(tmp_path, n):
    (tmp_path / "ghz.qarr").write_text(randprog.ghz_source(n))
    proc = _cli_child(tmp_path, "run", "ghz.qarr", "ghz", "--input",
                      "|" + "0" * n + ">", address_space=1 << 30)
    assert proc.returncode == OK, proc.stderr[-300:]
    amp = np.zeros(2 ** n, dtype=complex)
    amp[0] = amp[-1] = INV
    assert proc.stdout == render_density(pure_density(amp)) + "\n"


def test_ghz_beyond_one_gib_is_a_clean_memory_error(tmp_path):
    """GHZ-6's widest node needs a 4 GiB batch: a real failed allocation
    exits 2 with one line, not a traceback."""
    (tmp_path / "ghz.qarr").write_text(randprog.ghz_source(6))
    proc = _cli_child(tmp_path, "run", "ghz.qarr", "ghz", "--input",
                      "|000000>", address_space=1 << 30)
    assert (proc.returncode, proc.stdout) == (BADINPUT, "")
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(r"ghz\.qarr: MemoryError: [^\n]+\n",
                        proc.stderr), proc.stderr


def _let_chain(n):
    lines = [f"let x{i + 1} = QNot @ x{i} in" for i in range(n)]
    return ("f : Super Bool Bool\nf = \\@x0.\n  " + "\n  ".join(lines)
            + f"\n  [x{n}]\n")


DEEP = {
    "lets.qarr": _let_chain(1000),
    "parens.qarr": "b : Bool\nb = " + "(" * 3000 + "True" + ")" * 3000 + "\n",
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_nesting_is_a_clean_error(tmp_path, name):
    (tmp_path / name).write_text(DEEP[name])
    proc = _cli_child(tmp_path, "check", name)
    assert proc.returncode == BADINPUT
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(rf"{name}:\d+:\d+: nesting too deep.*\n",
                        proc.stderr), proc.stderr


def test_a_program_too_deep_to_check_exits_2(tmp_path):
    # 600 nested term lets parse, and then the checker runs out of stack
    lets = "\n  ".join(f"let x{i + 1} = x{i} in" for i in range(600))
    (tmp_path / "lets.qarr").write_text(
        f"b : Bool\nb = let x0 = True in\n  {lets}\n  x600\n")
    proc = _cli_child(tmp_path, "check", "lets.qarr")
    assert (proc.returncode, proc.stdout) == (BADINPUT, "")
    assert proc.stderr == ("lets.qarr: RecursionError: maximum recursion "
                           "depth exceeded\n")


def test_a_deep_type_under_a_deep_command_chain_proves(tmp_path):
    # `prove` checks each side again under a 250-deep chain of command
    # lets, each recording a type up to 250 products deep, so re-checking
    # must not compare recorded types by recursion on top of the chain
    n = 250
    ty = "(Bool,Bool)"
    for _ in range(1, n):
        ty = f"({ty},Bool)"
    lets = "\n  ".join(f"let y{i} = [(y{i - 1}, x)] in" for i in range(1, n))
    (tmp_path / "deep.qarr").write_text(
        f"f : Super Bool {ty}\nf = \\@x.\n  let y0 = [(x, x)] in\n  {lets}\n"
        f"  [y{n - 1}]\n")
    proc = _cli_child(tmp_path, "prove", "deep.qarr", "f", "f")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("equal: both sides normalize to the same term "
                           f"({2 * n} steps)\n")


def test_memory_and_recursion_errors_exit_2(runcli, demo, monkeypatch):
    def explode(*args):
        raise MemoryError("Unable to allocate 4.00 GiB")

    monkeypatch.setattr("qarrow.evaluator.run_super", explode)
    code, out, err = runcli("run", demo, "flip", "--input", "|0>")
    assert (code, out) == (BADINPUT, "")
    assert err == f"{demo}: MemoryError: Unable to allocate 4.00 GiB\n"

    def recurse(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("qarrow.evaluator.run_super", recurse)
    code, _, err = runcli("run", demo, "flip", "--input", "|0>")
    assert code == BADINPUT
    assert err == (f"{demo}: RecursionError: maximum recursion depth "
                   f"exceeded\n")


# --------------------------------------------------------------------------
# ket expressions


def test_parse_ket_basis():
    assert np.allclose(parse_ket("|0>"), [1, 0])
    assert np.allclose(parse_ket("|1>"), [0, 1])
    assert np.allclose(parse_ket("|10>"), [0, 0, 1, 0])
    assert np.allclose(parse_ket("|011>"), np.eye(8)[3])


def test_parse_ket_superpositions():
    assert np.allclose(parse_ket("(|00>+|11>)/sqrt2"),
                       [INV, 0, 0, INV])
    assert np.allclose(parse_ket("|0>/sqrt2 - |1>/sqrt2"), [INV, -INV])
    assert np.allclose(parse_ket("-|1>"), [0, -1])
    assert np.allclose(parse_ket(" ( |0> + |1> ) /sqrt2 "), [INV, INV])
    assert np.allclose(parse_ket("|0>/sqrt2/sqrt2"), [0.5, 0])


@pytest.mark.parametrize("bad", [
    "|2>", "|0", "||>", "|>", "", "|0>+", "|0>+|00>", "|0>)", "|0>/half",
])
def test_parse_ket_rejects(bad):
    with pytest.raises(CliError) as exc:
        parse_ket(bad)
    assert exc.value.code == BADINPUT
