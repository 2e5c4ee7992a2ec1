"""The CLI's contract on malformed input: whatever the program, the ket or
the density file, every subcommand exits 0, 1, 2 or 3 and prints no Python
traceback.  Inputs are mutations of the README demo; none of them can ask
for a large allocation (the demo's widest superoperator has three qubits,
and a ket of another width is refused before its amplitudes exist).  On
terms that the structural laws rewrite, ``normalize`` and ``prove`` keep
the same contract, and a ``normalize --json`` trace replays."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarrow import elaborate_term, Law, parse_term
from qarrow.cli import load_file, main, resolve_target
from qarrow.rewriter import ProofTrace, Rewriter, Step

import structural
from helpers import replay
from randprog import DEMO_SRC

# fragments a mutation may insert into a program or an inline term
TOKENS = ["\\@", "\\", ".", "@", "let", "in", "=", "(", ")", ",", "[", "]",
          ":", "->", "Super", "Vec", "Bool", "(Bool, Bool)", "True", "False",
          "fst", "snd", "if", "then", "else", "meas", "trL", "mzero", "+",
          "-", "*", "QNot", "Had", "Cnot", "hadamard", "x", "y", "q", "\n",
          " ", "dneg", "mix", "\u00e9", "\u00b2", "\u0663"]
NAMES = ["dneg", "mix", "QNot", "Had", "Cnot", "bell", "toffoli", "teleport",
         "not", "hadamard", "nosuch"]
TERMS = ["\\@x. [x]", "\\@q. let h = Had @ q in Had @ h", "\\@q. [q]",
         "\\@x. (fst (QNot, QNot)) @ x", "\\x. not x"]
KETS = ["|0>", "|1>", "|00>", "(|000>+|100>)/sqrt2", "-|01>", "|0>-|1>"]
KET_CHARS = "|01>+-()/sqrt2 "


def _mutate(text: str, edits) -> str:
    for kind, at, span, token in edits:
        i = at % (len(text) + 1)
        if kind == "delete":
            text = text[:i] + text[i + span:]
        elif kind == "insert":
            text = text[:i] + token + text[i:]
        else:                                   # duplicate a slice
            text = text[:i] + text[i:i + span] + text[i:]
    return text


_edits = st.lists(st.tuples(st.sampled_from(["delete", "insert", "dup"]),
                            st.integers(0, 400), st.integers(1, 12),
                            st.sampled_from(TOKENS)), max_size=3)


def _mutated(base):
    return st.builds(_mutate, base, _edits)


_target = st.one_of(st.sampled_from(NAMES),
                    _mutated(st.sampled_from(TERMS)))
_ket = st.one_of(_mutated(st.sampled_from(KETS)),
                 st.text(KET_CHARS, max_size=16))

_cell = st.one_of(
    st.fixed_dictionaries({"re": st.floats(-2, 2), "im": st.floats(-2, 2)}),
    st.fixed_dictionaries({"re": st.sampled_from(["x", None, [], 1])}),
    st.integers(-1, 1), st.none())
_density = st.one_of(
    st.fixed_dictionaries({
        "dim": st.one_of(st.integers(-1, 3), st.sampled_from(["2", None])),
        "rows": st.lists(st.lists(_cell, max_size=3), max_size=3)}),
    st.lists(st.integers(0, 2), max_size=3),
    st.sampled_from([{}, {"rows": 5, "dim": 1}, "rho", 7, None]))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["check", "run", "normalize", "prove",
                                "emit"]))
    argv = [cmd, "demo.qarr"]
    if cmd == "run":
        argv.append(draw(st.sampled_from(NAMES)))
        state = draw(st.sampled_from(["ket", "density", "none"]))
        if state == "ket":
            argv += ["--input", draw(_ket)]
        elif state == "density":
            argv += ["--density", "rho.json"]
    elif cmd == "prove":
        argv += [draw(_target), draw(_target), "--fuel", "40"]
    elif cmd == "normalize":
        argv += [draw(_target), "--fuel", "40"]
    elif cmd == "emit":
        argv.append(draw(_target))
        if draw(st.booleans()):
            argv.append("--invert")
    for flag in ("--json", "--no-prelude"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(program=st.one_of(st.just(DEMO_SRC), _mutated(st.just(DEMO_SRC))),
       argv=_argv(), density=_density)
def test_every_subcommand_keeps_the_exit_code_contract(workdir, program, argv,
                                                       density):
    files = {"demo.qarr": program, "rho.json": json.dumps(density)}
    for name, text in files.items():
        (workdir / name).write_text(text)
    argv = [str(workdir / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:                 # argparse's own usage errors
            code = e.code
    assert code in (0, 1, 2, 3), (argv, program, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, program)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


def _replays(data: dict, type_, gamma: dict, defs: dict) -> bool:
    """Rebuild a ``normalize --json`` trace from its printed terms, each
    typechecked at `type_`, and replay it law by law."""
    def term(src):
        return elaborate_term(gamma, parse_term(src), type_)[1]

    steps = tuple(Step(Law(s["law"]), tuple(s["path"]), s["direction"],
                       term(s["result"])) for s in data["steps"])
    trace = ProofTrace(term(data["start"]), steps, term(data["end"]),
                       data["complete"])
    return replay(Rewriter(defs), trace)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=structural.terms(3), other=structural.terms(2))
def test_normalize_and_prove_keep_the_contract_on_structural_terms(
        workdir, case, other):
    demo = workdir / "demo.qarr"
    demo.write_text(DEMO_SRC)
    src = case[0]
    code, out = _run(["normalize", str(demo), src, "--json"])
    if code in (0, 3):
        _, gamma, _, defs = load_file(str(demo), True)
        type_ = elaborate_term(gamma, resolve_target(src, defs))[0]
        assert _replays(json.loads(out), type_, gamma, defs), src
    for rhs in (src, other[0]):
        _run(["prove", str(demo), src, rhs, "--fuel", "400"])
