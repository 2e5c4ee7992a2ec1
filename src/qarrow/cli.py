"""Batch command-line interface.

Subcommands:

* ``check FILE``               — parse and typecheck; print ``name : type``
* ``run FILE NAME``            — evaluate a definition; superoperators take
                                 an input density (``--input`` ket or
                                 ``--density`` JSON file)
* ``normalize FILE TARGET``    — rewrite to normal form, print the trace
* ``prove FILE LHS RHS``       — decide equality of two definitions/terms
* ``emit FILE NAME``           — print the combinator pipeline of a
                                 definition (optionally its inverse)

Every subcommand loads a file the same way: parse, typecheck, then
translate every arrow abstraction in the file's definitions, wherever it
sits (inside a lambda body too), so a translation error is reported whether
or not evaluation would reach it.  Only ``run`` and ``prove`` evaluate, and
``prove`` only when normalization does not decide; the other subcommands
import neither the evaluator nor numpy.  Only ``normalize`` and ``prove``
import the rewriter.  ``json`` is imported only to print ``--json`` output
or to read ``run --density``.

Exit codes: 0 success; 1 the task failed (type error, unequal, translation
restriction); 2 bad input (missing file, parse error, wrong dimension,
negative fuel, a tolerance that is negative or not finite, nesting too deep
for the stack, densities too large for memory);
3 indeterminate (fuel exhausted or size bound reached, unknown verdict).

Every error is a ``QarrowError``, which ``main`` prints as one line, and an
error with a position prints as ``source:line:col: message``.  The source
is the file, ``<stdin>`` for ``-``, ``<arg>`` for an inline target, or
``prelude.qarr``.  Usage errors, an unreadable file, a bad ket or density,
evaluation errors, and running out of stack or memory (``file:
RecursionError: …``, ``file: MemoryError: …``) carry no position.
``prove`` reports an ill-typed side as an ``unknown`` verdict, with its
position, and exits 3.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Mapping
from typing import Optional, TYPE_CHECKING

from .classic import inverse_translate, sexpr, translate_term
from .parser import parse_program, parse_term, ParseError
from .stdlib import load_prelude
from .syntax import ArrowAbs, Pos, pretty, Program, QarrowError, type_str
from .typecheck import elaborate_program, elaborate_term

if TYPE_CHECKING:
    import numpy as np

OK, FAIL, BADINPUT, UNDECIDED = 0, 1, 2, 3


class CliError(QarrowError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------------
# Ket expressions: |010>, +, -, /sqrt2, parentheses


def parse_ket(s: str, d: Optional[int] = None, name: str = "") -> np.ndarray:
    """The amplitudes of a ket expression.  Given the dimension `d` that
    definition `name` expects, a basis ket of any other dimension is refused
    before its amplitudes are allocated."""
    import numpy as np

    text = s.replace(" ", "")
    pos = 0

    def peek() -> str:
        return text[pos] if pos < len(text) else ""

    def fail(msg: str):
        raise CliError(f"bad ket expression: {msg}", BADINPUT)

    def atom() -> np.ndarray:
        nonlocal pos
        if peek() == "(":
            pos += 1
            v = expr()
            if peek() != ")":
                fail("missing ')'")
            pos += 1
            return v
        if peek() == "|":
            pos += 1
            start = pos
            while peek() and peek() in "01":
                pos += 1
            bits = text[start:pos]
            if not bits or peek() != ">":
                fail("expected |bits> with bits drawn from 0/1")
            pos += 1
            n = len(bits)
            if d is not None and 2 ** n != d:
                # 2**n has too many digits to print when n is large
                shown = 2 ** n if n <= 64 else f"2**{n}"
                raise CliError(f"input has dimension {shown}, but {name} "
                               f"expects {d}", BADINPUT)
            amp = np.zeros(2 ** n, dtype=complex)
            amp[int(bits, 2)] = 1.0
            return amp
        fail(f"unexpected {peek()!r}" if peek() else "unexpected end")

    def term() -> np.ndarray:
        nonlocal pos
        v = atom()
        while peek() == "/":
            if text[pos:pos + 6] != "/sqrt2":
                fail("only /sqrt2 scaling is supported")
            pos += 6
            v = v / np.sqrt(2.0)
        return v

    def expr() -> np.ndarray:
        nonlocal pos
        neg = False
        if peek() == "-":
            pos += 1
            neg = True
        v = term()
        if neg:
            v = -v
        while peek() and peek() in "+-":
            op = text[pos]
            pos += 1
            w = term()
            if v.shape != w.shape:
                fail("mixed numbers of qubits")
            v = v + w if op == "+" else v - w
        return v

    v = expr()
    if pos != len(text):
        fail(f"trailing input {text[pos:]!r}")
    return v


# --------------------------------------------------------------------------
# Shared loading


class LazyEnv(Mapping):
    """Every definition's value by name, all evaluated on the first lookup
    of a value; the names are known without evaluating anything."""

    def __init__(self, names, evaluate):
        self._names = dict.fromkeys(names)
        self._evaluate = evaluate
        self._env = None

    def load(self) -> dict:
        if self._env is None:
            self._env = self._evaluate()
        return self._env

    def __getitem__(self, name):
        return self.load()[name]

    def __contains__(self, name):
        return name in self._names

    def __iter__(self):
        return iter(self._names)

    def __len__(self):
        return len(self._names)


def load_file(path: str, use_prelude: bool):
    """Parse, typecheck and translate a program file.  Returns the file's
    types, the types and terms of every definition in scope, and their
    values as a ``LazyEnv``."""
    if use_prelude:
        pre = load_prelude()
        gamma = dict(pre.types)
        defs = {d.name: d.term for d in pre.program.defs}
    else:
        gamma, defs = {}, {}
    name = "<stdin>" if path == "-" else path
    prog = parse_program(read_source(path, name), name)
    types, elaborated = elaborate_program(prog, gamma)
    gamma.update(types)
    check_translations(elaborated)

    def evaluate() -> dict:
        from .evaluator import eval_program
        return eval_program(elaborated, load_prelude().env if use_prelude
                            else None)

    env = LazyEnv([*defs, *(d.name for d in elaborated.defs)], evaluate)
    defs.update({d.name: d.term for d in elaborated.defs})
    return types, gamma, env, defs


def read_source(path: str, name: str) -> str:
    """The text of the file at `path`, or of stdin for ``-``.  A byte that
    is not UTF-8 is a parse error at its position in `name`."""
    if path == "-":
        # the bytes under stdin when it has them, so no locale decodes them
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise CliError(f"cannot read {path}: {e.strerror}", BADINPUT)
    if isinstance(data, str):
        return data
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        head = _newlines(data[:e.start].decode("utf-8"))
        line = head.count("\n") + 1
        col = len(head) - head.rfind("\n")
        raise ParseError(f"invalid UTF-8 byte 0x{data[e.start]:02x}",
                         Pos(line, col, name)) from None


def _newlines(text: str) -> str:
    """`text` with its line ends read as a text-mode file reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def check_translations(prog: Program) -> None:
    """Translate every arrow abstraction in `prog`, in definition order and
    preorder, and raise the first ``TranslationError``.  Translation is
    syntactic, so this finds every translation error that evaluating `prog`
    could raise, and also those in bodies that no evaluation reaches."""
    for d in prog.defs:
        todo = [d.term]
        while todo:
            node = todo.pop()
            if isinstance(node, ArrowAbs):
                translate_term(node)
            todo.extend(getattr(node, f) for f in reversed(node.child_fields))


def check_limits(fuel: int, tol: float = 0.0) -> None:
    """Refuse a negative ``--fuel`` and a ``--tolerance`` that is negative
    or not finite, before any file is read."""
    if fuel < 0:
        raise CliError(f"--fuel must be a non-negative integer, not {fuel}",
                       BADINPUT)
    if not 0.0 <= tol < float("inf"):
        raise CliError(f"--tolerance must be a finite non-negative number, "
                       f"not {tol!r}", BADINPUT)


def resolve_target(target: str, defs: dict):
    """A target is a definition name or an inline term, read from
    ``<arg>``."""
    return defs[target] if target in defs else parse_term(target, "<arg>")


def elaborated_target(target: str, gamma: dict, defs: dict):
    """A target's elaborated term: a definition's as `load_file` elaborated
    it, at its annotation, or an inline term typechecked against `gamma`."""
    if target in defs:
        return defs[target]
    return elaborate_term(gamma, resolve_target(target, defs))[1]


# --------------------------------------------------------------------------
# Subcommands


def show(args, as_json: Callable[[], dict],
         as_lines: Callable[[], list[str]]) -> None:
    """Print the object ``as_json()`` under ``--json``, and otherwise each
    line of ``as_lines()`` (an empty list prints nothing).  Only the form
    asked for is built, as a density's JSON is much larger than its text."""
    if args.json:
        import json
        print(json.dumps(as_json(), sort_keys=True))
    else:
        for line in as_lines():
            print(line)


def cmd_check(args) -> int:
    types, _, _, _ = load_file(args.file, not args.no_prelude)
    defs = [(n, type_str(t)) for n, t in types.items()]
    show(args, lambda: {"defs": [{"name": n, "type": t} for n, t in defs]},
         lambda: [f"{n} : {t}" for n, t in defs])
    return OK


def cmd_run(args) -> int:
    from .evaluator import (elem_type_of_value, EvalError, run_super, SuperV,
                            VecV)
    from .linalg import (dens_from_json, dens_to_json, dim, pure_density,
                         render_density, render_vector, vec_to_json)

    _, gamma, env, _ = load_file(args.file, not args.no_prelude)
    env = env.load()
    if args.name not in env:
        raise CliError(f"no definition named {args.name!r}", BADINPUT)
    value = env[args.name]

    if isinstance(value, SuperV):
        d = dim(value.in_type)
        if args.input is not None:
            rho = pure_density(parse_ket(args.input, d, args.name))
        elif args.density is not None:
            import json
            try:
                with open(args.density, "r", encoding="utf-8") as fh:
                    rho = dens_from_json(json.load(fh))
            except (OSError, ValueError, KeyError, TypeError) as e:
                raise CliError(f"cannot read density: {e}", BADINPUT)
        else:
            raise CliError("a superoperator needs --input KET or "
                           "--density FILE", BADINPUT)
        if rho.shape != (d, d):
            raise CliError(
                f"input has dimension {rho.shape[0]}, but {args.name} "
                f"expects {d}", BADINPUT)
        out = run_super(value, rho)
        show(args, lambda: {"def": args.name,
                            "type": type_str(gamma[args.name]),
                            "output": dens_to_json(out, value.out_type)},
             lambda: [render_density(out)])
        return OK

    if args.input is not None or args.density is not None:
        raise CliError(f"{args.name} is not a superoperator; it takes no "
                       f"input", BADINPUT)
    if isinstance(value, VecV):
        show(args, lambda: {"def": args.name,
                            "value": vec_to_json(value.amp, value.elem_type)},
             lambda: [render_vector(value.amp)])
        return OK
    try:
        elem_type_of_value(value)
    except EvalError:
        raise CliError(f"{args.name} evaluates to a function, or to a pair "
                       f"that holds a function, a vector or a superoperator; "
                       f"use it inside a program instead", BADINPUT) from None
    show(args, lambda: {"def": args.name, "value": repr(value)},
         lambda: [repr(value)])
    return OK


def cmd_normalize(args) -> int:
    from .rewriter import render_trace, Rewriter, trace_to_json

    check_limits(args.fuel)
    _, gamma, _, defs = load_file(args.file, not args.no_prelude)
    term = elaborated_target(args.target, gamma, defs)
    trace = Rewriter(defs, args.fuel).normalize(term)
    show(args, lambda: trace_to_json(trace), lambda: [render_trace(trace)])
    return OK if trace.complete else UNDECIDED


def cmd_prove(args) -> int:
    from .rewriter import (NotEqual, ProvedByNormalization,
                           ProvedSemantically, prove_equal, trace_to_json)

    check_limits(args.fuel, args.tolerance)
    _, gamma, env, defs = load_file(args.file, not args.no_prelude)
    verdict = prove_equal(resolve_target(args.lhs, defs),
                          resolve_target(args.rhs, defs),
                          types=gamma, env=env, defs=defs, fuel=args.fuel,
                          tol=args.tolerance)
    proved = isinstance(verdict, (ProvedByNormalization, ProvedSemantically))
    witness = verdict.witness if isinstance(verdict, NotEqual) else None
    if witness is not None:
        from .linalg import dens_to_json, render_density

    def as_json() -> dict:
        out = {"kind": verdict.kind, "detail": verdict.describe()}
        if proved:
            out["left_trace"] = trace_to_json(verdict.left_trace)
            out["right_trace"] = trace_to_json(verdict.right_trace)
        if witness is not None:
            out["witness"] = dens_to_json(witness)
        return out

    show(args, as_json, lambda: [verdict.describe()] if witness is None else
         [verdict.describe(), "witness density:", render_density(witness)])
    if proved:
        return OK
    return FAIL if isinstance(verdict, NotEqual) else UNDECIDED


def cmd_emit(args) -> int:
    _, gamma, _, defs = load_file(args.file, not args.no_prelude)
    term = elaborated_target(args.name, gamma, defs)
    if not isinstance(term, ArrowAbs):
        raise CliError(f"{args.name} is not an arrow abstraction", BADINPUT)
    pipe = translate_term(term)
    out = {"pipeline": sexpr(pipe), "in_type": type_str(pipe.in_type),
           "out_type": type_str(pipe.out_type)}
    if args.invert:
        out["inverse"] = pretty(inverse_translate(pipe))
    show(args, lambda: out,
         lambda: [out[k] for k in ("pipeline", "inverse") if k in out])
    return OK


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qarrow",
        description="Typed arrow-calculus language for quantum programs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--no-prelude", action="store_true",
                       help="do not load the standard prelude")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("check", help="parse and typecheck a program")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="evaluate a definition")
    p.add_argument("file")
    p.add_argument("name")
    state = p.add_mutually_exclusive_group()
    state.add_argument("--input", help="pure input state, e.g. "
                                       "'(|00>+|11>)/sqrt2'")
    state.add_argument("--density", help="JSON density file")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("normalize", help="rewrite to normal form")
    p.add_argument("file")
    p.add_argument("target", help="definition name or inline term")
    p.add_argument("--fuel", type=int, default=10000)
    common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("prove", help="decide equality of two terms")
    p.add_argument("file")
    p.add_argument("lhs", help="definition name or inline term")
    p.add_argument("rhs", help="definition name or inline term")
    p.add_argument("--fuel", type=int, default=10000)
    p.add_argument("--tolerance", type=float, default=1e-9)
    common(p)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("emit", help="print the combinator pipeline")
    p.add_argument("file")
    p.add_argument("name", help="definition name or inline term")
    p.add_argument("--invert", action="store_true",
                   help="also print the inverse translation")
    common(p)
    p.set_defaults(fn=cmd_emit)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QarrowError as e:
        print(e, file=sys.stderr)
        if isinstance(e, CliError):
            return e.code
        return BADINPUT if isinstance(e, ParseError) else FAIL
    except (RecursionError, MemoryError) as e:
        # a program nested too deeply for the tree walks, or whose densities
        # do not fit in memory: bad input, reported without a traceback
        kind = "MemoryError" if isinstance(e, MemoryError) else "RecursionError"
        detail = (str(e).splitlines() or [""])[0]
        print(f"{args.file}: {kind}: {detail}", file=sys.stderr)
        return BADINPUT


if __name__ == "__main__":
    sys.exit(main())
