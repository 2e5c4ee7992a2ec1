"""Seeded inputs of the benchmark and the answers their outputs must match.

Every builder here is deterministic in its seed.  Programs are produced as
qarrow source text; the random ones come from ``tests/randprog.py`` and are
printed with ``qarrow.syntax.pretty``.  Expected results are computed here
with plain numpy (analytic densities, permutation matrices) or with the
naive ``reference_super`` semantics, never with the evaluator under test.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

# The naive oracle's CLet step builds a D**8-cell array for a context of
# dimension D; above 4 that is hundreds of MiB per program, so random
# circuits are drawn only among programs whose contexts stay at D <= 4.
MAX_REFERENCE_CONTEXT = 4

N_RANDOM_CIRCUITS = 6
# Per-seed cost varies with the draw (a few law instances cost 50x the
# typical one); at these sizes the seed-to-seed spread of a pass is about
# 0.06 (prover) and 0.05 (frontend) of its median, against 0.15 and 0.10
# at 40 and 60.
LAW_SEEDS = 120                 # law instances per family in the prover
N_RANDOM_FRONTEND = 180

# circuits rows, in the order ``circuits`` builds them
CIRCUIT_SLOTS = (("toffoli", "teleport", "bell", "ghz2_proj", "ghz2_tuple",
                  "ghz3_proj", "ghz3_tuple")
                 + tuple(f"rand{k}" for k in range(N_RANDOM_CIRCUITS)))

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def reference_super():
    """The naive semantics: in ``qarrow.evaluator`` today, or in a test
    module once it moves there."""
    from qarrow import evaluator
    if hasattr(evaluator, "reference_super"):
        return evaluator.reference_super
    for path in sorted((ROOT / "tests").glob("*.py")):
        if "def reference_super" in path.read_text(encoding="utf-8"):
            return importlib.import_module(path.stem).reference_super
    raise RuntimeError("no reference_super found in qarrow.evaluator or tests/")


# --------------------------------------------------------------------------
# GHZ-n in the two styles


def nested_bool_type(n: int) -> str:
    """``(Bool,(Bool,...))`` with n components; ``Bool`` for n = 1."""
    return "Bool" if n == 1 else f"(Bool,{nested_bool_type(n - 1)})"


def qubits_type(n: int):
    """``Super T T`` for T = (Bool,(Bool,...)) with n components, the type
    of GHZ-n and (n = 3) of toffoli, built without the parser."""
    from qarrow.syntax import BoolT, ProdT, SuperT
    t = BoolT()
    for _ in range(n - 1):
        t = ProdT(BoolT(), t)
    return SuperT(t, t)


def _nested(items: list[str]) -> str:
    return items[0] if len(items) == 1 else f"({items[0]}, {_nested(items[1:])})"


def ghz_source(name: str, n: int, style: str) -> str:
    """GHZ-n as H on qubit 1 then a CNOT chain.  ``proj`` binds each CNOT
    output whole and projects (the prelude's style); ``tuple`` binds it
    with a pair pattern."""
    qs = [f"q{i}" for i in range(1, n + 1)]
    lines = ["let h = Had @ q1 in"]
    if style == "proj":
        prev = "h"
        for i in range(1, n):
            lines.append(f"let p{i} = Cnot @ ({prev}, q{i + 1}) in")
            prev = f"snd p{i}"
        outs = [f"fst p{i}" for i in range(1, n)] + [f"snd p{n - 1}"]
    elif style == "tuple":
        prev = "h"
        for i in range(1, n):
            lines.append(f"let (a{i}, b{i}) = Cnot @ ({prev}, q{i + 1}) in")
            prev = f"b{i}"
        outs = [f"a{i}" for i in range(1, n)] + [f"b{n - 1}"]
    else:
        raise ValueError(style)
    lines.append(f"[{_nested(outs)}]")
    t = nested_bool_type(n)
    body = "\n  ".join(lines)
    return f"{name} : Super {t} {t}\n{name} = \\@{_nested(qs)}.\n  {body}\n"


def ghz_unitary(n: int) -> np.ndarray:
    """H on qubit 1, then CNOT(k -> k+1) for k = 1..n-1; qubit 1 is the most
    significant bit, as in ket strings."""
    u = np.kron(H, np.eye(2 ** (n - 1)))
    for k in range(n - 1):
        u = cnot_perm(n, k, k + 1) @ u
    return u


def cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    d = 2 ** n
    p = np.zeros((d, d))
    for i in range(d):
        j = i ^ (1 << (n - 1 - target)) if i >> (n - 1 - control) & 1 else i
        p[j, i] = 1
    return p


def toffoli_perm() -> np.ndarray:
    p = np.eye(8)
    p[[6, 7]] = p[[7, 6]]
    return p


def basis_density(d: int, i: int) -> np.ndarray:
    rho = np.zeros((d, d), dtype=complex)
    rho[i, i] = 1
    return rho


def random_density(rng: random.Random, d: int) -> np.ndarray:
    m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
                  for _ in range(d)])
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


# --------------------------------------------------------------------------
# Prelude programs under new names, and the prover's fixed pairs

TOFFOLI = """toffoli_c : Super (Bool,(Bool,Bool)) (Bool,(Bool,Bool))
toffoli_c = \\@(x,(y,z)).
  let p = cV @ (y, z) in
  let q = Cnot @ (x, fst p) in
  let r = cVdagger @ (snd q, snd p) in
  let s = Cnot @ (fst q, fst r) in
  let t = cV @ (fst s, snd r) in
  [(fst t, (snd s, snd t))]
"""

BELL = """bell_c : Super (Bool,Bool) (Bool,Bool)
bell_c = \\@(x,y). let h = Had @ x in Cnot @ (h, y)
"""

TELEPORT = """teleport_c : Super (Bool,(Bool,Bool)) Bool
teleport_c = \\@(m,ab).
  let e = bell @ ab in
  let zx = Alice @ (m, fst e) in
  Bob @ (snd e, zx)
"""

TOFFOLI_TABLE = ("\\@(x,(y,z)). [if x then (if y then (x, (y, not z)) "
                 "else (x, (y, z))) else (x, (y, z))]")

# (lhs, rhs, known answer); the names resolve in the prelude
FIXED_PROOFS = [
    ("toffoli", TOFFOLI_TABLE, "equal"),
    ("teleport", "\\@(m,ab). trL (ab, m)", "not-equal"),
    ("Had", "QNot", "not-equal"),
]


def context_dim(cmd, d: int) -> int:
    """Largest context dimension the naive oracle meets in an elaborated
    command whose input context has dimension d."""
    from qarrow.linalg import dim
    from qarrow.syntax import CLet
    if isinstance(cmd, CLet):
        return max(d, context_dim(cmd.bound, d),
                   context_dim(cmd.body, d * dim(cmd.bound_type)))
    return d


# --------------------------------------------------------------------------
# Workload builders


@dataclass
class Circuit:
    """One program compiled from source and run on fixed input states."""
    slot: str                   # stable row name across seeds
    name: str                   # definition name in the source
    source: str
    inputs: list                # densities
    expected: list              # output densities


def circuits(seed: int, prelude) -> list[Circuit]:
    import randprog
    from qarrow.linalg import dim
    from qarrow.syntax import pretty, type_str
    from qarrow.typecheck import elaborate_term

    rng = random.Random(seed)
    out: list[Circuit] = []

    tof = toffoli_perm()
    ins = [basis_density(8, rng.randrange(8)) for _ in range(3)] + [basis_density(8, 6)]
    out.append(Circuit("toffoli", "toffoli_c", TOFFOLI, ins,
                       [tof @ r @ tof.T for r in ins]))

    fresh = basis_density(4, 0)
    ins = [np.kron(random_density(rng, 2), fresh) for _ in range(2)]
    out.append(Circuit("teleport", "teleport_c", TELEPORT, ins,
                       [np.trace(r.reshape(2, 4, 2, 4), axis1=1, axis2=3) for r in ins]))

    u = ghz_unitary(2)
    ins = [basis_density(4, rng.randrange(4)) for _ in range(2)]
    out.append(Circuit("bell", "bell_c", BELL, ins,
                       [u @ r @ u.conj().T for r in ins]))

    for n in (2, 3):
        u = ghz_unitary(n)
        ins = [basis_density(2 ** n, 0), basis_density(2 ** n, rng.randrange(2 ** n))]
        exp = [u @ r @ u.conj().T for r in ins]
        for style in ("proj", "tuple"):
            name = f"ghz{n}_{style}"
            out.append(Circuit(name, name, ghz_source(name, n, style), ins, exp))

    ref = reference_super()
    k, i = 0, 0
    while k < N_RANDOM_CIRCUITS:
        term, ty = randprog.random_super(seed * 1000 + i, depth=4)
        i += 1
        _, el = elaborate_term(prelude.types, term, ty)
        if context_dim(el.cmd, dim(ty.arg)) > MAX_REFERENCE_CONTEXT:
            continue
        name = f"rand{k}"
        src = f"{name} : {type_str(ty)}\n{name} = {pretty(term)}\n"
        action = ref(el, dict(prelude.env)).action
        d_in, d_out = dim(ty.arg), dim(ty.res)
        ins = [random_density(rng, d_in) for _ in range(2)]
        exp = [(action @ r.reshape(-1)).reshape(d_out, d_out) for r in ins]
        out.append(Circuit(name, name, src, ins, exp))
        k += 1
    return out


@dataclass
class Proof:
    label: str
    lhs: object                 # Term
    rhs: object                 # Term
    answer: str                 # "equal" or "not-equal"


def proofs(seed: int, prelude, defs: dict) -> list[Proof]:
    """Law-instance before/after pairs (known equal), then the fixed pairs."""
    import randprog
    from qarrow.parser import parse_term
    from qarrow.rewriter import apply_law_at
    from qarrow.typecheck import elaborate_term

    out: list[Proof] = []
    for family in sorted(randprog.FAMILIES):
        for j in range(LAW_SEEDS):
            inst = randprog.law_instance(seed * 1000 + j, family)
            _, before = elaborate_term(prelude.types, inst.term, inst.type_)
            after = apply_law_at(before, inst.path, inst.law, inst.direction,
                                 defs=defs)
            out.append(Proof(f"{family}{j}", before, after, "equal"))
    for lhs, rhs, answer in FIXED_PROOFS:
        out.append(Proof(f"{lhs}~{rhs[:12]}", parse_term(lhs), parse_term(rhs), answer))
    return out


@dataclass
class FrontDef:
    name: str
    type_: object               # SuperT the generator assigned


def frontend(seed: int) -> tuple[str, list[FrontDef]]:
    """One program: GHZ-2..12 in both styles plus random depth-4 supers."""
    import randprog
    from qarrow.syntax import pretty, type_str

    parts: list[str] = []
    defs: list[FrontDef] = []
    for n in range(2, 13):
        for style in ("proj", "tuple"):
            name = f"ghz{n}_{style}"
            parts.append(ghz_source(name, n, style))
            defs.append(FrontDef(name, qubits_type(n)))
    for k in range(N_RANDOM_FRONTEND):
        term, ty = randprog.random_super(seed * 1000 + k, depth=4)
        name = f"rand{k}"
        parts.append(f"{name} : {type_str(ty)}\n{name} = {pretty(term)}\n")
        defs.append(FrontDef(name, ty))
    return "\n".join(parts), defs
