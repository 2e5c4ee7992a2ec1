"""Seeded generators for well-typed random terms, supers, and law instances.

Everything here is deterministic in the seed: the same seed always produces
the same AST, so any failure reproduces exactly.  Generated programs are
well-typed by construction (each builder tracks the variables in scope and
their types) and reference only prelude names.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from qarrow.rewriter import Law
from qarrow.syntax import (App, ArrowAbs, BoolLit, BoolT, CApp, CLet, CUnit,
                           Eq, Fst, FunT, If, Lam, Let, Meas, MZero, Pair,
                           PPair, ProdT, PVar, Snd, SuperT, Term, TrL,
                           TypeExpr, Var, VecAdd, VecLet, VecScale, VecSub,
                           VecT, VecUnit)

B = BoolT()
BB = ProdT(B, B)

# Prelude superoperators usable as black boxes, with their signatures.
SUPER_SIGS: dict[str, tuple[TypeExpr, TypeExpr]] = {
    "QNot": (B, B),
    "Had": (B, B),
    "QMeas": (B, B),
    "Cnot": (BB, BB),
    "Cz": (BB, BB),
    "cV": (BB, BB),
    "cVdagger": (BB, BB),
    "bell": (BB, BB),
    "Alice": (BB, BB),
}

# Prelude classical / linear functions, with their (arg, result) types.
CLASSICAL_FNS: dict[str, tuple[TypeExpr, TypeExpr]] = {
    "not": (B, B),
    "hadamard": (B, VecT(B)),
    "hadamard_raw": (B, VecT(B)),
    "cnot": (BB, VecT(BB)),
    "cz": (BB, VecT(BB)),
    "cv": (BB, VecT(BB)),
    "cvdagger": (BB, VecT(BB)),
}


class Gen:
    """A deterministic AST builder driven by one `random.Random`."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.n = 0

    def fresh(self, stem: str = "v") -> str:
        self.n += 1
        return f"{stem}{self.n}"

    # ---- classical terms -------------------------------------------------

    def term_of(self, env: list[tuple[str, TypeExpr]], t: TypeExpr,
                depth: int) -> Term:
        """A classical term of type `t` using only variables from `env`."""
        rng = self.rng
        exact = [n for n, s in env if s == t]
        fst_cands = [n for n, s in env if isinstance(s, ProdT) and s.left == t]
        snd_cands = [n for n, s in env if isinstance(s, ProdT) and s.right == t]
        opts: list[str] = []
        if exact:
            opts += ["var"] * 3
        if depth > 0 and fst_cands:
            opts.append("fst")
        if depth > 0 and snd_cands:
            opts.append("snd")
        if t == B:
            opts.append("lit")
            if depth > 0:
                opts += ["not", "if", "eq"]
        if isinstance(t, ProdT):
            opts += ["pair", "pair"]
        choice = rng.choice(opts)
        if choice == "var":
            return Var(rng.choice(exact))
        if choice == "fst":
            return Fst(Var(rng.choice(fst_cands)))
        if choice == "snd":
            return Snd(Var(rng.choice(snd_cands)))
        if choice == "lit":
            return BoolLit(rng.random() < 0.5)
        if choice == "not":
            return App(Var("not"), self.term_of(env, B, depth - 1))
        if choice == "eq":
            return Eq(self.term_of(env, B, depth - 1),
                      self.term_of(env, B, depth - 1))
        if choice == "if":
            return If(self.term_of(env, B, depth - 1),
                      self.term_of(env, t, depth - 1),
                      self.term_of(env, t, depth - 1))
        return Pair(self.term_of(env, t.left, depth - 1),
                    self.term_of(env, t.right, depth - 1))

    # ---- commands ----------------------------------------------------------

    def command(self, env: list[tuple[str, TypeExpr]], out_t: TypeExpr,
                depth: int):
        """A command producing `out_t` with the command context `env`."""
        rng = self.rng
        opts = ["unit"]
        capps = [n for n, (_, o) in SUPER_SIGS.items() if o == out_t]
        if capps:
            opts += ["capp", "capp"]
        if isinstance(out_t, ProdT) and out_t.left == out_t.right:
            opts.append("meas")
        opts.append("trl")
        if depth > 0:
            opts += ["let"] * 3
        choice = rng.choice(opts)
        if choice == "unit":
            return CUnit(self.term_of(env, out_t, 2))
        if choice == "capp":
            name = rng.choice(capps)
            in_t, _ = SUPER_SIGS[name]
            return CApp(Var(name), self.term_of(env, in_t, 2))
        if choice == "meas":
            return Meas(self.term_of(env, out_t.left, 2))
        if choice == "trl":
            side = rng.choice([B, BB])
            return TrL(self.term_of(env, ProdT(side, out_t), 2))
        mid = rng.choice([B, B, BB])
        bound = self.command(env, mid, depth - 1)
        if isinstance(mid, ProdT) and rng.random() < 0.3:
            a, b = self.fresh("p"), self.fresh("q")
            pat = PPair(PVar(a), PVar(b))
            env2 = env + [(a, mid.left), (b, mid.right)]
        else:
            y = self.fresh("y")
            pat = PVar(y)
            env2 = env + [(y, mid)]
        return CLet(pat, bound, self.command(env2, out_t, depth - 1))

    # ---- vector terms ------------------------------------------------------

    def vec_term(self, env: list[tuple[str, TypeExpr]], depth: int) -> Term:
        """A term of type Vec Bool."""
        rng = self.rng
        opts = ["had", "unit"]
        if depth > 0:
            opts += ["add", "sub", "scale", "bind"]
        choice = rng.choice(opts)
        if choice == "had":
            return App(Var("hadamard"), self.term_of(env, B, 1))
        if choice == "unit":
            return VecUnit(self.term_of(env, B, 1))
        if choice == "add":
            return VecAdd(self.vec_term(env, depth - 1),
                          self.vec_term(env, depth - 1))
        if choice == "sub":
            return VecSub(self.vec_term(env, depth - 1),
                          self.vec_term(env, depth - 1))
        if choice == "scale":
            s = complex(round(rng.uniform(-1, 1), 3),
                        round(rng.uniform(-1, 1), 3))
            return VecScale(s, self.vec_term(env, depth - 1))
        v = self.fresh("u")
        return VecLet(PVar(v), self.vec_term(env, depth - 1),
                      self.vec_term(env + [(v, B)], depth - 1))

    def vec_using(self, env: list[tuple[str, TypeExpr]], name: str) -> Term:
        """A Vec Bool term guaranteed to mention the Bool variable `name`."""
        if self.rng.random() < 0.5:
            return App(Var("hadamard"), Var(name))
        return VecUnit(App(Var("not"), Var(name)))


def random_super(seed: int, in_t: Optional[TypeExpr] = None,
                 out_t: Optional[TypeExpr] = None,
                 depth: int = 2) -> tuple[ArrowAbs, SuperT]:
    """A closed arrow abstraction over prelude names, with its type."""
    g = Gen(seed)
    in_t = in_t if in_t is not None else g.rng.choice([B, BB])
    out_t = out_t if out_t is not None else g.rng.choice([B, BB])
    x = g.fresh("x")
    cmd = g.command([(x, in_t)], out_t, depth)
    return ArrowAbs(PVar(x), cmd), SuperT(in_t, out_t)


# The README's quick-start program.
DEMO_SRC = """\
dneg : Super Bool Bool
dneg = \\@x. let y = (\\@z. [not z]) @ x in (\\@w. [not w]) @ y

mix : Super Bool Bool
mix = \\@q. let h = Had @ q in QMeas @ h
"""


def ghz_source(n: int, style: str = "proj") -> str:
    """GHZ-n as H on qubit 1 then a CNOT chain, defined as ``ghz``.
    ``proj`` binds each Cnot output whole and takes it apart with fst/snd
    (the prelude's style); ``tuple`` binds it with a pair pattern."""
    qs = [f"q{i}" for i in range(1, n + 1)]
    lines, prev, outs = ["let h = Had @ q1 in"], "h", []
    for i in range(1, n):
        if style == "proj":
            lines.append(f"let p{i} = Cnot @ ({prev}, q{i + 1}) in")
            prev = f"snd p{i}"
            outs.append(f"fst p{i}")
        else:
            lines.append(f"let (a{i}, b{i}) = Cnot @ ({prev}, q{i + 1}) in")
            prev = f"b{i}"
            outs.append(f"a{i}")
    outs.append(prev)

    def nest(xs):
        return xs[0] if len(xs) == 1 else f"({xs[0]}, {nest(xs[1:])})"

    t = nest(["Bool"] * n)
    body = "\n  ".join(lines + [f"[{nest(outs)}]"])
    return f"ghz : Super {t} {t}\nghz = \\@{nest(qs)}.\n  {body}\n"


# ---- law instances --------------------------------------------------------


@dataclass(frozen=True)
class LawInstance:
    family: str
    term: Term
    path: tuple[int, ...]
    law: Law
    direction: str
    # Expected type for elaboration (None = infer).
    type_: Optional[TypeExpr] = field(default=None)


def _pick_t(rng) -> TypeExpr:
    return rng.choice([B, B, BB])


def _beta_arrow(g: Gen) -> LawInstance:
    rng = g.rng
    in_t, a_t, out_t = _pick_t(rng), _pick_t(rng), _pick_t(rng)
    x, z = g.fresh("x"), g.fresh("z")
    inner = ArrowAbs(PVar(z), g.command([(z, a_t)], out_t, 1))
    m = g.term_of([(x, in_t)], a_t, 2)
    term = ArrowAbs(PVar(x), CApp(inner, m))
    return LawInstance("beta_arrow", term, (0,), Law.BETA_ARROW, "L2R",
                       SuperT(in_t, out_t))


def _left_unit(g: Gen) -> LawInstance:
    rng = g.rng
    in_t, mid, out_t = _pick_t(rng), _pick_t(rng), _pick_t(rng)
    x, y = g.fresh("x"), g.fresh("y")
    m = g.term_of([(x, in_t)], mid, 2)
    body = g.command([(x, in_t), (y, mid)], out_t, 1)
    term = ArrowAbs(PVar(x), CLet(PVar(y), CUnit(m), body))
    return LawInstance("left_unit", term, (0,), Law.LEFT_UNIT, "L2R",
                       SuperT(in_t, out_t))


def _right_unit(g: Gen) -> LawInstance:
    rng = g.rng
    in_t, out_t = _pick_t(rng), _pick_t(rng)
    x, y = g.fresh("x"), g.fresh("y")
    bound = g.command([(x, in_t)], out_t, 1)
    term = ArrowAbs(PVar(x), CLet(PVar(y), bound, CUnit(Var(y))))
    return LawInstance("right_unit", term, (0,), Law.RIGHT_UNIT, "L2R",
                       SuperT(in_t, out_t))


def _assoc(g: Gen) -> LawInstance:
    rng = g.rng
    in_t, t1, t2, out_t = (_pick_t(rng) for _ in range(4))
    x, y, z = g.fresh("x"), g.fresh("y"), g.fresh("z")
    p = g.command([(x, in_t)], t1, 1)
    q = g.command([(x, in_t), (z, t1)], t2, 1)
    r = g.command([(x, in_t), (y, t2)], out_t, 1)   # never mentions z
    if rng.random() < 0.5:
        cmd = CLet(PVar(y), CLet(PVar(z), p, q), r)
        direction = "L2R"
    else:
        cmd = CLet(PVar(z), p, CLet(PVar(y), q, r))
        direction = "R2L"
    return LawInstance("assoc", ArrowAbs(PVar(x), cmd), (0,), Law.ASSOC,
                       direction, SuperT(in_t, out_t))


def _eta_arrow(g: Gen) -> LawInstance:
    name = g.rng.choice(sorted(SUPER_SIGS))
    in_t, out_t = SUPER_SIGS[name]
    x = g.fresh("x")
    term = ArrowAbs(PVar(x), CApp(Var(name), Var(x)))
    return LawInstance("eta_arrow", term, (), Law.ETA_ARROW, "L2R",
                       SuperT(in_t, out_t))


def _fun(g: Gen) -> LawInstance:
    rng = g.rng
    if rng.random() < 0.3:
        name = rng.choice(sorted(CLASSICAL_FNS))
        arg_t, res_t = CLASSICAL_FNS[name]
        v = g.fresh("v")
        term = Lam(PVar(v), App(Var(name), Var(v)))
        return LawInstance("fun", term, (), Law.ETA_FUN, "L2R",
                           FunT(arg_t, res_t))
    t1, t2 = _pick_t(rng), _pick_t(rng)
    if isinstance(t1, ProdT) and rng.random() < 0.4:
        a, b = g.fresh("a"), g.fresh("b")
        pat = PPair(PVar(a), PVar(b))
        body = g.term_of([(a, t1.left), (b, t1.right)], t2, 2)
    else:
        v = g.fresh("v")
        pat = PVar(v)
        body = g.term_of([(v, t1)], t2, 2)
    term = App(Lam(pat, body), g.term_of([], t1, 2))
    return LawInstance("fun", term, (), Law.BETA_FUN, "L2R", t2)


def _let_delta(g: Gen) -> LawInstance:
    rng = g.rng
    if rng.random() < 0.3:
        name = rng.choice(sorted(CLASSICAL_FNS))
        arg_t, res_t = CLASSICAL_FNS[name]
        return LawInstance("let_delta", Var(name), (), Law.DELTA, "L2R",
                           FunT(arg_t, res_t))
    t1, t2 = _pick_t(rng), _pick_t(rng)
    m = g.term_of([], t1, 2)
    if isinstance(t1, ProdT) and rng.random() < 0.4:
        a, b = g.fresh("a"), g.fresh("b")
        pat = PPair(PVar(a), PVar(b))
        body = g.term_of([(a, t1.left), (b, t1.right)], t2, 2)
    else:
        v = g.fresh("v")
        pat = PVar(v)
        body = g.term_of([(v, t1)], t2, 2)
    return LawInstance("let_delta", Let(pat, m, body), (), Law.LET_SUBST,
                       "L2R", t2)


def _pair(g: Gen) -> LawInstance:
    rng = g.rng
    t1, t2 = _pick_t(rng), _pick_t(rng)
    which = rng.choice(["b1", "b2", "eta"])
    if which == "eta":
        p = g.term_of([], ProdT(t1, t2), 2)
        return LawInstance("pair", Pair(Fst(p), Snd(p)), (), Law.ETA_PAIR,
                           "L2R", ProdT(t1, t2))
    pr = Pair(g.term_of([], t1, 2), g.term_of([], t2, 2))
    if which == "b1":
        return LawInstance("pair", Fst(pr), (), Law.BETA_PAIR1, "L2R", t1)
    return LawInstance("pair", Snd(pr), (), Law.BETA_PAIR2, "L2R", t2)


def _cond(g: Gen) -> LawInstance:
    rng = g.rng
    t = _pick_t(rng)
    m, n = g.term_of([], t, 2), g.term_of([], t, 2)
    which = rng.choice(["t", "f", "dl", "dr", "eta"])
    if which == "t":
        return LawInstance("cond", If(BoolLit(True), m, n), (), Law.IF_TRUE,
                           "L2R", t)
    if which == "f":
        return LawInstance("cond", If(BoolLit(False), m, n), (), Law.IF_FALSE,
                           "L2R", t)
    if which == "eta":
        c = g.term_of([], B, 2)
        return LawInstance("cond", If(c, BoolLit(True), BoolLit(False)), (),
                           Law.IF_ETA, "L2R", B)
    c, a, b = (g.term_of([], B, 1) for _ in range(3))
    if which == "dl":
        return LawInstance("cond", If(If(c, a, b), m, n), (), Law.IF_DISTRIB,
                           "L2R", t)
    return LawInstance("cond", If(c, If(a, m, n), If(b, m, n)), (),
                       Law.IF_DISTRIB, "R2L", t)


def _eq(g: Gen) -> LawInstance:
    rng = g.rng
    which = rng.choice(["lit", "tr", "tl"])
    if which == "lit":
        term = Eq(BoolLit(rng.random() < 0.5), BoolLit(rng.random() < 0.5))
        return LawInstance("eq", term, (), Law.EQ_LIT, "L2R", B)
    m = g.term_of([], B, 2)
    term = Eq(m, BoolLit(True)) if which == "tr" else Eq(BoolLit(True), m)
    return LawInstance("eq", term, (), Law.EQ_TRUE, "L2R", B)


def _bind(g: Gen) -> LawInstance:
    rng = g.rng
    which = rng.choice(["left", "right", "al", "ar"])
    if which == "left":
        v = g.fresh("v")
        term = VecLet(PVar(v), VecUnit(g.term_of([], B, 2)),
                      g.vec_term([(v, B)], 1))
        return LawInstance("bind", term, (), Law.BIND_LEFT, "L2R", VecT(B))
    if which == "right":
        v = g.fresh("v")
        term = VecLet(PVar(v), g.vec_term([], 1), VecUnit(Var(v)))
        return LawInstance("bind", term, (), Law.BIND_RIGHT, "L2R", VecT(B))
    y, z = g.fresh("y"), g.fresh("z")
    p = g.vec_term([], 1)
    q = g.vec_term([(z, B)], 1)
    r = g.vec_term([(y, B)], 1)   # never mentions z
    if which == "al":
        term = VecLet(PVar(y), VecLet(PVar(z), p, q), r)
        return LawInstance("bind", term, (), Law.BIND_ASSOC, "L2R", VecT(B))
    term = VecLet(PVar(z), p, VecLet(PVar(y), q, r))
    return LawInstance("bind", term, (), Law.BIND_ASSOC, "R2L", VecT(B))


def _zero(g: Gen) -> LawInstance:
    rng = g.rng
    which = rng.choice(["zb", "bz", "zp", "pz"])
    if which == "zb":
        v = g.fresh("v")
        term = VecLet(PVar(v), MZero(), g.vec_using([], v))
        return LawInstance("zero", term, (), Law.ZERO_BIND, "L2R", VecT(B))
    if which == "bz":
        v = g.fresh("v")
        term = VecLet(PVar(v), g.vec_term([], 1), MZero())
        return LawInstance("zero", term, (), Law.BIND_ZERO, "L2R", VecT(B))
    p = g.vec_term([], 1)
    if which == "zp":
        return LawInstance("zero", VecAdd(MZero(), p), (), Law.ZERO_PLUS,
                           "L2R", VecT(B))
    return LawInstance("zero", VecAdd(p, MZero()), (), Law.PLUS_ZERO,
                       "L2R", VecT(B))


def _plus(g: Gen) -> LawInstance:
    rng = g.rng
    which = rng.choice(["al", "ar", "bl", "br"])
    p, q = g.vec_term([], 1), g.vec_term([], 1)
    if which == "al":
        term = VecAdd(VecAdd(p, q), g.vec_term([], 1))
        return LawInstance("plus", term, (), Law.PLUS_ASSOC, "L2R", VecT(B))
    if which == "ar":
        term = VecAdd(p, VecAdd(q, g.vec_term([], 1)))
        return LawInstance("plus", term, (), Law.PLUS_ASSOC, "R2L", VecT(B))
    v = g.fresh("v")
    r = g.vec_using([], v)
    if which == "bl":
        term = VecLet(PVar(v), VecAdd(p, q), r)
        return LawInstance("plus", term, (), Law.BIND_PLUS, "L2R", VecT(B))
    term = VecAdd(VecLet(PVar(v), p, r), VecLet(PVar(v), q, r))
    return LawInstance("plus", term, (), Law.BIND_PLUS, "R2L", VecT(B))


FAMILIES = {
    "beta_arrow": _beta_arrow,
    "left_unit": _left_unit,
    "right_unit": _right_unit,
    "assoc": _assoc,
    "eta_arrow": _eta_arrow,
    "fun": _fun,
    "let_delta": _let_delta,
    "pair": _pair,
    "cond": _cond,
    "eq": _eq,
    "bind": _bind,
    "zero": _zero,
    "plus": _plus,
}


def law_instance(seed: int, family: str) -> LawInstance:
    return FAMILIES[family](Gen(seed))
