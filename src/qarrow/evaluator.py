"""Call-by-value evaluator.

Ordinary terms evaluate to booleans, pairs, closures or amplitude vectors.
A boolean is a Python ``bool`` and a pair a 2-tuple, also when it holds a
closure or a vector, so a value of a classical type is its own basis
element (see ``linalg``).  An arrow abstraction evaluates to a
*superoperator value*, ``SuperV``: it is translated to the combinator
pipeline at once (so translation errors show when the definition is
evaluated), and the value holds that pipeline with the environment it was
evaluated in.  Nothing is multiplied out then.

``run_super`` pushes ``vec(ρ)`` through the pipeline as a batch of one
column, with each combinator implemented by index arithmetic on the batch
(a scatter by its basis map for ``arr``, einsum contractions for lifted
linear maps, and for ``arr keep &&& bound`` a scatter into the pairs of
kept context and bound result, contracted with the bound command's own
matrix) rather than by building the large intermediate superoperator
matrices.  This evaluator is the only arrow instance in the package, and it
runs exactly the nodes that translation emits: a ``&&&`` always has a pure
left leg, and there is no ``first`` or ``second`` node.  The full
matrix is a derived operation: ``SuperV.val`` builds it on first use by
pushing the identity columns through the same pipeline, block by block,
and keeps it; from then on ``run_super`` multiplies by it.  The prover and
the tests read ``val``.

The basis map of an ``arr`` node and the matrix of a ``lift`` node are
computed over *wires*: each context variable is a tree of 0/1 arrays over
the context basis, one per qubit, read off the binary digits of the basis
index.  Variables, pairs, ``fst``/``snd`` and literals are index arithmetic
on these arrays and evaluate nothing.  Any other subterm (an ``if``, an
application, ``==``, a ``let``, a global name, a lifted body) is evaluated
with ``eval_term`` once per basis element of only the context variables it
reads, and its results are gathered through those variables' joint index.
A subterm that reads every wire is evaluated once per context element.  A
pair holding a closure or a vector has no wires, so a projection of it is
evaluated whole in the same way.

``compare_values`` is the prover's semantic stage: it compares two values
of one type, and for superoperators that differ searches a fixed family of
pure states for one that separates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .classic import (Arr, ClassicExpr, Compose, FanoutC, LiftLin, MeasC,
                      NamedSuper, translate_term, TrLC)
from .linalg import (apply_super, basis, check_density, dim, elem_index,
                     pure_density, SuperVal, vec_return, vec_zero)
from .syntax import (App, ArrowAbs, BoolLit, BoolT, Eq, free_vars, Fst, FunT,
                     If, is_classical, Lam, Let, MZero, Pair, Pattern, PPair,
                     ProdT, Program, PVar, QarrowError, Snd, Term, TypeExpr,
                     Var, VecAdd, VecLet, VecScale, VecSub, VecT, VecUnit)

# memory budget (complex cells) for one column block during materialization
_BUDGET = 4_000_000


class EvalError(QarrowError):
    pass


# --------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class ClosureV:
    pat: Pattern
    body: Term
    env: dict

    def __repr__(self):
        return "<closure>"


@dataclass(frozen=True)
class VecV:
    elem_type: TypeExpr
    amp: np.ndarray

    def __repr__(self):
        return f"<vec dim {self.amp.shape[0]}>"


@dataclass(frozen=True, eq=False)
class SuperV:
    """A superoperator: the pipeline of an arrow abstraction and the
    environment it was evaluated in.  ``val``, its matrix, is built on
    first use and kept."""
    pipe: ClassicExpr
    env: dict

    @property
    def in_type(self) -> TypeExpr:
        return self.pipe.in_type

    @property
    def out_type(self) -> TypeExpr:
        return self.pipe.out_type

    @cached_property
    def val(self) -> SuperVal:
        return materialize_super(self.pipe, self.env)

    def built(self) -> bool:
        return "val" in self.__dict__      # where cached_property keeps it

    def __repr__(self):
        di, do = dim(self.in_type), dim(self.out_type)
        return f"<super {di}x{di} -> {do}x{do}>"


Value = object   # a bool, a 2-tuple, a ClosureV, a VecV or a SuperV


def elem_type_of_value(v: Value) -> TypeExpr:
    """The type of a basis value: a bool or a pair of basis values."""
    if isinstance(v, bool):
        return BoolT()
    if isinstance(v, tuple):
        return ProdT(elem_type_of_value(v[0]), elem_type_of_value(v[1]))
    raise EvalError(f"not a basis value: {v!r}")


def bind_pattern_value(pat: Pattern, v: Value, env: dict) -> dict:
    """`env`, with the variables of `pat` bound to the parts of `v`: a value,
    or the wires of a context tuple."""
    if isinstance(pat, PPair):
        if not isinstance(v, tuple):
            raise EvalError(f"pattern expects a pair, got {v!r}")
        bind_pattern_value(pat.left, v[0], env)
        bind_pattern_value(pat.right, v[1], env)
    elif isinstance(pat, PVar):
        env[pat.name] = v
    else:
        raise EvalError(f"unknown pattern {pat!r}")
    return env


def apply_closure(f: Value, arg: Value) -> Value:
    if not isinstance(f, ClosureV):
        raise EvalError(f"cannot apply non-function {f!r}")
    env = dict(f.env)
    bind_pattern_value(f.pat, arg, env)
    return eval_term(f.body, env)


# --------------------------------------------------------------------------
# Term evaluation


def eval_term(t: Term, env: dict) -> Value:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name}") from None

    if isinstance(t, BoolLit):
        return t.value

    if isinstance(t, Pair):
        return (eval_term(t.left, env), eval_term(t.right, env))

    if isinstance(t, (Fst, Snd)):
        snd = type(t) is Snd
        v = eval_term(t.arg, env)
        if not isinstance(v, tuple):
            raise EvalError(f"{'snd' if snd else 'fst'} of a non-pair")
        return v[snd]

    if isinstance(t, Eq):
        a, b = eval_term(t.left, env), eval_term(t.right, env)
        elem_type_of_value(a)           # refuses a value that is not a basis
        elem_type_of_value(b)           # value, such as a closure
        return a == b

    if isinstance(t, Lam):
        return ClosureV(t.pat, t.body, env)

    if isinstance(t, App):
        return apply_closure(eval_term(t.fn, env), eval_term(t.arg, env))

    if isinstance(t, Let):
        env2 = dict(env)
        bind_pattern_value(t.pat, eval_term(t.bound, env), env2)
        return eval_term(t.body, env2)

    if isinstance(t, VecLet):
        bound = eval_term(t.bound, env)
        if not isinstance(bound, VecV):
            raise EvalError("vector bind of a non-vector")
        if t.type_ is None or not isinstance(t.type_, VecT):
            raise EvalError("vector bind lacks its result type; "
                            "typecheck before evaluating")
        out_t = t.type_.elem
        out = vec_zero(out_t)
        for i, e in enumerate(basis(bound.elem_type)):
            a = bound.amp[i]
            if a == 0:
                continue
            env2 = dict(env)
            bind_pattern_value(t.pat, e, env2)
            piece = eval_term(t.body, env2)
            if not isinstance(piece, VecV):
                raise EvalError("vector bind body must produce a vector")
            out += a * piece.amp
        return VecV(out_t, out)

    if isinstance(t, If):
        c = eval_term(t.cond, env)
        if not isinstance(c, bool):
            raise EvalError("if condition must be a boolean")
        return eval_term(t.then if c else t.orelse, env)

    if isinstance(t, VecUnit):
        v = eval_term(t.content, env)
        et = elem_type_of_value(v)
        return VecV(et, vec_return(et, v))

    if isinstance(t, (VecAdd, VecSub)):
        a = eval_term(t.left, env)
        b = eval_term(t.right, env)
        if not (isinstance(a, VecV) and isinstance(b, VecV)):
            raise EvalError("vector sum of non-vectors")
        if a.amp.shape != b.amp.shape:
            raise EvalError("vector sum dimension mismatch")
        amp = a.amp + b.amp if isinstance(t, VecAdd) else a.amp - b.amp
        return VecV(a.elem_type, amp)

    if isinstance(t, VecScale):
        a = eval_term(t.arg, env)
        if not isinstance(a, VecV):
            raise EvalError("scaling a non-vector")
        return VecV(a.elem_type, t.scalar * a.amp)

    if isinstance(t, MZero):
        if t.type_ is None or not isinstance(t.type_, VecT):
            raise EvalError("mzero lacks its type; typecheck before evaluating")
        return VecV(t.type_.elem, vec_zero(t.type_.elem))

    if isinstance(t, ArrowAbs):
        return eval_arrow_abs(t, env)

    raise EvalError(f"cannot evaluate {t!r}")


# --------------------------------------------------------------------------
# Pushing densities through pipelines (batched column evaluation)


# Index maps and lift matrices are computed over *wires*.  The wires of a
# value of a classical type are a tree of 2-tuples of the type's shape,
# whose leaves, one per Bool, are 0/1 arrays over the context basis.  The
# context tuple is left-major, so its leaves read in order are the binary
# digits of the basis index.


def _index_wires(t: TypeExpr, r: np.ndarray) -> tuple[Value, np.ndarray]:
    """The wires of values of type `t` whose basis index at each context
    element is given by `r`; and `r` shifted past them."""
    if isinstance(t, ProdT):
        right, r = _index_wires(t.right, r)
        left, r = _index_wires(t.left, r)
        return (left, right), r
    return r & 1, r >> 1


def _context_wires(t: TypeExpr, d: int) -> Value:
    """The wires of a context tuple of type `t` and dimension `d`."""
    return _index_wires(t, np.arange(d))[0]


def _leaves(w) -> list:
    if isinstance(w, tuple):
        return _leaves(w[0]) + _leaves(w[1])
    return [w]


def _over_reads(t: Term, wires: dict, env: dict) -> tuple[list, np.ndarray]:
    """`t` evaluated once per basis element of the context variables it
    reads, and the index of that element at each context basis element
    (0 if it reads none)."""
    read = [x for x in free_vars(t) if x in wires]
    digits = [leaf for x in read for leaf in _leaves(wires[x])]
    joint = 0
    for leaf in digits:
        joint = joint * 2 + leaf
    values = []
    for j in range(1 << len(digits)):
        bits = iter([bool(j >> k & 1)
                     for k in range(len(digits) - 1, -1, -1)])
        env2 = dict(env)        # a result may be a closure over it
        for x in read:
            env2[x] = _value_of(wires[x], bits)
        values.append(eval_term(t, env2))
    return values, joint


def _value_of(w, bits) -> Value:
    if isinstance(w, tuple):
        return (_value_of(w[0], bits), _value_of(w[1], bits))
    return next(bits)


def _term_wires(t: Term, wires: dict, env: dict):
    """The wires of `t`, or None if its values are not basis values (a
    closure or a vector that a projection may drop).  Variables, pairs,
    projections and literals are index arithmetic; any other term, and a
    projection of a pair that has no wires, is evaluated over its reads
    alone."""
    cls = type(t)
    if cls is Var and t.name in wires:
        return wires[t.name]
    if cls is BoolLit:
        return int(t.value)
    if cls is Pair:
        left = _term_wires(t.left, wires, env)
        right = None if left is None else _term_wires(t.right, wires, env)
        return None if right is None else (left, right)
    if cls is Fst or cls is Snd:
        w = _term_wires(t.arg, wires, env)
        if isinstance(w, tuple):
            return w[1] if cls is Snd else w[0]
        if w is not None:
            raise EvalError(f"{'snd' if cls is Snd else 'fst'} of a non-pair")
    values, joint = _over_reads(t, wires, env)
    try:
        rt = elem_type_of_value(values[0])
    except EvalError:                   # not basis values
        return None
    idx = np.array([elem_index(rt, v) for v in values])
    return _index_wires(rt, idx[joint])[0]


def _arr_index_map(e: Arr, env: dict, ctx: Value) -> np.ndarray:
    """The basis map of `e`, given the wires `ctx` of its context tuple."""
    w = _term_wires(e.fn.body, bind_pattern_value(e.fn.pat, ctx, {}), env)
    if w is None:
        raise EvalError("an arr body must produce a basis value")
    m = np.zeros_like(_leaves(ctx)[0])
    for leaf in _leaves(w):
        m = m * 2 + leaf
    return m


def _lift_matrix(e: LiftLin, env: dict, di: int, do: int) -> np.ndarray:
    ctx = _context_wires(e.in_type, di)
    values, joint = _over_reads(e.fn.body,
                                bind_pattern_value(e.fn.pat, ctx, {}), env)
    cols = np.empty((do, len(values)), dtype=complex)
    for j, v in enumerate(values):
        if not isinstance(v, VecV):
            raise EvalError("lifted function must produce a vector")
        if v.amp.shape[0] != do:
            raise EvalError("lifted function dimension mismatch")
        cols[:, j] = v.amp
    return cols[:, np.broadcast_to(joint, di)]


def _scatter(r: np.ndarray, V: np.ndarray, n: int) -> np.ndarray:
    """Relabel both indices of each vectorized density in the batch by the
    index map ``r``, summing entries that land together:
    ``out[(r a, r a')] += V[(a, a')]``, with ``n`` the new dimension.  An
    injective ``r`` is one assignment; otherwise rows are grouped by sorting
    ``r`` and summed slab-wise, one axis at a time."""
    d, k = len(r), V.shape[1]
    out = np.zeros((n, n, k), dtype=complex)
    X = V.reshape(d, d, k)
    order = np.argsort(r, kind="stable")
    rs = r[order]
    starts = np.flatnonzero(np.r_[True, rs[1:] != rs[:-1]])
    if len(starts) < d:
        if np.any(order != np.arange(d)):
            X = X[np.ix_(order, order)]
        X = np.add.reduceat(np.add.reduceat(X, starts, axis=0), starts, axis=1)
        r = rs[starts]
    out[np.ix_(r, r)] = X
    return out.reshape(n * n, k)


def _callee(e: NamedSuper, env: dict) -> SuperV:
    s = env.get(e.name)
    if not isinstance(s, SuperV):
        raise EvalError(f"{e.name} is not a superoperator")
    return s


def _peel(right: ClassicExpr
          ) -> tuple[Optional[Arr], Optional[ClassicExpr]]:
    """Split the bound leg of a ``&&&`` into its pure argument map and the
    rest, as translation emits every ``CApp``, ``meas`` and ``trL``.  A pure
    bound leg (a classical ``let``) is all map, with no rest."""
    if isinstance(right, Arr):
        return right, None
    if isinstance(right, Compose) and isinstance(right.first_, Arr):
        return right.first_, right.then_
    return None, right


# Both forms stay, measured on a 2-vCPU Xeon host.  The benchmark's circuits
# and prover workloads choose the grid at every fanout, but the pipelines of
# inverse-translated terms need the gather form: forcing the grid everywhere
# takes the translation round-trip test (acceptance criterion 7) from 0.35 s
# to 2.3-2.8 s, and the round trip of toffoli from 0.13 s to 0.65 s.  The
# gather form reads the bound leg's matrix G; for a named callee G is the
# matrix it keeps.
def _fanout_forms(e: FanoutC) -> tuple[int, int]:
    """Per-column cells of the two ways to apply ``arr m &&& (p >>> g)``:
    (i) scatter the batch into the grid over (m a, p a), then contract with
    g's matrix; (ii) gather g's matrix at p over the whole context, multiply
    it into the batch, then scatter by m."""
    p, rest = _peel(e.right_)
    di, dj = dim(e.in_type), dim(e.left_.out_type)
    dr = di if p is None else dim(p.out_type)
    dg = dr if rest is None else dim(rest.out_type)
    return (dj * dr) ** 2, (di * dg) ** 2


def _fanout_arr(e: FanoutC, V: np.ndarray, env: dict) -> np.ndarray:
    # out[(j,c),(j',c')] = Σ_{a,a': m a=j, m a'=j'} G[(c,c'),(p a,p a')] V[(a,a')]
    p_arr, rest = _peel(e.right_)
    di, dj, k = dim(e.in_type), dim(e.left_.out_type), V.shape[1]
    ctx = _context_wires(e.in_type, di)
    m = _arr_index_map(e.left_, env, ctx)
    p = np.arange(di) if p_arr is None else _arr_index_map(p_arr, env, ctx)
    if rest is None:                    # a pure bound leg: a ↦ (m a, p a)
        dr = dim(e.right_.out_type)
        return _scatter(m * dr + p, V, dj * dr)
    dr, dg = dim(rest.in_type), dim(rest.out_type)
    G = (_callee(rest, env).val if isinstance(rest, NamedSuper)
         else materialize_super(rest, env)).action
    grid, gather = _fanout_forms(e)
    if grid <= gather:
        W = _scatter(m * dr + p, V, dj * dr)             # over (m a, p a)
        W = (W.reshape(dj, dr, dj, dr, k).transpose(1, 3, 0, 2, 4)
             .reshape(dr * dr, dj * dj * k))
        return ((G @ W).reshape(dg, dg, dj, dj, k).transpose(2, 0, 3, 1, 4)
                .reshape((dj * dg) ** 2, k))
    G4 = G.reshape(dg, dg, dr, dr)[:, :, p[:, None], p[None, :]]
    T = np.einsum("cdab,abk->acbdk", G4, V.reshape(di, di, k), optimize=True)
    return _scatter((m[:, None] * dg + np.arange(dg)).reshape(-1),
                    T.reshape((di * dg) ** 2, k), dj * dg)


def apply_batch(e: ClassicExpr, V: np.ndarray, env: dict) -> np.ndarray:
    """Push a batch of vectorized densities (shape (din², k)) through a
    pipeline, returning shape (dout², k)."""
    di, do = dim(e.in_type), dim(e.out_type)
    k = V.shape[1]

    if isinstance(e, Arr):
        return _scatter(_arr_index_map(e, env, _context_wires(e.in_type, di)),
                        V, do)

    if isinstance(e, LiftLin):
        F = _lift_matrix(e, env, di, do)
        V3 = V.reshape(di, di, k)
        return np.einsum("ai,ijk,bj->abk", F, V3, F.conj(),
                         optimize=True).reshape(do * do, k)

    if isinstance(e, NamedSuper):
        return _callee(e, env).val.action @ V

    if isinstance(e, MeasC):
        V3 = V.reshape(di, di, k)
        diag = V3[np.arange(di), np.arange(di)]          # (di, k)
        out = np.zeros(((di * di) ** 2, k), dtype=complex)
        pair = np.arange(di) * di + np.arange(di)        # index of (a,a)
        out[pair * (di * di) + pair] = diag
        return out

    if isinstance(e, TrLC):
        pt = e.in_type
        assert isinstance(pt, ProdT)
        da, db = dim(pt.left), dim(pt.right)
        V5 = V.reshape(da, db, da, db, k)
        return np.einsum("abadk->bdk", V5).reshape(db * db, k)

    if isinstance(e, Compose):
        return apply_batch(e.then_, apply_batch(e.first_, V, env), env)

    if isinstance(e, FanoutC):
        return _fanout_arr(e, V, env)

    raise EvalError(f"cannot apply pipeline node {e!r}")


def est_cells(e: ClassicExpr) -> int:
    """Rough per-column memory estimate (complex cells) for apply_batch."""
    base = max(dim(e.in_type) ** 2, dim(e.out_type) ** 2)
    if isinstance(e, Compose):
        return max(base, est_cells(e.first_), est_cells(e.then_))
    if isinstance(e, FanoutC):
        return max(base, min(_fanout_forms(e)))
    return base


def materialize_super(e: ClassicExpr, env: dict) -> SuperVal:
    """The matrix of a pipeline: its identity columns pushed through it, in
    blocks sized to the budget; each block's columns are made as it goes."""
    n = dim(e.in_type) ** 2
    block = max(1, min(n, _BUDGET // max(est_cells(e), 1)))
    parts = []
    for s in range(0, n, block):
        w = min(block, n - s)
        cols = np.zeros((n, w), dtype=complex)
        cols[np.arange(s, s + w), np.arange(w)] = 1.0
        parts.append(apply_batch(e, cols, env))
    return SuperVal(e.in_type, e.out_type, np.concatenate(parts, axis=1))


def eval_arrow_abs(t: ArrowAbs, env: dict) -> SuperV:
    return SuperV(translate_term(t), env)


# --------------------------------------------------------------------------
# Programs


def run_super(s: SuperV, rho: np.ndarray) -> np.ndarray:
    """Apply a superoperator value to a density.  Until its matrix is built,
    ``vec(ρ)`` is pushed through the pipeline as a batch of one column."""
    if s.built():
        return apply_super(s.val, rho)
    check_density(rho, dim(s.in_type))
    d_out = dim(s.out_type)
    return apply_batch(s.pipe, rho.reshape(-1, 1), s.env).reshape(d_out, d_out)


def eval_program(prog: Program, base_env: Optional[dict] = None) -> dict:
    """Evaluate definitions in order.  Each sees the environment as it stood
    when it was defined: values keep the dict they were evaluated in, so a
    later definition must not change it."""
    env = dict(base_env or {})
    for d in prog.defs:
        env = {**env, d.name: eval_term(d.term, env)}
    return env


# --------------------------------------------------------------------------
# Comparing denotations: the prover's semantic stage


def _witness_states(d: int):
    """A tomographically spanning family of pure states."""
    for k in range(d):
        amp = np.zeros(d, dtype=complex)
        amp[k] = 1.0
        yield amp
    for i in range(d):
        for j in range(i + 1, d):
            for phase in (1.0, -1.0, 1j, -1j):
                amp = np.zeros(d, dtype=complex)
                amp[i] = 2 ** -0.5
                amp[j] = phase * 2 ** -0.5
                yield amp


def compare_values(a, b, t: TypeExpr, tol: float):
    """The largest observable difference between two values of type `t`, and
    what separates them: for superoperators whose matrices differ by more
    than `tol`, the best separating pure state as (gap, density); NaN when
    the values cannot be compared.  A pair, or a function on a classical
    type, is compared part by part: a part that differs by more than `tol`
    decides, wherever it is; otherwise a part that cannot be compared makes
    the whole NaN."""
    if isinstance(a, bool) and isinstance(b, bool):
        return (0.0, None) if a == b else (1.0, None)
    if isinstance(a, VecV) and isinstance(b, VecV):
        return (float(np.max(np.abs(a.amp - b.amp))), None)
    if isinstance(a, SuperV) and isinstance(b, SuperV):
        diff = float(np.max(np.abs(a.val.action - b.val.action)))
        if diff <= tol:
            return (diff, None)
        best, best_rho = 0.0, None
        for amp in _witness_states(dim(a.val.in_type)):
            rho = pure_density(amp)
            gap = float(np.max(np.abs(run_super(a, rho) - run_super(b, rho))))
            if gap > best:
                best, best_rho = gap, rho
        return (diff, (best, best_rho))
    if isinstance(a, tuple) and isinstance(b, tuple) and isinstance(t, ProdT):
        parts = [(a[0], b[0], t.left), (a[1], b[1], t.right)]
    elif (isinstance(a, ClosureV) and isinstance(b, ClosureV)
            and isinstance(t, FunT) and is_classical(t.arg)):
        parts = ((apply_closure(a, e), apply_closure(b, e), t.res)
                 for e in basis(t.arg))
    else:
        return (float("nan"), None)
    worst, wit, nan = 0.0, None, False
    for x, y, u in parts:
        d, w = compare_values(x, y, u, tol)
        nan |= d != d
        if d > worst:
            worst, wit = d, w
    return (float("nan"), None) if nan and worst <= tol else (worst, wit)
