"""The reference semantics of arrow abstractions, ``reference_super``: the
oracle that the evaluator and the translation are checked against.

It walks the source command, not the pipeline, with the state in
operator-sum form (Nielsen & Chuang, §8.2): an array (m, D, k) holds m
unnormalized kets over the context, of dimension D, for each of k inputs,
and ρ = Σ_m ψ_m ψ_m†.  Pushing the input basis kets leaves the Kraus
operators of the abstraction, and its matrix M[(a,b),(i,j)] =
Σ_m K_m[a,i]·conj(K_m[b,j]).  ``meas`` makes one branch per outcome a
(|a,a⟩⟨a|), ``trL`` one per k (⟨k|⊗I), and a named callee one per Kraus
operator of its ``SuperV.val``, from a factoring of its Choi matrix.
As in Selinger's QPL (MSCS 2004), ``let y = P in Q`` copies the classical
context and goes on: branch n of P gives the ket Σ_g ψ_g |g⟩ ⊗ P_n|g⟩.

The ``let`` then drops every context entry that Q does not read by summing
amplitudes over its index.  That keeps the paper's ``arr`` semantics,
which sums an unread wire out by a non-injective basis map at the end:
dropping such wires by the basis map K at once gives the same channel, as
K₂K₁ is the map of the composite function and a command that reads only
the kept wires commutes with K.  So the reference owes nothing to where
translation drops wires.  Basis maps and lifted matrices evaluate the term
once per context element with the public ``eval_term``.
"""

from __future__ import annotations

import numpy as np

from qarrow.classic import delta_pattern, delta_tuple_type
from qarrow.evaluator import (apply_closure, ClosureV, elem_type_of_value,
                              EvalError, eval_term, SuperV, VecV)
from qarrow.linalg import basis, dim, elem_index, SuperVal
from qarrow.syntax import (ArrowAbs, CApp, CLet, Command, CUnit, free_vars,
                           Meas, pattern_names, TrL, TypeExpr)


def index_map(f: ClosureV, in_t: TypeExpr, out_t: TypeExpr) -> np.ndarray:
    """The basis index of `f` applied to each basis element of `in_t`."""
    values = [apply_closure(f, elem) for elem in basis(in_t)]
    for v in values:
        elem_type_of_value(v)       # refuses a value that is not a basis value
    return np.array([elem_index(out_t, v) for v in values], dtype=np.int64)


def lift_matrix(f: ClosureV, in_t: TypeExpr, out_t: TypeExpr) -> np.ndarray:
    """The matrix whose column a is the vector `f` gives at element a."""
    values = [apply_closure(f, elem) for elem in basis(in_t)]
    if not all(isinstance(v, VecV) and v.amp.shape == (dim(out_t),)
               for v in values):
        raise EvalError("lifted function must produce a vector of its type")
    return np.array([v.amp for v in values], dtype=complex).T


def choi(action: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """J = Σ_ij |i⟩⟨j| ⊗ Φ(|i⟩⟨j|), indexed [(i, a), (j, b)]."""
    a = action.reshape(d_out, d_out, d_in, d_in)
    return a.transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out)


def _kraus(s: SuperV) -> np.ndarray:
    """Kraus operators of a superoperator, shape (r, dout, din): its Choi
    matrix factored as Σ_r c_r c_r† by Cholesky with full pivoting."""
    d_in, d_out = dim(s.in_type), dim(s.out_type)
    j, ops = choi(s.val.action, d_in, d_out), []
    for _ in range(len(j)):
        p = j.diagonal().real.argmax()
        if j[p, p].real <= 1e-13:
            break
        ops.append(j[:, p] / np.sqrt(j[p, p].real))
        j = j - np.outer(ops[-1], ops[-1].conj())
    return np.array(ops).reshape(-1, d_in, d_out).transpose(0, 2, 1)


def _reads(delta, cmd: Command) -> list[int]:
    """Where the entries that `cmd` reads are in `delta`, else the last one."""
    names = free_vars(cmd)
    return [i for i, (p, _) in enumerate(delta)
            if names.intersection(pattern_names(p))] or [len(delta) - 1]


def reference_super(t: ArrowAbs, env: dict) -> SuperVal:
    d_in, d_out = dim(t.type_.arg), dim(t.type_.res)
    ops = _walk(((t.pat, t.type_.arg),), t.cmd, env, np.eye(d_in)[None])
    action = np.einsum("mai,mbj->abij", ops, ops.conj())
    return SuperVal(t.type_.arg, t.type_.res,
                    action.reshape(d_out * d_out, d_in * d_in))


def _walk(delta, cmd: Command, env: dict, s: np.ndarray) -> np.ndarray:
    """The branches `s`, shape (m, D, k) over the context `delta`, after
    `cmd`: shape (m', dout, k)."""
    m, _, k = s.shape
    if isinstance(cmd, CLet):
        # einsum labels: 0 the branch, 1 the input, 2 + i entry i of the
        # context, j + 2 the branch of P and j + 3 its output
        j, axes = len(delta), [dim(ty) for _, ty in delta]
        p_at = _reads(delta, cmd.bound)
        p_axes = [axes[i] for i in p_at]
        bound = _walk(tuple(delta[i] for i in p_at), cmd.bound, env,
                      np.eye(int(np.prod(p_axes)))[None])
        delta += ((cmd.pat, cmd.bound_type),)
        q_at, ctx = _reads(delta, cmd.body), [*range(2, 2 + j), j + 3]
        out = np.einsum(s.reshape(m, *axes, k), [0, *ctx[:j], 1],
                        bound.reshape(len(bound), -1, *p_axes),
                        [j + 2, j + 3, *(ctx[i] for i in p_at)],
                        [0, j + 2, *(ctx[i] for i in q_at), 1])
        return _walk(tuple(delta[i] for i in q_at), cmd.body, env,
                     out.reshape(m * len(bound), -1, k))

    if isinstance(cmd, CUnit):
        term, out_t = cmd.content, cmd.content_type
    else:
        term = cmd.arg
        out_t = cmd.fn_type.arg if isinstance(cmd, CApp) else cmd.arg_type
    pure = ClosureV(delta_pattern(delta), term, env), delta_tuple_type(delta)
    if isinstance(cmd, CUnit) and cmd.mode == "vec":
        return lift_matrix(*pure, out_t) @ s
    a = dim(out_t)
    phi = np.eye(a)[:, index_map(*pure, out_t)] @ s
    if isinstance(cmd, CUnit):
        return phi
    if isinstance(cmd, Meas):       # branch a: |a⟩ to |a,a⟩, the rest to 0
        copy = np.eye(a * a)[:, np.arange(a) * (a + 1)]
        return np.einsum("xa,mak->maxk", copy, phi).reshape(m * a, a * a, k)
    if isinstance(cmd, TrL):
        return phi.reshape(m * dim(out_t.left), -1, k)
    if isinstance(cmd.fn, ArrowAbs):
        return _walk(((cmd.fn.pat, out_t),), cmd.fn.cmd, env, phi)
    v = eval_term(cmd.fn, env)
    if not isinstance(v, SuperV):
        raise EvalError("arrow application of a non-superoperator")
    return (_kraus(v)[None] @ phi[:, None]).reshape(-1, dim(v.out_type), k)
