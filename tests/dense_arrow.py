"""The dense superoperator arrow and a naive semantics built on it: the test
oracle for the pipeline evaluator.

The combinators are the superoperator arrow of Vizzotto, Altenkirch & Sabry
("Structuring quantum effects: superoperators as arrows", MSCS 2006), each
a full matrix acting on row-major vectorized densities:
``vec(F ρ F†) = (F ⊗ conj(F)) vec(ρ)``.  They mirror the language
primitives: lifting a pure function, lifting a vector-valued (Kraus)
function, identity, sequential composition, ``first`` (act on the left
half of a pair), measurement in the computational basis, and partial trace
of the left half.  ``second`` and ``fanout`` are *derived* from ``first``
with pure rewiring, and are kept that way.

``reference_super`` gives a second, deliberately naive semantics for arrow
abstractions: structural recursion over the command, using these dense
combinators exactly as written, with no context narrowing and no batching.
It is exponential in the number of command lets and exists purely as an
independent cross-check.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from qarrow.classic import delta_pattern, delta_tuple_type
from qarrow.evaluator import (bind_pattern_value, elem_type_of_value,
                              EvalError, eval_term, SuperV, VecV)
from qarrow.linalg import basis, dim, Elem, elem_index, SuperVal
from qarrow.syntax import (ArrowAbs, CApp, CLet, Command, CUnit, Lam, Meas,
                           ProdT, SuperT, Term, TrL, TypeExpr)


# --------------------------------------------------------------------------
# Dense combinators


def fun2lin(f: Callable[[Elem], np.ndarray], in_t: TypeExpr,
            out_t: TypeExpr) -> np.ndarray:
    """Matrix of a vector-valued function on basis elements: column a = f(a)."""
    mat = np.zeros((dim(out_t), dim(in_t)), dtype=complex)
    for i, v in enumerate(basis(in_t)):
        mat[:, i] = f(v)
    return mat


def lin2super_matrix(mat: np.ndarray) -> np.ndarray:
    """Action on row-major vectorized densities: ρ ↦ F ρ F†."""
    return np.kron(mat, mat.conj())


def super_from_lin(mat: np.ndarray, in_t: TypeExpr, out_t: TypeExpr) -> SuperVal:
    return SuperVal(in_t, out_t, lin2super_matrix(mat))


def super_arr(f: Callable[[Elem], Elem], in_t: TypeExpr, out_t: TypeExpr) -> SuperVal:
    """Lift a pure basis function."""
    mat = np.zeros((dim(out_t), dim(in_t)), dtype=complex)
    for i, v in enumerate(basis(in_t)):
        mat[elem_index(out_t, f(v)), i] = 1.0
    return super_from_lin(mat, in_t, out_t)


def super_identity(t: TypeExpr) -> SuperVal:
    d = dim(t)
    return SuperVal(t, t, np.eye(d * d, dtype=complex))


def super_compose(f: SuperVal, g: SuperVal) -> SuperVal:
    """Sequential composition: f then g."""
    if dim(f.out_type) != dim(g.in_type):
        raise ValueError("composition type mismatch")
    return SuperVal(f.in_type, g.out_type, g.action @ f.action)


def super_first(f: SuperVal, c_t: TypeExpr) -> SuperVal:
    """Act with f on the left half of a pair, leave the right half alone."""
    da, db, dc = dim(f.in_type), dim(f.out_type), dim(c_t)
    a4 = f.action.reshape(db, db, da, da)  # [b1, b2, a1, a2]
    eye = np.eye(dc)
    # rows (b1 c1 b2 c2), cols (a1 c1' a2 c2')
    t8 = np.einsum("pqrs,ik,jl->piqjrksl", a4, eye, eye)
    action = np.ascontiguousarray(t8).reshape((db * dc) ** 2, (da * dc) ** 2)
    return SuperVal(ProdT(f.in_type, c_t), ProdT(f.out_type, c_t), action)


def _swap_prod(t: TypeExpr) -> SuperVal:
    assert isinstance(t, ProdT)
    return super_arr(lambda v: (v[1], v[0]), t, ProdT(t.right, t.left))


def super_second(f: SuperVal, c_t: TypeExpr) -> SuperVal:
    """Derived: swap, first f, swap back."""
    pre = _swap_prod(ProdT(c_t, f.in_type))
    post = _swap_prod(ProdT(f.out_type, c_t))
    return super_compose(super_compose(pre, super_first(f, c_t)), post)


def super_fanout(f: SuperVal, g: SuperVal) -> SuperVal:
    """Derived: duplicate the (classical) input, then first f, then second g."""
    if dim(f.in_type) != dim(g.in_type):
        raise ValueError("fanout inputs must share a type")
    dup = super_arr(lambda v: (v, v), f.in_type, ProdT(f.in_type, f.in_type))
    step1 = super_first(f, g.in_type)
    step2 = super_second(g, f.out_type)
    return super_compose(super_compose(dup, step1), step2)


def super_meas(a_t: TypeExpr) -> SuperVal:
    """Computational-basis measurement: keeps the diagonal, duplicating the
    index so the result lives over (A,A)."""
    da = dim(a_t)
    out_t = ProdT(a_t, a_t)
    dout = da * da
    action = np.zeros((dout * dout, da * da), dtype=complex)
    for a in range(da):
        src = a * da + a                       # (a, a) of vec(ρ_in)
        pair = a * da + a                      # basis index of (a,a) in A×A
        action[pair * dout + pair, src] = 1.0  # ((a,a),(a,a)) diagonal entry
    return SuperVal(a_t, out_t, action)


def super_trL(prod_t: TypeExpr) -> SuperVal:
    """Partial trace of the left component of a pair."""
    assert isinstance(prod_t, ProdT)
    da, db = dim(prod_t.left), dim(prod_t.right)
    din = da * db
    action = np.zeros((db * db, din * din), dtype=complex)
    for a in range(da):
        for b1 in range(db):
            for b2 in range(db):
                row = b1 * db + b2
                col = (a * db + b1) * din + (a * db + b2)
                action[row, col] = 1.0
    return SuperVal(prod_t, prod_t.right, action)


# --------------------------------------------------------------------------
# Reference semantics (dense, clause-by-clause)


def _fn_env(fn: Lam, elem, env: dict) -> dict:
    return bind_pattern_value(fn.pat, elem, dict(env))


def reference_super(t: ArrowAbs, env: dict) -> SuperVal:
    if t.type_ is None or not isinstance(t.type_, SuperT):
        raise EvalError("typecheck before evaluating")
    return _ref_command(((t.pat, t.type_.arg),), t.cmd, env)


def _ref_pure(delta, body: Term, in_t: TypeExpr, out_t: TypeExpr,
              env: dict) -> SuperVal:
    fn = Lam(delta_pattern(delta), body)

    def f(elem):
        v = eval_term(body, _fn_env(fn, elem, env))
        elem_type_of_value(v)       # refuses a value that is not a basis value
        return v

    return super_arr(f, in_t, out_t)


def _ref_command(delta, cmd: Command, env: dict) -> SuperVal:
    dtt = delta_tuple_type(delta)

    if isinstance(cmd, CUnit):
        if cmd.mode == "classical":
            return _ref_pure(delta, cmd.content, dtt, cmd.content_type, env)
        fn = Lam(delta_pattern(delta), cmd.content)

        def f(elem):
            v = eval_term(cmd.content, _fn_env(fn, elem, env))
            assert isinstance(v, VecV)
            return v.amp

        return super_from_lin(fun2lin(f, dtt, cmd.content_type),
                              dtt, cmd.content_type)

    if isinstance(cmd, Meas):
        prep = _ref_pure(delta, cmd.arg, dtt, cmd.arg_type, env)
        return super_compose(prep, super_meas(cmd.arg_type))

    if isinstance(cmd, TrL):
        prep = _ref_pure(delta, cmd.arg, dtt, cmd.arg_type, env)
        return super_compose(prep, super_trL(cmd.arg_type))

    if isinstance(cmd, CApp):
        assert isinstance(cmd.fn_type, SuperT)
        prep = _ref_pure(delta, cmd.arg, dtt, cmd.fn_type.arg, env)
        if isinstance(cmd.fn, ArrowAbs):
            fnv = reference_super(cmd.fn, env)
        else:
            v = eval_term(cmd.fn, env)
            if not isinstance(v, SuperV):
                raise EvalError("arrow application of a non-superoperator")
            fnv = v.val
        return super_compose(prep, fnv)

    if isinstance(cmd, CLet):
        bound = _ref_command(delta, cmd.bound, env)
        fan = super_fanout(super_identity(dtt), bound)
        body = _ref_command(delta + ((cmd.pat, cmd.bound_type),), cmd.body, env)
        return super_compose(fan, body)

    raise EvalError(f"cannot evaluate command {cmd!r}")
