"""The dense superoperator arrow: full matrices for the language's
primitives, which ``test_linalg`` checks and the acceptance criteria and
the evaluator's tests use as their dense forms.

The combinators are the superoperator arrow of Vizzotto, Altenkirch & Sabry
("Structuring quantum effects: superoperators as arrows", MSCS 2006), each
a full matrix acting on row-major vectorized densities:
``vec(F ρ F†) = (F ⊗ conj(F)) vec(ρ)``.  They mirror the language
primitives: lifting a pure function, lifting a linear map, sequential
composition, ``first`` (act on the left half of a pair), measurement in the
computational basis, and partial trace of the left half.  ``second`` is
*derived* from ``first`` with pure rewiring, and is kept that way.
``apply_super`` applies any of them to a density.  The reference semantics
of whole programs is ``reference.reference_super``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from qarrow.linalg import basis, dim, Elem, elem_index, SuperVal
from qarrow.syntax import ProdT, TypeExpr


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


def apply_super(s: SuperVal, rho: np.ndarray) -> np.ndarray:
    """The image of a density under `s`: its matrix times ``vec(ρ)``."""
    d_in, d_out = dim(s.in_type), dim(s.out_type)
    return (s.action @ rho.reshape(d_in * d_in)).reshape(d_out, d_out)
