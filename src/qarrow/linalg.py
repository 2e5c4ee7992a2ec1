"""Finite-dimensional semantics: bases, vectors, densities, superoperators.

A classical type denotes a finite basis: ``Bool`` has elements ``False``,
``True``; a product pairs them, with the *left* component as the major
index (matching the Kronecker-product convention used throughout).

* ``Vec A``   — complex amplitude vector over the basis of ``A``.
* ``Dens A``  — complex matrix over that basis (density when positive,
  trace one; the operations below never assume more than Hermitian input).
* ``Super A B`` — linear map on densities, stored as its matrix acting on
  row-major vectorized densities:  ``vec(F ρ F†) = (F ⊗ conj(F)) vec(ρ)``.

Superoperator constructors mirror the language primitives: lifting a pure
function, lifting a vector-valued (Kraus) function, identity, sequential
composition, ``first`` (act on the left half of a pair), measurement in
the computational basis, and partial trace of the left half.  ``second``
and ``fanout`` are *derived* from ``first`` with pure rewiring, and the
implementation keeps them that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .syntax import BoolT, ProdT, TypeExpr, is_classical

Elem = object  # bool or nested pairs of bool


# --------------------------------------------------------------------------
# Bases


@lru_cache(maxsize=None)
def basis(t: TypeExpr) -> tuple[Elem, ...]:
    """Ordered basis of a classical type (left component is the major index)."""
    if isinstance(t, BoolT):
        return (False, True)
    if isinstance(t, ProdT):
        return tuple((l, r) for l in basis(t.left) for r in basis(t.right))
    raise ValueError(f"not a classical type: {t!r}")


def dim(t: TypeExpr) -> int:
    if isinstance(t, BoolT):
        return 2
    if isinstance(t, ProdT):
        return dim(t.left) * dim(t.right)
    raise ValueError(f"not a classical type: {t!r}")


def elem_index(t: TypeExpr, v: Elem) -> int:
    if isinstance(t, BoolT):
        return 1 if v else 0
    if isinstance(t, ProdT):
        return elem_index(t.left, v[0]) * dim(t.right) + elem_index(t.right, v[1])
    raise ValueError(f"not a classical type: {t!r}")


def elem_str(v: Elem) -> str:
    if isinstance(v, bool):
        return "True" if v else "False"
    return f"({elem_str(v[0])},{elem_str(v[1])})"


# --------------------------------------------------------------------------
# Vectors (amplitudes over a basis)


def vec_zero(t: TypeExpr) -> np.ndarray:
    return np.zeros(dim(t), dtype=complex)


def vec_return(t: TypeExpr, v: Elem) -> np.ndarray:
    out = vec_zero(t)
    out[elem_index(t, v)] = 1.0
    return out


def vec_bind(amp: np.ndarray, in_t: TypeExpr, out_t: TypeExpr,
             f: Callable[[Elem], np.ndarray]) -> np.ndarray:
    """Monadic bind: sum_a amp[a] * f(a)."""
    out = vec_zero(out_t)
    for i, v in enumerate(basis(in_t)):
        if amp[i] != 0:
            out += amp[i] * f(v)
    return out


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(a, b)


# --------------------------------------------------------------------------
# Linear maps and superoperators


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


@dataclass(frozen=True)
class SuperVal:
    """A superoperator from densities over ``in_type`` to densities over
    ``out_type``; ``action`` has shape (dim_out², dim_in²)."""
    in_type: TypeExpr
    out_type: TypeExpr
    action: np.ndarray

    def __post_init__(self):
        d_in, d_out = dim(self.in_type), dim(self.out_type)
        assert self.action.shape == (d_out * d_out, d_in * d_in), \
            (self.action.shape, d_out, d_in)


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


def check_density(rho: np.ndarray, d_in: int) -> None:
    if rho.shape != (d_in, d_in):
        raise ValueError(f"density shape {rho.shape} does not match input "
                         f"dimension {d_in}")


def apply_super(s: SuperVal, rho: np.ndarray) -> np.ndarray:
    d_in, d_out = dim(s.in_type), dim(s.out_type)
    check_density(rho, d_in)
    return (s.action @ rho.reshape(d_in * d_in)).reshape(d_out, d_out)


# --------------------------------------------------------------------------
# Densities


def pure_density(amp: np.ndarray) -> np.ndarray:
    return np.outer(amp, amp.conj())


def dens_close(x: np.ndarray, y: np.ndarray, tol: float = 1e-9) -> bool:
    return x.shape == y.shape and bool(np.max(np.abs(x - y)) <= tol)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def is_hermitian(mat: np.ndarray, tol: float = 1e-9) -> bool:
    return bool(np.max(np.abs(mat - mat.conj().T)) <= tol)


# --------------------------------------------------------------------------
# Rendering / serialization


def _clean(x: float) -> float:
    return 0.0 if x == 0 else float(x)


def dens_to_json(mat: np.ndarray, t: TypeExpr | None = None) -> dict:
    out: dict = {"dim": int(mat.shape[0])}
    if t is not None:
        out["basis"] = [elem_str(v) for v in basis(t)]
    out["rows"] = [[{"re": _clean(c.real), "im": _clean(c.imag)} for c in row]
                   for row in mat.tolist()]
    return out


def dens_from_json(obj: dict) -> np.ndarray:
    rows = obj["rows"]
    mat = np.array([[complex(c["re"], c["im"]) for c in row] for row in rows],
                   dtype=complex)
    if mat.shape != (obj["dim"], obj["dim"]):
        raise ValueError("density dimension mismatch")
    return mat


def _fmt_cell(c: complex) -> str:
    re = c.real if abs(c.real) >= 5e-7 else 0.0
    im = c.imag if abs(c.imag) >= 5e-7 else 0.0
    return f"{re:.6f}{im:+.6f}i"


def render_density(mat: np.ndarray) -> str:
    return "\n".join(" ".join(_fmt_cell(c) for c in row) for row in mat.tolist())


def render_vector(amp: np.ndarray) -> str:
    return " ".join(_fmt_cell(c) for c in amp.tolist())


def vec_to_json(amp: np.ndarray, t: TypeExpr | None = None) -> dict:
    out: dict = {"dim": int(amp.shape[0])}
    if t is not None:
        out["basis"] = [elem_str(v) for v in basis(t)]
    out["amps"] = [{"re": _clean(c.real), "im": _clean(c.imag)}
                   for c in amp.tolist()]
    return out
