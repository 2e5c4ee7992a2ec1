"""Finite-dimensional semantics: bases, vectors, densities, superoperators.

A classical type denotes a finite basis: ``Bool`` has elements ``False``,
``True``; a product pairs them, with the *left* component as the major
index (matching the Kronecker-product convention used throughout).

* ``Vec A``   — complex amplitude vector over the basis of ``A``.
* a density over ``A`` — complex matrix over that basis (positive and of
  trace one; the operations below never assume more than Hermitian input).
* ``Super A B`` — linear map on densities, stored as its matrix acting on
  row-major vectorized densities:  ``vec(F ρ F†) = (F ⊗ conj(F)) vec(ρ)``.

This module holds the data: ``SuperVal``, a superoperator's matrix, and
the JSON and text forms of densities and vectors.  Superoperators are
built and applied by the evaluator, which pushes densities through a
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from .syntax import BoolT, ProdT, TypeExpr

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


# --------------------------------------------------------------------------
# Superoperators


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


# --------------------------------------------------------------------------
# Densities


def pure_density(amp: np.ndarray) -> np.ndarray:
    return np.outer(amp, amp.conj())


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
    """A density from its JSON form.  It must be Hermitian with no eigenvalue
    below -1e-9; its trace is used as written, as a ket's norm is."""
    rows = obj["rows"]
    mat = np.array([[complex(c["re"], c["im"]) for c in row] for row in rows],
                   dtype=complex)
    if mat.shape != (obj["dim"], obj["dim"]):
        raise ValueError("density dimension mismatch")
    if not np.isfinite(mat).all():
        raise ValueError("density has a non-finite entry")
    if not is_hermitian(mat) or np.linalg.eigvalsh(mat)[0] < -1e-9:
        raise ValueError("the matrix is not Hermitian positive semidefinite")
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
