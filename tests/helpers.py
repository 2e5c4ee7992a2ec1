"""Helpers that several test modules share: random densities, comparing
densities, and the matrix of a vector-valued function."""

from __future__ import annotations

import numpy as np

from qarrow.evaluator import apply_closure, EvalError, VecV
from qarrow.linalg import basis, dim
from qarrow.syntax import TypeExpr


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random full-rank density of dimension `d` and trace one."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dens_close(x: np.ndarray, y: np.ndarray, tol: float = 1e-9) -> bool:
    return x.shape == y.shape and bool(np.max(np.abs(x - y)) <= tol)


def materialize_lin(f, in_t: TypeExpr, out_t: TypeExpr) -> np.ndarray:
    """Matrix of a vector-valued function value: column a is f a."""
    mat = np.zeros((dim(out_t), dim(in_t)), dtype=complex)
    for i, elem in enumerate(basis(in_t)):
        v = apply_closure(f, elem)
        if not isinstance(v, VecV):
            raise EvalError("expected a vector-valued function")
        mat[:, i] = v.amp
    return mat
