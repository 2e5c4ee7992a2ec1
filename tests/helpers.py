"""Helpers that several test modules share: random densities, comparing
densities, the matrix of a vector-valued function, whether a
superoperator's matrix is built, the laws and the replay of a rewriting
trace, a term's binders renamed to given names, and the sub-pipelines of a
pipeline."""

from __future__ import annotations

import numpy as np

from qarrow.classic import ClassicExpr, Compose, FanoutC
from qarrow.rewriter import Law, ProofTrace, Rewriter
from qarrow.syntax import alpha_eq, free_vars, PVar, rebuild, subst_map, Var

from reference import lift_matrix as materialize_lin  # a closure's matrix


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random full-rank density of dimension `d` and trace one."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dens_close(x: np.ndarray, y: np.ndarray, tol: float = 1e-9) -> bool:
    return x.shape == y.shape and bool(np.max(np.abs(x - y)) <= tol)


def matrix_built(s) -> bool:
    """Whether the matrix of a superoperator value has been built."""
    return "val" in s.__dict__          # where cached_property keeps it


def laws(trace: ProofTrace) -> list[Law]:
    """The law of each step of `trace`, in order."""
    return [s.law for s in trace.steps]


def replay(rw: Rewriter, trace: ProofTrace) -> bool:
    """Whether `trace` replays through ``rw.apply_law_at``: each step's
    result, and the end, alpha-equivalent to the recorded ones."""
    node = trace.start
    for step in trace.steps:
        node = rw.apply_law_at(node, step.path, step.law, step.direction)
        if not alpha_eq(node, step.result):
            return False
    return alpha_eq(node, trace.end)


def rebind(node, names):
    """`node` with the variable of each binder renamed, innermost first, to
    the next of `names` that its scope does not read, and the number of
    binders renamed; the new term is alpha-equivalent to `node`."""
    changes, renamed = {}, 0
    for f in node.child_fields:
        changes[f], k = rebind(getattr(node, f), names)
        renamed += k
    node = rebuild(node, changes)
    if node.binder and isinstance(node.pat, PVar):
        scope = node.child_fields[-1]
        body, new = getattr(node, scope), next(names)
        if new not in free_vars(body):
            node = rebuild(node, {
                "pat": PVar(new),
                scope: subst_map(body, {node.pat.name: Var(new)})})
            renamed += 1
    return node, renamed


def classic_children(e: ClassicExpr) -> tuple[ClassicExpr, ...]:
    """The pipelines that a pipeline node composes."""
    if isinstance(e, Compose):
        return (e.first_, e.then_)
    if isinstance(e, FanoutC):
        return (e.left_, e.right_)
    return ()
