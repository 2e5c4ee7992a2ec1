"""Hypothesis strategies for source terms that the structural laws act on:
nested command lets (``assoc``), eta forms of arrows and functions
(``eta~>``, ``eta``), and sums and binds of vectors (``plus.assoc``,
``bind.assoc``).  Binders are drawn from a pool of three names, so inner
binders shadow outer ones and ``assoc`` meets binders it must rename.
Every term typechecks under the prelude at its kind's type: ``Super Bool
Bool`` for arrow terms, ``Bool -> Bool`` for function terms and ``Vec
Bool`` for vector terms; a few, such as ``\\@x. [x]``, need that type given."""

from hypothesis import strategies as st

POOL = ["x", "y", "z"]
GATES = ["QNot", "Had", "QMeas", "\\@g. QNot @ g"]


@st.composite
def commands(draw, scope, depth):
    """A command of type Bool over the Bool variables `scope`."""
    v = draw(st.sampled_from(scope))
    kind = draw(st.sampled_from(["leaf", "let", "let", "beta", "eta"])
                if depth else st.just("leaf"))
    if kind == "leaf":
        return draw(st.sampled_from(
            [f"[{v}]", f"[not {v}]"] + [f"({g}) @ {v}" for g in GATES]))
    if kind == "let":
        y = draw(st.sampled_from(POOL))
        bound = draw(commands(scope, depth - 1))
        body = draw(commands(sorted({*scope, y}), depth - 1))
        return f"let {y} = {bound} in {body}"
    # an arrow abstraction reads only its own input
    z = draw(st.sampled_from(POOL))
    if kind == "beta":
        return f"(\\@{z}. {draw(commands([z], depth - 1))}) @ {v}"
    return f"(\\@{z}. ({draw(arrows(depth - 1))}) @ {z}) @ {v}"


@st.composite
def arrows(draw, depth):
    """An arrow term of type ``Super Bool Bool``."""
    kind = draw(st.sampled_from(["gate", "abs", "eta"]) if depth
                else st.just("gate"))
    if kind == "gate":
        return draw(st.sampled_from(GATES))
    x = draw(st.sampled_from(POOL))
    if kind == "abs":
        return f"\\@{x}. {draw(commands([x], depth))}"
    return f"\\@{x}. ({draw(arrows(depth - 1))}) @ {x}"


@st.composite
def functions(draw, depth):
    """A function term of type ``Bool -> Bool``."""
    kind = draw(st.sampled_from(["name", "lam", "eta"]) if depth
                else st.just("name"))
    if kind == "name":
        return draw(st.sampled_from(["not", "\\b. not b", "\\b. b == True"]))
    b = draw(st.sampled_from(POOL))
    if kind == "lam":
        return f"\\{b}. ({draw(functions(depth - 1))}) (not {b})"
    return f"\\{b}. ({draw(functions(depth - 1))}) {b}"


@st.composite
def vectors(draw, scope, depth):
    """A vector term of type ``Vec Bool`` over the Bool variables
    `scope`."""
    kind = draw(st.sampled_from(["leaf", "plus", "plus", "bind", "zero"])
                if depth else st.just("leaf"))
    if kind == "leaf":
        v = draw(st.sampled_from(scope + ["True", "False"]))
        return draw(st.sampled_from([f"hadamard {v}", f"[{v}]",
                                     f"[not {v}]"]))
    if kind == "zero":
        return f"mzero + ({draw(vectors(scope, depth - 1))})"
    if kind == "plus":
        left = draw(vectors(scope, depth - 1))
        return f"({left}) + ({draw(vectors(scope, depth - 1))})"
    w = draw(st.sampled_from(POOL))
    bound = draw(vectors(scope, depth - 1))
    body = draw(vectors(sorted({*scope, w}), depth - 1))
    return f"let {w} = ({bound}) in {body}"


def terms(depth: int = 3):
    """Any of the three kinds of term, as (source, source of its type)."""
    return st.one_of(st.tuples(arrows(depth), st.just("Super Bool Bool")),
                     st.tuples(functions(depth), st.just("Bool -> Bool")),
                     st.tuples(vectors([], depth), st.just("Vec Bool")))
