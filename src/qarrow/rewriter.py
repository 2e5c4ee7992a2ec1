"""Equational rewriting: single-step law application, normalization with
replayable traces, and an equality prover.

Laws operate on *elaborated* trees (so unit modes and vector types are
known).  Each law has a canonical left-to-right direction; the reverse
direction is supported only where it is deterministic and needs no type
information.

Positions are paths: tuples of non-negative child indices, with the child
order fixed per node class by its ``child_fields`` (see ``syntax.py``).
``normalize`` repeatedly applies the first law (in a fixed priority order)
at the leftmost-outermost applicable position, recording one step per
rewrite; the recorded trace replays exactly via ``apply_law_at``.

The automatic laws (``auto`` in ``Law``) are the reductions (the betas, the
units, ``let``, the boolean laws, ``delta``, the ``mzero`` laws) and the
terminating orientations of the structural laws of Lindley, Wadler & Yallop
("The Arrow Calculus", JFP 2010): ``eta~>`` and ``eta`` as contractions
(``\\@x. f @ x`` to ``f``, ``\\x. f x`` to ``f``, when x is not free in f),
and ``assoc``, ``bind.assoc`` and ``plus.assoc`` toward right-nested lets
and sums.  On elaborated terms ``eta~>``'s side condition always holds,
since f is typed without the arrow's input; it is checked all the same.
``assoc`` and ``bind.assoc`` rename the inner binder where the outer body
reads a variable of its name, so they apply wherever the shape does.
``bind.plus`` stays manual: it copies the bind's body into both summands,
so it grows terms and raises the measure below.  ``eta.x`` stays manual as
well.

Termination measure (Baader & Nipkow, *Term Rewriting and All That*, 1998,
ch. 5).  Every automatic step strictly lowers the pair (w, s), compared
lexicographically:

* w is a monotone interpretation in the style of Gandy ("Proofs of strong
  normalization", 1980), collapsed to a natural number.  A term denotes a
  natural (at least 1), a pair of denotations, or a function on them.  An
  abstraction, ``\\x. M`` or ``\\@x. M``, denotes a |-> [M](a) + |a|, where
  |a| collapses a denotation to a natural, so every construct is strictly
  monotone in each argument.  ``if c then t else e`` denotes
  |c| * ([t] + [e] + 1); a let, its body at the bound value plus that
  value's collapse; a unit, its content plus 1; ``fst p``, the first
  component plus the second's collapse; ``+``, the sum plus 1; an
  unfoldable name, its definition plus 1; an opaque name, 1.  Every
  automatic step but the three associativities lowers w, and those leave
  it no higher.
* s is the sum, over command lets and binds, of the size of the bound
  part, plus, over sums, the size of the left summand; each of the three
  associativity steps lowers it.

``tests/test_termination.py`` implements (w, s) and checks the decrease on
every step of generated normalizations.  The measure shows that
normalization ends, not that it ends soon: ``if.distrib`` may double the
term at each step.  So normalization also stops, with ``complete`` false and
``stopped`` naming the bound, when its fuel runs out or when a rewrite would
make the term larger than ``size_limit`` of the start term's size (nodes
counted over ``child_fields``).

``normalize`` walks the term once in preorder, with a zipper (Huet, "The
Zipper", JFP 1997): the focus, and the ancestors above it with the child
index taken below each.  A rewrite replaces the focus and leaves every
node before it in preorder free of redexes, except perhaps an ancestor
whose matcher reads down to the rewrite.  Every matcher reads its node and
that node's children, so the parent is tried again; ``eta`` and ``right``
read deeper, through the child that ``Law.reach`` names, so an ancestor
whose reach holds the rewrite is tried again too.  The outermost of those
that matches is the next redex; if none does, the search goes on through
the new subtree and then rightwards, rebuilding each ancestor with its new
child once, when it climbs past it.  Nodes keep their size and free
variables as facts (``syntax.Node``; ``_size`` and ``kept_free_vars``
compute them), so a step costs its redex and the nodes it builds, not the
whole term.  A step's whole tree, ``Step.result``,
is built when first read.

Definition unfolding (``delta``) is restricted to definitions that are not
arrow abstractions; programs are non-recursive, so unfolding terminates.
No binder takes a *reserved* name, the name of a definition (Barendregt's
variable convention): ``normalize`` and ``apply_law_at`` rename apart the
binders of reserved names in the term they start from, each definition's
body is renamed apart as it unfolds, and every fresh name a law picks
avoids the reserved names.  A tree the checker returned is not
walked for that when none of the binder names the checker recorded of it
is reserved (see ``typecheck``).  A definition's body reads only
earlier definitions, so a name that ``delta`` unfolds is free wherever it
stands, and no binder above it captures a name its body reads.

``prove_equal`` types each side, then normalizes both.  A side that is a
tree the checker returned is not checked again: the checker's record of it
gives its type, when every gamma entry the record read is the same type
object in ``types`` (``typecheck.recall``).  Any other side is elaborated
on its own, or at the other side's type if it is ambiguous on its own; a
side once typed is not typed again.  Only when normalization does not
decide does the prover evaluate closed terms and compare their
denotations, with ``compare_values`` from ``evaluator``, which it imports
then: rewriting and normalizing load neither the evaluator nor numpy.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from typing import Callable, Optional, TYPE_CHECKING

from .syntax import (alpha_eq, App, ArrowAbs, BoolLit, CApp, CLet, CUnit, Eq,
                     free_vars, freshen_pattern, Fst, If, kept_free_vars,
                     Lam, Let, MZero, Node, Pair, Pattern, pattern_names,
                     pattern_subst, pattern_term, pretty, PVar, QarrowError,
                     rebuild, Record, Snd, subst_map, Term, type_str,
                     TypeExpr, Var, VecAdd, VecLet, VecUnit)
from .typecheck import checked, elaborate_term, recall, TypeCheckError

if TYPE_CHECKING:
    import numpy as np


class RewriteError(QarrowError):
    pass


# --------------------------------------------------------------------------
# Paths

def get_at(node: Node, path: tuple[int, ...]) -> Node:
    for i in path:
        if not 0 <= i < len(node.child_fields):
            raise RewriteError(f"path {path} leaves the tree")
        node = getattr(node, node.child_fields[i])
    return node


def replace_at(node: Node, path: tuple[int, ...], new: Node) -> Node:
    if not path:
        return new
    fields = node.child_fields
    i = path[0]
    if not 0 <= i < len(fields):
        raise RewriteError(f"path {path} leaves the tree")
    child = replace_at(getattr(node, fields[i]), path[1:], new)
    return rebuild(node, {fields[i]: child})


# --------------------------------------------------------------------------
# Law matchers: node -> rewritten node, or None if not applicable.  A
# left-to-right matcher is only run on a node of its law's head class.

# The command law and the term law of each twin (beta~> and beta, eta~> and
# eta, left and bind.left, right and bind.right) share one matcher, which
# looks up here the class it wants under its head: the abstraction an
# application applies, the application an abstraction's body is, the unit a
# let binds.  A binder's body is its last child.
_PARTNER = {CApp: ArrowAbs, App: Lam, ArrowAbs: CApp, Lam: App,
            CLet: CUnit, VecLet: VecUnit}


def _beta(rw, n):
    # (\@p. C) @ M  ==>  C[M/p], and (\p. N) M  ==>  N[M/p]
    fn = n.fn
    if isinstance(fn, _PARTNER[type(n)]):
        return subst_map(getattr(fn, fn.child_fields[-1]),
                         pattern_subst(fn.pat, n.arg), rw.reserved)
    return None


def _eta(rw, n):
    # \@x. f @ x  ==>  f, and \x. f x  ==>  f, when x is not free in f
    body = getattr(n, n.child_fields[-1])
    if (isinstance(n.pat, PVar) and isinstance(body, _PARTNER[type(n)])
            and isinstance(body.arg, Var) and body.arg.name == n.pat.name
            and n.pat.name not in kept_free_vars(body.fn)):
        return body.fn
    return None


def _classical_unit(let, n) -> bool:
    """Whether `n` is a unit of `let`'s kind that embeds a classical value:
    a ``VecUnit`` always does, a ``CUnit`` when its mode says so."""
    return (isinstance(n, _PARTNER[type(let)])
            and getattr(n, "mode", "classical") == "classical")


def _left(rw, n):
    # let p = [M] in N  ==>  N[M/p], for a command let and for a bind
    if _classical_unit(n, n.bound):
        return subst_map(n.body, pattern_subst(n.pat, n.bound.content),
                         rw.reserved)
    return None


def _right(rw, n):
    # let p = M in [p]  ==>  M
    if (_classical_unit(n, n.body)
            and alpha_eq(n.body.content, pattern_term(n.pat))):
        return n.bound
    return None


def _unshadow(rw, pat: Pattern, body: Node, outer: Pattern, rest: Node):
    """The inner binder `pat` over `body`, renamed so that it can also scope
    over `rest`: each of its names that `rest` reads, other than through the
    outer binder `outer`, becomes fresh, in `pat` and in `body`."""
    outer_names = set(pattern_names(outer))
    rest_fv = kept_free_vars(rest) - outer_names
    clash = rest_fv.intersection(pattern_names(pat))
    if not clash:
        return pat, body
    avoid = {*rest_fv, *kept_free_vars(body), *outer_names, *rw.reserved}
    pat, renaming = freshen_pattern(pat, clash, avoid)
    return pat, subst_map(body, renaming, rw.reserved)


# assoc and bind.assoc keep a matcher each, as they rebuild different
# annotations: a command let's bound_type is that of its bound command, a
# bind's type_ that of the whole bind

def _assoc(rw, n):
    # let y = (let x = P in Q) in R  ==>  let x = P in let y = Q in R
    if isinstance(n.bound, CLet):
        pat, q = _unshadow(rw, n.bound.pat, n.bound.body, n.pat, n.body)
        inner = CLet(n.pat, q, n.body, bound_type=n.bound_type)
        return CLet(pat, n.bound.bound, inner, bound_type=n.bound.bound_type)
    return None


def _assoc_r(rw, n):
    if (isinstance(n, CLet) and isinstance(n.body, CLet)
            and kept_free_vars(n.body.body).isdisjoint(pattern_names(n.pat))
            and not set(pattern_names(n.pat)) & set(pattern_names(n.body.pat))):
        outer_bound = CLet(n.pat, n.bound, n.body.bound,
                           bound_type=n.bound_type)
        return CLet(n.body.pat, outer_bound, n.body.body,
                    bound_type=n.body.bound_type)
    return None


def _bind_assoc(rw, n):
    if isinstance(n.bound, VecLet):
        pat, q = _unshadow(rw, n.bound.pat, n.bound.body, n.pat, n.body)
        inner = VecLet(n.pat, q, n.body, type_=n.type_)
        return VecLet(pat, n.bound.bound, inner, type_=n.type_)
    return None


def _bind_assoc_r(rw, n):
    if (isinstance(n, VecLet) and isinstance(n.body, VecLet)
            and kept_free_vars(n.body.body).isdisjoint(pattern_names(n.pat))
            and not set(pattern_names(n.pat)) & set(pattern_names(n.body.pat))):
        # the type of the regrouped bound (that of the inner bound term) is
        # not recorded on the node; re-elaborate before normalizing further
        outer_bound = VecLet(n.pat, n.bound, n.body.bound, type_=None)
        return VecLet(n.body.pat, outer_bound, n.body.body, type_=n.body.type_)
    return None


def _beta_pair(rw, n):
    # fst (M, N)  ==>  M, and snd (M, N)  ==>  N
    if isinstance(n.arg, Pair):
        return n.arg.left if isinstance(n, Fst) else n.arg.right
    return None


def _eta_pair(rw, n):
    if (isinstance(n.left, Fst) and isinstance(n.right, Snd)
            and alpha_eq(n.left.arg, n.right.arg)):
        return n.left.arg
    return None


def _let_subst(rw, n):
    return subst_map(n.body, pattern_subst(n.pat, n.bound), rw.reserved)


def _if_true(rw, n):
    if isinstance(n.cond, BoolLit) and n.cond.value:
        return n.then
    return None


def _if_false(rw, n):
    if isinstance(n.cond, BoolLit) and not n.cond.value:
        return n.orelse
    return None


def _eq_lit(rw, n):
    if isinstance(n.left, BoolLit) and isinstance(n.right, BoolLit):
        return BoolLit(n.left.value == n.right.value)
    return None


def _eq_true(rw, n):
    if isinstance(n.right, BoolLit) and n.right.value:
        return n.left
    if isinstance(n.left, BoolLit) and n.left.value:
        return n.right
    return None


def _if_distrib(rw, n):
    if isinstance(n.cond, If):
        c = n.cond
        return If(c.cond, If(c.then, n.then, n.orelse),
                  If(c.orelse, n.then, n.orelse))
    return None


def _if_distrib_r(rw, n):
    if (isinstance(n, If) and isinstance(n.then, If)
            and isinstance(n.orelse, If)
            and alpha_eq(n.then.then, n.orelse.then)
            and alpha_eq(n.then.orelse, n.orelse.orelse)):
        return If(If(n.cond, n.then.cond, n.orelse.cond),
                  n.then.then, n.then.orelse)
    return None


def _if_eta(rw, n):
    if (isinstance(n.then, BoolLit) and n.then.value
            and isinstance(n.orelse, BoolLit) and not n.orelse.value):
        return n.cond
    return None


def _zero_bind(rw, n):
    if isinstance(n.bound, MZero) and n.type_ is not None:
        return MZero(type_=n.type_)
    return None


def _bind_zero(rw, n):
    if isinstance(n.body, MZero):
        return MZero(type_=n.body.type_ or n.type_)
    return None


def _zero_plus(rw, n):
    if isinstance(n.left, MZero):
        return n.right
    return None


def _plus_zero(rw, n):
    if isinstance(n.right, MZero):
        return n.left
    return None


def _plus_assoc(rw, n):
    if isinstance(n.left, VecAdd):
        return VecAdd(n.left.left, VecAdd(n.left.right, n.right))
    return None


def _plus_assoc_r(rw, n):
    if isinstance(n, VecAdd) and isinstance(n.right, VecAdd):
        return VecAdd(VecAdd(n.left, n.right.left), n.right.right)
    return None


def _bind_plus(rw, n):
    if isinstance(n.bound, VecAdd):
        return VecAdd(VecLet(n.pat, n.bound.left, n.body, type_=n.type_),
                      VecLet(n.pat, n.bound.right, n.body, type_=n.type_))
    return None


def _bind_plus_r(rw, n):
    if (isinstance(n, VecAdd) and isinstance(n.left, VecLet)
            and isinstance(n.right, VecLet)
            and n.left.pat == n.right.pat
            and alpha_eq(n.left.body, n.right.body)):
        return VecLet(n.left.pat, VecAdd(n.left.bound, n.right.bound),
                      n.left.body, type_=n.left.type_)
    return None


def _delta(rw, n):
    body = rw.defs.get(n.name)
    if body is None or isinstance(body, ArrowAbs):
        return None
    return rw.rename_apart(body)


# --------------------------------------------------------------------------
# The laws


class Law(Enum):
    """The laws, each declared once.  A member's value is its name in
    traces; it also has ``head``, the class at the head of its left-hand
    side; ``auto``, whether normalization applies it; ``grows``, whether a
    step may make the term larger (it substitutes, unfolds or distributes);
    ``reach``, where its matcher reads below its node's children; and its
    matchers ``l2r`` and ``r2l``, the second None where the law has no
    right-to-left direction.  Declaration order is normalization's priority
    order among the laws of one head.

    Every automatic matcher reads its node and that node's children (their
    classes, data and annotations) and nothing deeper, except where
    ``reach`` is ``(i, cls)``: then, when child ``i`` is of class ``cls``,
    the matcher may read all of that child's subtree.  So ``eta``'s
    freeness test reads the whole application under the abstraction, and
    ``right``'s comparison the whole content of the unit."""

    def __new__(cls, name, head, auto, grows, reach, l2r, r2l=None):
        law = object.__new__(cls)
        law._value_ = name
        law.head, law.auto, law.grows, law.reach = head, auto, grows, reach
        law.l2r, law.r2l = l2r, r2l
        return law

    # name, head, auto, grows, reach, l2r[, r2l]
    BETA_ARROW = "beta~>", CApp, True, True, None, _beta
    ETA_ARROW = "eta~>", ArrowAbs, True, False, (0, CApp), _eta
    LEFT_UNIT = "left", CLet, True, True, None, _left
    RIGHT_UNIT = "right", CLet, True, False, (1, CUnit), _right
    ASSOC = "assoc", CLet, True, False, None, _assoc, _assoc_r
    BETA_FUN = "beta", App, True, True, None, _beta
    ETA_FUN = "eta", Lam, True, False, (0, App), _eta
    BETA_PAIR1 = "beta.1", Fst, True, False, None, _beta_pair
    BETA_PAIR2 = "beta.2", Snd, True, False, None, _beta_pair
    ETA_PAIR = "eta.x", Pair, False, False, None, _eta_pair
    LET_SUBST = "let", Let, True, True, None, _let_subst
    IF_TRUE = "if.true", If, True, False, None, _if_true
    IF_FALSE = "if.false", If, True, False, None, _if_false
    EQ_LIT = "eq.lit", Eq, True, False, None, _eq_lit
    EQ_TRUE = "eq.true", Eq, True, False, None, _eq_true
    IF_DISTRIB = "if.distrib", If, True, True, None, _if_distrib, _if_distrib_r
    IF_ETA = "if.eta", If, True, False, None, _if_eta
    BIND_LEFT = "bind.left", VecLet, True, True, None, _left
    BIND_RIGHT = "bind.right", VecLet, True, False, (1, VecUnit), _right
    ZERO_BIND = "zero.bind", VecLet, True, False, None, _zero_bind
    BIND_ZERO = "bind.zero", VecLet, True, False, None, _bind_zero
    BIND_ASSOC = ("bind.assoc", VecLet, True, False, None, _bind_assoc,
                  _bind_assoc_r)
    ZERO_PLUS = "zero.plus", VecAdd, True, False, None, _zero_plus
    PLUS_ZERO = "plus.zero", VecAdd, True, False, None, _plus_zero
    PLUS_ASSOC = ("plus.assoc", VecAdd, True, False, None, _plus_assoc,
                  _plus_assoc_r)
    BIND_PLUS = "bind.plus", VecLet, False, True, None, _bind_plus, _bind_plus_r
    DELTA = "delta", Var, True, True, None, _delta


# the (law, matcher) pairs to try at a node, by its exact class (node
# classes are not subclassed), in priority order
_AUTO_BY_CLASS: dict[type, tuple[tuple[Law, Callable], ...]] = {
    head: tuple((law, law.l2r) for law in Law if law.auto and law.head is head)
    for head in dict.fromkeys(law.head for law in Law if law.auto)
}

# (head, child index, child class) of each automatic law's reach
_REACHES = frozenset((law.head, *law.reach) for law in Law
                     if law.auto and law.reach)
_REACH_HEADS = frozenset(head for head, _, _ in _REACHES)


def size_limit(size: int) -> int:
    """The largest term, in nodes, that normalizing a term of `size` nodes
    may build."""
    return 64 * size + 1024


def _size(node: Node) -> int:
    """The number of nodes of `node`, counted over ``child_fields``;
    computed once per node and kept in its ``_size`` slot."""
    n = getattr(node, "_size", None)
    if n is None:
        n = 1
        for f in node.child_fields:
            n += _size(getattr(node, f))
        object.__setattr__(node, "_size", n)
    return n


# --------------------------------------------------------------------------
# Traces


class Step(Record):
    """One rewrite: `law` at `path` in the tree before it, giving `result`,
    the whole tree after it.

    A step that ``normalize`` records builds its `result` on first read
    and keeps it: its slot ``_replay`` holds the step before it (or the
    tree normalization started from) and the subtree it put at `path`, and
    the read replays ``replace_at`` from the nearest earlier step whose
    tree is built, keeping each tree it builds.  The last step's `result`
    is its trace's `end`, built as the search ends."""

    __slots__ = ("_replay",)

    law: Law
    path: tuple[int, ...]
    direction: str          # "L2R" | "R2L"
    result: Node            # whole tree after this step

    def __getattr__(self, name):
        if name != "result":
            raise AttributeError(name)
        pending = []
        tree = self
        while type(tree) is Step:
            if "result" in tree.__dict__:
                tree = tree.result
                break
            pending.append(tree)
            tree = tree._replay[0]
        for step in reversed(pending):
            tree = replace_at(tree, step.path, step._replay[1])
            _keep_result(step, tree)
        return tree

    def __reduce__(self):
        # copy and pickle a step with its tree built, not its replay slot
        return Step, (self.law, self.path, self.direction, self.result)


def _step(law: Law, path: tuple[int, ...], before, new: Node) -> Step:
    """A left-to-right step whose result is built on first read, from
    `before` (a step or a tree) and the subtree `new` put at `path`."""
    step = object.__new__(Step)
    step.__dict__.update(law=law, path=path, direction="L2R")
    object.__setattr__(step, "_replay", (before, new))
    return step


def _keep_result(step: Step, tree: Node) -> None:
    object.__setattr__(step, "result", tree)
    object.__delattr__(step, "_replay")


class ProofTrace(Record):
    start: Node
    steps: tuple[Step, ...]
    end: Node
    complete: bool          # False when a bound stopped normalization
    stopped: Optional[str] = None   # that bound: "fuel" or "size"


_STOP_NOTES = {"fuel": "fuel exhausted", "size": "size bound reached"}


def render_trace(trace: ProofTrace) -> str:
    lines = ["    " + pretty(trace.start)]
    for step in trace.steps:
        lines.append(f"= {{ {step.law.value} }}")
        lines.append("    " + pretty(step.result))
    if not trace.complete:
        note = _STOP_NOTES[trace.stopped or "fuel"]
        lines.append(f"-- {note}; not a normal form")
    return "\n".join(lines)


def trace_to_json(trace: ProofTrace) -> dict:
    out = {
        "start": pretty(trace.start),
        "steps": [{"law": s.law.value,
                   "path": list(s.path),
                   "direction": s.direction,
                   "result": pretty(s.result)} for s in trace.steps],
        "end": pretty(trace.end),
        "complete": trace.complete,
    }
    if not trace.complete:
        out["stopped"] = trace.stopped or "fuel"
    return out


# --------------------------------------------------------------------------
# The rewriter


class Rewriter:
    """Applies the laws, unfolding `defs`, where every free name of a
    definition's body must be an earlier definition.  The names of `defs`
    are reserved: no binder of a term the rewriter builds takes one."""

    def __init__(self, defs: Optional[dict[str, Term]] = None,
                 fuel: int = 10000):
        self.defs = defs or {}
        self.reserved = frozenset(self.defs)
        self.fuel = fuel

    def rename_apart(self, node: Node) -> Node:
        """`node` with every binder of a reserved name renamed to a fresh
        name that is not reserved; `node` itself when no binder takes a
        reserved name.  A tree the checker returned is not walked when the
        binder names it recorded are not reserved."""
        rec = checked(node)
        if rec is not None and self.reserved.isdisjoint(rec.binders):
            return node
        return self._rename_apart(node)

    def _rename_apart(self, node: Node) -> Node:
        changes = {}
        for f in node.child_fields:
            changes[f] = self._rename_apart(getattr(node, f))
        if node.binder:
            clash = self.reserved.intersection(pattern_names(node.pat))
            if clash:
                scope = node.child_fields[-1]
                body = changes[scope]
                changes["pat"], renaming = freshen_pattern(
                    node.pat, clash, self.reserved | kept_free_vars(body))
                changes[scope] = subst_map(body, renaming, self.reserved)
        return rebuild(node, changes)

    def try_law(self, node: Node, law: Law,
                direction: str = "L2R") -> Optional[Node]:
        if direction == "L2R":
            return law.l2r(self, node) if isinstance(node, law.head) else None
        if direction != "R2L":
            raise RewriteError(
                f"direction must be L2R or R2L, not {direction!r}")
        if law.r2l is None:
            raise RewriteError(
                f"direction R2L is not supported for {law.value}")
        return law.r2l(self, node)

    def apply_law_at(self, root: Node, path: tuple[int, ...], law: Law,
                     direction: str = "L2R") -> Node:
        root = self.rename_apart(root)
        new = self.try_law(get_at(root, path), law, direction)
        if new is None:
            raise RewriteError(
                f"{law.value} ({direction}) is not applicable at {path}")
        return replace_at(root, path, new)

    def normalize(self, node: Node, fuel: Optional[int] = None) -> ProofTrace:
        fuel = self.fuel if fuel is None else fuel
        start = node
        node = self.rename_apart(node)
        steps: list[Step] = []
        before = node           # what the next step replays from
        stopped = None
        # `size` bounds the term's size from above; it is exact at the start
        # and whenever it is recomputed, which it is only near the limit
        size = _size(node)
        limit = size_limit(size)
        # the zipper: the focus, the ancestors above it from the root down
        # and the child index taken below each.  An ancestor is rebuilt with
        # its new child when the search climbs past it.  `deep` holds the
        # depths of the ancestors whose reach holds the focus.
        focus = node
        spine: list[Node] = []
        path: list[int] = []
        deep: list[int] = []
        while True:
            for law, match in _AUTO_BY_CLASS.get(type(focus), ()):
                new = match(self, focus)
                if new is not None:
                    break
            else:
                # no redex here: on to the next node in preorder, the first
                # child, else the nearest right sibling of it or an ancestor
                fields = focus.child_fields
                if fields:
                    spine.append(focus)
                    path.append(0)
                    focus = getattr(focus, fields[0])
                    if type(spine[-1]) in _REACH_HEADS:
                        _note_reach(spine, path, focus, deep)
                    continue
                while spine:
                    parent = spine[-1]
                    fields = parent.child_fields
                    i = path[-1]
                    if getattr(parent, fields[i]) is not focus:
                        parent = spine[-1] = rebuild(parent, {fields[i]: focus})
                    i += 1
                    if i < len(fields):
                        path[-1] = i
                        focus = getattr(parent, fields[i])
                        if type(parent) in _REACH_HEADS:
                            _note_reach(spine, path, focus, deep)
                        break
                    spine.pop()
                    path.pop()
                    if deep and deep[-1] == len(spine):
                        deep.pop()
                    focus = parent
                else:
                    break       # the root is searched: a normal form
                continue
            while new is not None:      # `law` rewrites the focus to `new`
                if fuel <= 0:
                    stopped = "fuel"
                    break
                if law.grows:
                    growth = _size(new) - _size(focus)
                    size += growth
                    if size > limit:
                        size = _size(_put_back(spine, path, focus)) + growth
                        if size > limit:
                            stopped = "size"
                            break
                before = _step(law, tuple(path), before, new)
                steps.append(before)
                fuel -= 1
                focus, new = new, None
                if spine:
                    if type(spine[-1]) in _REACH_HEADS:
                        _note_reach(spine, path, focus, deep)
                    law, new, focus = self._retry(spine, path, focus, deep)
            if stopped is not None:
                break
        end = _put_back(spine, path, focus)
        if steps:
            _keep_result(steps[-1], end)
        return ProofTrace(start, tuple(steps), end, stopped is None,
                          stopped=stopped)

    def _retry(self, spine: list[Node], path: list[int], focus: Node,
               deep: list[int]):
        """After a rewrite at the focus, try again the ancestors where a law
        can newly match: the parent, and those in `deep`.  Returns the first
        law that applies at the outermost one that does, the law's result
        and that ancestor, which becomes the focus, with the zipper cut to
        it; else (None, None, `focus`)."""
        parent = len(spine) - 1
        tried = [j for j in deep if j < parent]
        if type(spine[parent]) in _AUTO_BY_CLASS:
            tried.append(parent)
        if not tried:
            return None, None, focus
        _put_back(spine, path, focus, tried[0])
        for j in tried:
            node = spine[j]
            for law, match in _AUTO_BY_CLASS.get(type(node), ()):
                new = match(self, node)
                if new is not None:
                    del spine[j:], path[j:]
                    while deep and deep[-1] >= j:
                        deep.pop()
                    return law, new, node
        return None, None, focus


def _note_reach(spine: list[Node], path: list[int], focus: Node,
                deep: list[int]) -> None:
    """Note in `deep` whether the reach of a law of the focus's parent holds
    the focus, the parent's child at the last index of `path`."""
    j = len(spine) - 1
    if deep and deep[-1] == j:
        deep.pop()
    if (type(spine[j]), path[j], type(focus)) in _REACHES:
        deep.append(j)


def _put_back(spine: list[Node], path: list[int], node: Node,
              top: int = 0) -> Node:
    """`node` put back under the ancestors in `spine` up to depth `top`:
    each ancestor whose child changed is rebuilt and replaces its old self
    in `spine`.  Returns the ancestor at `top`, or `node` if there is none."""
    for j in range(len(spine) - 1, top - 1, -1):
        parent = spine[j]
        f = parent.child_fields[path[j]]
        if getattr(parent, f) is not node:
            parent = spine[j] = rebuild(parent, {f: node})
        node = parent
    return node


def apply_law_at(root: Node, path: tuple[int, ...], law: Law,
                 direction: str = "L2R",
                 defs: Optional[dict[str, Term]] = None) -> Node:
    return Rewriter(defs).apply_law_at(root, path, law, direction)


def normalize(node: Node, defs: Optional[dict[str, Term]] = None,
              fuel: int = 10000) -> ProofTrace:
    return Rewriter(defs, fuel).normalize(node)


# --------------------------------------------------------------------------
# Equality prover


class ProvedByNormalization(Record):
    left_trace: ProofTrace
    right_trace: ProofTrace

    kind = "proved-by-normalization"

    def describe(self) -> str:
        n = len(self.left_trace.steps) + len(self.right_trace.steps)
        return f"equal: both sides normalize to the same term ({n} steps)"


class ProvedSemantically(Record):
    max_diff: float
    left_trace: ProofTrace
    right_trace: ProofTrace

    kind = "proved-semantically"

    def describe(self) -> str:
        return (f"equal: normal forms differ syntactically but denotations "
                f"agree (max deviation {self.max_diff:.3e})")


class NotEqual(Record):
    reason: str
    witness: Optional[np.ndarray] = None    # a density that separates them

    kind = "not-equal"

    def describe(self) -> str:
        return f"not equal: {self.reason}"


class Unknown(Record):
    reason: str

    kind = "unknown"

    def describe(self) -> str:
        return f"unknown: {self.reason}"


def _recall_or_elaborate(types: Mapping, side: Term) -> tuple[TypeExpr, Term]:
    """`side`'s type and elaborated tree: the checker's record of `side`
    where its guards hold (``typecheck.recall``), else a new elaboration."""
    ty = recall(types, side)
    if ty is not None:
        return ty, side
    return elaborate_term(types, side)


def prove_equal(left: Term, right: Term, *, types: dict, env: Mapping,
                defs: Optional[dict[str, Term]] = None,
                fuel: int = 10000, tol: float = 1e-9):
    """Decide whether two terms are equal: first by normalization, then by
    evaluating closed terms and comparing denotations.  `env` maps names to
    values; only the second stage reads a value, so `env` may evaluate them
    on first lookup.

    A side that is a tree ``elaborate_term`` returned, under a gamma whose
    entries it read are the very type objects in `types`, takes the type
    recorded with it and is not elaborated again, even where the tree is
    ambiguous on its own: a tree that ``elaborate_term`` returned for
    ``\\x. x`` at ``Bool -> Bool`` proves equal to itself, where a tree the
    checker never returned is ambiguous.  Any other side is elaborated on
    its own, or at the other side's type if it is ambiguous on its own."""
    lt = rt = None
    left_err = right_err = None
    try:
        lt, left2 = _recall_or_elaborate(types, left)
    except TypeCheckError as e:
        left_err = e
    try:
        rt, right2 = _recall_or_elaborate(types, right)
    except TypeCheckError as e:
        right_err = e
    try:
        # one side may be ambiguous on its own; borrow the other's type
        if lt is None and rt is not None:
            lt, left2 = elaborate_term(types, left, rt)
        elif rt is None and lt is not None:
            rt, right2 = elaborate_term(types, right, lt)
    except TypeCheckError as e:
        return Unknown(f"typechecking failed: {e}")
    if lt is None or rt is None:
        err = left_err or right_err
        return Unknown(f"typechecking failed: {err}")
    if type_str(lt) != type_str(rt):
        return NotEqual(f"types differ: {type_str(lt)} vs {type_str(rt)}")

    rw = Rewriter(defs, fuel)
    ltr = rw.normalize(left2)
    rtr = rw.normalize(right2)
    if ltr.complete and rtr.complete and alpha_eq(ltr.end, rtr.end):
        return ProvedByNormalization(ltr, rtr)

    closed = (free_vars(left2) | free_vars(right2)) <= set(env.keys())
    if closed:
        # the semantic stage is the only part of the prover that evaluates
        from .evaluator import compare_values, eval_term
        env = dict(env)     # evaluates a lazy environment's values once
        diff, wit = compare_values(eval_term(left2, env),
                                   eval_term(right2, env), lt, tol)
        if diff != diff:  # NaN: incomparable values
            return Unknown("values of this type cannot be compared "
                           "extensionally")
        if diff <= tol:
            return ProvedSemantically(diff, ltr, rtr)
        if isinstance(wit, tuple):
            gap, rho = wit
            if gap > 1e-6:
                return NotEqual(
                    f"denotations differ (max deviation {diff:.3e}); a pure "
                    f"state separates them by {gap:.3e}",
                    witness=rho)
            return Unknown(
                f"matrix actions differ by {diff:.3e} but no probed state "
                f"separates them beyond 1e-6")
        if diff > 1e-6:
            return NotEqual(f"denotations differ (max deviation {diff:.3e})",
                            witness=wit)
        return Unknown(f"denotations differ by {diff:.3e}, between the "
                       f"tolerance {tol:g} and 1e-6")

    if not (ltr.complete and rtr.complete):
        stopped = ltr.stopped or rtr.stopped
        return Unknown("normalization ran out of fuel" if stopped == "fuel"
                       else "normalization reached its size bound")
    return Unknown("open terms with distinct normal forms")
