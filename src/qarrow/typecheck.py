"""Typechecker and elaborator.

Judgments use an environment pair: ``gamma`` holds ordinary (function-level)
bindings, ``delta`` holds variables bound by arrow abstractions and command
lets.  The two have disjoint domains: ``EnvPair.bind`` binds a name in
one and drops it from the other.  Terms see the merged environment;
the *function position* of an arrow application is checked under ``gamma``
alone, so a ``delta`` variable there is reported as ``delta-misuse``.

Checking is monomorphic inference: unknown types are unification variables
solved on the fly, so unannotated lambdas still typecheck whenever their
use determines the type.  Where a type cannot be determined, an annotation
is required.

Besides types, checking produces an *elaborated* tree.  It shares every
node that it does not change: a node whose children come back as they were
and that records nothing new is returned itself (``syntax.rebuild``).  A
node that already records a type keeps that very object once unification
has proved it equal to the computed one (a recorded type holds no type
variable), so an elaborated tree checked again at its type comes back as
the same object.  The changes are these:

* sharing ``let`` whose bound term is vector-typed and whose body is
  vector-typed becomes a monadic ``VecLet``;
* command units record whether they embed a classical value or lift a
  vector-valued term;
* arrow abstractions, command applications, lets, ``meas``/``trL`` record
  the types the translator needs.

Where a rule needs the halves of a pair type or the element of a vector
type and the type is already known to be one, the checker reads them off
it; only an unknown or wrong type is unified against a fresh skeleton,
which gives the same solution and the same error.  So a term whose types
are all known, such as an elaborated definition checked again at its own
type, makes no unification variable, and ``finalize``, which resolves the
variables out of the recorded types, runs only when a variable was made.

The first two are mode decisions, made on the types known at the moment
the node is checked.  With no expected type, a second pass at the type the
first one inferred would see every type the first solved, and more, so it
can decide differently only where the first decided on a type that was
still an unsolved variable.  Two such decisions are *guesses*, because
with the type known they may go the other way: a ``let`` whose bound type
is unsolved is made plain, and so is one whose bound is a vector but whose
body's type is unsolved; either may turn out to be monadic.  A term whose
first pass guessed is checked once more at the type that pass inferred; any
other pass's result stands.  Two decisions on unsolved types are not
guesses:

* A command unit whose content type is unsolved is made classical, with
  the obligation that the content type be classical.  A pass succeeds only
  if its kept obligations hold at its end, so the content's type is then
  classical, and a pass that knew it would make the unit classical again.
* A monadic ``let`` whose body fails to check falls back to a plain one.
  A second pass would check that body with more of its types known; its
  decisions there are the same (a guess inside would itself have called
  for the second pass), and an equation that failed to unify fails again
  beside more equations, so the body fails again and the fallback stands.
  One case is left open: a unit inside that body whose content type was
  unsolved, since its obligation is dropped with the attempt and the
  previous point does not reach it.  ``tests/test_elaborate_once.py``
  checks results against the elaboration that always takes two passes.

The checker remembers the trees it returned.  ``elaborate_term``, when it
is given a plain gamma mapping, records of the tree it returns the type it
returned, the gamma entries it read (name to type object: ``EnvPair.lookup``
notes each read from the base) and the names its binders took
(``EnvPair.bind`` notes them).  This is subject reduction used as a cache
(Wright & Felleisen, "A syntactic approach to type soundness", 1994): an
elaborated tree checked again comes back as itself.  ``recall`` gives the
recorded type back only for that very object, and only while every name
the record read maps to the same type object in the gamma it is given; the
prover reads it instead of elaborating a side, and ``Rewriter.rename_apart``
reads the binder names.  Records are keyed by ``id`` and guarded by a weak
reference to the tree, so a record dies with its tree and a reused ``id``
never finds one.  They are neither keyed by the tree, whose ``==`` and hash
are structural, so a moved or re-typed equal tree would find one, nor
stored on the node, whose copies under ``rebuild`` would inherit a record
that no longer holds.  ``elaborate_term`` itself never reads them: a type
recorded at an annotation keeps that annotation's position, which a pass
would not.  A call given an ``EnvPair`` records nothing, and a tree
checked again is recorded again, with the type that check returned.

Error kinds: ``mismatch``, ``unbound``, ``delta-misuse``,
``non-classical-basis``, ``pattern-arity``.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from typing import Optional

from .syntax import (App, ArrowAbs, BoolLit, BoolT, CApp, CLet, CUnit, Command,
                     Eq, Fst, FunT, If, is_classical, Lam, Let, Meas, MZero,
                     Pair, Pattern, pattern_names, Pos, ProdT, Program, PVar,
                     QarrowError, rebuild, Snd, SuperT, Term, TrL, TVar,
                     type_str, TypeExpr, Var, VecAdd, VecLet, VecScale, VecSub,
                     VecT, VecUnit)


# Records are immutable and compared by value, so one Bool serves every
# literal and condition.
_BOOL = BoolT()


class TypeCheckError(QarrowError):
    def __init__(self, kind: str, pos: Optional[Pos], expected=None,
                 found=None, detail: str = ""):
        if expected is not None or found is not None:
            core = f"expected {type_str(expected)}, found {type_str(found)}"
            if detail:
                core += f" ({detail})"
        else:
            core = detail
        super().__init__(f"{kind}: {core}", pos)
        self.kind = kind


class Unifier:
    def __init__(self) -> None:
        self.subst: dict[int, TypeExpr] = {}
        self._next = 0

    def fresh(self) -> TVar:
        self._next += 1
        return TVar(self._next)

    def snapshot(self) -> dict[int, TypeExpr]:
        return dict(self.subst)

    def restore(self, snap: dict[int, TypeExpr]) -> None:
        self.subst = snap

    def head(self, t: TypeExpr) -> TypeExpr:
        while isinstance(t, TVar) and t.uid in self.subst:
            t = self.subst[t.uid]
        return t

    def _occurs(self, uid: int, t: TypeExpr) -> bool:
        t = self.head(t)
        if isinstance(t, TVar):
            return t.uid == uid
        for f in t.child_fields:
            if self._occurs(uid, getattr(t, f)):
                return True
        return False

    def unify(self, expected: TypeExpr, found: TypeExpr, pos: Optional[Pos],
              detail: str = "") -> None:
        a, b = self.head(expected), self.head(found)
        if a is b:
            return
        if isinstance(a, TVar):
            if isinstance(b, TVar) and b.uid == a.uid:
                return
            if self._occurs(a.uid, b):
                raise TypeCheckError("mismatch", pos, expected=self.resolve(a),
                                     found=self.resolve(b), detail="cyclic type")
            self.subst[a.uid] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a, pos, detail)
            return
        if type(a) is type(b):
            for f in a.child_fields:
                self.unify(getattr(a, f), getattr(b, f), pos, detail)
            return
        raise TypeCheckError("mismatch", pos, expected=self.resolve(expected),
                             found=self.resolve(found), detail=detail)

    def resolve(self, t: TypeExpr) -> TypeExpr:
        """Substitute solved variables; unsolved TVars remain."""
        t = self.head(t)
        changes = {}
        for f in t.child_fields:
            changes[f] = self.resolve(getattr(t, f))
        return rebuild(t, changes)

    def resolve_full(self, t: TypeExpr, pos: Optional[Pos]) -> TypeExpr:
        """`resolve`, where an unsolved variable is an ambiguity error."""
        t = self.head(t)
        if isinstance(t, TVar):
            raise TypeCheckError(
                "mismatch", pos,
                detail="ambiguous type; an annotation is required")
        changes = {}
        for f in t.child_fields:
            changes[f] = self.resolve_full(getattr(t, f), pos)
        return rebuild(t, changes)


def validate_type(t: TypeExpr, pos: Optional[Pos] = None) -> None:
    """Reject types whose Vec/Super arguments are not classical."""
    where = t.pos or pos
    for f in t.child_fields:
        part = getattr(t, f)
        if not isinstance(t, (VecT, SuperT)):
            validate_type(part, where)
        elif not is_classical(part):
            need = ("classical index types" if isinstance(t, SuperT)
                    else "a classical index type")
            raise TypeCheckError("non-classical-basis", where,
                                 detail=f"{type_str(t)} needs {need}")


class EnvPair:
    """gamma: function-level bindings; delta: command-level bindings;
    hidden: delta names currently out of scope (for precise errors).

    Gamma is the caller's mapping, held by reference as a read-only
    ``base`` and never copied, under a small ``local`` overlay of the names
    the checker has bound since.  Binding a name in delta takes it out of
    gamma: an overlay entry of ``None`` is a tombstone over a base entry of
    that name, so once ``hide_delta`` puts the name in ``hidden`` a lookup
    of it finds nothing and reports a delta-misuse, not the base's type.
    ``bind``, ``hide_delta`` and ``enter_command`` return a new pair that
    shares the base and copies at most the overlay and delta; no pair's
    dictionaries change after it is made.

    The notes for a record are the exception: when ``reads`` and ``bound``
    are set (by ``elaborate_term``), every pair derived from this one
    shares them, ``lookup`` notes in ``reads`` each name it reads from the
    base and the type object it found, and ``bind`` adds to ``bound`` each
    name it binds."""

    def __init__(self, gamma=None, delta=None, hidden=frozenset()):
        self.base: dict[str, TypeExpr] = gamma if gamma is not None else {}
        self.local: dict[str, Optional[TypeExpr]] = {}
        self.delta: dict[str, TypeExpr] = dict(delta or {})
        self.hidden: frozenset[str] = frozenset(hidden)
        self.reads: Optional[dict[str, Optional[TypeExpr]]] = None
        self.bound: Optional[set[str]] = None

    def _derive(self, local, delta, hidden) -> "EnvPair":
        env = object.__new__(EnvPair)
        env.base, env.local, env.delta, env.hidden = (self.base, local,
                                                      delta, hidden)
        env.reads, env.bound = self.reads, self.bound
        return env

    def lookup(self, name: str) -> Optional[TypeExpr]:
        if name in self.delta:
            return self.delta[name]
        if name in self.local:
            return self.local[name]
        ty = self.base.get(name)
        if self.reads is not None:
            self.reads[name] = ty
        return ty

    def bind(self, pairs, delta: bool = False) -> "EnvPair":
        """`pairs` of (name, type) bound in gamma, or in delta when `delta`
        is true; each name leaves the other environment and `hidden`."""
        local, dlt = dict(self.local), dict(self.delta)
        for name, ty in pairs:
            if delta:
                dlt[name] = ty
                if name in self.base:
                    local[name] = None
                else:
                    local.pop(name, None)
            else:
                local[name] = ty
                dlt.pop(name, None)
        names = [name for name, _ in pairs]
        if self.bound is not None:
            self.bound.update(names)
        return self._derive(local, dlt, self.hidden.difference(names))

    def hide_delta(self) -> "EnvPair":
        return self._derive(self.local, {}, self.hidden | set(self.delta))

    def enter_command(self) -> "EnvPair":
        """All currently visible bindings become gamma for a nested arrow body."""
        return self._derive({**self.local, **self.delta}, {}, self.hidden)


class Checker:
    def __init__(self) -> None:
        self.uni = Unifier()
        self.obligations: list[tuple[TypeExpr, Optional[Pos]]] = []
        # set when a let was made plain while its bound type, or (for a
        # vector bound) its body's type, was still an unsolved variable
        self.guessed = False

    # -- helpers

    def _classical(self, t: TypeExpr, pos: Optional[Pos]) -> None:
        self.obligations.append((t, pos))

    def _halves(self, t: TypeExpr, pos: Optional[Pos],
                what: str) -> tuple[TypeExpr, TypeExpr]:
        """The two component types of the pair type `t`."""
        h = self.uni.head(t)
        if isinstance(h, ProdT):
            return h.left, h.right
        l, r = self.uni.fresh(), self.uni.fresh()
        self.uni.unify(ProdT(l, r), t, pos, detail=f"{what} needs a pair")
        return l, r

    def _elem(self, t: TypeExpr, pos: Optional[Pos], detail: str) -> TypeExpr:
        """The element type of the vector type `t`."""
        h = self.uni.head(t)
        if isinstance(h, VecT):
            return h.elem
        elem = self.uni.fresh()
        self.uni.unify(VecT(elem), t, pos, detail=detail)
        return elem

    def check_obligations(self) -> None:
        for t, pos in self.obligations:
            r = self.uni.resolve_full(t, pos)
            if not is_classical(r):
                raise TypeCheckError("non-classical-basis", pos,
                                     detail=f"expected a classical type, found {type_str(r)}")

    def bind_pattern(self, pat: Pattern, ty: TypeExpr) -> list[tuple[str, TypeExpr]]:
        names = pattern_names(pat)
        if len(set(names)) != len(names):
            raise TypeCheckError("pattern-arity", pat.pos,
                                 detail="pattern variables must be distinct")
        out: list[tuple[str, TypeExpr]] = []

        def go(p: Pattern, t: TypeExpr) -> None:
            if isinstance(p, PVar):
                out.append((p.name, t))
                return
            h = self.uni.head(t)
            if isinstance(h, TVar):
                l, r = self.uni.fresh(), self.uni.fresh()
                self.uni.unify(h, ProdT(l, r), p.pos)
                go(p.left, l)
                go(p.right, r)
                return
            if isinstance(h, ProdT):
                go(p.left, h.left)
                go(p.right, h.right)
                return
            raise TypeCheckError("pattern-arity", p.pos,
                                 detail=f"tuple pattern against {type_str(self.uni.resolve(h))}")

        go(pat, ty)
        return out

    # -- terms

    def elaborate_term(self, env: EnvPair, t: Term,
                       expected: Optional[TypeExpr] = None) -> tuple[TypeExpr, Term]:
        ty, t2 = self._elab_term(env, t, expected)
        if expected is not None:
            self.uni.unify(expected, ty, t.pos)
        return ty, t2

    def _hint(self, expected: Optional[TypeExpr], cls) -> Optional[TypeExpr]:
        if expected is None:
            return None
        h = self.uni.head(expected)
        return h if isinstance(h, cls) else None

    def _elab_term(self, env: EnvPair, t: Term,
                   expected: Optional[TypeExpr]) -> tuple[TypeExpr, Term]:
        if isinstance(t, Var):
            ty = env.lookup(t.name)
            if ty is None:
                if t.name in env.hidden:
                    raise TypeCheckError(
                        "delta-misuse", t.pos,
                        detail=f"{t.name} is bound in the command environment "
                               f"and cannot be used here")
                raise TypeCheckError("unbound", t.pos, detail=t.name)
            return ty, t

        if isinstance(t, BoolLit):
            return _BOOL, t

        if isinstance(t, Pair):
            hint = self._hint(expected, ProdT)
            lt, l2 = self.elaborate_term(env, t.left, hint.left if hint else None)
            rt, r2 = self.elaborate_term(env, t.right, hint.right if hint else None)
            return ProdT(lt, rt), rebuild(t, {"left": l2, "right": r2})

        if isinstance(t, (Fst, Snd)):
            at, a2 = self.elaborate_term(env, t.arg)
            first = isinstance(t, Fst)
            l, r = self._halves(at, t.pos, "fst" if first else "snd")
            return (l if first else r), rebuild(t, {"arg": a2})

        if isinstance(t, Eq):
            lt, l2 = self.elaborate_term(env, t.left)
            rt, r2 = self.elaborate_term(env, t.right)
            self.uni.unify(lt, rt, t.pos, detail="== compares equal types")
            self._classical(lt, t.pos)
            return _BOOL, rebuild(t, {"left": l2, "right": r2})

        if isinstance(t, Lam):
            hint = self._hint(expected, FunT)
            arg_t: TypeExpr = hint.arg if hint else self.uni.fresh()
            env2 = env.bind(self.bind_pattern(t.pat, arg_t))
            body_t, body2 = self.elaborate_term(env2, t.body,
                                                hint.res if hint else None)
            return FunT(arg_t, body_t), rebuild(t, {"body": body2})

        if isinstance(t, App):
            ft, f2 = self.elaborate_term(env, t.fn)
            fh = self.uni.head(ft)
            if isinstance(fh, FunT):
                at, a2 = self.elaborate_term(env, t.arg, fh.arg)
                res = fh.res
            else:
                at, a2 = self.elaborate_term(env, t.arg)
                res = self.uni.fresh()
                self.uni.unify(FunT(at, res), ft, t.pos,
                               detail="application needs a function")
            return res, rebuild(t, {"fn": f2, "arg": a2})

        if isinstance(t, Let):
            bt, b2 = self.elaborate_term(env, t.bound)
            bh = self.uni.head(bt)
            if isinstance(bh, TVar):
                self.guessed = True
            elif isinstance(bh, VecT):
                snap = self.uni.snapshot()
                n_obl = len(self.obligations)
                try:
                    env2 = env.bind(self.bind_pattern(t.pat, bh.elem))
                    nt, n2 = self.elaborate_term(env2, t.body, expected)
                    nh = self.uni.head(nt)
                    if isinstance(nh, VecT):
                        self._classical(bh.elem, t.pos)
                        return nt, VecLet(t.pat, b2, n2, pos=t.pos, type_=nt)
                    if isinstance(nh, TVar):
                        self.guessed = True
                except TypeCheckError:
                    pass
                self.uni.restore(snap)
                del self.obligations[n_obl:]
            env2 = env.bind(self.bind_pattern(t.pat, bt))
            nt, n2 = self.elaborate_term(env2, t.body, expected)
            return nt, rebuild(t, {"bound": b2, "body": n2})

        if isinstance(t, VecLet):
            # Already elaborated input (e.g. re-checking a rewritten tree).
            bt, b2 = self.elaborate_term(env, t.bound)
            elem = self._elem(bt, t.pos, "vector bind")
            env2 = env.bind(self.bind_pattern(t.pat, elem))
            nt, n2 = self.elaborate_term(env2, t.body, expected)
            self._elem(nt, t.pos, "vector bind body")
            if t.type_ is not None:
                self.uni.unify(t.type_, nt, t.pos)
            self._classical(elem, t.pos)
            return nt, rebuild(t, {"bound": b2, "body": n2,
                                   "type_": t.type_ or nt})

        if isinstance(t, If):
            ct, c2 = self.elaborate_term(env, t.cond, _BOOL)
            tt, t2 = self.elaborate_term(env, t.then, expected)
            et, e2 = self.elaborate_term(env, t.orelse, expected)
            self.uni.unify(tt, et, t.pos, detail="if branches must agree")
            return tt, rebuild(t, {"cond": c2, "then": t2, "orelse": e2})

        if isinstance(t, VecUnit):
            hint = self._hint(expected, VecT)
            ct, c2 = self.elaborate_term(env, t.content,
                                         hint.elem if hint else None)
            self._classical(ct, t.pos)
            return VecT(ct), rebuild(t, {"content": c2})

        if isinstance(t, (VecAdd, VecSub)):
            lt, l2 = self.elaborate_term(env, t.left, expected)
            rt, r2 = self.elaborate_term(env, t.right, expected)
            self.uni.unify(lt, rt, t.pos, detail="vector sum of equal types")
            self._elem(lt, t.pos, "+/- applies to vector-typed terms")
            return lt, rebuild(t, {"left": l2, "right": r2})

        if isinstance(t, VecScale):
            at, a2 = self.elaborate_term(env, t.arg, expected)
            self._elem(at, t.pos, "scaling applies to vector-typed terms")
            return at, rebuild(t, {"arg": a2})

        if isinstance(t, MZero):
            if t.type_ is not None:
                validate_type(t.type_, t.pos)
            ty = t.type_ if t.type_ is not None else VecT(self.uni.fresh())
            elem = self._elem(ty, t.pos, "mzero is vector-typed")
            self._classical(elem, t.pos)
            return ty, rebuild(t, {"type_": ty})

        if isinstance(t, ArrowAbs):
            hint = self._hint(expected, SuperT)
            if hint is None and isinstance(t.type_, SuperT):
                hint = t.type_  # keep annotations from a previous elaboration
            arg_t: TypeExpr = hint.arg if hint else self.uni.fresh()
            inner = env.enter_command().bind(
                self.bind_pattern(t.pat, arg_t), delta=True)
            res_t, cmd2 = self.elaborate_command(inner, t.cmd)
            self._classical(arg_t, t.pos)
            self._classical(res_t, t.pos)
            ty = SuperT(arg_t, res_t)
            if t.type_ is not None:
                self.uni.unify(t.type_, ty, t.pos)
            return ty, rebuild(t, {"cmd": cmd2, "type_": t.type_ or ty})

        raise TypeCheckError("mismatch", t.pos, detail=f"unexpected term {t!r}")

    # -- commands

    def elaborate_command(self, env: EnvPair, c: Command) -> tuple[TypeExpr, Command]:
        if isinstance(c, CApp):
            ft, f2 = self.elaborate_term(env.hide_delta(), c.fn)
            fh = self.uni.head(ft)
            if isinstance(fh, TVar):
                a, b = self.uni.fresh(), self.uni.fresh()
                self.uni.unify(SuperT(a, b), ft, c.pos,
                               detail="arrow application needs a superoperator")
                fh = self.uni.head(ft)
            if not isinstance(fh, SuperT):
                raise TypeCheckError(
                    "mismatch", c.fn.pos or c.pos,
                    expected=SuperT(self.uni.fresh(), self.uni.fresh()),
                    found=self.uni.resolve(ft),
                    detail="arrow application needs a superoperator")
            if c.fn_type is not None:
                self.uni.unify(c.fn_type, fh, c.pos)
            at, a2 = self.elaborate_term(env, c.arg, fh.arg)
            return fh.res, rebuild(c, {"fn": f2, "arg": a2,
                                       "fn_type": c.fn_type or fh})

        if isinstance(c, CUnit):
            ct, c2 = self.elaborate_term(env, c.content)
            old = c.content_type if c.mode == "classical" else None
            if old is not None:
                self.uni.unify(old, ct, c.pos)
            ch = self.uni.head(ct)
            if isinstance(ch, VecT):
                old = c.content_type if c.mode == "vec" else None
                if old is not None:
                    self.uni.unify(old, ch.elem, c.pos)
                self._classical(ch.elem, c.pos)
                return ch.elem, rebuild(c, {"content": c2, "mode": "vec",
                                            "content_type": old or ch.elem})
            if isinstance(ch, (FunT, SuperT)):
                raise TypeCheckError(
                    "non-classical-basis", c.pos,
                    detail=f"a command unit needs a classical or vector-typed "
                           f"content, found {type_str(self.uni.resolve(ch))}")
            self._classical(ct, c.pos)
            return ct, rebuild(c, {"content": c2, "mode": "classical",
                                   "content_type": old or ct})

        if isinstance(c, CLet):
            bt, b2 = self.elaborate_command(env, c.bound)
            if c.bound_type is not None:
                self.uni.unify(c.bound_type, bt, c.pos)
            env2 = env.bind(self.bind_pattern(c.pat, bt), delta=True)
            nt, n2 = self.elaborate_command(env2, c.body)
            return nt, rebuild(c, {"bound": b2, "body": n2,
                                   "bound_type": c.bound_type or bt})

        if isinstance(c, (Meas, TrL)):
            # meas copies its classical argument; trL keeps a pair's second
            at, a2 = self.elaborate_term(env, c.arg)
            if c.arg_type is not None:
                self.uni.unify(c.arg_type, at, c.pos)
            if isinstance(c, Meas):
                res = ProdT(at, at)
            else:
                # a new pair, not the argument's own pair type: that one
                # may carry the position it was written at, and the
                # recorded pair has never had one
                at = ProdT(*self._halves(at, c.pos, "trL"))
                res = at.right
            self._classical(at, c.pos)
            return res, rebuild(c, {"arg": a2, "arg_type": c.arg_type or at})

        raise TypeCheckError("mismatch", c.pos, detail=f"unexpected command {c!r}")

    # -- finalization: resolve every recorded annotation

    def finalize(self, node):
        """Resolve every type recorded on the tree; an unsolved one is an
        ambiguity error at the node that records it."""
        changes = {}
        for f in node.child_fields:
            changes[f] = self.finalize(getattr(node, f))
        for f in node.annot_fields:
            t = getattr(node, f)
            if isinstance(t, TypeExpr):
                changes[f] = self.uni.resolve_full(t, node.pos)
        return rebuild(node, changes)


# --------------------------------------------------------------------------
# Records of the trees the checker returned


class CheckedTree(weakref.ref):
    """A weak reference to a tree that ``elaborate_term`` returned, with
    what the checker learned of it: the type it returned
    (``type_``), the gamma entries it read (``reads``, pairs of a name and
    its type object, None for a name gamma lacked) and the names its
    binders took (``binders``).  Both are tuples, which take less memory than a dict or
    a set of a few entries.  ``key`` is the tree's ``id``, under which
    ``_CHECKED`` holds the record until the tree dies.

    Only ``elaborate_term`` makes one, with ``weakref.ref.__new__`` and
    the fields set after: with a Python ``__new__`` and ``__init__``, a
    record cost about three times as much (``timeit``)."""

    __slots__ = ("key", "type_", "reads", "binders")


_CHECKED: dict[int, CheckedTree] = {}


def _forget(rec: CheckedTree) -> None:
    # called as the tree dies, before its id can be reused; the entry may
    # be a later record of the same tree, whose own call removes it
    if _CHECKED.get(rec.key) is rec:
        del _CHECKED[rec.key]


def checked(tree) -> Optional[CheckedTree]:
    """The record of `tree` itself, or None when the checker did not
    return it (or returned it under an ``EnvPair``)."""
    rec = _CHECKED.get(id(tree))
    return rec if rec is not None and rec() is tree else None


def recall(gamma: Mapping, tree) -> Optional[TypeExpr]:
    """The type ``elaborate_term`` returned with `tree` itself, to stand
    for checking `tree` again under `gamma`; None when `tree` has no
    record, or when a name the record read maps to another object in
    `gamma`."""
    rec = checked(tree)
    if rec is None:
        return None
    for name, ty in rec.reads:
        if gamma.get(name) is not ty:
            return None
    return rec.type_


# --------------------------------------------------------------------------
# Public entry points


def _elaborate_pass(env: EnvPair, term: Term, expected: Optional[TypeExpr]
                    ) -> tuple[TypeExpr, Term, bool]:
    checker = Checker()
    ty, t2 = checker.elaborate_term(env, term, expected)
    resolved = checker.uni.resolve_full(ty, term.pos)
    checker.check_obligations()
    validate_type(resolved, term.pos)
    if checker.uni._next:
        # with no variable made, every recorded type is already resolved
        t2 = checker.finalize(t2)
    return resolved, t2, checker.guessed


def elaborate_term(env, term: Term,
                   expected: Optional[TypeExpr] = None) -> tuple[TypeExpr, Term]:
    """Infer (and elaborate) a term under an environment.

    `env` may be an EnvPair or a plain mapping treated as gamma.  When no
    expected type is given and the pass guessed (made a let plain on a type
    not yet known), the term is checked once more at the type the first pass
    inferred, so that those decisions are made with fully known types.  A
    pass that guessed nothing would make the same decisions again (see the
    module docstring), so it is not repeated.

    With a plain mapping, the tree returned is recorded (see the module
    docstring); with an ``EnvPair``, nothing is.
    """
    noted = not isinstance(env, EnvPair)
    if noted:
        env = EnvPair(env)
        env.reads, env.bound = {}, set()
    ty, t2, guessed = _elaborate_pass(env, term, expected)
    if guessed and expected is None:
        ty, t2, _ = _elaborate_pass(env, term, ty)
    if noted:
        rec = weakref.ref.__new__(CheckedTree, t2, _forget)
        rec.key, rec.type_ = id(t2), ty
        rec.reads, rec.binders = tuple(env.reads.items()), tuple(env.bound)
        _CHECKED[rec.key] = rec
    return ty, t2


def elaborate_program(program: Program,
                      gamma: Optional[dict[str, TypeExpr]] = None
                      ) -> tuple[dict[str, TypeExpr], Program]:
    env = dict(gamma or {})
    types: dict[str, TypeExpr] = {}
    new_defs = []
    for d in program.defs:
        if d.annot is not None:
            validate_type(d.annot, d.pos)
        ty, t2 = elaborate_term(env, d.term, d.annot)
        env[d.name] = ty
        types[d.name] = ty
        new_defs.append(rebuild(d, {"term": t2}))
    return types, Program(tuple(new_defs))
