"""Abstract syntax for the arrow language.

The language has two syntactic sorts.  *Terms* are ordinary functional
expressions (booleans, pairs, lambdas, vector expressions).  *Commands* are
the effectful layer: applying a superoperator to an argument, embedding a
term, binding the result of a command, measurement, and partial trace.
Commands only occur underneath an arrow abstraction ``\\@x. <command>``.

This module defines the node types plus the purely syntactic operations on
them: free variables, capture-avoiding substitution, alpha equivalence and
pretty printing.  Every node carries an optional source position which is
ignored by equality.

Nodes are ``Record``s: immutable, declared by the annotations in the class
body.  An annotated name with no value in the class body is a compared
field: positional in the constructor, and read by ``==``, ``hash`` and
``repr``.  An annotated name given a value there is a keyword-only field
with that default, which ``==``, ``hash`` and ``repr`` ignore: ``pos`` and
the annotations the checker records, such as ``type_``.

Each term, command and type class declares its subtrees once, as the class
attribute ``child_fields``: the names of its fields that hold a term, command
or type, in field order.  Every other walk of the tree (here, in the checker
and in the rewriter) is derived from that declaration and rebuilds nodes with
``rebuild``, which returns the node itself when every field it is given
is the object the node holds, so a walk passes every field it recomputes
and shares what it does not change.
When a node class is created, ``Node`` also derives from its fields
``data_fields`` (compared fields that are neither children nor ``pat``,
such as a variable's name), ``annot_fields`` (keyword-only fields other
than ``pos``) and ``binder`` (whether it has a ``pat`` field).

The binder rule: a node with a ``pat`` field binds the pattern's names in its
*last* child only.  So ``\\x. M`` and ``\\@x. Q`` bind ``x`` in their body,
and ``let p = M in N`` binds ``p`` in ``N`` but not in ``M``.

The walks recurse from plain loops rather than comprehensions: before Python
3.12 a comprehension is a stack frame of its own, which would halve the
depth of tree a walk can take within the recursion limit.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple, Optional


class Pos(NamedTuple):
    line: int
    col: int
    source: str = "<input>"     # the file, <stdin>, <arg> or <input> it is in


class QarrowError(Exception):
    """Base of every error qarrow raises.  It renders as
    ``source:line:col: message``, or as just ``message`` with no position."""

    def __init__(self, message: str, pos: Optional[Pos] = None):
        super().__init__(message)
        self.message = message
        self.pos = pos

    def __str__(self) -> str:
        if self.pos is None:
            return self.message
        line, col, source = self.pos
        return f"{source}:{line}:{col}: {self.message}"


class Record:
    """Base of immutable records declared by annotations (see above).

    A subclass gets the tuples ``fields`` (every field, a base's first, in
    declaration order) and ``compared_fields`` (the positional ones), and
    one generated ``__init__`` that stores each field with
    ``object.__setattr__``.  Equality, hashing, ``repr`` and the refusal to
    assign are shared, and behave as a frozen dataclass's do:
    ``hash(r) == hash(tuple of its compared fields)``, and assigning or
    deleting an attribute raises ``AttributeError``.
    """

    fields = ()
    compared_fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        new = tuple(n for n in cls.__annotations__ if n not in cls.fields)
        cls.fields = cls.fields + new
        cls.compared_fields = cls.compared_fields + tuple(
            n for n in new if n not in cls.__dict__)
        cls._key = staticmethod(_getter(cls.compared_fields))
        keywords = [n for n in cls.fields if n not in cls.compared_fields]
        params = ["self", *cls.compared_fields]
        if keywords:
            params += ["*", *keywords]
        body = "".join(f"\n    _set(self, {n!r}, {n})" for n in cls.fields)
        ns = {}
        exec(f"def __init__({', '.join(params)}):{body or ' pass'}",
             _INIT_GLOBALS, ns)
        init = ns["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__kwdefaults__ = {n: getattr(cls, n) for n in keywords} or None
        cls.__init__ = init

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join([f"{n}={getattr(self, n)!r}"
                          for n in self.compared_fields])
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_INIT_GLOBALS = {"_set": object.__setattr__}


def _getter(names: tuple[str, ...]):
    """The function from a record to the tuple of its `names` fields."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda r: (get(r),)
    return attrgetter(*names) if names else lambda r: ()


class Node(Record):
    pos: Optional[Pos] = None

    child_fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        compared = cls.compared_fields
        cls.binder = "pat" in compared
        cls.data_fields = tuple(n for n in compared
                                if n != "pat" and n not in cls.child_fields)
        cls.annot_fields = tuple(n for n in cls.fields
                                 if n not in compared and n != "pos")


# --------------------------------------------------------------------------
# Types


class TypeExpr(Node):
    """Base class for type expressions."""


class BoolT(TypeExpr):
    pass


class ProdT(TypeExpr):
    left: TypeExpr
    right: TypeExpr
    child_fields = ("left", "right")


class FunT(TypeExpr):
    arg: TypeExpr
    res: TypeExpr
    child_fields = ("arg", "res")


class VecT(TypeExpr):
    elem: TypeExpr
    child_fields = ("elem",)


class SuperT(TypeExpr):
    arg: TypeExpr
    res: TypeExpr
    child_fields = ("arg", "res")


class TVar(TypeExpr):
    """The checker's unification variable; printed as ``?``."""
    uid: int


def lin_type(a: TypeExpr, b: TypeExpr) -> FunT:
    """A linear operator type is by definition a function into vectors."""
    return FunT(a, VecT(b))


def is_classical(t: TypeExpr) -> bool:
    """Classical types (finite index sets for bases): Bool and products of them."""
    if isinstance(t, BoolT):
        return True
    if isinstance(t, ProdT):
        return is_classical(t.left) and is_classical(t.right)
    return False


def type_str(t: Optional[TypeExpr]) -> str:
    """Concrete syntax of a type; an unknown type (None or a TVar) is ``?``."""
    if t is None:
        return "?"
    show = _TYPE_STR.get(type(t))
    if show is None:
        raise TypeError(f"not a printable type: {t!r}")
    return show(t)


def _type_atom(t: TypeExpr) -> str:
    s = type_str(t)
    return s if type(t) in (BoolT, ProdT, TVar) else f"({s})"


def _fun_arg(t: TypeExpr) -> str:
    s = type_str(t)
    return f"({s})" if type(t) in (FunT, SuperT) else s


# class -> its printer
_TYPE_STR = {
    TVar: lambda t: "?",
    BoolT: lambda t: "Bool",
    ProdT: lambda t: f"({type_str(t.left)},{type_str(t.right)})",
    FunT: lambda t: f"{_fun_arg(t.arg)} -> {type_str(t.res)}",
    VecT: lambda t: f"Vec {_type_atom(t.elem)}",
    SuperT: lambda t: f"Super {_type_atom(t.arg)} {_type_atom(t.res)}",
}


# --------------------------------------------------------------------------
# Patterns


class Pattern(Node):
    """A binder: a variable or a nested tuple of distinct variables."""


class PVar(Pattern):
    name: str


class PPair(Pattern):
    left: Pattern
    right: Pattern


def pattern_names(p: Pattern) -> tuple[str, ...]:
    if isinstance(p, PVar):
        return (p.name,)
    if isinstance(p, PPair):
        return pattern_names(p.left) + pattern_names(p.right)
    raise TypeError(f"not a pattern: {p!r}")


def pattern_term(p: Pattern) -> "Term":
    """The term spelled by a pattern: x or (x,y)."""
    if isinstance(p, PVar):
        return Var(p.name)
    return Pair(pattern_term(p.left), pattern_term(p.right))


# --------------------------------------------------------------------------
# Terms


class Term(Node):
    """Base class for terms."""


class Var(Term):
    name: str


class BoolLit(Term):
    value: bool


class Pair(Term):
    left: Term
    right: Term
    child_fields = ("left", "right")


class Fst(Term):
    arg: Term
    child_fields = ("arg",)


class Snd(Term):
    arg: Term
    child_fields = ("arg",)


class Eq(Term):
    left: Term
    right: Term
    child_fields = ("left", "right")


class Lam(Term):
    pat: Pattern
    body: Term
    child_fields = ("body",)


class App(Term):
    fn: Term
    arg: Term
    child_fields = ("fn", "arg")


class Let(Term):
    """Ordinary (sharing) let.  The checker rewrites vector-level binds
    into VecLet, so after elaboration a Let is always classical."""

    pat: Pattern
    bound: Term
    body: Term
    child_fields = ("bound", "body")


class If(Term):
    cond: Term
    then: Term
    orelse: Term
    child_fields = ("cond", "then", "orelse")


class VecUnit(Term):
    """[M] at the term level: the singleton vector at a classical value."""

    content: Term
    child_fields = ("content",)


class VecLet(Term):
    """Monadic bind at vector type; produced by the checker from Let."""

    pat: Pattern
    bound: Term
    body: Term
    type_: Optional[TypeExpr] = None
    child_fields = ("bound", "body")


class VecAdd(Term):
    left: Term
    right: Term
    child_fields = ("left", "right")


class VecSub(Term):
    left: Term
    right: Term
    child_fields = ("left", "right")


class VecScale(Term):
    scalar: complex
    arg: Term
    child_fields = ("arg",)


class MZero(Term):
    type_: Optional[TypeExpr] = None


class ArrowAbs(Term):
    """\\@x. Q - abstraction of a command over its input."""

    pat: Pattern
    cmd: "Command"
    type_: Optional[TypeExpr] = None
    child_fields = ("cmd",)


# --------------------------------------------------------------------------
# Commands


class Command(Node):
    """Base class for commands."""


class CApp(Command):
    """L @ M - apply a superoperator-valued term to an argument term."""

    fn: Term
    arg: Term
    fn_type: Optional[TypeExpr] = None
    child_fields = ("fn", "arg")


class CUnit(Command):
    """[M] as a command.  ``mode`` records how the checker read it:
    'classical' embeds a classical value, 'vec' lifts a vector-valued term."""

    content: Term
    mode: Optional[str] = None
    content_type: Optional[TypeExpr] = None
    child_fields = ("content",)


class CLet(Command):
    pat: Pattern
    bound: Command
    body: Command
    bound_type: Optional[TypeExpr] = None
    child_fields = ("bound", "body")


class Meas(Command):
    arg: Term
    arg_type: Optional[TypeExpr] = None
    child_fields = ("arg",)


class TrL(Command):
    arg: Term
    arg_type: Optional[TypeExpr] = None
    child_fields = ("arg",)


# --------------------------------------------------------------------------
# Programs


class Def(Node):
    name: str
    annot: Optional[TypeExpr]
    term: Term


class Program(Node):
    defs: tuple[Def, ...]


def rebuild(node: Node, changes: dict) -> Node:
    """A copy of `node` with the fields in `changes` replaced and every other
    field, ``pos`` included, copied; `node` itself when nothing changes.

    A field changes unless it is the same object: ``==`` ignores positions
    and annotations, so an equal child may be a moved or re-typed one.  A
    copy fills the new instance's dictionary from the old one's in two
    C-level updates, which costs less than calling the class with every
    field spelled out.
    """
    if not changes:
        return node
    for f, v in changes.items():
        if v is not getattr(node, f):
            break
    else:
        return node
    new = object.__new__(type(node))
    d = new.__dict__
    d.update(node.__dict__)
    d.update(changes)
    return new


# --------------------------------------------------------------------------
# Free variables

def free_vars(node) -> frozenset[str]:
    """Free variables of a term or command."""
    out: set[str] = set()
    _add_free_vars(node, frozenset(), out)
    return frozenset(out)


def _add_free_vars(node, bound: frozenset, out: set) -> None:
    # one set for the whole walk: a set per node cost about three times as
    # much on the arr lambdas of a translated program
    if type(node) is Var:
        if node.name not in bound:
            out.add(node.name)
        return
    fields = node.child_fields
    if node.binder:
        for f in fields[:-1]:
            _add_free_vars(getattr(node, f), bound, out)
        _add_free_vars(getattr(node, fields[-1]),
                       bound.union(pattern_names(node.pat)), out)
    else:
        for f in fields:
            _add_free_vars(getattr(node, f), bound, out)


# --------------------------------------------------------------------------
# Substitution

def fresh_name(base: str, avoid) -> str:
    name = base
    while name in avoid:
        name = name + "'"
    return name


def freshen_pattern(p: Pattern, names, avoid) -> tuple[Pattern, dict]:
    """Rename the variables of a pattern that `names` holds away from
    `avoid`, from the pattern's other names and from each other; returns the
    new pattern and the renaming as a substitution map."""
    taken = {*avoid, *pattern_names(p)}
    mapping: dict[str, Term] = {}

    def go(q: Pattern) -> Pattern:
        if isinstance(q, PPair):
            return PPair(go(q.left), go(q.right), pos=q.pos)
        if q.name not in names:
            return q
        new = fresh_name(q.name, taken)
        taken.add(new)
        mapping[q.name] = Var(new)
        return PVar(new, pos=q.pos)

    return go(p), mapping


def _subst_binder(pat: Pattern, body, sub, avoid):
    """Substitute into a binder's scope, freshening the pattern if it would
    capture; returns (new_pattern, new_body)."""
    bound = pattern_names(pat)
    body_fv = free_vars(body)
    live = {k: v for k, v in sub.items() if k not in bound and k in body_fv}
    if not live:
        return pat, body
    incoming = frozenset().union(*map(free_vars, live.values()))
    if not incoming.isdisjoint(bound):
        pat, renaming = freshen_pattern(
            pat, bound, incoming.union(avoid, live, body_fv))
        body = subst_map(body, renaming, avoid)
    return pat, subst_map(body, live, avoid)


def subst_map(node, sub: dict[str, Term], avoid=frozenset()):
    """Capture-avoiding simultaneous substitution on a term or command.  A
    binder renamed to avoid capture takes no name in `avoid`."""
    if type(node) is Var:
        return sub.get(node.name, node)
    names = node.child_fields
    if not sub or not names:
        return node
    changes = {}
    for f in names[:-1] if node.binder else names:
        changes[f] = subst_map(getattr(node, f), sub, avoid)
    if node.binder:
        changes["pat"], changes[names[-1]] = _subst_binder(
            node.pat, getattr(node, names[-1]), sub, avoid)
    return rebuild(node, changes)


def pattern_subst(pat: Pattern, value: Term) -> dict[str, Term]:
    """Bind each pattern variable to the matching projection of `value`."""
    if isinstance(pat, PVar):
        return {pat.name: value}
    out = pattern_subst(pat.left, Fst(value))
    out.update(pattern_subst(pat.right, Snd(value)))
    return out


# --------------------------------------------------------------------------
# Alpha equivalence

def alpha_eq(a, b) -> bool:
    return _alpha(a, b, {}, {}, [0])


def _alpha_pattern(p, q, env_a, env_b, counter) -> bool:
    if isinstance(p, PVar) and isinstance(q, PVar):
        idx = counter[0]
        counter[0] += 1
        env_a[p.name] = idx
        env_b[q.name] = idx
        return True
    if isinstance(p, PPair) and isinstance(q, PPair):
        return (_alpha_pattern(p.left, q.left, env_a, env_b, counter)
                and _alpha_pattern(p.right, q.right, env_a, env_b, counter))
    return False


def _alpha(a, b, env_a, env_b, counter) -> bool:
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is Var:
        return env_a.get(a.name, a.name) == env_b.get(b.name, b.name)
    for f in cls.data_fields:
        if getattr(a, f) != getattr(b, f):
            return False
    kids = cls.child_fields
    if cls.binder:
        *kids, body = kids
    for f in kids:
        if not _alpha(getattr(a, f), getattr(b, f), env_a, env_b, counter):
            return False
    if not cls.binder:
        return True
    env_a, env_b = dict(env_a), dict(env_b)
    return (_alpha_pattern(a.pat, b.pat, env_a, env_b, counter)
            and _alpha(getattr(a, body), getattr(b, body), env_a, env_b, counter))


# --------------------------------------------------------------------------
# Pretty printing
#
# Precedence levels mirror the parser's descent:
#   0 term (lam / arrow-lam / let / if)   1 add/sub   2 scalar *   3 ==
#   4 application   5 atom

_TERM, _ADD, _SCALE, _EQ, _APP, _ATOM = range(6)


def pretty_pattern(p: Pattern) -> str:
    if type(p) is PVar:
        return p.name
    parts = []
    while type(p) is PPair:
        parts.append(pretty_pattern(p.left))
        p = p.right
    parts.append(pretty_pattern(p))
    return "(" + ",".join(parts) + ")"


def _real_str(x: float) -> str:
    """`x` in digits the lexer reads back to `x`: ``repr``'s shortest
    round-trip digits, written out in full where ``repr`` would use an
    exponent, which the lexer does not read."""
    s = repr(x)
    if "e" in s:
        from decimal import Decimal
        s = format(Decimal(s), "f")
        if "." not in s:
            s += ".0"
    return s


def _scalar_str(c: complex) -> str:
    re, im = c.real, c.imag
    if im == 0:
        return _real_str(re)
    if re == 0:
        if im >= 0:
            return f"{_real_str(im)}i"
        return f"0.0-{_real_str(abs(im))}i"
    sign = "+" if im >= 0 else "-"
    return f"{_real_str(re)}{sign}{_real_str(abs(im))}i"


# Each printer takes a node and the precedence its position needs, and puts
# its text in parentheses when the form binds more loosely than that.  The
# printers recurse through the table ``_PRETTY`` rather than through
# ``pretty``, so that each level of a tree costs one stack frame.

def _pair(node, prec):
    parts = []
    while type(node) is Pair:
        x = node.left
        parts.append(_PRETTY[type(x)](x, _TERM))
        node = node.right
    parts.append(_PRETTY[type(node)](node, _TERM))
    return "(" + ", ".join(parts) + ")"


# The words printed before a projection's or a command's argument.
_PREFIX = {Fst: "fst", Snd: "snd", Meas: "meas", TrL: "trL"}


def _prefixed(node, prec):
    arg = node.arg
    s = f"{_PREFIX[type(node)]} {_PRETTY[type(arg)](arg, _ATOM)}"
    return f"({s})" if prec > _APP else s


def _eq(node, prec):
    a, b = node.left, node.right
    s = f"{_PRETTY[type(a)](a, _APP)} == {_PRETTY[type(b)](b, _APP)}"
    return f"({s})" if prec > _EQ else s


def _abs(node, prec):
    if type(node) is Lam:
        word, body = "\\", node.body
    else:
        word, body = "\\@", node.cmd
    s = f"{word}{pretty_pattern(node.pat)}. {_PRETTY[type(body)](body, _TERM)}"
    return f"({s})" if prec > _TERM else s


def _app(node, prec):
    fn, arg = node.fn, node.arg
    s = f"{_PRETTY[type(fn)](fn, _APP)} {_PRETTY[type(arg)](arg, _ATOM)}"
    return f"({s})" if prec > _APP else s


def _let(node, prec):
    a, b = node.bound, node.body
    s = (f"let {pretty_pattern(node.pat)} = {_PRETTY[type(a)](a, _TERM)} "
         f"in {_PRETTY[type(b)](b, _TERM)}")
    return f"({s})" if prec > _TERM else s


def _if(node, prec):
    c, a, b = node.cond, node.then, node.orelse
    s = (f"if {_PRETTY[type(c)](c, _TERM)} then {_PRETTY[type(a)](a, _TERM)} "
         f"else {_PRETTY[type(b)](b, _TERM)}")
    return f"({s})" if prec > _TERM else s


def _unit(node, prec):
    x = node.content
    return f"[{_PRETTY[type(x)](x, _TERM)}]"


def _vec_op(node, prec):
    a, b = node.left, node.right
    op = "+" if type(node) is VecAdd else "-"
    s = f"{_PRETTY[type(a)](a, _ADD)} {op} {_PRETTY[type(b)](b, _SCALE)}"
    return f"({s})" if prec > _ADD else s


def _scale(node, prec):
    x = node.arg
    s = f"{_scalar_str(node.scalar)} * {_PRETTY[type(x)](x, _EQ)}"
    return f"({s})" if prec > _SCALE else s


def _capp(node, prec):
    fn, arg = node.fn, node.arg
    s = f"{_PRETTY[type(fn)](fn, _APP)} @ {_PRETTY[type(arg)](arg, _ATOM)}"
    return f"({s})" if prec > _ADD else s


# class -> its printer
_PRETTY = {
    Var: lambda node, prec: node.name,
    BoolLit: lambda node, prec: "True" if node.value else "False",
    MZero: lambda node, prec: "mzero",
    Pair: _pair,
    Fst: _prefixed, Snd: _prefixed, Meas: _prefixed, TrL: _prefixed,
    Eq: _eq,
    Lam: _abs, ArrowAbs: _abs,
    App: _app,
    Let: _let, VecLet: _let, CLet: _let,
    If: _if,
    VecUnit: _unit, CUnit: _unit,
    VecAdd: _vec_op, VecSub: _vec_op,
    VecScale: _scale,
    CApp: _capp,
    **{cls: lambda node, prec: type_str(node) for cls in _TYPE_STR},
}


def pretty(node, prec: int = _TERM) -> str:
    """Render a term or command back to concrete syntax."""
    show = _PRETTY.get(type(node))
    if show is None:
        raise TypeError(f"pretty: unexpected node {node!r}")
    return show(node, prec)
