"""Evaluator behaviour: value forms, vector arithmetic, and the batched
pipeline semantics checked against dense oracles and ``reference_super``."""

import tracemalloc

import numpy as np
import pytest

from qarrow import (
    BoolT,
    ClosureV,
    EvalError,
    FunT,
    ProdT,
    SuperT,
    SuperV,
    VecT,
    VecV,
    apply_closure,
    elaborate_term,
    elaborate_program,
    eval_program,
    eval_term,
    parse_program,
    parse_term,
    pure_density,
    run_super,
    translate_term,
)
from qarrow.classic import Arr, FanoutC, NamedSuper
from qarrow.evaluator import (
    _arr_index_map,
    _fanout_forms,
    _plan,
    _scatter_plan,
    elem_type_of_value,
    est_cells,
    eval_arrow_abs,
)
from qarrow.linalg import basis, dim
from qarrow.syntax import rebuild

import randprog
from dense_arrow import (super_arr, super_first, super_from_lin, super_meas,
                         super_second, super_trL)
from helpers import (classic_children, dens_close, materialize_lin,
                     matrix_built, random_density)
from reference import choi, reference_super

B = BoolT()
BB = ProdT(B, B)
INV = 1 / np.sqrt(2)
H = np.array([[1, 1], [1, -1]], dtype=complex) * INV
X = np.array([[0, 1], [1, 0]], dtype=complex)
RNG = np.random.default_rng(20240818)


def ev(src, env=None):
    return eval_term(parse_term(src), dict(env or {}))


def elab(prelude, src, expected=None):
    _, term = elaborate_term(prelude.types, parse_term(src), expected)
    return term


def super_of(prelude, src, expected=None):
    v = eval_term(elab(prelude, src, expected), dict(prelude.env))
    assert isinstance(v, SuperV)
    return v.val


# --------------------------------------------------------------------------
# Classical values


def test_literals_and_pairs():
    v = ev("(True, (False, True))")
    assert type(v) is tuple and v == (True, (False, True))
    assert v[0] is True and v[1][0] is False and v[1][1] is True


def test_projections():
    assert ev("fst (True, False)") is True
    assert ev("snd (True, False)") is False
    assert ev("snd (fst ((True, False), True))") is False


def test_structural_equality():
    assert ev("(False, True) == (False, True)") is True
    assert ev("(False, True) == (True, True)") is False
    assert ev("True == False") is False


def test_equality_refuses_values_that_are_not_basis_values():
    for src in ("(\\x. x) == (\\x. x)", "(True, \\x. x) == (True, \\x. x)",
                "[True] == [True]"):
        with pytest.raises(EvalError, match="not a basis value"):
            ev(src)


def test_lambda_application():
    assert ev("(\\x. x) True") is True
    assert ev("(\\(a, b). (b, a)) (True, False)") == (False, True)


def test_let_pattern_and_shadowing():
    out = ev("let (a, b) = (True, False) in let a = b in (a, a)")
    assert out == (False, False)


def test_conditional():
    assert ev("if True == True then False else True") is False


def test_closures_capture_their_environment():
    pairer = ev("(\\x. \\y. (x, y)) True")
    assert isinstance(pairer, ClosureV)
    assert apply_closure(pairer, False) == (True, False)


def test_pairs_hold_any_value():
    v = ev("(\\x. x, [True])")
    assert isinstance(v, tuple)
    assert isinstance(v[0], ClosureV) and isinstance(v[1], VecV)
    assert repr(v) == "(<closure>, <vec dim 2>)"


def test_classical_error_paths():
    with pytest.raises(EvalError, match="unbound"):
        ev("nope")
    with pytest.raises(EvalError, match="non-function"):
        apply_closure(True, False)
    with pytest.raises(EvalError, match="non-pair"):
        ev("fst True")


def test_elem_type_of_basis_values():
    t = ProdT(BB, B)
    for elem in basis(t):
        assert elem_type_of_value(elem) == t
    with pytest.raises(EvalError, match="not a basis value"):
        elem_type_of_value((True, ev("\\x. x")))


# --------------------------------------------------------------------------
# Vectors


def test_vec_unit_amplitudes():
    v = ev("[True]")
    assert isinstance(v, VecV) and v.elem_type == B
    assert np.allclose(v.amp, [0, 1])
    w = ev("[(False, True)]")
    assert w.elem_type == BB
    assert np.allclose(w.amp, [0, 1, 0, 0])


def test_hadamard_amplitudes(prelude):
    h = prelude.env["hadamard"]
    assert np.allclose(apply_closure(h, False).amp, [INV, INV])
    assert np.allclose(apply_closure(h, True).amp, [INV, -INV])


def test_vector_arithmetic():
    assert np.allclose(ev("0.5 * [False] + 0.5i * [True]").amp, [0.5, 0.5j])
    assert np.allclose(ev("[False] - [True]").amp, [1, -1])
    assert np.allclose(ev("invsqrt2 * [False]").amp, [INV, 0])


def test_vector_error_paths():
    with pytest.raises(EvalError, match="non-vector"):
        ev("[True] + True")
    with pytest.raises(EvalError, match="dimension"):
        ev("[True] + [(True, True)]")
    with pytest.raises(EvalError, match="non-vector"):
        ev("0.5 * True")


def test_mzero_requires_elaboration(prelude):
    with pytest.raises(EvalError, match="typecheck before evaluating"):
        ev("mzero")
    z = eval_term(elab(prelude, "mzero", VecT(B)), {})
    assert np.allclose(z.amp, [0, 0])


def test_vec_let_is_linear_bind(prelude):
    # binding Hadamard output into Hadamard again composes linearly: H H = I
    term = elab(prelude, "\\x. let y = hadamard x in hadamard y",
                FunT(B, VecT(B)))
    f = eval_term(term, dict(prelude.env))
    assert np.allclose(materialize_lin(f, B, B), np.eye(2), atol=1e-12)


def test_vec_let_zero_coefficient(prelude):
    term = elab(prelude, "let y = 0.0 * [False] in hadamard y", VecT(B))
    out = eval_term(term, dict(prelude.env))
    assert np.allclose(out.amp, [0, 0])


def test_raw_vec_let_requires_type(prelude):
    term = elab(prelude, "let y = [True] in [not y]", VecT(B))
    stripped = rebuild(term, {"type_": None})
    assert stripped.type_ is None and term.type_ is not None
    with pytest.raises(EvalError, match="typecheck before evaluating"):
        eval_term(stripped, dict(prelude.env))


# --------------------------------------------------------------------------
# Superoperators: each pipeline construct against an independent dense oracle


def test_arr_pipeline_matches_oracle(prelude):
    got = super_of(prelude, "\\@x. [not x]", SuperT(B, B))
    want = super_arr(lambda e: not e, B, B)
    assert np.allclose(got.action, want.action, atol=1e-12)


def test_literal_fn_position(prelude):
    got = super_of(prelude, "\\@x. (\\@y. [not y]) @ x", SuperT(B, B))
    want = super_arr(lambda e: not e, B, B)
    assert np.allclose(got.action, want.action, atol=1e-12)


def test_lift_matches_oracle(prelude):
    got = super_of(prelude, "\\@x. [hadamard x]", SuperT(B, B))
    want = super_from_lin(H, B, B)
    assert np.allclose(got.action, want.action, atol=1e-12)
    assert np.allclose(prelude.env["Had"].val.action, want.action, atol=1e-12)


def test_meas_matches_oracle(prelude):
    got = super_of(prelude, "\\@q. meas q", SuperT(B, BB))
    assert np.allclose(got.action, super_meas(B).action, atol=1e-12)


def test_trl_matches_oracle(prelude):
    got = super_of(prelude, "\\@p. trL p", SuperT(BB, B))
    assert np.allclose(got.action, super_trL(BB).action, atol=1e-12)


def test_first_and_second_via_lets(prelude):
    had = prelude.env["Had"].val
    first = super_of(prelude, "\\@(x, y). let h = Had @ x in [(h, y)]",
                     SuperT(BB, BB))
    assert np.allclose(first.action, super_first(had, B).action, atol=1e-12)
    second = super_of(prelude, "\\@(x, y). let h = Had @ y in [(x, h)]",
                      SuperT(BB, BB))
    assert np.allclose(second.action, super_second(had, B).action, atol=1e-12)


def test_named_super_missing_from_env(prelude):
    pipe = translate_term(elab(prelude, "\\@x. QNot @ x", SuperT(B, B)))
    with pytest.raises(EvalError, match="not a superoperator"):
        SuperV(pipe, {}).val


def test_materialize_blocking_matches_unblocked(prelude, defs_map,
                                                monkeypatch):
    pipe = translate_term(defs_map["Alice"])
    full = SuperV(pipe, dict(prelude.env)).val.action
    monkeypatch.setattr("qarrow.evaluator._BUDGET", 1)
    blocked = SuperV(pipe, dict(prelude.env)).val.action
    assert np.array_equal(full, blocked)


def test_est_cells(prelude, defs_map):
    simple = translate_term(elab(prelude, "\\@x. QNot @ x", SuperT(B, B)))
    assert est_cells(simple) == 4
    # teleport fits in a single batch under the default working-set budget
    tele = translate_term(defs_map["teleport"])
    n = dim(tele.in_type) ** 2
    assert n ** 2 <= est_cells(tele) * n <= 4_000_000


def test_plan_on_columns(prelude):
    pipe = translate_term(elab(prelude, "\\@x. Had @ x", SuperT(B, B)))
    eye = np.eye(4, dtype=complex)
    cols = _plan(pipe, dict(prelude.env))(eye)
    assert np.allclose(cols, prelude.env["Had"].val.action, atol=1e-12)


# --------------------------------------------------------------------------
# The scatter kernel of `arr` and of every `&&&`


def _scatter_oracle(r, n, V):
    """out[(r a, r a')] += V[(a, a')], one cell at a time."""
    d = len(r)
    a, a2 = np.divmod(np.arange(d * d), d)
    out = np.zeros((n * n, V.shape[1]), dtype=complex)
    np.add.at(out, r[a] * n + r[a2], V)
    return out


SCATTER_MAPS = {
    "identity": lambda rng: (np.arange(8), 8),
    "permutation": lambda rng: (rng.permutation(8), 8),
    "constant": lambda rng: (np.full(8, 2), 4),
    "onto fewer": lambda rng: (rng.integers(0, 3, 8), 3),
    "into more": lambda rng: (rng.integers(0, 5, 8) * 2, 10),
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", sorted(SCATTER_MAPS))
def test_scatter_plan_matches_per_cell_oracle(name, k):
    rng = np.random.default_rng(k)
    for _ in range(3):
        r, n = SCATTER_MAPS[name](rng)
        V = rng.normal(size=(64, k)) + 1j * rng.normal(size=(64, k))
        before = V.copy()
        out = _scatter_plan(r, n)(V)
        assert out.shape == (n * n, k)
        assert np.max(np.abs(out - _scatter_oracle(r, n, V))) <= 1e-12
        assert np.array_equal(V, before)


def test_plan_keeps_index_data_linear_in_dimension(prelude):
    """GHZ-5's widest node has dimension 2**11: its d**2 cell destinations
    would take 32 MiB, so the plan must not keep them, before or after a
    push."""
    _, el = elaborate_program(parse_program(randprog.ghz_source(5)),
                              dict(prelude.types))
    ghz = eval_program(el, dict(prelude.env))["ghz"]
    rho = np.zeros((32, 32), dtype=complex)
    rho[0, 0] = 1.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = ghz.plan
        built = tracemalloc.get_traced_memory()[0] - before
        plan(rho.reshape(-1, 1))
        pushed = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert built < 1 << 20
    assert pushed < 1 << 20


# --------------------------------------------------------------------------
# Whole programs


def test_run_super_applies_and_checks_dimensions(prelude):
    rho = np.array([[0.25, 0.1j], [-0.1j, 0.75]])
    out = run_super(prelude.env["QNot"], rho)
    assert np.allclose(out, X @ rho @ X, atol=1e-12)
    with pytest.raises(EvalError, match="does not match"):
        run_super(prelude.env["QNot"], np.eye(4, dtype=complex) / 4)


def test_eval_program_threads_definitions(prelude):
    prog = parse_program("t : Bool\nt = True\nu : Bool\nu = not t")
    env = eval_program(prog, prelude.env)
    assert env["u"] is False


def test_prelude_value_kinds(prelude):
    assert isinstance(prelude.env["not"], ClosureV)
    assert isinstance(prelude.env["hadamard"], ClosureV)
    assert isinstance(prelude.env["QNot"], SuperV)
    assert isinstance(prelude.env["bell"], SuperV)


def test_qmeas_decoheres_plus_state(prelude):
    plus = pure_density(np.array([INV, INV]))
    out = run_super(prelude.env["QMeas"], plus)
    assert dens_close(out, np.eye(2) / 2, tol=1e-12)


def test_toffoli_basis_action(prelude):
    tof = prelude.env["toffoli"]
    rho110 = pure_density(np.eye(8)[6])
    assert dens_close(run_super(tof, rho110), pure_density(np.eye(8)[7]),
                      tol=1e-12)
    rho010 = pure_density(np.eye(8)[2])
    assert dens_close(run_super(tof, rho010), rho010, tol=1e-12)


def test_teleport_identity_quick(prelude):
    # payload qubit plus two ancilla bits prepared as False
    tele = prelude.env["teleport"]
    fresh = np.zeros((4, 4), dtype=complex)
    fresh[0, 0] = 1
    for _ in range(3):
        rho = random_density(RNG, 2)
        out = run_super(tele, np.kron(rho, fresh))
        assert dens_close(out, rho, tol=1e-9)


def test_materialize_lin_hadamard(prelude):
    assert np.allclose(materialize_lin(prelude.env["hadamard"], B, B), H,
                       atol=1e-12)


# --------------------------------------------------------------------------
# Batched evaluation agrees with the reference semantics


@pytest.mark.parametrize("seed", range(12))
def test_batched_matches_reference_small(prelude, seed):
    term, t = randprog.random_super(seed, B, B)
    _, term = elaborate_term(prelude.types, term, t)
    got = eval_arrow_abs(term, dict(prelude.env)).val
    want = reference_super(term, dict(prelude.env))
    assert np.max(np.abs(got.action - want.action)) <= 1e-12


# measurement in several positions, against the reference
MEAS_PROGRAMS = [
    ("\\@q. let p = meas q in [p]", SuperT(B, BB)),
    ("\\@q. let (a, b) = meas q in trL (a, b)", SuperT(B, B)),
    ("\\@(x, y). let (a, b) = meas y in [(x, (a == b, b))]",
     SuperT(BB, ProdT(B, BB))),
    ("\\@q. let h = Had @ q in let p = meas h in [p]", SuperT(B, BB)),
]


@pytest.mark.parametrize("src,t", MEAS_PROGRAMS)
def test_batched_matches_reference_meas(prelude, src, t):
    term = elab(prelude, src, t)
    got = eval_arrow_abs(term, dict(prelude.env)).val
    want = reference_super(term, dict(prelude.env))
    assert np.max(np.abs(got.action - want.action)) <= 1e-12


# --------------------------------------------------------------------------
# Pushing states through the pipeline equals applying the built matrix


def _densities(d):
    """Every basis projector |i><i| and two seeded random densities."""
    rng = np.random.default_rng(d)
    return ([pure_density(np.eye(d, dtype=complex)[i]) for i in range(d)]
            + [random_density(rng, d) for _ in range(2)])


def _push_matches_matrix(s):
    d_in = dim(s.in_type)
    for rho in _densities(d_in):
        pushed = s.plan(rho.reshape(-1, 1))
        built = s.val.action @ rho.reshape(-1)
        assert np.max(np.abs(pushed[:, 0] - built)) <= 1e-12


def test_push_matches_matrix_on_prelude(prelude):
    supers = [v for v in prelude.env.values() if isinstance(v, SuperV)]
    assert len(supers) == 12
    for s in supers:
        _push_matches_matrix(s)


@pytest.mark.parametrize("seed", range(20))
def test_push_matches_matrix_on_random_programs(prelude, seed):
    term, t = randprog.random_super(seed)
    _, term = elaborate_term(prelude.types, term, t)
    s = eval_term(term, dict(prelude.env))
    assert not matrix_built(s)
    rho = _densities(dim(t.arg))[-1]
    pushed = run_super(s, rho)              # before the matrix exists
    _push_matches_matrix(s)
    assert np.max(np.abs(pushed - run_super(s, rho))) <= 1e-12


def _nodes(e, cls):
    if isinstance(e, cls):
        yield e
    for c in classic_children(e):
        yield from _nodes(c, cls)


def test_each_map_is_computed_once_per_superoperator(prelude, monkeypatch):
    tof = prelude.env["toffoli"]
    s = SuperV(tof.pipe, tof.env)
    for callee in _nodes(s.pipe, NamedSuper):   # built before counting
        s.env[callee.name].val
    calls = []

    def counted(*args):
        calls.append(args)
        return _arr_index_map(*args)

    monkeypatch.setattr("qarrow.evaluator._arr_index_map", counted)
    for rho in _densities(8)[:3]:
        run_super(s, rho)
    s.val
    assert len(calls) == len(list(_nodes(s.pipe, Arr))) > 0


def _plan_is_not_written_through(s, want):
    rho1, rho2 = _densities(dim(s.in_type))[-2:]
    kept = rho1.copy()
    outs = [run_super(s, r) for r in (rho1, rho2, rho1)]
    assert not matrix_built(s) and np.array_equal(rho1, kept)
    assert np.array_equal(outs[0], outs[2])
    for rho, out in zip((rho1, rho2), outs):
        d = dim(s.out_type)
        expect = (want.action @ rho.reshape(-1)).reshape(d, d)
        assert np.max(np.abs(out - expect)) <= 1e-9


def test_plan_is_not_written_through_on_prelude(prelude, defs_map):
    names = [k for k, v in prelude.env.items() if isinstance(v, SuperV)]
    assert len(names) == 12
    for name in names:
        s = prelude.env[name]
        want = reference_super(defs_map[name], dict(prelude.env))
        _plan_is_not_written_through(SuperV(s.pipe, s.env), want)


@pytest.mark.parametrize("seed", range(20))
def test_plan_is_not_written_through_on_random_programs(prelude, seed):
    term, t = randprog.random_super(seed)
    _, term = elaborate_term(prelude.types, term, t)
    _plan_is_not_written_through(eval_term(term, dict(prelude.env)),
                                 reference_super(term, dict(prelude.env)))


# --------------------------------------------------------------------------
# Every built matrix is completely positive and trace preserving


def _assert_completely_positive(s):
    j = choi(s.val.action, dim(s.in_type), dim(s.out_type))
    assert np.max(np.abs(j - j.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(j).min() >= -1e-9


def _assert_trace_preserving(s):
    # the partial trace of the Choi matrix over the output is the identity
    d_in, d_out = dim(s.in_type), dim(s.out_type)
    j = choi(s.val.action, d_in, d_out).reshape(d_in, d_out, d_in, d_out)
    traced = np.einsum("iaja->ij", j)
    assert np.max(np.abs(traced - np.eye(d_in))) <= 1e-9


def test_choi_detects_a_positive_map_that_is_not_completely_positive():
    # the transpose is positive and trace preserving; its Choi matrix is
    # the swap, with eigenvalue -1
    transpose = np.eye(4).reshape(2, 2, 2, 2).transpose(1, 0, 2, 3).reshape(4, 4)
    assert np.linalg.eigvalsh(choi(transpose, 2, 2)).min() == pytest.approx(-1)


def test_prelude_channels_are_cptp(prelude):
    supers = [v for v in prelude.env.values() if isinstance(v, SuperV)]
    assert len(supers) == 12
    for s in supers:
        _assert_completely_positive(s)
        _assert_trace_preserving(s)


def _random_channel(prelude, seed):
    term, t = randprog.random_super(seed)
    _, term = elaborate_term(prelude.types, term, t)
    return eval_term(term, dict(prelude.env))


@pytest.mark.parametrize("seed", range(20))
def test_random_channels_are_completely_positive(prelude, seed):
    _assert_completely_positive(_random_channel(prelude, seed))


# These programs let a qubit go out of use without `trL` or `meas` (seed 1
# is `\@x1. QNot @ False`).  Translation drops it with `arr` of a basis map
# that is not injective, and that is not trace preserving: seed 1 maps
# |+><+| to a density of trace 2 and |-><-| to zero.
_DROP_A_QUBIT = pytest.mark.xfail(
    strict=True, reason="a qubit dropped by a non-injective arr is not traced out")


@pytest.mark.parametrize("seed", [
    pytest.param(s, marks=_DROP_A_QUBIT) if s in (1, 3, 5, 10, 11, 17, 19)
    else s for s in range(20)])
def test_random_channels_are_trace_preserving(prelude, seed):
    _assert_trace_preserving(_random_channel(prelude, seed))


def test_evaluation_builds_no_matrix(prelude, monkeypatch):
    def refuse(*args):
        raise AssertionError("materialized")

    monkeypatch.setattr("qarrow.evaluator._plan", refuse)
    _, prog = elaborate_program(parse_program(
        "f : Super Bool Bool\nf = \\@x. let h = Had @ x in QMeas @ h\n"
        "g : Super Bool Bool\ng = \\@x. f @ x\n"), prelude.types)
    env = eval_program(prog, prelude.env)
    assert repr(env["g"]) == "<super 2x2 -> 2x2>"
    assert not matrix_built(env["f"]) and not matrix_built(env["g"])
    with pytest.raises(AssertionError, match="materialized"):
        env["g"].val


# --------------------------------------------------------------------------
# The two ways to apply `arr m &&& (p >>> g)` agree with the reference


def _shared_case(seed=238):
    # an assoc-law instance: x1 feeds the keep leg and, through Had, the
    # bound leg of the outer let.  Seed 238's bound leg is coherent, so a
    # wrong index order shows.
    inst = randprog.law_instance(seed, "assoc")
    return inst.term, inst.type_


DISJOINT_SRC = ("\\@x. let n = (\\@z. [0.5+0.5i * [z] + 0.5-0.5i * [not z]]) "
                "@ False in [(x, n)]")


def _disjoint_case(src=DISJOINT_SRC, t=SuperT(B, BB)):
    # the keep leg reads x, the bound leg no wire at all; its output has
    # complex coherences, so a transposed density shows
    return parse_term(src), t


FANOUT_CASES = {"shared": _shared_case, "disjoint": _disjoint_case}


def _fanout_pipe(prelude, make):
    term, t = make()
    _, term = elaborate_term(prelude.types, term, t)
    return term, translate_term(term)


@pytest.mark.parametrize("case", sorted(FANOUT_CASES))
@pytest.mark.parametrize("form", ["grid", "gather"])
def test_fanout_forms_match_reference(prelude, monkeypatch, case, form):
    term, pipe = _fanout_pipe(prelude, FANOUT_CASES[case])
    assert list(_nodes(pipe, FanoutC))
    want = reference_super(term, dict(prelude.env)).action
    # make `form` the smaller one at every fanout
    sizes = (0, 1) if form == "grid" else (1, 0)
    monkeypatch.setattr("qarrow.evaluator._fanout_forms", lambda e: sizes)
    got = SuperV(pipe, dict(prelude.env)).val.action
    assert np.max(np.abs(got - want)) <= 1e-12


def test_fanout_form_is_chosen_by_size(prelude):
    # seed 29's lets share wires over a context of dimension 16, where the
    # gather form is the smaller one at some fanouts
    fans = {case: list(_nodes(_fanout_pipe(prelude, make)[1], FanoutC))
            for case, make in (
                ("shared", lambda: _shared_case(29)),
                # the second let keeps only h and binds QNot on y alone
                ("disjoint", lambda: _disjoint_case(
                    "\\@(x, y). let h = Had @ x in let n = QNot @ y in "
                    "[(h, n)]", SuperT(BB, BB))))}
    # _fanout_forms gives (grid, gather) cells per column
    assert any(gather < grid for grid, gather in map(_fanout_forms,
                                                      fans["shared"]))
    assert any(grid < gather for grid, gather in map(_fanout_forms,
                                                      fans["disjoint"]))
    for f in fans["shared"] + fans["disjoint"]:
        base = max(dim(f.in_type), dim(f.out_type)) ** 2
        assert est_cells(f) == max(base, min(_fanout_forms(f)))
