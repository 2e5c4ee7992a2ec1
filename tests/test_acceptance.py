"""Acceptance gate: nine end-to-end criteria, each printing one PASS/FAIL
line (visible even under output capture) and asserting the result."""

import sys
import time

import numpy as np

from qarrow import (
    BoolT,
    Law,
    ProdT,
    SuperT,
    SuperV,
    TypeCheckError,
    alpha_eq,
    apply_law_at,
    elaborate_program,
    elaborate_term,
    eval_term,
    normalize,
    parse_program,
    parse_term,
    run_super,
    translate_term,
    type_str,
)
from qarrow.classic import inverse_translate
from qarrow.evaluator import compare_values, eval_arrow_abs
from qarrow.linalg import (
    SuperVal,
    basis,
    dim,
    elem_index,
    is_hermitian,
    pure_density,
)

import randprog
from dense_arrow import apply_super, super_arr, super_compose, super_first
from helpers import dens_close, laws, random_density
from ill_typed import ILL_TYPED

B = BoolT()
BB = ProdT(B, B)
B3 = ProdT(B, BB)
INV = 1 / np.sqrt(2)


def _report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}", file=sys.__stdout__)
    assert ok, label


# --------------------------------------------------------------------------
# 1. The double-negation derivation, as a frozen golden trace


def test_criterion_1_golden_derivation(prelude, defs_map):
    start = parse_term(
        "\\@x. let y = (\\@z. [not z]) @ x in (\\@w. [not w]) @ y")
    t0 = time.perf_counter()
    _, term = elaborate_term(prelude.types, start)
    trace = normalize(term, defs=defs_map)
    elapsed = time.perf_counter() - t0
    want = [Law.BETA_ARROW, Law.LEFT_UNIT, Law.BETA_ARROW, Law.DELTA,
            Law.BETA_FUN, Law.DELTA, Law.BETA_FUN, Law.IF_DISTRIB,
            Law.IF_FALSE, Law.IF_TRUE, Law.IF_ETA]
    ok = (trace.complete
          and laws(trace) == want
          and alpha_eq(trace.end, parse_term("\\@x. [x]"))
          and elapsed < 1.0)
    _report(ok, "criterion 1: double-negation derivation reaches \\@x. [x] "
                f"by the frozen 11-step trace in {elapsed:.3f} s (< 1 s)")


# --------------------------------------------------------------------------
# 2. The nine combinator-pipeline laws, on random superoperators


def _rand_super_val(prelude, seed, in_t, out_t) -> SuperVal:
    term, t = randprog.random_super(seed, in_t, out_t)
    _, term = elaborate_term(prelude.types, term, t)
    return eval_arrow_abs(term, dict(prelude.env)).val


def _rand_table(rng, in_t, out_t):
    tbl = rng.integers(0, dim(out_t), size=dim(in_t))
    outs = basis(out_t)

    def f(e, _tbl=tbl, _in=in_t, _outs=outs):
        return _outs[int(_tbl[elem_index(_in, e)])]

    return f


def _sides_agree(a: SuperVal, b: SuperVal, rng, tol=1e-9) -> bool:
    d = dim(a.in_type)
    if dim(b.in_type) != d or dim(a.out_type) != dim(b.out_type):
        return False
    # The action columns are exactly the images of the d*d basis matrices,
    # so an entrywise action comparison checks every basis density at once.
    if float(np.max(np.abs(a.action - b.action))) > tol:
        return False
    for _ in range(5):
        rho = random_density(rng, d)
        if not dens_close(apply_super(a, rho), apply_super(b, rho), tol):
            return False
    return True


def test_criterion_2_pipeline_laws(prelude):
    t0 = time.perf_counter()
    types_pool = [B, BB]
    failures = []

    def arr(f, in_t, out_t):
        return super_arr(f, in_t, out_t)

    def ident(t):
        return arr(lambda e: e, t, t)

    for lawno in range(1, 10):
        for i in range(25):
            seed = lawno * 1000 + i
            rng = np.random.default_rng(seed)
            pick = lambda: types_pool[int(rng.integers(0, 2))]
            A, Bt, C = pick(), pick(), B
            if lawno == 1:       # identity before a pipeline is dropped
                f = _rand_super_val(prelude, seed, A, Bt)
                lhs, rhs = super_compose(ident(A), f), f
            elif lawno == 2:     # identity after a pipeline is dropped
                f = _rand_super_val(prelude, seed, A, Bt)
                lhs, rhs = super_compose(f, ident(Bt)), f
            elif lawno == 3:     # composition associates
                f = _rand_super_val(prelude, seed, A, Bt)
                g = _rand_super_val(prelude, seed + 1, Bt, C)
                h = _rand_super_val(prelude, seed + 2, C, pick())
                lhs = super_compose(super_compose(f, g), h)
                rhs = super_compose(f, super_compose(g, h))
            elif lawno == 4:     # pure pipelines compose as functions
                f = _rand_table(rng, A, Bt)
                g = _rand_table(rng, Bt, C)
                lhs = arr(lambda e: g(f(e)), A, C)
                rhs = super_compose(arr(f, A, Bt), arr(g, Bt, C))
            elif lawno == 5:     # first of a pure map is a pure map
                f = _rand_table(rng, A, Bt)
                lhs = super_first(arr(f, A, Bt), C)
                rhs = arr(lambda e: (f(e[0]), e[1]), ProdT(A, C),
                          ProdT(Bt, C))
            elif lawno == 6:     # first distributes over composition
                f = _rand_super_val(prelude, seed, A, Bt)
                g = _rand_super_val(prelude, seed + 1, Bt, C)
                D = B
                lhs = super_first(super_compose(f, g), D)
                rhs = super_compose(super_first(f, D), super_first(g, D))
            elif lawno == 7:     # pure work on the passive side commutes
                f = _rand_super_val(prelude, seed, A, Bt)
                C2 = B
                g = _rand_table(rng, C, C2)
                lhs = super_compose(
                    super_first(f, C),
                    arr(lambda e: (e[0], g(e[1])), ProdT(Bt, C),
                        ProdT(Bt, C2)))
                rhs = super_compose(
                    arr(lambda e: (e[0], g(e[1])), ProdT(A, C),
                        ProdT(A, C2)),
                    super_first(f, C2))
            elif lawno == 8:     # dropping the passive side before or after
                f = _rand_super_val(prelude, seed, A, Bt)
                lhs = super_compose(super_first(f, C),
                                    arr(lambda e: e[0], ProdT(Bt, C), Bt))
                rhs = super_compose(arr(lambda e: e[0], ProdT(A, C), A), f)
            else:                # regrouping nested passive components
                f = _rand_super_val(prelude, seed, A, Bt)
                D = B
                assoc_in = arr(lambda e: (e[0][0], (e[0][1], e[1])),
                               ProdT(ProdT(A, C), D), ProdT(A, ProdT(C, D)))
                assoc_out = arr(lambda e: (e[0][0], (e[0][1], e[1])),
                                ProdT(ProdT(Bt, C), D),
                                ProdT(Bt, ProdT(C, D)))
                lhs = super_compose(super_first(super_first(f, C), D),
                                    assoc_out)
                rhs = super_compose(assoc_in, super_first(f, ProdT(C, D)))
            if not _sides_agree(lhs, rhs, rng):
                failures.append((lawno, i))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(ok, "criterion 2: nine pipeline laws hold on 25 random "
                "superoperators each, on every basis matrix plus 5 random "
                f"densities (1e-9), in {elapsed:.1f} s (< 30 s)"
                + (f"; failures: {failures[:3]}" if failures else ""))


# --------------------------------------------------------------------------
# 3. Rewrite laws preserve typing and denotation on random instances


def test_criterion_3_law_instances(prelude, defs_map):
    failures = []
    for family in sorted(randprog.FAMILIES):
        for seed in range(100):
            inst = randprog.law_instance(seed, family)
            t1, before = elaborate_term(prelude.types, inst.term, inst.type_)
            after = apply_law_at(before, inst.path, inst.law, inst.direction,
                                 defs=defs_map)
            t2, after2 = elaborate_term(prelude.types, after, inst.type_)
            if type_str(t1) != type_str(t2):
                failures.append((family, seed, "type"))
                continue
            va = eval_term(before, dict(prelude.env))
            vb = eval_term(after2, dict(prelude.env))
            if not compare_values(va, vb, t1, 1e-9)[0] <= 1e-9:
                failures.append((family, seed, "denotation"))
    ok = not failures
    _report(ok, "criterion 3: 13 rewrite-law families x 100 random instances "
                "preserve the inferred type exactly and the denotation at "
                "1e-9" + (f"; failures: {failures[:3]}" if failures else ""))


# --------------------------------------------------------------------------
# 4. Measurement of |+> gives the maximally mixed state


def test_criterion_4_measurement(prelude):
    _, term = elaborate_term(
        prelude.types,
        parse_term("\\@q. let (a, b) = meas q in trL (a, b)"),
        SuperT(B, B))
    chan = eval_term(term, dict(prelude.env))
    plus = pure_density(np.array([INV, INV]))
    out = run_super(chan, plus)
    ok = dens_close(out, np.eye(2) / 2, tol=1e-12)
    _report(ok, "criterion 4: measuring |+> and discarding the outcome "
                "copy yields [[1/2, 0], [0, 1/2]] at 1e-12")


# --------------------------------------------------------------------------
# 5. Teleportation is the identity channel


def test_criterion_5_teleportation(prelude):
    rng = np.random.default_rng(5)
    tele = prelude.env["teleport"]
    fresh = np.zeros((4, 4), dtype=complex)
    fresh[0, 0] = 1
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        rho = random_density(rng, 2)
        out = run_super(tele, np.kron(rho, fresh))
        worst = max(worst, float(np.max(np.abs(out - rho))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _report(ok, "criterion 5: teleportation returns 20 random qubit states "
                f"with max error {worst:.2e} (< 1e-9) in {elapsed:.2f} s "
                "(< 5 s)")


# --------------------------------------------------------------------------
# 6. Toffoli equals its classical permutation


def test_criterion_6_toffoli(prelude):
    def toffoli_fn(e):
        x, (y, z) = e
        return (x, (y, z != (x and y)))

    want = super_arr(toffoli_fn, B3, B3)
    got = prelude.env["toffoli"].val
    diff = float(np.max(np.abs(got.action - want.action)))
    ok = diff <= 1e-9
    _report(ok, "criterion 6: the two-qubit-gate toffoli equals the "
                f"classical permutation lifted to a superoperator "
                f"(max diff {diff:.2e} <= 1e-9)")


# --------------------------------------------------------------------------
# 7. Translation and its inverse preserve meaning on the whole prelude


def test_criterion_7_translation_round_trip(prelude, defs_map):
    worst = 0.0
    names = [d.name for d in prelude.program.defs
             if type_str(prelude.types[d.name]).startswith("Super")]
    for name in names:
        term = defs_map[name]
        direct = prelude.env[name].val
        pipe = translate_term(term)
        via_pipe = SuperV(pipe, dict(prelude.env)).val
        _, back = elaborate_term(prelude.types, inverse_translate(pipe),
                                 prelude.types[name])
        via_inverse = eval_term(back, dict(prelude.env)).val
        for a, b in ((direct, via_pipe), (direct, via_inverse),
                     (via_pipe, via_inverse)):
            worst = max(worst, float(np.max(np.abs(a.action - b.action))))
    ok = worst <= 1e-12 and len(names) == 12
    _report(ok, f"criterion 7: direct, pipeline, and inverse-round-trip "
                f"evaluation agree pairwise on all {len(names)} prelude "
                f"superoperators (max diff {worst:.2e} <= 1e-12)")


# --------------------------------------------------------------------------
# 8. Ill-typed programs are rejected with their documented kinds


def test_criterion_8_rejection_suite(prelude):
    failures = []
    for src, kind, why in ILL_TYPED:
        try:
            elaborate_program(parse_program(src), dict(prelude.types))
            failures.append((why, "accepted"))
        except TypeCheckError as e:
            if e.kind != kind:
                failures.append((why, f"kind {e.kind!r} != {kind!r}"))
    ok = not failures and len(ILL_TYPED) == 10
    _report(ok, "criterion 8: all 10 ill-typed programs are rejected with "
                "their documented error kinds"
                + (f"; failures: {failures}" if failures else ""))


# --------------------------------------------------------------------------
# 9. Channels preserve trace and Hermiticity


def test_criterion_9_trace_hermiticity(prelude):
    rng = np.random.default_rng(9)
    _, meas_term = elaborate_term(prelude.types, parse_term("\\@q. meas q"),
                                  SuperT(B, BB))
    _, trl_term = elaborate_term(prelude.types, parse_term("\\@p. trL p"),
                                 SuperT(BB, B))
    channels = {
        "meas": eval_term(meas_term, dict(prelude.env)),
        "trL": eval_term(trl_term, dict(prelude.env)),
    }
    for name in ("QNot", "Had", "Cnot", "Cz", "cV", "cVdagger", "toffoli",
                 "bell"):
        channels[name] = prelude.env[name]
    failures = []
    for name, chan in channels.items():
        d = dim(chan.val.in_type)
        for _ in range(100):
            rho = random_density(rng, d)
            out = run_super(chan, rho)
            if abs(np.trace(out) - np.trace(rho)) > 1e-9:
                failures.append((name, "trace"))
                break
            if not is_hermitian(out, tol=1e-9):
                failures.append((name, "hermiticity"))
                break
    ok = not failures
    _report(ok, "criterion 9: measurement, discard, and the eight "
                "unitary-derived channels preserve trace and Hermiticity "
                "on 100 random densities each (1e-9)"
                + (f"; failures: {failures}" if failures else ""))
