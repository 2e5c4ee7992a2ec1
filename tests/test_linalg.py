"""Density-matrix algebra (``qarrow.linalg``) and the dense superoperator
arrow that the tests use as their oracle (``dense_arrow``), both against
independent oracles.

The oracles here deliberately avoid the construction paths used by the
implementation: partial traces and subsystem maps are written as direct
einsum contractions over reshaped tensors, lifts are checked against the
explicit F rho F-dagger sandwich, and gate matrices are written out as
numpy constants.
"""
import json

import numpy as np
import pytest

from qarrow.linalg import (basis, dens_from_json, dens_to_json, dim,
                           elem_index, elem_str, is_hermitian, pure_density,
                           render_density, render_vector, vec_return,
                           vec_to_json, vec_zero)
from qarrow.syntax import BoolT, ProdT

from dense_arrow import (apply_super, lin2super_matrix, super_arr,
                         super_compose, super_fanout, super_first,
                         super_from_lin, super_identity, super_meas,
                         super_second, super_trL)
from helpers import dens_close, random_density

B = BoolT()
BB = ProdT(B, B)
B3 = ProdT(B, BB)

RNG = np.random.default_rng(20240817)


# ---- bases -------------------------------------------------------------------

def test_basis_order_bool():
    assert basis(B) == (False, True)


def test_basis_order_products_left_major():
    assert basis(BB) == ((False, False), (False, True),
                         (True, False), (True, True))
    # left factor is the major index, matching np.kron(left, right)
    assert basis(B3)[:4] == (
        (False, (False, False)), (False, (False, True)),
        (False, (True, False)), (False, (True, True)))


def test_dim_and_elem_index():
    assert dim(B) == 2 and dim(BB) == 4 and dim(B3) == 8
    for i, e in enumerate(basis(B3)):
        assert elem_index(B3, e) == i


def test_elem_str():
    assert elem_str((True, (False, True))) == "(True,(False,True))"


# ---- amplitude vectors ---------------------------------------------------------

def test_vec_return_is_basis_vector():
    v = vec_return(BB, (True, False))
    expect = np.zeros(4, dtype=complex)
    expect[2] = 1.0
    assert np.array_equal(v, expect)


def test_vec_zero():
    assert np.array_equal(vec_zero(BB), np.zeros(4, dtype=complex))


# ---- lifting linear maps to superoperators -------------------------------------

def test_lin2super_is_conjugation():
    # vec(F rho F+) = (F (x) conj F) vec(rho), row-major vec
    for din, dout in [(2, 2), (2, 4), (4, 2)]:
        f = RNG.normal(size=(dout, din)) + 1j * RNG.normal(size=(dout, din))
        rho = RNG.normal(size=(din, din)) + 1j * RNG.normal(size=(din, din))
        direct = f @ rho @ f.conj().T
        via = (lin2super_matrix(f) @ rho.reshape(-1)).reshape(dout, dout)
        assert np.allclose(direct, via, atol=1e-12)


def test_super_from_lin_action():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    s = super_from_lin(x, B, B)
    rho = random_density(RNG, 2)
    assert dens_close(apply_super(s, rho), x @ rho @ x, 1e-12)


# ---- arr / compose ----------------------------------------------------------------

def test_super_arr_permutation():
    s = super_arr(lambda e: (e[1], e[0]), BB, BB)   # swap
    rho = random_density(RNG, 4)
    perm = [0, 2, 1, 3]   # basis permutation performed by the swap
    assert dens_close(apply_super(s, rho), rho[np.ix_(perm, perm)], 1e-12)


def test_super_arr_functorial():
    f = lambda e: (e[1], e[0])
    g = lambda e: e[0]
    lhs = super_arr(lambda e: g(f(e)), BB, B)
    rhs = super_compose(super_arr(f, BB, BB), super_arr(g, BB, B))
    assert np.allclose(lhs.action, rhs.action, atol=1e-12)


def test_super_compose_order():
    # compose(f, g) runs f first: X then measurement differs from the reverse
    x = super_from_lin(np.array([[0, 1], [1, 0]], dtype=complex), B, B)
    m = super_trL(BB)    # not composable in reverse; use types to pin order
    fanout_then_trace = super_compose(super_first(x, B), m)
    rho = random_density(RNG, 4)
    # applying X on the left qubit then tracing it out equals tracing alone
    assert dens_close(apply_super(fanout_then_trace, rho),
                      apply_super(m, rho), 1e-12)


def test_super_identity():
    rho = random_density(RNG, 4)
    assert dens_close(apply_super(super_identity(BB), rho), rho, 1e-12)


# ---- first / second / fanout against einsum oracles --------------------------------

def _random_super(d):
    """A random superoperator as a sum of two conjugations (not TP)."""
    f = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    g = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return lin2super_matrix(f) + lin2super_matrix(g)


def test_super_first_oracle():
    from qarrow.linalg import SuperVal
    act = _random_super(2)
    s = SuperVal(B, B, act)
    rho = random_density(RNG, 8).reshape(8, 8)
    got = apply_super(super_first(s, BB), rho)
    act4 = act.reshape(2, 2, 2, 2)
    rho4 = rho.reshape(2, 4, 2, 4)
    expect = np.einsum("pqrs,rasb->paqb", act4, rho4).reshape(8, 8)
    assert np.allclose(got, expect, atol=1e-12)


def test_super_second_oracle():
    from qarrow.linalg import SuperVal
    act = _random_super(2)
    s = SuperVal(B, B, act)
    rho = random_density(RNG, 8).reshape(8, 8)
    got = apply_super(super_second(s, BB), rho)
    act4 = act.reshape(2, 2, 2, 2)
    rho4 = rho.reshape(4, 2, 4, 2)
    expect = np.einsum("pqrs,arbs->apbq", act4, rho4).reshape(8, 8)
    assert np.allclose(got, expect, atol=1e-12)


def test_super_fanout_of_pure_functions():
    f = lambda e: not e
    g = lambda e: e
    fan = super_fanout(super_arr(f, B, B), super_arr(g, B, B))
    direct = super_arr(lambda e: (f(e), g(e)), B, BB)
    assert np.allclose(fan.action, direct.action, atol=1e-12)


def test_super_fanout_types():
    fan = super_fanout(super_identity(B), super_arr(lambda e: (e, e), B, BB))
    assert fan.in_type == B and fan.out_type == ProdT(B, BB)


# ---- measurement and partial trace ---------------------------------------------------

def test_super_meas_oracle():
    s = super_meas(BB)
    rho = random_density(RNG, 4)
    got = apply_super(s, rho)
    expect = np.zeros((16, 16), dtype=complex)
    for a in range(4):
        expect[a * 4 + a, a * 4 + a] = rho[a, a]
    assert np.allclose(got, expect, atol=1e-12)


def test_super_meas_drops_coherences():
    plus = pure_density(np.array([1, 1], dtype=complex) / np.sqrt(2))
    got = apply_super(super_meas(B), plus)
    expect = np.diag([0.5, 0, 0, 0.5]).astype(complex)
    assert dens_close(got, expect, 1e-12)


def test_super_trL_oracle():
    for dl_t, dr_t in [(B, BB), (BB, B), (BB, BB)]:
        s = super_trL(ProdT(dl_t, dr_t))
        dl, dr = dim(dl_t), dim(dr_t)
        rho = random_density(RNG, dl * dr)
        got = apply_super(s, rho)
        expect = np.einsum("iaib->ab", rho.reshape(dl, dr, dl, dr))
        assert np.allclose(got, expect, atol=1e-12)


def test_meas_then_trL_is_decoherence():
    # measure, discard the duplicate: keeps the diagonal of the input
    s = super_compose(super_meas(B), super_trL(BB))
    rho = random_density(RNG, 2)
    assert dens_close(apply_super(s, rho), np.diag(np.diag(rho)), 1e-12)


# ---- densities ---------------------------------------------------------------------------

def test_pure_density():
    amp = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    rho = pure_density(amp)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert is_hermitian(rho)
    assert np.allclose(rho @ rho, rho, atol=1e-12)   # projector


def test_random_density_properties():
    for d in (2, 4, 8):
        rho = random_density(RNG, d)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert is_hermitian(rho)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-12


def test_dens_close():
    rho = random_density(RNG, 2)
    assert dens_close(rho, rho + 1e-12, 1e-9)
    assert not dens_close(rho, rho + 1e-6, 1e-9)


# ---- rendering and JSON ---------------------------------------------------------------------

def test_render_density_golden():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert render_density(rho) == (
        "0.500000+0.000000i 0.500000+0.000000i\n"
        "0.500000+0.000000i 0.500000+0.000000i")


def test_render_density_zeroes_dust():
    rho = np.array([[1.0, 1e-9], [1e-9, 0.0]], dtype=complex)
    out = render_density(rho)
    assert "1.000000+0.000000i 0.000000+0.000000i" in out


def test_render_vector():
    out = render_vector(np.array([1, -1j], dtype=complex))
    assert "1.000000" in out and "-1.000000i" in out


def test_density_json_round_trip():
    rho = random_density(RNG, 4)
    blob = dens_to_json(rho, BB)
    again = dens_from_json(json.loads(json.dumps(blob, sort_keys=True)))
    assert dens_close(rho, again, 1e-15)
    assert blob["dim"] == 4
    assert blob["basis"] == ["(False,False)", "(False,True)",
                             "(True,False)", "(True,True)"]


def test_vec_to_json():
    blob = vec_to_json(np.array([1, 1j], dtype=complex), B)
    assert blob["dim"] == 2
    assert blob["basis"] == ["False", "True"]
    assert blob["amps"][1] == {"re": 0.0, "im": 1.0}
