"""The prelude: gate definitions against textbook matrices, the protocol
programs (bell, Alice, Bob, teleport), and the loader."""

import numpy as np
import pytest

from qarrow import (
    BoolT,
    ProdT,
    load_prelude,
    pure_density,
    run_super,
    type_str,
)
from dense_arrow import super_compose, super_meas, super_trL
from helpers import dens_close, materialize_lin, random_density

B = BoolT()
BB = ProdT(B, B)
RNG = np.random.default_rng(20240819)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
V = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
CV = np.block([[I2, np.zeros((2, 2))], [np.zeros((2, 2)), V]])

TOFFOLI_PERM = [0, 1, 2, 3, 4, 5, 7, 6]
TOFF = np.zeros((8, 8), dtype=complex)
for i, j in enumerate(TOFFOLI_PERM):
    TOFF[j, i] = 1

BELL = CNOT @ np.kron(H, I2)

GATE_UNITARIES = {
    "QNot": X,
    "Had": H,
    "Cnot": CNOT,
    "Cz": CZ,
    "cV": CV,
    "cVdagger": CV.conj().T,
    "toffoli": TOFF,
    "bell": BELL,
}

LIN_MATRICES = {
    "hadamard": (B, H),
    "hadamard_raw": (B, np.array([[1, 1], [1, -1]], dtype=complex)),
    "cnot": (BB, CNOT),
    "cz": (BB, CZ),
    "cv": (BB, CV),
    "cvdagger": (BB, CV.conj().T),
}

EXPECTED_TYPES = {
    "not": "Bool -> Bool",
    "hadamard": "Bool -> Vec Bool",
    "hadamard_raw": "Bool -> Vec Bool",
    "cnot": "(Bool,Bool) -> Vec (Bool,Bool)",
    "cz": "(Bool,Bool) -> Vec (Bool,Bool)",
    "cv": "(Bool,Bool) -> Vec (Bool,Bool)",
    "cvdagger": "(Bool,Bool) -> Vec (Bool,Bool)",
    "QNot": "Super Bool Bool",
    "Had": "Super Bool Bool",
    "Cnot": "Super (Bool,Bool) (Bool,Bool)",
    "Cz": "Super (Bool,Bool) (Bool,Bool)",
    "cV": "Super (Bool,Bool) (Bool,Bool)",
    "cVdagger": "Super (Bool,Bool) (Bool,Bool)",
    "QMeas": "Super Bool Bool",
    "toffoli": "Super (Bool,(Bool,Bool)) (Bool,(Bool,Bool))",
    "bell": "Super (Bool,Bool) (Bool,Bool)",
    "Alice": "Super (Bool,Bool) (Bool,Bool)",
    "Bob": "Super (Bool,(Bool,Bool)) Bool",
    "teleport": "Super (Bool,(Bool,Bool)) Bool",
}


# --------------------------------------------------------------------------
# Gate matrices


@pytest.mark.parametrize("name", sorted(GATE_UNITARIES))
def test_unitary_constants_are_unitary(name):
    u = GATE_UNITARIES[name]
    assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)


@pytest.mark.parametrize("name", sorted(GATE_UNITARIES))
def test_super_gates_conjugate_by_their_unitary(prelude, name):
    u = GATE_UNITARIES[name]
    action = prelude.env[name].val.action
    assert np.allclose(action, np.kron(u, u.conj()), atol=1e-12)


@pytest.mark.parametrize("name", sorted(LIN_MATRICES))
def test_amplitude_functions_match_matrices(prelude, name):
    in_t, mat = LIN_MATRICES[name]
    got = materialize_lin(prelude.env[name], in_t, in_t)
    assert np.allclose(got, mat, atol=1e-12)


def test_v_squared_is_not():
    assert np.allclose(V @ V, X, atol=1e-12)
    assert np.allclose(CV @ CV, CNOT, atol=1e-12)
    assert np.allclose(CV @ CV.conj().T, np.eye(4), atol=1e-12)


def test_controlled_v_composes_to_cnot(prelude):
    cv_s = prelude.env["cV"].val
    got = super_compose(cv_s, cv_s)
    assert np.allclose(got.action, prelude.env["Cnot"].val.action, atol=1e-12)


def test_measurement_channels_are_not_unitary(prelude):
    for name in ("QMeas", "Alice", "Bob", "teleport"):
        a = prelude.env[name].val.action
        prod = a @ a.conj().T
        assert not np.allclose(prod, np.eye(prod.shape[0]), atol=1e-6)


# --------------------------------------------------------------------------
# Measurement and protocols


def test_qmeas_is_measure_then_discard(prelude):
    want = super_compose(super_meas(B), super_trL(BB))
    assert np.allclose(prelude.env["QMeas"].val.action, want.action,
                       atol=1e-12)


def test_qmeas_zeroes_coherences(prelude):
    for _ in range(5):
        rho = random_density(RNG, 2)
        out = run_super(prelude.env["QMeas"], rho)
        assert dens_close(out, np.diag(np.diag(rho)), tol=1e-12)


def test_bell_prepares_entangled_pair(prelude):
    zero2 = np.zeros((4, 4), dtype=complex)
    zero2[0, 0] = 1
    phi_plus = pure_density(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert dens_close(run_super(prelude.env["bell"], zero2), phi_plus,
                      tol=1e-12)


def test_alice_outputs_classical_bits(prelude):
    for _ in range(5):
        rho = random_density(RNG, 4)
        out = run_super(prelude.env["Alice"], rho)
        assert np.max(np.abs(out - np.diag(np.diag(out)))) <= 1e-12
        assert abs(np.trace(out) - 1) <= 1e-12


@pytest.mark.parametrize("z", [0, 1])
@pytest.mark.parametrize("x", [0, 1])
def test_bob_applies_pauli_corrections(prelude, z, x):
    bits = np.zeros((4, 4), dtype=complex)
    bits[z * 2 + x, z * 2 + x] = 1
    corr = np.linalg.matrix_power(Z, z) @ np.linalg.matrix_power(X, x)
    for _ in range(3):
        rho = random_density(RNG, 2)
        out = run_super(prelude.env["Bob"], np.kron(rho, bits))
        assert dens_close(out, corr @ rho @ corr.conj().T, tol=1e-12)


def test_teleport_moves_the_state(prelude):
    fresh = np.zeros((4, 4), dtype=complex)
    fresh[0, 0] = 1
    plus_i = pure_density(np.array([1, 1j]) / np.sqrt(2))
    out = run_super(prelude.env["teleport"], np.kron(plus_i, fresh))
    assert dens_close(out, plus_i, tol=1e-9)
    for _ in range(5):
        rho = random_density(RNG, 2)
        out = run_super(prelude.env["teleport"], np.kron(rho, fresh))
        assert dens_close(out, rho, tol=1e-9)


def test_toffoli_flips_target_on_two_controls(prelude):
    tof = prelude.env["toffoli"]
    for i, j in enumerate(TOFFOLI_PERM):
        out = run_super(tof, pure_density(np.eye(8)[i]))
        assert dens_close(out, pure_density(np.eye(8)[j]), tol=1e-12)


# --------------------------------------------------------------------------
# Loader


def test_inventory(prelude):
    names = [d.name for d in prelude.program.defs]
    assert names == list(EXPECTED_TYPES)
    for name, ts in EXPECTED_TYPES.items():
        assert type_str(prelude.types[name]) == ts


def test_prelude_is_cached():
    assert load_prelude() is load_prelude()
