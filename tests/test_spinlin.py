import numpy as np
import pytest

from qslsense import spinlin
from qslsense.spinlin import (
    ContractViolation,
    expectation,
    overlap_probability,
    spin_operators,
)

# spinlin's closed form for 2x2 generators, an eigendecomposition for 3x3
from oracles import matexp_antihermitian


def taylor_expm(h, t, terms=50):
    """Independent oracle: scaled 50-term Taylor series with repeated squaring."""
    a = -1j * t * np.asarray(h, dtype=complex)
    k = 0
    while np.linalg.norm(a, ord=2) > 0.25:
        a = a / 2.0
        k += 1
    u = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for j in range(1, terms + 1):
        term = term @ a / j
        u = u + term
    for _ in range(k):
        u = u @ u
    return u


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


class TestSpinOperators:
    def test_sz_half(self):
        _, _, sz = spin_operators("half")
        assert np.allclose(sz, np.diag([0.5, -0.5]))

    def test_sz_one(self):
        _, _, sz = spin_operators("one")
        assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))

    def test_casimir_half(self):
        sx, sy, sz = spin_operators("half")
        assert np.allclose(sx @ sx + sy @ sy + sz @ sz, 0.75 * np.eye(2))

    def test_casimir_one(self):
        sx, sy, sz = spin_operators("one")
        assert np.allclose(sx @ sx + sy @ sy + sz @ sz, 2.0 * np.eye(3))

    @pytest.mark.parametrize("spin", ["half", "one"])
    def test_commutators(self, spin):
        ops = spin_operators(spin)
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            comm = ops[i] @ ops[j] - ops[j] @ ops[i]
            assert np.max(np.abs(comm - 1j * ops[k])) <= 1e-12

    def test_unknown_spin(self):
        with pytest.raises(ValueError):
            spin_operators("three-halves")


class TestMatexp:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3):
            h = random_hermitian(rng, dim)
            assert np.allclose(matexp_antihermitian(h, 0.0), np.eye(dim))

    def test_pi_rotation_about_y(self):
        _, sy, _ = spin_operators("half")
        omega = 2 * np.pi * 5e6
        u = matexp_antihermitian(omega * sy, np.pi / omega)
        psi = u @ np.array([1.0, 0.0], dtype=complex)
        assert abs(psi[0]) < 1e-12
        assert abs(abs(psi[1]) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_against_taylor_oracle(self, dim):
        rng = np.random.default_rng(42)
        for _ in range(20):
            h = random_hermitian(rng, dim)
            t = rng.uniform(0.1, 2.0)
            assert np.max(np.abs(matexp_antihermitian(h, t) - taylor_expm(h, t))) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unitarity_and_norm(self, dim):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = random_hermitian(rng, dim)
            u = matexp_antihermitian(h, rng.uniform(0, 10))
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            assert abs(np.linalg.norm(u @ psi) - 1.0) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_composition(self, dim):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_hermitian(rng, dim)
            t1, t2 = rng.uniform(0, 2, size=2)
            lhs = matexp_antihermitian(h, t1) @ matexp_antihermitian(h, t2)
            rhs = matexp_antihermitian(h, t1 + t2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_scalar_generator_is_a_phase(self):
        # H = a I: the Pauli vector vanishes and only the sin(x)/x limit applies
        u = matexp_antihermitian(2.0 * np.eye(2, dtype=complex), 0.3)
        assert np.max(np.abs(u - np.exp(-0.6j) * np.eye(2))) <= 1e-15

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ContractViolation):
            matexp_antihermitian(m, 1.0)

    def test_unsupported_dimension(self):
        for dim in (3, 4):
            with pytest.raises(ContractViolation, match="only dimension 2"):
                spinlin.matexp_antihermitian(np.eye(dim, dtype=complex), 1.0)


class TestExpectation:
    def test_sz_eigenstate(self):
        _, _, sz = spin_operators("half")
        assert expectation(sz, np.array([1, 0], dtype=complex)) == pytest.approx(0.5)

    def test_sy_on_basis_state(self):
        _, sy, _ = spin_operators("half")
        assert expectation(sy, np.array([1, 0], dtype=complex)) == pytest.approx(0.0, abs=1e-15)

    def test_sz_squared_spin1(self):
        _, _, sz = spin_operators("one")
        psi = np.array([1, 0, 1], dtype=complex) / np.sqrt(2)
        assert expectation(sz @ sz, psi) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        _, _, sz = spin_operators("one")
        with pytest.raises(ContractViolation):
            expectation(sz, np.array([1, 0], dtype=complex))


class TestOverlap:
    def test_self_overlap(self):
        psi = np.array([0.6, 0.8j], dtype=complex)
        assert overlap_probability(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert overlap_probability(np.array([1, 0], dtype=complex),
                                   np.array([0, 1], dtype=complex)) == 0.0

    def test_equal_superposition(self):
        a = np.array([1, 0], dtype=complex)
        b = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert overlap_probability(a, b) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            overlap_probability(np.array([1, 0], dtype=complex),
                                np.array([1, 0, 0], dtype=complex))

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractViolation):
            overlap_probability(np.array([2, 0], dtype=complex),
                                np.array([1, 0], dtype=complex))
