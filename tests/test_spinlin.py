import numpy as np
import pytest

from qslsense import spinlin
from qslsense.spinlin import SX, SY, SZ, ContractViolation, expectation

import oracles
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


# the spin-1/2 constants of the package and the spin-1 matrices of the tests' oracles
_OPS = {"half": (SX, SY, SZ), "one": (oracles.SX1, oracles.SY1, oracles.SZ1)}


class TestSpinOperators:
    def test_sz_half(self):
        assert np.allclose(SZ, np.diag([0.5, -0.5]))

    def test_sz_one(self):
        assert np.allclose(oracles.SZ1, np.diag([1.0, 0.0, -1.0]))

    def test_casimir_half(self):
        assert np.allclose(SX @ SX + SY @ SY + SZ @ SZ, 0.75 * np.eye(2))

    def test_casimir_one(self):
        sx, sy, sz = _OPS["one"]
        assert np.allclose(sx @ sx + sy @ sy + sz @ sz, 2.0 * np.eye(3))

    @pytest.mark.parametrize("spin", ["half", "one"])
    def test_commutators(self, spin):
        ops = _OPS[spin]
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            comm = ops[i] @ ops[j] - ops[j] @ ops[i]
            assert np.max(np.abs(comm - 1j * ops[k])) <= 1e-12

    def test_constants_are_read_only(self):
        for op in (SX, SY, SZ):
            with pytest.raises(ValueError):
                op *= 2.0
        assert SZ[0, 0] == 0.5


class TestMatexp:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3):
            h = random_hermitian(rng, dim)
            assert np.allclose(matexp_antihermitian(h, 0.0), np.eye(dim))

    def test_pi_rotation_about_y(self):
        omega = 2 * np.pi * 5e6
        u = matexp_antihermitian(omega * SY, np.pi / omega)
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
        with pytest.raises(ContractViolation, match="only dimension 2"):
            spinlin.matexp_antihermitian(np.zeros((4, 3, 3), dtype=complex), 1.0)


class TestStacks:
    """Stacks along leading axes behave as their members one by one."""

    def test_matexp_stack_equals_each_matrix(self):
        rng = np.random.default_rng(8)
        h = np.array([[random_hermitian(rng, 2) for _ in range(3)] for _ in range(4)])
        t = rng.uniform(0.0, 3.0, size=(4, 1))
        u = spinlin.matexp_antihermitian(h, t)
        assert u.shape == (4, 3, 2, 2)
        for i, j in np.ndindex(4, 3):
            alone = spinlin.matexp_antihermitian(h[i, j], float(t[i, 0]))
            assert np.max(np.abs(u[i, j] - alone)) <= 1e-15

    def test_one_non_hermitian_member_fails_the_stack(self):
        rng = np.random.default_rng(2)
        h = np.array([random_hermitian(rng, 2) for _ in range(5)])
        spinlin.check_hermitian(h)
        h[3, 0, 1] += 1e-6
        with pytest.raises(ContractViolation, match="not Hermitian"):
            spinlin.check_hermitian(h)
        with pytest.raises(ContractViolation, match="not Hermitian"):
            spinlin.matexp_antihermitian(h, 1.0)

    def test_non_square_stack_rejected(self):
        with pytest.raises(ContractViolation, match="square"):
            spinlin.check_hermitian(np.zeros((3, 2, 3)))

    def test_one_unnormalized_row_fails_the_stack(self):
        psi = np.tile(np.array([0.6, 0.8j]), (3, 4, 1))
        spinlin.check_state(psi)
        psi[2, 1] *= 1.0 + 1e-8
        with pytest.raises(ContractViolation, match="not normalized"):
            spinlin.check_state(psi)


class TestSu2Propagator:
    """The real/imaginary-part construction equals the complex-expression oracle."""

    @staticmethod
    def assert_equal(args):
        new, old = spinlin.su2_propagator(*args), oracles.su2_propagator(*args)
        for a, b in zip(new, old):
            assert np.shape(a) == np.shape(b)
            # == compares -0.0 equal to 0.0: only the sign of zeros may differ
            assert np.array_equal(a, b)

    def test_arrays(self):
        rng = np.random.default_rng(5)
        dw = rng.normal(size=(7, 33)) * 1e7
        h = rng.uniform(1e-10, 1e-9, 33)
        for wx, wy in ((0.0, 6e7), (6e7, 0.0), (-3e7, 2e7)):
            self.assert_equal((wx, wy, dw, h))
        self.assert_equal((rng.normal(size=33), rng.normal(size=33), rng.normal(size=33), 0.7))

    def test_scalars(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            self.assert_equal((*rng.normal(size=3), rng.uniform(0, 5)))

    def test_zero_rate_is_identity(self):
        self.assert_equal((0.0, 0.0, 0.0, 0.3))
        wz = np.array([0.0, 1.0, 0.0, -2.0])
        self.assert_equal((0.0, 0.0, wz, np.array([0.5, 0.5, 0.0, 1.0])))
        u00, u01, u10, u11 = spinlin.su2_propagator(0.0, 0.0, wz, 0.5)
        assert u00[[0, 2]].tolist() == [1.0, 1.0] and not u01[[0, 2]].any()


class TestExpectation:
    def test_sz_eigenstate(self):
        assert expectation(SZ, np.array([1, 0], dtype=complex)) == pytest.approx(0.5)

    def test_sy_on_basis_state(self):
        assert expectation(SY, np.array([1, 0], dtype=complex)) == pytest.approx(0.0, abs=1e-15)

    def test_sz_squared_spin1(self):
        sz = oracles.SZ1
        psi = np.array([1, 0, 1], dtype=complex) / np.sqrt(2)
        assert expectation(sz @ sz, psi) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            expectation(oracles.SZ1, np.array([1, 0], dtype=complex))


class TestNan:
    """A NaN fails every contract check: each is written as "not inside the range"."""

    @pytest.mark.parametrize("check", [
        lambda: spinlin.check_state(np.array([np.nan, 0.0])),
        lambda: spinlin.check_state(np.array([[1.0, 0.0], [np.nan, 0.0]])),
        lambda: spinlin.check_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]])),
        lambda: expectation(SZ, np.array([np.nan, 0.0])),
    ], ids=["state", "state-stack-row", "hermitian", "expectation"])
    def test_nan_raises(self, check):
        with pytest.raises(ContractViolation):
            check()
