import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanskew.cmatrix import (
    adjoint,
    as_cmatrix,
    commutator,
    eig_hermitian,
    hs_norm_sq,
    matrix_power,
)
from chanskew.quantum import IDENTITY_2, PAULI_1, PAULI_2, PAULI_3

from support import random_hermitian, random_density


@st.composite
def complex_matrices(draw, max_dim=4):
    dim = draw(st.integers(1, max_dim))
    finite = st.floats(-5.0, 5.0, allow_nan=False)
    entries = st.lists(
        st.lists(st.tuples(finite, finite), min_size=dim, max_size=dim),
        min_size=dim,
        max_size=dim,
    )
    rows = draw(entries)
    return np.array([[complex(re, im) for re, im in row] for row in rows])


class TestArithmetic:
    def test_adjoint_pauli_is_hermitian(self):
        np.testing.assert_array_equal(adjoint(PAULI_2), PAULI_2)

    def test_pauli_involution(self):
        np.testing.assert_allclose(PAULI_1 @ PAULI_1, IDENTITY_2, atol=0)

    @pytest.mark.parametrize("op", [commutator])
    def test_dimension_mismatch_reports_both_dims(self, op):
        with pytest.raises(ValueError, match="2x2 vs 3x3"):
            op(IDENTITY_2, np.eye(3, dtype=complex))

    def test_as_cmatrix_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            as_cmatrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            as_cmatrix(np.array([[np.nan, 0], [0, 1]]))


class TestCommutator:
    def test_identity_commutes(self, rng):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_array_equal(commutator(np.eye(4, dtype=complex), x), np.zeros((4, 4)))

    def test_pauli_algebra(self):
        np.testing.assert_allclose(commutator(PAULI_1, PAULI_2), 2j * PAULI_3, atol=1e-15)

    def test_diagonal_with_flip(self):
        # [diag(a, b), s1] = (a - b) * [[0, 1], [-1, 0]]
        a, b = 1.7, -0.4
        expected = (a - b) * np.array([[0, 1], [-1, 0]], dtype=complex)
        np.testing.assert_allclose(commutator(np.diag([a, b]).astype(complex), PAULI_1), expected, atol=1e-15)

    @given(complex_matrices(), complex_matrices())
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, x, y):
        if x.shape != y.shape:
            return
        np.testing.assert_array_equal(commutator(x, y), -commutator(y, x))


class TestHsNorm:
    def test_zero(self):
        assert hs_norm_sq(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_identity(self):
        assert hs_norm_sq(np.eye(5, dtype=complex)) == pytest.approx(5.0, abs=0)

    def test_pauli_combination(self):
        # s1 + i s2 = [[0, 2], [0, 0]]
        assert hs_norm_sq(PAULI_1 + 1j * PAULI_2) == pytest.approx(4.0, abs=1e-15)

    @given(complex_matrices())
    @settings(max_examples=50, deadline=None)
    def test_adjoint_invariance(self, x):
        assert abs(hs_norm_sq(x) - hs_norm_sq(adjoint(x))) <= 1e-12 * max(1.0, hs_norm_sq(x))


class TestEigHermitian:
    def test_already_diagonal(self):
        dec = eig_hermitian(np.diag([0.75, 0.25]).astype(complex))
        np.testing.assert_allclose(dec.eigenvalues, [0.75, 0.25], atol=0)
        np.testing.assert_allclose(dec.eigenvectors, IDENTITY_2, atol=0)

    def test_pauli_spectrum(self):
        dec = eig_hermitian(PAULI_1)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)
        s = 1.0 / math.sqrt(2.0)
        # columns up to phase; fix phase via first component
        v = dec.eigenvectors
        v = v / (v[0] / np.abs(v[0]))
        np.testing.assert_allclose(np.abs(v), [[s, s], [s, s]], atol=1e-14)

    def test_planar_qubit_spectrum(self):
        # (I + (sqrt(3)/2) s2) / 2 has eigenvalues (2 +/- sqrt(3)) / 4
        rho = 0.5 * (IDENTITY_2 + (math.sqrt(3.0) / 2.0) * PAULI_2)
        dec = eig_hermitian(rho)
        expected = [(2.0 + math.sqrt(3.0)) / 4.0, (2.0 - math.sqrt(3.0)) / 4.0]
        np.testing.assert_allclose(dec.eigenvalues, expected, atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_descending_order_with_stable_ties(self, rng):
        dec = eig_hermitian(np.diag([1.0, 3.0, 3.0, -1.0]).astype(complex))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 3.0, 1.0, -1.0], atol=0)
        # the two tied columns span the tied eigenspace; their order within it is free
        tied = dec.eigenvectors[:, :2]
        np.testing.assert_allclose(tied @ tied.conj().T, np.diag([0, 1, 1, 0]), atol=1e-15)

    def test_reconstruction_and_orthonormality(self, rng):
        for k in range(100):
            dim = 2 + k % 5
            h = random_hermitian(rng, dim)
            dec = eig_hermitian(h)
            v, lam = dec.eigenvectors, dec.eigenvalues
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-10
            assert np.max(np.abs((v * lam) @ v.conj().T - h)) <= 1e-10

    def test_matches_lapack_eigenvalues(self, rng):
        for k in range(25):
            h = random_hermitian(rng, 2 + k % 5)
            dec = eig_hermitian(h)
            np.testing.assert_allclose(
                np.sort(dec.eigenvalues), np.linalg.eigvalsh(h), atol=1e-12
            )

    def test_deterministic(self, rng):
        h = random_hermitian(rng, 5)
        first, second = eig_hermitian(h), eig_hermitian(h)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


class TestMatrixPower:
    def test_diagonal_sqrt(self):
        out = matrix_power(np.diag([0.75, 0.25]).astype(complex), 0.5)
        np.testing.assert_allclose(out, np.diag([0.8660254037844386, 0.5]), atol=1e-15)

    def test_power_zero_is_identity_even_for_singular(self):
        pure = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_array_equal(matrix_power(pure, 0.0), IDENTITY_2)

    def test_power_one_reconstructs(self, rng):
        rho = random_density(rng, 4).mat
        np.testing.assert_allclose(matrix_power(rho, 1.0), rho, atol=1e-10)

    def test_semigroup(self, rng):
        for k in range(100):
            rho = random_density(rng, 2 + k % 5).mat
            p = rng.random()
            q = rng.random() * (1.0 - p)
            lhs = matrix_power(rho, p) @ matrix_power(rho, q)
            np.testing.assert_allclose(lhs, matrix_power(rho, p + q), atol=1e-9)

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            matrix_power(np.diag([1.0, -0.5]).astype(complex), 0.5)

    def test_rejects_power_outside_unit_interval(self):
        with pytest.raises(ValueError, match="power"):
            matrix_power(IDENTITY_2, 1.5)

    def test_clamps_tiny_negative_eigenvalue(self):
        out = matrix_power(np.diag([1.0, -5e-11]).astype(complex), 0.5)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
