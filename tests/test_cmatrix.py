import math

import numpy as np
import pytest

from chanskew.cmatrix import as_cmatrix, clamp_psd_eigenvalues, eig_hermitian, spectral_power
from chanskew.quantum import IDENTITY_2, PAULI_1, PAULI_2, PAULI_3, DensityMatrix

from support import random_hermitian, random_density


class TestArithmetic:
    def test_adjoint_pauli_is_hermitian(self):
        np.testing.assert_array_equal(PAULI_2.conj().T, PAULI_2)

    def test_pauli_involution(self):
        np.testing.assert_allclose(PAULI_1 @ PAULI_1, IDENTITY_2, atol=0)

    def test_as_cmatrix_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            as_cmatrix(np.ones((2, 3)))
        # NaN and Inf, each alone in the real or in the imaginary part
        for bad in (np.nan, np.inf, complex(0, np.nan), complex(0, np.inf)):
            m = np.eye(2, dtype=complex)
            m[0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                as_cmatrix(m)


class TestCommutator:
    def test_pauli_algebra(self):
        np.testing.assert_allclose(PAULI_1 @ PAULI_2 - PAULI_2 @ PAULI_1, 2j * PAULI_3, atol=1e-15)


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


class TestStackedSpectra:
    def test_stack_equals_lone_decompositions(self, rng):
        for dim in (2, 3, 5):
            stack = np.array([random_hermitian(rng, dim) for _ in range(6)])
            dec = eig_hermitian(stack)
            assert dec.eigenvalues.shape == (6, dim)
            assert dec.eigenvectors.shape == (6, dim, dim)
            for k, h in enumerate(stack):
                lone = eig_hermitian(h)
                assert dec.eigenvalues[k].tobytes() == lone.eigenvalues.tobytes()
                assert dec.eigenvectors[k].tobytes() == lone.eigenvectors.tobytes()

    def test_clamp_cuts_each_row_at_its_own_scale(self):
        eps = np.finfo(np.float64).eps
        lams = np.array(
            [
                # pure state: three rounding residues below 4 eps * 1
                [1.0, 5e-16, 1e-16, -3e-16],
                # nearly maximally mixed on three levels, with a genuine
                # eigenvalue above its own cutoff 4 eps / 3 but below 4 eps
                [1 / 3, 1 / 3, 1 / 3 - 5e-16, 5e-16],
            ]
        )
        rows = np.array([clamp_psd_eigenvalues(row) for row in lams])
        stacked = clamp_psd_eigenvalues(lams)
        assert stacked.tobytes() == rows.tobytes()
        np.testing.assert_array_equal(stacked[0], [1.0, 0.0, 0.0, 0.0])
        assert stacked[1, 3] == 5e-16
        # one cutoff from the largest eigenvalue of the whole stack would zero it
        assert 5e-16 <= 4 * eps * lams.max()


class TestMatrixPower:
    # rho^p as the program computes it, from the state's validated spectrum
    def test_diagonal_sqrt(self):
        out = spectral_power(*DensityMatrix(np.diag([0.75, 0.25])).spectrum, 0.5)
        np.testing.assert_allclose(out, np.diag([0.8660254037844386, 0.5]), atol=1e-15)

    def test_power_zero_is_identity_even_for_singular(self):
        pure = DensityMatrix(np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(spectral_power(*pure.spectrum, 0.0), IDENTITY_2)

    def test_power_one_reconstructs(self, rng):
        rho = random_density(rng, 4)
        np.testing.assert_allclose(spectral_power(*rho.spectrum, 1.0), rho.mat, atol=1e-10)

    def test_semigroup(self, rng):
        for k in range(100):
            spectrum = random_density(rng, 2 + k % 5).spectrum
            p = rng.random()
            q = rng.random() * (1.0 - p)
            lhs = spectral_power(*spectrum, p) @ spectral_power(*spectrum, q)
            np.testing.assert_allclose(lhs, spectral_power(*spectrum, p + q), atol=1e-9)

    def test_clamps_tiny_negative_eigenvalue(self):
        out = spectral_power(*DensityMatrix(np.diag([1.0, -5e-11])).spectrum, 0.5)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
