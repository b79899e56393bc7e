"""Dense complex linear algebra for small Hermitian problems.

Everything operates on square ``numpy.ndarray`` matrices with dtype
complex128. Eigendecompositions come from LAPACK through
``numpy.linalg.eigh``: output is byte-identical from run to run on one
machine, and across platforms it can differ in the last bits with the
LAPACK build.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_EIGENVALUE_FLOOR = -1e-10


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge."""


def as_cmatrix(entries) -> np.ndarray:
    """Coerce input to a square complex128 matrix with finite entries."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


class EigenDecomposition(NamedTuple):
    """Spectral data of a Hermitian matrix.

    eigenvalues: real, in descending order.
    eigenvectors: unitary matrix whose k-th column belongs to eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(x: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    The input is checked to be Hermitian within HERMITIAN_TOL; a LAPACK
    failure to converge is raised as ConvergenceError.
    """
    a = as_cmatrix(x)
    asym = float(np.max(np.abs(a - a.conj().T)))
    if asym > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max |x - x^H| entry = {asym:.3e}")
    try:
        lams, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(lams[::-1], vecs[:, ::-1])


def clamp_psd_eigenvalues(lams: np.ndarray) -> np.ndarray:
    """Zero out rounding-level eigenvalues; reject genuinely negative ones.

    Eigenvalues at or below d * eps * max|lambda| become exact zeros, so a
    zero eigenvalue computed as a residue of either sign gives 0^p = 0 for
    every p > 0, not a value near 1.
    """
    low = float(lams.min()) if lams.size else 0.0
    if low < PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"not positive semidefinite: eigenvalue {low:.3e}")
    cutoff = lams.size * np.finfo(np.float64).eps * float(np.abs(lams).max(initial=0.0))
    return np.where(lams <= cutoff, 0.0, lams)


def spectral_power(lams: np.ndarray, vecs: np.ndarray, p: float) -> np.ndarray:
    """vecs diag(lams^p) vecs^H; p = 0 gives the identity exactly.

    ``lams`` and ``vecs`` may carry leading stack axes, (..., d) and
    (..., d, d); each matrix of the stack is computed as the unstacked
    call computes it.
    """
    if p == 0.0:
        eye = np.empty(vecs.shape, dtype=np.complex128)
        eye[...] = np.eye(lams.shape[-1])
        return eye
    return (vecs * (lams**p)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def matrix_power(mat: np.ndarray, p: float) -> np.ndarray:
    """Fractional power of a Hermitian PSD matrix through its eigenbasis.

    p = 0 returns the identity exactly, also on singular input. This is a
    convention, not a limit: on a singular matrix, mat^p tends to the
    projector onto the support as p -> 0+, so the result jumps at p = 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"power must be in [0, 1], got {p}")
    dec = eig_hermitian(mat)
    return spectral_power(clamp_psd_eigenvalues(dec.eigenvalues), dec.eigenvectors, p)
