"""Dense complex linear algebra for small Hermitian problems.

Everything operates on square complex128 ``numpy.ndarray`` matrices, or
on (S, d, d) stacks of them where a docstring says so, each matrix of a
stack coming out as the lone call gives it. Eigendecompositions come from
LAPACK (``numpy.linalg.eigh``): byte-identical from run to run on one
machine, and across LAPACK builds equal up to the last bits.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, NoReturn

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_EIGENVALUE_FLOOR = -1e-10


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge."""


def raise_at_first(bad: np.ndarray, message: Callable[[object], str]) -> NoReturn:
    """Raise ValueError(message(k)) for the first flagged matrix k.

    Called once a check has failed. ``bad`` holds one flag per matrix: a
    0-d flag for a lone matrix (k = ()), shape (S,) for a stack, whose
    message is then prefixed with the member's index.
    """
    if bad.ndim == 0:
        raise ValueError(message(()))
    k = int(np.argmax(bad))
    raise ValueError(f"stack member {k}: {message(k)}")


def _as_squares(entries, ndim: int, what: str) -> np.ndarray:
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected {what}, got shape {m.shape}")
    finite = np.isfinite(m)
    if not finite.all():
        raise_at_first(
            ~finite.all(axis=(-2, -1)), lambda k: "matrix entries must be finite (no NaN/Inf)"
        )
    return m


def as_cmatrix(entries) -> np.ndarray:
    """Coerce input to a square complex128 matrix with finite entries."""
    return _as_squares(entries, 2, "a square matrix")


def as_cmatrix_stack(entries) -> np.ndarray:
    """Coerce input to an (S, d, d) stack of square complex128 matrices with finite entries."""
    return _as_squares(entries, 3, "an (S, d, d) stack of square matrices")


class EigenDecomposition(NamedTuple):
    """Spectral data of a Hermitian matrix.

    eigenvalues: real, in descending order.
    eigenvectors: unitary matrix whose k-th column belongs to eigenvalues[k].
    Decomposing an (S, d, d) stack gives both a leading stack axis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(x: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    ``x`` is a (d, d) matrix or an (S, d, d) stack, decomposed by one eigh
    call into (..., d) eigenvalues, descending, and (..., d, d) eigenvectors.
    It must be Hermitian within HERMITIAN_TOL; LAPACK non-convergence is
    raised as ConvergenceError.
    """
    a = np.asarray(x, dtype=np.complex128)
    a = as_cmatrix_stack(a) if a.ndim == 3 else as_cmatrix(a)
    asym = np.abs(a - a.conj().swapaxes(-1, -2))
    if asym.max(initial=0.0) > HERMITIAN_TOL:
        worst = asym.max(axis=(-2, -1))
        raise_at_first(
            worst > HERMITIAN_TOL,
            lambda k: f"matrix is not Hermitian: max |x - x^H| entry = {float(worst[k]):.3e}",
        )
    try:
        lams, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(lams[..., ::-1], vecs[..., ::-1])


def clamp_psd_eigenvalues(lams: np.ndarray) -> np.ndarray:
    """Zero out rounding-level eigenvalues; reject genuinely negative ones.

    ``lams`` is (d,) or (S, d). Eigenvalues at or below d * eps * max|lambda|
    of their row become exact zeros, so a zero eigenvalue computed as a
    residue of either sign gives 0^p = 0 for every p > 0, not nearly 1.
    """
    if lams.min(initial=0.0) < PSD_EIGENVALUE_FLOOR:
        low = lams.min(axis=-1)
        raise_at_first(
            low < PSD_EIGENVALUE_FLOOR,
            lambda k: f"not positive semidefinite: eigenvalue {float(low[k]):.3e}",
        )
    scale = np.abs(lams).max(axis=-1, initial=0.0, keepdims=True)
    cutoff = lams.shape[-1] * np.finfo(np.float64).eps * scale
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
