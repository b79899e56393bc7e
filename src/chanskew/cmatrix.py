"""Dense complex linear algebra for small Hermitian problems.

Everything operates on square ``numpy.ndarray`` matrices with dtype
complex128. The eigensolver is a cyclic-by-row complex Jacobi iteration,
chosen for robustness and bitwise determinism at the tiny dimensions
(<= ~16) this package targets, not for speed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_EIGENVALUE_FLOOR = -1e-10
JACOBI_SWEEP_CAP = 100
JACOBI_REL_TOL = 1e-13


class ConvergenceError(RuntimeError):
    """The Jacobi eigensolver did not converge within JACOBI_SWEEP_CAP sweeps."""


def as_cmatrix(entries) -> np.ndarray:
    """Coerce input to a square complex128 matrix with finite entries."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def _require_same_dim(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(
            f"{op}: dimension mismatch, {a.shape[0]}x{a.shape[1]} vs "
            f"{b.shape[0]}x{b.shape[1]}"
        )


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _require_same_dim(a, b, "add")
    return a + b


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _require_same_dim(a, b, "sub")
    return a - b


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b."""
    _require_same_dim(a, b, "mul")
    return a @ b


def scale(a: np.ndarray, factor: complex) -> np.ndarray:
    return factor * a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """xy - yx."""
    _require_same_dim(x, y, "commutator")
    return x @ y - y @ x


def hs_norm_sq(x: np.ndarray) -> float:
    """Squared Hilbert-Schmidt (Frobenius) norm, Tr(x^H x) = sum |x_ij|^2."""
    return float(np.vdot(x, x).real)


class EigenDecomposition(NamedTuple):
    """Spectral data of a Hermitian matrix.

    eigenvalues: real, in descending order (stable index order on ties).
    eigenvectors: unitary matrix whose k-th column belongs to eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One two-sided unitary rotation zeroing a[p, q] (and a[q, p]) in place."""
    apq = a[p, q]
    absa = abs(apq)
    if absa == 0.0:
        return
    phase = apq / absa
    tau = (a[q, q].real - a[p, p].real) / (2.0 * absa)
    # smaller-angle root of t^2 + 2*tau*t - 1 = 0
    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    # J = I except J[p,p]=J[q,q]=c, J[p,q]=s*phase, J[q,p]=-s*conj(phase)
    cp, cq = a[:, p].copy(), a[:, q].copy()
    a[:, p] = c * cp - s * np.conj(phase) * cq
    a[:, q] = s * phase * cp + c * cq
    rp, rq = a[p, :].copy(), a[q, :].copy()
    a[p, :] = c * rp - s * phase * rq
    a[q, :] = s * np.conj(phase) * rp + c * rq
    vp, vq = v[:, p].copy(), v[:, q].copy()
    v[:, p] = c * vp - s * np.conj(phase) * vq
    v[:, q] = s * phase * vp + c * vq


def eig_hermitian(x: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic complex Jacobi sweeps.

    Converged when the off-diagonal Frobenius norm falls below
    JACOBI_REL_TOL times the Frobenius norm of the input; at most
    JACOBI_SWEEP_CAP sweeps. The sweep order and tie handling are fixed,
    so the output is deterministic for a given input.
    """
    a = as_cmatrix(x).copy()
    asym = float(np.max(np.abs(a - a.conj().T)))
    if asym > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max |x - x^H| entry = {asym:.3e}")
    # work on the exactly-Hermitian average so diagonals stay real
    a = 0.5 * (a + a.conj().T)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    target = JACOBI_REL_TOL * float(np.linalg.norm(a))
    converged = False
    for _ in range(JACOBI_SWEEP_CAP):
        if _offdiag_norm(a) <= target:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, v, p, q)
    else:
        converged = _offdiag_norm(a) <= target
    if not converged:
        raise ConvergenceError(
            f"Jacobi eigensolver did not converge within {JACOBI_SWEEP_CAP} sweeps "
            f"(off-diagonal norm {_offdiag_norm(a):.3e}, target {target:.3e})"
        )
    lams = np.diag(a).real.copy()
    order = np.argsort(-lams, kind="stable")
    return EigenDecomposition(lams[order], v[:, order])


def clamp_psd_eigenvalues(lams: np.ndarray) -> np.ndarray:
    """Zero out tiny negative eigenvalues; reject genuinely negative ones."""
    low = float(lams.min()) if lams.size else 0.0
    if low < PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"not positive semidefinite: eigenvalue {low:.3e}")
    return np.where(lams < 0.0, 0.0, lams)


def matrix_power(mat: np.ndarray, p: float) -> np.ndarray:
    """Fractional power of a Hermitian PSD matrix through its eigenbasis.

    p = 0 returns the identity exactly (also on singular input), so that
    powers depending on a parameter vary continuously into the boundary
    case where the exponent vanishes.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"power must be in [0, 1], got {p}")
    m = as_cmatrix(mat)
    if p == 0.0:
        return np.eye(m.shape[0], dtype=np.complex128)
    dec = eig_hermitian(m)
    lams = clamp_psd_eigenvalues(dec.eigenvalues)
    return (dec.eigenvectors * lams**p) @ dec.eigenvectors.conj().T
