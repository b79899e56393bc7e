"""Validated quantum objects and the standard qubit builders.

A state is validated on its own (``DensityMatrix``, ``bloch_state``), or
a stack of qubit states in one pass (``bloch_spectra``), which keeps only
the stacked spectrum the bound search reads: one eigensolve for the stack,
each member's bytes as its lone state's ``spectrum``.

Basis convention: |0> = (1, 0)^T, |1> = (0, 1)^T, Pauli matrices in the
standard representation. The Kraus matrices below depend on this choice.

JSON wire format (used by the CLI): a complex entry is a [re, im] pair,
a matrix is a list of rows of such pairs, and a channel is
``{"name": str, "kraus": [matrix, ...]}``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .cmatrix import (
    EigenDecomposition,
    as_cmatrix,
    clamp_psd_eigenvalues,
    eig_hermitian,
    raise_at_first,
)

PAULI_1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (PAULI_1, PAULI_2, PAULI_3)
IDENTITY_2 = np.eye(2, dtype=np.complex128)

TRACE_TOL = 1e-10
BLOCH_TOL = 1e-12
UNITARY_TOL = 1e-10
COMPLETENESS_TOL = 1e-8  # looser: accepts externally supplied 6-digit entries


def _freeze(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    out.flags.writeable = False
    return out


def _validated_spectrum(m: np.ndarray) -> EigenDecomposition:
    """The clamped, frozen spectrum of a coerced (d, d) matrix or (S, d, d) stack.

    One eigensolve (which checks Hermiticity first), then trace and PSD.
    """
    dec = eig_hermitian(m)
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise_at_first(off, lambda k: f"density matrix trace is {complex(tr[k]):.12g}, expected 1")
    spectrum = EigenDecomposition(clamp_psd_eigenvalues(dec.eigenvalues), dec.eigenvectors)
    for arr in spectrum:
        arr.flags.writeable = False
    return spectrum


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix.

    ``spectrum`` is the eigendecomposition of the PSD check, rounding-level
    eigenvalues zeroed (clamp_psd_eigenvalues); the skew information reads
    it, so a state is decomposed once.
    """

    mat: np.ndarray
    spectrum: EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = as_cmatrix(self.mat)
        object.__setattr__(self, "spectrum", _validated_spectrum(mat))
        object.__setattr__(self, "mat", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class KrausChannel:
    """Named channel given by Kraus operators E_i with sum_i E_i^H E_i = I."""

    name: str
    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.ops) < 1:
            raise ValueError("channel needs at least one Kraus operator")
        mats = tuple(as_cmatrix(op) for op in self.ops)
        dim = mats[0].shape[0]
        for k, op in enumerate(mats):
            if op.shape[0] != dim:
                raise ValueError(
                    f"channel '{self.name}': Kraus operator {k} is "
                    f"{op.shape[0]}x{op.shape[1]}, expected {dim}x{dim}"
                )
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for op in mats:
            acc += op.conj().T @ op
        deviation = float(np.max(np.abs(acc - np.eye(dim))))
        if deviation > COMPLETENESS_TOL:
            raise ValueError(
                f"channel '{self.name}' violates completeness: "
                f"max |sum E^H E - I| = {deviation:.3g}"
            )
        object.__setattr__(self, "ops", tuple(_freeze(m) for m in mats))

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]


@dataclass(frozen=True)
class UnitaryOp:
    """Matrix with U^H U = I."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_cmatrix(self.mat)
        dev = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary: max |U^H U - I| = {dev:.3g}")
        object.__setattr__(self, "mat", _freeze(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _bloch_matrices(vec: np.ndarray) -> np.ndarray:
    """(I + r1*s1 + r2*s2 + r3*s3) / 2 for each Bloch vector along the last axis of ``vec``."""
    r1, r2, r3 = vec.T[..., None, None]  # each component as a (..., 1, 1) block
    return 0.5 * (IDENTITY_2 + r1 * PAULI_1 + r2 * PAULI_2 + r3 * PAULI_3)


def _check_bloch(vec: np.ndarray) -> None:
    """Raise ValueError unless each Bloch vector is finite and in the unit ball.

    A (3,) vector is checked alone; an (S, 3) stack names its first bad member.
    """
    finite = np.isfinite(vec).all(axis=-1)
    if not finite.all():
        raise_at_first(~finite, lambda k: f"Bloch vector must be finite, got {vec[k].tolist()}")
    norm = np.linalg.norm(vec, axis=-1)
    outside = norm > 1.0 + BLOCH_TOL
    if outside.any():
        raise_at_first(
            outside, lambda k: f"Bloch vector outside unit ball (|r| = {float(norm[k]):.12g})"
        )


def bloch_state(r) -> DensityMatrix:
    """Qubit state (I + r1*s1 + r2*s2 + r3*s3) / 2 from a Bloch vector r."""
    vec = np.asarray(r, dtype=np.float64)
    if vec.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 real components, got shape {vec.shape}")
    _check_bloch(vec)
    return DensityMatrix(_bloch_matrices(vec))


def bloch_spectra(vectors) -> EigenDecomposition:
    """The spectra of the qubit states of an (S, 3) array of Bloch vectors.

    (S, 2) eigenvalues and (S, 2, 2) eigenvectors, member k byte for byte
    ``bloch_state(vectors[k]).spectrum``, from one eigensolve; a vector
    that is not finite or lies outside the unit ball raises ValueError
    naming its index.
    """
    vec = np.asarray(vectors, dtype=np.float64)
    if vec.ndim != 2 or vec.shape[1] != 3:
        raise ValueError(f"Bloch vectors must be an (S, 3) array, got shape {vec.shape}")
    _check_bloch(vec)
    return _validated_spectrum(_bloch_matrices(vec))


def _check_damping_rate(q: float) -> float:
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must satisfy 0 <= q < 1, got {q}")
    return q


def amplitude_damping(q: float) -> KrausChannel:
    """Damping channel with Kraus operators

        A1 = [[1, 0], [0, sqrt(1-q)]],  A2 = [[0, 0], [0, sqrt(q)]].

    Note A2 is the diagonal sqrt(q)|1><1| form, not the off-diagonal
    sqrt(q)|0><1| raising form; completeness holds either way.
    """
    q = _check_damping_rate(q)
    a1 = np.diag([1.0, np.sqrt(1.0 - q)]).astype(np.complex128)
    a2 = np.diag([0.0, np.sqrt(q)]).astype(np.complex128)
    return KrausChannel("amplitude_damping", (a1, a2))


def phase_damping(q: float) -> KrausChannel:
    """Dephasing channel with Kraus operators

        B1 = [[1, 0], [0, sqrt(1-q)]],  B2 = [[0, sqrt(q)], [0, 0]].
    """
    q = _check_damping_rate(q)
    b1 = np.diag([1.0, np.sqrt(1.0 - q)]).astype(np.complex128)
    b2 = np.array([[0.0, np.sqrt(q)], [0.0, 0.0]], dtype=np.complex128)
    return KrausChannel("phase_damping", (b1, b2))


def bit_flip(q: float) -> KrausChannel:
    """Bit flip channel with Kraus operators

        C1 = sqrt(q) * I,  C2 = sqrt(1-q) * s1.
    """
    q = _check_damping_rate(q)
    c1 = np.sqrt(q) * IDENTITY_2
    c2 = np.sqrt(1.0 - q) * PAULI_1
    return KrausChannel("bit_flip", (c1, c2))


def pauli_rotation(axis: int, angle: float) -> UnitaryOp:
    """exp(i * angle * s_axis) = cos(angle) I + i sin(angle) s_axis."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    sigma = PAULIS[axis - 1]
    return UnitaryOp(np.cos(angle) * IDENTITY_2 + 1j * np.sin(angle) * sigma)


# --- JSON wire format -------------------------------------------------------


def _entry_from_json(node, path: str) -> complex:
    if (
        not isinstance(node, (list, tuple))
        or len(node) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node)
    ):
        raise ValueError(f"{path}: expected a [re, im] number pair, got {node!r}")
    if not all(abs(v) <= sys.float_info.max for v in node):  # NaN, Infinity, or too large
        raise ValueError(f"{path}: expected finite numbers, got {node!r}")
    return complex(float(node[0]), float(node[1]))


def matrix_from_json(node, path: str = "matrix") -> np.ndarray:
    """Parse a list of rows of [re, im] pairs into a square complex matrix."""
    if not isinstance(node, list) or not node:
        raise ValueError(f"{path}: expected a non-empty list of rows")
    dim = len(node)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{path}[{i}]: expected a row of {dim} entries")
        for j, cell in enumerate(row):
            out[i, j] = _entry_from_json(cell, f"{path}[{i}][{j}]")
    return as_cmatrix(out)


def channel_from_json(obj, path: str = "channel") -> KrausChannel:
    """Parse ``{"name": str, "kraus": [matrix, ...]}`` into a KrausChannel."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object with 'name' and 'kraus'")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"{path}.name: expected a non-empty string")
    kraus = obj.get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise ValueError(f"{path}.kraus: expected a non-empty list of matrices")
    ops = tuple(
        matrix_from_json(node, f"{path}.kraus[{k}]") for k, node in enumerate(kraus)
    )
    return KrausChannel(name, ops)


def density_matrix_from_json(obj, path: str = "state") -> DensityMatrix:
    """Parse a density matrix given either bare or as ``{"rho": matrix}``."""
    node = obj.get("rho") if isinstance(obj, dict) else obj
    if node is None:
        raise ValueError(f"{path}: expected a matrix or an object with key 'rho'")
    where = f"{path}.rho" if isinstance(obj, dict) else path
    return DensityMatrix(matrix_from_json(node, where))
