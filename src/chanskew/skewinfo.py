"""Weighted skew information of operators, channels, and unitaries.

For a state rho, exponents alpha, beta >= 0 with alpha + beta <= 1, and a
mixing weight 0 <= gamma <= 1, the skew information of an (arbitrary,
possibly non-Hermitian) operator E is

    K(E) = 1/2 * || [W, E] @ T ||_F^2,
    W = (1-gamma) rho^alpha + gamma rho^beta,
    T = rho^((1-alpha-beta)/2).

The equivalent trace form -1/2 Tr([W, E^H][W, E] rho^(1-alpha-beta)) is
kept out of the runtime path (it can round slightly negative); the test
suite checks the equality. A channel's skew information is the sum of
K over its Kraus operators; a unitary channel's is K of its unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmatrix import clamp_psd_eigenvalues, eig_hermitian, spectral_power
from .quantum import DensityMatrix, KrausChannel, UnitaryOp


@dataclass(frozen=True)
class SkewParams:
    """Exponent pair (alpha, beta) and mixing weight gamma."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a, b, g = self.alpha, self.beta, self.gamma
        if not (a >= 0.0 and b >= 0.0 and a + b <= 1.0):
            raise ValueError(
                f"need alpha >= 0, beta >= 0, alpha + beta <= 1; got ({a}, {b})"
            )
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"need 0 <= gamma <= 1; got {g}")


@dataclass(frozen=True)
class WeightedOperatorCache:
    """Precomputed W and tail power T for one (rho, params) pair.

    Built from a single eigendecomposition of rho and shared across all
    operator evaluations (the permutation search re-evaluates K heavily).
    """

    w: np.ndarray
    tail: np.ndarray
    tail_is_identity: bool

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def weighted_ops(rho: DensityMatrix, params: SkewParams) -> WeightedOperatorCache:
    """Compute W = (1-gamma) rho^alpha + gamma rho^beta and the tail power."""
    dec = eig_hermitian(rho.mat)
    lams = clamp_psd_eigenvalues(dec.eigenvalues)
    ra = spectral_power(lams, dec.eigenvectors, params.alpha)
    rb = spectral_power(lams, dec.eigenvectors, params.beta)
    w = (1.0 - params.gamma) * ra + params.gamma * rb
    tail_exp = (1.0 - params.alpha - params.beta) / 2.0
    tail = spectral_power(lams, dec.eigenvectors, tail_exp)
    return WeightedOperatorCache(w=w, tail=tail, tail_is_identity=tail_exp == 0.0)


def skew_with_cache(cache: WeightedOperatorCache, e: np.ndarray) -> float:
    """K(E) for a prebuilt cache; the hot path of the bound search."""
    w = cache.w
    if e.shape != w.shape:
        raise ValueError(
            f"operator is {e.shape[0]}x{e.shape[1]}, state is {w.shape[0]}x{w.shape[1]}"
        )
    c = w @ e - e @ w
    if not cache.tail_is_identity:
        c = c @ cache.tail
    return 0.5 * float(np.vdot(c, c).real)


def skew_info_op(rho: DensityMatrix, e: np.ndarray, params: SkewParams) -> float:
    """Skew information of one operator; always >= 0."""
    return skew_with_cache(weighted_ops(rho, params), e)


def skew_info_channel(rho: DensityMatrix, ch: KrausChannel, params: SkewParams) -> float:
    """Skew information of a channel: sum of K over its Kraus operators."""
    if ch.dim != rho.dim:
        raise ValueError(f"channel dim {ch.dim} does not match state dim {rho.dim}")
    cache = weighted_ops(rho, params)
    return sum(skew_with_cache(cache, op) for op in ch.ops)


def skew_info_unitary(rho: DensityMatrix, u: UnitaryOp, params: SkewParams) -> float:
    """Skew information of the unitary channel rho -> U rho U^H."""
    return skew_info_op(rho, u.mat, params)
