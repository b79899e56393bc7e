"""Weighted skew information of operators, channels, and unitaries.

For a state rho, exponents alpha, beta >= 0 with alpha + beta <= 1, and a
mixing weight 0 <= gamma <= 1, the skew information of an (arbitrary,
possibly non-Hermitian) operator E is

    K(E) = 1/2 * || [W, E] @ T ||_F^2,
    W = (1-gamma) rho^alpha + gamma rho^beta,
    T = rho^((1-alpha-beta)/2).

The equivalent trace form -1/2 Tr([W, E^H][W, E] rho^(1-alpha-beta)) is
kept out of the runtime path (it can round slightly negative); the test
suite checks the equality. weighted_ops builds W and T from a spectrum,
one state's or a stack's, for the functions below and the bound search.
A channel's skew information is the sum of K over its Kraus operators; a
unitary channel's is K of its unitary, skew_info_op(rho, u.mat, params).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .cmatrix import EigenDecomposition, spectral_power
from .quantum import DensityMatrix, KrausChannel


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

    Built from the spectrum rho's validation computed and shared by every
    operator evaluation; a stacked cache holds the (S, d, d) arrays of S
    states that share the params.
    """

    w: np.ndarray
    tail: np.ndarray
    tail_is_identity: bool


def weighted_ops(spectrum: EigenDecomposition, params: SkewParams) -> WeightedOperatorCache:
    """W = (1-gamma) rho^alpha + gamma rho^beta and the tail power of a spectrum.

    A state's spectrum ((d,) eigenvalues, (d, d) eigenvectors, as
    ``rho.spectrum``) gives (d, d) arrays; a stack of S ((S, d), (S, d, d))
    gives (S, d, d) stacks, entry k as the lone state k gets (bit for bit:
    see skew_batch).
    """
    lams, vecs = spectrum
    ra = spectral_power(lams, vecs, params.alpha)
    rb = spectral_power(lams, vecs, params.beta)
    w = (1.0 - params.gamma) * ra + params.gamma * rb
    tail_exp = (1.0 - params.alpha - params.beta) / 2.0
    tail = spectral_power(lams, vecs, tail_exp)
    return WeightedOperatorCache(w=w, tail=tail, tail_is_identity=tail_exp == 0.0)


def skew_with_cache(cache: WeightedOperatorCache, e: np.ndarray) -> float:
    """K(E) of one operator for a prebuilt cache."""
    w = cache.w
    if e.shape != w.shape:
        raise ValueError(
            f"operator is {e.shape[0]}x{e.shape[1]}, state is {w.shape[0]}x{w.shape[1]}"
        )
    c = w @ e - e @ w
    if not cache.tail_is_identity:
        c = c @ cache.tail
    return 0.5 * float(np.vdot(c, c).real)


def skew_batch(cache: WeightedOperatorCache, ops: np.ndarray) -> np.ndarray:
    """K of every operator in an (M, d, d) stack, as an (M,) float array.

    A stacked cache of S states gives an (S, M) array, row k for state k;
    a lone (d, d) cache is a stack of one. Each product stacks operands by
    rows: W E of every state is one (S d, d) @ (d, d) product per operand,
    E W and [W, E] T one (M d, d) @ (d, d) product each per state (none for
    T = I), so M + 2S products, not 3 S M. On the SkylakeX and CooperLake
    OpenBLAS kernels each value equals skew_with_cache of that
    (C-contiguous) operator bit for bit, as the tests pin; other kernels
    round some rows of a row-stacked product otherwise at some d > 2, where
    a stacked K can then differ in the last bits (ROADMAP item 1). Stacking
    by columns (W @ [E_1 ... E_M]) or (E^T W^T)^T rounds otherwise even on
    SkylakeX. Each row is reduced by the stacked conj(row) @ row product,
    which rounds as np.vdot does (np.einsum and re^2 + im^2 do not).
    """
    w, tail = cache.w, cache.tail
    d = w.shape[-1]
    if ops.shape[1:] != w.shape[-2:]:
        raise ValueError(f"operators are {ops.shape[1:]}, state is {w.shape[-2:]}")
    m = len(ops)
    ws = w.reshape(-1, d, d)
    s = len(ws)
    we = (ws.reshape(s * d, d) @ ops).reshape(m, s, d, d).swapaxes(0, 1)
    ew = (ops.reshape(m * d, d) @ ws).reshape(s, m, d, d)
    c = (we - ew).reshape(s, m * d, d)
    if not cache.tail_is_identity:
        c = c @ tail.reshape(s, d, d)
    rows = c.reshape(s, m, 1, d * d)
    k = 0.5 * np.matmul(rows.conj(), rows.swapaxes(-1, -2))[..., 0, 0].real
    return k if w.ndim == 3 else k[0]


def _in_order_sum(terms):
    """terms[0] + terms[1] + ..., one term after another, over axis 0.

    This is Python's sum() of floats up to 3.11 (3.12 compensates) and the
    order in which numpy reduces a strided axis. + 0.0 gives an all -0.0 sum
    the +0.0 that sum()'s start of 0 gives.
    """
    total = terms[0] + 0.0
    for term in terms[1:]:
        total += term
    return total


def skew_info_op(rho: DensityMatrix, e: np.ndarray, params: SkewParams) -> float:
    """Skew information of one operator; always >= 0."""
    return skew_with_cache(weighted_ops(rho.spectrum, params), e)


def skew_info_channel(rho: DensityMatrix, ch: KrausChannel, params: SkewParams) -> float:
    """Skew information of a channel: sum of K over its Kraus operators."""
    if ch.dim != rho.dim:
        raise ValueError(f"channel dim {ch.dim} does not match state dim {rho.dim}")
    cache = weighted_ops(rho.spectrum, params)
    return _in_order_sum(skew_batch(cache, np.array(ch.ops)).tolist())
