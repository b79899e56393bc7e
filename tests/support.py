"""Independent oracles and random generators shared by the test modules.

The skew-information oracles are deliberately built on numpy.linalg
(eigh, qr, norm) directly instead of the package's cache machinery, so
the comparisons in the tests are genuine dual-route checks. The search
oracle evaluates every permutation tuple on its own, one K per operand,
and is the reference the chunked table search must match bit for bit;
the unitary oracle evaluates the three unitary bounds from their own
formulas, and the search run on one-Kraus channels must match it bit for
bit. Both share the package's K evaluator, since what they check is the
search. The norm check at the end tests the three vector-norm
inequalities the channel bounds rest on: it fills the package's K tables
with squared vector norms and scores them with the package's scorer. The
seeded qubit-state, parameter and unitary generators are the package's
own (``chanskew.repro``), which ``selftest`` uses.
"""

import functools
import operator

import numpy as np

from chanskew.bounds import (
    ARGMAX_MARGIN,
    BoundArgmax,
    BoundReport,
    _KTables,
    _pair_index,
    _padded_kraus,
    _safe_sqrt,
    _score_chunk,
    enumerate_tuples,
)
from chanskew.bounds import UnitaryBoundReport
from chanskew.cmatrix import EigenDecomposition
from chanskew.quantum import DensityMatrix, KrausChannel
from chanskew.repro import random_params, random_qubit_state, random_unitary  # noqa: F401
from chanskew.skewinfo import skew_with_cache, weighted_ops


def in_order_sum(values):
    """0 + v_0 + v_1 + ..., one term at a time: Python's sum() of floats up
    to 3.11 (3.12 compensates, which can move the last bit)."""
    return functools.reduce(operator.add, values, 0)


def eigh_power(mat: np.ndarray, p: float) -> np.ndarray:
    """Fractional PSD power via numpy.linalg.eigh; p = 0 gives the identity."""
    if p == 0.0:
        return np.eye(mat.shape[0], dtype=np.complex128)
    lam, v = np.linalg.eigh(mat)
    lam = np.clip(lam, 0.0, None)
    return (v * lam**p) @ v.conj().T


def weighted_mid(rho: np.ndarray, alpha: float, beta: float, gamma: float) -> np.ndarray:
    return (1.0 - gamma) * eigh_power(rho, alpha) + gamma * eigh_power(rho, beta)


def direct_skew(rho, e, alpha, beta, gamma) -> float:
    """Norm form 1/2 ||[W, E] rho^((1-a-b)/2)||^2, all numpy primitives."""
    w = weighted_mid(rho, alpha, beta, gamma)
    c = (w @ e - e @ w) @ eigh_power(rho, (1.0 - alpha - beta) / 2.0)
    return 0.5 * np.linalg.norm(c) ** 2


def trace_form_skew(rho, e, alpha, beta, gamma) -> float:
    """Trace form -1/2 Tr([W, E^H][W, E] rho^(1-a-b))."""
    w = weighted_mid(rho, alpha, beta, gamma)
    ca = w @ e.conj().T - e.conj().T @ w
    cb = w @ e - e @ w
    return -0.5 * np.trace(ca @ cb @ eigh_power(rho, 1.0 - alpha - beta)).real


def stacked_channel_skew(rho, ops, alpha, beta, gamma) -> float:
    """1/2 || [ [W,E_1]T  [W,E_2]T  ... ] ||^2 for the block-row stack."""
    w = weighted_mid(rho, alpha, beta, gamma)
    tail = eigh_power(rho, (1.0 - alpha - beta) / 2.0)
    blocks = [(w @ e - e @ w) @ tail for e in ops]
    return 0.5 * np.linalg.norm(np.hstack(blocks)) ** 2


# direct formulas for the reduced one- and two-parameter families


def skew_mean_arbitrary(rho, e, alpha) -> float:
    """-1/2 Tr([M, E^H][M, E]) with M = (rho^a + rho^(1-a)) / 2."""
    m = 0.5 * (eigh_power(rho, alpha) + eigh_power(rho, 1.0 - alpha))
    ca = m @ e.conj().T - e.conj().T @ m
    cb = m @ e - e @ m
    return -0.5 * np.trace(ca @ cb).real


def skew_mean_hermitian(rho, a_mat, alpha) -> float:
    """-1/2 Tr([M, A]^2) with M = (rho^a + rho^(1-a)) / 2, A Hermitian."""
    m = 0.5 * (eigh_power(rho, alpha) + eigh_power(rho, 1.0 - alpha))
    c = m @ a_mat - a_mat @ m
    return -0.5 * np.trace(c @ c).real


def skew_weighted_arbitrary(rho, e, alpha, gamma) -> float:
    """-1/2 Tr([M, E^H][M, E]) with M = (1-g) rho^a + g rho^(1-a)."""
    m = weighted_mid(rho, alpha, 1.0 - alpha, gamma)
    ca = m @ e.conj().T - e.conj().T @ m
    cb = m @ e - e @ m
    return -0.5 * np.trace(ca @ cb).real


def skew_weighted_hermitian(rho, a_mat, alpha, gamma) -> float:
    """-1/2 Tr([M, A]^2) with M = (1-g) rho^a + g rho^(1-a), A Hermitian."""
    m = weighted_mid(rho, alpha, 1.0 - alpha, gamma)
    c = m @ a_mat - a_mat @ m
    return -0.5 * np.trace(c @ c).real


def skew_two_exponent_hermitian(rho, a_mat, alpha, beta, gamma) -> float:
    """-1/2 Tr([W, A]^2 rho^(1-a-b)) with W = (1-g) rho^a + g rho^b."""
    w = weighted_mid(rho, alpha, beta, gamma)
    c = w @ a_mat - a_mat @ w
    return -0.5 * np.trace(c @ c @ eigh_power(rho, 1.0 - alpha - beta)).real


def stacked_spectrum(states) -> EigenDecomposition:
    """The states' spectra as one (S, d) and (S, d, d) stack, as the search reads them."""
    return EigenDecomposition(*(np.array(arrays) for arrays in zip(*(rho.spectrum for rho in states))))


# random inputs


def random_matrix(rng, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = random_matrix(rng, dim)
    return 0.5 * (g + g.conj().T)


def random_density(rng, dim: int) -> DensityMatrix:
    """Full-rank random state rho = G G^H / Tr(G G^H)."""
    g = random_matrix(rng, dim)
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_channel(rng, dim: int, n_ops: int, name: str = "random") -> KrausChannel:
    """Random Kraus channel from the blocks of a random isometry."""
    g = rng.normal(size=(n_ops * dim, dim)) + 1j * rng.normal(size=(n_ops * dim, dim))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[k * dim : (k + 1) * dim, :] for k in range(n_ops))
    return KrausChannel(name, ops)


def random_remix(rng, ch: KrausChannel) -> KrausChannel:
    """The same channel as another Kraus set: F_j = sum_i V_ji E_i, V unitary."""
    v = random_unitary(rng, len(ch.ops)).mat
    ops = tuple(sum(v[j, i] * e for i, e in enumerate(ch.ops)) for j in range(len(ch.ops)))
    return KrausChannel(f"{ch.name}_remixed", ops)


# per-tuple search oracle


def tuple_terms(cache, kraus, perms):
    """Skew informations of permuted Kraus combinations for one tuple.

    Returns (plus, minus, col): plus/minus are (num_pairs, n) arrays of
    K(E^t_i +/- E^s_i) over pairs t < s, col is the length-n array of
    K(sum_t E^t_i).
    """
    big_n = len(kraus)
    n = len(kraus[0])
    pairs = _pair_index(big_n)
    plus = np.zeros((len(pairs), n))
    minus = np.zeros((len(pairs), n))
    for k, (t, s) in enumerate(pairs):
        for i in range(n):
            et = kraus[t][perms[t][i]]
            es = kraus[s][perms[s][i]]
            plus[k, i] = skew_with_cache(cache, et + es)
            minus[k, i] = skew_with_cache(cache, et - es)
    col = np.zeros(n)
    for i in range(n):
        total = sum(kraus[t][perms[t][i]] for t in range(big_n))
        col[i] = skew_with_cache(cache, total)
    return plus, minus, col


def lb1_value(plus, big_n):
    deficit = _safe_sqrt(plus.sum(axis=1)).sum() ** 2 / (big_n - 1) ** 2
    return float(plus.sum() - deficit) / (big_n - 2)


def ob1_value(plus, big_n):
    deficit = (_safe_sqrt(plus).sum(axis=0) ** 2).sum() / (big_n - 1) ** 2
    return float(plus.sum() - deficit) / (big_n - 2)


def lb2_value(col, minus, big_n):
    spread = _safe_sqrt(minus.sum(axis=1)).sum() ** 2
    return float(col.sum() / big_n + 2.0 * spread / (big_n**2 * (big_n - 1)))


def ob2_value(col, minus, big_n):
    spread = (_safe_sqrt(minus).sum(axis=0) ** 2).sum()
    return float(col.sum() / big_n + 2.0 * spread / (big_n**2 * (big_n - 1)))


def lb3_value(plain, root, big_n):
    spread = _safe_sqrt(root.sum(axis=1)).sum() ** 2
    return float(plain.sum() + 2.0 * spread / (big_n * (big_n - 1))) / (2.0 * (big_n - 1))


def ob3_value(plain, root, big_n):
    spread = (_safe_sqrt(root).sum(axis=0) ** 2).sum()
    return float(plain.sum() + 2.0 * spread / (big_n * (big_n - 1))) / (2.0 * (big_n - 1))


def table_terms(tables, perms):
    """tuple_terms of one tuple, read from the K tables of one state."""
    big_n, n = len(perms), len(perms[0])
    pairs = _pair_index(big_n)

    def pair_terms(table):
        return np.array(
            [[table[(k * n + perms[t][i]) * n + perms[s][i]] for i in range(n)]
             for k, (t, s) in enumerate(pairs)]
        )

    col_at = [np.ravel_multi_index([p[i] for p in perms], (n,) * big_n) for i in range(n)]
    return pair_terms(tables.plus), pair_terms(tables.minus), tables.col[col_at]


def terms_values(plus, minus, col, big_n):
    """Every bound value of one tuple of N channels from its terms (see tuple_terms)."""
    return {
        "lb1": lb1_value(plus, big_n) if big_n > 2 else None,
        "ob1": ob1_value(plus, big_n) if big_n > 2 else None,
        "lb2": lb2_value(col, minus, big_n),
        "ob2": ob2_value(col, minus, big_n),
        "lb3_x0": lb3_value(plus, minus, big_n),
        "lb3_x1": lb3_value(minus, plus, big_n),
        "ob3_x0": ob3_value(plus, minus, big_n),
        "ob3_x1": ob3_value(minus, plus, big_n),
    }


def oracle_tuple_values(cache, channels, perms):
    """tuple_bound_values, one formula call per bound and sign variant."""
    plus, minus, col = tuple_terms(cache, _padded_kraus(channels), perms)
    return terms_values(plus, minus, col, len(channels))


def oracle_channel_bound_report(rho, channels, params, sign_variant=1):
    """channel_bound_report by evaluating every tuple in turn.

    A later tuple (or sign variant) replaces the argmax only when it beats
    the best so far by more than ARGMAX_MARGIN.
    """
    kraus = _padded_kraus(channels)
    big_n = len(kraus)
    cache = weighted_ops(rho.spectrum, params)
    total = in_order_sum(skew_with_cache(cache, op) for ops in kraus for op in ops)
    variants = (0, 1) if sign_variant is None else (sign_variant,)
    best = {}

    def offer(name, value, perms, x):
        cur = best.get(name)
        if cur is None or value > cur[0] + ARGMAX_MARGIN:
            best[name] = (value, perms, x)

    for perms in enumerate_tuples(len(kraus[0]), big_n, cap=10**7):
        plus, minus, col = tuple_terms(cache, kraus, perms)
        if big_n > 2:
            offer("lb1", lb1_value(plus, big_n), perms, None)
            offer("ob1", ob1_value(plus, big_n), perms, None)
        offer("lb2", lb2_value(col, minus, big_n), perms, None)
        offer("ob2", ob2_value(col, minus, big_n), perms, None)
        for x in variants:
            plain, root = (plus, minus) if x == 0 else (minus, plus)
            offer("lb3", lb3_value(plain, root, big_n), perms, x)
            offer("ob3", ob3_value(plain, root, big_n), perms, x)
    return BoundReport(
        sum=total,
        ob1=best["ob1"][0] if big_n > 2 else None,
        ob2=best["ob2"][0],
        ob3=best["ob3"][0],
        lb1=best["lb1"][0] if big_n > 2 else None,
        lb2=best["lb2"][0],
        lb3=best["lb3"][0],
        argmax={name: BoundArgmax(perms=v[1], x=v[2]) for name, v in best.items()},
    )


# unitary oracle: the unitary bounds from their own formulas


def unitary_terms(cache, mats):
    """(plus, minus): K(U_t + U_s) and K(U_t - U_s) over pairs t < s."""
    pairs = _pair_index(len(mats))
    kp = np.array([skew_with_cache(cache, mats[t] + mats[s]) for t, s in pairs])
    km = np.array([skew_with_cache(cache, mats[t] - mats[s]) for t, s in pairs])
    return kp, km


def unitary_lb1_value(kp, big_n):
    return float(kp.sum() - _safe_sqrt(kp).sum() ** 2 / (big_n - 1) ** 2) / (big_n - 2)


def unitary_lb2_value(cache, mats, km, big_n):
    mean_term = skew_with_cache(cache, sum(mats)) / big_n
    return float(mean_term + 2.0 * _safe_sqrt(km).sum() ** 2 / (big_n**2 * (big_n - 1)))


def unitary_lb3_value(kp, km, big_n):
    """Best of the two sign variants; variant 1 must beat 0 by ARGMAX_MARGIN."""
    best_value, best_x = -np.inf, 0
    for x, (plain, root) in enumerate([(kp, km), (km, kp)]):
        value = float(
            plain.sum() + 2.0 * _safe_sqrt(root).sum() ** 2 / (big_n * (big_n - 1))
        ) / (2.0 * (big_n - 1))
        if value > best_value + ARGMAX_MARGIN:
            best_value, best_x = value, x
    return best_value, best_x


def oracle_unitary_bound_report(rho, unitaries, params):
    """unitary_bound_report from the formulas above."""
    mats = [u.mat for u in unitaries]
    big_n = len(mats)
    cache = weighted_ops(rho.spectrum, params)
    kp, km = unitary_terms(cache, mats)
    lb3, x = unitary_lb3_value(kp, km, big_n)
    return UnitaryBoundReport(
        sum=in_order_sum(skew_with_cache(cache, m) for m in mats),
        lb1=unitary_lb1_value(kp, big_n) if big_n > 2 else None,
        lb2=unitary_lb2_value(cache, mats, km, big_n),
        lb3=lb3,
        argmax_x=x,
    )


# vector-norm inequalities the channel bounds rest on


def norm_inequality_check(vectors, slack: float = 1e-9) -> tuple[bool | None, bool, bool]:
    """Check the three vector-norm inequalities the channel bounds rest on.

    For finite-dimensional complex vectors u_1..u_N and S = sum ||u_t||^2:

    1. (N > 2)  S >= [sum_{t<s} ||u_t+u_s||^2
                      - (sum_{t<s} ||u_t+u_s||)^2 / (N-1)^2] / (N-2)
    2.          S >= ||sum u_t||^2 / N
                      + 2 (sum_{t<s} ||u_t-u_s||)^2 / (N^2 (N-1))
    3.          S >= [2 (sum ||u_t (+/-) u_s||)^2 / (N(N-1))
                      + sum ||u_t (-/+) u_s||^2] / (2(N-1)), both sign choices

    Returns (holds1, holds2, holds3) within ``slack``; holds1 is None when
    N = 2.
    """
    us = [np.asarray(v, dtype=np.complex128).ravel() for v in vectors]
    big_n = len(us)
    if big_n < 2:
        raise ValueError(f"need at least 2 vectors, got {big_n}")
    dim = us[0].size
    for k, u in enumerate(us):
        if u.size != dim:
            raise ValueError(f"vector {k} has {u.size} components, expected {dim}")

    def nsq(v):
        return float(np.vdot(v, v).real)

    pairs = _pair_index(big_n)
    tables = _KTables(
        kraus=np.array([nsq(u) for u in us]),
        plus=np.array([nsq(us[t] + us[s]) for t, s in pairs]),
        minus=np.array([nsq(us[t] - us[s]) for t, s in pairs]),
        col=np.array([nsq(sum(us))]),
    )
    # the vectors are one-Kraus "channels": the single tuple, both variants
    scored = _score_chunk(tables, np.zeros((1, big_n, 1), dtype=np.intp), (0, 1))
    lhs = in_order_sum(tables.kraus.tolist()) + slack
    holds1 = bool(lhs >= scored["lb1"][0]) if big_n > 2 else None
    return holds1, bool(lhs >= scored["lb2"][0]), bool(np.all(lhs >= scored["lb3"]))
