"""Sum-uncertainty lower bounds for N channels and N unitaries.

All channel bounds are exact maximizations over tuples of Kraus-index
permutations (one permutation per channel, the first fixed to the
identity, which is justified by invariance under a common relabeling).
Two families are computed:

* lb1/lb2/lb3 aggregate each pairwise term over the Kraus index first
  and take the square root of the per-pair sums ("outer" aggregation);
* ob1/ob2/ob3 take square roots per Kraus index and square the per-index
  sums ("inner" aggregation).

lb3/ob3 come in two sign variants: variant 0 uses Kraus sums in the
plain term and differences under the square roots, variant 1 swaps the
two. The reference comparison tables use variant 1, which is therefore
the default; pass ``sign_variant=None`` to maximize over both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .quantum import DensityMatrix, KrausChannel, UnitaryOp
from .skewinfo import SkewParams, WeightedOperatorCache, skew_with_cache, weighted_ops

DEFAULT_TUPLE_CAP = 10**6
SOUNDNESS_TOL = 1e-9
SQRT_CLAMP_FLOOR = -1e-12
# a later tuple replaces the argmax only if strictly better than this margin
ARGMAX_MARGIN = 1e-12
# tuples scored per vectorized step; bounds the gathered arrays to
# SEARCH_CHUNK * P * n floats whatever the tuple count
SEARCH_CHUNK = 4096
SIGN_VARIANT_DEFAULT = 1

PermTuple = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BoundArgmax:
    """Permutation tuple (and sign variant, where applicable) attaining a bound."""

    perms: PermTuple
    x: int | None = None


@dataclass(frozen=True)
class BoundReport:
    """All six channel bounds plus the exact sum for one configuration.

    lb1/ob1 are None when only two channels are given (they need N > 2).
    """

    sum: float
    ob1: float | None
    ob2: float
    ob3: float
    lb1: float | None
    lb2: float
    lb3: float
    argmax: dict[str, BoundArgmax]

    def soundness_violations(self, tol: float = SOUNDNESS_TOL) -> list[str]:
        """Empty iff every bound is below the sum and lb2/lb3 dominate ob2/ob3."""
        out = []
        for name in ("ob1", "ob2", "ob3", "lb1", "lb2", "lb3"):
            value = getattr(self, name)
            if value is not None and value > self.sum + tol:
                out.append(f"{name} = {value!r} exceeds sum = {self.sum!r}")
        if self.lb2 < self.ob2 - tol:
            out.append(f"lb2 = {self.lb2!r} below ob2 = {self.ob2!r}")
        if self.lb3 < self.ob3 - tol:
            out.append(f"lb3 = {self.lb3!r} below ob3 = {self.ob3!r}")
        return out

    def to_json_dict(self) -> dict:
        data = {
            name: getattr(self, name)
            for name in ("sum", "ob1", "ob2", "ob3", "lb1", "lb2", "lb3")
        }
        data["argmax"] = {
            name: {"perms": [list(p) for p in am.perms], "x": am.x}
            for name, am in self.argmax.items()
        }
        return data


@dataclass(frozen=True)
class UnitaryBoundReport:
    """The three unitary-channel bounds plus the exact sum.

    lb1 is None when only two unitaries are given; argmax_x records the
    sign variant attaining lb3.
    """

    sum: float
    lb1: float | None
    lb2: float
    lb3: float
    argmax_x: int

    def soundness_violations(self, tol: float = SOUNDNESS_TOL) -> list[str]:
        out = []
        for name in ("lb1", "lb2", "lb3"):
            value = getattr(self, name)
            if value is not None and value > self.sum + tol:
                out.append(f"{name} = {value!r} exceeds sum = {self.sum!r}")
        return out


def _safe_sqrt(values: np.ndarray) -> np.ndarray:
    """Square root with tiny negative rounding artifacts clamped to zero."""
    arr = np.asarray(values, dtype=np.float64)
    low = float(arr.min(initial=0.0))
    if low < SQRT_CLAMP_FLOOR:
        raise ValueError(f"skew information value unexpectedly negative: {low:.3e}")
    return np.sqrt(np.where(arr < 0.0, 0.0, arr))


def _tuple_count(n: int, big_n: int, cap: int) -> int:
    """(n!)^(N-1), or a ValueError when that exceeds ``cap``."""
    if n < 1:
        raise ValueError(f"need n >= 1 Kraus operators, got {n}")
    if big_n < 2:
        raise ValueError(f"need N >= 2 channels, got {big_n}")
    count = math.factorial(n) ** (big_n - 1)
    if count > cap:
        raise ValueError(
            f"permutation search needs {count} tuples, above the cap of {cap}; "
            "raise the cap to run the exact maximization anyway"
        )
    return count


def enumerate_tuples(n: int, big_n: int, cap: int = DEFAULT_TUPLE_CAP) -> Iterator[PermTuple]:
    """All (n!)^(N-1) permutation tuples with the first fixed to identity.

    Order is lexicographic and deterministic. Raises immediately if the
    count exceeds ``cap`` so that an accidental huge search is an
    explicit choice.
    """
    _tuple_count(n, big_n, cap)
    identity = tuple(range(n))
    perms = list(itertools.permutations(range(n)))
    return ((identity,) + rest for rest in itertools.product(perms, repeat=big_n - 1))


def _padded_kraus(channels: Sequence[KrausChannel]) -> list[list[np.ndarray]]:
    """Kraus lists padded with zero operators to a common length.

    Zero operators contribute zero skew information, so sums are
    unchanged; only the permutation search space grows.
    """
    if len(channels) < 2:
        raise ValueError(f"need at least 2 channels, got {len(channels)}")
    dim = channels[0].dim
    for ch in channels:
        if ch.dim != dim:
            raise ValueError(
                f"channel '{ch.name}' has dim {ch.dim}, expected {dim}"
            )
    n = max(len(ch.ops) for ch in channels)
    zero = np.zeros((dim, dim), dtype=np.complex128)
    return [list(ch.ops) + [zero] * (n - len(ch.ops)) for ch in channels]


def _check_channel_dims(rho: DensityMatrix, channels: Sequence[KrausChannel]) -> None:
    for ch in channels:
        if ch.dim != rho.dim:
            raise ValueError(
                f"channel '{ch.name}' dim {ch.dim} does not match state dim {rho.dim}"
            )


def _pair_index(big_n: int) -> list[tuple[int, int]]:
    return [(t, s) for t in range(big_n) for s in range(t + 1, big_n)]


_NEEDS_PLUS = frozenset({"lb1", "ob1", "lb3", "ob3"})
_NEEDS_MINUS = frozenset({"lb2", "ob2", "lb3", "ob3"})
_NEEDS_COL = frozenset({"lb2", "ob2"})
_ALL_BOUNDS = ("lb1", "ob1", "lb2", "ob2", "lb3", "ob3")

_libm_pow = np.frompyfunc(math.pow, 2, 1)


def _scalar_square(values: np.ndarray) -> np.ndarray:
    """Elementwise ``v ** 2`` as a numpy float64 scalar computes it.

    The scalar operator calls the C library's pow, which rounds
    differently from v * v (what ``array ** 2`` computes) about once in a
    thousand values; math.pow is that same pow.
    """
    return _libm_pow(values, 2.0).astype(np.float64)


@dataclass(frozen=True)
class _KTables:
    """Every distinct K value a search reads, each evaluated once.

    For the k-th channel pair (t, s), pairs["plus"] holds K(E^t_a + E^s_b)
    at flat position (k * n + a) * n + b, and pairs["minus"] the same for
    E^t_a - E^s_b. col holds K(sum_t E^t_{i_t}) at the flat position of
    (i_0, ..., i_{N-1}) in C order. Each operand is built with the
    expression a per-tuple evaluation uses (``et + es``, ``et - es``,
    ``sum()`` over the channels in order), so every entry is
    bit-identical to the K value it stands for. Tables the requested
    bounds do not read are left out.
    """

    big_n: int
    n: int
    pairs: dict[str, np.ndarray]
    col: np.ndarray | None


def _k_tables(cache: WeightedOperatorCache, kraus: list[list[np.ndarray]], which) -> _KTables:
    big_n, n = len(kraus), len(kraus[0])
    wanted = set(which)
    pair_ops = [(et, es) for t, s in _pair_index(big_n) for et in kraus[t] for es in kraus[s]]
    pairs = {}
    if _NEEDS_PLUS & wanted:
        pairs["plus"] = np.array([skew_with_cache(cache, et + es) for et, es in pair_ops])
    if _NEEDS_MINUS & wanted:
        pairs["minus"] = np.array([skew_with_cache(cache, et - es) for et, es in pair_ops])
    col = None
    if _NEEDS_COL & wanted:
        col = np.array([
            skew_with_cache(cache, sum(kraus[t][i] for t, i in enumerate(idx)))
            for idx in itertools.product(range(n), repeat=big_n)
        ])
    return _KTables(big_n, n, pairs, col)


def _score_chunk(
    tables: _KTables, idx: np.ndarray, which, variants: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Bound values of a chunk of tuples, in the order a search offers them.

    ``idx`` holds the Kraus indices, idx[c, t, i] = perms[t][i] of the c-th
    tuple. lb1/ob1/lb2/ob2 come back with shape (C,), lb3/ob3 with shape
    (C, len(variants)). The per-tuple formulas are evaluated in the same
    operation order on gathered (C, P, n) arrays; these are C-contiguous so
    that numpy reduces the pair and Kraus axes in the same order as it does
    for one tuple's (P, n) array.
    """
    big_n, n = tables.big_n, tables.n
    pair_ts = np.array(_pair_index(big_n), dtype=np.intp)
    flat = np.ascontiguousarray(
        np.arange(len(pair_ts))[:, None] * n * n
        + idx[:, pair_ts[:, 0], :] * n
        + idx[:, pair_ts[:, 1], :]
    )
    terms = {}  # "plus"/"minus" -> (total, lb spread, ob spread) per tuple
    for name, table in tables.pairs.items():
        k = np.ascontiguousarray(table[flat])
        terms[name] = (
            k.sum(axis=(1, 2)),
            _scalar_square(_safe_sqrt(k.sum(axis=2)).sum(axis=1)),
            (_safe_sqrt(k).sum(axis=1) ** 2).sum(axis=1),
        )
    out = {}
    if "lb1" in which or "ob1" in which:
        total, lb_spread, ob_spread = terms["plus"]
        if "lb1" in which:
            out["lb1"] = (total - lb_spread / (big_n - 1) ** 2) / (big_n - 2)
        if "ob1" in which:
            out["ob1"] = (total - ob_spread / (big_n - 1) ** 2) / (big_n - 2)
    if "lb2" in which or "ob2" in which:
        weights = n ** np.arange(big_n - 1, -1, -1)
        col_idx = np.ascontiguousarray(np.einsum("ctn,t->cn", idx, weights))
        mean = np.ascontiguousarray(tables.col[col_idx]).sum(axis=1) / big_n
        _, lb_spread, ob_spread = terms["minus"]
        if "lb2" in which:
            out["lb2"] = mean + 2.0 * lb_spread / (big_n**2 * (big_n - 1))
        if "ob2" in which:
            out["ob2"] = mean + 2.0 * ob_spread / (big_n**2 * (big_n - 1))
    for name, spread_at in (("lb3", 1), ("ob3", 2)):
        if name in which:
            by_variant = []
            for x in variants:
                plain, root = ("plus", "minus") if x == 0 else ("minus", "plus")
                spread = terms[root][spread_at]
                by_variant.append(
                    (terms[plain][0] + 2.0 * spread / (big_n * (big_n - 1))) / (2.0 * (big_n - 1))
                )
            out[name] = np.stack(by_variant, axis=1)
    return out


def tuple_bound_values(
    cache: WeightedOperatorCache,
    channels: Sequence[KrausChannel],
    perms: PermTuple,
) -> dict[str, float | None]:
    """All bound values at one fixed permutation tuple (no maximization).

    Diagnostic surface used by the dominance and invariance tests; keys
    lb3/ob3 appear per sign variant as lb3_x0, lb3_x1, ob3_x0, ob3_x1.
    lb1/ob1 are None when N = 2.
    """
    kraus = _padded_kraus(channels)
    big_n = len(kraus)
    which = _ALL_BOUNDS if big_n > 2 else _ALL_BOUNDS[2:]
    tables = _k_tables(cache, kraus, which)
    idx = np.array(perms, dtype=np.intp)[None]
    scored = _score_chunk(tables, idx, which, (0, 1))
    values: dict[str, float | None] = {
        name: float(scored[name][0]) if name in scored else None
        for name in ("lb1", "ob1", "lb2", "ob2")
    }
    for name in ("lb3", "ob3"):
        for x in (0, 1):
            values[f"{name}_x{x}"] = float(scored[name][0, x])
    return values


def _offer_chunk(best: dict, name: str, values: np.ndarray, first: int) -> None:
    """Carry the running argmax over values offered in order.

    The rule is sequential: the first value offered is taken, and a later
    one replaces the best only if it exceeds it by more than ARGMAX_MARGIN.
    A replacement is the first value above the current best plus the
    margin, which is where the running maximum first exceeds that level.
    ``first`` is the offer position of values[0]; best[name] holds
    (value, position).
    """
    cur = best.get(name) or (float(values[0]), first)
    running = np.maximum.accumulate(values)
    while True:
        j = int(np.searchsorted(running, cur[0] + ARGMAX_MARGIN, side="right"))
        if j == len(values):
            break
        cur = (float(values[j]), first + j)
    best[name] = cur


def _search_channel_bounds(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    which: Sequence[str],
    cap: int,
    sign_variant: int | None,
    cache: WeightedOperatorCache | None = None,
) -> dict[str, tuple[float, PermTuple, int | None]]:
    """Maximize the requested bounds jointly over one tuple enumeration.

    Tuples are scored in lexicographic order, SEARCH_CHUNK at a time, from
    K tables built once; the result is bit-identical to evaluating every
    tuple on its own, including which tuple wins a tie.
    """
    kraus = _padded_kraus(channels)
    big_n = len(kraus)
    n = len(kraus[0])
    if big_n <= 2 and ("lb1" in which or "ob1" in which):
        name = "lb1" if "lb1" in which else "ob1"
        raise ValueError(f"{name.upper()} requires N > 2 channels, got {big_n}")
    if sign_variant not in (None, 0, 1):
        raise ValueError(f"sign_variant must be 0, 1 or None, got {sign_variant}")
    _check_channel_dims(rho, channels)
    count = _tuple_count(n, big_n, cap)
    if cache is None:
        cache = weighted_ops(rho, params)
    variants = (0, 1) if sign_variant is None else (sign_variant,)
    tables = _k_tables(cache, kraus, which)
    perm_list = list(itertools.permutations(range(n)))
    perm_arr = np.array(perm_list, dtype=np.intp)
    best: dict[str, tuple[float, int]] = {}
    for lo in range(0, count, SEARCH_CHUNK):
        rest = np.arange(lo, min(lo + SEARCH_CHUNK, count))
        idx = np.empty((len(rest), big_n, n), dtype=np.intp)
        idx[:, 0, :] = np.arange(n)
        for t in range(big_n - 1, 0, -1):  # the last channel varies fastest
            rest, digit = np.divmod(rest, len(perm_list))
            idx[:, t, :] = perm_arr[digit]
        for name, values in _score_chunk(tables, idx, which, variants).items():
            per_tuple = values.size // len(idx)
            _offer_chunk(best, name, values.ravel(), lo * per_tuple)

    def decode(position: int, per_tuple: int) -> tuple[PermTuple, int]:
        tuple_id, slot = divmod(position, per_tuple)
        rest = []
        for _ in range(big_n - 1):
            tuple_id, digit = divmod(tuple_id, len(perm_list))
            rest.append(perm_list[digit])
        return (perm_list[0], *reversed(rest)), slot

    found = {}
    for name, (value, position) in best.items():
        if name in ("lb3", "ob3"):
            perms, slot = decode(position, len(variants))
            found[name] = (value, perms, variants[slot])
        else:
            found[name] = (value, decode(position, 1)[0], None)
    return found


def lb1(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
) -> tuple[float, PermTuple]:
    """Pairwise-sum bound with the deficit aggregated across pairs; N > 2."""
    value, perms, _ = _search_channel_bounds(rho, channels, params, ("lb1",), cap, None)["lb1"]
    return value, perms


def ob1(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
) -> tuple[float, PermTuple]:
    """lb1 counterpart with the deficit aggregated per Kraus index; N > 2."""
    value, perms, _ = _search_channel_bounds(rho, channels, params, ("ob1",), cap, None)["ob1"]
    return value, perms


def lb2(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
) -> tuple[float, PermTuple]:
    """Mean of column sums plus a pairwise-difference spread term."""
    value, perms, _ = _search_channel_bounds(rho, channels, params, ("lb2",), cap, None)["lb2"]
    return value, perms


def ob2(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
) -> tuple[float, PermTuple]:
    """lb2 counterpart with the spread aggregated per Kraus index."""
    value, perms, _ = _search_channel_bounds(rho, channels, params, ("ob2",), cap, None)["ob2"]
    return value, perms


def lb3(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
    sign_variant: int | None = SIGN_VARIANT_DEFAULT,
) -> tuple[float, PermTuple, int]:
    """Mixed sum/difference bound; see the module docstring for variants."""
    value, perms, x = _search_channel_bounds(
        rho, channels, params, ("lb3",), cap, sign_variant
    )["lb3"]
    return value, perms, x


def ob3(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
    sign_variant: int | None = SIGN_VARIANT_DEFAULT,
) -> tuple[float, PermTuple, int]:
    """lb3 counterpart with per-index aggregation."""
    value, perms, x = _search_channel_bounds(
        rho, channels, params, ("ob3",), cap, sign_variant
    )["ob3"]
    return value, perms, x


def channel_bound_report(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
    sign_variant: int | None = SIGN_VARIANT_DEFAULT,
) -> BoundReport:
    """Exact sum and all six bounds, sharing one cache and one enumeration."""
    _check_channel_dims(rho, channels)
    kraus = _padded_kraus(channels)
    big_n = len(kraus)
    cache = weighted_ops(rho, params)
    total = sum(skew_with_cache(cache, op) for ops in kraus for op in ops)
    which = ["lb2", "ob2", "lb3", "ob3"]
    if big_n > 2:
        which += ["lb1", "ob1"]
    found = _search_channel_bounds(rho, channels, params, which, cap, sign_variant, cache)
    argmax = {
        name: BoundArgmax(perms=found[name][1], x=found[name][2]) for name in found
    }
    return BoundReport(
        sum=total,
        ob1=found["ob1"][0] if "ob1" in found else None,
        ob2=found["ob2"][0],
        ob3=found["ob3"][0],
        lb1=found["lb1"][0] if "lb1" in found else None,
        lb2=found["lb2"][0],
        lb3=found["lb3"][0],
        argmax=argmax,
    )


# --- unitary channels (single Kraus operator, no permutation search) --------


def _unitary_terms(cache: WeightedOperatorCache, mats: list[np.ndarray]):
    pairs = _pair_index(len(mats))
    kp = np.array([skew_with_cache(cache, mats[t] + mats[s]) for t, s in pairs])
    km = np.array([skew_with_cache(cache, mats[t] - mats[s]) for t, s in pairs])
    return kp, km


def _unwrap_unitaries(rho: DensityMatrix, unitaries: Sequence[UnitaryOp]) -> list[np.ndarray]:
    if len(unitaries) < 2:
        raise ValueError(f"need at least 2 unitaries, got {len(unitaries)}")
    for k, u in enumerate(unitaries):
        if u.dim != rho.dim:
            raise ValueError(f"unitary {k} dim {u.dim} does not match state dim {rho.dim}")
    return [u.mat for u in unitaries]


def _unitary_lb1_value(kp: np.ndarray, big_n: int) -> float:
    return float(kp.sum() - _safe_sqrt(kp).sum() ** 2 / (big_n - 1) ** 2) / (big_n - 2)


def _unitary_lb2_value(cache, mats, km: np.ndarray, big_n: int) -> float:
    mean_term = skew_with_cache(cache, sum(mats)) / big_n
    return float(mean_term + 2.0 * _safe_sqrt(km).sum() ** 2 / (big_n**2 * (big_n - 1)))


def _unitary_lb3_value(kp: np.ndarray, km: np.ndarray, big_n: int) -> tuple[float, int]:
    best_value, best_x = -math.inf, 0
    for x, (plain, root) in enumerate([(kp, km), (km, kp)]):
        value = float(
            plain.sum() + 2.0 * _safe_sqrt(root).sum() ** 2 / (big_n * (big_n - 1))
        ) / (2.0 * (big_n - 1))
        if value > best_value + ARGMAX_MARGIN:
            best_value, best_x = value, x
    return best_value, best_x


def unitary_lb1(rho: DensityMatrix, unitaries: Sequence[UnitaryOp], params: SkewParams) -> float:
    """Pairwise-sum bound for unitary channels; N > 2."""
    mats = _unwrap_unitaries(rho, unitaries)
    big_n = len(mats)
    if big_n <= 2:
        raise ValueError(f"LB1 requires N > 2 unitaries, got {big_n}")
    cache = weighted_ops(rho, params)
    kp, _ = _unitary_terms(cache, mats)
    return _unitary_lb1_value(kp, big_n)


def unitary_lb2(rho: DensityMatrix, unitaries: Sequence[UnitaryOp], params: SkewParams) -> float:
    """Mean bound K(sum U_t)/N plus the pairwise-difference spread term."""
    mats = _unwrap_unitaries(rho, unitaries)
    cache = weighted_ops(rho, params)
    _, km = _unitary_terms(cache, mats)
    return _unitary_lb2_value(cache, mats, km, len(mats))


def unitary_lb3(
    rho: DensityMatrix, unitaries: Sequence[UnitaryOp], params: SkewParams
) -> tuple[float, int]:
    """Mixed sum/difference bound, maximized over the two sign variants."""
    mats = _unwrap_unitaries(rho, unitaries)
    cache = weighted_ops(rho, params)
    kp, km = _unitary_terms(cache, mats)
    return _unitary_lb3_value(kp, km, len(mats))


def unitary_bound_report(
    rho: DensityMatrix, unitaries: Sequence[UnitaryOp], params: SkewParams
) -> UnitaryBoundReport:
    """Exact sum plus the three unitary bounds, from one shared cache."""
    mats = _unwrap_unitaries(rho, unitaries)
    big_n = len(mats)
    cache = weighted_ops(rho, params)
    total = sum(skew_with_cache(cache, m) for m in mats)
    kp, km = _unitary_terms(cache, mats)
    lb3_value, lb3_x = _unitary_lb3_value(kp, km, big_n)
    return UnitaryBoundReport(
        sum=total,
        lb1=_unitary_lb1_value(kp, big_n) if big_n > 2 else None,
        lb2=_unitary_lb2_value(cache, mats, km, big_n),
        lb3=lb3_value,
        argmax_x=lb3_x,
    )


# --- proof-level vector inequalities ----------------------------------------


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
    N = 2. Test-suite support, not a runtime code path.
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

    lhs = sum(nsq(u) for u in us)
    pairs = _pair_index(big_n)
    plus_sq = np.array([nsq(us[t] + us[s]) for t, s in pairs])
    minus_sq = np.array([nsq(us[t] - us[s]) for t, s in pairs])
    plus_norm = _safe_sqrt(plus_sq)
    minus_norm = _safe_sqrt(minus_sq)

    holds1 = None
    if big_n > 2:
        rhs1 = (plus_sq.sum() - plus_norm.sum() ** 2 / (big_n - 1) ** 2) / (big_n - 2)
        holds1 = lhs + slack >= rhs1
    rhs2 = nsq(sum(us)) / big_n + 2.0 * minus_norm.sum() ** 2 / (big_n**2 * (big_n - 1))
    holds2 = lhs + slack >= rhs2
    holds3 = True
    for spread, plain in ((plus_norm, minus_sq), (minus_norm, plus_sq)):
        rhs3 = (
            2.0 * spread.sum() ** 2 / (big_n * (big_n - 1)) + plain.sum()
        ) / (2.0 * (big_n - 1))
        holds3 = holds3 and lhs + slack >= rhs3
    return holds1, holds2, holds3
