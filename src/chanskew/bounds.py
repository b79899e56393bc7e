"""Sum-uncertainty lower bounds for N channels and N unitaries.

All channel bounds are exact maximizations over tuples of Kraus-index
permutations (one per channel, the first fixed to the identity by
invariance under a common relabeling). Two families are computed:

* lb1/lb2/lb3 aggregate each pairwise term over the Kraus index first
  and take the square root of the per-pair sums ("outer" aggregation);
* ob1/ob2/ob3 take square roots per Kraus index and square the per-index
  sums ("inner" aggregation).

lb3/ob3 come in two sign variants: variant 0 uses Kraus sums in the
plain term and differences under the square roots, variant 1 swaps the
two. The reference comparison tables use variant 1, which is therefore
the default; pass ``sign_variant=None`` to maximize over both.

The unitary bounds are lb1/lb2/lb3 of the one-Kraus channels {U}: the
same search over its single tuple, lb3 maximized over both variants.

One search scores every bound N allows for a stack of states that share
the channels (or unitaries) and params. channel_bound_columns and
unitary_bound_columns take the stacked spectrum (bloch_spectra gives it)
and return a BoundColumns, whose report(k) is state k's BoundReport
(report.lb2, report.argmax["lb2"].perms, report.argmax["lb3"].x) or
UnitaryBoundReport (lb3's variant as argmax_x). W and T of each group of
states come from skewinfo.weighted_ops. channel_bound_report and
unitary_bound_report search the spectrum DensityMatrix validation computed
as a stack of one. Each report of a stack equals its state's lone report
bit for bit on the SkylakeX and CooperLake OpenBLAS kernels, not on others
(ROADMAP item 1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cmatrix import EigenDecomposition
from .quantum import DensityMatrix, KrausChannel, UnitaryOp
from .skewinfo import SkewParams, WeightedOperatorCache, skew_batch, weighted_ops
from .skewinfo import _in_order_sum

DEFAULT_TUPLE_CAP = 10**6
SOUNDNESS_TOL = 1e-9
SQRT_CLAMP_FLOOR = -1e-12
# a later tuple replaces the argmax only if strictly better than this margin
ARGMAX_MARGIN = 1e-12
# (state, tuple) rows scored per vectorized step, which bounds the gathered
# terms to 4 * SEARCH_CHUNK * P * n floats (plus, minus and their roots). A
# group of S states has S d^2 <= SEARCH_CHUNK (or S = 1), and its K tables
# are evaluated SEARCH_CHUNK // (S d^2) operands at a time (at least one),
# so each temporary holds at most max(SEARCH_CHUNK, d^2) complex numbers.
SEARCH_CHUNK = 4096
# index entries, C n (N + P + 1) intp, up to which a whole search is cached
WHOLE_SEARCH_CACHE_ITEMS = 2**15
SIGN_VARIANT_DEFAULT = 1

PermTuple = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BoundArgmax:
    """Permutation tuple (and sign variant, where applicable) attaining a bound."""

    perms: PermTuple
    x: int | None = None


class _Sound:
    """No bound of _BOUNDS above the sum, lb >= ob for each pair of _DOMINANCE."""

    _BOUNDS: tuple[str, ...] = ()
    _DOMINANCE: tuple[tuple[str, str], ...] = ()

    def soundness_violations(self) -> list[str]:
        """Empty iff every bound is below the sum and lb2/lb3 dominate ob2/ob3."""
        out = []
        for name in self._BOUNDS:
            value = getattr(self, name)
            if value is not None and value > self.sum + SOUNDNESS_TOL:
                out.append(f"{name} = {value!r} exceeds sum = {self.sum!r}")
        for lb, ob in self._DOMINANCE:
            if getattr(self, lb) < getattr(self, ob) - SOUNDNESS_TOL:
                out.append(f"{lb} = {getattr(self, lb)!r} below {ob} = {getattr(self, ob)!r}")
        return out


@dataclass(frozen=True)
class BoundReport(_Sound):
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

    _BOUNDS = ("ob1", "ob2", "ob3", "lb1", "lb2", "lb3")
    _DOMINANCE = (("lb2", "ob2"), ("lb3", "ob3"))

    def to_json_dict(self) -> dict:
        data = {name: getattr(self, name) for name in ("sum",) + self._BOUNDS}
        data["argmax"] = {
            name: {"perms": [list(p) for p in am.perms], "x": am.x}
            for name, am in self.argmax.items()
        }
        return data


@dataclass(frozen=True)
class UnitaryBoundReport(_Sound):
    """The three unitary-channel bounds plus the exact sum.

    lb1 is None when only two unitaries are given; argmax_x records the
    sign variant attaining lb3.
    """

    sum: float
    lb1: float | None
    lb2: float
    lb3: float
    argmax_x: int

    _BOUNDS = ("lb1", "lb2", "lb3")


@dataclass(frozen=True, eq=False)
class BoundColumns:
    """One stacked search's results by state.

    sum[k] and, per bound N allows, values[name][k], attained at
    tuples[winner[name][k]] with sign variant x[name][k] (lb3/ob3).
    """

    report_type: type
    sum: np.ndarray
    values: dict[str, np.ndarray]
    winner: dict[str, np.ndarray]
    x: dict[str, np.ndarray]
    tuples: list[PermTuple]

    def __len__(self) -> int:
        return len(self.sum)

    def report(self, k: int):
        """State k's report, a ``report_type``."""
        fields = {
            name: float(self.values[name][k]) if name in self.values else None
            for name in self.report_type._BOUNDS
        }
        if self.report_type is UnitaryBoundReport:
            return UnitaryBoundReport(float(self.sum[k]), **fields, argmax_x=int(self.x["lb3"][k]))
        argmax = {
            name: BoundArgmax(self.tuples[w[k]], int(self.x[name][k]) if name in self.x else None)
            for name, w in self.winner.items()
        }
        return BoundReport(float(self.sum[k]), **fields, argmax=argmax)

    def reports(self) -> list:
        return [self.report(k) for k in range(len(self))]

    def first_unsound(self) -> int | None:
        """The first state with soundness_violations, by the same comparisons on arrays."""
        bad = np.zeros(len(self), dtype=bool)
        for name in self.report_type._BOUNDS:
            if name in self.values:
                bad |= self.values[name] > self.sum + SOUNDNESS_TOL
        for lb, ob in self.report_type._DOMINANCE:
            bad |= self.values[lb] < self.values[ob] - SOUNDNESS_TOL
        return int(bad.argmax()) if bad.any() else None


def _safe_sqrt(values: np.ndarray) -> np.ndarray:
    """Square root with tiny negative rounding artifacts clamped to zero."""
    arr = np.asarray(values, dtype=np.float64)
    low = float(arr.min(initial=0.0))
    if low < SQRT_CLAMP_FLOOR:
        raise ValueError(f"skew information value unexpectedly negative: {low:.3e}")
    if low < 0.0:
        arr = np.where(arr < 0.0, 0.0, arr)
    return np.sqrt(arr)


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

    Order is lexicographic. Raises at once if the count exceeds ``cap``,
    so that a huge search is an explicit choice.
    """
    _tuple_count(n, big_n, cap)
    identity = tuple(range(n))
    perms = list(itertools.permutations(range(n)))
    return ((identity,) + rest for rest in itertools.product(perms, repeat=big_n - 1))


def _padded_kraus(channels: Sequence[KrausChannel]) -> list[list[np.ndarray]]:
    """Kraus lists padded with zero operators to a common length.

    Zero operators have zero skew information: sums are unchanged.
    """
    if len(channels) < 2:
        raise ValueError(f"need at least 2 channels, got {len(channels)}")
    dim = channels[0].dim
    for ch in channels:
        if ch.dim != dim:
            raise ValueError(f"channel '{ch.name}' has dim {ch.dim}, expected {dim}")
    n = max(len(ch.ops) for ch in channels)
    zero = np.zeros((dim, dim), dtype=np.complex128)
    return [list(ch.ops) + [zero] * (n - len(ch.ops)) for ch in channels]


def _pair_index(big_n: int) -> list[tuple[int, int]]:
    return [(t, s) for t in range(big_n) for s in range(t + 1, big_n)]


@dataclass(frozen=True)
class _Shape:
    """Read-only index arrays of a search over N channels of n Kraus operators.

    pairs: the channel pairs (t, s), t < s, in _pair_index order; pair_base:
    the flat offset k n n of pair k in plus and minus; radix: the place
    values of (i_0, ..., i_{N-1}) in col; perms: the n! permutations in
    lexicographic order, perms[0] the identity; place: the place values of
    a tuple's position in base n!, last channel fastest (one past the
    largest intp is stored as it: every intp position has digit 0 there).
    """

    pairs: np.ndarray
    pair_base: np.ndarray
    radix: np.ndarray
    perms: np.ndarray
    place: np.ndarray


@functools.lru_cache(maxsize=32)
def _shape(big_n: int, n: int) -> _Shape:
    pairs = np.array(_pair_index(big_n), dtype=np.intp)
    top = int(np.iinfo(np.intp).max)
    shape = _Shape(
        pairs=pairs,
        pair_base=np.arange(len(pairs), dtype=np.intp)[:, None] * n * n,
        radix=n ** np.arange(big_n - 1, -1, -1, dtype=np.intp),
        perms=np.array(list(itertools.permutations(range(n))), dtype=np.intp),
        place=np.array(
            [min(math.factorial(n) ** k, top) for k in range(big_n - 1, -1, -1)], dtype=np.intp
        ),
    )
    for arr in vars(shape).values():
        arr.flags.writeable = False
    return shape


def _scalar_square(values: np.ndarray) -> np.ndarray:
    """Elementwise ``v ** 2`` as a numpy float64 scalar computes it.

    The scalar operator calls the C library's pow, as float_power does
    element by element; v * v (``array ** 2``) rounds otherwise on about 1
    value in 1000, and power with an array exponent on others.
    """
    return np.float_power(values, 2.0)


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order numpy's pairwise sum adds one contiguous row.

    Fewer than 8 terms are added one after another. 8 to 128 terms go to
    eight lanes (term i to lane i % 8 up to the last multiple of 8), which
    combine as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the
    remaining terms are added one at a time. Above 128 terms, each half
    (split at a multiple of 8) is summed by these rules and the two added.
    """
    m = len(terms)
    if m < 8:
        return _in_order_sum(terms)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _ordered_sum(terms[:half]) + _ordered_sum(terms[half:])
    tail = m - m % 8
    lanes = terms[:8] + 0.0
    for i in range(8, tail, 8):
        lanes += terms[i : i + 8]
    pairs = lanes[0::2] + lanes[1::2]
    acc = pairs[0] + pairs[1]
    acc += pairs[2] + pairs[3]
    for term in terms[tail:]:
        acc += term
    return acc


@dataclass(frozen=True)
class _KTables:
    """Every distinct K value a report reads, each evaluated once.

    kraus holds K(E^t_i) of the padded Kraus operators at t * n + i. For
    the k-th channel pair (t, s), plus holds K(E^t_a + E^s_b) at flat
    position (k * n + a) * n + b, and minus the same for E^t_a - E^s_b.
    col holds K(sum_t E^t_{i_t}) at the flat position of (i_0, ..., i_{N-1})
    in C order. Each operand is built as a per-tuple evaluation builds it
    (``et + es``, ``et - es``, channels added left to right as ``sum()``
    does), so each entry is skew_with_cache of its operand (see skew_batch
    for the BLAS kernels this holds on). A stacked cache puts a state axis
    in front. The test suite's norm-inequality check fills the same fields
    with squared vector norms (col = [||sum u_t||^2]).
    """

    kraus: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    col: np.ndarray

    @functools.cached_property
    def terms(self) -> np.ndarray:
        """(4S, P n n): the plus rows, the minus rows, then their clamped roots.

        The roots are taken once per table; a square root is elementwise, and
        a search reads every entry, so the clamp sees what scoring reads.
        """
        both = np.stack((self.plus, self.minus)).reshape(-1, self.plus.shape[-1])
        return np.concatenate((both, _safe_sqrt(both)))


def _column_sums(ops: np.ndarray, radix: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """sum_t E^t_{i_t} for the col positions lo..hi-1, channels added in order."""
    grid = np.arange(lo, hi, dtype=np.intp)[:, None] // radix % ops.shape[1]
    acc = ops[0, grid[:, 0]]
    for t in range(1, len(ops)):
        acc += ops[t, grid[:, t]]
    return acc


def _k_tables(cache: WeightedOperatorCache, kraus: list[list[np.ndarray]]) -> _KTables:
    """The K tables of padded Kraus lists, evaluated slice by slice.

    The operand stack is the Kraus operators, the plus and minus pair
    operands and the n^N column sums, in that order; column sums are built
    only for the slice being evaluated, so operand memory does not grow
    with n^N. A slice holds SEARCH_CHUNK // (S d^2) operands (at least one)
    for a cache of S states (S = 1 for a lone cache).
    """
    ops = np.array(kraus)
    big_n, n, d = ops.shape[:3]
    shape = _shape(big_n, n)
    left = ops[shape.pairs[:, 0]][:, :, None]
    right = ops[shape.pairs[:, 1]][:, None]
    head = np.concatenate(
        [ops.reshape(-1, d, d), (left + right).reshape(-1, d, d), (left - right).reshape(-1, d, d)]
    )
    k = np.empty(cache.w.shape[:-2] + (len(head) + n**big_n,))
    rows = max(1, SEARCH_CHUNK // cache.w.size)
    for lo in range(0, k.shape[-1], rows):
        hi = min(lo + rows, k.shape[-1])
        part = head[lo:hi]
        if hi > len(head):
            cols = _column_sums(ops, shape.radix, max(lo - len(head), 0), hi - len(head))
            part = np.concatenate((part, cols))
        k[..., lo:hi] = skew_batch(cache, part)
    m = big_n * n
    p = len(shape.pairs) * n * n
    return _KTables(
        kraus=k[..., :m],
        plus=k[..., m : m + p],
        minus=k[..., m + p : m + 2 * p],
        col=k[..., m + 2 * p :],
    )


def _gather_positions(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where _score_chunk reads the terms of the tuples ``idx`` (C, N, n).

    flat (P n, C): row p n + i holds the position in plus and minus of pair
    p's terms at Kraus index i; col (n, C): the position in col of index i.
    """
    chunk, big_n, n = idx.shape
    shape = _shape(big_n, n)
    kraus = np.ascontiguousarray(idx.transpose(1, 2, 0))  # (N, n, C)
    flat = shape.pair_base[:, :, None] + kraus[shape.pairs[:, 0]] * n + kraus[shape.pairs[:, 1]]
    col = (shape.radix @ kraus.reshape(big_n, -1)).reshape(n, chunk)
    return flat.reshape(-1, chunk), col


def _score_chunk(
    tables: _KTables, idx: np.ndarray, variants: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Bound values of a chunk of tuples, in the order a search offers them.

    ``idx`` holds the Kraus indices, idx[c, t, i] = perms[t][i] of tuple c.
    Tables of S states score every state on every tuple, in S * C rows
    state by state: lb1/ob1 (N > 2 only) and lb2/ob2 one value per row,
    lb3/ob3 (rows, len(variants)). The terms are gathered term-major, one
    row per (pair, Kraus index) and one column per (state, tuple), and every
    sum adds them in the order numpy reduces one tuple's C-contiguous
    (P, n) array: _ordered_sum for a contiguous axis (the P n terms of
    total, n within a pair, the P lb roots, n ob squares and n col
    entries), and _in_order_sum for the ob roots over P, a strided axis
    unless n = 1. The per-tuple formulas run in the same operation order.
    """
    chunk, big_n, n = idx.shape
    flat, col_idx = getattr(idx, "positions", None) or _gather_positions(idx)
    gathered = tables.terms.take(flat, axis=1).swapaxes(0, 1)  # (P n, 4S, C)
    rows = gathered.shape[1] // 2  # 2S: the plus rows, then the minus rows
    k = gathered[:, :rows]
    by_pair = (len(flat) // n, n, rows, chunk)
    # row 0 of total and of each spread holds the plus terms, row 1 the minus
    total = _ordered_sum(k).reshape(2, -1)
    inner = _ordered_sum(k.reshape(by_pair).swapaxes(0, 1))  # (P, 2S, C)
    lb_spread = _scalar_square(_ordered_sum(_safe_sqrt(inner))).reshape(2, -1)
    over_pairs = _ordered_sum if n == 1 else _in_order_sum
    ob_roots = over_pairs(gathered[:, rows:].reshape(by_pair))  # (n, 2S, C)
    ob_spread = _ordered_sum(ob_roots**2).reshape(2, -1)
    out = {}
    if big_n > 2:
        out["lb1"] = (total[0] - lb_spread[0] / (big_n - 1) ** 2) / (big_n - 2)
        out["ob1"] = (total[0] - ob_spread[0] / (big_n - 1) ** 2) / (big_n - 2)
    col = tables.col.reshape(-1, tables.col.shape[-1]).take(col_idx, axis=1)  # (S, n, C)
    mean = _ordered_sum(col.swapaxes(0, 1)).reshape(-1) / big_n
    out["lb2"] = mean + 2.0 * lb_spread[1] / (big_n**2 * (big_n - 1))
    out["ob2"] = mean + 2.0 * ob_spread[1] / (big_n**2 * (big_n - 1))
    for name, spread in (("lb3", lb_spread), ("ob3", ob_spread)):
        out[name] = np.empty((len(mean), len(variants)))
        for j, x in enumerate(variants):
            # variant 0: plus terms plain, minus terms under the roots
            plain, root = x, 1 - x
            out[name][:, j] = (
                total[plain] + 2.0 * spread[root] / (big_n * (big_n - 1))
            ) / (2.0 * (big_n - 1))
    return out


def tuple_bound_values(
    cache: WeightedOperatorCache,
    channels: Sequence[KrausChannel],
    perms: PermTuple,
) -> dict[str, float | None]:
    """All bound values at one fixed permutation tuple (no maximization).

    Diagnostic surface used by the dominance and invariance tests; keys
    lb3/ob3 appear per sign variant as lb3_x0, lb3_x1, ob3_x0, ob3_x1.
    lb1/ob1 are None when N = 2. ``perms`` holds one permutation of
    range(n) per channel, n being the longest Kraus list.
    """
    kraus = _padded_kraus(channels)
    n = len(kraus[0])
    if len(perms) != len(kraus):
        raise ValueError(f"need one permutation per channel ({len(kraus)}), got {len(perms)}")
    for t, perm in enumerate(perms):
        if sorted(perm) != list(range(n)):
            raise ValueError(f"perms[{t}] = {perm!r} is not a permutation of range({n})")
    idx = np.array(perms, dtype=np.intp)[None]
    scored = _score_chunk(_k_tables(cache, kraus), idx, (0, 1))
    flat = ("lb1", "ob1", "lb2", "ob2")
    values = {name: float(scored[name][0]) if name in scored else None for name in flat}
    values.update({f"{n}_x{x}": float(scored[n][0, x]) for n in ("lb3", "ob3") for x in (0, 1)})
    return values


def _tuples_at(ids: np.ndarray, big_n: int, n: int) -> np.ndarray:
    """Kraus indices of the tuples at positions ``ids`` in lexicographic order.

    Channel t takes the permutation of digit t (digit 0 is 0, the identity).
    """
    shape = _shape(big_n, n)
    return shape.perms.take(ids[:, None] // shape.place % len(shape.perms), axis=0)


class _ChunkIndex(np.ndarray):
    """Read-only Kraus indices carrying ``positions``, their _gather_positions.

    A view or a copy has no positions; _score_chunk gathers its own.
    """

    positions: tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=8)
def _whole_search(big_n: int, n: int) -> _ChunkIndex:
    """Every tuple of a search over N channels of n Kraus operators, as one chunk.

    The groups of a stacked search and repeated searches of one shape reuse
    it. A search takes it only up to WHOLE_SEARCH_CACHE_ITEMS index entries,
    so the cache holds at most 8 * 2^15 intp (2 MiB).
    """
    idx = _tuples_at(np.arange(math.factorial(n) ** (big_n - 1)), big_n, n)
    chunk = idx.view(_ChunkIndex)
    chunk.positions = _gather_positions(idx)
    for arr in (chunk, *chunk.positions):
        arr.flags.writeable = False
    return chunk


def _sequential_best(values: np.ndarray) -> tuple[float, int]:
    """The value and position the argmax rule keeps, one offer at a time.

    A replacement is the first value above the current best plus the
    margin, which is where the running maximum first exceeds that level.
    """
    running = np.maximum.accumulate(values)
    pos = 0
    while True:
        nxt = int(running.searchsorted(values[pos] + ARGMAX_MARGIN, side="right"))
        if nxt == len(values):
            return values[pos], pos
        pos = nxt


def _first_best(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``values``, the value and position the argmax rule keeps.

    The rule is sequential: the first value offered is taken, and a later
    one replaces the best only if it exceeds it by more than ARGMAX_MARGIN.
    A row whose values equal its maximum or lie more than the margin below
    it ends at its first maximum; other rows are followed offer by offer.
    """
    pos = values.argmax(axis=1)
    top = values[np.arange(len(values)), pos]  # the value itself, signed zero included
    level = top[:, None]
    near = values + ARGMAX_MARGIN >= level  # true at each row's maximum
    if np.count_nonzero(near) > len(values):
        near &= values != level
        for r in np.flatnonzero(near.any(axis=1)):
            top[r], pos[r] = _sequential_best(values[r])
    return top, pos


def _offers(scored: dict[str, np.ndarray], states: int, width: int) -> np.ndarray:
    """Every bound's offers in one scored chunk, one row per (bound, state).

    A state offers its values tuple by tuple, ``width`` slots per tuple
    (one per sign variant). A bound without variants fills the first slot
    and offers -inf in the others, which never replaces a best.
    """
    tuples = len(next(iter(scored.values()))) // states
    block = np.full((len(scored), states, tuples, width), -np.inf)
    for j, values in enumerate(scored.values()):
        block[j, :, :, : values.size // (states * tuples)] = values.reshape(states, tuples, -1)
    return block.reshape(len(scored) * states, tuples * width)


def _offer(
    best: tuple[np.ndarray, np.ndarray] | None, rows: np.ndarray, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best (value, offer position) after offering ``rows``.

    rows[:, 0] is offer position ``first``; ``best`` (None at first) is
    offered again ahead of the chunk and stays unless beaten by the margin.
    """
    if best is None:
        top, pos = _first_best(rows)
        return top, first + pos
    value, at = best
    top, pos = _first_best(np.concatenate((value[:, None], rows), axis=1))
    return top, np.where(pos == 0, at, first + pos - 1)


def _search_bounds(
    spectrum: EigenDecomposition,
    kraus: list[list[np.ndarray]],
    params: SkewParams,
    cap: int,
    sign_variant: int | None,
    report_type: type,
) -> BoundColumns:
    """Per state of ``spectrum``, the exact sum and every bound N allows.

    ``kraus`` holds N equally long Kraus lists; the tuple count is checked
    against ``cap`` before any K is evaluated. A group of at most
    SEARCH_CHUNK // (count d^2) states (at least one) shares W, T and K
    tables, scored in chunks of at most SEARCH_CHUNK (state, tuple) rows in
    lexicographic order: the result is bit-identical to evaluating every
    tuple of every state on its own, ties included.
    """
    big_n, n, dim = len(kraus), len(kraus[0]), len(kraus[0][0])
    if sign_variant not in (None, 0, 1):
        raise ValueError(f"sign_variant must be 0, 1 or None, got {sign_variant}")
    count = _tuple_count(n, big_n, cap)
    lams, vecs = (np.ascontiguousarray(a) for a in spectrum)
    if lams.shape != vecs.shape[:2] or vecs.shape[1:] != (dim, dim):
        raise ValueError(f"spectra {lams.shape}, {vecs.shape} do not fit operators of dim {dim}")
    variants = (0, 1) if sign_variant is None else (sign_variant,)
    names = ("lb1", "ob1")[: 2 * (big_n > 2)] + ("lb2", "ob2", "lb3", "ob3")  # as scored
    values = np.empty((len(names), len(lams)))
    pos = np.empty((len(names), len(lams)), dtype=np.intp)  # offer positions
    k = np.empty((big_n * n, len(lams)))  # K of the Kraus operators, one row each
    group = max(1, SEARCH_CHUNK // (count * dim * dim))
    step = min(count, SEARCH_CHUNK)
    pairs = big_n * (big_n - 1) // 2
    whole = step == count and count * n * (big_n + pairs + 1) <= WHOLE_SEARCH_CACHE_ITEMS
    for g in range(0, len(lams), group):
        part = slice(g, g + group)
        cache = weighted_ops(EigenDecomposition(lams[part], vecs[part]), params)
        tables = _k_tables(cache, kraus)
        size = len(tables.kraus)
        best = None  # (value, offer position) per (bound, state) row
        for lo in range(0, count, step):
            if whole:
                idx = _whole_search(big_n, n)
            else:
                idx = _tuples_at(np.arange(lo, min(lo + step, count)), big_n, n)
            offers = _offers(_score_chunk(tables, idx, variants), size, len(variants))
            best = _offer(best, offers, lo * len(variants))
        values[:, part] = best[0].reshape(len(names), size)
        pos[:, part] = best[1].reshape(len(names), size)
        k[:, part] = tables.kraus.T
    # the Kraus terms in order, as Python's sum() adds them (np.sum pairs
    # the terms up from 8 on)
    total = _in_order_sum(k)
    tuple_id, slot = np.divmod(pos, len(variants))
    ids = np.array(sorted(set(tuple_id.ravel().tolist())), dtype=np.intp)
    x = np.array(variants)[slot]
    return BoundColumns(
        report_type=report_type,
        sum=total,
        values=dict(zip(names, values)),
        winner=dict(zip(names, ids.searchsorted(tuple_id))),
        x={name: x[j] for j, name in enumerate(names) if name in ("lb3", "ob3")},
        tuples=[tuple(map(tuple, w)) for w in _tuples_at(ids, big_n, n).tolist()],
    )


def _stack_of_one(rho: DensityMatrix, dim: int) -> EigenDecomposition:
    """rho's spectrum as a stack of one state; rho must have the operators' dim."""
    if rho.dim != dim:
        raise ValueError(f"state has dim {rho.dim}, the operators have dim {dim}")
    return EigenDecomposition(*(arr[None] for arr in rho.spectrum))


def channel_bound_columns(
    spectrum: EigenDecomposition,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
    sign_variant: int | None = SIGN_VARIANT_DEFAULT,
) -> BoundColumns:
    """The channel bounds of every state of a spectrum stack, as columns.

    ``spectrum`` holds the (S, d) eigenvalues and (S, d, d) eigenvectors of
    validated states (as from bloch_spectra); ``cap`` counts one state's tuples.
    """
    return _search_bounds(spectrum, _padded_kraus(channels), params, cap, sign_variant, BoundReport)


def channel_bound_report(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
    sign_variant: int | None = SIGN_VARIANT_DEFAULT,
) -> BoundReport:
    """Exact sum and all six bounds of one state: the stack of one."""
    kraus = _padded_kraus(channels)
    spectrum = _stack_of_one(rho, len(kraus[0][0]))
    return _search_bounds(spectrum, kraus, params, cap, sign_variant, BoundReport).report(0)


# --- unitary channels: one-Kraus channels, so a single tuple -----------------


def _unitary_kraus(unitaries: Sequence[UnitaryOp]) -> list[list[np.ndarray]]:
    if len(unitaries) < 2:
        raise ValueError(f"need at least 2 unitaries, got {len(unitaries)}")
    for k, u in enumerate(unitaries):
        if u.dim != unitaries[0].dim:
            raise ValueError(f"unitary {k} has dim {u.dim}, unitary 0 has dim {unitaries[0].dim}")
    return [[u.mat] for u in unitaries]


def unitary_bound_columns(
    spectrum: EigenDecomposition, unitaries: Sequence[UnitaryOp], params: SkewParams
) -> BoundColumns:
    """The unitary bounds of every state of a stacked spectrum, as columns."""
    return _search_bounds(spectrum, _unitary_kraus(unitaries), params, 1, None, UnitaryBoundReport)


def unitary_bound_report(
    rho: DensityMatrix, unitaries: Sequence[UnitaryOp], params: SkewParams
) -> UnitaryBoundReport:
    """Exact sum plus the three unitary bounds of one state: the stack of one."""
    kraus = _unitary_kraus(unitaries)
    spectrum = _stack_of_one(rho, len(kraus[0][0]))
    return _search_bounds(spectrum, kraus, params, 1, None, UnitaryBoundReport).report(0)
