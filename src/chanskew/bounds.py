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

A unitary channel is the one-Kraus channel {U}, so the unitary bounds
are lb1/lb2/lb3 of one-Kraus channels: the same search, over its single
tuple, with lb3 maximized over both sign variants.

The reports are the API. One search scores every bound N allows, and
channel_bound_report returns each value with its argmax tuple and sign
variant: report.lb2, report.argmax["lb2"].perms and
report.argmax["lb3"].x; unitary_bound_report records the lb3 variant as
argmax_x. channel_bound_reports and unitary_bound_reports return the
report of every state in a list, from one search over states that share
the channels (or unitaries) and params, as a theta sweep does; the
singular reports are the batch of one, and every report is bit-identical
to the one its state would get alone. A state is decomposed once, when
DensityMatrix validates it; every report reuses that spectrum.

The search is stacked over states: W and T of a group of S states in one
(S, d, d) stack (_stacked_weighted_ops), K tables with a leading state
axis, (state, tuple) rows scored SEARCH_CHUNK at a time, and the argmax
rule run per state on all of them at once; a single report is a stack of
one. A group holds at most SEARCH_CHUNK // (count d^2) states (at least
one), count being the tuples of one state's search. Every K a report
reads (of the Kraus operators for the sum, of the pair sums and
differences, and of the column sums) comes from skew_batch calls on one
operand stack (sliced when it is long), made after the tuple count has
passed the cap.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .quantum import DensityMatrix, KrausChannel, UnitaryOp
from .skewinfo import (
    SkewParams,
    WeightedOperatorCache,
    _stacked_weighted_ops,
    skew_batch,
)

DEFAULT_TUPLE_CAP = 10**6
SOUNDNESS_TOL = 1e-9
SQRT_CLAMP_FLOOR = -1e-12
# a later tuple replaces the argmax only if strictly better than this margin
ARGMAX_MARGIN = 1e-12
# (state, tuple) rows scored per vectorized step; bounds the gathered
# arrays to SEARCH_CHUNK * P * n floats whatever the tuple or state count.
# A group of S states has S d^2 <= SEARCH_CHUNK (or S = 1), and its K
# tables are evaluated SEARCH_CHUNK // (S d^2) operands (at least one) of
# d x d at a time, which bounds each temporary to SEARCH_CHUNK complex
# numbers, or d^2 when that is larger.
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


def _pair_index(big_n: int) -> list[tuple[int, int]]:
    return [(t, s) for t in range(big_n) for s in range(t + 1, big_n)]


@dataclass(frozen=True)
class _Shape:
    """Read-only index arrays of a search over N channels of n Kraus operators.

    pairs holds the channel pairs (t, s), t < s, in _pair_index order;
    pair_base the flat offset k * n * n of the k-th pair in plus and minus;
    radix the place values of (i_0, ..., i_{N-1}) in col; perms the n!
    permutations of range(n) in lexicographic order, perms[0] the identity;
    place the place values of a tuple's position written in base n! with
    N digits, the last channel's digit varying fastest. A place value past
    the largest intp is stored as that maximum: every position an intp
    holds has digit 0 there either way.
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
    """Every distinct K value a report reads, each evaluated once.

    kraus holds K(E^t_i) of the padded Kraus operators at t * n + i. For
    the k-th channel pair (t, s), plus holds K(E^t_a + E^s_b) at flat
    position (k * n + a) * n + b, and minus the same for E^t_a - E^s_b.
    col holds K(sum_t E^t_{i_t}) at the flat position of (i_0, ..., i_{N-1})
    in C order. All of them come from one operand stack evaluated by
    skew_batch. Each operand is built with the arithmetic a per-tuple
    evaluation uses (``et + es``, ``et - es``, the channels added left to
    right as ``sum()`` adds them), so every entry is bit-identical to
    skew_with_cache of the operand it stands for. Tables of a stacked
    cache put a state axis in front of each of these positions: row s
    holds state s's values. The norm-inequality check in the test suite
    fills the same fields with squared vector norms (one "Kraus index"
    per vector, col = [||sum u_t||^2]).
    """

    kraus: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    col: np.ndarray


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
    with n^N. A slice holds SEARCH_CHUNK // d^2 operands (at least one).
    A stacked cache of S states gives every table a leading state axis,
    and a slice then holds SEARCH_CHUNK // (S d^2) operands (at least one).
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


def _score_chunk(
    tables: _KTables, idx: np.ndarray, variants: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Bound values of a chunk of tuples, in the order a search offers them.

    ``idx`` holds the Kraus indices, idx[c, t, i] = perms[t][i] of the c-th
    tuple. Tables with a leading axis of S states score every state on
    every tuple, in S * C rows ordered state by state. Every bound N
    allows is scored: lb1/ob1 (N > 2 only), lb2/ob2 with one value per
    row, lb3/ob3 with shape (rows, len(variants)). The per-tuple formulas
    are evaluated in the same operation order on the gathered
    (2, rows, P, n) array of plus and minus terms; it is C-contiguous so
    that numpy reduces the pair and Kraus axes in the same order as it
    does for one tuple's (P, n) array.
    """
    big_n, n = idx.shape[1:]
    shape = _shape(big_n, n)
    flat = np.ascontiguousarray(
        shape.pair_base + idx[:, shape.pairs[:, 0], :] * n + idx[:, shape.pairs[:, 1], :]
    )
    # row 0 of total and of each spread holds the plus terms, row 1 the minus
    gathered = np.stack((tables.plus, tables.minus))[..., flat]
    k = np.ascontiguousarray(gathered).reshape((2, -1) + flat.shape[1:])
    total = k.sum(axis=(2, 3))
    lb_spread = _scalar_square(_safe_sqrt(k.sum(axis=3)).sum(axis=2))
    ob_spread = (_safe_sqrt(k).sum(axis=2) ** 2).sum(axis=2)
    out = {}
    if big_n > 2:
        out["lb1"] = (total[0] - lb_spread[0] / (big_n - 1) ** 2) / (big_n - 2)
        out["ob1"] = (total[0] - ob_spread[0] / (big_n - 1) ** 2) / (big_n - 2)
    col_idx = np.ascontiguousarray(shape.radix @ idx)
    mean = np.ascontiguousarray(tables.col[..., col_idx]).reshape(-1, n).sum(axis=1) / big_n
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
    values: dict[str, float | None] = {
        name: float(scored[name][0]) if name in scored else None
        for name in ("lb1", "ob1", "lb2", "ob2")
    }
    for name in ("lb3", "ob3"):
        for x in (0, 1):
            values[f"{name}_x{x}"] = float(scored[name][0, x])
    return values


def _tuples_at(ids: np.ndarray, big_n: int, n: int) -> np.ndarray:
    """Kraus indices of the tuples at positions ``ids`` in lexicographic order.

    Channel t takes the permutation of digit t of the position; digit 0
    is always 0, the identity.
    """
    shape = _shape(big_n, n)
    return shape.perms.take(ids[:, None] // shape.place % len(shape.perms), axis=0)


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
    In a row whose values either equal its maximum or lie more than the
    margin below it, the rule ends at the first maximum; every other row
    is followed offer by offer.
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
    (one per sign variant). A bound without sign variants fills the first
    slot of each tuple and offers -inf in the others, which never replaces
    a best, so one _first_best call serves every bound.
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

    rows[:, 0] is offer position ``first``. The best so far is offered
    again ahead of the chunk, so a value that does not beat it by the
    margin leaves it in place; ``best`` is None before the first chunk.
    """
    if best is None:
        top, pos = _first_best(rows)
        return top, first + pos
    value, at = best
    top, pos = _first_best(np.concatenate((value[:, None], rows), axis=1))
    return top, np.where(pos == 0, at, first + pos - 1)


def _search_bounds(
    states: Sequence[DensityMatrix],
    kraus: list[list[np.ndarray]],
    params: SkewParams,
    cap: int,
    sign_variant: int | None,
) -> list[tuple[float, dict[str, tuple[float, PermTuple, int | None]]]]:
    """Per state, the exact sum and every bound N allows, maximized over one enumeration.

    ``kraus`` holds N equally long Kraus lists of one dimension. The tuple
    count is checked against ``cap`` before any K is evaluated. States are
    scored in groups that share K tables and chunks: a group holds at most
    SEARCH_CHUNK // (count d^2) states, so its W, T and K temporaries hold
    at most SEARCH_CHUNK complex numbers each and a chunk at most
    SEARCH_CHUNK (state, tuple) rows; a group of one state runs its search
    chunk after chunk. Tuples are scored in lexicographic order; the result
    is bit-identical to evaluating every tuple of every state on its own,
    including which tuple wins a tie.
    """
    big_n, n, dim = len(kraus), len(kraus[0]), len(kraus[0][0])
    if sign_variant not in (None, 0, 1):
        raise ValueError(f"sign_variant must be 0, 1 or None, got {sign_variant}")
    count = _tuple_count(n, big_n, cap)
    for k, rho in enumerate(states):
        if rho.dim != dim:
            raise ValueError(f"state {k} has dim {rho.dim}, the operators have dim {dim}")
    variants = (0, 1) if sign_variant is None else (sign_variant,)
    group = max(1, SEARCH_CHUNK // (count * dim * dim))
    step = min(count, SEARCH_CHUNK)
    out = []
    for g in range(0, len(states), group):
        part = states[g : g + group]
        tables = _k_tables(_stacked_weighted_ops(part, params), kraus)
        best = None  # (value, offer position) per (bound, state) row
        for lo in range(0, count, step):
            idx = _tuples_at(np.arange(lo, min(lo + step, count)), big_n, n)
            scored = _score_chunk(tables, idx, variants)
            best = _offer(best, _offers(scored, len(part), len(variants)), lo * len(variants))
        names = list(scored)
        entries = []  # (state, bound, value, tuple position, sign variant)
        for row, (v, p) in enumerate(zip(*(a.tolist() for a in best))):
            name = names[row // len(part)]
            tuple_id, slot = divmod(p, len(variants))
            x = variants[slot] if name in ("lb3", "ob3") else None
            entries.append((row % len(part), name, v, tuple_id, x))
        # each winning tuple of the group decoded once, all in one call
        ids = sorted({e[3] for e in entries})
        winners = _tuples_at(np.array(ids), big_n, n).tolist()
        perms = dict(zip(ids, (tuple(map(tuple, w)) for w in winners)))
        found: list[dict] = [{} for _ in part]
        for s, name, v, tuple_id, x in entries:
            found[s][name] = (v, perms[tuple_id], x)
        # Python's sum, not np.sum: the sum of the K values in order, one at a time
        sums = tables.kraus.reshape(len(part), -1).tolist()
        out += [(sum(terms), f) for terms, f in zip(sums, found)]
    return out


def channel_bound_reports(
    states: Sequence[DensityMatrix],
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
    sign_variant: int | None = SIGN_VARIANT_DEFAULT,
) -> list[BoundReport]:
    """channel_bound_report of every state, from one stacked search.

    The states share the channels and params; ``cap`` counts the tuples
    of one state's search. An empty list of states gives [].
    """
    found_per_state = _search_bounds(states, _padded_kraus(channels), params, cap, sign_variant)
    return [
        BoundReport(
            sum=total,
            ob1=found["ob1"][0] if "ob1" in found else None,
            ob2=found["ob2"][0],
            ob3=found["ob3"][0],
            lb1=found["lb1"][0] if "lb1" in found else None,
            lb2=found["lb2"][0],
            lb3=found["lb3"][0],
            argmax={name: BoundArgmax(perms=perms, x=x) for name, (_, perms, x) in found.items()},
        )
        for total, found in found_per_state
    ]


def channel_bound_report(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
    sign_variant: int | None = SIGN_VARIANT_DEFAULT,
) -> BoundReport:
    """Exact sum and all six bounds of one state: the batch of one."""
    return channel_bound_reports([rho], channels, params, cap, sign_variant)[0]


# --- unitary channels: one-Kraus channels, so a single tuple -----------------


def unitary_bound_reports(
    states: Sequence[DensityMatrix], unitaries: Sequence[UnitaryOp], params: SkewParams
) -> list[UnitaryBoundReport]:
    """unitary_bound_report of every state, from one stacked search.

    The states share the unitaries and params. An empty list of states
    gives [].
    """
    if len(unitaries) < 2:
        raise ValueError(f"need at least 2 unitaries, got {len(unitaries)}")
    for k, u in enumerate(unitaries):
        if u.dim != unitaries[0].dim:
            raise ValueError(f"unitary {k} has dim {u.dim}, unitary 0 has dim {unitaries[0].dim}")
    found_per_state = _search_bounds(states, [[u.mat] for u in unitaries], params, 1, None)
    return [
        UnitaryBoundReport(
            sum=total,
            lb1=found["lb1"][0] if "lb1" in found else None,
            lb2=found["lb2"][0],
            lb3=found["lb3"][0],
            argmax_x=found["lb3"][2],
        )
        for total, found in found_per_state
    ]


def unitary_bound_report(
    rho: DensityMatrix, unitaries: Sequence[UnitaryOp], params: SkewParams
) -> UnitaryBoundReport:
    """Exact sum plus the three unitary bounds of one state: the batch of one."""
    return unitary_bound_reports([rho], unitaries, params)[0]
