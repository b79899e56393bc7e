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

Each bound is the first maximum of its computed values, offered in
lexicographic tuple order with variant 0 before variant 1: a later offer
replaces the best only if strictly larger, so exact ties keep the first
tuple.

A unitary report is the report of the one-Kraus channels {U_t}: the same
search over its single tuple with lb3 maximized over both sign variants,
so every argmax is that tuple, lb3's variant is argmax["lb3"].x, and
ob1/ob2/ob3 equal lb1/lb2/lb3 mathematically.

One search scores every bound N allows for a stack of states that share
the channels (or unitaries) and params. channel_bound_columns and
unitary_bound_columns take the stacked spectrum (bloch_spectra gives it)
and return a BoundColumns, whose report(k) is state k's BoundReport
(report.lb2, report.argmax["lb2"].perms, report.argmax["lb3"].x). W and
T of each group of states come from skewinfo.weighted_ops.
channel_bound_report and unitary_bound_report search the spectrum
DensityMatrix validation computed as a stack of one. Each report of a
stack equals its state's lone report bit for bit on the SkylakeX and
CooperLake OpenBLAS kernels, not on others (ROADMAP item 1).
"""

from __future__ import annotations

import functools
import itertools
import math
import reprlib
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cmatrix import EigenDecomposition
from .quantum import DensityMatrix, KrausChannel, UnitaryOp
from .skewinfo import SkewParams, WeightedOperatorCache, skew_batch, weighted_ops
from .skewinfo import _in_order_sum

DEFAULT_TUPLE_CAP = 10**6
SOUNDNESS_TOL = 1e-9
# (state, tuple) rows scored per vectorized step, which bounds the gathered
# terms to 4 * SEARCH_CHUNK * P * n floats (plus, minus and their roots). A
# group of S states has S d^2 <= SEARCH_CHUNK (or S = 1), and its K tables
# are evaluated SEARCH_CHUNK // (S d^2) operands at a time (at least one).
# A slice holds its operands (column sums are built per slice) and
# skew_batch's two product buffers, each of at most max(SEARCH_CHUNK, d^2)
# complex numbers: 64 KiB, below glibc's 128 KiB mmap threshold.
SEARCH_CHUNK = 4096
# index entries, C n (N + P + 1) intp, up to which a shape caches its whole search
WHOLE_SEARCH_CACHE_ITEMS = 2**15
SIGN_VARIANT_DEFAULT = 1

PermTuple = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BoundArgmax:
    """Permutation tuple (and sign variant, where applicable) attaining a bound."""

    perms: PermTuple
    x: int | None = None


@dataclass(frozen=True)
class BoundReport:
    """The exact sum and every bound N allows, for one state.

    lb1/ob1 are None when only two channels are given (they need N > 2).
    argmax[name] holds the tuple attaining each bound (and, for lb3/ob3,
    the sign variant x). A unitary report is this report of the one-Kraus
    channels {U_t} (see the module docstring).
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

    def soundness_violations(self) -> list[str]:
        """Empty iff every bound is below the sum and lb2/lb3 dominate ob2/ob3."""
        out = []
        for name in self._BOUNDS:
            value = getattr(self, name)
            if value is not None and not value <= self.sum + SOUNDNESS_TOL:
                out.append(f"{name} = {value!r} exceeds sum = {self.sum!r}")
        for lb, ob in self._DOMINANCE:
            if not getattr(self, lb) >= getattr(self, ob) - SOUNDNESS_TOL:
                out.append(f"{lb} = {getattr(self, lb)!r} below {ob} = {getattr(self, ob)!r}")
        return out

    def to_json_dict(self) -> dict:
        data = {name: getattr(self, name) for name in ("sum",) + self._BOUNDS}
        data["argmax"] = {
            name: {"perms": [list(p) for p in am.perms], "x": am.x}
            for name, am in self.argmax.items()
        }
        return data


@dataclass(frozen=True, eq=False)
class BoundColumns:
    """One stacked search's results by state.

    sum[k] and, per bound N allows, values[name][k], first offered at
    offer[name][k]: tuple offer // len(variants) of the (N, n) search in
    lexicographic order, with sign variant variants[offer % len(variants)]
    (lb3/ob3). report(k) decodes state k's argmax tuples.
    """

    sum: np.ndarray
    values: dict[str, np.ndarray]
    offer: dict[str, np.ndarray]
    variants: tuple[int, ...]
    shape: tuple[int, int]

    def __len__(self) -> int:
        return len(self.sum)

    def report(self, k: int) -> BoundReport:
        """State k's report."""
        fields = {
            name: float(self.values[name][k]) if name in self.values else None
            for name in BoundReport._BOUNDS
        }
        offers = [divmod(at.item(k), len(self.variants)) for at in self.offer.values()]
        perms = _tuples_at(np.array([tuple_id for tuple_id, _ in offers]), *self.shape).tolist()
        argmax = {
            name: BoundArgmax(
                tuple(map(tuple, p)), self.variants[slot] if name in ("lb3", "ob3") else None
            )
            for name, p, (_, slot) in zip(self.offer, perms, offers)
        }
        return BoundReport(float(self.sum[k]), **fields, argmax=argmax)

    def reports(self) -> list[BoundReport]:
        return [self.report(k) for k in range(len(self))]

    def first_unsound(self) -> int | None:
        """The first state with soundness_violations, by the same comparisons on arrays."""
        bad = np.zeros(len(self), dtype=bool)
        for name in BoundReport._BOUNDS:
            if name in self.values:
                bad |= ~(self.values[name] <= self.sum + SOUNDNESS_TOL)
        for lb, ob in BoundReport._DOMINANCE:
            bad |= ~(self.values[lb] >= self.values[ob] - SOUNDNESS_TOL)
        return int(bad.argmax()) if bad.any() else None


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


def _padded_kraus(
    channels: Sequence[KrausChannel] | Sequence[UnitaryOp], kind: str = "channels"
) -> list[list[np.ndarray]]:
    """The Kraus lists of N >= 2 channels of one dim, padded with zero operators.

    With kind "unitaries", ``channels`` holds unitaries, each its one-Kraus
    channel {U}. Zero operators have zero skew information: sums are
    unchanged.
    """
    if len(channels) < 2:
        raise ValueError(f"need at least 2 {kind}, got {len(channels)}")
    if kind == "unitaries":
        named = [(f"unitary {k}", (u.mat,)) for k, u in enumerate(channels)]
    else:
        named = [(f"channel {reprlib.repr(ch.name)}", ch.ops) for ch in channels]
    first, dim = named[0][0], len(named[0][1][0])
    for name, ops in named:
        if len(ops[0]) != dim:
            raise ValueError(f"{name} has dim {len(ops[0])}, {first} has dim {dim}")
    n = max(len(ops) for _, ops in named)
    zero = np.zeros((dim, dim), dtype=np.complex128)
    return [list(ops) + [zero] * (n - len(ops)) for _, ops in named]


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

    @functools.cached_property
    def whole(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]] | None:
        """Every tuple of the search as one chunk, and its _gather_positions.

        The groups of a stacked search and repeated searches of the shape
        reuse them. They are kept only up to WHOLE_SEARCH_CACHE_ITEMS index
        entries (None above), so the 8 cached shapes hold at most 8 * 2^15
        intp (2 MiB) of them.
        """
        big_n, n = len(self.radix), self.perms.shape[1]
        count = len(self.perms) ** (big_n - 1)
        if count * n * (big_n + len(self.pairs) + 1) > WHOLE_SEARCH_CACHE_ITEMS:
            return None
        idx = _tuples_at(np.arange(count), big_n, n)
        positions = _gather_positions(idx)
        for arr in (idx, *positions):
            arr.flags.writeable = False
        return idx, positions


@functools.lru_cache(maxsize=8)
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
        """(4S, P n n): the plus rows, the minus rows, then their square roots.

        The roots are taken once per table. Each entry is K, a sum of
        squares (see skew_batch) and never negative, so its root is plain.
        """
        both = np.stack((self.plus, self.minus)).reshape(-1, self.plus.shape[-1])
        return np.concatenate((both, np.sqrt(both)))


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
    operands and the n^N column sums, in that order. The first three are
    written into one preallocated stack; column sums are built only for
    the slice being evaluated, so operand memory does not grow with n^N.
    A slice holds SEARCH_CHUNK // (S d^2) operands (at least one) for a
    cache of S states (S = 1 for a lone cache).
    """
    ops = np.array(kraus)
    big_n, n, d = ops.shape[:3]
    shape = _shape(big_n, n)
    m = big_n * n
    p = len(shape.pairs) * n * n
    head = np.empty((m + 2 * p, d, d), dtype=ops.dtype)
    head[:m] = ops.reshape(m, d, d)
    left = ops[shape.pairs[:, 0]][:, :, None]
    right = ops[shape.pairs[:, 1]][:, None]
    np.add(left, right, out=head[m : m + p].reshape(-1, n, n, d, d))
    np.subtract(left, right, out=head[m + p :].reshape(-1, n, n, d, d))
    k = np.empty(cache.w.shape[:-2] + (len(head) + n**big_n,))
    rows = max(1, SEARCH_CHUNK // cache.w.size)
    for lo in range(0, k.shape[-1], rows):
        hi = min(lo + rows, k.shape[-1])
        part = head[lo:hi]
        if hi > len(head):
            cols = _column_sums(ops, shape.radix, max(lo - len(head), 0), hi - len(head))
            part = np.concatenate((part, cols))
        k[..., lo:hi] = skew_batch(cache, part)
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
    tables: _KTables, idx: np.ndarray, variants: tuple[int, ...], positions: tuple | None = None
) -> dict[str, np.ndarray]:
    """Bound values of a chunk of tuples, in the order a search offers them.

    ``idx`` holds the Kraus indices, idx[c, t, i] = perms[t][i] of tuple c,
    and ``positions`` their _gather_positions (gathered here if None).
    Tables of S states score every state on every tuple, in S * C rows
    state by state: lb1/ob1 (N > 2 only) and lb2/ob2 one value per row,
    lb3/ob3 (rows, len(variants)). The terms are gathered term-major, one
    row per (pair, Kraus index) and one column per (state, tuple). Every
    sum adds its terms one after another (_in_order_sum): the P n terms of
    total pair by pair, n within a pair, the P lb roots, the ob roots over
    P, the n ob squares and the n col entries. The per-tuple formulas run
    in the same operation order; each bound is one elementwise expression
    for both families (lb, ob) and every sign variant.
    """
    chunk, big_n, n = idx.shape
    flat, col_idx = positions or _gather_positions(idx)
    gathered = tables.terms.take(flat, axis=1).swapaxes(0, 1)  # (P n, 4S, C)
    rows = gathered.shape[1] // 2  # 2S: the plus rows, then the minus rows
    k = gathered[:, :rows]
    by_pair = (len(flat) // n, n, rows, chunk)
    # row 0 of total and of each spread holds the plus terms, row 1 the minus
    total = _in_order_sum(k).reshape(2, -1)
    inner = _in_order_sum(k.reshape(by_pair).swapaxes(0, 1))  # (P, 2S, C)
    lb_spread = _scalar_square(_in_order_sum(np.sqrt(inner))).reshape(2, -1)
    ob_roots = _in_order_sum(gathered[:, rows:].reshape(by_pair))  # (n, 2S, C)
    # (lb, ob) by (plus, minus) by row
    spread = np.stack((lb_spread, _in_order_sum(ob_roots**2).reshape(2, -1)))
    out = {}
    if big_n > 2:
        out.update(zip(("lb1", "ob1"), (total[0] - spread[:, 0] / (big_n - 1) ** 2) / (big_n - 2)))
    col = tables.col.reshape(-1, tables.col.shape[-1]).take(col_idx, axis=1)  # (S, n, C)
    mean = _in_order_sum(col.swapaxes(0, 1)).reshape(-1) / big_n
    out.update(zip(("lb2", "ob2"), mean + 2.0 * spread[:, 1] / (big_n**2 * (big_n - 1))))
    # variant x: total[x] plain and spread[1 - x] under the roots, so variant
    # 0 takes the plus terms plain and the minus terms under the roots
    x = np.array(variants)
    three = (total[x] + 2.0 * spread[:, 1 - x] / (big_n * (big_n - 1))) / (2.0 * (big_n - 1))
    out.update(zip(("lb3", "ob3"), three.swapaxes(1, 2)))  # (rows, variants) each
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
    offered again ahead of the chunk. The best is the first maximum, so
    only a strictly larger value replaces it: exact ties and the two
    signed zeros keep the earlier offer.
    """
    if best is not None:
        rows = np.concatenate((best[0][:, None], rows), axis=1)
        first -= 1
    pos = rows.argmax(axis=1)
    top = rows[np.arange(len(rows)), pos]  # the value itself, signed zero included
    if best is None:
        return top, first + pos
    return top, np.where(pos == 0, best[1], first + pos)


def _search_bounds(
    spectrum: EigenDecomposition,
    kraus: list[list[np.ndarray]],
    params: SkewParams,
    cap: int,
    sign_variant: int | None,
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
    whole = _shape(big_n, n).whole if step == count else None
    for g in range(0, len(lams), group):
        part = slice(g, g + group)
        cache = weighted_ops(EigenDecomposition(lams[part], vecs[part]), params)
        tables = _k_tables(cache, kraus)
        size = len(tables.kraus)
        best = None  # (value, offer position) per (bound, state) row
        for lo in range(0, count, step):
            ids = np.arange(lo, min(lo + step, count))
            idx, positions = whole or (_tuples_at(ids, big_n, n), None)
            offers = _offers(_score_chunk(tables, idx, variants, positions), size, len(variants))
            best = _offer(best, offers, lo * len(variants))
        values[:, part] = best[0].reshape(len(names), size)
        pos[:, part] = best[1].reshape(len(names), size)
        k[:, part] = tables.kraus.T
    return BoundColumns(
        sum=_in_order_sum(k),
        values=dict(zip(names, values)),
        offer=dict(zip(names, pos)),
        variants=variants,
        shape=(big_n, n),
    )


def _lone_report(rho: DensityMatrix, kraus: list[list[np.ndarray]], *search) -> BoundReport:
    """_search_bounds(spectrum, kraus, *search) of rho's spectrum as a stack of one.

    rho must have the operators' dim.
    """
    dim = len(kraus[0][0])
    if rho.dim != dim:
        raise ValueError(f"state has dim {rho.dim}, the operators have dim {dim}")
    spectrum = EigenDecomposition(*(arr[None] for arr in rho.spectrum))
    return _search_bounds(spectrum, kraus, *search).report(0)


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
    return _search_bounds(spectrum, _padded_kraus(channels), params, cap, sign_variant)


def channel_bound_report(
    rho: DensityMatrix,
    channels: Sequence[KrausChannel],
    params: SkewParams,
    cap: int = DEFAULT_TUPLE_CAP,
    sign_variant: int | None = SIGN_VARIANT_DEFAULT,
) -> BoundReport:
    """Exact sum and all six bounds of one state: the stack of one."""
    return _lone_report(rho, _padded_kraus(channels), params, cap, sign_variant)


# --- unitaries: one-Kraus channels, so a single tuple and both sign variants --


def unitary_bound_columns(
    spectrum: EigenDecomposition, unitaries: Sequence[UnitaryOp], params: SkewParams
) -> BoundColumns:
    """The bounds of the one-Kraus channels {U_t} for every state of a stacked spectrum."""
    return _search_bounds(spectrum, _padded_kraus(unitaries, "unitaries"), params, 1, None)


def unitary_bound_report(
    rho: DensityMatrix, unitaries: Sequence[UnitaryOp], params: SkewParams
) -> BoundReport:
    """The report of the one-Kraus channels {U_t} on one state: the stack of one."""
    return _lone_report(rho, _padded_kraus(unitaries, "unitaries"), params, 1, None)
