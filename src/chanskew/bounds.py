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

The search scores blocks of the permutation-digit grid: a pair's terms
depend on a tuple only through the pair's two permutation digits, so
each is gathered, added and rooted once per digit pair and broadcast
onto the block. Every sum adds its terms one after another; the total of
all pair terms is the sum of the P pair sums, and every square is v * v.

A unitary report is the report of the one-Kraus channels {U_t}: the same
search over its single tuple with lb3 maximized over both sign variants,
so every argmax is that tuple, lb3's variant is argmax["lb3"].x, and
ob1/ob2/ob3 equal lb1/lb2/lb3 bit for bit (one Kraus index: each ob sum
over it has one term).

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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .cmatrix import EigenDecomposition
from .quantum import DensityMatrix, KrausChannel, UnitaryOp
from .skewinfo import SkewParams, WeightedOperatorCache, skew_batch, weighted_ops
from .skewinfo import _in_order_sum

DEFAULT_TUPLE_CAP = 10**6
SOUNDNESS_TOL = 1e-9
# (state, tuple) rows scored per vectorized step: a group of S states is
# scored in blocks of at most SEARCH_CHUNK // S tuples, whose largest
# array, the pair tables added on the block, holds 2 (n + 2) SEARCH_CHUNK
# floats. A group has S d^2 <= SEARCH_CHUNK (or S = 1), and its K tables are
# evaluated SEARCH_CHUNK // (S d^2) operands at a time (at least one). A
# slice holds its operands (column sums are built per slice) and
# skew_batch's two product buffers, each of at most max(SEARCH_CHUNK, d^2)
# complex numbers: 64 KiB, below glibc's 128 KiB mmap threshold.
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


class _Shape(NamedTuple):
    """Read-only arrays of a search over N channels of n Kraus operators.

    pairs: the channel pairs (t, s), t < s, in _pair_index order; perms:
    the n! permutations in lexicographic order, perms[0] the identity;
    place: the place values of a tuple's position in base n!, last channel
    fastest (one past the largest intp is stored as it: every intp position
    has digit 0 there).
    """

    pairs: np.ndarray
    perms: np.ndarray
    place: np.ndarray


@functools.lru_cache(maxsize=8)
def _shape(big_n: int, n: int) -> _Shape:
    f, top = math.factorial(n), int(np.iinfo(np.intp).max)
    shape = _Shape(
        pairs=np.array(_pair_index(big_n), dtype=np.intp),
        perms=np.array(list(itertools.permutations(range(n))), dtype=np.intp),
        place=np.array([min(f**k, top) for k in range(big_n - 1, -1, -1)], dtype=np.intp),
    )
    for arr in shape:
        arr.flags.writeable = False
    return shape


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
    for the BLAS kernels this holds on). Each entry is K, a sum of squares
    (see skew_batch) and never negative, so its root is plain. A stacked
    cache puts a state axis in front. The test suite's norm-inequality
    check fills the same fields with squared vector norms
    (col = [||sum u_t||^2]).
    """

    kraus: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    col: np.ndarray


def _column_sums(ops: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """sum_t E^t_{i_t} for the col positions lo..hi-1, channels added in order."""
    kraus = np.unravel_index(np.arange(lo, hi), (ops.shape[1],) * len(ops))
    acc = ops[0, kraus[0]]
    for t in range(1, len(ops)):
        acc += ops[t, kraus[t]]
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
    pairs = _shape(big_n, n).pairs
    m = big_n * n
    p = len(pairs) * n * n
    head = np.empty((m + 2 * p, d, d), dtype=ops.dtype)
    head[:m] = ops.reshape(m, d, d)
    left = ops[pairs[:, 0]][:, :, None]
    right = ops[pairs[:, 1]][:, None]
    np.add(left, right, out=head[m : m + p].reshape(-1, n, n, d, d))
    np.subtract(left, right, out=head[m + p :].reshape(-1, n, n, d, d))
    k = np.empty(cache.w.shape[:-2] + (len(head) + n**big_n,))
    rows = max(1, SEARCH_CHUNK // cache.w.size)
    for lo in range(0, k.shape[-1], rows):
        hi = min(lo + rows, k.shape[-1])
        part = head[lo:hi]
        if hi > len(head):
            cols = _column_sums(ops, max(lo - len(head), 0), hi - len(head))
            part = np.concatenate((part, cols))
        k[..., lo:hi] = skew_batch(cache, part)
    return _KTables(
        kraus=k[..., :m],
        plus=k[..., m : m + p],
        minus=k[..., m + p : m + 2 * p],
        col=k[..., m + 2 * p :],
    )


# a block: per channel t, its permutation digits lo_t..hi_t-1 as (lo_t, hi_t)
_Block = tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=8)
def _blocks(big_n: int, n: int, limit: int) -> tuple[tuple[int, _Block], ...]:
    """A search's blocks of at most ``limit`` >= 1 tuples, in lexicographic order.

    A block's tuples in C order are consecutive in the search, the first
    at the position given with the block. Channel 0 takes the identity
    only; the trailing channels are taken whole while their product fits
    ``limit``, the channel before them in runs of limit // (that product)
    digits, and every earlier channel one digit at a time.
    """
    sizes = (1,) + (math.factorial(n),) * (big_n - 1)  # digits per channel
    cut, tail = big_n, 1  # channels cut.. are taken whole: tail tuples
    while cut > 1 and tail * sizes[cut - 1] <= limit:
        cut, tail = cut - 1, tail * sizes[cut - 1]
    whole = tuple((0, size) for size in sizes[cut:])
    out, first, run = [], 0, limit // tail
    for prefix in itertools.product(*map(range, sizes[: cut - 1])):
        for lo in range(0, sizes[cut - 1], run):
            hi = min(lo + run, sizes[cut - 1])
            out.append((first, tuple((d, d + 1) for d in prefix) + ((lo, hi),) + whole))
            first += (hi - lo) * tail
    return tuple(out)


class _Grid(NamedTuple):
    """Read-only index arrays that score one block of a search (_score_grid).

    positions (n, Q): the positions in plus and minus of the pairs' terms,
    one row per Kraus index; pair k takes the columns pairs[k][0], one per
    (digit t, digit s) of the block in C order, and pairs[k][1] is the
    shape that places its table on the block's digit grid ``dims``. kraus
    holds, per channel t, the Kraus index of each of its digits, as an
    (n, 1, ..., dims[t], ..., 1) array.
    """

    positions: np.ndarray
    pairs: tuple[tuple[slice, tuple[int, ...]], ...]
    kraus: tuple[np.ndarray, ...]
    dims: tuple[int, ...]


# A grid holds n (Q + sum_t dims[t]) intp. Under the default tuple cap and
# SEARCH_CHUNK the largest is 458 KB (N = 2, n = 7, runs of 4,096 digits),
# so the 4 cached grids retain at most 1.8 MiB; a bench workload reads 2.
@functools.lru_cache(maxsize=4)
def _grid(big_n: int, n: int, block: _Block) -> _Grid:
    perms = _shape(big_n, n).perms.T  # (n, n!): the Kraus indices of each digit
    kraus = tuple(perms[:, digits] for digits in np.ix_(*(range(lo, hi) for lo, hi in block)))
    terms = [(k * n + kraus[t]) * n + kraus[s] for k, (t, s) in enumerate(_pair_index(big_n))]
    ends = np.cumsum([at[0].size for at in terms]).tolist()
    positions = np.concatenate([at.reshape(n, -1) for at in terms], axis=1)
    pairs = tuple((slice(end - at[0].size, end), at.shape[1:]) for end, at in zip(ends, terms))
    grid = _Grid(positions, pairs, kraus, tuple(hi - lo for lo, hi in block))
    for arr in (positions, *kraus):
        arr.flags.writeable = False
    return grid


def _score_grid(tables: _KTables, grid: _Grid, variants: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Bound values of a block of tuples, in the order a search offers them.

    Tables of S states score every state on every tuple of the block, in
    S * C rows state by state: lb1/ob1 (N > 2 only) and lb2/ob2 one value
    per row, lb3/ob3 (rows, len(variants)). A pair's terms depend on a
    tuple only through the pair's two digits, so they are gathered, added
    and rooted once per (digit t, digit s), and the P pair tables are then
    added on the block by broadcasting. Every sum adds its terms one after
    another: the n terms of each pair, total as the P pair sums, the P lb
    roots, the ob roots over P, the n ob squares and the n col entries.
    Squares are v * v. The per-tuple formulas run in the same operation
    order; each bound is one elementwise expression for both families
    (lb, ob) and every sign variant.
    """
    big_n, n = len(grid.dims), len(grid.positions)
    rows = np.stack((tables.plus, tables.minus)).reshape(-1, tables.plus.shape[-1])
    # per pair column: its sum, the sum's root, then the roots of its n
    # terms, each over the plus rows, then the minus rows
    pair = np.empty((n + 2, len(rows), grid.positions.shape[1]))
    rows.take(grid.positions, axis=1, out=pair[2:].swapaxes(0, 1))
    pair[0] = _in_order_sum(pair[2:])
    np.sqrt(pair[:1], out=pair[1:2])
    np.sqrt(pair[2:], out=pair[2:])
    parts = [pair[..., span].reshape(pair.shape[:2] + place) for span, place in grid.pairs]
    block = np.add(parts[0], 0.0, out=np.empty(pair.shape[:2] + grid.dims))
    for part in parts[1:]:
        block += part  # the pairs in order
    block[1:] *= block[1:]  # the squares: of the lb root sum, of each ob root
    block[2] = _in_order_sum(block[2:])  # the ob spread: the n squares in order
    # row 0 of total and of each spread holds the plus terms, row 1 the minus
    total = block[0].reshape(2, -1)
    spread = block[1:3].reshape(2, 2, -1)  # (lb, ob) by (plus, minus) by row
    out = {}
    if big_n > 2:
        out.update(zip(("lb1", "ob1"), (total[0] - spread[:, 0] / (big_n - 1) ** 2) / (big_n - 2)))
    col = tables.col.reshape((-1,) + (n,) * big_n)[(slice(None),) + grid.kraus]  # (S, n, block)
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
    range(n) per channel, n being the longest Kraus list. It is scored as
    the block of one digit per channel.
    """
    kraus = _padded_kraus(channels)
    n = len(kraus[0])
    if len(perms) != len(kraus):
        raise ValueError(f"need one permutation per channel ({len(kraus)}), got {len(perms)}")
    for t, perm in enumerate(perms):
        if sorted(perm) != list(range(n)):
            raise ValueError(f"perms[{t}] = {perm!r} is not a permutation of range({n})")
    digits = map(_shape(len(kraus), n).perms.tolist().index, map(list, perms))
    grid = _grid(len(kraus), n, tuple((d, d + 1) for d in digits))
    scored = _score_grid(_k_tables(cache, kraus), grid, (0, 1))
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
    """Every bound's offers in one scored block, one row per (bound, state).

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
    offered again ahead of the block. The best is the first maximum, so
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
    tables, scored in _blocks of at most SEARCH_CHUNK (state, tuple) rows in
    lexicographic order: the result is bit-identical to evaluating every
    tuple of every state on its own by the same formulas, ties included.
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
    for g in range(0, len(lams), group):
        part = slice(g, g + group)
        cache = weighted_ops(EigenDecomposition(lams[part], vecs[part]), params)
        tables = _k_tables(cache, kraus)
        size = len(tables.kraus)
        best = None  # (value, offer position) per (bound, state) row
        for first, block in _blocks(big_n, n, SEARCH_CHUNK // size):
            scored = _score_grid(tables, _grid(big_n, n, block), variants)
            best = _offer(best, _offers(scored, size, len(variants)), first * len(variants))
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
