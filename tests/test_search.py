"""The chunked table search against the oracles in support.py.

Equality here is exact (==): the search must reproduce, bit for bit, the
values and argmax tuples of evaluating every tuple on its own, and, run on
one-Kraus channels, the unitary bounds computed from their own formulas.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from chanskew import bounds, skewinfo
from chanskew.bounds import (
    channel_bound_columns,
    channel_bound_report,
    enumerate_tuples,
    tuple_bound_values,
    unitary_bound_columns,
    unitary_bound_report,
)
from chanskew.quantum import KrausChannel
from chanskew.repro import DEFAULT_PARAMS, eighth_turn_unitaries, planar_bloch_state
from chanskew.skewinfo import skew_info_channel, weighted_ops

import support
from support import (
    oracle_channel_bound_report,
    oracle_tuple_values,
    oracle_unitary_bound_report,
    random_channel,
    random_density,
    random_params,
    random_qubit_state,
    random_unitary,
    stacked_spectrum,
)

# tuples per random configuration; keeps the per-tuple oracle fast
ORACLE_MAX_TUPLES = 216

# zero-padded and N = 5 shapes that random draws under the cap rarely give
FIXED_SHAPES = [
    (4, (3, 3, 2, 1)),
    (2, (2, 2, 2, 2, 2)),
    (3, (2, 1, 2, 1, 1)),
    (8, (1, 1, 1)),
    (2, (4, 4)),
]


def random_shape(rng):
    """(d, Kraus counts) with N in 2..5, n in 1..4, under ORACLE_MAX_TUPLES."""
    while True:
        counts = tuple(int(c) for c in rng.integers(1, 5, size=int(rng.integers(2, 6))))
        if math.factorial(max(counts)) ** (len(counts) - 1) <= ORACLE_MAX_TUPLES:
            return int(rng.choice([2, 3, 4, 8])), counts


def random_config(rng, dim, counts):
    channels = [random_channel(rng, dim, c, name=f"ch{t}") for t, c in enumerate(counts)]
    return random_density(rng, dim), channels, random_params(rng)


def configs(seed, count):
    rng = np.random.default_rng(seed)
    shapes = FIXED_SHAPES + [random_shape(rng) for _ in range(count)]
    for k, (dim, counts) in enumerate(shapes):
        yield (dim, counts, (0, 1, None)[k % 3]), random_config(rng, dim, counts)


@pytest.mark.parametrize("chunk", [None, 3, 7])
def test_report_is_bit_identical_to_per_tuple_oracle(monkeypatch, chunk):
    # chunks of 3 and 7 make the running argmax carry across boundaries
    if chunk is not None:
        monkeypatch.setattr(bounds, "SEARCH_CHUNK", chunk)
    for label, (rho, channels, params) in configs(seed=11, count=25):
        sign_variant = label[2]
        got = channel_bound_report(rho, channels, params, sign_variant=sign_variant)
        want = oracle_channel_bound_report(rho, channels, params, sign_variant=sign_variant)
        assert got.to_json_dict() == want.to_json_dict(), label


@functools.lru_cache(maxsize=None)
def batch_cases():
    """configs() shapes as batches of 1 to 9 states that share channels,
    params and sign variant, with the oracle report of every state."""
    rng = np.random.default_rng(16)
    cases = []
    for k, (label, (rho, channels, params)) in enumerate(configs(seed=17, count=7)):
        states = [rho] + [random_density(rng, label[0]) for _ in range(k % 9)]
        want = [
            oracle_channel_bound_report(state, channels, params, label[2]).to_json_dict()
            for state in states
        ]
        cases.append((label, states, channels, params, want))
    return cases


@pytest.mark.parametrize("chunk", [None, 3, 7, 40])
def test_batch_is_bit_identical_to_per_state_oracle(monkeypatch, chunk):
    # a group holds SEARCH_CHUNK // (count d^2) states: a chunk of 3 or 7
    # rows scores one state at a time, in chunks of its tuples, and one of
    # 40 splits the small-d batches into groups of several states
    if chunk is not None:
        monkeypatch.setattr(bounds, "SEARCH_CHUNK", chunk)
    for label, states, channels, params, want in batch_cases():
        spectrum = stacked_spectrum(states)
        got = channel_bound_columns(spectrum, channels, params, sign_variant=label[2]).reports()
        assert [report.to_json_dict() for report in got] == want, label


@pytest.mark.parametrize("chunk", [None, 3, 7])
def test_batch_all_ties_keep_the_identity_tuple(monkeypatch, rng, chunk):
    # identical Kraus operators make every tuple score exactly the same for
    # every state, so each state's argmax stays on the first tuple offered
    if chunk is not None:
        monkeypatch.setattr(bounds, "SEARCH_CHUNK", chunk)
    u = random_unitary(rng, 3).mat
    channel = KrausChannel("flat", tuple(u / math.sqrt(3) for _ in range(3)))
    states = [random_density(rng, 3) for _ in range(5)]
    params = random_params(rng)
    spectrum = stacked_spectrum(states)
    reports = channel_bound_columns(spectrum, [channel] * 3, params, sign_variant=None).reports()
    identity = ((0, 1, 2),) * 3
    for rho, report in zip(states, reports):
        assert report.to_json_dict() == oracle_channel_bound_report(
            rho, [channel] * 3, params, sign_variant=None
        ).to_json_dict()
        assert {argmax.perms for argmax in report.argmax.values()} == {identity}


def test_tuple_values_are_bit_identical_to_oracle():
    for label, (rho, channels, params) in configs(seed=12, count=10):
        cache = weighted_ops(rho.spectrum, params)
        n = max(len(ch.ops) for ch in channels)
        for perms in itertools.islice(enumerate_tuples(n, len(channels)), 12):
            got = tuple_bound_values(cache, channels, perms)
            assert got == oracle_tuple_values(cache, channels, perms), (label, perms)


@pytest.mark.parametrize("dim,counts", [(2, (3, 3, 3, 3, 3)), (4, (4, 4, 3))])
def test_every_scored_value_matches_oracle_formulas(monkeypatch, rng, dim, counts):
    # winners alone would hide a rounding difference that strikes one value
    # in a thousand, so compare every value of every tuple; K is memoized
    # so that the oracle costs only its formulas
    memo = {}

    def skew(cache, e):
        key = e.tobytes()
        if key not in memo:
            memo[key] = skewinfo.skew_with_cache(cache, e)
        return memo[key]

    monkeypatch.setattr(support, "skew_with_cache", skew)
    rho, channels, params = random_config(rng, dim, counts)
    cache = weighted_ops(rho.spectrum, params)
    kraus = bounds._padded_kraus(channels)
    tables = bounds._k_tables(cache, kraus)
    tuples = list(enumerate_tuples(len(kraus[0]), len(kraus)))
    scored = bounds._score_chunk(tables, np.array(tuples), (0, 1))
    for c, perms in enumerate(tuples):
        want = oracle_tuple_values(cache, channels, perms)
        got = {name: scored[name][c] for name in ("lb1", "ob1", "lb2", "ob2")}
        got.update({f"{name}_x{x}": scored[name][c, x] for name in ("lb3", "ob3") for x in (0, 1)})
        assert got == want, perms


def test_k_tables_are_bit_identical_to_single_operand_evaluation(monkeypatch):
    # a chunk of 3 gives slices of 3 operands at d = 1 and of one operand
    # above, so slices end inside each field and at the boundaries between
    monkeypatch.setattr(bounds, "SEARCH_CHUNK", 3)
    batch = bounds.skew_batch
    sizes = []

    def recording(cache, ops):
        sizes.append((len(ops), cache.w.shape[0]))
        return batch(cache, ops)

    monkeypatch.setattr(bounds, "skew_batch", recording)
    rng = np.random.default_rng(15)
    shapes = [(2, (3, 3, 2, 1)), (1, (2, 1, 2)), (3, (1, 1))]
    for _ in range(20):
        counts = tuple(int(c) for c in rng.integers(1, 5, size=int(rng.integers(2, 6))))
        shapes.append((int(rng.choice([1, 2, 3, 4, 8])), counts))
    for dim, counts in shapes:
        rho, channels, params = random_config(rng, dim, counts)
        cache = weighted_ops(rho.spectrum, params)
        kraus = bounds._padded_kraus(channels)
        big_n, n = len(kraus), len(kraus[0])
        tables = bounds._k_tables(cache, kraus)

        def k(e):
            return skewinfo.skew_with_cache(cache, e)

        pairs = bounds._pair_index(big_n)
        pair_ops = [(et, es) for t, s in pairs for et in kraus[t] for es in kraus[s]]
        assert tables.kraus.tolist() == [k(e) for ops in kraus for e in ops], (dim, counts)
        assert tables.plus.tolist() == [k(et + es) for et, es in pair_ops], (dim, counts)
        assert tables.minus.tolist() == [k(et - es) for et, es in pair_ops], (dim, counts)
        assert tables.col.tolist() == [
            k(sum(kraus[t][i] for t, i in enumerate(idx)))
            for idx in itertools.product(range(n), repeat=big_n)
        ], (dim, counts)
    assert all(m <= max(1, 3 // dim**2) for m, dim in sizes)
    assert (3, 1) in sizes


@pytest.mark.parametrize("chunk", [None, 3])
def test_all_ties_keep_the_identity_tuple(monkeypatch, rng, chunk):
    # identical Kraus operators make every tuple score exactly the same,
    # so no later tuple may replace the first one offered
    if chunk is not None:
        monkeypatch.setattr(bounds, "SEARCH_CHUNK", chunk)
    u = random_unitary(rng, 3).mat
    channel = KrausChannel("flat", tuple(u / math.sqrt(3) for _ in range(3)))
    rho = random_density(rng, 3)
    report = channel_bound_report(rho, [channel] * 3, random_params(rng), sign_variant=None)
    identity = ((0, 1, 2),) * 3
    assert set(report.argmax) == {"lb1", "ob1", "lb2", "ob2", "lb3", "ob3"}
    for name, argmax in report.argmax.items():
        assert argmax.perms == identity, name


def test_chunks_cover_every_tuple_once(monkeypatch, rng):
    seen = []
    score = bounds._score_chunk

    def recording(tables, idx, variants):
        seen.append(idx.copy())
        return score(tables, idx, variants)

    monkeypatch.setattr(bounds, "SEARCH_CHUNK", 5)
    monkeypatch.setattr(bounds, "_score_chunk", recording)
    rho, channels, params = random_config(rng, 2, (3, 3, 2))
    channel_bound_report(rho, channels, params)
    assert all(len(idx) <= 5 for idx in seen)
    scored = [tuple(map(tuple, perms)) for idx in seen for perms in idx.tolist()]
    assert scored == list(enumerate_tuples(3, 3))


def test_tuples_at_decodes_every_position_an_intp_holds():
    # small shapes decode to enumerate_tuples; on N = 9 channels of n = 6
    # the two leading place values pass the largest intp and are stored
    # as it, which must still give digit 0 for every position
    for big_n, n in [(2, 1), (3, 2), (4, 3), (3, 4)]:
        want = list(enumerate_tuples(n, big_n))
        got = bounds._tuples_at(np.arange(len(want)), big_n, n).tolist()
        assert [tuple(map(tuple, perms)) for perms in got] == want
    perms = list(itertools.permutations(range(6)))
    ids = [0, 1, 719, 720, 2**62 + 12345, np.iinfo(np.intp).max - 1]
    got = bounds._tuples_at(np.array(ids), 9, 6).tolist()
    for position, row in zip(ids, got):
        digits = [position // 720**k % 720 for k in range(8, -1, -1)]
        assert [tuple(p) for p in row] == [perms[d] for d in digits], position


def sequential_rule(row):
    """The argmax rule offer by offer: a later value must beat the best by the margin."""
    best, at = row[0], 0
    for j, value in enumerate(row):
        if value > best + bounds.ARGMAX_MARGIN:
            best, at = value, j
    return best, at


def test_first_best_follows_the_sequential_rule(rng):
    # values a fraction of the margin apart, exact ties and both signed
    # zeros, so that most rows take the offer-by-offer path
    levels = np.array([0.0, -0.0, 0.4e-12, 0.9e-12, 1e-12, 1.1e-12, 2.5e-12, 1.0, 1.0 + 1e-12])
    for length in (1, 2, 3, 5, 8, 40):
        rows = rng.choice(levels, size=(300, length))
        top, pos = bounds._first_best(rows)
        for row, value, at in zip(rows.tolist(), top.tolist(), pos.tolist()):
            want = sequential_rule(row)
            assert (value, at) == want, row
            assert math.copysign(1.0, value) == math.copysign(1.0, want[0]), row


def test_offers_keep_each_bounds_own_rule(rng):
    # a bound without sign variants is padded to two slots per tuple; the
    # padding must never win, also against negative values, and a chunked
    # offer must carry each row's best into the next chunk
    states, tuples = 3, 6
    levels = np.array([-2.0, -1.0, -1.0 + 0.5e-12, 0.0, -0.0, 1.0])
    for _ in range(100):
        scored = {
            "lb2": rng.choice(levels, size=states * tuples),
            "lb3": rng.choice(levels, size=(states * tuples, 2)),
        }
        whole = bounds._offer(None, bounds._offers(scored, states, 2), 0)
        chunked = None
        for lo, hi in ((0, 2), (2, 5), (5, 6)):
            part = {
                name: values.reshape(states, tuples, -1)[:, lo:hi].reshape(states * (hi - lo), -1)
                for name, values in scored.items()
            }
            part["lb2"] = part["lb2"][:, 0]
            chunked = bounds._offer(chunked, bounds._offers(part, states, 2), lo * 2)
        for j, (name, values) in enumerate(scored.items()):
            for s in range(states):
                offered = values.reshape(states, -1)[s].tolist()
                value, at = sequential_rule(offered)
                if name == "lb2":
                    at *= 2  # one offer per tuple, in the first of its two slots
                for top, pos in (whole, chunked):
                    assert (top[j * states + s], pos[j * states + s]) == (value, at), name


def test_scalar_square_matches_numpy_scalar_power():
    # the per-tuple formulas square numpy float64 scalars; that calls the C
    # library's pow, which rounds differently from v * v on some inputs
    values = np.random.default_rng(13).random(20000) * 10.0
    want = [np.float64(v) ** 2 for v in values]
    assert bounds._scalar_square(values).tolist() == want


def test_scalar_square_matches_numpy_scalar_power_across_magnitudes():
    # zero, subnormals, squares that underflow or overflow, and random decades
    rng = np.random.default_rng(29)
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, tiny, 3 * tiny, 2.2e-308, 1e-300, 1e-160, 1e154, 1e300, 1.7e308]
    decades = rng.random(20000) * 10.0 ** rng.integers(-170, 160, size=20000)
    values = np.concatenate((edges, decades))
    with np.errstate(over="ignore", under="ignore"):
        want = [np.float64(v) ** 2 for v in values]
        assert bounds._scalar_square(values).tolist() == want


def synthetic_tables(rng, big_n, n, states=None):
    """K tables of random values over twelve decades, where the order of a sum
    shows in its last bits; ``states`` puts a state axis in front."""
    lead = () if states is None else (states,)

    def draw(size):
        return rng.random(lead + (size,)) * 10.0 ** rng.integers(-6, 6, size=lead + (size,))

    pair_terms = big_n * (big_n - 1) // 2 * n * n
    return bounds._KTables(
        kraus=draw(big_n * n), plus=draw(pair_terms), minus=draw(pair_terms), col=draw(n**big_n)
    )


def state_tables(tables, s):
    return bounds._KTables(*(getattr(tables, f)[s] for f in ("kraus", "plus", "minus", "col")))


def assert_scored_match_oracle(tables, tuples, states=None):
    big_n = len(tuples[0])
    scored = bounds._score_chunk(tables, np.array(tuples), (0, 1))
    for s in range(states or 1):
        one = tables if states is None else state_tables(tables, s)
        for c, perms in enumerate(tuples):
            row = s * len(tuples) + c
            got = {name: scored[name][row] for name in ("lb1", "ob1", "lb2", "ob2") if name in scored}
            got.update({f"{n}_x{x}": scored[n][row, x] for n in ("lb3", "ob3") for x in (0, 1)})
            want = support.terms_values(*support.table_terms(one, perms), big_n)
            assert got == {k: v for k, v in want.items() if v is not None}, (s, perms)


@pytest.mark.parametrize(
    "big_n,n,states",
    [
        (3, 2, None),  # P n = 6: every sum adds one term after another
        (4, 3, None),  # P n = 18: eight lanes, then a tail of two
        (5, 2, 3),  # P = 10 pairs with n = 2, on a stack of 3 states
        (6, 9, None),  # P n = 135: halves split at 64, a multiple of 8
        (5, 1, None),  # n = 1: the ob roots over P = 10 add pairwise
        (17, 1, 2),  # n = 1 and P = 136: the P roots split in halves too
    ],
)
def test_score_chunk_adds_in_numpy_order(big_n, n, states):
    # tuples from a chunk that starts inside a permutation block, and from
    # random positions; synthetic tables make the order of every sum show
    rng = np.random.default_rng(100 * big_n + n)
    tables = synthetic_tables(rng, big_n, n, states)
    count = math.factorial(n) ** (big_n - 1)
    lo = min(count - 1, 5)
    drawn = rng.integers(0, min(count, np.iinfo(np.intp).max), size=4)
    ids = np.concatenate((np.arange(lo, min(count, lo + 4)), drawn))
    tuples = [tuple(map(tuple, perms)) for perms in bounds._tuples_at(ids, big_n, n).tolist()]
    assert_scored_match_oracle(tables, tuples, states)


def test_stacked_search_with_chunks_inside_permutations_matches_oracle(monkeypatch, rng):
    # N = 5 two-Kraus channels (P = 10, n = 2): 16 tuples in chunks of 5, so
    # boundaries fall inside the last channel's block of two permutations
    monkeypatch.setattr(bounds, "SEARCH_CHUNK", 5)
    rho, channels, params = random_config(rng, 2, (2, 2, 2, 2, 2))
    states = [rho] + [random_density(rng, 2) for _ in range(2)]
    spectrum = stacked_spectrum(states)
    got = channel_bound_columns(spectrum, channels, params, sign_variant=None).reports()
    want = [oracle_channel_bound_report(r, channels, params, sign_variant=None) for r in states]
    assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]


def test_whole_search_carries_the_positions_it_would_gather():
    idx = bounds._whole_search(4, 3)
    assert idx.tolist() == [list(map(list, perms)) for perms in enumerate_tuples(3, 4)]
    fresh = bounds._gather_positions(np.array(idx))
    assert all(np.array_equal(got, want) for got, want in zip(idx.positions, fresh))
    assert not hasattr(idx.copy(), "positions")
    tables = synthetic_tables(np.random.default_rng(37), 4, 3)
    cached = bounds._score_chunk(tables, idx, (0, 1))
    plain = bounds._score_chunk(tables, np.array(idx), (0, 1))
    assert all(cached[name].tolist() == plain[name].tolist() for name in plain)


def test_table_roots_clamp_tiny_negatives_and_reject_larger_ones():
    rng = np.random.default_rng(31)
    tables = synthetic_tables(rng, 3, 2)
    tuples = list(enumerate_tuples(2, 3))
    # -3e-13 per entry, -6e-13 per pair sum: above SQRT_CLAMP_FLOOR, so
    # every root of the minus terms is zero and lb2, ob2 are the col mean
    tiny = dataclasses.replace(tables, minus=np.full_like(tables.minus, -3e-13))
    assert tiny.terms[3].tolist() == [0.0] * tiny.minus.size
    assert_scored_match_oracle(tiny, tuples)
    scored = bounds._score_chunk(tiny, np.array(tuples), (0, 1))
    for c, perms in enumerate(tuples):
        col = support.table_terms(tiny, perms)[2]
        assert scored["lb2"][c] == scored["ob2"][c] == col.sum() / 3
    # one entry below the floor fails the search, whichever tuple reads it
    low = tables.plus.copy()
    low[5] = 2 * bounds.SQRT_CLAMP_FLOOR
    bad = dataclasses.replace(tables, plus=low)
    with pytest.raises(ValueError, match="unexpectedly negative"):
        bounds._score_chunk(bad, np.array(tuples), (0, 1))


@pytest.mark.parametrize("dim", [2, 4])
def test_two_channel_identities(rng, dim):
    # parallelogram law: K(A+B) + K(A-B) = 2K(A) + 2K(B), so for N = 2 every
    # tuple gives lb2 = ob2 = lb3 = ob3 = sum, for both sign variants
    names = ("lb2", "ob2", "lb3_x0", "lb3_x1", "ob3_x0", "ob3_x1")
    for _ in range(10):
        rho = random_qubit_state(rng) if dim == 2 else random_density(rng, dim)
        channels = [random_channel(rng, dim, int(c)) for c in rng.integers(1, 4, size=2)]
        params = random_params(rng)
        total = sum(skew_info_channel(rho, ch, params) for ch in channels)
        cache = weighted_ops(rho.spectrum, params)
        n = max(len(ch.ops) for ch in channels)
        for perms in enumerate_tuples(n, 2):
            values = tuple_bound_values(cache, channels, perms)
            for name in names:
                assert values[name] == pytest.approx(total, abs=1e-12), (name, perms)


def unitary_configs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.choice([2, 3, 4, 16]))
        unitaries = [random_unitary(rng, dim) for _ in range(int(rng.integers(2, 6)))]
        yield random_density(rng, dim), unitaries, random_params(rng)
    for printed_u3 in (False, True):
        for theta in np.linspace(0.0, math.pi, 7):
            rho = planar_bloch_state(theta, math.sqrt(2.0) / 2.0)
            yield rho, eighth_turn_unitaries(printed_u3), DEFAULT_PARAMS


def test_unitary_bounds_are_bit_identical_to_formula_oracle():
    for rho, unitaries, params in unitary_configs(seed=14, count=60):
        want = oracle_unitary_bound_report(rho, unitaries, params)
        assert unitary_bound_report(rho, unitaries, params) == want


@pytest.mark.parametrize("chunk", [None, 3, 7, 40])
def test_unitary_batch_is_bit_identical_to_formula_oracle(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(bounds, "SEARCH_CHUNK", chunk)
    rng = np.random.default_rng(18)
    for k in range(12):
        dim = int(rng.choice([2, 3, 4, 16]))
        unitaries = [random_unitary(rng, dim) for _ in range(int(rng.integers(2, 6)))]
        states = [random_density(rng, dim) for _ in range(1 + k % 9)]
        params = random_params(rng)
        want = [oracle_unitary_bound_report(rho, unitaries, params) for rho in states]
        got = unitary_bound_columns(stacked_spectrum(states), unitaries, params).reports()
        assert got == want, (dim, len(states))
    # the sweep configuration: planar states over a theta grid
    thetas = np.linspace(0.0, math.pi, 13)
    states = [planar_bloch_state(theta, math.sqrt(2.0) / 2.0) for theta in thetas]
    for printed_u3 in (False, True):
        unitaries = eighth_turn_unitaries(printed_u3)
        want = [oracle_unitary_bound_report(rho, unitaries, DEFAULT_PARAMS) for rho in states]
        got = unitary_bound_columns(stacked_spectrum(states), unitaries, DEFAULT_PARAMS).reports()
        assert got == want


@pytest.mark.parametrize(
    "chunk,counts",
    [(5, (2, 2, 2)), (40, (2, 2, 2)), (40, (3, 3, 2)), (36, (2, 2)), (16, (1, 1, 1))],
)
def test_batch_chunks_hold_at_most_search_chunk_rows(monkeypatch, rng, chunk, counts):
    # a group holds SEARCH_CHUNK // (count d^2) states (at least one), so a
    # chunk scores at most SEARCH_CHUNK (state, tuple) rows; each group
    # scores every tuple once, in order, and each state is in one group
    seen = []
    score = bounds._score_chunk

    def recording(tables, idx, variants):
        seen.append((len(tables.col), idx.copy()))
        return score(tables, idx, variants)

    monkeypatch.setattr(bounds, "SEARCH_CHUNK", chunk)
    monkeypatch.setattr(bounds, "_score_chunk", recording)
    rho, channels, params = random_config(rng, 2, counts)
    states = [rho] + [random_density(rng, 2) for _ in range(6)]
    channel_bound_columns(stacked_spectrum(states), channels, params)
    tuples = list(enumerate_tuples(max(counts), len(counts)))
    groups = []
    for size, idx in seen:
        assert size * len(idx) <= chunk
        perms = [tuple(map(tuple, p)) for p in idx.tolist()]
        if perms[0] == tuples[0]:
            groups.append((size, []))
        assert size == groups[-1][0]
        groups[-1][1].extend(perms)
    assert sum(size for size, _ in groups) == len(states)
    assert all(scored == tuples for _, scored in groups)
    group = max(1, chunk // (len(tuples) * 4))
    assert [size for size, _ in groups[:-1]] == [group] * (len(groups) - 1)


def test_large_unitary_batch_splits_into_groups(monkeypatch):
    # 40 one-Kraus states of d = 16: SEARCH_CHUNK // 16^2 = 16 states per
    # group keeps each W, T and K temporary at SEARCH_CHUNK complex numbers
    stack = bounds.weighted_ops
    sizes = []

    def recording(spectrum, params):
        sizes.append(len(spectrum.eigenvalues))
        return stack(spectrum, params)

    monkeypatch.setattr(bounds, "weighted_ops", recording)
    rng = np.random.default_rng(19)
    unitaries = [random_unitary(rng, 16) for _ in range(3)]
    states = [random_density(rng, 16) for _ in range(40)]
    params = random_params(rng)
    got = unitary_bound_columns(stacked_spectrum(states), unitaries, params).reports()
    assert sizes == [16, 16, 8]
    assert got == [oracle_unitary_bound_report(rho, unitaries, params) for rho in states]
