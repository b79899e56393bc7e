"""The chunked table search against the oracles in support.py.

Equality here is exact (==): the search must reproduce, bit for bit, the
values and argmax tuples of evaluating every tuple on its own, and, run on
one-Kraus channels, the unitary bounds computed from their own formulas.
"""

import itertools
import math

import numpy as np
import pytest

from chanskew import bounds, skewinfo
from chanskew.bounds import (
    channel_bound_report,
    enumerate_tuples,
    tuple_bound_values,
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


def test_tuple_values_are_bit_identical_to_oracle():
    for label, (rho, channels, params) in configs(seed=12, count=10):
        cache = weighted_ops(rho, params)
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
    cache = weighted_ops(rho, params)
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
        cache = weighted_ops(rho, params)
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


def test_scalar_square_matches_numpy_scalar_power():
    # the per-tuple formulas square numpy float64 scalars; that calls the C
    # library's pow, which rounds differently from v * v on some inputs
    values = np.random.default_rng(13).random(20000) * 10.0
    want = [np.float64(v) ** 2 for v in values]
    assert bounds._scalar_square(values).tolist() == want


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
        cache = weighted_ops(rho, params)
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
