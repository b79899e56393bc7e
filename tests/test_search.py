"""The chunked table search against the per-tuple oracle in support.py.

Equality here is exact (==): the search must reproduce, bit for bit, the
values and argmax tuples of evaluating every tuple on its own.
"""

import itertools
import math

import numpy as np
import pytest

from chanskew import bounds
from chanskew.bounds import channel_bound_report, enumerate_tuples, tuple_bound_values
from chanskew.quantum import KrausChannel
from chanskew.skewinfo import skew_info_channel, weighted_ops

import support
from support import (
    oracle_channel_bound_report,
    oracle_tuple_values,
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
            memo[key] = bounds.skew_with_cache(cache, e)
        return memo[key]

    monkeypatch.setattr(support, "skew_with_cache", skew)
    rho, channels, params = random_config(rng, dim, counts)
    cache = weighted_ops(rho, params)
    kraus = bounds._padded_kraus(channels)
    tables = bounds._k_tables(cache, kraus, bounds._ALL_BOUNDS)
    tuples = list(enumerate_tuples(len(kraus[0]), len(kraus)))
    scored = bounds._score_chunk(tables, np.array(tuples), bounds._ALL_BOUNDS, (0, 1))
    for c, perms in enumerate(tuples):
        want = oracle_tuple_values(cache, channels, perms)
        got = {name: scored[name][c] for name in ("lb1", "ob1", "lb2", "ob2")}
        got.update({f"{name}_x{x}": scored[name][c, x] for name in ("lb3", "ob3") for x in (0, 1)})
        assert got == want, perms


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

    def recording(tables, idx, which, variants):
        seen.append(idx.copy())
        return score(tables, idx, which, variants)

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
