"""Property-based differential tests of the permutation search.

Hypothesis draws the search's shape space: N = 2..4 channels of 1..3 Kraus
operators (zero-padded to the longest), d = 1 or 2, stacks of 1..3 states
(full rank, pure, diagonal singular), parameters with alpha + beta = 1 and
gamma at 0 or 1 among them, every sign variant, and SEARCH_CHUNK values
that split the search into blocks inside the leading channels. Each
stacked report must equal, with ==, the per-tuple oracle's report and the
state's lone report, and be sound. d <= 2 keeps the exact pins independent
of the OpenBLAS kernel (ROADMAP item 1), and the draws are derandomized so
that every run checks the same examples.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chanskew import bounds
from chanskew.bounds import channel_bound_columns, channel_bound_report
from chanskew.quantum import DensityMatrix
from chanskew.skewinfo import SkewParams

import support
from support import oracle_channel_bound_report, random_channel, random_density, stacked_spectrum


def draw_state(rng, dim, kind):
    if kind == "pure":
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return DensityMatrix(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    if kind == "diagonal":  # a zero eigenvalue, exactly, where d > 1
        diagonal = np.zeros(dim)
        diagonal[rng.integers(dim)] = 1.0
        return DensityMatrix(np.diag(diagonal).astype(np.complex128))
    return random_density(rng, dim)


def draw_params(rng, kind):
    if kind == "random":
        return support.random_params(rng)
    alpha = float(rng.random())
    gamma = {"sum1": float(rng.random()), "gamma0": 0.0, "gamma1": 1.0}[kind]
    return SkewParams(alpha, 1.0 - alpha, gamma)


@contextlib.contextmanager
def memoized_k():
    """The oracle's K evaluations memoized per operand bytes, for one cache."""
    memo = {}
    k = support.skew_with_cache

    def skew(cache, e):
        key = e.tobytes()
        if key not in memo:
            memo[key] = k(cache, e)
        return memo[key]

    with mock.patch.object(support, "skew_with_cache", skew):
        yield


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    counts=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    dim=st.integers(1, 2),
    kinds=st.lists(st.sampled_from(["random", "pure", "diagonal"]), min_size=1, max_size=3),
    params_kind=st.sampled_from(["random", "sum1", "gamma0", "gamma1"]),
    sign_variant=st.sampled_from([0, 1, None]),
    chunk=st.sampled_from([1, 3, 7, None]),
    identical=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_search_equals_oracle_and_lone_reports(
    counts, dim, kinds, params_kind, sign_variant, chunk, identical, seed
):
    rng = np.random.default_rng(seed)
    if identical:  # every tuple ties with the identity tuple on every bound
        counts = [counts[0]] * len(counts)
        channels = [random_channel(rng, dim, counts[0], name="same")] * len(counts)
    else:
        channels = [random_channel(rng, dim, c, name=f"ch{t}") for t, c in enumerate(counts)]
    states = [draw_state(rng, dim, kind) for kind in kinds]
    params = draw_params(rng, params_kind)
    patch = mock.patch.object(bounds, "SEARCH_CHUNK", chunk or bounds.SEARCH_CHUNK)
    with patch:
        columns = channel_bound_columns(stacked_spectrum(states), channels, params, sign_variant=sign_variant)
        lone = [channel_bound_report(rho, channels, params, sign_variant=sign_variant) for rho in states]
    assert columns.first_unsound() is None
    for rho, report, alone in zip(states, columns.reports(), lone):
        with memoized_k():
            want = oracle_channel_bound_report(rho, channels, params, sign_variant=sign_variant)
        assert report.to_json_dict() == want.to_json_dict()
        assert report.to_json_dict() == alone.to_json_dict()
        assert report.soundness_violations() == []
