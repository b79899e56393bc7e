import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanskew.quantum import (
    IDENTITY_2,
    PAULI_1,
    DensityMatrix,
    KrausChannel,
    bloch_state,
    pauli_rotation,
)
from chanskew.skewinfo import (
    SkewParams,
    WeightedOperatorCache,
    skew_batch,
    skew_info_channel,
    skew_info_op,
    skew_with_cache,
    weighted_ops,
)

from support import (
    direct_skew,
    random_channel,
    random_density,
    random_matrix,
    random_params,
    random_remix,
    skew_mean_arbitrary,
    skew_mean_hermitian,
    skew_two_exponent_hermitian,
    skew_weighted_arbitrary,
    skew_weighted_hermitian,
    stacked_channel_skew,
    stacked_spectrum,
    trace_form_skew,
)

HALF = SkewParams(0.5, 0.5, 0.5)


class TestSkewParams:
    @pytest.mark.parametrize("a,b,g", [(0, 0, 0), (0.25, 0.75, 0.25), (1, 0, 1), (0.3, 0.3, 0.5)])
    def test_valid(self, a, b, g):
        SkewParams(a, b, g)

    @pytest.mark.parametrize(
        "a,b,g",
        [
            (-0.1, 0.5, 0.5),
            (0.5, -0.1, 0.5),
            (0.6, 0.6, 0.5),
            (math.nan, 0.5, 0.5),
            (0.5, math.nan, 0.5),
        ],
    )
    def test_invalid_exponents(self, a, b, g):
        with pytest.raises(ValueError, match="alpha"):
            SkewParams(a, b, g)

    @pytest.mark.parametrize("g", [-0.01, 1.01, math.nan])
    def test_invalid_gamma(self, g):
        with pytest.raises(ValueError, match="gamma"):
            SkewParams(0.25, 0.5, g)


class TestWeightedOps:
    def test_maximally_mixed_gives_scalar(self):
        params = SkewParams(0.3, 0.6, 0.2)
        cache = weighted_ops(bloch_state((0, 0, 0)).spectrum, params)
        expected = (0.8 * 2.0**-0.3 + 0.2 * 2.0**-0.6) * IDENTITY_2
        np.testing.assert_allclose(cache.w, expected, atol=1e-14)

    def test_tail_identity_when_exponents_sum_to_one(self):
        cache = weighted_ops(bloch_state((0.3, 0.1, 0.2)).spectrum, SkewParams(0.25, 0.75, 0.25))
        assert cache.tail_is_identity
        np.testing.assert_array_equal(cache.tail, IDENTITY_2)

    def test_diagonal_half_powers_ignore_gamma(self):
        cache = weighted_ops(DensityMatrix(np.diag([0.75, 0.25])).spectrum, SkewParams(0.5, 0.5, 0.3))
        np.testing.assert_allclose(cache.w, np.diag([math.sqrt(0.75), 0.5]), atol=1e-14)

    def test_w_hermitian_tail_psd(self, rng):
        for _ in range(20):
            rho = random_density(rng, 3)
            cache = weighted_ops(rho.spectrum, random_params(rng))
            assert np.max(np.abs(cache.w - cache.w.conj().T)) <= 1e-10
            assert np.max(np.abs(cache.tail - cache.tail.conj().T)) <= 1e-10
            assert np.linalg.eigvalsh(cache.tail).min() >= -1e-10


class TestSkewInfoOp:
    def test_identity_operator_gives_zero(self, rng):
        rho = random_density(rng, 3)
        assert skew_info_op(rho, np.eye(3, dtype=complex), random_params(rng)) == 0.0

    def test_maximally_mixed_gives_zero(self, rng):
        rho = bloch_state((0, 0, 0))
        e = random_matrix(rng, 2)
        assert skew_info_op(rho, e, random_params(rng)) <= 1e-30

    def test_hand_computed_value(self):
        # rho = diag(3/4, 1/4), E = s1, alpha = beta = 1/2: commutator has
        # off-diagonal entries +/- (sqrt(3) - 1)/2, so K = (2 - sqrt(3))/2.
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        for gamma in (0.0, 0.3, 1.0):
            got = skew_info_op(rho, PAULI_1, SkewParams(0.5, 0.5, gamma))
            assert got == pytest.approx((2.0 - math.sqrt(3.0)) / 2.0, abs=1e-12)

    def test_commuting_operator_gives_zero(self, rng):
        from chanskew.cmatrix import eig_hermitian

        for _ in range(20):
            rho = random_density(rng, 3)
            v = eig_hermitian(rho.mat).eigenvectors
            e = (v * rng.normal(size=3)) @ v.conj().T  # diagonal in rho's eigenbasis
            assert skew_info_op(rho, e, random_params(rng)) <= 1e-12

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="2x2"):
            skew_info_op(random_density(rng, 3), IDENTITY_2, HALF)

    @given(re=st.floats(-3, 3), im=st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_scaling_quadratic(self, re, im):
        lam = complex(re, im)
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        e = random_matrix(rng, 3)
        params = random_params(rng)
        base = skew_info_op(rho, e, params)
        scaled = skew_info_op(rho, lam * e, params)
        assert scaled == pytest.approx(abs(lam) ** 2 * base, rel=1e-10, abs=1e-12)

    def test_gamma_relabeling_symmetry(self, rng):
        # swapping (alpha, beta) and gamma -> 1-gamma leaves W unchanged
        for _ in range(50):
            rho = random_density(rng, 3)
            e = random_matrix(rng, 3)
            p = random_params(rng)
            swapped = SkewParams(p.beta, p.alpha, 1.0 - p.gamma)
            a = skew_info_op(rho, e, p)
            b = skew_info_op(rho, e, swapped)
            assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_nonnegative(self, rng):
        for _ in range(100):
            rho = random_density(rng, 2 + rng.integers(3))
            e = random_matrix(rng, rho.dim)
            assert skew_info_op(rho, e, random_params(rng)) >= 0.0


class TestOracleEqualities:
    def test_matches_independent_norm_form(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            e = random_matrix(rng, 3)
            p = random_params(rng)
            got = skew_info_op(rho, e, p)
            want = direct_skew(rho.mat, e, p.alpha, p.beta, p.gamma)
            assert got == pytest.approx(want, abs=1e-10)

    def test_trace_form(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            e = random_matrix(rng, 3)
            p = random_params(rng)
            got = skew_info_op(rho, e, p)
            want = trace_form_skew(rho.mat, e, p.alpha, p.beta, p.gamma)
            assert got == pytest.approx(want, abs=1e-10)

    def test_stacked_form_for_channels(self, rng):
        from support import random_channel

        for k in range(50):
            dim = 2 + k % 2
            rho = random_density(rng, dim)
            ch = random_channel(rng, dim, 2 + k % 3)
            p = random_params(rng)
            got = skew_info_channel(rho, ch, p)
            want = stacked_channel_skew(rho.mat, ch.ops, p.alpha, p.beta, p.gamma)
            assert got == pytest.approx(want, abs=1e-10)


class TestReductions:
    """The two-exponent functional collapses to the reduced families."""

    def test_single_exponent_arbitrary_operator(self, rng):
        # beta = 1 - alpha: no tail power
        for _ in range(50):
            rho = random_density(rng, 3)
            e = random_matrix(rng, 3)
            a, g = rng.random(), rng.random()
            got = skew_info_op(rho, e, SkewParams(a, 1.0 - a, g))
            assert got == pytest.approx(skew_weighted_arbitrary(rho.mat, e, a, g), abs=1e-10)

    def test_mean_weight_arbitrary_operator(self, rng):
        # beta = 1 - alpha, gamma = 1/2: plain mean of the two powers
        for _ in range(50):
            rho = random_density(rng, 3)
            e = random_matrix(rng, 3)
            a = rng.random()
            got = skew_info_op(rho, e, SkewParams(a, 1.0 - a, 0.5))
            assert got == pytest.approx(skew_mean_arbitrary(rho.mat, e, a), abs=1e-10)

    def test_single_exponent_hermitian(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            h = random_matrix(rng, 3)
            h = 0.5 * (h + h.conj().T)
            a, g = rng.random(), rng.random()
            got = skew_info_op(rho, h, SkewParams(a, 1.0 - a, g))
            assert got == pytest.approx(skew_weighted_hermitian(rho.mat, h, a, g), abs=1e-10)

    def test_mean_weight_hermitian(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            h = random_matrix(rng, 3)
            h = 0.5 * (h + h.conj().T)
            a = rng.random()
            got = skew_info_op(rho, h, SkewParams(a, 1.0 - a, 0.5))
            assert got == pytest.approx(skew_mean_hermitian(rho.mat, h, a), abs=1e-10)

    def test_two_exponent_hermitian(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            h = random_matrix(rng, 3)
            h = 0.5 * (h + h.conj().T)
            p = random_params(rng)
            got = skew_info_op(rho, h, p)
            want = skew_two_exponent_hermitian(rho.mat, h, p.alpha, p.beta, p.gamma)
            assert got == pytest.approx(want, abs=1e-10)


class TestChannelsAndUnitaries:
    def test_identity_channel_gives_zero(self, rng):
        ch = KrausChannel("id", (IDENTITY_2,))
        assert skew_info_channel(random_density(rng, 2), ch, HALF) == 0.0

    def test_channel_is_sum_over_kraus_ops(self, rng):
        from chanskew.repro import damping_flip_channels

        rho = random_density(rng, 2)
        p = random_params(rng)
        for ch in damping_flip_channels(0.3):
            total = skew_info_channel(rho, ch, p)
            parts = sum(skew_info_op(rho, op, p) for op in ch.ops)
            assert total == pytest.approx(parts, abs=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4), n_ops=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_kraus_remix_invariance(self, seed, dim, n_ops):
        # K(Phi) = 1/2 Tr G does not depend on the Kraus set
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, dim, n_ops)
        remixed = random_remix(rng, ch)
        rho, p = random_density(rng, dim), random_params(rng)
        base = skew_info_channel(rho, ch, p)
        assert skew_info_channel(rho, remixed, p) == pytest.approx(base, rel=1e-12, abs=0.0)

    def test_channel_dim_mismatch(self, rng):
        ch = KrausChannel("id3", (np.eye(3, dtype=complex),))
        with pytest.raises(ValueError, match="dim"):
            skew_info_channel(random_density(rng, 2), ch, HALF)

    def test_unitary_identity_and_global_phase_give_zero(self, rng):
        from chanskew.quantum import UnitaryOp

        rho = random_density(rng, 2)
        p = random_params(rng)
        assert skew_info_op(rho, UnitaryOp(IDENTITY_2).mat, p) == 0.0
        phase = UnitaryOp(np.exp(1j * 0.7) * IDENTITY_2)
        assert skew_info_op(rho, phase.mat, p) <= 1e-30

    def test_unitary_golden_value(self):
        # theta = 0 benchmark state, first eighth-turn rotation commutes with
        # rho; the second does not. Golden values frozen from a direct
        # numpy.linalg.eigh evaluation of the defining formula.
        rho = bloch_state((math.sqrt(2) / 2, 0, 0))
        params = SkewParams(0.25, 0.75, 0.25)
        assert skew_info_op(rho, pauli_rotation(1, math.pi / 8).mat, params) <= 1e-15
        got = skew_info_op(rho, pauli_rotation(2, math.pi / 8).mat, params)
        assert got == pytest.approx(0.025802571975, abs=1e-9)

    def test_q02_published_sum(self):
        from chanskew.repro import damping_flip_channels, planar_bloch_state

        rho = planar_bloch_state(math.pi / 2, math.sqrt(3) / 2)
        params = SkewParams(0.25, 0.75, 0.25)
        total = sum(
            skew_info_channel(rho, ch, params) for ch in damping_flip_channels(0.2)
        )
        assert total == pytest.approx(0.283955, abs=5e-6)

    def test_cache_reuse_matches_fresh_evaluation(self, rng):
        rho = random_density(rng, 2)
        p = random_params(rng)
        cache = weighted_ops(rho.spectrum, p)
        for _ in range(10):
            e = random_matrix(rng, 2)
            assert skew_with_cache(cache, e) == skew_info_op(rho, e, p)


class TestSkewBatch:
    # every K a report reads comes from skew_batch; equality with the
    # single-operand evaluator is exact, so a numpy/BLAS build on which the
    # stacked products round differently fails here before any digest does
    @pytest.mark.parametrize("identity_tail", [False, True])
    def test_equals_single_operand_evaluation(self, rng, identity_tail):
        for _ in range(150):
            dim = int(rng.integers(1, 17))
            if identity_tail:
                alpha = float(rng.choice([0.0, 0.25, 0.5, 0.625, 1.0]))
                params = SkewParams(alpha, 1.0 - alpha, rng.random())
            else:
                params = random_params(rng)
            cache = weighted_ops(random_density(rng, dim).spectrum, params)
            assert cache.tail_is_identity == identity_tail
            ops = np.array([random_matrix(rng, dim) for _ in range(int(rng.integers(1, 40)))])
            ops[rng.random(len(ops)) < 0.2] = 0.0
            assert skew_batch(cache, ops).tolist() == [skew_with_cache(cache, e) for e in ops]

    # skew_batch stacks operands by rows: W E of all S states is one
    # (S d, d) product per operand, E W and the tail product one (M d, d)
    # product per state. Each row must round as that row alone, also where
    # S d and M d span many of the BLAS's row blocks: up to 256 states (the
    # largest channel-sweep group at d = 2) and 300 operands, and the paper
    # sweep's (181 states, 38 operands, d = 2)
    @pytest.mark.parametrize("identity_tail", [False, True])
    def test_row_stacked_products_at_scale(self, rng, identity_tail):
        shapes = [(181, 38, 2), (256, 120, 2), (97, 211, 3), (1, 300, 4), (16, 300, 16),
                  (64, 50, 5), (33, 77, 7), (8, 300, 13), (256, 3, 1)]
        while len(shapes) < 21:
            s, m, dim = int(rng.integers(1, 257)), int(rng.integers(1, 301)), int(rng.integers(1, 17))
            if s * m <= 8000:
                shapes.append((s, m, dim))
        for s, m, dim in shapes:
            if identity_tail:
                alpha = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
                params = SkewParams(alpha, 1.0 - alpha, rng.random())
            else:
                params = random_params(rng)
            states = [random_density(rng, dim) for _ in range(s)]
            stack = weighted_ops(stacked_spectrum(states), params)
            assert stack.tail_is_identity == identity_tail
            ops = np.array([random_matrix(rng, dim) for _ in range(m)])
            ops[rng.random(m) < 0.1] = 0.0
            batch = skew_batch(stack, ops)
            assert batch.shape == (s, m)
            for k, rho in enumerate(states):
                cache = weighted_ops(rho.spectrum, params)
                want = [skew_with_cache(cache, e) for e in ops]
                assert batch[k].tolist() == want, (s, m, dim, k)
                if k == 0:  # a lone cache is a stack of one
                    assert skew_batch(cache, ops).tolist() == want, (s, m, dim)

    # K is half a sum of squares, so no operand gives a negative value or
    # -0.0, and the bound search takes plain square roots of it: lone and
    # stacked caches, singular states, zero, -0, identity and W operands,
    # and operands scaled from 1e-100 to 1e100 (K stays far from overflow)
    @pytest.mark.parametrize("identity_tail", [False, True])
    def test_values_carry_no_sign_bit(self, rng, identity_tail):
        sums_to_one = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (1.0, 0.0), (0.9, 0.1), (0.8, 0.2)]
        for k in range(64):
            dim = k % 8 + 1
            if identity_tail:
                alpha, beta = sums_to_one[k % len(sums_to_one)]
                params = SkewParams(alpha, beta, rng.random())
            else:
                params = random_params(rng)
            ranks = rng.integers(1, dim + 1, size=1 + k % 5)  # rank dim is full rank
            states = [low_rank_density(rng, dim, int(rank)) for rank in ranks]
            stack = weighted_ops(stacked_spectrum(states), params)
            assert stack.tail_is_identity == identity_tail
            scale = 10.0 ** rng.uniform(-100.0, 100.0, size=(40, 1, 1))
            ops = np.concatenate([
                np.zeros((1, dim, dim), dtype=np.complex128),
                np.full((1, dim, dim), complex(-0.0, -0.0)),
                np.eye(dim, dtype=np.complex128)[None],
                stack.w,
                np.array([random_matrix(rng, dim) for _ in range(40)]) * scale,
            ])
            assert not np.signbit(skew_batch(stack, ops)).any(), (k, params)
            cache = weighted_ops(states[-1].spectrum, params)
            assert not np.signbit(skew_batch(cache, ops)).any(), (k, params)

    # [W, E] overwrites the E W products and [W, E] T the W E products, so a
    # call holds two (S, M, d, d) product stacks and its (S, M) dot products
    # and K; three stacks for S > 1, where numpy buffers the strided
    # subtraction. tracemalloc sees numpy's data buffers; the slack covers the
    # interpreter's own bookkeeping
    @pytest.mark.parametrize("identity_tail", [False, True])
    def test_holds_at_most_two_product_stacks(self, rng, identity_tail):
        slack = 4096
        params = SkewParams(0.25, 0.75, 0.25) if identity_tail else SkewParams(0.3, 0.2, 0.4)
        shapes = [(1, 16, 16), (1, 300, 4), (1, 7, 13), (4, 8, 8), (16, 16, 16), (2, 300, 4)]
        for s, m, dim in shapes:
            states = [random_density(rng, dim) for _ in range(s)]
            spectrum = states[0].spectrum if s == 1 else stacked_spectrum(states)
            cache = weighted_ops(spectrum, params)
            ops = np.array([random_matrix(rng, dim) for _ in range(m)])
            skew_batch(cache, ops)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                skew_batch(cache, ops)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            product = s * m * dim * dim * np.dtype(np.complex128).itemsize
            limit = (2 if s == 1 else 3) * product + s * m * (16 + 8) + slack
            assert peak <= limit, (s, m, dim, peak / product)

    # the products are written into buffers skew_batch allocates, never into
    # its operands or the cache
    def test_read_only_inputs(self, rng):
        for s, dim in [(1, 4), (1, 16), (3, 5)]:
            for params in (HALF, SkewParams(0.3, 0.2, 0.4)):
                states = [random_density(rng, dim) for _ in range(s)]
                spectrum = states[0].spectrum if s == 1 else stacked_spectrum(states)
                cache = weighted_ops(spectrum, params)
                ops = np.array([random_matrix(rng, dim) for _ in range(20)])
                inputs = (cache.w, cache.tail, ops)
                frozen = [arr.copy() for arr in inputs]
                for arr in frozen:
                    arr.flags.writeable = False
                want = skew_batch(cache, ops)
                frozen_cache = WeightedOperatorCache(frozen[0], frozen[1], cache.tail_is_identity)
                assert skew_batch(frozen_cache, frozen[2]).tolist() == want.tolist()
                assert all(arr.tobytes() == copy.tobytes() for arr, copy in zip(inputs, frozen))

    def test_empty_operand_stack(self, rng):
        for dim in (1, 2, 5):
            states = [random_density(rng, dim) for _ in range(3)]
            empty = np.zeros((0, dim, dim), dtype=np.complex128)
            stack = weighted_ops(stacked_spectrum(states), HALF)
            assert skew_batch(stack, empty).shape == (3, 0)
            assert skew_batch(weighted_ops(states[0].spectrum, HALF), empty).shape == (0,)

    def test_shape_mismatch(self, rng):
        cache = weighted_ops(random_density(rng, 2).spectrum, HALF)
        with pytest.raises(ValueError, match="state is"):
            skew_batch(cache, np.zeros((4, 3, 3), dtype=np.complex128))


def low_rank_density(rng, dim: int, rank: int) -> DensityMatrix:
    """rho = G G^H / Tr(G G^H) for a random dim x rank G: rank-deficient below dim."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


class TestStackedWeightedOps:
    # the stacked search reads W and T of many states from one stack; each
    # must carry the same bits as the state's own cache, or its K (and so
    # its bounds) would differ from a one-state report
    def test_equals_weighted_ops_of_each_state(self, rng):
        exponents = [
            lambda: random_params(rng),
            lambda: SkewParams(0.0, rng.random(), rng.random()),  # rho^0 = I in W
            lambda: SkewParams(0.0, 0.0, rng.random()),  # W = I, full tail
            lambda: (lambda a: SkewParams(a, 1.0 - a, rng.random()))(rng.random()),  # T = I
        ]
        for k in range(80):
            dim = int(rng.choice([1, 2, 3, 4, 8]))
            states = [
                low_rank_density(rng, dim, int(rng.integers(1, dim + 1)))
                for _ in range(1 + k % 6)
            ]
            params = exponents[k % 4]()
            stack = weighted_ops(stacked_spectrum(states), params)
            ops = np.array([random_matrix(rng, dim) for _ in range(5)])
            batch = skew_batch(stack, ops)
            assert batch.shape == (len(states), len(ops))
            for s, rho in enumerate(states):
                cache = weighted_ops(rho.spectrum, params)
                assert stack.w[s].tobytes() == cache.w.tobytes(), (k, s)
                assert stack.tail[s].tobytes() == cache.tail.tobytes(), (k, s)
                assert stack.tail_is_identity == cache.tail_is_identity
                assert batch[s].tolist() == [skew_with_cache(cache, e) for e in ops], (k, s)
            if params.alpha == params.beta == 0.0:
                assert (stack.w == np.eye(dim)).all()  # rho^0 = I exactly, also when singular
            if params.alpha + params.beta == 1.0:
                assert (stack.tail == np.eye(dim)).all()


class TestSingularStates:
    # the convention rho^0 = I is not the limit of rho^p as p -> 0+: on a
    # singular state that limit is the projector onto the support, so K
    # jumps where the tail exponent (1 - alpha - beta) / 2 reaches zero
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_pure_state_powers_are_exact_projectors(self, rng, dim):
        for _ in range(100):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            proj = np.outer(psi, psi.conj())
            rho = DensityMatrix(proj)
            e = random_matrix(rng, dim)
            comm = proj @ e - e @ proj  # W = P for alpha, beta > 0
            alpha, gamma = rng.choice([0.125, 0.25, 0.5, 0.625]), rng.random()
            small_tail = SkewParams(alpha, 1.0 - alpha - 2e-9, gamma)
            zero_tail = SkewParams(alpha, 1.0 - alpha, gamma)
            assert skew_info_op(rho, e, small_tail) == pytest.approx(
                0.5 * np.linalg.norm(comm @ proj) ** 2, abs=1e-12
            )
            assert skew_info_op(rho, e, zero_tail) == pytest.approx(
                0.5 * np.linalg.norm(comm) ** 2, abs=1e-12
            )

    # 1 - 0.9 - 0.1 rounds to -1.4e-17, and a zero eigenvalue to that power
    # is inf; the tail exponent comes from the sum SkewParams checked, so
    # every pair whose sum rounds to 1 has T = I exactly
    @pytest.mark.parametrize("alpha,beta", [(0.9, 0.1), (0.8, 0.2)])
    def test_exponents_summing_to_one_give_identity_tail(self, rng, alpha, beta):
        params = SkewParams(alpha, beta, 0.25)
        pure = bloch_state((0.0, 0.0, 1.0))
        for rho in (pure, random_density(rng, 2), low_rank_density(rng, 3, 1)):
            cache = weighted_ops(rho.spectrum, params)
            assert cache.tail_is_identity
            assert (cache.tail == np.eye(rho.dim)).all()
        # W = P on |0><0|, so K(X) = ||[P, X]||^2 / 2 = 1
        assert skew_info_op(pure, PAULI_1, params) == pytest.approx(1.0, abs=1e-12)

    # the test oracles also take T's exponent from the sum alpha + beta, so
    # on singular states they agree with the package where the exponent pair
    # sums to 1. Diagonal states have exact zero eigenvalues; the eigensolver
    # gives the zeros of the non-diagonal low-rank states as residues of
    # either sign, which the oracles zero as the package does: a residue of
    # 1e-17 to the power 0.1 would be 0.02
    @pytest.mark.parametrize("alpha,beta", [(0.9, 0.1), (0.8, 0.2)])
    def test_oracles_agree_on_singular_states(self, rng, alpha, beta):
        params = SkewParams(alpha, beta, rng.random())
        diagonals = [(1.0, 0.0), (0.7, 0.3, 0.0), (0.5, 0.0, 0.25, 0.25), (0.0, 0.0, 1.0)]
        states = [DensityMatrix(np.diag(diagonal).astype(np.complex128)) for diagonal in diagonals]
        states += [low_rank_density(rng, dim, rank) for dim in (3, 4) for rank in (1, 2)] * 3
        for rho in states:
            for _ in range(10):
                e = random_matrix(rng, rho.dim)
                got = skew_info_op(rho, e, params)
                for oracle in (direct_skew, trace_form_skew):
                    want = oracle(rho.mat, e, alpha, beta, params.gamma)
                    assert got == pytest.approx(want, abs=1e-10), (rho.dim, oracle.__name__)
