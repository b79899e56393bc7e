import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanskew import bounds
from chanskew.bounds import (
    channel_bound_columns,
    channel_bound_report,
    enumerate_tuples,
    tuple_bound_values,
    unitary_bound_columns,
    unitary_bound_report,
)
from chanskew.quantum import IDENTITY_2, KrausChannel, UnitaryOp, bloch_state
from chanskew.repro import (
    damping_flip_channels,
    eighth_turn_unitaries,
    planar_bloch_state,
    remixed_kraus,
)
from chanskew.skewinfo import SkewParams, skew_info_op, weighted_ops

from support import (
    norm_inequality_check,
    random_channel,
    random_density,
    random_params,
    random_qubit_state,
    random_remix,
    random_unitary,
    stacked_spectrum,
)

TABLE_PARAMS = SkewParams(0.25, 0.75, 0.25)


def table_config(q=0.4, theta=math.pi / 2):
    rho = planar_bloch_state(theta, math.sqrt(3) / 2)
    return rho, damping_flip_channels(q)


def random_config(rng):
    return random_qubit_state(rng), damping_flip_channels(rng.random()), random_params(rng)


def near_mixed_configs(radius, count=40):
    """Seeded paper-channel configurations on states at Bloch radius ``radius``."""
    rng = np.random.default_rng(41)
    for _ in range(count):
        direction = rng.normal(size=3)
        rho = bloch_state(radius * direction / np.linalg.norm(direction))
        yield rho, damping_flip_channels(rng.random()), random_params(rng)


class TestEnumerateTuples:
    @pytest.mark.parametrize("n,N,count", [(1, 3, 1), (2, 3, 4), (3, 2, 6), (2, 4, 8)])
    def test_counts(self, n, N, count):
        assert len(list(enumerate_tuples(n, N))) == count

    def test_first_perm_fixed_to_identity(self):
        for perms in enumerate_tuples(3, 3, cap=100):
            assert perms[0] == (0, 1, 2)

    def test_lexicographic_and_deterministic(self):
        tuples = list(enumerate_tuples(2, 3))
        assert tuples == [
            ((0, 1), (0, 1), (0, 1)),
            ((0, 1), (0, 1), (1, 0)),
            ((0, 1), (1, 0), (0, 1)),
            ((0, 1), (1, 0), (1, 0)),
        ]

    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match="cap"):
            list(enumerate_tuples(4, 4, cap=1000))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="n >= 1"):
            list(enumerate_tuples(0, 3))
        with pytest.raises(ValueError, match="N >= 2"):
            list(enumerate_tuples(2, 1))


class TestNormInequalities:
    def test_repeated_vector(self):
        u = np.array([1.0 + 2.0j, -0.5j, 3.0])
        assert norm_inequality_check([u, u, u]) == (True, True, True)

    def test_copies_attain_equality_so_negative_slack_fails(self):
        # N copies of u make every right-hand side equal N ||u||^2, so a
        # check wired to too small a right-hand side would still hold here
        u = np.array([1.0 + 2.0j, -0.5j, 3.0])
        for big_n in (3, 4, 5):
            assert norm_inequality_check([u] * big_n) == (True, True, True)
            assert norm_inequality_check([u] * big_n, slack=-1e-6) == (False, False, False)

    def test_zero_vectors(self):
        z = np.zeros(4, dtype=complex)
        assert norm_inequality_check([z, z, z]) == (True, True, True)

    def test_two_vectors_skip_first(self, rng):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        first, second, third = norm_inequality_check([u, v])
        assert first is None
        assert second and third

    def test_random_tuples(self, rng):
        for k in range(500):
            big_n = 3 + k % 3
            dim = 2 + k % 6
            vectors = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(big_n)]
            assert norm_inequality_check(vectors) == (True, True, True)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="components"):
            norm_inequality_check([np.ones(2), np.ones(3)])


class TestChannelBounds:
    def test_reproduces_reference_row(self):
        rho, channels = table_config()
        rep = channel_bound_report(rho, channels, TABLE_PARAMS)
        expected = {
            "ob1": 0.234918, "ob2": 0.247658, "ob3": 0.241686,
            "lb1": 0.222065, "lb2": 0.252565, "lb3": 0.252654, "sum": 0.258817,
        }
        for name, want in expected.items():
            assert getattr(rep, name) == pytest.approx(want, abs=5e-6), name

    def test_identity_channels_give_zero(self, rng):
        ident = KrausChannel("id", (IDENTITY_2,))
        rho = random_density(rng, 2)
        rep = channel_bound_report(rho, [ident, ident, ident], random_params(rng))
        for name in ("sum", "ob1", "ob2", "ob3", "lb1", "lb2", "lb3"):
            assert getattr(rep, name) == pytest.approx(0.0, abs=1e-14), name

    def test_two_channel_report_marks_lb1_absent(self):
        rho, channels = table_config()
        rep = channel_bound_report(rho, channels[:2], TABLE_PARAMS)
        assert rep.lb1 is None and rep.ob1 is None
        assert rep.soundness_violations() == []
        assert "lb1" not in rep.argmax

    def test_argmax_perms_reproduce_reported_value(self):
        rho, channels = table_config(q=0.7, theta=0.9)
        rep = channel_bound_report(rho, channels, TABLE_PARAMS)
        cache = weighted_ops(rho.spectrum, TABLE_PARAMS)
        vals = tuple_bound_values(cache, channels, rep.argmax["lb2"].perms)
        assert vals["lb2"] == pytest.approx(rep.lb2, abs=1e-14)
        vals = tuple_bound_values(cache, channels, rep.argmax["lb3"].perms)
        x = rep.argmax["lb3"].x
        assert vals[f"lb3_x{x}"] == pytest.approx(rep.lb3, abs=1e-14)

    def test_sign_variant_max_dominates_fixed(self, rng):
        for _ in range(10):
            rho, channels, params = random_config(rng)
            v_max, v0, v1 = (
                channel_bound_report(rho, channels, params, sign_variant=x).lb3
                for x in (None, 0, 1)
            )
            assert v_max >= max(v0, v1) - 1e-12
            assert v_max <= max(v0, v1) + 1e-12

    def test_soundness_random_configs(self, rng):
        for _ in range(50):
            rho, channels, params = random_config(rng)
            rep = channel_bound_report(rho, channels, params)
            assert rep.soundness_violations() == []

    def test_soundness_with_max_sign_variant(self, rng):
        for _ in range(25):
            rho, channels, params = random_config(rng)
            rep = channel_bound_report(rho, channels, params, sign_variant=None)
            assert rep.soundness_violations() == []

    def test_dominance_per_fixed_tuple(self, rng):
        for _ in range(25):
            rho, channels, params = random_config(rng)
            cache = weighted_ops(rho.spectrum, params)
            for perms in enumerate_tuples(2, 3):
                vals = tuple_bound_values(cache, channels, perms)
                assert vals["lb2"] >= vals["ob2"] - 1e-10
                assert vals["lb3_x0"] >= vals["ob3_x0"] - 1e-10
                assert vals["lb3_x1"] >= vals["ob3_x1"] - 1e-10
                assert vals["lb1"] <= vals["ob1"] + 1e-10

    def test_common_permutation_invariance(self, rng):
        # right-composing every permutation with one common relabeling
        # leaves each bound unchanged; this justifies pinning the first
        # permutation to the identity during enumeration
        for _ in range(10):
            rho, channels, params = random_config(rng)
            cache = weighted_ops(rho.spectrum, params)
            perms = tuple(tuple(rng.permutation(2)) for _ in range(3))
            base = tuple_bound_values(cache, channels, perms)
            for sigma in itertools.permutations(range(2)):
                relabeled = tuple(tuple(p[sigma[i]] for i in range(2)) for p in perms)
                moved = tuple_bound_values(cache, channels, relabeled)
                for name, value in base.items():
                    assert moved[name] == pytest.approx(value, abs=1e-12), name

    @pytest.mark.parametrize(
        "perms,match",
        [
            (((0, 1), (0, 0), (1, 1)), r"perms\[1\] = \(0, 0\) is not a permutation"),
            (((0, 1), (-1, 0), (1, 0)), r"perms\[1\] = \(-1, 0\) is not a permutation"),
            (((0, 1), (1, 0)), r"one permutation per channel \(3\), got 2"),
            (((0, 1), (1, 0), (0, 1), (1, 0)), r"one permutation per channel \(3\), got 4"),
        ],
        ids=["repeated-index", "negative-index", "too-few", "too-many"],
    )
    def test_fixed_tuple_rejects_malformed_perms(self, perms, match):
        rho, channels = table_config()
        with pytest.raises(ValueError, match=match):
            tuple_bound_values(weighted_ops(rho.spectrum, TABLE_PARAMS), channels, perms)

    @pytest.mark.parametrize("x", [2, -1, "1"])
    def test_invalid_sign_variant_is_rejected(self, x):
        rho, channels = table_config()
        with pytest.raises(ValueError) as err:
            channel_bound_report(rho, channels, TABLE_PARAMS, sign_variant=x)
        assert str(err.value) == f"sign_variant must be 0, 1 or None, got {x}"

    def test_cap_is_checked_before_any_k_evaluation(self, monkeypatch, rng):
        batch = bounds.skew_batch
        sizes = []

        def counting(cache, ops):
            sizes.append(len(ops))
            return batch(cache, ops)

        monkeypatch.setattr(bounds, "skew_batch", counting)
        rho = random_qubit_state(rng)
        channels = [random_channel(rng, 2, 3) for _ in range(4)]  # 6^3 = 216 tuples
        with pytest.raises(ValueError, match="needs 216 tuples, above the cap of 215"):
            channel_bound_report(rho, channels, TABLE_PARAMS, cap=215)
        assert sizes == []
        # at the cap: the Kraus operators, 2 * 6 * 9 pair operands and 3^4
        # column sums, in one batch
        channel_bound_report(rho, channels, TABLE_PARAMS, cap=216)
        assert sizes == [4 * 3 + 2 * 6 * 9 + 3**4]
        # a batch of 3 states: the cap counts one state's tuples, and the
        # three states share one batch of the same operands
        sizes.clear()
        states = [rho, random_qubit_state(rng), random_qubit_state(rng)]
        with pytest.raises(ValueError, match="needs 216 tuples, above the cap of 215"):
            channel_bound_columns(stacked_spectrum(states), channels, TABLE_PARAMS, cap=215)
        assert sizes == []
        columns = channel_bound_columns(stacked_spectrum(states), channels, TABLE_PARAMS, cap=216)
        assert len(columns.reports()) == 3
        assert sizes == [4 * 3 + 2 * 6 * 9 + 3**4]

    def test_state_whose_dim_differs_is_rejected(self, rng):
        rho = random_density(rng, 3)
        with pytest.raises(ValueError, match="^state has dim 3, the operators have dim 2$"):
            channel_bound_report(rho, damping_flip_channels(0.2), TABLE_PARAMS)

    @pytest.mark.parametrize("kind", ["channel", "unitary"])
    def test_state_is_decomposed_once_per_report(self, monkeypatch, rng, kind):
        # validation decomposes the state; the report reuses that spectrum
        channels = damping_flip_channels(0.3)
        unitaries = [random_unitary(rng) for _ in range(3)]
        eigh = np.linalg.eigh
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rho = random_qubit_state(rng)
        if kind == "channel":
            channel_bound_report(rho, channels, TABLE_PARAMS)
        else:
            unitary_bound_report(rho, unitaries, TABLE_PARAMS)
        assert calls == [(2, 2)]

    def test_gamma_drops_out_at_equal_half_exponents(self, rng):
        rho, channels = table_config(q=0.45, theta=0.6)
        ref = channel_bound_report(rho, channels, SkewParams(0.5, 0.5, 0.5))
        for gamma in (0.0, 0.2, 0.9):
            rep = channel_bound_report(rho, channels, SkewParams(0.5, 0.5, gamma))
            for name in ("sum", "ob1", "ob2", "ob3", "lb1", "lb2", "lb3"):
                assert getattr(rep, name) == pytest.approx(getattr(ref, name), abs=1e-12)

    def test_padding_handles_unequal_kraus_counts(self, rng):
        u = random_unitary(rng)
        single = KrausChannel("unitary", (u.mat,))
        rho = random_qubit_state(rng)
        params = random_params(rng)
        channels = [single, *damping_flip_channels(0.3)[:2]]
        rep = channel_bound_report(rho, channels, params)
        assert rep.soundness_violations() == []
        from chanskew.skewinfo import skew_info_channel

        direct_sum = sum(skew_info_channel(rho, ch, params) for ch in channels)
        assert rep.sum == pytest.approx(direct_sum, abs=1e-12)

    def test_dim_mismatch_between_state_and_channel(self, rng):
        rho = random_density(rng, 3)
        with pytest.raises(ValueError, match="dim"):
            channel_bound_report(rho, damping_flip_channels(0.2), TABLE_PARAMS)

    def test_report_json_dict(self):
        rho, channels = table_config()
        rep = channel_bound_report(rho, channels, TABLE_PARAMS)
        data = rep.to_json_dict()
        assert set(data) == {"sum", "ob1", "ob2", "ob3", "lb1", "lb2", "lb3", "argmax"}
        assert data["argmax"]["lb3"]["x"] == 1
        assert all(len(p) == 2 for p in data["argmax"]["lb2"]["perms"])

    @pytest.mark.parametrize("alpha,beta", [(0.9, 0.1), (0.8, 0.2)])
    def test_exponents_summing_to_one_give_finite_reports(self, alpha, beta):
        # a tail exponent that rounds below 0 would make every value NaN on a pure state
        params = SkewParams(alpha, beta, 0.25)
        rho = bloch_state((0.0, 0.0, 1.0))
        for rep in (
            channel_bound_report(rho, damping_flip_channels(0.4), params),
            unitary_bound_report(rho, eighth_turn_unitaries(), params),
        ):
            values = [v for v in rep.to_json_dict().values() if isinstance(v, float)]
            assert len(values) == 7 and all(math.isfinite(v) for v in values)
            assert rep.soundness_violations() == []


class TestKrausRepresentation:
    """The sum is the same for every Kraus set of a channel; the bounds are not."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 3),
        counts=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_sound_under_any_kraus_representation(self, seed, dim, counts):
        # the proof bounds vector norms, so every Kraus set must be sound
        rng = np.random.default_rng(seed)
        channels = [random_remix(rng, random_channel(rng, dim, n)) for n in counts]
        rep = channel_bound_report(random_density(rng, dim), channels, random_params(rng))
        assert rep.soundness_violations() == []

    def test_bound_ranges_over_remixed_table_channels(self):
        # every channel of the q = 0.4, theta = pi/2 table row remixed at
        # 0, pi/6, pi/3 and pi/2 (angle 0 is the standard set): 64 reports
        rho, channels = table_config()
        angles = [k * math.pi / 6 for k in range(4)]
        reports = [
            channel_bound_report(
                rho, [remixed_kraus(ch, a) for ch, a in zip(channels, mix)], TABLE_PARAMS
            )
            for mix in itertools.product(angles, repeat=3)
        ]
        standard = channel_bound_report(rho, channels, TABLE_PARAMS)
        for rep in reports:
            assert rep.sum == pytest.approx(standard.sum, abs=1e-15)
            assert rep.soundness_violations() == []
        ranges = {"ob1": (0.2111, 0.2572), "lb1": (0.2015, 0.2226),
                  "lb2": (0.2476, 0.2542), "lb3": (0.2441, 0.2542)}
        for name, (low, high) in ranges.items():
            values = [getattr(rep, name) for rep in reports]
            assert min(values) == pytest.approx(low, abs=5e-5), name
            assert max(values) == pytest.approx(high, abs=5e-5), name
        # which bound is tightest depends on the representation
        tightest = {
            max(("ob1", "ob2", "ob3", "lb1", "lb2", "lb3"), key=lambda n: getattr(rep, n))
            for rep in reports
        }
        assert tightest == {"ob1", "lb2", "lb3"}


class TestScale:
    """Near the maximally mixed state every value shrinks with the Bloch
    radius r (the sum is about r^2); each bound must still be its exact
    maximum, whatever the order of the channels or of their Kraus lists."""

    NAMES = ("ob1", "ob2", "ob3", "lb1", "lb2", "lb3")

    @pytest.mark.parametrize("radius", [1e-4, 1e-5, 1e-7])
    def test_each_bound_is_the_enumerated_maximum(self, radius):
        # d = 2, where every OpenBLAS kernel rounds the same
        for rho, channels, params in near_mixed_configs(radius):
            rep = channel_bound_report(rho, channels, params, sign_variant=None)
            cache = weighted_ops(rho.spectrum, params)
            scored = [tuple_bound_values(cache, channels, p) for p in enumerate_tuples(2, 3)]
            for name in self.NAMES:
                keys = [f"{name}_x0", f"{name}_x1"] if name.endswith("3") else [name]
                assert getattr(rep, name) == max(v[k] for v in scored for k in keys), name

    @pytest.mark.parametrize("reverse", ["channels", "kraus"])
    @pytest.mark.parametrize("radius", [0.5, 1e-4, 1e-5, 1e-7])
    def test_order_leaves_every_bound(self, radius, reverse):
        for rho, channels, params in near_mixed_configs(radius):
            if reverse == "channels":
                moved = channels[::-1]
            else:
                moved = [KrausChannel(ch.name, ch.ops[::-1]) for ch in channels]
            rep = channel_bound_report(rho, channels, params, sign_variant=None)
            other = channel_bound_report(rho, moved, params, sign_variant=None)
            for name in self.NAMES:
                change = abs(getattr(other, name) - getattr(rep, name))
                assert change <= 1e-12 * rep.sum, (name, change / rep.sum)


class TestUnitaryBounds:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_report_is_the_one_kraus_channel_report(self, rng, dim):
        # the unitary report is the channel report of {U_1}, ..., {U_N}, both
        # sign variants searched, lone and stacked
        for big_n in (2, 3, 4):
            unitaries = [random_unitary(rng, dim) for _ in range(big_n)]
            channels = [KrausChannel(f"u{t}", (u.mat,)) for t, u in enumerate(unitaries)]
            states = [random_density(rng, dim) for _ in range(3)]
            params = random_params(rng)
            for rho in states:
                want = channel_bound_report(rho, channels, params, sign_variant=None)
                assert unitary_bound_report(rho, unitaries, params) == want
            spectrum = stacked_spectrum(states)
            want = channel_bound_columns(spectrum, channels, params, sign_variant=None).reports()
            assert unitary_bound_columns(spectrum, unitaries, params).reports() == want

    def test_every_argmax_is_the_single_tuple(self, rng):
        rho = random_qubit_state(rng)
        rep = unitary_bound_report(rho, [random_unitary(rng) for _ in range(3)], TABLE_PARAMS)
        assert set(rep.argmax) == {"lb1", "ob1", "lb2", "ob2", "lb3", "ob3"}
        assert {am.perms for am in rep.argmax.values()} == {((0,), (0,), (0,))}
        assert rep.argmax["lb3"].x in (0, 1) and rep.argmax["lb2"].x is None

    def test_operator_lists_are_checked(self, rng):
        with pytest.raises(ValueError, match="^need at least 2 unitaries, got 1$"):
            unitary_bound_report(random_qubit_state(rng), [random_unitary(rng)], TABLE_PARAMS)
        unitaries = [random_unitary(rng), random_unitary(rng, 3)]
        with pytest.raises(ValueError, match="^unitary 1 has dim 3, unitary 0 has dim 2$"):
            unitary_bound_report(random_qubit_state(rng), unitaries, TABLE_PARAMS)
        channels = [damping_flip_channels(0.3)[0], KrausChannel("big", (np.eye(3),))]
        with pytest.raises(ValueError, match="^channel 'big' has dim 3, channel 'amplitude_d"):
            channel_bound_report(random_qubit_state(rng), channels, TABLE_PARAMS)
        with pytest.raises(ValueError, match="^need at least 2 channels, got 1$"):
            channel_bound_report(random_qubit_state(rng), channels[:1], TABLE_PARAMS)

    def test_all_identity_unitaries_give_zero(self, rng):
        rho = random_density(rng, 2)
        us = [UnitaryOp(IDENTITY_2)] * 3
        rep = unitary_bound_report(rho, us, random_params(rng))
        for name in ("sum", "lb1", "lb2", "lb3"):
            assert getattr(rep, name) == pytest.approx(0.0, abs=1e-14)

    def test_identical_unitaries_saturate(self, rng):
        # for N copies of one unitary, lb1 and lb2 collapse to the exact sum
        for big_n in (3, 4):
            rho = random_qubit_state(rng)
            u = random_unitary(rng)
            params = random_params(rng)
            k = skew_info_op(rho, u.mat, params)
            rep = unitary_bound_report(rho, [u] * big_n, params)
            assert rep.sum == pytest.approx(big_n * k, abs=1e-12)
            assert rep.lb1 == pytest.approx(big_n * k, abs=1e-10)
            assert rep.lb2 == pytest.approx(big_n * k, abs=1e-10)
            assert rep.lb3 == pytest.approx(big_n * k, abs=1e-10)

    def test_state_whose_dim_differs_is_rejected(self, rng):
        unitaries = [random_unitary(rng) for _ in range(3)]
        with pytest.raises(ValueError, match="^state has dim 4, the operators have dim 2$"):
            unitary_bound_report(random_density(rng, 4), unitaries, TABLE_PARAMS)

    def test_lb1_needs_more_than_two(self, rng):
        rho = random_qubit_state(rng)
        us = [random_unitary(rng) for _ in range(2)]
        rep = unitary_bound_report(rho, us, random_params(rng))
        assert rep.lb1 is None

    def test_golden_values_eighth_turns(self):
        from chanskew.repro import eighth_turn_unitaries

        rho = planar_bloch_state(0.0, math.sqrt(2) / 2)
        rep = unitary_bound_report(rho, eighth_turn_unitaries(), TABLE_PARAMS)
        assert rep.sum == pytest.approx(0.051605143949, abs=1e-9)
        assert rep.lb1 == pytest.approx(0.028016082706, abs=1e-9)
        assert rep.lb2 == pytest.approx(0.050621361402, abs=1e-9)
        assert rep.lb3 == pytest.approx(0.050867307039, abs=1e-9)

    def test_golden_values_alternative_third_rotation(self):
        from chanskew.repro import eighth_turn_unitaries

        rho = planar_bloch_state(0.0, math.sqrt(2) / 2)
        rep = unitary_bound_report(rho, eighth_turn_unitaries(printed_u3=True), TABLE_PARAMS)
        assert rep.sum == pytest.approx(0.201993554335, abs=1e-9)
        assert rep.lb1 == pytest.approx(0.138854895266, abs=1e-9)
        assert rep.lb2 == pytest.approx(0.185167724069, abs=1e-9)
        assert rep.lb3 == pytest.approx(0.189374181636, abs=1e-9)

    def test_soundness_random_trios(self, rng):
        for _ in range(50):
            rho = random_qubit_state(rng)
            us = [random_unitary(rng) for _ in range(3)]
            rep = unitary_bound_report(rho, us, random_params(rng))
            assert rep.soundness_violations() == []
