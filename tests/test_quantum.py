import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import random_density

from chanskew.cmatrix import EigenDecomposition, as_cmatrix_stack
from chanskew.quantum import (
    IDENTITY_2,
    PAULI_1,
    PAULI_2,
    DensityMatrix,
    KrausChannel,
    UnitaryOp,
    amplitude_damping,
    bit_flip,
    bloch_spectra,
    bloch_state,
    channel_from_json,
    density_matrix_from_json,
    matrix_from_json,
    pauli_rotation,
    phase_damping,
    _validated_spectrum,
)


class TestDensityMatrix:
    def test_accepts_valid(self):
        dm = DensityMatrix(np.diag([0.75, 0.25]))
        assert dm.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.8, 0.4]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_matrix_is_read_only(self):
        dm = DensityMatrix(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError):
            dm.mat[0, 0] = 9.0


class TestBlochState:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(bloch_state((0, 0, 0)).mat, IDENTITY_2 / 2, atol=0)

    def test_pure_north_pole(self):
        np.testing.assert_allclose(bloch_state((0, 0, 1)).mat, np.diag([1.0, 0.0]), atol=1e-15)

    def test_planar_state_matrix(self):
        # radius sqrt(3)/2 at angle pi/2
        r = (math.sqrt(3) / 2) * np.array([math.cos(math.pi / 2), math.sin(math.pi / 2), 0.0])
        expected = np.array(
            [[0.5, -1j * math.sqrt(3) / 4], [1j * math.sqrt(3) / 4, 0.5]]
        )
        np.testing.assert_allclose(bloch_state(r).mat, expected, atol=1e-15)

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError, match="outside unit ball"):
            bloch_state((0.9, 0.9, 0.9))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_component(self, bad):
        with pytest.raises(ValueError, match=r"^Bloch vector must be finite, got \[0.0, "):
            bloch_state((0.0, bad, 0.0))

    def test_eigenvalues_from_radius(self, rng):
        from chanskew.cmatrix import eig_hermitian

        for _ in range(200):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            radius = rng.random()
            lams = eig_hermitian(bloch_state(radius * direction).mat).eigenvalues
            np.testing.assert_allclose(
                lams, [(1 + radius) / 2, (1 - radius) / 2], atol=1e-10
            )


def assert_same_spectra(stack: EigenDecomposition, states: list[DensityMatrix]):
    # byte comparison, so that a signed zero or a last-bit difference counts
    assert len(stack.eigenvalues) == len(stack.eigenvectors) == len(states)
    for k, rho in enumerate(states):
        for a, b in zip(stack, rho.spectrum):
            assert a[k].shape == b.shape and a.dtype == b.dtype
            assert a[k].tobytes() == b.tobytes()


def validated_stack(stack) -> EigenDecomposition:
    return _validated_spectrum(as_cmatrix_stack(stack))


class TestStacks:
    @pytest.mark.parametrize("radius", [math.sqrt(3) / 2, math.sqrt(2) / 2])
    def test_paper_grids_equal_lone_states(self, radius):
        thetas = np.linspace(0.0, math.pi, 181)
        vectors = [(radius * math.cos(t), radius * math.sin(t), 0.0) for t in thetas]
        assert_same_spectra(bloch_spectra(vectors), [bloch_state(r) for r in vectors])

    def test_pure_mixed_and_random_bloch_vectors_equal_lone_states(self, rng):
        s = 1.0 / math.sqrt(2.0)
        special = [
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
            (-s, s, 0.0), (s, 0.0, -s), (0.0, 0.0, 0.0),
        ]
        on_sphere = rng.normal(size=(20, 3))
        on_sphere /= np.linalg.norm(on_sphere, axis=1, keepdims=True)
        inside = on_sphere * rng.random((20, 1))
        vectors = np.concatenate([special, on_sphere, inside])
        assert_same_spectra(bloch_spectra(vectors), [bloch_state(r) for r in vectors])

    @pytest.mark.parametrize("dim", [3, 4, 16])
    def test_random_stacks_equal_lone_states(self, rng, dim):
        stack = np.array([random_density(rng, dim).mat for _ in range(12)])
        spectrum = validated_stack(stack)
        assert spectrum.eigenvectors.shape == (12, dim, dim)
        assert_same_spectra(spectrum, [DensityMatrix(m) for m in stack])

    def test_states_are_read_only_and_detached_from_the_input(self, rng):
        stack = np.array([random_density(rng, 3).mat for _ in range(4)])
        spectrum = validated_stack(stack)
        before = [arr.copy() for arr in spectrum]
        stack[1] = np.eye(3) / 3
        for arr, old in zip(spectrum, before):
            np.testing.assert_array_equal(arr, old)
            with pytest.raises(ValueError):
                arr[1] = 0.0

    def test_empty_input_gives_no_states(self):
        for spectrum in (validated_stack(np.zeros((0, 2, 2))), bloch_spectra(np.zeros((0, 3)))):
            assert spectrum.eigenvalues.shape == (0, 2)
            assert spectrum.eigenvectors.shape == (0, 2, 2)

    @pytest.mark.parametrize(
        "fault, match",
        [
            ("hermitian", "stack member 2: matrix is not Hermitian"),
            ("trace", "stack member 2: density matrix trace is 1.2"),
            ("negative", "stack member 2: not positive semidefinite"),
            ("nonfinite", r"stack member 2: matrix entries must be finite"),
        ],
    )
    def test_bad_member_is_named(self, fault, match):
        stack = np.array([np.diag([0.75, 0.25])] * 4, dtype=complex)
        stack[2] = {
            "hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
            "trace": np.diag([0.8, 0.4]),
            "negative": np.diag([1.2, -0.2]),
            "nonfinite": np.array([[0.5, np.nan], [np.nan, 0.5]]),
        }[fault]
        with pytest.raises(ValueError, match=match):
            validated_stack(stack)

    def test_bloch_vector_outside_ball_is_named(self):
        with pytest.raises(ValueError, match=r"stack member 1: Bloch vector outside unit ball"):
            bloch_spectra([(0.0, 0.0, 1.0), (0.9, 0.9, 0.9), (0.0, 0.0, 0.0)])

    def test_nonfinite_bloch_vector_is_named(self):
        # checked before the norm, which is NaN or inf for such a vector
        match = r"stack member 2: Bloch vector must be finite, got \[nan, "
        with pytest.raises(ValueError, match=match):
            bloch_spectra([(0.0, 0.0, 1.0), (0.9, 0.9, 0.9), (math.nan, 0.0, 0.0)])

    def test_wrong_shapes_are_rejected(self):
        with pytest.raises(ValueError, match=r"\(S, 3\)"):
            bloch_spectra(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"\(S, 3\)"):
            bloch_spectra(np.zeros(3))
        with pytest.raises(ValueError, match="stack of square"):
            validated_stack(np.zeros((4, 2, 3)))
        with pytest.raises(ValueError, match="stack of square"):
            validated_stack(np.eye(2) / 2)


class TestChannels:
    @pytest.mark.parametrize("builder", [amplitude_damping, phase_damping, bit_flip])
    def test_rejects_q_out_of_range(self, builder):
        for bad in (-0.1, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="0 <= q < 1"):
                builder(bad)

    @pytest.mark.parametrize("builder", [amplitude_damping, phase_damping, bit_flip])
    @given(q=st.floats(0.0, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_completeness_over_rates(self, builder, q):
        ch = builder(q)
        acc = sum(op.conj().T @ op for op in ch.ops)
        np.testing.assert_allclose(acc, IDENTITY_2, atol=1e-12)

    def test_amplitude_damping_matrices(self):
        ch = amplitude_damping(0.4)
        np.testing.assert_allclose(ch.ops[0], np.diag([1.0, 0.7745966692414834]), atol=1e-15)
        np.testing.assert_allclose(ch.ops[1], np.diag([0.0, math.sqrt(0.4)]), atol=1e-15)

    def test_phase_damping_matrices(self):
        ch = phase_damping(0.4)
        np.testing.assert_allclose(ch.ops[0], np.diag([1.0, math.sqrt(0.6)]), atol=1e-15)
        np.testing.assert_allclose(
            ch.ops[1], np.array([[0.0, 0.6324555320336759], [0.0, 0.0]]), atol=1e-15
        )

    def test_bit_flip_matrices(self):
        ch = bit_flip(0.4)
        np.testing.assert_allclose(ch.ops[0], 0.6324555320336759 * IDENTITY_2, atol=1e-15)
        np.testing.assert_allclose(ch.ops[1], math.sqrt(0.6) * PAULI_1, atol=1e-15)

    def test_identity_limit(self):
        ch = amplitude_damping(0.0)
        np.testing.assert_allclose(ch.ops[0], IDENTITY_2, atol=0)
        np.testing.assert_allclose(ch.ops[1], np.zeros((2, 2)), atol=0)

    def test_builders_validate_on_200_random_draws(self, rng):
        # constructors enforce the type invariants, so surviving
        # construction is the assertion
        for _ in range(200):
            q = rng.random()
            amplitude_damping(q)
            phase_damping(q)
            bit_flip(q)
            pauli_rotation(int(rng.integers(1, 4)), rng.normal() * 10)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            bloch_state(rng.random() * direction)


class TestValidateChannel:
    def test_identity_channel(self):
        assert KrausChannel("id", (IDENTITY_2,)).dim == 2

    def test_pauli_pair(self):
        KrausChannel("pauli", (PAULI_1 / math.sqrt(2), PAULI_2 / math.sqrt(2)))

    def test_double_identity_reports_deviation(self):
        with pytest.raises(ValueError, match="completeness.*1"):
            KrausChannel("double", (IDENTITY_2, IDENTITY_2))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="expected 2x2"):
            KrausChannel("mixed", (IDENTITY_2, np.eye(3, dtype=complex)))

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel("empty", ())


class TestPauliRotation:
    def test_x_rotation_matrix(self):
        u = pauli_rotation(1, math.pi / 8)
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        np.testing.assert_allclose(u.mat, [[c, 1j * s], [1j * s, c]], atol=1e-15)

    def test_zero_angle(self):
        np.testing.assert_allclose(pauli_rotation(3, 0.0).mat, IDENTITY_2, atol=0)

    def test_z_rotation_is_diagonal_exponential(self):
        u = pauli_rotation(3, math.pi / 8)
        expected = np.diag([np.exp(1j * math.pi / 8), np.exp(-1j * math.pi / 8)])
        np.testing.assert_allclose(u.mat, expected, atol=1e-15)

    def test_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            pauli_rotation(0, 1.0)

    @given(axis=st.integers(1, 3), angle=st.floats(-10.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_unitarity_and_unimodular_determinant(self, axis, angle):
        u = pauli_rotation(axis, angle).mat
        np.testing.assert_allclose(u.conj().T @ u, IDENTITY_2, atol=1e-12)
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12

    def test_unitary_validation(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryOp(np.diag([1.0, 0.5]))


# a matrix whose U^H U overflows to NaN, which no "> tol" test rejects
OVERFLOWING = [[1e200 - 1e200j, -1e200j], [-1e200j, -1e200 - 1e200j]]


class TestHugeFiniteInput:
    """Each check rejects a deviation that overflows, with its ValueError and no warning."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("mat", [OVERFLOWING, [[1e200, 0.0], [0.0, 1.0]]], ids=["nan", "inf"])
    def test_unitary_op(self, mat):
        with pytest.raises(ValueError, match="^matrix is not unitary: max .* = (nan|inf)$"):
            UnitaryOp(np.array(mat))

    @pytest.mark.parametrize("mat", [OVERFLOWING, [[1e200, 0.0], [0.0, 1.0]]], ids=["nan", "inf"])
    def test_kraus_channel(self, mat):
        with pytest.raises(ValueError, match=r"^channel 'x' violates completeness: .*= (nan|inf)$"):
            KrausChannel("x", (np.array(mat), np.eye(2)))

    def test_bloch_state(self):
        with pytest.raises(ValueError, match=r"^Bloch vector outside unit ball \(\|r\| = inf\)$"):
            bloch_state([1e200, 0.0, 0.0])

    def test_bloch_spectra(self):
        with pytest.raises(ValueError, match=r"^stack member 1: Bloch vector outside unit ball"):
            bloch_spectra([[0.0, 0.0, 0.5], [1e200, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "mat,match",
        [
            ([[0.5, 1e308], [-1e308, 0.5]], "not Hermitian: max .* = inf"),
            ([[1e308, 0.0], [0.0, 1e308]], "trace is inf"),
            # pairwise, the trace adds (1e308 + 1e308) + (-1e308 - 1e308) = inf - inf
            (np.diag([1e308, 1e308, -1e308, -1e308]), "trace is nan"),
        ],
        ids=["hermiticity", "trace-inf", "trace-nan"],
    )
    def test_density_matrix(self, mat, match):
        with pytest.raises(ValueError, match=match):
            DensityMatrix(mat)


class TestJsonFormats:
    def test_matrix_roundtrip(self):
        node = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, -1.0], [0.0, 0.0]]]
        m = matrix_from_json(node)
        np.testing.assert_array_equal(m, np.array([[0, 1], [-1j, 0]]))

    def test_missing_imaginary_part_names_entry(self):
        node = [[[0.0, 0.0], [1.0]], [[0.0, -1.0], [0.0, 0.0]]]
        with pytest.raises(ValueError, match=r"matrix\[0\]\[1\]"):
            matrix_from_json(node)

    def test_ragged_row(self):
        with pytest.raises(ValueError, match=r"matrix\[1\]"):
            matrix_from_json([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]])

    def test_channel_from_json(self):
        obj = {
            "name": "flip",
            "kraus": [
                [[[0.774596669, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.774596669, 0.0]]],
                [[[0.0, 0.0], [0.632455532, 0.0]], [[0.632455532, 0.0], [0.0, 0.0]]],
            ],
        }
        ch = channel_from_json(obj)
        assert ch.name == "flip"
        assert len(ch.ops) == 2

    def test_channel_json_error_paths(self):
        with pytest.raises(ValueError, match="channel.name"):
            channel_from_json({"kraus": []})
        with pytest.raises(ValueError, match=r"channel.kraus\[0\]\[0\]\[1\]"):
            channel_from_json({"name": "x", "kraus": [[[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]]]})

    def test_density_matrix_from_json_bare_and_wrapped(self):
        node = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        assert density_matrix_from_json(node).dim == 2
        assert density_matrix_from_json({"rho": node}).dim == 2

    def test_deeply_nested_entry_is_abbreviated(self):
        node = [[json.loads("[" * 900 + "]" * 900), [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        with pytest.raises(ValueError) as err:
            density_matrix_from_json({"rho": node}, path="rho.json")
        message = str(err.value)
        assert message.startswith("rho.json.rho[0][0]: expected a [re, im] number pair, got [[[")
        assert len(message) < 100

    def test_density_matrix_json_is_validated(self):
        node = [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]
        with pytest.raises(ValueError, match="trace"):
            density_matrix_from_json(node)

    def test_json_serialization_of_channel_is_loadable(self):
        ch = bit_flip(0.4)
        payload = {
            "name": ch.name,
            "kraus": [
                [[[z.real, z.imag] for z in row] for row in op] for op in ch.ops
            ],
        }
        parsed = channel_from_json(json.loads(json.dumps(payload)))
        for got, want in zip(parsed.ops, ch.ops):
            np.testing.assert_allclose(got, want, atol=0)
