"""Skew-information uncertainty bounds for quantum channels and unitaries."""

from .bounds import (
    BoundArgmax,
    BoundReport,
    channel_bound_report,
    enumerate_tuples,
    tuple_bound_values,
    unitary_bound_report,
)
from .cmatrix import ConvergenceError, EigenDecomposition, eig_hermitian
from .quantum import (
    DensityMatrix,
    KrausChannel,
    UnitaryOp,
    amplitude_damping,
    bit_flip,
    bloch_state,
    channel_from_json,
    density_matrix_from_json,
    pauli_rotation,
    phase_damping,
)
from .repro import SweepConfig, channel_sweep, eighth_turn_unitaries, unitary_sweep
from .skewinfo import (
    SkewParams,
    WeightedOperatorCache,
    skew_batch,
    skew_info_channel,
    skew_info_op,
    skew_with_cache,
    weighted_ops,
)

__all__ = [
    "BoundArgmax",
    "BoundReport",
    "ConvergenceError",
    "DensityMatrix",
    "EigenDecomposition",
    "KrausChannel",
    "SkewParams",
    "SweepConfig",
    "UnitaryOp",
    "WeightedOperatorCache",
    "amplitude_damping",
    "bit_flip",
    "bloch_state",
    "channel_bound_report",
    "channel_from_json",
    "channel_sweep",
    "density_matrix_from_json",
    "eig_hermitian",
    "eighth_turn_unitaries",
    "enumerate_tuples",
    "pauli_rotation",
    "phase_damping",
    "skew_batch",
    "skew_info_channel",
    "skew_info_op",
    "skew_with_cache",
    "tuple_bound_values",
    "unitary_bound_report",
    "unitary_sweep",
    "weighted_ops",
]

__version__ = "0.1.0"
