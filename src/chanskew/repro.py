"""Reference configurations, theta sweeps, and comparison-table machinery.

The benchmark configuration is a planar qubit state

    rho(theta) = (I + radius * (cos(theta) s1 + sin(theta) s2)) / 2

probed either by the three damping/flip channels (radius sqrt(3)/2) or by
three eighth-turn rotation unitaries (radius sqrt(2)/2), with exponents
alpha = 1/4, beta = 3/4 and weight gamma = 1/4. Published values for the
q = 0.4 comparison table and a q = 0.2 spot check are embedded so the CLI
can report pass/fail at the precision those references carry (6 digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import (
    DEFAULT_TUPLE_CAP,
    BoundReport,
    UnitaryBoundReport,
    channel_bound_report,
    channel_bound_reports,
    unitary_bound_reports,
)
from .quantum import (
    KrausChannel,
    UnitaryOp,
    amplitude_damping,
    bit_flip,
    bloch_state,
    bloch_states,
    pauli_rotation,
    phase_damping,
)
from .skewinfo import SkewParams, skew_info_channel

DEFAULT_PARAMS = SkewParams(alpha=0.25, beta=0.75, gamma=0.25)
CHANNEL_BLOCH_RADIUS = math.sqrt(3.0) / 2.0
UNITARY_BLOCH_RADIUS = math.sqrt(2.0) / 2.0
DEFAULT_SWEEP_STEPS = 181
TABLE1_Q = 0.4
REFERENCE_TOL = 5e-6

CHANNEL_CSV_COLUMNS = ("theta", "sum", "ob1", "ob2", "ob3", "lb1", "lb2", "lb3")
UNITARY_CSV_COLUMNS = ("theta", "sum", "lb1", "lb2", "lb3")

TABLE1_THETAS = (
    ("pi/2", math.pi / 2.0),
    ("pi/3", math.pi / 3.0),
    ("pi/5", math.pi / 5.0),
    ("pi/7", math.pi / 7.0),
)

# reference rows: (ob1, ob2, ob3, lb1, lb2, lb3, sum), 6 significant figures
TABLE1_REFERENCE = {
    "pi/2": {
        "ob1": 0.234918, "ob2": 0.247658, "ob3": 0.241686,
        "lb1": 0.222065, "lb2": 0.252565, "lb3": 0.252654, "sum": 0.258817,
    },
    "pi/3": {
        "ob1": 0.17968, "ob2": 0.204421, "ob3": 0.20082,
        "lb1": 0.168362, "lb2": 0.208841, "lb3": 0.208534, "sum": 0.211782,
    },
    "pi/5": {
        "ob1": 0.0954994, "ob2": 0.13303, "ob3": 0.132687,
        "lb1": 0.0879256, "lb2": 0.135648, "lb3": 0.135459, "sum": 0.135679,
    },
    "pi/7": {
        "ob1": 0.066361, "ob2": 0.104405, "ob3": 0.104922,
        "lb1": 0.0632504, "lb2": 0.106043, "lb3": 0.106062, "sum": 0.106096,
    },
}

# spot check at q = 0.2, theta = pi/2
Q02_REFERENCE = {
    "ob1": 0.275596, "ob2": 0.2644, "ob3": 0.256419,
    "lb1": 0.260707, "lb2": 0.26726, "lb3": 0.265758, "sum": 0.283955,
}


@dataclass(frozen=True)
class SweepConfig:
    """Grid and model parameters for one theta sweep."""

    theta_start: float
    theta_end: float
    steps: int
    q: float
    params: SkewParams
    bloch_radius: float

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if not self.theta_start < self.theta_end:
            raise ValueError(
                f"need theta_start < theta_end, got [{self.theta_start}, {self.theta_end}]"
            )
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must satisfy 0 <= q < 1, got {self.q}")
        if not 0.0 <= self.bloch_radius <= 1.0:
            raise ValueError(f"bloch_radius must be in [0, 1], got {self.bloch_radius}")

    def grid(self) -> np.ndarray:
        """Closed-interval theta grid including both endpoints."""
        return np.linspace(self.theta_start, self.theta_end, self.steps)


def _planar_vector(theta: float, radius: float) -> tuple[float, float, float]:
    return (radius * math.cos(theta), radius * math.sin(theta), 0.0)


def planar_bloch_state(theta: float, radius: float):
    """Qubit state with Bloch vector radius * (cos(theta), sin(theta), 0)."""
    return bloch_state(_planar_vector(theta, radius))


def planar_bloch_states(thetas, radius: float):
    """``planar_bloch_state`` at every theta, validated as one stack."""
    return bloch_states([_planar_vector(theta, radius) for theta in thetas])


def damping_flip_channels(q: float) -> tuple[KrausChannel, KrausChannel, KrausChannel]:
    """The three benchmark channels at a common damping rate q."""
    return amplitude_damping(q), phase_damping(q), bit_flip(q)


def eighth_turn_unitaries(printed_u3: bool = False) -> tuple[UnitaryOp, UnitaryOp, UnitaryOp]:
    """The three benchmark rotations exp(i pi s_j / 8), j = 1, 2, 3.

    With ``printed_u3`` the third is replaced by diag(e^{i pi/8}, -e^{i pi/8}),
    an alternative form sometimes quoted for this configuration (it negates
    the lower diagonal entry instead of conjugating it).
    """
    u1 = pauli_rotation(1, math.pi / 8.0)
    u2 = pauli_rotation(2, math.pi / 8.0)
    if printed_u3:
        phase = np.exp(1j * math.pi / 8.0)
        u3 = UnitaryOp(np.diag([phase, -phase]))
    else:
        u3 = pauli_rotation(3, math.pi / 8.0)
    return u1, u2, u3


def remixed_kraus(ch: KrausChannel, angle: float = math.pi / 4.0) -> KrausChannel:
    """Equivalent two-operator Kraus set obtained by an orthogonal remix.

    F1 = cos(angle) E1 + sin(angle) E2, F2 = -sin(angle) E1 + cos(angle) E2
    realize the same channel. Since E -> [W, E] T is linear and the remix
    is an isometry, the summed skew information agrees between the two
    sets; the selftest asserts that it does.
    """
    if len(ch.ops) != 2:
        raise ValueError(f"remix needs exactly 2 Kraus operators, got {len(ch.ops)}")
    c, s = math.cos(angle), math.sin(angle)
    e1, e2 = ch.ops
    return KrausChannel(f"{ch.name}_remixed", (c * e1 + s * e2, -s * e1 + c * e2))


def channel_config_report(
    q: float,
    theta: float,
    params: SkewParams = DEFAULT_PARAMS,
    bloch_radius: float = CHANNEL_BLOCH_RADIUS,
    cap: int = DEFAULT_TUPLE_CAP,
) -> BoundReport:
    """Bound report for the benchmark channels at one (q, theta) point."""
    rho = planar_bloch_state(theta, bloch_radius)
    return channel_bound_report(rho, damping_flip_channels(q), params, cap=cap)


def _abort_on_violations(kind: str, theta: float, violations: list[str]) -> None:
    if violations:
        detail = "; ".join(violations)
        raise RuntimeError(f"{kind} sweep soundness violation at theta={theta!r}: {detail}")


def _checked_rows(kind: str, thetas, reports) -> list:
    """(theta, report) rows; raises at the first theta whose report is unsound."""
    out = []
    for theta, report in zip(thetas, reports):
        _abort_on_violations(kind, theta, report.soundness_violations())
        out.append((float(theta), report))
    return out


def channel_sweep(
    cfg: SweepConfig, cap: int = DEFAULT_TUPLE_CAP
) -> list[tuple[float, BoundReport]]:
    """Bound reports over the theta grid, from one search; every row is soundness-checked."""
    thetas = cfg.grid()
    states = planar_bloch_states(thetas, cfg.bloch_radius)
    reports = channel_bound_reports(states, damping_flip_channels(cfg.q), cfg.params, cap=cap)
    return _checked_rows("channel", thetas, reports)


def unitary_sweep(
    cfg: SweepConfig, printed_u3: bool = False
) -> list[tuple[float, UnitaryBoundReport]]:
    """Unitary bound reports over the theta grid, from one search, soundness-checked."""
    thetas = cfg.grid()
    states = planar_bloch_states(thetas, cfg.bloch_radius)
    reports = unitary_bound_reports(states, eighth_turn_unitaries(printed_u3), cfg.params)
    return _checked_rows("unitary", thetas, reports)


def lb3_tightest_fraction(rows: Sequence[tuple[float, UnitaryBoundReport]]) -> float:
    """Fraction of grid points where lb3 >= max(lb1, lb2)."""
    hits = 0
    for _, rep in rows:
        others = [v for v in (rep.lb1, rep.lb2) if v is not None]
        if rep.lb3 >= max(others):
            hits += 1
    return hits / len(rows)


def table1_reports(cap: int = DEFAULT_TUPLE_CAP) -> list[tuple[str, BoundReport]]:
    """The four benchmark rows at q = 0.4, from one search."""
    states = planar_bloch_states([theta for _, theta in TABLE1_THETAS], CHANNEL_BLOCH_RADIUS)
    reports = channel_bound_reports(
        states, damping_flip_channels(TABLE1_Q), DEFAULT_PARAMS, cap=cap
    )
    return [(label, report) for (label, _), report in zip(TABLE1_THETAS, reports)]


def compare_report(
    report: BoundReport, expected: dict[str, float], tol: float = REFERENCE_TOL
) -> list[str]:
    """Mismatch descriptions between a report and reference values."""
    out = []
    for column, want in expected.items():
        got = getattr(report, column)
        if got is None or abs(got - want) > tol:
            out.append(f"{column}: got {got!r}, expected {want} (tol {tol})")
    return out


def format_csv(columns: Sequence[str], rows: Sequence[Sequence[float | None]]) -> str:
    """Deterministic CSV: header, comma-separated, 9 significant digits."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if v is None else f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


def channel_rows_to_csv(rows: Sequence[tuple[float, BoundReport]]) -> str:
    data = [
        (theta, rep.sum, rep.ob1, rep.ob2, rep.ob3, rep.lb1, rep.lb2, rep.lb3)
        for theta, rep in rows
    ]
    return format_csv(CHANNEL_CSV_COLUMNS, data)


def unitary_rows_to_csv(rows: Sequence[tuple[float, UnitaryBoundReport]]) -> str:
    data = [(theta, rep.sum, rep.lb1, rep.lb2, rep.lb3) for theta, rep in rows]
    return format_csv(UNITARY_CSV_COLUMNS, data)


def phase_damping_demo_values(
    q: float = 0.4, theta: float = math.pi / 2.0
) -> tuple[float, float]:
    """Channel skew information for phase damping vs an equivalent Kraus remix.

    Both Kraus sets realize the same map, and the two values agree up to
    rounding: the channel skew information sum_i K(E_i) does not change
    under an orthogonal remix of the Kraus set (see ``remixed_kraus``).
    The bounds, which pair Kraus operators across channels, can change.
    """
    rho = planar_bloch_state(theta, CHANNEL_BLOCH_RADIUS)
    ch = phase_damping(q)
    return (
        skew_info_channel(rho, ch, DEFAULT_PARAMS),
        skew_info_channel(rho, remixed_kraus(ch), DEFAULT_PARAMS),
    )


# --- seeded random configurations for self-checks ---------------------------


def random_qubit_state(rng: np.random.Generator):
    """Full-rank qubit state with Bloch radius below 0.95."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return bloch_state(0.95 * rng.random() * direction)


def random_params(rng: np.random.Generator) -> SkewParams:
    alpha = rng.random()
    return SkewParams(alpha=alpha, beta=rng.random() * (1.0 - alpha), gamma=rng.random())


def random_unitary(rng: np.random.Generator, dim: int = 2) -> UnitaryOp:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return UnitaryOp(q * (d / np.abs(d)))
