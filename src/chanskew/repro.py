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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .bounds import BoundColumns, BoundReport, channel_bound_columns, unitary_bound_columns
from .quantum import (
    KrausChannel,
    UnitaryOp,
    amplitude_damping,
    bit_flip,
    bloch_spectra,
    bloch_state,
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
        span = self.theta_end - self.theta_start  # inf or NaN unless both ends are finite
        if not math.isfinite(span):
            raise ValueError(
                f"theta_start, theta_end and their span must be finite, "
                f"got [{self.theta_start}, {self.theta_end}] (span {span})"
            )
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


def _planar_vectors(thetas, radius: float) -> np.ndarray:
    """(S, 3) Bloch vectors radius * (cos(theta), sin(theta), 0), by math.cos and math.sin."""
    t = np.asarray(thetas, dtype=np.float64).tolist()
    cos, sin = (radius * np.array(list(map(f, t)), dtype=np.float64) for f in (math.cos, math.sin))
    return np.column_stack((cos, sin, np.zeros(len(t))))


def planar_bloch_state(theta: float, radius: float):
    """Qubit state with Bloch vector radius * (cos(theta), sin(theta), 0)."""
    return bloch_state(_planar_vectors([theta], radius)[0])


def damping_flip_channels(q: float) -> tuple[KrausChannel, KrausChannel, KrausChannel]:
    """The three benchmark channels at a common damping rate q."""
    return amplitude_damping(q), phase_damping(q), bit_flip(q)


def eighth_turn_unitaries(printed_u3: bool = False) -> tuple[UnitaryOp, UnitaryOp, UnitaryOp]:
    """The three benchmark rotations exp(i pi s_j / 8), j = 1, 2, 3.

    With ``printed_u3`` the third is diag(e^{i pi/8}, -e^{i pi/8}), a form
    sometimes quoted (it negates the lower entry instead of conjugating it).
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
    realize the same channel. E -> [W, E] T is linear and the remix an
    isometry, so the summed skew information agrees (the selftest checks).
    """
    if len(ch.ops) != 2:
        raise ValueError(f"remix needs exactly 2 Kraus operators, got {len(ch.ops)}")
    c, s = math.cos(angle), math.sin(angle)
    e1, e2 = ch.ops
    return KrausChannel(f"{ch.name}_remixed", (c * e1 + s * e2, -s * e1 + c * e2))


@dataclass(frozen=True, eq=False)
class Sweep(Sequence):
    """A theta sweep's grid and the columns of its one search.

    Its rows are (theta, report), each report built when it is read; the
    CSV and lb3_tightest_fraction read the arrays.
    """

    thetas: np.ndarray
    columns: BoundColumns

    def __len__(self) -> int:
        return len(self.thetas)

    def __getitem__(self, k: int):
        k = range(len(self))[k]
        return float(self.thetas[k]), self.columns.report(k)


def _sweep(kind: str, cfg: SweepConfig, search, ops) -> Sweep:
    """search(spectra, ops, cfg.params) over cfg's grid; raises at the first unsound theta."""
    thetas = cfg.grid()
    columns = search(bloch_spectra(_planar_vectors(thetas, cfg.bloch_radius)), ops, cfg.params)
    bad = columns.first_unsound()
    if bad is not None:
        detail = "; ".join(columns.report(bad).soundness_violations())
        raise RuntimeError(f"{kind} sweep soundness violation at theta={thetas[bad]!r}: {detail}")
    return Sweep(thetas, columns)


def channel_sweep(cfg: SweepConfig) -> Sweep:
    """Channel bounds over the theta grid, from one search; every row is soundness-checked."""
    return _sweep("channel", cfg, channel_bound_columns, damping_flip_channels(cfg.q))


def unitary_sweep(cfg: SweepConfig, printed_u3: bool = False) -> Sweep:
    """Unitary bounds over the theta grid, from one search, soundness-checked."""
    return _sweep("unitary", cfg, unitary_bound_columns, eighth_turn_unitaries(printed_u3))


def lb3_tightest_fraction(rows: Sweep) -> float:
    """Fraction of grid points where lb3 >= max(lb1, lb2)."""
    v = rows.columns.values
    others = np.maximum(v["lb1"], v["lb2"]) if "lb1" in v else v["lb2"]
    return int(np.count_nonzero(v["lb3"] >= others)) / len(rows)


def table1_reports() -> list[tuple[str, BoundReport]]:
    """The four benchmark rows at q = 0.4, from one search."""
    spectra = bloch_spectra(_planar_vectors([t for _, t in TABLE1_THETAS], CHANNEL_BLOCH_RADIUS))
    columns = channel_bound_columns(spectra, damping_flip_channels(TABLE1_Q), DEFAULT_PARAMS)
    return [(label, report) for (label, _), report in zip(TABLE1_THETAS, columns.reports())]


def compare_report(report: BoundReport, expected: dict[str, float]) -> list[str]:
    """Mismatch descriptions between a report and reference values, within REFERENCE_TOL."""
    out = []
    for column, want in expected.items():
        got = getattr(report, column)
        if got is None or abs(got - want) > REFERENCE_TOL:
            out.append(f"{column}: got {got!r}, expected {want} (tol {REFERENCE_TOL})")
    return out


def format_csv(columns: Sequence[str], rows: Iterable[Sequence[float | None]]) -> str:
    """Deterministic CSV: header, comma-separated, 9 significant digits.

    A row is one str.format call on a template with a "{i:.9g}" field per
    number and nothing where it holds None, so a cell reads as f"{v:.9g}".
    """
    templates: dict[tuple[bool, ...], str] = {}
    lines = [",".join(columns)]
    for row in rows:
        blank = tuple(v is None for v in row) if None in row else (False,) * len(row)
        if blank not in templates:
            templates[blank] = ",".join("" if b else f"{{{i}:.9g}}" for i, b in enumerate(blank))
        lines.append(templates[blank].format(*row))
    return "\n".join(lines) + "\n"


def _sweep_csv(header: Sequence[str], rows: Sweep) -> str:
    """format_csv of a sweep's columns; a bound N does not allow is an empty column."""
    values = rows.columns.values
    cells = [rows.thetas.tolist(), rows.columns.sum.tolist()] + [
        values[name].tolist() if name in values else [None] * len(rows) for name in header[2:]
    ]
    return format_csv(header, zip(*cells))


def channel_rows_to_csv(rows: Sweep) -> str:
    return _sweep_csv(CHANNEL_CSV_COLUMNS, rows)


def unitary_rows_to_csv(rows: Sweep) -> str:
    return _sweep_csv(UNITARY_CSV_COLUMNS, rows)


def phase_damping_demo_values() -> tuple[float, float]:
    """Phase damping's skew information vs an equivalent Kraus remix, at table1's q and pi/2.

    The two values agree up to rounding: sum_i K(E_i) does not change under
    an orthogonal remix of the Kraus set (``remixed_kraus``). The bounds,
    which pair Kraus operators across channels, can change.
    """
    rho = planar_bloch_state(math.pi / 2.0, CHANNEL_BLOCH_RADIUS)
    ch = phase_damping(TABLE1_Q)
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
