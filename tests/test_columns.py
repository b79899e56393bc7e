"""The column results of a stacked search against lone reports.

Equality is exact (==). Every stack here is of qubits: at d = 2 a stacked
K rounds as the lone K does on every OpenBLAS kernel measured (ROADMAP
item 1), so these checks do not depend on the BLAS kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanskew import bounds, repro
from chanskew.bounds import (
    SOUNDNESS_TOL,
    BoundColumns,
    BoundReport,
    UnitaryBoundReport,
    channel_bound_columns,
    channel_bound_report,
    unitary_bound_columns,
    unitary_bound_report,
)
from chanskew.cmatrix import EigenDecomposition
from chanskew.quantum import KrausChannel, bloch_spectra, bloch_state
from chanskew.skewinfo import skew_with_cache, weighted_ops

from support import random_channel, random_params, random_unitary


def random_bloch_vectors(rng, count):
    direction = rng.normal(size=(count, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * rng.random((count, 1))


def assert_columns_are_lone_reports(columns, reports):
    """Each column entry equals the lone report's field, read off the arrays."""
    assert len(columns) == len(reports)
    for k, want in enumerate(reports):
        assert columns.sum[k] == want.sum, k
        names = want.argmax if isinstance(want, BoundReport) else ("lb1", "lb2", "lb3")
        for name in names:
            if getattr(want, name) is None:
                assert name not in columns.values, (k, name)
                continue
            assert columns.values[name][k] == getattr(want, name), (k, name)
        if isinstance(want, BoundReport):
            assert set(columns.values) == set(want.argmax)
            for name, argmax in want.argmax.items():
                assert columns.tuples[columns.winner[name][k]] == argmax.perms, (k, name)
                x = int(columns.x[name][k]) if name in columns.x else None
                assert x == argmax.x, (k, name)
        else:
            assert columns.x["lb3"][k] == want.argmax_x, k
        assert columns.report(k) == want, k
    assert len(set(columns.tuples)) == len(columns.tuples)  # each winner decoded once


CHANNEL_CASES = [
    # (Kraus counts, sign variant): N = 2 without lb1/ob1, zero padding,
    # and N n = 12 and 15 Kraus terms, where np.sum no longer adds in order
    ((2, 2), 1),
    ((3, 1), None),
    ((2, 2, 2), 1),
    ((3, 3, 2, 1), 0),
    ((3, 3, 3, 3), None),
    ((3, 2, 3, 1, 2), 1),
]


@pytest.mark.parametrize("chunk", [None, 7, 40])
@pytest.mark.parametrize("counts,sign_variant", CHANNEL_CASES)
def test_channel_columns_equal_lone_reports(monkeypatch, chunk, counts, sign_variant):
    # a chunk of 7 or 40 splits the stack into groups of one or a few states
    if chunk is not None:
        monkeypatch.setattr(bounds, "SEARCH_CHUNK", chunk)
    rng = np.random.default_rng(sum(counts) * 31 + len(counts))
    channels = [random_channel(rng, 2, c, name=f"ch{t}") for t, c in enumerate(counts)]
    params = random_params(rng)
    vectors = random_bloch_vectors(rng, 9)
    columns = channel_bound_columns(bloch_spectra(vectors), channels, params, sign_variant=sign_variant)
    reports = [channel_bound_report(bloch_state(r), channels, params, sign_variant=sign_variant)
               for r in vectors]
    assert_columns_are_lone_reports(columns, reports)
    if len(counts) == 2:
        assert "lb1" not in columns.values and "ob1" not in columns.values


def test_sum_adds_the_kraus_terms_in_order():
    # N = 4 channels of 3 Kraus operators: 12 terms, which np.sum adds in
    # pairs; the column sum must be Python's sum of the lone K values
    rng = np.random.default_rng(3)
    channels = [random_channel(rng, 2, 3) for _ in range(4)]
    params = random_params(rng)
    vectors = random_bloch_vectors(rng, 64)
    columns = channel_bound_columns(bloch_spectra(vectors), channels, params)
    pairwise_differs = 0
    for k, r in enumerate(vectors):
        cache = weighted_ops(bloch_state(r).spectrum, params)
        terms = [skew_with_cache(cache, op) for ch in channels for op in ch.ops]
        assert columns.sum[k] == sum(terms), k
        alone = channel_bound_columns(bloch_spectra(vectors[k : k + 1]), channels, params)
        assert alone.sum[0] == sum(terms), k
        pairwise_differs += float(np.sum(terms)) != sum(terms)
    assert pairwise_differs > 0  # the stack can tell the two orders apart


@pytest.mark.parametrize("chunk", [None, 3])
def test_all_tie_stack_keeps_the_identity_tuple(monkeypatch, rng, chunk):
    # identical Kraus operators and identical states: every tuple of every
    # state scores the same, so each argmax stays on the first tuple
    if chunk is not None:
        monkeypatch.setattr(bounds, "SEARCH_CHUNK", chunk)
    u = random_unitary(rng).mat
    channel = KrausChannel("flat", tuple(u / math.sqrt(3) for _ in range(3)))
    params = random_params(rng)
    vectors = np.repeat(random_bloch_vectors(rng, 1), 6, axis=0)
    columns = channel_bound_columns(bloch_spectra(vectors), [channel] * 3, params, sign_variant=None)
    lone = channel_bound_report(bloch_state(vectors[0]), [channel] * 3, params, sign_variant=None)
    assert_columns_are_lone_reports(columns, [lone] * 6)
    assert columns.tuples == [((0, 1, 2),) * 3]


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("count", [2, 3, 5])
def test_unitary_columns_equal_lone_reports(monkeypatch, rng, chunk, count):
    if chunk is not None:
        monkeypatch.setattr(bounds, "SEARCH_CHUNK", chunk)
    unitaries = [random_unitary(rng) for _ in range(count)]
    params = random_params(rng)
    vectors = random_bloch_vectors(rng, 11)
    columns = unitary_bound_columns(bloch_spectra(vectors), unitaries, params)
    assert columns.report_type is UnitaryBoundReport
    assert_columns_are_lone_reports(
        columns, [unitary_bound_report(bloch_state(r), unitaries, params) for r in vectors]
    )


def test_spectrum_that_does_not_fit_the_operators_is_rejected(rng):
    spectra = bloch_spectra(random_bloch_vectors(rng, 3))
    channels = repro.damping_flip_channels(0.3)
    wrong_dim = EigenDecomposition(np.ones((3, 3)) / 3, np.tile(np.eye(3, dtype=complex), (3, 1, 1)))
    for bad in (wrong_dim, EigenDecomposition(spectra.eigenvalues[:2], spectra.eigenvectors)):
        with pytest.raises(ValueError, match="do not fit operators of dim 2"):
            channel_bound_columns(bad, channels, repro.DEFAULT_PARAMS)


def test_empty_spectrum_gives_empty_columns():
    empty = EigenDecomposition(np.zeros((0, 2)), np.zeros((0, 2, 2), dtype=complex))
    columns = channel_bound_columns(empty, repro.damping_flip_channels(0.3), repro.DEFAULT_PARAMS)
    assert len(columns) == 0 and columns.reports() == [] and columns.first_unsound() is None


# --- the soundness check on arrays --------------------------------------------


def one_state_columns(report_type, total, **values):
    """Columns of one state with the given sum and bound values."""
    names = [name for name in ("lb1", "ob1", "lb2", "ob2", "lb3", "ob3") if name in values]
    return BoundColumns(
        report_type=report_type,
        sum=np.array([total]),
        values={name: np.array([values[name]]) for name in names},
        winner={name: np.array([0]) for name in names},
        x={name: np.array([1]) for name in ("lb3", "ob3") if name in values},
        tuples=[((0, 1), (1, 0))],
    )


def edge_rows():
    """Bound values at sum + tol, one ulp above it, and at ob - tol and one ulp below."""
    total = 0.3
    at = total + SOUNDNESS_TOL
    above = np.nextafter(at, math.inf)
    base = dict(lb1=0.1, ob1=0.1, lb2=0.25, ob2=0.2, lb3=0.25, ob3=0.2)
    rows = [base]
    for name in base:
        rows += [{**base, name: at}, {**base, name: above}]
    for lb, ob in (("lb2", "ob2"), ("lb3", "ob3")):
        low = base[ob] - SOUNDNESS_TOL
        rows += [{**base, lb: low}, {**base, lb: np.nextafter(low, -math.inf)}]
    rows.append({**base, "lb1": None, "ob1": None})
    rows.append({**base, "lb2": above, "ob3": 0.3})
    return total, rows


@pytest.mark.parametrize("report_type", [BoundReport, UnitaryBoundReport])
def test_array_soundness_check_equals_soundness_violations(report_type):
    total, rows = edge_rows()
    flags = []
    for row in rows:
        values = {name: float(v) for name, v in row.items() if v is not None}
        if report_type is UnitaryBoundReport:
            values = {name: v for name, v in values.items() if name.startswith("lb")}
        columns = one_state_columns(report_type, total, **values)
        report = columns.report(0)
        unsound = bool(report.soundness_violations())
        assert (columns.first_unsound() == 0) == unsound, row
        flags.append(unsound)
    assert True in flags and False in flags
    # stacks of the rows with every value: the first unsound state is the
    # first flagged row
    full = [(row, flag) for row, flag in zip(rows, flags) if None not in row.values()]
    names = [name for name in full[0][0] if report_type is BoundReport or name.startswith("lb")]
    for start in range(len(full)):
        part = full[start:]
        columns = BoundColumns(
            report_type=report_type,
            sum=np.full(len(part), total),
            values={name: np.array([row[name] for row, _ in part]) for name in names},
            winner={name: np.zeros(len(part), dtype=np.intp) for name in names},
            x={name: np.ones(len(part), dtype=np.intp) for name in ("lb3", "ob3")},
            tuples=[((0, 1), (1, 0))],
        )
        first = next((k for k, (_, flag) in enumerate(part) if flag), None)
        assert columns.first_unsound() == first, start


def test_sweep_raises_the_lone_reports_text(monkeypatch):
    # the array check finds the first unsound theta; its message is the one
    # the lone report of that theta gives
    cfg = repro.SweepConfig(0.0, math.pi, 7, 0.3, repro.DEFAULT_PARAMS, repro.CHANNEL_BLOCH_RADIUS)
    search = repro.channel_bound_columns

    def unsound_at_3_and_5(spectra, *args, **kwargs):
        columns = search(spectra, *args, **kwargs)
        ob3 = columns.values["ob3"].copy()
        ob3[[3, 5]] = columns.values["lb3"][[3, 5]] + 1e-6
        return BoundColumns(**{**vars(columns), "values": {**columns.values, "ob3": ob3}})

    monkeypatch.setattr(repro, "channel_bound_columns", unsound_at_3_and_5)
    with pytest.raises(RuntimeError) as err:
        repro.channel_sweep(cfg)
    theta = cfg.grid()[3]
    lone = channel_bound_report(
        repro.planar_bloch_state(theta, cfg.bloch_radius), repro.damping_flip_channels(0.3),
        cfg.params,
    )
    lone = BoundReport(**{**vars(lone), "ob3": lone.lb3 + 1e-6})
    detail = "; ".join(lone.soundness_violations())
    assert "lb3 = " in detail and " below ob3 = " in detail
    assert str(err.value) == f"channel sweep soundness violation at theta={theta!r}: {detail}"


# --- the sweep as a sequence, and its CSV --------------------------------------


def test_sweep_rows_are_lone_reports():
    cfg = repro.SweepConfig(0.0, math.pi, 9, 0.4, repro.DEFAULT_PARAMS, repro.CHANNEL_BLOCH_RADIUS)
    sweep = repro.channel_sweep(cfg)
    channels = repro.damping_flip_channels(cfg.q)
    want = [
        (float(theta), channel_bound_report(repro.planar_bloch_state(theta, cfg.bloch_radius),
                                            channels, cfg.params))
        for theta in cfg.grid()
    ]
    assert len(sweep) == 9 and list(sweep) == want
    assert sweep[-1] == want[-1] and sweep[4] == want[4]
    with pytest.raises(IndexError):
        sweep[9]
    rows = [(theta, r.sum, r.ob1, r.ob2, r.ob3, r.lb1, r.lb2, r.lb3) for theta, r in want]
    assert repro.channel_rows_to_csv(sweep) == repro.format_csv(repro.CHANNEL_CSV_COLUMNS, rows)


def test_unitary_sweep_csv_and_fraction_read_the_columns():
    cfg = repro.SweepConfig(0.0, math.pi, 13, 0.0, repro.DEFAULT_PARAMS, repro.UNITARY_BLOCH_RADIUS)
    for printed in (False, True):
        sweep = repro.unitary_sweep(cfg, printed_u3=printed)
        rows = [(theta, r.sum, r.lb1, r.lb2, r.lb3) for theta, r in sweep]
        assert repro.unitary_rows_to_csv(sweep) == repro.format_csv(repro.UNITARY_CSV_COLUMNS, rows)
        hits = sum(r.lb3 >= max(r.lb1, r.lb2) for _, r in sweep)
        assert repro.lb3_tightest_fraction(sweep) == hits / len(sweep)


def test_two_channel_sweep_csv_leaves_lb1_and_ob1_empty(rng):
    # the paper's sweeps have N = 3; a sweep of N = 2 columns has no lb1/ob1
    thetas = np.linspace(0.0, math.pi, 5)
    spectra = bloch_spectra(repro._planar_vectors(thetas, 0.5))
    channels = repro.damping_flip_channels(0.3)[:2]
    sweep = repro.Sweep(thetas, channel_bound_columns(spectra, channels, repro.DEFAULT_PARAMS))
    rows = [(theta, r.sum, r.ob1, r.ob2, r.ob3, r.lb1, r.lb2, r.lb3) for theta, r in sweep]
    assert all(r[2] is None and r[5] is None for r in rows)
    csv = repro.channel_rows_to_csv(sweep)
    assert csv == repro.format_csv(repro.CHANNEL_CSV_COLUMNS, rows)
    assert all(line.split(",")[2] == line.split(",")[5] == "" for line in csv.splitlines()[1:])


def per_cell_csv(columns, rows):
    """format_csv as one f-string per cell."""
    lines = [",".join(columns)]
    lines += [",".join("" if v is None else f"{v:.9g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-5, 9.99999999e-5, 1e-4, 1.00000001e-4, 0.1, 1.0 / 3.0,
    1e15, 1e16, 123456789.5, 987654321.0, -2.5, math.inf, -math.inf, math.nan,
    np.float64(0.25), np.float64(-0.0), 7,
]


def test_format_csv_equals_per_cell_formatting():
    rng = np.random.default_rng(5)
    rows = [EDGE_VALUES[k : k + 5] for k in range(0, len(EDGE_VALUES), 5)]
    for _ in range(200):
        width = int(rng.integers(1, 9))
        row = [EDGE_VALUES[int(i)] for i in rng.integers(0, len(EDGE_VALUES), size=width)]
        for j in np.flatnonzero(rng.random(width) < 0.3):
            row[j] = None  # None in varying positions, all-None rows included
        rows.append(tuple(row))
    rows += [(), (None,), (None, None, None)]
    header = tuple(f"c{j}" for j in range(8))
    assert repro.format_csv(header, rows) == per_cell_csv(header, rows)
    assert repro.format_csv(header, iter(rows)) == per_cell_csv(header, rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.none() | st.floats(allow_nan=True, allow_infinity=True), max_size=8)))
def test_format_csv_property(rows):
    assert repro.format_csv(("a", "b"), rows) == per_cell_csv(("a", "b"), rows)
