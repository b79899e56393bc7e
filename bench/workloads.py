"""The benchmark's workloads: set-up, one pass of ops, and output checks.

A workload is set up once per process and then run pass after pass. Every
pass is the same fixed amount of work, so counts taken per pass repeat
exactly. ``search`` and ``highdim`` draw their states, channels, unitaries
and parameters from the generators in ``tests/support.py``, seeded by the
workload seed; the library only ever receives the generated arrays.
``paper`` and ``cli`` run the paper's fixed configurations, so the seed
does not change their inputs.

Import this module only after the thread-count variables are set: it
imports numpy.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import support  # noqa: E402  (tests/support.py)
from chanskew import bounds, quantum, repro  # noqa: E402

# |report.sum - numpy.linalg.eigh oracle| allowed on search and highdim
SUM_TOL = 1e-10

# search: (dimension, Kraus counts per channel). The (3,3,2,1) shape is
# zero-padded to 3 operators, which makes half of its tuples duplicates.
SEARCH_SHAPES = ((4, (3, 3, 3, 3)), (4, (3, 3, 2, 1)), (8, (4, 4, 4)))
SEARCH_ROUNDS = 4

# highdim: states of the largest dimension the package targets
HIGHDIM_DIM = 16
HIGHDIM_STATES = 32

CLI_BLOCH = "0,0.8660254037844386,0"
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Op:
    """One timed call into the program and the check of what it returned."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    tuples: int = 0  # permutation tuples enumerated, (n!)^(N-1) per channel report
    distinct_tuples: int = 0  # of those, tuples that stay distinct under zero padding


@dataclass
class Workload:
    ops: list[Op]  # one pass
    cleanup: Callable[[], None] = lambda: None


def child_env() -> dict[str, str]:
    """Environment of child interpreters: this one's, with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@functools.lru_cache(maxsize=None)
def tuple_counts(kraus_counts: tuple[int, ...]) -> tuple[int, int]:
    """(enumerated, distinct) permutation tuples for channels of these sizes.

    Zero operators pad every channel to the largest count. Two tuples that
    place the same operators at every Kraus index give the same bound
    values; permuting only a channel's zero operators does exactly that.
    """
    n, big_n = max(kraus_counts), len(kraus_counts)
    enumerated = math.factorial(n) ** (big_n - 1)
    labels = [[k if k < count else -1 for k in range(n)] for count in kraus_counts]
    distinct = {
        tuple(tuple(labels[t][p[i]] for t, p in enumerate(perms)) for i in range(n))
        for perms in bounds.enumerate_tuples(n, big_n, cap=enumerated)
    }
    return enumerated, len(distinct)


# --- paper ------------------------------------------------------------------

TABLE1_COLUMNS = ("ob1", "ob2", "ob3", "lb1", "lb2", "lb3", "sum")


def _table1_csv(rows) -> str:
    """The grid CSV that ``chanskew table1 --out`` writes."""
    data = [
        [theta] + [getattr(rep, c) for c in TABLE1_COLUMNS]
        for (_, rep), (_, theta) in zip(rows, repro.TABLE1_THETAS)
    ]
    return repro.format_csv(("theta",) + TABLE1_COLUMNS, data)


def _paper(expected: dict[str, str]) -> Workload:
    """Every paper output in one op: table1 and the four 181-point sweeps."""

    def sweep_config(q: float, radius: float) -> repro.SweepConfig:
        return repro.SweepConfig(
            0.0, math.pi, repro.DEFAULT_SWEEP_STEPS, q, repro.DEFAULT_PARAMS, radius
        )

    channel_cfgs = {
        f"sweep_q{q}": sweep_config(q, repro.CHANNEL_BLOCH_RADIUS) for q in (0.4, 0.9)
    }
    unitary_cfg = sweep_config(0.0, repro.UNITARY_BLOCH_RADIUS)

    def run():
        table = repro.table1_reports()
        csv = {"table1": _table1_csv(table)}
        for key, cfg in channel_cfgs.items():
            csv[key] = repro.channel_rows_to_csv(repro.channel_sweep(cfg))
        for key, printed in (("unitary_sweep", False), ("unitary_sweep_printed_u3", True)):
            rows = repro.unitary_sweep(unitary_cfg, printed_u3=printed)
            csv[key] = repro.unitary_rows_to_csv(rows)
        return table, csv

    def check(out) -> list[str]:
        table, csv = out
        failures = [
            f"{key}: CSV digest differs from the reference"
            for key in expected
            if digest(csv.get(key, "")) != expected[key]
        ]
        for label, report in table:
            failures += [
                f"table1 {label}: {m}"
                for m in repro.compare_report(report, repro.TABLE1_REFERENCE[label])
            ]
            failures += [f"table1 {label}: {v}" for v in report.soundness_violations()]
        return failures

    channel_reports = len(repro.TABLE1_THETAS) + len(channel_cfgs) * repro.DEFAULT_SWEEP_STEPS
    per_report = tuple_counts((2, 2, 2))
    op = Op(
        "paper outputs",
        run,
        check,
        tuples=channel_reports * per_report[0],
        distinct_tuples=channel_reports * per_report[1],
    )
    return Workload([op])


# --- search and highdim -----------------------------------------------------


def _oracle_sum(rho: np.ndarray, mats, params) -> float:
    return sum(
        support.direct_skew(rho, m, params.alpha, params.beta, params.gamma) for m in mats
    )


def _report_check(expected_sum: float):
    def check(report) -> list[str]:
        failures = list(report.soundness_violations())
        if not abs(report.sum - expected_sum) <= SUM_TOL:
            failures.append(
                f"sum = {report.sum!r}, numpy.linalg.eigh oracle gives {expected_sum!r}"
            )
        return failures

    return check


def _channel_op(label: str, rho: np.ndarray, kraus, params) -> Op:
    def run():
        channels = [quantum.KrausChannel(f"ch{t}", ops) for t, ops in enumerate(kraus)]
        return bounds.channel_bound_report(quantum.DensityMatrix(rho), channels, params)

    enumerated, distinct = tuple_counts(tuple(len(ops) for ops in kraus))
    expected = _oracle_sum(rho, [op for ops in kraus for op in ops], params)
    return Op(label, run, _report_check(expected), enumerated, distinct)


def _unitary_op(label: str, rho: np.ndarray, mats, params) -> Op:
    def run():
        unitaries = [quantum.UnitaryOp(m) for m in mats]
        return bounds.unitary_bound_report(quantum.DensityMatrix(rho), unitaries, params)

    return Op(label, run, _report_check(_oracle_sum(rho, mats, params)))


def _search(seed: int) -> Workload:
    """Channel reports whose cost is the permutation search."""
    rng = np.random.default_rng(seed)
    ops = []
    for r in range(SEARCH_ROUNDS):
        for dim, counts in SEARCH_SHAPES:
            rho = support.random_density(rng, dim).mat
            kraus = [support.random_channel(rng, dim, n).ops for n in counts]
            params = support.random_params(rng)
            ops.append(_channel_op(f"search {r} d={dim} kraus={counts}", rho, kraus, params))
    return Workload(ops)


def _highdim(seed: int) -> Workload:
    """One channel and one unitary report per d=16 state: eigensolver-bound."""
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(HIGHDIM_STATES):
        rho = support.random_density(rng, HIGHDIM_DIM).mat
        kraus = [support.random_channel(rng, HIGHDIM_DIM, 2).ops for _ in range(3)]
        mats = [support.random_unitary(rng, HIGHDIM_DIM).mat for _ in range(3)]
        params = support.random_params(rng)
        ops.append(_channel_op(f"highdim {k} channels", rho, kraus, params))
        ops.append(_unitary_op(f"highdim {k} unitaries", rho, mats, params))
    return Workload(ops)


# --- cli --------------------------------------------------------------------


def _channel_json(ch) -> dict:
    return {
        "name": ch.name,
        "kraus": [[[[z.real, z.imag] for z in row] for row in op] for op in ch.ops],
    }


def _run_child(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "chanskew.cli", *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def _run_in_process(argv: list[str]) -> tuple[int, bytes]:
    from chanskew import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def _cli(expected: dict[str, str], in_process: bool) -> Workload:
    """Paper commands through the CLI: one child interpreter per command, or
    ``chanskew.cli.main`` in-process (the traced run)."""
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
    paths = []
    for ch in repro.damping_flip_channels(repro.TABLE1_Q):
        path = tmp / f"{ch.name}.json"
        path.write_text(json.dumps(_channel_json(ch)))
        paths.append(str(path))
    commands = {
        "table1": (["table1"], len(repro.TABLE1_THETAS)),
        "unitary-sweep": (["unitary-sweep"], 0),
        "bounds": (["bounds", "--bloch", CLI_BLOCH, *paths], 1),
    }
    invoke = _run_in_process if in_process else _run_child
    per_report = tuple_counts((2, 2, 2))

    def make_op(key: str, argv: list[str], channel_reports: int) -> Op:
        def check(out) -> list[str]:
            code, stdout = out
            failures = [f"exit code {code}"] if code != 0 else []
            if digest(stdout) != expected[key]:
                failures.append("stdout digest differs from the reference")
            return failures

        return Op(
            f"cli {key}",
            lambda: invoke(argv),
            check,
            channel_reports * per_report[0],
            channel_reports * per_report[1],
        )

    ops = [make_op(key, argv, reports) for key, (argv, reports) in commands.items()]
    return Workload(ops, cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True))


def build(name: str, seed: int, reference: dict, in_process_cli: bool = False) -> Workload:
    """Set up one workload: its seeded inputs and the outputs it must match."""
    if name == "paper":
        return _paper(reference["paper_csv_sha256"])
    if name == "search":
        return _search(seed)
    if name == "highdim":
        return _highdim(seed)
    if name == "cli":
        return _cli(reference["cli_stdout_sha256"], in_process_cli)
    raise ValueError(f"unknown workload {name!r}")
