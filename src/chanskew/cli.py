"""Command-line front end.

Subcommands:

* ``table1``        compare the q = 0.4 benchmark grid against reference values
* ``sweep``         CSV of channel bounds over a theta grid
* ``unitary-sweep`` CSV of unitary bounds over a theta grid
* ``bounds``        JSON bound report for a user-supplied state and channels
* ``selftest``      seeded internal consistency checks

Exit codes: 0 success, 1 failed checks or soundness violations,
2 invalid input or configuration, 3 eigensolver did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    DEFAULT_TUPLE_CAP,
    channel_bound_report,
    tuple_bound_values,
    unitary_bound_report,
)
from .cmatrix import ConvergenceError
from .quantum import bloch_state, channel_from_json, density_matrix_from_json
from .repro import (
    CHANNEL_BLOCH_RADIUS,
    DEFAULT_PARAMS,
    DEFAULT_SWEEP_STEPS,
    Q02_REFERENCE,
    REFERENCE_TOL,
    TABLE1_Q,
    TABLE1_REFERENCE,
    TABLE1_THETAS,
    SweepConfig,
    UNITARY_BLOCH_RADIUS,
    channel_rows_to_csv,
    channel_sweep,
    compare_report,
    damping_flip_channels,
    format_csv,
    lb3_tightest_fraction,
    phase_damping_demo_values,
    planar_bloch_state,
    random_params,
    random_qubit_state,
    random_unitary,
    table1_reports,
    unitary_rows_to_csv,
    unitary_sweep,
)
from .skewinfo import SkewParams, weighted_ops

# |K(standard Kraus set) - K(remixed set)| allowed by the selftest
REMIX_TOL = 1e-12


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.25, help="exponent alpha (default 0.25)")
    parser.add_argument("--beta", type=float, default=None, help="exponent beta (default: 1 - alpha)")
    parser.add_argument("--gamma", type=float, default=0.25, help="mixing weight gamma (default 0.25)")


def _add_grid_flags(parser: argparse.ArgumentParser, radius: float, radius_text: str) -> None:
    parser.add_argument("--theta-start", type=float, default=0.0, help="grid start in radians (default 0)")
    parser.add_argument(
        "--theta-end", type=float, default=math.pi, help="grid end in radians, inclusive (default pi)"
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=DEFAULT_SWEEP_STEPS,
        help=f"number of grid points including both endpoints (default {DEFAULT_SWEEP_STEPS})",
    )
    parser.add_argument(
        "--bloch-radius",
        type=float,
        default=radius,
        help=f"Bloch radius of the planar state (default {radius_text})",
    )


def _params_from(args) -> SkewParams:
    beta = 1.0 - args.alpha if args.beta is None else args.beta
    return SkewParams(alpha=args.alpha, beta=beta, gamma=args.gamma)


def _write_output(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ValueError(f"{out}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanskew",
        description="Skew-information uncertainty bounds for quantum channels and unitaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "table1",
        help="reproduce the q = 0.4 comparison grid and check it against reference values",
    )
    p_table.add_argument("--out", type=str, default=None, help="also write the grid as CSV to this path")

    p_sweep = sub.add_parser("sweep", help="channel-bound CSV over a theta grid")
    p_sweep.add_argument("--q", type=float, default=TABLE1_Q, help=f"damping rate (default {TABLE1_Q})")
    _add_param_flags(p_sweep)
    _add_grid_flags(p_sweep, CHANNEL_BLOCH_RADIUS, "sqrt(3)/2")
    p_sweep.add_argument("--out", type=str, default=None, help="CSV path (default: stdout)")

    p_usweep = sub.add_parser("unitary-sweep", help="unitary-bound CSV over a theta grid")
    _add_param_flags(p_usweep)
    _add_grid_flags(p_usweep, UNITARY_BLOCH_RADIUS, "sqrt(2)/2")
    p_usweep.add_argument(
        "--printed-u3",
        action="store_true",
        help="use the alternative third rotation diag(e^{i pi/8}, -e^{i pi/8}) "
        "instead of exp(i pi s3 / 8)",
    )
    p_usweep.add_argument("--out", type=str, default=None, help="CSV path (default: stdout)")

    p_bounds = sub.add_parser("bounds", help="JSON bound report for a state and channel files")
    state = p_bounds.add_mutually_exclusive_group(required=True)
    state.add_argument("--bloch", type=str, default=None, help="Bloch vector 'r1,r2,r3'")
    state.add_argument("--state", type=str, default=None, help="density-matrix JSON file")
    p_bounds.add_argument("channels", nargs="+", help="channel JSON files ({'name':..., 'kraus':[...]})")
    _add_param_flags(p_bounds)
    p_bounds.add_argument("--cap", type=int, default=DEFAULT_TUPLE_CAP, help="permutation-tuple cap")
    p_bounds.add_argument("--out", type=str, default=None, help="report path (default: stdout)")

    p_self = sub.add_parser("selftest", help="seeded internal consistency checks")
    p_self.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_self.add_argument("--trials", type=int, default=200, help="random trials per property (default 200)")

    return parser


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _parse_bloch(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--bloch expects 'r1,r2,r3', got {text!r}")
    try:
        vec = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"--bloch expects three numbers, got {text!r}") from exc
    return bloch_state(vec)


def cmd_table1(args) -> int:
    rows = table1_reports()
    columns = ("ob1", "ob2", "ob3", "lb1", "lb2", "lb3", "sum")
    print(f"q={TABLE1_Q}, alpha=0.25, beta=0.75, gamma=0.25, bloch radius sqrt(3)/2")
    print(f"{'theta':<12}" + "".join(f"{c:>10}" for c in columns))
    for label, rep in rows:
        print(f"{label:<12}" + "".join(f"{getattr(rep, c):>10.6f}" for c in columns))
    failures = 0
    for label, rep in rows:
        mismatches = compare_report(rep, TABLE1_REFERENCE[label])
        if mismatches:
            failures += len(mismatches)
            for m in mismatches:
                print(f"theta={label}: FAIL {m}")
        else:
            print(f"theta={label}: PASS (7/7 within {REFERENCE_TOL})")
    total = sum(len(v) for v in TABLE1_REFERENCE.values())
    print(f"table1: {total - failures}/{total} reference values matched")
    if args.out is not None:
        data = [
            [theta] + [getattr(rep, c) for c in columns]
            for (_, rep), (_, theta) in zip(rows, TABLE1_THETAS)
        ]
        _write_output(args.out, format_csv(("theta",) + columns, data))
    return 0 if failures == 0 else 1


def _sweep_config(args, q: float) -> SweepConfig:
    grid = (args.theta_start, args.theta_end, args.steps)
    return SweepConfig(*grid, q=q, params=_params_from(args), bloch_radius=args.bloch_radius)


def cmd_sweep(args) -> int:
    rows = channel_sweep(_sweep_config(args, args.q))
    _write_output(args.out, channel_rows_to_csv(rows))
    return 0


def cmd_unitary_sweep(args) -> int:
    rows = unitary_sweep(_sweep_config(args, 0.0), printed_u3=args.printed_u3)
    _write_output(args.out, unitary_rows_to_csv(rows))
    frac = lb3_tightest_fraction(rows)
    print(f"lb3 >= max(lb1, lb2) at {frac:.1%} of {len(rows)} grid points", file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    if args.bloch is not None:
        rho = _parse_bloch(args.bloch)
    else:
        rho = density_matrix_from_json(_load_json(args.state), path=args.state)
    channels = [channel_from_json(_load_json(path), path=path) for path in args.channels]
    params = _params_from(args)
    report = channel_bound_report(rho, channels, params, cap=args.cap)
    payload = {
        "params": {"alpha": params.alpha, "beta": params.beta, "gamma": params.gamma},
        "channels": [ch.name for ch in channels],
        "report": report.to_json_dict(),
    }
    _write_output(args.out, json.dumps(payload, indent=2) + "\n")
    violations = report.soundness_violations()
    for v in violations:
        print(f"soundness violation: {v}", file=sys.stderr)
    return 0 if not violations else 1


def cmd_selftest(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0; got {args.seed}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1; got {args.trials}")
    rng = np.random.default_rng(args.seed)
    ok = True

    def check(label: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        status = "ok" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"selftest {label}: {status}{suffix}")
        ok = ok and passed

    mismatches = []
    for label, rep in table1_reports():
        mismatches += [f"theta={label} {m}" for m in compare_report(rep, TABLE1_REFERENCE[label])]
    check("table1 reference", not mismatches, "; ".join(mismatches))

    spot_state = planar_bloch_state(math.pi / 2.0, CHANNEL_BLOCH_RADIUS)
    spot = channel_bound_report(spot_state, damping_flip_channels(0.2), DEFAULT_PARAMS)
    spot_mismatches = compare_report(spot, Q02_REFERENCE)
    check("q=0.2 spot check", not spot_mismatches, "; ".join(spot_mismatches))

    bad = 0
    for _ in range(args.trials):
        rho = random_qubit_state(rng)
        report = channel_bound_report(rho, damping_flip_channels(rng.random()), random_params(rng))
        bad += bool(report.soundness_violations())
    check("channel bound soundness", bad == 0, f"{args.trials} trials, {bad} violations")

    bad = 0
    for _ in range(args.trials):
        rho = random_qubit_state(rng)
        us = [random_unitary(rng) for _ in range(3)]
        report = unitary_bound_report(rho, us, random_params(rng))
        bad += bool(report.soundness_violations())
    check("unitary bound soundness", bad == 0, f"{args.trials} trials, {bad} violations")

    bad = 0
    for _ in range(max(1, args.trials // 10)):
        rho = random_qubit_state(rng)
        channels = damping_flip_channels(rng.random())
        cache = weighted_ops(rho.spectrum, random_params(rng))
        perms = tuple(tuple(rng.permutation(2)) for _ in range(3))
        vals = tuple_bound_values(cache, channels, perms)
        if vals["lb2"] < vals["ob2"] - 1e-10 or vals["lb3_x1"] < vals["ob3_x1"] - 1e-10:
            bad += 1
        if vals["lb1"] > vals["ob1"] + 1e-10:
            bad += 1
    check("fixed-tuple dominance", bad == 0, f"{bad} violations")

    base, remixed = phase_damping_demo_values()
    check(
        "Kraus-remix invariance",
        abs(base - remixed) <= REMIX_TOL,
        f"phase damping at q=0.4: {base:.6f} for the standard Kraus set, "
        f"{remixed:.6f} for an orthogonally remixed equivalent set; "
        f"representation-invariant within {REMIX_TOL}",
    )
    print(f"selftest: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table1": cmd_table1,
        "sweep": cmd_sweep,
        "unitary-sweep": cmd_unitary_sweep,
        "bounds": cmd_bounds,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
