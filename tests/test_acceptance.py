"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

from chanskew.bounds import (
    channel_bound_report,
    enumerate_tuples,
    tuple_bound_values,
    unitary_bound_report,
)
from chanskew.cmatrix import eig_hermitian, spectral_power
from chanskew.repro import (
    Q02_REFERENCE,
    TABLE1_REFERENCE,
    CHANNEL_BLOCH_RADIUS,
    DEFAULT_PARAMS,
    compare_report,
    damping_flip_channels,
    planar_bloch_state,
    table1_reports,
)
from chanskew.skewinfo import SkewParams, skew_info_channel, skew_info_op, weighted_ops

from support import (
    direct_skew,
    norm_inequality_check,
    random_channel,
    random_density,
    random_hermitian,
    random_matrix,
    random_params,
    random_qubit_state,
    random_unitary,
    skew_mean_arbitrary,
    skew_mean_hermitian,
    skew_two_exponent_hermitian,
    skew_weighted_arbitrary,
    skew_weighted_hermitian,
    stacked_channel_skew,
    trace_form_skew,
)

REFERENCE_TOL = 5e-6


def _verdict(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures[:10])


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    rows = table1_reports()
    elapsed = time.perf_counter() - start
    failures = []
    for label, rep in rows:
        failures += [f"theta={label} {m}" for m in compare_report(rep, TABLE1_REFERENCE[label], REFERENCE_TOL)]
    checked = sum(len(v) for v in TABLE1_REFERENCE.values())
    assert checked == 28
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _verdict(1, "table1 28 values within 5e-6, under 5s", failures)


def test_criterion_2_q02_spot_check():
    rho = planar_bloch_state(math.pi / 2, CHANNEL_BLOCH_RADIUS)
    rep = channel_bound_report(rho, damping_flip_channels(0.2), DEFAULT_PARAMS)
    failures = compare_report(rep, Q02_REFERENCE, REFERENCE_TOL)
    _verdict(2, "q=0.2 spot check within 5e-6", failures)


def test_criterion_3_qualitative_tightness():
    failures = []
    for label, rep in table1_reports():
        if not rep.lb2 > max(rep.ob1, rep.ob2, rep.ob3):
            failures.append(f"theta={label}: lb2 not above ob1..ob3")
        if not rep.lb3 > max(rep.ob2, rep.ob3):
            failures.append(f"theta={label}: lb3 not above ob2, ob3")
    _verdict(3, "lb2 > max(ob1..ob3) and lb3 > max(ob2, ob3) at q=0.4", failures)


def test_criterion_4_bound_soundness():
    rng = np.random.default_rng(4)
    failures = []
    for k in range(200):
        rho = random_qubit_state(rng)
        channels = damping_flip_channels(rng.random())
        rep = channel_bound_report(rho, channels, random_params(rng))
        for name in ("ob1", "ob2", "ob3", "lb1", "lb2", "lb3"):
            value = getattr(rep, name)
            if value > rep.sum + 1e-9:
                failures.append(f"channel trial {k}: {name} = {value!r} > sum = {rep.sum!r}")
    for k in range(200):
        rho = random_qubit_state(rng)
        us = [random_unitary(rng) for _ in range(3)]
        rep = unitary_bound_report(rho, us, random_params(rng))
        for name in ("lb1", "lb2", "lb3"):
            value = getattr(rep, name)
            if value > rep.sum + 1e-9:
                failures.append(f"unitary trial {k}: {name} = {value!r} > sum = {rep.sum!r}")
    _verdict(4, "200 channel + 200 unitary soundness trials", failures)


def test_criterion_5_parameter_reductions():
    rng = np.random.default_rng(5)
    failures = []
    cases = {
        "single-exponent, arbitrary operator": lambda rho, e, a, g: (
            skew_info_op(rho, e, SkewParams(a, 1 - a, g)),
            skew_weighted_arbitrary(rho.mat, e, a, g),
        ),
        "mean-weight, arbitrary operator": lambda rho, e, a, g: (
            skew_info_op(rho, e, SkewParams(a, 1 - a, 0.5)),
            skew_mean_arbitrary(rho.mat, e, a),
        ),
        "single-exponent, hermitian": lambda rho, h, a, g: (
            skew_info_op(rho, h, SkewParams(a, 1 - a, g)),
            skew_weighted_hermitian(rho.mat, h, a, g),
        ),
        "mean-weight, hermitian": lambda rho, h, a, g: (
            skew_info_op(rho, h, SkewParams(a, 1 - a, 0.5)),
            skew_mean_hermitian(rho.mat, h, a),
        ),
    }
    for name, evaluate in cases.items():
        for k in range(100):
            dim = 2 + k % 2
            rho = random_density(rng, dim)
            e = random_matrix(rng, dim)
            if "hermitian" in name:
                e = 0.5 * (e + e.conj().T)
            got, want = evaluate(rho, e, rng.random(), rng.random())
            if abs(got - want) > 1e-10:
                failures.append(f"{name} trial {k}: |{got!r} - {want!r}|")
    for k in range(100):
        dim = 2 + k % 2
        rho = random_density(rng, dim)
        h = random_matrix(rng, dim)
        h = 0.5 * (h + h.conj().T)
        p = random_params(rng)
        got = skew_info_op(rho, h, p)
        want = skew_two_exponent_hermitian(rho.mat, h, p.alpha, p.beta, p.gamma)
        if abs(got - want) > 1e-10:
            failures.append(f"two-exponent hermitian trial {k}: |{got!r} - {want!r}|")
    _verdict(5, "five parameter reductions vs direct formulas, 100 each", failures)


def test_criterion_6_oracle_equalities():
    rng = np.random.default_rng(6)
    failures = []
    for k in range(100):
        dim = 2 + k % 2
        rho = random_density(rng, dim)
        e = random_matrix(rng, dim)
        p = random_params(rng)
        got = skew_info_op(rho, e, p)
        for name, want in (
            ("norm", direct_skew(rho.mat, e, p.alpha, p.beta, p.gamma)),
            ("trace", trace_form_skew(rho.mat, e, p.alpha, p.beta, p.gamma)),
        ):
            if abs(got - want) > 1e-10:
                failures.append(f"{name} form trial {k}: |{got!r} - {want!r}|")
    for k in range(100):
        dim = 2 + k % 2
        rho = random_density(rng, dim)
        ch = random_channel(rng, dim, 2 + k % 3)
        p = random_params(rng)
        got = skew_info_channel(rho, ch, p)
        want = stacked_channel_skew(rho.mat, ch.ops, p.alpha, p.beta, p.gamma)
        if abs(got - want) > 1e-10:
            failures.append(f"stacked form trial {k}: |{got!r} - {want!r}|")
    _verdict(6, "trace-form and stacked-form equalities, 100 each", failures)


def test_criterion_7_proof_inequalities():
    rng = np.random.default_rng(7)
    failures = []
    for k in range(500):
        big_n = 3 + k % 3
        dim = 2 + k % 7
        vectors = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(big_n)]
        result = norm_inequality_check(vectors, slack=1e-9)
        if result != (True, True, True):
            failures.append(f"trial {k} (N={big_n}): {result}")
    _verdict(7, "three vector-norm inequalities on 500 random tuples", failures)


def test_criterion_8_dominance_per_tuple():
    rng = np.random.default_rng(8)
    failures = []
    for k in range(100):
        rho = random_qubit_state(rng)
        channels = damping_flip_channels(rng.random())
        cache = weighted_ops(rho, random_params(rng))
        for perms in enumerate_tuples(2, 3):
            vals = tuple_bound_values(cache, channels, perms)
            if vals["lb2"] < vals["ob2"] - 1e-10:
                failures.append(f"trial {k} {perms}: lb2 < ob2")
            if vals["lb3_x0"] < vals["ob3_x0"] - 1e-10 or vals["lb3_x1"] < vals["ob3_x1"] - 1e-10:
                failures.append(f"trial {k} {perms}: lb3 < ob3 at matched variant")
            if vals["lb1"] > vals["ob1"] + 1e-10:
                failures.append(f"trial {k} {perms}: lb1 > ob1")
    _verdict(8, "fixed-tuple dominance on 100 random configurations", failures)


def test_criterion_9_linear_algebra_core():
    rng = np.random.default_rng(9)
    failures = []
    for k in range(100):
        dim = 2 + k % 5
        h = random_hermitian(rng, dim)
        dec = eig_hermitian(h)
        v, lam = dec.eigenvectors, dec.eigenvalues
        orth = np.max(np.abs(v.conj().T @ v - np.eye(dim)))
        recon = np.max(np.abs((v * lam) @ v.conj().T - h))
        if orth > 1e-10:
            failures.append(f"orthonormality {orth:.2e} at trial {k}")
        if recon > 1e-10:
            failures.append(f"reconstruction {recon:.2e} at trial {k}")
    for k in range(100):
        dim = 2 + k % 5
        spectrum = random_density(rng, dim).spectrum
        p = rng.random()
        q = rng.random() * (1.0 - p)
        power = [spectral_power(*spectrum, x) for x in (p, q, p + q)]
        gap = np.linalg.norm(power[0] @ power[1] - power[2])
        if gap > 1e-9:
            failures.append(f"semigroup gap {gap:.2e} at trial {k}")
    _verdict(9, "eigensolver and fractional-power tolerances, 100 each", failures)
