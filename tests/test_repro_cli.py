import dataclasses
import json
import math

import numpy as np
import pytest

from chanskew import cli, cmatrix, repro
from chanskew.bounds import channel_bound_report, unitary_bound_report
from chanskew.cli import main
from chanskew.repro import (
    Q02_REFERENCE,
    SweepConfig,
    TABLE1_REFERENCE,
    TABLE1_THETAS,
    channel_rows_to_csv,
    channel_sweep,
    compare_report,
    damping_flip_channels,
    eighth_turn_unitaries,
    lb3_tightest_fraction,
    phase_damping_demo_values,
    planar_bloch_state,
    remixed_kraus,
    table1_reports,
    unitary_rows_to_csv,
    unitary_sweep,
)
from chanskew.skewinfo import SkewParams

PARAMS = SkewParams(0.25, 0.75, 0.25)


def small_config(**overrides):
    base = dict(
        theta_start=0.0,
        theta_end=math.pi,
        steps=7,
        q=0.2,
        params=PARAMS,
        bloch_radius=math.sqrt(3) / 2,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_valid(self):
        assert small_config().grid().shape == (7,)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_rejects_too_few_steps(self, steps):
        with pytest.raises(ValueError, match="steps"):
            small_config(steps=steps)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError, match="theta_start < theta_end"):
            small_config(theta_start=0.0, theta_end=0.0, steps=2)

    @pytest.mark.parametrize("q", [-0.1, 1.0, math.nan])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError, match="q"):
            small_config(q=q)

    @pytest.mark.parametrize("radius", [-0.1, 1.5, math.nan])
    def test_rejects_bad_bloch_radius(self, radius):
        with pytest.raises(ValueError, match=r"bloch_radius must be in \[0, 1\]"):
            small_config(bloch_radius=radius)

    @pytest.mark.parametrize(
        "start, end",
        [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308)],
    )
    def test_rejects_nonfinite_grid(self, start, end):
        # the last pair has finite ends whose span overflows to inf
        with pytest.raises(ValueError, match="theta_start, theta_end and their span must be finite"):
            small_config(theta_start=start, theta_end=end)

    def test_grid_includes_endpoints_exactly(self):
        grid = small_config(theta_start=0.25, theta_end=2.5, steps=4).grid()
        assert grid[0] == 0.25 and grid[-1] == 2.5


class TestSweeps:
    def test_q02_sweep_hits_spot_values(self):
        # pi/2 is the middle point of a 0..pi grid with odd step count
        rows = channel_sweep(small_config(steps=5))
        theta, rep = rows[2]
        assert theta == pytest.approx(math.pi / 2, abs=1e-15)
        assert not compare_report(rep, Q02_REFERENCE)

    def test_channel_csv_deterministic_and_formatted(self):
        cfg = small_config(steps=4)
        first = channel_rows_to_csv(channel_sweep(cfg))
        second = channel_rows_to_csv(channel_sweep(cfg))
        assert first == second
        lines = first.strip().split("\n")
        assert lines[0] == "theta,sum,ob1,ob2,ob3,lb1,lb2,lb3"
        assert len(lines) == 5
        cell = lines[2].split(",")[1]
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_unitary_sweep_sound_and_fraction(self):
        rows = unitary_sweep(small_config(steps=9, bloch_radius=math.sqrt(2) / 2))
        for _, rep in rows:
            assert rep.lb3 <= rep.sum + 1e-9
        frac = lb3_tightest_fraction(rows)
        assert 0.0 <= frac <= 1.0

    def test_printed_u3_changes_values(self):
        cfg = small_config(steps=3, bloch_radius=math.sqrt(2) / 2)
        default = unitary_rows_to_csv(unitary_sweep(cfg))
        printed = unitary_rows_to_csv(unitary_sweep(cfg, printed_u3=True))
        assert default != printed

    def test_table_reports_match_reference(self):
        for label, rep in table1_reports():
            assert not compare_report(rep, TABLE1_REFERENCE[label]), label

    def test_sweeps_and_table_equal_one_report_per_state(self):
        # the sweeps and table1 score all their states in one search; each
        # row must be the report of its own state
        cfg = small_config(steps=7)
        channels = damping_flip_channels(cfg.q)
        states = [planar_bloch_state(theta, cfg.bloch_radius) for theta in cfg.grid()]
        assert list(channel_sweep(cfg)) == [
            (float(theta), channel_bound_report(rho, channels, PARAMS))
            for theta, rho in zip(cfg.grid(), states)
        ]
        ucfg = small_config(steps=7, bloch_radius=math.sqrt(2) / 2)
        states = [planar_bloch_state(theta, ucfg.bloch_radius) for theta in ucfg.grid()]
        for printed in (False, True):
            unitaries = eighth_turn_unitaries(printed)
            assert list(unitary_sweep(ucfg, printed_u3=printed)) == [
                (float(theta), unitary_bound_report(rho, unitaries, PARAMS))
                for theta, rho in zip(ucfg.grid(), states)
            ]
        states = [planar_bloch_state(theta, repro.CHANNEL_BLOCH_RADIUS) for _, theta in TABLE1_THETAS]
        assert table1_reports() == [
            (label, channel_bound_report(rho, damping_flip_channels(0.4), PARAMS))
            for (label, _), rho in zip(TABLE1_THETAS, states)
        ]

    @pytest.mark.parametrize("kind", ["channel", "unitary", "table1"])
    def test_states_are_decomposed_in_one_eigensolve(self, monkeypatch, kind):
        # a sweep validates its states as one stack: one eigh call in all
        eigh = np.linalg.eigh
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        cfg = small_config(steps=181)
        if kind == "channel":
            channel_sweep(cfg)
        elif kind == "unitary":
            unitary_sweep(cfg)
        else:
            table1_reports()
        assert calls == [(4, 2, 2) if kind == "table1" else (181, 2, 2)]

    @pytest.mark.parametrize("kind", ["channel", "unitary"])
    def test_sweep_raises_at_first_unsound_theta(self, monkeypatch, kind):
        # the columns come from one call; the sweep still names the first
        # theta, in grid order, whose report violates soundness
        name = f"{kind}_bound_columns"
        plural = getattr(repro, name)

        def unsound_at_2_and_4(spectra, *args, **kwargs):
            columns = plural(spectra, *args, **kwargs)
            lb2 = columns.values["lb2"].copy()
            for k in (4, 2):
                lb2[k] = columns.sum[k] + 1.0
            return dataclasses.replace(columns, values={**columns.values, "lb2": lb2})

        monkeypatch.setattr(repro, name, unsound_at_2_and_4)
        cfg = small_config(steps=7)
        sweep = channel_sweep if kind == "channel" else unitary_sweep
        with pytest.raises(RuntimeError, match=rf"{kind} sweep soundness violation") as err:
            sweep(cfg)
        assert f"theta={cfg.grid()[2]!r}:" in str(err.value)
        assert "lb2 = " in str(err.value)

    def test_remix_demo_reports_equal_values(self):
        base, remixed = phase_damping_demo_values()
        assert base == pytest.approx(remixed, abs=1e-12)

    def test_remixed_kraus_is_valid_channel(self):
        ch = remixed_kraus(damping_flip_channels(0.3)[1], angle=0.7)
        assert len(ch.ops) == 2  # construction validates completeness


class TestCli:
    def test_table1_passes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "28/28 reference values matched" in out
        assert "FAIL" not in out

    def test_table1_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["table1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,ob1,ob2,ob3,lb1,lb2,lb3,sum"
        assert len(lines) == 5

    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--q", "0.2", "--steps", "5", "--theta-start", "0",
             "--theta-end", str(math.pi), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        # middle row is theta = pi/2; compare against the spot reference
        mid = dict(zip(lines[0].split(","), (float(v) for v in lines[3].split(","))))
        assert mid["sum"] == pytest.approx(0.283955, abs=5e-6)
        assert mid["lb1"] == pytest.approx(0.260707, abs=5e-6)

    def test_sweep_rejects_bad_config(self, capsys):
        assert main(["sweep", "--steps", "1"]) == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid", [["--theta-end", "inf"], ["--theta-start=-1e308", "--theta-end=1e308"]]
    )
    def test_sweep_nonfinite_grid_exits_2(self, capsys, grid):
        assert main(["sweep", *grid]) == 2
        assert "span must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["table1"], ["sweep", "--steps", "3"]])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        # a directory, and a file whose parent directory does not exist
        for out in (tmp_path, tmp_path / "no" / "such.csv"):
            assert main([*command, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {out}: ")

    def test_sweep_beta_defaults_to_one_minus_alpha(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--steps", "3", "--alpha", "0.25", "--out", str(out_a)]) == 0
        assert main(
            ["sweep", "--steps", "3", "--alpha", "0.25", "--beta", "0.75", "--out", str(out_b)]
        ) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_unitary_sweep_stdout_and_summary(self, capsys):
        assert main(["unitary-sweep", "--steps", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("theta,sum,lb1,lb2,lb3\n")
        assert "grid points" in captured.err

    def test_unitary_sweep_printed_u3_flag(self, capsys):
        assert main(["unitary-sweep", "--steps", "3", "--printed-u3"]) == 0
        printed = capsys.readouterr().out
        assert main(["unitary-sweep", "--steps", "3"]) == 0
        assert capsys.readouterr().out != printed

    def _write_channels(self, tmp_path):
        paths = []
        for ch in damping_flip_channels(0.4):
            payload = {
                "name": ch.name,
                "kraus": [[[[z.real, z.imag] for z in row] for row in op] for op in ch.ops],
            }
            p = tmp_path / f"{ch.name}.json"
            p.write_text(json.dumps(payload))
            paths.append(str(p))
        return paths

    def test_bounds_reproduces_reference_row(self, tmp_path, capsys):
        paths = self._write_channels(tmp_path)
        bloch = f"{0.0},{math.sqrt(3) / 2},{0.0}"
        assert main(["bounds", "--bloch", bloch, *paths]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["channels"] == ["amplitude_damping", "phase_damping", "bit_flip"]
        got = report["report"]
        for name, want in TABLE1_REFERENCE["pi/2"].items():
            assert got[name] == pytest.approx(want, abs=5e-6), name
        assert got["argmax"]["lb3"]["x"] == 1

    def test_bounds_accepts_state_file(self, tmp_path, capsys):
        paths = self._write_channels(tmp_path)
        state = tmp_path / "rho.json"
        state.write_text(json.dumps([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]))
        assert main(["bounds", "--state", str(state), *paths]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["sum"] == pytest.approx(0.0, abs=1e-12)

    def test_bounds_malformed_entry_names_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "kraus": [[[[1.0, 0.0], [0.5]], [[0.0, 0.0], [1.0, 0.0]]]]}))
        assert main(["bounds", "--bloch", "0,0,0", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "kraus[0][0][1]" in err and "bad.json" in err

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "9" * 400],
        ids=["NaN", "Infinity", "-Infinity", "1e400", "400-digit-int"],
    )
    def test_bounds_nonfinite_json_entry_names_path(self, tmp_path, capsys, literal):
        # json.loads reads NaN and +-Infinity, 1e400 as inf, and the last as
        # an int that no float holds
        paths = self._write_channels(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "kraus": [[[[1, 0], [0, %s]], [[0, 0], [1, 0]]]]}' % literal)
        assert main(["bounds", "--bloch", "0,0,0", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json.kraus[0][0][1]: expected finite numbers" in err
        state = tmp_path / "rho.json"
        state.write_text('{"rho": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, %s]]]}' % literal)
        assert main(["bounds", "--state", str(state), *paths]) == 2
        assert "rho.json.rho[1][1]: expected finite numbers" in capsys.readouterr().err

    def test_bounds_state_dim_mismatch_exits_2(self, tmp_path, capsys):
        paths = self._write_channels(tmp_path)
        state = tmp_path / "qutrit.json"
        diag = [[[1 / 3, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
        state.write_text(json.dumps(diag))
        assert main(["bounds", "--state", str(state), *paths]) == 2
        assert "state has dim 3, the operators have dim 2" in capsys.readouterr().err

    def test_bounds_invalid_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"name": "x", "kraus": [')
        assert main(["bounds", "--bloch", "0,0,0", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_bounds_incomplete_channel_rejected(self, tmp_path, capsys):
        bad = tmp_path / "incomplete.json"
        ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        bad.write_text(json.dumps({"name": "x", "kraus": [ident, ident]}))
        assert main(["bounds", "--bloch", "0,0,0", str(bad)]) == 2
        assert "completeness" in capsys.readouterr().err

    def test_bounds_bad_bloch_vector(self, capsys):
        assert main(["bounds", "--bloch", "1,1", "none.json"]) == 2
        assert "r1,r2,r3" in capsys.readouterr().err

    @pytest.mark.parametrize("bloch", ["nan,0,0", "inf,0,0"])
    def test_bounds_nonfinite_bloch_vector_exits_2(self, capsys, bloch):
        assert main(["bounds", "--bloch", bloch, "none.json"]) == 2
        assert capsys.readouterr().err.startswith("error: Bloch vector must be finite, got [")

    def test_selftest_quick(self, capsys):
        assert main(["selftest", "--trials", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "selftest: PASS" in out
        assert "representation-invariant" in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_selftest_rejects_trials_below_one(self, capsys, trials):
        # no trials would pass the soundness checks vacuously
        assert main(["selftest", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "--trials must be at least 1" in captured.err
        assert "PASS" not in captured.out

    def test_selftest_rejects_negative_seed(self, capsys):
        assert main(["selftest", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be at least 0; got -1\n"
        assert captured.out == ""

    def test_selftest_asserts_remix_invariance(self, monkeypatch, capsys):
        assert main(["selftest", "--trials", "2"]) == 0
        assert "selftest Kraus-remix invariance: ok" in capsys.readouterr().out
        monkeypatch.setattr(cli, "phase_damping_demo_values", lambda: (0.25, 0.25 + 1e-9))
        assert main(["selftest", "--trials", "2"]) == 1
        out = capsys.readouterr().out
        assert "selftest Kraus-remix invariance: FAIL" in out
        assert "selftest: FAIL" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--steps", "-3"],
            ["unitary-sweep", "--steps", "0"],
            ["sweep", "--steps", "0"],
            ["unitary-sweep", "--steps", "1"],
        ],
    )
    def test_nonpositive_cap_or_too_few_steps_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_bounds_nonpositive_cap_exits_2(self, tmp_path, capsys, cap):
        paths = self._write_channels(tmp_path)
        assert main(["bounds", "--bloch", "0,0.5,0", *paths, "--cap", cap]) == 2
        assert "cap" in capsys.readouterr().err

    def test_eigensolver_nonconvergence_exits_3(self, monkeypatch, capsys):
        def eigh_fails(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh_fails)
        assert main(["sweep", "--steps", "2"]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert issubclass(cmatrix.ConvergenceError, RuntimeError)

    def test_selftest_seed_changes_nothing_about_verdict(self, capsys):
        assert main(["selftest", "--trials", "5", "--seed", "123"]) == 0
        capsys.readouterr()


def test_star_import_resolves_every_exported_name():
    import chanskew

    namespace = {}
    exec("from chanskew import *", namespace)
    assert len(set(chanskew.__all__)) == len(chanskew.__all__)
    for name in chanskew.__all__:
        assert namespace[name] is getattr(chanskew, name), name
