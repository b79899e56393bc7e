import json
import math

import pytest

from chanskew import cli, cmatrix
from chanskew.cli import main
from chanskew.repro import (
    Q02_REFERENCE,
    SweepConfig,
    TABLE1_REFERENCE,
    channel_rows_to_csv,
    channel_sweep,
    compare_report,
    damping_flip_channels,
    lb3_tightest_fraction,
    phase_damping_demo_values,
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

    @pytest.mark.parametrize("q", [-0.1, 1.0])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError, match="q"):
            small_config(q=q)

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

    def test_selftest_quick(self, capsys):
        assert main(["selftest", "--trials", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "selftest: PASS" in out
        assert "representation-invariant" in out

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
            ["table1", "--cap", "0"],
            ["sweep", "--steps", "3", "--cap", "-5"],
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
        # zero sweeps cannot diagonalize the non-diagonal sweep states
        monkeypatch.setattr(cmatrix, "JACOBI_SWEEP_CAP", 0)
        assert main(["sweep", "--steps", "2"]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert issubclass(cmatrix.ConvergenceError, RuntimeError)

    def test_selftest_seed_changes_nothing_about_verdict(self, capsys):
        assert main(["selftest", "--trials", "5", "--seed", "123"]) == 0
        capsys.readouterr()
