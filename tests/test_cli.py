import io
import json
import math

import numpy as np
import pytest

from curvednbody import cli, fixedpoints, stability
from curvednbody.report import ChunkedText, atomic_write_text, fmt

LAMBDA1_EQUAL = 8.0 * math.sqrt(3.0) / 9.0
OMEGA_CRITICAL_EQUAL = math.sqrt(LAMBDA1_EQUAL)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    values = {}
    section = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif ": " in line:
            key, _, val = line.partition(": ")
            values["%s.%s" % (section, key)] = val
    return values


class TestRegionScan:
    def test_summary_and_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "region.csv"
        code, out, _ = run_cli(
            ["region-scan", "--resolution", "64", "--output", str(out_csv)], capsys
        )
        assert code == 0
        report = parse_report(out)
        assert report["region-scan.resolution"] == "64"
        simplex = int(report["region-scan.simplex_cells"])
        admissible = int(report["region-scan.admissible_cells"])
        assert simplex == 63 * 64 // 2
        assert 0 < admissible < simplex
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "m1,m2,value,admissible"
        assert len(lines) == simplex + 1
        # the center of the simplex is admissible; a lopsided cell is not
        rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
        assert all(len(r) == 4 for r in rows.values())

    @pytest.mark.parametrize("res", [2, 64, 97])
    def test_csv_bytes_match_savetxt_table(self, capsys, tmp_path, res):
        out_csv = tmp_path / "region.csv"
        code, _, _ = run_cli(
            ["region-scan", "--resolution", str(res), "--output", str(out_csv)], capsys
        )
        assert code == 0
        centers = (np.arange(res) + 0.5) / res
        m1 = centers[:, None]
        m2 = centers[None, :]
        values = fixedpoints.admissibility_values_on_simplex(m1, m2)
        ii, jj = np.nonzero((m1 + m2) < 1.0)
        cell_values = values[ii, jj]
        table = np.column_stack(
            [centers[ii], centers[jj], cell_values, (cell_values < 0.0).astype(float)]
        )
        buf = io.StringIO()
        buf.write("m1,m2,value,admissible\n")
        np.savetxt(buf, table, fmt="%.17g", delimiter=",")
        assert out_csv.read_bytes() == buf.getvalue().encode()

    def test_rejects_tiny_resolution(self, capsys):
        code, _, err = run_cli(["region-scan", "--resolution", "1"], capsys)
        assert code == 2
        assert "resolution" in err


class TestFixedPoint:
    def test_equal_mass_report(self, capsys):
        code, out, _ = run_cli(["fixed-point", "--masses", "1", "1", "1"], capsys)
        assert code == 0
        report = parse_report(out)
        assert report["admissibility.admissible"] == "yes"
        assert float(report["shape.alpha"]) == pytest.approx(2 * math.pi / 3)
        assert float(report["ring.residual_max"]) < 1e-13
        assert report["certificate.certified"] == "yes"
        assert report["isosceles.isosceles"] == "yes"

    def test_non_admissible_stops_early(self, capsys):
        code, out, _ = run_cli(
            ["fixed-point", "--masses", "0.5", "0.49", "0.01"], capsys
        )
        assert code == 0
        report = parse_report(out)
        assert report["admissibility.admissible"] == "no"
        assert "[shape]" not in out

    def test_degrees_flag_adds_display_lines(self, capsys):
        code, out, _ = run_cli(
            ["fixed-point", "--masses", "1", "1", "1", "--degrees"], capsys
        )
        assert code == 0
        report = parse_report(out)
        assert float(report["shape.alpha_deg"]) == pytest.approx(120.0)

    def test_solver_section(self, capsys):
        code, out, _ = run_cli(
            ["fixed-point", "--masses", "0.3", "0.4", "0.3", "--solve"], capsys
        )
        assert code == 0
        report = parse_report(out)
        assert float(report["solver.residual_max"]) < 1e-9
        assert float(report["solver.distance_to_constructed"]) < 1e-7

    def test_report_file_matches_stdout(self, capsys, tmp_path):
        out_file = tmp_path / "fp.txt"
        code, out, _ = run_cli(
            ["fixed-point", "--masses", "1", "1", "1", "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        assert out_file.read_text() == out


class TestStability:
    def test_stable_verdict(self, capsys):
        code, out, _ = run_cli(
            ["stability", "--masses", "1", "1", "1", "--omega", "1.3"], capsys
        )
        assert code == 0
        report = parse_report(out)
        assert report["classification.verdict"] == "re-linearly-stable"
        assert float(report["classification.lambda1"]) == pytest.approx(
            LAMBDA1_EQUAL, abs=1e-12
        )
        assert float(report["classification.omega_critical"]) == pytest.approx(
            OMEGA_CRITICAL_EQUAL, abs=1e-12
        )
        assert float(report["spectrum.reduced_max_real"]) < 1e-9

    def test_unstable_verdict(self, capsys):
        code, out, _ = run_cli(
            ["stability", "--masses", "1", "1", "1", "--omega", "1.2"], capsys
        )
        assert code == 0
        report = parse_report(out)
        assert report["classification.verdict"] == "re-unstable"
        expected = math.sqrt(LAMBDA1_EQUAL - 1.44)
        assert float(report["classification.unstable_exponent"]) == pytest.approx(
            expected, abs=1e-12
        )

    def test_fixed_point_verdict_reports_nilpotent(self, capsys):
        code, out, _ = run_cli(["stability", "--masses", "1", "1", "1"], capsys)
        assert code == 0
        report = parse_report(out)
        assert report["classification.verdict"] == "fixed-point-unstable"
        assert float(report["subspaces.nilpotent_residual"]) < 1e-11


class TestSimulate:
    def test_relative_equilibrium_run(self, capsys, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            [
                "simulate",
                "--masses",
                "1",
                "1",
                "1",
                "--omega",
                "1.3",
                "--horizon",
                "1.0",
                "--output",
                str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        report = parse_report(out)
        assert float(report["monitors.energy_drift"]) < 1e-12
        assert float(report["monitors.momentum_drift"]) < 1e-13
        assert float(report["monitors.max_equator_deviation"]) < 1e-13
        lines = out_csv.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert header[1:4] == ["theta_1", "theta_2", "theta_3"]
        assert header[-2:] == ["H", "J"]
        assert len(header) == 15
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0
        assert float(last[0]) == pytest.approx(1.0, abs=1e-9)

    def test_growth_mode_measures_rate(self, capsys, tmp_path):
        out_csv = tmp_path / "growth.csv"
        code, out, _ = run_cli(
            [
                "simulate",
                "--masses",
                "1",
                "1",
                "1",
                "--mode",
                "growth",
                "--horizon",
                "30",
                "--output",
                str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        report = parse_report(out)
        assert report["growth.outcome"] == "growth-measured"
        rate = float(report["growth.rate"])
        assert abs(rate - OMEGA_CRITICAL_EQUAL) / OMEGA_CRITICAL_EQUAL < 0.05
        assert out_csv.read_text().splitlines()[0] == "t,deviation"

    def test_growth_mode_stable_case(self, capsys, tmp_path):
        out_file = tmp_path / "growth.txt"
        code, out, _ = run_cli(
            [
                "simulate",
                "--masses",
                "1",
                "1",
                "1",
                "--mode",
                "growth",
                "--omega",
                "1.3",
                "--horizon",
                "30",
                "--output",
                str(out_file),
            ],
            capsys,
        )
        assert code == 0
        report = parse_report(out)
        assert report["growth.outcome"] == "consistent-with-stable"
        assert float(report["growth.max_deviation"]) < 1e-4
        assert "[growth]" in out_file.read_text()

    def test_perturbed_runs_are_deterministic(self, capsys, tmp_path):
        argv = [
            "simulate",
            "--masses",
            "1",
            "1",
            "1",
            "--omega",
            "1.3",
            "--mode",
            "perturbed",
            "--horizon",
            "1.0",
            "--seed",
            "3",
        ]
        first = run_cli(argv + ["--output", str(tmp_path / "a.csv")], capsys)
        second = run_cli(argv + ["--output", str(tmp_path / "b.csv")], capsys)
        assert first[0] == 0 and second[0] == 0
        assert first[1] == second[1]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestOmegaSweep:
    def test_sweep_and_worker_determinism(self, capsys, tmp_path):
        base = [
            "omega-sweep",
            "--masses",
            "1",
            "1",
            "1",
            "--omega-min",
            "0",
            "--omega-max",
            "2",
            "--count",
            "9",
        ]
        one = run_cli(
            base + ["--workers", "1", "--output", str(tmp_path / "w1.csv")], capsys
        )
        four = run_cli(
            base + ["--workers", "4", "--output", str(tmp_path / "w4.csv")], capsys
        )
        assert one[0] == 0 and four[0] == 0
        assert one[1] == four[1]
        assert (
            tmp_path / "w1.csv"
        ).read_bytes() == (tmp_path / "w4.csv").read_bytes()
        report = parse_report(one[1])
        # grid spacing 0.25; the first node above the critical rate is 1.25
        assert float(report["sweep.first_stable_omega"]) == 1.25
        lines = (tmp_path / "w1.csv").read_text().splitlines()
        assert lines[0] == "omega,lambda1,omega_critical,verdict,unstable_exponent"
        assert len(lines) == 10
        verdicts = [l.split(",")[3] for l in lines[1:]]
        assert verdicts[0] == "fixed-point-unstable"
        assert "re-unstable" in verdicts and "re-linearly-stable" in verdicts


def sweep_csv_one_call_per_rate(masses, omegas):
    """The sweep CSV built from one full spectral analysis per rate."""
    triple = fixedpoints.as_mass_triple(masses)
    ring = fixedpoints.ring_from_shape(fixedpoints.shape_from_masses(triple))
    blocks = stability.assemble_blocks(triple.mass_vector(), ring)
    lines = ["omega,lambda1,omega_critical,verdict,unstable_exponent"]
    for w in omegas:
        rep = stability.spectral_analysis(blocks, float(w))
        row = (float(w), rep.lambda1, rep.omega_critical, rep.verdict)
        lines.append(",".join(fmt(v) for v in row + (rep.unstable_exponent,)))
    return "\n".join(lines) + "\n"


class TestOmegaSweepRows:
    @pytest.mark.parametrize(
        "masses, lo, hi, count",
        [
            ((1.0, 1.0, 1.0), 0.0, 2.0, 41),
            ((0.3, 0.4, 0.3), -2.0, -0.5, 17),
            ((0.2, 0.5, 0.3), -1.0, 1.0, 3),
            ((0.3, 0.4, 0.3), 0.5, 1.5, 1),
        ],
    )
    def test_rows_match_one_analysis_per_rate(
        self, capsys, tmp_path, masses, lo, hi, count
    ):
        out_csv = tmp_path / "sweep.csv"
        argv = ["omega-sweep", "--masses", *map(repr, masses), "--count", str(count)]
        argv += ["--omega-min", repr(lo), "--omega-max", repr(hi)]
        argv += ["--output", str(out_csv)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        expected = sweep_csv_one_call_per_rate(masses, np.linspace(lo, hi, count))
        assert out_csv.read_text() == expected

    def test_rate_at_the_critical_rate_is_the_boundary(self, capsys, tmp_path):
        masses = (1.0, 1.0, 1.0)
        omega = math.sqrt(stability.classify(masses).lambda1) + 1e-11
        out_csv = tmp_path / "sweep.csv"
        argv = ["omega-sweep", "--masses", "1", "1", "1", "--count", "1"]
        argv += ["--omega-min", repr(omega), "--omega-max", repr(omega)]
        code, out, _ = run_cli(argv + ["--output", str(out_csv)], capsys)
        assert code == 0
        text = out_csv.read_text()
        assert text == sweep_csv_one_call_per_rate(masses, [omega])
        assert text.splitlines()[1].split(",")[3] == stability.VERDICT_BOUNDARY
        assert parse_report(out)["sweep.first_stable_omega"] == "none"


class TestAtomicWrite:
    def test_chunks_write_the_same_bytes_as_the_joined_string(self, tmp_path):
        chunks = ["a,b\n", "", "1,2\n", "3,4\n"]
        text = ChunkedText(lambda: chunks)
        atomic_write_text(str(tmp_path / "joined.csv"), "".join(chunks))
        atomic_write_text(str(tmp_path / "chunks.csv"), text)
        written = (tmp_path / "chunks.csv").read_bytes()
        assert written == (tmp_path / "joined.csv").read_bytes()
        assert text.encode() == written


class TestConfigAndErrors:
    def test_config_supplies_defaults_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"masses": [1.0, 1.0, 1.0], "omega": 1.3}))
        code, out, _ = run_cli(["stability", "--config", str(cfg)], capsys)
        assert code == 0
        assert parse_report(out)["classification.verdict"] == "re-linearly-stable"
        code, out, _ = run_cli(
            ["stability", "--config", str(cfg), "--omega", "1.2"], capsys
        )
        assert code == 0
        assert parse_report(out)["classification.verdict"] == "re-unstable"

    def test_config_accepts_dashed_keys(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"masses": [1, 1, 1], "omega-min": 1.5, "omega-max": 1.5})
        )
        code, out, _ = run_cli(
            ["omega-sweep", "--config", str(cfg), "--count", "1"], capsys
        )
        assert code == 0
        report = parse_report(out)
        assert float(report["sweep.omega_min"]) == 1.5
        assert float(report["sweep.first_stable_omega"]) == 1.5

    def test_missing_masses(self, capsys):
        code, _, err = run_cli(["stability"], capsys)
        assert code == 2
        assert "--masses" in err

    def test_non_admissible_masses(self, capsys):
        code, _, err = run_cli(
            ["stability", "--masses", "0.5", "0.49", "0.01"], capsys
        )
        assert code == 2
        assert err.startswith("error:")

    def test_bad_tolerance_json(self, capsys):
        code, _, _ = run_cli(
            ["stability", "--masses", "1", "1", "1", "--tolerance-overrides", "{oops"],
            capsys,
        )
        assert code == 2

    def test_unknown_tolerance_name(self, capsys):
        code, _, err = run_cli(
            [
                "stability",
                "--masses",
                "1",
                "1",
                "1",
                "--tolerance-overrides",
                '{"bogus": 0.1}',
            ],
            capsys,
        )
        assert code == 2
        assert "bogus" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["stability", "--config", str(tmp_path / "absent.json")], capsys
        )
        assert code == 1

    def test_invalid_config_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2")
        code, _, _ = run_cli(["stability", "--config", str(cfg)], capsys)
        assert code == 2

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run_cli(["stability", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "command, config, option",
        [
            ("omega-sweep", {"masses": [1, 1, 1], "count": "x"}, "count"),
            ("stability", {"masses": [1, 1, 1], "omega": "fast"}, "omega"),
            ("stability", {"masses": [1, 1, "a"]}, "masses"),
            ("stability", {"masses": 5}, "masses"),
            ("simulate", {"masses": [1, 1, 1], "mode": "bogus"}, "mode"),
            ("fixed-point", {"masses": [1, 1, 1], "degrees": "no"}, "degrees"),
            ("stability", {"masses": [1, 1, 1], "output": 7}, "output"),
        ],
    )
    def test_config_values_are_type_checked(
        self, capsys, tmp_path, command, config, option
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and option in err

    def test_config_numbers_as_strings_convert_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"masses": ["1", 1, 1.0], "omega": "1.3"}))
        from_config = run_cli(["stability", "--config", str(cfg)], capsys)
        from_flags = run_cli(
            ["stability", "--masses", "1", "1", "1", "--omega", "1.3"], capsys
        )
        assert from_config == from_flags

    def test_tolerance_override_value_is_type_checked(self, capsys):
        code, _, err = run_cli(
            [
                "stability",
                "--masses",
                "1",
                "1",
                "1",
                "--tolerance-overrides",
                '{"residual": "abc"}',
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and "residual" in err

    def test_growth_mode_rejects_rk45(self, capsys):
        code, out, err = run_cli(
            [
                "simulate",
                "--masses",
                "1",
                "1",
                "1",
                "--mode",
                "growth",
                "--method",
                "rk45",
            ],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "rk45" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--omega", "nan"],
            ["stability", "--omega", "inf"],
            ["omega-sweep", "--omega-max", "nan", "--count", "3"],
            ["omega-sweep", "--omega-min", "nan", "--count", "3"],
            ["stability", "--omega", "1e200"],
            ["omega-sweep", "--omega-max", "1e200"],
            ["simulate", "--omega", "1e200", "--mode", "re"],
            ["simulate", "--omega=-1e200", "--mode", "perturbed"],
            ["simulate", "--omega", "1e200", "--mode", "growth"],
        ],
    )
    def test_non_finite_rate_rejected(self, capsys, tmp_path, argv):
        out_file = tmp_path / "out.txt"
        code, out, err = run_cli(
            argv + ["--masses", "1", "1", "1", "--output", str(out_file)], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not finite" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("mode", ["perturbed", "growth"])
    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_amplitude_rejected(self, capsys, tmp_path, mode, amplitude):
        out_file = tmp_path / "out.csv"
        code, out, err = run_cli(
            ["simulate", "--masses", "1", "1", "1", "--mode", mode, "--amplitude",
             amplitude, "--horizon", "0.1", "--output", str(out_file)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: amplitude %s is not finite\n" % amplitude
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--step", "0"],
            ["--step", "-0.001"],
            ["--step", "nan"],
            ["--horizon", "nan"],
            ["--horizon", "inf"],
            ["--record-stride", "0"],
            ["--mode", "growth", "--record-stride", "0"],
            ["--mode", "growth", "--horizon", "0.004", "--step", "0.01"],
        ],
    )
    def test_bad_step_parameters_rejected(self, capsys, tmp_path, extra):
        out_file = tmp_path / "out.csv"
        argv = ["simulate", "--masses", "1", "1", "1", "--output", str(out_file)]
        code, _, err = run_cli(argv + extra, capsys)
        assert code == 2
        assert err.startswith("error:")
        assert not out_file.exists()
