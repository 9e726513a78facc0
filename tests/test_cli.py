import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from curvednbody import cli, dynamics, errors, fixedpoints, reduction, stability
from curvednbody.report import (
    CSV_BLOCK_ROWS,
    FLOAT_FMT,
    ChunkedText,
    atomic_write_text,
    fmt,
    write_csv,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

LAMBDA1_EQUAL = 8.0 * math.sqrt(3.0) / 9.0
OMEGA_CRITICAL_EQUAL = math.sqrt(LAMBDA1_EQUAL)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_process(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_alone(argv):
    """The same, from ``python -m curvednbody`` in a process of its own."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "curvednbody", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


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


def region_grid(res):
    """The arguments region-scan hands to ``cli._region_rows``."""
    centers = (np.arange(res) + 0.5) / res
    m1 = centers[:, None]
    m2 = centers[None, :]
    values = fixedpoints.admissibility_value(m1, m2, 1.0 - m1 - m2)
    valid = (m1 + m2) < 1.0
    return centers, values, valid, valid & (values < 0.0)


def region_rows_per_cell(centers, values, valid, admissible):
    """The region CSV chunks with every cell formatted on its own: the reference."""
    cells = [FLOAT_FMT % c for c in centers.tolist()]
    row_fmt = "%s,%s," + FLOAT_FMT + ",%d\n"
    yield "m1,m2,value,admissible\n"
    for m1, row, vals, flags in zip(cells, valid, values, admissible):
        cols = zip(compress(cells, row), vals[row].tolist(), flags[row].tolist())
        yield "".join([row_fmt % (m1, m2, v, a) for m2, v, a in cols])


# signed zeros and the subnormals next to them, where one nextafter step
# crosses zero and the admissible flag changes with it, and any finite float
GRID_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def region_grids(draw):
    """The arguments of ``cli._region_rows`` on a grid of resolution 2 to 40:
    a symmetric value matrix, then a few mirror pairs made to differ in their
    bits, as 0.0 against -0.0 or by one ``np.nextafter`` step."""
    res = draw(st.integers(2, 40))
    centers = (np.arange(res) + 0.5) / res
    valid = (centers[:, None] + centers[None, :]) < 1.0
    values = draw(hnp.arrays(np.float64, (res, res), elements=GRID_VALUES, fill=GRID_VALUES))
    lower = np.tril_indices(res, -1)
    values[lower] = values.T[lower]
    index = st.integers(0, res - 1)
    kinds = st.sampled_from(["signed zero", "up", "down"])
    for i, j, kind in draw(st.lists(st.tuples(index, index, kinds), max_size=8)):
        if kind == "signed zero":
            values[i, j], values[j, i] = 0.0, -0.0
        elif i != j:
            values[j, i] = np.nextafter(values[i, j], np.inf if kind == "up" else -np.inf)
    return centers, values, valid, valid & (values < 0.0)


def mirror_kinds(grid):
    """Which kinds of simplex mirror pair a grid holds: other bits, other flag."""
    _, values, valid, admissible = grid
    bits = values.view(np.int64)
    other_bits = valid & (bits != bits.T)
    kinds = {"same bits"}
    if other_bits.any():
        kinds.add("other bits")
    if (other_bits & (admissible != admissible.T)).any():
        kinds.add("other flag")
    return kinds


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
        centers, values, valid, _ = region_grid(res)
        ii, jj = np.nonzero(valid)
        cell_values = values[ii, jj]
        table = np.column_stack(
            [centers[ii], centers[jj], cell_values, (cell_values < 0.0).astype(float)]
        )
        buf = io.StringIO()
        buf.write("m1,m2,value,admissible\n")
        np.savetxt(buf, table, fmt="%.17g", delimiter=",")
        assert out_csv.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("res", [2, 3, 7, 97, 333, 512])
    def test_rows_match_per_cell_formatting(self, res):
        grid = region_grid(res)
        bits = grid[1].view(np.int64)
        # at 512 every centre is dyadic and the grid is bitwise symmetric
        assert np.any(grid[2] & (bits != bits.T)) == (res in (7, 97, 333))
        want = list(region_rows_per_cell(*grid))
        assert list(cli._region_rows(*grid)) == want
        # a traced write iterates the text twice: each pass starts clean
        text = ChunkedText(lambda: cli._region_rows(*grid))
        assert "".join(text) == "".join(text) == "".join(want)

    def test_mirror_pairs_with_other_bits_keep_their_own_text(self):
        centers = np.array([0.1, 0.2, 0.3, 0.4])
        values = np.array(
            [
                [0.5, -0.25, 0.0, -0.1],
                [-0.25, 1.5, 2.0, 3.0],
                [-0.0, 2.0, -7.0, 0.125],
                [-0.1, np.nextafter(3.0, 4.0), 0.125, 9.0],
            ]
        )
        valid = np.ones((4, 4), dtype=bool)
        grid = (centers, values, valid, valid & (values < 0.0))
        rows = list(cli._region_rows(*grid))
        assert rows == list(region_rows_per_cell(*grid))
        assert "0.29999999999999999,0.10000000000000001,-0,0\n" in rows[3]
        assert "0.40000000000000002,0.20000000000000001,3.0000000000000004,0\n" in rows[4]

    @PROPERTY
    @given(region_grids())
    def test_drawn_grids_match_per_cell_formatting(self, grid):
        assert list(cli._region_rows(*grid)) == list(region_rows_per_cell(*grid))

    def test_drawn_grids_reach_every_kind_of_mirror_pair(self):
        seen = set()
        PROPERTY(given(region_grids())(lambda grid: seen.update(mirror_kinds(grid))))()
        assert seen == {"same bits", "other bits", "other flag"}

    def test_streams_one_chunk_per_m1_row(self):
        grid = region_grid(512)
        centers, valid = grid[0], grid[2]
        chunks = list(cli._region_rows(*grid))
        assert chunks[0] == "m1,m2,value,admissible\n"
        assert len(chunks) == 1 + 512
        for m1, n, chunk in zip(centers.tolist(), valid.sum(axis=1).tolist(), chunks[1:]):
            lines = chunk.splitlines()
            assert len(lines) == n
            assert all(line.startswith(FLOAT_FMT % m1 + ",") for line in lines)

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

    def test_builds_the_ring_shape_once(self, monkeypatch):
        calls = []

        def spy(masses):
            calls.append(masses)
            return shape(masses)

        shape = fixedpoints.shape_from_masses
        monkeypatch.setattr(fixedpoints, "shape_from_masses", spy)
        monkeypatch.setattr(reduction, "shape_from_masses", spy)
        argv = ["fixed-point", "--masses", "0.2", "0.5", "0.3", "--solve"]
        code, out, _ = run_in_process(argv)
        assert code == 0 and "[solver]" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_start_exits_2(self, bad):
        code, out, err = run_in_process(
            ["fixed-point", "--masses", "1", "1", "1", "--solve", "--initial", "0", bad, "4"]
        )
        assert (code, out, err) == (2, "", "error: longitudes contains a non-finite entry\n")

    @pytest.mark.parametrize(
        "command, flags", [("fixed-point", ["--solve"]), ("stability", ["--omega", "1.3"])]
    )
    def test_masses_whose_sum_overflows_report_as_equal_masses(self, command, flags):
        huge = run_in_process([command, "--masses", "1e308", "1e308", "1e308", *flags])
        assert huge == run_in_process([command, "--masses", "1", "1", "1", *flags])
        assert huge[0] == 0


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

    @pytest.mark.parametrize("omega", ["1e10", "1e100"])
    def test_huge_rate_splitting_is_finite_and_imaginary(self, omega):
        # omega^2 entries beside couplings of size 1: no overflow warning, and
        # neither the rate-free tangential pairs nor the vertical pair take on
        # a real part, since the ring is linearly stable there
        code, out, err = run_in_process(
            ["stability", "--masses", "0.2", "0.5", "0.3", "--omega", omega]
        )
        assert (code, err) == (0, "")
        report = parse_report(out)
        assert report["classification.verdict"] == "re-linearly-stable"
        numeric = [complex(z) for z in report["spectrum.transverse_numeric"].split()]
        analytic = [complex(z) for z in report["spectrum.transverse_analytic"].split()]
        assert [z.real for z in numeric] == [0.0] * 6
        # sqrt halves the few roundings in lambda1 - omega^2 and x * y
        for got, want in zip(numeric, analytic):
            assert abs(got - want) <= 4 * sys.float_info.epsilon * abs(want)
        assert float(report["spectrum.reduced_max_real"]) == 0.0
        for key in ("symmetry_residual", "transverse_residual", "reduced_residual"):
            assert 0.0 <= float(report["subspaces." + key]) < 1e-15


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

    @pytest.mark.parametrize(
        "masses, omega",
        [(("0.2", "0.5", "0.3"), "0.77"), (("1", "1", "1"), "0")],
        ids=["subcritical", "fixed-point"],
    )
    def test_growth_mode_too_short_to_grow_is_no_window(self, capsys, masses, omega):
        # an unstable rate whose deviation never reaches the fit window is
        # not evidence of stability: the report says so and gives the rate
        # the run would have measured
        argv = ["simulate", "--masses", *masses, "--omega", omega, "--mode",
                "growth", "--horizon", "2", "--step", "0.01"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        report = parse_report(out)
        assert report["growth.outcome"] == "no-growth-window"
        blocks = stability.ring_pipeline(tuple(map(float, masses)))[3]
        lam1 = stability.vertical_mode(blocks)[0]
        expected = math.sqrt(lam1 - float(omega) ** 2)
        assert float(report["growth.expected_rate"]) == expected
        # the seeded unstable mode has grown, if not into the window
        assert float(report["growth.max_deviation"]) > float(report["growth.amplitude"])

    def test_growth_mode_assembles_once_with_the_residual_override(
        self, capsys, monkeypatch
    ):
        tolerances = []
        assemble = stability.assemble_blocks

        def spy(masses, ring, residual_tol=stability.FIXED_POINT_TOL):
            tolerances.append(residual_tol)
            return assemble(masses, ring, residual_tol=residual_tol)

        monkeypatch.setattr(stability, "assemble_blocks", spy)
        monkeypatch.setattr(dynamics, "assemble_blocks", spy)
        argv = ["simulate", "--masses", "1", "1", "1", "--mode", "growth",
                "--horizon", "1", "--step", "0.01",
                "--tolerance-overrides", '{"residual": 1e-3}']
        code, _, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        assert tolerances == [1e-3]

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

    def test_perturbed_seed_defaults_to_zero(self, capsys, tmp_path):
        argv = ["simulate", "--masses", "1", "1", "1", "--mode", "perturbed",
                "--horizon", "0.1"]
        default = run_cli(argv + ["--output", str(tmp_path / "a.csv")], capsys)
        zero = run_cli(argv + ["--seed", "0", "--output", str(tmp_path / "b.csv")], capsys)
        assert default[0] == 0 and default == zero
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--seed", "9"], "--seed"),
            (["--mode", "growth", "--seed", "9"], "--seed"),
            (["--amplitude", "5"], "--amplitude"),
            (["--mode", "re", "--amplitude", "nan"], "--amplitude"),
            (["--seed", "9", "--amplitude", "5"], "--seed"),
        ],
    )
    def test_flag_the_mode_does_not_read_is_rejected(self, capsys, tmp_path, extra, flag):
        out_file = tmp_path / "out.csv"
        argv = ["simulate", "--masses", "1", "1", "1", "--horizon", "0.05",
                "--output", str(out_file)]
        code, out, err = run_cli(argv + extra, capsys)
        mode = extra[1] if extra[0] == "--mode" else "re"
        assert (code, out) == (2, "")
        assert err == "error: --mode %s does not read %s\n" % (mode, flag)
        assert not out_file.exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: 9}))
        code, _, err = run_cli(argv + ["--mode", mode, "--config", str(cfg)], capsys)
        assert code == 2 and flag in err

    @pytest.mark.parametrize(
        "extra, cause",
        [
            (["--omega", "1e6", "--horizon", "0.1"], "body 1 at the polar guard"),
            (["--omega", "1e100", "--mode", "growth"],
             "bodies 1 and 2 at collision (separation sine 0)"),
        ],
    )
    def test_step_failure_at_large_rate_names_omega_h(self, capsys, extra, cause):
        argv = ["simulate", "--masses", "1", "1", "1"]
        code, out, err = run_cli(argv + extra, capsys)
        omega_h = float(extra[1]) * 1e-3
        assert (code, out) == (3, "")
        assert err == "error: %s; omega*h = %g is at least 1, try a smaller --step\n" % (
            cause,
            omega_h,
        )

    def test_rk45_run_whose_pace_is_too_slow_exits_3(self, capsys):
        # the run needs about 1e150 periods, and its pace ends it early;
        # scipy's first-step estimate overflows on the way, which numpy
        # reports as a RuntimeWarning (an error under this suite's filters),
        # so the run ignores those warnings
        argv = ["simulate", "--masses", "1", "1", "1", "--omega", "1e150",
                "--method", "rk45", "--horizon", "0.01"]
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: adaptive integration reached t = ")
        assert err.endswith(
            " of 0.01 in 10000 field evaluations, a pace that needs more than 10000000\n"
        )

    def test_rk45_run_whose_pace_is_too_slow_prints_only_its_error(self):
        # in a process of its own, under Python's default warning filters:
        # the overflow in scipy's first-step estimate prints no warning
        code, out, err = run_alone(["simulate", "--masses", "1", "1", "1", "--omega",
                                    "1e150", "--method", "rk45", "--horizon", "0.01"])
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert err.startswith("error: adaptive integration reached t = ")

    @pytest.mark.parametrize(
        "omega, horizon, step", [("1.3", "1", "0.5"), ("1000", "0.1", "0.001")]
    )
    def test_rk45_run_over_few_fixed_steps_returns(self, capsys, omega, horizon, step):
        # each needs more field evaluations than 100 per fixed step: a coarse
        # step, and a fast rate that also passes one pace check
        argv = ["simulate", "--masses", "0.2", "0.5", "0.3", "--omega", omega,
                "--mode", "perturbed", "--horizon", horizon, "--step", step,
                "--method", "rk45"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert "method: rk45" in out

    @pytest.mark.parametrize(
        "amplitude, horizon, body", [("5", "0.1", 2), ("3", "2", 3)]
    )
    def test_rejected_perturbed_start_is_named(self, capsys, amplitude, horizon, body):
        argv = ["simulate", "--masses", "1", "1", "1", "--mode", "perturbed",
                "--amplitude", amplitude, "--horizon", horizon]
        err = "error: perturbed start (amplitude %s, seed 0): body %d at the polar guard\n"
        assert run_cli(argv, capsys) == (2, "", err % (amplitude, body))

    def test_step_failure_below_unit_omega_h_keeps_its_message(self, capsys):
        argv = ["simulate", "--masses", "1", "1", "1", "--mode", "perturbed",
                "--amplitude", "1", "--horizon", "1", "--omega", "500"]
        code, _, err = run_cli(argv, capsys)
        assert code == 3
        assert err == "error: implicit midpoint solve stalled (last update 1.47e-05, tol 1e-13)\n"

    def test_diverging_solve_at_a_large_step_is_a_step_failure(self, capsys):
        # at h = 0.1 the midpoint iteration of step 59 carries body 2 to the
        # pole, and the field's polar guard ends the run as a StepFailure
        argv = ["simulate", "--masses", "0.25", "0.45", "0.3", "--omega", "0",
                "--step", "0.1", "--horizon", "20", "--mode", "perturbed"]
        assert run_cli(argv, capsys) == (3, "", "error: body 2 at the polar guard\n")


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


class TestOptionTable:
    FLAGS = {
        "region-scan": {"--resolution"},
        "fixed-point": {
            "--masses",
            "--solve",
            "--initial",
            "--degrees",
            "--tolerance-overrides",
        },
        "stability": {"--masses", "--omega", "--degrees", "--tolerance-overrides"},
        "simulate": {
            "--masses",
            "--omega",
            "--mode",
            "--horizon",
            "--step",
            "--amplitude",
            "--record-stride",
            "--method",
            "--seed",
            "--tolerance-overrides",
        },
        "omega-sweep": {
            "--masses",
            "--omega-min",
            "--omega-max",
            "--count",
            "--tolerance-overrides",
        },
    }
    COMMON = {"-h", "--help", "--output", "--workers", "--config"}

    def test_each_command_takes_its_flags(self):
        subparsers = cli.build_parser()._subparsers._group_actions[0].choices
        assert set(subparsers) == set(self.FLAGS)
        for command, parser in subparsers.items():
            flags = {flag for action in parser._actions for flag in action.option_strings}
            assert flags == self.COMMON | self.FLAGS[command], command

    @pytest.mark.parametrize("argv", [[], *([c] for c in cli.COMMANDS)])
    def test_help_renders(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: curvednbody")
        assert "--workers" not in out

    def test_workers_hidden_but_accepted(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["omega-sweep", "--help"])
        assert "--workers" not in capsys.readouterr().out
        argv = ["omega-sweep", "--masses", "1", "1", "1", "--count", "3", "--workers", "2"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        assert "workers" not in cli._resolve_options(cli.build_parser().parse_args(argv))

    def test_shared_parser_keeps_no_state(self, monkeypatch):
        # usage lines wrap at the terminal width: fix it in and out of process
        monkeypatch.setenv("COLUMNS", "80")
        good = ["stability", "--masses", "1", "1", "1", "--omega", "1.3"]
        script = [
            good,
            ["stability", "--masses", "1", "1", "1", "--tolerance-overrides", "{x"],
            ["stability", "--masses", "1", "1"],
            good,
        ]
        in_turn = [run_in_process(argv) for argv in script]
        assert [code for code, _, _ in in_turn] == [0, 2, 2, 0]
        assert in_turn == [run_alone(argv) for argv in script]


class TestAtomicWrite:
    def test_chunks_write_the_same_bytes_as_the_joined_string(self, tmp_path):
        chunks = ["a,b\n", "", "1,2\n", "3,4\n"]
        text = ChunkedText(lambda: chunks)
        atomic_write_text(str(tmp_path / "joined.csv"), "".join(chunks))
        atomic_write_text(str(tmp_path / "chunks.csv"), text)
        written = (tmp_path / "chunks.csv").read_bytes()
        assert written == (tmp_path / "joined.csv").read_bytes()
        assert text.encode() == written

    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "mixed.csv"
        rows = [
            (0.1, np.float64(-0.0), np.int64(-2), True, np.bool_(False), "re-unstable", 1 - 2j),
            (1e300, np.float64(2.5), np.int64(7), False, np.bool_(True), "none", -0.5 + 0.25j),
        ]
        write_csv(str(path), list("abcdefg"), iter(rows))
        assert path.read_bytes() == (
            b"a,b,c,d,e,f,g\n"
            b"0.10000000000000001,-0,-2,yes,no,re-unstable,1-2j\n"
            b"1.0000000000000001e+300,2.5,7,no,yes,none,-0.5+0.25j\n"
        )

    @pytest.mark.parametrize(
        "column",
        [
            [0.1 + 0.2] * 4,  # one float object throughout
            [0.0, -0.0, 0.0, -0.0],  # equal, but "0" and "-0"
            [float("inf"), float("nan"), -float("inf"), 1.5],
            ["stable", "re-unstable", "none", "stable"],
            [0.5, np.float64(0.25), 1.0, 1e-300],
        ],
        ids=["one object", "signed zeros", "inf and nan", "str", "one float64"],
    )
    @pytest.mark.parametrize("block_rows", [CSV_BLOCK_ROWS, 3])
    def test_write_csv_columns_match_per_row_formatting(
        self, monkeypatch, tmp_path, column, block_rows
    ):
        monkeypatch.setattr("curvednbody.report.CSV_BLOCK_ROWS", block_rows)
        path = tmp_path / "columns.csv"
        rows = [(float(k), value, k) for k, value in enumerate(column)]
        write_csv(str(path), ["k", "value", "n"], iter(rows))
        want = [",".join(["k", "value", "n"])] + [",".join(map(fmt, row)) for row in rows]
        assert path.read_text() == "\n".join(want) + "\n"

    def test_write_csv_without_rows_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(str(path), ["omega", "verdict"], iter([]))
        assert path.read_bytes() == b"omega,verdict\n"

    @pytest.mark.parametrize("block_rows", [CSV_BLOCK_ROWS, 2])
    def test_write_csv_rejects_a_ragged_row(self, monkeypatch, tmp_path, block_rows):
        # with blocks of two rows the short row is a block of its own
        monkeypatch.setattr("curvednbody.report.CSV_BLOCK_ROWS", block_rows)
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError):
            write_csv(str(path), ["a", "b"], [(0.5, 1.5), (1.0, 2.0), (2.5,)])
        assert not path.exists()


@pytest.mark.parametrize(
    "value, text",
    [
        (0.1, "0.10000000000000001"),
        (-0.0, "-0"),
        (float("inf"), "inf"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.1), "0.10000000149011612"),
        (True, "yes"),
        (np.bool_(False), "no"),
        (3, "3"),
        (np.int64(-2), "-2"),
        (1 - 2j, "1-2j"),
        ("none", "none"),
    ],
)
def test_fmt_renders_each_kind_of_scalar(value, text):
    assert fmt(value) == text


# Every error type of curvednbody.errors with the exit code of its category:
# 2 for an InputError, 3 for a NumericalFailure, 1 otherwise.  A new error
# type must join this table with the code of the category it subclasses.
EXIT_CODES = {
    "CurvedNBodyError": 1,
    "IOFailure": 1,
    "InputError": 2,
    "InvalidConfiguration": 2,
    "SingularConfiguration": 2,
    "PolarSingularity": 2,
    "NonpositiveMass": 2,
    "NotAdmissible": 2,
    "DegenerateShape": 2,
    "InconsistentPair": 2,
    "NumericalFailure": 3,
    "NoConvergence": 3,
    "NotAFixedPoint": 3,
    "DegenerateSpectrum": 3,
    "StepFailure": 3,
    "NoGrowthWindow": 3,
}


def test_exit_code_table_lists_every_error_type():
    names = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.CurvedNBodyError)
    }
    assert names == set(EXIT_CODES)


@pytest.mark.parametrize("name", EXIT_CODES)
def test_error_type_exits_with_its_category_code(monkeypatch, name):
    def fail(opts):
        raise getattr(errors, name)("forced %s" % name)

    monkeypatch.setitem(cli.HANDLERS, "stability", fail)
    code, out, err = run_in_process(["stability", "--masses", "1", "1", "1"])
    assert (code, out, err) == (EXIT_CODES[name], "", "error: forced %s\n" % name)


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

    @pytest.mark.parametrize("masses", [[1, 1], [1, 1, 1, 1]], ids=["two", "four"])
    def test_config_needs_three_masses(self, capsys, tmp_path, masses):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"masses": masses}))
        code, out, err = run_cli(["stability", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --masses takes exactly three values\n"

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
        # one config value per option, against the flag that gives the same value
        cases = {
            "output": ("out.txt", ["--output", "out.txt"]),
            "seed": ("3", ["--seed", "3"]),
            "tolerance_overrides": (
                {"newton": "1e-9"},
                ["--tolerance-overrides", '{"newton": 1e-9}'],
            ),
            "degrees": (True, ["--degrees"]),
            "resolution": ("64", ["--resolution", "64"]),
            "masses": (["1", 2, 1.5], ["--masses", "1", "2", "1.5"]),
            "solve": (True, ["--solve"]),
            "initial": (["0", 2, 4.5], ["--initial", "0", "2", "4.5"]),
            "omega": ("1.3", ["--omega", "1.3"]),
            "mode": ("growth", ["--mode", "growth"]),
            "horizon": ("2.5", ["--horizon", "2.5"]),
            "step": ("0.01", ["--step", "0.01"]),
            "amplitude": ("1e-3", ["--amplitude", "1e-3"]),
            "record_stride": ("5", ["--record-stride", "5"]),
            "method": ("rk45", ["--method", "rk45"]),
            "count": ("7", ["--count", "7"]),
            "omega_min": ("0.5", ["--omega-min", "0.5"]),
            "omega_max": ("1.5", ["--omega-max", "1.5"]),
        }
        assert list(cases) == [option.name for option in cli.OPTIONS]
        parser = cli.build_parser()
        for option in cli.OPTIONS:
            value, flag = cases[option.name]
            command = option.commands[-1]
            base = [command]
            if command != "region-scan" and option.name != "masses":
                base += ["--masses", "1", "1", "1"]
            if option.name in ("seed", "amplitude"):
                base += ["--mode", "perturbed"]  # --mode re reads neither
            cfg.write_text(json.dumps({option.name: value}))
            argv = base + ["--config", str(cfg)]
            from_config = cli._resolve_options(parser.parse_args(argv))
            from_flag = cli._resolve_options(parser.parse_args(base + flag))
            assert repr(from_config) == repr(from_flag), option.name
            assert from_flag[option.name] != option.default, option.name

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

    @pytest.mark.parametrize("name", ["residual", "newton", "consistency"])
    @pytest.mark.parametrize("value", ["-1", "0", '"nan"', '"inf"'])
    def test_tolerance_must_be_finite_and_positive(self, capsys, name, value):
        # fixed-point --solve reads newton and consistency, stability residual;
        # every command that takes the overrides rejects them before any work
        for argv in (
            ["fixed-point", "--masses", "0.2", "0.5", "0.3", "--solve"],
            ["stability", "--masses", "0.2", "0.5", "0.3", "--omega", "1"],
            ["simulate", "--masses", "1", "1", "1", "--horizon", "0.01"],
            ["omega-sweep", "--masses", "1", "1", "1", "--count", "2"],
        ):
            override = '{"%s": %s}' % (name, value)
            code, out, err = run_cli(argv + ["--tolerance-overrides", override], capsys)
            assert (code, out) == (2, "")
            assert err == "error: tolerance %s must be finite and positive, not %r\n" % (
                name, float(json.loads(value)))

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
            ["simulate", "--omega", "nan", "--mode", "re"],
            ["simulate", "--omega", "inf", "--mode", "re"],
            ["simulate", "--omega", "nan", "--mode", "growth"],
            ["simulate", "--omega", "inf", "--mode", "growth"],
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

    @pytest.mark.parametrize("amplitude", ["0", "-0", "-1e-6"])
    def test_nonpositive_growth_amplitude_rejected(self, capsys, tmp_path, amplitude):
        out_file = tmp_path / "out.txt"
        code, out, err = run_cli(
            ["simulate", "--masses", "0.2", "0.5", "0.3", "--omega", "0.77", "--mode",
             "growth", "--amplitude=" + amplitude, "--horizon", "50",
             "--output", str(out_file)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: amplitude %r is not positive\n" % float(amplitude)
        assert not out_file.exists()

    def test_perturbed_mode_takes_a_negative_amplitude(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--masses", "1", "1", "1", "--mode", "perturbed",
             "--amplitude=-1e-3", "--horizon", "0.1"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert "energy_drift" in out

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


# Config files the pinned commands read: a JSON object, or raw text.
PINNED_CONFIGS = {
    "rates.json": {"masses": [0.2, 0.5, 0.3], "omega": 0.77},
    "count.json": {"masses": [1, 1, 1], "count": "x"},
    "omega.json": {"masses": [1, 1, 1], "omega": "fast"},
    "mass_text.json": {"masses": [1, 1, "a"]},
    "mass_number.json": {"masses": 5},
    "mode.json": {"masses": [1, 1, 1], "mode": "bogus"},
    "degrees.json": {"masses": [1, 1, 1], "degrees": "no"},
    "output.json": {"masses": [1, 1, 1], "output": 7},  # the --output flag wins
    "broken.json": "[1, 2",
    "list.json": "[1, 2]",
}

# Each command runs with "--output out" appended, in a directory holding the
# PINNED_CONFIGS files.  The values are the exit code and the sha256 of
# stdout, stderr and the output file (None when no file is written).  They
# pin the bytes of the CLI for the numpy and scipy versions CI installs.
PINNED = {
    # the commands of the benchmark's cli workload, on fixed masses
    "region-scan --resolution 512": (
        0,
        "b5b26322f8fe5358cc6b7fe96edc0855d8980cf013f0300931d6012ad46dc5f7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7afcc9e5ef2dc050beac78c11153d816e6d89844414531963a4459c71c86ef26",
    ),
    "fixed-point --masses 0.2 0.5 0.3 --solve --degrees": (
        0,
        "c421bb5b3adfb306e3d90d199af036bc4d179abdc49e5001c696e8a12580a99b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c421bb5b3adfb306e3d90d199af036bc4d179abdc49e5001c696e8a12580a99b",
    ),
    "stability --masses 0.2 0.5 0.3 --omega 2.3": (
        0,
        "0fa56757834db7df29546b6a969843c8031b9a5603a9c100dfc22212ae1eecc6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0fa56757834db7df29546b6a969843c8031b9a5603a9c100dfc22212ae1eecc6",
    ),
    # rates whose square dwarfs the ring's couplings: the splitting stays
    # finite, and the transverse spectrum purely imaginary
    "stability --masses 0.2 0.5 0.3 --omega 1e10": (
        0,
        "b88ecec7488a42591cb8bbbc89a70441b285df15814cd6eb2bf4b9fb6599cd59",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b88ecec7488a42591cb8bbbc89a70441b285df15814cd6eb2bf4b9fb6599cd59",
    ),
    "stability --masses 0.2 0.5 0.3 --omega 1e100": (
        0,
        "187b0862c18d4643befcbfc27bef096e44a50a83efb8659dfa56b66330985740",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "187b0862c18d4643befcbfc27bef096e44a50a83efb8659dfa56b66330985740",
    ),
    "simulate --masses 0.2 0.5 0.3 --omega 2.3 --mode re --horizon 1.0": (
        0,
        "e1aa528d681ed824e81e716fc3475e7366392695d9977e602d1f0ac320fa27e9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "195928865c641eb2fa093d879844a63c67a38046290bc04aa0ae42cf2dde1959",
    ),
    "simulate --masses 0.2 0.5 0.3 --omega 2.3 --mode perturbed --horizon 1.0 --seed 12345": (
        0,
        "4f6a52d23c6e17a4990f640d560d95198889dc0b3ab3c1d7c7076be60395d4bc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5b34f6f13e033a206a9156f3b8564e5ac94a73b0be127be87acc2f6b6a6902e3",
    ),
    "simulate --masses 0.2 0.5 0.3 --omega 0.77 --mode growth --horizon 200 --step 0.01": (
        0,
        "092bbc84029592518d7abd03deb237f6a57f953153ddb45acd8ea2bb848c9130",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3e9a7af91fe5f1b270c6c43f8e5238168c1b6296773518a4a1ad8cbfdd763da0",
    ),
    "omega-sweep --masses 0.2 0.5 0.3 --omega-min 0 --omega-max 3.0634 --count 2001 --workers 2": (
        0,
        "b7b49a4567a7b9d11b9976f92ff1f37759c5f54cc4fa72d609be628d6fdd6b92",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "80ae673233f1f2f2492446e71d7bfd3649cd5d625b5a25838d9e59fb254c8eb5",
    ),
    "stability --config rates.json": (
        0,
        "d9c2b27974b0f10f26a445709ca94d25b61884a5e4e3da30fccf632b8890f76a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d9c2b27974b0f10f26a445709ca94d25b61884a5e4e3da30fccf632b8890f76a",
    ),
    # a grid whose mirrored values differ in bits in many cells
    "region-scan --resolution 333": (
        0,
        "2dcb0476171558879dd8facc5a21f5236771b354593b400010dcc7b0e04b5795",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c8427e230fd3b31ac2a0436da4f379220923df006d63ece55aa671115343b2f5",
    ),
    # the error exits of this file's tests
    "region-scan --resolution 1": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bbba632f7c00e5e65c7e4b67751e262b9ebcbe4ef81650d222ec085fd5903555",
        None,
    ),
    "omega-sweep --config count.json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "44c83f93b8817892145bab209ae317923bda83660c8a48e2d2186d01e2deb765",
        None,
    ),
    "stability --config omega.json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "feb3848b471f91f576d49b18936fab1ff5e93e0a8fd5b1abd60563d2bad2c01e",
        None,
    ),
    "stability --config mass_text.json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4a154e16641b102f1a4533269b98da6d53e6e5ca3fef9185478c7f1cc920c284",
        None,
    ),
    "stability --config mass_number.json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b7138e05abea572ea62971413170baec50c27ece014476a42499fe8b33900999",
        None,
    ),
    "simulate --config mode.json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "266477b165790b0548dd386dc6c7a168a4a8f3ff03bf8d1f9cc021b71ab9e243",
        None,
    ),
    "fixed-point --config degrees.json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5d1bb7c15b511d7ae15cb3f8f6a44c819c9fb0596d4428e31ae635de23cbea6d",
        None,
    ),
    "stability --config output.json": (
        0,
        "6adbdf11042008ef3110c9e086de991b96c60976fdada7a5477731830814f8b6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6adbdf11042008ef3110c9e086de991b96c60976fdada7a5477731830814f8b6",
    ),
    "stability": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ca60ad36947a31f00544b2d55f68d00635d7484f0326dd705b6abdfdc3cd9948",
        None,
    ),
    "stability --masses 0.5 0.49 0.01": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4838c177924900ab30de888af7bcd763ca2f27b586be6f821889e98ef420c6af",
        None,
    ),
    "stability --masses 1 1 1 --tolerance-overrides '{oops'": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7b887aecf564780207957d1bc29443c63507ebe8f72db1e26ecc1fa375a02221",
        None,
    ),
    """stability --masses 1 1 1 --tolerance-overrides '{"bogus": 0.1}'""": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "33c0ae37cc6fd23513bde528cdf220282a95584ffe45665a4164848ae2a6459b",
        None,
    ),
    """stability --masses 1 1 1 --tolerance-overrides '{"residual": "abc"}'""": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6d4b5b0f1a16717bc470f2f53e49a364514e5af9781f3e05ae8fa4dde86ce0d6",
        None,
    ),
    "stability --config absent.json": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cb5a65d83d11e5c01a0e8a33fe7fbdbb3bda5f04a9d4fc7cda05df7ade3f48fa",
        None,
    ),
    "stability --config broken.json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1969a37e2fff379584398283f061dc5acd7a0c46dd3c5360abf894c54602344b",
        None,
    ),
    "stability --config list.json": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3de5446e87c4b12ba56f1853388503fe0b8a364932a48518cd01f2f5bd05d52e",
        None,
    ),
    "simulate --masses 1 1 1 --mode growth --method rk45": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "68cc4fc94ffd06581a4147d3b2420c4e1e0e127d236ffd9b789343a6c6a84b95",
        None,
    ),
    "stability --masses 1 1 1 --omega nan": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ce3e6ad11aabe744293fda0da8cc0478466f68de8bd656892dfd36a9ff4081ba",
        None,
    ),
    "stability --masses 1 1 1 --omega inf": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6474f4c774d3896e7d902434e25a053b8166f7c6bd47412a13a58b60e87cad51",
        None,
    ),
    "omega-sweep --masses 1 1 1 --omega-max nan --count 3": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ce3e6ad11aabe744293fda0da8cc0478466f68de8bd656892dfd36a9ff4081ba",
        None,
    ),
    "omega-sweep --masses 1 1 1 --omega-min nan --count 3": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ce3e6ad11aabe744293fda0da8cc0478466f68de8bd656892dfd36a9ff4081ba",
        None,
    ),
    "stability --masses 1 1 1 --omega 1e200": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0206a875715fb659d363ef745e38e4aa7497e70195d1864134d15d201c2a323d",
        None,
    ),
    "omega-sweep --masses 1 1 1 --omega-max 1e200": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0206a875715fb659d363ef745e38e4aa7497e70195d1864134d15d201c2a323d",
        None,
    ),
    "simulate --masses 1 1 1 --omega 1e200 --mode re": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0206a875715fb659d363ef745e38e4aa7497e70195d1864134d15d201c2a323d",
        None,
    ),
    "simulate --masses 1 1 1 --omega=-1e200 --mode perturbed": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a38add7af797c07265b813d8c10e0fc9e93ecd44e4ed855a0bf51c534f4e6cf3",
        None,
    ),
    "simulate --masses 1 1 1 --omega 1e200 --mode growth": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0206a875715fb659d363ef745e38e4aa7497e70195d1864134d15d201c2a323d",
        None,
    ),
    "simulate --masses 1 1 1 --omega nan --mode re": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ce3e6ad11aabe744293fda0da8cc0478466f68de8bd656892dfd36a9ff4081ba",
        None,
    ),
    "simulate --masses 1 1 1 --omega inf --mode re": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6474f4c774d3896e7d902434e25a053b8166f7c6bd47412a13a58b60e87cad51",
        None,
    ),
    "simulate --masses 1 1 1 --omega nan --mode growth": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ce3e6ad11aabe744293fda0da8cc0478466f68de8bd656892dfd36a9ff4081ba",
        None,
    ),
    "simulate --masses 1 1 1 --omega inf --mode growth": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6474f4c774d3896e7d902434e25a053b8166f7c6bd47412a13a58b60e87cad51",
        None,
    ),
    "simulate --masses 1 1 1 --mode perturbed --amplitude nan --horizon 0.1": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "556deff1b568a3033088843bb8c9b6b5900530863a4340f8a03553fea6fc4e7b",
        None,
    ),
    "simulate --masses 1 1 1 --mode perturbed --amplitude inf --horizon 0.1": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "597d2d5abe0bd799ace3a17118d4d2e7200f5bce6183c19cf2d8955c42b590b9",
        None,
    ),
    # a finite amplitude that pushes the seeded start off the chart
    "simulate --masses 1 1 1 --mode perturbed --amplitude 5 --horizon 0.1": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "beddb99cc6a2f2cc79b03f370bbf6acd9cee15f295650f6048e641e6b92ec0a7",
        None,
    ),
    "simulate --masses 1 1 1 --mode growth --amplitude nan --horizon 0.1": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "556deff1b568a3033088843bb8c9b6b5900530863a4340f8a03553fea6fc4e7b",
        None,
    ),
    "simulate --masses 1 1 1 --mode growth --amplitude inf --horizon 0.1": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "597d2d5abe0bd799ace3a17118d4d2e7200f5bce6183c19cf2d8955c42b590b9",
        None,
    ),
    "simulate --masses 1 1 1 --step 0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "62a47e05c3837d84c6d6922e48f8c01ee4868405b49d92d24ab410eb93148dcb",
        None,
    ),
    "simulate --masses 1 1 1 --step -0.001": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d79dd6b31c30109b9e1ec3dac61232854d3cc5ae828d2defd8c96324c6a086a5",
        None,
    ),
    "simulate --masses 1 1 1 --step nan": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4897684a5692ef0c369d63098463fcb87235334ccda29479e2f4c5641960a338",
        None,
    ),
    "simulate --masses 1 1 1 --horizon nan": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f71461655561251927108ad2fd7b0a73d2b770682da10dc972d31ca906ebd55e",
        None,
    ),
    "simulate --masses 1 1 1 --horizon inf": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4037fdc474bfba24fca9f31bff6f663234ed5758ecaf256c5b53def765ced038",
        None,
    ),
    "simulate --masses 1 1 1 --record-stride 0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "38527a5aa878b5d2a06425a63f3a3196f143faf5b598cf4dcb16ff1a5135c98e",
        None,
    ),
    "simulate --masses 1 1 1 --mode growth --record-stride 0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "38527a5aa878b5d2a06425a63f3a3196f143faf5b598cf4dcb16ff1a5135c98e",
        None,
    ),
    "simulate --masses 1 1 1 --mode growth --horizon 0.004 --step 0.01": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e33e2822761bfe4674d1df9d72c83a120d8207a5c3682c8ecea3bffb0a0ff62d",
        None,
    ),
    # the range checks of the option table
    "omega-sweep --masses 1 1 1 --count 0": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7a3939a0705fb15bf1b2f683bd5772b7cf9b071d9a0032b650400b67939a6853",
        None,
    ),
    "omega-sweep --masses 1 1 1 --omega-min 2 --omega-max 1": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ede8854de0eef049ca1928ceb236e68ea1e48e099f757d0cf54b910a6e6d545c",
        None,
    ),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_pinned(command):
    """Exit code and digests of one pinned command, run in the current directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(shlex.split(command) + ["--output", "out"])
    written = None
    if os.path.exists("out"):
        with open("out", "rb") as fh:
            written = _sha(fh.read())
    return (
        code,
        _sha(stdout.getvalue().encode()),
        _sha(stderr.getvalue().encode()),
        written,
    )


def write_pinned_configs():
    for name, content in PINNED_CONFIGS.items():
        with open(name, "w") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))


@pytest.mark.parametrize("command", sorted(PINNED), ids=lambda c: c.replace(" ", "_"))
def test_pinned_bytes(monkeypatch, tmp_path, command):
    monkeypatch.chdir(tmp_path)
    write_pinned_configs()
    assert run_pinned(command) == PINNED[command]
