"""Tests for the command-line front end.

Invocations go through ``main(argv)`` in-process; ``TestEntryPoint`` runs
fresh interpreters, through the ``python -m wergm`` process entry among
others.  The focus is plumbing — formats,
determinism, and the error contract — not numerical depth, which the
module tests own.
"""

import csv
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from wergm.cli import main
from wergm.critical import find_theta0


def _bad_inputs():
    """``scripts/compare_outputs.py``'s malformed commands, one list for both.

    Loading the script puts ``scripts`` and ``perfbench`` on ``sys.path``;
    the path is restored so that no test imports from them by accident.
    """
    path = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    script = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    try:
        spec.loader.exec_module(script)
    finally:
        sys.path[:] = saved
    return script.BAD_INPUTS


BAD_INPUTS = _bad_inputs()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestRateCommand:
    def test_grid_and_symmetry(self, capsys):
        code, out, err = run_cli(capsys, "rate", "--u", "0.1:0.9:9")
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["u", "rate", "rate_d1", "rate_d2"]
        assert len(rows) == 9
        values = {float(r[0]): float(r[1]) for r in rows}
        for u in (0.1, 0.2, 0.3, 0.4):
            assert abs(values[u] - values[round(1.0 - u, 10)]) <= 1e-10

    def test_scalar_and_atoms(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--u", "0.5", "--atoms", "0.2=0.5,0.8=0.5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert abs(float(rows[0][1])) <= 1e-12  # at the prior mean

    def test_count_of_one_is_the_low_end(self, capsys):
        code, out, err = run_cli(capsys, "rate", "--u", "0.3:0.7:1")
        assert code == 0 and err == ""
        assert out == (
            "u,rate,rate_d1,rate_d2\n0.3,0.252845563004,-2.67210385527,16.5823125717\n"
        )

    def test_support_error_record(self, capsys):
        code, out, err = run_cli(capsys, "rate", "--u", "1.5")
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["module"] == "cramer"
        assert record["offending_parameter"] == "u"
        assert "message" in record and "operation" in record

    def test_bad_range_syntax(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--u", "0.1:0.9")
        assert code == 1
        assert json.loads(err)["module"] == "cli"


class TestPsiCommand:
    def test_two_phase_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "psi", "--p", "2", "--beta1", "-5", "--beta2", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "two-global"
        np.testing.assert_allclose(payload["psi"], -1.0854, atol=1e-3)
        np.testing.assert_allclose(payload["maximizers"], [0.137, 0.863], atol=1e-3)
        assert payload["includes_endpoint"] is False

    def test_single_top_level_object(self, capsys):
        _, out, _ = run_cli(capsys, "psi", "--p", "3", "--beta1", "1", "--beta2", "1")
        payload = json.loads(out)  # would fail on concatenated objects
        assert isinstance(payload, dict)

    def test_fair_coin_law(self, capsys):
        # With beta1 = -beta2 the p = 2 objective is beta2*(u - 1/2)**2 -
        # beta2/4 - rate(u)/2, and rate(u) >= 2*(u - 1/2)**2 (Pinsker), so for
        # beta2 < 1 its unique maximizer is 1/2: psi = -beta2/4.
        code, out, err = run_cli(
            capsys, "psi", "--p", "2", "--beta1", "-0.5", "--beta2", "0.5",
            "--dist", "bernoulli-half",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["psi"] == -0.125
        assert payload["maximizers"] == [0.5]
        assert payload["classification"] == "unique"

    def test_nan_atom_probability_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "psi", "--p", "2", "--beta1", "-1", "--beta2", "1",
            "--atoms", "0.2=nan,0.8=0.5",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["operation"] == "EdgeDistribution"
        assert record["offending_parameter"] == "atoms"


class TestCriticalTableCommand:
    def test_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "critical-table", "--p", "2,3,5,10")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "p", "theta0", "n_theta0", "u0", "m_u0", "g_theta0", "f_u0",
            "beta1_c", "beta2_c",
        ]
        table = {int(r[0]): [float(x) for x in r[1:]] for r in rows}
        # (theta0, n_theta0, u0, m_u0) four-decimal references.
        np.testing.assert_allclose(
            table[2][:3] + [table[2][3]], [0.0, 0.3333, 0.5, 3.0], atol=5e-4
        )
        np.testing.assert_allclose(
            table[3][:4], [1.3251, 0.5575, 0.6073, 1.7937], atol=5e-4
        )
        np.testing.assert_allclose(
            table[5][:4], [2.9869, 0.8324, 0.7183, 1.2014], atol=5e-4
        )
        np.testing.assert_allclose(
            table[10][:4], [5.6256, 1.0894, 0.8259, 0.9180], atol=5e-4
        )

    def test_bad_p_list(self, capsys):
        code, _, err = run_cli(capsys, "critical-table", "--p", "2,x")
        assert code == 1
        assert json.loads(err)["offending_parameter"] == "p"

    def test_corner_past_first_scan_edge(self, capsys):
        # theta0 = p/2 = 60 here.
        code, out, _ = run_cli(capsys, "critical-table", "--p", "120")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["p"] == "120" and row["theta0"] == "60"
        # 50-digit mpmath corner.
        assert abs(float(row["beta1_c"]) - 15.126050420168067) <= 1e-9
        assert abs(float(row["beta2_c"]) - 0.91591351868930245) <= 1e-9

    def test_root_beyond_scan_edge(self, capsys):
        # theta0 is about p/2, past the evaluation cap THETA_MAX = 700.
        code, out, err = run_cli(capsys, "critical-table", "--p", "2000")
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["module"] == "critical"
        assert record["operation"] == "find_theta0"
        assert record["offending_parameter"] == "p"


class TestPhaseCurveCommand:
    def test_straight_line_rows(self, capsys):
        code, out, _ = run_cli(capsys, "phase-curve", "--p", "2", "--beta1", "-8:-4:3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["beta1", "r", "u1_star", "u2_star", "psi"]
        assert len(rows) == 3
        for row in rows:
            assert abs(float(row[1]) + float(row[0])) <= 1e-6

    def test_straight_line_prints_exactly(self, capsys):
        # At p = 2 the curve is r = -beta1; every row prints it to its last
        # printed digit.
        code, out, _ = run_cli(capsys, "phase-curve", "--p", "2", "--beta1", "-8:-3.1:8")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[1] for row in rows] == ["8", "7.3", "6.6", "5.9", "5.2", "4.5", "3.8", "3.1"]
        assert all(row[1] == row[0].lstrip("-") for row in rows)

    def test_no_region_error(self, capsys):
        code, _, err = run_cli(capsys, "phase-curve", "--p", "2", "--beta1", "-1")
        assert code == 1
        assert json.loads(err)["module"] == "phase_curve"

    @pytest.mark.parametrize("p,beta1,r", [
        ("150", "-19.5", 22.0582120586888),
        ("2", "-1000", 1000.0),
    ])
    def test_ties_past_the_tilt_window_are_traced(self, capsys, p, beta1, r):
        # The p = 150 corner is at beta1_c ~ +18.876; 38.4 below it the upper
        # maximum sits at theta ~ 6427.  50-digit mpmath reference for r; the
        # CLI prints 12 significant digits.
        code, out, err = run_cli(capsys, "phase-curve", "--p", p, f"--beta1={beta1}")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert abs(float(rows[0][1]) - r) <= 1e-11 * r


class TestFiguresCommand:
    def test_profiles_and_vregion(self, capsys, tmp_path):
        out_dir = tmp_path / "figs"
        code, out, _ = run_cli(
            capsys, "figures", "--p", "2", "--points=-5,3.5;-5,5",
            "--out-dir", str(out_dir), "--grid-points", "64",
            "--beta1", "-6:-4:5",
        )
        assert code == 0
        manifest = json.loads(out)
        assert len(manifest["files"]) == 3
        vregion_header, vregion_rows = parse_csv(
            (out_dir / "vregion.csv").read_text(encoding="utf-8")
        )
        assert vregion_header == ["beta1", "m_a", "m_b", "r"]
        assert len(vregion_rows) == 5
        for row in vregion_rows:
            assert float(row[2]) < float(row[3]) < float(row[1])  # m_b < r < m_a
        profile = next(name for name in manifest["files"] if "b2_3p5" in name)
        header, rows = parse_csv((out_dir / profile).read_text(encoding="utf-8"))
        assert header == ["u", "l", "l_d1"]
        assert len(rows) == 64
        # Unique-maximizer point: derivative changes sign exactly once.
        signs = np.sign([float(r[2]) for r in rows])
        assert int(np.sum(np.abs(np.diff(signs)) > 0)) == 1

    def test_vregion_of_a_deep_tie(self, capsys, tmp_path):
        # The tangency roots at beta1 = -1000 need tilts past the dual
        # solve's cap of 700; the bounds come from the tilts themselves.
        out_dir = tmp_path / "figs"
        code, _, err = run_cli(
            capsys, "figures", "--p", "2", "--points=-5,5", "--out-dir", str(out_dir),
            "--beta1", "-1000:-999:2",
        )
        assert code == 0 and err == ""
        _, rows = parse_csv((out_dir / "vregion.csv").read_text(encoding="utf-8"))
        assert [row[3] for row in rows] == ["1000", "999"]
        for row in rows:
            assert float(row[2]) < float(row[3]) < float(row[1])

    @pytest.mark.parametrize("grid_points", [
        "0", "-3",
        # Profile end points past the dual solve's cap, and rounded onto the
        # support's ends.
        "1000", pytest.param("1" + "0" * 400, id="401-digits"),
    ])
    def test_empty_profile_rejected(self, capsys, tmp_path, grid_points):
        out_dir = tmp_path / "figs"
        code, out, err = run_cli(
            capsys, "figures", "--p", "2", "--points=-5,3.5",
            "--out-dir", str(out_dir), "--grid-points", grid_points,
        )
        assert code == 1 and out == ""
        assert json.loads(err)["offending_parameter"] == "grid_points"
        assert not out_dir.exists()

    def test_first_profile_point_without_a_tilt_is_the_record(self, capsys, tmp_path):
        # The profile is solved before --out-dir is made, and the first point
        # is the one named: by symmetry it fails whenever any point does.
        out_dir = tmp_path / "figs"
        code, out, err = run_cli(
            capsys, "figures", "--p", "2", "--points=-5,3.5",
            "--out-dir", str(out_dir), "--grid-points", "700",
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "module": "cli",
            "operation": "figures",
            "message": "--grid-points 700 puts a profile point at u = "
                       "0.0014265335235378032: mean u = 0.00142653 needs a tilt "
                       "beyond the cap 700",
            "offending_parameter": "grid_points",
        }
        assert not out_dir.exists()

    def test_vregion_rows_come_from_the_public_functions(self, capsys, tmp_path, monkeypatch):
        # Each row is one bounding_point and one r_of_beta1 call, which a
        # tracer of the public functions counts.
        from wergm import phase_curve

        calls = []
        for name in ("bounding_point", "r_of_beta1"):
            def counted(p, beta1, fn=getattr(phase_curve, name), name=name):
                calls.append((name, beta1))
                return fn(p, beta1)

            monkeypatch.setattr(phase_curve, name, counted)
        code, _, err = run_cli(
            capsys, "figures", "--p", "3", "--points=-3,3.4", "--grid-points", "4",
            "--out-dir", str(tmp_path / "figs"), "--beta1", "-3.5:-2:4",
        )
        assert code == 0 and err == ""
        assert calls == [(name, beta1) for beta1 in (-3.5, -3.0, -2.5, -2.0)
                         for name in ("bounding_point", "r_of_beta1")]

    def test_failing_vregion_row_names_bounding_point(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "figures", "--p", "2", "--points=-5,3.5", "--grid-points", "4",
            "--out-dir", str(tmp_path / "figs"), "--beta1", "-4:-2:3",
        )
        assert code == 1 and out == ""
        record = json.loads(err)
        assert (record["module"], record["operation"]) == ("phase_curve", "bounding_point")
        assert record["offending_parameter"] == "beta1"

    @pytest.mark.parametrize("p", [2, 3])
    def test_default_vregion_grid(self, capsys, tmp_path, p):
        # Without --beta1 the V-region table has 25 rows from beta1_c - 5 to
        # beta1_c - 0.1.
        out_dir = tmp_path / "figs"
        code, _, err = run_cli(
            capsys, "figures", "--p", str(p), "--points=-5,5", "--grid-points", "4",
            "--out-dir", str(out_dir),
        )
        assert code == 0 and err == ""
        _, rows = parse_csv((out_dir / "vregion.csv").read_text(encoding="utf-8"))
        beta1 = [float(row[0]) for row in rows]
        beta1_c = find_theta0(p).beta1_c
        assert len(rows) == 25 and beta1 == sorted(beta1)
        assert math.isclose(beta1[0], beta1_c - 5.0, rel_tol=1e-11)
        assert math.isclose(beta1[-1], beta1_c - 0.1, rel_tol=1e-11)
        for row in rows:
            assert float(row[2]) < float(row[3]) < float(row[1])  # m_b < r < m_a
            if p == 2:
                assert row[3] == row[0].removeprefix("-")  # r = -beta1

    def test_out_dir_under_a_file_is_a_record(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out_dir = blocker / "figs"
        code, out, err = run_cli(
            capsys, "figures", "--p", "2", "--points=-5,3.5", "--out-dir", str(out_dir),
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "module": "cli",
            "operation": "figures",
            "message": f"cannot write to {str(out_dir)!r}: Not a directory",
            "offending_parameter": "out_dir",
        }

    @pytest.mark.parametrize("where, reason", [
        ("file/figs", "Not a directory"), ("file", "File exists"),
        ("file/../x", "Not a directory"), ("file/..", "Not a directory"),
        ("/dev/null/../figs", "Not a directory"), ("", "No such file or directory"),
        ("file/../file", "Not a directory"), ("adir/../file", "File exists"),
        ("missing/../file", "File exists"),
    ], ids=["under-a-file", "a-file", "through-a-file", "above-a-file",
            "through-a-device", "empty", "through-a-file-to-it",
            "through-a-dir-to-a-file", "through-a-missing-dir-to-a-file"])
    def test_unusable_out_dir_is_reported_before_any_work(
        self, capsys, tmp_path, monkeypatch, where, reason
    ):
        from wergm import cramer

        def fail(*args, **kwargs):
            raise AssertionError("a profile was solved before --out-dir was checked")

        monkeypatch.setattr(cramer, "dual_theta", fail)
        monkeypatch.chdir(tmp_path)  # where an empty --out-dir would write
        (tmp_path / "file").write_text("kept\n", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        out_dir = str(tmp_path / where) if where else ""
        code, out, err = run_cli(
            capsys, "figures", "--p", "2", "--points=-5,3.5", "--out-dir", out_dir,
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "module": "cli",
            "operation": "figures",
            "message": f"cannot write to {out_dir!r}: {reason}",
            "offending_parameter": "out_dir",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "file"]
        assert not any((tmp_path / "adir").iterdir())
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"

    def test_existing_out_dir_that_cannot_be_written_is_reported_before_any_work(
        self, capsys, tmp_path, monkeypatch
    ):
        from wergm import cramer

        def fail(*args, **kwargs):
            raise AssertionError("a profile was solved before --out-dir was checked")

        # The tests run as root, for whom os.access allows every write.
        monkeypatch.setattr(cramer, "dual_theta", fail)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        out_dir = tmp_path / "figs"
        out_dir.mkdir()
        code, out, err = run_cli(
            capsys, "figures", "--p", "2", "--points=-5,3.5", "--out-dir", str(out_dir),
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "module": "cli",
            "operation": "figures",
            "message": f"cannot write to {str(out_dir)!r}: Permission denied",
            "offending_parameter": "out_dir",
        }
        assert list(out_dir.iterdir()) == []

    def test_failing_write_leaves_no_table_it_made(self, capsys, tmp_path):
        # The write fails after the work, at vregion.csv; the profile it
        # made first is removed, and one that was there is kept.
        out_dir = tmp_path / "figs"
        (out_dir / "vregion.csv").mkdir(parents=True)
        kept = out_dir / "profile_p2_b1_m5_b2_5.csv"
        kept.write_text("old\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "figures", "--p", "2", "--points=-5,3.5;-5,5", "--grid-points", "4",
            "--beta1=-4:-3.5:2", "--out-dir", str(out_dir),
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "module": "cli",
            "operation": "figures",
            "message": f"cannot write to {str(out_dir / 'vregion.csv')!r}: Is a directory",
            "offending_parameter": "out_dir",
        }
        assert sorted(p.name for p in out_dir.iterdir()) == [kept.name, "vregion.csv"]


class TestSampleCommand:
    def test_csv_trajectory_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--p", "2", "--beta1", "0", "--beta2", "0",
            "--n", "8", "--sweeps", "12", "--burn-in", "4", "--seed", "5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["sweep", "t_edge", "t_sub"]
        assert len(rows) == 12
        assert [r[0] for r in rows] == [str(k) for k in range(12)]

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--p", "2", "--beta1", "0", "--beta2", "0",
            "--n", "8", "--sweeps", "12", "--burn-in", "4", "--seed", "5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "unique"
        assert payload["targets"] == [[0.5, 0.25]]
        assert payload["acceptance_rate"] == 1.0

    def test_fair_coin_stream_pinned(self, capsys):
        # Figures of the coin chain at a fixed seed: a change to the coin's
        # sampler or its RNG use shows up here.
        code, out, _ = run_cli(
            capsys, "sample", "--p", "2", "--beta1", "0.4", "--beta2", "0.4",
            "--n", "6", "--sweeps", "30", "--burn-in", "10", "--seed", "7",
            "--dist", "bernoulli-half", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_t_edge"] == 0.849074074074
        assert payload["mean_t_sub"] == 0.740586419753
        assert payload["acceptance_rate"] == 0.642857142857
        assert payload["targets"] == [[0.904394087649, 0.817928665774]]

    def test_coin_triangle_csv_pinned(self, capsys):
        # The whole CSV of a coin triangle chain: the coin's integer draws
        # and the permutation leave a buffered 32-bit half in the bit
        # generator, which the sweep's uniform block must carry over.
        code, out, _ = run_cli(
            capsys, "sample", "--p", "3", "--beta1", "-1", "--beta2", "1",
            "--n", "12", "--sweeps", "40", "--burn-in", "10", "--seed", "2026",
            "--dist", "bernoulli-half", "--format", "csv",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cec235e302b4f1b54471ff17494310afd811ff8b4b9f61268d7126ce815cd0e3"
        )

    def test_single_sweep_json_is_strict(self, capsys):
        # One recorded sweep has no standard error: JSON null, never NaN.
        code, out, _ = run_cli(
            capsys, "sample", "--p", "2", "--beta1", "0", "--beta2", "0",
            "--n", "5", "--sweeps", "1", "--burn-in", "0", "--seed", "3",
            "--format", "json",
        )
        assert code == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["se_t_edge"] is None and payload["se_t_sub"] is None
        assert payload["mean_t_edge"] == 0.471283928458

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--p", "2", "--beta1", "0", "--beta2", "0", "--n", "4",
             "--sweeps", "2", "--burn-in", "1"],
            ["gaussian", "--beta1", "1", "--beta2", "0.1", "--n", "4",
             "--samples", "100"],
        ],
        ids=["sample", "gaussian"],
    )
    def test_negative_seed_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record == {
            "module": "cli",
            "operation": argv[0],
            "message": "--seed must be a non-negative integer, got -1",
            "offending_parameter": "seed",
        }

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["sample", "--p", "2", "--beta1", "0", "--beta2", "0",
                  "--n", "8", "--sweeps", "12", "--burn-in", "4"])


class TestOutputPath:
    @pytest.mark.parametrize("argv", [
        ["rate", "--u", "0.5"],
        ["psi", "--p", "2", "--beta1", "-5", "--beta2", "5"],
        ["critical-table", "--p", "2"],
        ["sample", "--p", "2", "--beta1", "0", "--beta2", "0", "--n", "4",
         "--sweeps", "2", "--burn-in", "0", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_missing_directory_is_a_record(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "module": "cli",
            "operation": argv[0],
            "message": f"cannot write to {str(path)!r}: No such file or directory",
            "offending_parameter": "out",
        }
        assert not path.parent.exists()

    def test_sample_checks_the_path_before_the_chain(self, capsys, tmp_path, monkeypatch):
        from wergm import graphs

        def fail(*args, **kwargs):
            raise AssertionError("the chain ran before the output path was checked")

        monkeypatch.setattr(graphs, "run_sampler", fail)
        path = tmp_path / "missing" / "x"
        code, out, err = run_cli(
            capsys, "sample", "--p", "2", "--beta1", "-5", "--beta2", "3.5", "--n", "40",
            "--sweeps", "300", "--burn-in", "50", "--seed", "1", "--out", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["offending_parameter"] == "out"

    def test_path_record_comes_before_a_parameter_record(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x"
        code, _, err = run_cli(capsys, "psi", "--p", "1", "--beta1", "0", "--beta2", "0",
                               "--out", str(path))
        assert code == 1
        assert json.loads(err)["offending_parameter"] == "out"

    def test_parent_that_is_a_file_is_a_record(self, capsys, tmp_path):
        parent = tmp_path / "file"
        parent.write_text("kept\n", encoding="utf-8")
        path = parent / "x"
        code, _, err = run_cli(capsys, "rate", "--u", "0.5", "--out", str(path))
        assert code == 1
        assert json.loads(err)["message"] == (
            f"cannot write to {str(path)!r}: Not a directory"
        )

    def test_out_that_is_a_directory_is_reported_before_any_work(
        self, capsys, tmp_path, monkeypatch
    ):
        from wergm import cramer

        def fail(*args, **kwargs):
            raise AssertionError("a rate was solved before --out was checked")

        monkeypatch.setattr(cramer, "dual_theta", fail)
        with pytest.raises(IsADirectoryError) as opened:
            open(tmp_path, "w")
        code, out, err = run_cli(capsys, "rate", "--u", "0.5", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "module": "cli",
            "operation": "rate",
            "message": f"cannot write to {str(tmp_path)!r}: {opened.value.strerror}",
            "offending_parameter": "out",
        }
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("path, reason", [
        ("", "No such file or directory"),
        ("missing/..", "No such file or directory"),
        ("file/..", "Not a directory"),
        ("/dev/null/..", "Not a directory"),
        ("missing/", "Is a directory"),
        ("a" * 300, "File name too long"),
        ("link", "No such file or directory"),
    ], ids=["empty", "above-a-missing-dir", "above-a-file", "above-a-device",
            "trailing-separator", "name-too-long", "dangling-link"])
    def test_path_as_given_is_judged_before_any_work(
        self, capsys, tmp_path, monkeypatch, path, reason
    ):
        # Each path passes once its ".." are folded, but open resolves a
        # ".." from the component before it, which must be a directory.  A
        # name past the file system's limit, and a link into a missing
        # directory, fail only when opened.
        from wergm import cramer

        def fail(*args, **kwargs):
            raise AssertionError("a rate was solved before --out was checked")

        monkeypatch.setattr(cramer, "dual_theta", fail)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("kept\n", encoding="utf-8")
        (tmp_path / "link").symlink_to(os.path.join("missing", "x"))
        with pytest.raises(OSError) as opened:
            open(path, "w")
        assert opened.value.strerror == reason
        code, out, err = run_cli(capsys, "rate", "--u", "0.5", "--out", path)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "module": "cli",
            "operation": "rate",
            "message": f"cannot write to {path!r}: {reason}",
            "offending_parameter": "out",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "link"]
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"
        assert os.readlink(tmp_path / "link") == os.path.join("missing", "x")

    @pytest.mark.parametrize("argv, flag, path", [
        (["figures", "--p", "2", "--points=-5,3.5"], "--out-dir", "missing/../file"),
        (["figures", "--p", "2", "--points=nan,1", "--grid-points", "4"],
         "--out-dir", "missing/../adir"),
        (["figures", "--p", "2", "--points=nan,1", "--grid-points", "4"],
         "--out-dir", "new/figs"),
        (["psi", "--p", "1", "--beta1", "0", "--beta2", "0"], "--out", "file"),
        (["psi", "--p", "1", "--beta1", "0", "--beta2", "0"], "--out", "new.json"),
        (["rate", "--u", "1.5"], "--out", "adir/../new.csv"),
        (["rate", "--u", "1.5"], "--out", "link"),
    ], ids=["out-dir-through-a-missing-dir-to-a-file",
            "out-dir-through-a-missing-dir-to-a-dir", "new-out-dir", "existing-out",
            "new-out", "new-out-through-a-dir", "new-out-through-a-link"])
    def test_a_failing_command_removes_only_what_it_made(
        self, capsys, tmp_path, monkeypatch, argv, flag, path
    ):
        # The path is made before the work, which then fails; what was
        # there before keeps its bytes, and what the command made goes.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("kept\n", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        (tmp_path / "link").symlink_to(os.path.join("adir", "new.csv"))
        code, out, err = run_cli(capsys, *argv, flag, path)
        assert code == 1 and out == ""
        assert set(json.loads(err)) == {
            "module", "operation", "message", "offending_parameter"
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "file", "link"]
        assert not any((tmp_path / "adir").iterdir())
        assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"

    def test_dangling_link_is_written_through(self, capsys, tmp_path):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "new.csv")
        code, out, err = run_cli(capsys, "rate", "--u", "0.5", "--out", str(link))
        assert code == 0 and out == "" and err == ""
        header, rows = parse_csv((tmp_path / "new.csv").read_text(encoding="utf-8"))
        assert header == ["u", "rate", "rate_d1", "rate_d2"] and len(rows) == 1

    def test_fifo_is_opened_once(self, capsys, tmp_path, monkeypatch):
        # Closing a FIFO ends its reader's stream, so only the write opens it.
        from wergm import cramer

        dual_theta = cramer.dual_theta

        def slow(*args, **kwargs):
            time.sleep(0.2)  # long enough for a reader to see an early close
            return dual_theta(*args, **kwargs)

        monkeypatch.setattr(cramer, "dual_theta", slow)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        streams = []

        def read():  # reopens after an empty stream, so that no writer waits
            while not any(streams):
                with open(fifo, encoding="utf-8") as stream:
                    streams.append(stream.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code, _, err = run_cli(capsys, "rate", "--u", "0.5", "--out", str(fifo))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 0 and err == ""
        assert streams == ["u,rate,rate_d1,rate_d2\n0.5,0,0,12\n"]

    def test_existing_file_survives_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "kept.csv"
        path.write_text("old\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "rate", "--u", "1.5", "--out", str(path))
        assert code == 1
        assert json.loads(err)["module"] == "cramer"
        assert path.read_text(encoding="utf-8") == "old\n"


class TestDeterminism:
    def test_sample_reruns_byte_identical(self, capsys):
        argv = ["sample", "--p", "2", "--beta1", "-1", "--beta2", "2",
                "--n", "10", "--sweeps", "15", "--burn-in", "5", "--seed", "21"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_gaussian_reruns_byte_identical(self, capsys):
        argv = ["gaussian", "--beta1", "1", "--beta2", "0.25", "--n", "10",
                "--samples", "2000", "--seed", "3"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        header, rows = parse_csv(first)
        assert header == ["beta1", "beta2", "psi_n", "psi_inf",
                          "mc_estimate", "std_error"]
        assert len(rows) == 1

    def test_output_file_uses_lf_newlines(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "critical-table", "--p", "2", "--out", str(out))
        assert code == 0
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").endswith("\n")


class TestExtremeInputs:
    @pytest.mark.parametrize("argv", [
        # Uniform maxima whose mean rounds onto the support's end.
        ["psi", "--p", "2", "--beta1", "0", "--beta2", "1e16"],
        ["psi", "--p", "2", "--beta1", "1e16", "--beta2", "0"],
        # The bound on the stationary tilts overflows.
        ["psi", "--p", "2000", "--beta1", "0", "--beta2", "1",
         "--atoms", "0=0.5,2=0.5"],
        # The p-th power overflows at the upper atom, the bound does not.
        ["psi", "--p", "1024", "--beta1", "0", "--beta2", "1e-6",
         "--atoms", "0=0.5,2=0.5"],
        # A*A underflows in the turning-tilt search.
        ["phase-curve", "--p", "3", "--beta1=-1e100"],
        ["phase-curve", "--p", "2", "--beta1=-1e200"],
    ], ids=["psi-beta2-1e16", "psi-beta1-1e16", "psi-p2000-atoms", "psi-p1024-atoms",
            "curve-p3-1e100", "curve-p2-1e200"])
    def test_finite_output_or_one_record(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        if code == 0:
            assert err == ""
            if argv[0] == "psi":
                payload = json.loads(out)
                values = [payload["psi"], *payload["maximizers"]]
            else:
                _, rows = parse_csv(out)
                values = [float(cell) for row in rows for cell in row]
            assert values and all(np.isfinite(values))
        else:
            assert code == 1 and out == ""
            assert err.count("\n") == 1
            assert set(json.loads(err)) == {
                "module", "operation", "message", "offending_parameter"
            }

    @pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_malformed_number_is_one_record(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, *[arg.format(out=out_dir) for arg in argv])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert set(json.loads(err)) == {
            "module", "operation", "message", "offending_parameter"
        }
        assert not out_dir.exists()


NUMPY_FREE_SCRIPT = """
import sys
import tempfile

import wergm
from wergm import (
    cli, cramer, critical, errors, gaussian_directed, graphs, phase_curve,
    variational,
)


def check_lean(where):
    loaded = [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
    assert not loaded, (where, loaded)


check_lean("import")
with tempfile.TemporaryDirectory() as out_dir:
    for argv in [
        ["psi", "--p", "2", "--beta1", "-5", "--beta2", "5"],
        ["psi", "--p", "3", "--beta1", "-1", "--beta2", "2",
         "--dist", "bernoulli-half"],
        ["psi", "--p", "2", "--beta1", "-1", "--beta2", "2",
         "--atoms", "0.2=0.3,0.5=0.4,0.8=0.3"],
        ["rate", "--u", "0.3:0.7:3", "--atoms", "0.2=0.3,0.5=0.4,0.8=0.3"],
        ["critical-table", "--p", "2,3"],
        ["phase-curve", "--p", "3", "--beta1", "-3:-2:2"],
        ["figures", "--p", "2", "--points=-5,5", "--grid-points", "8",
         "--beta1", "-5:-4:2", "--out-dir", out_dir],
    ]:
        assert cli.main(argv) == 0, argv
        check_lean(argv)

missing = [name for name in wergm.__all__ if not hasattr(wergm, name)]
assert not missing, missing
print("numpy-free")
"""


FREEZE_COUNT_SCRIPT = """
import atexit
import gc
import runpy

atexit.register(lambda: print("freeze count", gc.get_freeze_count()))
runpy.run_module("wergm", run_name="__main__")
"""


LOADED_MODULES_SCRIPT = """
import sys

import wergm

code = 0
if len(sys.argv) > 1:
    import wergm.cli

    code = wergm.cli.main(sys.argv[1:])
print(",".join(sorted(m for m in sys.modules if m.startswith("wergm."))))
sys.exit(code)
"""

#: What every command loads: the front end and the layers it imports itself.
CLI_BASE = {"cli", "cramer", "errors"}

LOADED_MODULES = [
    ("import", [], set()),
    ("rate", ["rate", "--u", "0.3:0.7:3"], CLI_BASE),
    ("psi", ["psi", "--p", "2", "--beta1", "-5", "--beta2", "5"],
     CLI_BASE | {"variational"}),
    ("critical-table", ["critical-table", "--p", "2,3"], CLI_BASE | {"critical"}),
    ("phase-curve", ["phase-curve", "--p", "3", "--beta1", "-3:-2:2"],
     CLI_BASE | {"critical", "phase_curve", "variational"}),
    ("figures", ["figures", "--p", "2", "--points=-5,5", "--grid-points", "8",
                 "--beta1", "-5:-4:2", "--out-dir", "{out_dir}"],
     CLI_BASE | {"critical", "phase_curve", "variational"}),
    ("sample", ["sample", "--p", "2", "--beta1", "0", "--beta2", "0", "--n", "4",
                "--sweeps", "2", "--burn-in", "0", "--seed", "1"],
     CLI_BASE | {"graphs", "variational"}),
    ("gaussian", ["gaussian", "--beta1", "1", "--beta2", "0.25", "--n", "3",
                  "--samples", "100", "--seed", "1"],
     CLI_BASE | {"gaussian_directed"}),
]


class TestEntryPoint:
    @pytest.mark.parametrize(
        "argv, expected", [case[1:] for case in LOADED_MODULES],
        ids=[case[0] for case in LOADED_MODULES],
    )
    def test_each_command_loads_only_its_layers(self, tmp_path, argv, expected):
        # One fresh interpreter per command: `import wergm` loads no layer,
        # and each command adds only the layers it runs.
        argv = [arg.format(out_dir=tmp_path / "figs") for arg in argv]
        result = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES_SCRIPT, *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.splitlines()[-1]
        assert set(filter(None, loaded.split(","))) == {f"wergm.{m}" for m in expected}

    def test_theory_commands_do_not_import_numpy(self):
        # numpy is for the finite-graph checks only, and no module needs
        # dataclasses (which loads inspect): importing every layer and
        # running the closed-form theory commands must pay for neither.
        result = subprocess.run(
            [sys.executable, "-c", NUMPY_FREE_SCRIPT],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("numpy-free\n")

    def test_python_dash_m_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "wergm", "critical-table", "--p", "2"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("p,theta0,")

    @pytest.mark.parametrize("argv, code", [
        (["critical-table", "--p", "2"], 0),
        (["psi", "--p", "1", "--beta1", "0", "--beta2", "0"], 1),
    ], ids=["ok", "record"])
    def test_process_exit_freezes_the_heap(self, argv, code):
        # The process entry moves every object to the permanent generation
        # on its way out, whatever the exit code, so that the interpreter's
        # exit-time collections have nothing to walk; the atexit handlers
        # still run after it.
        result = subprocess.run(
            [sys.executable, "-c", FREEZE_COUNT_SCRIPT, *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == code
        assert result.stderr.count("\n") == code
        label, count = result.stdout.splitlines()[-1].rsplit(" ", 1)
        assert label == "freeze count" and int(count) > 0

    def test_main_does_not_freeze(self, capsys):
        # In-process callers keep running after main returns.
        before = gc.get_freeze_count()
        code, _, _ = run_cli(capsys, "critical-table", "--p", "2")
        assert code == 0
        assert gc.get_freeze_count() == before

    def test_out_file_is_the_stdout_bytes(self, tmp_path):
        # Every file a command writes is closed before the process exits.
        argv = [sys.executable, "-m", "wergm", "psi", "--p", "3", "--beta1", "-1",
                "--beta2", "2"]
        path = tmp_path / "psi.json"
        printed = subprocess.run(argv, capture_output=True, timeout=120)
        written = subprocess.run([*argv, "--out", str(path)], capture_output=True,
                                 timeout=120)
        assert printed.returncode == written.returncode == 0
        assert written.stdout == written.stderr == b""
        assert printed.stdout and path.read_bytes() == printed.stdout
