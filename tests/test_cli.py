import os

import numpy as np
import pytest

from comag.cli import EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_VALIDATION, main
from comag.geometry import FieldVector

FAST_SIM = "[simulation]\ngrid_points = 7\nn_reps = 10\n"
FAST_SPATIAL = "[spatial]\nn_positions = 12\nn_reps = 10\n"
FAST_ANGULAR = "[angular]\ngrid_points = 9\n"
FAST_MARGINAL = "[marginal]\nn_points = 7\n"


def write_cfg(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return str(p)


class TestEstimateCommand:
    def test_basic(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(["estimate", "--b-nv", "1.1,0,0", "--b-0", "0,0,0", "--b-rb", "1.0", "--out", out])
        assert rc == EXIT_OK
        captured = capsys.readouterr().out
        assert "b_hat" in captured and "1.000000" in captured
        rows = (tmp_path / "out" / "estimate.csv").read_text().splitlines()
        assert rows[0].startswith("bhat_x,bhat_y,bhat_z")
        assert float(rows[1].split(",")[0]) == pytest.approx(1.0)

    def test_background_echoed(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(
            [
                "estimate",
                "--b-nv", "0.5,0,0",
                "--b-0", "0.004,-0.7454,0.6451",
                "--b-rb", "1.1",
                "--out", out,
            ]
        )
        assert rc == EXIT_OK
        assert "0.004000, -0.745400, 0.645100" in capsys.readouterr().out

    def test_missing_b_rb_fails(self, tmp_path):
        rc = main(["estimate", "--b-nv", "1,0,0", "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    def test_bad_vector_flag(self, tmp_path):
        rc = main(
            ["estimate", "--b-nv", "1,0", "--b-rb", "1.0", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_PARSE

    def test_degenerate_direction_is_runtime_error(self, tmp_path):
        # Vectors with a leading minus need the = form, as usual for argparse.
        rc = main(
            [
                "estimate",
                "--b-nv", "0.2,0,0",
                "--b-0=-0.2,0,0",
                "--b-rb", "1.0",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize(
        "flags",
        [
            ["--b-nv", "nan,0,0", "--b-rb", "1.0"],
            ["--b-nv", "1,inf,0", "--b-rb", "1.0"],
            ["--b-nv", "1,0,0", "--b-0=0,0,-inf", "--b-rb", "1.0"],
            ["--b-nv", "1,0,0", "--b-rb", "inf"],
            ["--b-nv", "1,0,0", "--b-rb", "nan"],
        ],
    )
    def test_non_finite_flag_is_validation_error(self, tmp_path, capsys, flags):
        rc = main(["estimate", *flags, "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err
        assert not (tmp_path / "o").exists()

    def test_values_from_config_section(self, tmp_path):
        cfg = write_cfg(tmp_path, "[estimate]\nb_nv = 1.1,0,0\nb_rb = 1.0\n")
        rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK


class TestSimulationCommands:
    def test_simulate_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        out = str(tmp_path / "grid")
        assert main(["simulate-grid", "--config", cfg, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "grid.csv"))
        assert os.path.exists(os.path.join(out, "grid_summary.txt"))
        script = open(os.path.join(out, "plot_grid.py")).read()
        assert "no data" in script  # empty-data guard present
        summary = dict(
            line.split("=", 1)
            for line in open(os.path.join(out, "grid_summary.txt")).read().splitlines()
        )
        assert summary["grid_points"] == "7"
        assert "median_gain_mag_mse_db" in summary

    def test_no_partial_files_left(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        out = str(tmp_path / "grid")
        main(["simulate-grid", "--config", cfg, "--out", out])
        assert not [f for f in os.listdir(out) if f.endswith(".part")]

    def test_orthogonality(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM + "b_0 = 0.5,0,0\n")
        out = str(tmp_path / "ortho")
        assert main(["orthogonality", "--config", cfg, "--out", out]) == EXIT_OK
        rows = open(os.path.join(out, "orthogonality.csv")).read().splitlines()
        assert rows[0] == "bx,by,orthogonality"
        assert len(rows) == 1 + 7 * 7

    def test_marginal(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM + FAST_MARGINAL)
        out = str(tmp_path / "marg")
        assert main(["marginal", "--config", cfg, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "marginal.csv"))

    def test_spatial_scan(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPATIAL)
        out = str(tmp_path / "scan")
        assert main(["spatial-scan", "--config", cfg, "--out", out]) == EXIT_OK
        summary = open(os.path.join(out, "spatial_scan_summary.txt")).read()
        assert "rmse_nv=" in summary and "gain_db=" in summary

    def test_scalar_demo(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPATIAL)
        out = str(tmp_path / "demo")
        assert main(["scalar-demo", "--config", cfg, "--out", out]) == EXIT_OK
        rows = open(os.path.join(out, "scalar_demo.csv")).read().splitlines()
        assert rows[0].startswith("position_mm,true_mag,combined,naive")

    def test_angular_map(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_ANGULAR)
        out = str(tmp_path / "ang")
        assert main(["angular-map", "--config", cfg, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "angular_map.csv"))

    def test_seed_override_changes_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        out_c = str(tmp_path / "c")
        main(["simulate-grid", "--config", cfg, "--out", out_a, "--seed", "1"])
        main(["simulate-grid", "--config", cfg, "--out", out_b, "--seed", "1"])
        main(["simulate-grid", "--config", cfg, "--out", out_c, "--seed", "2"])
        a = open(os.path.join(out_a, "grid.csv")).read()
        assert a == open(os.path.join(out_b, "grid.csv")).read()
        assert a != open(os.path.join(out_c, "grid.csv")).read()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[simulation]\nsigmaNv = 1\n")
        rc = main(["simulate-grid", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("command", ["simulate-grid", "spatial-scan"])
    def test_negative_seed_flag_is_validation_error(self, tmp_path, capsys, command):
        rc = main([command, "--seed", "-1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be >= 0" in err

    @pytest.mark.parametrize("section", ["simulation", "spatial"])
    def test_negative_config_seed_is_validation_error(self, tmp_path, capsys, section):
        cfg = write_cfg(tmp_path, f"[{section}]\nseed = -3\n")
        rc = main(["simulate-grid", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_invalid_value_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[simulation]\nsigma_rb = -2\n")
        rc = main(["simulate-grid", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION


class TestCalibrateCommand:
    def test_round_trip_from_csv(self, tmp_path, capsys):
        b_0 = FieldVector(0.004, -0.7454, 0.6451)
        lines = ["bx,by,bz,b_rb"]
        for c in (FieldVector(1, 0, 0), FieldVector(0, 1, 0), FieldVector(0, 0, 1)):
            lines.append(
                f"{c.bx},{c.by},{c.bz},{(b_0 + c).magnitude()!r}"
            )
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "cal")
        rc = main(["calibrate", "--pairs", str(pairs), "--out", out])
        assert rc == EXIT_OK
        summary = dict(
            line.split("=", 1)
            for line in open(os.path.join(out, "calibration_summary.txt"))
            .read()
            .splitlines()
        )
        assert float(summary["b0_x"]) == pytest.approx(0.004, abs=1e-7)
        assert float(summary["b0_y"]) == pytest.approx(-0.7454, abs=1e-7)
        assert float(summary["b0_z"]) == pytest.approx(0.6451, abs=1e-7)
        assert float(summary["residual_norm"]) < 1e-9

    def test_missing_pairs(self, tmp_path):
        rc = main(["calibrate", "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    def test_bad_header(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("x,y,z,rb\n1,0,0,1\n")
        rc = main(["calibrate", "--pairs", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    def test_bad_row(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("bx,by,bz,b_rb\n1,0,0,oops\n")
        rc = main(["calibrate", "--pairs", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE


class TestPlotScripts:
    def test_grid_script_references_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        out = str(tmp_path / "grid")
        main(["simulate-grid", "--config", cfg, "--out", out])
        script = open(os.path.join(out, "plot_grid.py")).read()
        assert 'load_csv("grid.csv")' in script
        assert "colorbar" in script
        assert "dB" in script

    def test_spatial_script_has_fit_series(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPATIAL)
        out = str(tmp_path / "scan")
        main(["spatial-scan", "--config", cfg, "--out", out])
        script = open(os.path.join(out, "plot_spatial_scan.py")).read()
        for label in ("Rb scalar", "NV poly fit", "combined"):
            assert label in script

    def test_scripts_compile(self, tmp_path):
        import py_compile

        cfg = write_cfg(tmp_path, FAST_SIM)
        out = str(tmp_path / "grid")
        main(["simulate-grid", "--config", cfg, "--out", out])
        py_compile.compile(os.path.join(out, "plot_grid.py"), doraise=True)
