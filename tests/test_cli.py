import argparse
import ast
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import comag
from comag import cli
from comag.cli import _COMMANDS, EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_VALIDATION, main
from comag.config import EstimateSettings, parse_config
from comag.geometry import FieldVector
from comag.plots import _KINDS
from comag.simulation import (
    _MAX_COUNT,
    _MAX_SIDE,
    SimConfig,
    SpatialScanConfig,
    run_grid_simulation,
)

COMMANDS = tuple(_COMMANDS)
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

    def test_degenerate_direction_is_runtime_error(self, tmp_path, capsys):
        # Vectors with a leading minus need the = form, as usual for argparse.
        flags = ["--b-nv", "0.2,0,0", "--b-0=-0.2,0,0", "--b-rb", "1"]
        rc = main(["estimate", *flags, "--out", str(tmp_path / "o")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert err == ["comag: b_nv + b_0 = 0: correction direction undefined"]

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

    def test_overflowing_reading_is_runtime_error(self, tmp_path, capsys):
        flags = ["--b-nv", "1e200,0,0", "--b-rb", "1e200"]
        rc = main(["estimate", *flags, "--out", str(tmp_path / "o")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "overflows" in err

    def test_underflowing_reading_keeps_its_direction(self, tmp_path, capsys):
        # |b_nv|**2 underflows to 0, but the reading's direction (+x) is defined.
        flags = ["--b-nv", "1e-200,0,0", "--b-0=0,0,1", "--b-rb", "1"]
        rc = main(["estimate", *flags, "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert "nan" not in capsys.readouterr().out
        header, row = (tmp_path / "o" / "estimate.csv").read_text().splitlines()
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert (values["radial"], values["tangential"]) == (0.0, 0.0)
        assert values["orthogonality"] == 1e-200

    def test_underflowing_sum_keeps_its_direction(self, tmp_path):
        # |b_nv + b_0| = sqrt(5)e-200, though its squares underflow to 0.
        flags = ["--b-nv=1e-200,1e-200,0", "--b-0=1e-200,0,0", "--b-rb", "1e-200"]
        rc = main(["estimate", *flags, "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        header, row = (tmp_path / "o" / "estimate.csv").read_text().splitlines()
        values = dict(zip(header.split(","), map(float, row.split(","))))
        b_hat = np.array([values[f"bhat_{a}"] for a in "xyz"]) * 1e200
        # b_hat = b_nv - s (|s| - b_rb) / |s|, in units of 1e-200 G.
        expected = np.array([1.0, 1.0, 0.0]) - np.array([2.0, 1.0, 0.0]) * (1 - 1 / 5**0.5)
        np.testing.assert_allclose(b_hat, expected, rtol=1e-14, atol=0)

    def test_values_from_config_section(self, tmp_path):
        cfg = write_cfg(tmp_path, "[estimate]\nb_nv = 1.1,0,0\nb_rb = 1.0\n")
        rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK

    @pytest.mark.parametrize(
        "flags, code, fragment",
        [
            (["--b-rb", "abc"], EXIT_PARSE, "flag --b-rb: expected a number, got 'abc'"),
            (["--b-rb", "1,2"], EXIT_PARSE, "flag --b-rb: expected a number, got '1,2'"),
            (["--b-nv", "1,0"], EXIT_PARSE, "flag --b-nv: expected three comma-separated numbers"),
            (["--seed", "x"], EXIT_PARSE, "flag --seed: expected an integer, got 'x'"),
            (["--b-rb", "-1"], EXIT_VALIDATION, "estimate b_rb must be >= 0"),
            # An empty value unsets the key, as in the INI file.
            (["--b-rb="], EXIT_VALIDATION, "estimate needs --b-nv and --b-rb"),
        ],
        ids=["b-rb-text", "b-rb-pair", "b-nv-pair", "seed-text", "b-rb-negative", "b-rb-empty"],
    )
    def test_bad_flag_value_is_one_line(self, tmp_path, capsys, flags, code, fragment):
        cfg = write_cfg(tmp_path, "[estimate]\nb_nv = 1.1,0,0\nb_rb = 1.0\n")
        rc = main(["estimate", "--config", cfg, *flags, "--out", str(tmp_path / "o")])
        assert rc == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and fragment in err
        assert not (tmp_path / "o").exists()

    def test_flags_override_config_section(self, tmp_path):
        cfg = write_cfg(tmp_path, "[estimate]\nb_nv = 9,9,9\nb_0 = 9,9,9\nb_rb = 9\n")
        flags = ["--b-nv", "0.5,0,0", "--b-0", "0.004,-0.7454,0.6451", "--b-rb", "1.1"]
        assert main(["estimate", "--config", cfg, *flags, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["estimate", *flags, "--out", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "estimate.csv").read_bytes()
        assert a == (tmp_path / "b" / "estimate.csv").read_bytes()


class TestSimulationCommands:
    def test_simulate_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        out = str(tmp_path / "grid")
        assert main(["simulate-grid", "--config", cfg, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "grid.csv"))
        assert os.path.exists(os.path.join(out, "grid_summary.txt"))
        script = Path(out, "plot_grid.py").read_text()
        assert "no data" in script  # empty-data guard present
        summary = dict(
            line.split("=", 1)
            for line in Path(out, "grid_summary.txt").read_text().splitlines()
        )
        assert summary["grid_points"] == "7"
        assert "median_gain_mag_mse_db" in summary

    def test_grid_csv_round_trips_bit_exactly(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM + "b_0 = 0.3,-0.2,0.1\nb_0_cal_error = 0.001\n")
        out = tmp_path / "grid"
        assert main(["simulate-grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
        imp = run_grid_simulation(parse_config(cfg).simulation)
        lines = (out / "grid.csv").read_text().splitlines()
        header = lines[0].split(",")
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        col = dict(zip(header, table.T))
        ny, nx = imp.gain_mag_mse_db.shape
        np.testing.assert_array_equal(col["bx"].reshape(ny, nx), np.tile(imp.bx, (ny, 1)))
        np.testing.assert_array_equal(col["by"].reshape(ny, nx), np.tile(imp.by[:, None], (1, nx)))
        for name in ("gain_mag_mse_db", "gain_mag_mae_db", "gain_dir_mse_db", "gain_dir_mae_db",
                     "orthogonality", "valid"):
            # assert_array_equal treats NaN as equal to NaN, so NaN cells must stay NaN.
            np.testing.assert_array_equal(col[name].reshape(ny, nx), getattr(imp, name))
        assert np.isnan(col["gain_dir_mse_db"]).any()

    def test_no_valid_gain_writes_nan_summary(self, tmp_path, capsys):
        text = "[simulation]\ngrid_points = 3\nn_reps = 2\nsigma_nv = 1e-300\n"
        cfg = write_cfg(tmp_path, text + "[marginal]\nn_points = 3\n")
        for command, stem, other in [
            ("simulate-grid", "grid", "max_gain_mag_mse_db"),
            ("marginal", "marginal", "frac_points_above_0db"),
        ]:
            out = tmp_path / stem
            # pytest records warnings, so stderr alone would not show them.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
            summary = (out / f"{stem}_summary.txt").read_text().splitlines()
            assert "median_gain_mag_mse_db=nan" in summary
            assert f"{other}=nan" in summary
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("spatial", ["", "stage_range = 1e-30\n"], ids=["default", "short"])
    def test_spatial_scan_fit_does_not_warn(self, tmp_path, spatial):
        cfg = write_cfg(tmp_path, "[spatial]\n" + spatial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spatial-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_no_partial_files_left(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        out = str(tmp_path / "grid")
        main(["simulate-grid", "--config", cfg, "--out", out])
        assert not [f for f in os.listdir(out) if f.endswith(".part")]

    def test_orthogonality(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM + "b_0 = 0.5,0,0\n")
        out = str(tmp_path / "ortho")
        assert main(["orthogonality", "--config", cfg, "--out", out]) == EXIT_OK
        rows = Path(out, "orthogonality.csv").read_text().splitlines()
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
        summary = Path(out, "spatial_scan_summary.txt").read_text()
        assert "rmse_nv=" in summary and "gain_db=" in summary

    def test_scalar_demo(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPATIAL)
        out = str(tmp_path / "demo")
        assert main(["scalar-demo", "--config", cfg, "--out", out]) == EXIT_OK
        rows = Path(out, "scalar_demo.csv").read_text().splitlines()
        assert rows[0].startswith("position_mm,true_mag,combined,naive")

    def test_scalar_demo_draws_calibration_error(self, tmp_path):
        # Both backgrounds' combined curves move; the naive ones never use B_0's estimate.
        tables = []
        for i, spatial in enumerate(["", "b_0_cal_error = 0.05\n"]):
            cfg = write_cfg(tmp_path, FAST_SPATIAL + spatial)
            out = str(tmp_path / f"demo{i}")
            assert main(["scalar-demo", "--config", cfg, "--out", out]) == EXIT_OK
            lines = Path(out, "scalar_demo.csv").read_text().splitlines()
            tables.append(dict(zip(lines[0].split(","), zip(*(r.split(",") for r in lines[1:])))))
        plain, calibrated = tables
        assert plain.keys() == calibrated.keys()
        for column in plain:
            moved = any(a != b for a, b in zip(plain[column], calibrated[column]))
            assert moved == column.startswith("combined"), column

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
        a = Path(out_a, "grid.csv").read_text()
        assert a == Path(out_b, "grid.csv").read_text()
        assert a != Path(out_c, "grid.csv").read_text()

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

    @pytest.mark.parametrize(
        "spatial",
        ["source_axis = 0,0,0\n", "b_0 = 0,0,0\n"],
        ids=["zero-source-axis", "zero-b0-without-axis"],
    )
    def test_zero_source_axis_is_validation_error(self, tmp_path, capsys, spatial):
        cfg = write_cfg(tmp_path, FAST_SPATIAL + spatial)
        rc = main(["spatial-scan", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be nonzero" in err

    @pytest.mark.parametrize("command", ["spatial-scan", "scalar-demo"])
    @pytest.mark.parametrize(
        "spatial",
        ["source_axis = 1e-320,0,0\n", "b_0 = 1e-320,0,0\n"],
        ids=["subnormal-source-axis", "subnormal-b0-without-axis"],
    )
    def test_subnormal_source_axis_has_a_direction(self, tmp_path, command, spatial):
        cfg = write_cfg(tmp_path, FAST_SPATIAL + spatial)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        stem = command.replace("-", "_")
        for name in (f"{stem}.csv", f"{stem}_summary.txt", f"plot_{stem}.py"):
            assert (out / name).is_file()

    def test_invalid_value_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[simulation]\nsigma_rb = -2\n")
        rc = main(["simulate-grid", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION


# Bad config inputs: (command, INI text, exit code, stderr fragment).  Every
# one must end in a single-line message, never a traceback.
BAD_CONFIGS = [
    pytest.param(
        "simulate-grid", "[simulatoin]\n", EXIT_PARSE,
        "unknown section [simulatoin]; did you mean 'simulation'?", id="unknown-section",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\nsigmaNv = 1\n", EXIT_PARSE,
        "unknown key 'sigmanv' in [simulation]; did you mean 'sigma_nv'?", id="unknown-key",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\ngrid_min = abc\n", EXIT_PARSE,
        "key 'grid_min': expected a number, got 'abc'", id="bad-float",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\ngrid_points = 2.5\n", EXIT_PARSE,
        "key 'grid_points': expected an integer, got '2.5'", id="bad-int",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\nb_0 = 1,2\n", EXIT_PARSE,
        "key 'b_0': expected three comma-separated numbers", id="short-vector",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\nsigma_nv = nan\n", EXIT_VALIDATION,
        "key 'sigma_nv': value must be finite", id="nan-float",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\nb_0 = 0,inf,0\n", EXIT_VALIDATION,
        "key 'b_0': value must be finite", id="inf-vector",
    ),
    pytest.param(
        "angular-map", "[angular]\nsigma = 0\n", EXIT_VALIDATION,
        "angular sigma must be positive", id="angular-sigma",
    ),
    pytest.param(
        "angular-map", "[angular]\ngrid_points = 1\n", EXIT_VALIDATION,
        "angular grid_points must be >= 2", id="angular-points",
    ),
    pytest.param(
        "angular-map", "[angular]\ngrid_min = 0\ngrid_max = 0\n", EXIT_VALIDATION,
        "grid_min must be below grid_max", id="angular-range",
    ),
    pytest.param(
        "marginal", "[marginal]\naxis = q\n", EXIT_VALIDATION,
        "marginal axis must be one of x, y, z", id="marginal-axis",
    ),
    pytest.param(
        "marginal", "[marginal]\nn_points = 1\n", EXIT_VALIDATION,
        "marginal n_points must be >= 2", id="marginal-points",
    ),
    pytest.param(
        "marginal", "[marginal]\nfield_min = 2\nfield_max = 1\n", EXIT_VALIDATION,
        "marginal field_min must be below field_max", id="marginal-range",
    ),
    pytest.param(
        "estimate", "[estimate]\nb_rb = -1\n", EXIT_VALIDATION,
        "estimate b_rb must be >= 0", id="estimate-b-rb",
    ),
    pytest.param(
        # A dead key, since removed: it is now unknown like any other.
        "calibrate", "[calibrate]\ncalibration_averages = 2\n", EXIT_PARSE,
        "unknown key 'calibration_averages' in [calibrate]", id="calibration-averages",
    ),
    pytest.param(
        "spatial-scan", "[spatial]\nsource_axis = 0,0,0\n", EXIT_VALIDATION,
        "source_axis, or b_0 when source_axis is unset, must be nonzero",
        id="zero-source-axis",
    ),
    pytest.param(
        # Sections no command read, since removed: unknown like any other.
        "simulate-grid", "[measurement]\ngamma_rb = 6962\n", EXIT_PARSE,
        "unknown section [measurement]", id="measurement-section",
    ),
    pytest.param(
        "simulate-grid", "[geometry]\naxis_a = 1,1,1\n", EXIT_PARSE,
        "unknown section [geometry]", id="geometry-section",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\nseed = -1\n", EXIT_VALIDATION,
        "seed must be >= 0", id="negative-seed",
    ),
    pytest.param(
        "simulate-grid", "[DEFAULT]\nseed = 3\n[simulation]\n", EXIT_PARSE,
        "unknown section [DEFAULT]", id="default-section",
    ),
    pytest.param(
        "angular-map", "[DEFAULT]\nseed = 3\n[angular]\n", EXIT_PARSE,
        "unknown section [DEFAULT]", id="default-section-beside-angular",
    ),
    # Syntax errors name the file, on one line.
    pytest.param(
        "simulate-grid", "not an ini file at all\n", EXIT_PARSE,
        "cfg.ini', line: 1 'not an ini file at all\\n'", id="no-section-header",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\nseed\n", EXIT_PARSE,
        "cfg.ini' [line  2]: 'seed\\n'", id="line-without-equals",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\nseed = 1\nseed = 2\n", EXIT_PARSE,
        "cfg.ini' [line  3]: option 'seed' in section 'simulation' already exists",
        id="duplicate-key",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\n[simulation]\n", EXIT_PARSE,
        "cfg.ini' [line  2]: section 'simulation' already exists", id="duplicate-section",
    ),
    pytest.param(
        "simulate-grid", "[SIMULATION]\n", EXIT_PARSE,
        "unknown section [SIMULATION]; did you mean 'simulation'?", id="upper-case-section",
    ),
    pytest.param(
        "scalar-demo", "[spatial]\nsource_axis = -1e200,1e200,0\n", EXIT_VALIDATION,
        "source_axis, or b_0 when source_axis is unset, must be nonzero, with a finite norm",
        id="overflowing-source-axis",
    ),
    pytest.param(
        "spatial-scan", "[spatial]\nb_0 = 1e308,0,0\n", EXIT_VALIDATION,
        "source_axis, or b_0 when source_axis is unset, must be nonzero, with a finite norm",
        id="overflowing-b0",
    ),
    pytest.param(
        "angular-map", FAST_ANGULAR + "grid_min = 1e-160\n", EXIT_RUNTIME,
        "angles undefined at an underflowing field", id="underflowing-angular-field",
    ),
    pytest.param(
        # The origin is masked, so no row is zero; every square underflows.
        "angular-map", FAST_ANGULAR + "grid_min = -1e-320\ngrid_max = 1e-320\n", EXIT_RUNTIME,
        "angles undefined at an underflowing field", id="subnormal-angular-grid",
    ),
    pytest.param(
        "angular-map", FAST_ANGULAR + "sigma = 1e308\n", EXIT_RUNTIME,
        "inputs too extreme to compute (overflow encountered", id="overflowing-angular-sigma",
    ),
    pytest.param(
        "angular-map", FAST_ANGULAR + "grid_min = -1e200\ngrid_max = 1e200\n", EXIT_RUNTIME,
        "inputs too extreme to compute (overflow encountered", id="overflowing-angular-field",
    ),
    pytest.param(
        "spatial-scan", "[spatial]\nstage_range = 1e308\n", EXIT_VALIDATION,
        "stage geometry overflows the dipole field or the scan's fit",
        id="overflowing-stage-range",
    ),
    pytest.param(
        "spatial-scan", "[spatial]\nstage_range = 1e-300\n", EXIT_VALIDATION,
        "stage_range underflows the scan's polynomial fit", id="underflowing-stage-range",
    ),
    pytest.param(
        "spatial-scan", "[spatial]\nstandoff = 10\n", EXIT_VALIDATION,
        "the stage brings the source onto the sensor", id="source-onto-sensor",
    ),
    pytest.param(
        "estimate", "[estimate]\nb_nv = 0.1,0.2,0.3\nb_rb = 1e308\n", EXIT_RUNTIME,
        "b_rb / |b_nv + b_0| overflows: correction undefined", id="overflowing-correction",
    ),
    pytest.param(
        "simulate-grid", FAST_SIM + "b_0 = 0,-1e308,0\n", EXIT_RUNTIME,
        "inputs too extreme to compute (overflow encountered", id="overflowing-grid-field",
    ),
    pytest.param(
        # The kernel draws calibration error only where it is positive.
        "spatial-scan", "[spatial]\nb_0_cal_error = -1.0\n", EXIT_VALIDATION,
        "b_0_cal_error must be >= 0", id="negative-spatial-cal-error",
    ),
    pytest.param(
        "spatial-scan", "[spatial]\nn_positions = 5\npoly_degree = 10\n", EXIT_VALIDATION,
        "poly_degree must be >= 1 and below n_positions", id="poly-degree-above-positions",
    ),
    # Counts past memory fail at their first allocation, of more than 2**48
    # bytes, and counts past what numpy can index fail at validation.
    pytest.param(
        "simulate-grid", "[simulation]\nn_reps = 1125899906842624\n", EXIT_RUNTIME,
        "inputs too extreme to compute (Unable to allocate 32.0 PiB", id="n-reps-past-memory",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\nn_reps = 10000000000000000000000\n", EXIT_VALIDATION,
        f"n_reps must be at most {_MAX_COUNT}", id="n-reps-past-index",
    ),
    pytest.param(
        "simulate-grid", "[simulation]\ngrid_points = 10000000000000000000000\n",
        EXIT_VALIDATION, f"grid_points must be at most {_MAX_SIDE}", id="grid-points-past-index",
    ),
    pytest.param(
        "angular-map", "[angular]\ngrid_points = 100000000000\n", EXIT_VALIDATION,
        f"angular grid_points must be at most {_MAX_SIDE}", id="angular-points-past-index",
    ),
    pytest.param(
        "marginal", "[marginal]\nn_points = 10000000000000000000000\n", EXIT_VALIDATION,
        f"marginal n_points must be at most {_MAX_COUNT}", id="marginal-points-past-index",
    ),
    pytest.param(
        "spatial-scan", "[spatial]\nn_positions = 10000000000000000000000\n", EXIT_VALIDATION,
        f"n_positions must be at most {_MAX_COUNT}", id="n-positions-past-index",
    ),
    pytest.param(
        "spatial-scan", "[spatial]\nn_reps = " + "9" * 400 + "\n", EXIT_VALIDATION,
        f"n_reps must be at most {_MAX_COUNT}", id="scan-n-reps-past-float",
    ),
]


class TestBadConfigs:
    @pytest.mark.parametrize("command, text, code, fragment", BAD_CONFIGS)
    def test_exit_code_and_message(self, tmp_path, capsys, command, text, code, fragment):
        cfg = write_cfg(tmp_path, text)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == code
        assert err.count("\n") == 1 and fragment in err

    def test_utf8_bom_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(b"\xef\xbb\xbf" + (FAST_SIM + "seed = 7\n").encode())
        rc = main(["simulate-grid", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert "seed=7\n" in (tmp_path / "o" / "grid_summary.txt").read_text()

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(b"[simulation]\nseed = \xff\n")
        rc = main(["simulate-grid", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_PARSE
        assert err.count("\n") == 1 and "cannot read config file" in err


def _count_builds(monkeypatch, *classes) -> dict:
    """Count each class's __post_init__ runs from now on."""
    counts = dict.fromkeys(classes, 0)
    for cls in classes:
        original = cls.__post_init__

        def counted(self, cls=cls, original=original):
            counts[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


class TestFlagsJoinTheFile:
    def test_seed_builds_each_section_once(self, tmp_path, monkeypatch):
        counts = _count_builds(monkeypatch, SimConfig, SpatialScanConfig)
        cfg = write_cfg(tmp_path, FAST_SIM)
        argv = ["orthogonality", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "5"]
        assert main(argv) == EXIT_OK
        assert counts == {SimConfig: 1, SpatialScanConfig: 1}

    def test_estimate_flags_build_the_section_once(self, tmp_path, monkeypatch):
        counts = _count_builds(monkeypatch, EstimateSettings)
        flags = ["--b-nv=0.5,0,0", "--b-0=0,0,1", "--b-rb", "1.2"]
        assert main(["estimate", *flags, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert counts == {EstimateSettings: 1}

    @pytest.mark.parametrize("command", ["spatial-scan", "scalar-demo"])
    def test_spatial_commands_build_the_section_once(self, tmp_path, monkeypatch, command):
        # The scalar demo's default source axis is applied where the demo reads
        # the axis, not by building [spatial] again.
        counts = _count_builds(monkeypatch, SpatialScanConfig)
        cfg = write_cfg(tmp_path, FAST_SPATIAL)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "5"]
        assert main(argv) == EXIT_OK
        assert counts == {SpatialScanConfig: 1}

    def test_seed_flag_replaces_an_invalid_file_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM + "seed = -3\n")
        out = tmp_path / "o"
        assert main(["simulate-grid", "--config", cfg, "--out", str(out), "--seed", "5"]) == EXIT_OK
        assert "seed=5\n" in (out / "grid_summary.txt").read_text()

    def test_flag_replaces_an_invalid_file_value(self, tmp_path):
        cfg = write_cfg(tmp_path, "[estimate]\nb_rb = -1\n")
        flags = ["--b-nv=0.1,0,0", "--b-rb", "1"]
        assert main(["estimate", "--config", cfg, *flags, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_flag_parse_error_comes_before_file_validation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[simulation]\nsigma_nv = -1\n")
        rc = main(["simulate-grid", "--config", cfg, "--seed", "x", "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "flag --seed: expected an integer, got 'x'" in err


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
            for line in Path(out, "calibration_summary.txt").read_text().splitlines()
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

    @pytest.mark.parametrize(
        "row, fragment",
        [
            ("0.7,0.7,0,nan", "calibration Rb readings must be finite"),
            ("0.7,0.7,0,inf", "calibration Rb readings must be finite"),
            ("nan,0.7,0,0.8", "field components must be finite"),
        ],
    )
    def test_non_finite_reading_is_validation_error(self, tmp_path, capsys, row, fragment):
        p = tmp_path / "pairs.csv"
        p.write_text(f"bx,by,bz,b_rb\n1,0,0,1.2\n0,1,0,0.4\n0,0,1,1.6\n{row}\n")
        rc = main(["calibrate", "--pairs", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and fragment in err
        assert not (tmp_path / "o").exists()

    def test_utf8_bom_pairs_file(self, tmp_path):
        p = tmp_path / "pairs.csv"
        rows = "bx,by,bz,b_rb\n1,0,0,1.2\n0,1,0,0.4\n0,0,1,1.6\n0.5,0.5,0,0.9\n"
        p.write_bytes(b"\xef\xbb\xbf" + rows.encode())
        rc = main(["calibrate", "--pairs", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert "pairs=4\n" in (tmp_path / "o" / "calibration_summary.txt").read_text()

    def test_undecodable_pairs_file(self, tmp_path, capsys):
        p = tmp_path / "pairs.csv"
        p.write_bytes(b"bx,by,bz,b_rb\n1,0,0,1.2\n0,1,0,0.4\n0,0,1,\xff\n")
        rc = main(["calibrate", "--pairs", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_PARSE
        assert err.count("\n") == 1 and "cannot read calibration file" in err
        assert not (tmp_path / "o").exists()

    def test_bad_row(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("bx,by,bz,b_rb\n1,0,0,oops\n")
        rc = main(["calibrate", "--pairs", str(p), "--out", str(tmp_path / "o")])
        assert rc == EXIT_PARSE


class TestSharedParser:
    """main() parses with the one parser built at import, as a fresh parser would."""

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        flags = ["--b-nv", "1.1,0,0", "--b-rb", "1.0", "--out", str(tmp_path)]
        for _ in range(3):
            assert main(["estimate", *flags]) == EXIT_OK
        assert calls == []

    def test_repeated_calls_match_a_fresh_parser(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, "[estimate]\nb_nv = 0.5,0,0\nb_rb = 1.1\n")
        out = str(tmp_path / "o")
        runs = [
            ["no-such-command"],
            ["--version"],
            ["estimate", "--help"],
            ["estimate", "--b-nv", "1.1,0,0", "--b-0", "0,0,0.3", "--b-rb", "1.0", "--out", out],
            # No flags: none of the previous call's values may carry over.
            ["estimate", "--config", cfg, "--out", out],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [run(argv) for argv in runs]
        fresh = []
        for argv in runs:
            monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
            fresh.append(run(argv))
        assert shared == fresh
        unknown, version, help_, flags, config = shared
        assert unknown[0] == EXIT_PARSE and unknown[2].startswith("usage: comag")
        assert "invalid choice: 'no-such-command'" in unknown[2]
        assert version == (0, f"comag {comag.__version__}\n", "")
        assert help_[0] == 0 and "--b-nv B_NV" in help_[1] and help_[2] == ""
        assert flags[0] == EXIT_OK and "b_0          = (0.000000, 0.000000, 0.300000) G" in flags[1]
        assert config[0] == EXIT_OK and "b_0          = (0.000000, 0.000000, 0.000000) G" in config[1]
        assert "b_hat        = (1.100000, 0.000000, 0.000000) G" in config[1]


class TestPlotScripts:
    def test_grid_script_references_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        out = str(tmp_path / "grid")
        main(["simulate-grid", "--config", cfg, "--out", out])
        script = Path(out, "plot_grid.py").read_text()
        assert 'load_csv("grid.csv")' in script
        assert "colorbar" in script
        assert "dB" in script

    def test_spatial_script_has_fit_series(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SPATIAL)
        out = str(tmp_path / "scan")
        main(["spatial-scan", "--config", cfg, "--out", out])
        script = Path(out, "plot_spatial_scan.py").read_text()
        for label in ("Rb scalar", "NV poly fit", "combined"):
            assert label in script

    def test_scripts_compile(self, tmp_path):
        # matplotlib is not a dependency, so the scripts are compiled, not run.
        cfg = write_cfg(tmp_path, FAST_SIM + FAST_SPATIAL + FAST_ANGULAR + FAST_MARGINAL)
        stems = []
        for command in set(COMMANDS) - {"calibrate", "estimate"}:
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
            (script,) = out.glob("plot_*.py")
            stem = script.stem.removeprefix("plot_")
            text = script.read_text()
            compile(text, str(script), "exec")
            assert f'load_csv("{stem}.csv")' in text
            read = set(re.findall(r'data\["(\w+)"\]', text))
            for series in re.findall(r"for col, label, style in (\[.*?\]):", text):
                read |= {col for col, _, _ in ast.literal_eval(series)}
            header = (out / f"{stem}.csv").read_text().splitlines()[0].split(",")
            assert read and read <= set(header), (stem, read - set(header))
            stems.append(stem)
        assert sorted(stems) == sorted(_KINDS)


class TestImportPath:
    def test_commands_never_import_scipy(self, tmp_path):
        # A fresh process: this one has scipy loaded by the other tests.
        cfg = write_cfg(tmp_path, FAST_SIM + FAST_SPATIAL + FAST_ANGULAR + FAST_MARGINAL)
        b_0 = FieldVector(0.004, -0.7454, 0.6451)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("bx,by,bz,b_rb\n" + "".join(
            f"{c.bx},{c.by},{c.bz},{(b_0 + c).magnitude()!r}\n"
            for c in (FieldVector(1, 0, 0), FieldVector(0, 1, 0), FieldVector(0, 0, 1))
        ))
        extra = {
            "calibrate": ["--pairs", str(pairs)],
            "estimate": ["--b-nv=0.1,0.2,0.3", "--b-0=0.004,-0.7454,0.6451", "--b-rb=1.0"],
        }
        runs = [
            [c, "--config", cfg, "--out", str(tmp_path / c), *extra.get(c, [])]
            for c in COMMANDS
        ]
        script = (
            "import json, sys\n"
            "from comag.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([codes, scipy, 'comag.measurement' in sys.modules]))\n"
        )
        src = os.path.dirname(os.path.dirname(comag.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        codes, scipy_modules, spectral = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [EXIT_OK] * len(COMMANDS)
        assert scipy_modules == []
        # The spectral pipeline stays off the command path too.
        assert not spectral

    def test_bare_package_import_loads_no_submodule(self):
        script = (
            "import json, sys\n"
            "import comag\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('comag', 'numpy'))\n"
            "print(json.dumps([loaded, comag.__version__]))\n"
        )
        src = os.path.dirname(os.path.dirname(comag.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, version = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == ["comag"]
        assert version == "0.1.0"

    def test_cli_import_loads_no_executor(self):
        # Start-up loads neither concurrent.futures nor the logging it imports
        # (about 12 ms); the helper-thread draw needs only threading and queue.
        script = (
            "import json, sys\n"
            "import comag.cli\n"
            "roots = ('concurrent', 'logging')\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in roots)))\n"
        )
        src = os.path.dirname(os.path.dirname(comag.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_measurement_imports_no_scipy(self):
        # Both fits and the working-point root finder are numpy and Python; a
        # reading must not pull scipy in lazily either, nor numpy.polynomial.
        script = (
            "import json, sys\n"
            "import comag.measurement as m\n"
            "from comag.geometry import FieldVector, default_basis\n"
            "def scipy():\n"
            "    return sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
            "on_import = scipy()\n"
            "b_0, delta = FieldVector(0.004, -0.7454, 0.6451), FieldVector(0.1, -0.2, 0.05)\n"
            "m.nv_measure(delta, m.DEFAULT_BIAS, b_0, default_basis(), m.OdmrParams(), rng_seed=3)\n"
            "m.rb_measure(delta, b_0, rng_seed=4)\n"
            "polynomial = sorted(k for k in sys.modules if k.startswith('numpy.polynomial'))\n"
            "print(json.dumps([on_import, scipy(), polynomial]))\n"
        )
        src = os.path.dirname(os.path.dirname(comag.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        on_import, after_reading, polynomial = json.loads(proc.stdout.splitlines()[-1])
        assert on_import == []
        assert after_reading == []
        assert polynomial == []

    def test_measurement_keeps_its_solver_attributes(self):
        # The benchmark's tracer wraps these two as attributes of the module.
        from comag import measurement

        assert callable(measurement.least_squares)
        assert callable(measurement.brentq)
        # ...and reads the evaluation count off each least_squares result.
        sol = measurement.least_squares(lambda x: (x - 2.0, np.ones((1, 1))), [0.0])
        assert isinstance(sol.nfev, int) and sol.nfev >= 1


def _code_names(tree, skip=None) -> set:
    """Identifiers the code of ``tree`` names outside the node ``skip``: names,
    attributes, imported names, and string constants that are a whole
    identifier (as a probe's attribute name is).  Comments and docstrings
    do not count."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public_definitions(tree):
    """(label, name, node) for each public top-level def, class and assigned
    name of a module, and each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id, node


def _fields(tree):
    """(label, name) for each annotated field of a module's top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _attribute_reads(tree) -> set:
    """Attribute names that the code of ``tree`` reads, as in ``obj.name``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _parse_folder(folder) -> dict:
    return {
        name[:-3]: ast.parse(Path(folder, name).read_text(encoding="utf-8"))
        for name in sorted(os.listdir(folder))
        if name.endswith(".py")
    }


class TestPublicSurface:
    # README documents default_config_text() as the renderer of every key's
    # default; the planned run manifest writes the resolved config with it.
    UNUSED_BY_DESIGN = {"config.default_config_text"}

    @pytest.fixture(scope="class")
    def sources(self):
        """The parsed modules of src/comag, and those of perfbench."""
        package = os.path.dirname(comag.__file__)
        bench = os.path.join(os.path.dirname(os.path.dirname(package)), "perfbench")
        return _parse_folder(package), _parse_folder(bench)

    def test_every_public_definition_has_a_user(self, sources):
        modules, bench_modules = sources
        users = {name: _code_names(tree) for name, tree in modules.items()}
        bench_users = set().union(*map(_code_names, bench_modules.values()))
        unused = []
        for module, tree in modules.items():
            elsewhere = bench_users.union(*(u for m, u in users.items() if m != module))
            for label, name, node in _public_definitions(tree):
                if name[0] != "_" and name not in elsewhere | _code_names(tree, skip=node):
                    unused.append(f"{module}.{label}")
        assert sorted(set(unused) - self.UNUSED_BY_DESIGN) == []

    def test_every_field_is_read(self, sources):
        # By name, as above: a field that shares its name with one read
        # elsewhere passes.
        modules, bench_modules = sources
        reads = set().union(*map(_attribute_reads, [*modules.values(), *bench_modules.values()]))
        unread = [
            f"{module}.{label}"
            for module, tree in modules.items()
            for label, name in _fields(tree)
            if name not in reads
        ]
        assert unread == []

    def test_every_defaulted_argument_is_passed(self, sources):
        # By name, as above, for module-level functions only: a method may
        # implement another library's interface, as PresetState.generate_state
        # implements numpy's.
        modules, bench_modules = sources
        calls = {}
        for tree in [*modules.values(), *bench_modules.values()]:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
        unpassed = []
        for module, tree in modules.items():
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef):
                    for name, position in _defaulted_parameters(fn.args):
                        if not any(_passes(c, name, position) for c in calls.get(fn.name, [])):
                            unpassed.append(f"{fn.name}.{name}")
        assert unpassed == []


def _defaulted_parameters(args):
    """(name, position) of each parameter with a default; keyword-only ones
    have position None."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional[first:], first):
        yield arg.arg, position
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position) -> bool:
    """Whether ``call`` passes the parameter: by keyword, by position, or
    through ``*args`` or ``**kwargs``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return starred or len(call.args) > position
