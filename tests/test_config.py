import math
import re
from pathlib import Path

import pytest

from comag.cli import _COMMANDS, _PARSER, _load_settings, main
from comag.config import (
    EstimateSettings,
    RunSettings,
    default_config_text,
    parse_config,
    parse_config_text,
)
from comag.errors import ConfigParseError, ConfigValidationError
from comag.plots import _KINDS


def ini_keys(text):
    """Section -> key names, in order, of an INI text (comments ignored)."""
    keys = {}
    for line in text.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = keys.setdefault(m.group(1), [])
        elif m := re.match(r"(\w+) =", line):
            section.append(m.group(1))
    return keys


class TestDefaults:
    def test_empty_text_gives_documented_defaults(self):
        st = parse_config_text("")
        sim = st.simulation
        assert sim.grid_min == -1.5
        assert sim.grid_max == 1.5
        assert sim.n_reps == 50
        assert sim.sigma_ratio == 1000.0
        assert sim.sigma_rb is None
        assert sim.resolved_sigma_rb() == pytest.approx(sim.sigma_nv / 1000.0)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.ini"
        p.write_text("")
        assert parse_config(str(p)) == RunSettings()

    def test_round_trip(self):
        text = default_config_text()
        assert parse_config_text(text) == RunSettings()

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert list(ini_keys(block).items()) == list(ini_keys(default_config_text()).items())

    def test_readme_lists_every_command(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| ([a-z-]+) +\| (.*?) *\|$", readme, re.M))
        assert set(_COMMANDS) <= set(rows)
        listed = " ".join(rows.values())
        for stem in _KINDS:
            for name in (f"{stem}.csv", f"{stem}_summary.txt", f"plot_{stem}.py"):
                assert f"`{name}`" in listed

    def test_readme_lists_every_csv_header(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = dict(re.findall(r"^- `(\w+\.csv)`: `([\w,]+)`$", readme, re.M))
        cfg = tmp_path / "small.ini"
        cfg.write_text(
            "[simulation]\ngrid_points = 5\nn_reps = 4\n[spatial]\nn_positions = 12\nn_reps = 4\n"
            "[marginal]\nn_points = 5\n"
            "[estimate]\nb_nv = 1.1,0,0\nb_rb = 1.0\n"
        )
        out = tmp_path / "out"
        for command in set(_COMMANDS) - {"calibrate"}:  # calibrate writes no CSV
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        written = {p.name: p.read_text().split("\n", 1)[0] for p in out.glob("*.csv")}
        assert written == listed

    def test_missing_file(self):
        with pytest.raises(ConfigParseError):
            parse_config("/no/such/config.ini")


class TestOverrides:
    def test_simulation_values(self):
        st = parse_config_text(
            "[simulation]\ngrid_points = 11\nsigma_nv = 0.1\nsigma_rb = 0.002\n"
            "b_0 = 0.5,0,0\nseed = 9\n"
        )
        sim = st.simulation
        assert sim.grid_points == 11
        assert sim.sigma_nv == 0.1
        assert sim.resolved_sigma_rb() == 0.002
        assert sim.b_0_true.as_array() == pytest.approx([0.5, 0.0, 0.0])
        assert sim.seed == 9

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[simulation]\nseed = 3\n[spatial]\nseed = 4\n")
        args = _PARSER.parse_args(["orthogonality", "--config", str(cfg), "--seed", "99"])
        st = _load_settings(args)
        assert st.simulation.seed == 99
        assert st.spatial.seed == 99


class TestErrors:
    def test_unknown_key_suggests(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("[simulation]\nsigmaNv = 0.1\n")
        assert "sigma_nv" in str(err.value)

    def test_unknown_section_suggests(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("[simulatoin]\n")
        assert "simulation" in str(err.value)

    def test_negative_sigma_names_constraint(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config_text("[simulation]\nsigma_rb = -1\n")
        assert "sigma_rb" in str(err.value)

    def test_bad_number(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("[simulation]\ngrid_min = abc\n")
        assert "grid_min" in str(err.value)

    def test_bad_vector(self):
        with pytest.raises(ConfigParseError):
            parse_config_text("[simulation]\nb_0 = 1,2\n")

    def test_malformed_ini(self):
        with pytest.raises(ConfigParseError):
            parse_config_text("not an ini file at all\n")

    def test_nan_rb_rejected(self):
        with pytest.raises(ValueError, match="estimate b_rb must be >= 0"):
            EstimateSettings(b_rb=math.nan)

    def test_bad_marginal_axis(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("[marginal]\naxis = q\n")
