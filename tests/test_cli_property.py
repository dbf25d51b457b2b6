"""Property test of the CLI boundary: no config or pairs value ends in a traceback.

Each example runs one command on a small base config with one to three keys
or flags set to edge values, or ``calibrate`` on a pairs file with one to
three cells set to edge numbers.  Whatever the values, the command must exit
0, 2, 3 or 4 with at most one line on stderr and no warning.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from comag.cli import _COMMANDS, main
from comag.config import _KEYS

# Keeps every example to milliseconds: no edge value below parses as a size
# larger than these.
BASE = {
    "simulation": {"grid_points": "3", "n_reps": "2"},
    "spatial": {"n_positions": "5", "n_reps": "2"},
    "angular": {"grid_points": "3"},
    "marginal": {"n_points": "3"},
    "estimate": {"b_nv": "0.1,0.2,0.3", "b_rb": "1.0"},
}
PAIRS = "bx,by,bz,b_rb\n1,0,0,1.2\n0,1,0,0.4\n0,0,1,1.6\n0.5,0.5,0,0.9\n"

NUMBERS = ["0", "1", "-1", "1e308", "-1e308", "1e-320", "5e-324", "nan", "inf", "-inf"]
values = st.one_of(
    st.sampled_from(NUMBERS + ["", "1,2", "1e308,1e308"]),
    st.tuples(*[st.sampled_from(NUMBERS)] * 3).map(",".join),
)
# The flags each command takes with a value, besides --config and --out.
FLAGS = {c: ("--seed",) for c in _COMMANDS} | {
    "estimate": ("--seed", "--b-nv", "--b-0", "--b-rb"),
    "calibrate": ("--seed", "--pairs"),
}
# An entry is an INI (section, key), or ("flag", name); a flag the command
# does not take is left out.  Half the entries are flags.
entries = st.one_of(
    st.sampled_from([(s, k) for s, keys in _KEYS.items() for k in keys]),
    st.sampled_from([("flag", f) for f in sorted(set().union(*FLAGS.values()))]),
)
overrides = st.lists(st.tuples(entries, values), min_size=1, max_size=3)
HEADER, *PAIR_ROWS = [line.split(",") for line in PAIRS.splitlines()]
pair_cells = st.lists(
    st.tuples(st.integers(0, len(PAIR_ROWS) - 1), st.integers(0, 3), st.sampled_from(NUMBERS)),
    min_size=1,
    max_size=3,
)


def run(command: str, changes, pairs: str = PAIRS) -> tuple[int, str, list]:
    with tempfile.TemporaryDirectory() as tmp:
        sections = {s: dict(keys) for s, keys in BASE.items()}
        sections["calibrate"] = {"pairs_csv": os.path.join(tmp, "pairs.csv")}
        flags = []
        for (section, key), value in changes:
            if section != "flag":
                sections.setdefault(section, {})[key] = value
            elif key in FLAGS[command]:
                flags.append(f"{key}={value}")  # the = form takes a leading minus
        text = "".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for s, keys in sections.items()
        )
        with open(os.path.join(tmp, "pairs.csv"), "w") as fh:
            fh.write(pairs)
        cfg = os.path.join(tmp, "cfg.ini")
        with open(cfg, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with (
            warnings.catch_warnings(record=True) as caught,
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
        ):
            warnings.simplefilter("always")
            rc = main([command, "--config", cfg, "--out", os.path.join(tmp, "out"), *flags])
    return rc, err.getvalue(), [str(w.message) for w in caught]


def assert_clean_exit(rc: int, err: str, caught: list) -> None:
    assert rc in (0, 2, 3, 4), err
    assert err.count("\n") <= 1, err
    assert "Traceback" not in err
    assert caught == []


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(tuple(_COMMANDS)), overrides)
# The four traceback classes of the first boundary search, now one-line exits.
@example("angular-map", [(("angular", "grid_min"), "1e-160")])
@example("scalar-demo", [(("spatial", "source_axis"), "-1e200,1e200,0")])
@example("spatial-scan", [(("spatial", "b_0"), "1e308,0,0")])
@example("spatial-scan", [(("spatial", "stage_range"), "1e308")])
# Numpy warnings: no finite marginal gain, and a stage too short for its fit.
@example("marginal", [(("simulation", "sigma_nv"), "1e-300")])
@example("spatial-scan", [(("spatial", "stage_range"), "1e-300")])
# Found by this test: an overflowing correction, overflow and invalid values
# inside a harness, a source carried onto the sensor, and no finite angular total.
@example("estimate", [(("estimate", "b_rb"), "1e308")])
@example("simulate-grid", [(("simulation", "b_0"), "1e-320,-1e308,1e-320")])
@example("scalar-demo", [(("spatial", "dipole_moment"), "-1e308")])
@example("spatial-scan", [(("spatial", "standoff"), "1e-320")])
@example("scalar-demo", [(("spatial", key), "1e-320") for key in ("perp_offset", "standoff")])
@example("angular-map", [(("angular", "sigma"), "1e-320")])
# Flags were argparse's: a bad value printed three lines of usage.
@example("estimate", [(("flag", "--b-rb"), "1,2")])
@example("estimate", [(("flag", "--b-rb"), "abc"), (("flag", "--b-nv"), "1,0")])
@example("simulate-grid", [(("flag", "--seed"), "x")])
@example("calibrate", [(("flag", "--pairs"), ""), (("flag", "--seed"), "-1")])
def test_any_config_value_exits_cleanly(command, changes):
    assert_clean_exit(*run(command, changes))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(pair_cells)
def test_any_pairs_value_exits_cleanly(cells):
    rows = [list(row) for row in PAIR_ROWS]
    for i, j, value in cells:
        rows[i][j] = value
    pairs = "".join(",".join(row) + "\n" for row in [HEADER, *rows])
    assert_clean_exit(*run("calibrate", [], pairs))
