"""Every benchmark workload's outputs match the recorded references.

Runs the eight commands as the benchmark's ``cli`` workload does at the
default seed and compares the sha256 of every file written with the digests
in ``perfbench/golden/cli.json.gz``.  The ``mc_wide`` and ``mc_deep`` studies
and the ``spectral`` readings are compared with their references within the
tolerances of ``perfbench/golden.py``.  A change that is meant to move
results records the references again with ``python3 perfbench/golden.py``.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import golden  # noqa: E402
import worker  # noqa: E402


def test_cli_outputs_match_golden_digests(tmp_path):
    cli = worker.Cli(golden.DEFAULT_SEED, str(tmp_path))
    codes = {c: cli.run_command(c)[0] for c in worker.CLI_COMMANDS}
    assert codes == {c: 0 for c in worker.CLI_COMMANDS}
    report = golden.digest_report(cli.out, golden.DEFAULT_SEED)
    assert report["differing"] == []
    assert report["matching"] == 20


def test_mc_wide_matches_golden():
    wide = worker.McWide(golden.DEFAULT_SEED)
    maps = wide.sim.sweep_calibration_error(wide.cfg).values()
    assert golden.compare_study("mc_wide", list(maps)) == []


def test_mc_deep_matches_golden():
    deep = worker.McDeep(golden.DEFAULT_SEED)
    assert golden.compare_study("mc_deep", [deep.sim.run_grid_simulation(deep.cfg)]) == []


def test_spectral_matches_golden():
    spectral = worker.Spectral(golden.DEFAULT_SEED)
    for i in range(worker.SPECTRAL_ROUND):
        assert golden.compare_reading(i, spectral.reading(i)) == []
