"""The eight commands' output files stay byte-identical to the recorded ones.

Runs the commands as the benchmark's ``cli`` workload does at the default
seed and compares the sha256 of every file written with the digests in
``perfbench/golden/cli.json.gz``.  A change that is meant to move results
records the references again with ``python3 perfbench/golden.py``.
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
