"""Reference outputs recorded at the default seed, and the comparisons.

At ``DEFAULT_SEED`` every workload compares its outputs with the files in
``golden/``: on ``mc_*`` per-rung gain statistics and sampled cells, on
``spectral`` every reading of the round, on ``cli`` every CSV and summary
value.  The tolerances admit reduction-order differences
(relative 1e-9; a CSV column also gets an absolute 1e-9 of its largest
value) and the last digits of an iterative fit (1e-3 of the reading's own
sigma), but not a wrong result.

The sha256 of every file a command writes is compared too, for
information only: a changed digest with matching values is not a failure.

Record the references again, after a change that is meant to move results,
with ``python3 perfbench/golden.py`` from the checkout root.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
DEFAULT_SEED = 1

REL_TOL = 1e-9
COLUMN_ABS_TOL = 1e-9  # times the column's largest finite magnitude
SUMMARY_ABS_TOL = 1e-10
FIT_SIGMA_TOL = 1e-3  # spectral values, in units of the reading's own sigma
SAMPLED_CELLS = 25
GAINS = ("gain_mag_mse_db", "gain_mag_mae_db", "gain_dir_mse_db", "gain_dir_mae_db")

_cache: dict[str, object] = {}


def _path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name + (".json.gz" if name == "cli" else ".json"))


def load(name: str):
    if name not in _cache:
        opener = gzip.open if name == "cli" else open
        with opener(_path(name), "rt", encoding="utf-8") as fh:
            _cache[name] = json.load(fh)
    return _cache[name]


def _close(a: float, b: float, abs_tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + abs_tol


# ---------------------------------------------------------------- studies


def study_record(imps) -> dict:
    import numpy as np

    rungs = []
    for imp in imps:
        rung = {
            "valid": int(np.count_nonzero(imp.valid)),
            "dir_valid": int(np.count_nonzero(imp.dir_valid)),
        }
        for name in GAINS:
            g = getattr(imp, name).ravel()
            finite = g[np.isfinite(g)]
            picks = np.linspace(0, g.size - 1, SAMPLED_CELLS).astype(int)
            rung[name] = {
                "finite": int(finite.size),
                "sum": float(finite.sum()),
                "min": float(finite.min()),
                "max": float(finite.max()),
                "cells": picks.tolist(),
                "values": [float(g[i]) for i in picks],
            }
        rungs.append(rung)
    return {"rungs": rungs}


def compare_study(workload: str, imps, first: int = 0) -> list[str]:
    """Compare the maps ``imps`` with reference rungs ``first`` onwards."""
    got = study_record(imps)["rungs"]
    ref = load(workload)["rungs"][first : first + len(got)]
    if len(got) != len(ref):
        return [f"{len(got)} rungs, reference has {len(ref)}"]
    errors = []
    for r, (g, e) in enumerate(zip(got, ref), start=first):
        for key in ("valid", "dir_valid"):
            if g[key] != e[key]:
                errors.append(f"rung {r}: {key} {g[key]} != {e[key]}")
        for name in GAINS:
            gs, es = g[name], e[name]
            scale = COLUMN_ABS_TOL * max(abs(es["min"]), abs(es["max"]))
            if gs["finite"] != es["finite"]:
                errors.append(f"rung {r} {name}: {gs['finite']} finite, expected {es['finite']}")
            for key in ("sum", "min", "max"):
                if not _close(gs[key], es[key], scale * (es["finite"] if key == "sum" else 1)):
                    errors.append(f"rung {r} {name} {key}: {gs[key]!r} != {es[key]!r}")
            for cell, a, b in zip(es["cells"], gs["values"], es["values"]):
                if not _close(a, b, scale):
                    errors.append(f"rung {r} {name} cell {cell}: {a!r} != {b!r}")
    return errors


# ---------------------------------------------------------------- spectral


def compare_reading(i: int, out: dict) -> list[str]:
    readings = load("spectral")["readings"]
    if i >= len(readings):
        return []
    ref = readings[i]
    if "error" in ref:  # the reading raised when the reference was recorded
        return []
    errors = []
    for key in ("nv", "b_hat"):
        for axis, (a, b) in enumerate(zip(out[key], ref[key])):
            if not abs(a - b) <= FIT_SIGMA_TOL * ref["sigma_nv"][axis]:
                errors.append(f"reading {i} {key}[{axis}]: {a!r} != {b!r}")
    for axis, (a, b) in enumerate(zip(out["sigma_nv"], ref["sigma_nv"])):
        if not abs(a - b) <= FIT_SIGMA_TOL * b:
            errors.append(f"reading {i} sigma_nv[{axis}]: {a!r} != {b!r}")
    if not abs(out["rb"] - ref["rb"]) <= FIT_SIGMA_TOL * ref["sigma_rb"]:
        errors.append(f"reading {i} rb: {out['rb']!r} != {ref['rb']!r}")
    if not abs(out["sigma_rb"] - ref["sigma_rb"]) <= FIT_SIGMA_TOL * ref["sigma_rb"]:
        errors.append(f"reading {i} sigma_rb: {out['sigma_rb']!r} != {ref['sigma_rb']!r}")
    return errors


# ---------------------------------------------------------------- cli


def parse_summary(text: str) -> dict[str, str]:
    """The ``key=value`` lines of a summary file."""
    return dict(line.split("=", 1) for line in text.splitlines() if line)


def _numbers(text: str) -> list[float] | None:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        return None


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def command_record(out_dir: str) -> dict:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        entry = {"sha256": _sha256(path)}
        if name.endswith((".csv", ".txt")):
            with open(path, encoding="utf-8") as fh:
                entry["text"] = fh.read()
        files[name] = entry
    return files


def _compare_csv(name: str, got_text: str, ref_text: str) -> list[str]:
    got = list(csv.reader(got_text.splitlines()))
    ref = list(csv.reader(ref_text.splitlines()))
    if got[:1] != ref[:1]:
        return [f"{name}: header {got[:1]} != {ref[:1]}"]
    if len(got) != len(ref):
        return [f"{name}: {len(got) - 1} rows, reference has {len(ref) - 1}"]
    scales = []
    for col in zip(*ref[1:]):
        finite = [abs(v) for v in (float(c) for c in col if _numbers(c)) if math.isfinite(v)]
        scales.append(COLUMN_ABS_TOL * max(finite, default=0.0))
    errors = []
    for r, (g_row, e_row) in enumerate(zip(got[1:], ref[1:]), start=2):
        if len(g_row) != len(e_row):
            errors.append(f"{name}:{r}: {len(g_row)} cells, expected {len(e_row)}")
            continue
        for c, (a, b) in enumerate(zip(g_row, e_row)):
            na, nb = _numbers(a), _numbers(b)
            same = _close(na[0], nb[0], scales[c]) if na and nb else a == b
            if not same:
                errors.append(f"{name}:{r}:{ref[0][c]}: {a} != {b}")
    return errors


def _compare_summary(name: str, got_text: str, ref_text: str) -> list[str]:
    got, ref = parse_summary(got_text), parse_summary(ref_text)
    if list(got) != list(ref):
        return [f"{name}: keys {list(got)} != {list(ref)}"]
    errors = []
    for key, b in ref.items():
        a = got[key]
        na, nb = _numbers(a), _numbers(b)
        if na and nb and len(na) == len(nb):
            same = all(_close(x, y, SUMMARY_ABS_TOL) for x, y in zip(na, nb))
        else:
            same = a == b
        if not same:
            errors.append(f"{name}: {key}={a} != {b}")
    return errors


def compare_command(command: str, out_dir: str) -> list[str]:
    """Every CSV and summary value the reference holds, within tolerance."""
    errors = []
    for name, entry in load("cli")[command].items():
        if "text" not in entry:
            continue
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            errors.append(f"{name}: missing")
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        compare = _compare_csv if name.endswith(".csv") else _compare_summary
        errors += compare(name, text, entry["text"])
    return errors[:20]


def digest_report(out_root: str, seed: int) -> dict:
    """sha256 of every file each command wrote; matched against the
    reference at the default seed.  Information only."""
    ref = load("cli") if seed == DEFAULT_SEED else {}
    report = {"files": {}, "matching": 0, "differing": []}
    for command in sorted(os.listdir(out_root)):
        out_dir = os.path.join(out_root, command)
        for name in sorted(os.listdir(out_dir)):
            key = f"{command}/{name}"
            digest = _sha256(os.path.join(out_dir, name))
            report["files"][key] = digest
            if not ref:
                continue
            if ref.get(command, {}).get(name, {}).get("sha256") == digest:
                report["matching"] += 1
            else:
                report["differing"].append(key)
    if not ref:
        del report["matching"], report["differing"]
    return report


def main() -> int:
    """Record the references from the checkout in the working directory."""
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import worker

    work = os.path.join(root, ".perfbench", "golden-record")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in worker.WORKLOADS:
        wl = worker.make(name, DEFAULT_SEED, work)
        record = {"seed": DEFAULT_SEED, **wl.golden_record()}
        text = json.dumps(record, indent=None if name == "cli" else 1)
        data = text.encode("utf-8")
        with open(_path(name), "wb") as fh:
            fh.write(gzip.compress(data, mtime=0) if name == "cli" else data)
        print(f"recorded {_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
