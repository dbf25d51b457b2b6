"""Plot-script emission.

Each report gets a self-contained matplotlib script referencing the CSV in
the same directory; one stem names the report's CSV, its plot and its kind.
Running the scripts is optional and never part of the test suite; the tool
only writes them.
"""

from __future__ import annotations

from .reports import atomic_write_text

_PREAMBLE = '''#!/usr/bin/env python3
"""Generated by comag; run in the directory containing {stem}.csv."""
import csv
import math
import sys

import matplotlib.pyplot as plt
import numpy as np


def load_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float("nan") if v == "nan" else v for v in row] for row in reader]
    return header, rows


header, rows = load_csv("{stem}.csv")
if not rows:
    print("no data in {stem}.csv")
    sys.exit(0)
data = {{name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}}
'''

_HEATMAP_BODY = '''
xs = np.unique(data["bx"])
ys = np.unique(data["by"])
grid = data["{zcol}"].reshape(len(ys), len(xs))
fig, ax = plt.subplots(figsize=(6.2, 5.0))
mesh = ax.pcolormesh(xs, ys, grid, shading="nearest", cmap="viridis")
fig.colorbar(mesh, ax=ax, label="{zlabel}")
ax.set_xlabel("Bx (G)")
ax.set_ylabel("By (G)")
ax.set_title("{title}")
fig.tight_layout()
fig.savefig("{stem}.png", dpi=160)
print("wrote {stem}.png")
'''

_CURVES_BODY = '''
fig, ax = plt.subplots(figsize=(6.8, 4.6))
for col, label, style in {series!r}:
    ax.plot(data["{xcol}"], data[col], style, label=label)
ax.set_xlabel("{xlabel}")
ax.set_ylabel("{ylabel}")
ax.set_title("{title}")
ax.legend()
fig.tight_layout()
fig.savefig("{stem}.png", dpi=160)
print("wrote {stem}.png")
'''

_KINDS = {
    "grid": dict(
        body=_HEATMAP_BODY,
        zcol="gain_mag_mse_db",
        zlabel="magnitude MSE gain (dB)",
        title="Combined vs NV-only improvement",
    ),
    "orthogonality": dict(
        body=_HEATMAP_BODY,
        zcol="orthogonality",
        zlabel="|cos| correction vs field",
        title="Correction orthogonality diagnostic",
    ),
    "angular_map": dict(
        body=_HEATMAP_BODY,
        zcol="total_db",
        zlabel="angular uncertainty (dB)",
        title="Vector-reading angular uncertainty",
    ),
    "marginal": dict(
        body=_CURVES_BODY,
        xcol="b_applied",
        series=[
            ("gain_mag_mse_db", "MSE gain (dB)", "-"),
            ("gain_mag_mae_db", "MAE gain (dB)", "--"),
        ],
        xlabel="applied field (G)",
        ylabel="gain (dB)",
        title="Single-axis improvement profile",
    ),
    "spatial_scan": dict(
        body=_CURVES_BODY,
        xcol="position_mm",
        series=[
            ("rb_mag", "Rb scalar", "-"),
            ("rb_fit", "Rb poly fit", "r-"),
            ("nv_mag", "NV magnitude", "-"),
            ("nv_fit", "NV poly fit", "g-"),
            ("combined_mag", "combined", "-"),
        ],
        xlabel="stage position (mm)",
        ylabel="field magnitude (G)",
        title="Spatial scan: Rb, NV, and combined",
    ),
    "scalar_demo": dict(
        body=_CURVES_BODY,
        xcol="position_mm",
        series=[
            ("true_mag", "true magnitude", "k-"),
            ("combined", "combined", "-"),
            ("naive", "naive scalar subtraction", "--"),
            ("combined_reversed", "combined, background reversed", "-"),
            ("naive_reversed", "naive, background reversed", "--"),
        ],
        xlabel="stage position (mm)",
        ylabel="field magnitude (G)",
        title="Vector vs scalar background subtraction",
    ),
}


def emit_plot_script(stem: str, out_path: str) -> None:
    """Write a standalone script that plots <stem>.csv into <stem>.png."""
    spec = dict(_KINDS[stem])
    body = spec.pop("body")
    atomic_write_text(out_path, _PREAMBLE.format(stem=stem) + body.format(stem=stem, **spec))
