"""Sensor parameters: gyromagnetic ratios and the ODMR and LIA scan settings.

They need only numpy, so the config schema holds them without importing
the spectral pipeline, :mod:`comag.measurement`.  Gyromagnetic ratios are
in frequency units (MHz/G for NV, kHz/G for Rb), so ``f = gamma * B`` with
no 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Back-computed from the reported ODMR numbers: 0.6e-3 / (1.4e-3 * 0.150).
GAMMA_NV = 2.857
# Round-number scalar ratio for the Rb vapor channel, kHz/G.
GAMMA_RB = 700.0


@dataclass(frozen=True)
class OdmrParams:
    """Scan and noise parameters for a synthetic ODMR spectrum.

    ``pl_noise`` is the per-point standard deviation of the normalized
    photoluminescence at one average; the effective noise of a spectrum is
    ``pl_noise / sqrt(n_averages)``.
    """

    center_frequency: float = 2870.0
    contrast: float = 0.02
    linewidth: float = 8.0
    n_freqs: int = 60
    scan_span: float = 200.0
    pl_noise: float = 0.6e-3
    n_averages: int = 1

    def __post_init__(self):
        if not 0.0 <= self.contrast < 1.0:
            raise ValueError("contrast must be in [0, 1)")
        if not self.linewidth > 0:
            raise ValueError("linewidth must be positive")
        if self.n_freqs < 3:
            raise ValueError("n_freqs must be >= 3")
        if self.pl_noise < 0:
            raise ValueError("pl_noise must be >= 0")
        if self.n_averages < 1:
            raise ValueError("n_averages must be >= 1")
        if not self.scan_span > 0:
            raise ValueError("scan_span must be positive")

    def frequencies(self) -> np.ndarray:
        half = self.scan_span / 2.0
        return np.linspace(
            self.center_frequency - half, self.center_frequency + half, self.n_freqs
        )

    def effective_noise(self) -> float:
        return self.pl_noise / math.sqrt(self.n_averages)


@dataclass(frozen=True)
class LiaParams:
    """Chirp and noise parameters for a synthetic lock-in trace."""

    chirp_min: float = 300.0
    chirp_max: float = 1500.0
    n_points: int = field(default=1201, metadata={"ini": "lia_points"})
    linewidth: float = field(default=100.0, metadata={"ini": "lia_linewidth"})
    amplitude: float = field(default=5.0e-5, metadata={"ini": "lia_amplitude"})
    y_noise: float = field(default=5.5e-6, metadata={"ini": "lia_y_noise"})

    def __post_init__(self):
        if not self.linewidth > 0:
            raise ValueError("linewidth must be positive")
        if self.y_noise < 0:
            raise ValueError("y_noise must be >= 0")
        if self.n_points < 5:
            raise ValueError("n_points must be >= 5")
        if not self.chirp_max > self.chirp_min:
            raise ValueError("chirp_max must exceed chirp_min")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.chirp_min, self.chirp_max, self.n_points)
