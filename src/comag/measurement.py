"""Sensor models: synthetic generation and fitting of both magnetometers.

The NV channel produces optically-detected magnetic resonance (ODMR)
spectra whose dip positions encode the per-axis field projections; the Rb
channel produces lock-in amplifier (LIA) chirp traces whose dispersive
quadrature crosses zero at the Larmor resonance.  Fitting either trace
yields a field reading together with an empirically derived uncertainty.
Gyromagnetic ratios are in frequency units (MHz/G for NV, kHz/G for Rb),
so ``f = gamma * B`` with no 2*pi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NoResonanceError,
    ResonanceOutOfRangeError,
    UnresolvedPeaksError,
)
from .geometry import (
    FieldVector,
    OrientationBasis,
    project_field,
    recovery_matrix,
    select_best_axes,
)

# Max-slope point of a Lorentzian sits linewidth/(2*sqrt(3)) off center.
_MAX_SLOPE_OFFSET = 1.0 / (2.0 * math.sqrt(3.0))

_FIT_TOL = 1e-14  # of least_squares' scaled-gradient, cost-decrease and step tests

# Back-computed from the reported ODMR numbers: 0.6e-3 / (1.4e-3 * 0.150).
GAMMA_NV = 2.857
# Round-number scalar ratio for the Rb vapor channel, kHz/G.
GAMMA_RB = 700.0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OdmrParams:
    """Scan and noise parameters for a synthetic ODMR spectrum.

    ``pl_noise`` is the per-point standard deviation of the normalized
    photoluminescence.
    """

    center_frequency: float = 2870.0
    contrast: float = 0.02
    linewidth: float = 8.0
    n_freqs: int = 60
    scan_span: float = 200.0
    pl_noise: float = 0.6e-3

    def __post_init__(self):
        if not math.isfinite(self.center_frequency):
            raise ValueError("center_frequency must be finite")
        if not 0.0 <= self.contrast < 1.0:
            raise ValueError("contrast must be in [0, 1)")
        if not self.linewidth > 0:
            raise ValueError("linewidth must be positive")
        if not math.isfinite(self.linewidth):
            raise ValueError("linewidth must be finite")
        if self.n_freqs < 3:
            raise ValueError("n_freqs must be >= 3")
        if not self.pl_noise >= 0:
            raise ValueError("pl_noise must be >= 0")
        if not math.isfinite(self.pl_noise):
            raise ValueError("pl_noise must be finite")
        if not self.scan_span > 0:
            raise ValueError("scan_span must be positive")
        if not math.isfinite(self.scan_span):
            raise ValueError("scan_span must be finite")

    @functools.cached_property
    def frequencies(self) -> np.ndarray:
        """The scan grid, MHz: built once per params object, and read-only."""
        half = self.scan_span / 2.0
        return _read_only(
            np.linspace(self.center_frequency - half, self.center_frequency + half, self.n_freqs)
        )


@dataclass(frozen=True)
class LiaParams:
    """Chirp and noise parameters for a synthetic lock-in trace."""

    chirp_min: float = 300.0
    chirp_max: float = 1500.0
    n_points: int = 1201
    linewidth: float = 100.0
    amplitude: float = 5.0e-5
    y_noise: float = 5.5e-6

    def __post_init__(self):
        if not self.linewidth > 0:
            raise ValueError("linewidth must be positive")
        if not math.isfinite(self.linewidth):
            raise ValueError("linewidth must be finite")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if not self.y_noise >= 0:
            raise ValueError("y_noise must be >= 0")
        if not math.isfinite(self.y_noise):
            raise ValueError("y_noise must be finite")
        if self.n_points < 5:
            raise ValueError("n_points must be >= 5")
        if not self.chirp_max > self.chirp_min:
            raise ValueError("chirp_max must exceed chirp_min")
        if not math.isfinite(self.chirp_min) or not math.isfinite(self.chirp_max):
            raise ValueError("chirp_min and chirp_max must be finite")

    @functools.cached_property
    def frequencies(self) -> np.ndarray:
        """The chirp grid, kHz: built once per params object, and read-only."""
        return _read_only(np.linspace(self.chirp_min, self.chirp_max, self.n_points))


class LeastSquaresResult(NamedTuple):
    """Solution, residual vector there, and evaluations of the residual function."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


def least_squares(model, x0) -> LeastSquaresResult:
    """Levenberg-Marquardt minimum of ``sum(r**2)`` from ``x0``, where ``model(x)`` returns
    the residual vector r and its Jacobian J at x.

    Each trial step solves ``(J^T J + lam * D) dx = -J^T r`` with D = diag(J^T J), damped
    in place (Marquardt's scaling, as in Moré 1978); lam shrinks after a step that lowers
    the cost and grows after one that does not.  The predicted decrease |J dx|^2 +
    2 lam dx.D.dx then equals lam dx.D.dx - dx.J^T r.  Stops when the scaled gradient,
    the relative predicted cost decrease or the scaled step falls to 1e-14, or after
    MINPACK's default of 100 * (n + 1) evaluations of ``model``.  The cost-decrease test
    reads the predicted decrease of the solved step before ``model`` evaluates it, and
    returns the current point, so no fit ends by evaluating a step predicted to gain
    less than the cost's rounding.
    """
    x = np.array(x0, dtype=float)
    r, j = model(x)
    cost, nfev, lam, nu, moved = float(r @ r), 1, 1e-3, 2.0, True
    while nfev < 100 * (len(x) + 1):
        if moved:
            a, g = j.T @ j, j.T @ r
            undamped = a.diagonal().copy()
            d = np.where(undamped == 0.0, 1.0, undamped)
            if (np.abs(g) / np.sqrt(d)).max() <= _FIT_TOL * math.sqrt(cost):
                break
        a.flat[:: len(x) + 1] = undamped + lam * d
        step = np.linalg.solve(a, -g)
        scaled2 = float(d @ step**2)
        predicted = lam * scaled2 - float(step @ g)
        if predicted <= _FIT_TOL * cost:
            break
        x_new = x + step
        r_new, j_new = model(x_new)
        nfev += 1
        cost_new = float(r_new @ r_new)
        actual = cost - cost_new
        moved = actual > 0.0
        if moved:
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * actual / predicted - 1.0) ** 3)
            x, r, j, cost, nu = x_new, r_new, j_new, cost_new, 2.0
        else:
            lam, nu = lam * nu, 2.0 * nu
        if math.sqrt(scaled2) <= _FIT_TOL * math.sqrt(d @ x**2):
            break
    return LeastSquaresResult(x, r, nfev)


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` bracketed by ``[a, b]`` by Brent's (1973) method, at most 100 iterations.

    A line-for-line port of scipy's ``brentq.c``, so it returns the same root.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq failed to converge after 100 iterations, value is {xcur}")


@dataclass(frozen=True)
class OdmrSpectrum:
    """Synthetic ODMR trace: frequencies (MHz), normalized PL, and the standard
    deviation of the PL noise, the same at every point."""

    freqs: np.ndarray
    pl: np.ndarray
    noise: float

    def __post_init__(self):
        if len(self.freqs) != len(self.pl):
            raise ValueError("spectrum arrays must have equal length")
        if not 0.0 <= self.noise < math.inf:
            raise ValueError("noise must be finite and >= 0")


@dataclass(frozen=True)
class OdmrFit:
    """Fitted ODMR lineshape: the center (MHz), contrast and width (MHz) of each
    of the four dips, in ascending frequency, and ``delta_pl``, the RMS residual
    of the fit, which estimates the per-point PL noise.
    """

    peak_freqs: np.ndarray
    contrasts: np.ndarray
    linewidths: np.ndarray
    delta_pl: float


@dataclass(frozen=True)
class LiaSignal:
    """Lock-in outputs over the modulation chirp: in-phase X and quadrature Y (V)."""

    mod_freqs: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if not len(self.mod_freqs) == len(self.x) == len(self.y):
            raise ValueError("signal arrays must have equal length")


@dataclass(frozen=True)
class LiaFit:
    """Scalar field reading of an LIA trace (G) with its slope-method sensitivity."""

    b_rb: float
    sigma_rb: float


def slope_sensitivity(scatter: float, slope: float, gamma: float) -> float:
    """Field sensitivity of a signal read at a working point, Gauss.

    sigma = scatter / (gamma * m), with the slope m of the signal per frequency
    unit: dPL / (gamma * m) for one PL sample at the maximum-slope point of an
    ODMR dip, dY / (gamma * m) for the lock-in quadrature at its zero crossing.
    """
    if slope <= 0:
        raise ValueError("slope must be positive")
    return scatter / (gamma * slope)


def _lorentzian_dips(freqs, baseline, contrasts, centers, widths):
    pl = np.full_like(freqs, baseline, dtype=float)
    for c, f0, w in zip(contrasts, centers, widths):
        half = w / 2.0
        pl = pl - c * half**2 / ((freqs - f0) ** 2 + half**2)
    return pl


def _lorentzian_dips_jac(freqs, contrasts, centers, widths):
    """Jacobian of ``_lorentzian_dips``: baseline, then (contrast, center, width) per dip."""
    half2 = (widths / 2.0) ** 2
    u = freqs[:, None] - centers
    d = u**2 + half2
    r = half2 / d  # each dip's depth per unit contrast
    jac = np.empty((len(freqs), 1 + 3 * len(contrasts)))
    jac[:, 0] = 1.0
    jac[:, 1::3] = -r
    jac[:, 2::3] = -2.0 * contrasts * r * u / d
    jac[:, 3::3] = -0.5 * contrasts * widths * (u / d) ** 2
    return jac


def synth_odmr(
    b_total: FieldVector,
    basis: OrientationBasis,
    params: OdmrParams,
    gamma: float = GAMMA_NV,
    rng_seed: int | None = 0,
) -> OdmrSpectrum:
    """Forward model of an ODMR scan of the total field.

    One Lorentzian dip per NV axis at center_frequency plus the signed
    Larmor shift of that axis projection, on a unit baseline, plus
    Gaussian noise of std pl_noise per point.  Deterministic for a fixed seed.
    """
    freqs = params.frequencies
    proj = project_field(basis, b_total)
    centers = params.center_frequency + gamma * proj
    pl = _lorentzian_dips(freqs, 1.0, [params.contrast] * 4, centers, [params.linewidth] * 4)
    if params.pl_noise > 0:
        rng = np.random.default_rng(rng_seed)
        pl = pl + rng.normal(0.0, params.pl_noise, size=freqs.shape)
    return OdmrSpectrum(freqs=freqs, pl=pl, noise=params.pl_noise)


def _find_peaks(x: np.ndarray, prominence: float, distance: int):
    """``scipy.signal.find_peaks(x, prominence=prominence, distance=distance)`` for
    finite ``x``: peaks at the midpoints of plateaus above both neighbours, thinned by
    distance from the highest down in ``np.argsort`` order, and their ``prominences``
    (height above the higher minimum before a strictly higher sample on each side)."""
    dx = np.diff(x)
    steps = np.flatnonzero(dx)
    top = np.flatnonzero((dx[steps[:-1]] > 0) & (dx[steps[1:]] < 0))
    peaks = (steps[top] + 1 + steps[top + 1]) // 2
    if distance > 1:
        keep = np.ones(len(peaks), dtype=bool)
        for j in np.argsort(x[peaks])[::-1]:
            if keep[j]:
                keep[np.abs(peaks - peaks[j]) < distance] = False
                keep[j] = True
        peaks = peaks[keep]
    xs, prominences = x.tolist(), []
    for p in peaks.tolist():
        h, lo, hi = xs[p], p, p
        while lo > 0 and xs[lo - 1] <= h:
            lo -= 1
        while hi < len(xs) - 1 and xs[hi + 1] <= h:
            hi += 1
        prominences.append(h - max(min(xs[lo : p + 1]), min(xs[p : hi + 1])))
    prominences = np.array(prominences)
    keep = prominences >= prominence
    return peaks[keep], prominences[keep]


def _median(xs: list) -> float:
    """``np.median`` of the ascending list ``xs``, bit for bit."""
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def _percentile_90(xs: list) -> float:
    """``np.percentile(xs, 90)`` of the ascending list ``xs``, bit for bit (numpy's lerp)."""
    v = (len(xs) - 1) * 0.9
    t, a, b = v - int(v), xs[int(v)], xs[int(v) + 1]
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _find_dips(spectrum: OdmrSpectrum, params: OdmrParams):
    """Grid indices (ascending) of the four most prominent dips, one per NV
    axis, the depth below the estimated baseline, the prominence threshold and
    that baseline.  Raises :class:`UnresolvedPeaksError` when fewer dips are found."""
    freqs = np.asarray(spectrum.freqs, dtype=float)
    pl = np.asarray(spectrum.pl, dtype=float)
    spacing = _median(sorted(np.diff(freqs).tolist()))

    pl_sorted = sorted(pl.tolist())
    baseline0 = _percentile_90(pl_sorted)
    depth = baseline0 - pl
    max_depth = baseline0 - pl_sorted[0]
    noise_est = spectrum.noise
    if noise_est == 0.0:
        diffs = np.diff(pl)
        noise_est = float(np.median(np.abs(diffs - np.median(diffs)))) / 0.6745 / math.sqrt(2)
    prominence = max(0.12 * max_depth, 4.0 * noise_est, 1e-12)
    distance = max(1, int(0.6 * params.linewidth / spacing))
    idx, prominences = _find_peaks(depth, prominence, distance)
    if len(idx) < 4:
        raise UnresolvedPeaksError(f"found {len(idx)} dips, expected 4; peaks likely overlap")
    if len(idx) > 4:
        idx = np.sort(idx[np.argsort(prominences)[-4:]])
    return idx, depth, prominence, baseline0


def fit_odmr(spectrum: OdmrSpectrum, params: OdmrParams) -> OdmrFit:
    """Least-squares fit of the four NV dips of an ODMR spectrum.

    Each dip a prominence-based peak search finds is seeded between grid points,
    at the vertex of the parabola through its three samples, and all are refined
    by a joint Levenberg-Marquardt fit (:func:`least_squares`, numpy only) of
    baseline, contrasts, centers and widths.  The model is linear in the baseline
    and contrasts, so its callback builds the analytic Jacobian once per point
    and forms the residual from it.  Raises
    :class:`UnresolvedPeaksError` when fewer than four dips can be located
    (overlapping orientations, insufficient bias field).
    """
    freqs = np.asarray(spectrum.freqs, dtype=float)
    pl = np.asarray(spectrum.pl, dtype=float)
    idx, depth, prominence, baseline0 = _find_dips(spectrum, params)

    f_ref = float(freqs[0])
    # Parameters: baseline, then (contrast, center offset, width) per dip.
    p0, fs, ds = [baseline0], freqs.tolist(), depth.tolist()
    for i in idx.tolist():  # the vertex of the parabola through the dip's three samples
        y0, y1, y2 = ds[i - 1 : i + 2]
        curvature = y0 - 2.0 * y1 + y2
        vertex = 0.5 * (y0 - y2) / curvature if curvature < 0.0 else 0.0  # 0 on a flat top
        offset = fs[i] + vertex * (fs[i + 1] - fs[i - 1]) / 2.0 - f_ref
        p0 += [max(y1 - 0.25 * (y0 - y2) * vertex, prominence), offset, params.linewidth]

    def unpack(p):
        return p[0], p[1::3], f_ref + p[2::3], p[3::3]

    def model(p):  # linear in the baseline and the contrasts
        jac = _lorentzian_dips_jac(freqs, *unpack(p)[1:])
        return p[0] + jac[:, 1::3] @ p[1::3] - pl, jac

    sol = least_squares(model, p0)
    _, contrasts, centers, widths = unpack(sol.x)
    widths = np.abs(widths)
    contrasts = np.abs(contrasts)

    order = np.argsort(centers)
    contrasts, centers, widths = contrasts[order], centers[order], widths[order]

    dof = max(len(freqs) - len(sol.x), 1)
    delta_pl = float(math.sqrt(np.sum(sol.fun**2) / dof))
    return OdmrFit(peak_freqs=centers, contrasts=contrasts, linewidths=widths, delta_pl=delta_pl)


def nv_measure(
    delta_b: FieldVector,
    b_bias: FieldVector,
    b_0: FieldVector,
    basis: OrientationBasis,
    params: OdmrParams,
    gamma: float = GAMMA_NV,
    rng_seed: int | None = 0,
) -> tuple[FieldVector, np.ndarray]:
    """Differential NV vector measurement of the small field delta_b.

    Runs two synthetic scans, with and without delta_b applied on top of
    the bias and background.  The reference scan is fitted; the signal
    scan only has its dips counted, so :class:`UnresolvedPeaksError` is
    raised when delta_b merges them.  The per-axis Larmor shift is
    then read out at the maximum-slope working point of each reference
    dip: the shift of the fitted lineshape that gives the PL difference
    between the scans at that frequency, solved in closed form, so no
    lineshape-curvature bias is left.  A dip whose shift noise carries past
    the right flank's monotone range is read at the working point of its
    left flank instead, with that point's slope.  Bias and background cancel
    in the difference, so the expectation depends only on delta_b.

    The three orientations with the smallest per-axis uncertainty feed the
    lab-frame recovery.  Returns the recovered lab-frame field and the
    per-lab-axis standard deviation of the reading.
    """
    seq = np.random.SeedSequence(rng_seed)
    seed_sig, seed_ref = seq.spawn(2)
    total_sig = b_bias + delta_b + b_0
    total_ref = b_bias + b_0
    spec_sig = synth_odmr(total_sig, basis, params, gamma, seed_sig)
    spec_ref = synth_odmr(total_ref, basis, params, gamma, seed_ref)
    fit_ref = fit_odmr(spec_ref, params)
    _find_dips(spec_sig, params)

    # Dips are reported in ascending frequency; the bias field dominates
    # the shifts, so the frequency order of the bias projections maps dips
    # back to axes.
    bias_proj = project_field(basis, b_bias)
    axis_order = np.argsort(bias_proj)

    freqs = spec_ref.freqs
    # The model's slope in frequency: minus the sum of its center derivatives.
    jac = _lorentzian_dips_jac(freqs, fit_ref.contrasts, fit_ref.peak_freqs, fit_ref.linewidths)
    slopes = -jac[:, 2::3].sum(axis=1)
    readout_idx = [_working_point_index(freqs, slopes, fit_ref, i) for i in range(4)]
    dpl, df_dips = spec_ref.pl - spec_sig.pl, np.zeros(4)

    def invert(dip_i):
        j = readout_idx[dip_i]
        return _invert_working_point(float(dpl[j]), freqs[j], dip_i, fit_ref, df_dips)

    # Invert each dip's shift, then re-sweep with the other dips' estimated
    # shifts in the signal model: the tails of neighbouring dips move with
    # their own shifts, and ignoring that leaves a few-mG systematic.
    for _ in range(3):
        for dip_i in range(4):
            try:
                df_dips[dip_i] = invert(dip_i)
            except UnresolvedPeaksError:
                if freqs[readout_idx[dip_i]] < fit_ref.peak_freqs[dip_i]:  # left flank too
                    raise
                readout_idx[dip_i] = _working_point_index(freqs, slopes, fit_ref, dip_i, side=-1)
                df_dips[dip_i] = invert(dip_i)

    delta_f, sigma_axis = np.zeros(4), np.zeros(4)
    for dip_i in range(4):
        axis_i = int(axis_order[dip_i])
        delta_f[axis_i] = df_dips[dip_i]
        if fit_ref.delta_pl > 0:
            # Two independent scans contribute to the PL difference.
            sigma_axis[axis_i] = math.sqrt(2.0) * slope_sensitivity(
                fit_ref.delta_pl, abs(slopes[readout_idx[dip_i]]), gamma
            )

    # The lab-frame field and its independent-noise sigmas, sqrt(diag(W S W^T)),
    # from one recovery matrix W.
    idx = list(select_best_axes(np.where(sigma_axis > 0, sigma_axis, np.inf)))
    w = recovery_matrix(basis, idx)
    b_lab = FieldVector.from_array(w @ (delta_f / gamma)[idx])
    return b_lab, np.sqrt(w**2 @ sigma_axis[idx] ** 2)


def _working_point_index(
    freqs: np.ndarray, slopes: np.ndarray, fit_ref: OdmrFit, dip_i: int, side: int = 1
) -> int:
    """Grid index of the readout point for one dip.

    Picks the sampled frequency with the largest model slope (``slopes``, the
    fitted model's slope at every point of ``freqs``) among points at or
    beyond the dip's inflection on its right (``side=1``) or left
    (``side=-1``) flank, so the monotone inversion headroom is at least
    linewidth/(2*sqrt(3)) regardless of how the scan grid happens to align
    with the dip.
    """
    center = fit_ref.peak_freqs[dip_i]
    width = fit_ref.linewidths[dip_i]
    near = center + side * _MAX_SLOPE_OFFSET * width * 0.99
    far = center + side * 2.5 * width
    candidates = np.nonzero((freqs >= min(near, far)) & (freqs <= max(near, far)))[0]
    if len(candidates) == 0:
        raise UnresolvedPeaksError(
            f"no scan point on the {'right' if side > 0 else 'left'} flank of a dip;"
            " scan grid too coarse"
        )
    return int(candidates[np.argmax(np.abs(slopes[candidates]))])


def _invert_working_point(
    dpl: float,
    f_j: float,
    dip_i: int,
    fit_ref: OdmrFit,
    df_others: np.ndarray,
) -> float:
    """Frequency shift of dip ``dip_i`` whose model PL difference at f_j is ``dpl``.

    Solves model_ref(f_j) - model_shifted(f_j) = dpl for the shift of the
    targeted dip, with the other dips displaced by their current estimates
    ``df_others``.  Those dips held, the targeted dip must be T deep at f_j,
    and c h^2 / (u^2 + h^2) = T (contrast c, half-width h) is a quadratic in
    u = f_j - center - shift.  Its root on the flank that holds f_j, where
    the depth is monotone, is u = sign(f_j - center) h sqrt(c / T - 1).  The
    usable shift is bounded by (f_j - center) toward f_j and ~1.5 linewidths
    away from it; raises :class:`UnresolvedPeaksError` when no shift in that
    range gives the depth.
    """
    # The fitted dips' depths at the one point f_j, in Python floats.
    halves = (fit_ref.linewidths / 2.0).tolist()
    dips = list(zip(fit_ref.contrasts.tolist(), fit_ref.peak_freqs.tolist(), halves))
    f_j, shifts = float(f_j), np.asarray(df_others, dtype=float).tolist()

    def depth(c, f0, half, s):
        u = f_j - (f0 + s)
        return c * half**2 / (u * u + half**2)

    ref_depths = sum(depth(*dip, 0.0) for dip in dips)
    others = sum(depth(*dip, s) for k, (dip, s) in enumerate(zip(dips, shifts)) if k != dip_i)
    target = dpl + ref_depths - others

    c, center, half = dips[dip_i]
    df_lo, df_hi = sorted((0.95 * (f_j - center), math.copysign(3.0 * half, center - f_j)))
    if 0.0 < target <= c:
        df = f_j - center - math.copysign(half * math.sqrt(c / target - 1.0), f_j - center)
        if df_lo <= df <= df_hi:
            return df
    raise UnresolvedPeaksError("per-axis shift outside the working-point readout range")


def _dispersive(freqs, amp, f0, gam):
    u = (freqs - f0) / (abs(gam) / 2.0)
    return amp * u / (1.0 + u**2)


def synth_lia(
    b_scalar: float,
    gamma_rb: float = GAMMA_RB,
    params: LiaParams = LiaParams(),
    rng_seed: int | None = 0,
) -> LiaSignal:
    """Forward model of a Bell-Bloom modulation chirp.

    The in-phase X component is an absorptive Lorentzian peaked at the
    Larmor resonance f = gamma * |B|; the quadrature Y component is the
    dispersive partner, crossing zero with maximum slope at resonance.
    Gaussian noise of std y_noise is added to both.
    """
    f_res = gamma_rb * b_scalar
    if not params.chirp_min <= f_res <= params.chirp_max:
        raise ResonanceOutOfRangeError(
            f"resonance at {f_res:.1f} kHz outside chirp "
            f"[{params.chirp_min:.0f}, {params.chirp_max:.0f}] kHz"
        )
    freqs = params.frequencies
    u = (freqs - f_res) / (params.linewidth / 2.0)
    x = params.amplitude / (1.0 + u**2)
    y = _dispersive(freqs, params.amplitude, f_res, params.linewidth)
    if params.y_noise > 0:
        rng = np.random.default_rng(rng_seed)
        x = x + rng.normal(0.0, params.y_noise, size=freqs.shape)
        y = y + rng.normal(0.0, params.y_noise, size=freqs.shape)
    return LiaSignal(mod_freqs=freqs, x=x, y=y)


# Half-max half-width of the dispersive lineshape: |y| <= peak/2 holds for
# |f - f_res| <= (2 - sqrt(3)) * linewidth/2 around the zero crossing.
_LINEAR_REGION = 2.0 - math.sqrt(3.0)


def _dispersive_jac(freqs, amp, f0, gam):
    """Jacobian of ``_dispersive`` in (amp, f0, gam); du/dgam = -u/gam for either sign."""
    u = (freqs - f0) / (abs(gam) / 2.0)
    q = 1.0 + u**2
    dy_du = amp * (1.0 - u**2) / q**2
    jac = np.empty((len(freqs), 3))
    jac[:, 0] = u / q
    jac[:, 1] = dy_du * (-2.0 / abs(gam))
    jac[:, 2] = dy_du * (-u / gam)
    return jac


def fit_lia(signal: LiaSignal, gamma_rb: float = GAMMA_RB) -> LiaFit:
    """Resonance readout of an LIA trace.

    The resonance is located from the in-phase peak, confirmed by the Y
    sign change, and refined by a least-squares fit of the dispersive
    model (:func:`least_squares`, numpy only; exact at zero noise), whose
    callback builds the analytic Jacobian once per point and forms the
    residual as the amplitude times its amplitude column.  The uncertainty
    follows the slope method: the closed-form least-squares line through Y
    over the region around the zero crossing where the fitted lineshape stays
    within half its peak value gives the slope m and the RMSE dY, and
    sigma = dY / (gamma * m).
    """
    freqs = np.asarray(signal.mod_freqs, dtype=float)
    y = np.asarray(signal.y, dtype=float)
    x = np.asarray(signal.x, dtype=float)
    n = len(freqs)

    kernel = np.ones(min(5, n)) / min(5, n)
    x_smooth = np.convolve(x, kernel, mode="same")
    i_peak = int(np.argmax(x_smooth))

    # Width estimate from the half-maximum extent of the smoothed X peak.
    half = x_smooth[i_peak] / 2.0
    above = x_smooth >= half
    left = i_peak
    while left > 0 and above[left - 1]:
        left -= 1
    right = i_peak
    while right < n - 1 and above[right + 1]:
        right += 1
    width_guess = max(freqs[right] - freqs[left], float(freqs[1] - freqs[0]))

    lo = max(0, left - (right - left + 1))
    hi = min(n, right + (right - left + 1) + 1)
    seg = slice(lo, hi)

    sign_change = np.nonzero(np.diff(np.sign(y[seg])))[0]
    if len(sign_change) == 0:
        raise NoResonanceError("no sign change in the quadrature signal near the resonance")

    # Dispersive-model fit for the resonance frequency.
    f0_guess = float(freqs[i_peak])
    amp_guess = 2.0 * float(np.max(np.abs(y[seg])))
    fit_span = np.abs(freqs - f0_guess) <= 3.0 * width_guess
    ff, yf = freqs[fit_span], y[fit_span]

    def model(p):  # linear in the amplitude
        jac = _dispersive_jac(ff, *p)
        return p[0] * jac[:, 0] - yf, jac

    sol = least_squares(model, [amp_guess, f0_guess, width_guess])
    f_res = float(sol.x[1])
    width_fit = abs(float(sol.x[2]))
    if not freqs[0] <= f_res <= freqs[-1]:
        raise NoResonanceError("refined resonance fell outside the chirp span")

    # Slope method over the model-determined linear region.
    w = _LINEAR_REGION * width_fit / 2.0
    wsel = np.abs(freqs - f_res) <= w
    if int(np.count_nonzero(wsel)) < 3:
        raise NoResonanceError("linear region around the zero crossing is too narrow")
    fw, yw = freqs[wsel], y[wsel]
    fc, yc = fw - fw.sum() / len(fw), yw - yw.sum() / len(yw)  # about the region's means
    slope = float(fc @ yc) / float(fc @ fc)
    if slope <= 0:
        raise NoResonanceError("quadrature slope at the crossing is not positive")
    fit_resid = yc - slope * fc
    dof = max(len(fw) - 2, 1)
    delta_y = math.sqrt(float(fit_resid @ fit_resid) / dof)

    b_rb = f_res / gamma_rb
    sigma_rb = slope_sensitivity(delta_y, slope, gamma_rb) if delta_y > 0 else 0.0
    return LiaFit(b_rb=b_rb, sigma_rb=sigma_rb)


def rb_measure(
    delta_b: FieldVector,
    b_0: FieldVector,
    gamma_rb: float = GAMMA_RB,
    params: LiaParams = LiaParams(),
    rng_seed: int | None = 0,
) -> tuple[float, float]:
    """Scalar Rb reading of |delta_b + b_0| with its uncertainty."""
    b_scalar = (delta_b + b_0).magnitude()
    signal = synth_lia(b_scalar, gamma_rb, params, rng_seed)
    fit = fit_lia(signal, gamma_rb)
    return fit.b_rb, fit.sigma_rb


# Default bias field: 30 G along (2, 1, 0)/sqrt(5).  This direction gives
# axis projections proportional to (3, 1, -1, -3), i.e. four evenly spaced
# dips (44 MHz apart at 30 G) that stay resolved under small-field shifts.
DEFAULT_BIAS = FieldVector(
    30.0 * 2.0 / math.sqrt(5.0), 30.0 * 1.0 / math.sqrt(5.0), 0.0
)
