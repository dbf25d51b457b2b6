import contextlib
import math

import numpy as np
import pytest

from comag import measurement
from comag.errors import (
    NoResonanceError,
    ResonanceOutOfRangeError,
    UnresolvedPeaksError,
)
from comag.geometry import FieldVector, default_basis, project_field
from comag.measurement import (
    _dispersive,
    _dispersive_jac,
    _find_peaks,
    _invert_working_point,
    _lorentzian_dips,
    _lorentzian_dips_jac,
    _working_point_index,
    brentq,
    DEFAULT_BIAS,
    GAMMA_NV,
    GAMMA_RB,
    LiaParams,
    LiaSignal,
    OdmrParams,
    OdmrSpectrum,
    fit_lia,
    fit_odmr,
    least_squares,
    nv_measure,
    rb_measure,
    slope_sensitivity,
    synth_lia,
    synth_odmr,
)

B0_MEASURED = FieldVector(0.004, -0.7454, 0.6451)
# The Rb ratio implied by the reported LIA trio (delta_y, slope, sensitivity),
# kHz/G: about 10x the physical ratio, used only to reproduce that arithmetic.
GAMMA_RB_IMPLIED_KHZ_PER_G = 6962.0


@pytest.fixture(scope="module")
def basis():
    return default_basis()


def assert_jacobian(model, jac, p, step=1e-4):
    """jac(p) against a central finite difference of model at p, to rtol 1e-6."""
    numeric = np.column_stack(
        [(model(p + e) - model(p - e)) / (2.0 * step) for e in step * np.eye(len(p))]
    )
    # Tail entries and zero crossings, where the difference's rounding error
    # dominates, are held to 1e-8 of their column's largest entry instead.
    atol = 1e-8 * np.abs(numeric).max(axis=0)
    np.testing.assert_array_less(np.abs(jac(p) - numeric), atol + 1e-6 * np.abs(numeric))


class TestLarmorAndSensitivity:
    def test_odmr_sensitivity_reported_arithmetic(self):
        # dPL = 0.6e-3, slope 1.4e-3 /MHz, gamma 2.857 MHz/G -> 150 mG.
        s = slope_sensitivity(0.6e-3, 1.4e-3, 2.857)
        assert s == pytest.approx(0.150, rel=5e-4)

    def test_odmr_sensitivity_linearity(self):
        s1 = slope_sensitivity(0.6e-3, 1.4e-3, GAMMA_NV)
        s2 = slope_sensitivity(1.2e-3, 1.4e-3, GAMMA_NV)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-12)

    def test_lia_sensitivity_reported_arithmetic(self):
        # dY = 5.5e-6 V, slope 1e-6 V/kHz and the ratio implied by the
        # reported trio -> 790 uG.
        s = slope_sensitivity(5.5e-6, 1e-6, GAMMA_RB_IMPLIED_KHZ_PER_G)
        assert s == pytest.approx(7.90e-4, rel=5e-4)


class TestSynthOdmr:
    def test_zero_contrast_flat(self, basis):
        params = OdmrParams(contrast=0.0, pl_noise=0.0)
        spec = synth_odmr(DEFAULT_BIAS, basis, params, GAMMA_NV, 0)
        assert spec.pl == pytest.approx(np.ones(params.n_freqs), abs=1e-12)

    def test_deterministic_per_seed(self, basis):
        params = OdmrParams()
        a = synth_odmr(DEFAULT_BIAS, basis, params, GAMMA_NV, 42)
        b = synth_odmr(DEFAULT_BIAS, basis, params, GAMMA_NV, 42)
        c = synth_odmr(DEFAULT_BIAS, basis, params, GAMMA_NV, 43)
        assert np.array_equal(a.pl, b.pl)
        assert not np.array_equal(a.pl, c.pl)

    def test_dip_positions_follow_projections(self, basis):
        params = OdmrParams(pl_noise=0.0)
        b = DEFAULT_BIAS + FieldVector(0.2, -0.1, 0.3)
        spec = synth_odmr(b, basis, params, GAMMA_NV, 0)
        proj = project_field(basis, b)
        expected = np.sort(params.center_frequency + GAMMA_NV * proj)
        fit = fit_odmr(spec, params)
        assert fit.peak_freqs == pytest.approx(expected, abs=1e-6)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            OdmrParams(contrast=1.5)
        with pytest.raises(ValueError):
            OdmrParams(linewidth=0.0)
        with pytest.raises(ValueError):
            OdmrParams(n_freqs=2)
        with pytest.raises(ValueError):
            OdmrParams(pl_noise=-1e-3)


class TestScanSettings:
    @pytest.mark.parametrize(
        "cls, kwargs, message",
        [
            (OdmrParams, {"scan_span": 0.0}, "scan_span must be positive"),
            (LiaParams, {"linewidth": 0.0}, "linewidth must be positive"),
            (LiaParams, {"y_noise": -1e-6}, "y_noise must be >= 0"),
            (LiaParams, {"n_points": 4}, "n_points must be >= 5"),
            (LiaParams, {"chirp_min": 1500.0}, "chirp_max must exceed chirp_min"),
            (OdmrSpectrum, dict(freqs=np.ones(3), pl=np.ones(3), noise=math.nan), "noise must be"),
            (OdmrSpectrum, dict(freqs=np.ones(3), pl=np.ones(3), noise=-1e-3), "noise must be"),
            (OdmrSpectrum, dict(freqs=np.ones(3), pl=np.ones(3), noise=math.inf), "noise must be"),
            (LiaSignal, dict(mod_freqs=np.ones(4), x=np.ones(5), y=np.ones(5)), "equal length"),
            (LiaSignal, dict(mod_freqs=np.ones(5), x=np.ones(4), y=np.ones(5)), "equal length"),
            (LiaSignal, dict(mod_freqs=np.ones(5), x=np.ones(5), y=np.ones(4)), "equal length"),
        ],
        ids=[
            "odmr-span", "lia-linewidth", "lia-noise", "lia-points", "lia-chirp",
            "spectrum-nan-noise", "spectrum-negative-noise", "spectrum-inf-noise",
            "signal-short-mod_freqs", "signal-short-x", "signal-short-y",
        ],
    )
    def test_invalid_value_rejected(self, cls, kwargs, message):
        with pytest.raises(ValueError, match=message):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "params, expect",
        [
            (OdmrParams(scan_span=150.0), np.linspace(2795.0, 2945.0, 60)),
            (LiaParams(n_points=601), np.linspace(300.0, 1500.0, 601)),
        ],
        ids=["odmr", "lia"],
    )
    def test_frequencies_match_linspace_and_cannot_be_changed(self, params, expect):
        freqs = params.frequencies
        assert freqs.tobytes() == expect.tobytes()
        with contextlib.suppress(ValueError):  # read-only, or the caller's own copy
            freqs[:] = 0.0
        with pytest.raises(AttributeError):  # frozen: the attribute cannot be rebound
            params.frequencies = expect + 1.0
        assert params.frequencies is freqs
        assert params.frequencies.tobytes() == expect.tobytes()


class TestFitOdmr:
    def test_noiseless_identity(self, basis):
        params = OdmrParams(pl_noise=0.0)
        spec = synth_odmr(DEFAULT_BIAS, basis, params, GAMMA_NV, 0)
        fit = fit_odmr(spec, params)
        proj = project_field(basis, DEFAULT_BIAS)
        expected = np.sort(params.center_frequency + GAMMA_NV * proj)
        assert fit.peak_freqs == pytest.approx(expected, abs=1e-6)
        assert fit.delta_pl == pytest.approx(0.0, abs=1e-9)

    def test_merged_dips_raise(self, basis):
        params = OdmrParams(pl_noise=0.0)
        spec = synth_odmr(FieldVector(0, 0, 0), basis, params, GAMMA_NV, 0)
        with pytest.raises(UnresolvedPeaksError):
            fit_odmr(spec, params)

    def test_recovers_injected_noise_level(self, basis):
        params = OdmrParams()
        rmses = []
        for seed in range(80):
            spec = synth_odmr(DEFAULT_BIAS, basis, params, GAMMA_NV, seed)
            rmses.append(fit_odmr(spec, params).delta_pl)
        assert np.mean(rmses) == pytest.approx(params.pl_noise, rel=0.10)

    def test_averaging_halves_sigma(self, basis):
        # Averaging four scans halves the per-point PL noise; the per-lab-axis
        # sigma nv_measure reports follows the fitted delta_pl, so it halves too.
        zero = FieldVector(0.0, 0.0, 0.0)
        full = OdmrParams()
        half = OdmrParams(pl_noise=full.pl_noise / 2.0)
        s_full, s_half = [], []
        for seed in range(60):
            s_full.append(nv_measure(zero, DEFAULT_BIAS, B0_MEASURED, basis, full, GAMMA_NV, seed)[1].mean())
            s_half.append(nv_measure(zero, DEFAULT_BIAS, B0_MEASURED, basis, half, GAMMA_NV, seed)[1].mean())
        assert np.mean(s_half) == pytest.approx(0.5 * np.mean(s_full), rel=0.10)


class TestFindPeaks:
    """The numpy dip search returns exactly what scipy.signal.find_peaks returns."""

    @staticmethod
    def arrays(rng, count):
        for k in range(count):
            n = int(rng.integers(5, 201))
            if k % 4 == 0:
                yield rng.normal(size=n)
            elif k % 4 == 1:  # rounded: short plateaus and equal peak heights
                yield np.round(rng.normal(size=n), 1)
            elif k % 4 == 2:  # small integers: ties everywhere
                yield rng.integers(0, 4, n).astype(float)
            else:  # every sample repeated: wide plateaus, also at the ends
                yield np.repeat(rng.integers(0, 5, n), 3)[:n].astype(float)

    @pytest.mark.parametrize("distance", [1, 2, 3, 4, 5])
    def test_matches_scipy_exactly(self, distance):
        from scipy.signal import find_peaks

        rng = np.random.default_rng(distance)
        for x in self.arrays(rng, 400):
            for prominence in (1e-12, 0.3, 1.0):
                want, props = find_peaks(x, prominence=prominence, distance=distance)
                got, prominences = _find_peaks(x, prominence, distance)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(prominences, props["prominences"])

    def test_plateau_midpoint_and_edges(self):
        x = np.array([0.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 3.0, 0.0, 5.0, 5.0])
        peaks, prominences = _find_peaks(x, 0.0, 1)
        # The plateau at the right end is no peak; the others peak at midpoints.
        np.testing.assert_array_equal(peaks, [2, 6])
        np.testing.assert_array_equal(prominences, [1.0, 3.0])


class TestOrderStatistics:
    """``_find_dips``' 90th percentile and median are numpy's, bit for bit."""

    def test_match_numpy(self):
        rng = np.random.default_rng(23)
        for n in range(3, 201):
            for x in (
                rng.normal(size=n),
                np.round(rng.normal(size=n), 1),  # ties
                rng.integers(0, 4, n).astype(float),  # ties everywhere
                np.diff(np.linspace(2770.0, 2970.0, n)),  # an even grid's spacings
            ):
                # == on floats is bit equality but for the sign of a zero: among
                # equal elements numpy's partition and Python's sort may pick
                # -0.0 and 0.0 differently, which no comparison in _find_dips tells apart.
                xs = sorted(x.tolist())
                assert measurement._percentile_90(xs) == np.percentile(x, 90)
                assert measurement._median(xs) == np.median(x)

    def test_find_dips_baseline_is_the_90th_percentile(self, basis):
        for seed in range(20):
            spectrum = synth_odmr(DEFAULT_BIAS, basis, OdmrParams(), GAMMA_NV, seed)
            baseline = measurement._find_dips(spectrum, OdmrParams())[3]
            assert baseline.hex() == float(np.percentile(spectrum.pl, 90)).hex()


class TestJacobians:
    def test_lorentzian_dips(self):
        freqs = OdmrParams().frequencies
        rng = np.random.default_rng(5)

        def unpack(p):
            rest = p[1:].reshape(4, 3)
            return rest[:, 0], rest[:, 1], rest[:, 2]

        for _ in range(8):
            dips = np.column_stack(
                [
                    rng.uniform(0.005, 0.05, 4),
                    rng.uniform(2780.0, 2960.0, 4),
                    rng.uniform(4.0, 16.0, 4),
                ]
            )
            p = np.concatenate([[rng.uniform(0.9, 1.1)], dips.ravel()])
            assert_jacobian(
                lambda q: _lorentzian_dips(freqs, q[0], *unpack(q)),
                lambda q: _lorentzian_dips_jac(freqs, *unpack(q)),
                p,
            )

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["gam>0", "gam<0"])
    def test_dispersive(self, sign):
        freqs = LiaParams().frequencies
        rng = np.random.default_rng(6)
        for _ in range(8):
            p = np.array(
                [
                    rng.choice([-1.0, 1.0]) * rng.uniform(1e-5, 1e-4),
                    rng.uniform(400.0, 1400.0),
                    sign * rng.uniform(50.0, 200.0),
                ]
            )
            assert_jacobian(
                lambda q: _dispersive(freqs, *q), lambda q: _dispersive_jac(freqs, *q), p
            )


def recorded_calls(monkeypatch, name, run):
    """Run ``run()`` with ``comag.measurement.<name>`` wrapped; the arguments (arrays
    copied as they were passed) and the result, or the UnresolvedPeaksError raised,
    of each call."""
    solver, calls = getattr(measurement, name), []

    def record(*args, **kwargs):
        passed = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
        try:
            out = solver(*args, **kwargs)
        except UnresolvedPeaksError as err:
            calls.append((passed, kwargs, err))
            raise
        calls.append((passed, kwargs, out))
        return out

    monkeypatch.setattr(measurement, name, record)
    try:
        run()
    finally:
        monkeypatch.undo()
    return calls


def minpack_fit(model, x0, **options):
    """scipy's MINPACK fit of the residual and Jacobian that ``model`` returns."""
    from scipy.optimize import least_squares as minpack

    return minpack(lambda x: model(x)[0], x0, jac=lambda x: model(x)[1], **options)


def brentq_readout(dpl, f_j, dip_i, fit_ref, df_others):
    """The root-finding form of ``_invert_working_point``: the readout equation as
    a function of the targeted dip's shift, and the bracket brentq solved it on."""
    center, width = fit_ref.peak_freqs[dip_i], fit_ref.linewidths[dip_i]
    halves = (fit_ref.linewidths / 2.0).tolist()
    dips = list(zip(fit_ref.contrasts.tolist(), fit_ref.peak_freqs.tolist(), halves))
    f_j, shifts = float(f_j), np.asarray(df_others, dtype=float).tolist()

    def pl_at(offsets):  # the baseline cancels in the difference
        pl = 1.0
        for (c, f0, half), s in zip(dips, offsets):
            u = f_j - (f0 + s)
            pl = pl - c * half**2 / (u * u + half**2)
        return pl

    ref_at = pl_at([0.0] * len(dips))

    def transfer(df):
        shifts[dip_i] = df
        return (ref_at - pl_at(shifts)) - dpl

    df_lo, df_hi = sorted((0.95 * (f_j - center), math.copysign(1.5 * width, center - f_j)))
    return transfer, df_lo, df_hi


class TestSolvers:
    """The numpy Levenberg-Marquardt against MINPACK, the Brent port against scipy,
    and the closed-form readout against scipy's brentq."""

    MINPACK = dict(method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14)
    # Largest solution change against MINPACK, in standard errors of each
    # parameter: a reading may move by at most 1e-5 of its own sigma.
    SE_TOL = 1e-5

    @staticmethod
    def odmr_spectra(basis):
        """50 spectra at the spectral workload's fields: +-0.3 G on B_0 and the bias."""
        rng = np.random.default_rng(17)
        return [
            synth_odmr(
                DEFAULT_BIAS + B0_MEASURED + FieldVector(*rng.uniform(-0.3, 0.3, 3)),
                basis,
                OdmrParams(),
                GAMMA_NV,
                int(rng.integers(2**31)),
            )
            for _ in range(50)
        ]

    @pytest.mark.parametrize("kind", ["odmr", "lia"])
    def test_least_squares_matches_minpack(self, basis, monkeypatch, kind):
        if kind == "odmr":
            spectra = self.odmr_spectra(basis)
            calls = recorded_calls(
                monkeypatch, "least_squares", lambda: [fit_odmr(s, OdmrParams()) for s in spectra]
            )
        else:
            rng = np.random.default_rng(18)
            signals = [
                synth_lia(rng.uniform(0.6, 2.0), GAMMA_RB, LiaParams(), int(rng.integers(2**31)))
                for _ in range(50)
            ]
            calls = recorded_calls(monkeypatch, "least_squares", lambda: [fit_lia(s) for s in signals])
        assert len(calls) == 50
        nfev, minpack_nfev = 0, 0
        for (model, x0), _, sol in calls:
            ref = minpack_fit(model, x0, **self.MINPACK)
            j = model(ref.x)[1]
            s2 = ref.fun @ ref.fun / (len(ref.fun) - len(ref.x))
            se = np.sqrt(np.diag(np.linalg.inv(j.T @ j)) * s2)
            np.testing.assert_array_less(np.abs(sol.x - ref.x), self.SE_TOL * se)
            np.testing.assert_array_equal(sol.fun, model(sol.x)[0])
            nfev, minpack_nfev = nfev + sol.nfev, minpack_nfev + ref.nfev
        # The cost-decrease test ends a fit in no more evaluations than MINPACK's tests.
        assert nfev <= minpack_nfev

    @staticmethod
    def lia_signals():
        """The 50 signals of ``test_least_squares_matches_minpack``'s LIA case."""
        rng = np.random.default_rng(18)
        return [
            synth_lia(rng.uniform(0.6, 2.0), GAMMA_RB, LiaParams(), int(rng.integers(2**31)))
            for _ in range(50)
        ]

    @pytest.mark.parametrize("kind, bound", [("odmr", 7.5), ("lia", 7.1)])
    def test_predicted_decrease_ends_a_fit_before_its_step_is_evaluated(
        self, basis, monkeypatch, kind, bound
    ):
        # Bounds set before the cost-decrease test read the predicted decrease
        # ahead of the step: fits that evaluated that last, sub-rounding step
        # took 8.38 (ODMR) and 7.6 (LIA) evaluations each on these sets.
        if kind == "odmr":
            inputs, fit = self.odmr_spectra(basis), lambda s: fit_odmr(s, OdmrParams())
        else:
            inputs, fit = self.lia_signals(), fit_lia
        calls = recorded_calls(monkeypatch, "least_squares", lambda: [fit(x) for x in inputs])
        assert len(calls) == 50
        assert np.mean([sol.nfev for _, _, sol in calls]) <= bound

    def test_dips_are_seeded_between_grid_points(self, basis, monkeypatch):
        spectra = self.odmr_spectra(basis)
        calls = recorded_calls(
            monkeypatch, "least_squares", lambda: [fit_odmr(s, OdmrParams()) for s in spectra]
        )
        closer = 0
        for spectrum, ((_, x0), _, sol) in zip(spectra, calls):
            freqs = spectrum.freqs
            grid = freqs[measurement._find_dips(spectrum, OdmrParams())[0]] - freqs[0]
            seeds, fitted = np.asarray(x0)[2::3], sol.x[2::3]
            closer += np.count_nonzero(np.abs(seeds - fitted) < np.abs(grid - fitted))
        # Bounds set before the seeds were measured: the grid step is 3.4 MHz against
        # an 8 MHz linewidth, and fits seeded at the grid points took 10.16
        # evaluations each on these spectra.
        assert closer >= 0.9 * 4 * len(spectra)
        assert np.mean([sol.nfev for _, _, sol in calls]) < 10.16

    def test_model_returns_the_forward_residual_and_jacobian(self, basis, monkeypatch):
        # Each fit's callback gives, at any point, the residual of the forward
        # model the Jacobian tests check and that model's analytic Jacobian.
        spectrum = synth_odmr(DEFAULT_BIAS + B0_MEASURED, basis, OdmrParams(), GAMMA_NV, 3)
        signal = synth_lia(1.0, GAMMA_RB, LiaParams(), 4)
        [((odmr_fit_model, x0), _, sol)] = recorded_calls(
            monkeypatch, "least_squares", lambda: fit_odmr(spectrum, OdmrParams())
        )
        [((lia_fit_model, lia_x0), _, lia_sol)] = recorded_calls(
            monkeypatch, "least_squares", lambda: fit_lia(signal)
        )
        freqs = spectrum.freqs
        span = np.abs(signal.mod_freqs - lia_x0[1]) <= 3.0 * lia_x0[2]
        ff, yf = signal.mod_freqs[span], signal.y[span]

        def odmr_model(p):
            return _lorentzian_dips(freqs, p[0], p[1::3], freqs[0] + p[2::3], p[3::3])

        def odmr_jac(p):
            return _lorentzian_dips_jac(freqs, p[1::3], freqs[0] + p[2::3], p[3::3])

        cases = [
            (odmr_fit_model, np.asarray(x0, dtype=float), sol.x, odmr_model, odmr_jac, spectrum.pl),
            (
                lia_fit_model,
                np.asarray(lia_x0, dtype=float),
                lia_sol.x,
                lambda p: _dispersive(ff, *p),
                lambda p: _dispersive_jac(ff, *p),
                yf,
            ),
        ]
        for fit_model, start, end, forward, want, data in cases:
            for p in (start, end):
                r, j = fit_model(p)
                np.testing.assert_allclose(r + data, forward(p), rtol=0, atol=1e-15)
                np.testing.assert_array_equal(j, want(p))

    def test_noiseless_spectrum_returns_exact_parameters(self, basis, monkeypatch):
        params = OdmrParams(pl_noise=0.0)
        fields = [DEFAULT_BIAS + FieldVector(0.1 * k, -0.05 * k, 0.02) for k in range(5)]
        fits = []
        calls = recorded_calls(
            monkeypatch,
            "least_squares",
            lambda: fits.extend(fit_odmr(synth_odmr(b, basis, params), params) for b in fields),
        )
        for b, fit, ((model, x0), _, sol) in zip(fields, fits, calls):
            centers = np.sort(params.center_frequency + GAMMA_NV * project_field(basis, b))
            np.testing.assert_allclose(fit.peak_freqs, centers, rtol=1e-12)
            np.testing.assert_allclose(fit.contrasts, params.contrast, rtol=1e-9)
            np.testing.assert_allclose(fit.linewidths, params.linewidth, rtol=1e-9)
            assert sol.x[0] == pytest.approx(1.0, abs=1e-12)  # the fitted baseline
            # At the exact solution the scaled-step test stops the fit.
            assert sol.nfev <= minpack_fit(model, x0, **self.MINPACK).nfev + 1

    def test_starting_at_the_minimum_costs_one_evaluation(self):
        a = np.vander(np.linspace(0.0, 1.0, 9), 3)
        b = np.cos(np.linspace(0.0, 3.0, 9))
        x0 = np.linalg.lstsq(a, b, rcond=None)[0]
        sol = least_squares(lambda x: (a @ x - b, a), x0)
        assert sol.nfev == 1
        np.testing.assert_array_equal(sol.x, x0)

    def test_stops_at_minpack_evaluation_cap(self):
        # r = x**2 converges linearly to 0, where no relative test can fire.
        sol = least_squares(lambda x: (x**2, np.diag(2.0 * x)), [1.0])
        assert sol.nfev == 100 * (1 + 1)
        assert 0.0 < sol.x[0] < 1e-50

    def test_readout_inversion_matches_scipy_brentq(self, basis, monkeypatch):
        from scipy.optimize import brentq as scipy_brentq

        tols = dict(xtol=1e-12, rtol=1e-14)
        rng = np.random.default_rng(19)

        def readings():
            for _ in range(90):
                delta = FieldVector(*rng.uniform(-0.3, 0.3, 3))
                seed = int(rng.integers(2**31))
                nv_measure(delta, DEFAULT_BIAS, B0_MEASURED, basis, OdmrParams(), GAMMA_NV, seed)
            # TestNvMeasure's reading whose right flank cannot read one dip.
            delta = FieldVector(-0.2770858959292151, 0.2147534938300351, -0.2873014752744147)
            nv_measure(delta, DEFAULT_BIAS, B0_MEASURED, basis, OdmrParams(), GAMMA_NV, 1796154004)

        recorded = recorded_calls(monkeypatch, "_invert_working_point", readings)
        assert len(recorded) >= 1000
        assert any(isinstance(out, UnresolvedPeaksError) for _, _, out in recorded)
        # Each call's PL difference, and for every tenth call 15 more spanning its
        # readout range and half of it again on either side.  Just inside and just
        # outside the range's two ends, where the far end's flat tail leaves the
        # root ill-conditioned, only the raise is checked.
        cases, ends = [], []
        for k, (args, _, _) in enumerate(recorded):
            cases.append(args)
            if k % 10 == 0:
                _, f_j, dip_i, fit, df_others = args
                transfer, lo, hi = brentq_readout(0.0, f_j, dip_i, fit, df_others)
                a, b = sorted((transfer(lo), transfer(hi)))
                eps = 1e-6 * (b - a)
                for d in np.linspace(a - (b - a) / 2, b + (b - a) / 2, 15):
                    cases.append((float(d), f_j, dip_i, fit, df_others))
                for d in (a - eps, a + eps, b - eps, b + eps):
                    ends.append((float(d), f_j, dip_i, fit, df_others))
        raised = 0
        for args, exact in [(c, True) for c in cases] + [(e, False) for e in ends]:
            transfer, lo, hi = brentq_readout(*args)
            bracketed = transfer(lo) * transfer(hi) <= 0
            try:
                df = _invert_working_point(*args)
            except UnresolvedPeaksError:
                assert not bracketed, args[:3]
                raised += 1
                continue
            assert bracketed, args[:3]
            if exact:
                root = scipy_brentq(transfer, lo, hi, **tols)
                assert abs(df - root) <= tols["xtol"] + tols["rtol"] * abs(root), args[:3]
        assert raised >= 100 and len(cases) + len(ends) - raised >= 1000

    @pytest.mark.parametrize("xtol, rtol", [(1e-12, 1e-14), (2e-12, 4 * 2.0**-52), (1e-6, 1e-10)])
    def test_brentq_matches_scipy_on_analytic_functions(self, xtol, rtol):
        from scipy.optimize import brentq as scipy_brentq

        def outcome(solver, *args, **kwargs):
            try:
                return solver(*args, **kwargs)
            except RuntimeError:  # no convergence in 100 iterations
                return RuntimeError

        cases = [
            (lambda x: x * x - 2.0, 0.0, 2.0),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: x**3, -1.0, 2.0),  # at the tighter tolerances, neither converges
            (lambda x: math.exp(x) - 5.0, -3.0, 4.0),
            (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
            (lambda x: (x - 1e-3) ** 5 + 1e-16, -2.0, 3.0),
        ]
        for f, a, b in cases:
            for lo, hi in ((a, b), (b, a)):
                want = outcome(scipy_brentq, f, lo, hi, xtol=xtol, rtol=rtol)
                assert outcome(brentq, f, lo, hi, xtol, rtol) == want

    def test_brentq_returns_a_root_endpoint(self):
        assert brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-12, 1e-14) == 1.0
        assert brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-12, 1e-14) == 3.0
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x + 5.0, 1.0, 3.0, 1e-12, 1e-14)


class TestNvMeasure:
    def test_noiseless_exact(self, basis):
        params = OdmrParams(pl_noise=0.0)
        delta = FieldVector(0.5, 0.0, 0.0)
        v, _ = nv_measure(delta, DEFAULT_BIAS, B0_MEASURED, basis, params, GAMMA_NV, 0)
        assert v.as_array() == pytest.approx(delta.as_array(), abs=1e-6)

    def test_null_measurement(self, basis):
        params = OdmrParams()
        vals = np.array(
            [
                nv_measure(
                    FieldVector(0, 0, 0), DEFAULT_BIAS, B0_MEASURED, basis, params,
                    GAMMA_NV, seed,
                )[0].as_array()
                for seed in range(1000)
            ]
        )
        sigma = vals.std(axis=0)
        assert np.all(np.abs(vals.mean(axis=0)) <= 3.0 * sigma / math.sqrt(1000))

    @pytest.mark.parametrize(
        "b_0", [FieldVector(0, 0, 0), B0_MEASURED], ids=["no-background", "measured"]
    )
    def test_recovers_small_field_independent_of_background(self, basis, b_0):
        params = OdmrParams()
        delta = FieldVector(0.5, 0.0, 0.0)
        vals = np.array(
            [
                nv_measure(delta, DEFAULT_BIAS, b_0, basis, params, GAMMA_NV, seed)[
                    0
                ].as_array()
                for seed in range(300)
            ]
        )
        tol = 3.5 * vals.std(axis=0) / math.sqrt(300) + 2e-3
        assert np.all(np.abs(vals.mean(axis=0) - delta.as_array()) <= tol)

    def test_sigma_matches_scatter(self, basis):
        params = OdmrParams()
        delta = FieldVector(0.2, -0.1, 0.15)
        vals, sigs = [], []
        for seed in range(1000):
            v, s = nv_measure(delta, DEFAULT_BIAS, B0_MEASURED, basis, params, GAMMA_NV, seed)
            vals.append(v.as_array())
            sigs.append(s)
        emp = np.array(vals).std(axis=0)
        pred = np.array(sigs).mean(axis=0)
        assert emp == pytest.approx(pred, rel=0.10)

    def test_bias_cancellation(self, basis):
        # Doubling the bias moves every dip but not the recovered field.
        params = OdmrParams(scan_span=400.0, n_freqs=120, pl_noise=0.0)
        delta = FieldVector(0.3, -0.2, 0.1)
        v1, _ = nv_measure(delta, DEFAULT_BIAS, B0_MEASURED, basis, params, GAMMA_NV, 0)
        v2, _ = nv_measure(
            delta, FieldVector.from_array(1.7 * DEFAULT_BIAS.as_array()), B0_MEASURED, basis, params, GAMMA_NV, 0
        )
        assert v1.as_array() == pytest.approx(delta.as_array(), abs=1e-6)
        assert v2.as_array() == pytest.approx(delta.as_array(), abs=1e-6)

    def test_signal_scan_merging_two_dips_raises(self, basis):
        # The reference dips are resolved (the default bias); delta_b along the
        # axis of the second-highest dip moves it onto its lower neighbour.
        params = OdmrParams(pl_noise=0.0)
        proj = project_field(basis, DEFAULT_BIAS)
        order = np.argsort(proj)
        gap = proj[order[2]] - proj[order[1]]
        delta = FieldVector.from_array(-0.75 * gap * basis.axes[order[2]])
        with pytest.raises(UnresolvedPeaksError, match="found 3 dips, expected 4"):
            nv_measure(
                delta, DEFAULT_BIAS, FieldVector(0, 0, 0), basis, params, GAMMA_NV, 0
            )

    def test_shift_past_the_right_flank_reads_the_left_flank(self, basis):
        # Spectral workload seed 37, reading 63: noise carries one dip's
        # required PL difference past the top of its right flank, where no
        # shift solves the inversion; the left flank still reads it.
        delta = FieldVector(-0.2770858959292151, 0.2147534938300351, -0.2873014752744147)
        b_nv, sigma = nv_measure(
            delta, DEFAULT_BIAS, B0_MEASURED, basis, OdmrParams(), GAMMA_NV, 1796154004
        )
        assert np.all(np.abs(b_nv.as_array() - delta.as_array()) <= 5.0 * sigma)

    @pytest.mark.parametrize("shift", [-2.0, -0.5, 1.0, 6.0])
    def test_left_flank_inversion_is_exact_without_noise(self, basis, shift):
        params = OdmrParams(pl_noise=0.0)
        fit = fit_odmr(synth_odmr(DEFAULT_BIAS, basis, params, GAMMA_NV, 0), params)
        freqs = params.frequencies
        jac = _lorentzian_dips_jac(freqs, fit.contrasts, fit.peak_freqs, fit.linewidths)
        slopes = -jac[:, 2::3].sum(axis=1)
        j = _working_point_index(freqs, slopes, fit, 1, side=-1)
        center = fit.peak_freqs[1]
        assert center - 2.5 * fit.linewidths[1] <= freqs[j] < center
        def pl_at(centers):
            return _lorentzian_dips(freqs[j], 1.0, fit.contrasts, centers, fit.linewidths)

        dpl = float(pl_at(fit.peak_freqs) - pl_at(fit.peak_freqs + np.array([0.0, shift, 0.0, 0.0])))
        df = _invert_working_point(dpl, freqs[j], 1, fit, np.zeros(4))
        assert df == pytest.approx(shift, abs=1e-9)

    def test_unresolved_bias_raises(self, basis):
        params = OdmrParams(pl_noise=0.0)
        with pytest.raises(UnresolvedPeaksError):
            nv_measure(
                FieldVector(0.1, 0, 0), FieldVector(0.5, 0.2, 0.0), FieldVector(0, 0, 0),
                basis, params, GAMMA_NV, 0,
            )


class TestSynthLia:
    def test_resonance_in_band(self):
        sig = synth_lia(1.0, GAMMA_RB, LiaParams(y_noise=0.0), 0)
        f_res = GAMMA_RB * 1.0
        assert f_res == pytest.approx(700.0)
        # Dispersive quadrature crosses zero at the resonance.
        below = sig.y[sig.mod_freqs < f_res - 1.0]
        above = sig.y[(sig.mod_freqs > f_res + 1.0) & (sig.mod_freqs < f_res + 50.0)]
        assert below[-1] < 0 < above[0]

    def test_out_of_range_low(self):
        with pytest.raises(ResonanceOutOfRangeError):
            synth_lia(0.1, GAMMA_RB, LiaParams(), 0)  # 70 kHz < 300 kHz

    def test_out_of_range_high(self):
        with pytest.raises(ResonanceOutOfRangeError):
            synth_lia(3.0, GAMMA_RB, LiaParams(), 0)  # 2100 kHz > 1500 kHz

    def test_deterministic(self):
        a = synth_lia(1.0, GAMMA_RB, LiaParams(), 5)
        b = synth_lia(1.0, GAMMA_RB, LiaParams(), 5)
        assert np.array_equal(a.y, b.y)


class TestFitLia:
    def test_noiseless_identity(self):
        params = LiaParams(y_noise=0.0)
        for b in (0.6, 1.0, 1.8):
            fit = fit_lia(synth_lia(b, GAMMA_RB, params, 0), GAMMA_RB)
            assert fit.b_rb == pytest.approx(b, abs=1e-6)

    def test_halving_noise_halves_sigma(self):
        full = LiaParams()
        half = LiaParams(y_noise=full.y_noise / 2.0)
        s_full = [
            fit_lia(synth_lia(1.0, GAMMA_RB, full, seed), GAMMA_RB).sigma_rb
            for seed in range(1000)
        ]
        s_half = [
            fit_lia(synth_lia(1.0, GAMMA_RB, half, seed), GAMMA_RB).sigma_rb
            for seed in range(1000)
        ]
        assert np.mean(s_half) == pytest.approx(0.5 * np.mean(s_full), rel=0.05)

    def test_line_fit_matches_polyfit(self, monkeypatch):
        rng = np.random.default_rng(24)
        signals = [
            synth_lia(rng.uniform(0.6, 2.0), GAMMA_RB, LiaParams(), int(rng.integers(2**31)))
            for _ in range(50)
        ]
        fits, sensitivities = [], []

        def run():
            sensitivities.extend(
                recorded_calls(
                    monkeypatch, "slope_sensitivity", lambda: fits.extend(map(fit_lia, signals))
                )
            )

        # The inner recording's undo restores least_squares too, after all the fits.
        solutions = recorded_calls(monkeypatch, "least_squares", run)
        assert len(fits) == len(solutions) == len(sensitivities) == 50
        for signal, fit, (_, _, sol), ((_, slope, _), _, _) in zip(
            signals, fits, solutions, sensitivities
        ):
            # The oracle: numpy's polyfit over the region fit_lia documents.
            f_res, width = sol.x[1], abs(sol.x[2])
            near = np.abs(signal.mod_freqs - f_res) <= measurement._LINEAR_REGION * width / 2.0
            fw, yw = signal.mod_freqs[near], signal.y[near]
            intercept, want = np.polynomial.polynomial.polyfit(fw, yw, 1)
            resid = yw - (intercept + want * fw)
            delta_y = math.sqrt(np.sum(resid**2) / (len(fw) - 2))
            assert slope == pytest.approx(want, rel=1e-12, abs=0)
            assert fit.sigma_rb == pytest.approx(delta_y / (GAMMA_RB * want), rel=1e-12, abs=0)

    def test_no_resonance(self):
        freqs = np.linspace(300.0, 1500.0, 401)
        flat = LiaSignal(mod_freqs=freqs, x=np.full_like(freqs, 1e-5), y=np.full_like(freqs, 1e-5))
        with pytest.raises(NoResonanceError):
            fit_lia(flat, GAMMA_RB)


class TestRbMeasure:
    def test_cancellation_goes_out_of_range(self):
        with pytest.raises(ResonanceOutOfRangeError):
            rb_measure(FieldVector.from_array(-B0_MEASURED.as_array()), B0_MEASURED, GAMMA_RB, LiaParams(), 0)

    def test_perpendicular_fields(self):
        delta = FieldVector(1.0, 0.0, 0.0)
        b_0 = FieldVector(0.0, 1.0, 0.0)
        b_rb, _ = rb_measure(delta, b_0, GAMMA_RB, LiaParams(y_noise=0.0), 0)
        assert b_rb == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_measures_background_magnitude(self):
        b_rb, sigma = rb_measure(
            FieldVector(0, 0, 0), B0_MEASURED, GAMMA_RB, LiaParams(), 0
        )
        assert b_rb == pytest.approx(0.9855, abs=2e-3)
        assert sigma > 0

