"""Device characterisation and model fitting (paper Sections 4.1-4.2).

Mirrors what the authors do with their probe-station data:

- extract linear mobility, threshold voltage, subthreshold slope, and
  on/off ratio from an ID-VGS transfer curve (Section 4.1 / Figure 3),
- fit a level 1 (Shichman-Hodges) model and a level 61-style unified TFT
  model to the curve and quantify the fit quality (Section 4.2 /
  Figure 4).  The level 1 fit is good above threshold but has no
  subthreshold conduction or leakage, so its full-range log-domain error
  is large — that asymmetry is the figure's message and is asserted by the
  reproduction tests.

All functions here work in the normalised n-type frame (on-state at
positive overdrive); :func:`characterize_curve` adapts the physical p-type
measurement data from :mod:`repro.devices.pentacene`.

Both model fits minimise with
:func:`repro.devices.least_squares.least_squares`, a numpy port of the
one ``scipy.optimize.least_squares`` path they take, so nothing here
needs SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.devices.least_squares import least_squares
from repro.devices.mosfet_level1 import Level1Mosfet
from repro.devices.pentacene import TransferCurve
from repro.devices.tft_level61 import UnifiedTft
from repro.errors import ExtractionError

#: Instrument floor used when taking logs of currents that may be zero.
_LOG_FLOOR = 1e-14


def _as_normalised(curve: TransferCurve) -> tuple[np.ndarray, np.ndarray, float]:
    """Physical p-type sweep -> ascending normalised (vgs, id, vds)."""
    vgs_n = -np.asarray(curve.vgs, dtype=float)
    id_ = np.abs(np.asarray(curve.id_, dtype=float))
    order = np.argsort(vgs_n)
    return vgs_n[order], id_[order], -curve.vds


def _savgol(x: np.ndarray) -> np.ndarray:
    """Savitzky-Golay smoothing, window 15, order 2, edges fit (``interp``).

    Bit-identical to ``scipy.signal.savgol_filter(x, 15, 2)``; see
    DESIGN §7k for why each step is spelled the way it is.  The
    interior correlates with the filter weights in the summation order
    of ``scipy.ndimage``'s symmetric path; each seven-point edge is
    the quadratic least-squares fit to the outermost 15 samples, solved
    on a column-scaled Vandermonde matrix and evaluated by Horner's rule.
    """
    n = len(x)
    eps = np.finfo(float).eps
    t = np.arange(7.0, -8.0, -1.0)
    w = np.linalg.lstsq(t ** np.arange(3.0)[:, None], np.array([1.0, 0.0, 0.0]),
                        rcond=15 * eps)[0][::-1]
    y = np.empty(n)
    y[7:n - 7] = x[7:n - 7] * w[7]
    for j in range(-7, 0):
        y[7:n - 7] += (x[7 + j:n - 7 + j] + x[7 - j:n - 7 - j]) * w[7 + j]
    vander = np.arange(15.0)[:, None] ** np.array([2.0, 1.0, 0.0])
    scale = np.sqrt(np.sum(vander * vander, axis=0))
    vander /= scale
    for start, at in ((0, np.arange(0.0, 7.0)), (n - 15, np.arange(8.0, 15.0))):
        coef = np.linalg.lstsq(vander, x[start:start + 15, None],
                               rcond=15 * eps)[0]
        coef = (coef.T / scale).T
        edge = np.zeros((7, 1))
        for c in coef:
            edge = edge * at[:, None] + c
        lo = start + int(at[0])
        y[lo:lo + 7] = edge[:, 0]
    return y


def _denoise(id_: np.ndarray) -> np.ndarray:
    """Measurement-noise suppression before differentiation.

    Probe-station sweeps carry multiplicative device noise; gradients of
    raw data are useless.  Smooth log-current (noise is log-normal) with
    a 15-point quadratic Savitzky-Golay filter (:func:`_savgol`), as
    extraction software does.
    """
    if len(id_) < 15:
        return id_
    return 10.0 ** _savgol(np.log10(np.maximum(id_, _LOG_FLOOR)))


def _linear_region_fit(vgs_n: np.ndarray, id_: np.ndarray,
                       fraction: float = 0.4) -> tuple[float, float]:
    """Least-squares line through the strong-conduction part of the sweep.

    Returns ``(slope, intercept)`` of ``id = slope * vgs + intercept`` fit
    over the points where the current exceeds *fraction* of its maximum.
    Fitting a line over many points is the standard "linear extrapolation"
    extraction and is robust to multiplicative measurement noise (unlike
    point-wise gradients).
    """
    i_max = float(np.max(id_))
    mask = id_ >= fraction * i_max
    if mask.sum() < 5:
        raise ExtractionError(
            "too few strong-conduction points for a linear-region fit"
        )
    slope, intercept = np.polyfit(vgs_n[mask], id_[mask], deg=1)
    if slope <= 0:
        raise ExtractionError("transfer curve has no positive transconductance")
    return float(slope), float(intercept)


def extract_linear_mobility(vgs_n: np.ndarray, id_: np.ndarray, vds_n: float,
                            w: float, l: float, ci: float) -> float:
    """Linear-region mobility (m^2/Vs) from the linear-extrapolation slope.

    mu_lin = gm * L / (W * Ci * VDS) with gm the slope of the line fitted
    through the strong-conduction region — the extraction the paper quotes
    as "extrapolated from the linear region of the ID-VGS curve".
    """
    if vds_n <= 0:
        raise ExtractionError("linear mobility extraction needs vds > 0 (normalised)")
    if len(vgs_n) < 5:
        raise ExtractionError("need at least 5 sweep points")
    slope, _ = _linear_region_fit(vgs_n, id_)
    return slope * l / (w * ci * vds_n)


def extract_threshold_voltage(vgs_n: np.ndarray, id_: np.ndarray,
                              vds_n: float) -> float:
    """Threshold by linear extrapolation of the strong-conduction region.

    VT = x-intercept of the fitted line minus VDS/2 (normalised frame).
    """
    slope, intercept = _linear_region_fit(vgs_n, id_)
    return float(-intercept / slope - 0.5 * vds_n)


def extract_subthreshold_slope(vgs_n: np.ndarray, id_: np.ndarray,
                               decades_lo: float = 1.5,
                               decades_hi: float = 4.5) -> float:
    """Subthreshold slope in V/decade over a mid-subthreshold window.

    The window spans ``decades_lo``..``decades_hi`` decades above the
    curve's minimum current, avoiding both the leakage floor and the
    near-threshold rolloff.  Returns the steepest (minimum) slope found,
    matching the convention in the paper's Figure 3 annotation.
    """
    logi = np.log10(np.maximum(_denoise(id_), _LOG_FLOOR))
    lo = logi.min() + decades_lo
    hi = min(logi.min() + decades_hi, logi.max() - 0.5)
    if hi <= lo:
        raise ExtractionError("curve spans too few decades for SS extraction")
    mask = (logi >= lo) & (logi <= hi)
    if mask.sum() < 4:
        raise ExtractionError("too few points in the subthreshold window")
    dlog = np.gradient(logi[mask], vgs_n[mask])
    dlog_pos = dlog[dlog > 1e-6]
    if len(dlog_pos) == 0:
        raise ExtractionError("no rising region in the subthreshold window")
    return float(1.0 / np.max(dlog_pos))


def extract_on_off_ratio(id_: np.ndarray) -> float:
    """On/off ratio: max over min current in the sweep."""
    i_min = float(np.min(np.abs(id_)))
    i_max = float(np.max(np.abs(id_)))
    if i_min <= 0:
        i_min = _LOG_FLOOR
    return i_max / i_min


@dataclass(frozen=True)
class DeviceReport:
    """Physical-frame summary of a measured transfer curve (Section 4.1)."""

    mobility_cm2: float
    threshold_v: float          # physical p-type VT (negative = enhancement)
    subthreshold_slope_mv_dec: float
    on_off_ratio: float
    vds: float


def characterize_curve(curve: TransferCurve, ci: float) -> DeviceReport:
    """Extract all Section 4.1 figures of merit from a physical sweep."""
    vgs_n, id_, vds_n = _as_normalised(curve)
    mu = extract_linear_mobility(vgs_n, id_, vds_n, curve.w, curve.l, ci)
    vt_n = extract_threshold_voltage(vgs_n, id_, vds_n)
    ss = extract_subthreshold_slope(vgs_n, id_)
    ratio = extract_on_off_ratio(id_)
    return DeviceReport(
        mobility_cm2=mu * 1e4,
        threshold_v=-vt_n,
        subthreshold_slope_mv_dec=ss * 1e3,
        on_off_ratio=ratio,
        vds=curve.vds,
    )


# ---------------------------------------------------------------------------
# Model fitting (Figure 4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting a device model to a transfer curve."""

    model: Level1Mosfet | UnifiedTft
    level: int
    rms_log_error: float          # RMS of log10 residual over the full sweep
    rms_log_error_on: float       # same, restricted to the on region
    params: dict[str, float] = field(default_factory=dict)

    def predict(self, vgs_n: np.ndarray, vds_n: float, w: float, l: float
                ) -> np.ndarray:
        """Model current across a normalised gate sweep."""
        out = np.empty(len(vgs_n))
        for i, v in enumerate(vgs_n):
            out[i] = self.model.ids(float(v), vds_n, w, l)[0]
        return out


def _log_errors(pred: np.ndarray, meas: np.ndarray,
                on_mask: np.ndarray) -> tuple[float, float]:
    log_pred = np.log10(np.maximum(pred, _LOG_FLOOR))
    log_meas = np.log10(np.maximum(meas, _LOG_FLOOR))
    resid = log_pred - log_meas
    full = float(np.sqrt(np.mean(resid ** 2)))
    on = float(np.sqrt(np.mean(resid[on_mask] ** 2))) if on_mask.any() else full
    return full, on


def fit_level1(curve: TransferCurve, ci: float) -> FitResult:
    """Fit a Shichman-Hodges model to the on-region of the sweep.

    Level 1 has no subthreshold conduction, so the fit is performed only
    where the device is clearly on (top two decades of current); the
    returned ``rms_log_error`` is still evaluated over the *whole* sweep,
    quantifying Figure 4's "insufficient to describe the OTFTs" point.
    """
    vgs_n, id_, vds_n = _as_normalised(curve)
    on_mask = id_ > id_.max() * 1e-2

    def residual(theta: np.ndarray) -> np.ndarray:
        kp, vt0 = theta
        model = Level1Mosfet(polarity=-1, kp=kp, vt0=vt0, ci=ci)
        pred = np.array([model.ids(v, vds_n, curve.w, curve.l)[0]
                         for v in vgs_n[on_mask]])
        scale = id_[on_mask].max()
        return (pred - id_[on_mask]) / scale

    kp0 = 1e-8
    kp, vt0 = least_squares(residual, [kp0, 1.0],
                            ([1e-12, -10.0], [1e-3, 10.0]))
    model = Level1Mosfet(polarity=-1, kp=float(kp), vt0=float(vt0), ci=ci)
    pred = np.array([model.ids(v, vds_n, curve.w, curve.l)[0] for v in vgs_n])
    full, on = _log_errors(pred, id_, on_mask)
    return FitResult(model=model, level=1, rms_log_error=full,
                     rms_log_error_on=on,
                     params={"kp": float(kp), "vt0": float(vt0)})


def fit_level61(curve: TransferCurve, ci: float,
                gamma: float = 0.3) -> FitResult:
    """Fit the unified TFT model over the full sweep in log-current space.

    Free parameters: band mobility, threshold, subthreshold slope, and
    leakage floor.  The mobility power ``gamma`` is held at its physical
    prior (fitting it is degenerate with mobility on a single curve, as in
    real TFT extraction practice).
    """
    vgs_n, id_, vds_n = _as_normalised(curve)
    on_mask = id_ > id_.max() * 1e-2
    log_meas = np.log10(np.maximum(id_, _LOG_FLOOR))

    def make_model(theta: np.ndarray) -> UnifiedTft:
        mu, vt0, ss, log_ioff = theta
        return UnifiedTft(polarity=-1, mu_band=mu, ci=ci, vt0=vt0,
                          vt_dibl=0.0, gamma=gamma, vaa=5.0, ss=ss,
                          alpha_sat=1.0, m_sat=2.5,
                          i_off_w=10.0 ** log_ioff, name="level61_fit")

    def residual(theta: np.ndarray) -> np.ndarray:
        model = make_model(theta)
        pred = np.array([model.ids(v, vds_n, curve.w, curve.l)[0]
                         for v in vgs_n])
        return np.log10(np.maximum(pred, _LOG_FLOOR)) - log_meas

    x0 = np.array([1e-5, 1.3, 0.35, -9.0])
    bounds = ([1e-8, -5.0, 0.05, -13.0], [1e-3, 5.0, 2.0, -5.0])
    x = least_squares(residual, x0, bounds)
    model = make_model(x)
    pred = np.array([model.ids(v, vds_n, curve.w, curve.l)[0] for v in vgs_n])
    full, on = _log_errors(pred, id_, on_mask)
    return FitResult(
        model=model, level=61, rms_log_error=full, rms_log_error_on=on,
        params={"mu_band": float(x[0]), "vt0": float(x[1]),
                "ss": float(x[2]), "i_off_w": float(10.0 ** x[3])},
    )
