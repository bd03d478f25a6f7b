"""Unified accumulation-mode thin-film-transistor model.

This is the repro implementation of the paper's "level 61" device model
(Section 4.2).  The RPI a-Si TFT model (SPICE level 61) was chosen by the
authors because it is "designed for a 3-terminal accumulation mode
transistor, with adequate parameters to describe carrier mobility, the
sub-VT region, and leakage current characteristics".  This class implements
those same ingredients in a single smooth equation set:

- power-law gate-voltage-dependent mobility
  ``mu_eff = mu_band * (vgte / vaa) ** gamma``,
- a softplus effective overdrive ``vgte`` that interpolates smoothly
  between exponential subthreshold conduction (with a configurable,
  *observed* subthreshold slope) and the above-threshold power law,
- an asymptotically saturating effective drain voltage ``vdse``
  (alpha-power-style knee, smoothness set by ``m_sat``),
- channel-length modulation,
- a drain-bias-dependent threshold (``vt_dibl``) reproducing the paper's
  measured VT shift from -1.3 V (VDS = 1 V) to +1.3 V (VDS = 10 V),
- an ohmic-at-origin leakage floor that sets the on/off ratio.

All analytic derivatives (``gm``, ``gds``) are exact; the test suite checks
them against finite differences with hypothesis.

Voltages are in the normalised n-type frame; the :class:`repro.spice.Fet`
element flips signs for p-type devices (pentacene is p-type).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import DeviceModelError
from repro.runtime import telemetry

_LN10 = math.log(10.0)
#: Drain-voltage scale over which the leakage floor turns on (volts).
_V_LEAK = 0.1


def _softplus(z: float) -> tuple[float, float]:
    """Numerically safe ``softplus(z) = ln(1 + e^z)`` and its derivative."""
    if z > 40.0:
        return z, 1.0
    if z < -40.0:
        ez = math.exp(z)
        return ez, ez
    ez = math.exp(z)
    return math.log1p(ez), ez / (1.0 + ez)


@dataclass(frozen=True)
class UnifiedTft:
    """Unified TFT model; also serves as the silicon alpha-power-law model.

    Parameters
    ----------
    polarity:
        +1 n-type, -1 p-type.
    mu_band:
        Band mobility in m^2/(V s).
    ci:
        Gate-dielectric capacitance per area, F/m^2.
    vt0:
        Zero-drain-bias threshold (normalised frame), volts.
    vt_dibl:
        Threshold shift per volt of drain bias (dVT/dVds, usually <= 0).
    gamma:
        Mobility power-law exponent.  The saturation current scales as
        ``vgte ** (2 + gamma)``; gamma < 0 emulates velocity-saturated
        short-channel silicon (alpha-power with alpha = 2 + gamma).
    vaa:
        Mobility normalisation voltage, volts.
    ss:
        *Observed* saturation-region subthreshold slope, volts/decade.
    alpha_sat:
        Saturation voltage as a fraction of overdrive (vdsat = alpha*vgte).
    m_sat:
        Knee sharpness of the triode/saturation transition.
    lambda_:
        Channel-length modulation, 1/V.
    i_off_w:
        Leakage floor per metre of channel width, A/m.
    c_overlap:
        Gate-S/D overlap capacitance per metre of width, F/m.
    name:
        Label used in reports.
    """

    polarity: int
    mu_band: float
    ci: float
    vt0: float
    vt_dibl: float = 0.0
    gamma: float = 0.3
    vaa: float = 5.0
    ss: float = 0.35
    alpha_sat: float = 1.0
    m_sat: float = 2.5
    lambda_: float = 0.0
    i_off_w: float = 0.0
    c_overlap: float = 0.0
    name: str = "tft"

    def __post_init__(self) -> None:
        if self.polarity not in (+1, -1):
            raise DeviceModelError(f"polarity must be +1 or -1, got {self.polarity}")
        for field_name in ("mu_band", "ci", "vaa", "ss", "alpha_sat", "m_sat"):
            if getattr(self, field_name) <= 0:
                raise DeviceModelError(f"{field_name} must be positive")
        if self.gamma <= -2.0:
            raise DeviceModelError("gamma must exceed -2 (alpha-power alpha > 0)")
        if self.i_off_w < 0 or self.lambda_ < 0 or self.c_overlap < 0:
            raise DeviceModelError("i_off_w, lambda_, c_overlap must be >= 0")

    # -- derived quantities ----------------------------------------------------

    @property
    def n_vth(self) -> float:
        """Subthreshold ideality voltage chosen so the *observed* saturation
        subthreshold slope equals ``ss`` volts/decade."""
        return (2.0 + self.gamma) * self.ss / _LN10

    def threshold(self, vds: float) -> float:
        """Drain-bias-dependent threshold voltage (normalised frame)."""
        return self.vt0 + self.vt_dibl * vds

    # -- I-V -------------------------------------------------------------------

    def ids(self, vgs: float, vds: float, w: float, l: float
            ) -> tuple[float, float, float]:
        """Return ``(id, gm, gds)``; expects normalised ``vds >= 0``."""
        nvth = self.n_vth
        vt = self.threshold(vds)
        z = (vgs - vt) / nvth
        sp, sig = _softplus(z)
        vgte = nvth * sp
        dvgte_dvgs = sig
        dvgte_dvds = -sig * self.vt_dibl

        beta = (w / l) * self.mu_band * self.ci / (self.vaa ** self.gamma)
        m = self.m_sat
        vsat = self.alpha_sat * vgte

        # Effective drain voltage vdse = vds * (1 + (vds/vsat)^m)^(-1/m),
        # with an asymptotic branch for vds >> vsat (avoids overflow when
        # the device is barely on and vsat is tiny).
        # ratio == 0 covers both vds == 0 and subnormal vds underflowing
        # against a normal vsat; the deep-triode limit applies to both.
        ratio = vds / vsat if vds > 0.0 else 0.0
        if ratio <= 0.0:
            vdse = 0.0
            dvdse_dvds = 1.0
            dvdse_dvsat = 0.0
        else:
            log_u = m * math.log(ratio)
            if log_u > 60.0:
                vdse = vsat
                dvdse_dvds = 0.0
                dvdse_dvsat = 1.0
            else:
                u = math.exp(log_u)
                base = (1.0 + u) ** (-1.0 / m)
                vdse = vds * base
                dvdse_dvds = (1.0 + u) ** (-1.0 - 1.0 / m)
                dvdse_dvsat = vds * (u / vsat) * (1.0 + u) ** (-1.0 - 1.0 / m)

        clm = 1.0 + self.lambda_ * vds
        p = 1.0 + self.gamma
        vgte_p = vgte ** p
        i_ch = beta * vgte_p * vdse * clm

        di_dvgte = beta * p * (vgte ** self.gamma) * vdse * clm
        di_dvdse = beta * vgte_p * clm
        di_dvds_clm = beta * vgte_p * vdse * self.lambda_

        gm = (di_dvgte + di_dvdse * dvdse_dvsat * self.alpha_sat) * dvgte_dvgs
        gds = (di_dvgte * dvgte_dvds
               + di_dvdse * (dvdse_dvds
                             + dvdse_dvsat * self.alpha_sat * dvgte_dvds)
               + di_dvds_clm)

        # Leakage floor (gate-independent off current).
        if self.i_off_w > 0.0:
            x = vds / _V_LEAK
            i_leak = self.i_off_w * w * math.tanh(x)
            # sech^2 via cosh avoids the 1 - tanh^2 cancellation when the
            # leakage term is fully turned on (tanh ~ 1); past cosh's
            # overflow point sech^2 has long underflowed to zero.
            if x < 350.0:
                ch = math.cosh(x)
                g_leak = self.i_off_w * w / (ch * ch) / _V_LEAK
            else:
                g_leak = 0.0
            return i_ch + i_leak, gm, gds + g_leak
        return i_ch, gm, gds

    # -- capacitances ------------------------------------------------------------

    def capacitances(self, w: float, l: float) -> tuple[float, float, float]:
        """Small-signal ``(cgs, cgd, cds)`` with the split-channel convention."""
        c_channel = self.ci * w * l
        c_ov = self.c_overlap * w
        return 0.5 * c_channel + c_ov, 0.5 * c_channel + c_ov, 0.0

    def gate_capacitance(self, w: float, l: float) -> float:
        """Total gate input capacitance (fanout load estimate)."""
        cgs, cgd, _ = self.capacitances(w, l)
        return cgs + cgd


class StackedTftParams:
    """Parameter arrays for a *heterogeneous* batch of :class:`UnifiedTft`s.

    The ensemble engine (:mod:`repro.spice.ensemble`) stacks devices whose
    **models differ member to member** (Monte-Carlo ``vt0``/``mu_band``
    perturbations, mixed n/p devices of one circuit).  This class
    precomputes every model constant (``beta``, subthreshold scale,
    leakage prefactors) as a per-device array, so :meth:`evaluate` is a
    short straight-line sequence of NumPy ops whose values match the
    scalar :meth:`UnifiedTft.ids` to rounding error.  It is the only
    array-valued device kernel; the native SPICE kernel mirrors its field
    order.

    ``subset`` gathers the arrays for a device subset, which is how the
    ensemble's masked active set re-narrows its kernels as members finish.
    """

    _FIELDS = ("_k_z", "_k_zd", "_z0", "_nvth", "_beta", "_p", "_beta_p",
               "_alpha", "_k_vsat", "_m", "_e_pow", "_lam", "_vt_dibl",
               "_leak_i", "_leak_g")

    def __init__(self, models: "list[UnifiedTft] | tuple[UnifiedTft, ...]",
                 w: np.ndarray, l: np.ndarray) -> None:
        w = np.asarray(w, dtype=float)
        l = np.asarray(l, dtype=float)

        def arr(attr: str) -> np.ndarray:
            return np.array([getattr(m, attr) for m in models], dtype=float)

        nvth = np.array([m.n_vth for m in models])
        mu_band, ci, gamma = arr("mu_band"), arr("ci"), arr("gamma")
        vaa, vt0 = arr("vaa"), arr("vt0")
        self._nvth = nvth
        self._k_z = 1.0 / nvth
        self._vt_dibl = arr("vt_dibl")
        self._k_zd = self._vt_dibl / nvth
        self._z0 = vt0 / nvth
        self._beta = (w / l) * mu_band * ci / (vaa ** gamma)
        self._p = 1.0 + gamma
        self._beta_p = self._beta * self._p
        self._alpha = arr("alpha_sat")
        self._k_vsat = self._alpha * nvth
        self._m = arr("m_sat")
        self._e_pow = -1.0 - 1.0 / self._m
        self._lam = arr("lambda_")
        self._leak_i = arr("i_off_w") * w
        self._leak_g = self._leak_i / _V_LEAK
        self._any_leak = bool(np.any(self._leak_i > 0.0))

    def subset(self, idx: np.ndarray) -> "StackedTftParams":
        """A gathered copy covering only the devices selected by *idx*."""
        sub = object.__new__(StackedTftParams)
        for field_name in self._FIELDS:
            setattr(sub, field_name, getattr(self, field_name)[idx])
        sub._any_leak = bool(np.any(sub._leak_i > 0.0))
        return sub

    def __len__(self) -> int:
        return len(self._beta)

    @telemetry.timed("solver.device_eval")
    def evaluate(self, vgs: np.ndarray, vds: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(id, gm, gds)`` for per-device normalised bias points.

        Numerics follow the scalar :meth:`UnifiedTft.ids` equations,
        including its ``log u > 60`` asymptotic branch for the ``vdse``
        knee (evaluated as a masked lane so deep-subthreshold devices get
        exactly the scalar values).  The softplus uses the branch-free
        ``max(z,0) + log1p(e^-|z|)`` identity (equal to the scalar's
        branches to rounding error), floored at 1e-300 so a fully-off
        device cannot divide by zero.
        """
        with np.errstate(divide="ignore", over="ignore",
                         invalid="ignore", under="ignore"):
            z = vgs * self._k_z - vds * self._k_zd - self._z0
            # Branch-free softplus and logistic derivative.
            sp = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
            np.maximum(sp, 1e-300, out=sp)
            sig = np.exp(z - sp)
            vgte = self._nvth * sp
            vsat = self._k_vsat * sp

            # vdse = vds * (1 + (vds/vsat)^m)^(-1/m).  Deep lanes
            # (log u > 60) take the scalar branch's asymptotic values
            # exactly; u is clamped there only so the unused closed-form
            # results cannot overflow.
            log_u = self._m * np.log(vds / vsat)
            deep = log_u > 60.0
            u = np.exp(np.minimum(log_u, 60.0))
            t = 1.0 + u
            base_pow = t ** self._e_pow
            vdse = np.where(deep, vsat, vds * (base_pow * t))
            # Factored with base_pow * u innermost: that product is <= 1
            # and vds * (base_pow * u) ~ vsat, so no intermediate can
            # overflow even when vsat is near the softplus floor.
            dvdse_dvsat = np.where(deep, 1.0, (vds * (base_pow * u)) / vsat)
            base_pow = np.where(deep, 0.0, base_pow)  # d vdse / d vds

            clm = 1.0 + self._lam * vds
            vgte_p = vgte ** self._p
            i0 = (self._beta * clm) * vgte_p
            i_ch = i0 * vdse
            di_dvgte = (self._beta_p * clm) * (vgte_p / vgte) * vdse

            gm = (di_dvgte + i0 * (dvdse_dvsat * self._alpha)) * sig
            dvgte_dvds = sig * (-self._vt_dibl)
            gds = (di_dvgte * dvgte_dvds
                   + i0 * (base_pow + (dvdse_dvsat * self._alpha) * dvgte_dvds)
                   + i_ch * (self._lam / clm))
            # vds == 0: the logs above produce -inf -> u = 0 -> vdse = 0
            # and correct derivatives, but 0 * inf NaNs must not leak.
            if self._any_leak:
                x_leak = vds * (1.0 / _V_LEAK)
                i_ch = i_ch + self._leak_i * np.tanh(x_leak)
                ch = np.cosh(x_leak)
                gds = gds + self._leak_g / (ch * ch)
        return i_ch, gm, gds
