"""Compiled C backend: ensemble Newton — and whole transient timesteps.

The profile of a characterisation run is dominated not by LAPACK flops
but by the Python orchestration *around* them: per-iteration stacked
assembly, fancy-indexed device scatters, ``np.linalg.solve`` dispatch,
and the active-set mask arithmetic — each a handful of microseconds,
tens of thousands of times.  This backend moves the complete
stamp-residual-solve-update loop over a masked lane set into one C call
per timestep, following the proven :mod:`repro.core.ipc_native` recipe:
compile with whatever system compiler exists (``cc``/``gcc``/``clang``),
cache the shared object by source hash, bind through :mod:`ctypes`, and
degrade silently to the pure-NumPy reference when any of that fails.

Two entry points share one set of per-lane C helpers:

- ``repro_ensemble_newton`` — one damped Newton solve over a masked
  lane set (the PR-6 kernel, still used for DC operating points and as
  the per-iteration fallback of the transient engine);
- ``repro_ensemble_timestep`` — the **entire transient timestep loop**
  per lane: predictor extrapolation, BE companion RHS assembly (constant
  sources + vectorised ramps + storage history), Newton with stamp
  bypass, the per-lane LTE step controller (accept/reject, dt
  halving/growth), and probe threshold-crossing detection.  Python is
  re-entered only at chunk boundaries, for scalar retries, and for
  telemetry flushes.  Because every lane is integrated independently to
  completion, the per-lane step schedule is *bit-exact* regardless of
  batch composition — the determinism contract the
  ``ENSEMBLE_BATCH`` equivalence suite pins down.  A lane the
  kernel cannot finish (dt underflow, crossing-buffer overflow) is left
  at its exact pre-step state and flagged; the Python sweep loop then
  replays it with identical arithmetic (and raises the context-rich
  ``ConvergenceError`` itself when the failure is real).

The C kernels are transliterations of the reference semantics:

- per-lane damped Newton exactly as
  :meth:`repro.spice.ensemble.EnsembleSystem.newton_batch` /
  :func:`repro.spice.dc._newton` (damping scale, freeze-on-converge,
  per-lane iteration budgets, gmin conditioning, exact-zero-pivot
  singularity semantics — a singular lane is deactivated, never fatal);
- the :class:`~repro.devices.tft_level61.StackedTftParams` device
  equations, same branch structure as the NumPy kernel (branch-free
  softplus, ``log u > 60`` deep-triode asymptote, tanh/cosh leakage);
- the transient fast path composes ``G_static[m] + C_unit[m]/dt`` and
  the storage history term per lane *inside* the kernel, so Python
  never materialises gathered ``(A, S, S)`` arrays at all;
- the stamp-bypass protocol (see :mod:`repro.spice.transient`): frozen
  lanes reuse the cached nonlinear stamps, fresh converged lanes write
  the per-member cache back — the same decision rule, same cache
  layout, as the scalar and NumPy-ensemble engines;
- the timestep controller of
  :meth:`repro.spice.ensemble.EnsembleTransient.run` (itself the
  batched twin of the scalar :func:`repro.spice.transient.transient`
  controller), operation for operation.  The kernel is compiled with
  ``-ffp-contract=off`` so the controller arithmetic stays IEEE-faithful
  to the NumPy orchestration — the whole-timestep and per-iteration
  native paths produce identical step schedules.

Scalar and small-batch solves inherit the NumPy reference paths; only
the ensemble hooks are native.  Results agree with the reference to
solver/rounding tolerance (libm vs NumPy transcendentals differ in the
last ulp), which the backend-equivalence suite pins down.  Patching
:attr:`NativeBackend.whole_timestep` to ``False`` disables only the
whole-timestep entry (every step still uses the per-iteration kernel) —
the configuration the backend-agreement validation check compares
against.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.devices.tft_level61 import StackedTftParams
from repro.runtime import telemetry
from repro.runtime.log import get_logger
from repro.spice.backends.numpy_ref import EnsembleNewtonRequest, NumpyBackend
from repro.spice.elements import FET_GMIN

logger = get_logger(__name__)

#: Per-(probe, lane) crossing-buffer capacity of the whole-timestep
#: kernel.  A real timing arc produces a handful of crossings per probe;
#: a lane that would overflow bails back to the Python sweep loop, which
#: records into unbounded lists.
CROSS_CAP = 32

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Batched SPICE kernels: a damped Newton solve over a masked lane set
 * (repro_ensemble_newton) and the whole per-lane transient timestep
 * loop (repro_ensemble_timestep).  Both are transliterations of
 * EnsembleSystem.newton_batch / EnsembleTransient.run; see the Python
 * module docstring for the exact correspondence.  They share the lane
 * helpers below, so a Newton solve is the same arithmetic whichever
 * entry point reaches it.
 */

#define PF 15  /* parameter fields per device, StackedTftParams order */

static void eval_tft(const double *pr, double vgs, double vds,
                     double *ids, double *gm, double *gds)
{
    double k_z = pr[0], k_zd = pr[1], z0 = pr[2], nvth = pr[3];
    double beta = pr[4], p = pr[5], beta_p = pr[6], alpha = pr[7];
    double k_vsat = pr[8], m = pr[9], e_pow = pr[10], lam = pr[11];
    double vt_dibl = pr[12], leak_i = pr[13], leak_g = pr[14];

    double z = vgs * k_z - vds * k_zd - z0;
    double sp = fmax(z, 0.0) + log1p(exp(-fabs(z)));
    if (sp < 1e-300) sp = 1e-300;
    double sig = exp(z - sp);
    double vgte = nvth * sp;
    double vsat = k_vsat * sp;

    double log_u = m * log(vds / vsat);   /* vds==0 -> -inf -> u=0 */
    double vdse, dvdse_dvsat, base_pow;
    if (log_u > 60.0) {                   /* deep-triode asymptote */
        vdse = vsat;
        dvdse_dvsat = 1.0;
        base_pow = 0.0;
    } else {
        double u = exp(log_u);
        double t = 1.0 + u;
        base_pow = pow(t, e_pow);
        vdse = vds * (base_pow * t);
        dvdse_dvsat = (vds * (base_pow * u)) / vsat;
    }

    double clm = 1.0 + lam * vds;
    double vgte_p = pow(vgte, p);
    double i0 = (beta * clm) * vgte_p;
    double i_ch = i0 * vdse;
    double di_dvgte = (beta_p * clm) * (vgte_p / vgte) * vdse;

    double g_m = (di_dvgte + i0 * (dvdse_dvsat * alpha)) * sig;
    double dvgte_dvds = sig * (-vt_dibl);
    double g_ds = di_dvgte * dvgte_dvds
        + i0 * (base_pow + (dvdse_dvsat * alpha) * dvgte_dvds)
        + i_ch * (lam / clm);

    if (leak_i > 0.0) {
        double x_leak = vds * 10.0;       /* 1 / V_LEAK, V_LEAK = 0.1 */
        i_ch += leak_i * tanh(x_leak);
        double ch = cosh(x_leak);         /* overflow -> inf -> g += 0 */
        g_ds += leak_g / (ch * ch);
    }
    *ids = i_ch; *gm = g_m; *gds = g_ds;
}

/* Partial-pivot LU solve of J delta = rhs, in place; J is S x S with
 * row stride `stride`.  Returns 0, or 1 on an exactly-zero pivot (the
 * LAPACK dgesv singularity condition). */
static int lu_solve(double *J, long stride, double *rhs, long S)
{
    for (long k = 0; k < S; k++) {
        long p = k;
        double best = fabs(J[k * stride + k]);
        for (long i = k + 1; i < S; i++) {
            double v = fabs(J[i * stride + k]);
            if (v > best) { best = v; p = i; }
        }
        if (J[p * stride + k] == 0.0) return 1;
        if (p != k) {
            for (long j = k; j < S; j++) {
                double t = J[k * stride + j];
                J[k * stride + j] = J[p * stride + j];
                J[p * stride + j] = t;
            }
            double t = rhs[k]; rhs[k] = rhs[p]; rhs[p] = t;
        }
        double piv = J[k * stride + k];
        for (long i = k + 1; i < S; i++) {
            double f = J[i * stride + k] / piv;
            J[i * stride + k] = f;
            for (long j = k + 1; j < S; j++)
                J[i * stride + j] -= f * J[k * stride + j];
            rhs[i] -= f * rhs[k];
        }
    }
    for (long k = S - 1; k >= 0; k--) {
        double t = rhs[k];
        for (long j = k + 1; j < S; j++)
            t -= J[k * stride + j] * rhs[j];
        rhs[k] = t / J[k * stride + k];
    }
    return 0;
}

/* Everything a single-lane Newton solve needs that does not change
 * between steps: system shape, device tables, tolerances, the bypass
 * cache, and the scratch buffers (owned by the entry points). */
typedef struct {
    long S, n_nodes;
    const int64_t *dev_off, *d_loc, *g_loc, *s_loc;
    const double *pol, *par;
    double fet_gmin, abstol_v, abstol_i;
    long bypass_on;
    long n_slots;
    const int64_t *slots;
    double eta;
    uint8_t *cache_valid;
    double *cache_x, *cache_jnl, *cache_fnl;
    double *jmat, *jnl, *fnl, *xext, *fvec, *rhs;
} lane_ctx;

/* Cached stamps still usable at the accepted state xp?  Mirrors
 * _EnsembleBypass.frozen_lanes for one member. */
static long lane_frozen(const lane_ctx *c, long m, const double *xp)
{
    if (!c->bypass_on || !c->cache_valid[m])
        return 0;
    const double *cx = c->cache_x + (size_t)m * c->S;
    double mv = 0.0;
    for (long si = 0; si < c->n_slots; si++) {
        long sl = c->slots[si];
        double d = fabs(xp[sl] - cx[sl]);
        if (d > mv) mv = d;
    }
    return mv <= c->eta;
}

/* Damped Newton to completion for one lane: assemble (linear base G +
 * TFT stamps or cached bypass stamps), partial-pivot LU, damp, update.
 * xl is updated in place (partial iterate on non-convergence, like the
 * reference).  Returns the iteration count; *ok_out is 1 on
 * convergence, 0 on budget exhaustion or a singular Jacobian. */
static long lane_newton(const lane_ctx *c, long m, const double *G,
                        const double *beff, double *xl, long frozen,
                        long budget, double step_cap, double gmin,
                        long *ok_out)
{
    long S = c->S, n_nodes = c->n_nodes, ext = S + 1;
    double *jmat = c->jmat, *jnl = c->jnl, *fnl = c->fnl;
    double *xext = c->xext, *fvec = c->fvec, *rhs = c->rhs;
    long iter = 0;
    long ok = 0;
    while (iter < budget) {
        /* Nonlinear stamps: cached (frozen) or fresh. */
        if (frozen) {
            const double *cj = c->cache_jnl + (size_t)m * S * S;
            const double *cf = c->cache_fnl + (size_t)m * S;
            for (long i = 0; i < S; i++)
                for (long j = 0; j < S; j++)
                    jmat[i * S + j] = G[i * S + j] + cj[i * S + j];
            for (long i = 0; i < S; i++) {
                double acc = 0.0;
                for (long j = 0; j < S; j++)
                    acc += G[i * S + j] * xl[j];
                fvec[i] = acc - beff[i] + cf[i];
            }
        } else {
            memset(jnl, 0, (size_t)(ext * ext) * sizeof(double));
            memset(fnl, 0, (size_t)ext * sizeof(double));
            memcpy(xext, xl, (size_t)S * sizeof(double));
            xext[S] = 0.0;
            for (long dev = c->dev_off[m]; dev < c->dev_off[m + 1]; dev++) {
                long d = c->d_loc[dev], g = c->g_loc[dev], s = c->s_loc[dev];
                double pl = c->pol[dev];
                double dv = xext[d] - xext[s];
                long a_n = d, b_n = s;
                if (pl * dv < 0.0) { a_n = s; b_n = d; }
                double vds_n = fabs(dv);
                double vgs_n = pl * (xext[g] - xext[b_n]);
                double ids, gmv, gdsv;
                eval_tft(c->par + (size_t)dev * PF, vgs_n, vds_n,
                         &ids, &gmv, &gdsv);
                double i_phys = pl * (ids + c->fet_gmin * vds_n);
                fnl[a_n] += i_phys;
                fnl[b_n] -= i_phys;
                double g_ds = gdsv + c->fet_gmin;
                double gsum = gmv + g_ds;
                jnl[a_n * ext + a_n] += g_ds;
                jnl[a_n * ext + g]   += gmv;
                jnl[a_n * ext + b_n] -= gsum;
                jnl[b_n * ext + a_n] -= g_ds;
                jnl[b_n * ext + g]   -= gmv;
                jnl[b_n * ext + b_n] += gsum;
            }
            for (long i = 0; i < S; i++)
                for (long j = 0; j < S; j++)
                    jmat[i * S + j] = G[i * S + j] + jnl[i * ext + j];
            for (long i = 0; i < S; i++) {
                double acc = 0.0;
                for (long j = 0; j < S; j++)
                    acc += G[i * S + j] * xl[j];
                fvec[i] = acc - beff[i] + fnl[i];
            }
        }
        if (gmin > 0.0) {
            for (long i = 0; i < n_nodes; i++) {
                jmat[i * S + i] += gmin;
                fvec[i] += gmin * xl[i];
            }
        }
        double residual = 0.0;
        for (long i = 0; i < n_nodes; i++) {
            double v = fabs(fvec[i]);
            if (v > residual) residual = v;
        }
        for (long i = 0; i < S; i++)
            rhs[i] = -fvec[i];
        if (lu_solve(jmat, S, rhs, S)) {
            ok = 0;          /* singular lane: deactivate, not fatal */
            break;
        }
        double max_delta = 0.0;
        for (long i = 0; i < S; i++) {
            double v = fabs(rhs[i]);
            if (v > max_delta) max_delta = v;
        }
        double scale = 1.0;
        if (max_delta > step_cap)
            scale = step_cap / max_delta;
        long done_now = (max_delta < c->abstol_v) && (residual < c->abstol_i);
        if (done_now && !frozen && c->bypass_on) {
            /* Export the stamps evaluated at the pre-update state. */
            double *cj = c->cache_jnl + (size_t)m * S * S;
            double *cf = c->cache_fnl + (size_t)m * S;
            double *cx = c->cache_x + (size_t)m * S;
            for (long i = 0; i < S; i++)
                for (long j = 0; j < S; j++)
                    cj[i * S + j] = jnl[i * ext + j];
            for (long i = 0; i < S; i++) cf[i] = fnl[i];
            memcpy(cx, xl, (size_t)S * sizeof(double));
            c->cache_valid[m] = 1;
        }
        for (long i = 0; i < S; i++)
            xl[i] += rhs[i] * scale;
        iter++;
        if (done_now) { ok = 1; break; }
    }
    *ok_out = ok;
    return iter;
}

long repro_ensemble_newton(
    long A, long S, long n_nodes,
    const int64_t *mem,
    long compose_g,
    const double *G_lin,        /* A*S*S when compose_g == 0 */
    const double *G_static,     /* member-indexed, compose mode */
    const double *C_unit,       /* member-indexed, compose/storage */
    const double *inv_dt,       /* per lane */
    const double *b,            /* A*S */
    long add_storage,
    const double *x_prev,       /* A*S; accepted state (storage, bypass) */
    const int64_t *dev_off,     /* member -> device range */
    const int64_t *d_loc, const int64_t *g_loc, const int64_t *s_loc,
    const double *pol,
    const double *par,          /* n_dev x PF, field-minor */
    double fet_gmin,
    double abstol_v, double abstol_i,
    const double *max_step_v,   /* per lane */
    const int64_t *max_iter,    /* per lane */
    double gmin,
    long bypass_on, double eta,
    long n_slots, const int64_t *slots,
    uint8_t *cache_valid,       /* member-indexed bypass cache */
    double *cache_x, double *cache_jnl, double *cache_fnl,
    double *x,                  /* A*S, in/out */
    uint8_t *conv,              /* A, out */
    int64_t *stats)             /* [0] frozen lane-steps, [1] total lane
                                 * iterations, [2] singular lanes, out */
{
    long ext = S + 1;
    double *gbase = malloc((size_t)(S * S) * sizeof(double));
    double *jmat  = malloc((size_t)(S * S) * sizeof(double));
    double *jnl   = malloc((size_t)(ext * ext) * sizeof(double));
    double *fnl   = malloc((size_t)ext * sizeof(double));
    double *xext  = malloc((size_t)ext * sizeof(double));
    double *beff  = malloc((size_t)S * sizeof(double));
    double *fvec  = malloc((size_t)S * sizeof(double));
    double *rhs   = malloc((size_t)S * sizeof(double));
    long iters_max = 0;
    long frozen_steps = 0;
    int64_t total_iters = 0, singular_n = 0;
    if (!gbase || !jmat || !jnl || !fnl || !xext || !beff || !fvec || !rhs) {
        iters_max = -1;
        goto done;
    }
    lane_ctx c = { S, n_nodes, dev_off, d_loc, g_loc, s_loc, pol, par,
                   fet_gmin, abstol_v, abstol_i, bypass_on,
                   n_slots, slots, eta,
                   cache_valid, cache_x, cache_jnl, cache_fnl,
                   jmat, jnl, fnl, xext, fvec, rhs };

    for (long lane = 0; lane < A; lane++) {
        long m = mem[lane];
        double *xl = x + lane * S;
        const double *bl = b + lane * S;
        const double *xp = x_prev ? x_prev + lane * S : 0;

        /* Linear base: gathered G_lin, or G_static[m] + C_unit[m]/dt. */
        const double *G;
        if (compose_g) {
            const double *gs = G_static + (size_t)m * S * S;
            const double *cu = C_unit + (size_t)m * S * S;
            double idt = inv_dt[lane];
            for (long i = 0; i < S * S; i++)
                gbase[i] = gs[i] + cu[i] * idt;
            G = gbase;
        } else {
            G = G_lin + (size_t)lane * S * S;
        }

        /* Effective rhs: b plus the storage history C x_prev / dt. */
        if (add_storage) {
            const double *cu = C_unit + (size_t)m * S * S;
            double idt = inv_dt[lane];
            for (long i = 0; i < S; i++) {
                double acc = 0.0;
                for (long j = 0; j < S; j++)
                    acc += cu[i * S + j] * xp[j];
                beff[i] = bl[i] + acc * idt;
            }
        } else {
            memcpy(beff, bl, (size_t)S * sizeof(double));
        }

        /* Stamp bypass: reuse cached nonlinear stamps while no device
         * terminal has drifted beyond eta from the cached state. */
        long frozen = xp ? lane_frozen(&c, m, xp) : 0;
        if (frozen) frozen_steps++;

        long ok;
        long iter = lane_newton(&c, m, G, beff, xl, frozen,
                                max_iter[lane], max_step_v[lane], gmin, &ok);
        conv[lane] = (uint8_t)ok;
        total_iters += iter;
        /* A lane that stopped short of its budget unconverged hit the
         * exact-zero-pivot break: that is the singular count. */
        if (!ok && iter < max_iter[lane]) singular_n++;
        if (iter > iters_max) iters_max = iter;
    }

done:
    free(gbase); free(jmat); free(jnl); free(fnl);
    free(xext); free(beff); free(fvec); free(rhs);
    if (stats) {
        stats[0] = frozen_steps;
        stats[1] = total_iters;
        stats[2] = singular_n;
    }
    return iters_max;
}

/* The whole transient timestep loop, per lane to completion — the
 * controller of EnsembleTransient.run (itself the batched scalar
 * controller of repro.spice.transient), operation for operation:
 *
 *   while t_stop - t > dt_min:
 *     dt_step = min(dt, t_stop - t); damped if dt_step <= 8 dt_min
 *     predict x_start from history; assemble rhs at t + dt_step
 *     Newton from the prediction; on miss retry from the accepted state
 *     failure  -> dt /= 2 (below dt_min: leave the lane untouched and
 *                 flag it — Python replays the step and raises)
 *     LTE blowup on an oversized step -> reject, dt = max(dt/2, dt_nom)
 *     accept   -> record probe crossings, shift history, grow/hold dt
 *
 * Each lane runs independently, so its step schedule is bit-identical
 * whatever the batch composition.  status[m]: 0 done, 1 bailed (dt
 * underflow or crossing-buffer overflow; state is at the last accepted
 * step).  stats: [0] accepted steps, [1] halvings, [2] LTE rejections,
 * [3] frozen (bypassed) lane-steps, [4] bailed lanes, [5] total lane
 * Newton iterations (prediction + retry attempts, same counting as the
 * per-lane reference), [6] probe crossings recorded.  Returns 0, or
 * -1 when scratch allocation fails (no state touched). */
long repro_ensemble_timestep(
    long B, long S, long n_nodes,
    const double *G_static, const double *C_unit,   /* B*S*S each */
    const double *b_const,                          /* B*S */
    long n_ramps, const int64_t *ramp_row,
    const double *ramp_v0, const double *ramp_dv,   /* n_ramps*B each */
    const double *ramp_t0, const double *ramp_inv_dur,
    const int64_t *dev_off,
    const int64_t *d_loc, const int64_t *g_loc, const int64_t *s_loc,
    const double *pol, const double *par,
    double fet_gmin, double abstol_v, double abstol_i,
    double max_step_v, long max_iter,
    double damped_step_v, long damped_iter,
    long bypass_on, double eta,
    long n_slots, const int64_t *slots,
    uint8_t *cache_valid,
    double *cache_x, double *cache_jnl, double *cache_fnl,
    double *x,                  /* B*S, in/out: accepted state */
    double *t, double *dt,      /* B, in/out */
    double *x_last,             /* B*S, in/out: previous accepted state */
    double *dt_last, uint8_t *has_hist, int64_t *steps,   /* B, in/out */
    const double *t_stop, const double *dt_min, const double *dt_nom,
    const double *dt_cap, const double *lte_tol, const double *growth,
    long n_probes, const int64_t *probe_slot,
    const double *probe_level,  /* n_probes*B */
    long cross_cap,
    double *cross_t,            /* n_probes*B*cross_cap, out */
    uint8_t *cross_rise,        /* n_probes*B*cross_cap, out */
    int64_t *cross_n,           /* n_probes*B, out */
    uint8_t *status,            /* B, out */
    int64_t *stats)             /* [5], out */
{
    long ext = S + 1;
    double *gbase = malloc((size_t)(S * S) * sizeof(double));
    double *jmat  = malloc((size_t)(S * S) * sizeof(double));
    double *jnl   = malloc((size_t)(ext * ext) * sizeof(double));
    double *fnl   = malloc((size_t)ext * sizeof(double));
    double *xext  = malloc((size_t)ext * sizeof(double));
    double *beff  = malloc((size_t)S * sizeof(double));
    double *fvec  = malloc((size_t)S * sizeof(double));
    double *rhs   = malloc((size_t)S * sizeof(double));
    double *xpred = malloc((size_t)S * sizeof(double));
    double *xn    = malloc((size_t)S * sizeof(double));
    if (!gbase || !jmat || !jnl || !fnl || !xext
            || !beff || !fvec || !rhs || !xpred || !xn) {
        free(gbase); free(jmat); free(jnl); free(fnl); free(xext);
        free(beff); free(fvec); free(rhs); free(xpred); free(xn);
        return -1;
    }
    lane_ctx c = { S, n_nodes, dev_off, d_loc, g_loc, s_loc, pol, par,
                   fet_gmin, abstol_v, abstol_i, bypass_on,
                   n_slots, slots, eta,
                   cache_valid, cache_x, cache_jnl, cache_fnl,
                   jmat, jnl, fnl, xext, fvec, rhs };
    int64_t acc_n = 0, halv_n = 0, lte_n = 0, frozen_n = 0, bail_n = 0;
    int64_t iter_n = 0, cross_count = 0;

    for (long m = 0; m < B; m++) {
        double *xl  = x + (size_t)m * S;
        double *xls = x_last + (size_t)m * S;
        const double *gs = G_static + (size_t)m * S * S;
        const double *cu = C_unit + (size_t)m * S * S;
        const double *bc = b_const + (size_t)m * S;
        double lane_t = t[m], lane_dt = dt[m];
        double stop = t_stop[m], dmin = dt_min[m], dnom = dt_nom[m];
        double dcap = dt_cap[m], tol = lte_tol[m], grow = growth[m];
        status[m] = 0;

        while (stop - lane_t > dmin) {
            double rem = stop - lane_t;
            double dt_step = fmin(lane_dt, rem);
            long damped = dt_step <= 8.0 * dmin;
            double step_cap = damped ? damped_step_v : max_step_v;
            long budget = damped ? damped_iter : max_iter;
            double idt = 1.0 / dt_step;
            double t_next = lane_t + dt_step;

            /* Linear base and effective rhs for this step: constant
             * sources + vectorised ramps + the storage history term —
             * the same arithmetic order as rhs_batch + the kernel's
             * storage add, so values are bitwise the reference. */
            for (long i = 0; i < S * S; i++)
                gbase[i] = gs[i] + cu[i] * idt;
            memcpy(beff, bc, (size_t)S * sizeof(double));
            for (long r = 0; r < n_ramps; r++) {
                double frac = (t_next - ramp_t0[r * B + m])
                    * ramp_inv_dur[r * B + m];
                if (frac < 0.0) frac = 0.0;
                if (frac > 1.0) frac = 1.0;
                beff[ramp_row[r]] += ramp_v0[r * B + m]
                    + ramp_dv[r * B + m] * frac;
            }
            for (long i = 0; i < S; i++) {
                double acc = 0.0;
                for (long j = 0; j < S; j++)
                    acc += cu[i * S + j] * xl[j];
                beff[i] = beff[i] + acc * idt;
            }

            /* Warm-start prediction from the integration history. */
            long hist = has_hist[m];
            if (hist) {
                double ratio = dt_step / dt_last[m];
                for (long i = 0; i < S; i++)
                    xpred[i] = xl[i] + (xl[i] - xls[i]) * ratio;
            } else {
                memcpy(xpred, xl, (size_t)S * sizeof(double));
            }

            long frozen = lane_frozen(&c, m, xl);
            if (frozen) frozen_n++;

            /* Newton from the prediction; on a miss, retry once from
             * the accepted state (the scalar controller's fallback).
             * pred_err is only defined when the *predicted* start
             * converged — a retried lane holds its step (NaN). */
            memcpy(xn, xpred, (size_t)S * sizeof(double));
            long ok;
            iter_n += lane_newton(&c, m, gbase, beff, xn, frozen,
                                  budget, step_cap, 0.0, &ok);
            double pred_err = NAN;
            if (ok && hist) {
                double mv = 0.0;
                for (long i = 0; i < S; i++) {
                    double v = fabs(xn[i] - xpred[i]);
                    if (v > mv) mv = v;
                }
                pred_err = mv;
            } else if (!ok && hist) {
                memcpy(xn, xl, (size_t)S * sizeof(double));
                iter_n += lane_newton(&c, m, gbase, beff, xn, frozen,
                                      budget, step_cap, 0.0, &ok);
            }

            if (!ok) {
                halv_n++;
                double new_dt = dt_step / 2.0;
                if (new_dt < dmin) {
                    /* Leave the lane at its pre-step state with the
                     * failing dt: the Python sweep loop replays the
                     * identical step and raises the context-rich
                     * ConvergenceError itself. */
                    status[m] = 1;
                    bail_n++;
                    break;
                }
                lane_dt = new_dt;
                continue;
            }

            /* LTE rejection of oversized steps whose estimate blew up
             * (NaN pred_err compares false: never rejected). */
            if (dt_step > dnom && pred_err > 4.0 * tol) {
                lte_n++;
                lane_dt = fmax(dt_step / 2.0, dnom);
                continue;
            }

            /* Probe crossings between the accepted states.  Capacity is
             * checked for the whole step before anything is recorded so
             * a bailed lane never holds a partial step. */
            long overflow = 0;
            for (long p = 0; p < n_probes; p++) {
                long sl = probe_slot[p];
                double lv = probe_level[p * B + m];
                double v0 = xl[sl] - lv, v1 = xn[sl] - lv;
                int s0 = (v0 > 0.0) - (v0 < 0.0);
                int s1 = (v1 > 0.0) - (v1 < 0.0);
                if (s0 != s1 && cross_n[p * B + m] >= cross_cap)
                    overflow = 1;
            }
            if (overflow) {
                status[m] = 1;
                bail_n++;
                break;
            }
            for (long p = 0; p < n_probes; p++) {
                long sl = probe_slot[p];
                double lv = probe_level[p * B + m];
                double v0 = xl[sl] - lv, v1 = xn[sl] - lv;
                int s0 = (v0 > 0.0) - (v0 < 0.0);
                int s1 = (v1 > 0.0) - (v1 < 0.0);
                if (s0 != s1) {
                    long k = cross_n[p * B + m]++;
                    double frac = -v0 / (v1 - v0);
                    size_t at = ((size_t)p * B + m) * cross_cap + k;
                    cross_t[at] = lane_t + frac * dt_step;
                    cross_rise[at] = v1 > v0;
                    cross_count++;
                }
            }

            /* Accept: shift history, advance, grow/hold the step. */
            memcpy(xls, xl, (size_t)S * sizeof(double));
            dt_last[m] = dt_step;
            has_hist[m] = 1;
            memcpy(xl, xn, (size_t)S * sizeof(double));
            lane_t += dt_step;
            steps[m]++;
            acc_n++;
            if (dt_step >= dnom) {
                if (pred_err < 0.25 * tol)
                    lane_dt = fmin(2.0 * dt_step, dcap);
                else if (pred_err > tol)
                    lane_dt = fmax(dt_step / 2.0, dnom);
                else
                    lane_dt = dt_step;
            } else {
                lane_dt = fmin(dnom, dt_step * grow);
            }
        }
        t[m] = lane_t;
        dt[m] = lane_dt;
    }

    free(gbase); free(jmat); free(jnl); free(fnl); free(xext);
    free(beff); free(fvec); free(rhs); free(xpred); free(xn);
    stats[0] = acc_n; stats[1] = halv_n; stats[2] = lte_n;
    stats[3] = frozen_n; stats[4] = bail_n;
    stats[5] = iter_n; stats[6] = cross_count;
    return 0;
}
"""

# Load state: "unset" until the first request, then the bound _Kernel
# or None (unavailable).  Never retried within a process.
_STATE: list = ["unset"]

#: (bypass_on, eta, n_slots, slots, valid, x_stamp, J_nl, F_nl) when the
#: stamp bypass is off — None maps to NULL under the void* argtypes.
_NO_BYPASS = (0, 0.0, 0, None, None, None, None, None)


class _Kernel:
    """The bound C entry points (one shared object, two functions)."""

    __slots__ = ("newton", "timestep")

    def __init__(self, newton, timestep) -> None:
        self.newton = newton
        self.timestep = timestep


# Same conventions as repro.core.ipc_native (not imported: repro.core's
# package __init__ drags in the characterization stack and would make
# the solver import cyclic).
def native_dir() -> Path:
    """Directory for compiled kernels (override: REPRO_NATIVE_DIR)."""
    override = os.environ.get("REPRO_NATIVE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "native"


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile() -> Path | None:
    """Compile (or reuse) the solver kernel; None on any failure."""
    # The cache key covers source AND flags: a flag change (e.g. a new
    # optimisation level) must not silently reuse a stale binary.
    tag = hashlib.sha256(
        (_C_SOURCE + "|O3-native-v1").encode()).hexdigest()[:16]
    directory = native_dir()
    so_path = directory / f"spice_kernel_{tag}.so"
    if so_path.exists():
        return so_path

    compiler = _find_compiler()
    if compiler is None:
        logger.warning(
            "no C compiler found; the spice solver runs on the pure-NumPy "
            "backend (correct, but slower)")
        return None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        src_path = directory / f"spice_kernel_{tag}.c"
        src_path.write_text(_C_SOURCE)
        with tempfile.NamedTemporaryFile(
                dir=directory, suffix=".so", delete=False) as tmp:
            tmp_path = Path(tmp.name)
        # -ffp-contract=off: no fused multiply-adds, so the controller
        # arithmetic in the whole-timestep loop is bit-identical to the
        # NumPy orchestration it transliterates (-O3/-march=native keep
        # IEEE evaluation order; only contraction would diverge).
        result = subprocess.run(
            [compiler, "-O3", "-march=native", "-ffp-contract=off",
             "-shared", "-fPIC",
             "-o", str(tmp_path), str(src_path), "-lm"],
            capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            # Cross-compilers and exotic hosts may lack -march=native;
            # retry portable before giving up.
            result = subprocess.run(
                [compiler, "-O3", "-ffp-contract=off", "-shared", "-fPIC",
                 "-o", str(tmp_path), str(src_path), "-lm"],
                capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            logger.warning(
                "spice kernel compile failed (%s); falling back to the "
                "pure-NumPy backend:\n%s", compiler, result.stderr.strip())
            tmp_path.unlink(missing_ok=True)
            return None
        os.replace(tmp_path, so_path)              # atomic publish
        return so_path
    except OSError as exc:
        logger.warning(
            "spice kernel build unavailable (%s); falling back to the "
            "pure-NumPy backend", exc)
        return None


def _bind(so_path: Path) -> _Kernel:
    lib = ctypes.CDLL(str(so_path))
    L, D = ctypes.c_long, ctypes.c_double
    # All pointer parameters are declared void* and fed raw integer
    # addresses (``ndarray.ctypes.data`` / precomputed ints): the hooks
    # run ~1e4 times per characterisation and typed ``data_as`` casts
    # were their single largest cost.  The caller keeps every array
    # alive across the call and guarantees dtype/contiguity.
    P = ctypes.c_void_p

    newton = lib.repro_ensemble_newton
    newton.restype = L
    newton.argtypes = [
        L, L, L,                    # A, S, n_nodes
        P,                          # mem
        L, P, P, P, P,              # compose_g, G_lin, G_static, C_unit, inv_dt
        P, L, P,                    # b, add_storage, x_prev
        P, P, P, P, P, P,           # dev_off, d/g/s, pol, par
        D, D, D,                    # fet_gmin, abstol_v, abstol_i
        P, P, D,                    # max_step_v, max_iter, gmin
        L, D, L, P,                 # bypass_on, eta, n_slots, slots
        P, P, P, P,                 # cache_valid, cache_x, cache_jnl, cache_fnl
        P, P, P,                    # x, conv, stats
    ]

    timestep = lib.repro_ensemble_timestep
    timestep.restype = L
    timestep.argtypes = [
        L, L, L,                    # B, S, n_nodes
        P, P, P,                    # G_static, C_unit, b_const
        L, P, P, P, P, P,           # n_ramps, row, v0, dv, t0, inv_dur
        P, P, P, P, P, P,           # dev_off, d/g/s, pol, par
        D, D, D,                    # fet_gmin, abstol_v, abstol_i
        D, L, D, L,                 # max_step_v, max_iter, damped pair
        L, D, L, P,                 # bypass_on, eta, n_slots, slots
        P, P, P, P,                 # cache_valid, cache_x, cache_jnl, cache_fnl
        P, P, P, P, P, P, P,        # x, t, dt, x_last, dt_last, has_hist, steps
        P, P, P, P, P, P,           # t_stop, dt_min, dt_nom, dt_cap, lte, growth
        L, P, P,                    # n_probes, probe_slot, probe_level
        L, P, P, P,                 # cross_cap, cross_t, cross_rise, cross_n
        P, P,                       # status, stats
    ]
    return _Kernel(newton, timestep)


def load_kernel() -> _Kernel | None:
    """The bound C kernel, or None when disabled/unavailable (cached)."""
    if _STATE[0] != "unset":
        return _STATE[0]
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        _STATE[0] = None
        return None
    so_path = _compile()
    if so_path is None:
        _STATE[0] = None
        return None
    try:
        _STATE[0] = _bind(so_path)
    except OSError as exc:                         # stale/foreign object
        logger.warning(
            "spice kernel load failed (%s); falling back to the pure-NumPy "
            "backend", exc)
        _STATE[0] = None
    return _STATE[0]


def reset(state: str = "unset") -> None:
    """Forget the cached load state (tests toggle REPRO_NATIVE around this)."""
    _STATE[0] = state


class _NativePrep:
    """Per-EnsembleSystem arrays the kernel call needs, computed once.

    Besides the member-contiguous device tables this caches the raw data
    addresses of every call-invariant array (the tables themselves plus
    the system's ``G_static``/``C_unit``), so the per-call hook only has
    to marshal the handful of arrays that change between calls.  The
    arrays are kept referenced here — addresses alone would not keep
    them alive.
    """

    __slots__ = ("ok", "dev_off", "d_loc", "g_loc", "s_loc", "pol", "par",
                 "slots", "static_args")

    def __init__(self, es) -> None:
        # Any non-stackable nonlinear element means the Python assembly
        # must run; decline and let the reference path handle it.
        self.ok = all(len(fb) == 0 for fb in es._fallback)
        if not self.ok:
            return
        batch = es.fet_batch
        member_id = batch.member_id
        self.dev_off = np.searchsorted(
            member_id, np.arange(es.B + 1)).astype(np.int64)
        self.d_loc = np.ascontiguousarray(batch.d_loc, dtype=np.int64)
        self.g_loc = np.ascontiguousarray(batch.g_loc, dtype=np.int64)
        self.s_loc = np.ascontiguousarray(batch.s_loc, dtype=np.int64)
        self.pol = np.ascontiguousarray(batch.pol, dtype=np.float64)
        self.par = np.ascontiguousarray(np.stack(
            [getattr(batch.params, f) for f in StackedTftParams._FIELDS],
            axis=1), dtype=np.float64)
        locs = np.concatenate([self.d_loc, self.g_loc, self.s_loc])
        self.slots = np.unique(locs[locs < es.size]).astype(np.int64)
        # (S, n_nodes, G_static*, C_unit*, dev_off*, d*, g*, s*, pol*,
        #  par*, n_slots, slots*) — everything below is immutable for
        # the lifetime of the EnsembleSystem.
        self.static_args = (
            es.size, es.n_nodes,
            es.G_static.ctypes.data, es.C_unit.ctypes.data,
            self.dev_off.ctypes.data, self.d_loc.ctypes.data,
            self.g_loc.ctypes.data, self.s_loc.ctypes.data,
            self.pol.ctypes.data, self.par.ctypes.data,
            len(self.slots), self.slots.ctypes.data,
        )


def _prep(es) -> _NativePrep:
    prep = getattr(es, "_native_prep", None)
    if prep is None:
        prep = _NativePrep(es)
        es._native_prep = prep
    return prep


class _TimestepPrep:
    """Per-EnsembleSystem rhs tables for the whole-timestep kernel.

    The kernel evaluates the right-hand side itself, so the ensemble's
    ramp descriptions are packed once into ``(R,)`` rows + ``(R, B)``
    parameter planes; any generic time-dependent element forces the
    Python ``rhs_batch`` loop and declines the whole-timestep path.
    """

    __slots__ = ("ok", "n_ramps", "rows", "v0", "dv", "t0", "inv_dur")

    def __init__(self, es) -> None:
        self.ok = not es._any_generic_rhs
        if not self.ok:
            return
        ramps = es._ramps
        self.n_ramps = len(ramps)
        self.rows = np.array([r[0] for r in ramps], dtype=np.int64)

        def plane(i: int) -> np.ndarray:
            if not ramps:
                return np.zeros((0, es.B))
            return np.ascontiguousarray(
                np.stack([r[i] for r in ramps]), dtype=np.float64)

        self.v0 = plane(1)
        self.dv = plane(2)
        self.t0 = plane(3)
        self.inv_dur = plane(4)


def _ts_prep(es) -> _TimestepPrep:
    prep = getattr(es, "_native_ts_prep", None)
    if prep is None:
        prep = _TimestepPrep(es)
        es._native_ts_prep = prep
    return prep


class NativeBackend(NumpyBackend):
    """NumPy reference solves plus the compiled ensemble kernels."""

    name = "native"

    #: Integrate whole ensemble sweeps in one C call.  Read at call time;
    #: tests and validation patch it to ``False`` to reach the
    #: per-iteration Newton kernel under the Python sweep loop.  A
    #: patched value reaches only fork-started workers.
    whole_timestep = True

    def available(self) -> bool:
        return load_kernel() is not None

    def ensemble_newton(self, request: EnsembleNewtonRequest
                        ) -> tuple[np.ndarray, np.ndarray, int] | None:
        kernel = load_kernel()
        if kernel is None:
            return None
        es = request.es
        prep = _prep(es)
        if not prep.ok:
            return None

        # Pointer arguments travel as raw addresses (void* argtypes, see
        # _bind); every array passed here is a C-contiguous float64 /
        # int64 / uint8 ndarray kept alive by the request or prep.
        mem = request.mem_idx
        if mem.dtype != np.int64 or not mem.flags.c_contiguous:
            mem = np.ascontiguousarray(mem, dtype=np.int64)
        max_iter = request.max_iterations
        if max_iter.dtype != np.int64 or not max_iter.flags.c_contiguous:
            max_iter = np.ascontiguousarray(max_iter, dtype=np.int64)
        A = len(mem)
        x = request.x
        G_lin = request.G_lin
        options = request.options
        conv = np.zeros(A, dtype=np.uint8)
        stats = np.zeros(3, dtype=np.int64)
        bypass = request.bypass
        (S, n_nodes, g_static_a, c_unit_a, dev_off_a, d_a, g_a, s_a,
         pol_a, par_a, n_slots, slots_a) = prep.static_args
        if bypass is not None:
            bypass_args = (1, bypass.eta, n_slots, slots_a, *bypass.addrs)
        else:
            bypass_args = _NO_BYPASS

        iters = kernel.newton(
            A, S, n_nodes,
            mem.ctypes.data,
            1 if G_lin is None else 0,
            None if G_lin is None else G_lin.ctypes.data,
            g_static_a, c_unit_a,
            None if request.inv_dt is None else request.inv_dt.ctypes.data,
            request.b.ctypes.data, 1 if request.add_storage else 0,
            None if request.x_prev is None else request.x_prev.ctypes.data,
            dev_off_a, d_a, g_a, s_a, pol_a, par_a,
            FET_GMIN, options.abstol_v, options.abstol_i,
            request.max_step_v.ctypes.data,
            max_iter.ctypes.data,
            request.gmin,
            *bypass_args,
            x.ctypes.data, conv.ctypes.data, stats.ctypes.data)
        if iters < 0:                              # scratch allocation failed
            return None
        if telemetry.ENABLED:
            telemetry.count("backend.native.kernel_calls")
            telemetry.count("backend.native.lanes_solved", A)
            if stats[0]:
                telemetry.count("backend.native.bypassed_lane_steps",
                                int(stats[0]))
            # Parity counter with the NumPy reference loop: total
            # per-lane Newton iterations (equal where the schedule is
            # bit-identical; the counter-parity test pins this down).
            telemetry.count("ensemble.newton_lane_iterations",
                            int(stats[1]))
            if stats[2]:
                telemetry.count("backend.native.singular_lanes",
                                int(stats[2]))
        return x, conv.view(np.bool_), int(iters)

    def ensemble_timestep(self, et) -> dict | None:
        """Integrate every lane of *et* to completion in one C call.

        Declines (``None``) when the kernel is unavailable, disabled via
        :attr:`whole_timestep`, or the system needs Python assembly
        (fallback nonlinear elements, generic time-dependent sources) —
        the caller then runs the reference sweep loop, which also mops
        up any lane the kernel flagged as bailed.
        """
        if not self.whole_timestep:
            return None
        kernel = load_kernel()
        if kernel is None:
            return None
        es = et.es
        prep = _prep(es)
        if not prep.ok:
            return None
        ts = _ts_prep(es)
        if not ts.ok:
            return None

        B = es.B
        (S, n_nodes, g_static_a, c_unit_a, dev_off_a, d_a, g_a, s_a,
         pol_a, par_a, n_slots, slots_a) = prep.static_args
        bypass = et._bypass
        if bypass is not None:
            bypass_args = (1, bypass.eta, n_slots, slots_a, *bypass.addrs)
        else:
            bypass_args = _NO_BYPASS
        newton = et.newton
        n_probes = len(et.probes)
        cross_t = np.zeros((n_probes, B, CROSS_CAP))
        cross_rise = np.zeros((n_probes, B, CROSS_CAP), dtype=np.uint8)
        cross_n = np.zeros((n_probes, B), dtype=np.int64)
        status = np.zeros(B, dtype=np.uint8)
        stats = np.zeros(7, dtype=np.int64)

        ret = kernel.timestep(
            B, S, n_nodes,
            g_static_a, c_unit_a, es._b_const.ctypes.data,
            ts.n_ramps, ts.rows.ctypes.data,
            ts.v0.ctypes.data, ts.dv.ctypes.data,
            ts.t0.ctypes.data, ts.inv_dur.ctypes.data,
            dev_off_a, d_a, g_a, s_a, pol_a, par_a,
            FET_GMIN, newton.abstol_v, newton.abstol_i,
            newton.max_step_v, newton.max_iterations,
            et._damped_step_v, et._damped_iter,
            *bypass_args,
            et.x.ctypes.data, et.t.ctypes.data, et.dt.ctypes.data,
            et.x_last.ctypes.data, et.dt_last.ctypes.data,
            et.has_hist.view(np.uint8).ctypes.data, et.steps.ctypes.data,
            et.t_stop.ctypes.data, et.dt_min.ctypes.data,
            et.dt_nom.ctypes.data, et.dt_cap.ctypes.data,
            et.lte_tol.ctypes.data, et.growth.ctypes.data,
            n_probes, et._probe_slot_arr.ctypes.data,
            et._levels_mat.ctypes.data,
            CROSS_CAP, cross_t.ctypes.data, cross_rise.ctypes.data,
            cross_n.ctypes.data,
            status.ctypes.data, stats.ctypes.data)
        if ret < 0:                   # scratch allocation failed, no state
            return None               # was touched: full Python fallback

        # Transfer the kernel's crossing records into the per-member
        # event lists (oldest first, same tuples the Python recorder
        # appends).
        for p, m in zip(*np.nonzero(cross_n)):
            times = cross_t[p, m]
            rising = cross_rise[p, m]
            et.crossings[p][m].extend(
                (float(times[k]), bool(rising[k]))
                for k in range(int(cross_n[p, m])))

        if telemetry.ENABLED:
            telemetry.count("backend.native.timestep_calls")
            telemetry.count("backend.native.timestep_lanes", B)
            telemetry.count("backend.native.timestep_steps", int(stats[0]))
            if stats[3]:
                telemetry.count("backend.native.bypassed_lane_steps",
                                int(stats[3]))
            if stats[4]:
                telemetry.count("backend.native.timestep_bailouts",
                                int(stats[4]))
            # Parity counters with the reference sweep loop (see the
            # counter-parity test): lane Newton iterations and recorded
            # probe crossings.
            telemetry.count("ensemble.newton_lane_iterations",
                            int(stats[5]))
            if stats[6]:
                telemetry.count("ensemble.probe_crossings", int(stats[6]))
        return {"accepted": int(stats[0]), "halvings": int(stats[1]),
                "lte_rejections": int(stats[2]), "bailed": int(stats[4])}
