"""Compiled C backend: ensemble Newton — and whole transient timesteps.

A characterisation run is dominated not by LAPACK flops but by the
Python orchestration around them (stacked assembly, device scatters,
solve dispatch, active-set masks — microseconds each, tens of thousands
of times).  This backend moves that loop into C, built by
:mod:`repro.runtime.native_build` (system compiler, shared object cached
by source, flags and host CPU, bound through :mod:`ctypes`) and
degrading silently to the pure-NumPy reference when any of that fails.
Two entry points share one set of per-lane C helpers (DESIGN §7f, §7g):

- ``repro_ensemble_newton`` — one damped Newton solve over a masked
  lane set (DC operating points, and every step of the per-iteration
  path);
- ``repro_ensemble_timestep`` — the **entire transient timestep loop**
  per lane: predictor, BE companion RHS (constant sources, ramps,
  storage history), Newton with stamp bypass, the LTE step controller
  and probe crossings.  Every lane is integrated independently to
  completion, so its step schedule is *bit-exact* whatever the batch
  composition (the ``ENSEMBLE_BATCH`` suite) and whichever thread
  integrates it: one call spreads its lanes over up to
  :meth:`NativeBackend.thread_budget` threads, created and joined
  inside the call.  A lane the kernel cannot finish (dt underflow,
  crossing-buffer overflow) is left at its pre-step state and flagged;
  the Python sweep loop replays it with identical arithmetic and raises
  the context-rich ``ConvergenceError`` itself when the failure is real.

The C is a transliteration of the reference semantics: the damped
Newton of :meth:`repro.spice.ensemble.EnsembleSystem.newton_batch`
(freeze-on-converge, per-lane budgets, gmin, a singular lane
deactivated, never fatal); the
:class:`~repro.devices.tft_level61.StackedTftParams` device equations
branch for branch; ``G_static[m] + C_unit[m]/dt`` composed per lane
inside the kernel; the stamp-bypass protocol of
:mod:`repro.spice.transient` (a frozen lane factors its Jacobian once
per solve); and the controller of
:meth:`repro.spice.ensemble.EnsembleTransient.run` operation for
operation, compiled with ``-ffp-contract=off`` so the whole-timestep and
per-iteration native paths give identical step schedules.  Results
agree with the NumPy reference to rounding (libm vs NumPy
transcendentals differ in the last ulp).  Patching
:attr:`NativeBackend.whole_timestep` to ``False`` disables only the
whole-timestep entry — the configuration the backend-agreement
validation check compares against.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.devices.tft_level61 import StackedTftParams
from repro.runtime import native_build, telemetry
from repro.runtime.executor import thread_budget
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
#include <pthread.h>
#include <stdatomic.h>
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

/* Partial-pivot LU of the S x S matrix J, in place; perm[k] is the row
 * swapped into row k.  Later steps swap only from their own column on,
 * so column k keeps exactly the multipliers step k used.  Returns 0, or
 * 1 on an exactly-zero pivot (the LAPACK dgesv singularity condition). */
static int lu_factor(double *J, long S, long *perm)
{
    for (long k = 0; k < S; k++) {
        long p = k;
        double best = fabs(J[k * S + k]);
        for (long i = k + 1; i < S; i++) {
            double v = fabs(J[i * S + k]);
            if (v > best) { best = v; p = i; }
        }
        if (J[p * S + k] == 0.0) return 1;
        perm[k] = p;
        if (p != k) {
            for (long j = k; j < S; j++) {
                double t = J[k * S + j];
                J[k * S + j] = J[p * S + j];
                J[p * S + j] = t;
            }
        }
        double piv = J[k * S + k];
        /* A zero multiplier's row update is x - 0*y == x, bitwise: no
         * entry is ever -0 (each is a sum from +0).  Skip it unless the
         * pivot row holds an inf or NaN, where 0*y would be NaN. */
        int nonfinite = 0;
        for (long j = k + 1; j < S; j++)
            nonfinite |= !isfinite(J[k * S + j]);
        for (long i = k + 1; i < S; i++) {
            double f = J[i * S + k] / piv;
            J[i * S + k] = f;
            if (f == 0.0 && !nonfinite) continue;
            for (long j = k + 1; j < S; j++)
                J[i * S + j] -= f * J[k * S + j];
        }
    }
    return 0;
}

/* Solve in place with lu_factor's factors: the swaps and updates on rhs
 * in the order an elimination carrying rhs along makes them (bitwise). */
static void lu_apply(const double *LU, long S, const long *perm, double *rhs)
{
    for (long k = 0; k < S; k++) {
        long p = perm[k];
        if (p != k) { double t = rhs[k]; rhs[k] = rhs[p]; rhs[p] = t; }
        for (long i = k + 1; i < S; i++)
            rhs[i] -= LU[i * S + k] * rhs[k];
    }
    for (long k = S - 1; k >= 0; k--) {
        double t = rhs[k];
        for (long j = k + 1; j < S; j++)
            t -= LU[k * S + j] * rhs[j];
        rhs[k] = t / LU[k * S + k];
    }
}

/* Everything a single-lane Newton solve needs that does not change
 * between steps: system shape, device tables, tolerances, the bypass
 * cache, the scratch buffers (owned by the entry points) and the
 * factorisation count the entry points report. */
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
    long *perm;
    int64_t n_factor;
} lane_ctx;

/* The entry points' own per-lane scratch. */
typedef struct { double *gbase, *beff, *xpred, *xn; } lane_bufs;

/* One block for c's scratch pointers and b; NULL when malloc fails. */
static double *lane_alloc(lane_ctx *c, lane_bufs *b)
{
    long S = c->S, ext = S + 1;
    double *block = malloc((size_t)(2 * S * S + ext * ext + 2 * ext + 6 * S)
                           * sizeof(double) + (size_t)S * sizeof(long));
    double *p = block;
    if (!block) return 0;
    c->jmat = p;   p += S * S;
    b->gbase = p;  p += S * S;
    c->jnl = p;    p += ext * ext;
    c->fnl = p;    p += ext;
    c->xext = p;   p += ext;
    c->fvec = p;   p += S;
    c->rhs = p;    p += S;
    b->beff = p;   p += S;
    b->xpred = p;  p += S;
    b->xn = p;     p += S;
    c->perm = (long *)p;
    return block;
}

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
 * A frozen lane's Jacobian is iteration-invariant: it is assembled and
 * factored on the first iteration only, later ones rebuild the residual
 * and back-substitute.  xl is updated in place (partial iterate on
 * non-convergence, like the reference).  Returns the iteration count;
 * *ok_out is 1 on convergence, 0 on budget exhaustion or a singular
 * Jacobian. */
static long lane_newton(lane_ctx *c, long m, const double *G,
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
        long refactor = !frozen || iter == 0;
        /* Nonlinear stamps: cached (frozen) or fresh. */
        if (frozen) {
            const double *cj = c->cache_jnl + (size_t)m * S * S;
            const double *cf = c->cache_fnl + (size_t)m * S;
            if (refactor)
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
                if (refactor) jmat[i * S + i] += gmin;
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
        if (refactor) {
            c->n_factor++;
            if (lu_factor(jmat, S, c->perm)) {
                ok = 0;      /* singular lane: deactivate, not fatal */
                break;
            }
        }
        lu_apply(jmat, S, c->perm, rhs);
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
                                 * iterations, [2] singular lanes,
                                 * [3] LU factorisations, out */
{
    long iters_max = 0;
    long frozen_steps = 0;
    int64_t total_iters = 0, singular_n = 0;
    lane_ctx c = { S, n_nodes, dev_off, d_loc, g_loc, s_loc, pol, par,
                   fet_gmin, abstol_v, abstol_i, bypass_on,
                   n_slots, slots, eta,
                   cache_valid, cache_x, cache_jnl, cache_fnl };
    lane_bufs lb;
    double *block = lane_alloc(&c, &lb);
    if (!block) {
        iters_max = -1;
        goto done;
    }

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
                lb.gbase[i] = gs[i] + cu[i] * idt;
            G = lb.gbase;
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
                lb.beff[i] = bl[i] + acc * idt;
            }
        } else {
            memcpy(lb.beff, bl, (size_t)S * sizeof(double));
        }

        /* Stamp bypass: reuse cached nonlinear stamps while no device
         * terminal has drifted beyond eta from the cached state. */
        long frozen = xp ? lane_frozen(&c, m, xp) : 0;
        if (frozen) frozen_steps++;

        long ok;
        long iter = lane_newton(&c, m, G, lb.beff, xl, frozen,
                                max_iter[lane], max_step_v[lane], gmin, &ok);
        conv[lane] = (uint8_t)ok;
        total_iters += iter;
        /* A lane that stopped short of its budget unconverged hit the
         * exact-zero-pivot break: that is the singular count. */
        if (!ok && iter < max_iter[lane]) singular_n++;
        if (iter > iters_max) iters_max = iter;
    }

done:
    free(block);
    if (stats) {
        stats[0] = frozen_steps;
        stats[1] = total_iters;
        stats[2] = singular_n;
        stats[3] = c.n_factor;
    }
    return iters_max;
}

/* Call arguments of repro_ensemble_timestep that every thread reads;
 * the arrays are written only at member-indexed slots. */
typedef struct {
    long B, S, n_ramps, max_iter, damped_iter, n_probes, cross_cap;
    double max_step_v, damped_step_v;
    const int64_t *ramp_row, *probe_slot;
    const double *G_static, *C_unit, *b_const, *ramp_v0, *ramp_dv, *ramp_t0,
        *ramp_inv_dur, *t_stop, *dt_min, *dt_nom, *dt_cap, *lte_tol, *growth,
        *probe_level;
    double *x, *t, *dt, *x_last, *dt_last, *cross_t;
    uint8_t *has_hist, *cross_rise, *status;
    int64_t *steps, *cross_n;
    atomic_long next;           /* next unclaimed lane */
} ts_call;

/* One thread: its scratch and its counters, merged after the join. */
typedef struct {
    ts_call *call;
    lane_ctx c;
    lane_bufs b;
    double *block;
    int64_t stats[8];
    pthread_t tid;
} ts_worker;

/* The whole transient timestep loop of lane m, to completion — the
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
 * The scalar lane state lives in locals and is written back once, when
 * the lane ends: neighbouring lanes share cache lines, and per-step
 * writes from different threads would contend for them.  st gets the
 * counters of repro_ensemble_timestep's stats[0..6]. */
static void ts_lane(const ts_call *a, lane_ctx *c, const lane_bufs *b,
                    long m, int64_t *st)
{
    double *gbase = b->gbase, *beff = b->beff, *xpred = b->xpred, *xn = b->xn;
    long B = a->B, S = a->S;
    double *xl  = a->x + (size_t)m * S;
    double *xls = a->x_last + (size_t)m * S;
    const double *gs = a->G_static + (size_t)m * S * S;
    const double *cu = a->C_unit + (size_t)m * S * S;
    const double *bc = a->b_const + (size_t)m * S;
    double lane_t = a->t[m], lane_dt = a->dt[m], last = a->dt_last[m];
    long hist = a->has_hist[m];
    int64_t n_steps = a->steps[m];
    double stop = a->t_stop[m], dmin = a->dt_min[m], dnom = a->dt_nom[m];
    double dcap = a->dt_cap[m], tol = a->lte_tol[m], grow = a->growth[m];
    a->status[m] = 0;

    while (stop - lane_t > dmin) {
        double rem = stop - lane_t;
        double dt_step = fmin(lane_dt, rem);
        long damped = dt_step <= 8.0 * dmin;
        double step_cap = damped ? a->damped_step_v : a->max_step_v;
        long budget = damped ? a->damped_iter : a->max_iter;
        double idt = 1.0 / dt_step;
        double t_next = lane_t + dt_step;

        /* Linear base and effective rhs for this step: constant
         * sources + vectorised ramps + the storage history term —
         * the same arithmetic order as rhs_batch + the kernel's
         * storage add, so values are bitwise the reference. */
        for (long i = 0; i < S * S; i++)
            gbase[i] = gs[i] + cu[i] * idt;
        memcpy(beff, bc, (size_t)S * sizeof(double));
        for (long r = 0; r < a->n_ramps; r++) {
            double frac = (t_next - a->ramp_t0[r * B + m])
                * a->ramp_inv_dur[r * B + m];
            if (frac < 0.0) frac = 0.0;
            if (frac > 1.0) frac = 1.0;
            beff[a->ramp_row[r]] += a->ramp_v0[r * B + m]
                + a->ramp_dv[r * B + m] * frac;
        }
        for (long i = 0; i < S; i++) {
            double acc = 0.0;
            for (long j = 0; j < S; j++)
                acc += cu[i * S + j] * xl[j];
            beff[i] = beff[i] + acc * idt;
        }

        /* Warm-start prediction from the integration history. */
        if (hist) {
            double ratio = dt_step / last;
            for (long i = 0; i < S; i++)
                xpred[i] = xl[i] + (xl[i] - xls[i]) * ratio;
        } else {
            memcpy(xpred, xl, (size_t)S * sizeof(double));
        }

        long frozen = lane_frozen(c, m, xl);
        if (frozen) st[3]++;

        /* Newton from the prediction; on a miss, retry once from
         * the accepted state (the scalar controller's fallback).
         * pred_err is only defined when the *predicted* start
         * converged — a retried lane holds its step (NaN). */
        memcpy(xn, xpred, (size_t)S * sizeof(double));
        long ok;
        st[5] += lane_newton(c, m, gbase, beff, xn, frozen,
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
            st[5] += lane_newton(c, m, gbase, beff, xn, frozen,
                                 budget, step_cap, 0.0, &ok);
        }

        if (!ok) {
            st[1]++;
            double new_dt = dt_step / 2.0;
            if (new_dt < dmin) {
                /* Leave the lane at its pre-step state with the
                 * failing dt: the Python sweep loop replays the
                 * identical step and raises the context-rich
                 * ConvergenceError itself. */
                a->status[m] = 1;
                st[4]++;
                break;
            }
            lane_dt = new_dt;
            continue;
        }

        /* LTE rejection of oversized steps whose estimate blew up
         * (NaN pred_err compares false: never rejected). */
        if (dt_step > dnom && pred_err > 4.0 * tol) {
            st[2]++;
            lane_dt = fmax(dt_step / 2.0, dnom);
            continue;
        }

        /* Probe crossings between the accepted states.  Capacity is
         * checked for the whole step before anything is recorded so
         * a bailed lane never holds a partial step. */
        long overflow = 0;
        for (long p = 0; p < a->n_probes; p++) {
            long sl = a->probe_slot[p];
            double lv = a->probe_level[p * B + m];
            double v0 = xl[sl] - lv, v1 = xn[sl] - lv;
            int s0 = (v0 > 0.0) - (v0 < 0.0);
            int s1 = (v1 > 0.0) - (v1 < 0.0);
            if (s0 != s1 && a->cross_n[p * B + m] >= a->cross_cap)
                overflow = 1;
        }
        if (overflow) {
            a->status[m] = 1;
            st[4]++;
            break;
        }
        for (long p = 0; p < a->n_probes; p++) {
            long sl = a->probe_slot[p];
            double lv = a->probe_level[p * B + m];
            double v0 = xl[sl] - lv, v1 = xn[sl] - lv;
            int s0 = (v0 > 0.0) - (v0 < 0.0);
            int s1 = (v1 > 0.0) - (v1 < 0.0);
            if (s0 != s1) {
                long k = a->cross_n[p * B + m]++;
                double frac = -v0 / (v1 - v0);
                size_t at = ((size_t)p * B + m) * a->cross_cap + k;
                a->cross_t[at] = lane_t + frac * dt_step;
                a->cross_rise[at] = v1 > v0;
                st[6]++;
            }
        }

        /* Accept: shift history, advance, grow/hold the step. */
        memcpy(xls, xl, (size_t)S * sizeof(double));
        last = dt_step;
        hist = 1;
        memcpy(xl, xn, (size_t)S * sizeof(double));
        lane_t += dt_step;
        n_steps++;
        st[0]++;
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
    a->t[m] = lane_t;
    a->dt[m] = lane_dt;
    a->dt_last[m] = last;
    a->has_hist[m] = (uint8_t)hist;
    a->steps[m] = n_steps;
}

/* Claim lanes from the shared counter until none is left.  The lane_ctx
 * copy on this thread's stack keeps n_factor off shared cache lines. */
static void *ts_run(void *arg)
{
    ts_worker *w = arg;
    lane_ctx c = w->c;
    int64_t st[8] = {0};
    long m;
    while ((m = atomic_fetch_add_explicit(&w->call->next, 1,
                                          memory_order_relaxed)) < w->call->B)
        ts_lane(w->call, &c, &w->b, m, st);
    st[7] = c.n_factor;
    memcpy(w->stats, st, sizeof st);
    return 0;
}

/* Integrate every lane to completion (ts_lane), the lanes spread over
 * up to n_threads threads: the caller's and n_threads - 1 helpers
 * created here and joined before returning, each claiming the next
 * unclaimed lane.  A lane's arithmetic never depends on its thread and
 * every write is member-indexed, so results are bit-identical at any
 * thread count.  status[m]: 0 done, 1 bailed (dt underflow or
 * crossing-buffer overflow; state is at the last accepted step).
 * stats: [0] accepted steps, [1] halvings, [2] LTE rejections,
 * [3] frozen (bypassed) lane-steps, [4] bailed lanes, [5] total lane
 * Newton iterations (prediction + retry attempts, same counting as the
 * per-lane reference), [6] probe crossings recorded, [7] LU
 * factorisations, [8] threads that ran.  Returns 0, or -1 when scratch
 * allocation fails (no state touched). */
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
    long n_threads,
    uint8_t *status,            /* B, out */
    int64_t *stats)             /* [9], out */
{
    ts_call a = {
        B, S, n_ramps, max_iter, damped_iter, n_probes, cross_cap,
        max_step_v, damped_step_v, ramp_row, probe_slot,
        G_static, C_unit, b_const, ramp_v0, ramp_dv, ramp_t0, ramp_inv_dur,
        t_stop, dt_min, dt_nom, dt_cap, lte_tol, growth, probe_level,
        x, t, dt, x_last, dt_last, cross_t, has_hist, cross_rise, status,
        steps, cross_n };
    atomic_init(&a.next, 0);
    lane_ctx proto = { S, n_nodes, dev_off, d_loc, g_loc, s_loc, pol, par,
                       fet_gmin, abstol_v, abstol_i, bypass_on,
                       n_slots, slots, eta,
                       cache_valid, cache_x, cache_jnl, cache_fnl };
    long n = n_threads < B ? n_threads : B;
    if (n < 1) n = 1;

    /* Every thread's scratch exists before any lane starts. */
    ts_worker *w = calloc((size_t)n, sizeof *w);
    long ready = 0;
    while (w && ready < n) {
        w[ready].call = &a;
        w[ready].c = proto;
        w[ready].block = lane_alloc(&w[ready].c, &w[ready].b);
        if (!w[ready].block) break;
        ready++;
    }
    if (ready < n) {
        for (long k = 0; k < ready; k++) free(w[k].block);
        free(w);
        return -1;
    }

    /* A helper that fails to start just leaves more lanes for the
     * others. */
    long started = 1;
    while (started < n
           && pthread_create(&w[started].tid, 0, ts_run, &w[started]) == 0)
        started++;
    ts_run(&w[0]);
    for (long k = 1; k < started; k++)
        pthread_join(w[k].tid, 0);

    for (long i = 0; i < 8; i++) {
        stats[i] = 0;
        for (long k = 0; k < started; k++)
            stats[i] += w[k].stats[i];
    }
    stats[8] = started;
    for (long k = 0; k < n; k++) free(w[k].block);
    free(w);
    return 0;
}
"""

#: (bypass_on, eta, n_slots, slots, valid, x_stamp, J_nl, F_nl) when the
#: stamp bypass is off — None maps to NULL under the void* argtypes.
_NO_BYPASS = (0, 0.0, 0, None, None, None, None, None)


class _Kernel(NamedTuple):
    """The bound C entry points (one shared object, two functions)."""

    newton: Any
    timestep: Any


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
        L, P, P,                    # n_threads, status, stats
    ]
    return _Kernel(newton, timestep)


# -ffp-contract=off: no fused multiply-adds, so the controller arithmetic
# in the whole-timestep loop is bit-identical to the NumPy orchestration
# it transliterates (-O3/-march=native keep IEEE evaluation order; only
# contraction would diverge).  The portable retry serves cross-compilers
# and hosts without -march=native.
_FLAGS = ["-O3", "-ffp-contract=off", "-pthread", "-shared", "-fPIC"]
_KERNEL = native_build.Kernel(
    "spice_kernel", _C_SOURCE, [["-march=native", *_FLAGS], _FLAGS], _bind,
    what="spice kernel", fallback="falling back to the pure-NumPy backend",
    logger=logger, per_cpu=True)

#: The bound C kernel, or None when disabled/unavailable (cached).
load_kernel = _KERNEL.load
#: Forget the cached load state (tests toggle REPRO_NATIVE around this).
reset = _KERNEL.reset


class _NativePrep:
    """Per-EnsembleSystem arrays the kernel call needs, computed once.

    Besides the member-contiguous device tables this caches the raw data
    addresses of every call-invariant array (the tables themselves plus
    the system's ``G_static``/``C_unit``), so the per-call hook only has
    to marshal the handful of arrays that change between calls.  The
    arrays are kept referenced here — addresses alone would not keep
    them alive.
    """

    __slots__ = ("dev_off", "d_loc", "g_loc", "s_loc", "pol", "par",
                 "slots", "static_args", "ramps", "ramp_args")

    def __init__(self, es) -> None:
        batch = es.fet_batch
        member_id = batch.member_id
        self.dev_off = np.searchsorted(
            member_id, np.arange(es.B + 1)).astype(np.int64)
        self.d_loc = np.ascontiguousarray(batch.d_loc, dtype=np.int64)
        self.g_loc = np.ascontiguousarray(batch.g_loc, dtype=np.int64)
        self.s_loc = np.ascontiguousarray(batch.s_loc, dtype=np.int64)
        self.pol = np.ascontiguousarray(batch.pol, dtype=np.float64)
        # (B*n, fields) parameter table; a tiled batch packs one member.
        one = batch.member_params
        par = np.stack([getattr(batch.params if one is None else one, f)
                        for f in StackedTftParams._FIELDS], axis=1)
        if one is not None:
            par = np.tile(par, (es.B, 1))
        self.par = np.ascontiguousarray(par, dtype=np.float64)
        self.slots = es.nl_slots.astype(np.int64)
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
        # The whole-timestep kernel evaluates the rhs itself, from the
        # ramps packed as (R,) rows + (R, B) parameter planes.
        ramps = es._ramps
        self.ramps = [np.array([r[0] for r in ramps], dtype=np.int64)]
        self.ramps += [np.ascontiguousarray(
            np.stack([r[i] for r in ramps]) if ramps
            else np.zeros((0, es.B)), dtype=np.float64)
            for i in range(1, 5)]
        self.ramp_args = (len(ramps), *(a.ctypes.data for a in self.ramps))


def _prep(es) -> _NativePrep:
    prep = getattr(es, "_native_prep", None)
    if prep is None:
        prep = _NativePrep(es)
        es._native_prep = prep
    return prep


class NativeBackend(NumpyBackend):
    """NumPy reference solves plus the compiled ensemble kernels."""

    name = "native"

    #: Integrate whole ensemble sweeps in one C call.  Read at call time;
    #: tests and validation patch it to ``False`` to reach the
    #: per-iteration Newton kernel under the Python sweep loop.  A
    #: patched value reaches only fork-started workers.
    whole_timestep = True

    #: Threads one whole-timestep call spreads its lanes over, at most
    #: one per lane; ``None`` means :func:`repro.runtime.executor.
    #: thread_budget` (every usable CPU, one inside a pool worker).
    #: Read at call time; tests patch it.  Results are bit-identical at
    #: any count.
    threads: int | None = None

    def thread_budget(self) -> int:
        """Threads the next whole-timestep call may use (before the
        per-call clamp to its lane count)."""
        return self.threads if self.threads is not None else thread_budget()

    def available(self) -> bool:
        return load_kernel() is not None

    def ensemble_newton(self, request: EnsembleNewtonRequest
                        ) -> tuple[np.ndarray, np.ndarray, int] | None:
        kernel = load_kernel()
        if kernel is None:
            return None
        es = request.es
        prep = _prep(es)

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
        stats = np.zeros(4, dtype=np.int64)
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
            telemetry.count("backend.native.lu_factorizations",
                            int(stats[3]))
            if stats[2]:
                telemetry.count("backend.native.singular_lanes",
                                int(stats[2]))
        return x, conv.view(np.bool_), int(iters)

    @telemetry.timed("solver.solve")
    def ensemble_timestep(self, et) -> dict | None:
        """Integrate every lane of *et* to completion in one C call.

        Every ensemble is batchable by construction (UnifiedTft FETs,
        constant or ramp sources; see
        :class:`~repro.spice.ensemble.EnsembleSystem`), so this declines
        (``None``) only when the kernel is unavailable or disabled via
        :attr:`whole_timestep`.  The caller's reference sweep loop then
        runs the whole transient, and it also mops up any lane the
        kernel flagged as bailed.
        """
        if not self.whole_timestep:
            return None
        kernel = load_kernel()
        if kernel is None:
            return None
        es = et.es
        prep = _prep(es)

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
        stats = np.zeros(9, dtype=np.int64)

        ret = kernel.timestep(
            B, S, n_nodes,
            g_static_a, c_unit_a, es._b_const.ctypes.data,
            *prep.ramp_args,
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
            cross_n.ctypes.data, self.thread_budget(),
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
            telemetry.count("backend.native.timestep_threads",
                            int(stats[8]))
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
            telemetry.count("backend.native.lu_factorizations",
                            int(stats[7]))
        return {"accepted": int(stats[0]), "halvings": int(stats[1]),
                "lte_rejections": int(stats[2]), "bailed": int(stats[4])}
