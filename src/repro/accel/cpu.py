"""Runtime-compiled C kernels for the CPU hot paths.

Two consumers share one library:

* The float32 inference fast path (``InferenceEngine(dtype=np.float32)``)
  spends its time in BLAS sgemm calls, which are already optimal, and in
  memory-bound elementwise glue (bias + ReLU, LayerNorm, gather-add,
  segment-sum) where NumPy pays one full pass over the array per ufunc.
  The float32 kernels fuse that glue into single-pass loops.
* The 2-D MPM step (:class:`repro.mpm.MPMSolver`) runs its shape
  evaluation, particle-to-grid scatter, grid update, grid-to-particle
  gather and the elastic and Drucker–Prager stress updates as float64
  kernels, one call per phase and per material instead of about 190
  NumPy calls for the phases plus each material's NumPy update.

Everything is compiled once per machine with the system ``cc`` through
cffi's ABI mode, cached on disk by source hash.

Gating and fallback
-------------------
* ``kernels()`` returns a :class:`CpuKernels` handle, or ``None`` when the
  toolchain is unavailable (no compiler, no cffi, sandboxed tmpdir, ...).
  Call sites must treat ``None`` as "use the NumPy path".
  :func:`toolchain_missing` says whether ``None`` is expected here;
  when it is not, :func:`build_error` holds the compiler's output.
* ``REPRO_NO_CKERNELS=1`` disables compilation entirely — the kill switch
  for debugging or reproducing pure-NumPy numbers.
* ``REPRO_BACKEND=numpy`` (the array-backend selector, see
  :mod:`repro.backend`) implies ``REPRO_NO_CKERNELS``: pinning the NumPy
  reference backend is the *one* knob that disables all acceleration.
  Unlike the compile-time kill switch it is checked on every call, so it
  also masks kernels that were already compiled earlier in the process.
* A float64 kernel must be bitwise-equal to the NumPy path it replaces:
  it repeats NumPy's operations in NumPy's order, its translation unit
  is compiled with ``-ffp-contract=off`` (no fused multiply-add), and a
  frozen NumPy oracle pins it (``tests/test_mpm_transfer.py``). The
  float64 GNS inference path has no kernels and never dispatches here.

Numerics
--------
Three translation units with different flag sets:

* strict IEEE (``relu``/``bias_relu``/``gather2_add_relu``/``segment_sum``):
  plain ``-O3``; ReLU uses ``v > 0 ? v : 0*v`` so NaNs propagate exactly
  like ``np.maximum`` (the ``0*v`` keeps NaN; only the sign of zero can
  differ from NumPy, which compares equal).  The segment sum accumulates
  rows in edge order — the same order as the CSR matmul it replaces.
* reassociation-enabled (``ln``/``bias_ln``): ``-fassociative-math`` and
  friends, required for the compiler to vectorize the float reductions in
  LayerNorm (4x faster than NumPy's multi-pass version).  NaNs still
  propagate (``-ffinite-math-only`` is *not* enabled), but the summation
  order inside a row is unspecified, so results differ from NumPy in the
  last ulp or two.
* float64 MPM (``mpm_shape``/``mpm_p2g``/``mpm_grid``/``mpm_g2p``/
  ``mpm_stress``): ``-ffp-contract=off`` on top of the common flags.
  With ``-march=native`` on a CPU with FMA, GCC otherwise contracts
  ``a*b + c`` into one rounding; NumPy rounds the product and the sum
  separately. Every scatter walks particle–node pairs particle-major and
  adds a node's internal-force terms before any of its gravity terms
  (the order of the NumPy step's ``bincount`` calls), and every sum over
  shape-function offsets starts from +0.0 and adds in offset order
  (``_offset_sum``). The Jaumann rotation's stacked 2×2 products, which
  NumPy sends to BLAS dgemm (FMA or not, by CPU), are exact to repeat
  because the spin's diagonal is zero: each entry is one rounded product
  plus an exact zero, summed from +0.0 as dgemm does.

The float32 kernels require C-contiguous float32 arrays and int64
indices, the MPM kernels C-contiguous float64 arrays; the wrappers
validate this and raise rather than fall back, because a silent copy
would hide the performance bug the caller is trying to avoid.
"""

# repro-lint: fp32-ok

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import tempfile

import numpy as np

__all__ = ["CpuKernels", "available", "build_error", "kernels",
           "toolchain_missing"]

_CDEF = """
void repro_relu32(float* h, long long n);
void repro_bias_relu32(float* h, long long n, long long w, const float* bias);
void repro_gather2_add_relu32(float* h, long long e, long long w,
                              const float* ps, const float* pr,
                              const long long* senders,
                              const long long* receivers, int relu);
void repro_segsum32(const float* msgs, long long w, const long long* indptr,
                    long long n, float* out);
void repro_ln32(float* h, long long n, long long w, const float* gamma,
                const float* beta, float eps);
void repro_bias_ln32(float* h, long long n, long long w, const float* bias,
                     const float* gamma, const float* beta, float eps);
long long repro_mpm_shape64(int quadratic, const double* pos, long long n,
                            double h, long long nx, long long ny,
                            long long* nodes, double* w, double* dw);
long long repro_mpm_p2g64(long long n, long long k, long long nn,
                          const long long* nodes, const double* w,
                          const double* dw, const double* mass,
                          const double* vel, const double* vol,
                          const double* stress, double gx, double gy,
                          double* gmass, double* gmom, double* gforce);
void repro_mpm_grid64(long long nx, long long ny, const double* gmass,
                      const double* gmom, const double* gforce, double dt,
                      int walls, double friction, long long thickness,
                      const unsigned char* obstacle, double* vnew,
                      double* dv);
long long repro_mpm_g2p64(long long n, long long k, long long nn,
                          const long long* nodes, const double* w,
                          const double* dw, const double* vnew,
                          const double* dv, const double* vel,
                          const double* pos, const double* vol,
                          double flip, double dt, const double* bounds,
                          double* vel_out, double* pos_out, double* vol_out,
                          double* strain, double* spin);
void repro_mpm_stress64(long long n, const long long* ids, long long mat,
                        double lam, double two_mu, int plastic, double alpha,
                        double k, double p_cut, const double* strain,
                        const double* spin, double* stress, double* szz);
"""

# Translation unit 1: strict IEEE semantics (no reassociation). The ReLU
# branches multiply by zero instead of loading a zero constant so that a
# NaN input stays NaN, matching np.maximum(h, 0).
_SRC_STRICT = r"""
#include <stdint.h>

typedef long long i64;

void repro_relu32(float* restrict h, i64 n)
{
    for (i64 i = 0; i < n; i++) {
        float v = h[i];
        h[i] = v > 0.0f ? v : 0.0f * v;
    }
}

void repro_bias_relu32(float* restrict h, i64 n, i64 w,
                       const float* restrict bias)
{
    for (i64 i = 0; i < n; i++) {
        float* row = h + i * w;
        for (i64 j = 0; j < w; j++) {
            float v = row[j] + bias[j];
            row[j] = v > 0.0f ? v : 0.0f * v;
        }
    }
}

void repro_gather2_add_relu32(float* restrict h, i64 e, i64 w,
                              const float* restrict ps,
                              const float* restrict pr,
                              const i64* restrict senders,
                              const i64* restrict receivers, int relu)
{
    for (i64 i = 0; i < e; i++) {
        float* row = h + i * w;
        const float* s = ps + senders[i] * w;
        const float* r = pr + receivers[i] * w;
        if (relu) {
            for (i64 j = 0; j < w; j++) {
                float v = row[j] + s[j] + r[j];
                row[j] = v > 0.0f ? v : 0.0f * v;
            }
        } else {
            /* left-associated like the NumPy reference (h + s) + r */
            for (i64 j = 0; j < w; j++)
                row[j] = row[j] + s[j] + r[j];
        }
    }
}

/* Rows of a segment accumulate in edge order: identical order to the CSR
 * matmul (scipy csr_matrix @ dense walks column indices sequentially per
 * output row), so the result is bitwise-equal to the NumPy plan path. */
void repro_segsum32(const float* restrict msgs, i64 w,
                    const i64* restrict indptr, i64 n, float* restrict out)
{
    for (i64 i = 0; i < n; i++) {
        float* o = out + i * w;
        for (i64 j = 0; j < w; j++)
            o[j] = 0.0f;
        for (i64 k = indptr[i]; k < indptr[i + 1]; k++) {
            const float* m = msgs + k * w;
            for (i64 j = 0; j < w; j++)
                o[j] += m[j];
        }
    }
}
"""

# Translation unit 2: LayerNorm. Compiled with reassociation so the two
# row reductions (mean, variance) vectorize; see the module docstring for
# the numerics contract.
_SRC_LN = r"""
#include <stdint.h>
#include <math.h>

typedef long long i64;

void repro_ln32(float* restrict h, i64 n, i64 w, const float* restrict gamma,
                const float* restrict beta, float eps)
{
    for (i64 i = 0; i < n; i++) {
        float* row = h + i * w;
        float mu = 0.0f;
        for (i64 j = 0; j < w; j++)
            mu += row[j];
        mu /= (float)w;
        float var = 0.0f;
        for (i64 j = 0; j < w; j++) {
            float c = row[j] - mu;
            var += c * c;
        }
        float inv = 1.0f / sqrtf(var / (float)w + eps);
        for (i64 j = 0; j < w; j++)
            row[j] = (row[j] - mu) * inv * gamma[j] + beta[j];
    }
}

void repro_bias_ln32(float* restrict h, i64 n, i64 w,
                     const float* restrict bias, const float* restrict gamma,
                     const float* restrict beta, float eps)
{
    for (i64 i = 0; i < n; i++) {
        float* row = h + i * w;
        float mu = 0.0f;
        for (i64 j = 0; j < w; j++) {
            row[j] += bias[j];
            mu += row[j];
        }
        mu /= (float)w;
        float var = 0.0f;
        for (i64 j = 0; j < w; j++) {
            float c = row[j] - mu;
            var += c * c;
        }
        float inv = 1.0f / sqrtf(var / (float)w + eps);
        for (i64 j = 0; j < w; j++)
            row[j] = (row[j] - mu) * inv * gamma[j] + beta[j];
    }
}
"""

# Translation unit 3: the float64 MPM step, compiled with -ffp-contract=off.
# Each expression repeats the NumPy step's operations in its order; see
# the module docstring for the order rules and the bitwise contract.
_SRC_MPM = r"""
#include <math.h>

typedef long long i64;
typedef unsigned long long u64;

/* Shape functions of the k = m*m particle-node pairs, stored
 * particle-major: pair (p, o) at p*k + o, offset o = i*m + j being node
 * (base_x + i, base_y + j) as in shape.py's _tensor_product, gradient
 * (d/dx, d/dy) at 2*(p*k + o). (The NumPy step's offset-major (k, n)
 * rows are 8 KiB apart at n = 1024, so the 36 rows one particle writes
 * all map to one L1 set.) Returns -1, or the first particle whose
 * support leaves the nx-by-ny grid (NaN positions included) -- checked
 * before any of its pairs is written. */
i64 repro_mpm_shape64(int quadratic, const double* restrict pos, i64 n,
                      double h, i64 nx, i64 ny, i64* restrict nodes,
                      double* restrict w, double* restrict dw)
{
    const i64 m = quadratic ? 3 : 2;
    const double top[2] = {(double)(nx - m), (double)(ny - m)};
    for (i64 p = 0; p < n; p++) {
        double w1[2][3], d1[2][3];
        i64 base[2];
        for (int c = 0; c < 2; c++) {
            double xi = pos[2 * p + c] / h;
            double lo = quadratic ? floor(xi - 0.5) : floor(xi);
            if (!(lo >= 0.0 && lo <= top[c]))
                return p;
            base[c] = (i64)lo;
            if (quadratic) {
                for (int o = 0; o < 3; o++) {
                    /* _bspline_quadratic, then dw1d /= h */
                    double d = xi - (double)(base[c] + o), ad = fabs(d);
                    double wv = 0.0, dv = 0.0;
                    if (ad < 0.5) {
                        wv = 0.75 - d * d;
                        dv = -2.0 * d;
                    } else if (ad < 1.5) {
                        double r = 1.5 - ad;
                        wv = 0.5 * (r * r);
                        dv = (ad - 1.5) * (d > 0.0 ? 1.0 : -1.0);
                    }
                    w1[c][o] = wv;
                    d1[c][o] = dv / h;
                }
            } else {
                double frac = xi - (double)base[c];
                w1[c][0] = 1.0 - frac;
                w1[c][1] = frac;
                d1[c][0] = -1.0 / h;
                d1[c][1] = 1.0 / h;
            }
        }
        i64 q = p * m * m;
        for (i64 i = 0; i < m; i++)
            for (i64 j = 0; j < m; j++, q++) {
                nodes[q] = (base[0] + i) * ny + (base[1] + j);
                w[q] = w1[0][i] * w1[1][j];
                dw[2 * q] = d1[0][i] * w1[1][j];
                dw[2 * q + 1] = w1[0][i] * d1[1][j];
            }
    }
    return -1;
}

/* P2G into zeroed grid arrays. Pairs are walked particle-major, the
 * order bincount added them in; a node's gravity terms go in a second
 * sweep, after all its internal-force terms. Returns -1, or the first
 * pair whose node id is not on the grid (nothing is written there). */
i64 repro_mpm_p2g64(i64 n, i64 k, i64 nn, const i64* restrict nodes,
                    const double* restrict w, const double* restrict dw,
                    const double* restrict mass, const double* restrict vel,
                    const double* restrict vol,
                    const double* restrict stress, double gx, double gy,
                    double* restrict gmass, double* restrict gmom,
                    double* restrict gforce)
{
    for (i64 i = 0; i < nn; i++)
        gmass[i] = 0.0;
    for (i64 i = 0; i < 2 * nn; i++) {
        gmom[i] = 0.0;
        gforce[i] = 0.0;
    }
    for (i64 p = 0; p < n; p++) {
        const double* s = stress + 4 * p;
        /* vs = V_p sigma_p, formed first */
        double vs00 = vol[p] * s[0], vs01 = vol[p] * s[1];
        double vs10 = vol[p] * s[2], vs11 = vol[p] * s[3];
        for (i64 q = p * k; q < (p + 1) * k; q++) {
            i64 node = nodes[q];
            if ((u64)node >= (u64)nn)
                return q;
            double mw = w[q] * mass[p];
            gmass[node] += mw;
            gmom[2 * node] += mw * vel[2 * p];
            gmom[2 * node + 1] += mw * vel[2 * p + 1];
            gforce[2 * node] += -(vs00 * dw[2 * q] + vs01 * dw[2 * q + 1]);
            gforce[2 * node + 1] += -(vs10 * dw[2 * q]
                                      + vs11 * dw[2 * q + 1]);
        }
    }
    for (i64 p = 0; p < n; p++)
        for (i64 q = p * k; q < (p + 1) * k; q++) {
            double mw = w[q] * mass[p];
            gforce[2 * nodes[q]] += mw * gx;
            gforce[2 * nodes[q] + 1] += mw * gy;
        }
    return -1;
}

/* BoxBoundary.apply for one node; the walls act in its order (x low,
 * x high, y low, y high). walls: 0 slip, 1 frictional, 2 sticky. */
static inline void box_walls(double* v, i64 ix, i64 iy, i64 nx, i64 ny,
                             i64 t, int walls, double friction)
{
    const int on[4] = {ix <= t, ix >= nx - 1 - t, iy <= t, iy >= ny - 1 - t};
    if (walls == 2) {
        if (on[0] || on[1] || on[2] || on[3])
            v[0] = v[1] = 0.0;
        return;
    }
    for (int wall = 0; wall < 4; wall++) {
        int axis = wall >> 1;
        double vn = v[axis] * ((wall & 1) ? 1.0 : -1.0);
        if (!on[wall] || !(vn > 0.0))
            continue;
        v[axis] = 0.0;
        if (walls == 1) {
            /* np.sign(vt) * np.maximum(|vt| - mu * vn, 0.0) */
            double vt = v[1 - axis];
            double decay = fabs(vt) - friction * vn;
            decay = decay < 0.0 ? 0.0 : decay;
            double sgn = vt > 0.0 ? 1.0
                       : vt < 0.0 ? -1.0 : vt == 0.0 ? 0.0 : vt;
            v[1 - axis] = sgn * decay;
        }
    }
}

/* Grid update: v_old from momentum, walls, obstacle; v_new from the
 * force, walls, obstacle. Writes v_new and dv = v_new - v_old. */
void repro_mpm_grid64(i64 nx, i64 ny, const double* restrict gmass,
                      const double* restrict gmom,
                      const double* restrict gforce, double dt, int walls,
                      double friction, i64 thickness,
                      const unsigned char* restrict obstacle,
                      double* restrict vnew, double* restrict dv)
{
    for (i64 ix = 0; ix < nx; ix++)
        for (i64 iy = 0; iy < ny; iy++) {
            i64 i = ix * ny + iy;
            double mass = gmass[i];
            /* np.maximum(mass, 1e-12): NaN stays NaN */
            double m = mass < 1e-12 ? 1e-12 : mass;
            int empty = mass <= 1e-12;
            int blocked = obstacle != 0 && obstacle[i];
            double vo[2], vn[2];
            for (int a = 0; a < 2; a++)
                vo[a] = empty ? 0.0 : gmom[2 * i + a] / m;
            box_walls(vo, ix, iy, nx, ny, thickness, walls, friction);
            if (blocked)
                vo[0] = vo[1] = 0.0;
            for (int a = 0; a < 2; a++)
                vn[a] = empty ? 0.0 : vo[a] + dt * gforce[2 * i + a] / m;
            box_walls(vn, ix, iy, nx, ny, thickness, walls, friction);
            if (blocked)
                vn[0] = vn[1] = 0.0;
            for (int a = 0; a < 2; a++) {
                vnew[2 * i + a] = vn[a];
                dv[2 * i + a] = vn[a] - vo[a];
            }
        }
}

/* np.clip(x, lo, hi) on doubles: NaN passes through */
static double clip(double x, double lo, double hi)
{
    if (isnan(x))
        return x;
    x = x > lo ? x : lo;
    return x < hi ? x : hi;
}

/* G2P and particle kinematics into fresh output arrays. Per particle
 * the eight offset sums (PIC velocity, FLIP increment, velocity
 * gradient L_ab) start from +0.0 and add in offset order. bounds holds
 * the clip box {x_lo, x_hi, y_lo, y_hi}. Returns -1, or the first pair
 * whose node id is not on the grid. */
i64 repro_mpm_g2p64(i64 n, i64 k, i64 nn, const i64* restrict nodes,
                    const double* restrict w, const double* restrict dw,
                    const double* restrict vnew, const double* restrict dv,
                    const double* restrict vel, const double* restrict pos,
                    const double* restrict vol, double flip, double dt,
                    const double* restrict bounds, double* restrict vel_out,
                    double* restrict pos_out, double* restrict vol_out,
                    double* restrict strain, double* restrict spin)
{
    const double pic = 1.0 - flip;
    for (i64 p = 0; p < n; p++) {
        double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        for (i64 q = p * k; q < (p + 1) * k; q++) {
            i64 node = nodes[q];
            if ((u64)node >= (u64)nn)
                return q;
            double v0 = vnew[2 * node], v1 = vnew[2 * node + 1];
            acc[0] += w[q] * v0;
            acc[1] += w[q] * v1;
            acc[2] += w[q] * dv[2 * node];
            acc[3] += w[q] * dv[2 * node + 1];
            acc[4] += v0 * dw[2 * q];
            acc[5] += v0 * dw[2 * q + 1];
            acc[6] += v1 * dw[2 * q];
            acc[7] += v1 * dw[2 * q + 1];
        }
        for (int a = 0; a < 2; a++) {
            vel_out[2 * p + a] = pic * acc[a] + flip * (vel[2 * p + a]
                                                        + acc[2 + a]);
            pos_out[2 * p + a] = clip(pos[2 * p + a] + dt * acc[a],
                                      bounds[2 * a], bounds[2 * a + 1]);
        }
        /* 0.5 * (L +/- L^T) * dt */
        double* e = strain + 4 * p;
        double* r = spin + 4 * p;
        e[0] = 0.5 * (acc[4] + acc[4]) * dt;
        e[1] = 0.5 * (acc[5] + acc[6]) * dt;
        e[2] = 0.5 * (acc[6] + acc[5]) * dt;
        e[3] = 0.5 * (acc[7] + acc[7]) * dt;
        r[0] = 0.5 * (acc[4] - acc[4]) * dt;
        r[1] = 0.5 * (acc[5] - acc[6]) * dt;
        r[2] = 0.5 * (acc[6] - acc[5]) * dt;
        r[3] = 0.5 * (acc[7] - acc[7]) * dt;
        vol_out[p] = vol[p] * (1.0 + (e[0] + e[3]));
    }
    return -1;
}

/* (0 + a_0 b_0) + a_1 b_1: one entry of a stacked 2x2 product as BLAS
 * dgemm forms it, from a +0.0 accumulator (so an all-zero entry is +0.0).
 * One of the two products is an exact zero here (the spin's diagonal),
 * so dgemm's order and its FMA cannot change the rounding. */
static inline double dot2(double a0, double b0, double a1, double b1)
{
    return (0.0 + a0 * b0) + a1 * b1;
}

/* Constitutive update in place of the particles whose id is mat:
 * Jaumann rotation (s + W s) - s W, Hooke increment
 * (lam tr) delta_ij + (2 mu) e_ij with zz increment lam tr + 0.0, and
 * with plastic != 0 the Drucker-Prager return with tension cutoff of
 * materials.py (alpha, k, p_cut from DruckerPrager.yield_surface). Each
 * product and sum is rounded on its own in the NumPy update's order;
 * np.maximum/np.minimum keep NaN and give the second operand on a tie.
 * Exact for spins whose diagonal is zero, as 0.5 * (L - L^T) * dt. */
void repro_mpm_stress64(i64 n, const i64* restrict ids, i64 mat, double lam,
                        double two_mu, int plastic, double alpha, double k,
                        double p_cut, const double* restrict strain,
                        const double* restrict spin, double* restrict stress,
                        double* restrict szz)
{
    for (i64 p = 0; p < n; p++) {
        if (ids[p] != mat)
            continue;
        const double* e = strain + 4 * p;
        const double* W = spin + 4 * p;
        double* s = stress + 4 * p;
        double ltr = lam * (e[0] + e[3]);
        double t[4];
        for (int i = 0; i < 2; i++)
            for (int j = 0; j < 2; j++) {
                double ws = dot2(W[2 * i], s[j], W[2 * i + 1], s[2 + j]);
                double sw = dot2(s[2 * i], W[j], s[2 * i + 1], W[2 + j]);
                t[2 * i + j] = ((s[2 * i + j] + ws) - sw)
                               + (ltr * (i == j ? 1.0 : 0.0)
                                  + two_mu * e[2 * i + j]);
            }
        double zz = szz[p] + (ltr + 0.0);
        if (!plastic) {
            for (int c = 0; c < 4; c++)
                s[c] = t[c];
            szz[p] = zz;
            continue;
        }
        double pm = ((t[0] + t[3]) + zz) / 3.0;
        double s00 = t[0] - pm, s11 = t[3] - pm, sz = zz - pm, s01 = t[1];
        double j2 = 0.5 * ((s00 * s00 + s11 * s11) + sz * sz) + s01 * s01;
        double q = sqrt(j2 < 1e-30 ? 1e-30 : j2);
        double f = (q + alpha * pm) - k;
        int tension = pm > p_cut;
        double pn = tension ? p_cut : pm;
        double q_allow = k - alpha * pn;
        q_allow = q_allow > 0.0 || isnan(q_allow) ? q_allow : 0.0;
        double scale = 1.0;
        if ((f > 0.0 || tension) && q > 1e-20) {
            double r = q_allow / q;
            scale = r > 1.0 ? 1.0 : r;
        }
        s01 *= scale;
        s[0] = s00 * scale + pn;
        s[1] = s01;
        s[2] = s01;
        s[3] = s11 * scale + pn;
        szz[p] = sz * scale + pn;
    }
}
"""

_FLAGS_COMMON = ["-O3", "-march=native", "-fPIC"]
_FLAGS_LN = ["-fno-math-errno", "-fassociative-math", "-fno-signed-zeros",
             "-fno-trapping-math", "-freciprocal-math"]
_FLAGS_MPM = ["-ffp-contract=off"]

#: (object name, source, extra flags) of each translation unit
_UNITS = (("strict", _SRC_STRICT, ()), ("ln", _SRC_LN, _FLAGS_LN),
          ("mpm", _SRC_MPM, _FLAGS_MPM))


def _build_dir() -> str:
    override = os.environ.get("REPRO_CKERNEL_CACHE")
    if override:
        os.makedirs(override, exist_ok=True)
        return override
    path = os.path.join(tempfile.gettempdir(),
                        f"repro-ckernels-{os.getuid()}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    return path


def _compile() -> str:
    """Compile the translation units into one shared library; return its
    path. Cached on disk by content hash, so the compiler runs at most
    once per machine per source revision."""
    cc = os.environ.get("CC", "cc")
    tag = hashlib.sha256("\x00".join(
        [cc, " ".join(_FLAGS_COMMON)]
        + [f"{src}\x00{' '.join(flags)}" for _, src, flags in _UNITS]
    ).encode()).hexdigest()[:16]
    build = _build_dir()
    so_path = os.path.join(build, f"repro_ckernels_{tag}.so")
    if os.path.exists(so_path):
        return so_path
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        objects = []
        for name, src, flags in _UNITS:
            c_path = os.path.join(tmp, f"{name}.c")
            with open(c_path, "w") as fh:
                fh.write(src)
            objects.append(os.path.join(tmp, f"{name}.o"))
            subprocess.run([cc, *_FLAGS_COMMON, *flags, "-c", c_path, "-o",
                            objects[-1]], check=True, capture_output=True)
        tmp_so = os.path.join(tmp, "out.so")
        subprocess.run([cc, "-shared", *objects, "-o", tmp_so, "-lm"],
                       check=True, capture_output=True)
        # atomic publish so concurrent processes never dlopen a partial file
        os.replace(tmp_so, so_path)
    return so_path


class CpuKernels:
    """Thin validating wrappers over the compiled kernels.

    Every float32 method mutates its first argument in place (except
    :meth:`segment_sum`, which fills ``out``); the ``mpm_*`` methods fill
    the output arrays they are given. Arrays must be C-contiguous float32
    (float64 for ``mpm_*``); index arrays must be int64 (``np.intp`` on
    all supported platforms).
    """

    def __init__(self, ffi, lib):
        self._ffi = ffi
        self._lib = lib

    def _f32(self, a: np.ndarray):
        if a.dtype != np.float32 or not a.flags.c_contiguous:
            raise TypeError("accel kernels need C-contiguous float32 arrays")
        return self._ffi.cast("float *", a.ctypes.data)

    def _i64(self, a: np.ndarray, shape: tuple | None = None):
        if a.dtype != np.int64 or not a.flags.c_contiguous:
            raise TypeError("accel kernels need C-contiguous int64 indices")
        if shape is not None and a.shape != shape:
            raise ValueError(f"expected shape {shape}, got {a.shape}")
        # from_buffer costs a third of ``cast(..., a.ctypes.data)``
        return self._ffi.from_buffer("long long[]", a)

    def _f64(self, a: np.ndarray, shape: tuple):
        if a.dtype != np.float64 or not a.flags.c_contiguous:
            raise TypeError("accel MPM kernels need C-contiguous float64 "
                            "arrays")
        if a.shape != shape:
            raise ValueError(f"expected shape {shape}, got {a.shape}")
        return self._ffi.from_buffer("double[]", a)

    def relu(self, h: np.ndarray) -> np.ndarray:
        """In-place ``h = max(h, 0)`` (NaN-propagating)."""
        self._lib.repro_relu32(self._f32(h), h.size)
        return h

    def bias_relu(self, h: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """In-place ``h = max(h + bias, 0)`` over rows."""
        n, w = h.shape
        self._lib.repro_bias_relu32(self._f32(h), n, w, self._f32(bias))
        return h

    def ln(self, h: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
           eps: float) -> np.ndarray:
        """In-place LayerNorm over the last axis."""
        n, w = h.shape
        self._lib.repro_ln32(self._f32(h), n, w, self._f32(gamma),
                             self._f32(beta), eps)
        return h

    def bias_ln(self, h: np.ndarray, bias: np.ndarray, gamma: np.ndarray,
                beta: np.ndarray, eps: float) -> np.ndarray:
        """In-place ``LayerNorm(h + bias)`` over rows."""
        n, w = h.shape
        self._lib.repro_bias_ln32(self._f32(h), n, w, self._f32(bias),
                                  self._f32(gamma), self._f32(beta), eps)
        return h

    def gather2_add_relu(self, h: np.ndarray, proj_s: np.ndarray,
                         proj_r: np.ndarray, senders: np.ndarray,
                         receivers: np.ndarray, relu: bool = True
                         ) -> np.ndarray:
        """In-place ``h += proj_s[senders] + proj_r[receivers]`` with an
        optional fused ReLU — the edge-MLP first layer in one pass."""
        e, w = h.shape
        if proj_s.shape[1] != w or proj_r.shape[1] != w:
            raise ValueError("projection width mismatch")
        self._lib.repro_gather2_add_relu32(
            self._f32(h), e, w, self._f32(proj_s), self._f32(proj_r),
            self._i64(senders), self._i64(receivers), 1 if relu else 0)
        return h

    def segment_sum(self, msgs: np.ndarray, indptr: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        """``out[i] = msgs[indptr[i]:indptr[i+1]].sum(axis=0)`` — the CSR
        aggregation for receiver-sorted edges, bitwise-equal to the scipy
        matmul path (same accumulation order)."""
        e, w = msgs.shape
        n = out.shape[0]
        if indptr.shape[0] != n + 1 or out.shape[1] != w:
            raise ValueError("segment_sum plan/output shape mismatch")
        if e and int(indptr[-1]) != e:
            raise ValueError("indptr does not cover all edges")
        self._lib.repro_segsum32(self._f32(msgs), w, self._i64(indptr), n,
                                 self._f32(out))
        return out

    # -- float64 MPM step (bitwise-equal to repro.mpm's NumPy step) ----
    def mpm_shape(self, quadratic: bool, positions: np.ndarray, h: float,
                  node_dims: tuple[int, int], nodes: np.ndarray,
                  weights: np.ndarray, grads: np.ndarray) -> int:
        """Fill the particle-major shape arrays — ``nodes``/``weights``
        ``(n, k)``, ``grads`` ``(n, k, 2)`` — for the linear
        (``quadratic=False``, k = 4) or quadratic (k = 9) basis: the
        transposes of :class:`repro.mpm.shape.ShapeKernel`'s arrays, with
        equal values. Returns -1, or the index of the first particle
        whose support is not on the ``node_dims`` grid (non-finite
        positions included)."""
        n = positions.shape[0]
        k = 9 if quadratic else 4
        nx, ny = node_dims
        return self._lib.repro_mpm_shape64(
            1 if quadratic else 0, self._f64(positions, (n, 2)), n, h, nx,
            ny, self._i64(nodes, (n, k)), self._f64(weights, (n, k)),
            self._f64(grads, (n, k, 2)))

    def mpm_p2g(self, nodes: np.ndarray, weights: np.ndarray,
                grads: np.ndarray, masses: np.ndarray,
                velocities: np.ndarray, volumes: np.ndarray,
                stresses: np.ndarray, gravity: np.ndarray | tuple,
                mass: np.ndarray, momentum: np.ndarray,
                force: np.ndarray) -> None:
        """Scatter particle mass, momentum, internal force and the body
        acceleration ``gravity`` (two floats) onto the grid arrays
        ``mass (nn,)``, ``momentum``/``force`` ``(nn, 2)``, which are
        overwritten."""
        n, k = nodes.shape
        nn = mass.shape[0]
        bad = self._lib.repro_mpm_p2g64(
            n, k, nn, self._i64(nodes), self._f64(weights, (n, k)),
            self._f64(grads, (n, k, 2)), self._f64(masses, (n,)),
            self._f64(velocities, (n, 2)), self._f64(volumes, (n,)),
            self._f64(stresses, (n, 2, 2)), gravity[0], gravity[1],
            self._f64(mass, (nn,)), self._f64(momentum, (nn, 2)),
            self._f64(force, (nn, 2)))
        if bad >= 0:
            raise IndexError(f"pair {bad}: node id outside the grid")

    def mpm_grid(self, mass: np.ndarray, momentum: np.ndarray,
                 force: np.ndarray, node_dims: tuple[int, int], dt: float,
                 mode: str, friction: float, thickness: int,
                 obstacle: np.ndarray | None, v_new: np.ndarray,
                 dv: np.ndarray) -> None:
        """Explicit grid update under ``BoxBoundary(friction, mode,
        thickness)`` walls and an optional boolean obstacle mask: fills
        ``v_new`` and ``dv = v_new - v_old`` (both ``(nn, 2)``)."""
        nx, ny = node_dims
        nn = nx * ny
        walls = 2 if mode == "sticky" else int(
            mode == "frictional" and friction > 0.0)
        if obstacle is None:
            mask = self._ffi.NULL
        elif (obstacle.dtype != np.bool_ or obstacle.shape != (nn,)
              or not obstacle.flags.c_contiguous):
            raise TypeError("obstacle mask must be a contiguous (nn,) bool "
                            "array")
        else:
            mask = self._ffi.cast("unsigned char *", obstacle.ctypes.data)
        self._lib.repro_mpm_grid64(
            nx, ny, self._f64(mass, (nn,)), self._f64(momentum, (nn, 2)),
            self._f64(force, (nn, 2)), dt, walls, friction, thickness, mask,
            self._f64(v_new, (nn, 2)), self._f64(dv, (nn, 2)))

    def mpm_g2p(self, nodes: np.ndarray, weights: np.ndarray,
                grads: np.ndarray, v_new: np.ndarray, dv: np.ndarray,
                velocities: np.ndarray, positions: np.ndarray,
                volumes: np.ndarray, flip: float, dt: float,
                bounds: tuple[float, float, float, float],
                out_velocities: np.ndarray, out_positions: np.ndarray,
                out_volumes: np.ndarray, strain_inc: np.ndarray,
                spin_inc: np.ndarray) -> None:
        """Gather grid velocities back to the particles: FLIP/PIC
        velocity, advected position clipped to ``bounds`` (x_lo, x_hi,
        y_lo, y_hi), volume, and the strain and spin increments
        ``(n, 2, 2)``. Inputs are read only; ``out_*``, ``strain_inc``
        and ``spin_inc`` are filled."""
        n, k = nodes.shape
        nn = v_new.shape[0]
        box = np.asarray(bounds, dtype=np.float64)
        bad = self._lib.repro_mpm_g2p64(
            n, k, nn, self._i64(nodes), self._f64(weights, (n, k)),
            self._f64(grads, (n, k, 2)), self._f64(v_new, (nn, 2)),
            self._f64(dv, (nn, 2)), self._f64(velocities, (n, 2)),
            self._f64(positions, (n, 2)), self._f64(volumes, (n,)), flip,
            dt, self._f64(box, (4,)), self._f64(out_velocities, (n, 2)),
            self._f64(out_positions, (n, 2)), self._f64(out_volumes, (n,)),
            self._f64(strain_inc, (n, 2, 2)), self._f64(spin_inc, (n, 2, 2)))
        if bad >= 0:
            raise IndexError(f"pair {bad}: node id outside the grid")

    def mpm_stress(self, material_ids: np.ndarray, material_id: int,
                   lam: float, two_mu: float,
                   cone: tuple[float, float, float] | None,
                   strain_inc: np.ndarray, spin_inc: np.ndarray,
                   stresses: np.ndarray, sigma_zz: np.ndarray) -> None:
        """Constitutive update, in place on ``stresses (n, 2, 2)`` and
        ``sigma_zz (n,)``, of the particles whose ``material_ids`` entry
        (int64) is ``material_id``: Jaumann rotation by ``spin_inc``, the
        Hooke increment with Lamé ``lam`` and ``two_mu`` = 2μ, and, when
        ``cone`` = ``(alpha, k, p_cut)`` is given, the Drucker–Prager
        return with tension cutoff. Bitwise-equal to
        ``LinearElastic``/``DruckerPrager.update_stress`` provided each
        spin's diagonal is an exact zero, as ``0.5 * (L - L^T) * dt``
        makes it. Other particles are left alone."""
        n = material_ids.shape[0]
        alpha, k, p_cut = (0.0, 0.0, 0.0) if cone is None else cone
        self._lib.repro_mpm_stress64(
            n, self._i64(material_ids, (n,)), material_id, lam, two_mu,
            int(cone is not None), alpha, k, p_cut,
            self._f64(strain_inc, (n, 2, 2)), self._f64(spin_inc, (n, 2, 2)),
            self._f64(stresses, (n, 2, 2)), self._f64(sigma_zz, (n,)))


_KERNELS: CpuKernels | None = None
_TRIED = False
_BUILD_ERROR: str | None = None


def toolchain_missing() -> str | None:
    """Why the compiled kernels are legitimately absent — a kill switch
    is set, or cffi or the C compiler is missing — else ``None``. When
    this is ``None`` and :func:`kernels` still returns ``None``, the
    build failed, and :func:`build_error` says how."""
    if os.environ.get("REPRO_BACKEND", "").strip().lower() == "numpy":
        return "REPRO_BACKEND=numpy pins the NumPy reference"
    if os.environ.get("REPRO_NO_CKERNELS"):
        return "REPRO_NO_CKERNELS is set"
    if importlib.util.find_spec("cffi") is None:
        return "cffi is not installed"
    cc = os.environ.get("CC", "cc")
    if shutil.which(cc) is None:
        return f"no C compiler {cc!r} on PATH"
    return None


def build_error() -> str | None:
    """The exception, with the compiler's stderr, that made this
    process's kernel build fail; ``None`` if it did not fail."""
    return _BUILD_ERROR


def kernels() -> CpuKernels | None:
    """Compiled kernel handle, or ``None`` when unavailable.

    The first call pays for (cached) compilation; later calls are a
    global read. Failure is remembered — one broken toolchain probe per
    process, not one per forward pass.
    """
    global _KERNELS, _TRIED, _BUILD_ERROR
    if os.environ.get("REPRO_BACKEND", "").strip().lower() == "numpy":
        # one-knob override: the NumPy reference backend implies
        # REPRO_NO_CKERNELS (checked live, so it masks kernels that
        # were compiled before the variable was set)
        return None
    if _TRIED:
        return _KERNELS
    _TRIED = True
    if toolchain_missing() is not None:
        return None
    try:
        import cffi
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(_compile())
        _KERNELS = CpuKernels(ffi, lib)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        # a failed build (compile error, sandboxed tmpdir, bad dlopen)
        # falls back to the numpy path; the reason is kept for
        # build_error(), so tests can fail on it instead of skipping
        stderr = getattr(exc, "stderr", None) or b""
        _BUILD_ERROR = f"{type(exc).__name__}: {exc}\n" + (
            stderr.decode(errors="replace") if isinstance(stderr, bytes)
            else str(stderr))
        _KERNELS = None
    return _KERNELS


def available() -> bool:
    """True when the compiled kernels can be used."""
    return kernels() is not None
