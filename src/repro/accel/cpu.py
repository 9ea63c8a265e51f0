"""Runtime-compiled C kernels for the CPU hot paths.

Three consumers share one library:

* The float32 inference fast path (``InferenceEngine(dtype=np.float32)``).
  Its processor's edge side, the largest share of a step, runs as one
  fused pass per message-passing block (``edge_pass``, called by
  ``EncodeProcessDecode.forward_fast``): tiles of edges go from the
  gathered first layer through every GEMM, ReLU and LayerNorm to the
  aggregation and the edge residual in registers and L1, with no
  edge-sized intermediate in memory. Node-sized work stays on BLAS
  sgemm. The node MLPs, encoders and decoder, and the edge MLPs the
  pass does not cover, run the MLP tail of :mod:`repro.autodiff.fused`,
  which calls the single-pass glue kernels (``relu``, ``bias_relu``,
  ``ln``, ``bias_ln``) between their sgemm calls, where NumPy pays one
  full pass over the array per ufunc.
* The 2-D MPM step (:class:`repro.mpm.MPMSolver`) runs its shape
  evaluation, particle-to-grid scatter, grid update, grid-to-particle
  gather and the elastic and Drucker–Prager stress updates as float64
  kernels, one call per phase and per material instead of about 190
  NumPy calls for the phases plus each material's NumPy update.
* The float64 MLP path of :mod:`repro.autodiff.fused`, which the tape
  (training and the inverse problem's k-step rollout gradient) and the
  float64 inference engine share, runs the elementwise glue of its MLPs
  and graph aggregations as float64 kernels: the split edge first
  layer's two gathers and first ReLU in one pass
  (``gather2_add_relu64``), bias+ReLU between layers (``relu64``,
  ``bias_relu64``), the CSR segment sum (``segment_sum64``), and on the
  tape LayerNorm's affine tail and input gradient (``ln_affine64``,
  ``ln_vjp64``) and the ReLU-mask multiply of the VJP
  (``relu_mask64``). The GEMMs and the reductions NumPy sends to BLAS or
  einsum (row means, variances, bias and γ/β sums) stay in NumPy, whose
  summation order they keep.

Everything is compiled once per machine with the system ``cc`` through
cffi's ABI mode, cached on disk by source hash.

Gating and fallback
-------------------
* ``kernels()`` returns a :class:`CpuKernels` handle, or ``None`` when the
  toolchain is unavailable (no compiler, no cffi, sandboxed tmpdir, ...).
  Call sites must treat ``None`` as "use the NumPy path".
  :func:`toolchain_missing` says whether ``None`` is expected here;
  when it is not, :func:`build_error` holds the compiler's output.
* This package only builds and loads the kernels. Whether they run is
  :mod:`repro.backend`'s switch: the ``numpy`` backend
  (``REPRO_BACKEND=numpy`` or ``backend="numpy"``) never calls
  :func:`kernels`, so it compiles nothing.
* A float64 kernel must be bitwise-equal to the NumPy path it replaces:
  it repeats NumPy's operations in NumPy's order, and its translation
  unit is compiled with ``-ffp-contract=off`` (no fused multiply-add).
  A frozen NumPy oracle pins the MPM step (``tests/test_mpm_transfer.py``);
  bit-pattern tests pin each tape kernel against its NumPy expression
  (``tests/test_accel_cpu.py::TestTapeKernels``).

Numerics
--------
Three translation units with different flag sets:

* strict IEEE (``relu``/``bias_relu``/``segment_sum``/``edge_pass``):
  plain ``-O3``, no reassociation; ReLU uses ``v > 0 ? v : 0*v`` so NaNs
  propagate exactly like ``np.maximum`` (the ``0*v`` keeps NaN; only the
  sign of zero can differ from NumPy, which compares equal).  The
  segment sum accumulates rows in edge order — the same order as the
  CSR matmul it replaces.  The edge pass contracts its GEMMs into fused
  multiply-adds (the compiler's default) and sums LayerNorm's
  statistics in its own vector tree, so it is held to the float32 drift
  contract, not to NumPy's bits. It is deterministic all the same:
  without reassociation every edge row runs the same arithmetic
  whatever its tile, and the aggregation adds messages in edge order
  (for receiver-sorted edges, the order of the CSR segment sum), so a
  graph gives the same bits alone and inside a block-diagonal batch.
  Latent and hidden widths are padded to 16, 32, 64 or 128 lanes, each
  with its own register-blocked path (wider MLPs take the generic
  path); the vectors are 16 lanes wide with AVX-512 and 8 otherwise.
* reassociation-enabled (``ln``/``bias_ln``): ``-fassociative-math`` and
  friends, required for the compiler to vectorize the float reductions in
  LayerNorm (4x faster than NumPy's multi-pass version).  NaNs still
  propagate (``-ffinite-math-only`` is *not* enabled), but the summation
  order inside a row is unspecified, so results differ from NumPy in the
  last ulp or two.
* float64 (``mpm_shape``/``mpm_p2g``/``mpm_grid``/``mpm_g2p``/
  ``mpm_stress`` and the tape's ``*64`` kernels): ``-ffp-contract=off``
  on top of the common flags.
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

Float64 tape
------------
Each ``*64`` tape kernel replaces a NumPy expression of
:mod:`repro.autodiff.fused` or :mod:`repro.autodiff.scatter` and rounds
every product and sum on its own, in that expression's order:

* ``relu64``/``bias_relu64``/``gather2_add_relu64``: ``np.maximum(h,
  0.0)`` after ``h += bias`` or ``h += ps[s]; h += pr[r]``. The ReLU
  gives ``np.maximum``'s bits: a NaN passes through as it is, and a zero
  of either sign gives +0.0, because NumPy's SIMD max returns its second
  operand when the two compare equal (on its baseline, AVX2 and AVX-512
  targets alike; CI re-runs the tests on the baseline).
* ``ln_affine64``: ``xhat = c * inv`` (saved), ``out = xhat * γ + β``.
* ``ln_vjp64``: ``((g − m1) − xhat·m2) · inv`` in place.
* ``relu_mask64``: ``g *= act > 0`` as a true multiply by 1.0 or 0.0, so
  ``−x · 0.0`` is −0.0 and a NaN stays NaN.
* ``segment_sum64``: each output row starts from +0.0 and adds its edge
  rows in CSR order (through the plan's ``order`` when the index is
  unsorted), as scipy's ``csr_matvecs`` does with unit weights.

The float32 kernels require C-contiguous float32 arrays and int64
indices (``edge_pass`` also takes its weights from
:func:`edge_pass_weights`), the float64 kernels C-contiguous float64
arrays; the wrappers
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
from typing import NamedTuple

import numpy as np

__all__ = ["CpuKernels", "EdgePassWeights", "available", "build_error",
           "edge_pass_weights", "kernels", "toolchain_missing"]

_CDEF = """
void repro_relu32(float* h, long long n);
void repro_bias_relu32(float* h, long long n, long long w, const float* bias);
void repro_segsum32(const float* msgs, long long w, const long long* indptr,
                    long long n, float* out);
void repro_ln32(float* h, long long n, long long w, const float* gamma,
                const float* beta, float eps);
void repro_bias_ln32(float* h, long long n, long long w, const float* bias,
                     const float* gamma, const float* beta, float eps);
long long repro_edge_pass32(long long e, long long n, long long l,
                            long long hd, long long depth, int nvl, int nvh,
                            float* edges, const float* ps, const float* pr,
                            const long long* senders,
                            const long long* receivers, const float* pack,
                            float eps, int residual, float* agg);
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
void repro_relu64(double* h, long long n);
void repro_bias_relu64(double* h, long long n, long long w,
                       const double* bias);
long long repro_gather2_add_relu64(double* h, long long e, long long w,
                                   long long n, const double* ps,
                                   const double* pr,
                                   const long long* senders,
                                   const long long* receivers);
void repro_ln_affine64(double* xhat, long long n, long long w,
                       const double* inv, const double* gamma,
                       const double* beta, double* out);
void repro_ln_vjp64(double* g, long long n, long long w, const double* xhat,
                    const double* m1, const double* m2, const double* inv);
void repro_relu_mask64(double* g, const double* act, long long n);
void repro_segsum64(const double* v, long long w, const long long* indptr,
                    const long long* order, long long n, double* out);
"""

# Translation unit 1: no reassociation. The ReLU branches multiply by
# zero instead of loading a zero constant so that a NaN input stays NaN,
# matching np.maximum(h, 0). The fused edge pass lives here too: the
# compiler keeps each row's operation order, so every edge row runs the
# same arithmetic whatever its tile (with -fassociative-math an AVX2
# build re-associated some rows of a tile differently from others).
_SRC_STRICT = r"""
#include <stdint.h>
#include <math.h>

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

/* The edge side of one interaction-network block in one pass over tiles
 * of EP_TILE edges, kept in registers and L1: the split first layer
 * (gathered ps[s] + pr[r], plus edges @ W_e), ReLU, each hidden layer
 * (GEMM, bias, ReLU), the last GEMM with its bias, LayerNorm, then
 * agg[receiver] += message in edge order and, with residual,
 * edges += message. Widths are padded to 16, 32, 64 or 128 lanes
 * (latent to pl, hidden to ph); the padded weight columns and biases
 * are zero, so padded lanes hold exact zeros up to the LayerNorm, whose
 * variance the mask restricts to the l true lanes. The GEMM loops run
 * over the true widths. Every row runs the same instructions whatever
 * its tile or slot, so a row's message does not depend on the other
 * edges.
 *
 * Vectors are the target's widest: 16 lanes with AVX-512, whose 32
 * registers hold EP_TILE x 2 accumulators, else 8 lanes and EP_TILE x 1
 * accumulators (16-lane vectors lowered onto AVX2's 16 registers ran
 * about 50x slower). */
#define EP_TILE 8
#ifdef __AVX512F__
#define EP_LANES 16
#define EP_CB 2
#else
#define EP_LANES 8
#define EP_CB 1
#endif
#define EP_INLINE static inline __attribute__((always_inline))

typedef float vf __attribute__((vector_size(EP_LANES * 4)));
typedef float vfu __attribute__((vector_size(EP_LANES * 4), aligned(4),
                                 may_alias));
typedef int vfi __attribute__((vector_size(EP_LANES * 4)));
typedef unsigned long long u64;

EP_INLINE vf ep_ld(const float* p) { return *(const vfu*)p; }
EP_INLINE void ep_st(float* p, vf v) { *(vfu*)p = v; }

/* max(v, 0) with NaN passing through (v <= 0 is false for NaN) */
EP_INLINE vf ep_relu(vf v)
{
    const vf zero = {0};
    vfi drop = v <= zero;
    return (vf)((vfi)v & ~drop);
}

/* out[t] = the sum of x[t]'s lanes for the tile's rows, added in one
 * tree (lane j with j + EP_LANES/2, then j + EP_LANES/4, ...) that is
 * the same for every row: each level adds the halves of two rows'
 * partial sums side by side. */
EP_INLINE void ep_rowsums(const vf x[EP_TILE], float out[EP_TILE])
{
#if EP_LANES == 16
    const vfi lo = {0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23};
    const vfi hi = {8, 9, 10, 11, 12, 13, 14, 15,
                    24, 25, 26, 27, 28, 29, 30, 31};
    const vfi lo2 = {0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27};
    const vfi hi2 = {4, 5, 6, 7, 12, 13, 14, 15,
                     20, 21, 22, 23, 28, 29, 30, 31};
    const vfi lo4 = {0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29};
    const vfi hi4 = {2, 3, 6, 7, 10, 11, 14, 15,
                     18, 19, 22, 23, 26, 27, 30, 31};
    vf a[4], b[2];
    for (int i = 0; i < 4; i++)
        a[i] = __builtin_shuffle(x[2 * i], x[2 * i + 1], lo)
               + __builtin_shuffle(x[2 * i], x[2 * i + 1], hi);
    for (int i = 0; i < 2; i++)
        b[i] = __builtin_shuffle(a[2 * i], a[2 * i + 1], lo2)
               + __builtin_shuffle(a[2 * i], a[2 * i + 1], hi2);
    const vf c = __builtin_shuffle(b[0], b[1], lo4)
                 + __builtin_shuffle(b[0], b[1], hi4);
    for (int t = 0; t < EP_TILE; t++)
        out[t] = c[2 * t] + c[2 * t + 1];
#else
    const vfi lo2 = {0, 1, 2, 3, 8, 9, 10, 11};
    const vfi hi2 = {4, 5, 6, 7, 12, 13, 14, 15};
    const vfi lo4 = {0, 1, 4, 5, 8, 9, 12, 13};
    const vfi hi4 = {2, 3, 6, 7, 10, 11, 14, 15};
    vf b[4];
    for (int i = 0; i < 4; i++)
        b[i] = __builtin_shuffle(x[2 * i], x[2 * i + 1], lo2)
               + __builtin_shuffle(x[2 * i], x[2 * i + 1], hi2);
    for (int i = 0; i < 2; i++) {
        const vf c = __builtin_shuffle(b[2 * i], b[2 * i + 1], lo4)
                     + __builtin_shuffle(b[2 * i], b[2 * i + 1], hi4);
        for (int t = 0; t < 4; t++)
            out[4 * i + t] = c[2 * t] + c[2 * t + 1];
    }
#endif
}

/* y[t] = init[t] + x[t][0:k] @ w[0:k] for the tile's rows, optionally
 * ReLU'd: init is bias for every row, or y itself when bias is NULL.
 * x rows are ldx apart, w and y rows nv vectors. EP_CB output vectors
 * per pass keep EP_TILE x EP_CB accumulators in registers. */
EP_INLINE void ep_gemm(const int nv, const float* restrict x, i64 ldx, i64 k,
                       const float* restrict w, const float* restrict bias,
                       const int relu, float* restrict y)
{
    const int cb = nv < EP_CB ? nv : EP_CB;
    const i64 row = nv * EP_LANES;
    for (int c0 = 0; c0 < nv; c0 += cb) {
        vf acc[EP_TILE][EP_CB];
        for (int t = 0; t < EP_TILE; t++)
            for (int c = 0; c < cb; c++)
                acc[t][c] = ep_ld((bias ? bias : y + t * row)
                                  + (c0 + c) * EP_LANES);
        for (i64 q = 0; q < k; q++) {
            vf wv[EP_CB];
            for (int c = 0; c < cb; c++)
                wv[c] = ep_ld(w + q * row + (c0 + c) * EP_LANES);
            for (int t = 0; t < EP_TILE; t++) {
                const float xv = x[t * ldx + q];
                for (int c = 0; c < cb; c++)
                    acc[t][c] += xv * wv[c];
            }
        }
        for (int t = 0; t < EP_TILE; t++)
            for (int c = 0; c < cb; c++)
                ep_st(y + t * row + (c0 + c) * EP_LANES,
                      relu ? ep_relu(acc[t][c]) : acc[t][c]);
    }
}

/* LayerNorm of the tile's padded rows (nv vectors each) over their l
 * true lanes, with the row statistics of all EP_TILE rows reduced
 * together */
EP_INLINE void ep_ln(const int nv, float* restrict o, i64 l,
                     const float* restrict gamma, const float* restrict beta,
                     const float* restrict mask, float eps)
{
    vf part[EP_TILE];
    float mu[EP_TILE], var[EP_TILE];
    for (int t = 0; t < EP_TILE; t++) {
        vf s = ep_ld(o + t * nv * EP_LANES);
        for (int c = 1; c < nv; c++)
            s += ep_ld(o + (t * nv + c) * EP_LANES);
        part[t] = s;
    }
    ep_rowsums(part, mu);
    for (int t = 0; t < EP_TILE; t++) {
        mu[t] /= (float)l;
        vf q = {0};
        for (int c = 0; c < nv; c++) {
            vf d = (ep_ld(o + (t * nv + c) * EP_LANES) - mu[t])
                   * ep_ld(mask + c * EP_LANES);
            q += d * d;
        }
        part[t] = q;
    }
    ep_rowsums(part, var);
    for (int t = 0; t < EP_TILE; t++) {
        const float inv = 1.0f / sqrtf(var[t] / (float)l + eps);
        for (int c = 0; c < nv; c++) {
            float* p = o + (t * nv + c) * EP_LANES;
            ep_st(p, (ep_ld(p) - mu[t]) * inv * ep_ld(gamma + c * EP_LANES)
                     + ep_ld(beta + c * EP_LANES));
        }
    }
}

/* pack: W_e (l x ph), the depth-2 hidden W (hd x ph each), W_last
 * (hd x pl), the hidden biases (ph each), b_last, gamma, beta and the
 * LayerNorm mask (pl each), all row-major and zero-padded; nvl and nvh
 * count vectors of EP_LANES */
EP_INLINE void ep_run(const int nvl, const int nvh, i64 e, i64 l, i64 hd,
                      i64 depth, float* restrict edges,
                      const float* restrict ps, const float* restrict pr,
                      const i64* restrict senders,
                      const i64* restrict receivers,
                      const float* restrict pack, float eps, int residual,
                      float* restrict agg)
{
    const i64 pl = nvl * EP_LANES, ph = nvh * EP_LANES;
    const float* w_edge = pack;
    const float* w_hid = w_edge + l * ph;
    const float* w_out = w_hid + (depth - 2) * hd * ph;
    const float* b_hid = w_out + hd * pl;
    const float* b_out = b_hid + (depth - 2) * ph;
    const float* gamma = b_out + pl;
    const float* beta = gamma + pl;
    const float* mask = beta + pl;
    float xt[EP_TILE * 128] __attribute__((aligned(64)));
    float ha[EP_TILE * 128] __attribute__((aligned(64)));
    float hb[EP_TILE * 128] __attribute__((aligned(64)));
    float out[EP_TILE * 128] __attribute__((aligned(64)));
    const vf zero = {0};
    for (i64 e0 = 0; e0 < e; e0 += EP_TILE) {
        const i64 cnt = e - e0 < EP_TILE ? e - e0 : EP_TILE;
        const float* x = edges + e0 * l;
        if (cnt < EP_TILE) {
            /* the last tile: zero rows stand in for the missing edges */
            for (i64 j = 0; j < EP_TILE * l; j++)
                xt[j] = j < cnt * l ? x[j] : 0.0f;
            x = xt;
        }
        for (i64 t = 0; t < EP_TILE; t++) {
            float* row = ha + t * ph;
            if (t < cnt) {
                const float* s = ps + senders[e0 + t] * ph;
                const float* r = pr + receivers[e0 + t] * ph;
                for (int c = 0; c < nvh; c++)
                    ep_st(row + c * EP_LANES, ep_ld(s + c * EP_LANES)
                                              + ep_ld(r + c * EP_LANES));
            } else {
                for (int c = 0; c < nvh; c++)
                    ep_st(row + c * EP_LANES, zero);
            }
        }
        ep_gemm(nvh, x, l, l, w_edge, 0, 1, ha);
        float* h = ha;
        float* g = hb;
        for (i64 k = 0; k < depth - 2; k++) {
            ep_gemm(nvh, h, ph, hd, w_hid + k * hd * ph, b_hid + k * ph, 1, g);
            float* tmp = h;
            h = g;
            g = tmp;
        }
        ep_gemm(nvl, h, ph, hd, w_out, b_out, 0, out);
        ep_ln(nvl, out, l, gamma, beta, mask, eps);
        for (i64 t = 0; t < cnt; t++) {
            const float* m = out + t * pl;
            float* a = agg + receivers[e0 + t] * l;
            float* ed = edges + (e0 + t) * l;
            i64 j = 0;
            for (; j + EP_LANES <= l; j += EP_LANES) {
                const vf v = ep_ld(m + j);
                ep_st(a + j, ep_ld(a + j) + v);
                if (residual)
                    ep_st(ed + j, ep_ld(ed + j) + v);
            }
            for (; j < l; j++) {
                a[j] += m[j];
                if (residual)
                    ed[j] += m[j];
            }
        }
    }
}

/* nvl, nvh: the padded latent and hidden widths in 16-lane units (1, 2,
 * 4 or 8). Returns -1; the first edge with an index outside [0, n),
 * checked before agg or edges is written; or -2 for another width. */
i64 repro_edge_pass32(i64 e, i64 n, i64 l, i64 hd, i64 depth, int nvl,
                      int nvh, float* restrict edges,
                      const float* restrict ps, const float* restrict pr,
                      const i64* restrict senders,
                      const i64* restrict receivers,
                      const float* restrict pack, float eps, int residual,
                      float* restrict agg)
{
    for (i64 i = 0; i < e; i++)
        if ((u64)senders[i] >= (u64)n || (u64)receivers[i] >= (u64)n)
            return i;
    for (i64 i = 0; i < n * l; i++)
        agg[i] = 0.0f;
#define EP_CASE(a, b) case (a) * 16 + (b): \
        ep_run((a) * 16 / EP_LANES, (b) * 16 / EP_LANES, e, l, hd, depth, \
               edges, ps, pr, senders, receivers, pack, eps, residual, agg); \
        return -1;
    switch (nvl * 16 + nvh) {
    EP_CASE(1, 1) EP_CASE(1, 2) EP_CASE(1, 4) EP_CASE(1, 8)
    EP_CASE(2, 1) EP_CASE(2, 2) EP_CASE(2, 4) EP_CASE(2, 8)
    EP_CASE(4, 1) EP_CASE(4, 2) EP_CASE(4, 4) EP_CASE(4, 8)
    EP_CASE(8, 1) EP_CASE(8, 2) EP_CASE(8, 4) EP_CASE(8, 8)
    }
#undef EP_CASE
    return -2;
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

# Translation unit 3: the float64 MPM step and the float64 tape glue,
# compiled with -ffp-contract=off. Each expression repeats the NumPy
# operations in their order; see the module docstring for the order rules
# and the bitwise contract.
_SRC_F64 = r"""
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

/* ---- float64 tape glue: each kernel repeats the NumPy expression of
 * repro.autodiff.fused / scatter it replaces, operation for operation */

/* np.maximum(v, 0.0): a NaN passes through as it is (sign and payload),
 * and a zero of either sign gives +0.0, because NumPy's SIMD max returns
 * its second operand when the two compare equal. */
static inline double relu64(double v)
{
    return v != v ? v : v > 0.0 ? v : 0.0;
}

void repro_relu64(double* restrict h, i64 n)
{
    for (i64 i = 0; i < n; i++)
        h[i] = relu64(h[i]);
}

/* h += bias (a row vector), then np.maximum(h, 0.0) */
void repro_bias_relu64(double* restrict h, i64 n, i64 w,
                       const double* restrict bias)
{
    for (i64 i = 0; i < n; i++) {
        double* row = h + i * w;
        for (i64 j = 0; j < w; j++)
            row[j] = relu64(row[j] + bias[j]);
    }
}

/* The split first layer: h += ps[senders]; h += pr[receivers], then the
 * first ReLU. Returns -1, or the first edge with an index outside
 * [0, n) -- checked before any row is written. */
i64 repro_gather2_add_relu64(double* restrict h, i64 e, i64 w, i64 n,
                             const double* restrict ps,
                             const double* restrict pr,
                             const i64* restrict senders,
                             const i64* restrict receivers)
{
    for (i64 i = 0; i < e; i++)
        if ((u64)senders[i] >= (u64)n || (u64)receivers[i] >= (u64)n)
            return i;
    for (i64 i = 0; i < e; i++) {
        double* row = h + i * w;
        const double* s = ps + senders[i] * w;
        const double* r = pr + receivers[i] * w;
        for (i64 j = 0; j < w; j++)
            row[j] = relu64((row[j] + s[j]) + r[j]);
    }
    return -1;
}

/* LayerNorm's affine tail on centred rows, in one pass: xhat *= inv
 * (the row's 1/std), out = xhat * gamma + beta. */
void repro_ln_affine64(double* restrict xhat, i64 n, i64 w,
                       const double* restrict inv,
                       const double* restrict gamma,
                       const double* restrict beta, double* restrict out)
{
    for (i64 i = 0; i < n; i++) {
        double* x = xhat + i * w;
        double* o = out + i * w;
        for (i64 j = 0; j < w; j++) {
            double v = x[j] * inv[i];
            x[j] = v;
            o[j] = v * gamma[j] + beta[j];
        }
    }
}

/* LayerNorm's input gradient, in place on g = gxh:
 * g -= m1; g -= xhat * m2; g *= inv, with m1, m2, inv per row. */
void repro_ln_vjp64(double* restrict g, i64 n, i64 w,
                    const double* restrict xhat, const double* restrict m1,
                    const double* restrict m2, const double* restrict inv)
{
    for (i64 i = 0; i < n; i++) {
        double* r = g + i * w;
        const double* x = xhat + i * w;
        for (i64 j = 0; j < w; j++)
            r[j] = ((r[j] - m1[i]) - x[j] * m2[i]) * inv[i];
    }
}

/* g *= act > 0: a true multiply by 1.0 or 0.0, as NumPy casts the mask
 * (so -x * 0.0 is -0.0 and a NaN in g stays NaN) */
void repro_relu_mask64(double* restrict g, const double* restrict act, i64 n)
{
    for (i64 i = 0; i < n; i++)
        g[i] = g[i] * (act[i] > 0.0 ? 1.0 : 0.0);
}

/* CSR segment sum with unit weights: out row i adds the rows order[k]
 * (row k when order is NULL) for k in [indptr[i], indptr[i+1]), in k
 * order, from +0.0 -- scipy's csr_matvecs, whose 1.0 * x is exact. */
void repro_segsum64(const double* restrict v, i64 w,
                    const i64* restrict indptr, const i64* restrict order,
                    i64 n, double* restrict out)
{
    for (i64 i = 0; i < n; i++) {
        double* o = out + i * w;
        for (i64 j = 0; j < w; j++)
            o[j] = 0.0;
        for (i64 k = indptr[i]; k < indptr[i + 1]; k++) {
            const double* m = v + (order ? order[k] : k) * w;
            for (i64 j = 0; j < w; j++)
                o[j] += m[j];
        }
    }
}
"""

_FLAGS_COMMON = ["-O3", "-march=native", "-fPIC"]
_FLAGS_LN = ["-fno-math-errno", "-fassociative-math", "-fno-signed-zeros",
             "-fno-trapping-math", "-freciprocal-math"]
_FLAGS_F64 = ["-ffp-contract=off"]

#: (object name, source, extra flags) of each translation unit
_UNITS = (("strict", _SRC_STRICT, ()), ("ln", _SRC_LN, _FLAGS_LN),
          ("float64", _SRC_F64, _FLAGS_F64))


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


#: padded widths of the fused edge pass's register-blocked paths
_EDGE_LANES = (16, 32, 64, 128)


def _lanes(width: int) -> int | None:
    return next((p for p in _EDGE_LANES if width <= p), None)


class EdgePassWeights(NamedTuple):
    """An edge MLP's float32 weights in :meth:`CpuKernels.edge_pass`'s
    layout: every width padded with zeros to 16, 32, 64 or 128 lanes,
    row-major. ``w_send``/``w_recv``/``b0`` are the first layer's node
    blocks for the sgemm projections; ``pack`` holds the rest, 64-byte
    aligned."""

    latent: int
    hidden: int
    depth: int
    eps: float
    w_send: np.ndarray
    w_recv: np.ndarray
    b0: np.ndarray
    pack: np.ndarray


def edge_pass_weights(weights, biases, gamma, beta,
                      eps: float) -> EdgePassWeights | None:
    """Padded copies of the edge MLP ``weights[0]: (3·L, H) … weights[-1]:
    (H, L)`` with LayerNorm, or ``None`` when the edge pass does not
    cover it: no hidden layer, no LayerNorm, or L or H above 128."""
    depth = len(weights)
    if depth < 2 or gamma is None:
        return None
    lat, hid = weights[-1].shape[1], weights[0].shape[1]
    pl, ph = _lanes(lat), _lanes(hid)
    if (pl is None or ph is None or weights[0].shape[0] != 3 * lat
            or any(w.shape != (hid, hid) for w in weights[1:-1])
            or weights[-1].shape[0] != hid):
        return None

    def pad(a, cols):
        a = np.atleast_2d(a)
        out = np.zeros((a.shape[0], cols), dtype=np.float32)
        out[:, :a.shape[1]] = a
        return out

    parts = ([pad(weights[0][:lat], ph)]
             + [pad(w, ph) for w in weights[1:-1]]
             + [pad(weights[-1], pl)]
             + [pad(b, ph) for b in biases[1:-1]]
             + [pad(v, pl) for v in (biases[-1], gamma, beta,
                                     np.ones(lat, dtype=np.float32))])
    flat = np.concatenate([p.ravel() for p in parts])
    raw = np.empty(flat.size + 16, dtype=np.float32)
    start = (-raw.ctypes.data // 4) % 16
    pack = raw[start:start + flat.size]
    pack[:] = flat
    return EdgePassWeights(lat, hid, depth, float(eps),
                           pad(weights[0][lat:2 * lat], ph),
                           pad(weights[0][2 * lat:], ph),
                           pad(biases[0], ph)[0], pack)


class CpuKernels:
    """Thin validating wrappers over the compiled kernels.

    Every float32 method mutates its first argument in place (except
    :meth:`segment_sum`, which fills ``out``, and :meth:`edge_pass`,
    which fills ``agg`` and adds to ``edges``); the ``mpm_*`` methods fill
    the output arrays they are given, and the ``*64`` tape methods
    mutate their first argument or fill ``out``. Arrays must be
    C-contiguous float32 (float64 for ``mpm_*`` and ``*64``); index
    arrays must be int64 (``np.intp`` on all supported platforms).
    """

    def __init__(self, ffi, lib):
        self._ffi = ffi
        self._lib = lib

    def _f32(self, a: np.ndarray, shape: tuple | None = None):
        if a.dtype != np.float32 or not a.flags.c_contiguous:
            raise TypeError("accel kernels need C-contiguous float32 arrays")
        if shape is not None and a.shape != shape:
            raise ValueError(f"expected shape {shape}, got {a.shape}")
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
            raise TypeError("accel float64 kernels need C-contiguous "
                            "float64 arrays")
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

    def edge_pass(self, weights: EdgePassWeights, edges: np.ndarray,
                  proj_s: np.ndarray, proj_r: np.ndarray,
                  senders: np.ndarray, receivers: np.ndarray,
                  agg: np.ndarray, residual: bool) -> np.ndarray:
        """The edge side of one interaction-network block in one pass:
        each edge's message ``LN(MLP([e, v_s, v_r]))``, from the first
        layer's node projections ``proj_s = v @ W_s + b0`` and ``proj_r
        = v @ W_r`` (``weights.w_send``/``w_recv``/``b0``), is summed
        into ``agg[receiver]`` in edge order (``agg`` is overwritten)
        and, with ``residual``, added to ``edges`` in place. Indices
        outside ``[0, len(agg))`` raise ``IndexError`` before ``agg`` or
        ``edges`` changes. Returns ``agg``."""
        e = edges.shape[0]
        n = agg.shape[0]
        lat, hid, depth = weights.latent, weights.hidden, weights.depth
        pl, ph = _lanes(lat), weights.b0.shape[0]
        if (pl is None or depth < 2 or ph != _lanes(hid)
                or weights.pack.shape != (
                    (lat + (depth - 2) * (hid + 1)) * ph
                    + (hid + 4) * pl,)):
            raise ValueError("edge_pass weights are not in the layout of "
                             "edge_pass_weights")
        bad = self._lib.repro_edge_pass32(
            e, n, lat, hid, depth, pl // 16, ph // 16,
            self._f32(edges, (e, lat)),
            self._f32(proj_s, (n, ph)), self._f32(proj_r, (n, ph)),
            self._i64(senders, (e,)), self._i64(receivers, (e,)),
            self._f32(weights.pack), weights.eps, 1 if residual else 0,
            self._f32(agg, (n, lat)))
        if bad >= 0:
            raise IndexError(f"edge {bad}: node index outside [0, {n})")
        return agg

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

    # -- float64 tape glue (bitwise-equal to the NumPy expressions) ------
    def relu64(self, h: np.ndarray) -> np.ndarray:
        """In-place ``np.maximum(h, 0.0, out=h)``."""
        self._lib.repro_relu64(self._f64(h, h.shape), h.size)
        return h

    def bias_relu64(self, h: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """In-place ``h += bias; np.maximum(h, 0.0, out=h)`` on ``(n, w)``
        rows."""
        n, w = h.shape
        self._lib.repro_bias_relu64(self._f64(h, (n, w)), n, w,
                                    self._f64(bias, (w,)))
        return h

    def gather2_add_relu64(self, h: np.ndarray, proj_s: np.ndarray,
                           proj_r: np.ndarray, senders: np.ndarray,
                           receivers: np.ndarray) -> np.ndarray:
        """In-place ``h += proj_s[senders]; h += proj_r[receivers]`` and
        the ReLU: the split edge first layer. Indices outside
        ``[0, len(proj_s))`` raise ``IndexError`` before ``h`` changes."""
        e, w = h.shape
        n = proj_s.shape[0]
        bad = self._lib.repro_gather2_add_relu64(
            self._f64(h, (e, w)), e, w, n, self._f64(proj_s, (n, w)),
            self._f64(proj_r, (n, w)), self._i64(senders, (e,)),
            self._i64(receivers, (e,)))
        if bad >= 0:
            raise IndexError(f"edge {bad}: node index outside [0, {n})")
        return h

    def ln_affine64(self, xhat: np.ndarray, inv: np.ndarray,
                    gamma: np.ndarray, beta: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        """LayerNorm's tail on centred rows: ``xhat *= inv[:, None]`` in
        place, then ``out = xhat * gamma + beta``; returns ``out``."""
        n, w = xhat.shape
        self._lib.repro_ln_affine64(
            self._f64(xhat, (n, w)), n, w, self._f64(inv, (n,)),
            self._f64(gamma, (w,)), self._f64(beta, (w,)),
            self._f64(out, (n, w)))
        return out

    def ln_vjp64(self, g: np.ndarray, xhat: np.ndarray, m1: np.ndarray,
                 m2: np.ndarray, inv: np.ndarray) -> np.ndarray:
        """In-place ``g -= m1[:, None]; g -= xhat * m2[:, None];
        g *= inv[:, None]``: LayerNorm's input gradient from ``g`` =
        upstream·γ."""
        n, w = g.shape
        self._lib.repro_ln_vjp64(
            self._f64(g, (n, w)), n, w, self._f64(xhat, (n, w)),
            self._f64(m1, (n,)), self._f64(m2, (n,)), self._f64(inv, (n,)))
        return g

    def relu_mask64(self, g: np.ndarray, act: np.ndarray) -> np.ndarray:
        """In-place ``g *= act > 0`` (no boolean temporary)."""
        self._lib.repro_relu_mask64(self._f64(g, g.shape),
                                    self._f64(act, g.shape), g.size)
        return g

    def segment_sum64(self, values: np.ndarray, indptr: np.ndarray,
                      order: np.ndarray | None,
                      out: np.ndarray) -> np.ndarray:
        """``out[i] = Σ values[order[k]]`` for ``k`` in
        ``indptr[i]:indptr[i+1]`` (``values[k]`` when ``order`` is
        ``None``), summed in ``k`` order from +0.0: bitwise-equal to
        :meth:`repro.autodiff.SortedSegments.matrix` ``@ values``."""
        e, w = values.shape
        n = out.shape[0]
        if indptr.shape != (n + 1,) or int(indptr[0]) != 0 \
                or int(indptr[-1]) != e:
            raise ValueError("indptr does not cover the edges once")
        self._lib.repro_segsum64(
            self._f64(values, (e, w)), w, self._i64(indptr),
            self._ffi.NULL if order is None else self._i64(order, (e,)),
            n, self._f64(out, (n, w)))
        return out


_KERNELS: CpuKernels | None = None
_TRIED = False
_BUILD_ERROR: str | None = None


def toolchain_missing() -> str | None:
    """Why the compiled kernels are legitimately absent — cffi or the C
    compiler is missing — else ``None``. When this is ``None`` and
    :func:`kernels` still returns ``None``, the build failed, and
    :func:`build_error` says how."""
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
