"""Runtime-compiled C kernels (:mod:`repro.accel`): parity with the
numpy reference, IEEE semantics (NaN propagation), and the input
validation contract. The module is skipped only where the kernels are
legitimately absent — no C compiler or no cffi; the numpy fallback is
what runs then anyway. A kernel build that fails on a working toolchain
fails these tests with the compiler's output instead of skipping them."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.accel import build_error, kernels, toolchain_missing

pytestmark = pytest.mark.skipif(toolchain_missing() is not None,
                                reason=str(toolchain_missing()))

RNG = np.random.default_rng(3)


def _kernels():
    kern = kernels()
    assert kern is not None, f"kernel build failed:\n{build_error()}"
    return kern


def test_kernels_build():
    """A working toolchain must produce the kernels."""
    _kernels()


def test_failed_build_is_reported(monkeypatch, tmp_path):
    """A compile error leaves ``kernels()`` at ``None`` (the numpy
    fallback) and keeps the compiler's stderr for ``build_error()``."""
    from repro.accel import cpu

    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(cpu, "_UNITS", (
        ("broken", "int repro_broken(void) { return undeclared_name; }\n",
         ()),) + cpu._UNITS)
    monkeypatch.setattr(cpu, "_TRIED", False)
    monkeypatch.setattr(cpu, "_KERNELS", None)
    monkeypatch.setattr(cpu, "_BUILD_ERROR", None)
    assert cpu.toolchain_missing() is None
    assert cpu.kernels() is None
    assert "CalledProcessError" in cpu.build_error()
    assert "undeclared_name" in cpu.build_error()


def _f32(shape):
    return RNG.normal(size=shape).astype(np.float32)


class TestElementwise:
    def test_relu_matches_numpy(self):
        kern = _kernels()
        h = _f32((40, 16))
        expect = np.maximum(h, 0.0)
        kern.relu(h)
        np.testing.assert_array_equal(h, expect)

    def test_relu_propagates_nan(self):
        kern = _kernels()
        h = _f32((4, 4))
        h[1, 2] = np.nan
        kern.relu(h)
        assert np.isnan(h[1, 2])

    def test_bias_relu(self):
        kern = _kernels()
        h = _f32((30, 8))
        b = _f32(8)
        expect = np.maximum(h + b, 0.0)
        kern.bias_relu(h, b)
        np.testing.assert_array_equal(h, expect)

    def test_ln_close_to_f64_reference(self):
        kern = _kernels()
        h = _f32((50, 32))
        gamma, beta = _f32(32), _f32(32)
        x = h.astype(np.float64)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        ref = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
        kern.ln(h, gamma, beta, 1e-5)
        np.testing.assert_allclose(h, ref, atol=5e-6)

    def test_bias_ln(self):
        kern = _kernels()
        h = _f32((20, 16))
        b, gamma, beta = _f32(16), _f32(16), _f32(16)
        x = (h.astype(np.float64) + b)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        ref = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
        kern.bias_ln(h, b, gamma, beta, 1e-5)
        np.testing.assert_allclose(h, ref, atol=5e-6)

    def test_ln_propagates_nan(self):
        kern = _kernels()
        h = _f32((3, 8))
        h[0, 0] = np.nan
        kern.ln(h, np.ones(8, np.float32), np.zeros(8, np.float32), 1e-5)
        assert np.isnan(h[0]).all()
        assert np.isfinite(h[1:]).all()


class TestGraphKernels:
    def test_gather2_add_relu(self):
        kern = _kernels()
        e, n, w = 60, 12, 16
        senders = RNG.integers(0, n, size=e)
        receivers = RNG.integers(0, n, size=e)
        h = _f32((e, w))
        ps, pr = _f32((n, w)), _f32((n, w))
        expect = np.maximum(h + ps[senders] + pr[receivers], 0.0)
        kern.gather2_add_relu(h, ps, pr, senders, receivers)
        np.testing.assert_array_equal(h, expect)

    def test_gather2_add_no_relu(self):
        kern = _kernels()
        e, n, w = 20, 6, 8
        senders = RNG.integers(0, n, size=e)
        receivers = RNG.integers(0, n, size=e)
        h = _f32((e, w))
        ps, pr = _f32((n, w)), _f32((n, w))
        expect = h + ps[senders] + pr[receivers]
        kern.gather2_add_relu(h, ps, pr, senders, receivers, relu=False)
        np.testing.assert_array_equal(h, expect)

    def test_segment_sum_bitwise_vs_csr(self):
        kern = _kernels()
        e, n, w = 120, 25, 8
        idx = np.sort(RNG.integers(0, n, size=e))
        msgs = _f32((e, w))
        indptr = np.searchsorted(idx, np.arange(n + 1)).astype(np.int64)
        mat = sparse.csr_matrix(
            (np.ones(e, dtype=np.float32),
             np.arange(e, dtype=np.int32), indptr), shape=(n, e))
        expect = np.asarray(mat @ msgs)
        out = np.empty((n, w), dtype=np.float32)
        kern.segment_sum(msgs, indptr, out)
        np.testing.assert_array_equal(out, expect)

    def test_segment_sum_empty_segments(self):
        kern = _kernels()
        idx = np.array([1, 1, 3])
        msgs = _f32((3, 4))
        indptr = np.searchsorted(idx, np.arange(6)).astype(np.int64)
        out = np.empty((5, 4), dtype=np.float32)
        kern.segment_sum(msgs, indptr, out)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_array_equal(out[2], 0.0)
        np.testing.assert_array_equal(out[4], 0.0)
        np.testing.assert_array_equal(out[1], msgs[0] + msgs[1])


class TestValidation:
    def test_wrong_dtype_rejected(self):
        kern = _kernels()
        with pytest.raises(TypeError):
            kern.relu(np.ones((3, 3), dtype=np.float64))

    def test_non_contiguous_rejected(self):
        kern = _kernels()
        h = np.ones((6, 6), dtype=np.float32)[:, ::2]
        with pytest.raises(TypeError):
            kern.relu(h)

    def test_bad_indptr_rejected(self):
        kern = _kernels()
        msgs = np.ones((3, 2), dtype=np.float32)
        indptr = np.array([0, 1, 2], dtype=np.int64)  # [-1] != e
        out = np.empty((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            kern.segment_sum(msgs, indptr, out)


def test_kill_switch(monkeypatch):
    """Under ``REPRO_BACKEND=numpy`` no kernels are reported, and a
    fresh process compiles nothing: the probe is never even tried."""
    from repro.accel import cpu
    from repro.backend import get_backend

    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    monkeypatch.setattr(cpu, "_TRIED", False)
    monkeypatch.setattr(cpu, "_KERNELS", None)
    assert get_backend().float32_kernels() is None
    assert cpu._TRIED is False


class TestMpmKernels:
    """The float64 MPM kernels' contract beyond the step-level bitwise
    gate in ``tests/test_mpm_transfer.py``."""

    DIMS = (11, 9)
    H = 0.1

    def _pos(self, n):
        return RNG.uniform(0.25, 0.75, size=(n, 2))

    @pytest.mark.parametrize("quadratic", [False, True])
    def test_shape_equals_numpy_kernel_transposed(self, quadratic):
        from repro.mpm import make_shape
        pos = self._pos(37)
        ref = make_shape("quadratic" if quadratic else "linear")(
            pos, self.H, self.DIMS)
        k = ref.nodes.shape[0]
        nodes = np.empty((37, k), dtype=np.int64)
        w = np.empty((37, k), dtype=np.float64)
        dw = np.empty((37, k, 2), dtype=np.float64)
        assert _kernels().mpm_shape(quadratic, pos, self.H, self.DIMS,
                                    nodes, w, dw) == -1
        assert np.array_equal(nodes, ref.nodes.T)
        assert np.array_equal(w, ref.weights.T)
        assert np.array_equal(dw, ref.grads.transpose(2, 1, 0))

    @pytest.mark.parametrize("bad", [np.nan, -0.01, 1.05])
    def test_shape_names_first_particle_off_grid(self, bad):
        pos = self._pos(6)
        pos[4, 1] = bad
        pos[5, 0] = bad
        out = (np.empty((6, 9), dtype=np.int64), np.empty((6, 9)),
               np.empty((6, 9, 2)))
        assert _kernels().mpm_shape(True, pos, self.H, self.DIMS,
                                    *out) == 4

    def test_node_ids_off_grid_raise(self):
        kern = _kernels()
        n, k, nn = 3, 4, 20
        nodes = np.zeros((n, k), dtype=np.int64)
        nodes[1, 2] = nn
        w, dw = np.full((n, k), 0.25), np.zeros((n, k, 2))
        ones, vec, ten = np.ones(n), np.zeros((n, 2)), np.zeros((n, 2, 2))
        grid = np.zeros(nn), np.zeros((nn, 2)), np.zeros((nn, 2))
        with pytest.raises(IndexError, match="pair 6"):
            kern.mpm_p2g(nodes, w, dw, ones, vec, ones, ten, (0.0, -9.81),
                         *grid)
        nodes[1, 2] = -1
        with pytest.raises(IndexError, match="pair 6"):
            kern.mpm_g2p(nodes, w, dw, grid[1], grid[2], vec, vec, ones,
                         0.98, 1e-3, (0.0, 1.0, 0.0, 1.0), np.empty((n, 2)),
                         np.empty((n, 2)), np.empty(n), np.empty((n, 2, 2)),
                         np.empty((n, 2, 2)))

    def test_float32_and_strided_rejected(self):
        kern = _kernels()
        out = (np.empty((4, 9), dtype=np.int64), np.empty((4, 9)),
               np.empty((4, 9, 2)))
        with pytest.raises(TypeError):
            kern.mpm_shape(True, self._pos(4).astype(np.float32), self.H,
                           self.DIMS, *out)
        with pytest.raises(TypeError):
            kern.mpm_shape(True, self._pos(8)[::2], self.H, self.DIMS, *out)
        with pytest.raises(ValueError):
            kern.mpm_shape(True, self._pos(5), self.H, self.DIMS, *out)


def _stress_state(n, seed=0, dt=1e-3):
    """``n`` particles' material ids, stresses, ``sigma_zz``, strain and
    spin increments (``0.5 (L ± Lᵀ) dt``, so the spin's diagonal is an
    exact zero) spread over every Drucker–Prager regime: deep
    compression with a small deviator (elastic), a large deviator (shear
    yield) and tensile mean stress (cutoff)."""
    rng = np.random.default_rng(seed)
    block = np.arange(n) % 3
    mean = np.array([-2e4, -1e3, 6e2])[block]
    dev = np.array([1e2, 8e3, 1e2])[block]
    sig = rng.normal(0.0, 1.0, size=(n, 2, 2)) * dev[:, None, None]
    sig = 0.5 * (sig + sig.transpose(0, 2, 1)) + mean[:, None, None] * np.eye(2)
    szz = mean + rng.normal(0.0, 1.0, size=n) * dev
    lgrad = rng.normal(0.0, 1e-5, size=(n, 2, 2)) / dt
    ids = rng.integers(0, 3, size=n).astype(np.int64)
    return ids, sig, szz, lgrad, dt


def _increments(lgrad, dt):
    lt = lgrad.transpose(0, 2, 1)
    return 0.5 * (lgrad + lt) * dt, 0.5 * (lgrad - lt) * dt


def _assert_same_bits(got, want, name):
    """Equal bit patterns (signed zeros included) where ``want`` is a
    number, and NaN in the same positions."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), name
    assert np.array_equal(got[~nan].view(np.int64),
                          want[~nan].view(np.int64)), name


def _regimes(mat, stresses, szz, strain, spin):
    """Which particles stay elastic, yield in shear, or hit the tension
    cap, read from the NumPy elastic trial and ``yield_surface``."""
    from repro.mpm.materials import LinearElastic
    trial, tzz = LinearElastic.update_stress(mat, stresses, szz, strain,
                                             spin)
    p = (trial[:, 0, 0] + trial[:, 1, 1] + tzz) / 3.0
    dev = np.stack([trial[:, 0, 0] - p, trial[:, 1, 1] - p, tzz - p])
    q = np.sqrt(0.5 * (dev ** 2).sum(axis=0) + trial[:, 0, 1] ** 2)
    alpha, k, p_cut = mat.yield_surface()
    tension = p > p_cut
    shear = ~tension & (q + alpha * p - k > 0.0)
    return {"elastic": int((~tension & ~shear).sum()),
            "shear": int(shear.sum()), "tension": int(tension.sum())}


class TestMpmStress:
    """``mpm_stress`` against ``Material.update_stress`` bit for bit on
    hand-built states that reach every branch of the return mapping —
    the trajectories of the step-level gate reach only some of them."""

    N = 600
    MAT = 1

    def _models(self):
        from repro.mpm import DruckerPrager
        from repro.mpm.materials import LinearElastic
        base = dict(density=1800.0, youngs_modulus=1e7, poisson_ratio=0.3)
        return {
            "elastic": LinearElastic(**base),
            "dp": DruckerPrager(**base, friction_angle=30.0),
            "dp-cohesion-cutoff": DruckerPrager(
                **base, friction_angle=35.0, cohesion=500.0,
                tension_cutoff=100.0),
            "dp-frictionless": DruckerPrager(**base, friction_angle=0.0,
                                             cohesion=2e3),
        }

    def _run(self, mat, ids, stresses, szz, strain, spin):
        from repro.mpm import DruckerPrager
        sel = ids == self.MAT
        want_s, want_zz = stresses.copy(), szz.copy()
        s_new, zz_new = mat.update_stress(stresses[sel], szz[sel],
                                          strain[sel], spin[sel])
        want_s[sel], want_zz[sel] = s_new, zz_new
        got_s, got_zz = stresses.copy(), szz.copy()
        cone = mat.yield_surface() if type(mat) is DruckerPrager else None
        _kernels().mpm_stress(ids, self.MAT, mat.lam, 2.0 * mat.mu, cone,
                              strain, spin, got_s, got_zz)
        _assert_same_bits(got_s, want_s, "stresses")
        _assert_same_bits(got_zz, want_zz, "sigma_zz")
        # every other material's particles untouched, bit for bit
        _assert_same_bits(got_s[~sel], stresses[~sel], "other stresses")
        _assert_same_bits(got_zz[~sel], szz[~sel], "other sigma_zz")

    @pytest.mark.parametrize("model", ["elastic", "dp", "dp-cohesion-cutoff",
                                       "dp-frictionless"])
    def test_bitwise_equal_to_update_stress(self, model):
        mat = self._models()[model]
        ids, sig, szz, lgrad, dt = _stress_state(self.N)
        strain, spin = _increments(lgrad, dt)
        if model != "elastic":
            sel = ids == self.MAT
            seen = _regimes(mat, sig[sel], szz[sel], strain[sel], spin[sel])
            need = {"elastic", "shear"} | (
                set() if model == "dp-frictionless" else {"tension"})
            assert all(seen[r] > 0 for r in need), seen
            if model == "dp-frictionless":
                assert mat.yield_surface()[0] == 0.0
                assert mat.yield_surface()[2] == np.inf
            if model == "dp-cohesion-cutoff":
                alpha, k, p_cut = mat.yield_surface()
                assert 0.0 < p_cut == mat.tension_cutoff < k / alpha
        self._run(mat, ids, sig, szz, strain, spin)

    @pytest.mark.parametrize("model", ["elastic", "dp", "dp-cohesion-cutoff",
                                       "dp-frictionless"])
    def test_degenerate_states(self, model):
        """At rest under hydrostatic stress (J2 = 0, under the 1e-30
        floor), in tension at rest, all-zero, signed zeros — where a
        stacked ``@`` that sums from +0.0 differs from a bare
        ``a0*b0 + a1*b1`` — and NaN in a strain entry, off the diagonal
        or on it (the spin's diagonal then is NaN too)."""
        mat = self._models()[model]
        nz = -0.0
        cases = [  # (stress, sigma_zz, L)
            (-200.0 * np.eye(2), -200.0, np.zeros((2, 2))),
            (200.0 * np.eye(2), 200.0, np.zeros((2, 2))),
            (np.zeros((2, 2)), 0.0, np.zeros((2, 2))),
            (np.full((2, 2), nz), nz, np.array([[nz, 1.0], [0.0, nz]])),
            (-50.0 * np.eye(2), -50.0, np.array([[0.1, np.nan], [0.2, 0.3]])),
            (-50.0 * np.eye(2), -50.0, np.array([[np.nan, 0.1], [0.2, 0.3]])),
        ]
        ids = np.array([self.MAT, 0] * len(cases), dtype=np.int64)
        sig = np.stack([c[0] for c in cases for _ in range(2)])
        szz = np.array([c[1] for c in cases for _ in range(2)])
        lgrad = np.stack([c[2] for c in cases for _ in range(2)])
        strain, spin = _increments(lgrad, 1e-3)
        diagonal = np.diagonal(spin, axis1=1, axis2=2)
        assert np.array_equal(diagonal[:-2], np.zeros((len(ids) - 2, 2)))
        assert np.isnan(diagonal[-2:, 0]).all()
        self._run(mat, ids, sig, szz, strain, spin)

    def test_rejects_float32_strided_and_misshaped(self):
        kern = _kernels()
        ids, sig, szz, lgrad, dt = _stress_state(8)
        strain, spin = _increments(lgrad, dt)
        args = (1e6, 2e6, (0.5, 0.0, 0.0))
        with pytest.raises(TypeError):
            kern.mpm_stress(ids, 1, *args, strain, spin,
                            sig.astype(np.float32), szz)
        with pytest.raises(TypeError):
            kern.mpm_stress(ids, 1, *args, strain, spin, sig,
                            np.repeat(szz, 2)[::2])
        with pytest.raises(TypeError):
            kern.mpm_stress(ids.astype(np.int32), 1, *args, strain, spin,
                            sig, szz)
        with pytest.raises(ValueError):
            kern.mpm_stress(ids, 1, *args, strain[:7], spin, sig, szz)
        with pytest.raises(ValueError):
            kern.mpm_stress(ids, 1, *args, strain, spin,
                            sig.reshape(8, 4), szz)


# quiet NaNs of both signs, one with a payload; the other specials
_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                  0x7FF8000000000123], dtype=np.uint64).view(np.float64)
_SPECIALS = np.concatenate([_NANS, [0.0, -0.0, np.inf, -np.inf, 5e-324,
                                    -5e-324, 2.5e-310, -1e-308]])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _seeded(shape, rng, specials=True) -> np.ndarray:
    """Normal float64 values; with ``specials`` about a third of them
    are replaced by ±0.0, NaNs, ±inf and subnormals."""
    a = rng.normal(size=shape)
    if specials:
        flat = a.reshape(-1)
        where = rng.random(flat.size) < 0.35
        flat[where] = rng.choice(_SPECIALS, size=int(where.sum()))
    return a


class TestTapeKernels:
    """The float64 tape kernels against the NumPy expressions they
    replace, compared as bit patterns. Special values go into one input
    per case, so a result never depends on which of two NaN operands an
    addition or product returns (IEEE leaves that open, and a compiler
    may swap the operands of either)."""

    E, N, W = 37, 9, 13

    @staticmethod
    def _check(got, expect):
        assert got.dtype == expect.dtype == np.float64
        np.testing.assert_array_equal(_bits(got), _bits(expect))

    def test_relu_zero_sign_and_nan(self):
        kern = _kernels()
        h = np.array([-0.0, 0.0, -1.0, 1.0, np.inf, -np.inf, 5e-324,
                      -5e-324, *_NANS])
        expect = np.maximum(h, 0.0)
        kern.relu64(h)
        self._check(h, expect)
        # -0.0 becomes +0.0, as np.maximum gives it
        assert _bits(h)[0] == 0
        assert _bits(h[-3:]).tolist() == _bits(_NANS).tolist()

    @pytest.mark.parametrize("seed", range(3))
    def test_relu(self, seed):
        kern = _kernels()
        h = _seeded((self.E, self.W), np.random.default_rng(seed))
        expect = np.maximum(h, 0.0)
        kern.relu64(h)
        self._check(h, expect)

    @pytest.mark.parametrize("special", ["h", "bias"])
    def test_bias_relu(self, special):
        kern = _kernels()
        rng = np.random.default_rng(11)
        h = _seeded((self.E, self.W), rng, special == "h")
        bias = _seeded(self.W, rng, special == "bias")
        h[0, 0] = bias[0] = -0.0  # -0.0 + -0.0, then the ReLU's +0.0
        expect = h.copy()
        expect += bias
        np.maximum(expect, 0.0, out=expect)
        kern.bias_relu64(h, bias)
        self._check(h, expect)

    @pytest.mark.parametrize("special", ["h", "proj_s", "proj_r"])
    def test_gather2_add_relu(self, special):
        kern = _kernels()
        rng = np.random.default_rng(12)
        e, n, w = self.E, self.N, self.W
        senders = rng.integers(0, n, size=e)
        receivers = rng.integers(0, n, size=e)
        h = _seeded((e, w), rng, special == "h")
        ps = _seeded((n, w), rng, special == "proj_s")
        pr = _seeded((n, w), rng, special == "proj_r")
        h[0, 0] = ps[senders[0], 0] = pr[receivers[0], 0] = -0.0
        expect = h.copy()
        expect += ps.take(senders, axis=0)
        expect += pr.take(receivers, axis=0)
        np.maximum(expect, 0.0, out=expect)
        kern.gather2_add_relu64(h, ps, pr, senders, receivers)
        self._check(h, expect)

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_gather2_index_outside_raises_before_writing(self, bad):
        kern = _kernels()
        rng = np.random.default_rng(13)
        h = rng.normal(size=(4, 3))
        before = h.copy()
        senders = np.array([0, 1, 2, 3])
        receivers = np.array([0, 1, bad, 3])
        ps, pr = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
        with pytest.raises(IndexError, match="edge 2"):
            kern.gather2_add_relu64(h, ps, pr, senders, receivers)
        self._check(h, before)

    @pytest.mark.parametrize("special", ["xhat", "inv", "gamma", "beta"])
    def test_ln_affine(self, special):
        kern = _kernels()
        rng = np.random.default_rng(14)
        c = _seeded((self.E, self.W), rng, special == "xhat")
        inv = _seeded(self.E, rng, special == "inv")
        gamma = _seeded(self.W, rng, special == "gamma")
        beta = _seeded(self.W, rng, special == "beta")
        xhat = c.copy()
        xhat *= inv[:, None]
        expect = xhat * gamma
        expect += beta
        out = np.empty_like(c)
        assert kern.ln_affine64(c, inv, gamma, beta, out) is out
        self._check(c, xhat)
        self._check(out, expect)

    @pytest.mark.parametrize("special", ["g", "xhat", "m1", "m2", "inv"])
    def test_ln_vjp(self, special):
        kern = _kernels()
        rng = np.random.default_rng(15)
        g = _seeded((self.E, self.W), rng, special == "g")
        xhat = _seeded((self.E, self.W), rng, special == "xhat")
        m1, m2, inv = (_seeded(self.E, rng, special == name)
                       for name in ("m1", "m2", "inv"))
        expect = g.copy()
        expect -= m1[:, None]
        expect -= xhat * m2[:, None]
        expect *= inv[:, None]
        kern.ln_vjp64(g, xhat, m1, m2, inv)
        self._check(g, expect)

    @pytest.mark.parametrize("special", ["g", "act"])
    def test_relu_mask(self, special):
        kern = _kernels()
        rng = np.random.default_rng(16)
        g = _seeded((self.E, self.W), rng, special == "g")
        act = _seeded((self.E, self.W), rng, special == "act")
        with np.errstate(invalid="ignore"):  # inf · 0 is NaN on both sides
            expect = g * (act > 0)
        kern.relu_mask64(g, act)
        self._check(g, expect)
        # -x * 0.0 keeps its sign: the kernel multiplies, not selects
        h = np.array([-2.0, 3.0])
        kern.relu_mask64(h, np.array([-1.0, 0.0]))
        assert _bits(h).tolist() == _bits(np.array([-0.0, 0.0])).tolist()

    @staticmethod
    def _segment_values(e, w, rng):
        """Special values with at most one NaN and one sign of infinity
        per column, so no segment adds two NaNs or inf − inf."""
        v = _seeded((e, w), rng, specials=False)
        if e:
            for j in range(w):
                v[rng.integers(e), j] = _NANS[j % len(_NANS)]
                v[rng.integers(e), j] = np.inf if j % 2 else -np.inf
                v[rng.integers(e), j] = -0.0
                v[rng.integers(e), j] = 5e-324
        return v

    @pytest.mark.parametrize("case", [
        "sorted", "unsorted", "empty-segments", "zero-edges", "width-1"])
    def test_segment_sum(self, case):
        from repro.autodiff import SortedSegments

        kern = _kernels()
        rng = np.random.default_rng(17)
        e, n, w = {"zero-edges": (0, 5, 4), "width-1": (40, 7, 1)}.get(
            case, (60, 11, 6))
        if case == "empty-segments":
            index = np.sort(rng.choice([1, 4, 5, 9], size=e))
        else:
            index = rng.integers(0, n, size=e)
            if case != "unsorted":
                index = np.sort(index)
        plan = SortedSegments(index, n)
        assert (plan.order is not None) == (case == "unsorted")
        values = self._segment_values(e, w, rng)
        if e:
            # a segment holding only -0.0 sums to +0.0, as the CSR
            # product's zero-initialised output gives it
            values[np.flatnonzero(index == index[0]), 0] = -0.0
        expect = np.asarray(plan.matrix(np.float64) @ values)
        out = np.full((n, w), np.nan)
        kern.segment_sum64(values, plan.indptr, plan.order, out)
        self._check(out, expect)
        if e:
            assert _bits(out[index[0], :1]).tolist() == [0]

    def test_rejects_float32_strided_and_misshaped(self):
        kern = _kernels()
        rng = np.random.default_rng(18)
        h = rng.normal(size=(6, 4))
        vec = rng.normal(size=6)
        with pytest.raises(TypeError):
            kern.relu64(h.astype(np.float32))
        with pytest.raises(TypeError):
            kern.relu64(rng.normal(size=(6, 8))[:, ::2])
        with pytest.raises(TypeError):
            kern.bias_relu64(h, rng.normal(size=8)[::2])
        with pytest.raises(ValueError):
            kern.bias_relu64(h, rng.normal(size=5))
        with pytest.raises(TypeError):
            kern.relu_mask64(h, h.astype(np.float32))
        with pytest.raises(ValueError):
            kern.relu_mask64(h, h[:5])
        with pytest.raises(ValueError):
            kern.ln_affine64(h, vec[:5], vec[:4], vec[:4], np.empty_like(h))
        with pytest.raises(TypeError):
            kern.ln_affine64(h, vec, vec[:4], vec[:4],
                             np.empty((4, 6)).T)
        with pytest.raises(ValueError):
            kern.ln_vjp64(h, np.ones((6, 3)), vec, vec, vec)
        with pytest.raises(TypeError):
            kern.ln_vjp64(h, h, vec.astype(np.float32), vec, vec)
        senders = np.array([0, 1, 2, 0, 1, 2])
        ps = rng.normal(size=(3, 4))
        with pytest.raises(TypeError):
            kern.gather2_add_relu64(h, ps, ps, senders.astype(np.int32),
                                    senders)
        with pytest.raises(ValueError):
            kern.gather2_add_relu64(h, ps, np.ones((3, 3)), senders,
                                    senders)
        indptr = np.array([0, 2, 6], dtype=np.int64)
        out = np.empty((2, 4))
        with pytest.raises(TypeError):
            kern.segment_sum64(h.astype(np.float32), indptr, None, out)
        with pytest.raises(ValueError):
            kern.segment_sum64(h, np.array([0, 2, 5]), None, out)
        with pytest.raises(ValueError):
            kern.segment_sum64(h, indptr, np.arange(5), out)
        with pytest.raises(ValueError):
            kern.segment_sum64(h, indptr, None, np.empty((2, 3)))
