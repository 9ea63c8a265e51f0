"""Cross-cutting physical and mathematical invariants (property-based).

These are the guarantees the paper's claims rest on:

* GNS outputs are permutation-equivariant and translation-invariant,
* autodiff satisfies algebraic gradient identities,
* MPM transfers conserve mass/momentum for arbitrary interior states,
* the spring system respects Newton's third law for any configuration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.gns import FeatureConfig, GNSNetworkConfig, LearnedSimulator

BOUNDS = np.array([[0.0, 1.0], [0.0, 1.0]])


def _sim(attention=False):
    fc = FeatureConfig(connectivity_radius=0.3, history=2, bounds=None)
    nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8,
                          mlp_hidden_layers=1, message_passing_steps=2,
                          attention=attention)
    return LearnedSimulator(fc, nc, rng=np.random.default_rng(0))


def _history(rng, n):
    base = rng.uniform(0.2, 0.8, size=(n, 2))
    return [base, base + rng.normal(0, 0.003, (n, 2)),
            base + rng.normal(0, 0.003, (n, 2))]


def _step(sim, hist):
    """One predicted frame through the inference engine."""
    return sim.rollout(np.stack(hist), 1)[-1]


class TestGNSInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=0, max_value=1000))
    def test_permutation_equivariance_of_step(self, n, seed):
        """Relabeling particles permutes the prediction identically."""
        sim = _sim()
        rng = np.random.default_rng(seed)
        hist = _history(rng, n)
        out = _step(sim, hist)

        perm = rng.permutation(n)
        hist_p = [h[perm] for h in hist]
        out_p = _step(sim, hist_p)
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.floats(min_value=-0.1, max_value=0.1),
           st.floats(min_value=-0.1, max_value=0.1))
    def test_translation_equivariance_without_boundaries(self, seed, dx, dy):
        """With no wall features, shifting the system shifts the output."""
        sim = _sim()
        rng = np.random.default_rng(seed)
        hist = _history(rng, 6)
        shift = np.array([dx, dy])
        out = _step(sim, hist)
        out_shifted = _step(sim, [h + shift for h in hist])
        np.testing.assert_allclose(out_shifted, out + shift, atol=1e-9)

    def test_attention_variant_shares_invariances(self):
        sim = _sim(attention=True)
        rng = np.random.default_rng(3)
        hist = _history(rng, 8)
        out = _step(sim, hist)
        perm = rng.permutation(8)
        out_p = _step(sim, [h[perm] for h in hist])
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


class TestAutodiffIdentities:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_product_rule_gradient(self, seed):
        """grad of (a*b).sum wrt a must equal b."""
        rng = np.random.default_rng(seed)
        a_val = rng.normal(size=(4, 3))
        b_val = rng.normal(size=(4, 3))
        a = Tensor(a_val, requires_grad=True)
        (a * Tensor(b_val)).sum().backward()
        np.testing.assert_allclose(a.grad, b_val)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_distributivity_of_gradients(self, seed):
        """d/dx [(x+y)*z] == d/dx [x*z + y*z] for all x,y,z."""
        rng = np.random.default_rng(seed)
        x_val = rng.normal(size=5)
        y = Tensor(rng.normal(size=5))
        z = Tensor(rng.normal(size=5))

        x1 = Tensor(x_val.copy(), requires_grad=True)
        (((x1 + y) * z).sum()).backward()
        x2 = Tensor(x_val.copy(), requires_grad=True)
        ((x2 * z + y * z).sum()).backward()
        np.testing.assert_allclose(x1.grad, x2.grad, rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_chain_rule_through_exp_log(self, seed):
        """d/dx log(exp(x)) == 1 for all x (safe range)."""
        rng = np.random.default_rng(seed)
        x_val = rng.uniform(-3, 3, size=6)
        x = Tensor(x_val, requires_grad=True)
        x.exp().log().sum().backward()
        np.testing.assert_allclose(x.grad, 1.0, rtol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_linearity_of_backward(self, seed):
        """backward(αg) == α·backward(g)."""
        rng = np.random.default_rng(seed)
        x_val = rng.normal(size=4)
        alpha = 3.7

        x1 = Tensor(x_val.copy(), requires_grad=True)
        y1 = (x1 * x1)
        y1.backward(np.ones(4))
        x2 = Tensor(x_val.copy(), requires_grad=True)
        y2 = (x2 * x2)
        y2.backward(alpha * np.ones(4))
        np.testing.assert_allclose(x2.grad, alpha * x1.grad, rtol=1e-12)


class TestMPMInvariants:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_p2g_conserves_momentum_for_random_states(self, seed):
        """One gravity-free step preserves total momentum for arbitrary
        interior particle states."""
        from repro.mpm import Grid, BoxBoundary, LinearElastic, MPMConfig, \
            MPMSolver, Particles

        rng = np.random.default_rng(seed)
        grid = Grid((1.0, 1.0), 1.0 / 16, BoxBoundary(friction=0.0,
                                                      mode="slip"))
        mat = LinearElastic(density=1000.0, youngs_modulus=1e5,
                            poisson_ratio=0.3)
        n = 30
        pos = rng.uniform(0.35, 0.65, size=(n, 2))
        vol = np.full(n, (1.0 / 32) ** 2)
        p = Particles(positions=pos,
                      velocities=rng.normal(0, 0.5, size=(n, 2)),
                      masses=vol * 1000.0, volumes=vol,
                      stresses=np.zeros((n, 2, 2)), sigma_zz=np.zeros(n))
        solver = MPMSolver(grid, p, mat, MPMConfig(gravity=(0.0, 0.0)))
        mom0 = p.total_momentum()
        solver.step(dt=1e-4)
        np.testing.assert_allclose(p.total_momentum(), mom0, rtol=1e-6,
                                   atol=1e-9)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_mpm_grid_translation_invariance(self, seed):
        """Shifting a gravity-free system by whole cells shifts the result."""
        from repro.mpm import Grid, BoxBoundary, LinearElastic, MPMConfig, \
            MPMSolver, Particles

        rng = np.random.default_rng(seed)
        h = 1.0 / 16

        def run(shift_cells):
            grid = Grid((1.0, 1.0), h, BoxBoundary(friction=0.0, mode="slip"))
            mat = LinearElastic(density=1000.0, youngs_modulus=1e5,
                                poisson_ratio=0.3)
            n = 20
            rng_local = np.random.default_rng(seed)
            pos = rng_local.uniform(0.3, 0.5, size=(n, 2)) + shift_cells * h
            vol = np.full(n, (h / 2) ** 2)
            p = Particles(positions=pos,
                          velocities=rng_local.normal(0, 0.3, size=(n, 2)),
                          masses=vol * 1000.0, volumes=vol,
                          stresses=np.zeros((n, 2, 2)),
                          sigma_zz=np.zeros(n))
            s = MPMSolver(grid, p, mat, MPMConfig(gravity=(0.0, 0.0)))
            for _ in range(5):
                s.step(dt=1e-4)
            return p.positions

        base = run(0)
        shifted = run(2)
        np.testing.assert_allclose(shifted, base + 2 * (1.0 / 16), atol=1e-12)


class TestSpringInvariants:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=10_000))
    def test_newtons_third_law_any_configuration(self, n, seed):
        from repro.nbody import SpringSystem

        sys = SpringSystem.random(n=n, seed=seed)
        np.testing.assert_allclose(sys.forces().sum(axis=0), 0.0, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=10_000))
    def test_forces_invariant_under_translation(self, n, seed):
        from repro.nbody import SpringSystem

        sys = SpringSystem.random(n=n, seed=seed)
        f0 = sys.forces()
        sys.positions = sys.positions + np.array([3.7, -1.2])
        np.testing.assert_allclose(sys.forces(), f0, atol=1e-9)
