"""Tests for profiling and seeding utilities."""

import numpy as np

from repro.obs import profile_block
from repro.utils import spawn_rngs


class TestProfiling:
    def test_profile_block_prints(self, capsys):
        with profile_block(limit=3):
            np.linalg.svd(np.random.default_rng(0).normal(size=(50, 50)))
        out = capsys.readouterr().out
        assert "function calls" in out


class TestSeeding:
    def test_spawn_rngs_independent(self):
        a, b = spawn_rngs(0, 2)
        assert not np.allclose(a.normal(size=5), b.normal(size=5))

    def test_spawn_rngs_reproducible(self):
        a1, _ = spawn_rngs(42, 2)
        a2, _ = spawn_rngs(42, 2)
        np.testing.assert_array_equal(a1.normal(size=5), a2.normal(size=5))

    def test_make_rng_matches_default_rng(self):
        from repro.utils import make_rng

        a = make_rng(7).normal(size=5)
        b = np.random.default_rng(7).normal(size=5)
        np.testing.assert_array_equal(a, b)

