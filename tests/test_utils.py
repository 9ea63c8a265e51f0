"""Tests for profiling and seeding utilities."""

import numpy as np
import pytest

from repro.obs import profile_block
from repro.utils import seed_everything, spawn_rngs


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

    def test_seed_everything_deprecated_no_global_side_effect(self):
        np.random.seed(123)  # lint: ignore[DET001] — asserting it is untouched
        before = np.random.get_state()[1].copy()  # lint: ignore[DET001]
        with pytest.warns(DeprecationWarning):
            rng = seed_everything(7)
        after = np.random.get_state()[1]  # lint: ignore[DET001]
        np.testing.assert_array_equal(before, after)
        assert isinstance(rng, np.random.Generator)

    def test_seed_everything_legacy_global_optin(self):
        with pytest.warns(DeprecationWarning):
            seed_everything(7, legacy_global=True)
        x = np.random.rand(3)  # lint: ignore[DET001] — legacy escape hatch
        with pytest.warns(DeprecationWarning):
            seed_everything(7, legacy_global=True)
        np.testing.assert_array_equal(np.random.rand(3), x)  # lint: ignore[DET001]
