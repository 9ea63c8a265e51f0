"""Result cache: LRU eviction, key sensitivity, integrity verification
under injected corruption."""

import numpy as np
import pytest

from repro.resilience import arm_faults, disarm_faults
from repro.serve import ResultCache, checkpoint_fingerprint, request_cache_key
from repro.serve.synthetic import synthetic_simulator


@pytest.fixture(autouse=True)
def _clean_injector():
    disarm_faults()
    yield
    disarm_faults()


def _key(i, seed=None):
    if seed is None:
        seed = np.full((2, 3, 2), float(i))
    return request_cache_key("ck", ("rollout", i), seed)


class TestResultCache:
    def test_roundtrip_returns_copy(self):
        cache = ResultCache(capacity=4)
        frames = np.arange(12.0).reshape(1, 2, 3, 2)
        cache.put(_key(0), frames)
        got = cache.get(_key(0))
        np.testing.assert_array_equal(got, frames)
        got[...] = -1.0                      # caller mutation must not
        np.testing.assert_array_equal(cache.get(_key(0)), frames)

    def test_stored_copy_detached_from_caller(self):
        cache = ResultCache(capacity=4)
        frames = np.ones((1, 2, 3, 2))
        cache.put(_key(0), frames)
        frames[...] = 9.0                    # producer mutation either
        np.testing.assert_array_equal(cache.get(_key(0)),
                                      np.ones((1, 2, 3, 2)))

    def test_lru_evicts_oldest(self):
        cache = ResultCache(capacity=2)
        for i in range(3):
            cache.put(_key(i), np.full((1, 1, 1, 2), float(i)))
        assert cache.get(_key(0)) is None    # evicted
        assert cache.get(_key(1)) is not None
        assert cache.get(_key(2)) is not None

    def test_get_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        cache.put(_key(0), np.zeros((1, 1, 1, 2)))
        cache.put(_key(1), np.zeros((1, 1, 1, 2)))
        cache.get(_key(0))                   # 0 is now most-recent
        cache.put(_key(2), np.zeros((1, 1, 1, 2)))
        assert cache.get(_key(0)) is not None
        assert cache.get(_key(1)) is None    # 1 was the LRU victim

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put(_key(0), np.zeros((1, 1, 1, 2)))
        assert cache.get(_key(0)) is None
        assert cache.stats()["entries"] == 0

    def test_corruption_detected_and_evicted(self):
        cache = ResultCache(capacity=4)
        frames = np.arange(8.0).reshape(1, 1, 4, 2)
        arm_faults("serve.cache_corrupt@0")
        cache.put(_key(0), frames)           # stored bytes flipped
        disarm_faults()
        assert cache.get(_key(0)) is None    # checksum mismatch -> miss
        assert cache.get(_key(0)) is None    # and the entry is gone
        stats = cache.stats()
        assert stats["corruptions"] == 1
        assert stats["entries"] == 0
        # a clean re-put serves normally again
        cache.put(_key(0), frames)
        np.testing.assert_array_equal(cache.get(_key(0)), frames)


class TestCacheKeys:
    def test_seed_frames_change_key(self):
        a = _key(0, np.zeros((2, 3, 2)))
        b = _key(0, np.full((2, 3, 2), 1e-9))
        assert a != b

    def test_config_tuple_changes_key(self):
        seed = np.zeros((2, 3, 2))
        assert (request_cache_key("ck", ("rollout", 5, 30.0), seed)
                != request_cache_key("ck", ("rollout", 5, 35.0), seed))

    def test_checkpoint_changes_key(self):
        seed = np.zeros((2, 3, 2))
        assert (request_cache_key("ck-a", ("rollout",), seed)
                != request_cache_key("ck-b", ("rollout",), seed))


class TestCheckpointFingerprint:
    def test_deterministic_and_weight_sensitive(self):
        sim = synthetic_simulator(seed=1)
        fp1 = checkpoint_fingerprint(sim)
        assert fp1 == checkpoint_fingerprint(sim)
        assert fp1 != checkpoint_fingerprint(synthetic_simulator(seed=2))

    def test_mutating_weights_changes_fingerprint(self):
        sim = synthetic_simulator(seed=1)
        before = checkpoint_fingerprint(sim)
        state = sim.state_dict()
        key = sorted(state)[0]
        state[key] = state[key] + 1e-6
        sim.load_state_dict(state)
        assert checkpoint_fingerprint(sim) != before
