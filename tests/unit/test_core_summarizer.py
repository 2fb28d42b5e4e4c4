"""Unit tests for repro.core.summarizer."""

import numpy as np
import pytest

from repro import kernels
from repro.core import ReplicaAccessSummary


class TestRecording:
    def test_accesses_counted(self):
        s = ReplicaAccessSummary(max_micro_clusters=10)
        for i in range(5):
            s.record_access(np.array([float(i), 0.0]), bytes_exchanged=100.0)
        assert s.accesses == 5
        assert s.bytes_served == 500.0

    def test_budget_respected(self):
        s = ReplicaAccessSummary(max_micro_clusters=3, radius_floor=0.1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            s.record_access(rng.uniform(-100, 100, size=2))
        assert len(s) <= 3
        assert s.max_micro_clusters == 3

    def test_rejects_negative_bytes(self):
        s = ReplicaAccessSummary()
        with pytest.raises(ValueError, match="non-negative"):
            s.record_access(np.zeros(2), bytes_exchanged=-1.0)

    def test_reset_clears_everything(self):
        s = ReplicaAccessSummary()
        s.record_access(np.zeros(2))
        s.reset()
        assert s.accesses == 0
        assert s.bytes_served == 0.0
        assert len(s) == 0

    def test_snapshot_independent_of_live_state(self):
        s = ReplicaAccessSummary(radius_floor=10.0)
        s.record_access(np.zeros(2))
        snap = s.snapshot()
        s.record_access(np.array([1.0, 1.0]))
        assert snap[0].count == 1

    def test_wire_size_scales_with_clusters_not_accesses(self):
        s = ReplicaAccessSummary(max_micro_clusters=4, radius_floor=1.0)
        rng = np.random.default_rng(1)
        blobs = np.array([[0.0, 0.0], [1000.0, 0.0]])
        for _ in range(1000):
            b = blobs[rng.integers(0, 2)]
            s.record_access(b + rng.normal(0, 0.1, size=2))
        # Thousands of accesses, but the summary is a handful of clusters.
        assert s.wire_size_bytes() <= 4 * (16 + 2 * 8 * 2)
        assert s.wire_size_bytes() > 0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("backend", ["numpy", "python"])
class TestNonFiniteInput:
    """A NaN or infinite coordinate or weight is refused, not folded in:
    it would poison a cluster's sums or become a cluster of its own, and
    the summary ships to ``place_replicas``."""

    def summary_with_history(self):
        s = ReplicaAccessSummary(4, 5.0)
        s.record_batch(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        return s, s.snapshot()

    def assert_untouched(self, s, before):
        assert s.accesses == 2 and s.bytes_served == 2.0
        assert len(s) == len(before)
        for got, want in zip(s.snapshot(), before):
            assert (got.count, got.weight) == (want.count, want.weight)
            np.testing.assert_array_equal(got.linear_sum, want.linear_sum)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_record_batch_names_the_first_bad_point(self, backend, bad):
        rows = np.array([[0.0, 0.0, 0.0], [bad, 1.0, 1.0], [1.0, 0.0, 0.0],
                         [50.0, 0.0, 0.0], [0.5, bad, 0.0]])
        with kernels.use_backend(backend):
            s, before = self.summary_with_history()
            with pytest.raises(ValueError, match="row 1 is not finite"):
                s.record_batch(rows)
        self.assert_untouched(s, before)

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_record_batch_refuses_a_bad_weight(self, backend, bad):
        with kernels.use_backend(backend):
            s, before = self.summary_with_history()
            with pytest.raises(ValueError, match="row 2 is not finite"):
                s.record_batch(np.zeros((3, 3)), np.array([1.0, 2.0, bad]))
        self.assert_untouched(s, before)

    @pytest.mark.parametrize("point, weight", [
        ([NAN, 1.0, 1.0], 1.0), ([INF, 0.0, 0.0], 1.0),
        ([0.0, 0.0, 0.0], NAN), ([0.0, 0.0, 0.0], INF)])
    def test_record_access_refuses_it(self, backend, point, weight):
        with kernels.use_backend(backend):
            s, before = self.summary_with_history()
            with pytest.raises(ValueError, match="not finite"):
                s.record_access(np.array(point), weight)
        self.assert_untouched(s, before)


class TestDecay:
    def test_decay_validation(self):
        with pytest.raises(ValueError, match="decay"):
            ReplicaAccessSummary(decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            ReplicaAccessSummary(decay=1.5)

    def test_age_noop_without_decay(self):
        s = ReplicaAccessSummary()
        s.record_access(np.zeros(2))
        s.age()
        assert s.micro_clusters[0].count == 1

    def test_age_scales_statistics_preserving_centroid(self):
        s = ReplicaAccessSummary(decay=0.5, radius_floor=10.0)
        s.record_access(np.array([2.0, 4.0]))
        s.record_access(np.array([4.0, 2.0]))
        before = s.micro_clusters[0].centroid.copy()
        s.age()
        after = s.micro_clusters[0]
        assert np.allclose(after.centroid, before)
        assert after.count == pytest.approx(1.0)

    def test_age_drops_faded_clusters(self):
        s = ReplicaAccessSummary(decay=0.1, radius_floor=1.0)
        s.record_access(np.zeros(2))
        s.age()  # count 0.1
        s.age()  # count 0.01 -> dropped
        assert len(s) == 0
