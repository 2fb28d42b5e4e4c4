"""Unit tests for repro.core.summarizer."""

import numpy as np
import pytest

from repro.core import ReplicaAccessSummary

from tests.data.kernel_twins import kernel_path


def columns(record):
    return record.counts, record.weights, record.linear, record.square


def assert_same_record(got, want):
    for a, b in zip(columns(got), columns(want)):
        np.testing.assert_array_equal(a, b)


class TestRecording:
    def test_accesses_counted(self):
        s = ReplicaAccessSummary(max_micro_clusters=10)
        s.record_batch(np.array([[float(i), 0.0] for i in range(5)]),
                       np.full(5, 100.0))
        assert s.accesses == 5
        assert s.bytes_served == 500.0

    def test_record_access_is_a_one_row_batch(self):
        rng = np.random.default_rng(7)
        points = rng.normal(0.0, 20.0, size=(60, 2))
        weights = rng.integers(1, 4, size=60).astype(float)  # exact sums
        one_by_one = ReplicaAccessSummary(max_micro_clusters=4)
        for p, w in zip(points, weights):
            one_by_one.record_access(p, float(w))
        block = ReplicaAccessSummary(max_micro_clusters=4)
        block.record_batch(points, weights)
        assert (one_by_one.accesses, one_by_one.bytes_served) == (
            block.accesses, block.bytes_served)
        assert len(one_by_one) == len(block)
        assert_same_record(one_by_one.clusters, block.clusters)

    def test_budget_respected(self):
        s = ReplicaAccessSummary(max_micro_clusters=3, radius_floor=0.1)
        rng = np.random.default_rng(0)
        s.record_batch(rng.uniform(-100, 100, size=(100, 2)))
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
        # The record read from ``clusters`` is the one that ships: what
        # the summary does next — more accesses, a reset — never
        # reaches it, and it cannot be written to.
        s = ReplicaAccessSummary(radius_floor=10.0)
        s.record_batch(np.array([[0.0, 0.0], [1.0, 1.0], [50.0, 0.0]]),
                       np.array([1.0, 2.0, 3.0]))
        shipped = s.clusters
        kept = [column.copy() for column in columns(shipped)]
        s.record_access(np.array([1.0, 1.0]))
        s.reset()
        assert shipped.counts.tolist() == [2.0, 1.0]
        for column, before in zip(columns(shipped), kept):
            np.testing.assert_array_equal(column, before)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 7.0

    def test_wire_size_scales_with_clusters_not_accesses(self):
        s = ReplicaAccessSummary(max_micro_clusters=4, radius_floor=1.0)
        rng = np.random.default_rng(1)
        blobs = np.array([[0.0, 0.0], [1000.0, 0.0]])
        s.record_batch([blobs[rng.integers(0, 2)]
                        + rng.normal(0, 0.1, size=2) for _ in range(1000)])
        # Thousands of accesses, but the summary is a handful of clusters.
        assert s.clusters.wire_size_bytes <= 4 * (16 + 2 * 8 * 2)
        assert s.clusters.wire_size_bytes > 0

    @pytest.mark.parametrize("m", [10, 100])
    @pytest.mark.parametrize("first, second", [(2, 3), (3, 2)])
    def test_a_block_of_another_width_is_refused(self, m, first, second):
        # At m = 10 and m = 100 the kernel's two regimes used to fail
        # with errors that did not name the problem, after the checks.
        s = ReplicaAccessSummary(m)
        s.record_batch(np.arange(4.0 * first).reshape(4, first))
        before = s.clusters
        with pytest.raises(ValueError, match=f"block of {second}-dimensional"
                                             f" points cannot join "
                                             f"{first}-dimensional"):
            s.record_batch(np.ones((3, second)))
        assert s.clusters is before and s.accesses == 4
        s.reset()
        s.record_batch(np.ones((3, second)))  # reset forgets the width
        assert s.clusters.dim == second


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("backend", ["numpy", "python"])
class TestNonFiniteInput:
    """A NaN or infinite coordinate or weight is refused, not folded in:
    it would poison a cluster's sums or become a cluster of its own, and
    the summary ships to ``place_replicas``."""

    def summary_with_history(self):
        s = ReplicaAccessSummary(4, 5.0)
        s.record_batch(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        return s, s.clusters

    def assert_untouched(self, s, before):
        assert s.accesses == 2 and s.bytes_served == 2.0
        assert_same_record(s.clusters, before)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_record_batch_names_the_first_bad_point(self, backend, bad):
        rows = np.array([[0.0, 0.0, 0.0], [bad, 1.0, 1.0], [1.0, 0.0, 0.0],
                         [50.0, 0.0, 0.0], [0.5, bad, 0.0]])
        with kernel_path(backend):
            s, before = self.summary_with_history()
            with pytest.raises(ValueError, match="row 1 is not finite"):
                s.record_batch(rows)
        self.assert_untouched(s, before)

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_record_batch_refuses_a_bad_weight(self, backend, bad):
        with kernel_path(backend):
            s, before = self.summary_with_history()
            with pytest.raises(ValueError, match="row 2 is not finite"):
                s.record_batch(np.zeros((3, 3)), np.array([1.0, 2.0, bad]))
        self.assert_untouched(s, before)

    @pytest.mark.parametrize("point, weight", [
        ([NAN, 1.0, 1.0], 1.0), ([INF, 0.0, 0.0], 1.0),
        ([0.0, 0.0, 0.0], NAN), ([0.0, 0.0, 0.0], INF)])
    def test_record_access_refuses_it(self, backend, point, weight):
        with kernel_path(backend):
            s, before = self.summary_with_history()
            with pytest.raises(ValueError, match="not finite"):
                s.record_access(np.array(point), weight)
        self.assert_untouched(s, before)
