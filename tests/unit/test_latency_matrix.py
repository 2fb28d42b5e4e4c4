"""Unit tests for repro.net.latency."""

import numpy as np
import pytest

from repro.net import LatencyMatrix


def simple_matrix():
    rtt = np.array([
        [0.0, 10.0, 50.0],
        [10.0, 0.0, 40.0],
        [50.0, 40.0, 0.0],
    ])
    return LatencyMatrix(rtt, ("a", "b", "c"))


class TestConstruction:
    def test_valid_matrix_accepted(self):
        m = simple_matrix()
        assert m.n == 3
        assert len(m) == 3
        assert m.names == ("a", "b", "c")

    def test_default_names_generated(self):
        m = LatencyMatrix(np.zeros((2, 2)))
        assert m.names == ("node-0", "node-1")

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            LatencyMatrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one node"):
            LatencyMatrix(np.zeros((0, 0)))

    def test_rejects_negative(self):
        rtt = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            LatencyMatrix(rtt)

    def test_rejects_nan_by_name(self):
        # NaN fails `allclose(rtt, rtt.T)` too; it is not an asymmetry.
        rtt = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="NaN"):
            LatencyMatrix(rtt)

    def test_accepts_unreachable_pairs(self):
        rtt = np.array([[0.0, np.inf], [np.inf, 0.0]])
        assert LatencyMatrix(rtt).latency(0, 1) == np.inf

    def test_rejects_nonzero_diagonal(self):
        rtt = np.array([[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            LatencyMatrix(rtt)

    def test_rejects_asymmetric(self):
        rtt = np.array([[0.0, 2.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            LatencyMatrix(rtt)

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError, match="names"):
            LatencyMatrix(np.zeros((2, 2)), ("only-one",))


class TestAccessors:
    def test_latency_lookup(self):
        m = simple_matrix()
        assert m.latency(0, 1) == 10.0
        assert m.latency(2, 0) == 50.0
        assert m.latency(1, 1) == 0.0

    def test_one_way_is_half_rtt(self):
        m = simple_matrix()
        assert m.one_way(0, 2) == 25.0

    def test_submatrix_preserves_order(self):
        m = simple_matrix()
        sub = m.submatrix([2, 0])
        assert sub.n == 2
        assert sub.names == ("c", "a")
        assert sub.latency(0, 1) == 50.0

    def test_submatrix_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            simple_matrix().submatrix([])

    def test_rows_shape_and_values(self):
        m = simple_matrix()
        block = m.rows([0, 1], [2])
        assert block.shape == (2, 1)
        assert block[0, 0] == 50.0
        assert block[1, 0] == 40.0


class TestStatistics:
    def test_pair_values_upper_triangle(self):
        m = simple_matrix()
        assert sorted(m.pair_values()) == [10.0, 40.0, 50.0]

    def test_median_and_percentile(self):
        m = simple_matrix()
        assert m.median() == 40.0
        assert m.percentile(100) == 50.0

    def test_triangle_violation_detected(self):
        # 0-2 direct (100) is worse than 0-1-2 (10 + 10): a violation.
        rtt = np.array([
            [0.0, 10.0, 100.0],
            [10.0, 0.0, 10.0],
            [100.0, 10.0, 0.0],
        ])
        m = LatencyMatrix(rtt)
        assert m.triangle_violation_fraction() == 1.0

    def test_no_violation_in_metric_matrix(self):
        m = simple_matrix()
        assert m.triangle_violation_fraction() == 0.0

    def test_sampled_violation_fraction_bounded(self):
        m = simple_matrix()
        frac = m.triangle_violation_fraction(sample=50, rng=np.random.default_rng(1))
        assert 0.0 <= frac <= 1.0


class TestFromCondensed:
    def test_roundtrip(self):
        m = LatencyMatrix.from_condensed([10.0, 50.0, 40.0], ["a", "b", "c"])
        assert m.latency(0, 1) == 10.0
        assert m.latency(0, 2) == 50.0
        assert m.latency(1, 2) == 40.0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="condensed"):
            LatencyMatrix.from_condensed([1.0, 2.0])
