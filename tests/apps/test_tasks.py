"""Tests for the subsequence-level tasks: motifs, discords, clustering,
change-point detection, range queries, and the window utilities."""

import numpy as np
import pytest

from repro.apps import (
    detect_change_points,
    find_discord,
    find_motifs,
    kmeans_time_series,
    sliding_windows,
    windows_overlap,
)
from repro.index import SeriesDatabase
from repro.kinds import DistanceMode
from repro.reduction import PAA, SAPLAReducer


class TestWindows:
    def test_shapes_and_starts(self):
        windows, starts = sliding_windows(np.arange(10.0), window=4, stride=2)
        assert windows.shape == (4, 4)
        np.testing.assert_array_equal(starts, [0, 2, 4, 6])

    def test_normalized_windows(self):
        windows, _ = sliding_windows(np.arange(10.0) * 3 + 5, window=5, normalize=True)
        for w in windows:
            assert w.mean() == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            sliding_windows(np.arange(4.0), window=1)
        with pytest.raises(ValueError):
            sliding_windows(np.arange(4.0), window=10)
        with pytest.raises(ValueError):
            sliding_windows(np.arange(4.0), window=2, stride=0)

    def test_overlap(self):
        assert windows_overlap(0, 3, 4)
        assert not windows_overlap(0, 4, 4)


class TestMotifs:
    @staticmethod
    def planted_series(seed=0):
        """Noise with the same smooth pattern planted twice."""
        rng = np.random.default_rng(seed)
        series = rng.normal(scale=1.0, size=400)
        pattern = 5 * np.sin(np.linspace(0, 2 * np.pi, 40))
        series[50:90] = pattern + rng.normal(scale=0.05, size=40)
        series[300:340] = pattern + rng.normal(scale=0.05, size=40)
        return series

    def test_finds_planted_motif(self):
        series = self.planted_series()
        motifs = find_motifs(series, window=40, stride=5)
        top = motifs[0]
        assert abs(top.start_a - 50) <= 5
        assert abs(top.start_b - 300) <= 5

    def test_no_trivial_matches(self):
        series = self.planted_series(seed=1)
        for motif in find_motifs(series, window=40, stride=5, top_k=3):
            assert not windows_overlap(motif.start_a, motif.start_b, 40)

    def test_top_k_returns_distinct_pairs(self):
        series = self.planted_series(seed=2)
        motifs = find_motifs(series, window=40, stride=10, top_k=3)
        assert len({(m.start_a, m.start_b) for m in motifs}) == len(motifs)
        distances = [m.distance for m in motifs]
        assert distances == sorted(distances)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_motifs(np.arange(100.0), window=10, top_k=0)


class TestDiscords:
    def test_finds_planted_anomaly(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0, 20 * np.pi, 600)
        series = np.sin(t) + rng.normal(scale=0.05, size=600)
        series[400:440] += np.sin(np.linspace(0, 14 * np.pi, 40)) * 2.5
        discord = find_discord(series, window=40, stride=5)
        assert 370 <= discord.start <= 440
        assert discord.nn_distance > 0

    def test_pruning_happens(self):
        rng = np.random.default_rng(4)
        series = np.sin(np.linspace(0, 30, 500)) + rng.normal(scale=0.05, size=500)
        discord = find_discord(series, window=40, stride=5)
        windows_count = (500 - 40) // 5 + 1
        all_pairs = windows_count * (windows_count - 1)
        assert discord.n_verified < all_pairs  # early exits actually fire

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            find_discord(np.arange(10.0), window=10)


class TestClustering:
    @staticmethod
    def two_cluster_data(seed=5):
        rng = np.random.default_rng(seed)
        flat = rng.normal(scale=0.2, size=(10, 64))
        trend = np.linspace(0, 8, 64) + rng.normal(scale=0.2, size=(10, 64))
        return np.vstack([flat, trend])

    def test_separates_clusters_raw(self):
        data = self.two_cluster_data()
        result = kmeans_time_series(data, k=2, seed=1)
        first = set(result.labels[:10])
        second = set(result.labels[10:])
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_separates_clusters_reduced(self):
        data = self.two_cluster_data(seed=6)
        result = kmeans_time_series(data, k=2, reducer=SAPLAReducer(12), seed=1)
        assert len(set(result.labels[:10])) == 1
        assert set(result.labels[:10]) != set(result.labels[10:])

    def test_inertia_decreases_with_k(self):
        data = self.two_cluster_data(seed=7)
        i1 = kmeans_time_series(data, k=1).inertia
        i4 = kmeans_time_series(data, k=4).inertia
        assert i4 <= i1

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans_time_series(np.zeros(8), k=2)
        with pytest.raises(ValueError):
            kmeans_time_series(np.zeros((4, 8)), k=9)

    def test_identical_points(self):
        data = np.ones((6, 16))
        result = kmeans_time_series(data, k=2)
        assert result.inertia == pytest.approx(0.0)


class TestChangePoints:
    def test_detects_level_shift(self):
        series = np.concatenate([np.zeros(100), np.full(100, 5.0)])
        series += np.random.default_rng(8).normal(scale=0.05, size=200)
        points = detect_change_points(series, n_change_points=1)
        assert len(points) == 1
        assert abs(points[0].position - 99) <= 4

    def test_detects_multiple_regimes(self):
        series = np.concatenate(
            [np.linspace(0, 5, 80), np.linspace(5, -5, 80), np.full(80, -5.0)]
        )
        points = detect_change_points(series, n_change_points=2)
        positions = [p.position for p in points]
        assert len(points) == 2
        assert any(abs(p - 79) <= 8 for p in positions)
        assert any(abs(p - 159) <= 8 for p in positions)

    def test_scores_sorted_by_position(self):
        series = np.random.default_rng(9).normal(size=200).cumsum()
        points = detect_change_points(series, n_change_points=3)
        positions = [p.position for p in points]
        assert positions == sorted(positions)

    def test_validation(self):
        with pytest.raises(ValueError):
            detect_change_points(np.arange(50.0), n_change_points=0)


class TestRangeQuery:
    def test_exact_with_guaranteed_bound(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(40, 64)).cumsum(axis=1)
        db = SeriesDatabase(SAPLAReducer(12), index=None, distance_mode=DistanceMode.LB)
        db.ingest(data)
        query = data[5] + 0.01
        radius = 5.0
        result = db.range_query(query, radius)
        brute = [
            i for i, row in enumerate(data) if np.linalg.norm(query - row) <= radius
        ]
        assert result.ids == sorted(brute, key=lambda i: np.linalg.norm(query - data[i]))
        assert all(d <= radius for d in result.distances)

    def test_prunes_candidates(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(60, 64)).cumsum(axis=1)
        db = SeriesDatabase(PAA(12), index=None)
        db.ingest(data)
        result = db.range_query(data[0], radius=1.0)
        assert result.n_verified < len(data)
        assert result.ids[0] == 0

    def test_validation(self):
        db = SeriesDatabase(PAA(12), index=None)
        with pytest.raises(RuntimeError):
            db.range_query(np.zeros(8), 1.0)
        db.ingest(np.zeros((4, 8)))
        with pytest.raises(ValueError):
            db.range_query(np.zeros(8), -1.0)
