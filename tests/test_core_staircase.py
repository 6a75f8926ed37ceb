"""Tests for staircase detection and optimal-channel selection."""

import random

import pytest

from repro.core import (
    analyze_table,
    cluster_levels,
    detect_plateaus,
    detect_steps,
    optimal_pruning_levels,
)
from repro.numerics import fold_sum
from repro.profiling import LatencyTable, build_latency_table


def table_from(pairs):
    table = LatencyTable("synthetic", "device", "library")
    for channels, time in pairs:
        table.add(channels, time)
    return table


def staircase_pairs():
    """A clean two-step staircase: 1-4 -> 1ms, 5-8 -> 2ms, 9-12 -> 3ms."""

    return [(c, 1.0 + (c - 1) // 4) for c in range(1, 13)]


class TestDetectSteps:
    def test_clean_staircase_has_two_steps(self):
        counts, times = zip(*staircase_pairs())
        steps = detect_steps(list(counts), list(times))
        assert len(steps) == 2
        assert [step.channels_before for step in steps] == [4, 8]
        assert all(step.is_upward for step in steps)

    def test_flat_curve_has_no_steps(self):
        counts = list(range(1, 10))
        assert detect_steps(counts, [5.0] * 9) == []

    def test_small_noise_below_threshold_ignored(self):
        counts = [1, 2, 3]
        assert detect_steps(counts, [1.0, 1.02, 0.99]) == []

    def test_downward_step_detected(self):
        steps = detect_steps([1, 2], [2.0, 1.0])
        assert len(steps) == 1
        assert not steps[0].is_upward
        assert steps[0].ratio == pytest.approx(0.5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            detect_steps([1, 2], [1.0])

    def test_non_positive_latency_rejected(self):
        with pytest.raises(ValueError):
            detect_steps([1, 2], [1.0, 0.0])


class TestDetectPlateaus:
    def test_plateau_boundaries(self):
        counts, times = zip(*staircase_pairs())
        plateaus = detect_plateaus(list(counts), list(times))
        assert [(p.min_channels, p.max_channels) for p in plateaus] == [(1, 4), (5, 8), (9, 12)]

    def test_optimal_channels_is_right_edge(self):
        counts, times = zip(*staircase_pairs())
        plateaus = detect_plateaus(list(counts), list(times))
        assert [p.optimal_channels for p in plateaus] == [4, 8, 12]

    def test_plateau_width(self):
        counts, times = zip(*staircase_pairs())
        assert all(p.width == 4 for p in detect_plateaus(list(counts), list(times)))

    def test_empty_input(self):
        assert detect_plateaus([], []) == []

    def test_mean_adds_left_to_right_on_every_interpreter(self):
        # Python 3.12's compensated ``sum`` would give exactly 1.0 / 10.
        (plateau,) = detect_plateaus(list(range(1, 11)), [0.1] * 10)
        assert plateau.mean_time_ms == 0.9999999999999999 / 10


class TestClusterLevels:
    def test_two_levels(self):
        levels = cluster_levels([1.0, 1.02, 2.0, 2.05, 1.01])
        assert len(levels) == 2

    def test_single_level(self):
        assert len(cluster_levels([3.0, 3.01, 2.99])) == 1

    def test_levels_sorted_ascending(self):
        levels = cluster_levels([5.0, 1.0, 3.0])
        assert levels == sorted(levels)

    def test_running_fold_matches_resumming_each_level(self):
        rng = random.Random(3)
        times = [rng.choice((1.0, 1.7, 3.1)) * rng.uniform(0.97, 1.03) for _ in range(300)]
        levels = []
        for time in sorted(times):
            for level in levels:
                centre = fold_sum(level) / len(level)
                if abs(time - centre) / centre <= 0.12:
                    level.append(time)
                    break
            else:
                levels.append([time])
        assert cluster_levels(times) == [fold_sum(level) / len(level) for level in levels]


class TestAnalyzeTable:
    def test_synthetic_staircase_analysis(self):
        table = table_from(staircase_pairs())
        analysis = analyze_table(table)
        assert analysis.level_count == 3
        assert analysis.optimal_channel_counts == [4, 8, 12]
        assert analysis.max_step_ratio == pytest.approx(2.0)
        assert not analysis.has_downward_steps()

    def test_parallel_staircase_has_downward_steps(self):
        # Alternating fast/slow plateaus, as in the ACL GEMM figures.
        pairs = [(1, 2.0), (2, 2.0), (3, 1.0), (4, 1.0), (5, 3.0), (6, 3.0), (7, 1.5), (8, 1.5)]
        analysis = analyze_table(table_from(pairs))
        assert analysis.has_downward_steps()

    def test_optimal_pruning_levels_include_max(self):
        table = table_from(staircase_pairs())
        levels = optimal_pruning_levels(table)
        assert 12 in levels
        assert levels == [4, 8, 12]

    def test_optimal_pruning_levels_respect_upper_bound(self):
        table = table_from(staircase_pairs())
        assert optimal_pruning_levels(table, max_channels=9) == [4, 8, 9]


class TestOnMeasuredData:
    def test_cudnn_staircase_structure(self, cudnn_runner, layer16):
        """The measured cuDNN curve has steps exactly at tile boundaries."""

        table = build_latency_table(cudnn_runner, layer16, range(1, 129))
        analysis = analyze_table(table)
        step_positions = {step.channels_before for step in analysis.steps}
        assert step_positions == {32, 64, 96}
        assert analysis.level_count == 4
        assert not analysis.has_downward_steps()

    def test_acl_gemm_has_parallel_staircases(self, gemm_runner, layer16):
        table = build_latency_table(gemm_runner, layer16, range(60, 129))
        analysis = analyze_table(table)
        assert analysis.has_downward_steps()
        assert analysis.level_count >= 2

    def test_optimal_levels_prefer_plateau_edges(self, cudnn_runner, layer16):
        table = build_latency_table(cudnn_runner, layer16, range(1, 129))
        levels = optimal_pruning_levels(table)
        assert {32, 64, 96, 128}.issubset(set(levels))
