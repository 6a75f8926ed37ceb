"""Tests for speedup matrices and latency curves."""

import pytest

from repro.analysis import (
    FIGURE1_PRUNE_DISTANCES,
    PAPER_PRUNE_DISTANCES,
    TVM_PRUNE_DISTANCES,
    LatencyCurve,
    best_speedup_at_distance,
    curve_from_table,
    latency_curve,
    speedup_matrix,
    worst_slowdown_at_distance,
)
from repro.models import ConvLayerSpec, profiled_layer_refs
from repro.models.graph import ConvLayerRef
from repro.profiling import ProfileRunner, build_latency_table
from repro.profiling import runner as runner_module


class TestPruneDistanceConstants:
    def test_paper_distances(self):
        assert PAPER_PRUNE_DISTANCES == (1, 3, 7, 15, 31, 63, 127)
        assert FIGURE1_PRUNE_DISTANCES == (1, 7, 15, 31, 63)
        assert TVM_PRUNE_DISTANCES == (1, 3, 7, 15, 31)


class TestPerLayerMetrics:
    def test_best_speedup_monotone_in_distance(self, cudnn_runner, resnet50):
        ref = resnet50.conv_layer(16)
        speedups = [
            best_speedup_at_distance(cudnn_runner, ref, d) for d in (1, 31, 63, 127)
        ]
        assert speedups == sorted(speedups)

    def test_cudnn_layer16_speedups_match_paper(self, cudnn_runner, resnet50):
        """Figure 6, ResNet.L16 column: 1.0 / 1.3 / 3.3."""

        ref = resnet50.conv_layer(16)
        assert best_speedup_at_distance(cudnn_runner, ref, 1) == pytest.approx(1.0, abs=0.1)
        assert best_speedup_at_distance(cudnn_runner, ref, 63) == pytest.approx(1.3, abs=0.15)
        assert best_speedup_at_distance(cudnn_runner, ref, 127) == pytest.approx(3.3, abs=0.6)

    def test_worst_slowdown_at_least_one_for_cudnn(self, cudnn_runner, resnet50):
        ref = resnet50.conv_layer(16)
        assert worst_slowdown_at_distance(cudnn_runner, ref, 31) >= 0.99

    def test_acl_gemm_worst_slowdown_exceeds_one(self, gemm_runner, resnet50):
        """Figure 1: ACL GEMM pruning can slow layers down by up to ~2x."""

        ref = resnet50.conv_layer(16)
        slowdown = worst_slowdown_at_distance(gemm_runner, ref, 63)
        assert 1.2 < slowdown < 2.3

    def test_direct_conv_prune1_slowdown(self, direct_runner, resnet50):
        """Figure 10: pruning one channel of a 1x1 layer is a big slowdown."""

        ref = resnet50.conv_layer(15)
        speedup = best_speedup_at_distance(direct_runner, ref, 1)
        assert speedup < 0.8


class TestSpeedupMatrix:
    @pytest.fixture(scope="class")
    def matrix(self, cudnn_runner):
        refs = profiled_layer_refs("alexnet")
        return speedup_matrix(cudnn_runner, refs, prune_distances=(1, 31, 127), metric="speedup")

    def test_dimensions(self, matrix):
        assert len(matrix.layer_labels) == 5
        assert matrix.prune_distances == [1, 31, 127]

    def test_row_and_column_access(self, matrix):
        row = matrix.row(127)
        assert len(row) == 5
        column = matrix.column("AlexNet.L0")
        assert len(column) == 3

    def test_rows_monotone_in_distance(self, matrix):
        for label in matrix.layer_labels:
            column = matrix.column(label)
            assert column == sorted(column)

    def test_min_max(self, matrix):
        assert matrix.min_value >= 0.9
        assert matrix.max_value >= matrix.min_value

    def test_format_contains_labels_and_values(self, matrix):
        text = matrix.format()
        assert "AlexNet.L0" in text
        assert "Prune=127" in text

    def test_invalid_metric_rejected(self, cudnn_runner):
        refs = profiled_layer_refs("alexnet")
        with pytest.raises(ValueError):
            speedup_matrix(cudnn_runner, refs, metric="latency")

    def test_empty_refs_rejected(self, cudnn_runner):
        with pytest.raises(ValueError):
            speedup_matrix(cudnn_runner, [], metric="speedup")


def cold_runner():
    return ProfileRunner.create("hikey-970", "acl-gemm", runs=3)


class TestSpeedupMatrixBatching:
    @pytest.fixture
    def simulate_calls(self, monkeypatch):
        calls = []
        simulate = runner_module.simulate_batch

        def counted(table, device):
            calls.append(len(table))
            return simulate(table, device)

        monkeypatch.setattr(runner_module, "simulate_batch", counted)
        return calls

    def test_one_simulate_batch_call_per_matrix(self, simulate_calls):
        runner = cold_runner()
        refs = profiled_layer_refs("resnet50")
        speedup_matrix(runner, refs, prune_distances=PAPER_PRUNE_DISTANCES)
        assert simulate_calls == [runner.simulations]
        speedup_matrix(runner, refs, prune_distances=(1, 31), metric="slowdown")
        assert len(simulate_calls) == 1

    @staticmethod
    def reference_cell(runner, ref, distance, metric):
        """A cell from its own per-distance measurements, without slicing."""

        n = ref.spec.out_channels
        counts = range(max(1, n - distance), n)
        pruned = [m.median_time_ms for m in runner.measure_many(ref.spec, counts)]
        baseline = runner.measure(ref.spec).median_time_ms
        return baseline / min(pruned) if metric == "speedup" else max(pruned) / baseline

    @pytest.mark.parametrize("metric", ["speedup", "slowdown"])
    def test_cells_equal_the_per_distance_helpers(self, metric):
        refs = profiled_layer_refs("alexnet") + profiled_layer_refs("resnet50")
        matrix = speedup_matrix(cold_runner(), refs, PAPER_PRUNE_DISTANCES, metric=metric)
        helper = best_speedup_at_distance if metric == "speedup" else worst_slowdown_at_distance
        runner, reference = cold_runner(), cold_runner()
        for ref in refs:
            for distance in PAPER_PRUNE_DISTANCES:
                cell = matrix.get(distance, ref.label)
                assert cell == helper(runner, ref, distance)
                assert cell == self.reference_cell(reference, ref, distance, metric)


class TestPruneDistanceValidation:
    @pytest.mark.parametrize(
        "distances,message",
        [
            ((), "must not be empty"),
            ((0,), "got 0"),
            ((-3,), "got -3"),
            ((2.5,), "got 2.5"),
            ((True,), "got True"),
            ((3, 3), "3 is given more than once"),
        ],
    )
    def test_matrix_rejects_bad_distances(self, distances, message):
        runner = cold_runner()
        with pytest.raises(ValueError, match=message):
            speedup_matrix(runner, profiled_layer_refs("alexnet"), prune_distances=distances)
        assert runner.simulations == 0

    @pytest.mark.parametrize("helper", [best_speedup_at_distance, worst_slowdown_at_distance])
    @pytest.mark.parametrize("distance", [0, -3, 2.5])
    def test_helpers_reject_bad_distances(self, helper, distance):
        ref = profiled_layer_refs("alexnet")[0]
        with pytest.raises(ValueError, match=f"got {distance}"):
            helper(cold_runner(), ref, distance)

    def test_single_channel_layer_rejected(self):
        spec = ConvLayerSpec(
            name="toy.conv", in_channels=8, out_channels=1,
            kernel_size=3, stride=1, padding=1, input_hw=14,
        )
        ref = ConvLayerRef(network="toy", index=3, position=0, spec=spec)
        refs = profiled_layer_refs("alexnet")[:1] + [ref]
        with pytest.raises(ValueError, match="toy.L3"):
            speedup_matrix(cold_runner(), refs, prune_distances=(1,))
        with pytest.raises(ValueError, match="toy.L3"):
            best_speedup_at_distance(cold_runner(), ref, 1)


class TestLatencyCurve:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            LatencyCurve("l", "d", "lib", (1,), (1.0,))

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            LatencyCurve("l", "d", "lib", (1, 2), (1.0,))

    def test_time_at_and_spread(self):
        curve = LatencyCurve("l", "d", "lib", (1, 2, 3), (1.0, 2.0, 4.0))
        assert curve.time_at(2) == 2.0
        assert curve.spread == 4.0
        with pytest.raises(KeyError):
            curve.time_at(5)

    def test_largest_adjacent_gap_upward(self):
        curve = LatencyCurve("l", "d", "lib", (1, 2, 3), (1.0, 1.1, 3.0))
        fast, slow, ratio = curve.largest_adjacent_gap()
        assert (fast, slow) == (2, 3)
        assert ratio == pytest.approx(3.0 / 1.1)

    def test_largest_adjacent_gap_downward(self):
        curve = LatencyCurve("l", "d", "lib", (10, 11), (5.0, 2.0))
        fast, slow, ratio = curve.largest_adjacent_gap()
        assert (fast, slow) == (11, 10)
        assert ratio == pytest.approx(2.5)

    def test_speedup_between(self):
        curve = LatencyCurve("l", "d", "lib", (10, 20), (2.0, 6.0))
        assert curve.speedup_between(10, 20) == pytest.approx(3.0)

    def test_format_subsamples(self):
        curve = LatencyCurve("l", "d", "lib", tuple(range(1, 101)), tuple(float(i) for i in range(1, 101)))
        text = curve.format(max_rows=10)
        assert "100" in text
        assert len(text.splitlines()) < 30

    def test_latency_curve_from_runner(self, gemm_runner, layer16):
        curve = latency_curve(gemm_runner, layer16, "ResNet.L16", channel_counts=[64, 96, 128])
        assert curve.channel_counts == (64, 96, 128)
        assert curve.library_name == "acl-gemm"

    def test_curve_from_table(self, gemm_runner, layer16):
        table = build_latency_table(gemm_runner, layer16, [64, 128])
        curve = curve_from_table(table, "ResNet.L16")
        assert curve.channel_counts == (64, 128)
        assert curve.min_time_ms <= curve.max_time_ms
