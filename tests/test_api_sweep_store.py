"""Tests for batched sweeps, Session.sweep and the session-level store."""

import pytest

from repro.api import DEFAULT_MAX_CACHE_ENTRIES, Session, Target
from repro.models import ConvLayerSpec
from repro.profiling import ProfileRunner, ProfileStore

TARGET = Target("hikey-970", "acl-gemm")

LAYER = ConvLayerSpec(
    name="test.sweep.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)
OTHER_LAYER = ConvLayerSpec(
    name="test.sweep.conv1x1", in_channels=16, out_channels=24,
    kernel_size=1, stride=1, padding=0, input_hw=14,
)


class TestMeasureMany:
    def test_matches_single_measurements(self):
        batched = ProfileRunner.create("hikey-970", "acl-gemm", runs=5)
        scalar = ProfileRunner.create("hikey-970", "acl-gemm", runs=5)
        many = batched.measure_many(LAYER, range(1, 25))
        singles = [scalar.measure(LAYER, count) for count in range(1, 25)]
        assert many == singles

    def test_preserves_order_and_duplicates(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        measurements = runner.measure_many(LAYER, [8, 4, 8, 12])
        assert [m.out_channels for m in measurements] == [8, 4, 8, 12]
        assert measurements[0] is measurements[2]
        assert runner.simulations == 3

    def test_cached_counts_are_not_resimulated(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        runner.measure_many(LAYER, [4, 8])
        runner.measure_many(LAYER, [4, 8, 12])
        assert runner.simulations == 3

    def test_invalid_count_rejected(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        with pytest.raises(ValueError):
            runner.measure_many(LAYER, [4, 0])

    def test_measurement_cache_is_bounded(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        runner.max_cache_entries = 4
        measurements = runner.measure_many(LAYER, range(1, 25))
        assert [m.out_channels for m in measurements] == list(range(1, 25))
        assert runner.cache_size() == 4


def spy_store(store):
    """Record every store lookup and record call as its list of counts."""

    calls = {"lookup": [], "record": []}
    lookup, record = store.lookup, store.record

    def counted_lookup(device, library, runs, layer, counts, seed=0):
        calls["lookup"].append(list(counts))
        return lookup(device, library, runs, layer, counts, seed=seed)

    def counted_record(device, library, runs, layer, measurements, seed=0):
        calls["record"].append([m.out_channels for m in measurements])
        return record(device, library, runs, layer, measurements, seed=seed)

    store.lookup, store.record = counted_lookup, counted_record
    return calls


def sweep_layer(index):
    return ConvLayerSpec(
        name=f"test.sweeps.conv{index}", in_channels=16 * (index + 1), out_channels=64,
        kernel_size=3, stride=1, padding=1, input_hw=14,
    )


class TestMeasureSweeps:
    def stored_runner(self, tmp_path):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        runner.store = ProfileStore(tmp_path / "profiles.jsonl")
        return runner, spy_store(runner.store)

    def test_duplicate_count_in_one_sweep_is_simulated_and_recorded_once(self, tmp_path):
        runner, calls = self.stored_runner(tmp_path)
        (measurements,) = runner.measure_sweeps([(LAYER, [8, 4, 8])])
        assert [m.out_channels for m in measurements] == [8, 4, 8]
        assert measurements[0] is measurements[2]
        assert runner.simulations == 2
        assert calls == {"lookup": [[8, 4]], "record": [[8, 4]]}

    def test_duplicate_count_across_sweeps_of_one_layer_is_simulated_once(self, tmp_path):
        runner, calls = self.stored_runner(tmp_path)
        first, second = runner.measure_sweeps([(LAYER, [4, 8]), (LAYER, [8, 12])])
        assert [m.out_channels for m in first] == [4, 8]
        assert [m.out_channels for m in second] == [8, 12]
        assert first[1] is second[0]
        assert runner.simulations == 3
        assert calls == {"lookup": [[4, 8, 12]], "record": [[4, 8, 12]]}

    def test_one_lookup_and_record_per_layer(self, tmp_path):
        runner, calls = self.stored_runner(tmp_path)
        runner.measure_many(LAYER, [4])
        calls["lookup"].clear(), calls["record"].clear()
        runner.measure_sweeps([(LAYER, [4, 8]), (OTHER_LAYER, [4, 8])])
        assert calls == {"lookup": [[8], [4, 8]], "record": [[8], [4, 8]]}

    def test_store_hits_are_served_not_simulated(self, tmp_path):
        warm, _ = self.stored_runner(tmp_path)
        warm.measure_sweeps([(LAYER, [4, 8]), (OTHER_LAYER, [4])])
        cold = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        cold.store = ProfileStore(tmp_path / "profiles.jsonl")
        swept = cold.measure_sweeps([(LAYER, [4, 8]), (OTHER_LAYER, [4])])
        assert cold.simulations == 0
        assert swept == [warm.measure_many(LAYER, [4, 8]), warm.measure_many(OTHER_LAYER, [4])]

    def test_bounded_cache_returns_complete_aligned_results(self):
        layers = [sweep_layer(index) for index in range(3)]
        counts = list(range(64, 0, -1))
        runner = ProfileRunner.create("jetson-tx2", "cudnn", runs=2)
        runner.max_cache_entries = 16
        swept = runner.measure_sweeps([(layer, counts) for layer in layers])
        assert runner.simulations == 3 * 64
        assert runner.cache_size() == 16
        reference = ProfileRunner.create("jetson-tx2", "cudnn", runs=2)
        for layer, measurements in zip(layers, swept):
            assert [m.out_channels for m in measurements] == counts
            assert measurements == reference.measure_many(layer, counts)

    def test_invalid_count_rejected_before_measuring(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        with pytest.raises(ValueError, match="got 0"):
            runner.measure_sweeps([(LAYER, [4]), (OTHER_LAYER, [0])])
        assert runner.simulations == 0

    def test_prefetch_is_a_deprecated_alias(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        with pytest.warns(DeprecationWarning, match="measure_sweeps"):
            assert runner.prefetch([(LAYER, [4, 8]), (OTHER_LAYER, [4])]) == 3
        runner.measure_many(LAYER, [4, 8, 12])
        assert runner.simulations == 4


class TestSessionStore:
    def test_store_accepts_a_path(self, tmp_path):
        session = Session(store=tmp_path / "profiles.jsonl")
        session.profile_layer(TARGET, LAYER)
        assert session.store is not None
        assert (tmp_path / "profiles.jsonl").exists()

    def test_second_session_replays_from_store(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        warm = Session(store=path)
        warm.profile_layer(TARGET, LAYER)
        assert warm.simulation_count() == LAYER.out_channels

        cold = Session(store=path)
        profile = cold.profile_layer(TARGET, LAYER)
        assert cold.simulation_count() == 0
        assert profile.table.as_series() == warm.profile_layer(TARGET, LAYER).table.as_series()

    def test_set_store_rewires_existing_runners(self, tmp_path):
        session = Session()
        runner = session.runner(TARGET)
        session.set_store(tmp_path / "profiles.jsonl")
        assert runner.store is session.store
        session.set_store(None)
        assert runner.store is None

    def test_store_is_shared_across_targets(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        session = Session(store=path)
        session.profile_layer(TARGET, LAYER, sweep_step=4)
        session.profile_layer(Target("jetson-tx2", "cudnn"), LAYER, sweep_step=4)
        cold = Session(store=path)
        cold.profile_layer(TARGET, LAYER, sweep_step=4)
        cold.profile_layer(Target("jetson-tx2", "cudnn"), LAYER, sweep_step=4)
        assert cold.simulation_count() == 0


class TestSessionDefaults:
    def test_default_cache_is_bounded(self):
        assert Session().max_cache_entries == DEFAULT_MAX_CACHE_ENTRIES

    def test_none_opts_into_unbounded(self):
        assert Session(max_cache_entries=None).max_cache_entries is None

    def test_bounded_default_evicts_and_counts(self):
        session = Session(max_cache_entries=1)
        session.profile_layer(TARGET, LAYER, sweep_step=4)
        session.profile_layer(TARGET, OTHER_LAYER, sweep_step=4)
        session.profile_layer(TARGET, LAYER, sweep_step=4)
        assert session.cache_stats.evictions == 2
        assert session.cache_size() == 1


class TestSessionSweep:
    TARGETS = (Target("hikey-970", "acl-gemm"), Target("jetson-tx2", "cudnn"))

    def test_rows_cover_every_target_and_count(self):
        session = Session()
        table = session.sweep(self.TARGETS, LAYER, sweep_step=4)
        assert table.targets == self.TARGETS
        assert table.layer_names == (LAYER.name,)
        counts = sorted(set(range(1, LAYER.out_channels + 1, 4)) | {LAYER.out_channels})
        assert len(table) == 2 * len(counts)
        for target in self.TARGETS:
            rows = table.for_target(target)
            assert [row["out_channels"] for row in rows] == counts
            assert all(row["median_time_ms"] > 0 for row in rows)

    def test_single_target_and_layer_coercion(self):
        table = Session().sweep(("hikey-970", "acl-gemm"), LAYER, sweep_step=8)
        assert [target.label for target in table.targets] == ["acl-gemm@hikey-970"]

    def test_label_strings_are_separate_targets(self):
        table = Session().sweep(
            ["acl-gemm@hikey-970", "cudnn@jetson-tx2"], LAYER, sweep_step=8
        )
        assert len(table.targets) == 2

    def test_series_and_profile_access(self):
        session = Session()
        table = session.sweep(self.TARGETS, [LAYER, OTHER_LAYER], sweep_step=8)
        counts, times = table.series(self.TARGETS[0], LAYER.name)
        assert counts[-1] == LAYER.out_channels
        assert len(counts) == len(times)
        assert table.profile(self.TARGETS[1], OTHER_LAYER.name).spec == OTHER_LAYER

    def test_sweep_reuses_the_profile_cache(self):
        session = Session()
        session.sweep(self.TARGETS, LAYER, sweep_step=4)
        session.sweep(self.TARGETS, LAYER, sweep_step=4)
        assert session.cache_stats.hits == 2
        assert session.cache_stats.misses == 2

    def test_baseline_times_and_format(self):
        table = Session().sweep(self.TARGETS, [LAYER, OTHER_LAYER], sweep_step=8)
        baselines = table.baseline_times_ms()
        assert set(baselines) == {target.label for target in self.TARGETS}
        text = table.format()
        assert LAYER.name in text and "acl-gemm@hikey-970" in text

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            Session().sweep([], LAYER)
        with pytest.raises(ValueError):
            Session().sweep(self.TARGETS, [])

    def test_conflicting_specs_with_one_name_rejected(self):
        impostor = ConvLayerSpec(
            name=LAYER.name, in_channels=8, out_channels=16,
            kernel_size=1, stride=1, padding=0, input_hw=7,
        )
        with pytest.raises(ValueError, match="two different layer specs"):
            Session().sweep(TARGET, [LAYER, impostor])

    def test_repeated_identical_specs_are_deduped(self):
        table = Session().sweep(TARGET, [LAYER, LAYER], sweep_step=8)
        assert table.layer_names == (LAYER.name,)
        assert len(table.for_target(TARGET)) == len(table)
