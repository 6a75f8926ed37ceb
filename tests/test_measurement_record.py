"""The tuple-backed ``Measurement`` record, its batch validation and the
array-native noise seeds."""

import hashlib
import json
import math
import pickle
import types

import numpy as np
import pytest

from repro.models import ConvLayerSpec
from repro.profiling import Measurement, MeasurementError, ProfileRunner, ProfileStore
from repro.profiling import runner as runner_module
from repro.profiling.profilers import _seed_of, _seeds_of

LAYER = ConvLayerSpec(
    name="test.record.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)

VALID = dict(
    layer_name="l", out_channels=8, device_name="d", library_name="lib",
    median_time_ms=2.0, min_time_ms=1.0, max_time_ms=3.0, runs=3, job_count=1,
)

BAD_VALUES = [
    ({"runs": 0}, "needs at least one run, got 0"),
    ({"min_time_ms": 0.0}, "non-positive minimum run time 0.0 ms"),
    ({"min_time_ms": -1.0}, "non-positive minimum run time -1.0 ms"),
    ({"median_time_ms": 5.0}, "inconsistent run times"),
    ({"median_time_ms": math.nan}, "inconsistent run times"),
    ({"min_time_ms": math.nan}, "inconsistent run times"),
]
BAD_IDS = ["zero-runs", "zero-min", "negative-min", "median-above-max", "nan-median", "nan-min"]


def _message(build):
    with pytest.raises(MeasurementError) as raised:
        build()
    return str(raised.value)


class TestRecord:
    def test_is_an_immutable_tuple_of_its_fields(self):
        measurement = Measurement(**VALID)
        assert isinstance(measurement, tuple)
        assert measurement == tuple(VALID.values())
        assert measurement._fields == tuple(VALID)
        assert measurement.as_dict() == VALID
        assert Measurement(*VALID.values()) == measurement
        with pytest.raises(AttributeError):
            measurement.median_time_ms = 1.5
        with pytest.raises(AttributeError):
            measurement.extra = 1

    def test_copies_and_pickles_are_equal(self):
        measurement = Measurement(**VALID)
        assert pickle.loads(pickle.dumps(measurement)) == measurement
        assert type(pickle.loads(pickle.dumps(measurement))) is Measurement
        assert Measurement.from_dict(json.loads(json.dumps(measurement.as_dict()))) == measurement

    @pytest.mark.parametrize("overrides, expected", BAD_VALUES, ids=BAD_IDS)
    def test_every_construction_path_rejects_alike(self, overrides, expected):
        payload = {**VALID, **overrides}
        values = tuple(payload.values())
        # A bad row can only exist by bypassing ``__new__``, as a corrupt
        # pickle stream would.
        smuggled = pickle.dumps(tuple.__new__(Measurement, values))
        messages = {
            "keyword": _message(lambda: Measurement(**payload)),
            "positional": _message(lambda: Measurement(*values)),
            "from_dict": _message(lambda: Measurement.from_dict(payload)),
            "_make": _message(lambda: Measurement._make(values)),
            "_replace": _message(lambda: Measurement(**VALID)._replace(**overrides)),
            "pickle": _message(lambda: pickle.loads(smuggled)),
        }
        assert len(set(messages.values())) == 1, messages
        assert expected in messages["keyword"]

    @pytest.mark.parametrize("overrides, expected", BAD_VALUES, ids=BAD_IDS)
    def test_store_line_parse_rejects_alike(self, tmp_path, overrides, expected):
        path = tmp_path / "profiles.jsonl"
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=3)
        runner.store = ProfileStore(path)
        runner.measure(LAYER, 8)
        payload = json.loads(path.read_text())
        payload["measurements"][0].update(overrides)
        path.write_text(json.dumps(payload) + "\n")

        fresh = ProfileStore(path)
        found, missing = fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [8])
        assert found == {} and missing == [8]
        assert fresh.skipped_lines == 1


def _doctor_batch(monkeypatch, row, value):
    """Make ``simulate_batch`` report ``value`` ms for one configuration."""

    simulate_batch = runner_module.simulate_batch

    def doctored(table, device):
        result = simulate_batch(table, device)
        total_time_ms = result.total_time_ms.copy()
        total_time_ms[row] = value
        return types.SimpleNamespace(total_time_ms=total_time_ms, job_counts=result.job_counts)

    monkeypatch.setattr(runner_module, "simulate_batch", doctored)


class TestBatchValidation:
    @pytest.mark.parametrize("value, expected", [
        (0.0, "test.record.conv at 12 channels: non-positive minimum run time 0.0 ms"),
        (math.nan, "test.record.conv at 12 channels: inconsistent run times "
                   "(min=nan, median=nan, max=nan)"),
    ], ids=["zero", "nan"])
    def test_first_bad_row_raises_the_per_row_error(self, monkeypatch, value, expected):
        _doctor_batch(monkeypatch, 2, value)
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=3)
        with pytest.raises(MeasurementError) as raised:
            runner.measure_many(LAYER, [4, 8, 12, 16])
        assert str(raised.value) == expected
        assert runner.cache_size() == 0

    def test_zero_runs_raise_the_per_row_error(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=0)
        with pytest.raises(MeasurementError) as raised:
            runner.measure(LAYER, 8)
        assert str(raised.value) == _message(
            lambda: Measurement(**{**VALID, "layer_name": LAYER.name, "runs": 0})
        )
        assert runner.simulations == 0

    def test_batch_rows_equal_constructed_rows(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=3)
        for measurement in runner.measure_many(LAYER, range(1, 25)):
            assert type(measurement) is Measurement
            assert Measurement(*measurement) == measurement


def _historical_seed(material, seed):
    """The per-material seed as plain Python-int arithmetic."""

    mask = 2**64 - 1
    value = int.from_bytes(hashlib.sha256(material.encode("utf-8")).digest()[:8], "little")
    if seed:
        z = (value + seed * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        value = z ^ (z >> 31)
    return value


class TestSeeds:
    MATERIALS = [f"hikey-970/acl-gemm/conv{index}/n={index}" for index in range(64)]

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 + 3, -1])
    def test_array_pass_equals_one_seed_at_a_time(self, seed):
        seeds = _seeds_of(self.MATERIALS, seed)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [_seed_of(material, seed) for material in self.MATERIALS]
        assert seeds.tolist() == [_historical_seed(m, seed) for m in self.MATERIALS]

    def test_one_seed_is_a_numpy_scalar(self):
        assert isinstance(_seed_of("x", 3), np.uint64)

    def test_no_materials_no_seeds(self):
        assert _seeds_of([], 7).shape == (0,)
