"""Array-wide planning: one ``plan`` call per channel sweep.

Every library's single planner takes an optional channel array and
returns a :class:`PlanTable` with one row per count; its one-row form is
the familiar :class:`KernelPlan`.  These tests pin the two views to each
other, check that every validation runs array-wise, and that the
measurement runner plans once per layer group.
"""

import numpy as np
import pytest

from repro.gpusim import (
    DEVICES,
    GpuSimulator,
    KernelColumns,
    KernelPlanError,
    PlanTable,
    simulate_batch,
)
from repro.libraries import LIBRARIES
from repro.libraries.base import exact_product, exact_sum
from repro.models import MODELS, ConvLayerSpec, LayerSpecError
from repro.profiling import ProfileRunner
from repro.profiling.profilers import noise_material, noise_materials

TARGETS = [
    ("hikey-970", "acl-gemm"),
    ("hikey-970", "acl-direct"),
    ("odroid-xu4", "tvm"),
    ("jetson-tx2", "cudnn"),
]


@pytest.fixture(scope="module")
def layers():
    network = MODELS.create("resnet50")
    return [network.conv_layer(index).spec for index in (0, 14, 16)]


@pytest.mark.parametrize("device_name,library_name", TARGETS)
def test_table_rows_equal_one_row_plans(device_name, library_name, layers):
    device = DEVICES.get(device_name)
    library = LIBRARIES.create(library_name)
    for layer in layers:
        counts = list(range(1, layer.out_channels + 1))
        table = library.plan(layer, device, channels=counts)
        assert isinstance(table, PlanTable)
        assert len(table) == len(counts)
        for index, count in enumerate(counts):
            assert table.row(index) == library.plan_with_channels(layer, count, device)


@pytest.mark.parametrize("device_name,library_name", TARGETS)
def test_one_row_form_is_the_kernel_plan(device_name, library_name, layers):
    device = DEVICES.get(device_name)
    library = LIBRARIES.create(library_name)
    plan = library.plan(layers[2], device)
    assert plan == library.plan(layers[2], device, channels=[layers[2].out_channels]).row(0)
    for kernel in plan:
        assert type(kernel.arithmetic_instructions) is int
        assert type(kernel.work_items) is int
        assert type(kernel.vector_efficiency) is float
        assert type(kernel.name) is str


@pytest.mark.parametrize("device_name,library_name", TARGETS)
def test_simulating_a_table_matches_its_rows(device_name, library_name, layers):
    device = DEVICES.get(device_name)
    library = LIBRARIES.create(library_name)
    tables = [library.plan(layer, device, channels=range(1, 97)) for layer in layers]
    table = PlanTable.concat(tables)
    assert len(table) == 3 * 96
    batch = simulate_batch(table, device)
    rows = simulate_batch([table.row(index) for index in range(len(table))], device)
    assert np.array_equal(batch.total_time_ms, rows.total_time_ms)
    assert np.array_equal(batch.job_counts, rows.job_counts)
    assert np.array_equal(batch.offsets, rows.offsets)
    simulator = GpuSimulator(device)
    expected = [simulator.run_time_ms(table.row(index)) for index in range(len(table))]
    assert batch.total_time_ms == pytest.approx(expected, rel=1e-12)


def test_noise_materials_follow_the_rows(layers):
    device = DEVICES.get("hikey-970")
    library = LIBRARIES.create("acl-gemm")
    table = PlanTable.concat(
        [library.plan(layer, device, channels=[1, 92, 97]) for layer in layers]
    )
    assert noise_materials(device, table) == [
        noise_material(device, table.row(index)) for index in range(len(table))
    ]


class TestArrayValidation:
    @pytest.mark.parametrize("library_name", ["acl-gemm", "acl-direct", "tvm"])
    def test_non_positive_channels_rejected(self, library_name, layer16, hikey):
        with pytest.raises(LayerSpecError):
            LIBRARIES.create(library_name).plan(layer16, hikey, channels=[4, 0, 8])

    def test_channels_must_divide_into_groups(self, hikey):
        grouped = ConvLayerSpec(
            name="grouped", in_channels=32, out_channels=32, kernel_size=3,
            padding=1, input_hw=14, groups=4,
        )
        library = LIBRARIES.create("acl-direct")
        assert len(library.plan(grouped, hikey, channels=[4, 8, 12])) == 3
        with pytest.raises(LayerSpecError):
            library.plan(grouped, hikey, channels=[4, 6])

    def test_int64_overflow_raises_instead_of_wrapping(self, hikey):
        huge = ConvLayerSpec(
            name="huge", in_channels=2**20, out_channels=1, kernel_size=11, input_hw=4096
        )
        library = LIBRARIES.create("acl-direct")
        assert len(library.plan(huge, hikey, channels=[1])) == 1
        with pytest.raises(OverflowError):
            library.plan(huge, hikey, channels=[1, 10_000])

    def test_exact_arithmetic_only_raises_on_real_overflow(self):
        # The factors' maxima overflow together, but no element does.
        left = np.array([1, 2**40], dtype=np.int64)
        right = np.array([2**40, 1], dtype=np.int64)
        assert exact_product(left, right).tolist() == [2**40, 2**40]
        assert exact_product(left, right).dtype == np.int64
        with pytest.raises(OverflowError):
            exact_product(left, 2**30)
        near = np.array([2**62, 1], dtype=np.int64)
        assert exact_sum(near, np.array([1, 2**62])).tolist() == [2**62 + 1, 2**62 + 1]
        with pytest.raises(OverflowError):
            exact_sum(near, 2**62)

    def kernel(self, **overrides):
        fields = dict(
            name="k",
            arithmetic_instructions=np.array([10, 20]),
            memory_instructions=5,
            work_items=np.array([4, 8]),
        )
        fields.update(overrides)
        return KernelColumns(**fields)

    def table(self, *kernels):
        return PlanTable("test", ["a", "b"], ["", ""], kernels)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"arithmetic_instructions": np.array([10, -1])},
            {"memory_instructions": np.array([0, -5])},
            {"work_items": np.array([4, 0])},
            {"vector_efficiency": np.array([1.0, 0.0])},
            {"vector_efficiency": np.array([1.5, 0.5])},
            {"memory_locality": np.array([np.nan, 1.0])},
            {"name": ""},
        ],
    )
    def test_kernel_checks_run_on_every_row(self, overrides):
        with pytest.raises(KernelPlanError):
            self.table(self.kernel(**overrides))

    def test_absent_rows_are_not_checked(self):
        table = self.table(
            self.kernel(),
            self.kernel(work_items=np.array([4, 0]), present=np.array([True, False])),
        )
        assert [len(table.row(0)), len(table.row(1))] == [2, 1]

    def test_rows_without_kernels_rejected(self):
        with pytest.raises(KernelPlanError):
            self.table(self.kernel(present=np.array([True, False])))

    def test_column_length_must_match_rows(self):
        with pytest.raises(KernelPlanError):
            self.table(self.kernel(work_items=np.array([1, 2, 3])))
        with pytest.raises(KernelPlanError):
            self.table(
                self.kernel(work_items=np.array([1, 2, 3]), present=np.array([True, False]))
            )


class TestRunnerPlansOncePerLayerGroup:
    def counting(self, library):
        calls = []
        plan = library.plan

        def counted(layer, device, channels=None):
            calls.append(None if channels is None else len(channels))
            return plan(layer, device, channels=channels)

        library.plan = counted
        return calls

    def test_measure_many_is_one_plan_call(self, layer16):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=3)
        calls = self.counting(runner.library)
        runner.measure_many(layer16, range(1, 129))
        assert calls == [128]

    def test_measure_sweeps_plans_each_layer_group_once(self, layers):
        runner = ProfileRunner.create("jetson-tx2", "cudnn", runs=3)
        calls = self.counting(runner.library)
        swept = runner.measure_sweeps([(layer, range(1, 33)) for layer in layers])
        assert runner.simulations == 3 * 32
        assert calls == [32, 32, 32]
        reference = ProfileRunner.create("jetson-tx2", "cudnn", runs=3)
        for layer, measurements in zip(layers, swept):
            assert measurements == reference.measure_many(layer, range(1, 33))
