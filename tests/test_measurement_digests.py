"""Golden digests of full channel sweeps: measurements must stay bitwise.

Every registered target sweeps every channel count (``sweep_step=1``)
of every convolutional layer of AlexNet, VGG-16 and ResNet-50 through
:meth:`ProfileRunner.measure_many`.  One sha256 per (target, model,
seed) over the exact float reprs of each measurement is compared with
``tests/data/measurement_digests.json``, so any change to the planners,
the simulator or the noise stream that moves a single bit shows up.

Regenerate the data file (only when a change is *meant* to move
results) with ``PYTHONPATH=src python tests/test_measurement_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.api.target import Target, iter_all_targets
from repro.gpusim import DEVICES
from repro.libraries import LIBRARIES
from repro.models import MODELS
from repro.profiling import ProfileRunner
from repro.profiling.profilers import noise_material

DATA = Path(__file__).with_name("data") / "measurement_digests.json"

#: (model, seed) sweeps covered; every registered target runs each.
SWEEPS = (
    ("alexnet", 0),
    ("vgg16", 0),
    ("resnet50", 0),
    ("alexnet", 7),
    ("vgg16", 7),
)

#: (device, library, model, conv layer index, out_channels) whose
#: noise seed material is pinned verbatim: a drift in a planner's notes
#: format would silently re-key every stored measurement.
MATERIAL_CASES = (
    ("hikey-970", "acl-gemm", "resnet50", 16, 92),
    ("hikey-970", "acl-gemm", "resnet50", 16, 96),
    ("hikey-970", "acl-direct", "resnet50", 16, 91),
    ("hikey-970", "acl-direct", "vgg16", 2, 64),
    ("hikey-970", "tvm", "resnet50", 14, 17),
    ("odroid-xu4", "tvm", "alexnet", 3, 256),
    ("jetson-tx2", "cudnn", "resnet50", 16, 97),
    ("jetson-nano", "cudnn", "vgg16", 28, 300),
)


def sweep_digest(target: Target, model: str, seed: int) -> Tuple[str, int]:
    """(sha256 hex, configuration count) of one target's full model sweep."""

    runner = ProfileRunner.for_target(target, seed=seed)
    runner.max_cache_entries = None
    digest = hashlib.sha256()
    configurations = 0
    for ref in MODELS.create(model).conv_layers():
        layer = ref.spec
        for m in runner.measure_many(layer, range(1, layer.out_channels + 1)):
            digest.update(
                f"{m.layer_name}|{m.out_channels}|{m.device_name}|{m.library_name}|"
                f"{m.median_time_ms!r}|{m.min_time_ms!r}|{m.max_time_ms!r}|"
                f"{m.runs}|{m.job_count}\n".encode("ascii")
            )
            configurations += 1
    return digest.hexdigest(), configurations


def _material(device: str, library: str, model: str, index: int, channels: int) -> str:
    layer = MODELS.create(model).conv_layer(index).spec
    spec = DEVICES.get(device)
    plan = LIBRARIES.create(library).plan_with_channels(layer, channels, spec)
    return noise_material(spec, plan)


def compute_digests() -> Dict[str, object]:
    """Every digest and pinned material, in the data file's layout."""

    digests = {}
    for model, seed in SWEEPS:
        for target in iter_all_targets():
            hexdigest, count = sweep_digest(target, model, seed)
            digests[f"{target.label}/{model}/seed{seed}"] = {
                "sha256": hexdigest,
                "configurations": count,
            }
    materials = {
        "/".join(str(part) for part in case): _material(*case) for case in MATERIAL_CASES
    }
    return {"digests": digests, "noise_materials": materials}


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(DATA.read_text())


def _sweep_ids():
    return [
        f"{target.label}/{model}/seed{seed}"
        for model, seed in SWEEPS
        for target in iter_all_targets()
    ]


def test_golden_file_covers_every_target_and_sweep(golden):
    assert sorted(golden["digests"]) == sorted(_sweep_ids())
    seed0 = sum(
        entry["configurations"]
        for key, entry in golden["digests"].items()
        if key.endswith("/seed0")
    )
    assert seed0 == 255_488


@pytest.mark.parametrize("model,seed", SWEEPS, ids=[f"{m}-seed{s}" for m, s in SWEEPS])
def test_full_sweeps_match_golden_digests(golden, model, seed):
    for target in iter_all_targets():
        key = f"{target.label}/{model}/seed{seed}"
        hexdigest, count = sweep_digest(target, model, seed)
        assert count == golden["digests"][key]["configurations"], key
        assert hexdigest == golden["digests"][key]["sha256"], key


@pytest.mark.parametrize(
    "case", MATERIAL_CASES, ids=["/".join(map(str, case)) for case in MATERIAL_CASES]
)
def test_noise_material_is_pinned(golden, case):
    key = "/".join(str(part) for part in case)
    assert _material(*case) == golden["noise_materials"][key]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
