"""Golden digests of every experiment's output: results must stay bitwise.

Each registered experiment runs on one cold
``Session(max_cache_entries=None, seed=seed)`` per seed, in registry
order, exactly as ``repro-experiments all`` runs them.  One sha256 per
(experiment, seed) over the result's id, title, ``measured``, ``paper``,
``data`` and ``text`` (floats rendered with every digit) is compared
with ``tests/data/experiment_digests.json``, together with the number
of configurations the whole pass simulated.  A change to how the
figures batch their measurements must leave every digest and count
untouched.

Regenerate the data file (only when a change is *meant* to move
results) with ``PYTHONPATH=src python tests/test_experiment_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.api import Session
from repro.experiments.registry import available_experiments, run_experiment

DATA = Path(__file__).with_name("data") / "experiment_digests.json"

#: Session seeds covered; each runs the whole paper once.
SEEDS = (0, 7)


def result_digest(result) -> str:
    """sha256 of one experiment result's JSON rendering."""

    payload = [
        result.experiment_id,
        result.title,
        result.measured,
        result.paper,
        result.data,
        result.text,
    ]
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def paper_pass(seed: int, ids: List[str]) -> Tuple[Dict[str, str], int]:
    """(digest per experiment id, configurations simulated) of one pass."""

    session = Session(max_cache_entries=None, seed=seed)
    digests = {
        experiment_id: result_digest(run_experiment(experiment_id, session=session))
        for experiment_id in ids
    }
    return digests, session.simulation_count()


def compute_digests() -> Dict[str, object]:
    """Every pass's digests and simulation count, in the data file's layout."""

    passes = {}
    for seed in SEEDS:
        digests, simulated = paper_pass(seed, available_experiments())
        passes[f"seed{seed}"] = {"experiments": digests, "simulated": simulated}
    return passes


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(DATA.read_text())


def bundled_ids(golden) -> List[str]:
    """The golden experiments in registry order.

    Other tests register probe experiments in the same registry, so the
    pass runs the recorded ids rather than everything registered.
    """

    return [i for i in available_experiments() if i in golden["seed0"]["experiments"]]


def test_golden_file_covers_every_experiment(golden):
    assert sorted(golden) == sorted(f"seed{seed}" for seed in SEEDS)
    for entry in golden.values():
        assert sorted(entry["experiments"]) == sorted(bundled_ids(golden))
    assert len(bundled_ids(golden)) == 29
    assert golden["seed0"]["simulated"] == 18_131


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{seed}" for seed in SEEDS])
def test_paper_pass_matches_golden_digests(golden, seed):
    digests, simulated = paper_pass(seed, bundled_ids(golden))
    expected = golden[f"seed{seed}"]
    assert simulated == expected["simulated"]
    for experiment_id, hexdigest in expected["experiments"].items():
        assert digests[experiment_id] == hexdigest, experiment_id


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
