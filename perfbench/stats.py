"""Small numeric helpers shared by the workloads and the report."""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Jobs per block of the tail statistic: one ``paper`` pass, about two
#: seconds of ``service`` jobs.
TAIL_BLOCK = 29
#: Percentile taken within each block.
TAIL_PCT = 90


def digest(payload: Any) -> str:
    """SHA-256 of a JSON rendering; floats render with every digit."""

    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""

    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil(n * pct / 100)
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]) -> Tuple[int, float]:
    """(blocks, value): the median over consecutive blocks of TAIL_BLOCK
    jobs of each block's TAIL_PCT percentile; the plain median when the
    sample holds fewer than two blocks.

    A single high percentile of a whole run moves with every burst of
    load from the host's neighbours; the median over blocks lets a
    burst spoil only the blocks it falls in.
    """

    blocks = [values[start:start + TAIL_BLOCK]
              for start in range(0, len(values) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    if len(blocks) < 2:
        return 0, median(values)
    return len(blocks), median(percentile(block, TAIL_PCT) for block in blocks)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def median_of_dicts(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over rows; a key missing from a row counts as 0."""

    keys = sorted({key for row in rows for key in row})
    return {key: median(row.get(key, 0.0) for row in rows) for key in keys}


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of a non-empty sample."""

    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])
