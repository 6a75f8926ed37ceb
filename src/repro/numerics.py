"""Interpreter-independent float summation.

Python 3.12's built-in ``sum`` compensates float additions (Neumaier's
algorithm) while 3.10 and 3.11 add left to right, so one list of floats
can sum to different bits on different interpreters.  Every float total
that reaches a reported result goes through :func:`fold_sum` instead.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable


def fold_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0``: the bits of ``sum`` before 3.12."""

    return reduce(operator.add, values, 0)
