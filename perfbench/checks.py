"""Comparison of certificate values with the committed reference.

One check is one reference value of one job in one round.  It fails when
the job raised, when the value is missing or of another kind, or when a
float differs from the reference by more than ``RTOL * |ref| + ATOL``.
Booleans (verdicts), integers and strings must match exactly.

``ATOL`` is the absolute rounding floor of the residuals, which are
normalised to order-one quantities and summed over up to 2^21 grid points;
``RTOL`` bounds the relative rounding of every other value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def close(value, ref) -> bool:
    if isinstance(ref, bool) or isinstance(value, bool):
        return type(value) is type(ref) and value == ref
    if isinstance(ref, float) or isinstance(value, float):
        if not isinstance(value, (int, float)) or not isinstance(ref, (int, float)):
            return False
        if math.isnan(ref) or math.isnan(value):
            return math.isnan(ref) and math.isnan(value)
        if math.isinf(ref) or math.isinf(value):
            return value == ref
        return abs(value - ref) <= RTOL * abs(ref) + ATOL
    return value == ref


def expected(reference: dict, workload: str, job: str, draw: int) -> dict:
    """Reference values of one job: those of draw 0, overridden by the ones
    that differ on the given draw."""
    ref = reference[workload]
    return {**ref["values"][job], **ref["by_draw"][str(draw)].get(job, {})}


def compare(values: dict | None, ref: dict) -> list[str]:
    """Keys of ``ref`` whose check fails (all of them when ``values`` is
    None, i.e. the job raised), plus keys the reference does not have."""
    if values is None:
        return sorted(ref)
    bad = [k for k, r in ref.items() if k not in values or not close(values[k], r)]
    bad += [k for k in values if k not in ref]
    return sorted(bad)


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())
