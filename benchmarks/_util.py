"""Shared helpers for the benchmark/experiment harness.

Every bench regenerates one paper artifact (table or figure) or one
extension experiment.  Besides timing (pytest-benchmark), each bench writes
its regenerated rows/series to ``benchmarks/results/<name>.txt`` so the
artifacts survive the run and EXPERIMENTS.md can reference them.
"""

from __future__ import annotations

import pathlib
from typing import Any

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_report(name: str, text: str) -> pathlib.Path:
    """Persist one experiment's regenerated output and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
    return path


def round_or_none(value: Any, digits: int = 3) -> Any:
    """Round a report figure; ``None`` (unmeasured, e.g. the latency of a
    shard that decided nothing) stays ``None`` — a gap, not a zero."""
    return None if value is None else round(value, digits)
