from __future__ import annotations

import concurrent.futures

import pytest

from aebayes import pipeline


class _RecordingPool:
    """Stands in for ProcessPoolExecutor; runs cells in-process."""

    def __init__(self, seen: list[int], max_workers: int):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("n_jobs, n_cells, cpus, workers", [
    (8, 3, 4, 3),     # no more workers than cells
    (8, 10, 4, 4),    # no more workers than CPUs
    (2, 10, 4, 2),
    (2, 10, 2, 2),
    (8, 10, 1, None),  # one CPU: sequential, no pool
    (4, 1, 4, None),   # one cell: sequential, no pool
    (1, 10, 4, None),
])
def test_map_cells_clamps_workers(monkeypatch, n_jobs, n_cells, cpus, workers):
    seen: list[int] = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(seen, max_workers))
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(pipeline, "_score_cell", lambda cell: cell * 10)
    assert pipeline.map_cells(list(range(n_cells)), n_jobs=n_jobs) == \
        [10 * c for c in range(n_cells)]
    assert seen == ([] if workers is None else [workers])
