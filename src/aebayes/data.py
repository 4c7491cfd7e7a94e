"""Ingestion and summary of multi-center adverse-event count data.

The on-disk format is a UTF-8 comma-separated file with the exact header
``site_id,patient_id,ae_count`` and one row per patient.  Patients are
grouped by clinical site; sites are ordered by first appearance in the
file and that order is the canonical site order used everywhere else
(rate vectors, posterior draws).
Rows are checked once, in ``_parse_rows``, where outside input arrives.
The module imports numpy only inside the column helpers that return
arrays, so loading and summarizing a dataset does not load it.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

HEADER = ("site_id", "patient_id", "ae_count")
# the largest site total a file may hold: the sampler keeps totals as float64,
# which holds every integer up to 2**53 exactly
MAX_SITE_TOTAL = 2 ** 53


class DataError(ValueError):
    """Raised for unreadable or invalid dataset files."""


@dataclass(frozen=True)
class Dataset:
    """Patient rows held as columns, in row order.

    ``site_ids`` lists the sites in order of first appearance, the canonical
    site order; ``site_of[i]`` is patient i's position in it.
    """

    patient_ids: tuple[str, ...]
    site_ids: tuple[str, ...]
    site_of: tuple[int, ...]
    ae_counts: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows) -> "Dataset":
        """Columns of ``(site_id, patient_id, ae_count)`` rows, kept in row
        order; the rows are not checked."""
        site_index: dict[str, int] = {}
        patient_ids, site_of, ae_counts = [], [], []
        for site_id, patient_id, ae_count in rows:
            site_of.append(site_index.setdefault(site_id, len(site_index)))
            patient_ids.append(patient_id)
            ae_counts.append(ae_count)
        return cls(tuple(patient_ids), tuple(site_index), tuple(site_of), tuple(ae_counts))

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def n_sites(self) -> int:
        return len(self.site_ids)

    def site_sizes(self) -> np.ndarray:
        """Patient count per site, in site order."""
        import numpy as np
        return np.bincount(self.site_of, minlength=self.n_sites).astype(np.int64)

    def site_totals(self) -> np.ndarray:
        """Sum of AE counts per site, in site order (exact up to
        ``MAX_SITE_TOTAL``, which ``load_dataset`` enforces)."""
        import numpy as np
        return np.bincount(self.site_of, self.ae_counts, self.n_sites).astype(np.int64)

    def counts(self) -> np.ndarray:
        """All patient AE counts, in row order."""
        import numpy as np
        return np.array(self.ae_counts, dtype=np.int64)

    def subset_by_sites(self, site_ids) -> "Dataset":
        """New Dataset restricted to the given sites, preserving row order."""
        keep = set(site_ids)
        if not keep:
            raise DataError("no sites selected")
        missing = keep.difference(self.site_ids)
        if missing:
            raise DataError(f"unknown site_id(s): {sorted(missing)}")
        return Dataset.from_rows(
            (self.site_ids[j], patient_id, count)
            for patient_id, j, count in zip(self.patient_ids, self.site_of, self.ae_counts)
            if self.site_ids[j] in keep)


@dataclass(frozen=True)
class DatasetSummary:
    n_patients: int
    n_sites: int
    mean_site_size: float
    min_site_size: int
    max_site_size: int
    min_count: int
    max_count: int


def _parse_rows(lines, source: str) -> Dataset:
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{source}: empty file") from None
    if tuple(h.strip() for h in header) != HEADER:
        raise DataError(
            f"{source}: line 1: expected header {','.join(HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    rows = []
    seen: set[str] = set()
    site_totals: dict[str, int] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank trailing line permitted
        if len(row) != 3:
            raise DataError(
                f"{source}: line {lineno}: expected 3 columns, got {len(row)}"
            )
        site_id, patient_id, raw_count = (c.strip() for c in row)
        if not site_id or not patient_id:
            raise DataError(f"{source}: line {lineno}: empty identifier")
        # ASCII digits only: int() also takes "1_000" and other scripts' digits
        digits = raw_count[1:] if raw_count.startswith("-") else raw_count
        if not (digits.isascii() and digits.isdigit()):
            raise DataError(
                f"{source}: line {lineno}: ae_count {raw_count!r} is not an integer"
            )
        count = int(raw_count)
        if count < 0:
            raise DataError(
                f"{source}: line {lineno}: ae_count must be >= 0, got {count}"
            )
        if patient_id in seen:
            raise DataError(
                f"{source}: line {lineno}: duplicate patient_id {patient_id!r}"
            )
        seen.add(patient_id)
        total = site_totals[site_id] = site_totals.get(site_id, 0) + count
        if total > MAX_SITE_TOTAL:
            raise DataError(
                f"{source}: line {lineno}: ae_count {count} takes site {site_id!r} "
                f"to a total of {total}, above 2**53 (the largest the sampler "
                "holds exactly)"
            )
        rows.append((site_id, patient_id, count))
    if not rows:
        raise DataError(f"{source}: no data rows")
    return Dataset.from_rows(rows)


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Load and validate a dataset file.

    Raises DataError with the offending line number for malformed rows,
    negative counts, a site total above ``MAX_SITE_TOTAL``, or duplicate
    patient ids, and naming the file when it cannot be read or is not UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return _parse_rows(fh, source=str(path))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def summarize(dataset: Dataset) -> DatasetSummary:
    sizes = Counter(dataset.site_of).values()  # every site has a patient
    return DatasetSummary(
        n_patients=dataset.n_patients,
        n_sites=dataset.n_sites,
        mean_site_size=dataset.n_patients / dataset.n_sites,
        min_site_size=min(sizes),
        max_site_size=max(sizes),
        min_count=min(dataset.ae_counts),
        max_count=max(dataset.ae_counts),
    )
