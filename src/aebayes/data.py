"""Ingestion and summary of multi-center adverse-event count data.

The on-disk format is a UTF-8 comma-separated file with the exact header
``site_id,patient_id,ae_count`` and one row per patient.  Patients are
grouped by clinical site; sites are ordered by first appearance in the
file and that order is the canonical site order used everywhere else
(rate vectors, posterior draws).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

HEADER = ("site_id", "patient_id", "ae_count")


class DataError(ValueError):
    """Raised for unreadable or invalid dataset files."""


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    site_id: str
    ae_count: int

    def __post_init__(self):
        if self.ae_count < 0:
            raise DataError(f"ae_count must be >= 0, got {self.ae_count}")


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of patient records with a site index.

    ``sites`` maps site_id to the indices of its records, in row order.
    Iteration order of ``sites`` is the canonical site order.
    """

    records: tuple[PatientRecord, ...]
    sites: dict[str, tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        if not self.records:
            raise DataError("dataset must contain at least one record")
        seen: set[str] = set()
        sites: dict[str, list[int]] = {}
        for i, rec in enumerate(self.records):
            if rec.patient_id in seen:
                raise DataError(f"duplicate patient_id {rec.patient_id!r}")
            seen.add(rec.patient_id)
            sites.setdefault(rec.site_id, []).append(i)
        object.__setattr__(
            self, "sites", {s: tuple(ix) for s, ix in sites.items()}
        )

    @property
    def n_patients(self) -> int:
        return len(self.records)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def site_ids(self) -> tuple[str, ...]:
        return tuple(self.sites)

    def site_sizes(self) -> np.ndarray:
        """Patient count per site, in site order."""
        return np.array([len(ix) for ix in self.sites.values()], dtype=np.int64)

    def site_totals(self) -> np.ndarray:
        """Sum of AE counts per site, in site order."""
        return np.array(
            [sum(self.records[i].ae_count for i in ix) for ix in self.sites.values()],
            dtype=np.int64,
        )

    def counts(self) -> np.ndarray:
        """All patient AE counts, in row order."""
        return np.array([r.ae_count for r in self.records], dtype=np.int64)

    def subset_by_sites(self, site_ids) -> "Dataset":
        """New Dataset restricted to the given sites, preserving row order."""
        keep = set(site_ids)
        missing = keep - set(self.sites)
        if missing:
            raise DataError(f"unknown site_id(s): {sorted(missing)}")
        return Dataset(tuple(r for r in self.records if r.site_id in keep))


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
    records = []
    seen: set[str] = set()
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
        try:
            count = int(raw_count)
        except ValueError:
            raise DataError(
                f"{source}: line {lineno}: ae_count {raw_count!r} is not an integer"
            ) from None
        if count < 0:
            raise DataError(
                f"{source}: line {lineno}: ae_count must be >= 0, got {count}"
            )
        if patient_id in seen:
            raise DataError(
                f"{source}: line {lineno}: duplicate patient_id {patient_id!r}"
            )
        seen.add(patient_id)
        records.append(PatientRecord(patient_id=patient_id, site_id=site_id, ae_count=count))
    if not records:
        raise DataError(f"{source}: no data rows")
    return Dataset(tuple(records))


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Load and validate a dataset file.

    Raises DataError with the offending line number for malformed rows,
    negative counts, or duplicate patient ids, and naming the file when it
    cannot be read or is not UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return _parse_rows(fh, source=str(path))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def summarize(dataset: Dataset) -> DatasetSummary:
    sizes = dataset.site_sizes()
    counts = dataset.counts()
    return DatasetSummary(
        n_patients=dataset.n_patients,
        n_sites=dataset.n_sites,
        mean_site_size=dataset.n_patients / dataset.n_sites,
        min_site_size=int(sizes.min()),
        max_site_size=int(sizes.max()),
        min_count=int(counts.min()),
        max_count=int(counts.max()),
    )
