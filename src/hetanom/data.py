"""Labeled feature datasets: validation, CSV ingestion/export, splitting.

A dataset is an immutable table of (id, feature vector, binary label,
class tag). Label 0 marks normal samples, label 1 anomalies; the class
tag names the anomaly class (or normal mode) and is only used by the
evaluation protocols, never by training losses. Subsets are taken by row:
``take`` checks its rows, not its ids, since distinct rows of a validated
dataset have distinct ids.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParseError,
    SchemaError,
    SplitError,
    ValidationError,
)
from .seeding import rng_for

NORMAL = 0
ANOMALY = 1


@dataclass(frozen=True)
class FeatureDataset:
    """Immutable labeled feature table.

    ``features`` is an (n, d) float64 array; rows align with ``ids``,
    ``labels`` and ``class_tags``. The array is marked read-only so the
    dataset can be shared freely across threads.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray
    class_tags: tuple[str, ...]

    def __post_init__(self):
        self._init(self.ids, self.features, self.labels, self.class_tags, ids_distinct=False)

    def _init(self, ids, features, labels, class_tags, ids_distinct: bool) -> None:
        """Validate the four columns and store them read-only. ``ids_distinct``
        skips hashing the ids, for callers that already know them distinct."""
        feats = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValidationError("features must be a 2-D array")
        n = feats.shape[0]
        if not (len(ids) == n == labels.shape[0] == len(class_tags)):
            raise ValidationError("ids, features, labels, class_tags lengths differ")
        if n == 0:
            raise ValidationError("dataset is empty")
        if not np.isfinite(feats).all():
            bad = int(np.argwhere(~np.isfinite(feats))[0][0])
            raise ValidationError(f"non-finite feature value in sample {ids[bad]!r}")
        if not np.isin(labels, (NORMAL, ANOMALY)).all():
            bad = int(np.argwhere(~np.isin(labels, (NORMAL, ANOMALY)))[0][0])
            raise ValidationError(f"label of sample {ids[bad]!r} is not in {{0, 1}}")
        if not ids_distinct and len(set(ids)) != n:
            _raise_duplicate(ids)
        if not (labels == NORMAL).any():
            raise ValidationError("dataset has no normal samples")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", tuple(ids))
        object.__setattr__(self, "class_tags", tuple(class_tags))

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_normal(self) -> int:
        return int((self.labels == NORMAL).sum())

    @property
    def n_anomaly(self) -> int:
        return int((self.labels == ANOMALY).sum())

    def normal_rows(self) -> np.ndarray:
        return np.flatnonzero(self.labels == NORMAL)

    def anomaly_rows(self) -> np.ndarray:
        return np.flatnonzero(self.labels == ANOMALY)

    @functools.cached_property
    def _row_of(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))

    def row_of(self, sample_id: str) -> int:
        """The row of ``sample_id``; the id index is built on the first call."""
        return self._row_of[sample_id]

    def take(self, rows) -> "FeatureDataset":
        """New dataset containing the given rows, in the given order (fancy
        indexing copies, so the new arrays share no memory with these).

        Distinct rows of this dataset have distinct ids, so the rows are
        checked instead of the ids: a repeated row raises
        :class:`ValidationError` naming the first id that repeats, and a row
        out of range raises ``IndexError``."""
        rows = np.asarray(rows, dtype=np.int64)
        n = len(self.ids)
        features, labels = self.features[rows], self.labels[rows]
        if rows.size and rows.min() < 0:  # negative rows count from the end
            rows = rows % n
        picked = rows.tolist()
        ids = _pick(self.ids, picked)
        if np.bincount(rows, minlength=n).max() > 1:
            _raise_duplicate(ids)
        ds = object.__new__(FeatureDataset)
        ds._init(ids, features, labels, _pick(self.class_tags, picked), ids_distinct=True)
        return ds


def _raise_duplicate(ids) -> None:
    seen = set()
    dup = next(i for i in ids if i in seen or seen.add(i))
    raise ValidationError(f"duplicate sample id {dup!r}")


def _pick(values: tuple, rows: list[int]) -> tuple:
    """``tuple(values[r] for r in rows)``, gathered in C."""
    if len(rows) == 1:  # itemgetter of one key returns the bare item
        return (values[rows[0]],)
    return operator.itemgetter(*rows)(values) if rows else ()


#: the share of each label class the first part of a split takes, the rest
#: going to the second; each protocol seed trains on the first part of its normals
TRAIN_FRACTION = 0.75
_PARTS = (TRAIN_FRACTION, 1.0 - TRAIN_FRACTION)


@dataclass(frozen=True)
class SplitSpec:
    """Seeded two-way split, ``TRAIN_FRACTION`` to the first part."""

    seed: int


def stratified_split(ds: FeatureDataset, spec: SplitSpec) -> tuple[FeatureDataset, FeatureDataset]:
    """Split per label class with largest-remainder rounding.

    Deterministic given ``spec.seed``; parts are disjoint, their union is
    the input, and per-class counts differ from the exact proportions by
    at most one sample. Raises :class:`SplitError` if a present class
    would end up empty in either part.
    """
    first, second = split_rows(ds.labels, spec)
    return ds.take(first), ds.take(second)


def split_rows(labels: np.ndarray, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the two parts of :func:`stratified_split` over a table
    with these labels, each part in ascending row order."""
    parts: list[list[np.ndarray]] = [[], []]
    for label in np.unique(labels).tolist():
        rows = np.flatnonzero(labels == label)
        counts = part_sizes(len(rows))
        if min(counts) == 0:
            raise SplitError(
                f"class {label}: fraction {_PARTS} empties one part "
                f"({len(rows)} samples available)"
            )
        order = rng_for(spec.seed, "split", label).permutation(len(rows))
        parts[0].append(rows[order[: counts[0]]])
        parts[1].append(rows[order[counts[0] :]])
    return np.sort(np.concatenate(parts[0])), np.sort(np.concatenate(parts[1]))


def part_sizes(n: int) -> list[int]:
    """The sizes of the two parts of ``n`` samples of one label class, by
    largest-remainder rounding of ``n * _PARTS``."""
    ideal = [n * f for f in _PARTS]
    counts = [math.floor(x) for x in ideal]
    remainders = [x - c for x, c in zip(ideal, counts)]
    leftover = n - sum(counts)
    # ties broken toward the lower part index
    for i in sorted(range(len(_PARTS)), key=lambda i: (-remainders[i], i))[:leftover]:
        counts[i] += 1
    return counts


#: a feature CSV's leading columns; feature column j is named f"f{j}"
CSV_HEAD = ("id", "label", "class")


def ingest_csv(path, data: bytes | None = None) -> FeatureDataset:
    """Read a feature CSV (``id,label,class,f0..f{d-1}``) into a validated
    dataset, preserving row order; ``data``, when given, holds the file's
    bytes, already read. Every error names ``path``."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file") from None
    dim = _check_header(header, path)
    ids, feats, labels, tags = [], [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3 + dim:
            raise ParseError(
                f"{path}: line {lineno}: expected {3 + dim} columns, got {len(row)}"
            )
        sid, label_text, tag = row[0], row[1], row[2]
        if label_text not in ("0", "1"):
            raise ParseError(f"{path}: line {lineno}: label must be 0 or 1")
        try:
            values = [float(v) for v in row[3:]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        ids.append(sid)
        labels.append(int(label_text))
        tags.append(tag)
        feats.append(values)
    if not ids:
        raise SchemaError(f"{path}: no data rows")
    try:
        return FeatureDataset(
            ids=tuple(ids),
            features=np.array(feats, dtype=np.float64),
            labels=np.array(labels, dtype=np.int64),
            class_tags=tuple(tags),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _check_header(header, path) -> int:
    if tuple(header[:3]) != CSV_HEAD:
        raise SchemaError(f"{path}: header must start with {','.join(CSV_HEAD)}")
    feature_cols = header[3:]
    if not feature_cols:
        raise SchemaError(f"{path}: no feature columns")
    for i, name in enumerate(feature_cols):
        if name != f"f{i}":
            raise SchemaError(f"{path}: feature column {i} is {name!r}, expected f{i}")
    return len(feature_cols)


def write_csv(ds: FeatureDataset, path) -> None:
    """Export to CSV; floats use shortest round-trip formatting so that
    ``ingest_csv(write_csv(ds)) == ds`` bitwise."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(CSV_HEAD) + [f"f{j}" for j in range(ds.dim)])
        for i, sid in enumerate(ds.ids):
            writer.writerow(
                [sid, str(int(ds.labels[i])), ds.class_tags[i]]
                + [repr(float(v)) for v in ds.features[i]]
            )
