"""Combined source/target dataset: construction, validation and CSV ingestion.

A combined dataset stacks rows from two domains. Source rows (group 1) carry
covariates, a binary treatment and a real outcome; target rows (group 0) carry
covariates only. Treatment and outcome are stored as float vectors with NaN
marking absent cells, so a single rectangular layout serves both domains.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CombinedDataset:
    """Immutable row-wise storage for the two-domain design.

    covariates: (n, p) real matrix
    group:      (n,) ints in {0, 1}; 1 = source, 0 = target
    treatment:  (n,) floats; 0/1 on source rows, NaN on target rows
    outcome:    (n,) floats; real on source rows, NaN on target rows
    """

    covariates: np.ndarray
    group: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    covariate_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        X = np.asarray(self.covariates, dtype=float)
        if X.ndim != 2:
            raise ValueError("covariates must be a 2-d matrix")
        g = np.asarray(self.group, dtype=int)
        a = np.asarray(self.treatment, dtype=float)
        y = np.asarray(self.outcome, dtype=float)
        if not (len(g) == len(a) == len(y) == X.shape[0]):
            raise ValueError("covariates, group, treatment and outcome must share one length")
        names = self.covariate_names or tuple(f"x{j + 1}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise ValueError("covariate_names length must match covariate columns")
        object.__setattr__(self, "covariates", _readonly(X))
        object.__setattr__(self, "group", _readonly(g))
        object.__setattr__(self, "treatment", _readonly(a))
        object.__setattr__(self, "outcome", _readonly(y))
        object.__setattr__(self, "covariate_names", tuple(names))

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    @property
    def source_mask(self) -> np.ndarray:
        return self.group == 1

    @property
    def target_mask(self) -> np.ndarray:
        return self.group == 0

    @property
    def n_source(self) -> int:
        return int(np.sum(self.group == 1))

    @property
    def n_target(self) -> int:
        return int(np.sum(self.group == 0))

    @property
    def source_fraction(self) -> float:
        """Empirical probability of a row belonging to the source domain."""
        return self.n_source / self.n


@dataclass(frozen=True)
class PotentialOutcomes:
    """Simulation-only potential outcome pair; never consumed by estimators."""

    y1: np.ndarray
    y0: np.ndarray

    def __post_init__(self) -> None:
        y1 = np.asarray(self.y1, dtype=float)
        y0 = np.asarray(self.y0, dtype=float)
        if y1.shape != y0.shape or y1.ndim != 1:
            raise ValueError("y1 and y0 must be 1-d vectors of equal length")
        object.__setattr__(self, "y1", _readonly(y1))
        object.__setattr__(self, "y0", _readonly(y0))

    @property
    def effect(self) -> np.ndarray:
        return self.y1 - self.y0


def validate(dataset: CombinedDataset) -> list[str]:
    """Return a list of invariant violations; empty means well formed.

    Each entry names the failing row (0-based) and the rule.
    """
    problems: list[str] = []
    g = dataset.group
    bad_group = np.flatnonzero((g != 0) & (g != 1))
    problems += [f"row {i}: group must be 0 or 1" for i in bad_group]
    if dataset.n_source == 0:
        problems.append("source domain empty (no rows with group=1)")
    if dataset.n_target == 0:
        problems.append("target domain empty (no rows with group=0)")

    a, y = dataset.treatment, dataset.outcome
    src, tgt = g == 1, g == 0
    problems += [f"row {i}: treatment missing where group=1" for i in np.flatnonzero(src & np.isnan(a))]
    problems += [f"row {i}: outcome missing where group=1" for i in np.flatnonzero(src & np.isnan(y))]
    problems += [f"row {i}: treatment present where group=0" for i in np.flatnonzero(tgt & ~np.isnan(a))]
    problems += [f"row {i}: outcome present where group=0" for i in np.flatnonzero(tgt & ~np.isnan(y))]
    with np.errstate(invalid="ignore"):
        bad_arm = src & ~np.isnan(a) & (a != 0) & (a != 1)
    problems += [f"row {i}: treatment must be 0 or 1" for i in np.flatnonzero(bad_arm)]
    problems += [
        f"row {i}: outcome not finite" for i in np.flatnonzero(src & ~np.isnan(y) & ~np.isfinite(y))
    ]

    bad_cov = ~np.isfinite(dataset.covariates)
    for i, j in zip(*np.nonzero(bad_cov)):
        problems.append(f"row {i}, column {dataset.covariate_names[j]}: covariate not finite")
    return problems


def require_valid(dataset: CombinedDataset) -> CombinedDataset:
    problems = validate(dataset)
    if problems:
        raise ValueError("invalid dataset: " + "; ".join(problems[:8]))
    return dataset


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for dataset CSV files.

    ``covariates=None`` takes every non-reserved column, in header order.
    """

    covariates: tuple[str, ...] | None = None
    group: str = "g"
    treatment: str = "a"
    outcome: str = "y"


def _parse_cell(raw: str, line: int, column: str) -> float:
    if raw == "":
        return float("nan")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"line {line}, column {column}: cannot parse {raw!r} as a number") from None


def ingest_csv(path: str | Path, schema: CsvSchema | None = None) -> CombinedDataset:
    """Read and validate a combined dataset from a CSV file.

    The header must name every covariate column plus the group column; the
    treatment/outcome columns are optional (a file with neither describes a
    pure target-domain extract and will fail validation if it has source rows).
    Empty cells mean absent; the group column must hold literal 0 or 1.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        duplicated = [c for c in dict.fromkeys(header) if header.count(c) > 1]
        if duplicated:
            raise ValueError(f"{path}: duplicated header columns {duplicated}")
        if schema.group not in header:
            raise ValueError(f"{path}: missing group column {schema.group!r}")
        reserved = {schema.group, schema.treatment, schema.outcome}
        if schema.covariates is None:
            cov_names = [c for c in header if c not in reserved]
        else:
            cov_names = list(schema.covariates)
            missing = [c for c in cov_names if c not in header]
            if missing:
                raise ValueError(f"{path}: covariate columns not in header: {missing}")
        idx = {name: header.index(name) for name in header}

        rows_x: list[list[float]] = []
        rows_g: list[int] = []
        rows_a: list[float] = []
        rows_y: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
            g_raw = row[idx[schema.group]]
            if g_raw not in ("0", "1"):
                raise ValueError(f"line {line_no}, column {schema.group}: group must be literal 0 or 1, got {g_raw!r}")
            rows_g.append(int(g_raw))
            rows_x.append([_parse_cell(row[idx[c]], line_no, c) for c in cov_names])
            a_raw = row[idx[schema.treatment]] if schema.treatment in idx else ""
            y_raw = row[idx[schema.outcome]] if schema.outcome in idx else ""
            rows_a.append(_parse_cell(a_raw, line_no, schema.treatment))
            rows_y.append(_parse_cell(y_raw, line_no, schema.outcome))

    if not rows_g:
        raise ValueError(f"{path}: no data rows")
    dataset = CombinedDataset(
        covariates=np.array(rows_x, dtype=float),
        group=np.array(rows_g, dtype=int),
        treatment=np.array(rows_a, dtype=float),
        outcome=np.array(rows_y, dtype=float),
        covariate_names=tuple(cov_names),
    )
    return require_valid(dataset)


def _fmt(value: float) -> str:
    if np.isnan(value):
        return ""
    return repr(float(value))


def write_csv(dataset: CombinedDataset, path: str | Path, schema: CsvSchema | None = None) -> None:
    """Write a dataset using full-precision decimal text (round-trip exact)."""
    schema = schema or CsvSchema()
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.covariate_names) + [schema.group, schema.treatment, schema.outcome])
        for i in range(dataset.n):
            a = dataset.treatment[i]
            writer.writerow(
                [_fmt(v) for v in dataset.covariates[i]]
                + [str(int(dataset.group[i]))]
                + [("" if np.isnan(a) else str(int(a))), _fmt(dataset.outcome[i])]
            )
