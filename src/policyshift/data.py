"""Combined source/target dataset: its checked construction and CSV ingestion.

A combined dataset stacks rows from two domains. Source rows (group 1) carry
covariates, a binary treatment and a real outcome; target rows (group 0) carry
covariates only. Treatment and outcome are stored as float vectors with NaN
marking absent cells, so a single rectangular layout serves both domains.
``json_option`` checks the type of every value read from a JSON config or
policy file.
"""

from __future__ import annotations

import csv
import itertools
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", list: "a list", dict: "an object"}


def json_option(section: str, key: str, value, default):
    """A JSON config value of the type of ``default``, refusing to coerce any other type.

    An integral float counts as an integer (``2048.0``); a bool is never a
    number, and the NaN and Infinity that Python's JSON reader accepts are not
    numbers either, nor is an integer beyond the float range. A tuple default
    takes a list of its first entry's type.
    """
    kind = type(default)
    if kind is tuple:
        return tuple(json_option(section, key, v, default[0]) for v in json_option(section, key, value, []))
    if kind is int:
        ok = type(value) is int or (type(value) is float and value.is_integer())
    elif kind is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is kind
    if not ok:
        raise ValueError(f"{section} option {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


# the most invariant violations one dataset error names
_REPORTED = 8


def _problems(X: np.ndarray, g: np.ndarray, a: np.ndarray, y: np.ndarray, names: tuple[str, ...]) -> list[str]:
    """The first violations of each rule in turn, each naming its 0-based row; empty means well formed.

    A row whose group is not 0 or 1 is in no domain: only its group and covariates are checked.
    """
    src, tgt = g == 1, g == 0
    problems = [f"row {i}: group must be 0 or 1" for i in np.flatnonzero(~src & ~tgt)[:_REPORTED]]
    if not src.any():
        problems.append("source domain empty (no rows with group=1)")
    if not tgt.any():
        problems.append("target domain empty (no rows with group=0)")
    a_absent, y_absent = np.isnan(a), np.isnan(y)
    rules = (
        (src & a_absent, "treatment missing where group=1"),
        (src & y_absent, "outcome missing where group=1"),
        (tgt & ~a_absent, "treatment present where group=0"),
        (tgt & ~y_absent, "outcome present where group=0"),
        (src & ~a_absent & (a != 0) & (a != 1), "treatment must be 0 or 1"),
        (src & np.isinf(y), "outcome not finite"),
    )
    for rows, rule in rules:
        problems += [f"row {i}: {rule}" for i in np.flatnonzero(rows)[:_REPORTED]]
    for i, j in np.argwhere(~np.isfinite(X))[:_REPORTED]:
        problems.append(f"row {i}, column {names[j]}: covariate not finite")
    return problems


@dataclass(frozen=True)
class CombinedDataset:
    """Immutable row-wise storage for the two-domain design.

    covariates: (n, p) finite real matrix
    group:      (n,) ints in {0, 1}; 1 = source, 0 = target; both occur
    treatment:  (n,) floats; 0/1 on source rows, NaN on target rows
    outcome:    (n,) floats; finite on source rows, NaN on target rows

    Construction refuses arrays that break this layout (a group value must
    be exactly 0 or 1; bools are fine) with a ValueError naming up to 8 faults.
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
        g = np.asarray(self.group, dtype=float)  # exact for 0 and 1, so a fraction cannot pass as either
        a = np.asarray(self.treatment, dtype=float)
        y = np.asarray(self.outcome, dtype=float)
        if not (g.shape == a.shape == y.shape == X.shape[:1]):
            raise ValueError("group, treatment and outcome must be vectors with one entry per covariate row")
        names = self.covariate_names or tuple(f"x{j + 1}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise ValueError("covariate_names length must match covariate columns")
        problems = _problems(X, g, a, y, names)
        if problems:
            raise ValueError("invalid dataset: " + "; ".join(problems[:_REPORTED]))
        object.__setattr__(self, "covariates", _readonly(X))
        object.__setattr__(self, "group", _readonly(g.astype(int)))
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


# the reserved CSV columns; every other column is a covariate
GROUP, TREATMENT, OUTCOME = "g", "a", "y"

# rows read, converted and written together; bounds the cell strings held at once
_BLOCK_ROWS = 4096


def _parse_cell(raw: str, line: int, column: str) -> float:
    if raw == "":
        return float("nan")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"line {line}, column {column}: cannot parse {raw!r} as a number") from None


def _raise_first_fault(rows: list[list[str]], first_line: int, header: list[str], numeric: list[str]) -> None:
    """Raise the error of the first faulty row: its cell count, then ``g``, then each numeric column in turn."""
    for line, row in enumerate(rows, start=first_line):
        if len(row) != len(header):
            raise ValueError(f"line {line}: expected {len(header)} cells, got {len(row)}")
        g_raw = row[header.index(GROUP)]
        if g_raw not in ("0", "1"):
            raise ValueError(f"line {line}, column {GROUP}: group must be literal 0 or 1, got {g_raw!r}")
        for name in numeric:
            _parse_cell(row[header.index(name)], line, name)


def _float_column(cells: tuple[str, ...]) -> np.ndarray:
    """``float`` of every cell, an empty cell reading as NaN; any other unreadable cell raises ValueError."""
    if "" in cells:
        cells = [cell or "nan" for cell in cells]
    return np.fromiter(map(float, cells), float, len(cells))


def _convert_block(rows: list[list[str]], header: list[str], numeric: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The group column and the (rows, numeric columns) values of a block; any fault raises ValueError."""
    if set(map(len, rows)) != {len(header)}:
        raise ValueError("a row has the wrong number of cells")
    columns = list(zip(*rows))
    group = columns[header.index(GROUP)]
    if not {"0", "1"}.issuperset(group):
        raise ValueError("a group cell is neither 0 nor 1")
    values = np.empty((len(rows), len(numeric)))
    for j, name in enumerate(numeric):
        values[:, j] = _float_column(columns[header.index(name)])
    return np.fromiter(map(int, group), int, len(rows)), values


def ingest_csv(path: str | Path) -> CombinedDataset:
    """Read a combined dataset from a CSV file; construction checks its layout.

    The columns ``g`` (group), ``a`` (treatment) and ``y`` (outcome) are
    reserved, and every other column is a covariate, in header order. ``g``
    is required; ``a`` and ``y`` are optional (a file with neither describes a
    pure target-domain extract and is refused if it has source rows).
    Empty cells mean absent; the group column must hold literal 0 or 1. Rows
    are converted a block at a time, column by column; an error names the
    first faulty row and, within it, the first faulty cell.
    """
    path = Path(path)
    # "utf-8-sig" drops the byte-order mark that spreadsheet exports put before the header
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        duplicated = [c for c in dict.fromkeys(header) if header.count(c) > 1]
        if duplicated:
            raise ValueError(f"{path}: duplicated header columns {duplicated}")
        if GROUP not in header:
            raise ValueError(f"{path}: missing group column {GROUP!r}")
        cov_names = [c for c in header if c not in (GROUP, TREATMENT, OUTCOME)]
        if not cov_names:
            raise ValueError(
                f"{path}: no covariate column; every column other than {GROUP!r}, {TREATMENT!r} and {OUTCOME!r} is a covariate"
            )
        numeric = cov_names + [c for c in (TREATMENT, OUTCOME) if c in header]

        groups: list[np.ndarray] = []
        values: list[np.ndarray] = []
        line = 2
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(itertools.islice(reader, _BLOCK_ROWS))
            except (csv.Error, UnicodeDecodeError):
                _raise_first_fault(rows, line, header, numeric)  # rows read before the bad one come first
                raise
            if not rows:
                break
            try:
                group, block = _convert_block(rows, header, numeric)
            except ValueError:
                _raise_first_fault(rows, line, header, numeric)
                raise
            groups.append(group)
            values.append(block)
            line += len(rows)

    if not groups:
        raise ValueError(f"{path}: no data rows")
    table = np.concatenate(values)
    absent = np.full(len(table), np.nan)
    return CombinedDataset(
        covariates=table[:, : len(cov_names)],
        group=np.concatenate(groups),
        treatment=table[:, numeric.index(TREATMENT)] if TREATMENT in numeric else absent,
        outcome=table[:, numeric.index(OUTCOME)] if OUTCOME in numeric else absent,
        covariate_names=tuple(cov_names),
    )


def _cells(values: list, integral: bool) -> list[str]:
    """Full-precision decimal text of each value (``str(int(v))`` if ``integral``), NaN as an empty cell."""
    fmt = (lambda v: str(int(v))) if integral else repr
    return [fmt(v) if v == v else "" for v in values]


def _write_columns(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray], integral=()) -> None:
    """Write equal-length columns under ``header``, formatting a block of rows at a time.

    Columns named in ``integral`` hold whole numbers and are written as such.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            cells = [_cells(c[start : start + _BLOCK_ROWS].tolist(), h in integral) for h, c in zip(header, columns)]
            writer.writerows(zip(*cells))


def write_csv(dataset: CombinedDataset, path: str | Path) -> None:
    """Write a dataset using full-precision decimal text (round-trip exact)."""
    columns = [*dataset.covariates.T, dataset.group, dataset.treatment, dataset.outcome]
    _write_columns(path, [*dataset.covariate_names, GROUP, TREATMENT, OUTCOME], columns, integral=(GROUP, TREATMENT))
