"""Dataset loading, manifests, dummy expansion, perturbation.

A dataset is a response vector plus an ordered set of named covariate
columns. Which CSV columns play which role is declared in a small JSON
manifest next to the data, including how categorical columns expand into
indicator columns. Two datasets ship with the package ("prostate",
"birthweight"); see their manifests for provenance notes.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import (
    DegenerateColumnError,
    InvalidInputError,
    ParseError,
    SchemaError,
)

__all__ = [
    "Dataset",
    "DatasetManifest",
    "load_manifest",
    "load_csv",
    "write_csv",
    "perturb_response",
    "standardize_columns",
    "load_builtin",
    "BUILTIN_DATASETS",
]

BUILTIN_DATASETS = ("prostate", "birthweight")


@dataclass
class Dataset:
    name: str
    y: np.ndarray
    columns: dict  # name -> column vector, insertion-ordered

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.ndim != 1:
            raise InvalidInputError("response must be 1-D")
        cols = {}
        for name, col in self.columns.items():
            v = np.asarray(col, dtype=float)
            if v.shape != self.y.shape:
                raise InvalidInputError(
                    f"column {name!r} has length {v.shape}, response has {self.y.shape}"
                )
            cols[str(name)] = v
        if len(cols) != len(self.columns):
            raise InvalidInputError("duplicate column names")
        self.columns = cols

    @property
    def n(self):
        return int(self.y.shape[0])

    @property
    def k(self):
        return len(self.columns)

    def matrix(self, names=None):
        """Covariate columns (all, or the given subset) as an (n, m) array."""
        if names is None:
            names = list(self.columns)
        if len(names) == 0:
            return np.empty((self.n, 0))
        return np.column_stack([self.columns[nm] for nm in names])


@dataclass
class DatasetManifest:
    name: str
    source_note: str
    response_column: str
    covariate_columns: list
    dummy_encodings: dict = field(default_factory=dict)
    conventions: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.response_column in self.covariate_columns:
            raise SchemaError(
                f"response column {self.response_column!r} also listed as a covariate"
            )
        generated = [n for names in self.dummy_encodings.values() for n in names]
        if len(set(generated)) != len(generated):
            raise SchemaError("dummy encodings generate duplicate column names")
        for gen in generated:
            if gen not in self.covariate_columns:
                raise SchemaError(
                    f"generated dummy column {gen!r} missing from covariate_columns"
                )


def load_manifest(path):
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    try:
        return DatasetManifest(
            name=raw["name"],
            source_note=raw.get("source_note", ""),
            response_column=raw["response_column"],
            covariate_columns=list(raw["covariate_columns"]),
            dummy_encodings={k: list(v) for k, v in raw.get("dummy_encodings", {}).items()},
            conventions=dict(raw.get("conventions", {})),
        )
    except KeyError as e:
        raise SchemaError(f"manifest {path} is missing required key {e}") from e


def _parse_cell(cell, row_num, col_name):
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(
            f"row {row_num}, column {col_name!r}: "
            f"could not parse {cell.strip()!r} as a finite number"
        )
    return value


def load_csv(path, manifest):
    """Read the manifest-selected columns of a headed, comma-separated file.

    Data rows are numbered from 1 in error messages, matching the 1-based
    perturbation interface. Categorical source columns expand to indicator
    columns: levels are sorted ascending, the first level is the omitted
    baseline, and the remaining levels map in order onto the declared
    generated names.
    """
    generated = {n for names in manifest.dummy_encodings.values() for n in names}
    needed = [manifest.response_column]
    needed += [c for c in manifest.covariate_columns if c not in generated]
    needed += list(manifest.dummy_encodings)

    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    rows = [r for r in rows if r]  # tolerate a trailing blank line
    if not rows:
        raise SchemaError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in rows[0]]
    missing = [c for c in needed if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required column(s) {missing}")
    idx = {c: header.index(c) for c in needed}

    parsed = {c: [] for c in needed}
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ParseError(f"row {i}: expected {len(header)} fields, got {len(row)}")
        for c, j in idx.items():
            parsed[c].append(_parse_cell(row[j], i, c))
    data = {c: np.asarray(v) for c, v in parsed.items()}

    columns = {}
    for cov in manifest.covariate_columns:
        if cov in generated:
            continue  # filled below in declared order via a second pass
        columns[cov] = data[cov]
    for source, names in manifest.dummy_encodings.items():
        levels = np.unique(data[source])
        if len(levels) != len(names) + 1:
            raise SchemaError(
                f"column {source!r} has {len(levels)} levels but {len(names)} "
                f"dummy names are declared (need levels - 1)"
            )
        for level, gen in zip(levels[1:], names):
            columns[gen] = (data[source] == level).astype(float)
    # final ordering exactly as the manifest declares
    ordered = {cov: columns[cov] for cov in manifest.covariate_columns}
    return Dataset(name=manifest.name, y=data[manifest.response_column], columns=ordered)


def write_csv(dataset, path, response_name="y"):
    """Write a dataset back out; repr() gives shortest exact decimal forms,
    so a reload reproduces every value bit-for-bit."""
    if response_name in dataset.columns:
        raise SchemaError(f"response name {response_name!r} clashes with a covariate")
    names = list(dataset.columns)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join([response_name] + names) + "\n")
        for i in range(dataset.n):
            vals = [repr(float(dataset.y[i]))]
            vals += [repr(float(dataset.columns[nm][i])) for nm in names]
            f.write(",".join(vals) + "\n")


def perturb_response(dataset, index, value):
    """Copy of the dataset with y[index] replaced; index is 1-based."""
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        raise InvalidInputError(f"index must be an integer, got {index!r}")
    if not 1 <= index <= dataset.n:
        raise IndexError(f"index {index} outside 1..{dataset.n}")
    value = float(value)
    if not np.isfinite(value):
        raise InvalidInputError("replacement value must be finite")
    y = dataset.y.copy()
    y[index - 1] = value
    return Dataset(
        name=dataset.name,
        y=y,
        columns={nm: col.copy() for nm, col in dataset.columns.items()},
    )


def standardize_columns(dataset):
    """Center each covariate to mean 0 and scale to unit sample standard
    deviation (ddof=1). The response is left untouched."""
    cols = {}
    for name, col in dataset.columns.items():
        sd = float(np.std(col, ddof=1)) if dataset.n > 1 else 0.0
        if not np.isfinite(sd) or sd == 0.0:
            raise DegenerateColumnError(f"column {name!r} has no spread")
        cols[name] = (col - np.mean(col)) / sd
    return Dataset(name=dataset.name, y=dataset.y.copy(), columns=cols)


def load_builtin(name):
    """Load a packaged dataset by name; returns (Dataset, DatasetManifest)."""
    if name not in BUILTIN_DATASETS:
        raise InvalidInputError(
            f"unknown builtin dataset {name!r}; available: {BUILTIN_DATASETS}"
        )
    base = resources.files("stepgate") / "data"
    manifest = load_manifest(str(base / f"{name}.manifest.json"))
    dataset = load_csv(str(base / f"{name}.csv"), manifest)
    return dataset, manifest
