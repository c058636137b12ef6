"""CSV input, report output, and the JSON run manifest.

Numeric output formatting uses repr-exact floats ("%.17g"), so rerunning the
same computation writes byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import EffectBand, ExperimentData
from .errors import MissingColumn, NonFiniteValue, ParseError
from .simulation import SimulationReport

__all__ = [
    "CsvSchema",
    "load_csv",
    "emit_report",
    "write_points_csv",
    "write_manifest",
    "load_manifest",
]


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for an experiment CSV.

    ``covariates=()`` means every column other than the arm and outcome
    columns, in header order. A column has one role: the arm and outcome
    columns differ, and a covariate is neither of them nor listed twice.
    """

    arm: str = "arm"
    outcome: str = "outcome"
    covariates: tuple[str, ...] = ()

    def __post_init__(self):
        if self.arm == self.outcome:
            raise ValueError(f"column {self.arm!r} cannot be both the arm and the outcome")
        for i, name in enumerate(self.covariates):
            if name in (self.arm, self.outcome):
                raise ValueError(f"covariate {name!r} is the arm or the outcome column")
            if name in self.covariates[:i]:
                raise ValueError(f"covariate {name!r} is listed twice")


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def load_csv(path: str | Path, schema: CsvSchema = CsvSchema()) -> ExperimentData:
    """Read an experiment from CSV with a header row.

    Arm labels may be arbitrary strings; they map to 1..K in sorted order
    (numeric order when every label parses as a number). Row numbers in
    errors are physical file lines, header included.

    The data rows are parsed by NumPy's C reader straight into one float64
    table, every column in the same pass, so a row with too many or too few
    cells fails it; the arm column and the columns the schema does not select
    go through converters. Cells are read as Python's ``float`` reads them.
    When the C pass raises or reads a non-finite value, the file is read
    again by a row loop (:func:`_load_rows`), which either names the first
    bad row and column or reads the spellings only ``float`` accepts (``1_0``,
    lines of whitespace).
    """
    path = Path(path)
    with open(path, newline="") as handle:
        header, arm_pos, cells = _columns(csv.reader(handle), path, schema)
        parsed = _parse_in_c(handle, len(header), arm_pos, cells)
    if parsed is None:
        return _load_rows(path, schema)
    return _experiment(*parsed)


def _columns(reader, path: Path, schema: CsvSchema):
    """Header cells, arm column position, and (position, name) of the covariates then the outcome."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path} is empty", row=1)
    header = [h.strip() for h in header]
    for name in (schema.arm, schema.outcome, *schema.covariates):
        if name not in header:
            raise MissingColumn(f"column {name!r} not found in {path}")
    covariate_names = list(schema.covariates) or [
        h for h in header if h not in (schema.arm, schema.outcome)
    ]
    if not covariate_names:
        raise MissingColumn(f"{path} has no covariate columns")
    names = [*covariate_names, schema.outcome]
    return header, header.index(schema.arm), [(header.index(name), name) for name in names]


def _parse_in_c(handle, n_columns: int, arm_pos: int, cells):
    """The data rows after the header as (covariates, outcomes, labels, index), or None.

    None means the row loop must read the file: the C reader raised, read a
    non-finite value, or found no data rows.
    """
    numeric = [pos for pos, _ in cells]
    seen: dict[str, int] = {}

    def label_index(cell: str) -> int:
        return seen.setdefault(cell.strip(), len(seen))

    converters = {pos: _unused_cell for pos in range(n_columns) if pos not in numeric}
    converters[arm_pos] = label_index
    # loadtxt skips empty lines but warns when no data row is left
    for first in handle:
        if first.strip("\r\n"):
            break
    else:
        return None
    try:
        table = np.loadtxt(
            chain((first,), handle), delimiter=",", comments=None, quotechar='"',
            converters=converters, ndmin=2,
        )
    except ValueError:
        return None
    # the first data row sets the C reader's cell count, so check it against the header
    values = table[:, numeric] if table.shape[1] == n_columns else None
    if values is None or not np.isfinite(values).all():
        return None
    return values[:, :-1], values[:, -1], list(seen), table[:, arm_pos].astype(np.intp)


def _unused_cell(cell: str) -> float:
    return 0.0


def _load_rows(path: Path, schema: CsvSchema) -> ExperimentData:
    """Read the experiment one row at a time with Python's ``float``, naming the first bad cell."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header, arm_pos, cells = _columns(reader, path, schema)
        numeric_cells = itemgetter(*(pos for pos, _ in cells))
        rows, index, seen = [], [], {}
        for line, record in enumerate(reader, start=2):
            if not "".join(record).strip():
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"row {line} has {len(record)} cells, header has {len(header)}",
                    row=line,
                )
            try:
                values = list(map(float, numeric_cells(record)))
            except ValueError:
                values = None
            if values is None or not all(map(math.isfinite, values)):
                _raise_bad_cell(record, line, cells)
            rows.append(values)
            index.append(seen.setdefault(record[arm_pos].strip(), len(seen)))
    # covariate columns, then the outcome column
    table = np.asarray(rows, dtype=float).reshape(len(rows), len(cells))
    return _experiment(table[:, :-1], table[:, -1], list(seen), np.asarray(index, dtype=np.intp))


def _experiment(covariates, outcomes, labels: list[str], index: np.ndarray) -> ExperimentData:
    """Number the arm ``labels`` (distinct, in order of first appearance) and build the data.

    ``index[i]`` is the position in ``labels`` of unit i's label.
    """
    order = sorted(labels)
    try:
        numeric = {label: float(label) for label in order}
        if all(np.isfinite(v) for v in numeric.values()):
            order.sort(key=lambda label: (numeric[label], label))
    except ValueError:
        pass
    code = {label: rank + 1 for rank, label in enumerate(order)}
    arms = np.asarray([code[label] for label in labels], dtype=int)[index]
    return ExperimentData(
        covariates=covariates, arms=arms, outcomes=outcomes, n_arms=len(labels)
    )


def _raise_bad_cell(record: list[str], line: int, cells) -> None:
    """Raise for the first cell of ``record``, in ``cells`` order, that is not a finite float."""
    for pos, name in cells:
        try:
            value = float(record[pos])
        except ValueError:
            raise ParseError(
                f"row {line}, column {name!r}: cannot parse {record[pos]!r}",
                row=line,
                column=name,
            ) from None
        if not math.isfinite(value):
            raise NonFiniteValue(
                f"row {line}, column {name!r}: non-finite value {record[pos]!r}"
            )


def _write_rows(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(report, path: str | Path) -> Path:
    """Write a band or a study report as CSV.

    Existing files are overwritten; the format depends only on the object,
    so identical inputs produce identical bytes.
    """
    path = Path(path)
    if isinstance(report, EffectBand):
        _write_rows(
            path,
            ["location", "point", "se", "ci_lo", "ci_hi"],
            (
                [_fmt(loc), _fmt(p), _fmt(s), _fmt(lo), _fmt(hi)]
                for loc, p, s, lo, hi in zip(
                    report.locations, report.point, report.se,
                    report.ci_lower, report.ci_upper,
                )
            ),
        )
    elif isinstance(report, SimulationReport):
        rows = []
        for j, loc in enumerate(report.locations):
            for name in report.methods:
                rows.append([
                    _fmt(loc),
                    name,
                    _fmt(report.bias[name][j]),
                    _fmt(report.mse[name][j]),
                    _fmt(report.reduction_pct[name][j]),
                ])
        _write_rows(path, ["location", "method", "bias", "mse", "reduction_pct"], rows)
    else:
        raise TypeError(f"cannot emit a report for {type(report).__name__}")
    return path


def write_points_csv(path: str | Path, locations, columns: dict) -> Path:
    """Point estimates: one location column plus one column per named series."""
    path = Path(path)
    names = list(columns)
    rows = (
        [_fmt(loc), *(_fmt(columns[name][j]) for name in names)]
        for j, loc in enumerate(locations)
    )
    _write_rows(path, ["location", *names], rows)
    return path


def write_manifest(path: str | Path, config: dict, outputs: list[str], timings: dict | None = None) -> Path:
    """JSON record of the resolved configuration, outputs, and wall times.

    The configuration block is sufficient to replay the run; timings are
    informational and are the one part that varies between identical runs.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": config,
        "outputs": sorted(outputs),
        "timings_seconds": timings or {},
    }
    # serialized before the file is opened, so a value JSON cannot hold leaves no partial manifest
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return path


def load_manifest(path: str | Path) -> dict:
    """Read back the configuration block of an emitted manifest."""
    with open(path) as handle:
        payload = json.load(handle)
    if "config" not in payload:
        raise ParseError(f"{path} is not a run manifest (no config block)")
    return payload["config"]
