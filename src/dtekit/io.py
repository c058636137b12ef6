"""CSV input, report output, and the JSON run manifest.

Numeric output formatting uses repr-exact floats ("%.17g"), so rerunning the
same computation writes byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
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
    columns, in header order.
    """

    arm: str = "arm"
    outcome: str = "outcome"
    covariates: tuple[str, ...] = ()


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def load_csv(path: str | Path, schema: CsvSchema = CsvSchema()) -> ExperimentData:
    """Read an experiment from CSV with a header row.

    Arm labels may be arbitrary strings; they map to 1..K in sorted order
    (numeric order when every label parses as a number). Row numbers in
    errors are physical file lines, header included.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
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
        arm_pos = header.index(schema.arm)
        outcome_pos = header.index(schema.outcome)
        cov_pos = [header.index(name) for name in covariate_names]

        cells = [*zip(cov_pos, covariate_names), (outcome_pos, schema.outcome)]
        numeric_cells = itemgetter(*(pos for pos, _ in cells))
        rows, arm_labels = [], []
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
            arm_labels.append(record[arm_pos].strip())

    labels_seen = sorted(set(arm_labels))
    try:
        numeric = {label: float(label) for label in labels_seen}
        if all(np.isfinite(v) for v in numeric.values()):
            labels_seen.sort(key=lambda label: (numeric[label], label))
    except ValueError:
        pass
    code = {label: rank + 1 for rank, label in enumerate(labels_seen)}
    arms = [code[label] for label in arm_labels]
    # covariate columns, then the outcome column
    table = np.asarray(rows, dtype=float).reshape(len(rows), len(cells))
    return ExperimentData(
        covariates=table[:, :-1],
        arms=np.asarray(arms, dtype=int),
        outcomes=table[:, -1],
        n_arms=len(set(arms)),
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


def write_timings_csv(path: str | Path, seconds: dict) -> Path:
    """Per-method timing table (method, fit_seconds)."""
    path = Path(path)
    _write_rows(
        path,
        ["method", "fit_seconds"],
        ([name, _fmt(value)] for name, value in seconds.items()),
    )
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
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(path: str | Path) -> dict:
    """Read back the configuration block of an emitted manifest."""
    with open(path) as handle:
        payload = json.load(handle)
    if "config" not in payload:
        raise ParseError(f"{path} is not a run manifest (no config block)")
    return payload["config"]
