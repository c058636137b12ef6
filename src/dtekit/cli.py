"""Command line interface.

Three subcommands: ``simulate`` runs the synthetic Monte Carlo study and
records each method's fit seconds per replication, ``estimate`` and
``bootstrap-band`` work on a CSV experiment. Every run writes its outputs
plus a ``manifest.json`` holding the fully resolved configuration; replaying
a manifest with ``--from-manifest`` reproduces every output file byte for
byte. Wall times live only in the manifest's ``timings_seconds``, since wall
clocks are not replayable. Networks train in the manifest's ``precision``; a
manifest without that key predates it and trained in float64, so it replays
in float64. Bands draw their multipliers under the manifest's
``multiplier_scheme``; a manifest without that key predates it and replays
on scheme 1. No setting sizes a run's processes or threads: they follow the
CPUs the process may use, so ``taskset`` limits them. A manifest's
``threads`` key, from when ``simulate --threads`` sized a replication pool,
is ignored.

Exit codes: 0 on success, 1 for domain errors (bad data, singular designs,
unreadable files), 2 for usage errors (bad flags or configuration values,
such as a curve no data can satisfy), which are raised before any file is written.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import LocationGrid, _integer, _integers
from .errors import DomainError
from .estimation import (
    _FUNCTIONALS,
    _check_curve,
    _check_probabilities,
    _curve,
    empirical_cdf,
    fit_adjusted,
    make_folds,
    quantile_grid,
)
from .inference import _check_band_settings, bootstrap_bands, se_reduction
from .io import (
    CsvSchema,
    emit_report,
    load_csv,
    load_manifest,
    write_manifest,
    write_points_csv,
)
from .learners import LEARNER_KINDS, LearnerKind
from .nn import TrainConfig
from .simulation import DgpConfig, _check_study_settings, run_study
from . import simulation

__all__ = ["RunConfig", "run", "main"]

_MODES = ("simulate", "estimate", "bootstrap-band")
_INTEGER_FIELDS = ("seed", "n_units", "n_reps", "n_folds", "n_draws", "n_oracle", "multiplier_scheme")
_METHOD_NAMES = ("empirical", *LEARNER_KINDS)
_Z_MODES = ("half-alpha", "literal")
# the modes that form a curve of an arm pair; the others ignore those fields
_CURVE_MODES = ("estimate", "bootstrap-band")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one CLI run; the manifest stores exactly this."""

    mode: str
    out: str = "dtekit-out"
    seed: int = 0
    n_units: int = 1000
    n_reps: int = 10
    n_folds: int = 2
    learner: str = "linear"
    methods: tuple[str, ...] = ("empirical", "linear", "nn-multi", "nn-multi-monotone")
    grid: str = "probs=0.05:0.95:0.05"
    n_draws: int = 5000
    alpha: float = 0.05
    functional: str = "dte"
    arm_pair: tuple[int, int] = (2, 1)
    z_mode: str = "half-alpha"
    n_oracle: int = 100_000
    input: str = ""
    arm_col: str = "arm"
    outcome_col: str = "outcome"
    covariate_cols: tuple[str, ...] = ()
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 0.01
    hidden: tuple[int, ...] = (128, 64)
    ridge: float = 1e-8
    transform: str = "exp"
    squash: str = "arctan"
    precision: str = "float32"
    multiplier_scheme: int = 2

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.learner not in LEARNER_KINDS:
            raise ValueError(f"learner must be one of {LEARNER_KINDS}, got {self.learner!r}")
        for name in self.methods:
            if name not in _METHOD_NAMES:
                raise ValueError(f"unknown method {name!r}; choose from {_METHOD_NAMES}")
        if self.z_mode not in _Z_MODES:
            raise ValueError(f"z_mode must be one of {_Z_MODES}, got {self.z_mode!r}")
        for name in _INTEGER_FIELDS:
            # a NumPy integer would not serialize into the manifest
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n_folds < 2:
            raise ValueError("folds must be at least 2")
        if self.n_units < 2:
            raise ValueError("n must be at least 2")
        _check_band_settings(self.functional, self.n_draws, self.alpha, self.seed, self.multiplier_scheme)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "hidden", _integers(self.hidden, "hidden widths"))
        object.__setattr__(self, "covariate_cols", tuple(self.covariate_cols))
        pair = _integers(self.arm_pair, "arm pair")
        if len(pair) != 2:
            raise ValueError("arm_pair must hold exactly two arm labels")
        object.__setattr__(self, "arm_pair", pair)
        if self.mode in _CURVE_MODES and not self.input:
            raise ValueError(f"mode {self.mode} requires --input CSV")
        # grid syntax, curve, training and learner settings are validated
        # eagerly so bad values fail as usage errors, before any work
        _, grid_values = parse_grid_spec(self.grid)
        if self.mode in _CURVE_MODES:
            _check_curve(self.functional, pair, len(grid_values))
        else:
            _check_study_settings(self.n_oracle, self.n_reps)
        _train_config(self)
        _learner_kinds(self)


def parse_grid_spec(spec: str):
    """Parse a grid argument into ("probs" | "list" | "range", values)."""
    spec = spec.strip()
    prefix, _, body = (part.strip() for part in spec.partition("="))
    if prefix not in ("probs", "list", "range"):
        raise ValueError(
            f"grid spec {spec!r} needs a prefix: probs=a:b:step, probs=p1,p2,..., "
            "list=v1,v2,..., or range=lo:hi"
        )
    try:
        if prefix == "probs":
            if ":" in body:
                parts = [float(p) for p in body.split(":")]
                if len(parts) != 3:
                    raise ValueError("probs range must be start:stop:step")
                start, stop, step = parts
                if step <= 0 or stop < start:
                    raise ValueError("probs range must increase")
                count = int(round((stop - start) / step)) + 1
                values = np.round(np.linspace(start, stop, count), 12)
            else:
                values = np.asarray([float(p) for p in body.split(",")], dtype=float)
            return "probs", _check_probabilities(values)
        if prefix == "list":
            values = np.asarray([float(v) for v in body.split(",")], dtype=float)
        else:
            lo_s, _, hi_s = body.partition(":")
            values = np.arange(int(lo_s), int(hi_s) + 1, dtype=float)
        LocationGrid(locations=values)
        return prefix, values
    except (ValueError, DomainError) as exc:
        raise ValueError(f"bad grid spec {spec!r}: {exc}") from None


def _train_config(config: RunConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        epochs=config.epochs,
        seed=config.seed,
        precision=config.precision,
    )


def _learner_kind(config: RunConfig, name: str) -> LearnerKind | None:
    if name == "empirical":
        return None
    return LearnerKind(
        kind=name,
        hidden=config.hidden,
        transform=config.transform,
        squash=config.squash,
        ridge=config.ridge,
        train=_train_config(config),
    )


def _learner_kinds(config: RunConfig) -> dict[str, LearnerKind | None]:
    """The learners the run's mode uses, by method name."""
    names = config.methods if config.mode == "simulate" else (config.learner,)
    return {name: _learner_kind(config, name) for name in names}


def _resolve_grid(config: RunConfig, data):
    kind, values = parse_grid_spec(config.grid)
    if kind == "probs":
        return quantile_grid(data, values)
    return LocationGrid(locations=values)


def config_from_dict(payload: dict) -> RunConfig:
    """The run configuration a manifest's config block records.

    A block without ``precision`` was written when networks trained in float64
    only, so it is read as float64; a block without ``multiplier_scheme`` was
    written when bands read each repetition's multipliers as one chunk, so it
    is read as scheme 1. Either way it replays byte for byte. A ``threads`` key
    sized the replication pool of ``simulate``, which no longer exists; the
    report never depended on it, so the key is dropped.
    """
    kwargs = {"precision": "float64", "multiplier_scheme": 1}
    names = {f.name for f in dataclasses.fields(RunConfig)}
    for key, value in payload.items():
        if key == "threads":
            continue
        if key not in names:
            raise ValueError(f"unknown configuration key {key!r}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return RunConfig(**kwargs)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _run_simulate(config: RunConfig, out: Path) -> dict:
    kind, values = parse_grid_spec(config.grid)
    report = run_study(
        DgpConfig(n_units=config.n_units, seed=config.seed),
        _learner_kinds(config),
        n_reps=config.n_reps,
        n_folds=config.n_folds,
        probs=values if kind == "probs" else simulation.DEFAULT_QUANTILES,
        n_oracle=config.n_oracle,
        cache_dir=out / "oracle-cache",
        locations=None if kind == "probs" else values,
    )
    study_path = emit_report(report, out / "study.csv")
    return {
        "outputs": [study_path],
        "timings": {f"fit_seconds_per_rep:{k}": v for k, v in report.fit_seconds.items()},
    }


def _estimate_pieces(config: RunConfig):
    data = load_csv(
        config.input,
        CsvSchema(arm=config.arm_col, outcome=config.outcome_col, covariates=config.covariate_cols),
    )
    grid = _resolve_grid(config, data)
    # the arms' upper bound, checked before the fit
    pair = _check_curve(config.functional, config.arm_pair, grid.n_locations, data.n_arms)
    plan = make_folds(data.n_units, config.n_folds, config.seed)
    empirical = empirical_cdf(data, grid)
    t0 = time.perf_counter()
    adjusted = fit_adjusted(data, grid, _learner_kinds(config)[config.learner], plan)
    fit_seconds = time.perf_counter() - t0
    return data, grid, pair, empirical, adjusted, fit_seconds


def _run_estimate(config: RunConfig, out: Path) -> dict:
    _, grid, pair, empirical, adjusted, fit_seconds = _estimate_pieces(config)
    locations = grid.locations if config.functional != "pte" else grid.locations[1:]
    points = write_points_csv(
        out / "points.csv",
        locations,
        {
            "empirical": _curve(empirical.values, config.functional, *pair),
            config.learner: _curve(adjusted.estimate.values, config.functional, *pair),
        },
    )
    return {"outputs": [points], "timings": {"fit_seconds": fit_seconds}}


def _run_bootstrap_band(config: RunConfig, out: Path) -> dict:
    data, grid, _, empirical, adjusted, fit_seconds = _estimate_pieces(config)
    literal = config.z_mode == "literal"
    common = dict(
        kind=config.functional,
        arm_pair=config.arm_pair,
        n_draws=config.n_draws,
        alpha=config.alpha,
        seed=config.seed,
        literal_upper_quantile=literal,
        multiplier_scheme=config.multiplier_scheme,
    )
    band_emp, band_adj = bootstrap_bands(data, grid, (empirical, adjusted), **common)
    outputs = [
        emit_report(band_emp, out / "band_empirical.csv"),
        emit_report(band_adj, out / f"band_{config.learner}.csv"),
    ]
    reduction = se_reduction(band_emp, band_adj)
    outputs.append(
        write_points_csv(out / "se_reduction.csv", band_emp.locations, {"reduction_pct": reduction})
    )
    return {"outputs": outputs, "timings": {"fit_seconds": fit_seconds}}


def run(config: RunConfig) -> dict:
    """Execute one configured run and write its outputs plus the manifest."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    worker = {
        "simulate": _run_simulate,
        "estimate": _run_estimate,
        "bootstrap-band": _run_bootstrap_band,
    }[config.mode]
    result = worker(config, out)
    manifest = write_manifest(
        out / "manifest.json",
        dataclasses.asdict(config),
        [p.name for p in result["outputs"]],
        result["timings"],
    )
    result["manifest"] = manifest
    for path in (*result["outputs"], manifest):
        _say(f"wrote {path}")
    return result


def _add_common_flags(sub: argparse.ArgumentParser) -> dict[str, str]:
    """Add the flags every mode takes; return the flag of each destination."""
    actions = [
        sub.add_argument("--config", help="INI file with [run] and [learner] sections"),
        sub.add_argument("--from-manifest", help="replay the configuration of an emitted manifest.json"),
        sub.add_argument("--n", type=int, dest="n_units", help="number of units (simulate)"),
        sub.add_argument("--reps", type=int, dest="n_reps", help="Monte Carlo replications (simulate)"),
        sub.add_argument("--folds", type=int, dest="n_folds", help="cross-fitting folds"),
        sub.add_argument("--learner", choices=LEARNER_KINDS, help="adjustment learner"),
        sub.add_argument("--methods", help="comma list of methods to compare (simulate)"),
        sub.add_argument("--grid", help="probs=a:b:step | probs=p1,p2,... | list=v1,... | range=lo:hi"),
        sub.add_argument("--B", type=int, dest="n_draws", help="bootstrap repetitions"),
        sub.add_argument("--alpha", type=float, help="band miscoverage level"),
        sub.add_argument("--seed", type=int, help="master seed"),
        sub.add_argument("--out", help="output directory"),
        sub.add_argument("--functional", choices=_FUNCTIONALS),
        sub.add_argument("--arm-pair", dest="arm_pair", help="two arm indices, e.g. 2,1"),
        sub.add_argument("--z-mode", dest="z_mode", choices=_Z_MODES),
        sub.add_argument("--n-oracle", type=int, dest="n_oracle", help="oracle draw size (simulate)"),
        sub.add_argument("--input", help="experiment CSV (estimate, bootstrap-band)"),
        sub.add_argument("--arm-col", dest="arm_col", help="arm column name"),
        sub.add_argument("--outcome-col", dest="outcome_col", help="outcome column name"),
        sub.add_argument("--covariates", dest="covariate_cols", help="comma list of covariate columns"),
        sub.add_argument("--epochs", type=int, help="training epochs"),
        sub.add_argument("--batch-size", type=int, dest="batch_size"),
        sub.add_argument("--learning-rate", type=float, dest="learning_rate"),
        sub.add_argument("--hidden", help="comma list of hidden widths, e.g. 128,64"),
        sub.add_argument("--ridge", type=float, help="ridge penalty of the linear learner"),
        sub.add_argument("--transform", choices=("exp", "softplus"), help="monotone head transform"),
        sub.add_argument("--squash", choices=("arctan", "tanh-half"), help="monotone head squash"),
    ]
    return {action.dest: action.option_strings[0] for action in actions}


_TUPLE_KEYS = {
    "methods": str,
    "covariate_cols": str,
    "hidden": int,
    "arm_pair": int,
}


def _coerce(key: str, value: str):
    if key in _TUPLE_KEYS:
        caster = _TUPLE_KEYS[key]
        return tuple(caster(part.strip()) for part in str(value).split(",") if str(part).strip())
    field_types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    kind = field_types.get(key, "str")
    if kind == "int":
        return int(value)
    if kind == "float":
        return float(value)
    return str(value)


def _load_ini(path: str) -> dict:
    parser = configparser.ConfigParser()
    with open(path) as handle:
        parser.read_file(handle)
    merged = {}
    for section in parser.sections():
        if section not in ("run", "learner"):
            raise ValueError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            merged[key] = _coerce(key, value)
    return merged


def _resolve_config(args: argparse.Namespace, mode: str) -> RunConfig:
    if args.from_manifest:
        # a replay takes every setting from the manifest; any other flag would be ignored
        flags = _add_common_flags(argparse.ArgumentParser())
        given = [flag for name, flag in flags.items()
                 if getattr(args, name) is not None and name not in ("from_manifest", "out")]
        if given:
            raise ValueError(f"--from-manifest takes no other flag than --out, got {', '.join(given)}")
        payload = load_manifest(args.from_manifest)
        if payload.get("mode") != mode:
            raise ValueError(
                f"manifest was written by mode {payload.get('mode')!r}, not {mode!r}"
            )
        if args.out is not None:
            payload = dict(payload, out=args.out)
        return config_from_dict(payload)
    values: dict = {}
    if args.config:
        values.update(_load_ini(args.config))
    for key in (f.name for f in dataclasses.fields(RunConfig)):
        if key == "mode":
            continue
        provided = getattr(args, key, None)
        if provided is not None:
            values[key] = _coerce(key, provided) if isinstance(provided, str) else provided
    return RunConfig(mode=mode, **values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtekit",
        description="Distributional treatment effect estimation and benchmarking",
    )
    subs = parser.add_subparsers(dest="mode", required=True)
    for mode, text in (
        ("simulate", "Monte Carlo study on the synthetic benchmark"),
        ("estimate", "point estimates from an experiment CSV"),
        ("bootstrap-band", "estimates with multiplier-bootstrap bands"),
    ):
        _add_common_flags(subs.add_parser(mode, help=text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args, args.mode)
    except (ValueError, KeyError, TypeError, DomainError) as exc:
        _say(f"usage error: {exc}")
        return 2
    except OSError as exc:
        _say(f"error: {exc}")
        return 1
    try:
        run(config)
    except (DomainError, OSError, ValueError) as exc:
        _say(f"error: {type(exc).__name__}: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
