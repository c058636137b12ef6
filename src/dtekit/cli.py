"""Command line interface.

Four subcommands: ``simulate`` runs the synthetic Monte Carlo study,
``estimate`` and ``bootstrap-band`` work on a CSV experiment, ``benchmark``
times the learners on one synthetic dataset. Every run writes its outputs
plus a ``manifest.json`` holding the fully resolved configuration; replaying
a manifest with ``--from-manifest`` reproduces the data outputs byte for
byte (timings excepted, since wall clocks are not replayable). Networks train
in the manifest's ``precision``; a manifest without that key predates it and
trained in float64, so it replays in float64. Bands draw their multipliers
under the manifest's ``multiplier_scheme``; a manifest without that key
predates it and replays on scheme 1.

Exit codes: 0 on success, 1 for domain errors (bad data, singular designs,
unreadable files), 2 for usage errors (bad flags or configuration values).
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

from .core import LocationGrid
from .errors import DomainError
from .estimation import (
    dte,
    empirical_cdf,
    fit_adjusted,
    make_folds,
    crossfit_gamma,
    pte,
    quantile_grid,
)
from .inference import _check_multiplier_scheme, bootstrap_bands, se_reduction
from .io import (
    CsvSchema,
    emit_report,
    load_csv,
    load_manifest,
    write_manifest,
    write_points_csv,
    write_timings_csv,
)
from .learners import LEARNER_KINDS, LearnerKind
from .nn import TrainConfig, _integers, _is_integer
from .simulation import DgpConfig, run_study
from . import simulation

__all__ = ["RunConfig", "run", "main"]

_MODES = ("simulate", "estimate", "bootstrap-band", "benchmark")
_INTEGER_FIELDS = ("n_units", "n_reps", "n_folds", "n_draws", "threads", "n_oracle", "multiplier_scheme")
_METHOD_NAMES = ("empirical", *LEARNER_KINDS)


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
    threads: int = 1
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
        if self.functional not in ("cdf", "dte", "pte"):
            raise ValueError(f"functional must be cdf, dte, or pte, got {self.functional!r}")
        if self.z_mode not in ("half-alpha", "literal"):
            raise ValueError(f"z_mode must be half-alpha or literal, got {self.z_mode!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # a NumPy integer would not serialize into the manifest
            object.__setattr__(self, name, int(value))
        if self.n_folds < 2:
            raise ValueError("folds must be at least 2")
        if self.n_draws < 2:
            raise ValueError("B must be at least 2")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.n_units < 2:
            raise ValueError("n must be at least 2")
        _check_multiplier_scheme(self.multiplier_scheme)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "hidden", _integers(self.hidden, "hidden widths"))
        object.__setattr__(self, "covariate_cols", tuple(self.covariate_cols))
        pair = tuple(int(a) for a in self.arm_pair)
        if len(pair) != 2:
            raise ValueError("arm_pair must hold exactly two arm labels")
        object.__setattr__(self, "arm_pair", pair)
        if self.mode in ("estimate", "bootstrap-band") and not self.input:
            raise ValueError(f"mode {self.mode} requires --input CSV")
        # grid syntax, training and learner settings are validated eagerly so
        # bad values fail as usage errors, before any work
        parse_grid_spec(self.grid)
        _train_config(self)
        _learner_kinds(self)


def parse_grid_spec(spec: str):
    """Parse a grid argument into ("probs" | "list" | "range", values)."""
    spec = spec.strip()
    if "=" not in spec:
        raise ValueError(
            f"grid spec {spec!r} needs a prefix: probs=a:b:step, probs=p1,p2,..., "
            "list=v1,v2,..., or range=lo:hi"
        )
    prefix, _, body = spec.partition("=")
    prefix = prefix.strip()
    body = body.strip()
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
            if np.any(values <= 0.0) or np.any(values >= 1.0):
                raise ValueError("probabilities must lie strictly inside (0, 1)")
            if np.any(np.diff(values) <= 0):
                raise ValueError("probabilities must be strictly increasing")
            return "probs", values
        if prefix == "list":
            values = np.asarray([float(v) for v in body.split(",")], dtype=float)
            if np.any(np.diff(values) <= 0):
                raise ValueError("list locations must be strictly increasing")
            return "list", values
        if prefix == "range":
            lo_s, _, hi_s = body.partition(":")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError("range must not be empty")
            return "range", np.arange(lo, hi + 1, dtype=float)
    except ValueError as exc:
        raise ValueError(f"bad grid spec {spec!r}: {exc}") from None
    raise ValueError(f"grid spec {spec!r} must start with probs=, list=, or range=")


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
    names = {"simulate": config.methods, "benchmark": LEARNER_KINDS}.get(config.mode, (config.learner,))
    return {name: _learner_kind(config, name) for name in names}


def _resolve_grid(config: RunConfig, data):
    kind, values = parse_grid_spec(config.grid)
    if kind == "probs":
        return quantile_grid(data, values)
    return LocationGrid(locations=values)


def _config_dict(config: RunConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(payload: dict) -> RunConfig:
    """The run configuration a manifest's config block records.

    A block without ``precision`` was written when networks trained in float64
    only, so it is read as float64; a block without ``multiplier_scheme`` was
    written when bands read each repetition's multipliers as one chunk, so it
    is read as scheme 1. Either way it replays byte for byte.
    """
    kwargs = {"precision": "float64", "multiplier_scheme": 1}
    names = {f.name for f in dataclasses.fields(RunConfig)}
    for key, value in payload.items():
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
        n_workers=config.threads,
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
    plan = make_folds(data.n_units, config.n_folds, config.seed)
    empirical = empirical_cdf(data, grid)
    t0 = time.perf_counter()
    adjusted = fit_adjusted(data, grid, _learner_kinds(config)[config.learner], plan)
    fit_seconds = time.perf_counter() - t0
    return data, grid, empirical, adjusted, fit_seconds


def _functional_values(config: RunConfig, estimate):
    w, v = config.arm_pair
    if config.functional == "cdf":
        return estimate.values[w - 1]
    if config.functional == "dte":
        return dte(estimate, w, v)
    return pte(estimate, w, v)


def _run_estimate(config: RunConfig, out: Path) -> dict:
    data, grid, empirical, adjusted, fit_seconds = _estimate_pieces(config)
    locations = grid.locations if config.functional != "pte" else grid.locations[1:]
    points = write_points_csv(
        out / "points.csv",
        locations,
        {
            "empirical": _functional_values(config, empirical),
            config.learner: _functional_values(config, adjusted.estimate),
        },
    )
    return {"outputs": [points], "timings": {"fit_seconds": fit_seconds}}


def _run_bootstrap_band(config: RunConfig, out: Path) -> dict:
    data, grid, empirical, adjusted, fit_seconds = _estimate_pieces(config)
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


def _run_benchmark(config: RunConfig, out: Path) -> dict:
    dgp = DgpConfig(n_units=config.n_units, seed=config.seed)
    data = simulation.generate(dgp)
    grid = _resolve_grid(config, data)
    plan = make_folds(data.n_units, config.n_folds, config.seed)
    timings = {}
    for name, kind in _learner_kinds(config).items():
        _say(f"[benchmark] timing {name}")
        t0 = time.perf_counter()
        crossfit_gamma(data, grid, kind, plan)
        timings[name] = time.perf_counter() - t0
    path = write_timings_csv(out / "timings.csv", timings)
    return {"outputs": [path], "timings": timings}


def run(config: RunConfig) -> dict:
    """Execute one configured run and write its outputs plus the manifest."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    worker = {
        "simulate": _run_simulate,
        "estimate": _run_estimate,
        "bootstrap-band": _run_bootstrap_band,
        "benchmark": _run_benchmark,
    }[config.mode]
    result = worker(config, out)
    manifest = write_manifest(
        out / "manifest.json",
        _config_dict(config),
        [p.name for p in result["outputs"]],
        result["timings"],
    )
    result["manifest"] = manifest
    for path in (*result["outputs"], manifest):
        _say(f"wrote {path}")
    return result


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI file with [run] and [learner] sections")
    sub.add_argument("--from-manifest", help="replay the configuration of an emitted manifest.json")
    sub.add_argument("--n", type=int, dest="n_units", help="number of units (simulate, benchmark)")
    sub.add_argument("--reps", type=int, dest="n_reps", help="Monte Carlo replications (simulate)")
    sub.add_argument("--folds", type=int, dest="n_folds", help="cross-fitting folds")
    sub.add_argument("--learner", choices=LEARNER_KINDS, help="adjustment learner")
    sub.add_argument("--methods", help="comma list of methods to compare (simulate)")
    sub.add_argument("--grid", help="probs=a:b:step | probs=p1,p2,... | list=v1,... | range=lo:hi")
    sub.add_argument("--B", type=int, dest="n_draws", help="bootstrap repetitions")
    sub.add_argument("--alpha", type=float, help="band miscoverage level")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--threads", type=int, help="worker processes for replications (simulate)")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--functional", choices=("cdf", "dte", "pte"))
    sub.add_argument("--arm-pair", dest="arm_pair", help="two arm indices, e.g. 2,1")
    sub.add_argument("--z-mode", dest="z_mode", choices=("half-alpha", "literal"))
    sub.add_argument("--n-oracle", type=int, dest="n_oracle", help="oracle draw size (simulate)")
    sub.add_argument("--input", help="experiment CSV (estimate, bootstrap-band)")
    sub.add_argument("--arm-col", dest="arm_col", help="arm column name")
    sub.add_argument("--outcome-col", dest="outcome_col", help="outcome column name")
    sub.add_argument("--covariates", dest="covariate_cols", help="comma list of covariate columns")
    sub.add_argument("--epochs", type=int, help="training epochs")
    sub.add_argument("--batch-size", type=int, dest="batch_size")
    sub.add_argument("--learning-rate", type=float, dest="learning_rate")
    sub.add_argument("--hidden", help="comma list of hidden widths, e.g. 128,64")
    sub.add_argument("--ridge", type=float, help="ridge penalty of the linear learner")
    sub.add_argument("--transform", choices=("exp", "softplus"), help="monotone head transform")
    sub.add_argument("--squash", choices=("arctan", "tanh-half"), help="monotone head squash")


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
        ("benchmark", "per-learner cross-fitting wall times"),
    ):
        _add_common_flags(subs.add_parser(mode, help=text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args, args.mode)
    except (ValueError, KeyError, TypeError) as exc:
        _say(f"usage error: {exc}")
        return 2
    except OSError as exc:
        _say(f"error: {exc}")
        return 1
    try:
        run(config)
    except DomainError as exc:
        _say(f"error: {type(exc).__name__}: {exc}")
        return 1
    except (OSError, ValueError) as exc:
        _say(f"error: {type(exc).__name__}: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
