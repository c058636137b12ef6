"""Command line interface.

Three subcommands: ``simulate`` runs the synthetic Monte Carlo study and
records each method's fit seconds per replication, ``estimate`` and
``bootstrap-band`` work on a CSV experiment. Each mode takes the flags and
INI keys of only the settings it reads, and each ``RunConfig`` field declares
its setting once (:func:`_flag`, :func:`_replay_only`). Every run writes its
outputs plus a ``manifest.json`` holding the fully resolved configuration; replaying
a manifest with ``--from-manifest`` reproduces every output file byte for
byte. Wall times live only in the manifest's ``timings_seconds``, since wall
clocks are not replayable. ``precision`` and ``multiplier_scheme`` come only
from a manifest, since their other engines exist for replay: new runs train
in float32 and draw on scheme 5, and a manifest without either key predates
it and replays in float64 or on scheme 1. No setting sizes a run's processes or threads:
they follow the CPUs the process may use, so ``taskset`` limits them. A
manifest's ``threads`` key, from when ``simulate --threads`` sized a
replication pool, is ignored.

Exit codes: 0 on success, 1 for domain errors (bad data, singular designs,
unreadable files), 2 for usage errors (bad flags or configuration values,
such as a curve no data can satisfy), which are raised before any file is written.
A domain error raised before the run writes a file leaves no output
directory behind, unless the directory existed before the run.
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

from .core import LocationGrid, _integer, _integers, _is_real
from .errors import DomainError
from .estimation import (
    _DEFAULT_FOLDS,
    _FUNCTIONALS,
    _check_curve,
    _check_folds,
    _check_probabilities,
    _curve,
    empirical_cdf,
    fit_adjusted,
    make_folds,
    quantile_grid,
)
from .inference import (
    _DEFAULT_ALPHA, _DEFAULT_ARM_PAIR, _DEFAULT_KIND, _DEFAULT_MULTIPLIER_SCHEME, _DEFAULT_N_DRAWS,
    _check_band_settings, _check_multiplier_scheme, bootstrap_bands, se_reduction,
)
from .io import (
    CsvSchema,
    emit_report,
    load_csv,
    load_manifest,
    write_manifest,
    write_points_csv,
)
from .learners import DEFAULT_HIDDEN, DEFAULT_RIDGE, LEARNER_KINDS, LearnerKind
from .nn import SQUASHES, TRANSFORMS, LayerSpec, TrainConfig
from .simulation import DEFAULT_ORACLE_UNITS, DgpConfig, _check_study_settings, run_study

__all__ = ["RunConfig", "run", "main"]

_MODES = ("simulate", "estimate", "bootstrap-band")
_METHOD_NAMES = ("empirical", *LEARNER_KINDS)
_Z_MODES = ("half-alpha", "literal")


def _names(text: str) -> tuple[str, ...]:
    """A comma list such as ``empirical,linear``, blank entries dropped."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _ints(text: str) -> tuple[int, ...]:
    """A comma list of integers such as ``128,64``."""
    return tuple(int(part) for part in _names(text))


_SIMULATE, _CURVE, _BAND = ("simulate",), ("estimate", "bootstrap-band"), ("bootstrap-band",)


def _flag(default, flag: str, parse, modes: tuple[str, ...], note: str):
    """A setting with a flag and an INI key named after its field.

    ``parse`` is a parser or a tuple of choices, ``modes`` the modes that read it, ``note`` its help.
    """
    metadata = {"flag": flag, "parse": parse, "modes": modes, "help": note}
    return dataclasses.field(default=default, metadata=metadata)


def _replay_only(default, parse, legacy):
    """A setting with no flag or INI key, which only a manifest sets.

    A manifest without its key predates it, and replays on ``legacy``.
    """
    return dataclasses.field(default=default, metadata={"parse": parse, "legacy": legacy})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one CLI run; the manifest stores exactly this."""

    mode: str
    out: str = _flag("dtekit-out", "--out", str, _MODES, "output directory")
    seed: int = _flag(0, "--seed", int, _MODES, "master seed")
    n_units: int = _flag(1000, "--n", int, _SIMULATE, "number of units")
    n_reps: int = _flag(10, "--reps", int, _SIMULATE, "Monte Carlo replications")
    n_folds: int = _flag(_DEFAULT_FOLDS, "--folds", int, _MODES, "cross-fitting folds")
    learner: str = _flag("linear", "--learner", LEARNER_KINDS, _CURVE, "adjustment learner")
    methods: tuple[str, ...] = _flag(("empirical", "linear", "nn-multi", "nn-multi-monotone"), "--methods",
                                     _names, _SIMULATE, "comma list of methods to compare")
    grid: str = _flag("probs=0.05:0.95:0.05", "--grid", str, _MODES,
                      "probs=a:b:step | probs=p1,p2,... | list=v1,... | range=lo:hi")
    n_draws: int = _flag(_DEFAULT_N_DRAWS, "--B", int, _BAND, "bootstrap repetitions")
    alpha: float = _flag(_DEFAULT_ALPHA, "--alpha", float, _BAND, "band miscoverage level")
    functional: str = _flag(_DEFAULT_KIND, "--functional", _FUNCTIONALS, _CURVE, "curve of the arm pair")
    arm_pair: tuple[int, int] = _flag(_DEFAULT_ARM_PAIR, "--arm-pair", _ints, _CURVE,
                                      "two arm indices, e.g. 2,1")
    z_mode: str = _flag("half-alpha", "--z-mode", _Z_MODES, _BAND, "critical value of the band")
    n_oracle: int = _flag(DEFAULT_ORACLE_UNITS, "--n-oracle", int, _SIMULATE, "oracle draw size")
    input: str = _flag("", "--input", str, _CURVE, "experiment CSV")
    arm_col: str = _flag(CsvSchema.arm, "--arm-col", str, _CURVE, "arm column name")
    outcome_col: str = _flag(CsvSchema.outcome, "--outcome-col", str, _CURVE, "outcome column name")
    covariate_cols: tuple[str, ...] = _flag(CsvSchema.covariates, "--covariates", _names, _CURVE,
                                            "comma list of covariate columns")
    epochs: int = _flag(TrainConfig.epochs, "--epochs", int, _MODES, "training epochs")
    batch_size: int = _flag(TrainConfig.batch_size, "--batch-size", int, _MODES, "training batch size")
    learning_rate: float = _flag(TrainConfig.learning_rate, "--learning-rate", float, _MODES,
                                 "Adam learning rate")
    hidden: tuple[int, ...] = _flag(DEFAULT_HIDDEN, "--hidden", _ints, _MODES,
                                    "comma list of hidden widths, e.g. 128,64")
    ridge: float = _flag(DEFAULT_RIDGE, "--ridge", float, _MODES, "ridge penalty of the linear learner")
    transform: str = _flag(LayerSpec.transform, "--transform", TRANSFORMS, _MODES, "monotone head transform")
    squash: str = _flag(LayerSpec.squash, "--squash", SQUASHES, _MODES, "monotone head squash")
    # networks trained in float64 only before the key was written
    precision: str = _replay_only(TrainConfig.precision, str, "float64")
    # bands read each repetition's multipliers as one chunk before the key was written
    multiplier_scheme: int = _replay_only(_DEFAULT_MULTIPLIER_SCHEME, int, 1)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for field in dataclasses.fields(self)[1:]:  # every field but mode
            # Python numbers, since a NumPy scalar would not serialize into the manifest
            name, parse, value = field.name, field.metadata["parse"], getattr(self, field.name)
            if parse is int:
                value = _integer(value, name)
            elif parse is float:
                if not _is_real(value):
                    raise ValueError(f"{name} must be a number, got {value!r}")
                value = float(value)
            elif isinstance(parse, tuple):
                # in every mode, so a manifest cannot carry a value no flag or INI key accepts
                _check_choice(name, value, parse)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "hidden", _integers(self.hidden, "hidden widths"))
        object.__setattr__(self, "covariate_cols", tuple(self.covariate_cols))
        object.__setattr__(self, "arm_pair", _integers(self.arm_pair, "arm pair"))
        # in every mode, so a replay cannot write a scheme no band reads into its manifest
        _check_multiplier_scheme(self.multiplier_scheme)
        _check_folds(self.n_folds)
        # each mode checks only the settings it reads, eagerly, so bad values
        # fail as usage errors before any work
        _, grid_values = parse_grid_spec(self.grid)
        if self.mode == "simulate":
            DgpConfig(n_units=self.n_units, seed=self.seed)
            _check_study_settings(self.n_oracle, self.n_reps)
            for i, name in enumerate(self.methods):
                if name not in _METHOD_NAMES:
                    raise ValueError(f"unknown method {name!r}; choose from {_METHOD_NAMES}")
                if name in self.methods[:i]:
                    raise ValueError(f"method {name!r} is listed twice")
        else:
            if not self.input:
                raise ValueError(f"mode {self.mode} requires --input CSV")
            _check_curve(self.functional, self.arm_pair, len(grid_values))
            _schema(self)
        if self.mode == "bootstrap-band":
            _check_band_settings(self.functional, self.n_draws, self.alpha, self.seed, self.multiplier_scheme)
        _train_config(self)
        _learner_kinds(self)


def _check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


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
                if abs((stop - start) / step - (count - 1)) > 1e-9:
                    raise ValueError(f"step {step:g} does not divide {stop:g} - {start:g}")
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


def _schema(config: RunConfig) -> CsvSchema:
    return CsvSchema(arm=config.arm_col, outcome=config.outcome_col, covariates=config.covariate_cols)


def _resolve_grid(config: RunConfig, data):
    kind, values = parse_grid_spec(config.grid)
    if kind == "probs":
        return quantile_grid(data, values)
    return LocationGrid(locations=values)


def config_from_dict(payload: dict) -> RunConfig:
    """The run configuration a manifest's config block records.

    A block without the key of a replay-only field was written before that
    field existed, so it is read as the field's legacy value and replays byte
    for byte. A ``threads`` key sized the replication pool of ``simulate``,
    which no longer exists; the report never depended on it, so the key is
    dropped.
    """
    fields = dataclasses.fields(RunConfig)
    kwargs = {f.name: f.metadata["legacy"] for f in fields if "legacy" in f.metadata}
    names = {f.name for f in fields}
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
        n_oracle=config.n_oracle,
        **{"probs" if kind == "probs" else "locations": values},
    )
    study_path = emit_report(report, out / "study.csv")
    return {
        "outputs": [study_path],
        "timings": {f"fit_seconds_per_rep:{k}": v for k, v in report.fit_seconds.items()},
    }


def _estimate_pieces(config: RunConfig):
    data = load_csv(config.input, _schema(config))
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
    band_emp, band_adj = bootstrap_bands(
        data, grid, (empirical, adjusted), kind=config.functional, arm_pair=config.arm_pair,
        n_draws=config.n_draws, alpha=config.alpha, seed=config.seed,
        literal_upper_quantile=config.z_mode == "literal", multiplier_scheme=config.multiplier_scheme,
    )
    # before any file is written, so a zero baseline SE leaves no partial run behind
    reduction = se_reduction(band_emp, band_adj)
    outputs = [
        emit_report(band_emp, out / "band_empirical.csv"),
        emit_report(band_adj, out / f"band_{config.learner}.csv"),
        write_points_csv(out / "se_reduction.csv", band_emp.locations, {"reduction_pct": reduction}),
    ]
    return {"outputs": outputs, "timings": {"fit_seconds": fit_seconds}}


def run(config: RunConfig) -> dict:
    """Execute one configured run and write its outputs plus the manifest.

    A run that raises before it writes anything removes the output directory,
    and the parents of it, that it created; a directory that existed stays.
    """
    out = Path(config.out)
    # the directories mkdir makes, deepest first, the order they can be removed in
    created = [path for path in (out, *out.parents) if not path.exists()]
    out.mkdir(parents=True, exist_ok=True)
    worker = {
        "simulate": _run_simulate,
        "estimate": _run_estimate,
        "bootstrap-band": _run_bootstrap_band,
    }[config.mode]
    try:
        result = worker(config, out)
        manifest = write_manifest(
            out / "manifest.json",
            dataclasses.asdict(config),
            [p.name for p in result["outputs"]],
            result["timings"],
        )
    except BaseException:
        if created and not any(out.iterdir()):
            for path in created:
                path.rmdir()
        raise
    result["manifest"] = manifest
    for path in (*result["outputs"], manifest):
        _say(f"wrote {path}")
    return result


def _mode_settings(mode: str) -> dict[str, dict]:
    """The flag metadata of each setting ``mode`` reads, by field name."""
    return {f.name: f.metadata for f in dataclasses.fields(RunConfig) if mode in f.metadata.get("modes", ())}


def _load_ini(path: str, mode: str) -> dict:
    parser = configparser.ConfigParser()
    with open(path) as handle:
        try:
            parser.read_file(handle)
        except configparser.Error as exc:
            raise ValueError(f"{path} is not an INI file of [run] and [learner] sections: {exc}") from None
    settings = _mode_settings(mode)
    merged = {}
    for section in parser.sections():
        if section not in ("run", "learner"):
            raise ValueError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in settings:
                raise ValueError(f"mode {mode} reads no config key {key!r}")
            parse = settings[key]["parse"]
            if isinstance(parse, tuple):
                # here too, since a flag may override the key before RunConfig sees it
                _check_choice(key, value, parse)
            else:
                value = parse(value)
            merged[key] = value
    return merged


def _resolve_config(args: argparse.Namespace, mode: str) -> RunConfig:
    flags = {name: setting["flag"] for name, setting in _mode_settings(mode).items()}
    if args.from_manifest:
        # a replay takes every setting from the manifest; any other flag would be ignored
        given = [flag for name, flag in {"config": "--config", **flags}.items()
                 if name != "out" and getattr(args, name) is not None]
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
    values = _load_ini(args.config, mode) if args.config else {}
    values.update((name, getattr(args, name)) for name in flags if getattr(args, name) is not None)
    return RunConfig(mode=mode, **values)


class _ModeParser(argparse.ArgumentParser):
    """A mode's parser, which reports the arguments it does not know with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtekit",
        description="Distributional treatment effect estimation and benchmarking",
    )
    subs = parser.add_subparsers(dest="mode", required=True, parser_class=_ModeParser)
    for mode, text in (
        ("simulate", "Monte Carlo study on the synthetic benchmark"),
        ("estimate", "point estimates from an experiment CSV"),
        ("bootstrap-band", "estimates with multiplier-bootstrap bands"),
    ):
        sub = subs.add_parser(mode, help=text)
        sub.add_argument("--config", help="INI file of the mode's settings in [run] and [learner] sections")
        sub.add_argument("--from-manifest", help="replay the configuration of an emitted manifest.json")
        for name, setting in _mode_settings(mode).items():
            parse = setting["parse"]
            kind = {"choices": parse} if isinstance(parse, tuple) else {"type": parse}
            sub.add_argument(setting["flag"], dest=name, help=setting["help"], **kind)
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
