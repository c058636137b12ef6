"""Each setting rule and default has one owner, and the library and the CLI follow it.

Every table row pairs a library call with the CLI run that reaches the same
rule. The library raises the owner's message; the CLI prints that message
as a usage error, exits 2 and leaves no output directory. Each default of a
CLI run equals the default of the library class or function that owns it.
"""

import inspect
import json
import re

import numpy as np
import pytest

from dtekit.cli import RunConfig, build_parser, main, parse_grid_spec
from dtekit.core import ConditionalCdfMatrix, ExperimentData
from dtekit.errors import EmptyArm
from dtekit.estimation import CrossFitPlan, empirical_cdf, fit_adjusted, make_folds, quantile_grid
from dtekit.inference import bootstrap_band, bootstrap_bands, bootstrap_draws
from dtekit.io import CsvSchema
from dtekit.learners import LearnerKind
from dtekit.nn import SQUASHES, TRANSFORMS, LayerSpec, TrainConfig
from dtekit.simulation import DEFAULT_QUANTILES, DgpConfig, generate, oracle_dte, run_study

from conftest import make_experiment

# read by no run: every row fails before the CSV is opened
CSV = "never-read.csv"


def small_data():
    return make_experiment(seed=1, n=40)


def empirical_of(data):
    return empirical_cdf(data, quantile_grid(data, [0.3, 0.6]))


def band(**settings):
    data = small_data()
    grid = quantile_grid(data, [0.3, 0.6])
    return bootstrap_band(data, grid, empirical_cdf(data, grid), **{"n_draws": 20, **settings})


def ini(tmp_path, text):
    path = tmp_path / "settings.ini"
    path.write_text(text)
    return ["--config", str(path)]


def manifest(tmp_path, config):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": config}))
    return ["--from-manifest", str(path)]


def assert_same_usage_error(library_call, argv, tmp_path, capsys):
    with pytest.raises(ValueError) as raised:
        library_call()
    out = tmp_path / "out" / "run"
    capsys.readouterr()
    assert main([*map(str, argv), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {raised.value}\n"
    assert not (tmp_path / "out").exists()


# estimation._check_folds
@pytest.mark.parametrize("library_call, argv, message", [
    (lambda: make_folds(10, 1, 0), ["estimate", "--input", CSV, "--folds", 1], "got 1"),
    (lambda: CrossFitPlan(n_folds=0, fold_assignment=[1, 1]), ["simulate", "--folds", 0], "got 0"),
    (lambda: fit_adjusted(small_data(), quantile_grid(small_data(), [0.5]), LearnerKind("linear"), n_folds=-2),
     ["bootstrap-band", "--input", CSV, "--folds", -2], "got -2"),
], ids=["make_folds", "CrossFitPlan", "fit_adjusted"])
def test_fold_count(library_call, argv, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^cross-fitting needs at least 2 folds, {message}$"):
        library_call()
    assert_same_usage_error(library_call, argv, tmp_path, capsys)


# simulation.DgpConfig
@pytest.mark.parametrize("library_call, argv, message", [
    (lambda: DgpConfig(n_units=1), ["simulate", "--n", 1], "n_units must be at least 2, got 1"),
    (lambda: DgpConfig(n_units=0), ["simulate", "--n", 0], "n_units must be at least 2, got 0"),
    (lambda: DgpConfig(n_units=10, seed=-1), ["simulate", "--seed", -1], "seed must be a non-negative integer, got -1"),
], ids=["one-unit", "no-unit", "negative-seed"])
def test_study_size_and_seed(library_call, argv, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^{message}$"):
        library_call()
    assert_same_usage_error(library_call, argv, tmp_path, capsys)


# inference._check_band_settings: an alpha whose 1 - alpha / 2 rounds to 1 leaves the band no critical value
@pytest.mark.parametrize("library_call, argv, alpha", [
    (lambda: band(alpha=1e-17), ["bootstrap-band", "--input", CSV, "--alpha", 1e-17], "1e-17"),
    (lambda: band(alpha=1e-320, literal_upper_quantile=True),
     ["bootstrap-band", "--input", CSV, "--alpha", "1e-320", "--z-mode", "literal"], "1e-320"),
], ids=["half-alpha", "literal"])
def test_band_level(library_call, argv, alpha, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^alpha must leave 1 - alpha / 2 below 1 in float64, got {alpha}$"):
        library_call()
    assert_same_usage_error(library_call, argv, tmp_path, capsys)


# estimation._check_curve
@pytest.mark.parametrize("library_call, argv, pair", [
    (lambda: band(arm_pair=(1, 2, 3)), ["bootstrap-band", "--input", CSV, "--arm-pair", "1,2,3"], "(1, 2, 3)"),
    (lambda: band(kind="cdf", arm_pair=(2,)),
     ["bootstrap-band", "--input", CSV, "--functional", "cdf", "--arm-pair", "2"], "(2,)"),
    (lambda: bootstrap_bands(small_data(), quantile_grid(small_data(), [0.5]), (empirical_of(small_data()),),
                             arm_pair=(2, 1, 1, 2)),
     ["estimate", "--input", CSV, "--arm-pair", "2,1,1,2"], "(2, 1, 1, 2)"),
], ids=["three", "one", "four"])
def test_arm_pair(library_call, argv, pair, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(f'an arm pair holds two arm labels, got {pair}')}$"):
        library_call()
    assert_same_usage_error(library_call, argv, tmp_path, capsys)


# nn.TRANSFORMS and nn.SQUASHES, checked by nn.LayerSpec
@pytest.mark.parametrize("library_call, mode, text, message", [
    (lambda: LayerSpec((3, 2), head="monotone", squash="cube"), "estimate",
     "[learner]\nlearner = nn-multi-monotone\nsquash = cube\n", "squash must be one of ('arctan', 'tanh-half'), got 'cube'"),
    (lambda: LearnerKind("nn-multi", transform="square"), "simulate",
     "[learner]\ntransform = square\n", "transform must be one of ('exp', 'softplus'), got 'square'"),
], ids=["squash", "transform"])
def test_head_choices(library_call, mode, text, message, tmp_path, capsys):
    with pytest.raises(ValueError) as raised:
        library_call()
    assert str(raised.value) == message
    argv = [mode, *(["--input", CSV] if mode != "simulate" else []), *ini(tmp_path, text)]
    assert_same_usage_error(library_call, argv, tmp_path, capsys)


@pytest.mark.parametrize("flag, choices", [("--transform", TRANSFORMS), ("--squash", SQUASHES)])
def test_head_flags_take_their_choices_from_nn(flag, choices, capsys):
    (mode_parsers,) = [action for action in build_parser()._actions if action.dest == "mode"]
    for sub in mode_parsers.choices.values():
        (action,) = [a for a in sub._actions if flag in a.option_strings]
        assert action.choices is choices
    with pytest.raises(SystemExit) as exited:
        main(["simulate", flag, "cube"])
    assert exited.value.code == 2
    assert f"invalid choice: 'cube' (choose from {', '.join(repr(c) for c in choices)})" in capsys.readouterr().err


# core._integer
@pytest.mark.parametrize("library_call, config, message", [
    (lambda: TrainConfig(batch_size=1.5), {"mode": "simulate", "batch_size": 1.5}, "batch_size must be an integer, got 1.5"),
    (lambda: TrainConfig(epochs=True), {"mode": "simulate", "epochs": True}, "epochs must be an integer, got True"),
    (lambda: band(n_draws=300.0), {"mode": "bootstrap-band", "input": CSV, "n_draws": 300.0},
     "n_draws must be an integer, got 300.0"),
    (lambda: make_folds(10, 2.0, 0), {"mode": "estimate", "input": CSV, "n_folds": 2.0}, "n_folds must be an integer, got 2.0"),
], ids=["batch_size", "epochs", "n_draws", "n_folds"])
def test_integer_settings(library_call, config, message, tmp_path, capsys):
    with pytest.raises(ValueError) as raised:
        library_call()
    assert str(raised.value) == message
    assert_same_usage_error(library_call, [config["mode"], *manifest(tmp_path, config)], tmp_path, capsys)


# core._seed
@pytest.mark.parametrize("library_call, argv", [
    (lambda: make_folds(10, 2, -1), ["estimate", "--input", CSV, "--seed", -1]),
    (lambda: band(seed=-1), ["bootstrap-band", "--input", CSV, "--seed", -1]),
    (lambda: TrainConfig(seed=-1), ["simulate", "--seed", -1]),
], ids=["make_folds", "bootstrap_band", "TrainConfig"])
def test_seeds(library_call, argv, tmp_path, capsys):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        library_call()
    assert_same_usage_error(library_call, argv, tmp_path, capsys)


def arms_of(labels):
    return ExperimentData(covariates=np.zeros((len(labels), 1)), arms=labels, outcomes=np.arange(float(len(labels))))


def plan_of(labels):
    return CrossFitPlan(n_folds=2, fold_assignment=labels)


def gamma_of(labels):
    return ConditionalCdfMatrix(predictions=np.zeros((2, len(labels), 1)), fold_assignment=labels)


# core._integral_labels: labels come from data, not settings, so no CLI run reaches them as usage errors
@pytest.mark.parametrize("build, error, name", [
    (arms_of, EmptyArm, "arm labels"), (plan_of, ValueError, "fold ids"), (gamma_of, ValueError, "fold ids"),
], ids=["arms", "folds", "gamma-folds"])
@pytest.mark.parametrize("labels, detail", [
    ([1.0, 2.0, 1.5, 2.0], r" \(unit 2 has 1\.5\)"),
    ([1.0, np.nan, 1.0, 2.0], r" \(unit 1 has nan\)"),
    ([2.0, 1.0, 1.0, -np.inf], r" \(unit 3 has -inf\)"),
    (np.array(["1", "2", "1", "2"]), ", got <U1 values"),
    (np.array([True, False, True, False]), ", got bool values"),
], ids=["fraction", "nan", "inf", "text", "bool"])
def test_integral_labels(build, error, name, labels, detail):
    with pytest.raises(error, match=f"^{name} must be integers{detail}$"):
        build(labels)


def test_integral_labels_are_read_only_ints():
    for labels in (arms_of([1.0, 2.0, 2.0]).arms, plan_of([1.0, 2.0, 2.0]).fold_assignment,
                   gamma_of(np.array([1, 2, 2], dtype=np.uint8)).fold_assignment):
        assert labels.dtype == np.dtype(int) and not labels.flags.writeable
        assert labels.tolist() == [1, 2, 2]


class TestDriftDefects:
    """Copies of a rule that had drifted apart: each call was accepted, or failed deep inside."""

    def test_one_unit_study_fails_where_it_is_configured(self):
        with pytest.raises(ValueError, match="n_units must be at least 2, got 1"):
            DgpConfig(n_units=1)

    def test_negative_study_seed_fails_where_it_is_configured(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            DgpConfig(n_units=10, seed=-1)

    def test_three_arm_pair_is_named(self):
        with pytest.raises(ValueError, match=r"an arm pair holds two arm labels, got \(1, 2, 3\)"):
            band(arm_pair=(1, 2, 3))

    def test_negative_fold_seed_is_a_seed_error(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            make_folds(10, 2, -1)


def test_valid_settings_are_still_accepted():
    config = DgpConfig(n_units=np.int64(2), seed=np.uint32(5))
    assert (config.n_units, config.seed) == (2, 5) and type(config.seed) is int
    assert generate(DgpConfig(n_units=12, seed=3)).n_units == 12
    plan = make_folds(np.int64(6), np.int64(3), np.uint8(4))
    assert plan.n_folds == 3 and plan.fold_assignment.tolist() == make_folds(6, 3, 4).fold_assignment.tolist()
    assert band(arm_pair=(np.int64(2), 1)).arm_pair == (2, 1)
    assert band(n_draws=np.int64(8)).se.tobytes() == band(n_draws=8).se.tobytes()


def defaults(function):
    """A function's parameter defaults, by name."""
    return {
        name: param.default for name, param in inspect.signature(function).parameters.items()
        if param.default is not inspect.Parameter.empty
    }


# each RunConfig field with a library default, and every library default it must equal
OWNERS = {
    "n_folds": lambda: [defaults(fit_adjusted)["n_folds"], defaults(run_study)["n_folds"]],
    "n_draws": lambda: [defaults(bootstrap_bands)["n_draws"]],
    "alpha": lambda: [defaults(bootstrap_bands)["alpha"]],
    "functional": lambda: [defaults(bootstrap_bands)["kind"]],
    "arm_pair": lambda: [defaults(bootstrap_bands)["arm_pair"]],
    "multiplier_scheme": lambda: [defaults(bootstrap_bands)["multiplier_scheme"],
                                  defaults(bootstrap_draws)["multiplier_scheme"]],
    "n_oracle": lambda: [defaults(oracle_dte)["n_oracle"], defaults(run_study)["n_oracle"]],
    "arm_col": lambda: [CsvSchema().arm],
    "outcome_col": lambda: [CsvSchema().outcome],
    "covariate_cols": lambda: [CsvSchema().covariates],
    "epochs": lambda: [TrainConfig().epochs],
    "batch_size": lambda: [TrainConfig().batch_size],
    "learning_rate": lambda: [TrainConfig().learning_rate],
    "precision": lambda: [TrainConfig().precision],
    "hidden": lambda: [LearnerKind("nn-multi").hidden],
    "ridge": lambda: [LearnerKind("linear").ridge],
    "transform": lambda: [LayerSpec((1, 1)).transform, LearnerKind("nn-multi").transform],
    "squash": lambda: [LayerSpec((1, 1)).squash, LearnerKind("nn-multi").squash],
}


@pytest.mark.parametrize("field", OWNERS)
def test_each_run_default_is_its_owners(field):
    assert all(owner == getattr(RunConfig(mode="simulate"), field) for owner in OWNERS[field]())


def test_cli_default_grid_is_the_study_grid():
    # RunConfig.grid spells simulation.DEFAULT_QUANTILES as a probs range; the two must not drift apart
    kind, probs = parse_grid_spec(RunConfig(mode="simulate").grid)
    assert kind == "probs"
    assert probs.dtype == np.float64 and probs.tobytes() == np.asarray(DEFAULT_QUANTILES).tobytes()


def test_bootstrap_band_takes_the_defaults_of_bootstrap_bands():
    band_defaults = defaults(bootstrap_band)
    assert band_defaults == defaults(bootstrap_bands)
    assert sorted(band_defaults) == [
        "alpha", "arm_pair", "kind", "literal_upper_quantile", "multiplier_scheme", "n_draws", "seed",
    ]
