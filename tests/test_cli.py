import dataclasses
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from dtekit.cli import RunConfig, config_from_dict, main, parse_grid_spec, run
from dtekit.estimation import dte, empirical_cdf, fit_adjusted, make_folds, pte
from dtekit.io import load_csv
from dtekit.learners import LearnerKind

EXPERIMENT_CSV = """arm,outcome,x1,x2
ctrl,1.1,0.11,0.92
treat,2.4,0.52,0.34
ctrl,0.7,0.25,0.46
treat,3.1,0.83,0.58
ctrl,1.9,0.67,0.18
treat,2.2,0.39,0.71
ctrl,0.4,0.05,0.63
treat,3.8,0.95,0.27
ctrl,1.5,0.48,0.85
treat,2.9,0.74,0.12
ctrl,2.1,0.91,0.55
treat,4.2,0.30,0.99
"""


@pytest.fixture
def experiment_csv(tmp_path):
    path = tmp_path / "experiment.csv"
    path.write_text(EXPERIMENT_CSV)
    return path


class TestParseGridSpec:
    def test_probs_range(self):
        kind, values = parse_grid_spec("probs=0.05:0.95:0.05")
        assert kind == "probs"
        assert values.shape == (19,)
        assert values[0] == 0.05 and values[-1] == 0.95

    def test_probs_list(self):
        kind, values = parse_grid_spec("probs=0.2,0.5,0.8")
        assert kind == "probs"
        assert_array_equal(values, [0.2, 0.5, 0.8])

    def test_location_list(self):
        kind, values = parse_grid_spec("list=1.5,2.5,10")
        assert kind == "list"
        assert_array_equal(values, [1.5, 2.5, 10.0])

    def test_integer_range(self):
        kind, values = parse_grid_spec("range=3:6")
        assert kind == "range"
        assert_array_equal(values, [3.0, 4.0, 5.0, 6.0])

    @pytest.mark.parametrize(
        "spec",
        [
            "0.05:0.95:0.05",
            "quantiles=0.5",
            "probs=0.0,0.5",
            "probs=0.5,0.2",
            "probs=0.2:0.8:0",
            "list=3,2",
            "range=6:3",
            "range=a:b",
            "list=0,nan,1",
            "list=-inf,0",
            "probs=0.2,nan",
            "probs=0.1:0.9:0.3",
            "probs=0.1:0.5:0.15",
            "probs=0.1:0.9",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_grid_spec(spec)

    def test_probs_range_keeps_its_step(self):
        kind, values = parse_grid_spec("probs=0.1:0.9:0.1")
        assert_array_equal(values, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])


class TestRunConfig:
    def test_estimate_requires_input(self):
        with pytest.raises(ValueError):
            RunConfig(mode="estimate")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            RunConfig(mode="train")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            RunConfig(mode="simulate", methods=("empirical", "forest"))

    def test_bad_grid_fails_eagerly(self):
        with pytest.raises(ValueError):
            RunConfig(mode="simulate", grid="locations=1,2")

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_round_trips_through_dict(self, precision):
        config = RunConfig(mode="simulate", seed=3, hidden=(32, 16), precision=precision)
        import dataclasses

        payload = json.loads(json.dumps(dataclasses.asdict(config)))
        assert config_from_dict(payload) == config

    def test_default_precision_is_float32(self):
        assert RunConfig(mode="simulate").precision == "float32"

    def test_dict_without_precision_reads_as_float64(self):
        assert config_from_dict({"mode": "simulate"}).precision == "float64"

    def test_default_multiplier_scheme_is_2(self):
        assert RunConfig(mode="simulate").multiplier_scheme == 2

    def test_dict_without_multiplier_scheme_reads_as_1(self):
        assert config_from_dict({"mode": "simulate"}).multiplier_scheme == 1
        assert config_from_dict({"mode": "simulate", "multiplier_scheme": 2}).multiplier_scheme == 2

    @pytest.mark.parametrize("value", [0, 3, -1])
    def test_unknown_multiplier_scheme_fails_eagerly(self, value):
        with pytest.raises(ValueError, match="multiplier_scheme must be 1 or 2"):
            RunConfig(mode="bootstrap-band", input="x.csv", multiplier_scheme=value)

    @pytest.mark.parametrize("field, value", [
        ("precision", "float16"), ("epochs", 2.5), ("batch_size", 0), ("seed", -1),
    ])
    def test_bad_training_setting_fails_eagerly(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(mode="simulate", **{field: value})

    def test_bad_training_setting_in_a_manifest_is_usage_error(self, tmp_path, experiment_csv):
        out = tmp_path / "est"
        assert run_cli("estimate", "--input", experiment_csv, "--grid", "list=2.0", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["epochs"] = 2.5
        bad = tmp_path / "bad-manifest.json"
        bad.write_text(json.dumps(manifest))
        assert run_cli("estimate", "--from-manifest", bad, "--out", tmp_path / "replay") == 2

    @pytest.mark.parametrize("field, value", [
        ("n_units", 1000.5), ("n_reps", 2.5), ("n_folds", 2.5), ("n_draws", 300.5),
        ("n_oracle", 1e5 + 0.5), ("n_draws", 300.0), ("n_folds", True),
        ("n_reps", "3"), ("n_units", None), ("multiplier_scheme", 2.0),
        ("multiplier_scheme", True), ("seed", 3.0), ("seed", True),
    ])
    def test_non_integral_integer_setting_fails_eagerly(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunConfig(mode="simulate", **{field: value})

    def test_numpy_integers_accepted_as_python_ints(self):
        config = RunConfig(
            mode="simulate", n_units=np.int64(200), n_reps=np.int32(3), n_folds=np.uint8(2),
            n_draws=np.int64(100), n_oracle=np.int64(5000),
        )
        assert config == RunConfig(
            mode="simulate", n_units=200, n_reps=3, n_folds=2, n_draws=100, n_oracle=5000
        )
        assert all(type(getattr(config, name)) is int for name in ("n_units", "n_folds", "n_oracle"))
        json.dumps(dataclasses.asdict(config))

    def test_numpy_scalars_become_python_numbers(self):
        config = RunConfig(
            mode="bootstrap-band", input="x.csv", epochs=np.int64(2), batch_size=np.int32(8),
            learning_rate=np.float32(0.01), alpha=np.float64(0.1), ridge=np.int64(0),
        )
        for name in ("epochs", "batch_size"):
            assert type(getattr(config, name)) is int
        for name in ("learning_rate", "alpha", "ridge"):
            assert type(getattr(config, name)) is float
        assert config.learning_rate == float(np.float32(0.01)) and config.ridge == 0.0
        json.dumps(dataclasses.asdict(config))

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", "0.01"), ("alpha", None), ("ridge", True), ("learning_rate", 1j),
    ])
    def test_non_numeric_float_setting_fails_eagerly(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            RunConfig(mode="simulate", **{field: value})

    @pytest.mark.parametrize("field, value", [("n_folds", 2.5), ("n_draws", 300.5), ("n_folds", True)])
    def test_non_integral_setting_in_a_manifest_is_usage_error(self, tmp_path, experiment_csv, field, value):
        out = tmp_path / "est"
        assert run_cli("estimate", "--input", experiment_csv, "--grid", "list=2.0", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"][field] = value
        bad = tmp_path / "bad-manifest.json"
        bad.write_text(json.dumps(manifest))
        assert run_cli("estimate", "--from-manifest", bad, "--out", tmp_path / "replay") == 2
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("hidden", [(2.5,), (4, True), (np.float64(3.0),), ("3",)])
    def test_non_integral_hidden_width_fails_eagerly(self, hidden):
        with pytest.raises(ValueError, match="hidden widths must be integers"):
            RunConfig(mode="estimate", input="x.csv", learner="nn-multi", hidden=hidden)

    def test_numpy_integer_hidden_widths_accepted_as_python_ints(self):
        config = RunConfig(mode="simulate", hidden=(np.int64(8), np.uint8(4)))
        assert config.hidden == (8, 4) and all(type(h) is int for h in config.hidden)

    @pytest.mark.parametrize("field, value", [
        ("hidden", [2.5, True]), ("multiplier_scheme", 3), ("multiplier_scheme", 1.0),
        ("arm_pair", [2.7, True]), ("arm_pair", ["2", "1"]), ("arm_pair", [0, 1]), ("arm_pair", [2, 2]),
        ("functional", "pte"), ("learning_rate", True), ("ridge", True),
        ("grid", "list=0,nan,1"), ("grid", "list=-inf,0"), ("z_mode", "bogus"), ("arm_pair", [2, 1, 1]),
    ])
    def test_bad_band_setting_in_a_manifest_is_usage_error(self, tmp_path, capsys, experiment_csv, field, value):
        out = tmp_path / "band"
        assert run_cli(
            "bootstrap-band", "--input", experiment_csv, "--learner", "nn-multi", "--hidden", "4",
            "--epochs", 1, "--grid", "list=2.0", "--B", 20, "--out", out,
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"][field] = value
        bad = tmp_path / "bad-manifest.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("bootstrap-band", "--from-manifest", bad, "--out", tmp_path / "replay") == 2
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "replay").exists()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"mode": "simulate", "bogus": 1})

    def test_threads_key_of_an_old_manifest_is_dropped(self):
        assert config_from_dict({"mode": "simulate", "threads": 2}) == config_from_dict({"mode": "simulate"})
        assert "threads" not in {f.name for f in dataclasses.fields(RunConfig)}

    def test_threads_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["simulate", "--threads", "2"])
        assert raised.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, fields", [
        ("estimate", {"learner": "nn-multi", "hidden": (0,)}),
        ("estimate", {"learner": "nn-multi-monotone", "transform": "cube"}),
        ("estimate", {"ridge": float("nan")}),
        ("simulate", {"methods": ("empirical", "nn-single"), "squash": "logistic"}),
        ("simulate", {"methods": ("linear",), "ridge": -1.0}),
    ])
    def test_learners_of_the_mode_are_checked_eagerly(self, mode, fields):
        with pytest.raises(ValueError):
            RunConfig(mode=mode, input="x.csv", **fields)

    @pytest.mark.parametrize("mode, fields, message", [
        ("estimate", {"n_folds": 1}, "folds must be at least 2"),
        ("simulate", {"n_units": 1}, "n must be at least 2"),
        ("estimate", {"arm_pair": (1, 2, 3)}, "exactly two arm labels"),
        ("bootstrap-band", {"z_mode": "bogus"}, "z_mode must be one of"),
        ("simulate", {"grid": "probs=0.1:0.9"}, "start:stop:step"),
    ])
    def test_bad_setting_fails_eagerly_with_its_reason(self, mode, fields, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(mode=mode, input="x.csv", **fields)

    def test_study_sizes_are_checked_only_in_simulate(self):
        # the curve modes draw no oracle and run no replications
        RunConfig(mode="estimate", input="x.csv", n_reps=0, n_oracle=0)
        with pytest.raises(ValueError, match="n_oracle"):
            RunConfig(mode="simulate", n_oracle=1)

    def test_repeated_method_fails_eagerly(self):
        with pytest.raises(ValueError, match="'linear' is listed twice"):
            RunConfig(mode="simulate", methods=("empirical", "linear", "linear"))

    def test_learners_the_mode_does_not_use_are_not_checked(self):
        # a linear run ignores the network fields, so its manifests replay
        # whatever they hold there
        RunConfig(mode="estimate", input="x.csv", learner="linear", hidden=(0,), transform="cube")
        RunConfig(mode="simulate", methods=("empirical", "linear"), squash="logistic")


def run_cli(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """The exit code of a CLI run, whether it returns or argparse exits."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


class TestSimulateMode:
    def test_small_study(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = run_cli(
            "simulate", "--n", 150, "--reps", 2, "--methods", "empirical,linear",
            "--grid", "probs=0.25,0.5,0.75", "--n-oracle", 20000, "--seed", 3,
            "--out", out,
        )
        assert rc == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == "location,method,bias,mse,reduction_pct"
        assert len(lines) == 1 + 3 * 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "simulate"
        assert manifest["config"]["n_units"] == 150
        assert "study.csv" in manifest["outputs"]

    def test_every_method_records_its_fit_seconds(self, tmp_path):
        methods = ("empirical", "linear", "nn-single", "nn-multi", "nn-multi-monotone")
        out = tmp_path / "sim"
        rc = run_cli(
            "simulate", "--n", 150, "--reps", 1, "--methods", ",".join(methods),
            "--grid", "probs=0.3,0.7", "--n-oracle", 10000, "--hidden", 4, "--epochs", 1,
            "--out", out,
        )
        assert rc == 0
        timings = json.loads((out / "manifest.json").read_text())["timings_seconds"]
        assert sorted(timings) == sorted(f"fit_seconds_per_rep:{name}" for name in methods)
        for seconds in timings.values():
            assert np.isfinite(seconds) and seconds > 0.0

    def test_manifest_replay_reproduces_bytes(self, tmp_path):
        first = tmp_path / "first"
        rc = run_cli(
            "simulate", "--n", 150, "--reps", 2, "--methods", "empirical,linear",
            "--grid", "probs=0.3,0.7", "--n-oracle", 20000, "--seed", 5,
            "--out", first,
        )
        assert rc == 0
        second = tmp_path / "second"
        rc = run_cli(
            "simulate", "--from-manifest", first / "manifest.json", "--out", second
        )
        assert rc == 0
        assert (first / "study.csv").read_bytes() == (second / "study.csv").read_bytes()

    def test_manifest_with_threads_replays_byte_for_byte(self, tmp_path):
        first = tmp_path / "first"
        rc = run_cli(
            "simulate", "--n", 150, "--reps", 3, "--methods", "empirical,linear,nn-multi",
            "--grid", "probs=0.3,0.7", "--n-oracle", 20000, "--seed", 5, "--hidden", 4,
            "--epochs", 1, "--out", first,
        )
        assert rc == 0
        # manifests written while simulate --threads sized a replication pool record it
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"]["threads"] = 2
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        second = tmp_path / "second"
        assert run_cli("simulate", "--from-manifest", old, "--out", second) == 0
        assert (first / "study.csv").read_bytes() == (second / "study.csv").read_bytes()
        assert "threads" not in json.loads((second / "manifest.json").read_text())["config"]

    def test_numpy_integer_seed_writes_a_manifest_that_replays(self, tmp_path):
        first = tmp_path / "first"
        config = RunConfig(
            mode="simulate", seed=np.int64(3), n_units=150, n_reps=2, methods=("empirical", "linear"),
            grid="probs=0.3,0.7", n_oracle=20000, out=str(first),
        )
        assert type(config.seed) is int
        run(config)
        assert json.loads((first / "manifest.json").read_text())["config"]["seed"] == 3
        second = tmp_path / "second"
        assert run_cli("simulate", "--from-manifest", first / "manifest.json", "--out", second) == 0
        assert (first / "study.csv").read_bytes() == (second / "study.csv").read_bytes()

    @pytest.mark.parametrize("field, value", [("epochs", np.int64(2)), ("learning_rate", np.float32(0.01))])
    def test_numpy_training_setting_writes_a_manifest_that_replays(self, tmp_path, field, value):
        first = tmp_path / "first"
        settings = {"epochs": 2, field: value}
        config = RunConfig(
            mode="simulate", n_units=150, n_reps=1, methods=("empirical", "nn-multi"), hidden=(4,),
            grid="probs=0.3,0.7", n_oracle=20000, out=str(first), **settings,
        )
        run(config)
        assert json.loads((first / "manifest.json").read_text())["config"][field] == getattr(config, field)
        second = tmp_path / "second"
        assert run_cli("simulate", "--from-manifest", first / "manifest.json", "--out", second) == 0
        assert (first / "study.csv").read_bytes() == (second / "study.csv").read_bytes()

    def test_manifest_with_values_simulate_ignores_replays_byte_for_byte(self, tmp_path):
        # simulate refuses other modes' flags, yet a manifest written while it
        # accepted them holds their values, and it replays
        flags = ("simulate", "--n", 150, "--reps", 1, "--methods", "empirical,linear",
                 "--grid", "probs=0.5", "--n-oracle", 10000)
        ignored = ("--arm-pair", "2,2", "--functional", "pte", "--B", 7, "--learner", "nn-single")
        assert exit_code(*flags, *ignored, "--out", tmp_path / "refused") == 2
        assert not (tmp_path / "refused").exists()
        first = tmp_path / "first"
        assert run_cli(*flags, "--out", first) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"].update(arm_pair=[2, 2], functional="pte", n_draws=7, learner="nn-single")
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        second = tmp_path / "second"
        assert run_cli("simulate", "--from-manifest", old, "--out", second) == 0
        assert (first / "study.csv").read_bytes() == (second / "study.csv").read_bytes()
        replayed = json.loads((second / "manifest.json").read_text())["config"]
        assert replayed == dict(manifest["config"], out=str(second))

    def test_manifest_mode_mismatch(self, tmp_path):
        out = tmp_path / "sim"
        run_cli(
            "simulate", "--n", 150, "--reps", 1, "--methods", "empirical",
            "--grid", "probs=0.5", "--n-oracle", 10000, "--out", out,
        )
        rc = run_cli("estimate", "--from-manifest", out / "manifest.json")
        assert rc == 2


class TestEstimateMode:
    @pytest.mark.parametrize("functional", ["cdf", "dte", "pte"])
    def test_points_match_library_values(self, tmp_path, experiment_csv, functional):
        out = tmp_path / "est"
        rc = run_cli(
            "estimate", "--input", experiment_csv, "--learner", "linear", "--functional", functional,
            "--grid", "list=1.0,2.0,3.0", "--out", out,
        )
        assert rc == 0
        lines = (out / "points.csv").read_text().splitlines()
        assert lines[0] == "location,empirical,linear"
        assert len(lines) == (3 if functional == "pte" else 4)

        from conftest import grid_of

        data = load_csv(experiment_csv)
        grid = grid_of(1.0, 2.0, 3.0)
        parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        for column, theta in enumerate([
            empirical_cdf(data, grid),
            fit_adjusted(data, grid, LearnerKind("linear"), make_folds(data.n_units, 2, 0)).estimate,
        ]):
            want = {"cdf": theta.values[1], "dte": dte(theta, 2, 1), "pte": pte(theta, 2, 1)}[functional]
            assert_array_equal(parsed[:, column], want)

    def test_arm_beyond_the_data_fails_before_the_fit(self, tmp_path, capsys, monkeypatch, experiment_csv):
        from dtekit import cli

        monkeypatch.setattr(cli, "fit_adjusted", None)
        rc = run_cli(
            "estimate", "--input", experiment_csv, "--grid", "list=2.0", "--arm-pair", "3,1",
            "--out", tmp_path / "est",
        )
        assert rc == 1
        assert "out of range 1..2" in capsys.readouterr().err

    def test_string_labels_map_to_sorted_arms(self, tmp_path, experiment_csv):
        # ctrl -> 1, treat -> 2; treated outcomes are larger, so the
        # treated-minus-control DTE is negative at interior locations
        out = tmp_path / "est"
        rc = run_cli(
            "estimate", "--input", experiment_csv, "--learner", "linear",
            "--grid", "list=2.0", "--out", out,
        )
        assert rc == 0
        value = float((out / "points.csv").read_text().splitlines()[1].split(",")[1])
        assert value < 0.0

    def test_replay_is_byte_identical(self, tmp_path, experiment_csv):
        first = tmp_path / "first"
        run_cli(
            "estimate", "--input", experiment_csv, "--learner", "nn-multi",
            "--hidden", "4", "--epochs", 2, "--grid", "list=1.5,2.5",
            "--out", first,
        )
        second = tmp_path / "second"
        rc = run_cli("estimate", "--from-manifest", first / "manifest.json", "--out", second)
        assert rc == 0
        assert (first / "points.csv").read_bytes() == (second / "points.csv").read_bytes()

    def test_manifest_records_float32(self, tmp_path, experiment_csv):
        out = tmp_path / "est"
        rc = run_cli(
            "estimate", "--input", experiment_csv, "--learner", "nn-single",
            "--hidden", "4", "--epochs", 2, "--grid", "list=1.5,2.5", "--out", out,
        )
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["precision"] == "float32"

    def test_manifest_without_precision_replays_as_float64(self, tmp_path, experiment_csv):
        flags = ("--input", experiment_csv, "--learner", "nn-multi-monotone", "--hidden", "4",
                 "--epochs", 2, "--grid", "list=1.5,2.5,3.5")
        ini = tmp_path / "float64.ini"
        ini.write_text("[learner]\nprecision = float64\n")
        wide, narrow = tmp_path / "float64", tmp_path / "float32"
        assert run_cli("estimate", "--config", ini, *flags, "--out", wide) == 0
        assert run_cli("estimate", *flags, "--out", narrow) == 0
        # the training precision shows in the output bytes
        assert (wide / "points.csv").read_bytes() != (narrow / "points.csv").read_bytes()
        # a manifest from before the precision key: the float64 run, key deleted
        manifest = json.loads((wide / "manifest.json").read_text())
        del manifest["config"]["precision"]
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        assert run_cli("estimate", "--from-manifest", old, "--out", replay) == 0
        assert (replay / "points.csv").read_bytes() == (wide / "points.csv").read_bytes()
        assert json.loads((replay / "manifest.json").read_text())["config"]["precision"] == "float64"

    def test_missing_input_is_usage_error(self):
        assert run_cli("estimate", "--grid", "list=1.0") == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        rc = run_cli(
            "estimate", "--input", tmp_path / "nope.csv", "--grid", "list=1.0",
            "--out", tmp_path / "out",
        )
        assert rc == 1

    def test_malformed_csv_reports_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("arm,outcome,x\n1,1.0,0.5\n2,oops,0.6\n")
        rc = run_cli(
            "estimate", "--input", bad, "--grid", "list=1.0", "--out", tmp_path / "out"
        )
        assert rc == 1
        assert "row 3" in capsys.readouterr().err

    def test_missing_column_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("treatment,outcome,x\n1,1.0,0.5\n2,2.0,0.6\n")
        rc = run_cli(
            "estimate", "--input", bad, "--grid", "list=1.0", "--out", tmp_path / "out"
        )
        assert rc == 1
        assert "arm" in capsys.readouterr().err

    def test_overflowing_covariate_is_named_without_a_traceback(self, tmp_path, capsys):
        # x2, the last column, times 1e200: its std overflows, which once
        # dropped the column silently
        header, *rows = EXPERIMENT_CSV.splitlines()
        huge = tmp_path / "huge.csv"
        huge.write_text("\n".join([header, *(row + "e200" for row in rows)]) + "\n")
        rc = run_cli(
            "estimate", "--input", huge, "--learner", "linear", "--grid", "list=1.5,2.5,3.5",
            "--out", tmp_path / "out",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "NonFiniteValue" in err and "covariate column 1" in err
        assert "Traceback" not in err

    def test_underflowing_covariate_is_named_without_a_traceback(self, tmp_path, capsys):
        # x2 times 1e-300: its squared deviations underflow, so its std is 0
        # although the column varies
        header, *rows = EXPERIMENT_CSV.splitlines()
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("\n".join([header, *(row + "e-300" for row in rows)]) + "\n")
        rc = run_cli(
            "estimate", "--input", tiny, "--learner", "linear", "--grid", "list=1.5,2.5,3.5",
            "--out", tmp_path / "out",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "NonFiniteValue" in err and "covariate column 1" in err
        assert "Traceback" not in err

    def test_custom_column_names(self, tmp_path):
        csv_path = tmp_path / "named.csv"
        csv_path.write_text(
            "group,score,f1\nA,1.0,0.2\nB,2.0,0.3\nA,1.5,0.4\nB,2.5,0.5\n"
            "A,0.5,0.6\nB,3.0,0.7\nA,1.2,0.8\nB,2.2,0.9\n"
            "A,0.8,0.15\nB,2.7,0.35\nA,1.7,0.55\nB,3.3,0.75\n"
        )
        rc = run_cli(
            "estimate", "--input", csv_path, "--arm-col", "group",
            "--outcome-col", "score", "--grid", "list=1.6", "--out", tmp_path / "out",
        )
        assert rc == 0


class TestBootstrapBandMode:
    def test_band_files_and_reduction(self, tmp_path, experiment_csv):
        out = tmp_path / "band"
        rc = run_cli(
            "bootstrap-band", "--input", experiment_csv, "--learner", "linear",
            "--grid", "list=1.5,2.5", "--B", 80, "--seed", 7, "--out", out,
        )
        assert rc == 0
        for name in ("band_empirical.csv", "band_linear.csv", "se_reduction.csv"):
            assert (out / name).exists()
        band = (out / "band_empirical.csv").read_text().splitlines()
        assert band[0] == "location,point,se,ci_lo,ci_hi"
        assert len(band) == 3
        reduction = (out / "se_reduction.csv").read_text().splitlines()
        assert reduction[0] == "location,reduction_pct"

    def test_pte_band_has_one_fewer_row(self, tmp_path, experiment_csv):
        out = tmp_path / "band"
        rc = run_cli(
            "bootstrap-band", "--input", experiment_csv, "--learner", "linear",
            "--functional", "pte", "--grid", "list=1.0,2.0,3.0", "--B", 50,
            "--out", out,
        )
        assert rc == 0
        assert len((out / "band_empirical.csv").read_text().splitlines()) == 3


    @pytest.fixture
    def wide_csv(self, tmp_path):
        """An experiment of 9,000 units: more than one 8,192-unit multiplier chunk."""
        rng = np.random.default_rng(17)
        n = 9000
        x = rng.random((n, 2))
        arms = 1 + (rng.random(n) < 0.5)
        y = x.sum(axis=1) + 0.5 * (arms - 1) + rng.standard_normal(n)
        path = tmp_path / "wide.csv"
        rows = [f"{a},{yi:.17g},{x1:.17g},{x2:.17g}" for a, yi, (x1, x2) in zip(arms, y, x)]
        path.write_text("arm,outcome,x1,x2\n" + "\n".join(rows) + "\n")
        return path

    BAND_FILES = ("band_empirical.csv", "band_linear.csv", "se_reduction.csv")

    def outputs(self, out):
        return [(out / name).read_bytes() for name in self.BAND_FILES]

    def test_manifest_without_multiplier_scheme_replays_on_scheme_1(self, tmp_path, wide_csv):
        new = tmp_path / "new"
        assert run_cli(
            "bootstrap-band", "--input", wide_csv, "--learner", "linear",
            "--grid", "probs=0.25,0.5,0.75", "--B", 40, "--out", new,
        ) == 0
        manifest = json.loads((new / "manifest.json").read_text())
        assert manifest["config"]["multiplier_scheme"] == 2
        replay = tmp_path / "replay"
        assert run_cli("bootstrap-band", "--from-manifest", new / "manifest.json", "--out", replay) == 0
        assert self.outputs(replay) == self.outputs(new)
        # a manifest from before the scheme key, and one naming scheme 1
        replays = []
        for name, scheme in (("old", None), ("one", 1)):
            config = dict(manifest["config"])
            if scheme is None:
                del config["multiplier_scheme"]
            else:
                config["multiplier_scheme"] = scheme
            path = tmp_path / f"{name}-manifest.json"
            path.write_text(json.dumps(dict(manifest, config=config)))
            assert run_cli("bootstrap-band", "--from-manifest", path, "--out", tmp_path / name) == 0
            replays.append(tmp_path / name)
            recorded = json.loads((tmp_path / name / "manifest.json").read_text())["config"]
            assert recorded["multiplier_scheme"] == 1
        assert self.outputs(replays[0]) == self.outputs(replays[1])
        # past one chunk the schemes draw other multipliers
        assert self.outputs(replays[0])[0] != self.outputs(new)[0]


class TestBoolLabels:
    """Indicator labels are bool; every output is byte-identical to float64 labels."""

    @staticmethod
    def float_labels(monkeypatch):
        from dtekit import core, estimation, inference

        def as_float(data, grid):
            return core.indicator_labels(data, grid).astype(float)

        monkeypatch.setattr(estimation, "indicator_labels", as_float)
        monkeypatch.setattr(inference, "indicator_labels", as_float)

    @pytest.mark.parametrize("mode", ["estimate", "bootstrap-band"])
    @pytest.mark.parametrize("learner", ["linear", "nn-multi-monotone"])
    def test_outputs_equal_those_of_float_labels(self, tmp_path, monkeypatch, experiment_csv, mode, learner):
        flags = (mode, "--input", experiment_csv, "--learner", learner, "--hidden", "4",
                 "--epochs", 2, "--grid", "list=1.5,2.5,3.5")
        if mode == "bootstrap-band":
            flags += ("--B", 60)
        assert run_cli(*flags, "--out", tmp_path / "bool") == 0
        with monkeypatch.context() as patch:
            self.float_labels(patch)
            assert run_cli(*flags, "--out", tmp_path / "float") == 0
        names = json.loads((tmp_path / "bool" / "manifest.json").read_text())["outputs"]
        for name in names:
            assert (tmp_path / "bool" / name).read_bytes() == (tmp_path / "float" / name).read_bytes()


# each mode's flags and INI keys, spelled out here rather than read from the CLI
TRAINING_FLAGS = ("--epochs", "--batch-size", "--learning-rate", "--hidden", "--ridge", "--transform", "--squash")
CURVE_FLAGS = ("--learner", "--functional", "--arm-pair", "--input", "--arm-col", "--outcome-col", "--covariates")
MODE_FLAGS = {
    "simulate": {"--config", "--from-manifest", "--out", "--seed", "--folds", "--grid", *TRAINING_FLAGS,
                 "--n", "--reps", "--methods", "--n-oracle"},
    "estimate": {"--config", "--from-manifest", "--out", "--seed", "--folds", "--grid", *TRAINING_FLAGS,
                 *CURVE_FLAGS},
    "bootstrap-band": {"--config", "--from-manifest", "--out", "--seed", "--folds", "--grid", *TRAINING_FLAGS,
                       *CURVE_FLAGS, "--B", "--alpha", "--z-mode"},
}
TRAINING_KEYS = ("epochs", "batch_size", "learning_rate", "hidden", "ridge", "transform", "squash", "precision")
CURVE_KEYS = ("learner", "functional", "arm_pair", "input", "arm_col", "outcome_col", "covariate_cols")
MODE_KEYS = {
    "simulate": {"out", "seed", "n_folds", "grid", *TRAINING_KEYS, "n_units", "n_reps", "methods", "n_oracle"},
    "estimate": {"out", "seed", "n_folds", "grid", *TRAINING_KEYS, *CURVE_KEYS},
    "bootstrap-band": {"out", "seed", "n_folds", "grid", *TRAINING_KEYS, *CURVE_KEYS,
                       "n_draws", "alpha", "z_mode", "multiplier_scheme"},
}
# a value each flag and key would take in a run of its own mode
FLAG_VALUES = {
    "--n": "150", "--reps": "1", "--methods": "empirical", "--n-oracle": "2000", "--learner": "linear",
    "--functional": "dte", "--arm-pair": "2,1", "--input": "x.csv", "--arm-col": "arm",
    "--outcome-col": "outcome", "--covariates": "x1", "--B": "5", "--alpha": "0.1", "--z-mode": "literal",
}
KEY_VALUES = {
    "n_units": "150", "n_reps": "1", "methods": "empirical", "n_oracle": "2000", "learner": "linear",
    "functional": "dte", "arm_pair": "2,1", "input": "x.csv", "arm_col": "arm", "outcome_col": "outcome",
    "covariate_cols": "x1", "n_draws": "5", "alpha": "0.1", "z_mode": "literal", "multiplier_scheme": "1",
}


def foreign(table):
    """(mode, name) for every flag or key of another mode that ``mode`` does not read."""
    every = set().union(*table.values())
    return [(mode, name) for mode, own in table.items() for name in sorted(every - own)]


class TestModeInterface:
    """Each mode takes only the flags and INI keys it reads."""

    @pytest.fixture
    def quick_run(self, experiment_csv):
        def flags(mode):
            # a valid, fast run of the mode, so a foreign setting is the only fault
            if mode == "simulate":
                return ("simulate", "--n", 150, "--reps", 1, "--methods", "empirical",
                        "--n-oracle", 2000, "--grid", "probs=0.5")
            band = ("--B", 20) if mode == "bootstrap-band" else ()
            return (mode, "--input", experiment_csv, "--learner", "linear", "--grid", "list=2.0", *band)
        return flags

    @pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
    def test_help_lists_exactly_the_mode_flags(self, capsys, mode):
        assert exit_code(mode, "--help") == 0
        shown = set(re.findall(r"(?<![\w-])--[A-Za-z][-A-Za-z]*", capsys.readouterr().out))
        assert shown == MODE_FLAGS[mode] | {"--help"}

    @pytest.mark.parametrize("mode, flag", foreign(MODE_FLAGS))
    def test_flag_of_another_mode_is_usage_error(self, tmp_path, capsys, quick_run, mode, flag):
        out = tmp_path / "out"
        assert exit_code(*quick_run(mode), flag, FLAG_VALUES[flag], "--out", out) == 2
        err = capsys.readouterr().err
        # the mode's own parser reports it, with the mode's usage
        assert err.startswith(f"usage: dtekit {mode} ")
        assert f"dtekit {mode}: error: unrecognized arguments: {flag}" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, key", foreign(MODE_KEYS))
    def test_ini_key_of_another_mode_is_usage_error(self, tmp_path, capsys, quick_run, mode, key):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\n{key} = {KEY_VALUES[key]}\n")
        out = tmp_path / "out"
        assert exit_code(*quick_run(mode), "--config", ini, "--out", out) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and repr(key) in err and mode in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", sorted(MODE_KEYS))
    def test_ini_takes_every_key_of_the_mode(self, tmp_path, experiment_csv, mode):
        values = {"out": str(tmp_path / "ini-out"), "seed": "3", "n_folds": "2", "grid": "list=2.0",
                  "epochs": "2", "batch_size": "8", "learning_rate": "0.02", "hidden": "4", "ridge": "1e-6",
                  "transform": "softplus", "squash": "tanh-half", "precision": "float64", **KEY_VALUES}
        if mode == "simulate":
            values["grid"] = "probs=0.5"
        values["input"] = str(experiment_csv)
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\n" + "".join(f"{key} = {values[key]}\n" for key in sorted(MODE_KEYS[mode])))
        out = tmp_path / "flag-out"
        assert exit_code(mode, "--config", ini, "--out", out) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["seed"] == 3 and config["precision"] == "float64" and config["ridge"] == 1e-6

    @pytest.mark.parametrize("key, value", [
        ("learner", "forest"), ("transform", "cube"), ("squash", "logistic"), ("hidden", "4.5"),
    ])
    def test_ini_value_the_flag_would_refuse_is_usage_error(self, tmp_path, capsys, quick_run, key, value):
        # the linear learner reads no transform or squash, yet the flags refuse these values
        ini = tmp_path / "run.ini"
        ini.write_text(f"[learner]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert exit_code(*quick_run("bootstrap-band"), "--config", ini, "--out", out) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_method_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "dup"
        assert run_cli("simulate", "--n", 150, "--reps", 1, "--methods", "empirical,linear,linear",
                       "--n-oracle", 2000, "--grid", "probs=0.5", "--out", out) == 2
        assert "'linear' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--covariates", "x1,outcome"), ("--covariates", "arm,x2"), ("--covariates", "x1,x1"),
        ("--outcome-col", "arm"),
    ])
    def test_column_with_two_roles_is_usage_error(self, tmp_path, capsys, quick_run, flags):
        out = tmp_path / "est"
        assert run_cli(*quick_run("estimate"), *flags, "--out", out) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


class TestConfigResolution:
    def test_ini_file_feeds_defaults(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nseed = 11\nn_units = 160\nmethods = empirical,linear\n"
            "grid = probs=0.4,0.6\nn_oracle = 15000\nn_reps = 2\n"
            "[learner]\nepochs = 2\nhidden = 4\n"
        )
        out = tmp_path / "sim"
        rc = run_cli("simulate", "--config", ini, "--out", out)
        assert rc == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["seed"] == 11
        assert config["n_units"] == 160
        assert config["methods"] == ["empirical", "linear"]
        assert config["hidden"] == [4]

    def test_flags_override_ini(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nseed = 11\nn_units = 160\nmethods = empirical\n"
            "grid = probs=0.5\nn_oracle = 15000\nn_reps = 1\n"
        )
        out = tmp_path / "sim"
        rc = run_cli("simulate", "--config", ini, "--seed", 99, "--out", out)
        assert rc == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["seed"] == 99
        assert config["n_units"] == 160

    def test_unknown_ini_section_is_usage_error(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[options]\nseed = 1\n")
        assert run_cli("simulate", "--config", ini) == 2

    def test_unknown_ini_precision_is_usage_error(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[learner]\nprecision = float16\n")
        assert run_cli("simulate", "--config", ini, "--out", tmp_path / "sim") == 2

    def test_unknown_ini_key_is_usage_error(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nbogus = 1\n")
        assert run_cli("simulate", "--config", ini) == 2

    @pytest.mark.parametrize("flags", [
        ("--ridge", "-1"),
        ("--ridge", "nan"),
        ("--ridge", "inf"),
        ("--learner", "nn-multi", "--hidden", "0"),
    ])
    def test_bad_learner_flag_is_usage_error(self, tmp_path, capsys, experiment_csv, flags):
        out = tmp_path / "est"
        assert run_cli("estimate", "--input", experiment_csv, *flags, "--out", out) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["estimate", "bootstrap-band"])
    @pytest.mark.parametrize("flags", [
        pytest.param(("--arm-pair", "0,1"), id="arm-below-1"),
        pytest.param(("--arm-pair", "2,2"), id="dte-same-arm"),
        pytest.param(("--functional", "pte", "--arm-pair", "1,1"), id="pte-same-arm"),
        pytest.param(("--functional", "pte", "--grid", "list=1.0"), id="pte-one-location"),
        pytest.param(("--grid", "list=0,nan,1"), id="nan-location"),
        pytest.param(("--grid", "list=-inf,0"), id="infinite-location"),
        pytest.param(("--grid", "probs=0.2,nan"), id="nan-probability"),
    ])
    def test_bad_curve_flag_is_usage_error(self, tmp_path, capsys, experiment_csv, mode, flags):
        out = tmp_path / "est"
        assert run_cli(mode, "--input", experiment_csv, *flags, "--out", out) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_ini_transform_is_usage_error(self, tmp_path, capsys, experiment_csv):
        ini = tmp_path / "run.ini"
        ini.write_text("[learner]\ntransform = cube\n")
        out = tmp_path / "est"
        assert run_cli("bootstrap-band", "--config", ini, "--input", experiment_csv,
                       "--learner", "nn-multi-monotone", "--out", out) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_without_config_block_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"outputs": []}))
        assert run_cli("estimate", "--from-manifest", bad, "--out", tmp_path / "est") == 2
        assert "no config block" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("flags", [("--reps", "0"), ("--n-oracle", "0"), ("--n-oracle", "1")])
    def test_study_size_no_draw_can_satisfy_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "sim"
        assert run_cli("simulate", *flags, "--out", out) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, flags", [
        ("estimate", ("--seed", "5", "--learner", "nn-single", "--grid", "probs=0.5", "--input", "nowhere.csv")),
        ("estimate", ("--config", "run.ini")),
        ("simulate", ("--seed", "5")),
    ])
    def test_flags_beside_a_manifest_are_usage_errors(self, tmp_path, capsys, experiment_csv, mode, flags):
        # a replay takes every setting from its manifest, so another flag would be ignored
        first = tmp_path / "first"
        written = {
            "estimate": ("--input", experiment_csv, "--grid", "list=1.5,2.5"),
            "simulate": ("--n", 150, "--reps", 1, "--methods", "empirical", "--n-oracle", 2000),
        }[mode]
        assert run_cli(mode, *written, "--out", first) == 0
        out = tmp_path / "replay"
        assert run_cli(mode, "--from-manifest", first / "manifest.json", *flags, "--out", out) == 2
        err = capsys.readouterr().err
        assert "usage error" in err
        assert all(flag in err for flag in flags if flag.startswith("--"))
        assert not out.exists()

    def test_bad_grid_flag_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--grid", "nope", "--out", tmp_path / "x") == 2

    def test_unknown_learner_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("estimate", "--learner", "forest", "--input", "x.csv")
        assert excinfo.value.code == 2

    def test_benchmark_mode_is_gone(self, tmp_path):
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("benchmark", "--n", 120, "--out", out)
        assert excinfo.value.code == 2
        assert not out.exists()

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli()
        assert excinfo.value.code == 2
