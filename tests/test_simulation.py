import hashlib
import multiprocessing

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import dtekit.core as core
import dtekit.simulation as simulation
from dtekit.core import ConditionalCdfMatrix, indicator_labels
from dtekit.errors import DuplicateLocation, ShapeMismatch, UnsortedGrid
from dtekit.estimation import make_folds, crossfit_gamma, quantile_grid
from dtekit.learners import LearnerKind
from dtekit.nn import TrainConfig
from dtekit.simulation import (
    CONTROL_ARM,
    DEFAULT_QUANTILES,
    TREATED_ARM,
    ClassificationMetrics,
    DgpConfig,
    classification_metrics,
    generate,
    oracle_dte,
    run_study,
)

# average treated-minus-control gap of the outcome mean under the default
# process: E[(B + E)^2] - E[B^2] with B the sum of 18 uniforms, E the sum of 2
MEAN_GAP = 19.0 + 1.0 / 6.0


class TestDgp:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DgpConfig(n_units=0)

    def test_outcome_is_squared_index_plus_unit_noise(self):
        data = generate(DgpConfig(n_units=200, seed=3))
        # the seed's stream gives the covariates, then the fair-coin draws, then the noise
        rng = np.random.default_rng(3)
        x = rng.random((200, 20))
        w = rng.binomial(1, 0.5, size=200)
        noise = rng.standard_normal(200)
        assert_array_equal(data.covariates, x)
        assert_array_equal(data.arms, w + 1)
        base = x[:, :18].sum(axis=1)
        extra = x[:, 18:].sum(axis=1)
        assert_array_equal(data.outcomes, np.square(base + w * extra) + noise)

    def test_arms_are_one_and_two(self):
        data = generate(DgpConfig(n_units=500, seed=1))
        assert set(np.unique(data.arms)) == {CONTROL_ARM, TREATED_ARM}
        assert data.n_arms == 2
        assert data.covariates.shape == (500, 20)
        assert np.all((data.covariates > 0.0) & (data.covariates < 1.0))

    def test_generation_is_deterministic(self):
        a = generate(DgpConfig(n_units=100, seed=9))
        b = generate(DgpConfig(n_units=100, seed=9))
        assert_array_equal(a.outcomes, b.outcomes)
        assert_array_equal(a.covariates, b.covariates)

    def test_mean_gap_matches_analytic_value(self):
        data = generate(DgpConfig(n_units=1_000_000, seed=0))
        treated = data.outcomes[data.arms == TREATED_ARM].mean()
        control = data.outcomes[data.arms == CONTROL_ARM].mean()
        assert treated - control == pytest.approx(MEAN_GAP, abs=0.2)


class TestOracle:
    def test_truth_is_negative_everywhere(self):
        grid, truth = oracle_dte(DgpConfig(n_units=1000, seed=0), n_oracle=30_000)
        assert grid.n_locations == len(DEFAULT_QUANTILES)
        assert np.all(truth < 0.0)

    def test_truth_stable_in_oracle_size(self):
        config = DgpConfig(n_units=1000, seed=5)
        _, small = oracle_dte(config, n_oracle=30_000)
        _, large = oracle_dte(config, n_oracle=60_000)
        assert np.max(np.abs(small - large)) < 0.03

    def test_explicit_locations_respected(self):
        config = DgpConfig(n_units=1000, seed=2)
        grid, truth = oracle_dte(config, n_oracle=20_000, locations=[40.0, 80.0, 120.0])
        assert_array_equal(grid.locations, [40.0, 80.0, 120.0])
        assert truth.shape == (3,)

    def test_cache_roundtrip_and_hit(self, tmp_path, monkeypatch):
        config = DgpConfig(n_units=1000, seed=4)
        grid_a, truth_a = oracle_dte(config, n_oracle=20_000, cache_dir=tmp_path)
        assert list(tmp_path.glob("oracle-*.npz"))

        def boom(*args, **kwargs):
            raise AssertionError("cache miss: the oracle draw was recomputed")

        monkeypatch.setattr(simulation, "_draw", boom)
        grid_b, truth_b = oracle_dte(config, n_oracle=20_000, cache_dir=tmp_path)
        assert_array_equal(grid_a.locations, grid_b.locations)
        assert_array_equal(truth_a, truth_b)

    def test_cache_key_depends_on_config(self, tmp_path):
        oracle_dte(DgpConfig(n_units=1000, seed=4), n_oracle=20_000, cache_dir=tmp_path)
        oracle_dte(DgpConfig(n_units=1000, seed=5), n_oracle=20_000, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("oracle-*.npz"))) == 2

    def test_failed_cache_write_leaves_no_cache_file(self, tmp_path, monkeypatch):
        config = DgpConfig(n_units=1000, seed=4)
        real_savez = np.savez

        def crash_midway(file, **arrays):
            real_savez(file, **arrays)
            raise OSError("disk full")

        monkeypatch.setattr(simulation.np, "savez", crash_midway)
        with pytest.raises(OSError, match="disk full"):
            oracle_dte(config, n_oracle=20_000, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

        monkeypatch.setattr(simulation.np, "savez", real_savez)
        oracle_dte(config, n_oracle=20_000, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == list(tmp_path.glob("oracle-*.npz"))
        assert len(list(tmp_path.iterdir())) == 1

    def test_chunking_does_not_change_the_draw(self, monkeypatch):
        config = DgpConfig(n_units=1000, seed=6)
        _, whole = oracle_dte(config, n_oracle=30_000)
        monkeypatch.setattr(simulation, "_ORACLE_CHUNK", 7_000)
        _, chunked = oracle_dte(config, n_oracle=30_000)
        # chunk boundaries reseed, so the values differ, but not the answer
        assert np.max(np.abs(whole - chunked)) < 0.03

    # digests of the grid and truth bytes: a change to either moves every study's errors
    @pytest.mark.parametrize(("marks", "digest"), [
        (dict(probs=DEFAULT_QUANTILES), "16b13f4633c651bdd3d41c155a346cdc0425b660cdf19e8bfb4905b88435925e"),
        (dict(locations=[20.0, 60.0, 100.0, 140.0]), "466c3c89f5408217928033aca1605e3ce6c57685a8c3f8802035e6f62026723f"),
    ])
    def test_grid_and_truth_bytes_are_pinned(self, marks, digest):
        grid, truth = oracle_dte(DgpConfig(n_units=1000, seed=1010), n_oracle=100_000, **marks)
        assert hashlib.sha256(grid.locations.tobytes() + truth.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(("settings", "error", "message"), [
        (dict(probs=(0.7, 0.3)), UnsortedGrid, "strictly increasing"),
        (dict(probs=(0.0, 0.5)), ValueError, r"strictly inside \(0, 1\)"),
        (dict(probs=(0.5, 1.5)), ValueError, r"strictly inside \(0, 1\)"),
        (dict(probs=(0.01, 0.02), n_oracle=10), DuplicateLocation, "quantiles 0.01 and 0.02"),
    ])
    def test_draw_and_grid_are_checked_as_an_experiment_is(self, settings, error, message):
        with pytest.raises(error, match=message):
            oracle_dte(DgpConfig(n_units=100, seed=0), **{"n_oracle": 5_000, **settings})

    @pytest.mark.parametrize(("make", "message"), [
        # one unit cannot fill both arms of the oracle draw
        (lambda: oracle_dte(DgpConfig(n_units=100), n_oracle=1), "n_oracle must be at least 2, got 1"),
        (lambda: oracle_dte(DgpConfig(n_units=100), n_oracle=0), "n_oracle must be at least 2, got 0"),
        (lambda: oracle_dte(DgpConfig(n_units=100), n_oracle=1e4), "n_oracle must be an integer"),
        (lambda: DgpConfig(n_units=1000.5), "n_units must be an integer"),
        (lambda: DgpConfig(n_units=100, seed=1.5), "seed must be a non-negative integer, got 1.5"),
        (lambda: make_folds(10, 2.0, 1), "n_folds must be an integer"),
        (lambda: make_folds(10, 2, 1.5), "seed must be a non-negative integer, got 1.5"),
        (lambda: make_folds(True, 2, 1), "n_units must be an integer"),
    ])
    def test_bad_sizes_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestRunStudy:
    def test_empirical_baseline_reduction_is_zero(self):
        report = run_study(
            DgpConfig(n_units=200, seed=1),
            methods={"empirical": None},
            n_reps=3,
            n_oracle=20_000,
        )
        assert report.methods == ("empirical",)
        assert_array_equal(report.reduction_pct["empirical"], np.zeros(19))
        assert report.n_reps == 3
        assert report.bias["empirical"].shape == (19,)

    def test_baseline_added_when_missing(self):
        report = run_study(
            DgpConfig(n_units=200, seed=1),
            methods={"linear": LearnerKind("linear")},
            n_reps=2,
            n_oracle=20_000,
        )
        assert report.methods == ("empirical", "linear")

    def test_mse_is_bias_variance_consistent(self):
        report = run_study(
            DgpConfig(n_units=150, seed=2),
            methods={"empirical": None},
            n_reps=8,
            n_oracle=20_000,
        )
        bias = report.bias["empirical"]
        mc_se = report.bias_mc_se["empirical"]
        mse = report.mse["empirical"]
        variance = np.square(mc_se) * report.n_reps * (report.n_reps - 1) / report.n_reps
        assert_allclose(mse, np.square(bias) + variance, rtol=1e-10)

    def test_parallel_matches_serial_exactly(self, monkeypatch):
        config = DgpConfig(n_units=120, seed=3)
        kwargs = dict(
            methods={
                "linear": LearnerKind("linear"),
                "nn-single": LearnerKind("nn-single", hidden=(4,), train=TrainConfig(epochs=1)),
            },
            n_reps=4,
            n_oracle=20_000,
        )
        reports = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
            reports[cpus] = run_study(config, **kwargs)
            assert multiprocessing.active_children() == []
        serial = reports[1]
        for parallel in reports[2], reports[3]:
            for name in serial.methods:
                for field in ("bias", "bias_mc_se", "mse", "reduction_pct"):
                    assert getattr(serial, field)[name].tobytes() == getattr(parallel, field)[name].tobytes()

    def test_linear_adjustment_reduces_mse_here(self):
        report = run_study(
            DgpConfig(n_units=400, seed=11),
            methods={"linear": LearnerKind("linear")},
            n_reps=12,
            n_oracle=50_000,
        )
        assert np.median(report.reduction_pct["linear"]) > 0.0

    def test_explicit_locations_flow_through(self):
        report = run_study(
            DgpConfig(n_units=150, seed=4),
            methods={"empirical": None},
            n_reps=2,
            n_oracle=20_000,
            locations=[60.0, 100.0],
        )
        assert_array_equal(report.locations, [60.0, 100.0])
        assert report.probs.size == 0

    def test_learner_cannot_shadow_the_baseline_name(self):
        with pytest.raises(ValueError):
            run_study(
                DgpConfig(n_units=100, seed=0),
                methods={"empirical": LearnerKind("linear")},
                n_reps=1,
                n_oracle=10_000,
            )

    @pytest.mark.parametrize(("n_reps", "message"), [
        (0, "n_reps must be positive"), (True, "n_reps must be an integer"), (2.0, "n_reps must be an integer"),
    ])
    def test_zero_reps_rejected(self, n_reps, message):
        with pytest.raises(ValueError, match=message):
            run_study(
                DgpConfig(n_units=100, seed=0),
                methods={"empirical": None},
                n_reps=n_reps,
                n_oracle=10_000,
            )

    def test_one_oracle_unit_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(simulation, "_draw", lambda *args: pytest.fail("drew before checking"))
        with pytest.raises(ValueError, match="n_oracle must be at least 2, got 1"):
            run_study(DgpConfig(n_units=100, seed=0), methods={"empirical": None}, n_reps=1, n_oracle=1)


class TestClassificationMetrics:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        labels = (rng.random((20, 3)) < 0.5).astype(float)
        arms = 1 + (np.arange(20) % 2)
        predictions = np.stack([labels, labels])
        gamma = ConditionalCdfMatrix(
            predictions=predictions, fold_assignment=np.ones(20, dtype=int)
        )
        metrics = classification_metrics(gamma, labels, arms)
        assert metrics == ClassificationMetrics(1.0, 1.0, 1.0, 60)

    def test_constant_half_predicts_everything_positive(self):
        labels = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        arms = np.array([1, 1, 2, 2])
        gamma = ConditionalCdfMatrix(
            predictions=np.full((2, 4, 2), 0.5),
            fold_assignment=np.ones(4, dtype=int),
        )
        metrics = classification_metrics(gamma, labels, arms)
        assert metrics.recall == 1.0
        assert metrics.precision == 0.5
        assert metrics.accuracy == 0.5
        assert metrics.n_evaluated == 8

    def test_all_negative_predictions_have_zero_precision(self):
        labels = np.ones((4, 1))
        arms = np.array([1, 1, 2, 2])
        gamma = ConditionalCdfMatrix(
            predictions=np.zeros((2, 4, 1)),
            fold_assignment=np.ones(4, dtype=int),
        )
        metrics = classification_metrics(gamma, labels, arms)
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.accuracy == 0.0

    def test_shape_mismatch_rejected(self):
        gamma = ConditionalCdfMatrix(
            predictions=np.zeros((2, 4, 1)),
            fold_assignment=np.ones(4, dtype=int),
        )
        with pytest.raises(ShapeMismatch):
            classification_metrics(gamma, np.zeros((5, 1)), np.ones(4, dtype=int))

    def test_network_beats_linear_on_the_synthetic_process(self):
        data = generate(DgpConfig(n_units=1000, seed=8))
        grid = quantile_grid(data, DEFAULT_QUANTILES)
        labels = indicator_labels(data, grid)
        plan = make_folds(data.n_units, 2, seed=1)
        nn_kind = LearnerKind(
            "nn-multi-monotone", train=TrainConfig(epochs=30, seed=10)
        )
        gamma_nn = crossfit_gamma(data, grid, nn_kind, plan)
        gamma_lin = crossfit_gamma(data, grid, LearnerKind("linear"), plan)
        acc_nn = classification_metrics(gamma_nn, labels, data.arms).accuracy
        acc_lin = classification_metrics(gamma_lin, labels, data.arms).accuracy
        assert acc_nn > acc_lin
        assert acc_nn > 0.9
