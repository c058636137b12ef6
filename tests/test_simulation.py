import multiprocessing

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import dtekit.core as core
import dtekit.simulation as simulation
from dtekit.core import ConditionalCdfMatrix, indicator_labels
from dtekit.errors import DuplicateLocation, ShapeMismatch
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
        with pytest.raises(ValueError):
            DgpConfig(n_units=10, n_covariates=2)
        with pytest.raises(ValueError):
            DgpConfig(n_units=10, treat_prob=1.0)
        with pytest.raises(ValueError):
            DgpConfig(n_units=10, noise_sd=-1.0)

    def test_noiseless_outcome_is_squared_index(self):
        config = DgpConfig(n_units=200, seed=3, noise_sd=0.0)
        data = generate(config)
        w = (data.arms == TREATED_ARM).astype(float)
        base = data.covariates[:, :-2].sum(axis=1)
        extra = data.covariates[:, -2:].sum(axis=1)
        assert_array_equal(data.outcomes, np.square(base + w * extra))

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

    @pytest.mark.parametrize(("make", "message"), [
        (lambda: oracle_dte(DgpConfig(n_units=100), n_oracle=0), "n_oracle must be positive"),
        (lambda: oracle_dte(DgpConfig(n_units=100), n_oracle=1e4), "n_oracle must be an integer"),
        (lambda: DgpConfig(n_units=1000.5), "n_units must be an integer"),
        (lambda: DgpConfig(n_units=100, seed=1.5), "seed must be an integer"),
        (lambda: make_folds(10, 2.0, 1), "n_folds must be an integer"),
        (lambda: make_folds(10, 2, 1.5), "seed must be an integer"),
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
