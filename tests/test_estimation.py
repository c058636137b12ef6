import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import norm

import dtekit.core as core
import dtekit.estimation as estimation
import dtekit.learners as learners
import dtekit.nn as nn
from dtekit.core import CdfEstimate, ConditionalCdfMatrix, ExperimentData, derive_seed, indicator_labels
from dtekit.errors import (
    DuplicateLocation,
    EmptyTrainingArm,
    GridTooSmall,
    SameArm,
    ShapeMismatch,
    TooFewUnits,
    UnsortedGrid,
)
from dtekit.estimation import (
    CrossFitPlan,
    adjusted_cdf,
    crossfit_gamma,
    dte,
    empirical_cdf,
    fit_adjusted,
    make_folds,
    pte,
    quantile_grid,
)
from dtekit.learners import LEARNER_KINDS, LearnerKind, fit, predict
from dtekit.nn import TrainConfig

from conftest import grid_of, make_experiment


def constant_gamma(data, grid, value):
    predictions = np.full((data.n_arms, data.n_units, grid.n_locations), value)
    folds = make_folds(data.n_units, 2, seed=0).fold_assignment
    return ConditionalCdfMatrix(predictions=predictions, fold_assignment=folds)


class TestMakeFolds:
    def test_balanced_sizes(self):
        plan = make_folds(11, 2, seed=3)
        sizes = sorted(np.bincount(plan.fold_assignment)[1:])
        assert sizes == [5, 6]

    def test_partition_covers_everything(self):
        plan = make_folds(30, 4, seed=1)
        assert set(np.unique(plan.fold_assignment)) == {1, 2, 3, 4}
        assert plan.fold_assignment.shape == (30,)

    def test_deterministic_in_seed(self):
        assert_array_equal(
            make_folds(25, 3, seed=7).fold_assignment,
            make_folds(25, 3, seed=7).fold_assignment,
        )
        assert not np.array_equal(
            make_folds(25, 3, seed=7).fold_assignment,
            make_folds(25, 3, seed=8).fold_assignment,
        )

    def test_too_few_units(self):
        with pytest.raises(TooFewUnits):
            make_folds(2, 3, seed=0)

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError):
            make_folds(10, 1, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=300),
        n_folds=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_fold_sizes_within_one(self, n, n_folds, seed):
        plan = make_folds(n, n_folds, seed)
        sizes = np.bincount(plan.fold_assignment)[1:]
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1


class TestCrossFitPlan:
    @pytest.mark.parametrize(("folds", "message"), [
        ([1, 2, 1, 3, 2], r"fold ids must be integers in 1\.\.2 \(unit 3 has 3\)"),
        ([1, 2, 0, 2, 0], r"fold ids must be integers in 1\.\.2 \(unit 2 has 0\)"),
        ([1.0, 2.0, 1.5, 2.0, 2.5], r"fold ids must be integers \(unit 2 has 1\.5\)"),
        ([1.0, np.nan, 1.0, 2.0, 2.0], r"fold ids must be integers \(unit 1 has nan\)"),
        (["1", "2", "1", "2", "1"], "fold ids must be integers"),
        ([True, False, True, False, True], "fold ids must be integers"),
    ])
    def test_fold_ids_are_integers_in_range(self, folds, message):
        with pytest.raises(ValueError, match=message):
            CrossFitPlan(n_folds=2, seed=0, fold_assignment=folds)

    def test_assignment_is_one_dimensional(self):
        with pytest.raises(ShapeMismatch, match="1-dimensional"):
            CrossFitPlan(n_folds=2, seed=0, fold_assignment=[[1, 2], [2, 1]])

    @pytest.mark.parametrize(("settings_", "message"), [
        ({"n_folds": 1.5}, "n_folds must be an integer"),
        ({"n_folds": 1}, "at least 2 folds"),
        ({"n_folds": True}, "n_folds must be an integer"),
        ({"seed": "s"}, "seed must be a non-negative integer"),
        ({"seed": 0.5}, "seed must be a non-negative integer"),
        ({"seed": -1}, "seed must be a non-negative integer"),
    ])
    def test_folds_and_seed_are_checked(self, settings_, message):
        with pytest.raises(ValueError, match=message):
            CrossFitPlan(**{"n_folds": 2, "seed": 0, "fold_assignment": [1, 2, 1], **settings_})

    def test_numpy_integers_and_integral_floats_are_accepted(self):
        plan = CrossFitPlan(n_folds=np.int64(2), seed=np.uint32(3), fold_assignment=np.array([1.0, 2.0, 2.0]))
        assert_array_equal(plan.fold_assignment, [1, 2, 2])
        assert plan.fold_assignment.dtype.kind == "i"

    def test_a_fold_outside_the_plan_never_reaches_crossfitting(self, two_arm_data):
        # an unknown fold id once left its units' predictions uninitialised
        folds = np.where(np.arange(two_arm_data.n_units) % 2 == 0, 1, 3)
        with pytest.raises(ValueError, match=r"fold ids must be integers in 1\.\.2"):
            crossfit_gamma(two_arm_data, grid_of(1.5), LearnerKind("linear"),
                           CrossFitPlan(n_folds=2, seed=0, fold_assignment=folds))


def one_arm_data(outcomes):
    outcomes = np.asarray(outcomes, dtype=float)
    n = outcomes.shape[0]
    return ExperimentData(
        covariates=np.zeros((n, 1)), arms=np.ones(n, dtype=np.int64), outcomes=outcomes
    )


class TestEmpiricalCdf:
    def test_single_arm_values(self):
        est = empirical_cdf(one_arm_data([1.0, 2.0, 3.0]), grid_of(0.5, 2.0, 3.0, 9.0))
        assert_allclose(est.values[0], [0.0, 2.0 / 3.0, 1.0, 1.0])
        assert est.method == "empirical"

    def test_right_continuity_at_ties(self):
        est = empirical_cdf(one_arm_data([1.0, 2.0, 2.0, 3.0]), grid_of(2.0))
        assert est.values[0, 0] == 0.75

    def test_identical_arms_give_identical_rows(self):
        y = np.array([1.0, 5.0, 2.0, 1.0, 5.0, 2.0])
        data = ExperimentData(
            covariates=np.zeros((6, 1)),
            arms=np.array([1, 1, 1, 2, 2, 2]),
            outcomes=y,
        )
        est = empirical_cdf(data, grid_of(1.0, 2.0, 4.0))
        assert_array_equal(est.values[0], est.values[1])

    def test_values_are_arm_conditional(self, two_arm_data):
        est = empirical_cdf(two_arm_data, grid_of(1.5))
        y, arms = two_arm_data.outcomes, two_arm_data.arms
        for w in (1, 2):
            expected = np.mean(y[arms == w] <= 1.5)
            assert est.values[w - 1, 0] == pytest.approx(expected, abs=1e-15)


class TestAdjustedCdf:
    def test_zero_gamma_collapses_to_empirical_exactly(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.25, 0.5, 0.75])
        gamma = constant_gamma(two_arm_data, grid, 0.0)
        adjusted = adjusted_cdf(two_arm_data, grid, gamma)
        empirical = empirical_cdf(two_arm_data, grid)
        assert_array_equal(adjusted.values, empirical.values)

    def test_constant_gamma_cancels(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.2, 0.5, 0.8])
        gamma = constant_gamma(two_arm_data, grid, 0.37)
        adjusted = adjusted_cdf(two_arm_data, grid, gamma)
        empirical = empirical_cdf(two_arm_data, grid)
        assert np.max(np.abs(adjusted.values - empirical.values)) < 1e-12

    def test_hand_computed_example(self):
        data = ExperimentData(
            covariates=np.zeros((4, 1)),
            arms=np.array([1, 1, 2, 2]),
            outcomes=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        grid = grid_of(2.5)
        predictions = np.array(
            [[[0.1], [0.2], [0.3], [0.4]], [[0.5], [0.6], [0.7], [0.8]]]
        )
        gamma = ConditionalCdfMatrix(
            predictions=predictions, fold_assignment=np.array([1, 2, 1, 2])
        )
        est = adjusted_cdf(data, grid, gamma)
        # arm 1: mean of (1 - 0.1, 1 - 0.2) plus mean of all four predictions
        assert est.values[0, 0] == pytest.approx(0.85 + 0.25, abs=1e-15)
        # arm 2: labels are zero, so the arm term is negative
        assert est.values[1, 0] == pytest.approx(-0.75 + 0.65, abs=1e-15)

    def test_output_not_range_corrected(self):
        # the hand-computed example lands outside [0, 1] and must stay there
        data = ExperimentData(
            covariates=np.zeros((4, 1)),
            arms=np.array([1, 1, 2, 2]),
            outcomes=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        grid = grid_of(2.5)
        predictions = np.array(
            [[[0.1], [0.2], [0.3], [0.4]], [[0.5], [0.6], [0.7], [0.8]]]
        )
        gamma = ConditionalCdfMatrix(
            predictions=predictions, fold_assignment=np.array([1, 2, 1, 2])
        )
        est = adjusted_cdf(data, grid, gamma)
        assert est.values[0, 0] > 1.0
        assert est.values[1, 0] < 0.0

    def test_gamma_shape_checked(self, two_arm_data):
        grid = grid_of(1.5)
        bad = ConditionalCdfMatrix(
            predictions=np.zeros((2, two_arm_data.n_units, 3)),
            fold_assignment=np.ones(two_arm_data.n_units, dtype=int),
        )
        with pytest.raises(ShapeMismatch):
            adjusted_cdf(two_arm_data, grid, bad)


class TestCrossfitGamma:
    def test_constant_labels_give_constant_predictions(self):
        data = make_experiment(seed=3, n=40)
        # grid far above every outcome: all labels are 1
        grid = grid_of(data.outcomes.max() + 10.0)
        plan = make_folds(data.n_units, 2, seed=0)
        gamma = crossfit_gamma(data, grid, LearnerKind("linear"), plan)
        assert_allclose(gamma.predictions, 1.0, atol=1e-6)

    def test_no_leakage_from_held_out_outcomes(self):
        data = make_experiment(seed=5, n=50)
        grid = grid_of(1.0, 2.0, 3.0)
        plan = make_folds(data.n_units, 2, seed=1)
        kind = LearnerKind("linear")
        gamma_before = crossfit_gamma(data, grid, kind, plan)

        tweaked_y = data.outcomes.copy()
        tweaked_y[0] += 100.0
        tweaked = ExperimentData(
            covariates=data.covariates,
            arms=data.arms,
            outcomes=tweaked_y,
            n_arms=data.n_arms,
        )
        gamma_after = crossfit_gamma(tweaked, grid, kind, plan)

        fold_of_zero = plan.fold_assignment[0]
        same_fold = plan.fold_assignment == fold_of_zero
        # unit 0 only ever trains models that predict the other folds
        assert_array_equal(
            gamma_before.predictions[:, same_fold],
            gamma_after.predictions[:, same_fold],
        )
        assert not np.array_equal(
            gamma_before.predictions[:, ~same_fold],
            gamma_after.predictions[:, ~same_fold],
        )

    def test_every_arm_fold_pair_needs_two_training_units(self):
        data = ExperimentData(
            covariates=np.random.default_rng(0).random((6, 2)),
            arms=np.array([1, 1, 1, 1, 2, 2]),
            outcomes=np.arange(6, dtype=float),
        )
        plan = make_folds(6, 2, seed=0)
        with pytest.raises(EmptyTrainingArm):
            crossfit_gamma(data, grid_of(2.5), LearnerKind("linear"), plan)

    def test_empty_training_arm_fails_before_any_training(self, monkeypatch):
        calls = []

        def counting(binding):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return binding(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(nn, "train_many", counting(nn.train_many))
        monkeypatch.setattr(learners, "train_many", counting(learners.train_many))
        data = make_experiment(seed=2, n=12)
        data = ExperimentData(covariates=data.covariates, arms=np.repeat([1, 2], 6),
                              outcomes=data.outcomes, n_arms=2)
        # arm 2 keeps one unit outside fold 2, the last (arm, fold) pair in order
        plan = CrossFitPlan(n_folds=2, seed=0,
                            fold_assignment=np.array([1, 2, 1, 2, 1, 2, 1, 2, 2, 2, 2, 2]))
        kind = LearnerKind("nn-multi-monotone", hidden=(4,), train=TrainConfig(epochs=1))
        with pytest.raises(EmptyTrainingArm, match="arm 2 has 1 training units outside fold 2"):
            crossfit_gamma(data, grid_of(1.0, 2.0), kind, plan)
        assert calls == []

    @pytest.mark.parametrize("name", LEARNER_KINDS)
    def test_equals_a_loop_of_fit_and_predict_per_arm_and_fold(self, name):
        data = make_experiment(seed=13, n=71, n_arms=3)
        grid = grid_of(1.0, 1.5, 2.0)
        plan = make_folds(data.n_units, 3, seed=6)
        kind = LearnerKind(name, hidden=(5,), train=TrainConfig(epochs=2, batch_size=8, seed=21))
        got = crossfit_gamma(data, grid, kind, plan)
        # one learner per (arm, fold), fitted and used one after another
        labels = indicator_labels(data, grid)
        folds = plan.fold_assignment
        want = np.empty((data.n_arms, data.n_units, grid.n_locations))
        for w in range(1, data.n_arms + 1):
            for fold in range(1, plan.n_folds + 1):
                train_mask = (folds != fold) & (data.arms == w)
                seeded = kind.with_seed(derive_seed(kind.train.seed, w, fold))
                model = fit(seeded, data.covariates[train_mask], labels[train_mask])
                want[w - 1, folds == fold] = predict(model, data.covariates[folds == fold])
        assert_array_equal(got.predictions, want)

    @pytest.mark.parametrize(("name", "expected"), [
        ("nn-multi-monotone", [6]), ("nn-single", [18]),
    ])
    def test_train_many_calls_per_crossfit(self, monkeypatch, name, expected):
        # in-process: a count made in a forked fit process never reaches this one
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        calls = []
        train_many = learners.train_many

        def counting(xs, labels, spec, config, seeds):
            calls.append(len(seeds))
            return train_many(xs, labels, spec, config, seeds)

        monkeypatch.setattr(learners, "train_many", counting)
        data = make_experiment(seed=4, n=60)
        plan = make_folds(data.n_units, 3, seed=2)
        kind = LearnerKind(name, hidden=(4,), train=TrainConfig(epochs=1))
        crossfit_gamma(data, grid_of(1.0, 1.5, 2.0), kind, plan)
        # 2 arms x 3 folds in one stack; nn-single stacks one network per location
        assert calls == expected

    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(["nn-single", "nn-multi", "nn-multi-monotone"]),
        precision=st.sampled_from(nn.PRECISIONS),
        processes=st.integers(2, 4),
        arm_sizes=st.lists(st.integers(8, 30), min_size=2, max_size=2, unique=True),
        n_folds=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fan_out_is_bit_identical(self, name, precision, processes, arm_sizes, n_folds, seed):
        rng = np.random.default_rng(seed)
        arms = rng.permutation(np.repeat([1, 2], arm_sizes))
        x = rng.random((arms.size, 3))
        y = x.sum(axis=1) + 0.5 * (arms - 1) + 0.3 * rng.standard_normal(arms.size)
        data = ExperimentData(covariates=x, arms=arms, outcomes=y, n_arms=2)
        grid = quantile_grid(data, (0.25, 0.5, 0.75))
        # folds dealt round-robin within each arm, so every (arm, fold) split has training units
        folds = np.empty(arms.size, dtype=int)
        for w in (1, 2):
            folds[arms == w] = 1 + np.arange(np.sum(arms == w)) % n_folds
        plan = CrossFitPlan(n_folds=n_folds, seed=seed, fold_assignment=folds)
        train = TrainConfig(epochs=2, batch_size=8, seed=seed, precision=precision)
        kind = LearnerKind(name, hidden=(5,), train=train)
        predictions = {}
        for cpus in (1, processes):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "_usable_cpus", lambda: cpus)
                # 2 arms x n_folds problems
                assert core._fan_out_processes(2 * n_folds) == min(cpus, 2 * n_folds)
                predictions[cpus] = crossfit_gamma(data, grid, kind, plan).predictions.tobytes()
        assert predictions[processes] == predictions[1]

    @pytest.mark.parametrize(("bad_row", "message"), [
        ((0.2, 1.5, 1.7), "network predictions left [0, 1] (arm 2, unit {unit}, location 1)"),
        ((0.2, 0.5, 0.4), "monotone head produced a decreasing prediction row (arm 2, unit {unit}, location 2)"),
    ])
    def test_range_errors_name_the_first_bad_cell(self, monkeypatch, bad_row, message):
        calls = []
        predict_ = estimation.predict

        def corrupting(model, x):
            out = predict_(model, x)
            calls.append(1)
            # the fourth model is (arm 2, fold 2): spoil the row of its fourth unit
            if len(calls) == 4:
                out[3] = bad_row
            return out

        monkeypatch.setattr(estimation, "predict", corrupting)
        data = make_experiment(seed=4, n=40)
        plan = make_folds(data.n_units, 2, seed=2)
        kind = LearnerKind("nn-multi-monotone", hidden=(4,), train=TrainConfig(epochs=1))
        unit = np.flatnonzero(plan.fold_assignment == 2)[3]
        with pytest.raises(ShapeMismatch, match=re.escape(message.format(unit=unit))):
            crossfit_gamma(data, grid_of(1.0, 1.5, 2.0), kind, plan)

    def test_fold_assignment_length_checked(self, two_arm_data):
        plan = make_folds(10, 2, seed=0)
        with pytest.raises(ShapeMismatch):
            crossfit_gamma(two_arm_data, grid_of(1.0), LearnerKind("linear"), plan)

    def test_seeded_per_arm_and_fold(self):
        data = make_experiment(seed=9, n=60)
        grid = grid_of(1.0, 2.0)
        plan = make_folds(data.n_units, 2, seed=4)
        kind = LearnerKind("nn-multi", hidden=(4,), train=TrainConfig(epochs=1, seed=11))
        first = crossfit_gamma(data, grid, kind, plan)
        second = crossfit_gamma(data, grid, kind, plan)
        assert_array_equal(first.predictions, second.predictions)


class TestFitAdjusted:
    def test_method_tags(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.3, 0.6])
        linear = fit_adjusted(two_arm_data, grid, LearnerKind("linear"))
        assert linear.estimate.method == "linear-adjusted"
        assert linear.plan.n_folds == 2

    def test_auto_plan_is_deterministic(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.3, 0.6])
        kind = LearnerKind("linear")
        a = fit_adjusted(two_arm_data, grid, kind)
        b = fit_adjusted(two_arm_data, grid, kind)
        assert_array_equal(a.plan.fold_assignment, b.plan.fold_assignment)
        assert_array_equal(a.estimate.values, b.estimate.values)

    def test_explicit_plan_respected(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.5])
        plan = make_folds(two_arm_data.n_units, 4, seed=99)
        result = fit_adjusted(two_arm_data, grid, LearnerKind("linear"), plan=plan)
        assert result.plan is plan


class TestEffects:
    def make_estimate(self, row_a, row_b):
        return CdfEstimate(values=np.array([row_a, row_b]), method="empirical")

    def test_dte_example(self):
        est = self.make_estimate([0.2, 0.5, 0.9], [0.1, 0.3, 0.7])
        assert_allclose(dte(est, 1, 2), [0.1, 0.2, 0.2], atol=1e-15)
        assert_allclose(dte(est, 2, 1), [-0.1, -0.2, -0.2], atol=1e-15)

    def test_pte_single_interval_zero(self):
        est = self.make_estimate([0.2, 0.6], [0.1, 0.5])
        assert_allclose(pte(est, 1, 2), [0.0], atol=1e-15)

    def test_pte_needs_two_locations(self):
        est = CdfEstimate(values=np.array([[0.4], [0.2]]), method="empirical")
        with pytest.raises(GridTooSmall):
            pte(est, 1, 2)

    def test_same_arm_rejected(self):
        est = self.make_estimate([0.2, 0.6], [0.1, 0.5])
        with pytest.raises(SameArm):
            dte(est, 1, 1)

    def test_arm_out_of_range(self):
        est = self.make_estimate([0.2, 0.6], [0.1, 0.5])
        with pytest.raises(ShapeMismatch):
            dte(est, 1, 3)
        with pytest.raises(ShapeMismatch, match=r"out of range 1\.\.2"):
            pte(est, 0, 1)

    @pytest.mark.parametrize("effect", [dte, pte])
    @pytest.mark.parametrize("arms", [(2.7, 1), (True, 2), ("2", 1)])
    def test_non_integer_arm_rejected(self, effect, arms):
        est = self.make_estimate([0.2, 0.6], [0.1, 0.5])
        with pytest.raises(ValueError, match="arm pair must be integers"):
            effect(est, *arms)

    @settings(max_examples=40, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_pte_cells_telescope_to_final_dte(self, raw):
        rows = np.sort(np.asarray(raw, dtype=float), axis=0).T
        est = CdfEstimate(values=rows, method="empirical")
        cells = pte(est, 2, 1)
        effect = dte(est, 2, 1)
        assert cells.sum() == pytest.approx(effect[-1] - effect[0], abs=1e-12)


class TestQuantileGrid:
    def test_median_of_one_to_hundred(self):
        data = one_arm_data(np.arange(1.0, 101.0))
        grid = quantile_grid(data, [0.5])
        assert grid.locations[0] == 50.0

    def test_locations_are_observed_values(self, two_arm_data):
        grid = quantile_grid(two_arm_data, np.linspace(0.05, 0.95, 19))
        assert grid.n_locations == 19
        assert np.all(np.isin(grid.locations, two_arm_data.outcomes))

    def test_probabilities_outside_unit_interval(self, two_arm_data):
        with pytest.raises(ValueError):
            quantile_grid(two_arm_data, [0.0, 0.5])
        with pytest.raises(ValueError):
            quantile_grid(two_arm_data, [0.5, 1.0])

    @pytest.mark.parametrize("probs", [[], [[0.2, 0.5]]], ids=["empty", "2-d"])
    def test_probabilities_must_be_a_non_empty_list(self, two_arm_data, probs):
        with pytest.raises(ShapeMismatch, match="non-empty 1-dimensional"):
            quantile_grid(two_arm_data, probs)

    def test_unsorted_probabilities(self, two_arm_data):
        with pytest.raises(UnsortedGrid):
            quantile_grid(two_arm_data, [0.6, 0.4])

    def test_collision_on_constant_outcomes(self):
        data = one_arm_data(np.full(20, 3.0))
        with pytest.raises(DuplicateLocation):
            quantile_grid(data, [0.25, 0.75])


class TestVarianceReduction:
    def test_true_gamma_beats_empirical_variance(self):
        # two-point covariate, Y = 3 X + Z: the conditional CDF at y = 1.5 is
        # Phi(1.5 - 3 X), and adjusting with it removes the between-X variance
        rng = np.random.default_rng(2024)
        n, reps, y0 = 80, 600, 1.5
        grid = grid_of(y0)
        emp, adj = [], []
        for _ in range(reps):
            x = rng.integers(0, 2, size=n).astype(float)
            arms = 1 + rng.integers(0, 2, size=n)
            if len(np.unique(arms)) < 2:
                continue
            y = 3.0 * x + rng.standard_normal(n)
            data = ExperimentData(
                covariates=x[:, None], arms=arms, outcomes=y, n_arms=2
            )
            truth = norm.cdf(y0 - 3.0 * x)
            gamma = ConditionalCdfMatrix(
                predictions=np.broadcast_to(truth[None, :, None], (2, n, 1)).copy(),
                fold_assignment=np.ones(n, dtype=int),
            )
            emp.append(empirical_cdf(data, grid).values[0, 0])
            adj.append(adjusted_cdf(data, grid, gamma).values[0, 0])
        var_emp = np.var(emp, ddof=1)
        var_adj = np.var(adj, ddof=1)
        # theory puts the ratio near 0.62 for this design
        assert var_adj < 0.85 * var_emp


def random_design(seed, n, n_arms, d):
    """A random experiment whose arms each split evenly between two folds."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    arms = rng.permutation(np.arange(n) % n_arms + 1)
    y = x.sum(axis=1) + 0.5 * arms + rng.standard_normal(n)
    folds = np.empty(n, dtype=int)
    for w in range(1, n_arms + 1):
        own = np.flatnonzero(arms == w)
        folds[own] = np.arange(own.size) % 2 + 1
    data = ExperimentData(covariates=x, arms=arms, outcomes=y, n_arms=n_arms)
    return data, CrossFitPlan(n_folds=2, seed=0, fold_assignment=folds)


designs = {
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    "n": st.integers(min_value=60, max_value=120),
    "n_arms": st.integers(min_value=2, max_value=3),
    "d": st.integers(min_value=1, max_value=3),
}
PROBS = [0.2, 0.4, 0.6, 0.8]


class TestInvariances:
    @settings(max_examples=25, deadline=None)
    @given(**designs)
    def test_permuting_units(self, seed, n, n_arms, d):
        data, plan = random_design(seed, n, n_arms, d)
        order = np.random.default_rng(seed + 1).permutation(n)
        permuted = ExperimentData(
            covariates=data.covariates[order], arms=data.arms[order],
            outcomes=data.outcomes[order], n_arms=n_arms,
        )
        permuted_plan = CrossFitPlan(n_folds=2, seed=0, fold_assignment=plan.fold_assignment[order])
        grid = quantile_grid(data, PROBS)
        assert_array_equal(quantile_grid(permuted, PROBS).locations, grid.locations)
        assert_array_equal(empirical_cdf(permuted, grid).values, empirical_cdf(data, grid).values)
        kind = LearnerKind("linear")
        assert_allclose(
            fit_adjusted(permuted, grid, kind, plan=permuted_plan).estimate.values,
            fit_adjusted(data, grid, kind, plan=plan).estimate.values,
            rtol=0.0, atol=1e-12,
        )

    @settings(max_examples=25, deadline=None)
    @given(**designs)
    def test_relabelling_arms_permutes_rows(self, seed, n, n_arms, d):
        data, plan = random_design(seed, n, n_arms, d)
        new_label = np.random.default_rng(seed + 2).permutation(n_arms) + 1
        relabelled = ExperimentData(
            covariates=data.covariates, arms=new_label[data.arms - 1],
            outcomes=data.outcomes, n_arms=n_arms,
        )
        grid = quantile_grid(data, PROBS)
        # row w of the original is row new_label[w] of the relabelled estimate
        rows = new_label - 1
        assert_array_equal(empirical_cdf(relabelled, grid).values[rows], empirical_cdf(data, grid).values)
        kind = LearnerKind("linear")
        assert_array_equal(
            fit_adjusted(relabelled, grid, kind, plan=plan).estimate.values[rows],
            fit_adjusted(data, grid, kind, plan=plan).estimate.values,
        )

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=80),
        n_arms=st.integers(min_value=1, max_value=3),
        constants=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=9, max_size=9),
    )
    def test_any_constant_gamma_gives_the_empirical_cdf(self, seed, n, n_arms, constants):
        data, plan = random_design(seed, n, n_arms, 1)
        grid = grid_of(-1.0, 0.5, 2.0)
        per_cell = np.reshape(constants, (3, 3))[:n_arms]
        gamma = ConditionalCdfMatrix(
            predictions=np.broadcast_to(per_cell[:, None, :], (n_arms, n, 3)).copy(),
            fold_assignment=plan.fold_assignment,
        )
        assert_allclose(
            adjusted_cdf(data, grid, gamma).values, empirical_cdf(data, grid).values,
            rtol=0.0, atol=1e-12,
        )
