import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

import dtekit.core as core
from dtekit.core import (
    CdfEstimate,
    ConditionalCdfMatrix,
    ExperimentData,
    LocationGrid,
    derive_seed,
    indicator_labels,
    validate_experiment,
)
from dtekit.errors import (
    EmptyArm,
    NonFiniteValue,
    ShapeMismatch,
    TooFewUnits,
    UnsortedGrid,
)

from conftest import grid_of, make_experiment


def small_data(arms, outcomes=None, n_arms=0):
    arms = np.asarray(arms, dtype=np.int64)
    n = arms.shape[0]
    if outcomes is None:
        outcomes = np.arange(n, dtype=float)
    return ExperimentData(
        covariates=np.zeros((n, 2)),
        arms=arms,
        outcomes=np.asarray(outcomes, dtype=float),
        n_arms=n_arms,
    )


class TestValidateExperiment:
    def test_counts_and_shares(self):
        stats = validate_experiment(small_data([1, 1, 2, 2]))
        assert_array_equal(stats.counts, [2, 2])
        assert_array_equal(stats.shares, [0.5, 0.5])

    def test_counts_sum_to_n(self):
        stats = validate_experiment(small_data([1, 2, 2, 2, 1]))
        assert stats.counts.sum() == 5
        assert stats.shares.sum() == pytest.approx(1.0)

    def test_declared_arm_missing(self):
        with pytest.raises(EmptyArm, match="arm 2 has no units"):
            small_data([1, 1, 1], n_arms=2)

    def test_label_outside_declared_range(self):
        with pytest.raises(EmptyArm, match=r"arm labels must lie in 1\.\.2"):
            small_data([1, 3], n_arms=2)

    def test_single_unit(self):
        with pytest.raises(TooFewUnits):
            small_data([1])

    def test_nonfinite_outcome(self):
        with pytest.raises(NonFiniteValue):
            small_data([1, 2], outcomes=[0.0, np.nan])

    def test_nonfinite_covariate(self):
        with pytest.raises(NonFiniteValue):
            ExperimentData(
                covariates=np.array([[0.0, np.inf], [1.0, 2.0]]),
                arms=np.array([1, 2]),
                outcomes=np.array([0.0, 1.0]),
            )

    def test_grid_checked_against_data(self):
        data = small_data([1, 2, 1, 2])
        stats = validate_experiment(data, grid_of(0.5, 1.5))
        assert stats.counts.tolist() == [2, 2]

    def test_returns_the_stats_the_data_carries(self):
        data = small_data([1, 2, 2])
        assert validate_experiment(data) is data.stats
        assert_array_equal(data.stats.counts, [1, 2])
        assert_array_equal(data.stats.shares, [1 / 3.0, 2 / 3.0])
        with pytest.raises(ValueError):
            data.stats.counts[0] = 5

    def test_mismatched_lengths(self):
        with pytest.raises(ShapeMismatch):
            ExperimentData(
                covariates=np.zeros((3, 2)),
                arms=np.array([1, 2]),
                outcomes=np.zeros(3),
            )

    def test_arrays_frozen(self):
        data = small_data([1, 2])
        with pytest.raises(ValueError):
            data.outcomes[0] = 99.0


class TestConstructionErrors:
    def test_nonfinite_covariate_names_unit_and_column(self):
        x = np.zeros((10, 3))
        x[7, 2] = np.nan
        x[8, 0] = np.inf
        with pytest.raises(
            NonFiniteValue, match=r"^covariates contain non-finite values \(unit 7, column 2\)$"
        ):
            ExperimentData(covariates=x, arms=np.tile([1, 2], 5), outcomes=np.arange(10.0))

    def test_nonfinite_outcome_names_unit(self):
        y = np.arange(6.0)
        y[[3, 5]] = [-np.inf, np.nan]
        with pytest.raises(NonFiniteValue, match=r"^outcomes contain non-finite values \(unit 3\)$"):
            small_data([1, 2, 1, 2, 1, 2], outcomes=y)

    def test_non_integral_arm_labels_rejected(self):
        with pytest.raises(EmptyArm, match=r"arm labels must be integers \(unit 0 has 1\.5\)"):
            ExperimentData(
                covariates=np.zeros((4, 1)),
                arms=np.array([1.5, 1.2, 2.9, 2.1]),
                outcomes=np.arange(4.0),
            )

    @pytest.mark.parametrize("label", [2.5, np.nan, np.inf, -np.inf])
    def test_first_bad_label_is_named(self, label):
        with pytest.raises(EmptyArm, match=rf"unit 2 has {label:g}\)"):
            ExperimentData(
                covariates=np.zeros((4, 1)),
                arms=np.array([1.0, 2.0, label, 0.5]),
                outcomes=np.arange(4.0),
            )

    @pytest.mark.parametrize("labels, dtype", [
        (np.array(["1", "2", "1", "2"]), "<U1"), (np.array([True] * 4), "bool"),
        (np.array([1, 2, 1, 2], dtype=object), "object"),
    ])
    def test_non_numeric_and_bool_arm_labels_rejected(self, labels, dtype):
        with pytest.raises(EmptyArm, match=rf"arm labels must be integers, got {dtype} values"):
            ExperimentData(covariates=np.zeros((4, 1)), arms=labels, outcomes=np.arange(4.0))

    @pytest.mark.parametrize("n_arms", [2.9, 2.0, "2", True])
    def test_non_integral_n_arms_rejected(self, n_arms):
        with pytest.raises(ValueError, match="n_arms must be an integer"):
            small_data([1, 2, 1, 2], n_arms=n_arms)

    def test_numpy_integer_n_arms_accepted_as_a_python_int(self):
        data = small_data([1, 2, 3], n_arms=np.int64(3))
        assert data.n_arms == 3 and type(data.n_arms) is int

    def test_no_declared_arm_rejected(self):
        with pytest.raises(EmptyArm, match="experiment declares no arms"):
            small_data([1, 2], n_arms=-1)

    def test_integral_float_labels_accepted(self):
        data = ExperimentData(
            covariates=np.zeros((4, 1)),
            arms=np.array([2.0, 1.0, 2.0, 2.0]),
            outcomes=np.arange(4.0),
        )
        assert data.arms.dtype.kind == "i"
        assert_array_equal(data.arms, [2, 1, 2, 2])
        assert_array_equal(data.stats.counts, [1, 3])


class TestCdfEstimate:
    def test_non_finite_value_rejected(self):
        with pytest.raises(NonFiniteValue, match="CDF estimates must be finite"):
            CdfEstimate(values=np.array([[0.2, np.nan]]), method="adjusted")

    @pytest.mark.parametrize("row", [(-0.1, 0.5), (0.5, 1.1)])
    def test_empirical_values_outside_the_unit_interval_rejected(self, row):
        with pytest.raises(ShapeMismatch, match=r"must lie in \[0, 1\]"):
            CdfEstimate(values=np.array([row]), method="empirical")

    def test_decreasing_empirical_row_rejected(self):
        with pytest.raises(UnsortedGrid, match="non-decreasing"):
            CdfEstimate(values=np.array([[0.2, 0.6], [0.5, 0.4]]), method="empirical")


class TestConditionalCdfMatrix:
    def test_unit_count_must_match_the_folds(self):
        with pytest.raises(ShapeMismatch, match="predictions cover 3 units but fold assignment covers 2"):
            ConditionalCdfMatrix(predictions=np.zeros((2, 3, 1)), fold_assignment=[1, 2])

    def test_non_finite_prediction_rejected(self):
        predictions = np.zeros((2, 2, 1))
        predictions[1, 0, 0] = np.inf
        with pytest.raises(NonFiniteValue, match="must be finite"):
            ConditionalCdfMatrix(predictions=predictions, fold_assignment=[1, 2])


class TestLocationGrid:
    def test_unsorted_rejected(self):
        with pytest.raises(UnsortedGrid):
            grid_of(3.0, 1.0, 2.0)

    def test_duplicates_rejected(self):
        with pytest.raises(UnsortedGrid):
            grid_of(1.0, 1.0, 2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteValue):
            grid_of(1.0, np.inf)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ShapeMismatch):
            LocationGrid(locations=np.zeros((2, 2)))

    def test_n_locations(self):
        assert grid_of(1.0, 2.0, 5.0).n_locations == 3


class TestIndicatorLabels:
    def test_single_outcome(self):
        data = small_data([1, 2], outcomes=[5.0, 5.0])
        labels = indicator_labels(data, grid_of(4.0, 5.0, 6.0))
        assert_array_equal(labels, [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])

    def test_labels_are_bool(self):
        data = small_data([1, 2, 1], outcomes=[1.0, 2.0, 3.0])
        labels = indicator_labels(data, grid_of(1.5, 2.5))
        assert labels.dtype == np.bool_ and labels.shape == (3, 2)

    def test_boundary_is_closed(self):
        data = small_data([1, 1, 2], outcomes=[1.0, 2.0, 3.0])
        labels = indicator_labels(data, grid_of(2.0))
        assert_array_equal(labels[:, 0], [1.0, 1.0, 0.0])

    def test_below_grid_minimum_gives_all_ones(self):
        data = small_data([1, 2], outcomes=[0.0, 0.0])
        labels = indicator_labels(data, grid_of(1.0, 2.0, 3.0))
        assert_array_equal(labels, np.ones((2, 3)))


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(
    outcomes=st.lists(finite_floats, min_size=2, max_size=40),
    locations=st.lists(finite_floats, min_size=1, max_size=10, unique=True),
)
def test_indicator_rows_nondecreasing(outcomes, locations):
    data = small_data(np.ones(len(outcomes), dtype=np.int64), outcomes=outcomes)
    grid = LocationGrid(locations=np.sort(np.asarray(locations, dtype=float)))
    labels = indicator_labels(data, grid)
    # np.diff of bool values is their inequality, so compare as integers
    assert np.all(np.diff(labels.astype(int), axis=1) >= 0)
    assert set(np.unique(labels)) <= {0.0, 1.0}


@settings(max_examples=50, deadline=None)
@given(
    arms=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=60).filter(
        lambda a: len(set(a)) == max(a)
    )
)
def test_shares_sum_to_one(arms):
    stats = validate_experiment(small_data(arms))
    assert stats.shares.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.counts.sum() == len(arms)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_fits_in_uint32(self):
        assert 0 <= derive_seed(12345, 6, 7) < 2**32


def test_make_experiment_helper_shape():
    data = make_experiment(seed=1, n=30)
    assert data.n_units == 30
    assert data.n_covariates == 3
    assert validate_experiment(data).counts.sum() == 30


def pids(group):
    """A fan-out function: each item with the process that handled it."""
    return [(os.getpid(), item) for item in group]


class TestFanOut:
    """``core._fan_out`` runs contiguous groups on forked processes, one per usable CPU."""

    @staticmethod
    def no_pipe(monkeypatch):
        def failing(*args):
            raise AssertionError("the fan-out forked")

        monkeypatch.setattr(multiprocessing, "get_context", failing)

    @pytest.mark.parametrize(("cpus", "sizes"), [(2, [5, 5]), (3, [3, 3, 4]), (4, [2, 3, 2, 3]), (20, [1] * 10)])
    def test_groups_are_contiguous_and_in_order(self, monkeypatch, cpus, sizes):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        items = list(range(10))
        got = core._fan_out(pids, items)
        assert [item for _, item in got] == items
        # one process per group, none of them this one, each handling a contiguous run
        runs = [[got[0][0], 0]]
        for pid, _ in got[1:]:
            if pid == runs[-1][0]:
                runs[-1][1] += 1
            else:
                runs.append([pid, 0])
        assert [count + 1 for _, count in runs] == sizes
        assert len({pid for pid, _ in runs}) == len(sizes)
        assert os.getpid() not in {pid for pid, _ in runs}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(("cpus", "n_items", "expected"), [(1, 4, 1), (2, 4, 2), (8, 3, 3), (8, 1, 1)])
    def test_one_process_per_cpu_at_most_one_per_item(self, monkeypatch, cpus, n_items, expected):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        assert core._fan_out_processes(n_items) == expected

    @pytest.mark.parametrize(("cpus", "n_items"), [(1, 4), (8, 1)])
    def test_one_process_runs_in_this_one_without_a_pipe(self, monkeypatch, cpus, n_items):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        self.no_pipe(monkeypatch)
        items = list(range(n_items))
        seen = []

        def function(group):
            seen.append(group)
            return pids(group)

        assert core._fan_out(function, items) == [(os.getpid(), item) for item in items]
        assert len(seen) == 1 and seen[0] is items

    def test_a_child_error_keeps_its_type_and_message(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)

        def failing_group(group):
            raise KeyError(f"group starting at {group[0]}")

        with pytest.raises(KeyError) as raised:
            core._fan_out(failing_group, list(range(4)))
        # the first group's error is raised
        assert type(raised.value) is KeyError
        assert raised.value.args == ("group starting at 0",)
        # the child's traceback travels as the cause
        assert isinstance(raised.value.__cause__, RuntimeError)
        assert "failing_group" in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            core._fan_out(lambda group: os._exit(3), list(range(2)))
        assert multiprocessing.active_children() == []

    def test_every_child_is_reaped_when_one_fails(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 3)

        def first_fails(group):
            if group[0] == 0:
                raise ValueError("first group")
            time.sleep(60)
            return group

        start = time.perf_counter()
        with pytest.raises(ValueError, match="first group"):
            core._fan_out(first_fails, list(range(3)))
        # the sleeping children were terminated, not waited for
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    def test_a_forked_process_does_not_fork_again(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        nested = core._fan_out(lambda group: [(os.getpid(), core._fan_out(pids, list(range(4))))], [0, 1])
        for outer, inner in nested:
            assert [pid for pid, _ in inner] == [outer] * 4
        assert not core._forked

    def test_a_process_with_other_threads_does_not_fork(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 4)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            assert core._fan_out_processes(4) == 1
            assert core._fan_out(pids, [0, 1]) == [(os.getpid(), 0), (os.getpid(), 1)]
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert core._fan_out_processes(4) == 4

    def test_no_fork_without_os_fork(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert core._fan_out_processes(4) == 1

    def test_processes_follow_the_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert core._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert core._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert core._usable_cpus() == 1
