import dataclasses
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from dtekit.errors import NonFiniteGradient, NonFiniteValue, ShapeMismatch, SingularDesign, TooFewUnits
import dtekit.core as core
import dtekit.learners as learners
import dtekit.simulation as simulation
from dtekit.learners import (
    DEFAULT_HIDDEN,
    LEARNER_KINDS,
    LearnerKind,
    fit,
    fit_many,
    predict,
)
from dtekit.nn import FlatParams, NetworkState, TrainConfig, bce_loss, forward, init_network, train


def small_nn_kind(kind, **kwargs):
    return LearnerKind(
        kind,
        hidden=(8,),
        train=TrainConfig(epochs=3, batch_size=16, seed=5),
        **kwargs,
    )


@pytest.fixture
def problem():
    rng = np.random.default_rng(31)
    x = rng.random((60, 4))
    y = x.sum(axis=1) + 0.2 * rng.standard_normal(60)
    cuts = np.quantile(y, [0.3, 0.6])
    labels = (y[:, None] <= cuts[None, :]).astype(float)
    return x, labels


def informative_problem():
    """400 rows whose labels hinge on column 1 more than on the other two."""
    rng = np.random.default_rng(47)
    x = rng.random((400, 3))
    y = x[:, 0] + 3.0 * x[:, 1] + x[:, 2] + 0.3 * rng.standard_normal(400)
    cuts = np.quantile(y, [0.25, 0.5, 0.75])
    return x, (y[:, None] <= cuts[None, :]).astype(float)


class TestLearnerKind:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LearnerKind("forest")

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            LearnerKind("linear", ridge=-1.0)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -np.inf, True])
    def test_non_finite_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="ridge"):
            LearnerKind("linear", ridge=ridge)

    @pytest.mark.parametrize("name", LEARNER_KINDS)
    @pytest.mark.parametrize("hidden", [(2.5, True), (4, 2.0), (True,)])
    def test_non_integral_hidden_width_rejected(self, name, hidden):
        with pytest.raises(ValueError, match="hidden widths must be integers"):
            LearnerKind(name, hidden=hidden)

    def test_numpy_integer_hidden_widths_accepted_as_python_ints(self):
        kind = LearnerKind("nn-multi", hidden=(np.int32(6), np.int64(3)))
        assert kind.hidden == (6, 3) and all(type(h) is int for h in kind.hidden)

    def test_zero_hidden_width_rejected_for_networks(self):
        with pytest.raises(ValueError):
            LearnerKind("nn-multi", hidden=(0,))

    @pytest.mark.parametrize("name", ["nn-single", "nn-multi", "nn-multi-monotone"])
    @pytest.mark.parametrize("field, value, message", [
        ("transform", "cube", "transform"), ("squash", "logistic", "squash"), ("hidden", (4, 0), "widths"),
    ])
    def test_network_kinds_check_their_architecture(self, name, field, value, message):
        with pytest.raises(ValueError, match=message):
            LearnerKind(name, **{field: value})

    def test_linear_ignores_network_fields(self):
        # manifests of linear runs replay whatever their network fields hold
        kind = LearnerKind("linear", hidden=(0,), transform="cube", squash="logistic")
        assert kind.hidden == (0,)

    def test_with_seed_only_touches_train_seed(self):
        kind = small_nn_kind("nn-multi")
        seeded = kind.with_seed(99)
        assert seeded.train.seed == 99
        assert seeded.train.epochs == kind.train.epochs
        assert seeded.hidden == kind.hidden

    def test_layer_spec_head_selection(self):
        mono = LearnerKind("nn-multi-monotone", hidden=(6,))
        flat = LearnerKind("nn-multi", hidden=(6,))
        assert mono.layer_spec(4, 3).head == "monotone"
        assert flat.layer_spec(4, 3).head == "sigmoid"
        assert mono.layer_spec(4, 3).widths == (4, 6, 3)

    def test_fields(self):
        # hidden layers are always ReLU, so no field chooses their activation
        names = [f.name for f in dataclasses.fields(LearnerKind)]
        assert names == ["kind", "hidden", "transform", "squash", "ridge", "train"]

    def test_default_hidden(self):
        assert LearnerKind("nn-multi").hidden == DEFAULT_HIDDEN

    def test_all_kinds_constructible(self):
        for name in LEARNER_KINDS:
            assert LearnerKind(name).kind == name


class TestLinear:
    def test_constant_labels_reproduced_exactly(self, problem):
        x, _ = problem
        labels = np.full((x.shape[0], 3), 0.37)
        fitted = fit(LearnerKind("linear", ridge=0.0), x, labels)
        assert_allclose(predict(fitted, x), labels, atol=1e-12)

    def test_constant_labels_with_default_ridge(self, problem):
        x, _ = problem
        labels = np.full((x.shape[0], 2), 0.5)
        fitted = fit(LearnerKind("linear"), x, labels)
        assert_allclose(predict(fitted, x), labels, atol=1e-7)

    def test_exact_linear_relationship_recovered(self, problem):
        x, _ = problem
        labels = x @ np.array([[0.5, -1.0], [0.2, 0.3], [0.0, 1.0], [1.5, 0.1]]) + 0.25
        fitted = fit(LearnerKind("linear", ridge=0.0), x, labels)
        assert_allclose(predict(fitted, x), labels, atol=1e-9)
        new_x = np.random.default_rng(1).random((10, 4))
        expected = new_x @ np.array([[0.5, -1.0], [0.2, 0.3], [0.0, 1.0], [1.5, 0.1]]) + 0.25
        assert_allclose(predict(fitted, new_x), expected, atol=1e-9)

    def test_duplicated_column_needs_ridge(self, problem):
        x, labels = problem
        x_dup = np.hstack([x, x[:, :1]])
        with pytest.raises(SingularDesign):
            fit(LearnerKind("linear", ridge=0.0), x_dup, labels)
        fitted = fit(LearnerKind("linear", ridge=1e-8), x_dup, labels)
        assert np.all(np.isfinite(predict(fitted, x_dup)))

    def test_predictions_are_not_clipped(self, problem):
        x, _ = problem
        labels = (x.sum(axis=1) * 3.0)[:, None]
        fitted = fit(LearnerKind("linear", ridge=0.0), x, labels)
        out = predict(fitted, x)
        assert out.max() > 1.0

    def test_standardization_stats_stored(self, problem):
        x, labels = problem
        fitted = fit(LearnerKind("linear"), x, labels)
        assert_array_equal(fitted.x_mean, x.mean(axis=0))
        assert_array_equal(fitted.x_scale, x.std(axis=0))

    def test_constant_column_scale_falls_back_to_one(self):
        x = np.hstack([np.random.default_rng(0).random((30, 2)), np.full((30, 1), 7.0)])
        fitted = fit(LearnerKind("linear"), x, np.zeros((30, 1)))
        assert fitted.x_scale[2] == 1.0
        assert np.all(np.isfinite(predict(fitted, x)))

    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(-150.0, 150.0), c=st.floats(-5.0, 5.0))
    # a scale below 1e-12 was once replaced by 1.0, which z-scored the column
    # to about 0 and moved these predictions by 0.71 at a = 1e-13
    @example(u=-13.0, c=0.0)
    @example(u=-150.0, c=5.0)
    @example(u=150.0, c=-5.0)
    def test_affine_map_of_a_column_leaves_predictions(self, u, c):
        # z-scoring undoes x -> a*x + a*c for any a whose scale neither overflows nor underflows
        x, labels = informative_problem()
        want = predict(fit(LearnerKind("linear"), x, labels), x)
        a = 10.0 ** u
        mapped = x.copy()
        mapped[:, 1] = a * x[:, 1] + a * c
        got = predict(fit(LearnerKind("linear"), mapped, labels), mapped)
        assert_allclose(got, want, rtol=0.0, atol=1e-9)


class TestNetworkLearners:
    @pytest.mark.parametrize("name", ["nn-single", "nn-multi", "nn-multi-monotone"])
    def test_predictions_in_unit_interval(self, problem, name):
        x, labels = problem
        fitted = fit(small_nn_kind(name), x, labels)
        out = predict(fitted, x)
        assert out.shape == labels.shape
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_monotone_rows_nondecreasing(self, problem):
        x, labels = problem
        fitted = fit(small_nn_kind("nn-multi-monotone"), x, labels)
        out = predict(fitted, np.random.default_rng(3).random((25, 4)))
        assert np.all(np.diff(out, axis=1) >= 0.0)

    @pytest.mark.parametrize("name", ["linear", "nn-single", "nn-multi", "nn-multi-monotone"])
    def test_fit_is_deterministic(self, problem, name):
        x, labels = problem
        kind = LearnerKind("linear") if name == "linear" else small_nn_kind(name)
        first = predict(fit(kind, x, labels), x)
        second = predict(fit(kind, x, labels), x)
        assert_array_equal(first, second)

    def test_training_beats_initialization(self, problem):
        x, labels = problem
        kind = LearnerKind(
            "nn-multi", hidden=(8,), train=TrainConfig(epochs=10, seed=2)
        )
        fitted = fit(kind, x, labels)
        xs = (x - fitted.x_mean) / fitted.x_scale
        spec = kind.layer_spec(4, labels.shape[1])
        initial = init_network(spec, seed=kind.train.seed)
        assert bce_loss(predict(fitted, x), labels) < bce_loss(
            forward(initial, spec, xs), labels
        )

    def test_column_with_a_tiny_spread_keeps_its_scale(self, problem):
        x, labels = problem
        x = x * np.array([1.0, 1.0, 1e-13, 1.0])
        fitted = fit(small_nn_kind("nn-multi-monotone"), x, labels)
        assert_array_equal(fitted.x_scale, x.std(axis=0))

    def test_single_and_multi_share_architecture_at_one_output(self):
        single = small_nn_kind("nn-single").layer_spec(4, 1)
        multi = small_nn_kind("nn-multi").layer_spec(4, 1)
        assert single == multi

    def test_single_networks_have_one_state_per_column(self, problem):
        x, labels = problem
        fitted = fit(small_nn_kind("nn-single"), x, labels)
        assert len(fitted.states) == labels.shape[1]
        assert len(fit(small_nn_kind("nn-multi"), x, labels).states) == 1

    def test_single_networks_match_per_column_training(self, problem):
        x, labels = problem
        labels = np.hstack([labels, 1.0 - labels[:, :1]])
        kind = small_nn_kind("nn-single")
        fitted = fit(kind, x, labels)
        xs = (x - fitted.x_mean) / fitted.x_scale
        spec = kind.layer_spec(x.shape[1], 1)
        seeds = np.random.SeedSequence(kind.train.seed).generate_state(labels.shape[1])
        assert len(fitted.states) == labels.shape[1]
        for j, state in enumerate(fitted.states):
            assert isinstance(state, NetworkState)
            want = train(xs, labels[:, j:j + 1], spec, replace(kind.train, seed=int(seeds[j])))
            for got_w, want_w in zip(state.weights + state.biases, want.weights + want.biases):
                assert_array_equal(got_w, want_w)
        columns = [forward(state, spec, xs) for state in fitted.states]
        assert_array_equal(predict(fitted, x), np.hstack(columns))


def ragged_problems(n_problems=3, n_outputs=2):
    rng = np.random.default_rng(23)
    problems = []
    for n in (41, 58, 17, 58)[:n_problems]:
        x = rng.random((n, 4))
        y = x.sum(axis=1) + 0.2 * rng.standard_normal(n)
        cuts = np.quantile(y, np.linspace(0.3, 0.7, n_outputs))
        problems.append((x, (y[:, None] <= cuts[None, :]).astype(float)))
    return [x for x, _ in problems], [y for _, y in problems]


def assert_same_learners(got, want):
    assert got.kind == want.kind
    assert_array_equal(got.x_mean, want.x_mean)
    assert_array_equal(got.x_scale, want.x_scale)
    assert len(got.states) == len(want.states)
    for got_state, want_state in zip(got.states, want.states):
        for a, b in zip(got_state.weights + got_state.biases, want_state.weights + want_state.biases):
            assert a.tobytes() == b.tobytes()


def counted_train_many(monkeypatch):
    """Record the number of networks of every ``train_many`` call ``fit_many`` makes.

    The fits stay in-process: a count made in a forked process never reaches this one.
    """
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    calls = []
    train_many = learners.train_many

    def counting(xs, labels, spec, config, seeds):
        calls.append(len(seeds))
        return train_many(xs, labels, spec, config, seeds)

    monkeypatch.setattr(learners, "train_many", counting)
    return calls


def _array_bytes(value) -> int:
    """Bytes of every array reachable through dataclass fields and tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if dataclasses.is_dataclass(value):
        return sum(_array_bytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return sum(_array_bytes(item) for item in value)
    return 0


class TestFittedMemory:
    """A fitted network learner holds its parameters and scaling, nothing else."""

    def test_network_state_holds_parameters_only(self):
        assert tuple(f.name for f in dataclasses.fields(NetworkState)) == ("weights", "biases")

    @pytest.mark.parametrize("name, n_networks, n_outputs", [("nn-single", 2, 1), ("nn-multi-monotone", 1, 2)])
    def test_array_bytes_are_parameters_and_scaling(self, problem, name, n_networks, n_outputs):
        x, labels = problem
        kind = small_nn_kind(name)
        fitted = fit(kind, x, labels)
        n_params = n_networks * FlatParams(kind.layer_spec(x.shape[1], n_outputs)).flat.size
        assert len(fitted.states) == n_networks
        assert _array_bytes(fitted) == 8 * n_params + fitted.x_mean.nbytes + fitted.x_scale.nbytes


class TestFitMany:
    @pytest.mark.parametrize("name", LEARNER_KINDS)
    def test_equals_fit_per_problem_bit_for_bit(self, name):
        xs, labels = ragged_problems()
        kind, seeds = small_nn_kind(name), (3, 1, 4)
        for seed, x, y, got in zip(seeds, xs, labels, fit_many(kind, xs, labels, seeds)):
            want = fit(kind.with_seed(seed), x, y)
            assert got.kind == kind.with_seed(seed)
            assert_same_learners(got, want)
            assert_array_equal(predict(got, xs[0]), predict(want, xs[0]))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4),
        d=st.integers(min_value=1, max_value=4),
        n_outputs=st.integers(min_value=1, max_value=4),
        ridge=st.sampled_from([0.0, 1e-8, 0.5]),
    )
    def test_linear_equals_fit_per_problem_on_random_designs(self, seed, rows, d, n_outputs, ridge):
        rng = np.random.default_rng(seed)
        xs = [rng.standard_normal((d + 2 + extra, d)) for extra in rows]
        labels = [(rng.random((x.shape[0], n_outputs)) < 0.5).astype(float) for x in xs]
        kind = LearnerKind("linear", ridge=ridge)
        for seed, x, y, got in zip(range(len(xs)), xs, labels, fit_many(kind, xs, labels, range(len(xs)))):
            want = fit(kind.with_seed(seed), x, y)
            assert_array_equal(got.x_mean, want.x_mean)
            assert_array_equal(got.x_scale, want.x_scale)
            assert_array_equal(got.coef, want.coef)
            assert_array_equal(predict(got, xs[0]), predict(want, xs[0]))

    @pytest.mark.parametrize(("name", "expected"), [
        ("nn-multi", [3]), ("nn-multi-monotone", [3]), ("nn-single", [6]), ("linear", []),
    ])
    def test_train_many_calls(self, monkeypatch, name, expected):
        calls = counted_train_many(monkeypatch)
        xs, labels = ragged_problems()
        assert len(list(fit_many(small_nn_kind(name), xs, labels, range(3)))) == 3
        assert calls == expected

    def test_linear_reads_and_fits_one_problem_at_a_time(self):
        xs, labels = ragged_problems(2)
        read = []

        def reading(arrays):
            for i, array in enumerate(arrays):
                read.append(i)
                yield array

        fitted = fit_many(LearnerKind("linear"), reading(xs), labels, range(2))
        assert read == []
        next(fitted)
        assert read == [0]
        next(fitted)
        assert read == [0, 1]

    @pytest.mark.parametrize("name", LEARNER_KINDS)
    @pytest.mark.parametrize("seeds", [[1, 2.5], [1, True], [1, -2]])
    def test_seeds_are_non_negative_integers(self, monkeypatch, name, seeds):
        calls = counted_train_many(monkeypatch)
        xs, labels = ragged_problems(2)
        with pytest.raises(ValueError, match=f"seeds must be a non-negative integer, got {seeds[1]!r}"):
            list(fit_many(small_nn_kind(name), xs, labels, seeds))
        assert calls == []

    def test_every_problem_is_checked_before_training(self, monkeypatch):
        calls = counted_train_many(monkeypatch)
        xs, labels = ragged_problems(2)
        kind = small_nn_kind("nn-multi")
        with pytest.raises(TooFewUnits):
            fit_many(kind, [xs[0], xs[1][:1]], [labels[0], labels[1][:1]], range(2))
        with pytest.raises(ShapeMismatch):
            fit_many(kind, [xs[0], xs[1][:, :3]], labels, range(2))
        with pytest.raises(ShapeMismatch):
            fit_many(kind, xs, [labels[0], labels[1][:, :1]], range(2))
        assert calls == []

    def test_needs_one_input_and_label_array_per_seed(self):
        xs, labels = ragged_problems(2)
        with pytest.raises(ValueError):
            fit_many(small_nn_kind("nn-multi"), [], [], [])
        with pytest.raises(ValueError):
            fit_many(small_nn_kind("nn-multi"), xs, labels, [0])
        # the one-at-a-time kinds find out when they run out of problems
        with pytest.raises(ValueError):
            list(fit_many(LearnerKind("linear"), xs, labels, [0]))


class TestFanOut:
    """Network problems fit on one forked process per usable CPU, at most one per problem."""

    @staticmethod
    def no_fork(monkeypatch, cpus=4):
        """Offer ``cpus`` CPUs, and fail any fit that would fork."""
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)

        def forked(*args):
            raise AssertionError("a fit forked")

        monkeypatch.setattr(multiprocessing, "get_context", forked)

    @pytest.mark.parametrize("name", ["nn-single", "nn-multi", "nn-multi-monotone"])
    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_equals_in_process_bit_for_bit(self, monkeypatch, name, cpus):
        xs, labels = ragged_problems(4)
        kind, seeds = small_nn_kind(name), (3, 1, 4, 1)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        want = list(fit_many(kind, xs, labels, seeds))
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        assert core._fan_out_processes(4) == min(cpus, 4)
        got = list(fit_many(kind, xs, labels, seeds))
        assert len(got) == 4
        for g, w in zip(got, want):
            assert_same_learners(g, w)
            # unpickled through the constructor, so frozen again
            assert all(not a.flags.writeable for state in g.states for a in state.weights + state.biases)
        assert multiprocessing.active_children() == []

    def test_a_child_error_is_raised_with_its_type_and_message(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        parent = os.getpid()
        train_many = learners.train_many

        def failing_in_a_child(xs, labels, spec, config, seeds):
            # inherited by the forked fit processes
            if os.getpid() != parent:
                raise NonFiniteGradient(f"gradient of {len(seeds)} networks is not finite")
            return train_many(xs, labels, spec, config, seeds)

        monkeypatch.setattr(learners, "train_many", failing_in_a_child)
        xs, labels = ragged_problems(3)
        with pytest.raises(NonFiniteGradient) as raised:
            fit_many(small_nn_kind("nn-multi"), xs, labels, range(3))
        # problems 0:1 and 1:3 go to the two processes; the first group's error is raised
        assert type(raised.value) is NonFiniteGradient
        assert str(raised.value) == "gradient of 1 networks is not finite"
        # the child's traceback travels as the cause
        assert "failing_in_a_child" in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_a_process_that_dies_is_an_error(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(learners, "_fit_stacked", lambda kind, problems: os._exit(3))
        xs, labels = ragged_problems(2)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            fit_many(small_nn_kind("nn-multi"), xs, labels, range(2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_nn_single_trains_every_problem_before_it_yields(self, monkeypatch, cpus):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        xs, labels = ragged_problems(2)
        read = []

        def reading(arrays):
            for i, array in enumerate(arrays):
                read.append(i)
                yield array

        fit_many(small_nn_kind("nn-single"), reading(xs), labels, range(2))
        assert read == [0, 1]

    @pytest.mark.parametrize("name", ["nn-single", "nn-multi-monotone"])
    def test_fit_never_forks(self, monkeypatch, problem, name):
        self.no_fork(monkeypatch)
        x, labels = problem
        assert fit(small_nn_kind(name), x, labels).n_outputs == 2

    def test_linear_never_forks(self, monkeypatch):
        self.no_fork(monkeypatch)
        xs, labels = ragged_problems(4)
        assert len(list(fit_many(LearnerKind("linear"), xs, labels, range(4)))) == 4

    def test_replication_workers_fit_in_process(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 4)
        parent = os.getpid()
        forks = []
        get_context = multiprocessing.get_context

        def recording(method=None):
            # inherited by the forked replications; a fork in one fails the study
            if os.getpid() != parent:
                raise AssertionError("a replication's fit forked")
            forks.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", recording)
        config = simulation.DgpConfig(n_units=60, seed=5)
        methods = {"nn-multi": LearnerKind("nn-multi", hidden=(4,), train=TrainConfig(epochs=1))}
        study = dict(probs=(0.3, 0.7), n_oracle=2_000)
        report = simulation.run_study(config, methods, n_reps=2, **study)
        assert report.n_reps == 2
        # the replications fanned out once; their fits stayed in their processes
        assert forks == ["fork"]
        assert multiprocessing.active_children() == []
        # one replication runs in this process, and its fits fan out
        forks.clear()
        simulation.run_study(config, methods, n_reps=1, **study)
        assert forks == ["fork"]


class TestInputValidation:
    def test_one_row_rejected(self):
        with pytest.raises(TooFewUnits):
            fit(LearnerKind("linear"), np.ones((1, 3)), np.ones((1, 2)))

    def test_flat_x_rejected(self):
        with pytest.raises(ShapeMismatch):
            fit(LearnerKind("linear"), np.ones(5), np.ones((5, 1)))

    @pytest.mark.parametrize("name", LEARNER_KINDS)
    def test_flat_labels_rejected(self, name):
        with pytest.raises(ShapeMismatch, match="labels must be 2-dimensional"):
            fit(small_nn_kind(name), np.ones((5, 2)), np.ones(5))

    @pytest.mark.parametrize("name", LEARNER_KINDS)
    def test_nonfinite_labels(self, name):
        labels = np.ones((5, 1))
        labels[3, 0] = np.nan
        with pytest.raises(NonFiniteValue, match="training labels"):
            fit(small_nn_kind(name), np.ones((5, 2)), labels)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fit(LearnerKind("linear"), np.ones((5, 2)), np.ones((4, 1)))

    def test_nonfinite_covariates(self):
        x = np.ones((5, 2))
        x[0, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            fit(LearnerKind("linear"), x, np.ones((5, 1)))

    @pytest.mark.parametrize("kind", [LearnerKind("linear"), small_nn_kind("nn-multi-monotone")], ids=lambda k: k.kind)
    def test_overflowing_covariate_scale_is_named(self, problem, kind):
        # the std of a column near 1e200 overflows; an infinite scale would
        # z-score the column to 0 and the learner would drop it unnoticed
        x, labels = problem
        x = x * np.array([1.0, 1.0, 1e200, 1.0])
        with pytest.raises(NonFiniteValue, match="covariate column 2"):
            fit(kind, x, labels)

    @pytest.mark.parametrize("kind", [LearnerKind("linear"), small_nn_kind("nn-multi-monotone")], ids=lambda k: k.kind)
    def test_underflowing_covariate_scale_is_named(self, problem, kind):
        # the squared deviations of a column near 1e-300 underflow to 0, so
        # its std is 0 although the column varies
        x, labels = problem
        x = x * np.array([1.0, 1.0, 1e-300, 1.0])
        with pytest.raises(NonFiniteValue, match="covariate column 2"):
            fit(kind, x, labels)

    def test_predict_wrong_width(self, problem):
        x, labels = problem
        fitted = fit(LearnerKind("linear"), x, labels)
        with pytest.raises(ShapeMismatch):
            predict(fitted, np.ones((3, 5)))

    def test_predict_nonfinite(self, problem):
        x, labels = problem
        fitted = fit(LearnerKind("linear"), x, labels)
        bad = np.ones((3, 4))
        bad[1, 2] = np.inf
        with pytest.raises(NonFiniteValue):
            predict(fitted, bad)

