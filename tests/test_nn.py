import contextlib
import dataclasses
import inspect
import math
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

import dtekit.nn as nn
from dtekit.errors import NonFiniteGradient, ShapeMismatch
from dtekit.nn import (
    FlatParams,
    LayerSpec,
    NetworkState,
    TrainConfig,
    adam_step,
    backward,
    bce_loss,
    forward,
    init_network,
    train,
    train_many,
)

# arctan(2) / (pi / 2) and tanh-half values at the all-zero parameter point
ZERO_STATE_EXP_ARCTAN = (0.5, 0.7048327646991335)
ZERO_STATE_SOFTPLUS_TANH = (1.0 / 3.0, 0.6)
LN2 = 0.6931471805599453


def spec_of(widths, head="sigmoid", **kwargs):
    return LayerSpec(widths=tuple(widths), head=head, **kwargs)


def zero_state(spec):
    """All-zero parameters; handy for fixed-point checks."""
    zeros = FlatParams(spec)
    return NetworkState(zeros.weights, zeros.biases)


@contextlib.contextmanager
def watched_adam():
    """Record what training hands ``nn.adam_step``.

    ``steps`` collects each call's step counts, one per network.
    ``m`` and ``v`` end as the whole moment buffers the calls update, one row
    per network in stacking order, as training left them; the trained states
    keep no moments.
    """
    seen = types.SimpleNamespace(steps=[], m=None, v=None)
    adam = nn.adam_step

    def watched(params, grad, m, v, step, *args, **kwargs):
        seen.steps.append(np.asarray(step).tolist())
        # each call updates a run of rows, a view of the stacked buffer
        seen.m = m if m.base is None else m.base
        seen.v = v if v.base is None else v.base
        return adam(params, grad, m, v, step, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "adam_step", watched)
        yield seen


def trained_with_adam_record(x, labels, spec, config):
    """``train`` on one network, with what it handed ``nn.adam_step``; ``steps`` holds its counts."""
    with watched_adam() as seen:
        state = train(x, labels, spec, config)
    seen.steps = [step for (step,) in seen.steps]
    return state, seen


# one spec per head, hidden activation, transform and squash
ENGINE_SPECS = [
    spec_of((4, 16, 8, 1)),
    spec_of((4, 9, 3), hidden_activation="sigmoid"),
    spec_of((4, 16, 8, 5), head="monotone", transform="exp", squash="arctan"),
    spec_of((4, 9, 5), head="monotone", transform="softplus", squash="tanh-half",
            hidden_activation="sigmoid"),
]
ENGINE_SPEC_IDS = ["sigmoid-relu", "sigmoid-sigmoid", "monotone-exp-arctan", "monotone-softplus-tanh"]


class TestLayerSpec:
    def test_input_output_widths(self):
        spec = spec_of((4, 8, 3))
        assert spec.n_inputs == 4
        assert spec.n_outputs == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"widths": (4,)},
            {"widths": (4, 0, 2)},
            {"widths": (4, 2), "hidden_activation": "gelu"},
            {"widths": (4, 2), "head": "softmax"},
            {"widths": (4, 2), "transform": "square"},
            {"widths": (4, 2), "squash": "logistic"},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LayerSpec(**kwargs)

    @pytest.mark.parametrize("widths", [(3.9, 2, True), (4, 2.0), (4, True), (4, "2"), (np.float64(4.0), 2)])
    def test_non_integral_widths_rejected(self, widths):
        with pytest.raises(ValueError, match="layer widths must be integers"):
            LayerSpec(widths=widths)

    def test_numpy_integer_widths_accepted_as_python_ints(self):
        spec = LayerSpec(widths=(np.int64(4), np.uint8(3), 1))
        assert spec.widths == (4, 3, 1) and all(type(w) is int for w in spec.widths)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"learning_rate": np.inf},
            {"learning_rate": True},
            {"batch_size": 16.5},
            {"batch_size": 16.0},
            {"batch_size": True},
            {"epochs": 2.5},
            {"epochs": True},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": False},
            {"precision": "float16"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        # the message names the rejected field
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TrainConfig(**kwargs)

    def test_fields_are_what_a_run_sets(self):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        assert names == ["learning_rate", "batch_size", "epochs", "seed", "precision"]

    @pytest.mark.parametrize("precision", nn.PRECISIONS)
    def test_optimizer_constants_survive_the_precision(self, precision):
        dtype = np.dtype(precision).type
        assert 0.0 <= nn._BETA1 < 1.0 and 0.0 <= nn._BETA2 < 1.0
        assert 0.0 < nn._CLIP_EPS < 0.5
        # backward compares predictions with 1 - eps in the training dtype;
        # if that rounded to 1, the upper clamp would silently disappear
        assert dtype(1.0 - nn._CLIP_EPS) < 1.0
        # Adam divides by sqrt(v) + eps, and v stays 0 where every gradient was 0
        assert np.isfinite(nn._ADAM_EPS) and dtype(nn._ADAM_EPS) > 0.0

    def test_numpy_integers_are_accepted(self):
        config = TrainConfig(batch_size=np.int64(4), epochs=np.int32(2), seed=np.uint32(7))
        _, seen = trained_with_adam_record(np.ones((6, 2)), np.ones((6, 1)), spec_of((2, 3, 1)), config)
        assert seen.steps == [1, 2, 3, 4]

    def test_default_precision_is_float32(self):
        assert TrainConfig().precision == "float32"
        assert TrainConfig().dtype == np.float32


class TestFlatParams:
    def test_views_follow_init_draw_order(self):
        spec = spec_of((3, 4, 2))
        params = FlatParams(spec)
        assert params.flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        params.flat[:] = np.arange(params.flat.size)
        assert_array_equal(params.weights[0], np.arange(12).reshape(3, 4))
        assert_array_equal(params.biases[0], np.arange(12, 16))
        assert_array_equal(params.weights[1], np.arange(16, 24).reshape(4, 2))
        assert_array_equal(params.biases[1], np.arange(24, 26))

    def test_init_draws_match_per_array_glorot(self):
        spec = spec_of((5, 7, 3))
        state = init_network(spec, seed=4)
        rng = np.random.default_rng(4)
        for w, (fan_in, fan_out) in zip(state.weights, [(5, 7), (7, 3)]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert_array_equal(w, rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        for b in state.biases:
            assert_array_equal(b, np.zeros_like(b))


def _state_arrays(state):
    return [*state.weights, *state.biases]


class TestNetworkState:
    def test_caller_arrays_stay_writable(self):
        w, b = np.zeros((2, 1)), np.zeros(1)
        state = NetworkState((w,), (b,))
        assert w.flags.writeable and b.flags.writeable
        w[0, 0] = 3.0
        assert state.weights[0][0, 0] == 0.0

    def test_trained_state_owns_frozen_arrays(self):
        rng = np.random.default_rng(5)
        state = train(rng.standard_normal((12, 2)), np.ones((12, 2)), spec_of((2, 3, 2)),
                      TrainConfig(epochs=2, batch_size=4))
        for a in _state_arrays(state):
            assert a.flags.owndata and a.base is None
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_pickle_round_trip_stays_frozen(self):
        rng = np.random.default_rng(6)
        state = train(rng.standard_normal((12, 2)), np.ones((12, 2)), spec_of((2, 3, 2)),
                      TrainConfig(epochs=1, batch_size=4))
        copy = pickle.loads(pickle.dumps(state))
        assert type(copy) is NetworkState
        for got, want in zip(_state_arrays(copy), _state_arrays(state)):
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
            assert not got.flags.writeable


class TestForward:
    def test_zero_state_sigmoid_head_is_half(self):
        spec = spec_of((3, 4, 2))
        out = forward(zero_state(spec), spec, np.random.default_rng(0).random((5, 3)))
        assert_array_equal(out, np.full((5, 2), 0.5))

    def test_zero_state_monotone_exp_arctan(self):
        spec = spec_of((3, 2), head="monotone", transform="exp", squash="arctan")
        out = forward(zero_state(spec), spec, np.zeros((1, 3)))
        assert_allclose(out[0], ZERO_STATE_EXP_ARCTAN, rtol=1e-15)

    def test_zero_state_monotone_softplus_tanh(self):
        spec = spec_of((3, 2), head="monotone", transform="softplus", squash="tanh-half")
        out = forward(zero_state(spec), spec, np.zeros((1, 3)))
        assert_allclose(out[0], ZERO_STATE_SOFTPLUS_TANH, rtol=1e-14)

    def test_monotone_rows_nondecreasing(self):
        spec = spec_of((4, 6, 5), head="monotone")
        state = init_network(spec, seed=3)
        out = forward(state, spec, np.random.default_rng(1).standard_normal((40, 4)) * 3.0)
        assert np.all(np.diff(out, axis=1) >= 0.0)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_wrong_input_width(self):
        spec = spec_of((3, 2))
        with pytest.raises(ShapeMismatch):
            forward(zero_state(spec), spec, np.zeros((2, 4)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    x_seed=st.integers(min_value=0, max_value=2**32 - 1),
    transform=st.sampled_from(["exp", "softplus"]),
    squash=st.sampled_from(["arctan", "tanh-half"]),
)
def test_monotone_head_property(seed, x_seed, transform, squash):
    spec = spec_of((3, 5, 4), head="monotone", transform=transform, squash=squash)
    state = init_network(spec, seed=seed)
    x = np.random.default_rng(x_seed).standard_normal((20, 3)) * 4.0
    out = forward(state, spec, x)
    assert np.all(np.diff(out, axis=1) >= 0.0)


class TestBceLoss:
    def test_half_prediction_gives_ln_two(self):
        assert bce_loss(np.full((4, 2), 0.5), np.array([[0, 1], [1, 0], [1, 1], [0, 0]], dtype=float)) == pytest.approx(LN2, rel=1e-15)

    def test_single_entry_anchor(self):
        # -log(0.8)
        assert bce_loss(np.array([[0.8]]), np.array([[1.0]])) == pytest.approx(
            0.2231435513142097, rel=1e-15
        )

    def test_perfect_prediction_costs_about_clip(self):
        loss = bce_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert 0.0 < loss < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def _with_param(state, which, layer, index, delta):
    ws = [w.copy() for w in state.weights]
    bs = [b.copy() for b in state.biases]
    target = ws if which == "w" else bs
    target[layer][index] += delta
    return NetworkState(tuple(ws), tuple(bs))


def finite_difference_grads(state, spec, x, target, h=1e-6):
    """Central-difference loss gradients, the oracle for backward()."""

    def loss_at(st_):
        return bce_loss(forward(st_, spec, x), target)

    grad_w, grad_b = [], []
    for layer, w in enumerate(state.weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            up = loss_at(_with_param(state, "w", layer, idx, h))
            down = loss_at(_with_param(state, "w", layer, idx, -h))
            g[idx] = (up - down) / (2.0 * h)
        grad_w.append(g)
    for layer, b in enumerate(state.biases):
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            up = loss_at(_with_param(state, "b", layer, idx, h))
            down = loss_at(_with_param(state, "b", layer, idx, -h))
            g[idx] = (up - down) / (2.0 * h)
        grad_b.append(g)
    approx = FlatParams(spec)
    for dst, src in zip((*approx.weights, *approx.biases), (*grad_w, *grad_b)):
        dst[...] = src
    return approx


def max_grad_mismatch(exact, approx):
    worst = 0.0
    for ga, gb in zip(
        (*exact.weights, *exact.biases), (*approx.weights, *approx.biases)
    ):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gb)), 1e-6)
        worst = max(worst, float(np.max(np.abs(ga - gb) / denom)))
    return worst


class TestBackward:
    def test_single_sample_sigmoid_gradient(self):
        # no hidden layer: dL/dw = (p - t) x with p = 0.5 at the zero state
        spec = spec_of((3, 1))
        state = zero_state(spec)
        x = np.array([[0.2, -1.0, 3.0]])
        grads = backward(state, spec, x, np.array([[1.0]]))
        assert_allclose(grads.weights[0][:, 0], -0.5 * x[0], rtol=1e-15)
        assert_allclose(grads.biases[0], [-0.5], rtol=1e-15)

    @pytest.mark.parametrize("hidden_activation", ["relu", "sigmoid"])
    def test_sigmoid_head_matches_finite_differences(self, hidden_activation):
        spec = spec_of((3, 5, 2), hidden_activation=hidden_activation)
        state = init_network(spec, seed=11)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 3))
        target = rng.integers(0, 2, size=(7, 2)).astype(float)
        exact = backward(state, spec, x, target)
        approx = finite_difference_grads(state, spec, x, target)
        assert max_grad_mismatch(exact, approx) < 1e-4

    @pytest.mark.parametrize("transform", ["exp", "softplus"])
    @pytest.mark.parametrize("squash", ["arctan", "tanh-half"])
    def test_monotone_head_matches_finite_differences(self, transform, squash):
        spec = spec_of(
            (2, 4, 3), head="monotone", transform=transform, squash=squash,
            hidden_activation="sigmoid",
        )
        state = init_network(spec, seed=7)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 2))
        target = (rng.random((6, 3)) < 0.5).astype(float)
        exact = backward(state, spec, x, target)
        approx = finite_difference_grads(state, spec, x, target)
        assert max_grad_mismatch(exact, approx) < 1e-4

    def test_saturated_outputs_get_zero_gradient(self):
        spec = spec_of((2, 1))
        state = NetworkState(zero_state(spec).weights, (np.array([40.0]),))
        grads = backward(state, spec, np.ones((3, 2)), np.zeros((3, 1)))
        assert_array_equal(grads.weights[0], np.zeros((2, 1)))
        assert_array_equal(grads.biases[0], np.zeros(1))

    def test_target_shape_mismatch(self):
        spec = spec_of((2, 1))
        with pytest.raises(ShapeMismatch):
            backward(zero_state(spec), spec, np.zeros((3, 2)), np.zeros((3, 2)))

    def test_writes_into_the_given_buffer(self):
        spec = spec_of((3, 4, 2), head="monotone")
        state = init_network(spec, seed=2)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 3))
        target = np.sort((rng.random((5, 2)) < 0.5).astype(float), axis=1)
        buffer = FlatParams(spec)
        buffer.flat[:] = np.nan
        assert backward(state, spec, x, target, out=buffer) is buffer
        assert_array_equal(buffer.flat, backward(state, spec, x, target).flat)

    def test_exp_overflow_gives_zero_gradient_not_nan(self):
        # exp(800) overflows: every output saturates to 1 and used to give 0 * inf
        spec = spec_of((2, 3), head="monotone", transform="exp")
        params = FlatParams(spec)
        params.biases[0][0] = 800.0
        with np.errstate(over="ignore"):
            grads = backward(params, spec, np.ones((4, 2)), np.zeros((4, 3)))
        assert_array_equal(grads.flat, np.zeros_like(grads.flat))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=1.0, max_value=1e3),
    transform=st.sampled_from(["exp", "softplus"]),
    squash=st.sampled_from(["arctan", "tanh-half"]),
    hidden_activation=st.sampled_from(["relu", "sigmoid"]),
    precision=st.sampled_from(nn.PRECISIONS),
)
def test_backward_is_finite_on_extreme_monotone_states(seed, scale, transform, squash, hidden_activation,
                                                       precision):
    spec = spec_of(
        (3, 6, 5), head="monotone", transform=transform, squash=squash,
        hidden_activation=hidden_activation,
    )
    rng = np.random.default_rng(seed)
    params = FlatParams(spec, dtype=precision)
    params.flat[:] = rng.uniform(-scale, scale, size=params.flat.size)
    x = rng.standard_normal((16, 3)).astype(precision)
    target = np.sort((rng.random((16, 5)) < 0.5).astype(float), axis=1)
    with np.errstate(over="ignore"):
        grads = backward(params, spec, x, target)
    assert grads.flat.dtype == precision
    assert np.isfinite(grads.flat).all()


@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=ENGINE_SPEC_IDS)
def test_float32_backward_agrees_with_float64(spec):
    # float32 keeps ~7 significant digits. Over 50 seeds of these specs the
    # worst gap was 4e-7 of the largest gradient entry; the bound is 1e-5
    state = init_network(spec, seed=13)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((32, 4))
    target = _monotone_labels(rng, 32, spec.n_outputs)
    params64 = FlatParams(spec)
    for dst, src in zip((*params64.weights, *params64.biases), (*state.weights, *state.biases)):
        dst[...] = src
    params32 = FlatParams(spec, flat=params64.flat.astype(np.float32))
    want = backward(params64, spec, x, target)
    got = backward(params32, spec, x, target)
    assert got.flat.dtype == np.float32 and want.flat.dtype == np.float64
    assert np.max(np.abs(got.flat - want.flat)) <= 1e-5 * np.max(np.abs(want.flat))


class TestAdamStep:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        spec = spec_of((2, 3, 1))
        params = FlatParams(spec)
        params.flat[:] = np.random.default_rng(0).standard_normal(params.flat.size)
        before = params.flat.copy()
        m, v = np.zeros_like(before), np.zeros_like(before)
        adam_step(params.flat, np.zeros_like(before), m, v, 1, TrainConfig())
        assert_array_equal(params.flat, before)
        assert_array_equal(m, 0.0)
        assert_array_equal(v, 0.0)

    def test_first_step_is_signed_learning_rate(self):
        # with constant gradient g the bias-corrected first update is
        # lr * g / (|g| + adam_eps), which is lr * sign(g) for |g| >> eps
        params, m, v = np.zeros(2), np.zeros(2), np.zeros(2)
        adam_step(params, np.array([0.25, -0.75]), m, v, 1, TrainConfig(learning_rate=0.01))
        assert params[0] == pytest.approx(-0.01, rel=1e-6)
        assert params[1] == pytest.approx(0.01, rel=1e-6)

    def test_constant_gradient_trajectory_matches_scalar_simulation(self):
        config = TrainConfig(learning_rate=0.05)
        g = 0.3
        params, m_flat, v_flat = np.zeros(2), np.zeros(2), np.zeros(2)
        grad = np.array([g, 0.0])

        p = m = v = 0.0
        for t in range(1, 8):
            adam_step(params, grad, m_flat, v_flat, t, config)
            m = nn._BETA1 * m + (1.0 - nn._BETA1) * g
            v = nn._BETA2 * v + (1.0 - nn._BETA2) * g * g
            m_hat = m / (1.0 - nn._BETA1 ** t)
            v_hat = v / (1.0 - nn._BETA2 ** t)
            p = p - config.learning_rate * m_hat / (math.sqrt(v_hat) + nn._ADAM_EPS)
            assert params[0] == pytest.approx(p, rel=1e-12)
        assert params[1] == 0.0

    def test_nonfinite_gradient_rejected(self):
        params, m, v = np.ones(2), np.full(2, 0.5), np.full(2, 0.25)
        with pytest.raises(NonFiniteGradient):
            adam_step(params, np.array([np.nan, 0.0]), m, v, 1, TrainConfig())
        assert_array_equal(params, 1.0)
        assert_array_equal(m, 0.5)
        assert_array_equal(v, 0.25)

    @pytest.mark.parametrize("precision", nn.PRECISIONS)
    def test_per_network_steps_equal_per_row_scalar_calls(self, precision):
        rng = np.random.default_rng(8)
        config = TrainConfig(learning_rate=0.03, precision=precision)
        steps = [1, 4, 4, 17, 250]
        params, m = rng.standard_normal((2, 5, 9)).astype(precision)
        # small parameters, so the last bit of each update reaches them
        params *= 1e-3
        v = rng.random((5, 9)).astype(precision)
        grad = rng.standard_normal((5, 9)).astype(precision)
        grad[1, :3] = 0.0
        rows = [(params[s].copy(), m[s].copy(), v[s].copy()) for s in range(5)]
        adam_step(params, grad, m, v, np.array(steps), config)
        for s, (p_s, m_s, v_s) in enumerate(rows):
            adam_step(p_s, grad[s], m_s, v_s, steps[s], config)
            assert_array_equal(params[s], p_s)
            assert_array_equal(m[s], m_s)
            assert_array_equal(v[s], v_s)

    def test_per_network_steps_need_one_count_per_row(self):
        params = np.zeros((3, 4))
        with pytest.raises(ShapeMismatch):
            adam_step(params, params, params.copy(), params.copy(), [1, 2], TrainConfig())


def _reference_backward(weights, biases, spec, x, target):
    """Per-array backward pass written out from the formulas, one array per layer."""
    inputs, pre_acts, a = [x], [], x
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w + b
        a = np.maximum(z, 0.0) if spec.hidden_activation == "relu" else expit(z)
        pre_acts.append(z)
        inputs.append(a)
    z_last = a @ weights[-1] + biases[-1]
    if spec.head == "sigmoid":
        out = expit(z_last)
    else:
        g = np.exp(z_last) if spec.transform == "exp" else np.logaddexp(0.0, z_last)
        s = np.cumsum(g, axis=1)
        out = np.arctan(s) * (2.0 / np.pi) if spec.squash == "arctan" else np.tanh(0.5 * s)
    scale = 1.0 / out.size
    clip_eps = nn._CLIP_EPS
    interior = (out > clip_eps) & (out < 1.0 - clip_eps)
    if spec.head == "sigmoid":
        dz = np.where(interior, out - target, 0.0) * scale
    else:
        p = np.clip(out, clip_eps, 1.0 - clip_eps)
        dp = np.where(interior, (p - target) / (p * (1.0 - p)), 0.0) * scale
        squash_grad = (2.0 / np.pi) / (1.0 + s * s) if spec.squash == "arctan" else 0.5 * (1.0 - out * out)
        ds_tail = np.flip(np.cumsum(np.flip(dp * squash_grad, axis=1), axis=1), axis=1)
        dz = ds_tail * (g if spec.transform == "exp" else expit(z_last))
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = inputs[layer].T @ dz
        grad_b[layer] = dz.sum(axis=0)
        if layer > 0:
            da = dz @ weights[layer].T
            if spec.hidden_activation == "relu":
                dz = da * (pre_acts[layer - 1] > 0.0).astype(da.dtype)
            else:
                dz = da * (inputs[layer] * (1.0 - inputs[layer]))
    return grad_w, grad_b


def _reference_train(x, labels, spec, config):
    """Mini-batch Adam on separate per-layer arrays, each update a fresh array.

    Everything is computed in ``config.dtype``: the float64 Glorot draws are
    rounded once, and the Python-float constants act on arrays of that dtype.
    """
    dtype = config.dtype
    x, labels = x.astype(dtype), labels.astype(dtype)
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    n_layers = len(weights)
    params = weights + biases
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]
    b1, b2, lr, eps = nn._BETA1, nn._BETA2, config.learning_rate, nn._ADAM_EPS
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            grad_w, grad_b = _reference_backward(
                params[:n_layers], params[n_layers:], spec, x[idx], labels[idx]
            )
            t += 1
            corr1, corr2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, g in enumerate(grad_w + grad_b):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                params[i] = params[i] - lr * (m[i] / corr1) / (np.sqrt(v[i] / corr2) + eps)
        if dtype == np.float32:
            # each epoch ends by setting float32-subnormal first moments to 0
            m = [np.where(np.abs(a) < np.finfo(np.float32).tiny, np.float32(0.0), a) for a in m]
    return params, m, v, t


@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=ENGINE_SPEC_IDS)
@pytest.mark.parametrize("precision", nn.PRECISIONS)
def test_flat_engine_is_bit_identical_to_per_array_reference(spec, precision):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((70, 4))
    score = x @ rng.standard_normal(4)
    cuts = np.quantile(score, np.linspace(0.2, 0.8, spec.n_outputs))
    labels = (score[:, None] <= cuts[None, :]).astype(float)
    config = TrainConfig(epochs=4, batch_size=16, seed=3, precision=precision)
    state, seen = trained_with_adam_record(x, labels, spec, config)
    params, m, v, steps = _reference_train(x, labels, spec, config)
    n_layers = len(spec.widths) - 1
    assert seen.steps == list(range(1, steps + 1)) and steps == 4 * 5
    # the moments live in the flat buffers training hands adam_step
    moments_m, moments_v = (FlatParams(spec, flat=buffer[0]) for buffer in (seen.m, seen.v))
    assert seen.m.dtype == seen.v.dtype == precision
    for got, want in zip((*state.weights, *state.biases), params):
        assert_array_equal(got, want)
    for got, want in zip((*moments_m.weights, *moments_m.biases), m):
        assert_array_equal(got, want)
    for got, want in zip((*moments_v.weights, *moments_v.biases), v):
        assert_array_equal(got, want)
    assert len(state.weights) == len(moments_m.biases) == n_layers


class TestTracerContract:
    """The names the benchmark tracer reads from this module."""

    def test_train_parameter_names(self):
        assert list(inspect.signature(train).parameters) == ["x", "labels", "spec", "config"]

    def test_network_state_fields(self):
        names = {field.name for field in dataclasses.fields(NetworkState)}
        groups = ("weights", "biases")
        assert set(groups) <= names
        state = train(np.zeros((4, 2)), np.zeros((4, 1)), spec_of((2, 3, 1)), TrainConfig(epochs=1))
        for group in groups:
            assert len(getattr(state, group)) == 2
            assert all(isinstance(a, np.ndarray) for a in getattr(state, group))

    def test_one_backward_and_one_adam_step_per_step(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(nn, "backward", counted("backward", nn.backward))
        monkeypatch.setattr(nn, "adam_step", counted("adam_step", nn.adam_step))
        n, batch_size, epochs = 37, 8, 3
        rng = np.random.default_rng(0)
        train(rng.standard_normal((n, 2)), np.ones((n, 1)), spec_of((2, 3, 1)),
              TrainConfig(epochs=epochs, batch_size=batch_size))
        assert calls == ["backward", "adam_step"] * (epochs * math.ceil(n / batch_size))

    def test_train_many_makes_one_backward_and_one_adam_step_per_stacked_step(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(nn, "backward", counted("backward", nn.backward))
        monkeypatch.setattr(nn, "adam_step", counted("adam_step", nn.adam_step))
        n, batch_size, epochs, n_nets = 29, 8, 2, 3
        rng = np.random.default_rng(1)
        config = TrainConfig(epochs=epochs, batch_size=batch_size)
        x = rng.standard_normal((n, 2))
        states = train_many([x] * n_nets, [np.ones((n, 1))] * n_nets, spec_of((2, 3, 1)), config, range(n_nets))
        assert len(states) == n_nets
        assert calls == ["backward", "adam_step"] * (epochs * math.ceil(n / batch_size))

    def test_ragged_networks_make_one_call_per_run(self, monkeypatch):
        batches = []
        steps = []
        backward, adam = nn.backward, nn.adam_step

        def watched_backward(state, spec, x, *args, **kwargs):
            batches.append(x.shape[:2])
            return backward(state, spec, x, *args, **kwargs)

        def watched_adam(params, grad, m, v, step, *args, **kwargs):
            steps.append(np.asarray(step).tolist())
            return adam(params, grad, m, v, step, *args, **kwargs)

        monkeypatch.setattr(nn, "backward", watched_backward)
        monkeypatch.setattr(nn, "adam_step", watched_adam)
        sizes = (10, 7, 3, 7)
        rng = np.random.default_rng(2)
        train_many([rng.standard_normal((n, 2)) for n in sizes], [np.ones((n, 1)) for n in sizes],
                   spec_of((2, 3, 1)), TrainConfig(epochs=2, batch_size=4), range(len(sizes)))
        # stacked largest first: 10, 7, 7, 3. Offset 0: the three full batches,
        # then the 3; offset 4: the 10, then both 7s (3 rows each); offset 8: the 10
        per_epoch = [(3, 4), (1, 3), (1, 4), (2, 3), (1, 2)]
        assert batches == per_epoch * 2
        # the 10 takes 3 batches an epoch, the 7s two, the 3 one, so they end
        # at steps 6, 4 and 2
        assert steps == [[1, 1, 1], [1], [2], [2, 2], [3], [4, 3, 3], [2], [5], [4, 4], [6]]


class TestTrain:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.x = rng.standard_normal((120, 3))
        score = self.x.sum(axis=1)
        self.labels = (score > 0.0).astype(float)[:, None]

    def test_loss_decreases_from_initialization(self):
        spec = spec_of((3, 8, 1))
        config = TrainConfig(epochs=15, seed=4)
        initial = init_network(spec, seed=config.seed)
        trained = train(self.x, self.labels, spec, config)
        loss_before = bce_loss(forward(initial, spec, self.x), self.labels)
        loss_after = bce_loss(forward(trained, spec, self.x), self.labels)
        assert loss_after < loss_before
        assert loss_after < 0.35

    def test_step_counts_updates(self):
        _, seen = trained_with_adam_record(self.x, self.labels, spec_of((3, 2, 1)),
                                           TrainConfig(epochs=2, batch_size=50))
        assert seen.steps == list(range(1, 2 * 3 + 1))

    def test_training_is_deterministic(self):
        spec = spec_of((3, 6, 1))
        config = TrainConfig(epochs=3, seed=9)
        first = train(self.x, self.labels, spec, config)
        second = train(self.x, self.labels, spec, config)
        for a, b in zip(first.weights, second.weights):
            assert_array_equal(a, b)
        for a, b in zip(first.biases, second.biases):
            assert_array_equal(a, b)

    def test_monotone_outputs_survive_training(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((90, 3))
        cuts = np.quantile(x.sum(axis=1), [0.25, 0.5, 0.75])
        labels = (x.sum(axis=1)[:, None] <= cuts[None, :]).astype(float)
        spec = spec_of((3, 8, 3), head="monotone")
        state = train(x, labels, spec, TrainConfig(epochs=10, seed=1))
        out = forward(state, spec, x)
        assert np.all(np.diff(out, axis=1) >= 0.0)

    def test_label_shape_mismatch(self):
        spec = spec_of((3, 2))
        with pytest.raises(ShapeMismatch):
            train(self.x, self.labels, spec, TrainConfig(epochs=1))


def _monotone_labels(rng, n, k):
    return np.sort((rng.random((n, k)) < 0.5).astype(float), axis=1)


class TestSubnormalMoments:
    """Once a gradient stays 0, b1 * m decays into the float32 subnormals and
    sticks at a few ulps; float32 training flushes such moments once an epoch."""

    def saturated_run(self, precision):
        """The trained state and its final first moments, as training left them."""
        # with all-ones labels, one Adam step of 100 puts the sigmoid's input
        # near 300, where it rounds to 1; past the clamp every gradient is 0
        config = TrainConfig(learning_rate=100.0, batch_size=4, epochs=1200, precision=precision)
        state, seen = trained_with_adam_record(np.ones((4, 2)), np.ones((4, 1)), spec_of((2, 1)), config)
        assert seen.m.dtype == precision and len(seen.steps) == 1200
        return state, seen.m

    def test_float32_first_moments_end_at_zero_not_subnormal(self):
        state, m = self.saturated_run("float32")
        assert_array_equal(m, 0.0)
        # the parameters did move, so the moments were not 0 all along
        assert np.all(state.biases[0] > 50.0)

    def test_float64_keeps_its_arithmetic(self):
        # 0.9 ** 1199 of the first step's moment is ~1e-56: normal in float64, kept
        _, m = self.saturated_run("float64")
        assert np.all(m != 0.0) and np.all(np.abs(m) < np.finfo(np.float32).tiny)


def _stacked_row(sizes, network):
    """The row of ``network`` in train_many's buffers, which stack the largest first."""
    return sorted(range(len(sizes)), key=lambda s: -sizes[s]).index(network)


class TestTrainMany:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        batch_size=st.integers(1, 8),
        head=st.sampled_from(["sigmoid", "monotone"]),
        hidden_activation=st.sampled_from(["relu", "sigmoid"]),
        transform=st.sampled_from(["exp", "softplus"]),
        data_seed=st.integers(0, 2**16),
        precision=st.sampled_from(nn.PRECISIONS),
    )
    def test_equals_a_loop_of_train_bit_for_bit(
        self, sizes, batch_size, head, hidden_activation, transform, data_seed, precision
    ):
        k = 3 if head == "monotone" else 1
        spec = spec_of((3, 7, 5, k), head=head, hidden_activation=hidden_activation, transform=transform)
        rng = np.random.default_rng(data_seed)
        xs = [rng.standard_normal((n, 3)) for n in sizes]
        labels = [_monotone_labels(rng, n, k) for n in sizes]
        config = TrainConfig(epochs=2, batch_size=batch_size, precision=precision)
        seeds = rng.integers(0, 2**32, size=len(sizes))
        with watched_adam() as stacked_adam:
            stacked = train_many(xs, labels, spec, config, seeds)
        assert len(stacked) == len(sizes)
        for s, (x, y, seed, got) in enumerate(zip(xs, labels, seeds, stacked)):
            want, seen = trained_with_adam_record(x, y, spec, dataclasses.replace(config, seed=int(seed)))
            assert seen.steps[-1] == 2 * math.ceil(x.shape[0] / batch_size)
            assert_array_equal(np.concatenate([a.ravel() for a in _state_arrays(got)]),
                               np.concatenate([a.ravel() for a in _state_arrays(want)]))
            row = _stacked_row(sizes, s)
            assert_array_equal(stacked_adam.m[row], seen.m[0])
            assert_array_equal(stacked_adam.v[row], seen.v[0])

    @pytest.mark.parametrize("precision", nn.PRECISIONS)
    @pytest.mark.parametrize("head", ["sigmoid", "monotone"])
    def test_networks_with_different_step_counts_match_train(self, head, precision):
        # 4, 1 and 5 batches an epoch, given out of size order
        sizes, k = (9, 3, 17), 2
        spec = spec_of((2, 6, k), head=head)
        rng = np.random.default_rng(12)
        xs = [rng.standard_normal((n, 2)) for n in sizes]
        labels = [_monotone_labels(rng, n, k) for n in sizes]
        config = TrainConfig(epochs=3, batch_size=2 * k, precision=precision)
        seeds = (4, 5, 6)
        with watched_adam() as stacked_adam:
            stacked = train_many(xs, labels, spec, config, seeds)
        final_steps = []
        for s, (x, y, seed, got) in enumerate(zip(xs, labels, seeds, stacked)):
            want, seen = trained_with_adam_record(x, y, spec, dataclasses.replace(config, seed=seed))
            final_steps.append(seen.steps[-1])
            for a, b in zip(_state_arrays(got), _state_arrays(want)):
                assert_array_equal(a, b)
            row = _stacked_row(sizes, s)
            assert_array_equal(stacked_adam.m[row], seen.m[0])
            assert_array_equal(stacked_adam.v[row], seen.v[0])
        assert final_steps == [9, 3, 15]

    def test_config_seed_is_not_read(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((9, 2)), np.ones((9, 1))
        config = TrainConfig(epochs=1, batch_size=4)
        [a] = train_many([x], [y], spec_of((2, 3, 1)), config, [5])
        [b] = train_many([x], [y], spec_of((2, 3, 1)), dataclasses.replace(config, seed=8), [5])
        for got, want in zip(_state_arrays(a), _state_arrays(b)):
            assert_array_equal(got, want)

    def test_needs_a_seed(self):
        with pytest.raises(ValueError):
            train_many([], [], spec_of((2, 3, 1)), TrainConfig(), [])

    @pytest.mark.parametrize("seeds", [[1, 2.0], [1, True], [1, "2"], [1, -2]])
    def test_seeds_are_non_negative_integers(self, seeds):
        x, y = np.zeros((4, 2)), np.zeros((4, 1))
        with pytest.raises(ValueError, match=f"seeds must be a non-negative integer, got {seeds[1]!r}"):
            train_many([x, x], [y, y], spec_of((2, 3, 1)), TrainConfig(epochs=1), seeds)

    def test_one_input_and_one_label_array_per_seed(self):
        x, y = np.zeros((4, 2)), np.zeros((4, 1))
        with pytest.raises(ValueError):
            train_many([x, x], [y, y, y], spec_of((2, 3, 1)), TrainConfig(epochs=1), range(3))

    def test_label_columns_must_match_the_networks(self):
        config = TrainConfig(epochs=1)
        x = np.zeros((4, 2))
        with pytest.raises(ShapeMismatch):
            train_many([x, x], [np.zeros((4, 1)), np.zeros((4, 2))], spec_of((2, 3, 1)), config, range(2))
        with pytest.raises(ShapeMismatch):
            train_many([x, x], [np.zeros((4, 1)), np.zeros((3, 1))], spec_of((2, 3, 1)), config, range(2))

    @pytest.mark.parametrize("bad_x", [np.zeros((4, 3)), np.zeros(4)], ids=["width", "rank"])
    def test_inputs_must_match_the_networks(self, bad_x):
        y = np.zeros((4, 1))
        with pytest.raises(ShapeMismatch, match=r"x must be \(n, 2\)"):
            train_many([np.zeros((4, 2)), bad_x], [y, y], spec_of((2, 3, 1)), TrainConfig(epochs=1), range(2))

    def test_every_network_needs_an_example(self):
        with pytest.raises(ShapeMismatch):
            train_many([np.zeros((4, 2)), np.zeros((0, 2))], [np.zeros((4, 1)), np.zeros((0, 1))],
                       spec_of((2, 3, 1)), TrainConfig(epochs=1), range(2))

    @pytest.mark.parametrize("bad_net", [0, 2, 3])
    def test_non_finite_gradient_in_one_network_writes_no_network(self, monkeypatch, bad_net):
        n_nets = 4
        rng = np.random.default_rng(6)
        labels = [(rng.random((12, 1)) < 0.5).astype(float) for _ in range(n_nets)]
        labels[bad_net][:] = np.nan
        seen = []
        adam = nn.adam_step

        def watched(params, *args, **kwargs):
            before = params.copy()
            try:
                adam(params, *args, **kwargs)
            finally:
                seen.append((before, params.copy()))

        monkeypatch.setattr(nn, "adam_step", watched)
        x = rng.standard_normal((12, 2))
        with pytest.raises(NonFiniteGradient):
            train_many([x] * n_nets, labels, spec_of((2, 3, 1)), TrainConfig(epochs=1, batch_size=4), range(n_nets))
        # the first step already fails, and every network keeps its init
        [(before, after)] = seen
        assert before.shape[0] == n_nets
        assert_array_equal(after, before)
