"""Minimal dense network engine with an optional monotone multi-output head.

Plain numpy throughout: fully connected layers, ReLU or sigmoid hidden
activations, binary cross-entropy, exact reverse-mode gradients, and Adam.

Training keeps each network's parameters, gradient and two Adam moments in
one flat vector apiece, in the precision the config names: float32 by
default, or float64. The per-layer weight matrices and bias vectors are
reshaped views of that vector (:class:`FlatParams`), laid out in the order the
initializer draws them, so the Glorot draws are those of a per-array layout;
they are drawn in float64 and rounded once to the training precision.
``backward`` and ``adam_step`` compute in the dtype of the parameters they
are given. ``backward`` writes into the flat gradient and ``adam_step``
updates parameters and moments in place, with one finiteness check per step.
When training ends, the moments, gradient and other workspace are dropped,
and the frozen :class:`NetworkState`, float64 copies of the parameters only,
is built; prediction reads nothing else, and runs in float64 whatever the
training precision. In float32, Adam first moments that have decayed
below the smallest normal float32 are set to 0 once an epoch, because
subnormal arithmetic is many times slower and such a moment never decays on
to 0 by itself. ``precision="float64"`` is what replays manifests that carry
no precision, bit for bit.

:func:`train_many` trains S networks of one shape and one setting at once:
one :class:`TrainConfig` and S seeds. Network s has its own seed, so its own
Glorot draws and shuffle order, and its own rows. Their buffers gain a
leading network axis, ``(S, P)``, and a step is one ``backward`` and one
``adam_step`` call on 3-D arrays whose slice s is network s; :func:`train` is
its one-network case. The networks are stacked largest first, so at each
batch offset the networks that still have rows, grouped by where their batch
ends, are runs of consecutive rows: one call per run, on views of the rows
it covers. Each network counts its own steps, since one with more batches
per epoch reaches higher counts, and ``adam_step`` takes one count per
network.

The results are bit-identical to per-array training of one network at a
time. A 3-D matmul makes the same BLAS call on each slice that a 2-D matmul
makes on that network alone, every other operation is elementwise or
reduces within one slice, and Adam keeps the operation order of the
textbook formula, writing each intermediate into a preallocated scratch
buffer instead of a fresh array; each network's bias corrections are the
Python floats a scalar step computes, rounded to the training precision as a
scalar step rounds them. Ragged sizes are handled by which rows a call
covers, never by padding and masking, so no padded zero enters a sum. What shrinks is the Python and allocation overhead of each step,
which the networks of one call pay once.

Two output heads are supported. The plain head applies a sigmoid to each of
the final-layer outputs independently. The monotone head maps the final
linear layer z through a positive transform g, accumulates prefix sums
s_j = sum_{m <= j} g(z_m), and squashes with an increasing f from [0, inf)
into [0, 1]. Prefix sums of non-negative terms cannot decrease, so the M
outputs of one input are non-decreasing by construction, not approximately.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from scipy.special import expit

from .core import _frozen_array, _integer, _integers, _is_real, _seed
from .errors import NonFiniteGradient, ShapeMismatch

__all__ = [
    "TRANSFORMS",
    "SQUASHES",
    "PRECISIONS",
    "LayerSpec",
    "TrainConfig",
    "NetworkState",
    "FlatParams",
    "init_network",
    "forward",
    "bce_loss",
    "backward",
    "adam_step",
    "train",
    "train_many",
]

_HIDDEN_ACTIVATIONS = ("relu", "sigmoid")
_HEADS = ("sigmoid", "monotone")
TRANSFORMS = ("exp", "softplus")
SQUASHES = ("arctan", "tanh-half")
PRECISIONS = ("float32", "float64")
_FLOAT32_TINY = np.finfo(np.float32).tiny

# Adam's betas and epsilon are the defaults of Kingma & Ba (2015), *Adam: A
# Method for Stochastic Optimization*, ICLR; the loss clamps predictions to
# [_CLIP_EPS, 1 - _CLIP_EPS]. Both hold in float32 as well as in float64:
# 1 - _CLIP_EPS rounds to below 1, so the upper clamp stays, and _ADAM_EPS
# rounds to a positive number, so Adam never divides by a v that stayed 0.
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8
_CLIP_EPS = 1e-7


@dataclass(frozen=True)
class LayerSpec:
    """Architecture of one network.

    ``widths`` lists every layer width from the input dimension to the number
    of outputs, so ``len(widths) - 1`` weight matrices are created. The head
    acts on the final linear layer: "sigmoid" squashes each output on its
    own, "monotone" applies ``transform`` (g), prefix sums, then ``squash``
    (f). ``transform`` and ``squash`` are ignored by the sigmoid head.
    """

    widths: tuple[int, ...]
    hidden_activation: str = "relu"
    head: str = "sigmoid"
    transform: str = "exp"
    squash: str = "arctan"

    def __post_init__(self):
        object.__setattr__(self, "widths", _integers(self.widths, "layer widths"))
        if len(self.widths) < 2:
            raise ValueError("widths must at least contain input and output sizes")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"layer widths must be positive, got {self.widths}")
        if self.hidden_activation not in _HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of {_HIDDEN_ACTIVATIONS}")
        if self.head not in _HEADS:
            raise ValueError(f"head must be one of {_HEADS}")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"transform must be one of {TRANSFORMS}, got {self.transform!r}")
        if self.squash not in SQUASHES:
            raise ValueError(f"squash must be one of {SQUASHES}, got {self.squash!r}")

    @property
    def n_inputs(self) -> int:
        return self.widths[0]

    @property
    def n_outputs(self) -> int:
        return self.widths[-1]


@dataclass(frozen=True)
class TrainConfig:
    """The settings a run gives :func:`train` and :func:`train_many`.

    ``precision`` is the dtype training computes in: the parameters, the
    gradient, the Adam moments and scratch, and the epoch buffers. Trained
    states are float64 copies either way. Adam's betas and epsilon and the
    loss clamp are constants of this module, not settings.
    """

    learning_rate: float = 0.01
    batch_size: int = 16
    epochs: int = 30
    seed: int = 0
    precision: str = "float32"

    def __post_init__(self):
        if not (_is_real(self.learning_rate) and np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a positive finite number, got {self.learning_rate!r}")
        for name in ("batch_size", "epochs"):
            if _integer(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be at least 1")
        _seed(self.seed)
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.precision)


@dataclass(frozen=True)
class NetworkState:
    """The parameters of one trained network, frozen.

    The state freezes its own read-only float64 copies of the arrays it is
    given, so the caller's arrays stay writable and nothing else can write to
    the state's. Unpickling goes through the constructor too, so a state
    that crossed a pipe comes back frozen.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        for name in ("weights", "biases"):
            object.__setattr__(self, name, tuple(_frozen_array(a) for a in getattr(self, name)))

    def __reduce__(self):
        return NetworkState, (self.weights, self.biases)


class FlatParams:
    """One flat vector with per-layer ``weights`` and ``biases`` views.

    Layer by layer, the weight matrix comes first and its bias vector after
    it, which is the order :func:`init_network` draws them in. Writing to a
    view writes to ``flat`` and the other way round. Holds parameters,
    gradients or Adam moments alike.

    With ``n_networks`` set, ``flat`` is ``(n_networks, P)``, one row per
    network, and every view gains the same leading network axis. With
    ``flat`` given, the views are laid over that array instead of a fresh
    zero one of ``dtype``; :meth:`rows` uses it to view a run of networks.
    """

    __slots__ = ("flat", "weights", "biases")

    def __init__(self, spec: LayerSpec, n_networks: int | None = None, flat: np.ndarray | None = None,
                 dtype=np.float64):
        lead = () if n_networks is None else (n_networks,)
        shapes = list(zip(spec.widths[:-1], spec.widths[1:]))
        if flat is None:
            size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
            flat = np.zeros((*lead, size), dtype=dtype)
        self.flat = flat
        weights, biases, start = [], [], 0
        for fan_in, fan_out in shapes:
            stop = start + fan_in * fan_out
            weights.append(self.flat[..., start:stop].reshape(*lead, fan_in, fan_out))
            biases.append(self.flat[..., stop:stop + fan_out])
            start = stop + fan_out
        self.weights = tuple(weights)
        self.biases = tuple(biases)

    def rows(self, spec: LayerSpec, start: int, stop: int) -> "FlatParams":
        """Networks ``start:stop`` of a stacked buffer, as views that write through."""
        return FlatParams(spec, stop - start, self.flat[start:stop])


def init_network(spec: LayerSpec, seed: int = 0) -> NetworkState:
    """Glorot-uniform weights, zero biases."""
    params = FlatParams(spec)
    _glorot(params.weights, np.random.default_rng(seed))
    return _frozen(params)


def _glorot(weights, rng: np.random.Generator) -> None:
    # drawn in float64 whatever the dtype of ``weights``, and rounded once
    for w in weights:
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _frozen(params: FlatParams, network=()) -> NetworkState:
    """The state of one network; ``network`` indexes the network axis, if any."""
    return NetworkState(tuple(w[network] for w in params.weights), tuple(b[network] for b in params.biases))


def _hidden_in_place(spec: LayerSpec, z: np.ndarray) -> np.ndarray:
    if spec.hidden_activation == "relu":
        return np.maximum(z, 0.0, out=z)
    return expit(z, out=z)


def _hidden_grad(spec: LayerSpec, a: np.ndarray) -> np.ndarray:
    if spec.hidden_activation == "relu":
        # relu(z) > 0 exactly where z > 0, so the activation stands in for z
        return (a > 0.0).astype(a.dtype)
    return a * (1.0 - a)


def _transform(spec: LayerSpec, z: np.ndarray) -> np.ndarray:
    if spec.transform == "exp":
        return np.exp(z)
    return np.logaddexp(0.0, z)


def _transform_grad(spec: LayerSpec, z: np.ndarray, g: np.ndarray) -> np.ndarray:
    if spec.transform == "exp":
        return g
    return expit(z)


def _squash(spec: LayerSpec, s: np.ndarray) -> np.ndarray:
    if spec.squash == "arctan":
        return np.arctan(s) * (2.0 / np.pi)
    # (1 - e^-s) / (1 + e^-s), written in its stable hyperbolic form
    return np.tanh(0.5 * s)


def _squash_grad(spec: LayerSpec, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    if spec.squash == "arctan":
        # s * s overflows to inf past ~1.8e19 in float32, and the slope is 0 there
        with np.errstate(over="ignore"):
            return (2.0 / np.pi) / (1.0 + s * s)
    return 0.5 * (1.0 - out * out)


def _forward_cached(state: NetworkState | FlatParams, spec: LayerSpec, x: np.ndarray):
    # the engine computes in the dtype of the parameters it is given
    x = np.asarray(x, dtype=state.weights[0].dtype)
    # stacked parameters take one batch per network: (S, batch, inputs)
    ndim = state.weights[0].ndim
    if x.ndim != ndim or x.shape[-1] != spec.n_inputs:
        raise ShapeMismatch(
            f"input must be ({'S, ' * (ndim - 2)}batch, {spec.n_inputs}), got {x.shape}"
        )
    inputs = [x]          # input to each linear layer
    for w, b in zip(state.weights[:-1], state.biases[:-1]):
        z = inputs[-1] @ w
        z += b[..., None, :]
        inputs.append(_hidden_in_place(spec, z))
    z_last = inputs[-1] @ state.weights[-1]
    z_last += state.biases[-1][..., None, :]
    if spec.head == "sigmoid":
        out = expit(z_last)
        head_cache = (z_last, None, None)
    else:
        # exp overflows past ~88 in float32 (~709 in float64), and the prefix
        # sum can overflow after it; an infinite s squashes to 1, and backward
        # skips the product where every later output has saturated
        with np.errstate(over="ignore"):
            g = _transform(spec, z_last)
            s = np.cumsum(g, axis=-1)
            out = _squash(spec, s)
        head_cache = (z_last, g, s)
    return out, inputs, head_cache


def forward(state: NetworkState, spec: LayerSpec, x: np.ndarray) -> np.ndarray:
    """Network outputs for a batch, one row per input row."""
    out, _, _ = _forward_cached(state, spec, x)
    return out


def bce_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean binary cross-entropy over every prediction entry.

    Predictions are clamped to [1e-7, 1 - 1e-7] inside the loss only.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred shape {pred.shape} != target shape {target.shape}")
    p = np.clip(pred, _CLIP_EPS, 1.0 - _CLIP_EPS)
    return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log1p(-p)))


def backward(
    state: NetworkState | FlatParams,
    spec: LayerSpec,
    x: np.ndarray,
    target: np.ndarray,
    out: FlatParams | None = None,
) -> FlatParams:
    """Exact gradients of bce_loss(forward(x), target) for every parameter.

    ``state`` may be a NetworkState or a FlatParams. The gradients are
    written into ``out`` (a fresh FlatParams when it is None), which is
    returned. With stacked parameters, ``x`` is ``(S, batch, inputs)`` and
    ``target`` ``(S, batch, outputs)``; network s gets the gradient of its
    own loss on slice s, and ``out`` must be stacked alike. The pass computes
    in the dtype of the parameters, and a fresh ``out`` takes that dtype.
    """
    pred, inputs, (z_last, g, s) = _forward_cached(state, spec, x)
    target = np.asarray(target, dtype=pred.dtype)
    if target.shape != pred.shape:
        raise ShapeMismatch(f"target shape {target.shape} != output shape {pred.shape}")
    # the loss of each network is the mean over its own batch and outputs
    scale = 1.0 / (pred.shape[-2] * pred.shape[-1])
    # the loss clamps, so its gradient vanishes wherever the clamp is active
    interior = (pred > _CLIP_EPS) & (pred < 1.0 - _CLIP_EPS)
    if spec.head == "sigmoid":
        # d loss / d z through the sigmoid collapses to (p - t)
        dz = np.where(interior, pred - target, 0.0) * scale
    else:
        p = np.clip(pred, _CLIP_EPS, 1.0 - _CLIP_EPS)
        dp = np.where(interior, (p - target) / (p * (1.0 - p)), 0.0) * scale
        ds = dp * _squash_grad(spec, s, pred)
        # s_j collects every g(z_m) with m <= j, so z_m hears from all j >= m
        ds_tail = np.flip(np.cumsum(np.flip(ds, axis=-1), axis=-1), axis=-1)
        # an exp transform overflows to g = inf only where every later output
        # has saturated, so ds_tail is 0 there; skip the product, not 0 * inf
        dz = np.multiply(ds_tail, _transform_grad(spec, z_last, g),
                         out=np.zeros_like(ds_tail), where=ds_tail != 0.0)

    if out is None:
        out = FlatParams(spec, pred.shape[0] if pred.ndim == 3 else None, dtype=pred.dtype)
    for layer in range(len(state.weights) - 1, -1, -1):
        np.matmul(inputs[layer].swapaxes(-1, -2), dz, out=out.weights[layer])
        dz.sum(axis=-2, out=out.biases[layer])
        if layer > 0:
            da = dz @ state.weights[layer].swapaxes(-1, -2)
            dz = da * _hidden_grad(spec, inputs[layer])
    return out


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int | Sequence[int],
    config: TrainConfig,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """Update ``step`` (counted from 1) of Adam with bias correction, in place.

    ``params``, ``m`` and ``v`` are overwritten; ``grad`` is only read. The
    order of operations is that of the formula
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p = p - lr*(m/corr1) / (sqrt(v/corr2) + eps)``, so the result is
    bit-identical to evaluating it on fresh arrays. The intermediates go into
    the two arrays of ``scratch``, shaped like ``params``, when given, and
    into fresh ones otherwise. Nothing is written unless every gradient entry
    is finite.

    With stacked ``(S, P)`` buffers, ``step`` may give one count per network.
    Each row then divides by its own bias corrections, computed in Python
    like the scalar ones and rounded to the dtype of ``params`` as a Python
    float operand is, so row s ends as a scalar call with ``step[s]`` would
    leave it.
    """
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("gradient contains NaN or infinite entries")
    first, second = (np.empty_like(params), np.empty_like(params)) if scratch is None else scratch
    b1, b2 = _BETA1, _BETA2
    if np.ndim(step) == 0:
        corr1 = 1.0 - b1 ** int(step)
        corr2 = 1.0 - b2 ** int(step)
    else:
        if params.ndim != 2 or len(step) != params.shape[0]:
            raise ShapeMismatch(f"{len(step)} step counts for params of shape {params.shape}")
        # a float64 array would send a float32 step through the float64 loop
        corr = np.array([(1.0 - b1 ** t, 1.0 - b2 ** t) for t in np.asarray(step).tolist()], dtype=params.dtype)
        corr1, corr2 = corr[:, :1], corr[:, 1:]
    m *= b1
    m += np.multiply(1.0 - b1, grad, out=first)
    v *= b2
    scaled = np.multiply(1.0 - b2, grad, out=second)
    scaled *= grad
    v += scaled
    denom = np.divide(v, corr2, out=second)
    np.sqrt(denom, out=denom)
    denom += _ADAM_EPS
    update = np.divide(m, corr1, out=first)
    update *= config.learning_rate
    update /= denom
    params -= update


def train(x: np.ndarray, labels: np.ndarray, spec: LayerSpec, config: TrainConfig) -> NetworkState:
    """Mini-batch Adam training from a fresh Glorot init.

    The shuffle order and the initialization both derive from ``config.seed``,
    so identical inputs and configuration reproduce the returned parameters
    bit for bit. This is the one-network case of :func:`train_many`.
    """
    return train_many([x], [labels], spec, config, [config.seed])[0]


def train_many(
    xs: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    spec: LayerSpec,
    config: TrainConfig,
    seeds: Sequence[int],
) -> tuple[NetworkState, ...]:
    """Train one network per seed, all of shape ``spec`` and setting ``config``, each on its own data.

    Network s trains on ``xs[s]``, ``(n_s, inputs)``, against ``labels[s]``,
    ``(n_s, outputs)``; its Glorot draws and shuffle orders come from
    ``seeds[s]``, so it ends bit-identical to ``train`` on that data with
    ``config`` seeded ``seeds[s]``. ``config.seed`` is not read. The sizes
    n_s may differ. The inputs and labels are rounded once to the config's
    precision, which every training buffer shares. In float32, first moments
    below the smallest normal float32 are set to 0 at the end of each epoch.

    The networks are stacked largest first. At each batch offset, those that
    still have rows are grouped by where their batch ends; each group is a
    run of consecutive rows and makes one ``backward`` and one ``adam_step``
    call on views of its rows. Each network counts its own steps, since
    networks whose epochs have different numbers of batches reach different
    counts, and ``adam_step`` gets one count per network. A non-finite
    gradient stops training before that call writes any parameter.
    """
    seeds = [_seed(seed, "seeds") for seed in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if not (len(xs) == len(labels) == len(seeds)):
        raise ValueError(
            f"got {len(xs)} inputs and {len(labels)} label arrays for {len(seeds)} seeds"
        )
    n_nets, k, dtype, batch_size = len(seeds), spec.n_outputs, config.dtype, config.batch_size
    xs = [np.asarray(x, dtype=dtype) for x in xs]
    labels = [np.asarray(t, dtype=dtype) for t in labels]
    for x, t in zip(xs, labels):
        if x.ndim != 2 or x.shape[1] != spec.n_inputs:
            raise ShapeMismatch(f"x must be (n, {spec.n_inputs}), got {x.shape}")
        if t.shape != (x.shape[0], k):
            raise ShapeMismatch(f"labels must be ({x.shape[0]}, {k}), got {t.shape}")
        if x.shape[0] < 1:
            raise ShapeMismatch("training needs at least one example")
    # stacked row r holds network order[r]; a stable sort keeps ties in order
    order = sorted(range(n_nets), key=lambda s: -xs[s].shape[0])
    sizes = [xs[s].shape[0] for s in order]
    rngs = [np.random.default_rng(seeds[s]) for s in order]
    params = FlatParams(spec, n_nets, dtype=dtype)
    for row, rng in enumerate(rngs):
        _glorot([w[row] for w in params.weights], rng)
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    steps = np.zeros(n_nets, dtype=int)
    # the gradient and the scratch buffers are workspace: a call uses leading rows
    grad = FlatParams(spec, n_nets, dtype=dtype)
    scratch = (np.empty_like(params.flat), np.empty_like(params.flat))
    # the views of each run of rows, built when the run first occurs: runs recur every epoch
    runs = {}
    # row r's shuffled epoch fills x_epoch[r, :sizes[r]]; the rest is never read
    x_epoch = np.empty((n_nets, sizes[0], spec.n_inputs), dtype=dtype)
    t_epoch = np.empty((n_nets, sizes[0], k), dtype=dtype)
    for _ in range(config.epochs):
        for row, (s, rng) in enumerate(zip(order, rngs)):
            perm = rng.permutation(sizes[row])
            np.take(xs[s], perm, axis=0, out=x_epoch[row, :sizes[row]])
            np.take(labels[s], perm, axis=0, out=t_epoch[row, :sizes[row]])
        for start in range(0, sizes[0], batch_size):
            # largest first, so equal batch ends are runs of consecutive rows
            ends = [min(size, start + batch_size) for size in sizes if size > start]
            first = 0
            for stop, group in groupby(ends):
                last = first + len(list(group))
                count = last - first
                if (first, last) not in runs:
                    runs[first, last] = params.rows(spec, first, last), grad.rows(spec, 0, count)
                run, run_grad = runs[first, last]
                backward(run, spec, x_epoch[first:last, start:stop], t_epoch[first:last, start:stop],
                         out=run_grad)
                steps[first:last] += 1
                adam_step(run.flat, run_grad.flat, m[first:last], v[first:last], steps[first:last],
                          config, (scratch[0][:count], scratch[1][:count]))
                first = last
        if dtype == np.float32:
            # a first moment whose gradient stays 0 decays into the float32
            # subnormals and sticks there (b1 times a few ulps rounds back to
            # itself), and every later step pays the slow subnormal arithmetic;
            # float64 is not flushed, so manifests without a precision replay
            # bit for bit
            np.copyto(m, 0.0, where=np.abs(m) < _FLOAT32_TINY)
    # the frozen states hold parameters only: free the training buffers first
    del grad, m, v, scratch, runs, x_epoch, t_epoch
    states = [None] * n_nets
    for row, s in enumerate(order):
        states[s] = _frozen(params, row)
    return tuple(states)
