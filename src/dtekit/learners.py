"""Outcome-CDF learners used inside cross-fitting.

Every learner maps covariates to per-location conditional probabilities
P(Y <= y_j | X). Four kinds are available:

- "linear": one ridge solve shared by all locations (multivariate ordinary
  least squares when the penalty is zero); predictions are raw affine values
  and are deliberately not clipped to [0, 1].
- "nn-single": one width-1 sigmoid network per location, all trained in one
  stacked :func:`~dtekit.nn.train_many` call.
- "nn-multi": one shared-trunk network with M sigmoid outputs.
- "nn-multi-monotone": the shared trunk with the cumulative head, so each
  prediction row is non-decreasing across locations by construction.

Covariates are z-scored with statistics of the training split; the fitted
statistics travel with the learner and are re-applied at prediction time.
Every column that varies is divided by its own standard deviation, however small.

:func:`fit_many` fits one learner kind on several problems, one seed each,
such as the (arm, fold) splits of cross-fitting. "linear" fits one problem
at a time, as the caller asks for them. The network kinds train all their
problems in one stacked :func:`~dtekit.nn.train_many` call on the kind's
training setting ("nn-single" as M width-1 networks per problem, seeded
from the problem's seed), fanned out by :func:`~dtekit.core._fan_out`: with T
processes, T the CPUs the process may use and at most one per problem, the
problems are split into T contiguous groups and each forked process trains
its group's stack. Splitting a stack into smaller stacks does not change a
bit, so the learners are bit-identical to fitting each problem alone, at
any T. T is 1 on one CPU, for a single problem (:func:`fit`), on a platform
without ``fork``, in a process that runs other threads, and in a process
the fan-out forked, such as a replication of
:func:`~dtekit.simulation.run_study`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import core
from .core import _integers, _is_real, _seed
from .errors import NonFiniteValue, ShapeMismatch, SingularDesign, TooFewUnits
from .nn import LayerSpec, NetworkState, TrainConfig, forward, train_many

__all__ = [
    "LEARNER_KINDS",
    "LearnerKind",
    "FittedLearner",
    "fit",
    "fit_many",
    "predict",
]

LEARNER_KINDS = ("linear", "nn-single", "nn-multi", "nn-multi-monotone")

DEFAULT_RIDGE = 1e-8
DEFAULT_HIDDEN = (128, 64)


@dataclass(frozen=True)
class LearnerKind:
    """A learner family plus its hyperparameters.

    ``hidden`` lists the trunk widths shared by all network kinds, whose
    hidden layers are ReLU; the final layer width is set by the number of
    label columns at fit time (1 per net for "nn-single"). ``ridge`` only
    affects "linear", ``train`` only the network kinds. A network kind checks
    its architecture fields as :class:`~dtekit.nn.LayerSpec` does; "linear"
    ignores them.
    """

    kind: str
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    transform: str = "exp"
    squash: str = "arctan"
    ridge: float = DEFAULT_RIDGE
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"kind must be one of {LEARNER_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "hidden", _integers(self.hidden, "hidden widths"))
        if self.kind != "linear":
            self.layer_spec(1, 1)
        if not (_is_real(self.ridge) and np.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge penalty must be a non-negative finite number, got {self.ridge!r}")

    def with_seed(self, seed: int) -> "LearnerKind":
        return replace(self, train=replace(self.train, seed=int(seed)))

    def layer_spec(self, n_inputs: int, n_outputs: int) -> LayerSpec:
        head = "monotone" if self.kind == "nn-multi-monotone" else "sigmoid"
        return LayerSpec(
            widths=(n_inputs, *self.hidden, n_outputs),
            head=head,
            transform=self.transform,
            squash=self.squash,
        )


@dataclass(frozen=True)
class FittedLearner:
    """A trained learner: parameters plus the training-split scaling."""

    kind: LearnerKind
    n_inputs: int
    n_outputs: int
    x_mean: np.ndarray
    x_scale: np.ndarray
    coef: np.ndarray | None = None
    states: tuple[NetworkState, ...] = ()


def _standardize_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and scale of ``x``; a column that cannot be z-scored is a NonFiniteValue.

    Each column is divided by its own standard deviation. A scale that
    overflows to inf would z-score its column to 0, and the learner would
    silently ignore that covariate; the scale of a column that varies must
    not underflow to a subnormal or to 0 either. Both raise. A constant
    column, max equal to min, is divided by 1.0 when its rounding-noise
    scale is below 1e-12: that was once the cut-off for every column, so
    constant columns keep their bytes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
    bad = np.flatnonzero(~np.isfinite(mean) | ~np.isfinite(scale))
    if bad.size:
        raise NonFiniteValue(
            f"covariate column {bad[0]} is too large to standardize: its mean or scale overflows"
        )
    constant = x.max(axis=0) == x.min(axis=0)
    tiny = np.flatnonzero(~constant & (scale < np.finfo(float).tiny))
    if tiny.size:
        raise NonFiniteValue(
            f"covariate column {tiny[0]} varies too little to standardize: its scale underflows"
        )
    scale = np.where(constant & (scale < 1e-12), 1.0, scale)
    return mean, scale


def _check_training_inputs(x: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if x.ndim != 2:
        raise ShapeMismatch(f"x must be 2-dimensional, got shape {x.shape}")
    if labels.ndim != 2:
        raise ShapeMismatch(f"labels must be 2-dimensional, got shape {labels.shape}")
    if x.shape[0] != labels.shape[0]:
        raise ShapeMismatch(
            f"x has {x.shape[0]} rows but labels has {labels.shape[0]}"
        )
    if x.shape[0] < 2:
        raise TooFewUnits(f"need at least 2 training units, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("training covariates contain non-finite values")
    if not np.all(np.isfinite(labels)):
        raise NonFiniteValue("training labels contain non-finite values")
    return x, labels


def _solve_ridge(design: np.ndarray, labels: np.ndarray, ridge: float) -> np.ndarray:
    gram = design.T @ design
    if ridge > 0.0:
        gram = gram + ridge * np.eye(gram.shape[0])
    else:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularDesign("design matrix is singular; use a positive ridge penalty")
    try:
        factor = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cond check fires first
        raise SingularDesign(str(exc)) from exc
    return cho_solve(factor, design.T @ labels)


def fit(kind: LearnerKind, x: np.ndarray, labels: np.ndarray) -> FittedLearner:
    """Train one learner on (covariates, per-location binary labels)."""
    return next(fit_many(kind, [x], [labels], [kind.train.seed]))


def fit_many(
    kind: LearnerKind, xs: Iterable[np.ndarray], labels: Iterable[np.ndarray], seeds: Sequence[int]
) -> Iterator[FittedLearner]:
    """Train one learner per problem ``(xs[i], labels[i])`` seeded ``seeds[i]``; yield them in order.

    Learner i is ``kind`` with ``train.seed`` set to ``seeds[i]``, and
    records that kind. "linear" reads, checks and fits each problem only
    when its learner is asked for, so with iterators for ``xs`` and
    ``labels`` the caller holds one problem and one learner at a time. The
    network kinds read and check every problem, and train them all (see the
    module docstring), before this returns; their problems must share their
    covariate and label column counts (the row counts may differ).
    """
    seeds = [_seed(seed, "seeds") for seed in seeds]
    if not seeds:
        raise ValueError("need at least one problem")
    problems = zip(seeds, xs, labels, strict=True)
    if kind.kind == "linear":
        return (_fit_linear(kind.with_seed(seed), *_check_training_inputs(x, y)) for seed, x, y in problems)
    checked = [(seed, *_check_training_inputs(x, y)) for seed, x, y in problems]
    n_inputs, n_outputs = checked[0][1].shape[1], checked[0][2].shape[1]
    if any(x.shape[1] != n_inputs or y.shape[1] != n_outputs for _, x, y in checked):
        raise ShapeMismatch("problems must share their covariate and label column counts")
    return iter(core._fan_out(partial(_fit_stacked, kind), checked))


def _fit_linear(kind: LearnerKind, x: np.ndarray, labels: np.ndarray) -> FittedLearner:
    mean, scale = _standardize_stats(x)
    design = np.hstack([(x - mean) / scale, np.ones((x.shape[0], 1))])
    coef = _solve_ridge(design, labels, kind.ridge)
    return FittedLearner(kind, x.shape[1], labels.shape[1], mean, scale, coef=coef)


def _fit_stacked(kind: LearnerKind, problems: list) -> list[FittedLearner]:
    """Fit checked network problems ``(seed, x, labels)`` in one stacked ``train_many`` call.

    "nn-single" trains M width-1 networks per problem, one per label column,
    seeded from the problem's seed; the other kinds train one M-output
    network per problem.
    """
    n_inputs, n_outputs = problems[0][1].shape[1], problems[0][2].shape[1]
    per_problem = n_outputs if kind.kind == "nn-single" else 1
    stats = [_standardize_stats(x) for _, x, _ in problems]
    xs, columns, seeds = [], [], []
    for (seed, x, y), (mean, scale) in zip(problems, stats):
        xs += [(x - mean) / scale] * per_problem
        if per_problem == 1:
            columns.append(y)
            seeds.append(seed)
        else:
            columns += [y[:, j:j + 1] for j in range(n_outputs)]
            seeds += np.random.SeedSequence(seed).generate_state(n_outputs).tolist()
    spec = kind.layer_spec(n_inputs, n_outputs // per_problem)
    states = train_many(xs, columns, spec, kind.train, seeds)
    return [
        FittedLearner(kind.with_seed(seed), n_inputs, n_outputs, mean, scale,
                      states=states[i * per_problem:(i + 1) * per_problem])
        for i, ((seed, _, _), (mean, scale)) in enumerate(zip(problems, stats))
    ]


def predict(fitted: FittedLearner, x: np.ndarray) -> np.ndarray:
    """Conditional CDF predictions, one row per input row, one column per location."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != fitted.n_inputs:
        raise ShapeMismatch(f"x must be (m, {fitted.n_inputs}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("prediction covariates contain non-finite values")
    xs = (x - fitted.x_mean) / fitted.x_scale
    kind = fitted.kind
    if kind.kind == "linear":
        design = np.hstack([xs, np.ones((xs.shape[0], 1))])
        return design @ fitted.coef
    # "nn-single" holds one width-1 network per location, the others one network
    spec = kind.layer_spec(fitted.n_inputs, 1 if kind.kind == "nn-single" else fitted.n_outputs)
    return np.hstack([forward(state, spec, xs) for state in fitted.states])
