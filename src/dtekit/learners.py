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

:func:`fit_many` fits one learner kind on several problems, such as the
(arm, fold) splits of cross-fitting. "linear" fits one problem at a time,
as the caller asks for them. The network kinds fit on T processes, T the
CPUs the process may use, at most one per problem. With T = 1 the
shared-trunk kinds train all problems in one stacked
:func:`~dtekit.nn.train_many` call, bit-identical to fitting each alone,
and "nn-single" fits one problem at a time, as "linear" does. With T > 1
the problems are split into T contiguous groups, and each forked process
fits its group exactly as one process fits them all. Splitting a stack into
smaller stacks does not change a bit, so the learners are bit-identical at
any T; "nn-single" then trains every problem before its first learner is
yielded. T is 1 on one CPU, for a single problem (:func:`fit`), on a
platform without ``fork``, in a process that runs other threads, and inside
the replication workers of :func:`~dtekit.simulation.run_study`, whose pool
already spans the CPUs.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import core
from .core import _integers, _is_real
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

    ``hidden`` lists the trunk widths shared by all network kinds; the final
    layer width is set by the number of label columns at fit time (1 per net
    for "nn-single"). ``ridge`` only affects "linear", ``train`` only the
    network kinds. A network kind checks its architecture fields as
    :class:`~dtekit.nn.LayerSpec` does; "linear" ignores them.
    """

    kind: str
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    hidden_activation: str = "relu"
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
            hidden_activation=self.hidden_activation,
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
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
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
    return next(fit_many([kind], [x], [labels]))


def fit_many(
    kinds: Sequence[LearnerKind], xs: Iterable[np.ndarray], labels: Iterable[np.ndarray]
) -> Iterator[FittedLearner]:
    """Train one learner per problem ``(kinds[i], xs[i], labels[i])``; yield them in order.

    The kinds may differ only in ``train.seed``. "linear" reads, checks and
    fits each problem only when its learner is asked for, so with iterators
    for ``xs`` and ``labels`` the caller holds one problem and one learner at
    a time. The network kinds fit on T processes (see the module docstring).
    With T > 1, or for the kinds with one shared trunk, they read and check
    every problem, and train them all, before this returns; the shared-trunk
    kinds' problems must then share their covariate and label column counts
    (the row counts may differ). "nn-single" with T = 1 is lazy like
    "linear"; it makes one stacked call over the M locations of a problem,
    as :func:`fit` does.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("need at least one problem")
    kind = kinds[0]
    if any(k.with_seed(kind.train.seed) != kind for k in kinds):
        raise ValueError("learner kinds may differ only in train.seed")
    problems = zip(kinds, xs, labels, strict=True)
    processes = 1 if kind.kind == "linear" else _fit_processes(len(kinds))
    if kind.kind == "linear" or (kind.kind == "nn-single" and processes == 1):
        return (_fit_one(k, *_check_training_inputs(x, y)) for k, x, y in problems)
    checked = [_check_training_inputs(x, y) for _, x, y in problems]
    if kind.kind != "nn-single":
        n_inputs, n_outputs = checked[0][0].shape[1], checked[0][1].shape[1]
        if any(x.shape[1] != n_inputs or y.shape[1] != n_outputs for x, y in checked):
            raise ShapeMismatch("problems must share their covariate and label column counts")
    if processes == 1:
        return iter(_fit_group(kinds, checked))
    return iter(_fit_forked(kinds, checked, processes))


# set in the replication workers of simulation.run_study, whose pool already spans the CPUs
_in_process = False


def _fit_in_process() -> None:
    """Keep every fit of this process in-process; a process pool's initializer."""
    global _in_process
    _in_process = True


def _fit_processes(n_problems: int) -> int:
    """Processes a fan-out of ``n_problems`` network problems runs on; 1 means in-process.

    A process that runs other threads does not fork: a lock one of them holds
    would stay locked in the child.
    """
    if _in_process or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(core._usable_cpus(), n_problems)


def _fit_group(kinds: tuple[LearnerKind, ...], problems) -> list[FittedLearner]:
    """Fit checked network problems in one process, as :func:`fit_many` does on one CPU."""
    if kinds[0].kind == "nn-single":
        return [_fit_one(k, x, y) for k, (x, y) in zip(kinds, problems)]
    return _fit_stacked(kinds, problems)


def _send_group(sender, kinds: tuple[LearnerKind, ...], problems) -> None:
    """A forked fit process's work: fit its group, then send the learners or the error and traceback."""
    try:
        result = _fit_group(kinds, problems)
    except Exception as exc:
        result = exc, traceback.format_exc()
    sender.send(result)
    sender.close()


def _fit_forked(kinds: tuple[LearnerKind, ...], problems, processes: int) -> list[FittedLearner]:
    """Fit checked network problems in ``processes`` contiguous groups, one forked process each.

    A forked process inherits its group with the parent's memory, so only
    the fitted learners cross a pipe, and they are read on the calling
    thread. The processes live for this call: each has been reaped when it
    returns or raises, and a process's error is raised here with its type
    and message. Unpickled arrays are writable, so each state is frozen
    again here.
    """
    context = multiprocessing.get_context("fork")
    cuts = [len(kinds) * t // processes for t in range(processes + 1)]
    children, fitted = [], []
    try:
        for lo, hi in zip(cuts, cuts[1:]):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send_group, args=(sender, kinds[lo:hi], problems[lo:hi]))
            child.start()
            sender.close()
            children.append((child, receiver))
        for (child, receiver), lo in zip(children, cuts):
            try:
                group = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"a fit process exited with code {child.exitcode} before it sent its learners"
                ) from None
            if isinstance(group, tuple):
                error, trace = group
                raise error from RuntimeError(f"in a fit process:\n{trace}")
            fitted.extend(
                FittedLearner(
                    kind, f.n_inputs, f.n_outputs, f.x_mean, f.x_scale,
                    states=tuple(NetworkState(s.weights, s.biases) for s in f.states),
                )
                for kind, f in zip(kinds[lo:], group)
            )
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    return fitted


def _fit_one(kind: LearnerKind, x: np.ndarray, labels: np.ndarray) -> FittedLearner:
    n_outputs = labels.shape[1]
    mean, scale = _standardize_stats(x)
    xs = (x - mean) / scale
    if kind.kind == "linear":
        design = np.hstack([xs, np.ones((xs.shape[0], 1))])
        coef = _solve_ridge(design, labels, kind.ridge)
        return FittedLearner(kind, x.shape[1], n_outputs, mean, scale, coef=coef)
    seeds = np.random.SeedSequence(kind.train.seed).generate_state(n_outputs)
    configs = [replace(kind.train, seed=int(seed)) for seed in seeds]
    columns = [labels[:, j:j + 1] for j in range(n_outputs)]
    states = train_many([xs] * n_outputs, columns, kind.layer_spec(x.shape[1], 1), configs)
    return FittedLearner(kind, x.shape[1], n_outputs, mean, scale, states=states)


def _fit_stacked(kinds: tuple[LearnerKind, ...], problems) -> list[FittedLearner]:
    n_inputs, n_outputs = problems[0][0].shape[1], problems[0][1].shape[1]
    stats = [_standardize_stats(x) for x, _ in problems]
    states = train_many(
        [(x - mean) / scale for (x, _), (mean, scale) in zip(problems, stats)],
        [y for _, y in problems],
        kinds[0].layer_spec(n_inputs, n_outputs),
        [k.train for k in kinds],
    )
    return [
        FittedLearner(k, n_inputs, n_outputs, mean, scale, states=(state,))
        for k, (mean, scale), state in zip(kinds, stats, states)
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
    if kind.kind == "nn-single":
        columns = [
            forward(state, kind.layer_spec(fitted.n_inputs, 1), xs)
            for state in fitted.states
        ]
        return np.hstack(columns)
    spec = kind.layer_spec(fitted.n_inputs, fitted.n_outputs)
    return forward(fitted.states[0], spec, xs)
