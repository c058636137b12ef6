"""Distribution-level estimators: empirical CDFs, cross-fitting, and the
regression-adjusted estimator.

The adjusted arm-w CDF at location y is

    (1/n_w) * sum_{i: W_i = w} (1{Y_i <= y} - gamma_w(X_i, y))
    + (1/n)  * sum_{all i}      gamma_w(X_i, y)

where gamma_w is a cross-fitted conditional CDF learner, so each unit is
predicted by a model that never trained on it. When gamma_w is constant the
two correction terms cancel and the estimator collapses to the empirical CDF.
The output is reported exactly as computed, without rounding into [0, 1] or
re-sorting along locations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CdfEstimate,
    ConditionalCdfMatrix,
    ExperimentData,
    LocationGrid,
    derive_seed,
    indicator_labels,
)
from .errors import (
    DuplicateLocation,
    EmptyTrainingArm,
    GridTooSmall,
    SameArm,
    ShapeMismatch,
    TooFewUnits,
    UnsortedGrid,
)
from .learners import LearnerKind, fit_many, predict

__all__ = [
    "CrossFitPlan",
    "AdjustedEstimate",
    "make_folds",
    "empirical_cdf",
    "crossfit_gamma",
    "adjusted_cdf",
    "fit_adjusted",
    "dte",
    "pte",
    "quantile_grid",
]

_FOLD_SEED_TAG = 7001


@dataclass(frozen=True)
class CrossFitPlan:
    """A seeded partition of units into folds 1..n_folds, balanced within one."""

    n_folds: int
    seed: int
    fold_assignment: np.ndarray

    def __post_init__(self):
        folds = np.array(self.fold_assignment, dtype=int, copy=True)
        folds.setflags(write=False)
        object.__setattr__(self, "fold_assignment", folds)


@dataclass(frozen=True)
class AdjustedEstimate:
    """The adjusted CDF matrix together with everything that produced it."""

    estimate: CdfEstimate
    gamma: ConditionalCdfMatrix
    plan: CrossFitPlan
    kind: LearnerKind


def make_folds(n_units: int, n_folds: int, seed: int) -> CrossFitPlan:
    """Shuffle units once and deal them round-robin into folds."""
    if n_folds < 2:
        raise ValueError(f"cross-fitting needs at least 2 folds, got {n_folds}")
    if n_units < n_folds:
        raise TooFewUnits(f"cannot split {n_units} units into {n_folds} folds")
    order = np.random.default_rng(seed).permutation(n_units)
    assignment = np.empty(n_units, dtype=int)
    assignment[order] = np.arange(n_units) % n_folds + 1
    return CrossFitPlan(n_folds=n_folds, seed=seed, fold_assignment=assignment)


def empirical_cdf(data: ExperimentData, grid: LocationGrid) -> CdfEstimate:
    """Per-arm empirical CDF evaluated at every grid location."""
    values = np.empty((data.n_arms, grid.n_locations))
    for w in range(1, data.n_arms + 1):
        arm_y = np.sort(data.outcomes[data.arms == w])
        values[w - 1] = np.searchsorted(arm_y, grid.locations, side="right") / arm_y.size
    return CdfEstimate(values=values, method="empirical")


def crossfit_gamma(
    data: ExperimentData,
    grid: LocationGrid,
    kind: LearnerKind,
    plan: CrossFitPlan,
) -> ConditionalCdfMatrix:
    """Cross-fitted conditional CDF predictions for every (arm, unit, location).

    For each arm w and fold l, a learner is trained on the arm-w units outside
    fold l and then predicts for every unit inside fold l, whichever arm that
    unit was assigned to. No unit is ever predicted by a model it trained.
    Every (arm, fold) training split is checked before any learner trains,
    and all K x L learners come from one :func:`~dtekit.learners.fit_many`
    call, so the network kinds with a shared trunk train as one stack.
    """
    n = data.n_units
    if plan.fold_assignment.shape[0] != n:
        raise ShapeMismatch(
            f"fold assignment covers {plan.fold_assignment.shape[0]} units, data has {n}"
        )
    labels = indicator_labels(data, grid)
    folds = plan.fold_assignment
    tasks = [(w, fold) for w in range(1, data.n_arms + 1) for fold in range(1, plan.n_folds + 1)]
    train_masks = []
    for w, fold in tasks:
        train_mask = (folds != fold) & (data.arms == w)
        n_train = int(train_mask.sum())
        if n_train < 2:
            raise EmptyTrainingArm(
                f"arm {w} has {n_train} training units outside fold {fold}"
            )
        train_masks.append(train_mask)
    # generators: a learner that fits one split at a time holds one split's copy
    models = fit_many(
        [kind.with_seed(derive_seed(kind.train.seed, w, fold)) for w, fold in tasks],
        (data.covariates[mask] for mask in train_masks),
        (labels[mask] for mask in train_masks),
    )
    predictions = np.empty((data.n_arms, n, grid.n_locations))
    for (w, fold), model in zip(tasks, models):
        fold_mask = folds == fold
        predictions[w - 1, fold_mask] = predict(model, data.covariates[fold_mask])
    matrix = ConditionalCdfMatrix(predictions=predictions, fold_assignment=folds)
    if kind.kind != "linear":
        # network heads cannot leave [0, 1]; catching it here catches engine bugs
        outside = (matrix.predictions < 0.0) | (matrix.predictions > 1.0)
        if outside.any():
            raise ShapeMismatch(f"network predictions left [0, 1] {_first_cell(outside)}")
    if kind.kind == "nn-multi-monotone" and grid.n_locations > 1:
        # a decrease into location j + 1 is reported at location j + 1
        falls = np.diff(matrix.predictions, axis=2) < 0.0
        if falls.any():
            raise ShapeMismatch(
                f"monotone head produced a decreasing prediction row {_first_cell(falls, 1)}"
            )
    return matrix


def _first_cell(mask: np.ndarray, location_offset: int = 0) -> str:
    """The first True (arm, unit, location) cell of ``mask``, as error text."""
    arm, unit, location = np.argwhere(mask)[0]
    return f"(arm {arm + 1}, unit {unit}, location {location + location_offset})"


def adjusted_cdf(
    data: ExperimentData,
    grid: LocationGrid,
    gamma: ConditionalCdfMatrix,
    method: str = "adjusted",
) -> CdfEstimate:
    """Regression-adjusted CDF matrix from cross-fitted predictions."""
    preds = gamma.predictions
    if preds.shape != (data.n_arms, data.n_units, grid.n_locations):
        raise ShapeMismatch(
            f"gamma shape {preds.shape} does not match "
            f"({data.n_arms}, {data.n_units}, {grid.n_locations})"
        )
    labels = indicator_labels(data, grid)
    values = np.empty((data.n_arms, grid.n_locations))
    for w in range(1, data.n_arms + 1):
        own = data.arms == w
        arm_term = (labels[own] - preds[w - 1, own]).sum(axis=0) / data.stats.counts[w - 1]
        all_term = preds[w - 1].mean(axis=0)
        values[w - 1] = arm_term + all_term
    return CdfEstimate(values=values, method=method)


def fit_adjusted(
    data: ExperimentData,
    grid: LocationGrid,
    kind: LearnerKind,
    plan: CrossFitPlan | None = None,
    n_folds: int = 2,
) -> AdjustedEstimate:
    """Cross-fit a learner and apply the adjustment in one call."""
    if plan is None:
        plan = make_folds(data.n_units, n_folds, derive_seed(kind.train.seed, _FOLD_SEED_TAG))
    gamma = crossfit_gamma(data, grid, kind, plan)
    method = "linear-adjusted" if kind.kind == "linear" else kind.kind
    estimate = adjusted_cdf(data, grid, gamma, method=method)
    return AdjustedEstimate(estimate=estimate, gamma=gamma, plan=plan, kind=kind)


def _check_arm_pair(estimate: CdfEstimate, arm: int, other_arm: int) -> None:
    k = estimate.n_arms
    if not (1 <= arm <= k and 1 <= other_arm <= k):
        raise ShapeMismatch(f"arm pair ({arm}, {other_arm}) out of range 1..{k}")
    if arm == other_arm:
        raise SameArm(f"cannot contrast arm {arm} with itself")


def dte(estimate: CdfEstimate, arm: int, other_arm: int) -> np.ndarray:
    """Distributional treatment effect F_arm(y) - F_other(y) on the grid."""
    _check_arm_pair(estimate, arm, other_arm)
    return estimate.values[arm - 1] - estimate.values[other_arm - 1]


def pte(
    estimate: CdfEstimate,
    arm: int,
    other_arm: int,
    include_lower_tail: bool = False,
) -> np.ndarray:
    """Probability treatment effect over consecutive grid intervals.

    Interval j covers (y_j, y_{j+1}], giving M - 1 values for M locations.
    With ``include_lower_tail`` the interval (-inf, y_1] is prepended.
    """
    _check_arm_pair(estimate, arm, other_arm)
    if estimate.n_locations < 2 and not include_lower_tail:
        raise GridTooSmall("interval probabilities need at least 2 locations")
    fa = estimate.values[arm - 1]
    fb = estimate.values[other_arm - 1]
    cell_a = np.diff(fa)
    cell_b = np.diff(fb)
    if include_lower_tail:
        cell_a = np.concatenate([[fa[0]], cell_a])
        cell_b = np.concatenate([[fb[0]], cell_b])
    return cell_a - cell_b


def quantile_grid(data: ExperimentData, probs) -> LocationGrid:
    """Grid of pooled-sample quantiles at the given probabilities.

    Uses the lower (inverse-CDF) empirical quantile, so every location is an
    observed outcome value. Colliding locations are rejected rather than
    deduplicated.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ShapeMismatch("probs must be a non-empty 1-dimensional sequence")
    if np.any(~np.isfinite(probs)) or np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("quantile probabilities must lie strictly inside (0, 1)")
    if np.any(np.diff(probs) <= 0):
        raise UnsortedGrid("quantile probabilities must be strictly increasing")
    locations = np.quantile(data.outcomes, probs, method="inverted_cdf")
    collisions = np.flatnonzero(np.diff(locations) <= 0)
    if collisions.size:
        j = int(collisions[0])
        raise DuplicateLocation(
            f"quantiles {probs[j]:g} and {probs[j + 1]:g} both map to outcome "
            f"{locations[j]:g}; thin the probability list or use explicit locations"
        )
    return LocationGrid(locations=locations)
