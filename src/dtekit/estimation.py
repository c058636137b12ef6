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
    _integer,
    _integral_labels,
    _integers,
    _seed,
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
_FUNCTIONALS = ("cdf", "dte", "pte")
# the fold count fit_adjusted, simulation.run_study and cli.RunConfig default to
_DEFAULT_FOLDS = 2


def _check_folds(n_folds) -> int:
    """``n_folds`` as an int, checked here for every site that takes a fold count."""
    n_folds = _integer(n_folds, "n_folds")
    if n_folds < 2:
        raise ValueError(f"cross-fitting needs at least 2 folds, got {n_folds}")
    return n_folds


@dataclass(frozen=True)
class CrossFitPlan:
    """A seeded partition of units into folds 1..n_folds, balanced within one.

    A fold id that is not an integer in 1..n_folds is an error naming its 0-based unit.
    """

    n_folds: int
    seed: int
    fold_assignment: np.ndarray

    def __post_init__(self):
        n_folds = _check_folds(self.n_folds)
        _seed(self.seed)
        ids = _integral_labels(self.fold_assignment, "fold ids", ValueError)
        bad = np.flatnonzero((ids < 1) | (ids > n_folds))
        if bad.size:
            raise ValueError(f"fold ids must be integers in 1..{n_folds} (unit {bad[0]} has {ids[bad[0]]})")
        object.__setattr__(self, "fold_assignment", ids)


@dataclass(frozen=True)
class AdjustedEstimate:
    """The adjusted CDF matrix together with everything that produced it."""

    estimate: CdfEstimate
    gamma: ConditionalCdfMatrix
    plan: CrossFitPlan
    kind: LearnerKind


def make_folds(n_units: int, n_folds: int, seed: int) -> CrossFitPlan:
    """Shuffle units once and deal them round-robin into folds."""
    n_units, n_folds, seed = _integer(n_units, "n_units"), _check_folds(n_folds), _seed(seed)
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
    call, so the network fits fan out over the usable CPUs and train as one
    stack per process; the predictions are bit-identical at any CPU count.
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
        kind,
        (data.covariates[mask] for mask in train_masks),
        (labels[mask] for mask in train_masks),
        [derive_seed(kind.train.seed, w, fold) for w, fold in tasks],
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
    n_folds: int = _DEFAULT_FOLDS,
) -> AdjustedEstimate:
    """Cross-fit a learner and apply the adjustment in one call."""
    if plan is None:
        plan = make_folds(data.n_units, n_folds, derive_seed(kind.train.seed, _FOLD_SEED_TAG))
    gamma = crossfit_gamma(data, grid, kind, plan)
    method = "linear-adjusted" if kind.kind == "linear" else kind.kind
    estimate = adjusted_cdf(data, grid, gamma, method=method)
    return AdjustedEstimate(estimate=estimate, gamma=gamma, plan=plan, kind=kind)


def _check_functional(kind: str) -> None:
    if kind not in _FUNCTIONALS:
        raise ValueError(f"functional must be cdf, dte, or pte, got {kind!r}")


def _check_curve(kind: str, arm_pair, n_locations: int, n_arms: int | None = None) -> tuple[int, int]:
    """The arm pair of a cdf, dte or pte curve on ``n_locations`` locations, checked, as ints.

    ``n_arms=None`` leaves the arms' upper bound to a call that knows the data.
    """
    _check_functional(kind)
    pair = _integers(arm_pair, "arm pair")
    if len(pair) != 2:
        raise ValueError(f"an arm pair holds two arm labels, got {pair}")
    arm, other_arm = pair
    if min(arm, other_arm) < 1 or (n_arms is not None and max(arm, other_arm) > n_arms):
        raise ShapeMismatch(f"arm pair ({arm}, {other_arm}) out of range 1..{n_arms or 'K'}")
    if kind != "cdf" and arm == other_arm:
        raise SameArm(f"cannot contrast arm {arm} with itself")
    if kind == "pte" and n_locations < 2:
        raise GridTooSmall("interval probabilities need at least 2 locations")
    return arm, other_arm


def _curve(values: np.ndarray, kind: str, arm: int, other_arm: int) -> np.ndarray:
    """The cdf, dte or pte curve of a (..., arm, location) CDF array.

    ``arm`` and ``other_arm`` are a pair :func:`_check_curve` returned.
    """
    row = values[..., arm - 1, :]
    if kind == "cdf":
        return row
    other = values[..., other_arm - 1, :]
    if kind == "dte":
        return row - other
    return np.diff(row, axis=-1) - np.diff(other, axis=-1)


def dte(estimate: CdfEstimate, arm: int, other_arm: int) -> np.ndarray:
    """Distributional treatment effect F_arm(y) - F_other(y) on the grid."""
    pair = _check_curve("dte", (arm, other_arm), estimate.n_locations, estimate.n_arms)
    return _curve(estimate.values, "dte", *pair)


def pte(estimate: CdfEstimate, arm: int, other_arm: int) -> np.ndarray:
    """Probability treatment effect over consecutive grid intervals.

    Interval j covers (y_j, y_{j+1}], giving M - 1 values for M locations.
    """
    pair = _check_curve("pte", (arm, other_arm), estimate.n_locations, estimate.n_arms)
    return _curve(estimate.values, "pte", *pair)


def _check_probabilities(probs) -> np.ndarray:
    """``probs`` as a float array of quantile probabilities, checked."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ShapeMismatch("probs must be a non-empty 1-dimensional sequence")
    if np.any(~np.isfinite(probs)) or np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("quantile probabilities must lie strictly inside (0, 1)")
    if np.any(np.diff(probs) <= 0):
        raise UnsortedGrid("quantile probabilities must be strictly increasing")
    return probs


def quantile_grid(data: ExperimentData, probs) -> LocationGrid:
    """Grid of pooled-sample quantiles at the given probabilities.

    Uses the lower (inverse-CDF) empirical quantile, so every location is an
    observed outcome value. Colliding locations are rejected rather than
    deduplicated.
    """
    probs = _check_probabilities(probs)
    locations = np.quantile(data.outcomes, probs, method="inverted_cdf")
    collisions = np.flatnonzero(np.diff(locations) <= 0)
    if collisions.size:
        j = int(collisions[0])
        raise DuplicateLocation(
            f"quantiles {probs[j]:g} and {probs[j + 1]:g} both map to outcome "
            f"{locations[j]:g}; thin the probability list or use explicit locations"
        )
    return LocationGrid(locations=locations)
