"""Core data model: experiment containers, evaluation grids, and estimate types.

Arms are integer labels 1..K. Evaluation locations are a strictly increasing
grid of outcome values; all CDF-like quantities are matrices with one row per
arm and one column per location.

The private helpers here have one owner each: integer, seed and label
checks, read-only copies, the CPUs the process may use, and
:func:`_fan_out`, the one place the package forks processes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyArm,
    NonFiniteValue,
    ShapeMismatch,
    TooFewUnits,
    UnsortedGrid,
)

__all__ = [
    "ExperimentData",
    "ArmStats",
    "LocationGrid",
    "CdfEstimate",
    "ConditionalCdfMatrix",
    "EffectBand",
    "validate_experiment",
    "indicator_labels",
    "derive_seed",
]


def _frozen_array(values, dtype=float, ndim: int | None = None, name: str = "array") -> np.ndarray:
    """A read-only copy of ``values``; the caller's array stays writable."""
    arr = np.array(values, dtype=dtype, copy=True)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _is_real(value, kinds=(int, float, np.integer, np.floating)) -> bool:
    """Whether ``value`` is a number of one of ``kinds``; a bool is not a number here."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_real(value, (int, np.integer))


def _integer(value, name: str) -> int:
    """``value`` as a Python int; a bool, float or other non-integer is a ValueError naming ``name``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _integers(values, name: str) -> tuple[int, ...]:
    """``values`` as Python ints; a bool, float or other non-integer entry is a ValueError."""
    values = tuple(values)
    for value in values:
        if not _is_integer(value):
            raise ValueError(f"{name} must be integers, got {value!r}")
    return tuple(int(value) for value in values)


def _seed(value, name: str = "seed") -> int:
    """``value`` as a Python int; anything but a non-negative integer is a ValueError naming ``name``."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _integral_labels(values, name: str, error: type[Exception]) -> np.ndarray:
    """``values`` as a read-only 1-d int array; a non-integral label is ``error`` naming its unit."""
    labels = np.asarray(values)
    if labels.dtype.kind not in "iuf":
        # the int cast would read '2' as 2 and True as 1
        raise error(f"{name} must be integers, got {labels.dtype} values")
    if labels.dtype.kind == "f" and labels.ndim == 1:
        # checked before the int cast, which would truncate 1.5 to 1
        bad = np.flatnonzero(~np.isfinite(labels) | (labels != np.trunc(labels)))
        if bad.size:
            raise error(f"{name} must be integers (unit {bad[0]} has {labels[bad[0]]:g})")
    return _frozen_array(labels, dtype=int, ndim=1, name=name)


def _usable_cpus() -> int:
    """The CPUs this process may use, which size :func:`_fan_out`'s processes."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# set in a process that _fan_out forked: its parent already spans the CPUs
_forked = False


def _fan_out_processes(n_items: int) -> int:
    """The processes :func:`_fan_out` runs ``n_items`` items on; 1 means the calling process.

    A process that runs other threads does not fork, since a lock one of them
    holds would stay locked in the child, and neither does a process that
    :func:`_fan_out` forked.
    """
    if _forked or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), n_items)


def _fan_out(function, items: list) -> list:
    """``function`` over T contiguous groups of ``items``, their results concatenated in order.

    ``function`` maps a list of items to a list of results. T is
    :func:`_fan_out_processes`; at T = 1 this is ``function(items)``, in the
    calling process. Otherwise each group runs in its own forked process,
    which inherits the items with the parent's memory, and only the results
    cross a pipe, read on the calling thread. The processes live for this
    call: each has been reaped when it returns or raises. A process's error
    is raised here with its type and message, and its traceback as the
    cause; a process that dies before it sends is a RuntimeError.
    """
    processes = _fan_out_processes(len(items))
    if processes <= 1:
        return function(items)
    context = multiprocessing.get_context("fork")
    cuts = [len(items) * t // processes for t in range(processes + 1)]
    children, results = [], []
    try:
        for lo, hi in zip(cuts, cuts[1:]):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_run_forked, args=(sender, function, items[lo:hi]))
            child.start()
            sender.close()
            children.append((child, receiver))
        for child, receiver in children:
            try:
                failure, group = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"a forked process exited with code {child.exitcode} before it sent its results"
                ) from None
            if failure:
                error, trace = failure
                raise error from RuntimeError(f"in a forked process:\n{trace}")
            results.extend(group)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    return results


def _run_forked(sender, function, items: list) -> None:
    """A forked process's work: run ``function`` on its group, then send the results or the error."""
    global _forked
    _forked = True
    try:
        message = None, function(items)
    except Exception as exc:
        message = (exc, traceback.format_exc()), None
    sender.send(message)
    sender.close()


def derive_seed(*keys: int) -> int:
    """Deterministically derive a child seed from an ordered tuple of integers."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


@dataclass(frozen=True)
class ExperimentData:
    """A completed randomized experiment, validated once, where it is built.

    Attributes
    ----------
    covariates : (n, d) float array
    arms : (n,) int array with labels in 1..n_arms
    outcomes : (n,) float array
    n_arms : number of declared arms K, an integer; inferred as max(arms) when 0 or omitted
    stats : per-arm counts and shares, computed at construction

    Construction raises ShapeMismatch for arrays of the wrong rank or unequal
    length, TooFewUnits for fewer than 2 units, NonFiniteValue for a
    non-finite covariate or outcome, and EmptyArm for non-numeric or bool arm
    labels, a non-integral arm label, no declared arm, a label outside 1..K,
    or an arm without units. Errors about one unit name its 0-based index.
    """

    covariates: np.ndarray
    arms: np.ndarray
    outcomes: np.ndarray
    n_arms: int = 0
    stats: ArmStats = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = _frozen_array(self.covariates, ndim=2, name="covariates")
        w = _integral_labels(self.arms, "arm labels", EmptyArm)
        y = _frozen_array(self.outcomes, ndim=1, name="outcomes")
        if not (x.shape[0] == w.shape[0] == y.shape[0]):
            raise ShapeMismatch(
                f"covariates ({x.shape[0]}), arms ({w.shape[0]}) and outcomes "
                f"({y.shape[0]}) must share the unit dimension"
            )
        n = y.shape[0]
        if n < 2:
            raise TooFewUnits(f"need at least 2 units, got {n}")
        if not np.all(np.isfinite(x)):
            i, j = np.argwhere(~np.isfinite(x))[0]
            raise NonFiniteValue(f"covariates contain non-finite values (unit {i}, column {j})")
        if not np.all(np.isfinite(y)):
            i = np.flatnonzero(~np.isfinite(y))[0]
            raise NonFiniteValue(f"outcomes contain non-finite values (unit {i})")
        k = _integer(self.n_arms, "n_arms") or int(w.max())
        if k < 1:
            raise EmptyArm("experiment declares no arms")
        if w.min() < 1 or w.max() > k:
            raise EmptyArm(f"arm labels must lie in 1..{k}")
        counts = np.bincount(w, minlength=k + 1)[1:]
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise EmptyArm(f"arm {missing[0] + 1} has no units")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "arms", w)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "n_arms", k)
        object.__setattr__(self, "stats", ArmStats(counts=counts, shares=counts / float(n)))

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class ArmStats:
    """Per-arm unit counts and sample shares, in arm order 1..K."""

    counts: np.ndarray
    shares: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _frozen_array(self.counts, dtype=int, ndim=1, name="counts"))
        object.__setattr__(self, "shares", _frozen_array(self.shares, ndim=1, name="shares"))


@dataclass(frozen=True)
class LocationGrid:
    """Strictly increasing outcome locations at which distributions are evaluated."""

    locations: np.ndarray

    def __post_init__(self):
        y = _frozen_array(self.locations, ndim=1, name="locations")
        if y.size == 0:
            raise ShapeMismatch("grid must contain at least one location")
        if not np.all(np.isfinite(y)):
            raise NonFiniteValue("grid locations must be finite")
        if np.any(np.diff(y) <= 0):
            raise UnsortedGrid("grid locations must be strictly increasing")
        object.__setattr__(self, "locations", y)

    @property
    def n_locations(self) -> int:
        return self.locations.shape[0]


@dataclass(frozen=True)
class CdfEstimate:
    """Arm-by-location matrix of estimated outcome CDF values.

    ``method`` records how the values were produced ("empirical" or one of the
    adjusted learner tags). Only empirical values are guaranteed to lie in
    [0, 1] with non-decreasing rows; the regression-adjusted estimator is left
    exactly as computed, without range or monotonicity correction.
    """

    values: np.ndarray
    method: str

    def __post_init__(self):
        v = _frozen_array(self.values, ndim=2, name="values")
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue("CDF estimates must be finite")
        if self.method == "empirical":
            if np.any(v < 0.0) or np.any(v > 1.0):
                raise ShapeMismatch("empirical CDF values must lie in [0, 1]")
            if np.any(np.diff(v, axis=1) < 0.0):
                raise UnsortedGrid("empirical CDF rows must be non-decreasing")
        object.__setattr__(self, "values", v)

    @property
    def n_arms(self) -> int:
        return self.values.shape[0]

    @property
    def n_locations(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ConditionalCdfMatrix:
    """Cross-fitted conditional CDF predictions.

    ``predictions[w - 1, i, j]`` is the held-out prediction of
    P(Y(w) <= grid[j] | X_i), produced by a model that never saw unit i.
    ``fold_assignment`` holds the fold id (1..L) of every unit.
    """

    predictions: np.ndarray
    fold_assignment: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.predictions, ndim=3, name="predictions")
        f = _integral_labels(self.fold_assignment, "fold ids", ValueError)
        if p.shape[1] != f.shape[0]:
            raise ShapeMismatch(
                f"predictions cover {p.shape[1]} units but fold assignment covers {f.shape[0]}"
            )
        if not np.all(np.isfinite(p)):
            raise NonFiniteValue("conditional CDF predictions must be finite")
        object.__setattr__(self, "predictions", p)
        object.__setattr__(self, "fold_assignment", f)


@dataclass(frozen=True)
class EffectBand:
    """A pointwise confidence band around a distributional effect curve.

    ``kind`` is "cdf", "dte", or "pte". ``arm_pair`` is (w, w') for contrasts
    and (w, w) for a single-arm CDF band. ``locations`` are the outcome values
    the band is evaluated at (interval upper endpoints for PTE).
    """

    kind: str
    arm_pair: tuple[int, int]
    locations: np.ndarray
    point: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray

    def __post_init__(self):
        loc = _frozen_array(self.locations, ndim=1, name="locations")
        point = _frozen_array(self.point, ndim=1, name="point")
        se = _frozen_array(self.se, ndim=1, name="se")
        lo = _frozen_array(self.ci_lower, ndim=1, name="ci_lower")
        hi = _frozen_array(self.ci_upper, ndim=1, name="ci_upper")
        m = point.shape[0]
        if not (loc.shape[0] == se.shape[0] == lo.shape[0] == hi.shape[0] == m):
            raise ShapeMismatch("band components must share one length")
        if np.any(se < 0.0):
            raise ShapeMismatch("standard errors must be non-negative")
        if np.any(lo > point) or np.any(point > hi):
            raise ShapeMismatch("band must bracket the point estimate")
        for name, arr in ("locations", loc), ("point", point), ("se", se), ("ci_lower", lo), ("ci_upper", hi):
            object.__setattr__(self, name, arr)


def validate_experiment(data: ExperimentData, grid: LocationGrid | None = None) -> ArmStats:
    """Return the per-arm counts and shares of an experiment.

    Both arguments check their invariants when they are built, so there is
    nothing left to check here: ``data`` raised TooFewUnits, NonFiniteValue
    or EmptyArm at construction, and ``grid`` enforced order and finiteness
    itself. The stats returned are the ones ``data`` carries.
    """
    return data.stats


def indicator_labels(data: ExperimentData, grid: LocationGrid) -> np.ndarray:
    """Bool matrix 1{Y_i <= y_j}, one row per unit, one column per location.

    Bool holds an eighth of float64's bytes, and its 0/1 values convert to
    float exactly, so arithmetic with float operands rounds as it would on
    float labels.
    """
    return data.outcomes[:, None] <= grid.locations[None, :]
