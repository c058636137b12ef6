"""Synthetic benchmark: data generating process, ground truth, and the
Monte Carlo study comparing adjusted estimators against the empirical CDF.

The outcome of the generating process is a squared sum of uniform covariates
plus standard normal noise. The last two covariates only enter for treated
units, so treatment shifts outcomes upward and the treated-minus-control DTE
is negative everywhere, largest in magnitude near the middle of the
distribution.

The ground truth is the empirical DTE of one large independent draw,
computed by :mod:`~dtekit.estimation` as for any experiment, and every
replication fits its methods through
:func:`~dtekit.estimation.fit_adjusted`, so this module keeps no estimator
of its own.

:func:`run_study` runs its replications through :func:`~dtekit.core._fan_out`:
on T forked processes, T the CPUs the process may use and at most one per
replication, each running a contiguous run of replications. Every
replication derives its own seeds, so the report is bit-identical at any T.
A replication's fits do not fork again.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import core
from .core import ConditionalCdfMatrix, ExperimentData, LocationGrid, _integer, _seed, derive_seed
from .errors import ShapeMismatch
from .estimation import _DEFAULT_FOLDS, dte, empirical_cdf, fit_adjusted, make_folds, quantile_grid
from .learners import LearnerKind

__all__ = [
    "DgpConfig",
    "SimulationReport",
    "ClassificationMetrics",
    "generate",
    "oracle_dte",
    "run_study",
    "classification_metrics",
]

DEFAULT_ORACLE_UNITS = 100_000
DEFAULT_QUANTILES = tuple(np.round(np.linspace(0.05, 0.95, 19), 2))

_ORACLE_TAG = 11
_DATA_TAG = 22
_FOLD_TAG = 33
_TRAIN_TAG = 44
_ORACLE_CHUNK = 200_000
# the paper's design: 18 covariates in every outcome, 2 more in treated ones
_N_COVARIATES = 20
_TREAT_PROB = 0.5

TREATED_ARM = 2
CONTROL_ARM = 1


@dataclass(frozen=True)
class DgpConfig:
    """Study size and seed of one draw from the paper's synthetic design.

    The design is fixed: 20 covariates i.i.d. uniform on (0, 1), a fair-coin
    treatment indicator W mapped to arms {1, 2}, and the outcome
    (sum of the first 18 covariates + W * sum of the last 2)^2 + N(0, 1) noise.
    """

    n_units: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_units", _integer(self.n_units, "n_units"))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.n_units < 2:
            raise ValueError(f"n_units must be at least 2, got {self.n_units}")


def _draw(n: int, rng: np.random.Generator):
    """Covariates, then treatment indicators, then noise, from one stream."""
    x = rng.random((n, _N_COVARIATES))
    w = rng.binomial(1, _TREAT_PROB, size=n)
    base = x[:, :-2].sum(axis=1)
    extra = x[:, -2:].sum(axis=1)
    y = np.square(base + w * extra) + rng.standard_normal(n)
    return x, w, y


def generate(config: DgpConfig) -> ExperimentData:
    """One experiment draw; control units land in arm 1, treated in arm 2."""
    rng = np.random.default_rng(config.seed)
    x, w, y = _draw(config.n_units, rng)
    return ExperimentData(covariates=x, arms=w + 1, outcomes=y, n_arms=2)


def _check_study_settings(n_oracle: int, n_reps: int = 1) -> None:
    """Reject study sizes no draw can satisfy, before anything is drawn or written.

    The oracle draw is an experiment of its own, and one unit can never fill
    both arms of an :class:`~dtekit.core.ExperimentData`.
    """
    if _integer(n_reps, "n_reps") < 1:
        raise ValueError(f"n_reps must be positive, got {n_reps}")
    if _integer(n_oracle, "n_oracle") < 2:
        raise ValueError(f"n_oracle must be at least 2, got {n_oracle}")


def _oracle_cache_key(config: DgpConfig, marks: np.ndarray, kind: str, n_oracle: int) -> str:
    payload = repr((config, kind, tuple(np.asarray(marks, dtype=float)), int(n_oracle)))
    return hashlib.blake2s(payload.encode(), digest_size=8).hexdigest()


def oracle_dte(
    config: DgpConfig,
    probs=DEFAULT_QUANTILES,
    n_oracle: int = DEFAULT_ORACLE_UNITS,
    cache_dir: str | Path | None = None,
    locations=None,
) -> tuple[LocationGrid, np.ndarray]:
    """Ground-truth treated-minus-control DTE from one large independent draw.

    The truth is the empirical DTE of that draw: its outcomes and arms form
    one covariate-free :class:`~dtekit.core.ExperimentData`, evaluated by
    :func:`~dtekit.estimation.empirical_cdf` and
    :func:`~dtekit.estimation.dte`. The grid is fixed at the draw's
    pooled-sample quantiles, by :func:`~dtekit.estimation.quantile_grid`
    (or at the explicit ``locations`` when given), so the truth and every
    replication are evaluated at identical outcome values. With a cache
    directory the draw is computed once per configuration.
    """
    _check_study_settings(n_oracle)
    if locations is not None:
        marks, mark_kind = np.asarray(locations, dtype=float), "locations"
    else:
        marks, mark_kind = np.asarray(probs, dtype=float), "probs"
    cache_file = None
    if cache_dir is not None:
        key = _oracle_cache_key(config, marks, mark_kind, n_oracle)
        cache_file = Path(cache_dir) / f"oracle-{key}.npz"
        if cache_file.exists():
            payload = np.load(cache_file)
            return LocationGrid(payload["locations"]), payload["truth"]

    # outcomes and assignments only; covariates are discarded chunk by chunk
    ys, ws = [], []
    n_chunks = (n_oracle + _ORACLE_CHUNK - 1) // _ORACLE_CHUNK
    remaining = n_oracle
    for chunk in range(n_chunks):
        size = min(_ORACLE_CHUNK, remaining)
        remaining -= size
        rng = np.random.default_rng(derive_seed(config.seed, _ORACLE_TAG, chunk))
        _, w, y = _draw(size, rng)
        ys.append(y)
        ws.append(w)
    y = np.concatenate(ys)
    data = ExperimentData(
        covariates=np.empty((y.size, 0)), arms=np.concatenate(ws) + 1, outcomes=y, n_arms=2
    )
    grid = LocationGrid(marks) if locations is not None else quantile_grid(data, marks)
    truth = dte(empirical_cdf(data, grid), TREATED_ARM, CONTROL_ARM)

    if cache_file is not None:
        _write_atomically(cache_file, locations=grid.locations, truth=truth)
    return grid, truth


def _write_atomically(path: Path, **arrays) -> None:
    """``np.savez`` to a temporary file beside ``path``, then rename it over ``path``.

    A write that fails part way leaves no file at ``path``, so a later run
    never loads a truncated cache.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        # a file handle keeps np.savez from appending ".npz" to the name
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


@dataclass(frozen=True)
class SimulationReport:
    """Per-location error summaries for every method, against the oracle DTE."""

    locations: np.ndarray
    probs: np.ndarray
    methods: tuple[str, ...]
    bias: dict
    bias_mc_se: dict
    mse: dict
    reduction_pct: dict
    fit_seconds: dict
    n_reps: int
    n_units: int
    n_folds: int
    seed: int
    n_oracle: int


def _replicate(
    config: DgpConfig,
    methods: list[tuple[str, LearnerKind | None]],
    grid: LocationGrid,
    truth: np.ndarray,
    n_folds: int,
    reps: list[int],
) -> list[dict]:
    """Replications ``reps``: each one's DTE error and fit seconds by method name.

    Within a replication every method sees the same data and folds; each
    replication derives its seeds from ``config.seed`` and its index.
    """
    out = []
    for rep in reps:
        data = generate(replace(config, seed=derive_seed(config.seed, _DATA_TAG, rep)))
        plan = make_folds(data.n_units, n_folds, derive_seed(config.seed, _FOLD_TAG, rep))
        per_method = {}
        for index, (name, kind) in enumerate(methods):
            t0 = time.perf_counter()
            if kind is None:
                estimate = empirical_cdf(data, grid)
            else:
                seeded = kind.with_seed(derive_seed(config.seed, _TRAIN_TAG, rep, index))
                estimate = fit_adjusted(data, grid, seeded, plan).estimate
            elapsed = time.perf_counter() - t0
            per_method[name] = (dte(estimate, TREATED_ARM, CONTROL_ARM) - truth, elapsed)
        out.append(per_method)
    return out


def run_study(
    config: DgpConfig,
    methods: dict[str, LearnerKind | None],
    n_reps: int,
    n_folds: int = _DEFAULT_FOLDS,
    probs=DEFAULT_QUANTILES,
    n_oracle: int = DEFAULT_ORACLE_UNITS,
    cache_dir: str | Path | None = None,
    locations=None,
) -> SimulationReport:
    """Monte Carlo comparison of estimators on the synthetic benchmark.

    ``methods`` maps a display name to a LearnerKind, or to None for the
    unadjusted empirical estimator. The empirical method is always included
    because it is the baseline of the MSE-reduction column. All methods see
    identical data and folds within a replication; every replication derives
    its own seeds from ``config.seed``, so the report does not depend on how
    many processes the replications fan out over (see the module docstring).
    """
    _check_study_settings(n_oracle, n_reps)
    entries: list[tuple[str, LearnerKind | None]] = []
    if not any(k is None for k in methods.values()):
        entries.append(("empirical", None))
    entries.extend(methods.items())
    names = tuple(name for name, _ in entries)
    if len(set(names)) != len(names):
        raise ValueError("method names must be unique")
    baseline = next(name for name, kind in entries if kind is None)

    grid, truth = oracle_dte(config, probs, n_oracle, cache_dir, locations=locations)
    m = grid.n_locations
    errors = {name: np.empty((n_reps, m)) for name in names}
    seconds = {name: 0.0 for name in names}

    replicate = functools.partial(_replicate, config, entries, grid, truth, n_folds)
    for rep, per_method in enumerate(core._fan_out(replicate, list(range(n_reps)))):
        for name, (err, elapsed) in per_method.items():
            errors[name][rep] = err
            seconds[name] += elapsed

    mse = {name: np.mean(np.square(err), axis=0) for name, err in errors.items()}
    # a single replication leaves the Monte Carlo SE undefined
    mc_se = {
        name: err.std(axis=0, ddof=1) / np.sqrt(n_reps) if n_reps > 1 else np.full(m, np.nan)
        for name, err in errors.items()
    }
    report = SimulationReport(
        locations=grid.locations,
        probs=np.asarray([] if locations is not None else probs, dtype=float),
        methods=names,
        bias={name: err.mean(axis=0) for name, err in errors.items()},
        bias_mc_se=mc_se,
        mse=mse,
        reduction_pct={
            name: 100.0 * (1.0 - mse[name] / mse[baseline]) for name in names
        },
        fit_seconds={name: seconds[name] / n_reps for name in names},
        n_reps=n_reps,
        n_units=config.n_units,
        n_folds=n_folds,
        seed=config.seed,
        n_oracle=n_oracle,
    )
    return report


@dataclass(frozen=True)
class ClassificationMetrics:
    """Pooled binary classification quality of cross-fitted predictions."""

    accuracy: float
    precision: float
    recall: float
    n_evaluated: int


def classification_metrics(
    gamma: ConditionalCdfMatrix,
    labels: np.ndarray,
    arms: np.ndarray,
) -> ClassificationMetrics:
    """Score predictions at threshold 0.5 against the indicator labels.

    Each arm's model is scored on its own arm's units only, pooled over all
    locations. Predictions exactly at 0.5 count as positive. A precision of
    0.0 is reported when nothing is predicted positive.
    """
    labels = np.asarray(labels)
    arms = np.asarray(arms, dtype=int)
    k, n, m = gamma.predictions.shape
    if labels.shape != (n, m) or arms.shape != (n,):
        raise ShapeMismatch("labels and arms must match the prediction layout")
    tp = fp = tn = fn = 0
    for w in range(1, k + 1):
        own = arms == w
        pred = gamma.predictions[w - 1, own] >= 0.5
        truth = labels[own] >= 0.5
        tp += int(np.sum(pred & truth))
        fp += int(np.sum(pred & ~truth))
        tn += int(np.sum(~pred & ~truth))
        fn += int(np.sum(~pred & truth))
    total = tp + fp + tn + fn
    return ClassificationMetrics(
        accuracy=(tp + tn) / total if total else 0.0,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        n_evaluated=total,
    )
