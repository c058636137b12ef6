"""Synthetic benchmark: data generating process, ground truth, and the
Monte Carlo study comparing adjusted estimators against the empirical CDF.

The outcome of the generating process is a squared sum of uniform covariates
plus standard normal noise. The last two covariates only enter for treated
units, so treatment shifts outcomes upward and the treated-minus-control DTE
is negative everywhere, largest in magnitude near the middle of the
distribution.

:func:`run_study` runs its replications through :func:`~dtekit.core._fan_out`:
on T forked processes, T the CPUs the process may use and at most one per
replication, each running a contiguous run of replications. Every
replication derives its own seeds, so the report is bit-identical at any T.
A replication's fits do not fork again.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import core
from .core import ConditionalCdfMatrix, ExperimentData, LocationGrid, _integer, derive_seed
from .errors import DuplicateLocation, ShapeMismatch
from .estimation import (
    adjusted_cdf,
    crossfit_gamma,
    dte,
    empirical_cdf,
    make_folds,
    quantile_grid,
)
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

TREATED_ARM = 2
CONTROL_ARM = 1


@dataclass(frozen=True)
class DgpConfig:
    """Generating process settings.

    Covariates are i.i.d. uniform on (0, 1). The outcome is
    (sum of the first d-2 covariates + W * sum of the last 2)^2 + noise,
    with W the Bernoulli treatment indicator mapped to arms {1, 2}.
    """

    n_units: int
    seed: int = 0
    n_covariates: int = 20
    treat_prob: float = 0.5
    noise_sd: float = 1.0

    def __post_init__(self):
        for name in ("n_units", "seed", "n_covariates"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n_units < 1:
            raise ValueError("n_units must be positive")
        if self.n_covariates < 3:
            raise ValueError("the generating process needs at least 3 covariates")
        if not (0.0 < self.treat_prob < 1.0):
            raise ValueError("treat_prob must lie strictly inside (0, 1)")
        if self.noise_sd < 0.0:
            raise ValueError("noise_sd must be non-negative")


def _draw(config: DgpConfig, n: int, rng: np.random.Generator):
    x = rng.random((n, config.n_covariates))
    w = rng.binomial(1, config.treat_prob, size=n)
    base = x[:, : config.n_covariates - 2].sum(axis=1)
    extra = x[:, config.n_covariates - 2:].sum(axis=1)
    y = np.square(base + w * extra) + config.noise_sd * rng.standard_normal(n)
    return x, w, y


def generate(config: DgpConfig) -> ExperimentData:
    """One experiment draw; control units land in arm 1, treated in arm 2."""
    rng = np.random.default_rng(config.seed)
    x, w, y = _draw(config, config.n_units, rng)
    return ExperimentData(covariates=x, arms=w + 1, outcomes=y, n_arms=2)


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

    The grid is fixed at pooled-sample quantiles of the same draw (or at the
    explicit ``locations`` when given), so the truth and every replication
    are evaluated at identical outcome values. With a cache directory the
    draw is computed once per configuration.
    """
    if _integer(n_oracle, "n_oracle") < 1:
        raise ValueError("n_oracle must be positive")
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
        _, w, y = _draw(config, size, rng)
        ys.append(y)
        ws.append(w)
    y = np.concatenate(ys)
    w = np.concatenate(ws)

    if locations is not None:
        grid = LocationGrid(locations=marks)
    else:
        cuts = np.quantile(y, marks, method="inverted_cdf")
        if np.any(np.diff(cuts) <= 0):
            raise DuplicateLocation("oracle quantiles collide; thin the probability list")
        grid = LocationGrid(locations=cuts)
    treated = np.sort(y[w == 1])
    control = np.sort(y[w == 0])
    f_treated = np.searchsorted(treated, grid.locations, side="right") / treated.size
    f_control = np.searchsorted(control, grid.locations, side="right") / control.size
    truth = f_treated - f_control

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


def _replicate(args) -> tuple[int, dict]:
    """One replication: shared data and folds, every method on the same draw."""
    (config, master_seed, rep, methods, locations, truth, n_folds) = args
    grid = LocationGrid(locations)
    data = generate(replace(config, seed=derive_seed(master_seed, _DATA_TAG, rep)))
    plan = make_folds(data.n_units, n_folds, derive_seed(master_seed, _FOLD_TAG, rep))
    out = {}
    for index, (name, kind) in enumerate(methods):
        if kind is None:
            t0 = time.perf_counter()
            estimate = empirical_cdf(data, grid)
            elapsed = time.perf_counter() - t0
        else:
            seeded = kind.with_seed(derive_seed(master_seed, _TRAIN_TAG, rep, index))
            t0 = time.perf_counter()
            gamma = crossfit_gamma(data, grid, seeded, plan)
            elapsed = time.perf_counter() - t0
            estimate = adjusted_cdf(data, grid, gamma, method=kind.kind)
        effect = dte(estimate, TREATED_ARM, CONTROL_ARM)
        out[name] = (effect - truth, elapsed)
    return rep, out


def _replicate_all(tasks: list) -> list[tuple[int, dict]]:
    return [_replicate(task) for task in tasks]


def run_study(
    config: DgpConfig,
    methods: dict[str, LearnerKind | None],
    n_reps: int,
    n_folds: int = 2,
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
    if _integer(n_reps, "n_reps") < 1:
        raise ValueError("n_reps must be positive")
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

    tasks = [
        (config, config.seed, rep, entries, grid.locations, truth, n_folds)
        for rep in range(n_reps)
    ]
    for rep, per_method in core._fan_out(_replicate_all, tasks):
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
