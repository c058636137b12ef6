"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed in ``prepare``, runs one
operation of the program in ``op``, and judges that operation's output twice:
``validate`` checks its content, ``canonical`` gives the bytes that must repeat
exactly from op to op. ``corrupt`` damages an output on purpose, so the
self-test can show that a wrong output is counted as a failure.

Every call into dtekit goes through a module attribute (``estimation.fit_adjusted``,
not a name imported from it), so the tracer can wrap it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import multiprocessing
from pathlib import Path

import numpy as np

from dtekit import cli, core, estimation, simulation
from dtekit.learners import LearnerKind
from dtekit.nn import TrainConfig

HIDDEN = (128, 64)
EPOCHS = 30

# "tiny" keeps the self-test to seconds; "full" is what the benchmark measures.
SIZES = {
    "full": {
        "band-linear": {"n_units": 20_000, "n_draws": 2000},
        "study-monotone": {"n_units": 1000, "n_oracle": 1_000_000, "epochs": EPOCHS},
        "crossfit-nn-single": {"n_units": 1000, "epochs": EPOCHS},
    },
    "tiny": {
        "band-linear": {"n_units": 2000, "n_draws": 1000},
        "study-monotone": {"n_units": 200, "n_oracle": 20_000, "epochs": 2},
        "crossfit-nn-single": {"n_units": 200, "epochs": 2},
    },
}


def draw_experiment(seed: int, n_units: int, n_covariates: int = 20):
    """The paper's design: (sum of the first d-2 covariates + treated * sum of the
    last 2)^2 plus standard normal noise, covariates uniform, treatment w.p. 1/2."""
    rng = np.random.default_rng(seed)
    x = rng.random((n_units, n_covariates))
    treated = rng.random(n_units) < 0.5
    base = x[:, :-2].sum(axis=1)
    extra = x[:, -2:].sum(axis=1)
    y = np.square(base + treated * extra) + rng.standard_normal(n_units)
    return x, treated, y


def _psi(labels, arms, gamma, theta):
    """Influence values (arm, unit, location), written out from the paper's formula.

    psi = 1{W = w} (1{Y <= y} - gamma_w) / share_w + gamma_w - theta_w.
    """
    n = arms.shape[0]
    out = np.empty(gamma.shape)
    for w in (1, 2):
        own = (arms == w)[:, None]
        share = own.sum() / n
        out[w - 1] = own * (labels - gamma[w - 1]) / share + gamma[w - 1] - theta[w - 1]
    return out


class BandLinear:
    """``dtekit bootstrap-band`` on an analyst-sized CSV, in process."""

    name = "band-linear"
    files = ("band_empirical.csv", "band_linear.csv", "se_reduction.csv")
    se_tolerance = 0.10

    def __init__(self, n_units: int, n_draws: int):
        self.n_units = n_units
        self.n_draws = n_draws
        self._closed_form = None

    def prepare(self, seed: int, workdir: Path) -> None:
        x, treated, y = draw_experiment(seed, self.n_units)
        self.x, self.y = x, y
        self.arms = np.where(treated, 2, 1)
        self.csv = workdir / "experiment.csv"
        self.out = workdir / "band-out"
        header = ",".join([*(f"x{j + 1}" for j in range(x.shape[1])), "arm", "outcome"])
        row = ",".join(["%.17g"] * x.shape[1]) + ",%s,%.17g\n"
        with open(self.csv, "w") as handle:
            handle.write(header + "\n")
            for xi, label, yi in zip(x, np.where(treated, "treated", "control"), y):
                handle.write(row % (*xi, label, yi))

    def op(self) -> Path:
        argv = [
            "bootstrap-band", "--input", str(self.csv), "--learner", "linear",
            "--B", str(self.n_draws), "--functional", "dte", "--out", str(self.out),
        ]
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"dtekit bootstrap-band exited {code}: {log.getvalue().strip()}")
        return self.out

    def canonical(self, out: Path) -> dict:
        return {name: (out / name).read_bytes() for name in self.files}

    def _reference(self, locations: np.ndarray) -> dict:
        """Point DTE and closed-form SE sqrt(sum psi^2) / n for both bands."""
        if self._closed_form is not None and np.array_equal(self._closed_form[0], locations):
            return self._closed_form[1]
        n = self.n_units
        labels = (self.y[:, None] <= locations[None, :]).astype(float)
        empirical_theta = np.stack([labels[self.arms == w].mean(axis=0) for w in (1, 2)])
        data = core.ExperimentData(covariates=self.x, arms=self.arms, outcomes=self.y, n_arms=2)
        grid = core.LocationGrid(locations)
        # the CLI's defaults: seed 0, two folds, ridge learner
        plan = estimation.make_folds(n, 2, 0)
        gamma = estimation.crossfit_gamma(data, grid, LearnerKind("linear"), plan).predictions
        linear_theta = np.stack([
            (labels[self.arms == w] - gamma[w - 1, self.arms == w]).mean(axis=0)
            + gamma[w - 1].mean(axis=0)
            for w in (1, 2)
        ])
        reference = {}
        for band, theta, g in (
            ("band_empirical.csv", empirical_theta, np.zeros_like(gamma)),
            ("band_linear.csv", linear_theta, gamma),
        ):
            psi = _psi(labels, self.arms, g, theta)
            contrast = psi[1] - psi[0]
            reference[band] = (theta[1] - theta[0], np.sqrt(np.square(contrast).sum(axis=0)) / n)
        self._closed_form = (locations, reference)
        return reference

    def validate(self, out: Path) -> list[str]:
        tables = {
            band: np.loadtxt(out / band, delimiter=",", skiprows=1, ndmin=2)
            for band in ("band_empirical.csv", "band_linear.csv")
        }
        locations = tables["band_empirical.csv"][:, 0]
        problems = []
        if not np.array_equal(tables["band_linear.csv"][:, 0], locations):
            problems.append("the two bands use different locations")
            return problems
        for band, (point, closed) in self._reference(locations).items():
            table = tables[band]
            if not np.allclose(table[:, 1], point, rtol=0.0, atol=1e-9):
                problems.append(f"{band}: point DTE differs from the recomputed estimate")
            ratio = table[:, 2] / closed
            if not np.all(np.abs(ratio - 1.0) <= self.se_tolerance):
                worst = float(np.max(np.abs(ratio - 1.0)))
                problems.append(f"{band}: bootstrap SE off the closed form by {worst:.3f}")
        return problems

    def corrupt(self, out: Path) -> Path:
        """Double the SE column of the adjusted band."""
        path = out / "band_linear.csv"
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        table[:, 2] *= 2.0
        np.savetxt(path, table, delimiter=",", fmt="%.17g", header="location,point,se,ci_lo,ci_hi", comments="")
        return out


class StudyMonotone:
    """One replication of the Monte Carlo study, linear against the monotone network."""

    name = "study-monotone"

    def __init__(self, n_units: int, n_oracle: int, epochs: int):
        self.n_units = n_units
        self.n_oracle = n_oracle
        self.methods = {
            "linear": LearnerKind("linear"),
            "nn-multi-monotone": LearnerKind(
                "nn-multi-monotone", hidden=HIDDEN, train=TrainConfig(epochs=epochs)
            ),
        }
        # eight standard errors of an empirical DTE at the median
        self.error_bound = 8.0 / np.sqrt(n_units)

    def prepare(self, seed: int, workdir: Path) -> None:
        """Warm the oracle cache in a forked child.

        The oracle draw needs far more memory than an op, so it runs outside
        the measured process and its peak resident memory reflects the ops.
        The ops then only load the cached file.
        """
        self.config = simulation.DgpConfig(n_units=self.n_units, seed=seed)
        self.cache = workdir / "oracle-cache"
        child = multiprocessing.get_context("fork").Process(
            target=simulation.oracle_dte, args=(self.config,),
            kwargs={"n_oracle": self.n_oracle, "cache_dir": self.cache},
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"oracle warm-up exited with code {child.exitcode}")

    def op(self):
        return simulation.run_study(
            self.config, self.methods, n_reps=1, n_folds=2,
            n_oracle=self.n_oracle, cache_dir=self.cache,
        )

    def canonical(self, report) -> dict:
        out = {"locations": report.locations.tobytes()}
        for name in report.methods:
            for field in ("bias", "bias_mc_se", "mse", "reduction_pct"):
                out[f"{name}.{field}"] = np.asarray(getattr(report, field)[name]).tobytes()
        return out

    def validate(self, report) -> list[str]:
        problems = []
        for name in report.methods:
            error = np.asarray(report.bias[name])
            if not np.all(np.isfinite(error)):
                problems.append(f"{name}: DTE error is not finite")
            elif np.max(np.abs(error)) > self.error_bound:
                problems.append(
                    f"{name}: DTE error {np.max(np.abs(error)):.3f} exceeds {self.error_bound:.3f}"
                )
        return problems

    def corrupt(self, report):
        """Shift one method's error by a whole unit of probability."""
        name = report.methods[-1]
        return dataclasses.replace(report, bias={**report.bias, name: report.bias[name] + 1.0})


class CrossfitNnSingle:
    """Cross-fitting with one small network per (arm, fold, location)."""

    name = "crossfit-nn-single"
    probs = (0.1, 0.3, 0.5, 0.7, 0.9)

    def __init__(self, n_units: int, epochs: int):
        self.n_units = n_units
        self.epochs = epochs

    def prepare(self, seed: int, workdir: Path) -> None:
        x, treated, y = draw_experiment(seed, self.n_units)
        self.data = core.ExperimentData(covariates=x, arms=np.where(treated, 2, 1), outcomes=y, n_arms=2)
        self.grid = estimation.quantile_grid(self.data, self.probs)
        self.kind = LearnerKind("nn-single", hidden=HIDDEN, train=TrainConfig(epochs=self.epochs, seed=seed))

    def op(self):
        return estimation.fit_adjusted(self.data, self.grid, self.kind)

    def canonical(self, adjusted) -> dict:
        return {
            "predictions": adjusted.gamma.predictions.tobytes(),
            "estimate": adjusted.estimate.values.tobytes(),
        }

    def validate(self, adjusted) -> list[str]:
        preds = adjusted.gamma.predictions
        if not np.all(np.isfinite(preds)):
            return ["predictions are not finite"]
        if preds.min() < 0.0 or preds.max() > 1.0:
            return [f"predictions leave [0, 1]: [{preds.min():.4g}, {preds.max():.4g}]"]
        return []

    def corrupt(self, adjusted):
        """Push one prediction above 1."""
        preds = np.array(adjusted.gamma.predictions)
        preds[0, 0, 0] = 1.5
        gamma = core.ConditionalCdfMatrix(predictions=preds, fold_assignment=adjusted.gamma.fold_assignment)
        return dataclasses.replace(adjusted, gamma=gamma)


WORKLOADS = {cls.name: cls for cls in (BandLinear, StudyMonotone, CrossfitNnSingle)}


def build(name: str, size: str = "full"):
    return WORKLOADS[name](**SIZES[size][name])
