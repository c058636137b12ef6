"""Acceptance suite: one test per release bar, end to end.

Each test prints a single ``[ACCEPT-NN]`` verdict line (shown with ``-rA`` or
on failure) and asserts the bar it names. The two Monte Carlo studies dominate
the runtime and are module-scoped so each runs exactly once.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dtekit.cli import main
from dtekit.core import ConditionalCdfMatrix, ExperimentData, LocationGrid, validate_experiment
from dtekit.estimation import adjusted_cdf, empirical_cdf, quantile_grid
from dtekit.inference import bootstrap_band, multipliers
from dtekit.learners import LearnerKind, fit
from dtekit.nn import LayerSpec, NetworkState, TrainConfig, backward, bce_loss, forward, init_network
from dtekit.simulation import DEFAULT_QUANTILES, DgpConfig, oracle_dte, run_study

N_UNITS = 1000
PROFILE = TrainConfig(learning_rate=0.01, batch_size=16, epochs=30, seed=0)


def _accept(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPT-{num:02d}] {name}: {verdict} ({detail})")
    assert ok, f"[ACCEPT-{num:02d}] {name}: {verdict} ({detail})"


def profile_kind(kind: str) -> LearnerKind:
    return LearnerKind(kind, hidden=(128, 64), train=PROFILE)


@pytest.fixture(scope="module")
def oracle_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle-cache")


@pytest.fixture(scope="module")
def bias_study(oracle_cache):
    """200 replications of the monotone network alone, for the bias bar."""
    return run_study(
        DgpConfig(n_units=N_UNITS, seed=11),
        {"nn-multi-monotone": profile_kind("nn-multi-monotone")},
        n_reps=200,
        n_folds=2,
        n_oracle=4_000_000,
        cache_dir=oracle_cache,
    )


@pytest.fixture(scope="module")
def reduction_study(oracle_cache):
    """100 replications comparing every adjusted method on the benchmark."""
    methods = {
        "linear": profile_kind("linear"),
        "nn-multi": profile_kind("nn-multi"),
        "nn-multi-monotone": profile_kind("nn-multi-monotone"),
    }
    return run_study(
        DgpConfig(n_units=N_UNITS, seed=7),
        methods,
        n_reps=100,
        n_folds=2,
        n_oracle=4_000_000,
        cache_dir=oracle_cache,
    )


def test_accept_01_constant_adjustment_equals_empirical_cdf():
    rng = np.random.default_rng(101)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(4 * k, 201))
        # a fixed prefix guarantees every declared arm is populated
        arms = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)])
        data = ExperimentData(
            covariates=rng.random((n, int(rng.integers(1, 6)))),
            arms=arms,
            outcomes=rng.normal(size=n),
        )
        grid = LocationGrid(locations=np.unique(np.round(rng.normal(size=int(rng.integers(1, 6))), 6)))
        constant = float(rng.uniform(-2.0, 3.0))
        gamma = ConditionalCdfMatrix(
            predictions=np.full((k, n, grid.n_locations), constant),
            fold_assignment=np.ones(n, dtype=int),
        )
        diff = adjusted_cdf(data, grid, gamma).values - empirical_cdf(data, grid).values
        worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - t0
    _accept(
        1,
        "constant adjustment collapses to the empirical CDF",
        worst < 1e-12 and elapsed < 1.0,
        f"max |difference| {worst:.2e} over 100 datasets, {elapsed:.2f}s",
    )


def _randomized(state: NetworkState, rng: np.random.Generator) -> NetworkState:
    """A parameter state well away from the initializer's scale."""
    weights = tuple(
        w * rng.uniform(0.5, 3.0) + rng.normal(scale=0.1, size=w.shape) for w in state.weights
    )
    biases = tuple(rng.normal(scale=1.5, size=b.shape) for b in state.biases)
    return dataclasses.replace(state, weights=weights, biases=biases)


def test_accept_02_monotone_head_rows_never_decrease():
    rng = np.random.default_rng(202)
    combos = (("exp", "arctan"), ("softplus", "arctan"), ("exp", "tanh-half"), ("softplus", "tanh-half"))
    violations = 0
    t0 = time.perf_counter()
    for index in range(1000):
        transform, squash = combos[index % 4]
        d = int(rng.integers(1, 8))
        hidden = (int(rng.integers(2, 12)),) if index % 3 else (int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        m = int(rng.integers(2, 12))
        spec = LayerSpec(
            widths=(d, *hidden, m),
            hidden_activation="relu" if index % 2 else "sigmoid",
            head="monotone",
            transform=transform,
            squash=squash,
        )
        state = _randomized(init_network(spec, seed=index), rng)
        out = forward(state, spec, rng.normal(scale=2.0, size=(100, d)))
        violations += int(np.sum(np.diff(out, axis=1) < 0.0))
    elapsed = time.perf_counter() - t0
    _accept(
        2,
        "monotone head output rows are non-decreasing",
        violations == 0 and elapsed < 5.0,
        f"{violations} violations over 1000 states x 100 inputs, {elapsed:.2f}s",
    )


def _entry_loss(state, spec, x, target, group: str, layer: int, index, value: float) -> float:
    arrays = list(getattr(state, group))
    bumped = arrays[layer].copy()
    bumped[index] = value
    arrays[layer] = bumped
    return bce_loss(forward(dataclasses.replace(state, **{group: tuple(arrays)}), spec, x), target)


def _finite_difference(state, spec, x, target, h: float = 1e-6):
    grads = {"weights": [], "biases": []}
    for group, out in grads.items():
        for layer, arr in enumerate(getattr(state, group)):
            g = np.empty_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for value in it:
                idx = it.multi_index
                up = _entry_loss(state, spec, x, target, group, layer, idx, float(value) + h)
                down = _entry_loss(state, spec, x, target, group, layer, idx, float(value) - h)
                g[idx] = (up - down) / (2.0 * h)
            out.append(g)
    return grads["weights"], grads["biases"]


def _max_rel_err(exact, approx) -> float:
    worst = 0.0
    for a, b in zip(exact, approx):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def test_accept_03_backprop_matches_finite_differences():
    rng = np.random.default_rng(303)
    worst = 0.0
    t0 = time.perf_counter()
    for index in range(20):
        d = int(rng.integers(2, 7))
        h = int(rng.integers(3, 9))
        m = int(rng.integers(2, 7))
        spec = LayerSpec(
            widths=(d, h, m),
            hidden_activation="relu" if index % 4 < 2 else "sigmoid",
            head="sigmoid" if index % 2 == 0 else "monotone",
            transform="exp" if index % 8 < 4 else "softplus",
            squash="arctan" if index < 10 else "tanh-half",
        )
        n_params = d * h + h + h * m + m
        assert n_params <= 200
        state = init_network(spec, seed=1000 + index)
        x = rng.normal(size=(6, d))
        target = rng.integers(0, 2, size=(6, m)).astype(float)
        grads = backward(state, spec, x, target)
        fd_w, fd_b = _finite_difference(state, spec, x, target)
        worst = max(worst, _max_rel_err(grads.weights, fd_w), _max_rel_err(grads.biases, fd_b))
    elapsed = time.perf_counter() - t0
    _accept(
        3,
        "backprop agrees with central finite differences",
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.2e} over 20 networks, {elapsed:.2f}s",
    )


def test_accept_04_multiplier_moments():
    t0 = time.perf_counter()
    xi = multipliers(1_000_000, seed=404)
    elapsed = time.perf_counter() - t0
    mean = float(xi.mean())
    var = float(xi.var())
    _accept(
        4,
        "bootstrap multipliers have mean 0 and variance 1",
        abs(mean) < 0.005 and abs(var - 1.0) < 0.01 and elapsed < 2.0,
        f"mean {mean:+.4f}, variance {var:.4f} over 1e6 draws, {elapsed:.2f}s",
    )


def test_accept_05_bootstrap_se_matches_closed_form():
    rng = np.random.default_rng(505)
    n = 2000
    arms = np.repeat(np.array([1, 2]), n // 2)
    data = ExperimentData(
        covariates=rng.random((n, 2)),
        arms=arms,
        outcomes=rng.normal(size=n),
    )
    grid = quantile_grid(data, np.linspace(0.25, 0.75, 9))
    stats = validate_experiment(data, grid)
    estimate = empirical_cdf(data, grid)
    worst = 0.0
    compared = 0
    t0 = time.perf_counter()
    for arm in (1, 2):
        band = bootstrap_band(
            data, grid, estimate, kind="cdf", arm_pair=(arm, arm), n_draws=5000, seed=55 + arm
        )
        share = float(stats.shares[arm - 1])
        f = estimate.values[arm - 1]
        closed = np.sqrt((f / share - np.square(f)) / n)
        keep = (f >= 0.2) & (f <= 0.8)
        assert keep.sum() >= 6
        compared += int(keep.sum())
        worst = max(worst, float(np.max(np.abs(band.se[keep] / closed[keep] - 1.0))))
    elapsed = time.perf_counter() - t0
    _accept(
        5,
        "bootstrap SE of the empirical CDF matches the closed form",
        worst < 0.10 and elapsed < 30.0,
        f"max relative gap {worst:.3f} over {compared} (arm, location) cells, {elapsed:.1f}s",
    )


def test_accept_06_adjusted_estimator_is_unbiased(bias_study):
    t = bias_study.bias["nn-multi-monotone"] / bias_study.bias_mc_se["nn-multi-monotone"]
    worst = float(np.max(np.abs(t)))
    _accept(
        6,
        "monotone network estimator bias sits within 3 MC standard errors",
        worst <= 3.0,
        f"max |bias / mc se| {worst:.2f} across {t.size} quantiles, S={bias_study.n_reps}",
    )


def test_accept_07_mse_reduction_over_empirical(reduction_study):
    probs = np.asarray(reduction_study.probs)
    idx = [int(np.argmin(np.abs(probs - q))) for q in (0.25, 0.50, 0.75)]
    mono = reduction_study.reduction_pct["nn-multi-monotone"]
    linear = reduction_study.reduction_pct["linear"]
    quartiles = mono[idx]
    n_positive = int(np.sum(mono > 0.0))
    ok = bool(np.all(quartiles >= 30.0)) and n_positive >= 17 and float(linear[idx[1]]) >= 10.0
    _accept(
        7,
        "adjusted estimators cut MSE against the empirical baseline",
        ok,
        f"monotone at quartiles {np.round(quartiles, 1).tolist()}%, positive at "
        f"{n_positive}/{probs.size}, linear at median {linear[idx[1]]:.1f}%",
    )


def test_accept_08_method_ordering_with_mc_slack(reduction_study):
    medians = {
        name: float(np.median(reduction_study.reduction_pct[name]))
        for name in ("nn-multi-monotone", "nn-multi", "linear")
    }
    slack = 5.0
    ok = (
        medians["nn-multi-monotone"] >= medians["nn-multi"] - slack
        and medians["nn-multi"] >= medians["linear"] - slack
    )
    _accept(
        8,
        "median MSE reduction keeps the method ordering within 5 pp slack",
        ok,
        "monotone {nn-multi-monotone:.1f}%, multi {nn-multi:.1f}%, linear {linear:.1f}%".format(**medians),
    )


def test_accept_09_joint_fits_are_sublinear_in_outputs():
    rng = np.random.default_rng(909)
    n, d, m = 1000, 20, 19
    x = rng.random((n, d))
    y = x.sum(axis=1) + rng.standard_normal(n)
    cuts = np.quantile(y, np.linspace(0.05, 0.95, m))
    labels = (y[:, None] <= cuts[None, :]).astype(float)

    t0 = time.perf_counter()
    fit(profile_kind("nn-multi"), x, labels)
    nn_joint = time.perf_counter() - t0
    single = profile_kind("nn-single")
    t0 = time.perf_counter()
    for j in range(m):
        fit(single, x, labels[:, j : j + 1])
    nn_loop = time.perf_counter() - t0

    linear = LearnerKind("linear")

    def best_of(runs: int, task) -> float:
        best = np.inf
        for _ in range(runs):
            t0 = time.perf_counter()
            task()
            best = min(best, time.perf_counter() - t0)
        return best

    lin_joint = best_of(7, lambda: fit(linear, x, labels))
    lin_loop = best_of(7, lambda: [fit(linear, x, labels[:, j : j + 1]) for j in range(m)])

    ok = nn_joint <= 0.5 * nn_loop and lin_joint <= 0.3 * lin_loop
    _accept(
        9,
        "joint fits beat the per-location loop",
        ok,
        f"network {nn_joint:.2f}s vs loop {nn_loop:.2f}s (ratio {nn_joint / nn_loop:.2f}), "
        f"linear {lin_joint * 1e3:.1f}ms vs loop {lin_loop * 1e3:.1f}ms (ratio {lin_joint / lin_loop:.2f})",
    )


def test_accept_10_oracle_effect_is_negative_and_peaks_centrally():
    t0 = time.perf_counter()
    grid, truth = oracle_dte(DgpConfig(n_units=N_UNITS, seed=1010), DEFAULT_QUANTILES, n_oracle=100_000)
    elapsed = time.perf_counter() - t0
    all_negative = bool(np.all(truth < 0.0))
    peak = int(np.argmax(np.abs(truth)))
    central = range(6, 13)
    _accept(
        10,
        "oracle effect is negative everywhere and largest near the median",
        all_negative and peak in central and elapsed < 10.0,
        f"negative at {int(np.sum(truth < 0.0))}/{truth.size}, peak index {peak}, {elapsed:.1f}s",
    )


def _write_experiment_csv(path: Path, n: int = 60) -> None:
    rng = np.random.default_rng(777)
    arms = 1 + (np.arange(n) % 2)
    x = rng.random((n, 3))
    y = x.sum(axis=1) + 0.4 * (arms == 2) + 0.2 * rng.standard_normal(n)
    lines = ["arm,outcome,x1,x2,x3"]
    for i in range(n):
        lines.append(f"{arms[i]},{y[i]:.10f},{x[i, 0]:.10f},{x[i, 1]:.10f},{x[i, 2]:.10f}")
    path.write_text("\n".join(lines) + "\n")


def test_accept_11_manifest_replay_is_byte_identical(tmp_path):
    csv_path = tmp_path / "experiment.csv"
    _write_experiment_csv(csv_path)
    runs = [
        [
            "simulate", "--out", str(tmp_path / "sim-a"), "--n", "150", "--reps", "2",
            "--methods", "empirical,linear", "--n-oracle", "20000", "--seed", "5",
        ],
        [
            "bootstrap-band", "--input", str(csv_path), "--out", str(tmp_path / "band-a"),
            "--learner", "nn-multi-monotone", "--epochs", "2", "--hidden", "8",
            "--B", "500", "--grid", "probs=0.25,0.5,0.75", "--seed", "9",
        ],
    ]
    mismatches = []
    compared = 0
    for args in runs:
        assert main(args) == 0
        out_a = Path(args[args.index("--out") + 1])
        out_b = out_a.with_name(out_a.name.replace("-a", "-b"))
        assert main([args[0], "--from-manifest", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        for name in json.loads((out_a / "manifest.json").read_text())["outputs"]:
            compared += 1
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                mismatches.append(f"{args[0]}/{name}")
    _accept(
        11,
        "replaying a manifest reproduces every output byte for byte",
        not mismatches,
        f"{compared} files compared across {len(runs)} replays; mismatches: {mismatches or 'none'}",
    )
