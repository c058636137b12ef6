import inspect
import json
import multiprocessing
import os
import threading
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import dtekit.core as core
import dtekit.inference as inference
from dtekit.cli import main

from dtekit.core import (
    CdfEstimate,
    ConditionalCdfMatrix,
    EffectBand,
    ExperimentData,
)
from dtekit.errors import (
    DegenerateDraws,
    GridTooSmall,
    SameArm,
    ShapeMismatch,
    ZeroBaselineSE,
)
from dtekit.estimation import (
    AdjustedEstimate,
    dte,
    empirical_cdf,
    fit_adjusted,
    make_folds,
    pte,
    quantile_grid,
)
from dtekit.inference import (
    BootstrapDraws,
    InfluenceMatrix,
    bootstrap_band,
    bootstrap_bands,
    bootstrap_draws,
    influence,
    multiplier_transform,
    multipliers,
    se_reduction,
)
from dtekit.learners import LearnerKind

from conftest import grid_of, make_experiment


class TestInfluence:
    def test_single_arm_reduces_to_centered_indicator(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        data = ExperimentData(
            covariates=np.zeros((4, 1)), arms=np.ones(4, dtype=np.int64), outcomes=y
        )
        grid = grid_of(2.5)
        theta = empirical_cdf(data, grid)
        psi = influence(data, grid, theta)
        expected = (y <= 2.5).astype(float) - 0.5
        assert_array_equal(psi.values[0, :, 0], expected)

    def test_two_arm_hand_example(self):
        data = ExperimentData(
            covariates=np.zeros((4, 1)),
            arms=np.array([1, 1, 2, 2]),
            outcomes=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        grid = grid_of(1.5)
        theta = empirical_cdf(data, grid)  # F1 = 0.5, F2 = 0.0
        psi = influence(data, grid, theta)
        # arm 1 row: own units scaled by 1 / 0.5, others just -theta
        assert_array_equal(psi.values[0, :, 0], [2.0 - 0.5, -0.5, -0.5, -0.5])
        assert_array_equal(psi.values[1, :, 0], [0.0, 0.0, 0.0, 0.0])

    def test_empirical_influence_mean_is_zero(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.25, 0.5, 0.75])
        theta = empirical_cdf(two_arm_data, grid)
        psi = influence(two_arm_data, grid, theta)
        assert np.max(np.abs(psi.values.mean(axis=1))) <= 1e-15

    def test_adjusted_influence_mean_is_zero(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.3, 0.5, 0.7])
        adjusted = fit_adjusted(two_arm_data, grid, LearnerKind("linear"))
        psi = influence(two_arm_data, grid, adjusted.estimate, adjusted.gamma)
        assert np.max(np.abs(psi.values.mean(axis=1))) <= 1e-12

    def test_good_gamma_shrinks_influence_variance(self):
        data = make_experiment(seed=12, n=400, noise=0.15)
        grid = quantile_grid(data, [0.5])
        adjusted = fit_adjusted(data, grid, LearnerKind("linear"))
        psi_adj = influence(data, grid, adjusted.estimate, adjusted.gamma)
        psi_emp = influence(data, grid, empirical_cdf(data, grid))
        assert psi_adj.values.var() < psi_emp.values.var()

    def test_theta_shape_checked(self, two_arm_data):
        grid = grid_of(1.0, 2.0)
        theta = CdfEstimate(values=np.array([[0.5], [0.5]]), method="empirical")
        with pytest.raises(ShapeMismatch, match="theta shape"):
            influence(two_arm_data, grid, theta)

    def test_gamma_shape_checked(self, two_arm_data):
        grid = grid_of(1.0, 2.0)
        theta = empirical_cdf(two_arm_data, grid)
        n = two_arm_data.n_units
        gamma = ConditionalCdfMatrix(predictions=np.zeros((2, n, 3)), fold_assignment=np.ones(n, dtype=int))
        with pytest.raises(ShapeMismatch, match=rf"gamma shape \(2, {n}, 3\) != \(2, {n}, 2\)"):
            influence(two_arm_data, grid, theta, gamma)


class TestMultipliers:
    def test_transform_plug_in_values(self):
        assert multiplier_transform(np.array(0.0), np.array(1.0)) == 0.0
        assert multiplier_transform(np.array(np.sqrt(2.0)), np.array(1.0)) == pytest.approx(
            1.0, rel=1e-15
        )
        assert multiplier_transform(np.array(0.0), np.array(0.0)) == -0.5

    def test_sample_moments(self):
        xi = multipliers(100_000, seed=10)
        assert xi.shape == (100_000,)
        assert abs(xi.mean()) < 0.02
        assert abs(xi.var() - 1.0) < 0.05

    def test_in_place_matches_allocating_bit_for_bit(self):
        rng = np.random.default_rng(4)
        m1, m2 = rng.standard_normal(1000), rng.standard_normal(1000)
        want = m1 / np.sqrt(2.0) + (np.square(m2) - 1.0) / 2.0
        assert_array_equal(multiplier_transform(m1, m2), want)
        out, scratch = m1.copy(), m2.copy()
        assert multiplier_transform(out, scratch, out=out) is out
        assert_array_equal(out, want)

    def test_deterministic_per_seed(self):
        assert_array_equal(multipliers(50, seed=3), multipliers(50, seed=3))
        assert not np.array_equal(multipliers(50, seed=3), multipliers(50, seed=4))

    @pytest.mark.parametrize("n", [1, 400, 8192, 8193, 20_000])
    def test_scheme_1_draws_all_units_in_one_call(self, n):
        rng = np.random.default_rng(6)
        m1, m2 = rng.standard_normal(n), rng.standard_normal(n)
        want = m1 / np.sqrt(2.0) + (np.square(m2) - 1.0) / 2.0
        assert_array_equal(multipliers(n, seed=6, multiplier_scheme=1), want)

    @pytest.mark.parametrize("n", [1, 400, 8192, 8193, 16_384, 20_000])
    def test_scheme_2_reads_the_stream_in_chunks(self, n):
        rng = np.random.default_rng(6)
        want = []
        for lo in range(0, n, 8192):
            w = min(lo + 8192, n) - lo
            normals = rng.standard_normal(2 * w)
            want.append(normals[:w] / np.sqrt(2.0) + (np.square(normals[w:]) - 1.0) / 2.0)
        got = multipliers(n, seed=6)
        assert_array_equal(got, np.concatenate(want))
        if n <= 8192:
            assert_array_equal(got, multipliers(n, seed=6, multiplier_scheme=1))
        else:
            assert not np.array_equal(got, multipliers(n, seed=6, multiplier_scheme=1))

    def test_scheme_3_has_no_per_unit_multipliers(self):
        for scheme in (3, 4):
            with pytest.raises(ValueError, match=f"multiplier scheme {scheme} has no per-unit multipliers"):
                multipliers(10, seed=0, multiplier_scheme=scheme)


class TestBootstrapDraws:
    def setup_method(self):
        self.theta = CdfEstimate(values=np.array([[0.4, 0.6], [0.3, 0.5]]), method="empirical")

    def test_zero_influence_returns_theta_exactly(self):
        psi = InfluenceMatrix(values=np.zeros((2, 30, 2)))
        draws = bootstrap_draws(self.theta, psi, 25, seed=1)
        assert draws.n_draws == 25
        assert_array_equal(draws.draws, np.broadcast_to(self.theta.values, (25, 2, 2)))

    def test_perturbation_is_linear_in_influence(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((2, 40, 2))
        one = bootstrap_draws(self.theta, InfluenceMatrix(values=base), 120, seed=6)
        two = bootstrap_draws(self.theta, InfluenceMatrix(values=2.0 * base), 120, seed=6)
        assert_allclose(
            two.draws - self.theta.values,
            2.0 * (one.draws - self.theta.values),
            rtol=1e-12, atol=1e-15,
        )

    def test_deterministic_per_seed(self):
        psi = InfluenceMatrix(values=np.random.default_rng(2).standard_normal((2, 20, 2)))
        a = bootstrap_draws(self.theta, psi, 50, seed=9)
        b = bootstrap_draws(self.theta, psi, 50, seed=9)
        assert_array_equal(a.draws, b.draws)

    def test_needs_two_repetitions(self):
        psi = InfluenceMatrix(values=np.zeros((2, 5, 2)))
        with pytest.raises(ValueError):
            bootstrap_draws(self.theta, psi, 1, seed=0)

    def test_theta_shape_checked(self):
        psi = InfluenceMatrix(values=np.zeros((2, 5, 3)))
        with pytest.raises(ShapeMismatch, match=r"theta shape \(2, 2\) != \(2, 3\)"):
            bootstrap_draws(self.theta, psi, 4, seed=0)


def serial_draws(theta, psi, n_draws, seed, per):
    """The draws of one serial pass: a fresh generator and two n-normal calls per row."""
    k, n, m = psi.shape
    slabs = [psi[first:first + per].transpose(1, 0, 2).reshape(n, per * m) for first in range(0, k, per)]
    children = np.random.SeedSequence(seed).spawn(n_draws)
    draws = np.empty((n_draws, k * m))
    for start in range(0, n_draws, 256):
        stop = min(start + 256, n_draws)
        block = np.empty((stop - start, n))
        for b in range(start, stop):
            rng = np.random.default_rng(children[b])
            m1, m2 = rng.standard_normal(n), rng.standard_normal(n)
            block[b - start] = m1 / np.sqrt(2.0) + (np.square(m2) - 1.0) / 2.0
        for e, slab in enumerate(slabs):
            draws[start:stop, e * per * m:(e + 1) * per * m] = block @ slab / n
    draws += theta.reshape(1, k * m)
    return draws.reshape(n_draws, k, m)


def chunked_draws(theta, psi, n_draws, seed, per, chunk=8192):
    """The draws of multiplier scheme 2, one repetition and one chunk at a time.

    Repetition b's generator draws 2w standard normals for each chunk of w
    units; each estimate's draw sums the chunks' multiplier-slab products.
    """
    k, n, m = psi.shape
    slabs = [psi[first:first + per].transpose(1, 0, 2).reshape(n, per * m) for first in range(0, k, per)]
    children = np.random.SeedSequence(seed).spawn(n_draws)
    draws = np.zeros((n_draws, k * m))
    for b in range(n_draws):
        rng = np.random.default_rng(children[b])
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            normals = rng.standard_normal(2 * (hi - lo))
            xi = normals[:hi - lo] / np.sqrt(2.0) + (np.square(normals[hi - lo:]) - 1.0) / 2.0
            draws[b] += np.concatenate([xi @ slab[lo:hi] for slab in slabs])
    draws = draws / n + theta.reshape(1, k * m)
    return draws.reshape(n_draws, k, m)


def gram_root(slab):
    """The symmetric square root of ``slab.T @ slab`` by eigenvalues, zero on the all-zero columns."""
    gram = slab.T @ slab
    live = np.flatnonzero(np.diag(gram) > 0.0)
    values, vectors = np.linalg.eigh(gram[np.ix_(live, live)])
    root = np.zeros_like(gram)
    root[np.ix_(live, live)] = (vectors * np.sqrt(np.maximum(values, 0.0))) @ vectors.T
    return root


def scheme_3_draws(theta, psi, n_draws, seed, per, chunk=8192):
    """The draws of multiplier scheme 3, one 256-row block at a time.

    Row b's generator first draws z_b, one normal per column of an estimate,
    then one normal m2 per unit of each chunk, which becomes (m2^2 - 1) / 2.
    Each estimate's draws sum the chunk products in chunk order and then gain
    (z @ R) / sqrt(2), R the root of the estimate's Gram matrix.
    """
    k, n, m = psi.shape
    slabs = [psi[first:first + per].transpose(1, 0, 2).reshape(n, per * m) for first in range(0, k, per)]
    roots = [gram_root(slab) for slab in slabs]
    children = np.random.SeedSequence(seed).spawn(n_draws)
    draws = np.empty((n_draws, k * m))
    for start in range(0, n_draws, 256):
        rngs = [np.random.default_rng(child) for child in children[start:start + 256]]
        z = np.array([rng.standard_normal(per * m) for rng in rngs])
        sums = np.zeros((len(rngs), k * m))
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            m2 = np.array([rng.standard_normal(hi - lo) for rng in rngs])
            xi = (np.square(m2) - 1.0) / 2.0
            for e, slab in enumerate(slabs):
                sums[:, e * per * m:(e + 1) * per * m] += xi @ slab[lo:hi]
        for e, root in enumerate(roots):
            sums[:, e * per * m:(e + 1) * per * m] += (z @ root) / np.sqrt(2.0)
        draws[start:start + 256] = sums
    draws = draws / n + theta.reshape(1, k * m)
    return draws.reshape(n_draws, k, m)


def scheme_4_draws(theta, psi, n_draws, seed, per, chunk=8192):
    """The draws of multiplier scheme 4, one 256-row block at a time.

    Scheme 3 on SFC64 generators with the chi-square half in float32: row b
    draws z_b in float64, then one float32 normal m2 per unit of each chunk,
    which becomes (m2^2 - 1) / 2 in float32. Each estimate's draws add, in
    float64, 2^e times the float32 product of the chunk with
    float32(2^-e psi chunk), e the binary exponent of the estimate's largest
    |psi|, and after the last chunk (z @ R) / sqrt(2).
    """
    k, n, m = psi.shape
    slabs = [psi[first:first + per].transpose(1, 0, 2).reshape(n, per * m) for first in range(0, k, per)]
    roots = [gram_root(slab) for slab in slabs]
    exponents = [int(np.frexp(np.abs(slab).max())[1]) for slab in slabs]
    children = np.random.SeedSequence(seed).spawn(n_draws)
    draws = np.empty((n_draws, k * m))
    for start in range(0, n_draws, 256):
        rngs = [np.random.Generator(np.random.SFC64(child)) for child in children[start:start + 256]]
        z = np.array([rng.standard_normal(per * m) for rng in rngs])
        sums = np.zeros((len(rngs), k * m))
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            m2 = np.array([rng.standard_normal(hi - lo, dtype=np.float32) for rng in rngs])
            xi = (np.square(m2) - 1) / 2
            assert xi.dtype == np.float32
            for e, (slab, exponent) in enumerate(zip(slabs, exponents)):
                # a C-ordered operand, as the pass's float32 buffer is
                scaled = (slab[lo:hi] * 2.0 ** -exponent).astype(np.float32, order="C")
                sums[:, e * per * m:(e + 1) * per * m] += (xi @ scaled).astype(float) * 2.0 ** exponent
        for e, root in enumerate(roots):
            sums[:, e * per * m:(e + 1) * per * m] += (z @ root) / np.sqrt(2.0)
        draws[start:start + 256] = sums
    draws = draws / n + theta.reshape(1, k * m)
    return draws.reshape(n_draws, k, m)


class TestMultiplierSchemes:
    """Scheme 1 reads each repetition's stream as one chunk of n units, schemes 2 to 4 in chunks of 8,192."""

    @staticmethod
    def problem(n, seed=7):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((4, n, 3))
        theta = np.sort(rng.random((4, 3)), axis=1)
        return theta, psi

    def draws(self, monkeypatch, theta, psi, threads, **kwargs):
        monkeypatch.setattr(core, "_usable_cpus", lambda: threads)
        return bootstrap_draws(
            CdfEstimate(values=theta, method="empirical"), InfluenceMatrix(values=psi),
            300, 11, arms_per_estimate=2, **kwargs,
        ).draws

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [37, 400, 9000, 20_000])
    def test_scheme_1_equals_the_one_chunk_pass_bit_for_bit(self, monkeypatch, n, threads):
        theta, psi = self.problem(n)
        got = self.draws(monkeypatch, theta, psi, threads, multiplier_scheme=1)
        assert_array_equal(got, serial_draws(theta, psi, 300, 11, 2))

    @pytest.mark.parametrize("n", [1, 37, 400, 8192])
    def test_schemes_agree_bit_for_bit_up_to_one_chunk(self, monkeypatch, n):
        theta, psi = self.problem(n)
        assert_array_equal(
            self.draws(monkeypatch, theta, psi, 2, multiplier_scheme=2),
            self.draws(monkeypatch, theta, psi, 2, multiplier_scheme=1),
        )

    @pytest.mark.parametrize("n", [8193, 16_384, 20_000])
    def test_scheme_2_sums_the_chunk_products(self, monkeypatch, n):
        theta, psi = self.problem(n)
        runs = [self.draws(monkeypatch, theta, psi, threads, multiplier_scheme=2) for threads in (1, 2, 3)]
        for got in runs[1:]:
            assert_array_equal(got, runs[0])
        assert_allclose(runs[0], chunked_draws(theta, psi, 300, 11, 2), rtol=0, atol=1e-12)
        assert not np.array_equal(runs[0], self.draws(monkeypatch, theta, psi, 1, multiplier_scheme=1))

    @pytest.mark.parametrize("scheme", [2, 3, 4])
    def test_block_memory_does_not_grow_with_n(self, monkeypatch, scheme):
        """tracemalloc peak of a two-estimate pass over 5 chunks and one unit.

        The 64 x 8,192 block, a scratch of 2 x 8,192 normals (scheme 2), the
        draws and their frozen copy, and 256 KiB for the generators, the
        Gaussian halves and roots (schemes 3 and 4), the float32 chunk of a
        slab (scheme 4, whose float32 block is half the bound's) and matmul
        temporaries. A block
        n wide alone is 64 x 40,961 values. On one CPU the block is drawn in
        this process, where tracemalloc sees it.
        """
        n, k, m, n_draws = 5 * 8192 + 1, 2, 3, 64
        values = inference._new_influence(2, k, n, m)
        values[...] = np.random.default_rng(2).standard_normal((2 * k, n, m))
        psi = InfluenceMatrix._frozen(values)
        theta = CdfEstimate(values=np.full((2 * k, m), 0.5), method="empirical")
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            bootstrap_draws(theta, psi, n_draws, seed=3, arms_per_estimate=k, multiplier_scheme=scheme)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = n_draws * 8192 * 8
        scratch = 2 * 8192 * 8
        draws = 2 * n_draws * 2 * k * m * 8
        assert peak <= block + scratch + draws + 256 * 1024

    @pytest.mark.parametrize("scheme", [0, 5, True, 2.0, "2", None])
    def test_unknown_scheme_rejected(self, scheme):
        theta, psi = self.problem(5)
        with pytest.raises(ValueError, match="multiplier_scheme must be 1, 2, 3 or 4"):
            bootstrap_draws(
                CdfEstimate(values=theta, method="empirical"), InfluenceMatrix(values=psi),
                10, 0, multiplier_scheme=scheme,
            )
        with pytest.raises(ValueError, match="multiplier_scheme must be 1, 2, 3 or 4"):
            multipliers(5, seed=0, multiplier_scheme=scheme)

    def test_numpy_integer_scheme_accepted(self):
        assert_array_equal(multipliers(9000, seed=1, multiplier_scheme=np.int64(1)),
                           multipliers(9000, seed=1, multiplier_scheme=1))


class TestFanOutDraws:
    """Blocks of 256 repetitions are drawn on ``core._fan_out``, in forked processes when it forks.

    These runs read scheme 2's stream, whose ``multiplier_transform`` calls
    mark the process that draws each repetition; :class:`TestScheme3` and
    :class:`TestScheme4` cover schemes 3 and 4 at 1-4 CPUs.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        cpus=st.integers(1, 4),
        n=st.integers(1, 60),
        n_draws=st.sampled_from([2, 3, 4, 255, 256, 257, 513]),
        n_estimates=st.integers(1, 3),
        per=st.integers(1, 3),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )
    def test_equals_a_serial_pass_bit_for_bit(self, cpus, n, n_draws, n_estimates, per, m, seed):
        rng = np.random.default_rng(seed)
        k = n_estimates * per
        psi = rng.standard_normal((k, n, m))
        theta = np.sort(rng.random((k, m)), axis=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_usable_cpus", lambda: cpus)
            got = bootstrap_draws(
                CdfEstimate(values=theta, method="empirical"), InfluenceMatrix(values=psi),
                n_draws, seed, arms_per_estimate=per, multiplier_scheme=2,
            )
        assert_array_equal(got.draws, serial_draws(theta, psi, n_draws, seed, per))

    def test_more_usable_cpus_than_cores(self, monkeypatch):
        rng = np.random.default_rng(12)
        psi = rng.standard_normal((4, 50, 3))
        theta = np.sort(rng.random((4, 3)), axis=1)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2 * (os.cpu_count() or 1))
        got = bootstrap_draws(
            CdfEstimate(values=theta, method="empirical"), InfluenceMatrix(values=psi),
            513, 8, arms_per_estimate=2, multiplier_scheme=2,
        )
        assert_array_equal(got.draws, serial_draws(theta, psi, 513, 8, 2))

    @staticmethod
    def pid_record(monkeypatch, path):
        """Append the pid of every multiplier_transform call to ``path``, which forked processes share."""
        transform = inference.multiplier_transform

        def recorded(*args, **kwargs):
            with open(path, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return transform(*args, **kwargs)

        monkeypatch.setattr(inference, "multiplier_transform", recorded)
        return lambda: [int(line) for line in path.read_text().split()]

    def run(self, n_draws, n=30):
        psi = InfluenceMatrix(values=np.random.default_rng(1).standard_normal((2, n, 2)))
        theta = CdfEstimate(values=np.full((2, 2), 0.5), method="empirical")
        return bootstrap_draws(theta, psi, n_draws, seed=4, multiplier_scheme=2)

    def test_blocks_fill_in_forked_processes(self, monkeypatch, tmp_path):
        pids = self.pid_record(monkeypatch, tmp_path / "pids")
        fan_out, items = core._fan_out, []

        def recorded(function, blocks):
            items.append([len(block) for block in blocks])
            return fan_out(function, blocks)

        monkeypatch.setattr(core, "_fan_out", recorded)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        self.run(600)
        assert items == [[256, 256, 88]]
        filled = pids()
        assert len(filled) == 600
        assert len(set(filled)) == 2 and os.getpid() not in filled

    def test_one_cpu_fills_in_the_calling_process(self, monkeypatch, tmp_path):
        pids = self.pid_record(monkeypatch, tmp_path / "pids")
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        self.run(600)
        assert set(pids()) == {os.getpid()}

    def test_a_failing_draw_in_a_forked_process_raises_here(self, monkeypatch):
        transform = inference.multiplier_transform
        caller = os.getpid()

        def failing(*args, **kwargs):
            if os.getpid() != caller:
                raise FloatingPointError("multiplier failed")
            return transform(*args, **kwargs)

        monkeypatch.setattr(inference, "multiplier_transform", failing)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        with pytest.raises(FloatingPointError, match="^multiplier failed$"):
            self.run(600)
        assert multiprocessing.active_children() == []

    def test_another_thread_keeps_the_draws_in_the_calling_process(self, monkeypatch, tmp_path):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        want = self.run(600).draws
        pids = self.pid_record(monkeypatch, tmp_path / "pids")
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            got = self.run(600).draws
        finally:
            release.set()
            other.join()
        assert set(pids()) == {os.getpid()}
        assert got.tobytes() == want.tobytes()

    def test_draw_processes_follow_the_usable_cpus(self, monkeypatch):
        # one owner, in core, which the fan-out of fits and replications reads too
        if hasattr(os, "sched_getaffinity"):
            assert core._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert core._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert core._usable_cpus() == 1


class TestScheme3:
    """Scheme 3: the Gaussian half of a repetition from its exact law, the other half per unit."""

    @settings(max_examples=30, deadline=None)
    @given(
        cpus=st.integers(1, 4),
        n=st.sampled_from([1, 2, 37, 8191, 8192, 8193]),
        n_draws=st.sampled_from([2, 255, 256, 257]),
        n_estimates=st.integers(1, 2),
        per=st.integers(1, 2),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )
    def test_scheme_3_equals_the_serial_pass_bit_for_bit(self, cpus, n, n_draws, n_estimates, per, m, seed):
        rng = np.random.default_rng(seed)
        k = n_estimates * per
        psi = rng.standard_normal((k, n, m))
        theta = np.sort(rng.random((k, m)), axis=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_usable_cpus", lambda: cpus)
            got = bootstrap_draws(
                CdfEstimate(values=theta, method="empirical"), InfluenceMatrix(values=psi),
                n_draws, seed, arms_per_estimate=per, multiplier_scheme=3,
            )
        assert_array_equal(got.draws, scheme_3_draws(theta, psi, n_draws, seed, per))

    def test_roots_are_formed_once_per_estimate_in_the_calling_process(self, monkeypatch, tmp_path):
        # and, under scheme 4, the default, the scales of the float32 chunks
        for name in ("_gram_root", "_exponent"):
            def recorded(slab, _form=getattr(inference, name), _log=tmp_path / name):
                with open(_log, "a") as handle:
                    handle.write(f"{os.getpid()}\n")
                return _form(slab)

            monkeypatch.setattr(inference, name, recorded)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        psi = InfluenceMatrix(values=np.random.default_rng(1).standard_normal((4, 30, 2)))
        theta = CdfEstimate(values=np.full((4, 2), 0.5), method="empirical")
        bootstrap_draws(theta, psi, 600, seed=4, arms_per_estimate=2)
        for name in ("_gram_root", "_exponent"):
            assert (tmp_path / name).read_text().split() == 2 * [str(os.getpid())]

    def test_rank_deficient_influence_gives_finite_draws(self):
        rng = np.random.default_rng(5)
        psi = rng.standard_normal((2, 50, 3))
        psi[0, :, 1] = 0.0  # a zero column
        psi[1, :, 2] = psi[0, :, 0]  # a repeated column
        theta = np.full((2, 3), 0.5)
        draws = bootstrap_draws(CdfEstimate(values=theta, method="empirical"), InfluenceMatrix(values=psi), 300, 2)
        assert np.all(np.isfinite(draws.draws))
        # no variance at all along the zero column, and none between the repeated two
        assert_array_equal(draws.draws[:, 0, 1], 0.5)
        assert_allclose(draws.draws[:, 1, 2], draws.draws[:, 0, 0], rtol=0, atol=1e-12)
        assert draws.draws[:, 0, 0].std() > 0.01

    def test_law_matches_the_influence_moments_and_scheme_2(self):
        """Seeded moments of n * (draw - theta) against those of sum_i psi_i xi_i, under schemes 2 to 4.

        xi has mean 0, variance 1 and third moment 1, so the draws' mean is 0,
        their covariance psi^T psi and their third central moments sum psi^3.
        Every sample moment must lie within 4 of its standard errors, the
        third moments must lie more than 8 standard errors from 0 (so a
        Gaussian-only half would fail), and a two-sample Kolmogorov-Smirnov
        test of scheme 3's and scheme 4's draws against scheme 2's must give
        p > 0.01 for every column.
        """
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(2)
        n, n_draws = 40, 40_000
        psi = rng.exponential(size=(2, n, 2)) ** 1.5  # skewed influence values
        psi -= psi.mean(axis=1, keepdims=True)
        flat = psi.transpose(1, 0, 2).reshape(n, 4)
        gram, cubes = flat.T @ flat, (flat ** 3).sum(axis=0)
        theta = CdfEstimate(values=np.full((2, 2), 0.5), method="empirical")
        samples = {}
        for scheme in (2, 3, 4):
            draws = bootstrap_draws(theta, InfluenceMatrix(values=psi), n_draws, 17, multiplier_scheme=scheme)
            x = (draws.draws.reshape(n_draws, 4) - 0.5) * n
            samples[scheme] = x
            mean = x.mean(axis=0)
            assert np.all(np.abs(mean) <= 4 * np.sqrt(np.diag(gram) / n_draws))
            centred = x - mean
            products = centred[:, :, None] * centred[:, None, :]
            cov = products.sum(axis=0) / (n_draws - 1)
            assert np.all(np.abs(cov - gram) <= 4 * products.std(axis=0) / np.sqrt(n_draws))
            third = centred ** 3
            third_se = third.std(axis=0) / np.sqrt(n_draws)
            assert np.all(np.abs(third.mean(axis=0) - cubes) <= 4 * third_se)
            assert np.all(cubes >= 8 * third_se)
        for scheme in (3, 4):
            for j in range(4):
                assert ks_2samp(samples[2][:, j], samples[scheme][:, j]).pvalue > 0.01


class TestScheme4:
    """Scheme 4: scheme 3 on SFC64 streams, with the chi-square half drawn and multiplied in float32."""

    @settings(max_examples=30, deadline=None)
    @given(
        cpus=st.integers(1, 4),
        n=st.sampled_from([1, 2, 37, 8191, 8192, 8193]),
        n_draws=st.sampled_from([2, 255, 256, 257]),
        n_estimates=st.integers(1, 2),
        per=st.integers(1, 2),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )
    def test_default_equals_the_serial_pass_bit_for_bit(self, cpus, n, n_draws, n_estimates, per, m, seed):
        rng = np.random.default_rng(seed)
        k = n_estimates * per
        psi = rng.standard_normal((k, n, m))
        theta = np.sort(rng.random((k, m)), axis=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_usable_cpus", lambda: cpus)
            got = bootstrap_draws(
                CdfEstimate(values=theta, method="empirical"), InfluenceMatrix(values=psi),
                n_draws, seed, arms_per_estimate=per,
            )
        assert_array_equal(got.draws, scheme_4_draws(theta, psi, n_draws, seed, per))

    @pytest.mark.parametrize("power", [200, -200])
    def test_power_of_two_scale_keeps_every_psi_in_range(self, power):
        """psi times 2^200 would overflow a float32 cast, and psi times 2^-200 flush to zero in it."""
        psi = np.random.default_rng(8).standard_normal((4, 9000, 3))
        theta = CdfEstimate(values=np.zeros((4, 3)), method="empirical")
        want = bootstrap_draws(theta, InfluenceMatrix(values=psi), 300, 6, arms_per_estimate=2).draws
        scaled = InfluenceMatrix(values=np.ldexp(psi, power))
        got = bootstrap_draws(theta, scaled, 300, 6, arms_per_estimate=2).draws
        assert np.all(np.isfinite(got))
        assert_allclose(got, np.ldexp(want, power), rtol=1e-12, atol=0)


class TestDrawArguments:
    """Seed, repetition count and multiplier scheme are checked before any influence or multiplier work."""

    def setup_method(self):
        self.theta = CdfEstimate(values=np.full((2, 2), 0.5), method="empirical")
        self.psi = InfluenceMatrix(values=np.random.default_rng(3).standard_normal((2, 20, 2)))

    @pytest.mark.parametrize("seed", [None, -1, 1.5, 2.0, True, "3", np.float64(4.0)])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            bootstrap_draws(self.theta, self.psi, 50, seed=seed)

    @pytest.mark.parametrize("n_draws", [300.0, True, "50", None, np.float64(50.0)])
    def test_non_integer_repetitions_rejected(self, n_draws):
        with pytest.raises(ValueError, match="n_draws must be an integer, got"):
            bootstrap_draws(self.theta, self.psi, n_draws, seed=0)

    def test_numpy_integers_accepted(self):
        want = bootstrap_draws(self.theta, self.psi, 50, seed=7)
        got = bootstrap_draws(self.theta, self.psi, np.int64(50), seed=np.uint32(7))
        assert_array_equal(got.draws, want.draws)
        got = bootstrap_draws(self.theta, self.psi, 50, seed=7, arms_per_estimate=np.int64(2))
        assert_array_equal(got.draws, want.draws)

    @pytest.mark.parametrize("per", [2.7, 2.0, True, "2", np.float64(2.0)])
    def test_non_integer_arms_per_estimate_rejected(self, per):
        with pytest.raises(ValueError, match="arms_per_estimate must be an integer"):
            bootstrap_draws(self.theta, self.psi, 50, seed=0, arms_per_estimate=per)

    @pytest.mark.parametrize("call", ["bootstrap_band", "bootstrap_bands"])
    @pytest.mark.parametrize(
        ("n_draws", "seed", "scheme", "alpha", "message"),
        [
            (50, None, 2, 0.05, "seed must be a non-negative integer"),
            (50, -3, 2, 0.05, "seed must be a non-negative integer"),
            (50, False, 2, 0.05, "seed must be a non-negative integer"),
            (300.0, 0, 2, 0.05, "n_draws must be an integer, got 300.0"),
            (1, 0, 2, 0.05, "need at least 2 bootstrap repetitions"),
            (50, 0, 5, 0.05, "multiplier_scheme must be 1, 2, 3 or 4"),
            (50, 0, 4, 1e-17, "alpha must leave 1 - alpha / 2 below 1 in float64"),
        ],
    )
    def test_bands_fail_before_influence_and_draws(
        self, monkeypatch, call, n_draws, seed, scheme, alpha, message
    ):
        data = make_experiment(seed=4, n=40)
        grid = quantile_grid(data, [0.3, 0.6])
        estimate = empirical_cdf(data, grid)
        calls = []
        for name in ("influence", "_stacked_influence", "bootstrap_draws"):
            fn = getattr(inference, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(inference, name, counted)
        estimates = estimate if call == "bootstrap_band" else (estimate,)
        with pytest.raises(ValueError, match=message):
            getattr(inference, call)(
                data, grid, estimates, n_draws=n_draws, seed=seed, alpha=alpha, multiplier_scheme=scheme
            )
        assert calls == []


def constant_outcome_adjusted(n=40):
    """All outcomes equal and gamma matching the labels: zero influence."""
    data = ExperimentData(
        covariates=np.random.default_rng(0).random((n, 2)),
        arms=1 + (np.arange(n) % 2),
        outcomes=np.full(n, 5.0),
    )
    grid = grid_of(5.0)
    theta = CdfEstimate(values=np.ones((2, 1)), method="adjusted")
    gamma = ConditionalCdfMatrix(
        predictions=np.ones((2, n, 1)),
        fold_assignment=make_folds(n, 2, seed=0).fold_assignment,
    )
    estimate = AdjustedEstimate(
        estimate=theta, gamma=gamma, plan=make_folds(n, 2, seed=0),
        kind=LearnerKind("linear"),
    )
    return data, grid, estimate


class TestBootstrapBand:
    def test_zero_influence_collapses_band(self):
        data, grid, estimate = constant_outcome_adjusted()
        band = bootstrap_band(data, grid, estimate, kind="cdf", arm_pair=(1, 1), n_draws=50)
        assert_array_equal(band.se, [0.0])
        assert_array_equal(band.ci_lower, band.point)
        assert_array_equal(band.ci_upper, band.point)

    def test_constant_curves_with_live_influence_rejected(self):
        n = 40
        data = ExperimentData(
            covariates=np.random.default_rng(1).random((n, 2)),
            arms=1 + (np.arange(n) % 2),
            outcomes=np.linspace(0.0, 1.0, n),
        )
        grid = grid_of(2.0)  # above every outcome, so labels are all one
        theta = CdfEstimate(values=np.ones((2, 1)), method="adjusted")
        predictions = np.ones((2, n, 1))
        predictions[1] = 0.5  # arm 2 carries non-zero influence
        gamma = ConditionalCdfMatrix(
            predictions=predictions,
            fold_assignment=make_folds(n, 2, seed=0).fold_assignment,
        )
        estimate = AdjustedEstimate(
            estimate=theta, gamma=gamma, plan=make_folds(n, 2, seed=0),
            kind=LearnerKind("linear"),
        )
        with pytest.raises(DegenerateDraws):
            bootstrap_band(data, grid, estimate, kind="cdf", arm_pair=(1, 1), n_draws=50)

    def test_empirical_se_matches_closed_form(self):
        data = make_experiment(seed=21, n=500)
        grid = quantile_grid(data, [0.3, 0.5, 0.7])
        theta = empirical_cdf(data, grid)
        band = bootstrap_band(
            data, grid, theta, kind="cdf", arm_pair=(1, 1), n_draws=600, seed=4
        )
        share = np.mean(data.arms == 1)
        f = theta.values[0]
        closed_form = np.sqrt((f / share - f**2) / data.n_units)
        assert_allclose(band.se, closed_form, rtol=0.10)

    def test_half_width_uses_two_sided_quantile(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.4, 0.6])
        theta = empirical_cdf(two_arm_data, grid)
        band = bootstrap_band(two_arm_data, grid, theta, n_draws=80, seed=2)
        z = (band.ci_upper - band.point) / band.se
        assert_allclose(z, NormalDist().inv_cdf(0.975), rtol=1e-12)

    def test_literal_upper_quantile_mode(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.4, 0.6])
        theta = empirical_cdf(two_arm_data, grid)
        band = bootstrap_band(
            two_arm_data, grid, theta, n_draws=80, seed=2, literal_upper_quantile=True
        )
        z = (band.ci_upper - band.point) / band.se
        assert_allclose(z, NormalDist().inv_cdf(0.95), rtol=1e-12)

    def test_pte_band_uses_interval_upper_endpoints(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.25, 0.5, 0.75])
        theta = empirical_cdf(two_arm_data, grid)
        band = bootstrap_band(two_arm_data, grid, theta, kind="pte", n_draws=80)
        assert band.locations.shape == (2,)
        assert_array_equal(band.locations, grid.locations[1:])
        assert band.point.shape == (2,)

    @pytest.mark.parametrize("kind", ["cdf", "dte", "pte"])
    def test_dte_point_matches_estimate(self, two_arm_data, kind):
        grid = quantile_grid(two_arm_data, [0.25, 0.5, 0.75])
        theta = empirical_cdf(two_arm_data, grid)
        band = bootstrap_band(two_arm_data, grid, theta, kind=kind, arm_pair=(2, 1), n_draws=80)
        want = {"cdf": theta.values[1], "dte": dte(theta, 2, 1), "pte": pte(theta, 2, 1)}[kind]
        assert band.point.tobytes() == want.tobytes()

    def test_pte_band_on_one_location_rejected(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.5])
        theta = empirical_cdf(two_arm_data, grid)
        with pytest.raises(GridTooSmall, match="interval probabilities need at least 2 locations"):
            bootstrap_band(two_arm_data, grid, theta, kind="pte", n_draws=50)

    @pytest.mark.parametrize("arm_pair", [(2.7, 1), (2, True), ("2", "1"), (np.float64(2.0), 1)])
    def test_non_integer_arm_rejected(self, two_arm_data, arm_pair):
        grid = quantile_grid(two_arm_data, [0.5])
        theta = empirical_cdf(two_arm_data, grid)
        with pytest.raises(ValueError, match="arm pair must be integers"):
            bootstrap_band(two_arm_data, grid, theta, arm_pair=arm_pair, n_draws=50)

    def test_numpy_integer_arms_accepted_as_python_ints(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.5])
        theta = empirical_cdf(two_arm_data, grid)
        band = bootstrap_band(two_arm_data, grid, theta, arm_pair=(np.int64(2), np.uint8(1)), n_draws=50)
        assert_same_band(band, bootstrap_band(two_arm_data, grid, theta, arm_pair=(2, 1), n_draws=50))
        assert all(type(arm) is int for arm in band.arm_pair)

    def test_same_arm_contrast_rejected(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.5])
        theta = empirical_cdf(two_arm_data, grid)
        with pytest.raises(SameArm):
            bootstrap_band(two_arm_data, grid, theta, kind="dte", arm_pair=(1, 1))

    def test_arm_out_of_range(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.5])
        theta = empirical_cdf(two_arm_data, grid)
        with pytest.raises(ShapeMismatch):
            bootstrap_band(two_arm_data, grid, theta, arm_pair=(3, 1))

    def test_alpha_validated(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.5])
        theta = empirical_cdf(two_arm_data, grid)
        with pytest.raises(ValueError):
            bootstrap_band(two_arm_data, grid, theta, alpha=1.5)

    def test_deterministic_per_seed(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.4, 0.6])
        theta = empirical_cdf(two_arm_data, grid)
        a = bootstrap_band(two_arm_data, grid, theta, n_draws=60, seed=12)
        b = bootstrap_band(two_arm_data, grid, theta, n_draws=60, seed=12)
        assert_array_equal(a.se, b.se)
        assert_array_equal(a.ci_lower, b.ci_lower)


def reference_band(data, grid, estimate, kind, n_draws, seed, scheme, arm_pair=(2, 1), alpha=0.05):
    """(se, ci_lower, ci_upper) as a pass of the estimate's own computes them.

    The draws of the serial pass of the scheme: :func:`serial_draws` for
    scheme 2 on at most 8,192 units, :func:`scheme_3_draws` and
    :func:`scheme_4_draws` for schemes 3 and 4.
    """
    if isinstance(estimate, AdjustedEstimate):
        theta, gamma = estimate.estimate, estimate.gamma
    else:
        theta, gamma = estimate, None
    psi = influence(data, grid, theta, gamma).values
    assert scheme >= 3 or psi.shape[1] <= 8192
    serial = {2: serial_draws, 3: scheme_3_draws, 4: scheme_4_draws}[scheme]
    draws = serial(theta.values, psi, n_draws, seed, psi.shape[0])

    def functional(values):
        row = values[..., arm_pair[0] - 1, :]
        if kind == "cdf":
            return row
        other = values[..., arm_pair[1] - 1, :]
        if kind == "dte":
            return row - other
        return np.diff(row, axis=-1) - np.diff(other, axis=-1)

    point = functional(theta.values)
    se = functional(draws).std(axis=0, ddof=1)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return se, point - z * se, point + z * se


def assert_same_band(got, want):
    for name in ("point", "se", "ci_lower", "ci_upper", "locations"):
        assert_array_equal(getattr(got, name), getattr(want, name))
    assert (got.kind, got.arm_pair, got.n_draws, got.seed) == (want.kind, want.arm_pair, want.n_draws, want.seed)


class TestSharedMultiplierPass:
    @pytest.mark.parametrize("scheme", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["cdf", "dte", "pte"])
    @pytest.mark.parametrize("n_draws", [2, 257, 300, 513])
    def test_bands_match_a_pass_of_their_own_bit_for_bit(self, kind, n_draws, scheme):
        data = make_experiment(seed=31, n=90)
        # 2 x 5 columns per estimate: one wide matmul over both would round differently
        grid = quantile_grid(data, [0.1, 0.3, 0.5, 0.7, 0.9])
        empirical = empirical_cdf(data, grid)
        adjusted = fit_adjusted(data, grid, LearnerKind("linear"))
        common = dict(kind=kind, n_draws=n_draws, seed=5, multiplier_scheme=scheme)
        bands = bootstrap_bands(data, grid, (empirical, adjusted), **common)
        for band, estimate in zip(bands, (empirical, adjusted)):
            se, lower, upper = reference_band(data, grid, estimate, kind, n_draws, seed=5, scheme=scheme)
            assert_array_equal(band.se, se)
            assert_array_equal(band.ci_lower, lower)
            assert_array_equal(band.ci_upper, upper)
            assert_same_band(bootstrap_band(data, grid, estimate, **common), band)

    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(0, 2**16),
        n_estimates=st.integers(1, 3),
        n_draws=st.integers(2, 300),
        kind=st.sampled_from(["cdf", "dte", "pte"]),
        seed=st.integers(0, 2**16),
        scheme=st.sampled_from([2, 3, 4]),
    )
    def test_each_band_equals_its_own_run_and_follows_the_order(
        self, data_seed, n_estimates, n_draws, kind, seed, scheme
    ):
        data = make_experiment(seed=data_seed, n=40)
        grid = quantile_grid(data, [0.25, 0.5, 0.75])
        rng = np.random.default_rng(data_seed)
        estimates = [empirical_cdf(data, grid)]
        while len(estimates) < n_estimates:
            plan = make_folds(data.n_units, 2, seed=data_seed)
            gamma = ConditionalCdfMatrix(
                predictions=rng.random((2, data.n_units, 3)), fold_assignment=plan.fold_assignment
            )
            theta = CdfEstimate(values=rng.random((2, 3)), method="adjusted")
            estimates.append(
                AdjustedEstimate(estimate=theta, gamma=gamma, plan=plan, kind=LearnerKind("linear"))
            )
        order = list(rng.permutation(n_estimates))
        estimates = [estimates[i] for i in order]
        common = dict(kind=kind, n_draws=n_draws, seed=seed, multiplier_scheme=scheme)
        bands = bootstrap_bands(data, grid, estimates, **common)
        assert len(bands) == n_estimates
        for band, estimate in zip(bands, estimates):
            assert_same_band(band, bootstrap_band(data, grid, estimate, **common))
        reordered = bootstrap_bands(data, grid, estimates[::-1], **common)
        for got, want in zip(reordered, bands[::-1]):
            assert_same_band(got, want)

    def test_needs_an_estimate(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.5])
        with pytest.raises(ValueError):
            bootstrap_bands(two_arm_data, grid, ())

    def test_stacked_arms_must_split_evenly(self):
        theta = CdfEstimate(values=np.full((3, 2), 0.5), method="empirical")
        psi = InfluenceMatrix(values=np.zeros((3, 10, 2)))
        with pytest.raises(ShapeMismatch):
            bootstrap_draws(theta, psi, 5, seed=0, arms_per_estimate=2)


class TestInfluenceSlabs:
    """Influence values are written once, into the (unit, arm x location) slabs the draw pass multiplies."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        n_estimates=st.integers(1, 3),
        per=st.integers(1, 3),
        m=st.integers(1, 4),
        n_draws=st.sampled_from([2, 5, 257]),
        seed=st.integers(0, 2**32),
        scheme=st.sampled_from([2, 3, 4]),
    )
    def test_draws_equal_those_of_c_ordered_values(self, n, n_estimates, per, m, n_draws, seed, scheme):
        rng = np.random.default_rng(seed)
        k = n_estimates * per
        values = inference._new_influence(n_estimates, per, n, m)
        values[...] = rng.standard_normal((k, n, m))
        psi = InfluenceMatrix._frozen(values)
        # no slab is copied out of these values
        for first in range(0, k, per):
            assert psi.values[first:first + per].transpose(1, 0, 2).reshape(n, per * m).base is not None
        theta = CdfEstimate(values=np.sort(rng.random((k, m)), axis=1), method="empirical")
        c_ordered = InfluenceMatrix(values=np.ascontiguousarray(values))
        got = bootstrap_draws(theta, psi, n_draws, seed, arms_per_estimate=per, multiplier_scheme=scheme)
        want = bootstrap_draws(theta, c_ordered, n_draws, seed, arms_per_estimate=per, multiplier_scheme=scheme)
        assert_array_equal(got.draws, want.draws)

    def test_influence_equals_the_written_formula_bit_for_bit(self, two_arm_data):
        grid = quantile_grid(two_arm_data, [0.2, 0.5, 0.8])
        adjusted = fit_adjusted(two_arm_data, grid, LearnerKind("linear"))
        empirical = empirical_cdf(two_arm_data, grid)
        labels = (two_arm_data.outcomes[:, None] <= grid.locations[None, :]).astype(float)
        for theta, preds in (
            (empirical, np.zeros((2, two_arm_data.n_units, 3))),
            (adjusted.estimate, adjusted.gamma.predictions),
        ):
            gamma = None if theta is empirical else adjusted.gamma
            got = influence(two_arm_data, grid, theta, gamma).values
            for w in (1, 2):
                own = (two_arm_data.arms == w).astype(float)[:, None]
                share = two_arm_data.stats.shares[w - 1]
                want = own * (labels - preds[w - 1]) / share + preds[w - 1] - theta.values[w - 1][None, :]
                assert got[w - 1].tobytes() == want.tobytes()

    def test_band_influence_is_not_copied(self, monkeypatch):
        data = make_experiment(seed=5, n=70)
        grid = quantile_grid(data, [0.3, 0.6])
        seen = []
        draws = inference.bootstrap_draws

        def recorded(theta, psi, *args, **kwargs):
            seen.append(psi)
            return draws(theta, psi, *args, **kwargs)

        monkeypatch.setattr(inference, "bootstrap_draws", recorded)
        bootstrap_bands(data, grid, (empirical_cdf(data, grid), fit_adjusted(data, grid, LearnerKind("linear"))),
                        n_draws=20, seed=1)
        (psi,) = seen
        # one C-ordered (unit, estimate x arm, location) array under the whole stack
        base = psi.values.base
        assert base.shape == (70, 2 * 2, 2) and base.flags.c_contiguous
        assert not psi.values.flags.writeable

    @pytest.mark.parametrize("scheme", [2, 3, 4])
    def test_band_peak_memory_is_the_block_and_one_slab_per_estimate(self, monkeypatch, scheme):
        """tracemalloc peak of a two-estimate band run, against the memory it must hold.

        The 256 x n multiplier block and the two (n, k x m) slabs, plus
        3 n*m float64 values of headroom, which covers the scratch of 2n
        normals (scheme 2), the (B, 2 x k x m) draws and their frozen copy.
        A copy of the stacked influence values alone is 4 n*m values. On one
        CPU the block is drawn in this process, where tracemalloc sees it.
        """
        n, k, m, n_draws = 4000, 2, 9, 300
        data = make_experiment(seed=8, n=n)
        grid = quantile_grid(data, np.linspace(0.1, 0.9, m))
        estimates = (empirical_cdf(data, grid), fit_adjusted(data, grid, LearnerKind("linear")))
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            bootstrap_bands(data, grid, estimates, n_draws=n_draws, seed=3, multiplier_scheme=scheme)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 256 * n * 8
        slabs = len(estimates) * n * k * m * 8
        assert peak <= block + slabs + 3 * n * m * 8


class TestTracerContract:
    """The names and call counts the benchmark tracer reads from this module."""

    def test_bootstrap_draws_parameter_names(self):
        assert {"theta", "psi", "n_draws", "seed"} <= set(inspect.signature(bootstrap_draws).parameters)

    @pytest.mark.parametrize("scheme", [2, None])
    def test_band_run_makes_one_multiplier_pass(self, monkeypatch, tmp_path, scheme):
        data = make_experiment(seed=3, n=50)
        csv_path = tmp_path / "experiment.csv"
        rows = ["arm,outcome,x1,x2,x3"] + [
            ",".join([str(arm), *(f"{v:.17g}" for v in (y, *x))])
            for arm, y, x in zip(data.arms, data.outcomes, data.covariates)
        ]
        csv_path.write_text("\n".join(rows) + "\n")
        calls = {"bootstrap_draws": 0, "multiplier_transform": 0}

        def counted(name):
            fn = getattr(inference, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(inference, name, counted(name))
        # one block of 37 rows, which the calling process draws
        n_draws = 37
        flags = [
            "bootstrap-band", "--input", str(csv_path), "--learner", "linear",
            "--grid", "probs=0.3,0.6", "--B", str(n_draws), "--out", str(tmp_path / "band"),
        ]
        if scheme is not None:
            # a scheme other than the default comes only from a manifest
            config = {"mode": "bootstrap-band", "input": str(csv_path), "learner": "linear", "grid": "probs=0.3,0.6",
                      "n_draws": n_draws, "out": str(tmp_path / "band"), "multiplier_scheme": scheme}
            (tmp_path / "manifest.json").write_text(json.dumps({"config": config}))
            flags = ["bootstrap-band", "--from-manifest", str(tmp_path / "manifest.json")]
        assert main(flags) == 0
        # scheme 4, the default, draws no per-unit multipliers
        transforms = n_draws if scheme == 2 else 0
        assert calls == {"bootstrap_draws": 1, "multiplier_transform": transforms}

    @pytest.mark.parametrize("call", ["bootstrap_band", "bootstrap_bands"])
    def test_unknown_functional_fails_before_the_multiplier_pass(self, monkeypatch, call):
        data = make_experiment(seed=4, n=40)
        grid = quantile_grid(data, [0.3, 0.6])
        estimate = empirical_cdf(data, grid)
        calls = []
        draws = inference.bootstrap_draws

        def counted(*args, **kwargs):
            calls.append(1)
            return draws(*args, **kwargs)

        monkeypatch.setattr(inference, "bootstrap_draws", counted)
        estimates = estimate if call == "bootstrap_band" else (estimate,)
        with pytest.raises(ValueError, match="functional must be cdf, dte, or pte, got 'qte'"):
            getattr(inference, call)(data, grid, estimates, kind="qte", n_draws=50)
        assert calls == []


def band_with_se(se, kind="dte", locations=None):
    se = np.asarray(se, dtype=float)
    m = se.shape[0]
    locations = np.arange(m, dtype=float) if locations is None else np.asarray(locations)
    point = np.zeros(m)
    return EffectBand(
        kind=kind, arm_pair=(2, 1), locations=locations, point=point, se=se,
        ci_lower=point - 1.96 * se, ci_upper=point + 1.96 * se, alpha=0.05,
    )


class TestSeReduction:
    def test_identical_bands_give_zero(self):
        assert_array_equal(se_reduction(band_with_se([0.2, 0.3]), band_with_se([0.2, 0.3])), [0.0, 0.0])

    def test_twenty_percent_reduction(self):
        result = se_reduction(band_with_se([0.5, 1.0]), band_with_se([0.4, 0.8]))
        assert_allclose(result, [20.0, 20.0], rtol=1e-12)

    def test_inflation_is_negative(self):
        result = se_reduction(band_with_se([0.5]), band_with_se([0.6]))
        assert result[0] == pytest.approx(-20.0, rel=1e-12)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroBaselineSE):
            se_reduction(band_with_se([0.0, 0.3]), band_with_se([0.1, 0.2]))

    def test_mismatched_kind_rejected(self):
        with pytest.raises(ShapeMismatch):
            se_reduction(band_with_se([0.2], kind="dte"), band_with_se([0.2], kind="pte"))

    def test_mismatched_locations_rejected(self):
        with pytest.raises(ShapeMismatch):
            se_reduction(
                band_with_se([0.2, 0.3]),
                band_with_se([0.2, 0.3], locations=[5.0, 6.0]),
            )


class TestEffectBandInvariants:
    def test_negative_se_rejected(self):
        with pytest.raises(ShapeMismatch):
            band_with_se([-0.1])

    def test_band_must_bracket_point(self):
        point = np.array([0.5])
        with pytest.raises(ShapeMismatch):
            EffectBand(
                kind="dte", arm_pair=(2, 1), locations=np.array([1.0]),
                point=point, se=np.array([0.1]),
                ci_lower=point + 0.2, ci_upper=point + 0.4, alpha=0.05,
            )

    def test_length_mismatch_rejected(self):
        point = np.array([0.5, 0.6])
        with pytest.raises(ShapeMismatch):
            EffectBand(
                kind="dte", arm_pair=(2, 1), locations=np.array([1.0]),
                point=point, se=np.array([0.1, 0.1]),
                ci_lower=point, ci_upper=point, alpha=0.05,
            )
