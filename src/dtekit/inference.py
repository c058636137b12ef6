"""Multiplier-bootstrap inference for CDF-level estimates.

The influence value of unit i for arm w at location y is

    psi = 1{W_i = w} (1{Y_i <= y} - gamma_w(X_i, y)) / pihat_w
          + gamma_w(X_i, y) - theta_w(y)

with pihat_w the sample share of arm w. Bootstrap repetition b perturbs the
estimate along the influence directions with i.i.d. mean-zero, variance-one
multipliers xi_i = m1_i / sqrt(2) + (m2_i^2 - 1) / 2 built from two standard
normals, then re-applies the functional of interest (a CDF row, a DTE, or a
PTE). Pointwise standard errors are the square root of the sample variance
across repetitions, and bands are point +/- z * SE.

The bands of one run share one multiplier pass: :func:`bootstrap_bands`
stacks the influence matrices of several estimates (empirical and adjusted,
say) along the arm axis, and :func:`bootstrap_draws` draws each repetition's
multipliers once and applies them to every estimate. Each estimate's band
is bit-identical to the one :func:`bootstrap_band` computes for it alone.

Influence values are written once, where the draw pass reads them: in the
usual case each estimate's (unit, arm x location) slab, n rows of k*m
values, is a column block of one C-ordered (unit, estimate x arm x location)
array, and the :class:`InfluenceMatrix` is a view of it. The empirical
path's zero adjustment is the scalar 0.0, not an array.

Multipliers are drawn in chunks of units. Under multiplier scheme 2, the
default, repetition b reads its stream in chunks of 8,192 units, and each
estimate's draws sum the products of the chunks in chunk order; scheme 1,
which manifests written before the scheme was recorded replay on, reads all
n units as one chunk. The two schemes give the same bytes whenever
n <= 8,192. So a band run holds, beyond its inputs, one slab per estimate
(n*k*m float64 values), a block of at most 256 x 8,192 multipliers
(256 x n under scheme 1), and the draws.

The pass fills its multipliers on T threads, T the CPUs the process may use.
Every repetition has its own generator stream spawned from the seed, so a
row's multipliers do not depend on which thread draws them, and each chunk
of a block of rows is multiplied as a whole with fixed operands once all its
rows are filled. The draws are therefore bit-identical at any T.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import (
    CdfEstimate,
    ConditionalCdfMatrix,
    EffectBand,
    ExperimentData,
    LocationGrid,
    indicator_labels,
)
from .errors import DegenerateDraws, SameArm, ShapeMismatch, ZeroBaselineSE
from .estimation import AdjustedEstimate

__all__ = [
    "InfluenceMatrix",
    "BootstrapDraws",
    "influence",
    "multiplier_transform",
    "multipliers",
    "bootstrap_draws",
    "bootstrap_band",
    "bootstrap_bands",
    "se_reduction",
]

_DRAW_BLOCK = 256
# units per chunk of a repetition's multiplier stream under scheme 2
_CHUNK_UNITS = 8192
_MULTIPLIER_SCHEMES = (1, 2)
_FUNCTIONALS = ("cdf", "dte", "pte")


@dataclass(frozen=True)
class InfluenceMatrix:
    """Influence values, indexed (arm, unit, location)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 3:
            raise ShapeMismatch(f"influence values must be 3-dimensional, got {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _frozen(cls, values: np.ndarray) -> InfluenceMatrix:
        """Freeze values this module has just written, without a copy; the writer keeps no reference."""
        values.setflags(write=False)
        psi = object.__new__(cls)
        object.__setattr__(psi, "values", values)
        return psi


@dataclass(frozen=True)
class BootstrapDraws:
    """Bootstrap repetitions of the CDF matrix, indexed (repetition, arm, location)."""

    draws: np.ndarray
    seed: int

    def __post_init__(self):
        d = np.array(self.draws, dtype=float, copy=True)
        d.setflags(write=False)
        object.__setattr__(self, "draws", d)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]


def influence(
    data: ExperimentData,
    grid: LocationGrid,
    theta: CdfEstimate,
    gamma: ConditionalCdfMatrix | None = None,
) -> InfluenceMatrix:
    """Influence values of every unit for every (arm, location) estimate.

    ``gamma=None`` means the zero adjustment, which is the empirical path.
    When ``theta`` is the adjusted estimate built from the same ``gamma``,
    every per-(arm, location) sample mean is zero up to rounding. The values
    are laid out so that :func:`bootstrap_draws` multiplies them without a
    copy (see :func:`_new_influence`).
    """
    return _stacked_influence(data, grid, [(theta, gamma)])


def _new_influence(n_estimates: int, k: int, n: int, m: int) -> np.ndarray:
    """Uninitialized (estimate x arm, unit, location) values, laid out for :func:`bootstrap_draws`.

    The draw pass multiplies estimate e's values as the (n, k x m) slab
    ``values[e*k:(e+1)*k].transpose(1, 0, 2).reshape(n, k*m)``. On this
    layout that reshape is a view, so no slab is copied, and each slab is
    the operand the pass forms from C-ordered values: a C-ordered block of
    rows (whose rows lie n_estimates*k*m values apart), or, with one
    location or one arm, where that reshape of C-ordered values is a view
    already, the C-ordered values themselves.
    """
    if m == 1 or k == 1:
        return np.empty((n_estimates * k, n, m))
    return np.empty((n, n_estimates * k, m)).transpose(1, 0, 2)


def _fill_influence(
    values: np.ndarray,
    data: ExperimentData,
    labels: np.ndarray,
    theta: CdfEstimate,
    gamma: ConditionalCdfMatrix | None,
) -> None:
    """Write the influence values into ``values``, a (k, n, m) array or view, in place.

    ``labels`` are the (n, m) indicator labels of the data on the grid. The
    formula's operations run in the order of the written expression, so
    every value rounds as it would computed out of place; the zero adjustment
    is the scalar 0.0, which gives the same IEEE results as an array of zeros.
    """
    k, n, m = values.shape
    if theta.values.shape != (k, m):
        raise ShapeMismatch(f"theta shape {theta.values.shape} != ({k}, {m})")
    if gamma is not None and gamma.predictions.shape != (k, n, m):
        raise ShapeMismatch(f"gamma shape {gamma.predictions.shape} != ({k}, {n}, {m})")
    for w in range(1, k + 1):
        own = (data.arms == w).astype(float)[:, None]
        pred = 0.0 if gamma is None else gamma.predictions[w - 1]
        # own * (labels - pred) / share + pred - theta_w
        psi = values[w - 1]
        np.subtract(labels, pred, out=psi)
        np.multiply(own, psi, out=psi)
        psi /= data.stats.shares[w - 1]
        psi += pred
        psi -= theta.values[w - 1][None, :]


def multiplier_transform(m1: np.ndarray, m2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Combine two standard normal draws into one mean-zero variance-one multiplier.

    With ``out`` (which may be ``m1``) the multiplier is written there and
    ``m2`` is overwritten as scratch, so no temporary is allocated. Either way
    the operations run in the same order, m1 / sqrt(2), then (m2^2 - 1) / 2,
    then the sum, and round identically.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(m1), np.shape(m2)))
        m2 = np.array(m2, dtype=float)
    np.divide(m1, np.sqrt(2.0), out=out)
    np.square(m2, out=m2)
    m2 -= 1.0
    m2 /= 2.0
    out += m2
    return out


def multipliers(n_units: int, seed: int, *, multiplier_scheme: int = 2) -> np.ndarray:
    """One multiplier per unit from a fresh seeded stream.

    The stream is read in the chunks :func:`bootstrap_draws` reads a
    repetition's stream in: under scheme 2 chunks of 8,192 units, under
    scheme 1 one chunk of all units. Each chunk of w units takes one
    ``standard_normal(2w)`` call, the first w values and the last w feeding
    :func:`multiplier_transform`.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(n_units)
    for lo, hi in _chunks(n_units, multiplier_scheme):
        normals = rng.standard_normal(2 * (hi - lo))
        multiplier_transform(normals[:hi - lo], normals[hi - lo:], out=out[lo:hi])
    return out


def _check_multiplier_scheme(multiplier_scheme: int) -> None:
    """Reject a multiplier scheme other than 1 or 2."""
    if (
        isinstance(multiplier_scheme, bool)
        or not isinstance(multiplier_scheme, (int, np.integer))
        or multiplier_scheme not in _MULTIPLIER_SCHEMES
    ):
        raise ValueError(f"multiplier_scheme must be 1 or 2, got {multiplier_scheme!r}")


def _chunks(n: int, multiplier_scheme: int) -> list[tuple[int, int]]:
    """The unit ranges [lo, hi) a repetition's stream is read in, in order.

    Scheme 2 reads chunks of ``_CHUNK_UNITS`` units, scheme 1 one chunk of
    all n units.
    """
    _check_multiplier_scheme(multiplier_scheme)
    size = _CHUNK_UNITS if multiplier_scheme == 2 else max(n, 1)
    return [(lo, min(lo + size, n)) for lo in range(0, max(n, 1), size)]


def _draw_threads() -> int:
    """Threads that fill each block of multipliers: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _check_draw_args(n_draws: int, seed: int) -> None:
    """Reject a repetition count or seed that cannot give reproducible draws."""
    if isinstance(n_draws, bool) or not isinstance(n_draws, (int, np.integer)):
        raise ValueError(f"bootstrap repetitions must be an integer, got {n_draws!r}")
    if n_draws < 2:
        raise ValueError(f"need at least 2 bootstrap repetitions, got {n_draws}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def bootstrap_draws(
    theta: CdfEstimate,
    psi: InfluenceMatrix,
    n_draws: int,
    seed: int,
    *,
    arms_per_estimate: int | None = None,
    multiplier_scheme: int = 2,
) -> BootstrapDraws:
    """Perturbed copies of the CDF matrix, one per bootstrap repetition.

    Repetition b uses its own generator stream spawned from ``seed`` and
    reads it in chunks of units (see :func:`multipliers`): under scheme 2
    chunks of 8,192 units, under scheme 1 one chunk of all n. Each chunk of
    w units takes one call for 2w standard normals, the first w and the last
    w feeding :func:`multiplier_transform`. The multipliers are therefore
    reproducible and do not depend on how repetitions are batched or which
    thread draws them. The draw matmul is not: BLAS can round the last bit
    differently for other operand shapes, so the block size, the chunks and
    the operands are fixed.

    Repetitions run in blocks of ``_DRAW_BLOCK`` rows, and each block runs
    chunk by chunk. Each chunk of a block is filled on T threads, T the CPUs
    this process may use (at most the rows of a block): every thread fills a
    contiguous run of the block's rows in place, with generators it makes at
    the block's first chunk and keeps for its later ones. Once the chunk is
    full, the estimates' products run on the same threads, one task per
    estimate, each on the whole chunk: the first chunk's product is assigned
    and later ones are added, and the sum is divided by n once. The block
    size, the chunks and the operands of every product are the same at any
    T, so the draws are bit-identical at any T. The threads live only for
    the call, so no thread is alive when a process forks.

    ``theta`` and ``psi`` may stack several estimates along the arm axis,
    ``arms_per_estimate`` arms each (default: all arms, one estimate). All
    estimates share one multiplier pass. Every chunk of multipliers is
    multiplied separately by each estimate's own (unit, arm x location) slab,
    so each estimate's draws are bit-identical to a pass of its own. On the
    values :func:`influence` and :func:`bootstrap_bands` build, the slabs
    are views; on C-ordered values they are copied out once. A slab that is
    a column block of a wider array reaches BLAS as the same operand with a
    wider leading dimension.
    """
    _check_draw_args(n_draws, seed)
    k, n, m = psi.values.shape
    if theta.values.shape != (k, m):
        raise ShapeMismatch(f"theta shape {theta.values.shape} != ({k}, {m})")
    per = k if arms_per_estimate is None else int(arms_per_estimate)
    if per < 1 or k % per:
        raise ShapeMismatch(f"{k} stacked arms do not split into estimates of {per} arms")
    chunks = _chunks(n, multiplier_scheme)
    # views on the layout of _new_influence
    slabs = [
        psi.values[first:first + per].transpose(1, 0, 2).reshape(n, per * m)
        for first in range(0, k, per)
    ]
    children = np.random.SeedSequence(seed).spawn(n_draws)
    draws = np.empty((n_draws, k * m))
    rows_per_block = min(_DRAW_BLOCK, n_draws)
    width = chunks[0][1] - chunks[0][0]
    block = np.empty(rows_per_block * width)
    threads = min(_draw_threads(), rows_per_block)
    scratches = [np.empty(2 * width) for _ in range(threads)]

    def fill(rows, streams, generators, scratch):
        if not generators:
            generators.extend(np.random.default_rng(child) for child in streams)
        w = rows.shape[1]
        normals, m1, m2 = scratch[:2 * w], scratch[:w], scratch[w:2 * w]
        for row, generator in zip(rows, generators):
            generator.standard_normal(2 * w, out=normals)
            multiplier_transform(m1, m2, out=row)

    def product(rows, start, e, lo, hi):
        out = draws[start:start + len(rows), e * per * m:(e + 1) * per * m]
        if lo == 0:
            out[...] = rows @ slabs[e][lo:hi]
        else:
            out += rows @ slabs[e][lo:hi]

    with ThreadPoolExecutor(max_workers=threads - 1) if threads > 1 else nullcontext() as pool:

        def run(tasks):
            """Run (function, *args) tasks: the first on the calling thread, the rest on the pool if any."""
            split = len(tasks) if pool is None else 1
            pending = [pool.submit(*task) for task in tasks[split:]]
            for function, *args in tasks[:split]:
                function(*args)
            for future in pending:
                future.result()

        for start in range(0, n_draws, _DRAW_BLOCK):
            height = min(_DRAW_BLOCK, n_draws - start)
            # thread t fills the contiguous rows cuts[t]:cuts[t + 1] of the block
            cuts = [height * t // threads for t in range(threads + 1)]
            generators = [[] for _ in range(threads)]
            for lo, hi in chunks:
                # a C-ordered (height, hi - lo) operand, whatever the chunk's width
                rows = block[:height * (hi - lo)].reshape(height, hi - lo)
                run([
                    (fill, rows[a:b], children[start + a:start + b], own, scratch)
                    for a, b, own, scratch in zip(cuts, cuts[1:], generators, scratches)
                ])
                run([(product, rows, start, e, lo, hi) for e in range(len(slabs))])
    draws /= n
    draws += theta.values.reshape(1, k * m)
    return BootstrapDraws(draws=draws.reshape(n_draws, k, m), seed=seed)


def _apply_functional(values: np.ndarray, kind: str, arm: int, other_arm: int) -> np.ndarray:
    """Map a (..., arm, location) CDF array to its cdf, dte or pte curve."""
    row = values[..., arm - 1, :]
    if kind == "cdf":
        return row
    other = values[..., other_arm - 1, :]
    if kind == "dte":
        return row - other
    return np.diff(row, axis=-1) - np.diff(other, axis=-1)


def bootstrap_band(
    data: ExperimentData,
    grid: LocationGrid,
    estimate: CdfEstimate | AdjustedEstimate,
    kind: str = "dte",
    arm_pair: tuple[int, int] = (2, 1),
    n_draws: int = 5000,
    alpha: float = 0.05,
    seed: int = 0,
    literal_upper_quantile: bool = False,
    *,
    multiplier_scheme: int = 2,
) -> EffectBand:
    """Pointwise multiplier-bootstrap confidence band for a CDF functional.

    ``estimate`` is either an empirical CdfEstimate (zero adjustment) or an
    AdjustedEstimate carrying its cross-fitted predictions. By default the
    band half-width uses the two-sided normal quantile z_{1 - alpha/2};
    ``literal_upper_quantile`` switches to z_{1 - alpha}. This is the
    one-estimate case of :func:`bootstrap_bands`. ``multiplier_scheme``
    picks how repetitions read their multiplier streams (see
    :func:`bootstrap_draws`).
    """
    (band,) = bootstrap_bands(
        data, grid, (estimate,), kind, arm_pair, n_draws, alpha, seed, literal_upper_quantile,
        multiplier_scheme=multiplier_scheme,
    )
    return band


def bootstrap_bands(
    data: ExperimentData,
    grid: LocationGrid,
    estimates: Sequence[CdfEstimate | AdjustedEstimate],
    kind: str = "dte",
    arm_pair: tuple[int, int] = (2, 1),
    n_draws: int = 5000,
    alpha: float = 0.05,
    seed: int = 0,
    literal_upper_quantile: bool = False,
    *,
    multiplier_scheme: int = 2,
) -> tuple[EffectBand, ...]:
    """One band per estimate, all from one shared multiplier pass.

    Every estimate sees the same multipliers, as separate
    :func:`bootstrap_band` calls with the same ``seed`` would give it, and
    each band is bit-identical to that call's; the multipliers are drawn
    once instead of once per estimate.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _check_draw_args(n_draws, seed)
    _check_multiplier_scheme(multiplier_scheme)
    if kind not in _FUNCTIONALS:
        raise ValueError(f"functional must be cdf, dte, or pte, got {kind!r}")
    if not estimates:
        raise ValueError("need at least one estimate")
    pieces = [
        (e.estimate, e.gamma) if isinstance(e, AdjustedEstimate) else (e, None)
        for e in estimates
    ]
    arm, other_arm = int(arm_pair[0]), int(arm_pair[1])
    k = data.n_arms
    if not (1 <= arm <= k and 1 <= other_arm <= k):
        raise ShapeMismatch(f"arm pair ({arm}, {other_arm}) out of range 1..{k}")
    if kind != "cdf" and arm == other_arm:
        raise SameArm(f"cannot contrast arm {arm} with itself")
    if kind == "pte" and grid.n_locations < 2:
        raise ShapeMismatch("interval probabilities need at least 2 locations")

    psi = _stacked_influence(data, grid, pieces)
    stacked = CdfEstimate(
        values=np.concatenate([theta.values for theta, _ in pieces]),
        method="+".join(theta.method for theta, _ in pieces),
    )
    draws = bootstrap_draws(
        stacked, psi, n_draws, seed, arms_per_estimate=k, multiplier_scheme=multiplier_scheme
    )

    q = 1.0 - alpha if literal_upper_quantile else 1.0 - alpha / 2.0
    z = NormalDist().inv_cdf(q)
    locations = grid.locations if kind != "pte" else grid.locations[1:]
    bands = []
    for e, (theta, _) in enumerate(pieces):
        arms = slice(e * k, (e + 1) * k)
        # the (repetition, arm, location) layout of a pass of its own, for the same std reduction
        own = np.ascontiguousarray(draws.draws[:, arms])
        curves = _apply_functional(own, kind, arm, other_arm)
        point = _apply_functional(theta.values, kind, arm, other_arm)
        degenerate = np.all(psi.values[arms] == 0.0)
        if not degenerate and bool(np.all(curves == curves[0])):
            raise DegenerateDraws("bootstrap repetitions collapsed to one curve")
        se = curves.std(axis=0, ddof=1)
        bands.append(
            EffectBand(
                kind=kind,
                arm_pair=(arm, other_arm),
                locations=locations,
                point=point,
                se=se,
                ci_lower=point - z * se,
                ci_upper=point + z * se,
                alpha=alpha,
                n_draws=n_draws,
                seed=seed,
            )
        )
    return tuple(bands)


def _stacked_influence(data: ExperimentData, grid: LocationGrid, pieces) -> InfluenceMatrix:
    """The influence values of every (theta, gamma) piece, written once and stacked along the arm axis."""
    k = data.n_arms
    values = _new_influence(len(pieces), k, data.n_units, grid.n_locations)
    labels = indicator_labels(data, grid)
    for e, (theta, gamma) in enumerate(pieces):
        _fill_influence(values[e * k:(e + 1) * k], data, labels, theta, gamma)
    return InfluenceMatrix._frozen(values)


def se_reduction(baseline: EffectBand, adjusted: EffectBand) -> np.ndarray:
    """Percent reduction of pointwise SEs relative to a baseline band."""
    if baseline.kind != adjusted.kind or baseline.arm_pair != adjusted.arm_pair:
        raise ShapeMismatch("bands compare different functionals")
    if baseline.se.shape != adjusted.se.shape or not np.array_equal(
        baseline.locations, adjusted.locations
    ):
        raise ShapeMismatch("bands are evaluated on different grids")
    if np.any(baseline.se == 0.0):
        raise ZeroBaselineSE("baseline band has a zero standard error")
    return 100.0 * (1.0 - adjusted.se / baseline.se)
