"""Multiplier-bootstrap inference for CDF-level estimates.

The influence value of unit i for arm w at location y is

    psi = 1{W_i = w} (1{Y_i <= y} - gamma_w(X_i, y)) / pihat_w
          + gamma_w(X_i, y) - theta_w(y)

with pihat_w the sample share of arm w. Bootstrap repetition b perturbs the
estimate along the influence directions with i.i.d. mean-zero, variance-one
multipliers xi_i = m1_i / sqrt(2) + (m2_i^2 - 1) / 2 built from two standard
normals, then re-applies the functional of interest (a CDF row, a DTE, or a
PTE) with the curve code and checks of :mod:`dtekit.estimation`. Pointwise
standard errors are the square root of the sample variance across
repetitions, and bands are point +/- z * SE.

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

Multipliers are drawn in chunks of units. Under multiplier scheme 3,
repetition b first draws z_b, one standard normal per column of an estimate
(arms x locations), then reads its stream in chunks of 8,192 units, one
standard normal m2 per unit mapped in place to (m2^2 - 1) / 2. Each
estimate's draws sum the products of the chunks with its slab in chunk
order, then gain (z_b @ R) / sqrt(2), R the symmetric square root of the
estimate's Gram matrix psi^T psi. Given the data, psi^T m1 is exactly
N(0, psi^T psi), so the draws have the law of scheme 2 with n + k*m normals
a repetition instead of 2n. Scheme 4, the default for new runs, is scheme 3
with the chi-square half in float32: each repetition's generator is SFC64
on the same spawned seed, z_b is still float64, and the m2 normals, their
map and the chunk products are float32. Each estimate's chunk of psi is
scaled by 2^-e, e the binary exponent of the slab's largest |psi|, and cast
to float32 when it is multiplied; the float64 sum of the products is scaled
back by 2^e, which is exact and keeps every finite psi in float32's range.
Schemes 2 and 1 draw both halves per unit, scheme 2 in chunks of 8,192
units and scheme 1, which manifests written before the scheme was recorded
replay on, as one chunk of all n units; the two give the same bytes
whenever n <= 8,192. So a band run holds, beyond its inputs, one slab per
estimate (n*k*m float64 values), the draws, and in each process that draws
a block of at most 256 x 8,192 multipliers (float32 under scheme 4, and
256 x n under scheme 1) plus, under scheme 4, one float32 chunk of a slab.

The pass hands its blocks of 256 repetitions to :func:`dtekit.core._fan_out`:
each forked process inherits the slabs (and the roots and scales, computed
once in the calling process) and sends back only its draws. Every
repetition b has its own generator stream, the b-th child of the seed's
``SeedSequence``, built in the process that draws it, and each
chunk of a block is multiplied as a whole with fixed operands, so the draws
are bit-identical at any number of processes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist

import numpy as np

from . import core
from .core import (
    CdfEstimate,
    ConditionalCdfMatrix,
    EffectBand,
    ExperimentData,
    LocationGrid,
    _frozen_array,
    _integer,
    _is_integer,
    _seed,
    indicator_labels,
)
from .errors import DegenerateDraws, ShapeMismatch, ZeroBaselineSE
from .estimation import AdjustedEstimate, _check_curve, _check_functional, _curve

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
# units per chunk of a repetition's multiplier stream under schemes 2 to 4
_CHUNK_UNITS = 8192
_MULTIPLIER_SCHEMES = (1, 2, 3, 4)
# the scheme new bands draw on: bootstrap_draws, bootstrap_band(s) and cli.RunConfig read it
_DEFAULT_MULTIPLIER_SCHEME = 4
# the curve, repetitions and level of a band, which bootstrap_band(s) and cli.RunConfig default to
_DEFAULT_KIND = "dte"
_DEFAULT_ARM_PAIR = (2, 1)
_DEFAULT_N_DRAWS = 5000
_DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class InfluenceMatrix:
    """Influence values, indexed (arm, unit, location)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, ndim=3, name="influence values"))

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
        object.__setattr__(self, "draws", _frozen_array(self.draws))

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
    """One multiplier per unit from a fresh seeded stream, under scheme 1 or 2.

    The stream is read in the chunks :func:`bootstrap_draws` reads a
    repetition's stream in: under scheme 2 chunks of 8,192 units, under
    scheme 1 one chunk of all units. Each chunk of w units takes one
    ``standard_normal(2w)`` call, the first w values and the last w feeding
    :func:`multiplier_transform`. Schemes 3 and 4 draw the Gaussian half of
    a repetition as a whole, not per unit, so they have no per-unit
    multipliers.
    """
    _check_multiplier_scheme(multiplier_scheme)
    if multiplier_scheme >= 3:
        raise ValueError(
            f"multiplier scheme {multiplier_scheme} has no per-unit multipliers; use scheme 1 or 2"
        )
    rng = np.random.default_rng(seed)
    out = np.empty(n_units)
    for lo, hi in _chunks(n_units, multiplier_scheme):
        normals = rng.standard_normal(2 * (hi - lo))
        multiplier_transform(normals[:hi - lo], normals[hi - lo:], out=out[lo:hi])
    return out


def _check_multiplier_scheme(multiplier_scheme: int) -> None:
    """Reject a multiplier scheme other than 1, 2, 3 or 4."""
    if not _is_integer(multiplier_scheme) or multiplier_scheme not in _MULTIPLIER_SCHEMES:
        raise ValueError(f"multiplier_scheme must be 1, 2, 3 or 4, got {multiplier_scheme!r}")


def _chunks(n: int, multiplier_scheme: int) -> list[tuple[int, int]]:
    """The unit ranges [lo, hi) a repetition's stream is read in, in order.

    Schemes 2 to 4 read chunks of ``_CHUNK_UNITS`` units, scheme 1 one
    chunk of all n units.
    """
    _check_multiplier_scheme(multiplier_scheme)
    size = max(n, 1) if multiplier_scheme == 1 else _CHUNK_UNITS
    return [(lo, min(lo + size, n)) for lo in range(0, max(n, 1), size)]


def _check_draw_args(n_draws: int, seed: int) -> None:
    """Reject a repetition count or seed that cannot give reproducible draws."""
    if _integer(n_draws, "n_draws") < 2:
        raise ValueError(f"need at least 2 bootstrap repetitions, got {n_draws}")
    _seed(seed)


def _check_band_settings(kind: str, n_draws: int, alpha: float, seed: int, multiplier_scheme: int) -> None:
    """Reject band settings no data can satisfy, before any influence or multiplier work."""
    _check_functional(kind)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    # so both band levels, 1 - alpha / 2 and the literal 1 - alpha, have a finite normal quantile
    if not 1.0 - alpha / 2.0 < 1.0:
        raise ValueError(f"alpha must leave 1 - alpha / 2 below 1 in float64, got {alpha}")
    _check_draw_args(n_draws, seed)
    _check_multiplier_scheme(multiplier_scheme)


def bootstrap_draws(
    theta: CdfEstimate,
    psi: InfluenceMatrix,
    n_draws: int,
    seed: int,
    *,
    arms_per_estimate: int | None = None,
    multiplier_scheme: int = _DEFAULT_MULTIPLIER_SCHEME,
) -> BootstrapDraws:
    """Perturbed copies of the CDF matrix, one per bootstrap repetition.

    Repetition b uses its own generator stream, seeded by
    ``SeedSequence(seed, spawn_key=(b,))``, the b-th child that
    ``SeedSequence(seed).spawn`` gives, and reads it in chunks of units:
    under schemes 2 to 4 chunks of 8,192 units, under scheme 1 one chunk of
    all n. Under schemes 1 and 2 each chunk of w units takes one call for
    2w standard normals, the first w and the last w feeding
    :func:`multiplier_transform` (see :func:`multipliers`). Under scheme 3
    the stream first gives z_b, one standard normal per column of an
    estimate (arms x locations), in one call, and then each chunk one
    ``standard_normal(w)`` call, written
    straight into the block and mapped in place to (m2^2 - 1) / 2; after
    its last chunk each estimate's draw gains (z_b @ R) / sqrt(2) (see
    :func:`_gram_root`). Both halves are independent and, given the data,
    psi^T m1 is exactly N(0, psi^T psi), so each repetition has the law of
    scheme 2. Scheme 4, the default, is scheme 3 on an SFC64 generator with
    the per-unit half in float32: each chunk's call is
    ``standard_normal(dtype=np.float32, out=row)`` into a float32 block,
    mapped in float32, and multiplied by float32(2^-e psi chunk), e the
    binary exponent of the estimate's largest |psi| (see
    :func:`_exponent`); the products are summed in float64 and scaled back
    by 2^e, and z_b and the roots stay float64. R is formed per estimate,
    so the Gaussian halves of two stacked estimates have cross-covariance
    R_1 R_2 rather than psi_1^T psi_2; no output reads it, since every band
    reads only its own estimate's draws. The normals are therefore reproducible and do not
    depend on how repetitions are batched or which process draws them. The
    draw matmuls are not: BLAS can round the last bit differently for other
    operand shapes, so the block size, the chunks and the operands are
    fixed.

    Repetitions run in blocks of ``_DRAW_BLOCK`` rows (see
    :func:`_draw_blocks`), which :func:`dtekit.core._fan_out` spreads over
    forked processes; each block builds its repetitions' streams from their
    indices, so no process spawns all B of them, and each draw is divided by
    n once. The block size, the chunks and the operands of every product
    are the same in any process, and the roots and scales are computed
    once, in the calling process, so the draws are bit-identical at any number of processes.

    ``theta`` and ``psi`` may stack several estimates along the arm axis,
    ``arms_per_estimate`` arms each (default: all arms, one estimate). All
    estimates share one multiplier pass. Every chunk of multipliers is
    multiplied separately by each estimate's own (unit, arm x location) slab,
    so each estimate's draws are bit-identical to a pass of its own. On the
    values :func:`influence` and :func:`bootstrap_bands` build, the slabs
    are views; on C-ordered values they are copied out once. A slab that is
    a column block of a wider array reaches BLAS as the same operand with a
    wider leading dimension; under scheme 4 each chunk of a slab is cast
    into one C-ordered float32 buffer, whatever the slab's layout.
    """
    _check_draw_args(n_draws, seed)
    k, n, m = psi.values.shape
    if theta.values.shape != (k, m):
        raise ShapeMismatch(f"theta shape {theta.values.shape} != ({k}, {m})")
    per = k if arms_per_estimate is None else _integer(arms_per_estimate, "arms_per_estimate")
    if per < 1 or k % per:
        raise ShapeMismatch(f"{k} stacked arms do not split into estimates of {per} arms")
    chunks = _chunks(n, multiplier_scheme)
    # views on the layout of _new_influence
    slabs = [
        psi.values[first:first + per].transpose(1, 0, 2).reshape(n, per * m)
        for first in range(0, k, per)
    ]
    roots = [_gram_root(slab) for slab in slabs] if multiplier_scheme >= 3 else None
    exponents = [_exponent(slab) for slab in slabs] if multiplier_scheme == 4 else None
    blocks = [range(start, min(start + _DRAW_BLOCK, n_draws)) for start in range(0, n_draws, _DRAW_BLOCK)]
    draws = np.concatenate(core._fan_out(partial(_draw_blocks, seed, slabs, chunks, roots, exponents), blocks))
    draws /= n
    draws += theta.values.reshape(1, k * m)
    return BootstrapDraws(draws=draws.reshape(n_draws, k, m), seed=seed)


def _gram_root(slab: np.ndarray) -> np.ndarray:
    """The symmetric positive semi-definite square root R of ``slab.T @ slab``.

    From ``eigh``, negative eigenvalues clipped to 0. A column of zeros gets
    an exactly zero row and column of R, so its draws carry no Gaussian half
    at all; ``eigh`` of the whole Gram would leave rounding-sized entries
    there, and a band whose influence values are zero would no longer be
    recognised as degenerate.
    """
    gram = slab.T @ slab
    columns = np.flatnonzero(np.diagonal(gram) > 0.0)
    live = np.ix_(columns, columns)
    values, vectors = np.linalg.eigh(gram[live])
    root = np.zeros_like(gram)
    root[live] = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.T
    return root


def _exponent(slab: np.ndarray) -> int:
    """The binary exponent e of the slab's largest |psi|, so that 2^-e |psi| < 1 (0 for a zero slab).

    Read from the slab's largest and smallest values, without an |psi| copy.
    """
    return int(np.frexp(max(slab.max(initial=0.0), -slab.min(initial=0.0)))[1])


def _draw_blocks(
    seed: int,
    slabs: list[np.ndarray],
    chunks: list[tuple[int, int]],
    roots: list[np.ndarray] | None,
    exponents: list[int] | None,
    blocks: list[range],
) -> list[np.ndarray]:
    """The draws of each block of repetitions, not yet divided by n.

    A block runs chunk by chunk: each row fills the chunk's multipliers from
    its own generator, then each estimate's draws gain the product of the
    whole chunk with the chunk's rows of its slab. Under schemes 3 and 4
    (``roots`` given) each row first draws its Gaussian half, and each
    estimate's draws gain its product with the estimate's root after the
    last chunk. Under scheme 4 (``exponents`` given) the generators are
    SFC64, the block is float32, each chunk of a slab is scaled by 2^-e and
    cast into one float32 buffer just before its product, and each
    estimate's sum of products is scaled by 2^e before the Gaussian half.
    """
    width = chunks[0][1] - chunks[0][0]
    columns = slabs[0].shape[1]
    float32 = exponents is not None
    bit_generator = np.random.SFC64 if float32 else np.random.PCG64
    block = np.empty(max(map(len, blocks)) * width, dtype=np.float32 if float32 else np.float64)
    cast = np.empty((width, columns), dtype=np.float32) if float32 else None
    normals = np.empty(2 * width) if roots is None else None
    results = []
    for repetitions in blocks:
        # repetition b's stream is the b-th child that SeedSequence(seed).spawn gives
        generators = [np.random.Generator(bit_generator(np.random.SeedSequence(seed, spawn_key=(b,))))
                      for b in repetitions]
        if roots is not None:
            gaussian = np.array([generator.standard_normal(columns) for generator in generators])
        draws = np.empty((len(repetitions), len(slabs) * columns))
        for lo, hi in chunks:
            w = hi - lo
            # a C-ordered (rows, w) operand, whatever the chunk's width
            rows = block[:len(repetitions) * w].reshape(len(repetitions), w)
            if roots is None:
                for row, generator in zip(rows, generators):
                    generator.standard_normal(2 * w, out=normals[:2 * w])
                    multiplier_transform(normals[:w], normals[w:2 * w], out=row)
            else:
                for row, generator in zip(rows, generators):
                    generator.standard_normal(dtype=block.dtype, out=row)
                # (m2^2 - 1) / 2, in the block's precision
                np.square(rows, out=rows)
                rows -= 1.0
                rows /= 2.0
            for e, slab in enumerate(slabs):
                out = draws[:, e * columns:(e + 1) * columns]
                operand = slab[lo:hi]
                if float32:
                    operand = np.ldexp(operand, -exponents[e], out=cast[:w], casting="same_kind")
                if lo == 0:
                    out[...] = rows @ operand
                else:
                    out += rows @ operand
        if float32:
            for e, exponent in enumerate(exponents):
                out = draws[:, e * columns:(e + 1) * columns]
                np.ldexp(out, exponent, out=out)
        if roots is not None:
            for e, root in enumerate(roots):
                draws[:, e * columns:(e + 1) * columns] += (gaussian @ root) / np.sqrt(2.0)
        results.append(draws)
    return results


def bootstrap_band(
    data: ExperimentData,
    grid: LocationGrid,
    estimate: CdfEstimate | AdjustedEstimate,
    kind: str,
    arm_pair: tuple[int, int],
    n_draws: int,
    alpha: float,
    seed: int,
    literal_upper_quantile: bool,
    *,
    multiplier_scheme: int,
) -> EffectBand:
    """Pointwise multiplier-bootstrap confidence band for a CDF functional.

    ``estimate`` is either an empirical CdfEstimate (zero adjustment) or an
    AdjustedEstimate carrying its cross-fitted predictions. By default the
    band half-width uses the two-sided normal quantile z_{1 - alpha/2};
    ``literal_upper_quantile`` switches to z_{1 - alpha}. This is the
    one-estimate case of :func:`bootstrap_bands`, and takes its defaults.
    ``multiplier_scheme`` picks how repetitions read their multiplier
    streams (see :func:`bootstrap_draws`).
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
    kind: str = _DEFAULT_KIND,
    arm_pair: tuple[int, int] = _DEFAULT_ARM_PAIR,
    n_draws: int = _DEFAULT_N_DRAWS,
    alpha: float = _DEFAULT_ALPHA,
    seed: int = 0,
    literal_upper_quantile: bool = False,
    *,
    multiplier_scheme: int = _DEFAULT_MULTIPLIER_SCHEME,
) -> tuple[EffectBand, ...]:
    """One band per estimate, all from one shared multiplier pass.

    Every estimate sees the same multipliers, as separate
    :func:`bootstrap_band` calls with the same ``seed`` would give it, and
    each band is bit-identical to that call's; the multipliers are drawn
    once instead of once per estimate.
    """
    _check_band_settings(kind, n_draws, alpha, seed, multiplier_scheme)
    if not estimates:
        raise ValueError("need at least one estimate")
    arm, other_arm = _check_curve(kind, arm_pair, grid.n_locations, data.n_arms)
    pieces = [
        (e.estimate, e.gamma) if isinstance(e, AdjustedEstimate) else (e, None)
        for e in estimates
    ]
    k = data.n_arms

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
        curves = _curve(own, kind, arm, other_arm)
        point = _curve(theta.values, kind, arm, other_arm)
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


# bootstrap_band's defaults are written once, in bootstrap_bands' signature
bootstrap_band.__defaults__ = bootstrap_bands.__defaults__
bootstrap_band.__kwdefaults__ = bootstrap_bands.__kwdefaults__


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
