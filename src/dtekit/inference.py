"""Multiplier-bootstrap inference for CDF-level estimates.

The influence value of unit i for arm w at location y is

    psi = 1{W_i = w} (1{Y_i <= y} - gamma_w(X_i, y)) / pihat_w
          + gamma_w(X_i, y) - theta_w(y)

with pihat_w the sample share of arm w. Bootstrap repetition b perturbs the
estimate along the influence directions with i.i.d. mean-zero, variance-one
multipliers xi_i, then re-applies the functional of interest (a CDF row, a
DTE, or a PTE) with the curve code and checks of :mod:`dtekit.estimation`.
Every multiplier scheme gives the draws the covariance psi^T psi / n^2 given
the data, which is all a band reads. Pointwise
standard errors are the square root of the sample variance across
repetitions, and bands are point +/- z * SE.

A band is one :func:`bootstrap_band` call: it writes one estimate's
influence values (empirical or adjusted, say), draws its repetitions with
one :func:`bootstrap_draws` call on the seed, and frees the values when it
returns. :func:`bootstrap_bands` makes that call for each estimate of a run
on the run's seed, so every estimate sees the same multipliers and the run
holds one estimate's values at a time.

Influence values are written once, where the draw pass reads them: in the
usual case the estimate's (unit, arm x location) slab, n rows of k*m values,
is one C-ordered (unit, arm, location) array, and the
:class:`InfluenceMatrix` is a view of it. The empirical path's zero
adjustment is the scalar 0.0, not an array.

Under multiplier scheme 5, the default for new runs, the multipliers are
standard normals. Given the data, sum_i psi_i xi_i is then exactly
N(0, psi^T psi), so a repetition is drawn from that law directly: z_b, one
standard normal per column of the estimate (arms x locations), times R, the
symmetric square root of the estimate's Gram matrix psi^T psi. All B rows of
z come from one SFC64 stream seeded by the seed, so every estimate of a run
reads the same z, and the pass runs in the calling process. z @ R is formed
in blocks of 256 rows, the last padded with zero rows, so every product has
one shape and a repetition's draws do not depend on B. The pass's cost grows
with n only through the one Gram product, and a band run holds, beyond its
inputs, one slab at a time (n*k*m float64 values), z and the draws.

Schemes 1 to 4 exist to replay the manifests that recorded them. They draw
Mammen-type multipliers xi_i = m1_i / sqrt(2) + (m2_i^2 - 1) / 2 from one
generator stream per repetition, the b-th child of the seed's
``SeedSequence``, read in chunks of units. Under scheme 3, repetition b
first draws z_b, then reads its stream in chunks of 8,192 units, one
standard normal m2 per unit mapped in place to (m2^2 - 1) / 2. The draws sum
the products of the chunks with the slab in chunk order, then gain
(z_b @ R) / sqrt(2). Scheme 4 is scheme 3 with the chi-square half in
float32: each repetition's generator is SFC64 on the same spawned seed, z_b
is still float64, and the m2 normals, their map and the chunk products are
float32. Each chunk of psi is scaled by 2^-e, e the binary exponent of the
slab's largest |psi|, and cast to float32 when it is multiplied; the
float64 sum of the products is scaled back by 2^e, which is exact and keeps
every finite psi in float32's range. Schemes 2 and 1 draw both halves per
unit, scheme 2 in chunks of 8,192 units and scheme 1, which manifests
written before the scheme was recorded replay on, as one chunk of all n
units; the two give the same bytes whenever n <= 8,192. Such a pass runs in
the calling process, one block of 256 repetitions after another, and holds a
block of at most 256 x 8,192 multipliers (float32 under scheme 4, and
256 x n under scheme 1) plus, under scheme 4, one float32 chunk of the slab.
BLAS can round a product's last bit differently for other operand shapes, so
the block size and the chunks are those the recorded bands were drawn with.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import (
    CdfEstimate,
    ConditionalCdfMatrix,
    EffectBand,
    ExperimentData,
    LocationGrid,
    _frozen_array,
    _integer,
    _is_integer,
    _is_real,
    _seed,
    indicator_labels,
)
from .errors import DegenerateDraws, ShapeMismatch, ZeroBaselineSE
from .estimation import AdjustedEstimate, _check_curve, _check_functional, _curve

__all__ = [
    "InfluenceMatrix",
    "influence",
    "multiplier_transform",
    "multipliers",
    "bootstrap_draws",
    "bootstrap_band",
    "bootstrap_bands",
    "se_reduction",
]

# repetitions per block of multipliers under schemes 1 to 4, per z @ R product under scheme 5
_DRAW_BLOCK = 256
# units per chunk of a repetition's multiplier stream under schemes 2 to 4
_CHUNK_UNITS = 8192
_MULTIPLIER_SCHEMES = (1, 2, 3, 4, 5)
# the scheme new bands draw on: bootstrap_draws, bootstrap_band(s) and cli.RunConfig read it
_DEFAULT_MULTIPLIER_SCHEME = 5
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
    copy (see :func:`_new_influence`). The formula's operations run in place,
    in the order of the written expression, so every value rounds as it would
    computed out of place; the zero adjustment is the scalar 0.0, which gives
    the same IEEE results as an array of zeros.
    """
    k, n, m = data.n_arms, data.n_units, grid.n_locations
    if theta.values.shape != (k, m):
        raise ShapeMismatch(f"theta shape {theta.values.shape} != ({k}, {m})")
    if gamma is not None and gamma.predictions.shape != (k, n, m):
        raise ShapeMismatch(f"gamma shape {gamma.predictions.shape} != ({k}, {n}, {m})")
    labels = indicator_labels(data, grid)
    values = _new_influence(k, n, m)
    for w in range(1, k + 1):
        own = (data.arms == w)[:, None]
        pred = 0.0 if gamma is None else gamma.predictions[w - 1]
        # own * (labels - pred) / share + pred - theta_w
        psi = values[w - 1]
        np.subtract(labels, pred, out=psi)
        np.multiply(own, psi, out=psi)
        psi /= data.stats.shares[w - 1]
        psi += pred
        psi -= theta.values[w - 1][None, :]
    return InfluenceMatrix._frozen(values)


def _new_influence(k: int, n: int, m: int) -> np.ndarray:
    """Uninitialized (arm, unit, location) values, laid out for :func:`bootstrap_draws`.

    The draw pass multiplies the values as the (n, k x m) slab
    ``values.transpose(1, 0, 2).reshape(n, k*m)``. On this layout that
    reshape is a view of a C-ordered (n, k, m) array, so no slab is copied,
    and the slab is the operand the pass forms from C-ordered values. With
    one location, where that reshape of C-ordered values is a view already,
    the values are C-ordered themselves.
    """
    if m == 1:
        return np.empty((k, n, m))
    return np.empty((n, k, m)).transpose(1, 0, 2)


def multiplier_transform(m1: np.ndarray, m2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Combine two standard normal draws into one mean-zero variance-one multiplier.

    Schemes 1 and 2 draw their multipliers with it; no band on a newer
    scheme calls it, so it serves the replay of old manifests.

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
    :func:`multiplier_transform`. Schemes 3 to 5 draw the Gaussian half of
    a repetition (under scheme 5, the whole of it) from its law given the
    data, not per unit, so they have no per-unit multipliers. Schemes 1 and
    2, and so this function, serve the replay of old manifests.
    """
    _check_multiplier_scheme(multiplier_scheme)
    if multiplier_scheme >= 3:
        raise ValueError(
            f"multiplier scheme {multiplier_scheme} has no per-unit multipliers; use scheme 1 or 2"
        )
    if _integer(n_units, "n_units") < 0:
        raise ValueError(f"n_units must not be negative, got {n_units}")
    rng = np.random.default_rng(_seed(seed))
    out = np.empty(n_units)
    for lo, hi in _chunks(n_units, multiplier_scheme):
        normals = rng.standard_normal(2 * (hi - lo))
        multiplier_transform(normals[:hi - lo], normals[hi - lo:], out=out[lo:hi])
    return out


def _check_multiplier_scheme(multiplier_scheme: int) -> None:
    """Reject a multiplier scheme that is not one of ``_MULTIPLIER_SCHEMES``."""
    if not _is_integer(multiplier_scheme) or multiplier_scheme not in _MULTIPLIER_SCHEMES:
        *first, last = _MULTIPLIER_SCHEMES
        raise ValueError(
            f"multiplier_scheme must be {', '.join(map(str, first))} or {last}, got {multiplier_scheme!r}"
        )


def _chunks(n: int, multiplier_scheme: int) -> list[tuple[int, int]]:
    """The unit ranges [lo, hi) a repetition's stream is read in, in order, under schemes 1 to 4.

    Schemes 2 to 4 read chunks of ``_CHUNK_UNITS`` units, scheme 1 one
    chunk of all n units. Scheme 5 reads no stream per repetition, so this
    serves replay only.
    """
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
    if not (_is_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
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
    multiplier_scheme: int = _DEFAULT_MULTIPLIER_SCHEME,
) -> np.ndarray:
    """Perturbed copies of the CDF matrix, one per bootstrap repetition.

    Returns the draws as a read-only (repetition, arm, location) array,
    ``n_draws`` x the arms of ``theta`` x its locations. Every product is
    taken with the estimate's (unit, arm x location) slab of ``psi`` or
    with its root; on the values :func:`influence` builds the slab is a
    view, on C-ordered values it is copied out once. Each draw is divided
    by n once.

    Under scheme 5, the default, repetition b is theta + (z_b @ R) / n, R
    the root of the estimate's Gram matrix (see :func:`_gram_root`) and z
    the ``n_draws`` x (arms x locations) standard normals of one
    ``standard_normal`` call on ``Generator(SFC64(SeedSequence(seed)))``, so
    every estimate drawn on one seed reads the same z. Given the data the
    draws are exactly Gaussian with the covariance psi^T psi / n^2 of every
    other scheme. The first B rows of a run of more repetitions are a run of
    B, bit for bit (see :func:`_gaussian_draws`).

    Schemes 1 to 4 replay old manifests. Repetition b uses its own
    generator stream, seeded by ``SeedSequence(seed, spawn_key=(b,))``, the
    b-th child that ``SeedSequence(seed).spawn`` gives, and reads it in
    chunks of units: under schemes 2 to 4 chunks of 8,192 units, under
    scheme 1 one chunk of all n. Under schemes 1 and 2 each chunk of w units
    takes one call for 2w standard normals, the first w and the last w
    feeding :func:`multiplier_transform` (see :func:`multipliers`). Under
    scheme 3 the stream first gives z_b, one standard normal per column of
    the estimate, in one call, and then each chunk one
    ``standard_normal(w)`` call, written straight into the block and mapped
    in place to (m2^2 - 1) / 2; after the last chunk the draw gains
    (z_b @ R) / sqrt(2). Scheme 4 is scheme 3 on an SFC64 generator with the
    per-unit half in float32: each chunk's call is
    ``standard_normal(dtype=np.float32, out=row)`` into a float32 block,
    mapped in float32, and multiplied by float32(2^-e psi chunk), e the
    binary exponent of the largest |psi| (see :func:`_exponent`); the
    products are summed in float64 and scaled back by 2^e, and z_b and the
    root stay float64; each chunk of the slab is cast into one C-ordered
    float32 buffer, whatever the slab's layout. These repetitions run in the
    calling process, in blocks of ``_DRAW_BLOCK`` rows (see
    :func:`_draw_blocks`).
    """
    _check_draw_args(n_draws, seed)
    k, n, m = psi.values.shape
    if theta.values.shape != (k, m):
        raise ShapeMismatch(f"theta shape {theta.values.shape} != ({k}, {m})")
    _check_multiplier_scheme(multiplier_scheme)
    # a view on the layout of _new_influence
    slab = psi.values.transpose(1, 0, 2).reshape(n, k * m)
    if multiplier_scheme == 5:
        draws = _gaussian_draws(seed, slab, n_draws)
    else:
        draws = _draw_blocks(seed, slab, n_draws, multiplier_scheme)
    draws /= n
    draws += theta.values.reshape(1, k * m)
    draws = draws.reshape(n_draws, k, m)
    draws.setflags(write=False)
    return draws


def _gaussian_draws(seed: int, slab: np.ndarray, n_draws: int) -> np.ndarray:
    """Scheme 5's (repetition, arm x location) draws, not yet divided by n.

    z, ``n_draws`` x (arms x locations) standard normals, is one
    ``standard_normal`` call on ``Generator(SFC64(SeedSequence(seed)))``,
    written into an array of whole ``_DRAW_BLOCK``-row blocks whose padding
    rows are zero. The draws are z @ R, R the root of the slab's Gram
    matrix, taken one block at a time: every product is a
    (_DRAW_BLOCK, columns) @ (columns, columns) one, whatever ``n_draws``
    is, since BLAS can round a row differently in a product of another
    shape.
    """
    columns = slab.shape[1]
    z = np.zeros((-(-n_draws // _DRAW_BLOCK) * _DRAW_BLOCK, columns))
    np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed))).standard_normal(out=z[:n_draws])
    root = _gram_root(slab)
    draws = np.empty((n_draws, columns))
    for start in range(0, n_draws, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, n_draws)
        draws[start:stop] = (z[start:start + _DRAW_BLOCK] @ root)[:stop - start]
    return draws


def _gram_root(slab: np.ndarray) -> np.ndarray:
    """The symmetric positive semi-definite square root R of ``slab.T @ slab``.

    From ``eigh``, negative eigenvalues clipped to 0. A column of zeros gets
    an exactly zero row and column of R, so its draws carry no Gaussian part
    at all (under scheme 5, its draws are theta exactly); ``eigh`` of the
    whole Gram would leave rounding-sized entries there, and a band whose
    influence values are zero would no longer be recognised as degenerate.
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
    Only scheme 4 scales its chunks, so this serves replay only.
    """
    return int(np.frexp(max(slab.max(initial=0.0), -slab.min(initial=0.0)))[1])


def _draw_blocks(seed: int, slab: np.ndarray, n_draws: int, multiplier_scheme: int) -> np.ndarray:
    """The (repetition, arm x location) draws of schemes 1 to 4, not yet divided by n.

    These schemes, and so this function, serve the replay of old manifests;
    scheme 5 draws in :func:`_gaussian_draws`. The repetitions run in blocks
    of ``_DRAW_BLOCK`` rows, and a block runs chunk by chunk: each row fills
    the chunk's multipliers from its own generator, then the block's draws
    gain the product of the whole chunk with the chunk's rows of the slab.
    Under schemes 3 and 4 each row first draws its Gaussian half, and the
    draws gain its product with the slab's root after the last chunk. Under
    scheme 4 the generators are SFC64, the block is float32, each chunk of
    the slab is scaled by 2^-e and cast into one float32 buffer just before
    its product, and the sum of products is scaled by 2^e before the
    Gaussian half.
    """
    n, columns = slab.shape
    chunks = _chunks(n, multiplier_scheme)
    width = chunks[0][1] - chunks[0][0]
    gaussian_half = multiplier_scheme >= 3
    float32 = multiplier_scheme == 4
    root = _gram_root(slab) if gaussian_half else None
    exponent = _exponent(slab) if float32 else None
    bit_generator = np.random.SFC64 if float32 else np.random.PCG64
    block = np.empty(min(_DRAW_BLOCK, n_draws) * width, dtype=np.float32 if float32 else np.float64)
    cast = np.empty((width, columns), dtype=np.float32) if float32 else None
    normals = None if gaussian_half else np.empty(2 * width)
    draws = np.empty((n_draws, columns))
    for start in range(0, n_draws, _DRAW_BLOCK):
        repetitions = range(start, min(start + _DRAW_BLOCK, n_draws))
        out = draws[start:repetitions.stop]
        # repetition b's stream is the b-th child that SeedSequence(seed).spawn gives
        generators = [np.random.Generator(bit_generator(np.random.SeedSequence(seed, spawn_key=(b,))))
                      for b in repetitions]
        if gaussian_half:
            gaussian = np.array([generator.standard_normal(columns) for generator in generators])
        for lo, hi in chunks:
            w = hi - lo
            # a C-ordered (rows, w) operand, whatever the chunk's width
            rows = block[:len(repetitions) * w].reshape(len(repetitions), w)
            if gaussian_half:
                for row, generator in zip(rows, generators):
                    generator.standard_normal(dtype=block.dtype, out=row)
                # (m2^2 - 1) / 2, in the block's precision
                np.square(rows, out=rows)
                rows -= 1.0
                rows /= 2.0
            else:
                for row, generator in zip(rows, generators):
                    generator.standard_normal(2 * w, out=normals[:2 * w])
                    multiplier_transform(normals[:w], normals[w:2 * w], out=row)
            operand = slab[lo:hi]
            if float32:
                operand = np.ldexp(operand, -exponent, out=cast[:w], casting="same_kind")
            if lo == 0:
                out[...] = rows @ operand
            else:
                out += rows @ operand
        if float32:
            np.ldexp(out, exponent, out=out)
        if gaussian_half:
            out += (gaussian @ root) / np.sqrt(2.0)
    return draws


def bootstrap_band(
    data: ExperimentData,
    grid: LocationGrid,
    estimate: CdfEstimate | AdjustedEstimate,
    kind: str = _DEFAULT_KIND,
    arm_pair: tuple[int, int] = _DEFAULT_ARM_PAIR,
    n_draws: int = _DEFAULT_N_DRAWS,
    alpha: float = _DEFAULT_ALPHA,
    seed: int = 0,
    literal_upper_quantile: bool = False,
    *,
    multiplier_scheme: int = _DEFAULT_MULTIPLIER_SCHEME,
) -> EffectBand:
    """Pointwise multiplier-bootstrap confidence band for a CDF functional.

    ``estimate`` is either an empirical CdfEstimate (zero adjustment) or an
    AdjustedEstimate carrying its cross-fitted predictions. By default the
    band half-width uses the two-sided normal quantile z_{1 - alpha/2};
    ``literal_upper_quantile`` switches to z_{1 - alpha}. The SE is the
    sample standard deviation of the curve over the repetitions of one
    :func:`bootstrap_draws` call, whose ``multiplier_scheme`` picks how they
    are drawn. The estimate's influence values and draws are freed when this
    returns.
    """
    _check_band_settings(kind, n_draws, alpha, seed, multiplier_scheme)
    arm, other_arm = _check_curve(kind, arm_pair, grid.n_locations, data.n_arms)
    adjusted = isinstance(estimate, AdjustedEstimate)
    theta, gamma = (estimate.estimate, estimate.gamma) if adjusted else (estimate, None)
    psi = influence(data, grid, theta, gamma)
    draws = bootstrap_draws(theta, psi, n_draws, seed, multiplier_scheme=multiplier_scheme)
    curves = _curve(draws, kind, arm, other_arm)
    if psi.values.any() and bool(np.all(curves == curves[0])):
        raise DegenerateDraws("bootstrap repetitions collapsed to one curve")
    se = curves.std(axis=0, ddof=1)
    point = _curve(theta.values, kind, arm, other_arm)
    z = NormalDist().inv_cdf(1.0 - alpha if literal_upper_quantile else 1.0 - alpha / 2.0)
    return EffectBand(
        kind=kind,
        arm_pair=(arm, other_arm),
        locations=grid.locations if kind != "pte" else grid.locations[1:],
        point=point,
        se=se,
        ci_lower=point - z * se,
        ci_upper=point + z * se,
    )


def bootstrap_bands(
    data: ExperimentData,
    grid: LocationGrid,
    estimates: Sequence[CdfEstimate | AdjustedEstimate],
    kind: str,
    arm_pair: tuple[int, int],
    n_draws: int,
    alpha: float,
    seed: int,
    literal_upper_quantile: bool,
    *,
    multiplier_scheme: int,
) -> tuple[EffectBand, ...]:
    """The :func:`bootstrap_band` of each estimate, in order, on the same settings and ``seed``.

    Every estimate therefore sees the same multipliers (under scheme 5 the same z).
    Under scheme 5 two bands' draws are then correlated as R_1 R_2 rather
    than psi_1^T psi_2, which no output reads. Each band frees its influence
    values before the next band writes its own, so the run holds one slab at
    a time. The settings are checked before the first band's work.
    """
    _check_band_settings(kind, n_draws, alpha, seed, multiplier_scheme)
    if not estimates:
        raise ValueError("need at least one estimate")
    return tuple(
        bootstrap_band(
            data, grid, estimate, kind, arm_pair, n_draws, alpha, seed, literal_upper_quantile,
            multiplier_scheme=multiplier_scheme,
        )
        for estimate in estimates
    )


# bootstrap_bands' defaults are written once, in bootstrap_band's signature
bootstrap_bands.__defaults__ = bootstrap_band.__defaults__
bootstrap_bands.__kwdefaults__ = bootstrap_band.__kwdefaults__


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
