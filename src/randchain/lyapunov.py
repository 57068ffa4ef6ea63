"""Transfer-matrix products, Lyapunov exponents and their spectral duals.

The growth rate gamma is always quoted per transfer step: one step per
mass for a sprung chain, one step per lattice site for the hopping and
potential-disorder tight-binding forms.  Block-mean error bars, the
Thouless-formula cross-check against an integrated density of states,
and the band-edge rescaling onto the Airy scaling function live here.

`transfer_lyapunov` takes one frequency/energy or an array of them.  The
values of an array are lanes of one transfer sweep beside the blocks,
value i drawing its disorder from the seed (seed, i); each lane's
arithmetic is that of the one-value call at that seed, so the two agree
bit for bit.  The disorder is drawn in chunks of steps, one draw per
value and chunk.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .chain import ANDERSON, TYPE_I, TYPE_II, DisorderLaw, GaussianPotential, _require_positive_law
from .schmidt import DensityGrid
from .specfun import rng_from_seed, scaling_f

__all__ = [
    "LyapunovEstimate",
    "CollapseReport",
    "MIN_STEPS",
    "transfer_lyapunov",
    "thouless_gamma",
    "band_edge_collapse",
]

logger = logging.getLogger(__name__)

# Fewest counted steps a transfer estimate accepts.
MIN_STEPS = 1000

# Disorder values (steps x values x blocks) drawn per chunk of a transfer
# sweep.  A chunk costs one draw per value and one array operation per
# step coefficient, instead of one of each per step; the bound keeps its
# few arrays of this many elements near half a megabyte each.
_CHUNK_ELEMENTS = 1 << 16

# Most steps between two rescalings of the transfer state by a power of
# two (longer periods save no more time: ledger D17), and how many bits
# the state may grow or shrink by between two (the normal range spans
# 2**-1022 to 2**1024): see _block_gammas.
_MAX_PERIOD = 32
_RANGE_BITS = 500
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Per-step log growth rate with block-mean error bar."""

    gamma: float
    stderr: float
    steps: int

    def __post_init__(self):
        if not self.stderr >= 0 or self.steps < 1:
            raise ValueError("invalid estimate")


def _rescale_period(growth):
    """Steps between two rescalings of the transfer state, given the chunk's growth bound.

    growth bounds the factor by which one step of the chunk can grow or
    shrink max(|u|, |v|).  Over this many steps after a rescaling into
    [1/2, 1) the state so stays within 2**+-_RANGE_BITS.  A non-finite
    bound gives 1: a rescaling after every step.
    """
    if not growth < math.inf:
        return 1
    bits = math.log2(growth)
    if bits * _MAX_PERIOD <= _RANGE_BITS:
        return _MAX_PERIOD
    return max(1, int(_RANGE_BITS / bits))


def _rescale(u, v, exponents, m, s, e):
    """Scale u and v in place by 2**-e, the power of two that brings max(|u|, |v|) into [1/2, 1).

    e is added to exponents; m and s are float scratch arrays and e an
    int scratch array of the lane shape.
    """
    np.abs(u, m)
    np.abs(v, s)
    np.maximum(m, s, out=m)
    np.frexp(m, m, e)
    np.negative(e, e)
    np.ldexp(u, e, u)
    np.ldexp(v, e, v)
    np.subtract(exponents, e, exponents)


def _log_norm(u, v):
    return np.log(np.sqrt(u * u + v * v))


def _block_gammas(chunk_coefficients, step, lanes, chunk, block_len, burn_in):
    """Mean log growth per step of trajectories u' = step(coefficient, u, v), and the rescale periods used.

    lanes is the (values, blocks) shape of the state, and
    chunk_coefficients(c) gives the coefficients of the next c <= chunk
    steps, one per step, valid until its next call, and a bound on the
    factor by which one of those steps can grow or shrink max(|u|, |v|).
    Each step is followed by v' = u.  The state is x = 2**E (u, v) with
    an integer exponent E per lane: every few steps (_rescale_period of
    the chunk's bound, at most _MAX_PERIOD), at the end of the burn-in
    and at the end of each chunk, (u, v) is scaled by the power of two
    that brings max(|u|, |v|) into [1/2, 1), and the exponent goes into
    E.  A block's gamma is
      ((E_T - E_B) log 2 + log|x_T| - log|x_B|) / block_len,
    with |x| = sqrt(u*u + v*v) of the rescaled state at the end T of the
    sweep and B of the burn-in; without a burn-in the B terms are 0,
    counting the growth from the start (1, 0.5) itself.

    Scaling by a power of two is exact, and it commutes with every
    correctly rounded multiply, subtract and divide of a step as long as
    no value leaves the normal range.  Between rescalings the bound
    keeps max(|u|, |v|) within 2**+-_RANGE_BITS, far inside that range,
    and a chunk with no finite bound rescales after every step.  So the
    bits of u, v and E at the canonical rescalings do not depend on how
    often the state was rescaled in between: the result is that of a
    rescaling after every step, whatever the chunk length and the
    periods, and the lanes of one value give the same bits in any sweep.
    (Only a component or product that falls about 2**520 below its
    lane's max(|u|, |v|) could leave the normal range in one schedule
    and not in another: ledger D17.)

    No step allocates: step(coefficient, u, v, out, scratch) writes u'
    into out, then u, v and out rotate among three preallocated arrays.
    """
    u = np.ones(lanes)
    v = np.full(lanes, 0.5)
    t = np.empty(lanes)
    scratch = np.empty(lanes)
    e = np.empty(lanes, dtype=np.intc)
    exponents = np.zeros(lanes, dtype=np.int64)
    burn_exponents, burn_log = 0, 0.0
    periods = []
    total = block_len + burn_in
    for start in range(0, total, chunk):
        end = min(start + chunk, total)
        coefficients, growth = chunk_coefficients(end - start)
        period = _rescale_period(growth)
        periods.append(period)
        stops = {*range(start + period, end, period), end, burn_in}
        for i, coefficient in enumerate(coefficients, start + 1):
            step(coefficient, u, v, t, scratch)
            u, v, t = t, u, v
            if i in stops:
                _rescale(u, v, exponents, t, scratch, e)
                if i == burn_in:
                    burn_exponents, burn_log = exponents.copy(), _log_norm(u, v)
    gammas = ((exponents - burn_exponents) * _LN2 + _log_norm(u, v) - burn_log) / block_len
    return gammas, periods


def _linear_growth(a):
    """Bound max|a| + 1 on the growth and shrink of max(|u|, |v|) under u' = a u - v, v' = u."""
    return float(np.maximum(a.max(), -a.min())) + 1.0


def _linear_step(a, u, v, out, scratch):
    np.multiply(a, u, out)
    np.subtract(out, v, out)


def transfer_lyapunov(
    kind: str,
    law: DisorderLaw,
    omega_sq_or_e,
    n_steps: int,
    seed=0,
    spring_k: float = 1.0,
    n_blocks: int = 50,
    burn_in: int = 1000,
) -> LyapunovEstimate | list[LyapunovEstimate]:
    """Lyapunov exponents of the chain or lattice at given frequencies/energies.

    The argument is the squared frequency for the sprung chains and the
    energy for the lattice kind.  The step is
      type II:  u' = (2 - omega^2 m / K) u - v, one mass m per step;
      anderson: u' = (E - V) u - v, band [-2, 2];
      type I:   t_n u' = omega u - t_{n-1} v with t = sqrt(lambda).
    n_steps counted steps are split over n_blocks independent
    trajectories (each with its own discarded burn-in); the estimate is
    the mean of the block means and the error bar their standard error.

    A scalar argument draws from the generator of `seed` and returns one
    estimate.  A 1-D array returns one estimate per value, value i drawn
    from the generator of (seed, i): bit for bit the scalar call at that
    seed.  All values step together as lanes of one sweep.  Each value's
    disorder is drawn in chunks of c steps, as one draw of c * n_blocks
    reshaped to (c, n_blocks), which the generator fills in the order of
    c draws of n_blocks.  Every chunk is drawn into one buffer, and its
    step coefficients are formed there in place, with the operations of
    the one-value formulas.

    Raises ValueError for invalid arguments and ArithmeticError when an
    estimate comes out non-finite.
    """
    if kind not in (TYPE_I, TYPE_II, ANDERSON):
        raise ValueError(f"unsupported kind {kind}")
    if not spring_k > 0:
        raise ValueError("spring_k must be positive")
    if kind != ANDERSON:
        _require_positive_law(law)
    values = np.asarray(omega_sq_or_e, dtype=float)
    scalar = values.ndim == 0
    if values.ndim > 1 or values.size == 0:
        raise ValueError("need a scalar or a non-empty 1-D array of values")
    if not np.all(np.isfinite(values)):
        raise ValueError("frequencies and energies must be finite")
    if kind == TYPE_I and np.any(values < 0):
        raise ValueError("type I chains take omega_sq >= 0")
    if n_steps < MIN_STEPS:
        raise ValueError(f"need n_steps >= {MIN_STEPS}")
    if n_blocks < 2 or n_steps // n_blocks < 1:
        raise ValueError("invalid block structure")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    values = values.reshape(-1, 1)  # one row of block lanes per value
    rngs = [rng_from_seed(seed)] if scalar else [rng_from_seed((seed, i)) for i in range(values.size)]
    block_len = n_steps // n_blocks
    total = block_len + burn_in
    chunk = min(max(1, _CHUNK_ELEMENTS // (values.size * n_blocks)), total)
    buf = np.empty((chunk, values.size, n_blocks))

    def draw(c):
        """Disorder of the next c steps, shape (c, values, n_blocks), in buf."""
        out = buf[:c]
        for i, rng in enumerate(rngs):
            out[:, i] = law.sample(rng, c * n_blocks).reshape(c, n_blocks)
        return out

    step = _linear_step
    if kind == TYPE_II:

        def coefficients(c):
            a = draw(c)
            np.multiply(values, a, out=a)
            np.divide(a, spring_k, out=a)
            np.subtract(2.0, a, out=a)  # 2 - omega^2 m / K
            return a, _linear_growth(a)

    elif kind == ANDERSON:

        def coefficients(c):
            a = np.subtract(values, draw(c), out=buf[:c])  # E - V
            return a, _linear_growth(a)

    else:
        omega = np.sqrt(values) * np.ones(n_blocks)  # full lane shape: a broadcast costs more per step
        omega_max = float(omega.max())
        t_prev = np.sqrt(np.stack([law.sample(rng, n_blocks) for rng in rngs]))

        def coefficients(c):
            nonlocal t_prev
            t = np.sqrt(draw(c), out=buf[:c])
            t_min = min(float(t.min()), float(t_prev.min()))
            t_max = max(float(t.max()), float(t_prev.max()))
            # the step and its inverse each grow max(|u|, |v|) by at most max(1, (omega + t) / t_-)
            growth = max(1.0, (omega_max + t_max) / t_min) if t_min > 0 else math.inf
            pairs = zip([t_prev, *t[:-1]], t)
            t_prev = t[-1].copy()  # the next draw overwrites the buffer
            return pairs, growth

        def step(pair, u, v, out, scratch):
            t_last, t_cur = pair
            np.multiply(omega, u, out)
            np.multiply(t_last, v, scratch)
            np.subtract(out, scratch, out)
            np.divide(out, t_cur, out)

    # A law whose draws overflow the step makes non-finite blocks; the check below refuses
    # them, so numpy's own warnings on the way there would only repeat it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        blocks, periods = _block_gammas(coefficients, step, (values.size, n_blocks), chunk, block_len, burn_in)
    logger.debug("transfer sweep: %d lanes (%d values x %d blocks), %d steps per lane in %d chunks of %d steps; "
                 "smallest rescale period %d steps, %d chunks below %d",
                 values.size * n_blocks, values.size, n_blocks, total, len(periods), chunk,
                 min(periods), sum(p < _MAX_PERIOD for p in periods), _MAX_PERIOD)
    estimates = []
    for value, row in zip(values[:, 0], blocks):
        gamma = float(np.mean(row))
        stderr = float(np.std(row, ddof=1) / math.sqrt(n_blocks))
        if not (math.isfinite(gamma) and math.isfinite(stderr)):
            raise ArithmeticError(f"non-finite Lyapunov estimate at {value:g}")
        estimates.append(LyapunovEstimate(gamma=gamma, stderr=stderr, steps=n_blocks * block_len))
    return estimates[0] if scalar else estimates


def _log_abs_average(a: float, b: float, s: float) -> float:
    """Average of log|s - mu| over mu in [a, b] (exact antiderivative).

    Finite for s inside the panel as well, which is how the logarithmic
    singularity of the Thouless integrand is handled: the panel pair
    around s contributes its exact principal-value mass.
    """
    if b <= a:
        raise ValueError("need a < b")

    def part(u: float) -> float:
        if u == 0.0:
            return 0.0
        return u * math.log(abs(u))

    return (part(s - a) - part(s - b)) / (b - a) - 1.0


def thouless_gamma(
    idos_curve: DensityGrid, omega_sq: float, law: DisorderLaw, spring_k: float
) -> float:
    """Lyapunov exponent from the spectral measure: Thouless route.

    gamma = int log|omega^2 - mu| dM(mu) + <log m> - log K, with the
    integral taken against the tabulated spectral mass, each cell
    integrated under its exact log kernel average.
    """
    edges = idos_curve.edges()
    total = idos_curve.total_mass
    if total <= 0:
        raise ValueError("empty spectral measure")
    acc = 0.0
    for w, a, b in zip(idos_curve.weights, edges[:-1], edges[1:]):
        if w == 0.0:
            continue
        acc += w * _log_abs_average(a, b, omega_sq)
    acc /= total
    return acc + law.mean_log() - math.log(spring_k)


@dataclass(frozen=True)
class CollapseReport:
    """Band-edge rescaling of Lyapunov data onto the Airy scaling function."""

    energies: np.ndarray
    scaled_coord: np.ndarray
    scaled_gamma: np.ndarray
    scaled_stderr: np.ndarray
    reference: np.ndarray
    rel_dev: np.ndarray
    max_rel_dev: float


def band_edge_collapse(alpha: float, energy_grid, n_steps: int, seed=0) -> CollapseReport:
    """Rescaled Lyapunov exponents of the weakly disordered lattice.

    The site potential has variance 1/alpha; for each energy E the
    exponent is rescaled as gamma (2 alpha)^{1/3} and plotted against
    (2 alpha)^{2/3} (|E| - 2), where it should follow the Airy scaling
    function.
    """
    if not (math.isfinite(alpha) and alpha >= 8):
        raise ValueError("weak-disorder collapse needs a finite alpha >= 8")
    energies = np.atleast_1d(np.asarray(energy_grid, dtype=float))  # a scalar is the one-point grid
    cube = (2.0 * alpha) ** (1.0 / 3.0)
    scaled_x = (2.0 * alpha) ** (2.0 / 3.0) * (np.abs(energies) - 2.0)
    law = GaussianPotential(1.0 / alpha)
    ests = transfer_lyapunov(ANDERSON, law, energies, n_steps, seed=seed)
    gammas = np.array([est.gamma for est in ests])
    errs = np.array([est.stderr for est in ests])
    scaled_gamma = gammas * cube
    scaled_err = errs * cube
    reference = scaling_f(scaled_x)
    rel = np.abs(scaled_gamma - reference) / np.abs(reference)
    return CollapseReport(
        energies=energies,
        scaled_coord=scaled_x,
        scaled_gamma=scaled_gamma,
        scaled_stderr=scaled_err,
        reference=reference,
        rel_dev=rel,
        max_rel_dev=float(np.max(rel)),
    )
