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


@dataclass(frozen=True)
class LyapunovEstimate:
    """Per-step log growth rate with block-mean error bar."""

    gamma: float
    stderr: float
    steps: int

    def __post_init__(self):
        if not self.stderr >= 0 or self.steps < 1:
            raise ValueError("invalid estimate")


def _block_gammas(chunk_coefficients, step, lanes, chunk, block_len, burn_in):
    """Mean log growth per step of trajectories u' = step(coefficient, u, v).

    lanes is the (values, blocks) shape of the state, and
    chunk_coefficients(c) gives the coefficients of the next c <= chunk
    steps, one per step, valid until its next call.  Each step is
    followed by v' = u and a renormalisation of (u', v'), so no overflow
    is possible; the logs of the norms after the burn-in are accumulated.

    No step allocates: step(coefficient, u, v, out, scratch) writes u'
    into out, then u, v and out rotate among three preallocated arrays,
    and every call writes into one of them or into scratch.  A chunk's
    norms fill rows 1..c of one buffer; after the chunk their logs are
    taken at once and added, row after row, to the running sum held in
    the row before the first counted one.  Each element so sees the
    operations of the one-array-per-step loop in its order,
    ((acc + log n_0) + log n_1) + ..., bit for bit: every ufunc here is
    elementwise, and a reduction along axis 0, which is not the
    contiguous axis, adds its rows in sequence.
    """
    u = np.ones(lanes)
    v = np.full(lanes, 0.5)
    t = np.empty(lanes)
    scratch = np.empty(lanes)
    norms = np.empty((chunk + 1, *lanes))
    acc = np.zeros(lanes)
    multiply, add, sqrt, divide = np.multiply, np.add, np.sqrt, np.divide  # local names: the loop is dispatch-bound
    total = block_len + burn_in
    for start in range(0, total, chunk):
        c = min(chunk, total - start)
        for n, coefficient in zip(norms[1:c + 1], chunk_coefficients(c)):
            step(coefficient, u, v, t, scratch)
            u, v, t = t, u, v
            multiply(u, u, n)
            multiply(v, v, t)
            add(n, t, n)
            sqrt(n, n)
            divide(u, n, u)
            divide(v, n, v)
        skip = max(0, burn_in - start)  # rows 1..skip hold burn-in norms
        if skip < c:
            counted = norms[skip:c + 1]
            counted[0] = acc
            np.log(counted[1:], out=counted[1:])
            np.add.reduce(counted, axis=0, out=acc)
    return acc / block_len


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
    logger.debug("transfer sweep: %d lanes (%d values x %d blocks), %d steps per lane in %d chunks of %d steps",
                 values.size * n_blocks, values.size, n_blocks, total, -(-total // chunk), chunk)
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
            return np.subtract(2.0, a, out=a)  # 2 - omega^2 m / K

    elif kind == ANDERSON:

        def coefficients(c):
            return np.subtract(values, draw(c), out=buf[:c])  # E - V

    else:
        omega = np.sqrt(values) * np.ones(n_blocks)  # full lane shape: a broadcast costs more per step
        t_prev = np.sqrt(np.stack([law.sample(rng, n_blocks) for rng in rngs]))

        def coefficients(c):
            nonlocal t_prev
            t = np.sqrt(draw(c), out=buf[:c])
            pairs = zip([t_prev, *t[:-1]], t)
            t_prev = t[-1].copy()  # the next draw overwrites the buffer
            return pairs

        def step(pair, u, v, out, scratch):
            t_last, t_cur = pair
            np.multiply(omega, u, out)
            np.multiply(t_last, v, scratch)
            np.subtract(out, scratch, out)
            np.divide(out, t_cur, out)

    # A law whose draws overflow the step makes non-finite blocks; the check below refuses
    # them, so numpy's own warnings on the way there would only repeat it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        blocks = _block_gammas(coefficients, step, (values.size, n_blocks), chunk, block_len, burn_in)
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
    if alpha < 8:
        raise ValueError("weak-disorder collapse needs alpha >= 8")
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
