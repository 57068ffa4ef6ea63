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
value and chunk.  Each lane runs the ratio (Riccati) recursion
z' = a - b/z of Herbert & Jones (1971) and Thouless (1972), the
recursion of the Sturm pivots in tridiag, and sums log|z|: a ratio stays
in the doubles where the transfer state would leave them.  Type I at
omega^2 = 0, where the ratio itself walks, sums the logs of its ratios
instead (ledger D19).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .chain import ANDERSON, TYPE_I, TYPE_II, DisorderLaw, GaussianPotential, _require_positive_law
from .schmidt import DensityGrid
from .specfun import rng_from_seed, scaling_f
from .tridiag import _TINY

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


def _zero_rule(z):
    """Replace the zeros of z by _TINY, as a zero Sturm pivot is, and return how many there were."""
    zero = z == 0.0
    count = int(np.count_nonzero(zero))
    if count:
        z[zero] = _TINY
    return count


def _norm_excess(z, lam, walks):
    """log1p(1/z^2) / 2 = log|(u, v)| - log|u| at z = u / v = rho / sqrt(lam), also where 1/z^2 overflows.

    The first `walks` value rows hold log|rho| in place of rho."""
    s = np.abs(z if lam is None else z / np.sqrt(lam))
    e = np.where(s >= 1.0, 0.5 * np.log1p(1.0 / (s * s)), 0.5 * np.log1p(s * s) - np.log(s))
    if walks:
        log_z = z[:walks] - 0.5 * np.log(lam[:walks])
        e[:walks] = np.maximum(-log_z, 0.0) + 0.5 * np.log1p(np.exp(-2.0 * np.abs(log_z)))
    return e


def _block_gammas(fill, z0, chunk, block_len, burn_in, walks=0):
    """Mean log growth per step of the ratio recursions z' = a - b/z, and the number of zero ratios.

    z0 holds the start ratio of each lane, in the (values, blocks) lane
    shape.  fill(rows) writes the coefficients a of the next c <= chunk
    steps into rows, of shape (c, values, blocks), and returns (b, lam):
    b iterates over the c steps' b in the lane shape, and lam is None or
    the (c, values, blocks) couplings of a type I chain, whose recursion
    runs in the gauge rho = t z with t = sqrt(lam), b being the couplings
    before lam: there log|z| = log|rho| - log(lam) / 2.  Both are valid
    until the next call.  The ratio z_j = u_j / u_(j-1) of a trajectory
    u' = a u - b v, v' = u stays in the doubles where u would leave them
    (for a != 0), so nothing is rescaled.  A ratio that comes out exactly
    0 becomes _TINY, as a zero Sturm pivot does.  A block's gamma is
      (sum over B < j <= T of log|z_j| + e(z_T) - e(z_B)) / block_len,
    with e(z) = log1p(1/z^2) / 2 = log|(u, v)| - log|u| at the end T of
    the sweep and B of the burn-in; without a burn-in the B terms are 0,
    counting the growth from the start itself.

    The first `walks` value rows are type I lanes at a = 0, whose
    rho' = -b/rho walks multiplicatively out of the doubles under strong
    disorder: they hold log|rho| from z0 on, stepped by one accumulate
    per chunk of the logs of b with alternating signs, whose partial sums
    are bit for bit those of log|rho'| = log b - log|rho| with alternating
    signs.

    Each other step makes two numpy calls, which turn its row of a into
    its ratios in place.  A zero ratio raises at the next divide, which is
    redone after the zero rule; the last ratio of each chunk goes through
    the zero rule before its log.  The logs of a chunk's counted steps are
    taken in a few array calls and added onto the running sum by one
    reduce along the step axis, which numpy adds row after row in step
    order: the bits are those of a per-step loop, at any chunk length and
    for any set of values.
    """
    lanes = z0.shape
    z = np.empty((chunk + 1,) + lanes)  # row 0: the ratio before the chunk
    z[0] = z0
    z[0, :walks] = np.log(np.abs(z0[:walks]))
    zeros = _zero_rule(z[0, walks:])
    t = np.empty((lanes[0] - walks, lanes[1]))
    acc = np.zeros(lanes)
    excess_b = 0.0
    total = block_len + burn_in
    for start in range(0, total, chunk):
        c = min(chunk, total - start)
        rows = z[:c + 1]
        b, lam = fill(rows[1:])
        if walks:
            w = rows[:, :walks]  # (-1)^j log|rho_j|, summed from row 0
            np.log(b[:, :walks], out=w[1:])
            np.negative(w[1::2], out=w[1::2])
            np.add.accumulate(w, axis=0, out=w)
            np.negative(w[1::2], out=w[1::2])
            b = b[:, walks:]
        prev = rows[0, walks:]
        with np.errstate(divide="raise"):
            for cur, b_j in zip(rows[1:, walks:], b):
                try:
                    np.divide(b_j, prev, out=t)
                except FloatingPointError:
                    zeros += _zero_rule(prev)
                    np.divide(b_j, prev, out=t)
                np.subtract(cur, t, out=cur)
                prev = cur
        zeros += _zero_rule(prev)
        if start < burn_in <= start + c:
            k = burn_in - start
            excess_b = _norm_excess(rows[k], None if lam is None else lam[k - 1], walks)
        z[0] = rows[c]
        first = max(burn_in - start, 0)  # rows[1 + first:] are the counted steps
        if first < c:
            logs = rows[1 + first:]
            ratios = logs[:, walks:]
            np.abs(ratios, out=ratios)
            np.log(ratios, out=ratios)
            if lam is not None:
                np.subtract(logs, 0.5 * np.log(lam[first:]), out=logs)
            np.add(logs[0], acc, out=logs[0])
            np.add.reduce(logs, axis=0, out=acc)
    excess_t = _norm_excess(z[0], None if lam is None else lam[-1], walks)
    return (acc + excess_t - excess_b) / block_len, zeros


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
      type I:   t_n u' = omega u - t_{n-1} v with t = sqrt(lambda),
    run as the ratio recursion z' = a - b/z of z = u/v: a = 2 - omega^2 m / K
    or E - V and b = 1, and for type I, in the gauge rho = t_n z,
    rho' = omega - lambda_{n-1} / rho from rho = 2 sqrt(lambda) at the
    start (u, v) = (1, 0.5).
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
    grid = values.reshape(-1)
    rngs = [rng_from_seed(seed)] if scalar else [rng_from_seed((seed, i)) for i in range(grid.size)]
    # Type I lanes at omega = 0 go first, where _block_gammas sums logs (ledger D19).
    walks = int(np.count_nonzero(grid == 0)) if kind == TYPE_I else 0
    order = np.argsort(grid != 0, kind="stable") if walks else np.arange(grid.size)
    values, rngs = grid[order].reshape(-1, 1), [rngs[i] for i in order]  # one row of block lanes per value
    lanes = (values.size, n_blocks)
    block_len = n_steps // n_blocks
    total = block_len + burn_in
    chunk = min(max(1, _CHUNK_ELEMENTS // (values.size * n_blocks)), total)
    ones = repeat(np.ones(lanes))  # full lane shapes: a broadcast costs more per step
    z0 = np.full(lanes, 2.0)  # u / v at the start (1, 0.5)

    def draw(out):
        """Disorder of the next c steps into out, of shape (c, values, n_blocks)."""
        c = len(out)
        for i, rng in enumerate(rngs):
            out[:, i] = law.sample(rng, c * n_blocks).reshape(c, n_blocks)

    if kind == TYPE_II:

        def fill(a):
            draw(a)
            np.multiply(values, a, out=a)
            np.divide(a, spring_k, out=a)
            np.subtract(2.0, a, out=a)  # 2 - omega^2 m / K
            return ones, None

    elif kind == ANDERSON:

        def fill(a):
            draw(a)
            np.subtract(values, a, out=a)  # E - V
            return ones, None

    else:
        omega = np.sqrt(values)
        lam = np.empty((chunk + 1,) + lanes)  # row 0: the coupling of the step before the chunk
        lam[0] = np.stack([law.sample(rng, n_blocks) for rng in rngs])
        z0 = z0 * np.sqrt(lam[0])  # rho = t z
        last = 0

        def fill(a):
            nonlocal last
            c = len(a)
            a[...] = omega
            lam[0] = lam[last]
            draw(lam[1:c + 1])
            last = c
            return lam[:c], lam[1:c + 1]

    # A law whose draws overflow the step makes non-finite blocks; the check below refuses
    # them, so numpy's own warnings on the way there would only repeat it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        blocks, zeros = _block_gammas(fill, z0, chunk, block_len, burn_in, walks)
        blocks[order] = blocks.copy()
        moments = [(float(np.mean(row)), float(np.std(row, ddof=1) / math.sqrt(n_blocks))) for row in blocks]
    logger.debug("transfer sweep: %d lanes (%d values x %d blocks), %d steps per lane in %d chunks of %d steps; "
                 "%d zero ratios set to %g",
                 values.size * n_blocks, values.size, n_blocks, total, -(-total // chunk), chunk, zeros, _TINY)
    estimates = []
    for value, (gamma, stderr) in zip(grid, moments):
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
