"""Transfer-matrix products, Lyapunov exponents and their spectral duals.

The growth rate gamma is always quoted per transfer step: one step per
mass for a sprung chain, one step per lattice site for the hopping and
potential-disorder tight-binding forms.  Block-mean error bars, the
Thouless-formula cross-check against an integrated density of states,
and the band-edge rescaling onto the Airy scaling function live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ANDERSON, TYPE_I, TYPE_II, DisorderLaw, GaussianPotential
from .schmidt import DensityGrid
from .specfun import rng_from_seed, scaling_f

__all__ = [
    "LyapunovEstimate",
    "CollapseReport",
    "transfer_lyapunov",
    "thouless_gamma",
    "band_edge_collapse",
]


@dataclass(frozen=True)
class LyapunovEstimate:
    """Per-step log growth rate with block-mean error bar."""

    gamma: float
    stderr: float
    steps: int

    def __post_init__(self):
        if self.stderr < 0 or self.steps < 1:
            raise ValueError("invalid estimate")


def _block_gammas(step, n_blocks, block_len, burn_in):
    """Mean log growth per step of n_blocks trajectories of u' = step(u, v).

    Each step is followed by v' = u and a renormalisation of (u', v'), so
    no overflow is possible; the logs of the norms after the burn-in are
    accumulated.
    """
    u = np.ones(n_blocks)
    v = np.full(n_blocks, 0.5)
    acc = np.zeros(n_blocks)
    for i in range(block_len + burn_in):
        u, v = step(u, v), u
        norm = np.sqrt(u * u + v * v)
        u /= norm
        v /= norm
        if i >= burn_in:
            acc += np.log(norm)
    return acc / block_len


def transfer_lyapunov(
    kind: str,
    law: DisorderLaw,
    omega_sq_or_e: float,
    n_steps: int,
    seed=0,
    spring_k: float = 1.0,
    n_blocks: int = 50,
    burn_in: int = 1000,
) -> LyapunovEstimate:
    """Lyapunov exponent of the chain or lattice at the given frequency/energy.

    The argument is the squared frequency for the sprung chains and the
    energy for the lattice kind.  The step is
      type II:  u' = (2 - omega^2 m / K) u - v, one mass m per step;
      anderson: u' = (E - V) u - v, band [-2, 2];
      type I:   t_n u' = omega u - t_{n-1} v with t = sqrt(lambda).
    n_steps counted steps are split over n_blocks independent
    trajectories (each with its own discarded burn-in); the estimate is
    the mean of the block means and the error bar their standard error.
    """
    if kind not in (TYPE_I, TYPE_II, ANDERSON):
        raise ValueError(f"unsupported kind {kind}")
    if not spring_k > 0:
        raise ValueError("spring_k must be positive")
    if kind != ANDERSON and isinstance(law, GaussianPotential):
        raise ValueError("sprung chains need a positive law, not a signed potential")
    if kind == TYPE_I and omega_sq_or_e < 0:
        raise ValueError("type I chains take omega_sq >= 0")
    if n_steps < 1000:
        raise ValueError("need n_steps >= 1000")
    if n_blocks < 2 or n_steps // n_blocks < 1:
        raise ValueError("invalid block structure")
    rng = rng_from_seed(seed)
    block_len = n_steps // n_blocks
    if kind == TYPE_II:

        def step(u, v):
            return (2.0 - omega_sq_or_e * law.sample(rng, n_blocks) / spring_k) * u - v

    elif kind == ANDERSON:

        def step(u, v):
            return (omega_sq_or_e - law.sample(rng, n_blocks)) * u - v

    else:
        omega = math.sqrt(omega_sq_or_e)
        t_prev = np.sqrt(law.sample(rng, n_blocks))

        def step(u, v):
            nonlocal t_prev
            t_cur = np.sqrt(law.sample(rng, n_blocks))
            u_next = (omega * u - t_prev * v) / t_cur
            t_prev = t_cur
            return u_next

    blocks = _block_gammas(step, n_blocks, block_len, burn_in)
    gamma = float(np.mean(blocks))
    stderr = float(np.std(blocks, ddof=1) / math.sqrt(n_blocks))
    return LyapunovEstimate(gamma=gamma, stderr=stderr, steps=n_blocks * block_len)


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


def band_edge_collapse(
    alpha: float, energy_grid, n_steps: int, seed=0, n_blocks: int = 50
) -> CollapseReport:
    """Rescaled Lyapunov exponents of the weakly disordered lattice.

    The site potential has variance 1/alpha; for each energy E the
    exponent is rescaled as gamma (2 alpha)^{1/3} and plotted against
    (2 alpha)^{2/3} (|E| - 2), where it should follow the Airy scaling
    function.
    """
    if alpha < 8:
        raise ValueError("weak-disorder collapse needs alpha >= 8")
    energies = np.asarray(energy_grid, dtype=float)
    cube = (2.0 * alpha) ** (1.0 / 3.0)
    scaled_x = (2.0 * alpha) ** (2.0 / 3.0) * (np.abs(energies) - 2.0)
    gammas = np.empty(energies.size)
    errs = np.empty(energies.size)
    law = GaussianPotential(1.0 / alpha)
    for i, e in enumerate(energies):
        est = transfer_lyapunov(ANDERSON, law, float(e), n_steps, seed=(seed, i), n_blocks=n_blocks)
        gammas[i] = est.gamma
        errs[i] = est.stderr
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
