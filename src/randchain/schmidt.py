"""Stationary laws of the random chain recursions and what they yield.

The continued-fraction variable of a type I chain, the displacement
ratios of a type II chain, and the characteristic-polynomial ratios of
the anti-symmetric form all satisfy random fixed-point equations of the
Dyson-Schmidt type.  This module iterates them (Monte Carlo and on
density grids), extracts the characteristic function and the integrated
density of states from the stationary laws, counts nodes exactly on
finite chains, and checks the Letac fixed-point identity for the Kummer
family.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blocks import block_view, walk_blocks
from .chain import Constant, DisorderLaw, Gamma, TwoPoint, _require_positive_law, fixed_frequency_matrix
from .specfun import rng_from_seed
from .tridiag import count_below, count_below_many

__all__ = [
    "DensityGrid",
    "XiTypeI",
    "RatioTypeII",
    "AntisymRatio",
    "GridError",
    "KsResult",
    "mc_stationary",
    "omega_mc",
    "omega_type2_mc",
    "idos_node_fraction",
    "node_count",
    "density_iteration",
    "letac_check",
    "sample_kummer",
]

logger = logging.getLogger(__name__)

DEFAULT_BURN_IN = 1000


class GridError(ArithmeticError):
    """Density grid cannot represent the mass it is asked to hold."""


@dataclass(frozen=True)
class DensityGrid:
    """Probability mass tabulated on an ascending grid of cell centres."""

    points: np.ndarray
    weights: np.ndarray
    total_mass: float = 1.0

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if p.ndim != 1 or p.size != w.size:
            raise ValueError("points and weights must be 1-d arrays of equal length")
        if np.any(np.diff(p) <= 0):
            raise ValueError("points must be strictly increasing")
        # Roundoff-level negative masses from CDF differences are clipped.
        floor = -1e-9 * max(abs(self.total_mass), 1.0)
        if np.any(w < floor):
            raise ValueError("weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        if abs(float(np.sum(w)) - self.total_mass) > 1e-9 * max(1.0, abs(self.total_mass)):
            raise ValueError("weights must sum to total_mass")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "weights", w)

    def edges(self) -> np.ndarray:
        """Cell edges: midpoints between centres, end cells extended symmetrically."""
        p = self.points
        inner = 0.5 * (p[1:] + p[:-1])
        first = p[0] - (inner[0] - p[0]) if p.size > 1 else p[0] - 0.5
        last = p[-1] + (p[-1] - inner[-1]) if p.size > 1 else p[-1] + 0.5
        return np.concatenate([[first], inner, [last]])

    def l1_distance(self, other: "DensityGrid") -> float:
        if other.points.shape != self.points.shape or not np.allclose(other.points, self.points):
            raise ValueError("grids must share the same points")
        return float(np.sum(np.abs(self.weights - other.weights)))

    @staticmethod
    def geometric(lo: float, hi: float, n: int) -> "DensityGrid":
        """Uniform-mass start on a geometric grid over (lo, hi)."""
        pts = np.geomspace(lo, hi, n)
        return DensityGrid(pts, np.full(n, 1.0 / n))

    @staticmethod
    def uniform(lo: float, hi: float, n: int) -> "DensityGrid":
        pts = np.linspace(lo, hi, n)
        return DensityGrid(pts, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class XiTypeI:
    """Continued-fraction recursion xi' = x lambda / (1 + xi)."""

    x: float

    def __post_init__(self):
        if not self.x > 0:
            raise ValueError("x must be positive")


@dataclass(frozen=True)
class RatioTypeII:
    """Displacement-ratio recursion z' = (2 - omega^2 m / K) - 1/z."""

    omega_sq: float
    spring_k: float = 1.0

    def __post_init__(self):
        if not self.spring_k > 0:
            raise ValueError("spring_k must be positive")


@dataclass(frozen=True)
class AntisymRatio:
    """Shifted ratio recursion s' = -(lambda / y^2) / (1 + s)."""

    y: float

    def __post_init__(self):
        if not self.y * self.y > 0:
            raise ValueError("y**2 must be positive")


class KsResult(NamedTuple):
    statistic: float
    pvalue: float


def mc_stationary(kind, law: DisorderLaw, n_samples: int, burn_in: int = DEFAULT_BURN_IN, seed=0) -> np.ndarray:
    """Samples of the stationary variable of the given recursion.

    The recursion is iterated from a fixed start (xi0 = x, z0 = 1, s0 = 0)
    with one fresh disorder draw per step; the first burn_in iterates are
    discarded.  Exact division-by-zero steps (measure zero under the
    continuous laws) propagate through infinity, which every map folds
    back to a finite value at the next step; occurrences are counted and
    logged.  Long runs go as verified blocks, with every value that of
    the step-by-step loop (_stationary_path).
    """
    if n_samples < 1 or burn_in < 0:
        raise ValueError("need n_samples >= 1 and burn_in >= 0")
    _require_positive_law(law)
    rng = rng_from_seed(seed)
    # Each map reads one coefficient per step, computed here in place of
    # its draw with the loop's own operations, so its bits are the loop's.
    c = np.asarray(law.sample(rng, n_samples + burn_in), dtype=float)
    if isinstance(kind, XiTypeI):
        # xi stays nonnegative for positive laws, so the singular point
        # -1 is unreachable in practice.
        x = float(kind.x)
        np.multiply(x, c, out=c)  # x lambda
        path = _stationary_path(_fraction_loop, _fraction_step, (c,), x, "xi")
    elif isinstance(kind, RatioTypeII):
        np.multiply(float(kind.omega_sq), c, out=c)
        np.divide(c, float(kind.spring_k), out=c)
        np.subtract(2.0, c, out=c)  # a = 2 - omega^2 m / K
        path = _stationary_path(_ratio_loop, _ratio_step, (c,), 1.0, "z")
    elif isinstance(kind, AntisymRatio):
        np.divide(c, float(kind.y) * float(kind.y), out=c)
        np.negative(c, out=c)  # -lambda / y^2
        path = _stationary_path(_fraction_loop, _fraction_step, (c,), 0.0, "s")
    else:
        raise TypeError(f"unsupported recursion kind: {kind!r}")
    return path[burn_in:]


# Stationary paths of at least _BLOCK_MIN blocks of _BLOCK_STEPS steps run as
# verified blocks (blocks.py).  A block is twice the longest coalescence of the
# xi and eta paths over the laws and x of ledger D11 (the z and s paths meet
# later near their band edges, and re-run there), and the break-even with the
# loop lies between 30 (xi) and 45 (eta) blocks on a 2-core box.  Sweep 2
# writes _BLOCK_ROWS steps of every block at a time to a contiguous buffer,
# then into the path.
_BLOCK_STEPS = 1024
_BLOCK_MIN = 48
_BLOCK_ROWS = 32
# Sweep 1 starts every block from this guess.  The paths' own starts are
# poor guesses: a coefficient a = 1 maps z = 1 to the pole 0, and c = -1
# maps s = 0 to the pole -1, both exact for common laws (twopoint masses
# at omega^2 m / K = 1, say).  No coefficient a law draws is likely to be
# 1/_GUESS or -(1 + _GUESS) exactly.
_GUESS = 0.6180339887498949  # the golden ratio less one


def _fraction_loop(c, v, out):
    """v' = c / (1 + v) over the coefficients c from v, into out: the xi and s maps."""
    singular = 0
    for i, ci in enumerate(c):
        denom = 1.0 + v
        if denom == 0.0:
            v = math.inf
            singular += 1
        else:
            v = ci / denom  # denom = inf maps v to 0
        out[i] = v
    return v, singular


def _fraction_step(v, out, t, u, c):
    np.add(1.0, v, out=t)
    np.divide(c, t, out=out)


def _ratio_loop(a, v, out):
    """z' = a - 1/z over the coefficients a from z, into out."""
    singular = 0
    for i, ai in enumerate(a):
        if v == 0.0:
            v = math.inf  # signed-infinity propagation of 1/0
            singular += 1
        v = ai - 1.0 / v if not math.isinf(v) else ai
        out[i] = v
    return v, singular


def _ratio_step(v, out, t, u, a):
    np.divide(1.0, v, out=t)
    np.subtract(a, t, out=out)


def _eta_loop(xl, opl, v, out):
    """eta' = (eta opl + 1) / (xl (1 + eta)) over xl = x K/m and opl = 1 + xl from eta, into out."""
    singular = 0
    for i, (xli, opli) in enumerate(zip(xl, opl)):
        denom = xli * (1.0 + v)
        if denom == 0.0:
            v = math.inf
            singular += 1
        elif not math.isinf(v):
            v = (v * opli + 1.0) / denom
        else:
            v = opli / xli if xli else math.inf  # numpy's 1/0
        out[i] = v
    return v, singular


def _eta_step(v, out, t, u, xl, opl):
    np.add(1.0, v, out=t)
    np.multiply(xl, t, out=t)
    np.multiply(v, opl, out=u)
    np.add(u, 1.0, out=u)
    np.divide(u, t, out=out)


def _stationary_path(loop, step, coeffs, start: float, name: str) -> np.ndarray:
    """The recursion's values from start, one per coefficient step, exactly as loop gives them.

    loop(*coeffs, v, out) runs the scalar recursion over (slices of) the
    coefficient arrays from v, writes its values to out and returns the
    last value and the count of singular steps.  step(v, out, t, u, *rows)
    is the same map on arrays, one element per block, with scratch t and
    u.  A path of at least _BLOCK_MIN blocks runs as verified blocks
    (blocks.py): the sweeps raise on any floating-point exception but
    underflow, and then the whole path goes to the loop, which alone
    handles singular steps.  What ran is logged at debug level.
    """
    total = coeffs[0].size
    out = np.empty(total)
    path, data = memoryview(out), [memoryview(c) for c in coeffs]
    length = _BLOCK_STEPS
    n_blocks = total // length
    done, v, singular, reruns, fallback = 0, start, 0, 0, False
    lanes = n_blocks if n_blocks >= _BLOCK_MIN else 0
    if lanes:
        rows = [block_view(c, length, n_blocks) for c in coeffs]
        try:
            with np.errstate(all="raise", under="ignore"):
                ends1 = _sweep(step, rows, np.full(n_blocks, _GUESS), None)
                ends2 = _sweep(step, rows, np.r_[start, ends1[:-1]], block_view(out, length, n_blocks, writeable=True))
        except FloatingPointError:
            fallback = True
        else:
            def rerun(b, redo, w):
                nonlocal singular
                span = slice(b * length, (b + 1) * length)
                w, hits = loop(*(d[span] for d in data), float(w[0]), path[span])
                singular += hits
                return w

            end, reruns = walk_blocks(ends1, ends2, rerun)
            v, done = float(end), n_blocks * length
    v, hits = loop(*(d[done:] for d in data), v, path[done:])
    singular += hits
    logger.debug("%s path: %d steps, %d lanes of %d-step blocks, %d re-run, loop fallback %s",
                 name, total, lanes, length, reruns, fallback)
    if singular:
        logger.debug("%s path handled %d singular steps", name, singular)
    return out


def _sweep(step, rows, v: np.ndarray, out) -> np.ndarray:
    """Carries the blocks' values v over the block_view rows; writes them to out (a writeable block_view) if given."""
    t, u = np.empty_like(v), np.empty_like(v)
    if out is None:
        for row in zip(*rows):
            step(v, v, t, u, *row)
        return v
    buf = np.empty((_BLOCK_ROWS, v.size))
    for j0 in range(0, out.shape[0], _BLOCK_ROWS):
        chunk = buf[:out.shape[0] - j0]
        for dest, row in zip(chunk, zip(*(r[j0:j0 + _BLOCK_ROWS] for r in rows))):
            step(v, dest, t, u, *row)
            v = dest
        out[j0:j0 + chunk.shape[0]] = chunk
    return v.copy()


def omega_mc(kind: XiTypeI, law: DisorderLaw, n_samples: int, seed=0, burn_in: int = DEFAULT_BURN_IN) -> float:
    """Monte Carlo characteristic function: 2 <log(1 + xi)> at stationarity."""
    xi = mc_stationary(kind, law, n_samples, burn_in=burn_in, seed=seed)
    return 2.0 * float(np.mean(np.log1p(xi)))


def _eta_samples(law: DisorderLaw, spring_k: float, x: float, n: int, burn_in: int, rng) -> np.ndarray:
    """Stationary samples of the paired-ratio variable of a type II chain.

    Folding the two equal-lambda continued-fraction steps of one mass into
    a single update gives eta' = (eta (1 + x lam) + 1) / (x lam (1 + eta))
    with lam = K/m, run from eta = 1 by _stationary_path.
    """
    xl = np.asarray(law.sample(rng, n + burn_in), dtype=float)
    np.divide(spring_k, xl, out=xl)
    np.multiply(float(x), xl, out=xl)  # x lam
    return _stationary_path(_eta_loop, _eta_step, (xl, 1.0 + xl), 1.0, "eta")[burn_in:]


def omega_type2_mc(law: DisorderLaw, spring_k: float, x: float, n: int, seed=0, burn_in: int = DEFAULT_BURN_IN) -> float:
    """Characteristic function of a type II chain by Monte Carlo.

    Averages log(1 + 1/eta + x K/m) over stationary eta and the mass law;
    for the two-point and constant laws the mass average is exact.
    """
    if not (x > 0 and spring_k > 0):
        raise ValueError("x and spring_k must be positive")
    if n < 1 or burn_in < 0:
        raise ValueError("need n >= 1 and burn_in >= 0")
    _require_positive_law(law)
    rng = rng_from_seed(seed)
    eta = _eta_samples(law, spring_k, x, n, burn_in, rng)
    base = 1.0 + 1.0 / eta
    if isinstance(law, TwoPoint):
        return float(
            np.mean(
                law.p * np.log(base + x * spring_k / law.m)
                + (1.0 - law.p) * np.log(base + x * spring_k / law.big_m)
            )
        )
    if isinstance(law, Constant):
        return float(np.mean(np.log(base + x * spring_k / law.v)))
    fresh = law.sample(rng, eta.size)
    return float(np.mean(np.log(base + x * spring_k / fresh)))


def node_count(masses: np.ndarray, spring_k: float, omega_sq: float) -> int:
    """Exact node count of the fixed-boundary chain with the given masses.

    The displacement ratios U_{j+1}/U_j from U_0 = 0, U_1 = 1 are m_j/K > 0
    times the Sturm pivots of chain.fixed_frequency_matrix (diagonal 2K/m_j,
    off-diagonal -K/sqrt(m_j m_{j+1})) at omega_sq, so the negative ratios
    number its squared frequencies strictly below omega_sq.
    """
    return count_below(fixed_frequency_matrix(masses, spring_k), omega_sq)


def idos_node_fraction(law: DisorderLaw, spring_k: float, omega_sq, n_steps: int, seed=0):
    """Integrated density of states as the fraction of negative ratios.

    One realized chain of n_steps masses is drawn and every probe omega_sq
    is counted on it; the negative-ratio count is an exact eigenvalue
    count for that finite chain, so the fraction is an unbiased
    finite-size estimate of M(omega^2).  A scalar omega_sq gives a float,
    an array gives an array.
    """
    w2 = np.asarray(omega_sq, dtype=float)
    if np.any(w2 < 0):
        raise ValueError("omega_sq must be nonnegative")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not spring_k > 0:
        raise ValueError("spring_k must be positive")
    _require_positive_law(law)
    t = fixed_frequency_matrix(law.sample(rng_from_seed(seed), n_steps), spring_k)
    frac = count_below_many(t, w2) / float(n_steps)
    return float(frac[0]) if w2.ndim == 0 else frac


# ----------------------------------------------------------------------
# density-grid iteration of the fixed-point equations
# ----------------------------------------------------------------------


def _grid_cdf(grid: DensityGrid, q: np.ndarray) -> np.ndarray:
    """Mass of the grid below q, treating each cell as uniform."""
    edges = grid.edges()
    cum = np.concatenate([[0.0], np.cumsum(grid.weights)])
    q = np.asarray(q, dtype=float)
    idx = np.clip(np.searchsorted(edges, q, side="right") - 1, 0, grid.points.size - 1)
    frac = np.clip((q - edges[idx]) / (edges[idx + 1] - edges[idx]), 0.0, 1.0)
    out = cum[idx] + frac * grid.weights[idx]
    out = np.where(q <= edges[0], 0.0, out)
    out = np.where(q >= edges[-1], grid.total_mass, out)
    return out


def _step_ratio2(grid: DensityGrid, law: DisorderLaw, omega_sq: float, spring_k: float) -> tuple[np.ndarray, float]:
    """One application of the type II ratio map z' = a - 1/z per mass branch.

    Each branch is monotone on z < 0 and z > 0 separately; new cell masses
    are grid-CDF differences of the preimages of the cell edges.
    """
    if isinstance(law, TwoPoint):
        branches = [(law.p, law.m), (1.0 - law.p, law.big_m)]
    else:  # Constant, as density_iteration checks
        branches = [(1.0, law.v)]
    edges = grid.edges()
    # Open-ended end cells: the line is compactified, so mass mapped past
    # the grid is folded into the outermost cells instead of being lost;
    # the amount so clamped, read off the preimages of the two closed
    # ends (the last two of eds), is returned as the leak diagnostic.
    eds = np.concatenate([[-np.inf], edges[1:-1], [np.inf], edges[[0, -1]]])
    new_w = np.zeros(grid.points.size)
    clamped = 0.0
    for prob, mass in branches:
        if prob == 0.0:
            continue
        a = 2.0 - omega_sq * mass / spring_k
        with np.errstate(divide="ignore"):
            # z' = a - 1/z; preimage of edge e is 1/(a - e) per half line.
            pre = 1.0 / (a - eds)
        cdf_pos = _halfline_cdf(grid, np.where(eds < a, pre, np.inf), positive=True)
        cdf_neg = _halfline_cdf(grid, np.where(eds > a, pre, -np.inf), positive=False)
        new_w += prob * (np.diff(cdf_pos[:-2]) + np.diff(cdf_neg[:-2]))
        inside = float(cdf_pos[-1] - cdf_pos[-2] + cdf_neg[-1] - cdf_neg[-2])
        clamped += prob * (grid.total_mass - inside)
    return new_w, clamped


def _halfline_cdf(grid: DensityGrid, q: np.ndarray, positive: bool) -> np.ndarray:
    """Mass of the grid restricted to one sign half-line, below q."""
    zero_mass = _grid_cdf(grid, np.array([0.0]))[0]
    full = _grid_cdf(grid, q)
    # _grid_cdf maps -inf to 0 and +inf to the total mass.
    return np.clip(full - zero_mass, 0.0, None) if positive else np.clip(full, 0.0, zero_mass)


def density_iteration(kind, law: DisorderLaw, grid: DensityGrid, n_iter: int) -> tuple[DensityGrid, list[float]]:
    """Iterate the stationary-density map n_iter times on the grid.

    Returns the final grid and the L1 residuals between successive
    iterates.  Raises TypeError for another kind; ValueError for n_iter
    < 1, a signed law, an XiTypeI grid point <= -1 or a RatioTypeII kind
    with a law other than Constant or TwoPoint; and GridError when more
    than 1 % of the mass per step falls outside the grid.
    """
    if not isinstance(kind, (XiTypeI, RatioTypeII)):
        raise TypeError(f"density iteration not available for {type(kind).__name__}")
    if n_iter < 1:
        raise ValueError("n_iter must be at least 1")
    _require_positive_law(law)
    if isinstance(kind, RatioTypeII) and not isinstance(law, (Constant, TwoPoint)):
        raise ValueError("ratio-map iteration supports constant and two-point laws")
    if isinstance(kind, XiTypeI):
        if grid.points[0] <= -1.0:
            raise ValueError("xi grid points must lie above -1: there 1 + xi <= 0 reverses or empties the kernel's column")
        # The type I map xi' = x lambda/(1 + xi) is binned exactly through
        # the law's CDF: the image of source cell j lies in cell i iff
        # lambda = xi' (1 + xi)/x lies in the matching window.  The points
        # never move, so the transition kernel is tabulated once.
        kern = np.diff(law.cdf(grid.edges()[:, None] * ((1.0 + grid.points)[None, :] / kind.x)), axis=0)
    residuals: list[float] = []
    current = grid
    leak_fraction = 0.0
    for _ in range(n_iter):
        if isinstance(kind, XiTypeI):
            # Not kern @ w: BLAS sums in another order.
            new_w = (kern * current.weights[None, :]).sum(axis=1)
            leak = current.total_mass - float(np.sum(new_w))
        else:
            new_w, leak = _step_ratio2(current, law, kind.omega_sq, kind.spring_k)
        leak_fraction = leak / max(current.total_mass, 1e-300)
        new = DensityGrid(current.points, new_w, total_mass=float(np.sum(new_w)))
        residuals.append(current.l1_distance(new) if current.total_mass > 0 else math.inf)
        current = new
    # Early iterates of a poor start may spill widely; what matters is the
    # leakage of the settled map.
    if leak_fraction > 0.01:
        raise GridError(f"mass leak fraction {leak_fraction:.3g} at the final step exceeds 0.01")
    if current.total_mass < 0.5 * grid.total_mass:
        raise GridError(
            f"grid retained only {current.total_mass:.3g} of {grid.total_mass:.3g}; "
            "support not covered"
        )
    return current, residuals


# ----------------------------------------------------------------------
# Letac / Kummer fixed-point identity
# ----------------------------------------------------------------------


def sample_kummer(a: float, b: float, p: float, n: int, rng) -> np.ndarray:
    """Kummer type II samples, density ~ x^{a-1} e^{-p x} (1+x)^{-(a+b)}.

    Rejection against the Gamma[a, p] envelope with acceptance weight
    (1+x)^{-(a+b)}; requires a + b >= 0 so the weight stays bounded by 1.
    For a + b < 0 the reciprocal construction would be needed and is not
    supported here.
    """
    if a <= 0 or p <= 0:
        raise ValueError("need a > 0 and p > 0")
    if a + b < 0:
        raise ValueError("rejection sampler requires a + b >= 0")
    envelope = Gamma(a, p)
    out = np.empty(n)
    filled = 0
    attempts = 0
    while filled < n:
        chunk = max(int(1.5 * (n - filled)) + 16, 32)
        x = envelope.sample(rng, chunk)
        accept = rng.random(chunk) < (1.0 + x) ** (-(a + b))
        got = x[accept]
        take = min(got.size, n - filled)
        out[filled : filled + take] = got[:take]
        filled += take
        attempts += chunk
        if attempts > 200 * n and filled < max(1, attempts // 100):
            raise ValueError("Kummer envelope acceptance rate below 1 percent")
    return out


def letac_check(alpha: float, beta: float, p: float, n: int, seed=0) -> KsResult:
    """Two-sample KS test of the fixed-point identity of the Kummer family.

    X/(1+Y) with X ~ Gamma[alpha, p] and Y ~ Kummer[alpha+beta, -beta, p]
    is compared against direct Kummer[alpha, beta, p] samples.
    """
    # Only the selftest needs scipy.stats, and importing it costs about 0.6 s.
    from scipy.stats import ks_2samp
    if alpha <= 0 or p <= 0 or alpha + beta <= 0:
        raise ValueError("require alpha > 0, p > 0 and alpha + beta > 0")
    rng = rng_from_seed(seed)
    x = Gamma(alpha, p).sample(rng, n)
    y = sample_kummer(alpha + beta, -beta, p, n, rng)
    lhs = x / (1.0 + y)
    rhs = sample_kummer(alpha, beta, p, n, rng)
    res = ks_2samp(lhs, rhs)
    return KsResult(float(res.statistic), float(res.pvalue))
