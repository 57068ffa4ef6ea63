"""Construction of disordered chain and lattice models.

A chain of N masses coupled by springs maps onto two tridiagonal
matrices: the (2N-1) x (2N-1) anti-symmetric matrix built from the
interleaved ratios lambda_j = K_j/m_j, K_j/m_{j+1}, and the N x N
symmetric matrix of the squared frequencies, from the same ratios with
free ends (frequency_matrix) or from the masses with both ends tied to
walls (fixed_frequency_matrix).  Both disorder conventions are
supported: i.i.d. lambdas (type I) and i.i.d. masses with a common
spring constant (type II), which forces the lambdas to be equal in
pairs.  The tight-binding lattice with potential disorder, used by the
band-edge scaling checks, is named here (ANDERSON, GaussianPotential)
and built by lyapunov.transfer_lyapunov alone.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .specfun import rng_from_seed
from .tridiag import AntisymTridiag, SymTridiag, _sturm_counts

__all__ = [
    "DisorderLaw",
    "Constant",
    "Gamma",
    "TwoPoint",
    "GaussianPotential",
    "ChainSpec",
    "ChainRealization",
    "TYPE_I",
    "TYPE_II",
    "ANDERSON",
    "realize",
    "lambda_matrix",
    "frequency_matrix",
    "fixed_frequency_matrix",
    "anderson_hopping",
    "empirical_idos",
]

logger = logging.getLogger(__name__)

TYPE_I = "typeI"
TYPE_II = "typeII"
ANDERSON = "anderson"


class DisorderLaw:
    """Base class for the supported disorder laws."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def mean_log(self) -> float:
        raise NotImplementedError

    def cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(DisorderLaw):
    v: float

    def __post_init__(self):
        if not (self.v > 0 and math.isfinite(self.v)):
            raise ValueError("constant value must be positive and finite")

    def sample(self, rng, n):
        return np.full(int(n), float(self.v))

    def mean_log(self):
        return math.log(self.v)

    def cdf(self, x):
        return (np.asarray(x, dtype=float) >= self.v).astype(float)


@dataclass(frozen=True)
class Gamma(DisorderLaw):
    """Gamma law with density ~ x^{alpha-1} e^{-rate x}."""

    alpha: float
    rate: float

    def __post_init__(self):
        if not all(v > 0 and math.isfinite(v) for v in (self.alpha, self.rate)):
            raise ValueError("gamma parameters must be positive and finite")

    def sample(self, rng, n):
        return rng.gamma(shape=self.alpha, scale=1.0 / self.rate, size=int(n))

    def mean_log(self):
        # Only the Thouless route needs psi here, and scipy.special costs about 0.25 s to import.
        from scipy.special import psi

        return psi(self.alpha) - math.log(self.rate)

    def cdf(self, x):
        # Only the stationary density needs gammainc, and scipy.special costs about 0.25 s to import.
        from scipy.special import gammainc

        x = np.asarray(x, dtype=float)
        return gammainc(self.alpha, self.rate * np.clip(x, 0.0, None))


@dataclass(frozen=True)
class TwoPoint(DisorderLaw):
    """Two-point law: value m with probability p, value big_m with 1-p."""

    m: float
    big_m: float
    p: float

    def __post_init__(self):
        if not all(v > 0 and math.isfinite(v) for v in (self.m, self.big_m)):
            raise ValueError("two-point values must be positive and finite")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")

    def sample(self, rng, n):
        pick = rng.random(int(n)) < self.p
        return np.array([self.big_m, self.m])[pick.view(np.uint8)]  # np.where(pick, m, big_m), by a faster take

    def mean_log(self):
        return self.p * math.log(self.m) + (1.0 - self.p) * math.log(self.big_m)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = sorted((self.m, self.big_m))
        p_lo = self.p if self.m <= self.big_m else 1.0 - self.p
        return np.where(x >= hi, 1.0, np.where(x >= lo, p_lo, 0.0))


@dataclass(frozen=True)
class GaussianPotential(DisorderLaw):
    """Centred Gaussian site potential for the tight-binding lattice."""

    variance: float

    def __post_init__(self):
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValueError("variance must be positive and finite")

    def sample(self, rng, n):
        return rng.normal(0.0, math.sqrt(self.variance), int(n))

    def mean_log(self):
        raise ValueError("mean_log undefined for a signed potential")

    def cdf(self, x):
        # Only the stationary density needs the normal cdf, and scipy.special costs about 0.25 s to import.
        from scipy.special import ndtr

        return ndtr(np.asarray(x, dtype=float) / math.sqrt(self.variance))


def _require_positive_law(law: DisorderLaw) -> None:
    """Refuse a signed law where masses or couplings are drawn from it."""
    if isinstance(law, GaussianPotential):
        raise ValueError("sprung chains need a positive law, not a signed potential")


@dataclass(frozen=True)
class ChainSpec:
    """Full description of a type I or type II chain."""

    kind: str
    n_masses: int
    law: DisorderLaw
    spring_k: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (TYPE_I, TYPE_II):
            raise ValueError(f"kind must be {TYPE_I!r} or {TYPE_II!r}")
        if self.n_masses < 1:
            raise ValueError("n_masses must be >= 1")
        if self.spring_k <= 0:
            raise ValueError("spring_k must be positive")
        _require_positive_law(self.law)


@dataclass(frozen=True)
class ChainRealization:
    """Drawn disorder for one chain: interleaved lambdas, masses for type II."""

    lambdas: np.ndarray
    masses: np.ndarray | None
    spec: ChainSpec

    @property
    def n_masses(self) -> int:
        return self.spec.n_masses


def realize(spec: ChainSpec) -> ChainRealization:
    """Draw one realization; deterministic given spec.seed.

    Type I draws 2N-1 i.i.d. lambdas.  Type II draws N masses and sets
    lambda_{2j} = lambda_{2j+1} = K/m_{j+1} (paired), with lambda_1 =
    K/m_1 standing alone.
    """
    rng = rng_from_seed(spec.seed)
    n = spec.n_masses
    if spec.kind == TYPE_I:
        lam = spec.law.sample(rng, 2 * n - 1)
        return ChainRealization(lam, None, spec)
    masses = spec.law.sample(rng, n)
    lam = np.empty(2 * n - 1)
    lam[0::2] = spec.spring_k / masses
    lam[1::2] = spec.spring_k / masses[1:]
    return ChainRealization(lam, masses, spec)


def lambda_matrix(r: ChainRealization) -> AntisymTridiag:
    """The (2N-1) x (2N-1) anti-symmetric matrix with sqrt(lambda) couplings."""
    n = r.n_masses
    if np.any(r.lambdas < 0):
        raise ValueError("lambdas must be nonnegative")
    return AntisymTridiag(np.sqrt(r.lambdas[: 2 * n - 2]))


def frequency_matrix(r: ChainRealization) -> SymTridiag:
    """The N x N matrix of the squared frequencies of the free chain: positive semidefinite, eigenvalues omega^2.

    It is the symmetrized negative of the matrix A in u'' = A u.  With the
    1-based lambdas padded by zero wall ratios lambda_0 and lambda_{2N-1}
    (free ends, hence the zero mode), row j = 0, ..., N-1 has diagonal
    lambda_{2j} + lambda_{2j+1} and off-diagonal sqrt(lambda_{2j+1} lambda_{2j+2}).
    """
    n = r.n_masses
    pad = np.zeros(2 * n)
    pad[1 : 2 * n - 1] = r.lambdas[: 2 * n - 2]
    return SymTridiag(pad[0::2] + pad[1::2], np.sqrt(pad[1 : 2 * n - 2 : 2] * pad[2 : 2 * n - 1 : 2]))


def fixed_frequency_matrix(masses: np.ndarray, spring_k: float) -> SymTridiag:
    """Frequency matrix of these masses, both ends tied to walls: diagonal 2K/m_j, off-diagonal -K/sqrt(m_j m_{j+1})."""
    m = np.asarray(masses, dtype=float)
    off = m[:-1] * m[1:]
    np.sqrt(off, out=off)  # in place, so a long chain's peak memory stays near its two bands
    # Masses so small that K/m leaves the doubles give entries SymTridiag refuses; numpy's warnings would repeat it.
    with np.errstate(over="ignore", divide="ignore"):
        return SymTridiag(2.0 * spring_k / m, np.divide(-spring_k, off, out=off))


def anderson_hopping(spec: ChainSpec) -> SymTridiag:
    """Hopping matrix of the off-diagonal tight-binding model.

    The Hermitian image of the lambda matrix: zero diagonal, off-diagonal
    sqrt(lambda_j); its spectrum is that of i Lambda, symmetric about zero.
    """
    if spec.kind != TYPE_I:
        raise ValueError("anderson_hopping requires a type I spec")
    return lambda_matrix(realize(spec)).hermitian_image()


def empirical_idos(t: SymTridiag | Sequence[SymTridiag], xs) -> np.ndarray:
    """Fraction of squared frequencies <= x for zero-diagonal matrices.

    `t` is one zero-diagonal SymTridiag, giving shape (m,) for m probes,
    or a sequence of R of equal size, giving (R, m) with one row per
    matrix in sequence order; one matrix is the batch of one.  The
    counts below +sqrt(x) and -sqrt(x) bracket the symmetric spectrum;
    the zero mode is excluded, so the result is normalised by the pair
    count.  Each matrix is swept once, at +sqrt(x) only: for a zero
    diagonal the Sturm pivots at -sqrt(x) are the exact negatives of
    those at +sqrt(x), so the count at -sqrt(x) is n minus the count at
    +sqrt(x), in every lane where no pivot was zero.  The few lanes where
    one was are counted again at -sqrt(x) (ledger D12).  An empty batch,
    NaN or negative probes and matrices of fewer than 3 sites (no
    frequency pair) raise ValueError.
    """
    ts = [t] if isinstance(t, SymTridiag) else list(t)
    if not ts:
        raise ValueError("need at least one matrix")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.isnan(xs).any():
        raise ValueError("probe points must not be NaN")
    if np.any(xs < 0):
        raise ValueError("probe points must be nonnegative")
    n = ts[0].n
    if n < 3:
        raise ValueError("matrices need at least 3 sites: a smaller chain has no frequency pair")
    if any(h.n != n for h in ts):
        raise ValueError("matrices of a batch must have equal size")
    if any(np.any(h.diag != 0.0) for h in ts):
        raise ValueError("hopping matrices must have a zero diagonal")
    roots = np.sqrt(xs)
    # Stacked site-major, so the kernel's per-site rows need no copy.
    diag = np.stack([h.diag for h in ts], axis=1).T
    off = np.stack([h.off for h in ts], axis=1).T
    upper, zeros = _sturm_counts(diag, off, roots, with_zeros=True)
    lower = n - upper
    rows, cols = np.flatnonzero(zeros.any(axis=1)), np.flatnonzero(zeros.any(axis=0))
    if rows.size:
        lower[np.ix_(rows, cols)] = _sturm_counts(diag[rows], off[rows], -roots[cols])
    logger.debug("IDOS counts: %d lanes counted once, %d counted again at -sqrt(x)", upper.size, rows.size * cols.size)
    n_pairs = (n - 1) // 2
    m = np.maximum((upper - lower - 1) / (2.0 * n_pairs), 0.0)
    return m[0] if isinstance(t, SymTridiag) else m
