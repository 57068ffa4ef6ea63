"""Reference values computed apart from randchain.

Nothing here imports the program.  Spectra come from LAPACK (``dsterf``
for whole spectra, ``dstebz`` for eigenvalues in a window) on matrices
built here from the benchmark's own draws; Thouless sums over a finite
chain's spectrum come from LAPACK ``dgttrf`` as log|det|, which lets
the oracle chains be long; special functions come from mpmath and
``scipy.special``.  scipy's MRRR path (``dstemr``) is not used: it
allocates an n x n workspace even when only eigenvalues are asked for.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgttrf
from scipy.special import airy, digamma, gamma as gamma_fn

mpmath.mp.dps = 30


# ----------------------------------------------------------------------
# draws and matrices
# ----------------------------------------------------------------------


def draw(law: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """Samples of a law in the CLI's syntax, drawn with this module's own code."""
    kind, *p = law.split(":")
    p = [float(v) for v in p]
    if kind == "const":
        return np.full(n, p[0])
    if kind == "gamma":
        return rng.gamma(p[0], 1.0 / p[1], n)
    if kind == "twopoint":
        return np.where(rng.random(n) < p[2], p[0], p[1])
    if kind == "gauss":
        return rng.normal(0.0, math.sqrt(p[0]), n)
    raise ValueError(f"unknown law {law!r}")


def spectrum(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending (LAPACK dsterf)."""
    return eigvalsh_tridiagonal(diag, off, lapack_driver="sterf")


def window_count(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> int:
    """Number of eigenvalues in (lo, hi] (LAPACK dstebz).

    dstebz takes the count from Sturm counts at lo and hi; a tolerance as
    wide as the window leaves it exact and skips refining each
    eigenvalue, so a count costs two sweeps even at 1e5 sites.
    """
    return int(eigvalsh_tridiagonal(diag, off, select="v", select_range=(lo, hi), tol=hi - lo).size)


def hopping_square_block(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The odd-site block of H^2 for the zero-diagonal hopping matrix H.

    H has off-diagonal sqrt(lam_k) over 2N - 1 sites.  (H^2) restricted to
    the N odd sites is tridiagonal with diagonal lam_{2j-2} + lam_{2j-1}
    and off-diagonal sqrt(lam_{2j-1} lam_{2j}); its eigenvalues are the
    squared frequencies, the zero mode included.
    """
    padded = np.concatenate([[0.0], lam, [0.0]])  # padded[k] = lam_k, 1-based, zero beyond the ends
    n = (lam.size + 2) // 2
    diag = padded[0 : 2 * n - 1 : 2] + padded[1 : 2 * n : 2]
    off = np.sqrt(padded[1 : 2 * n - 2 : 2] * padded[2 : 2 * n - 1 : 2])
    return diag, off


def type1_squared_frequencies(law: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """Positive squared frequencies of one type I chain on `size` = 2N - 1 sites."""
    lam = draw(law, rng, size - 1)
    return spectrum(*hopping_square_block(lam))[1:]


def fixed_frequency_matrix(masses: np.ndarray, spring_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-boundary chain: diagonal 2K/m_j, off-diagonal -K/sqrt(m_j m_{j+1})."""
    return 2.0 * spring_k / masses, -spring_k / np.sqrt(masses[:-1] * masses[1:])


def logabsdet(diag: np.ndarray, off: np.ndarray) -> float:
    """log|det| of a symmetric tridiagonal matrix by pivoted LU (LAPACK dgttrf)."""
    _, u, _, _, _, info = dgttrf(off, diag, off)
    if info < 0:
        raise ValueError("dgttrf rejected its arguments")
    return float(np.sum(np.log(np.abs(u))))


# ----------------------------------------------------------------------
# Lyapunov exponents: Thouless sums over long oracle chains
# ----------------------------------------------------------------------


def _mean_se(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def thouless_type2(law: str, spring_k: float, omega_sq: float, rng, n: int, chains: int):
    """gamma = (1/N) [sum_j log|mu_j - w^2| + sum_j log m_j] - log K, mean and stderr."""
    vals = []
    for _ in range(chains):
        m = draw(law, rng, n)
        d, e = fixed_frequency_matrix(m, spring_k)
        vals.append((logabsdet(d - omega_sq, e) + np.sum(np.log(m))) / n - math.log(spring_k))
    return _mean_se(vals)


def thouless_hopping(law: str, omega: float, rng, n: int, chains: int):
    """Off-diagonal disorder t = sqrt(lam): gamma = (1/n) [log|det(w - H)| - sum log t]."""
    vals = []
    for _ in range(chains):
        t = np.sqrt(draw(law, rng, n - 1))
        vals.append((logabsdet(np.full(n, omega), -t) - np.sum(np.log(t))) / n)
    return _mean_se(vals)


def thouless_anderson(law: str, energy: float, rng, n: int, chains: int):
    """Site disorder V: gamma = (1/n) log|det(E - V - hopping)|."""
    vals = []
    for _ in range(chains):
        v = draw(law, rng, n)
        vals.append(logabsdet(energy - v, -np.ones(n - 1)) / n)
    return _mean_se(vals)


def omega_type2(law: str, spring_k: float, x: float, rng, n: int, chains: int):
    """Characteristic function (1/N) sum_j log(1 + x mu_j), mean and stderr."""
    vals = []
    for _ in range(chains):
        d, e = fixed_frequency_matrix(draw(law, rng, n), spring_k)
        vals.append(logabsdet(1.0 + x * d, x * e) / n)
    return _mean_se(vals)


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------


def pure_gamma(omega_sq: float) -> float:
    """Lyapunov exponent of the uniform chain: 0 in the band, arccosh(w^2/2 - 1) above."""
    return 0.0 if omega_sq <= 4.0 else math.acosh(0.5 * omega_sq - 1.0)


def _kl(alpha: float, kappa: float, x: float, log_weight: bool):
    def f(t):
        w = mpmath.log1p(t) if log_weight else 1
        return w * t ** (alpha - 1) * (1 + t) ** (-alpha) * mpmath.exp(-kappa * t / x)

    return mpmath.quad(f, [0, 1, 10, mpmath.inf])


def omega_gamma_chain(alpha: float, kappa: float, x: float) -> float:
    """Omega(x) = 2 L/K with the K and L integrals of the gamma-coupling chain (mpmath)."""
    return float(2 * _kl(alpha, kappa, x, True) / _kl(alpha, kappa, x, False))


def stationary_cdf_exp(t: np.ndarray) -> np.ndarray:
    """CDF of the stationary law e^{-s}/((1+s) K) for alpha = kappa = x = 1.

    int_0^t e^{-s}/(1+s) ds = e (E1(1) - E1(1+t)).
    """
    e1 = np.vectorize(lambda u: float(mpmath.e1(u)))
    return (e1(1.0) - e1(1.0 + np.asarray(t, dtype=float))) / e1(1.0)


def weak_disorder_idos(alpha: float, x: float) -> float:
    """Large-alpha IDOS of the gamma chain with shape = rate = alpha.

    In the band: arccos(1 - x/2)/pi + 1/(2 pi alpha sqrt(4/x - 1)); at
    the edge x = 4: 1 - Gamma(1/3)^{-2} (12/alpha)^{1/3}; above the band
    an exponentially small defect in arccosh(x/2 - 1).
    """
    if x < 4.0:
        return math.acos(1.0 - 0.5 * x) / math.pi + 1.0 / (2.0 * math.pi * alpha * math.sqrt(4.0 / x - 1.0))
    if x == 4.0:
        return 1.0 - (12.0 / alpha) ** (1.0 / 3.0) / gamma_fn(1.0 / 3.0) ** 2
    g = math.acosh(0.5 * x - 1.0)
    return 1.0 - (g / math.pi) * math.exp(-g - 2.0 * alpha * (math.sinh(g) - g))


def airy_scaling(x) -> np.ndarray:
    """(Ai Ai' + Bi Bi') / (Ai^2 + Bi^2) from scipy.special.airy."""
    ai, aip, bi, bip = airy(np.asarray(x, dtype=float))
    return (ai * aip + bi * bip) / (ai**2 + bi**2)


def mp_cdf(mu) -> np.ndarray:
    """Marchenko-Pastur CDF on (0, 1) for the density (2/pi) sqrt((1 - mu)/mu)."""
    mu = np.clip(np.asarray(mu, dtype=float), 0.0, 1.0)
    return (2.0 / math.pi) * (np.arcsin(np.sqrt(mu)) + np.sqrt(mu * (1.0 - mu)))


def ks_distance(samples: np.ndarray, cdf_vals: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of sorted samples from CDF values at them."""
    n = samples.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf_vals), np.max(cdf_vals - (i - 1) / n)))


# ----------------------------------------------------------------------
# Whittaker law of the beta = c/N ensemble (mpmath)
# ----------------------------------------------------------------------


def whittaker_msq(c: float, mu: float) -> float:
    """|W_{1/2 - c, 0}(-mu + i0)|^2 from mpmath.whitw just above the cut."""
    z = mpmath.mpc(-mu, 1e-25 * max(mu, 1.0))
    return float(abs(mpmath.whitw(0.5 - c, 0, z)) ** 2)


def whittaker_density(c: float, mu: float) -> float:
    """D(mu) = 1 / (Gamma(c) Gamma(c + 1) |W|^2)."""
    return 1.0 / (gamma_fn(c) * gamma_fn(c + 1.0) * whittaker_msq(c, mu))


def _small_mu_cdf(c: float, mu) -> np.ndarray:
    """The law's small-argument form (1/(c pi)) (arctan((log mu + C)/pi) + pi/2), C = psi(c) + 2 gamma_E."""
    const = digamma(c) + 2.0 * np.euler_gamma
    with np.errstate(divide="ignore"):
        return (np.arctan((np.log(mu) + const) / np.pi) + np.pi / 2.0) / (c * np.pi)


def whittaker_cdf_table(c: float, extra=(), lo: float = 1e-12, hi: float = 40.0, n: int = 241):
    """(c, mu, CDF) table of the Whittaker law on a log grid plus the points `extra`.

    Below `lo` the small-argument form carries the mass; its error at
    mu = 1e-12 is far below the checks' tolerances.  Above it Simpson's
    rule in log mu integrates mu D(mu).
    """
    mus = np.union1d(np.geomspace(lo, hi, n), np.asarray(extra, dtype=float))
    integrand = np.array([m * whittaker_density(c, float(m)) for m in mus])
    cdf = _small_mu_cdf(c, lo) + cumulative_simpson(integrand, x=np.log(mus), initial=0.0)
    return c, mus, cdf


def whittaker_cdf(table, mu) -> np.ndarray:
    """CDF at `mu`: interpolated in log mu on the table, the small-argument form below it."""
    c, mus, cdf = table
    mu = np.asarray(mu, dtype=float)
    inside = np.interp(np.log(np.maximum(mu, mus[0])), np.log(mus), cdf)
    return np.where(mu < mus[0], _small_mu_cdf(c, mu), inside)
