"""Exactly solvable chain with gamma-distributed couplings.

For couplings with density ~ t^{alpha-1} e^{-kappa t}, the stationary
continued-fraction law is known in closed form, which reduces the
characteristic function Omega to the ratio of two one-dimensional
integrals K_alpha and L_alpha, taken here by quadrature at positive
argument.

The integrated density of states, the density of states and the
Lyapunov exponent need Omega continued to negative argument.  An
ensemble matrix at beta = 2c/N is a Dyson chain whose gamma shape falls
linearly from c to 0, so Dyson's M and D are c-derivatives of the
ensemble's Whittaker law, carried through one lip solve along its cut
(docs/DECISIONS.md, D4 and D10).  With Lambda = U/V, the solve's
log-derivative of V in kappa at mu = kappa x, M = Im Lambda / pi and the
Lyapunov exponent at omega^2 = x is Re Lambda / 2 (D7).  M follows from
the phase of V, which the anchor knows exactly, so Dyson's singular head
needs no closed form; dyson_head gives it separately.  idos_exact,
dos_exact and lyapunov_exact take this one route for every alpha > 0
and x > 0, a whole grid at once.

The module also carries the closed forms of the chain without disorder,
the large-alpha corrections to its integrated density of states, and
the band-interior coefficient of the 1/alpha expansion of the Lyapunov
exponent.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma, psi

from .specfun import _as_result, _whittaker_lambda

__all__ = [
    "GammaChainParams",
    "PureChainValues",
    "k_alpha",
    "l_alpha",
    "omega_exact",
    "gamma_chain_density",
    "idos_exact",
    "dos_exact",
    "dyson_head",
    "pure_chain",
    "weak_disorder_idos",
    "gamma1_coefficient",
    "lyapunov_exact",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GammaChainParams:
    """Shape and rate of the gamma law of the couplings."""

    alpha: float
    rate: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.rate < math.inf):
            raise ValueError("alpha and rate must be positive and finite")


# ----------------------------------------------------------------------
# positive-argument integrals
# ----------------------------------------------------------------------


def _weighted_integral_scaled(p: GammaChainParams, x: float, weight) -> tuple[float, float]:
    """Scaled integral int weight(t) t^{a-1} (1+t)^{-a} e^{-kt/x} dt.

    Returns (value / e^{log_ref}, log_ref).  The substitution t = s u with
    s = x/kappa puts the exponential decay on unit scale for every x, and
    the u^{alpha-1} e^{-u} peak is divided out in log space so large alpha
    cannot overflow.  Ratios of scaled values at the same (p, x) are exact.
    """
    # Most commands never need scipy.integrate, and importing it costs about 0.36 s.
    from scipy.integrate import quad
    if x <= 0:
        raise ValueError("x must be positive")
    alpha, kappa = p.alpha, p.rate
    s = x / kappa

    def g_log(u: float) -> float:
        return (alpha - 1.0) * math.log(u) - alpha * math.log1p(s * u) - u

    if alpha > 1.0:
        # Stationary point of g_log: s u^2 + (1 + s) u - (alpha - 1) = 0.
        u_star = (-(1.0 + s) + math.sqrt((1.0 + s) ** 2 + 4.0 * s * (alpha - 1.0))) / (2.0 * s)
        peak = g_log(max(u_star, 1e-300))
    else:
        peak = 0.0
    log_ref = alpha * math.log(s) + peak

    def f(u: float) -> float:
        return weight(s * u) * math.exp(g_log(u) - peak)

    split = max(1.0, alpha)
    if alpha >= 1.0:
        head, _ = quad(f, 0.0, split, limit=400, epsabs=1e-14, epsrel=1e-12)
    else:
        # Endpoint singularity u^{alpha-1}: substitute u = v^{1/alpha},
        # which turns u^{alpha-1} du into dv/alpha.
        inv = 1.0 / alpha

        def g(v: float) -> float:
            u = v**inv
            return weight(s * u) * (1.0 + s * u) ** (-alpha) * math.exp(-u) * inv

        head, _ = quad(g, 0.0, split, limit=400, epsabs=1e-14, epsrel=1e-12)
    tail, _ = quad(f, split, math.inf, limit=400, epsabs=1e-14, epsrel=1e-12)
    return head + tail, log_ref


def k_alpha(p: GammaChainParams, x: float) -> float:
    """Normalisation integral of the stationary law at argument x > 0."""
    val, log_ref = _weighted_integral_scaled(p, x, lambda t: 1.0)
    return val * math.exp(log_ref)


def l_alpha(p: GammaChainParams, x: float) -> float:
    """Companion integral with the log(1 + t) weight."""
    val, log_ref = _weighted_integral_scaled(p, x, lambda t: math.log1p(t))
    return val * math.exp(log_ref)


def omega_exact(p: GammaChainParams, x: float) -> float:
    """Characteristic function Omega(x) = 2 L_alpha(x) / K_alpha(x)."""
    lval, _ = _weighted_integral_scaled(p, x, lambda t: math.log1p(t))
    kval, _ = _weighted_integral_scaled(p, x, lambda t: 1.0)
    return 2.0 * lval / kval


def gamma_chain_density(p: GammaChainParams, x: float, t) -> np.ndarray:
    """Stationary continued-fraction density t^{a-1} (1+t)^{-a} e^{-kt/x} / K."""
    t = np.asarray(t, dtype=float)
    norm = k_alpha(p, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = t ** (p.alpha - 1.0) * (1.0 + t) ** (-p.alpha) * np.exp(-p.rate * t / x)
    return np.where(t > 0, val, 0.0) / norm


# ----------------------------------------------------------------------
# continuation to negative argument through the Whittaker law
# ----------------------------------------------------------------------


def dyson_head(p: GammaChainParams, x: float) -> float:
    """Dyson's singular head M(x) ~ psi'(alpha) / ((log kappa x + psi(alpha) + 2 gamma_E)^2 + pi^2).

    The c-derivative at c = alpha of the beta = c/N ensemble's head mass
    (1/pi) (atan((log mu + psi(c) + 2 gamma_E) / pi) + pi/2) at mu = kappa x
    (ledger D4).  The relative error is about 1e-3 at x = 1e-4, 1e-5 at
    1e-6 and 1e-7 at 1e-8.  idos_exact does not use it.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    big_l = math.log(p.rate * x) + float(psi(p.alpha)) + 2.0 * float(np.euler_gamma)
    return float(polygamma(1, p.alpha)) / (big_l * big_l + math.pi**2)


def _points(x, name: str) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if xs.size == 0 or not np.all(np.isfinite(xs) & (xs > 0)):
        raise ValueError(f"{name} must be positive and finite")
    return xs


def _dyson_whittaker(p: GammaChainParams, xs: np.ndarray, readout: str) -> np.ndarray:
    """M, D or gamma at xs, in xs's shape, from one lip solve of the Whittaker law (ledgers D4, D7, D10).

    Each is read at its own point from Lambda = U/V at mu = kappa x and
    c = alpha: M(x) = Im Lambda / pi, D(x) = 2 kappa Re Lambda / (mu |V|^2)
    = kappa d/dc [c D_c(kappa x)] and gamma(x) = Re Lambda / 2.
    """
    lam, d_dc = _whittaker_lambda(p.alpha, p.rate * xs)
    if readout == "idos":
        return lam.imag / math.pi
    if readout == "dos":
        return p.rate * d_dc
    return 0.5 * lam.real


def idos_exact(p: GammaChainParams, x):
    """Integrated density of states M(x) of the solvable chain.

    x is a scalar (a float is returned) or an array of positive points (an
    array of the same shape is returned).  The whole grid comes from one
    lip solve of the Whittaker law, at any alpha > 0, the singular head
    included.  The result is clamped to [0, 1] and the clamp magnitude
    logged, since the solve can stray past the ends by its rounding.
    """
    xs = _points(x, "x")
    m = _dyson_whittaker(p, xs, "idos")
    clamped = np.clip(m, 0.0, 1.0)
    if np.any(clamped != m):
        logger.debug("idos_exact clamp: %.3e", float(np.max(np.abs(m - clamped))))
    return _as_result(clamped)


def dos_exact(p: GammaChainParams, mu):
    """Density of states D(mu), at a scalar or an array of mu as idos_exact, from the same lip solve."""
    return _as_result(_dyson_whittaker(p, _points(mu, "mu"), "dos"))


# ----------------------------------------------------------------------
# chain without disorder and weak-disorder corrections
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PureChainValues:
    """Closed forms for the chain with all couplings equal to one."""

    xi: float
    omega: float
    dos: float
    idos: float


def pure_chain(x: float) -> PureChainValues:
    """Continued fraction, characteristic function, DOS and IDOS at x.

    xi(x) and Omega(x) require x >= 0; the DOS value is for the squared
    frequency mu = x (zero outside the band 0 < mu < 4).
    """
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    xi = 0.5 * (math.sqrt(1.0 + 4.0 * x) - 1.0)
    omega = 2.0 * math.log(0.5 * (math.sqrt(1.0 + 4.0 * x) + 1.0))
    dos = 1.0 / (math.pi * math.sqrt(x * (4.0 - x))) if 0.0 < x < 4.0 else 0.0
    idos = math.acos(1.0 - 0.5 * x) / math.pi if x < 4.0 else 1.0
    return PureChainValues(xi, omega, dos, idos)


def weak_disorder_idos(n: int, x: float) -> float:
    """Leading large-n integrated density of states for shape = rate = n.

    Three regimes: inside the band the pure-chain arccosine plus a 1/n
    correction; at the band edge an n^{-1/3} defect; outside the band an
    exponentially small defect controlled by arcosh(x/2 - 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    if x < 4.0:
        return math.acos(1.0 - 0.5 * x) / math.pi + 1.0 / (2.0 * math.pi * n) / math.sqrt(4.0 / x - 1.0)
    if x == 4.0:
        return 1.0 - (1.0 / math.gamma(1.0 / 3.0)) ** 2 * (12.0 / n) ** (1.0 / 3.0)
    g = math.acosh(0.5 * x - 1.0)
    return 1.0 - (g / math.pi) * math.exp(-g - 2.0 * n * (math.sinh(g) - g))


def lyapunov_exact(p: GammaChainParams, omega_sq):
    """Lyapunov exponent per transfer step of the type I chain.

    omega_sq is a scalar (a float is returned) or an array (an array of
    the same shape is returned), on the lip solve of idos_exact at
    x = omega^2.  With t_n = sqrt(lambda_n) the step is
    t_n u_{n+1} = omega u_n - t_{n-1} u_{n-1}.  The variable
    xi_n = t_n u_{n+1} / (omega u_n) - 1 obeys Dyson's continued fraction
    xi_n = x lambda_{n-1} / (1 + xi_{n-1}) at x = -1/omega^2, and
    log|u_{n+1}/u_n| = log|1 + xi_n| + (log omega^2 - log lambda_n) / 2.
    The real part of the continued Omega is 2 E log|1 + xi|, so

        gamma = (Re Omega(-1/omega^2 + i0) + log omega^2 - psi(alpha) + log rate) / 2,

    which is Re Lambda / 2 = -d/dc log|Gamma(c) U(c, 1, -kappa omega^2 + i0)| / 2 at c = alpha (D7).
    """
    return _as_result(_dyson_whittaker(p, _points(omega_sq, "omega_sq"), "gamma"))


def gamma1_coefficient(omega_sq: float) -> float:
    """Coefficient of 1/alpha in the band-interior Lyapunov exponent.

    Equals 1/(8 (1 - omega^2/4)), per transfer step of the type I chain
    with Gamma(alpha, alpha) couplings.  Write t_j = sqrt(lambda_j) = 1 + delta_j,
    so Var delta_j ~ 1/(4 alpha).  The bond term delta_j (|j><j+1| + h.c.)
    scatters e^{ikj} into e^{-ikj} with amplitude 2 delta_j e^{ik(2j+1)},
    whose modulus does not depend on k; at energy omega = 2 cos k the chain
    therefore has the exponent of site disorder of variance 4 Var delta = 1/alpha,
    1/(8 alpha (1 - omega^2/4)).  The forward amplitude 2 delta_j cos k would
    give omega^2/4 times this, which the exact solution (lyapunov_exact) and
    transfer Monte Carlo both rule out; see docs/DECISIONS.md.

    The expansion holds at fixed omega^2 > 0 as alpha -> infinity.  It is
    not uniform at the band centre: the Dyson singularity makes the
    exponent vanish at omega = 0 for every alpha.
    """
    if not 0.0 < omega_sq < 4.0:
        raise ValueError("omega_sq must lie in (0, 4)")
    return 1.0 / (8.0 * (1.0 - 0.25 * omega_sq))
