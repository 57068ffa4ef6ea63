"""Exactly solvable chain with gamma-distributed couplings.

For couplings with density ~ t^{alpha-1} e^{-kappa t} (the law
chain.Gamma(alpha, kappa), which every route here takes), the stationary
continued-fraction law is known in closed form, which reduces the
characteristic function Omega to the ratio of two one-dimensional
integrals K_alpha and L_alpha, at positive argument one double-exponential
trapezoid sum for a whole grid (docs/DECISIONS.md, D13).

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
dos_exact and lyapunov_exact take this one route for alpha >= 1e-100
(WhittakerError below about 1e-103) and x > 0, a whole grid at once.

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

from .chain import Gamma
from .specfun import _as_result, _whittaker_lambda, whittaker_dc

__all__ = [
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


# ----------------------------------------------------------------------
# positive-argument integrals
# ----------------------------------------------------------------------

# Double-exponential rule for K and L (ledger D13): the step, the e-folds each end of the
# nodes reaches, and the length of the integrand's plateau in log u past which the step shrinks.
_DE_STEP = 1.0 / 32
_DE_REACH = 40.0
_DE_PLATEAU = 8.0


def _points(x, name: str) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if xs.size == 0 or not np.all(np.isfinite(xs) & (xs > 0)):
        raise ValueError(f"{name} must be positive and finite")
    return xs


def _kl_scaled(p: Gamma, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, L) / e^{log_ref} and log_ref at the points xs, each in xs's shape (ledger D13).

    With t = s u, s = x/kappa and v = log u, K = s^alpha int e^{g(v)} dv, g = alpha v -
    alpha log1p(s e^v) - e^v, and L weights it by log1p(s e^v).  Both are one trapezoid sum
    over v = v_c + c sinh(k h) (Takahasi & Mori 1974), v_c = log max(u*, 1) at the peak
    s u*^2 + u* = alpha, c = (pi/2) / sqrt(max(alpha, 1)), h shortened as log1p(s) stretches
    the flat middle of g, reaching e^-40 each end.  The points share one run of k, each
    summing its own nodes in order, so each keeps the bits of a call at that point alone.
    """
    alpha = p.alpha
    s = xs / p.rate
    log1p_s = np.log1p(s)
    v_c = np.log(np.maximum(2.0 * alpha / (1.0 + np.sqrt(1.0 + 4.0 * alpha * s)), 1.0))
    c = 0.5 * math.pi / math.sqrt(max(alpha, 1.0))
    h = _DE_STEP / np.maximum(1.0, log1p_s / _DE_PLATEAU)
    k_lo = np.ceil(np.arcsinh((_DE_REACH / alpha + log1p_s + v_c) / c) / h)[..., None]
    k_hi = np.ceil(math.asinh(max(math.log(_DE_REACH + alpha), 1.0) / c) / h)[..., None]
    k = np.arange(-k_lo.max(), k_hi.max() + 1.0)
    tau = np.clip(k, -k_lo, k_hi) * h[..., None]
    v = v_c[..., None] + c * np.sinh(tau)
    # Where s u leaves the doubles, the finiteness check below refuses the points, with no warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.exp(v)
        weight = np.log1p(s[..., None] * u)
        g = np.where((k >= -k_lo) & (k <= k_hi), alpha * (v - weight) - u, -np.inf)
        peak = g.max(axis=-1, keepdims=True)
        terms = np.exp(g - peak) * np.cosh(tau)
        kv = np.cumsum(terms, axis=-1)[..., -1]
        lv = np.cumsum(terms * weight, axis=-1)[..., -1]
    if not np.all(np.isfinite(lv)):
        raise ValueError("K and L overflow at these x")
    if logger.isEnabledFor(logging.DEBUG):
        even = k % 2 == 0
        k2, l2 = 2.0 * terms[..., even].sum(axis=-1), 2.0 * (terms * weight)[..., even].sum(axis=-1)
        logger.debug("K, L rule against its even nodes: K %.3e relative, Omega %.3e",
                     np.max(np.abs(k2 / kv - 1.0)), np.max(np.abs(2.0 * l2 / k2 - 2.0 * lv / kv)))
    return kv, lv, alpha * np.log(s) + peak[..., 0] + np.log(c * h)


def k_alpha(p: Gamma, x):
    """Normalisation integral of the stationary law, at a scalar or an array of x as omega_exact."""
    kv, _, log_ref = _kl_scaled(p, _points(x, "x"))
    return _as_result(kv * np.exp(log_ref))


def l_alpha(p: Gamma, x):
    """Companion integral with the log(1 + t) weight, at a scalar or an array of x as omega_exact."""
    _, lv, log_ref = _kl_scaled(p, _points(x, "x"))
    return _as_result(lv * np.exp(log_ref))


def omega_exact(p: Gamma, x):
    """Characteristic function Omega(x) = 2 L_alpha(x) / K_alpha(x).

    x is a scalar (a float is returned) or an array of positive points (an array of its shape is).
    """
    kv, lv, _ = _kl_scaled(p, _points(x, "x"))
    return _as_result(2.0 * lv / kv)


def gamma_chain_density(p: Gamma, x, t):
    """Stationary continued-fraction density t^{a-1} (1+t)^{-a} e^{-kt/x} / K; x and t broadcast.

    The quotient is taken in logs against _kl_scaled's reference, since the
    numerator and K both underflow at large alpha and small x; it is 0 at
    t <= 0 and at t = inf.
    """
    xs, t = _points(x, "x"), np.asarray(t, dtype=float)
    kv, _, log_ref = _kl_scaled(p, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_val = (p.alpha - 1.0) * np.log(t) - p.alpha * np.log1p(t) - p.rate * t / xs
        val = np.exp(log_val - log_ref - np.log(kv))
    return _as_result(np.where((t > 0) & (t < np.inf), val, 0.0))


# ----------------------------------------------------------------------
# continuation to negative argument through the Whittaker law
# ----------------------------------------------------------------------


def dyson_head(p: Gamma, x: float) -> float:
    """Dyson's singular head M(x) ~ psi'(alpha) / ((log kappa x + psi(alpha) + 2 gamma_E)^2 + pi^2).

    The c-derivative at c = alpha of the beta = c/N ensemble's head mass
    (1/pi) (atan((log mu + psi(c) + 2 gamma_E) / pi) + pi/2) at mu = kappa x
    (ledger D4).  The relative error is about 1e-3 at x = 1e-4, 1e-5 at
    1e-6 and 1e-7 at 1e-8.  idos_exact does not use it.
    """
    # Only the head needs psi and psi', and scipy.special costs about 0.25 s to import.
    from scipy.special import polygamma, psi

    if not x > 0:
        raise ValueError("x must be positive")
    big_l = math.log(p.rate * x) + float(psi(p.alpha)) + 2.0 * float(np.euler_gamma)
    return float(polygamma(1, p.alpha)) / (big_l * big_l + math.pi**2)


def idos_exact(p: Gamma, x):
    """Integrated density of states M(x) of the solvable chain.

    x is a scalar (a float is returned) or an array of positive points (an
    array of the same shape is returned).  The whole grid comes from one
    lip solve of the Whittaker law, from alpha = 1e-100 up, the singular
    head included: M = Im Lambda / pi, from Lambda = U/V at mu = kappa x
    and c = alpha (ledgers D4, D10).  The result is clamped to [0, 1] and
    the clamp magnitude logged, since the solve can stray past the ends by
    its rounding.
    """
    m = _whittaker_lambda(p.alpha, p.rate * _points(x, "x"))[0].imag / math.pi
    clamped = np.clip(m, 0.0, 1.0)
    if np.any(clamped != m):
        logger.debug("idos_exact clamp: %.3e", float(np.max(np.abs(m - clamped))))
    return _as_result(clamped)


def dos_exact(p: Gamma, mu):
    """Density of states D(mu), at a scalar or an array of mu as idos_exact, from the same lip solve.

    D = 2 kappa Re Lambda / (mu |V|^2) = kappa d/dc [c D_c(kappa mu)] at c = alpha.
    WhittakerError is raised where D leaves the doubles, as whittaker_dc.
    """
    return _as_result(p.rate * whittaker_dc(p.alpha, p.rate * _points(mu, "mu"))[0])


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


def lyapunov_exact(p: Gamma, omega_sq):
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
    return _as_result(0.5 * _whittaker_lambda(p.alpha, p.rate * _points(omega_sq, "omega_sq"))[0].real)


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
