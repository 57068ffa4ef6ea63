"""Exactly solvable chain with gamma-distributed couplings.

For couplings with density ~ t^{alpha-1} e^{-kappa t}, the stationary
continued-fraction law is known in closed form, which reduces the
characteristic function Omega to the ratio of two one-dimensional
integrals K_alpha and L_alpha.  The integrated density of states then
follows by analytic continuation of those integrals to negative
argument, performed here as numerical contour integration on a path
that hugs the steepest-descent geometry through the saddle of

    phi(xi) = alpha (log xi - log(1 + xi)) + kappa x xi,

staying on the upper side of the negative real axis (the pole of order
alpha at xi = -1 is passed above).  Integer alpha keeps the integrand
single valued, which is what makes the continuation well defined.

For kappa x up to 100 a second route takes a whole grid at once and
any alpha: an ensemble matrix at beta = 2c/N is a Dyson chain whose
gamma shape falls linearly from c to 0, so Dyson's M and D are
c-derivatives of the ensemble's Whittaker law, carried through one
sweep along its cut (docs/DECISIONS.md, D4).  With Lambda = U/V, the
sweep's log-derivative at mu = kappa x, M = Im Lambda / pi and the
Lyapunov exponent at omega^2 = x is Re Lambda / 2 (D7).  M follows from
the phase of V, which the anchor knows exactly, so Dyson's singular head
needs no closed form; dyson_head gives it separately.  idos_exact,
dos_exact and lyapunov_exact all take this route up to kappa x = 100
and the contour (integer alpha) beyond.

The module also carries the closed forms of the chain without disorder,
the large-alpha corrections to its integrated density of states, and
the band-interior coefficient of the 1/alpha expansion of the Lyapunov
exponent.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma, psi

from .specfun import WHITTAKER_MU_MAX, _as_result, _whittaker_lambda

__all__ = [
    "GammaChainParams",
    "ContourError",
    "PureChainValues",
    "k_alpha",
    "l_alpha",
    "omega_exact",
    "gamma_chain_density",
    "idos_exact",
    "dos_exact",
    "serves",
    "dyson_head",
    "pure_chain",
    "weak_disorder_idos",
    "gamma1_coefficient",
    "lyapunov_exact",
    "saddle_point",
]

logger = logging.getLogger(__name__)


class ContourError(ArithmeticError):
    """Contour integration did not stabilise under path refinement."""


@dataclass(frozen=True)
class GammaChainParams:
    """Shape and rate of the gamma law of the couplings."""

    alpha: float
    rate: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.rate < math.inf):
            raise ValueError("alpha and rate must be positive and finite")

    def alpha_is_integer(self) -> bool:
        n = round(self.alpha)
        return abs(self.alpha - n) <= 1e-12 and n >= 1

    def integer_alpha(self) -> int:
        if not self.alpha_is_integer():
            raise ValueError(
                "the contour continuation is restricted to positive integer alpha; "
                f"got alpha={self.alpha}"
            )
        return int(round(self.alpha))


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
# analytic continuation by contour integration
# ----------------------------------------------------------------------


def saddle_point(omega_sq: float) -> complex:
    """Upper-half-plane saddle of log xi - log(1+xi) + xi omega^2, 0 < omega^2 < 4."""
    if not 0.0 < omega_sq < 4.0:
        raise ValueError("saddle exists for 0 < omega_sq < 4")
    return 0.5 * complex(-1.0, math.sqrt(4.0 / omega_sq - 1.0))


def _phi(alpha: float, kx: float, xi: complex) -> complex:
    return alpha * (cmath.log(xi) - cmath.log(1.0 + xi)) + kx * xi


def _contour_nodes(alpha: int, kx: float, stretch: float = 1.0) -> list[complex]:
    """Corner points of the integration path from 0 to the damped far tail."""
    disc = 4.0 * alpha / kx  # saddle discriminant: complex saddle iff disc > 1
    drop = 45.0 + 5.0 * math.log1p(alpha)
    if disc > 1.04:
        eta = saddle_point(kx / alpha)
        phi2 = abs(-alpha / eta**2 + alpha / (1.0 + eta) ** 2)
        leg = stretch * min(math.sqrt(2.0 * drop / max(phi2, 1e-12)), 60.0 / kx + 6.0)
        mid = eta + leg * cmath.exp(3j * math.pi / 4.0)
    elif disc > 0.96:
        eta = complex(-0.5, 0.0)
        phi3 = abs(2.0 * alpha / eta**3 - 2.0 * alpha / (1.0 + eta) ** 3)
        leg = stretch * (6.0 * drop / max(phi3, 1e-12)) ** (1.0 / 3.0)
        mid = eta + leg * cmath.exp(2j * math.pi / 3.0)
    else:
        h = 0.5 * stretch  # height above the negative real axis
        eta = complex(0.0, h)
        mid = complex(-1.5, h)
    # Far tail: horizontal until the exponent has dropped well below the
    # path maximum; the linear kappa*x*Re(xi) term guarantees decay.
    ref = max(_phi(alpha, kx, eta).real, _phi(alpha, kx, mid).real)
    end_re = mid.real - (drop + 2.0 * alpha / max(abs(mid), 1.0)) / kx
    end = complex(end_re, mid.imag)
    while _phi(alpha, kx, end).real > ref - drop and end.real > -1e12:
        end = complex(2.0 * end.real, end.imag)
    return [0.0 + 0.0j, eta, mid, end]


_WEIGHTS = {
    "k": lambda xi: 1.0 / xi,
    "l": lambda xi: cmath.log(1.0 + xi) / xi,
    "xk": lambda xi: 1.0,
    "xl": lambda xi: cmath.log(1.0 + xi),
}


def _contour_integrals(alpha: int, kappa: float, x: float, names: tuple[str, ...], stretch: float = 1.0) -> dict[str, complex]:
    """Scaled contour integrals int g(xi) e^{phi(xi) - phi_ref} d xi.

    All requested weights share one path and one reference exponent, so
    ratios of the returned values are exact ratios of the continued
    integrals.
    """
    # Most commands never need scipy.integrate, and importing it costs about 0.36 s.
    from scipy.integrate import quad
    kx = kappa * x
    nodes = _contour_nodes(alpha, kx, stretch)
    samples = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        ts = np.linspace(0.0, 1.0, 65)
        samples.extend(_phi(alpha, kx, a + t * (b - a)).real for t in ts if a + t * (b - a) != 0)
    phi_ref = max(samples)

    out = {name: 0.0 + 0.0j for name in names}
    for a, b in zip(nodes[:-1], nodes[1:]):
        seg = b - a
        for name in names:
            g = _WEIGHTS[name]

            def f(t: float) -> complex:
                xi = a + t * seg
                if xi == 0:
                    return 0.0
                return g(xi) * cmath.exp(_phi(alpha, kx, xi) - phi_ref) * seg

            re, _ = quad(lambda t: f(t).real, 0.0, 1.0, limit=800, epsabs=1e-13, epsrel=1e-10)
            im, _ = quad(lambda t: f(t).imag, 0.0, 1.0, limit=800, epsabs=1e-13, epsrel=1e-10)
            out[name] += complex(re, im)
    return out


def _check_stretched(got, again) -> None:
    """Raise ContourError when a value and its stretched-path twin disagree."""
    if abs(got - again) > 2e-6 * max(1.0, abs(got)):
        raise ContourError(f"contour value unstable under path perturbation: {got} vs {again}")


def _continued_omega(p: GammaChainParams, x: float) -> complex:
    """Omega continued to argument -1/x, approached from the upper half plane.

    The value is recomputed on a stretched path; a disagreement raises
    ContourError.
    """
    n = p.integer_alpha()
    vals = _contour_integrals(n, p.rate, x, ("k", "l"))
    omega = 2.0 * vals["l"] / vals["k"]
    vals2 = _contour_integrals(n, p.rate, x, ("k", "l"), stretch=1.35)
    _check_stretched(omega, 2.0 * vals2["l"] / vals2["k"])
    return omega


def _contour_dos(p: GammaChainParams, mu: float, stretch: float = 1.0) -> float:
    """D(mu) from the derivative of the continued Omega on one path."""
    vals = _contour_integrals(p.integer_alpha(), p.rate, mu, ("k", "l", "xk", "xl"), stretch)
    expr = (vals["xl"] * vals["k"] - vals["l"] * vals["xk"]) / vals["k"] ** 2
    return -(2.0 * p.rate / math.pi) * expr.imag


def _idos_contour(p: GammaChainParams, x: float) -> float:
    """M(x) = 1 - Im Omega(-1/x + i0) / pi on the contour route, unclamped."""
    return 1.0 - _continued_omega(p, x).imag / math.pi


def _lyapunov_contour(p: GammaChainParams, omega_sq: float) -> float:
    """gamma = (Re Omega(-1/omega^2 + i0) + log omega^2 - psi(alpha) + log rate) / 2 on the contour route."""
    return 0.5 * (_continued_omega(p, omega_sq).real + math.log(omega_sq) - float(psi(p.alpha)) + math.log(p.rate))


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


def _whittaker_route(p: GammaChainParams, xs: np.ndarray) -> bool:
    return p.rate * float(np.max(xs)) <= WHITTAKER_MU_MAX


def serves(p: GammaChainParams, x) -> bool:
    """Whether idos_exact, dos_exact and lyapunov_exact have a route for p at every point of x.

    The Whittaker route serves any alpha where kappa max(x) <= WHITTAKER_MU_MAX,
    and the contour beyond it integer alpha only.
    """
    return _whittaker_route(p, np.asarray(x, dtype=float)) or p.alpha_is_integer()


def _dyson_whittaker(p: GammaChainParams, xs: np.ndarray, readout: str) -> np.ndarray:
    """M, D or gamma at xs, in xs's shape, from one c-derivative sweep of the Whittaker law (ledgers D4, D7).

    Each is read at its own point from Lambda = U/V at mu = kappa x and
    c = alpha: M(x) = Im Lambda / pi, D(x) = 2 kappa Re Lambda / (mu |V|^2)
    = kappa d/dc [c D_c(kappa x)] and gamma(x) = Re Lambda / 2.
    """
    lam, msq = _whittaker_lambda(p.alpha, p.rate * xs)
    if readout == "idos":
        return lam.imag / math.pi
    if readout == "dos":
        return p.rate * (2.0 * lam.real / msq)
    return 0.5 * lam.real


def idos_exact(p: GammaChainParams, x):
    """Integrated density of states M(x) of the solvable chain.

    x is a scalar (a float is returned) or an array (an array of the same
    shape is returned).  For kappa max(x) <= WHITTAKER_MU_MAX the whole
    grid comes from one c-derivative sweep of the Whittaker law, at any
    alpha > 0 and any x > 0, the singular head included; otherwise each
    point comes from the imaginary part of the contour-continued Omega,
    which needs integer alpha (ValueError for any other).  The result is
    clamped to [0, 1] and the clamp magnitude logged, since either route
    can stray past the ends by its discretisation error.
    """
    xs = _points(x, "x")
    if _whittaker_route(p, xs):
        m = _dyson_whittaker(p, xs, "idos")
    else:
        m = np.array([_idos_contour(p, float(v)) for v in xs.ravel()]).reshape(xs.shape)
    clamped = np.clip(m, 0.0, 1.0)
    if np.any(clamped != m):
        logger.debug("idos_exact clamp: %.3e", float(np.max(np.abs(m - clamped))))
    return _as_result(clamped)


def dos_exact(p: GammaChainParams, mu):
    """Density of states D(mu), at a scalar or an array of mu as idos_exact.

    The routes are those of idos_exact.  On the contour route D is the
    derivative of the continued Omega, recomputed on the stretched path of
    _continued_omega; a negative density anywhere on the grid, and then a
    disagreement between the paths, raise ContourError.
    """
    mus = _points(mu, "mu")
    if _whittaker_route(p, mus):
        return _as_result(_dyson_whittaker(p, mus, "dos"))
    flat = [float(m) for m in mus.ravel()]
    d = np.array([_contour_dos(p, m) for m in flat])
    if np.any(d < 0):
        i = int(np.argmax(d < 0))
        raise ContourError(f"negative density {d[i]:.3g} at mu={flat[i]:g}: contour path failed")
    for m, got in zip(flat, d):
        _check_stretched(got, _contour_dos(p, m, stretch=1.35))
    return _as_result(d.reshape(mus.shape))


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
    the same shape is returned), with the routes of idos_exact at
    x = omega^2.  With t_n = sqrt(lambda_n) the step is
    t_n u_{n+1} = omega u_n - t_{n-1} u_{n-1}.  The variable
    xi_n = t_n u_{n+1} / (omega u_n) - 1 obeys Dyson's continued fraction
    xi_n = x lambda_{n-1} / (1 + xi_{n-1}) at x = -1/omega^2, and
    log|u_{n+1}/u_n| = log|1 + xi_n| + (log omega^2 - log lambda_n) / 2.
    The real part of the continued Omega is 2 E log|1 + xi|, so

        gamma = (Re Omega(-1/omega^2 + i0) + log omega^2 - psi(alpha) + log rate) / 2,

    which the contour route computes.  The Whittaker route gives it as
    Re Lambda / 2 = -d/dc log|Gamma(c) U(c, 1, -kappa omega^2 + i0)| / 2 at c = alpha (D7).
    """
    w2 = _points(omega_sq, "omega_sq")
    if _whittaker_route(p, w2):
        return _as_result(_dyson_whittaker(p, w2, "gamma"))
    g = np.array([_lyapunov_contour(p, float(w)) for w in w2.ravel()])
    return _as_result(g.reshape(w2.shape))


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
