"""Special functions used by the exact formulas.

The band-edge scaling functions on scipy's Airy functions, the squared
modulus of the Whittaker function on the upper side of its cut, and a
reproducible gamma sampler.  The Whittaker equation is integrated with
scipy's initial value solver.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import airy, psi

__all__ = [
    "SCALING_RANGE",
    "scaling_f",
    "scaling_f_rotated",
    "scaling_dos",
    "scaling_dos_rotated",
    "whittaker_msq",
    "whittaker_cdf",
    "whittaker_density_mass",
    "sample_gamma",
    "rng_from_seed",
]

SCALING_RANGE = 30.0

# ----------------------------------------------------------------------
# band-edge scaling functions
# ----------------------------------------------------------------------

_ROT = np.exp(-2j * np.pi / 3.0)


def _scaling_points(name: str, x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= SCALING_RANGE):
        raise ValueError(f"{name} supports |x| <= {SCALING_RANGE}")
    return xs


def _as_result(v: np.ndarray):
    return float(v) if v.ndim == 0 else v


def scaling_f(x):
    """Band-edge scaling function (Ai Ai' + Bi Bi')/(Ai^2 + Bi^2).

    x is a scalar (a float is returned) or an array (an array of the same
    shape is returned), with |x| <= SCALING_RANGE.
    """
    ai, aip, bi, bip = airy(_scaling_points("scaling_f", x))
    return _as_result((ai * aip + bi * bip) / (ai**2 + bi**2))


def scaling_f_rotated(x):
    """Second route to scaling_f: Re of e^{-2 pi i/3} Ai'(w)/Ai(w) at w = e^{-2 pi i/3} x.

    The connection formula Ai(w) = e^{-i pi/3} (Ai(x) + i Bi(x)) / 2 makes
    this equal to scaling_f; the Airy pair is evaluated at the complex
    point itself.  Scalars and arrays as in scaling_f.
    """
    ai, aip, _, _ = airy(_ROT * _scaling_points("scaling_f_rotated", x))
    return _as_result((_ROT * aip / ai).real)


def scaling_dos(x):
    """Band-edge scaling function of the density of states, 1/(pi (Ai^2+Bi^2)).

    Scalars and arrays as in scaling_f.
    """
    ai, _, bi, _ = airy(_scaling_points("scaling_dos", x))
    return _as_result(1.0 / (np.pi * (ai**2 + bi**2)))


def scaling_dos_rotated(x):
    """Rotated-argument route to scaling_dos: Im of the ratio in scaling_f_rotated."""
    ai, aip, _, _ = airy(_ROT * _scaling_points("scaling_dos_rotated", x))
    return _as_result((_ROT * aip / ai).imag)


# ----------------------------------------------------------------------
# Whittaker modulus squared
# ----------------------------------------------------------------------


class WhittakerError(ArithmeticError):
    """Non-convergent Whittaker integration."""


def _whittaker_asymptotic(kappa: float, z: complex) -> tuple[complex, complex]:
    """W and W' from the large-|z| series e^{-z/2} z^kappa sum a_s / z^s (mu=0), 14 terms."""
    a = 1.0
    s_sum = 1.0 + 0j
    d_sum = 0.0 + 0j
    zi = 1.0 / z
    zp = 1.0 + 0j
    for s in range(1, 14):
        a *= -((kappa - s + 0.5) ** 2) / s
        zp *= zi
        s_sum += a * zp
        d_sum += -s * a * zp * zi
    w = cmath.exp(-0.5 * z + kappa * cmath.log(z)) * s_sum
    wp = cmath.exp(-0.5 * z + kappa * cmath.log(z)) * ((-0.5 + kappa / z) * s_sum + d_sum)
    return w, wp


# Whittaker values are supported on (0, WHITTAKER_MU_MAX]; the anchor's
# path solve and the lip sweep share one relative tolerance.  The sweep's
# absolute tolerance is safe because |v|^2 = |W|^2 / mu stays of order one
# or more below mu = 1 and grows like e^mu above it.
WHITTAKER_MU_MAX = 100.0
_WHITTAKER_RTOL = 1e-10
_WHITTAKER_ATOL = 1e-12
# Below this argument the closed small-argument form carries the mass.
_WHITTAKER_HEAD_MU = 1e-4


def _whittaker_anchor(kappa: float, mu: float) -> tuple[complex, complex]:
    """(v, dv/dt) at t = log mu + i pi, with w = sqrt(z) v and t = log z.

    The Whittaker equation with second index 0,
    w'' = (1/4 - kappa/z - 1/(4 z^2)) w,
    becomes v_tt = e^t (e^t/4 - kappa) v, which has no singularity at
    z = 0.  It is integrated from an asymptotic start at 40 e^{i pi/6}
    along a straight segment in the t plane, which stays inside the upper
    half z plane all the way to the cut.
    """
    z0 = 40.0 * cmath.exp(1j * math.pi / 6.0)
    w0, wp0 = _whittaker_asymptotic(kappa, z0)
    sz0 = cmath.sqrt(z0)
    v0 = w0 / sz0
    vt0 = sz0 * wp0 - 0.5 * w0 / sz0

    t0 = cmath.log(z0)
    t1 = math.log(mu) + 1j * math.pi  # log(-mu) approached from above
    direction = t1 - t0

    # State y = (v, dv/dr) with r the straight-line parameter in the t plane;
    # dv/dr = direction dv/dt.
    def rhs(r, y):
        z = cmath.exp(t0 + r * direction)
        return [y[1], (z * (0.25 * z - kappa) * y[0]) * direction * direction]

    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        np.array([v0, vt0 * direction], dtype=complex),
        method="DOP853",
        rtol=_WHITTAKER_RTOL,
        atol=1e-250,
    )
    if not sol.success:
        raise WhittakerError(f"Whittaker ODE integration failed: {sol.message}")
    return complex(sol.y[0, -1]), complex(sol.y[1, -1] / direction)


def _whittaker_lip(c: float, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|W|^2 at the ascending points mus, and the mass of D from mus[0] up to each.

    On the lip t = s + i pi of the cut (z = -mu, mu = e^s) the equation for
    v is real, v_ss = mu (mu/4 + kappa) v, so Re v and Im v are swept as
    two real solutions from the anchor at min(mus[0], 1).  Upward in s the
    wanted solution grows like e^{mu/2} and every other one decays
    relative to it, so errors do not grow.  The fifth state is
    F = int norm / |v|^2 ds = int D(mu) dmu.
    """
    kappa = 0.5 - c
    norm = 1.0 / (math.gamma(c) * math.gamma(c + 1.0))
    s_eval = np.log(mus)
    s_anchor = min(float(s_eval[0]), 0.0)
    v, dv = _whittaker_anchor(kappa, math.exp(s_anchor))
    if s_eval[-1] == s_anchor:  # one point, at the anchor
        return _finite(mus * abs(v) ** 2), np.zeros(1)

    def rhs(s, y):
        mu = math.exp(s)
        q = mu * (0.25 * mu + kappa)
        return [y[2], y[3], q * y[0], q * y[1], norm / (y[0] * y[0] + y[1] * y[1])]

    sol = solve_ivp(
        rhs,
        (s_anchor, float(s_eval[-1])),
        [v.real, v.imag, dv.real, dv.imag, 0.0],
        method="DOP853",
        t_eval=s_eval,
        rtol=_WHITTAKER_RTOL,
        atol=_WHITTAKER_ATOL,
    )
    if not sol.success:
        raise WhittakerError(f"Whittaker sweep failed: {sol.message}")
    re, im, flux = sol.y[0], sol.y[1], sol.y[4]
    return _finite(mus * (re * re + im * im)), flux - flux[0]


def _finite(msq: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(msq)):
        raise WhittakerError("non-finite Whittaker value")
    return msq


def whittaker_msq(c: float, mu):
    """|W_{-c+1/2, 0}(-mu)|^2 as the limit from the upper half plane.

    mu is a scalar (a float is returned) or an array of points in
    (0, 100] (an array of the same shape is returned).  One path solve
    from the large-|z| asymptotic series anchors the complex solution
    v = w / sqrt(z) at mu_a = min(mu, 1) on the upper lip of the cut;
    from there one real ODE sweep upward in log mu along the lip gives
    every requested point.  Against mpmath the relative error is below
    2e-9 over mu in [1e-10, 100] for c in {0.5, 1, 2}.
    """
    if not (c > 0):
        raise ValueError("c must be positive")
    mus = np.asarray(mu, dtype=float)
    if not np.all((mus > 0) & (mus <= WHITTAKER_MU_MAX)):
        raise ValueError(f"mu must lie in (0, {WHITTAKER_MU_MAX:g}]")
    points, where = np.unique(mus, return_inverse=True)
    return _as_result(_whittaker_lip(c, points)[0][where].reshape(mus.shape))


def _whittaker_head_mass(c: float, mu: float) -> float:
    """Mass of D below a small mu from D ~ (1/c) / (mu ((log mu + C)^2 + pi^2)).

    C = psi(c) + 2 gamma.  The logarithmic divergence at mu -> 0 makes
    quadrature from zero hopeless (the mass below mu decays only like
    1/|log mu|), so this closed form carries it.
    """
    const = psi(c) + 2.0 * np.euler_gamma
    return (1.0 / (c * math.pi)) * (math.atan((math.log(mu) + const) / math.pi) + math.pi / 2.0)


def whittaker_cdf(c: float, mus) -> np.ndarray:
    """Distribution function of D(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2).

    mus is an ascending grid in (0, 100].  The mass below
    min(mus[0], 1e-4) comes from the small-argument closed form, which is
    no longer accurate above 1e-4; one lip sweep carries the rest.
    """
    if not (c > 0):
        raise ValueError("c must be positive")
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1 or mus.size == 0 or np.any(mus <= 0) or np.any(np.diff(mus) <= 0):
        raise ValueError("grid must be positive and increasing")
    if mus[-1] > WHITTAKER_MU_MAX:
        raise ValueError(f"grid must end at or below {WHITTAKER_MU_MAX:g}")
    mu_head = min(float(mus[0]), _WHITTAKER_HEAD_MU)
    _, mass = _whittaker_lip(c, np.concatenate([[mu_head], mus]) if mus[0] > mu_head else mus)
    return _whittaker_head_mass(c, mu_head) + mass[-mus.size :]


def whittaker_density_mass(c: float, cut: float = 60.0) -> float:
    """Total mass of D(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2).

    The head below 1e-5 is summed with the closed form of the
    small-argument law, the body up to cut by one lip sweep, and the tail
    from the exponential asymptotics.
    """
    norm = 1.0 / (math.gamma(c) * math.gamma(c + 1.0))
    below_cut = whittaker_cdf(c, np.array([1e-5, cut]))[-1]
    # Tail: |W|^2 ~ e^{mu} mu^{1-2c}, so D ~ norm mu^{2c-1} e^{-mu}.
    tail, _ = quad(lambda m: norm * m ** (2.0 * c - 1.0) * math.exp(-m), cut, math.inf, limit=200)
    return float(below_cut) + tail


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------


def rng_from_seed(seed) -> np.random.Generator:
    """PCG64 generator; the single documented RNG used across the package."""
    return np.random.default_rng(seed)


def sample_gamma(alpha: float, rate: float, seed, n: int) -> np.ndarray:
    """n i.i.d. draws from the gamma law with density ~ x^{alpha-1} e^{-rate x}.

    Deterministic given the seed.  The generator's gamma sampler is the
    standard squeeze-rejection method with the power boost for alpha < 1.
    """
    if alpha <= 0 or rate <= 0:
        raise ValueError("alpha and rate must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_from_seed(seed)
    return rng.gamma(shape=alpha, scale=1.0 / rate, size=int(n))

