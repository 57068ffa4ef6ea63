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
    "ROTATED_DOS_MAX",
    "scaling_f",
    "scaling_f_rotated",
    "scaling_dos",
    "scaling_dos_rotated",
    "whittaker_msq",
    "whittaker_cdf",
    "whittaker_dc",
    "whittaker_density_mass",
    "sample_gamma",
    "rng_from_seed",
]

SCALING_RANGE = 30.0
# scaling_dos_rotated takes Im of a ratio of order sqrt(x), so it keeps only
# absolute accuracy (~1e-15) while the density falls like e^{-4 x^{3/2}/3}:
# against mpmath its relative error is 1.4e-7 at x = 6, 1.3e-5 at 7 and
# 3.8e-3 at 8.  It refuses points beyond this.
ROTATED_DOS_MAX = 6.0

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
    """Rotated-argument route to scaling_dos: Im of the ratio in scaling_f_rotated.

    Scalars and arrays as in scaling_f, for -SCALING_RANGE <= x <= ROTATED_DOS_MAX.
    """
    xs = _scaling_points("scaling_dos_rotated", x)
    if not np.all(xs <= ROTATED_DOS_MAX):
        raise ValueError(f"scaling_dos_rotated has no relative accuracy beyond x = {ROTATED_DOS_MAX:g}")
    ai, aip, _, _ = airy(_ROT * xs)
    return _as_result((_ROT * aip / ai).imag)


# ----------------------------------------------------------------------
# Whittaker modulus squared
# ----------------------------------------------------------------------


class WhittakerError(ArithmeticError):
    """Non-convergent Whittaker integration."""


def _whittaker_asymptotic(kappa: float, z: complex) -> tuple[complex, complex, complex, complex]:
    """W, W' and their kappa-derivatives from the large-|z| series, 14 terms.

    W ~ e^{-z/2} z^kappa sum a_s / z^s (second index 0), with
    a_s = -a_{s-1} (kappa - s + 1/2)^2 / s; the derivatives differentiate
    the series term by term, z^kappa giving the factor log z.
    """
    a = 1.0
    da = 0.0
    s_sum = 1.0 + 0j
    d_sum = 0.0 + 0j
    ds_sum = 0.0 + 0j
    dd_sum = 0.0 + 0j
    zi = 1.0 / z
    zp = 1.0 + 0j
    for s in range(1, 14):
        da = da * (-((kappa - s + 0.5) ** 2) / s) - a * (2.0 * (kappa - s + 0.5) / s)
        a *= -((kappa - s + 0.5) ** 2) / s
        zp *= zi
        s_sum += a * zp
        d_sum += -s * a * zp * zi
        ds_sum += da * zp
        dd_sum += -s * da * zp * zi
    log_z = cmath.log(z)
    lead = cmath.exp(-0.5 * z + kappa * log_z)
    w = lead * s_sum
    wp = lead * ((-0.5 + kappa / z) * s_sum + d_sum)
    dw = log_z * w + lead * ds_sum
    dwp = log_z * wp + lead * (zi * s_sum + (-0.5 + kappa / z) * ds_sum + dd_sum)
    return w, wp, dw, dwp


# Whittaker values are supported on (0, WHITTAKER_MU_MAX]; the anchor's
# path solve and the lip sweep share one relative tolerance.  The sweep's
# absolute tolerance is safe because |v|^2 = |W|^2 / mu stays of order one
# or more below mu = 1 and grows like e^mu above it.
WHITTAKER_MU_MAX = 100.0
_WHITTAKER_RTOL = 1e-10
_WHITTAKER_ATOL = 1e-12
# Below this argument the closed small-argument form carries the mass.
_WHITTAKER_HEAD_MU = 1e-4


def _whittaker_anchor(kappa: float, mu: float, dc: bool = False) -> list[complex]:
    """(v, dv/dt) at t = log mu + i pi, with w = sqrt(z) v and t = log z.

    The Whittaker equation with second index 0,
    w'' = (1/4 - kappa/z - 1/(4 z^2)) w,
    becomes v_tt = e^t (e^t/4 - kappa) v, which has no singularity at
    z = 0.  It is integrated from an asymptotic start at 40 e^{i pi/6}
    along a straight segment in the t plane, which stays inside the upper
    half z plane all the way to the cut.  With dc, (u, du/dt) follow for
    u = dv/dkappa, which obeys u_tt = e^t (e^t/4 - kappa) u - e^t v.
    """
    z0 = 40.0 * cmath.exp(1j * math.pi / 6.0)
    w0, wp0, dw0, dwp0 = _whittaker_asymptotic(kappa, z0)
    sz0 = cmath.sqrt(z0)
    start = [w0 / sz0, sz0 * wp0 - 0.5 * w0 / sz0]
    if dc:
        start += [dw0 / sz0, sz0 * dwp0 - 0.5 * dw0 / sz0]

    t0 = cmath.log(z0)
    t1 = math.log(mu) + 1j * math.pi  # log(-mu) approached from above
    direction = t1 - t0

    # State y = (v, dv/dr[, u, du/dr]) with r the straight-line parameter in
    # the t plane; d/dr = direction d/dt.
    def rhs(r, y):
        z = cmath.exp(t0 + r * direction)
        q = z * (0.25 * z - kappa)
        out = [y[1], (q * y[0]) * direction * direction]
        if dc:
            out += [y[3], (q * y[2] - z * y[0]) * direction * direction]
        return out

    y0 = np.array([s * direction if i % 2 else s for i, s in enumerate(start)], dtype=complex)
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=_WHITTAKER_RTOL, atol=1e-250)
    if not sol.success:
        raise WhittakerError(f"Whittaker ODE integration failed: {sol.message}")
    end = sol.y[:, -1]
    return [complex(e / direction) if i % 2 else complex(e) for i, e in enumerate(end)]


def _whittaker_lip(c: float, mus: np.ndarray, dc: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """|W|^2 at the ascending points mus, and the sweep's states there (one column each).

    On the lip t = s + i pi of the cut (z = -mu, mu = e^s) the equation for
    v is real, v_ss = mu (mu/4 + kappa) v, so Re v and Im v are swept as
    two real solutions from the anchor at min(mus[0], 1).  Upward in s the
    wanted solution grows like e^{mu/2} and every other one decays
    relative to it, so errors do not grow.  The states are Re v, Im v,
    their s-derivatives and F = int norm / |v|^2 ds = int D(mu) dmu.
    With dc five more carry their kappa-derivatives: u = dv/dkappa obeys
    u_ss = mu (mu/4 + kappa) u + mu v, and dF/dkappa grows at the rate
    norm (psi(c) + psi(c+1) - 2 v.u / |v|^2) / |v|^2.
    """
    kappa = 0.5 - c
    norm = 1.0 / (math.gamma(c) * math.gamma(c + 1.0))
    dlog_norm = float(psi(c) + psi(c + 1.0))  # d log(norm) / dkappa
    s_eval = np.log(mus)
    s_anchor = min(float(s_eval[0]), 0.0)
    start = _whittaker_anchor(kappa, math.exp(s_anchor), dc)
    y0 = []
    for v, dv in zip(start[0::2], start[1::2]):
        y0 += [v.real, v.imag, dv.real, dv.imag, 0.0]
    if s_eval[-1] == s_anchor:  # one point, at the anchor
        return _finite(mus * abs(start[0]) ** 2), np.array(y0)[:, None]

    def rhs(s, y):
        mu = math.exp(s)
        q = mu * (0.25 * mu + kappa)
        r2 = y[0] * y[0] + y[1] * y[1]
        out = [y[2], y[3], q * y[0], q * y[1], norm / r2]
        if dc:
            vu = y[0] * y[5] + y[1] * y[6]
            out += [y[7], y[8], q * y[5] + mu * y[0], q * y[6] + mu * y[1], norm * (dlog_norm - 2.0 * vu / r2) / r2]
        return out

    sol = solve_ivp(
        rhs,
        (s_anchor, float(s_eval[-1])),
        y0,
        method="DOP853",
        t_eval=s_eval,
        rtol=_WHITTAKER_RTOL,
        atol=_WHITTAKER_ATOL,
    )
    if not sol.success:
        raise WhittakerError(f"Whittaker sweep failed: {sol.message}")
    re, im = sol.y[0], sol.y[1]
    return _finite(mus * (re * re + im * im)), sol.y


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


def _ascending_grid(c: float, mus) -> np.ndarray:
    if not (c > 0):
        raise ValueError("c must be positive")
    mus = np.asarray(mus, dtype=float)
    if mus.ndim != 1 or mus.size == 0 or np.any(mus <= 0) or np.any(np.diff(mus) <= 0):
        raise ValueError("grid must be positive and increasing")
    if mus[-1] > WHITTAKER_MU_MAX:
        raise ValueError(f"grid must end at or below {WHITTAKER_MU_MAX:g}")
    return mus


def whittaker_cdf(c: float, mus) -> np.ndarray:
    """Distribution function of D(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2).

    mus is an ascending grid in (0, 100].  The mass below
    min(mus[0], 1e-4) comes from the small-argument closed form, which is
    no longer accurate above 1e-4; one lip sweep carries the rest.
    """
    mus = _ascending_grid(c, mus)
    mu_head = min(float(mus[0]), _WHITTAKER_HEAD_MU)
    _, y = _whittaker_lip(c, np.concatenate([[mu_head], mus]) if mus[0] > mu_head else mus)
    mass = y[4] - y[4][0]
    return _whittaker_head_mass(c, mu_head) + mass[-mus.size :]


def whittaker_dc(c: float, mus) -> tuple[np.ndarray, np.ndarray]:
    """c-derivatives of c D_c(mu) and of c times the mass of D_c from mus[0] to mu.

    D_c(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2) on an ascending
    grid in (0, 100], as for whittaker_cdf.  One lip sweep carries the
    five states of whittaker_cdf and their kappa-derivatives
    (kappa = 1/2 - c), so no step in c is taken.  With v.u = Re(conj(v) u),
    d/dc (c D_c) = 2 c D_c (v.u / |v|^2 - psi(c)).
    """
    mus = _ascending_grid(c, mus)
    _, y = _whittaker_lip(c, mus, dc=True)
    re, im, ure, uim = y[0], y[1], y[5], y[6]
    r2 = re * re + im * im
    dens = 2.0 * (re * ure + im * uim - psi(c) * r2) / (math.gamma(c) ** 2 * mus * r2 * r2)
    mass = (y[4] - y[4][0]) - c * (y[9] - y[9][0])
    return dens, mass


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

