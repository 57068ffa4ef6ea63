"""Special functions used by the exact formulas.

The band-edge scaling functions on scipy's Airy functions, the squared
modulus of the Whittaker function on the upper side of its cut, and a
reproducible gamma sampler.  Past the turning point, where the large-mu
series of U(c, 1, z) converges to double precision, |W|^2 is that
series; elsewhere, and for the mass and the c-derivatives everywhere, the
Whittaker equation is integrated along the cut with scipy's initial
value solver.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import airy, gammaincc, polygamma, psi

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
    """Non-convergent Whittaker integration, or a value outside the double range."""


# Whittaker values are supported on (0, WHITTAKER_MU_MAX].  The sweep's
# absolute tolerance is safe because it carries the Gamma(c)-scaled
# solution V, with |V| of order one or more at the anchor for every c.
WHITTAKER_MU_MAX = 100.0
_WHITTAKER_RTOL = 1e-10
_WHITTAKER_ATOL = 1e-12
# Terms of the anchor series; at c mu <= 1 they fall like 1/k!.
_WHITTAKER_TERMS = 30
# The large-mu series is accepted where its smallest term is below this
# fraction of its sum.  Its error is 0.35 to 2.1 times that term, so it
# then stays at the rounding of e^mu, about 2e-15 from mu = 20 (ledger D8).
_SERIES_EPS = 1e-15
# At mu <= WHITTAKER_MU_MAX the large-mu terms have stopped falling by s = mu + 1.
_SERIES_TERMS = int(WHITTAKER_MU_MAX) + 3


def _whittaker_points(c: float, mu) -> np.ndarray:
    """mu as an array, once c and mu pass the checks of every Whittaker value.

    This is the one place that checks them: c must be positive and mu one
    or more points in (0, WHITTAKER_MU_MAX], a scalar or of any shape.
    """
    if not (c > 0):
        raise ValueError("c must be positive")
    mus = np.asarray(mu, dtype=float)
    if mus.size == 0 or not np.all((mus > 0) & (mus <= WHITTAKER_MU_MAX)):
        raise ValueError(f"mu must be one or more points in (0, {WHITTAKER_MU_MAX:g}]")
    return mus


def _large_mu_sum(c: float, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S = sum_s (c)_s^2 / (s! mu^s) over its falling terms, and its smallest term over S, at 1-D mu.

    The terms are those of the large-|z| series of U(c, 1, z) at z = -mu + i0
    (DLMF 13.7.3); they fall while (c+s)^2 < (s+1) mu.
    """
    s = np.arange(_SERIES_TERMS, dtype=float)
    ratio = (c + s) ** 2 / ((s + 1.0) * mu[:, None])
    falling = np.logical_and.accumulate(ratio < 1.0, axis=1)
    terms = np.cumprod(np.where(falling, ratio, 0.0), axis=1)
    total = 1.0 + terms.sum(axis=1)
    return total, terms.min(axis=1, where=falling, initial=1.0) / total


def _whittaker_anchor(c: float, mu: float, dc: bool = False) -> list[complex]:
    """(V, dV/dt) at t = log mu + i pi, with V = Gamma(c) w / sqrt(z) and t = log z.

    W_{1/2-c,0}(z) = e^{-z/2} z^{1/2} U(c, 1, z) (DLMF 13.14.3), and the
    convergent series of DLMF 13.2.9 gives

        Gamma(c) U(c, 1, z) = -sum_k (c)_k z^k / (k!)^2 (log z + psi(c+k) - 2 psi(k+1)),

    so V = e^{-z/2} Gamma(c) U(c, 1, z).  Taken at c mu <= 1, where the
    terms do not cancel.  With dc, (U, dU/dt) follow for U = dV/dkappa
    (kappa = 1/2 - c), term by term with (c)_k' = (c)_k (psi(c+k) - psi(c)).
    """
    k = np.arange(_WHITTAKER_TERMS, dtype=float)
    terms = np.cumprod(np.concatenate([[1.0], -mu * (c + k[:-1]) / (k[1:] * k[1:])]))
    psi_ck = psi(c + k)
    g = math.log(mu) + 1j * math.pi + psi_ck - 2.0 * psi(k + 1.0)
    lead = math.exp(0.5 * mu)
    s, zs = -np.sum(terms * g), -np.sum(terms * (k * g + 1.0))  # Gamma(c) U and z d/dz of it
    out = [lead * s, lead * (0.5 * mu * s + zs)]
    if dc:
        d = psi_ck - psi(c)
        p = polygamma(1, c + k)
        s_c, zs_c = -np.sum(terms * (d * g + p)), -np.sum(terms * (d * (k * g + 1.0) + k * p))
        out += [-lead * s_c, -lead * (0.5 * mu * s_c + zs_c)]
    return [complex(v) for v in out]


def _whittaker_lip(c: float, mu, dc: bool = False) -> np.ndarray:
    """The sweep's states at the points mu, as an array of shape (states,) + mu.shape.

    mu is a scalar or an array of any shape and order in (0, 100]; c must
    be positive (_whittaker_points checks both).  The sweep runs once over
    the distinct values of s = log mu, in ascending order, so points that
    share a log share their states.

    On the lip t = s + i pi of the cut (z = -mu, mu = e^s) the equation for
    V is real, V_ss = mu (mu/4 + kappa) V, so Re V and Im V are swept as
    two real solutions from the anchor at min(mu, 1/max(c, 1)).
    Upward in s the wanted solution grows like e^{mu/2} and every other
    one decays relative to it, so errors do not grow.  The states are
    Re V, Im V, their s-derivatives and G = c F_c, c times the mass of D
    below mu.  Re V and Im V have Wronskian -pi, so G = -arg V / pi: at
    the anchor, where G < 1, that is the principal arg, and upward G
    grows at the rate 1/|V|^2.  The anchor value of G is added after the
    solve, so the solver sees the same states, and takes the same steps,
    as when G starts at zero.

    With dc the states are the eight real ones of V, V_s, U and U_s, where
    U = dV/dkappa obeys U_ss = mu (mu/4 + kappa) U + mu V.  No mass row is
    carried: dG/dkappa = -Im(U/V) / pi at every point (ledger D7).
    """
    # Most commands never need scipy.integrate, and importing it costs about 0.36 s.
    from scipy.integrate import solve_ivp
    mus = _whittaker_points(c, mu)
    s_eval, where = np.unique(np.log(mus), return_inverse=True)
    kappa = 0.5 - c
    s_anchor = min(float(s_eval[0]), -math.log(max(c, 1.0)))
    start = _whittaker_anchor(c, math.exp(s_anchor), dc)
    y0 = [part for v in start for part in (v.real, v.imag)]
    if not dc:
        y0.append(0.0)  # G

    def rhs(s, y):
        mu = math.exp(s)
        q = mu * (0.25 * mu + kappa)
        if dc:
            return [y[2], y[3], q * y[0], q * y[1], y[6], y[7], q * y[4] + mu * y[0], q * y[5] + mu * y[1]]
        return [y[2], y[3], q * y[0], q * y[1], 1.0 / (y[0] * y[0] + y[1] * y[1])]

    if s_eval[-1] == s_anchor:  # one point, at the anchor
        y = np.array(y0)[:, None]
    else:
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
        y = sol.y
    if not dc:
        y[4] -= cmath.phase(start[0]) / math.pi
    return y[:, where].reshape(y.shape[:1] + mus.shape)


def _scaled_msq(c: float, mu) -> np.ndarray:
    """Gamma(c)^2 |W_{-c+1/2,0}(-mu)|^2 at mu of any shape, in mu's shape (ledger D8).

    Where the large-mu series converges, its smallest term below
    _SERIES_EPS of its sum S (_large_mu_sum), it is
    Gamma(c)^2 e^mu mu^(1-2c) S^2, taken in logs; the other points take
    mu |V|^2 from one sweep over just them.
    """
    mus = _whittaker_points(c, mu)
    flat = mus.ravel()
    total, smallest = _large_mu_sum(c, flat)
    served = smallest < _SERIES_EPS
    m = flat[served]
    msq = np.empty_like(flat)
    msq[served] = np.exp(2.0 * math.lgamma(c) + m + (1.0 - 2.0 * c) * np.log(m) + 2.0 * np.log(total[served]))
    if not np.all(served):
        m = flat[~served]
        y = _whittaker_lip(c, m)
        msq[~served] = m * (y[0] * y[0] + y[1] * y[1])
    if not np.all(np.isfinite(msq)):
        raise WhittakerError("non-finite Whittaker value")
    return msq.reshape(mus.shape)


def whittaker_msq(c: float, mu):
    """|W_{-c+1/2, 0}(-mu)|^2 as the limit from the upper half plane.

    mu is a scalar (a float is returned) or an array of points in
    (0, 100] (an array of the same shape is returned).  Where the
    large-mu series of U(c, 1, z) converges to double precision (from
    about mu = 33 at c = 0.5, 38 at c = 1, 45 at c = 2 and 64 at c = 5;
    not at all from about c = 10.1) |W|^2 is
    e^mu mu^(1-2c) (sum_s (c)_s^2 / (s! mu^s))^2, within 3e-14 of mpmath.
    Every other point comes from one sweep: the convergent series of
    U(c, 1, z) anchors the Gamma(c)-scaled solution on the upper lip of
    the cut at mu_a = min(mu, 1/max(c, 1)), and one real ODE sweep upward
    in log mu along the lip gives those points, within 1e-9 of mpmath
    over mu in [1e-6, 100] for c from 0.5 to 100.  |W|^2 falls below the
    normal doubles from about c = 100, where WhittakerError is raised.
    """
    msq = np.exp(np.log(_scaled_msq(c, mu)) - 2.0 * math.lgamma(c))
    if not np.all(msq >= np.finfo(float).tiny):
        raise WhittakerError(f"|W|^2 at c = {c:g} lies outside the normal doubles")
    return _as_result(msq)


def whittaker_cdf(c: float, mu) -> np.ndarray:
    """Distribution function of D(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2).

    mu is a scalar or an array of any shape and order in (0, 100]; the
    result has mu's shape.  One lip sweep carries c times the mass, from
    its exact value -arg V / pi at the anchor: no closed form of the
    singular head below the grid is spliced in.
    """
    return _whittaker_lip(c, mu)[4] / c


def _whittaker_lambda(c: float, mu) -> tuple[np.ndarray, np.ndarray]:
    """Lambda = U/V = conj(V) U / |V|^2 and mu |V|^2, at the points of _whittaker_lip.

    One dc lip sweep gives both at every point.  V is e^{-z/2} Gamma(c) U(c, 1, z),
    so Lambda = -d/dc log(Gamma(c) U(c, 1, -mu + i0)).
    """
    y = _whittaker_lip(c, mu, dc=True)
    r2 = y[0] * y[0] + y[1] * y[1]
    return (y[0] - 1j * y[1]) * (y[4] + 1j * y[5]) / r2, mu * r2


def whittaker_dc(c: float, mu) -> tuple[np.ndarray, np.ndarray]:
    """c-derivatives of c D_c(mu) and of c F_c(mu), c times the mass of D_c below mu.

    D_c(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2), at a scalar
    or an array of any shape and order in (0, 100], as for whittaker_cdf;
    both results have mu's shape.  One lip sweep carries V and
    its kappa-derivative U (kappa = 1/2 - c), so no step in c is taken,
    and both readouts are taken at each point from Lambda = U/V.  With
    c D_c = 1/(mu |V|^2) and c F_c = -arg V / pi, d/dc = -d/dkappa gives
    d/dc (c D_c) = 2 V.U / (mu |V|^4) = 2 Re Lambda / (mu |V|^2), V.U = Re(conj(V) U),
    and d/dc (c F_c) = Im(conj(V) U) / (pi |V|^2) = Im Lambda / pi.
    """
    lam, msq = _whittaker_lambda(c, mu)
    return 2.0 * lam.real / msq, lam.imag / math.pi


def whittaker_density_mass(c: float, cut: float = 60.0) -> float:
    """Total mass of D(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2).

    The mass below cut is whittaker_cdf at cut, from one lip sweep, and
    the tail comes from the exponential asymptotics, which hold only well
    past the turning point mu = 4c - 2: a cut below 8c is refused.
    """
    if not cut >= 8.0 * c:
        raise ValueError(f"cut must be at least 8c = {8.0 * c:g}")
    below_cut = whittaker_cdf(c, cut)
    # Tail: |W|^2 ~ e^{mu} mu^{1-2c}, so D ~ mu^{2c-1} e^{-mu} / (Gamma(c) Gamma(c+1)).
    norm = math.exp(math.lgamma(2.0 * c) - math.lgamma(c) - math.lgamma(c + 1.0))
    return float(below_cut) + norm * float(gammaincc(2.0 * c, cut))


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

