"""Special functions used by the exact formulas.

The band-edge scaling functions on scipy's Airy functions, the squared
modulus of the Whittaker function on the upper side of its cut, and the
package's seeded generator.  Past the turning point, where the large-mu
series of U(c, 1, z) converges to double precision, |W|^2 is that
series.  Elsewhere, and for the mass and the c-derivatives everywhere,
one numpy-only lip solve takes every c > 0 and mu > 0: Chebyshev
collocation of the Riccati equation for the log-derivative of the
solution that does not oscillate along the cut, at a cost that does not
grow with c (ledger D10).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.polynomial import chebyshev

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
    # Only the scaling routes need Airy, and scipy.special costs about 0.25 s to import.
    from scipy.special import airy

    ai, aip, bi, bip = airy(_scaling_points("scaling_f", x))
    return _as_result((ai * aip + bi * bip) / (ai**2 + bi**2))


def scaling_f_rotated(x):
    """Second route to scaling_f: Re of e^{-2 pi i/3} Ai'(w)/Ai(w) at w = e^{-2 pi i/3} x.

    The connection formula Ai(w) = e^{-i pi/3} (Ai(x) + i Bi(x)) / 2 makes
    this equal to scaling_f; the Airy pair is evaluated at the complex
    point itself.  Scalars and arrays as in scaling_f.
    """
    # Only the scaling routes need Airy, and scipy.special costs about 0.25 s to import.
    from scipy.special import airy

    ai, aip, _, _ = airy(_ROT * _scaling_points("scaling_f_rotated", x))
    return _as_result((_ROT * aip / ai).real)


def scaling_dos(x):
    """Band-edge scaling function of the density of states, 1/(pi (Ai^2+Bi^2)).

    Scalars and arrays as in scaling_f.
    """
    # Only the scaling routes need Airy, and scipy.special costs about 0.25 s to import.
    from scipy.special import airy

    ai, _, bi, _ = airy(_scaling_points("scaling_dos", x))
    return _as_result(1.0 / (np.pi * (ai**2 + bi**2)))


def scaling_dos_rotated(x):
    """Rotated-argument route to scaling_dos: Im of the ratio in scaling_f_rotated.

    Scalars and arrays as in scaling_f, for -SCALING_RANGE <= x <= ROTATED_DOS_MAX.
    """
    # Only the scaling routes need Airy, and scipy.special costs about 0.25 s to import.
    from scipy.special import airy

    xs = _scaling_points("scaling_dos_rotated", x)
    if not np.all(xs <= ROTATED_DOS_MAX):
        raise ValueError(f"scaling_dos_rotated has no relative accuracy beyond x = {ROTATED_DOS_MAX:g}")
    ai, aip, _, _ = airy(_ROT * xs)
    return _as_result((_ROT * aip / ai).imag)


# ----------------------------------------------------------------------
# Whittaker modulus squared
# ----------------------------------------------------------------------


class WhittakerError(ArithmeticError):
    """A lip solve that does not converge, or a value outside the double range."""


# Terms of the anchor series; at c mu <= 1 they fall like 1/k!.
_WHITTAKER_TERMS = 30
# The large-mu series is accepted where its smallest term is below this
# fraction of its sum.  Its error is 0.35 to 2.1 times that term, so it
# then stays at the rounding of e^mu, about 2e-15 from mu = 20 (ledger D8).
_SERIES_EPS = 1e-15
# The large-mu series sums at most this many terms.  They fall while
# (c+s)^2 < (s+1) mu, so at mu <= 100, where ledger D8 measured the routes,
# every falling term is among them.  Past mu = 100 the falling terms beyond
# them do not change the sum of any point the series is accepted at, to
# the last bit (checked up to mu = 5000); the other points take the solve.
_SERIES_TERMS = 103

# The lip solve (ledger D10): Chebyshev collocation of the Riccati equation
# on intervals of s = log mu, with _NODES Lobatto nodes per interval.  The
# matrices map node values on [-1, 1] to Chebyshev coefficients, to the
# derivative and to the integral from -1, each at the nodes.
_NODES = 28
_X = -np.cos(np.pi * np.arange(_NODES) / (_NODES - 1))
_TO_COEFFS = np.linalg.inv(chebyshev.chebvander(_X, _NODES - 1))
_DIFF = chebyshev.chebvander(_X, _NODES - 2) @ chebyshev.chebder(np.eye(_NODES), axis=0) @ _TO_COEFFS
_INTEG = chebyshev.chebvander(_X, _NODES) @ chebyshev.chebint(np.eye(_NODES), lbnd=-1, axis=0) @ _TO_COEFFS
# An interval is accepted when Newton's last step is below _NEWTON_TOL of
# R within _NEWTON_STEPS steps and the last _TAIL_TERMS Chebyshev
# coefficients of R are below _TAIL_TOL of the largest; otherwise it is
# halved.  An accepted interval lets the next one grow by _GROWTH.  No
# solve measured from c = 1e-3 to 1e300 and mu up to 8c + 200 halved more
# than 19 times, so _MAX_HALVINGS ends a solve that would not finish.
_NEWTON_TOL = 1e-14
_NEWTON_STEPS = 12
_TAIL_TERMS = 4
_TAIL_TOL = 1e-12
_FIRST_INTERVAL = 1.0
_GROWTH = 1.6
_MAX_HALVINGS = 60


def _whittaker_points(c: float, mu) -> np.ndarray:
    """mu as an array, once c and mu pass the checks of every Whittaker value.

    This is the one place that checks them: c must be positive and finite,
    and mu one or more positive finite points, a scalar or of any shape.
    """
    if not 0 < c < math.inf:
        raise ValueError("c must be positive and finite")
    mus = np.asarray(mu, dtype=float)
    if mus.size == 0 or not np.all((mus > 0) & (mus < math.inf)):
        raise ValueError("mu must be one or more positive finite points")
    return mus


def _large_mu_sum(c: float, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S = sum_s (c)_s^2 / (s! mu^s) over its falling terms, and its smallest term over S, at 1-D mu.

    The terms are those of the large-|z| series of U(c, 1, z) at z = -mu + i0
    (DLMF 13.7.3); they fall while (c+s)^2 < (s+1) mu.
    """
    s = np.arange(_SERIES_TERMS, dtype=float)
    with np.errstate(over="ignore"):  # an infinite ratio does not fall
        ratio = (c + s) ** 2 / ((s + 1.0) * mu[:, None])
    falling = np.logical_and.accumulate(ratio < 1.0, axis=1)
    terms = np.cumprod(np.where(falling, ratio, 0.0), axis=1)
    total = 1.0 + terms.sum(axis=1)
    return total, terms.min(axis=1, where=falling, initial=1.0) / total


def _whittaker_anchor(c: float, mu: float) -> list[complex]:
    """(V, dV/dt, U, dU/dt) at t = log mu + i pi, with V = Gamma(c) w / sqrt(z), t = log z and U = dV/dkappa.

    W_{1/2-c,0}(z) = e^{-z/2} z^{1/2} U(c, 1, z) (DLMF 13.14.3), and the
    convergent series of DLMF 13.2.9 gives

        Gamma(c) U(c, 1, z) = -sum_k (c)_k z^k / (k!)^2 (log z + psi(c+k) - 2 psi(k+1)),

    so V = e^{-z/2} Gamma(c) U(c, 1, z).  Taken at c mu <= 1, where the
    terms do not cancel.  U and dU/dt, the derivatives in kappa = 1/2 - c,
    follow term by term with (c)_k' = (c)_k (psi(c+k) - psi(c)).
    """
    # Only the lip solve's anchor needs psi and psi', and scipy.special costs about 0.25 s to import.
    from scipy.special import polygamma, psi

    k = np.arange(_WHITTAKER_TERMS, dtype=float)
    terms = np.cumprod(np.concatenate([[1.0], -mu * (c + k[:-1]) / (k[1:] * k[1:])]))
    psi_ck = psi(c + k)
    g = math.log(mu) + 1j * math.pi + psi_ck - 2.0 * psi(k + 1.0)
    lead = math.exp(0.5 * mu)
    s, zs = -np.sum(terms * g), -np.sum(terms * (k * g + 1.0))  # Gamma(c) U and z d/dz of it
    d = psi_ck - psi(c)
    p = polygamma(1, c + k)
    # psi'(c) ~ 1/c^2 overflows from about c = 1e-154, and U with it; _whittaker_lambda refuses that.
    with np.errstate(over="ignore", invalid="ignore"):
        s_c, zs_c = -np.sum(terms * (d * g + p)), -np.sum(terms * (d * (k * g + 1.0) + k * p))
        out = [lead * s, lead * (0.5 * mu * s + zs), -lead * s_c, -lead * (0.5 * mu * s_c + zs_c)]
    return [complex(v) for v in out]


def _riccati_interval(q: np.ndarray, mu: np.ndarray, h: float, r0: complex, sigma0: complex):
    """R = V_s / V and sigma = Lambda_s at the nodes of one interval of length h, or None.

    R obeys R_s + R^2 = q and sigma obeys sigma_s + 2 R sigma = mu, each
    pinned at the left node.  Newton runs on the collocated Riccati
    equation from the left value plus the change of the WKB branch
    -i sqrt(-q); its Jacobian D + 2 diag R is also the matrix of the
    linear equation for sigma.  None when Newton does not converge or R
    is not resolved, so that the caller halves the interval.
    """
    diff = _DIFF * (2.0 / h)
    wkb = -1j * np.sqrt(-q + 0j)
    r = r0 + (wkb - wkb[0])
    try:
        for _ in range(_NEWTON_STEPS):
            jac = diff[1:, 1:] + np.diag(2.0 * r[1:])
            step = np.linalg.solve(jac, diff[1:] @ r + r[1:] ** 2 - q[1:])
            r[1:] -= step
            if not np.all(np.isfinite(r)):
                return None
            if np.max(np.abs(step)) <= _NEWTON_TOL * np.max(np.abs(r)):
                break
        else:
            return None
        coeffs = np.abs(_TO_COEFFS @ r)
        if np.max(coeffs[-_TAIL_TERMS:]) > _TAIL_TOL * np.max(coeffs):
            return None
        sigma = np.empty_like(r)
        sigma[0] = sigma0
        sigma[1:] = np.linalg.solve(diff[1:, 1:] + np.diag(2.0 * r[1:]), mu[1:] - diff[1:, 0] * sigma0)
    except np.linalg.LinAlgError:
        return None
    return r, sigma


def _lip_solve(c: float, mu) -> tuple[np.ndarray, np.ndarray]:
    """log V and Lambda = U/V at the points mu, each in mu's shape (ledger D10).

    mu is a scalar or an array of any shape and order of positive points;
    c must be positive (_whittaker_points checks both).  The solve runs
    once over the distinct values of s = log mu, in ascending order, so
    points that share a log share their values.

    On the lip t = s + i pi of the cut (z = -mu, mu = e^s) V obeys the real
    equation V_ss = q V, q = mu (mu/4 + kappa), and U = dV/dkappa obeys
    U_ss = q U + mu V.  V is the solution that does not oscillate: Re V and
    Im V have Wronskian -pi, and |V|^2 = 1/(mu c D_c) is smooth.  So
    R = V_s / V and Lambda are smooth at any c, and are solved for on
    Chebyshev intervals from the anchor at min(mu, 1/max(c, 1)), with
    log V = log V_anchor + int R ds and Lambda = Lambda_anchor + int sigma ds.
    At the anchor, where c F_c = -Im log V / pi < 1, log V is the principal
    log.  WhittakerError when an interval is halved _MAX_HALVINGS times.
    """
    mus = _whittaker_points(c, mu)
    s_eval, where = np.unique(np.log(mus), return_inverse=True)
    s_end = float(s_eval[-1])
    kappa = 0.5 - c
    s = min(float(s_eval[0]), -math.log(max(c, 1.0)))
    v, v_s, u, u_s = _whittaker_anchor(c, math.exp(s))
    r0, sigma0, log_v0, lam0 = v_s / v, (u_s * v - u * v_s) / (v * v), cmath.log(v), u / v
    log_v, lam = np.empty(s_eval.size, complex), np.empty(s_eval.size, complex)
    done = int(np.searchsorted(s_eval, s, side="right"))
    log_v[:done], lam[:done] = log_v0, lam0
    h, halvings = _FIRST_INTERVAL, 0
    with np.errstate(all="ignore"):
        while done < s_eval.size:
            b = min(s + h, s_end)
            h = b - s
            mu_n = np.exp(s + 0.5 * h * (_X + 1.0))
            solved = _riccati_interval(mu_n * (0.25 * mu_n + kappa), mu_n, h, r0, sigma0)
            if solved is None:
                halvings += 1
                if halvings > _MAX_HALVINGS:
                    raise WhittakerError(f"Whittaker lip solve at c = {c:g} does not converge near mu = {math.exp(s):.6g}")
                h *= 0.5
                continue
            r, sigma = solved
            log_v_n = log_v0 + 0.5 * h * (_INTEG @ r)
            lam_n = lam0 + 0.5 * h * (_INTEG @ sigma)
            stop = int(np.searchsorted(s_eval, b, side="right"))
            if stop > done:
                read = chebyshev.chebvander(2.0 * (s_eval[done:stop] - s) / h - 1.0, _NODES - 1) @ _TO_COEFFS
                log_v[done:stop], lam[done:stop] = read @ log_v_n, read @ lam_n
                done = stop
            s, h = b, h * _GROWTH
            r0, sigma0, log_v0, lam0 = r[-1], sigma[-1], log_v_n[-1], lam_n[-1]
    return log_v[where].reshape(mus.shape), lam[where].reshape(mus.shape)


def _scaled_msq(c: float, mu) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(c)^2 |W_{-c+1/2,0}(-mu)|^2 and its log at mu of any shape, in mu's shape (ledger D8).

    Where the large-mu series converges, its smallest term below
    _SERIES_EPS of its sum S (_large_mu_sum), the log is
    2 log Gamma(c) + mu + (1 - 2c) log mu + 2 log S; the other points take
    mu |V|^2 = mu e^{2 Re log V} from one lip solve over just them.  The
    value overflows to inf past the doubles (from about mu = 709 at
    c = 1), where callers read the log instead.
    """
    mus = _whittaker_points(c, mu)
    flat = mus.ravel()
    total, smallest = _large_mu_sum(c, flat)
    served = smallest < _SERIES_EPS
    msq, log_msq = np.empty_like(flat), np.empty_like(flat)
    m = flat[served]
    log_msq[served] = 2.0 * math.lgamma(c) + m + (1.0 - 2.0 * c) * np.log(m) + 2.0 * np.log(total[served])
    with np.errstate(over="ignore"):
        msq[served] = np.exp(log_msq[served])
    if not np.all(served):
        m = flat[~served]
        two_re = 2.0 * _lip_solve(c, m)[0].real
        with np.errstate(over="ignore"):
            msq[~served] = m * np.exp(two_re)
        log_msq[~served] = np.log(m) + two_re
    if not np.all(np.isfinite(log_msq)):
        raise WhittakerError("non-finite Whittaker value")
    return msq.reshape(mus.shape), log_msq.reshape(mus.shape)


def whittaker_msq(c: float, mu):
    """|W_{-c+1/2, 0}(-mu)|^2 as the limit from the upper half plane.

    mu is a scalar (a float is returned) or an array of positive points
    (an array of the same shape is returned).  Where the large-mu series
    of U(c, 1, z) converges to double precision (from about mu = 33 at
    c = 0.5, 38 at c = 1, 45 at c = 2 and 64 at c = 5) |W|^2 is
    e^mu mu^(1-2c) (sum_s (c)_s^2 / (s! mu^s))^2, within 3e-14 of mpmath.
    Every other point comes from one lip solve: the convergent series of
    U(c, 1, z) anchors the Gamma(c)-scaled solution V on the upper lip of
    the cut at mu_a = min(mu, 1/max(c, 1)), and Chebyshev collocation of
    the Riccati equation for V_s / V upward in log mu gives mu |V|^2 at
    those points, within 1e-13 of mpmath for c from 0.05 to 50 and mu up
    to 8c + 200.  WhittakerError is raised where |W|^2 falls below the
    normal doubles (from about c = 100) or overflows them.
    """
    scaled, log_scaled = _scaled_msq(c, mu)
    with np.errstate(over="ignore"):
        msq = np.exp(np.where(np.isinf(scaled), log_scaled, np.log(scaled)) - 2.0 * math.lgamma(c))
    if not np.all((msq >= np.finfo(float).tiny) & (msq < np.inf)):
        raise WhittakerError(f"|W|^2 at c = {c:g} lies outside the normal doubles")
    return _as_result(msq)


def whittaker_cdf(c: float, mu) -> np.ndarray:
    """Distribution function of D(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2).

    mu is a scalar or an array of any shape and order of positive points;
    the result has mu's shape.  Re V and Im V have Wronskian -pi, so c
    times the mass below mu is -Im log V / pi, from one lip solve: no
    closed form of the singular head below the grid is spliced in.
    """
    return -_lip_solve(c, mu)[0].imag / (math.pi * c)


def _whittaker_lambda(c: float, mu) -> tuple[np.ndarray, np.ndarray]:
    """Lambda = U/V and d/dc (c D_c) = 2 Re Lambda / (mu |V|^2), at the points of _lip_solve.

    One lip solve gives both at every point.  V is e^{-z/2} Gamma(c) U(c, 1, z),
    so Lambda = -d/dc log(Gamma(c) U(c, 1, -mu + i0)).  Where mu |V|^2
    overflows (from about mu = 709 at c = 1) the quotient is taken in logs.
    WhittakerError is raised where Lambda is not finite (from about c = 1e-103 down).
    """
    log_v, lam = _lip_solve(c, mu)
    if not np.all(np.isfinite(lam)):
        raise WhittakerError(f"Lambda at c = {c:g} lies outside the doubles")
    mu = np.asarray(mu, dtype=float)
    num = 2.0 * lam.real
    # log 0 = -inf gives 0; a quotient past the doubles is whittaker_dc's to refuse.
    with np.errstate(over="ignore", divide="ignore"):
        msq = mu * np.exp(2.0 * log_v.real)
        logs = np.sign(num) * np.exp(np.log(np.abs(num)) - np.log(mu) - 2.0 * log_v.real)
        return lam, np.where(np.isinf(msq), logs, num / msq)


def whittaker_dc(c: float, mu) -> tuple[np.ndarray, np.ndarray]:
    """c-derivatives of c D_c(mu) and of c F_c(mu), c times the mass of D_c below mu.

    D_c(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2), at a scalar
    or an array of any shape and order of positive points, as for
    whittaker_cdf; both results have mu's shape.  The lip solve carries V
    and its kappa-derivative U (kappa = 1/2 - c) through Lambda = U/V, so
    no step in c is taken.  With c D_c = 1/(mu |V|^2) and
    c F_c = -Im log V / pi, d/dc = -d/dkappa gives
    d/dc (c D_c) = 2 Re Lambda / (mu |V|^2) and d/dc (c F_c) = Im Lambda / pi.
    WhittakerError is raised where d/dc (c D_c) leaves the doubles (as
    1/(mu log^2 mu) does below about mu = 1e-305).
    """
    lam, d_dc = _whittaker_lambda(c, mu)
    if not np.all(np.isfinite(d_dc)):
        raise WhittakerError(f"d/dc (c D_c) at c = {c:g} lies outside the doubles")
    return d_dc, lam.imag / math.pi


def whittaker_density_mass(c: float, cut: float = 60.0) -> float:
    """Total mass of D(mu) = 1/(Gamma(c) Gamma(c+1) |W_{-c+1/2,0}(-mu)|^2).

    The mass below cut is whittaker_cdf at cut, from one lip solve, and
    the tail comes from the exponential asymptotics, which hold only well
    past the turning point mu = 4c - 2: a cut below 8c is refused.
    """
    # Only the tail needs the incomplete gamma, and scipy.special costs about 0.25 s to import.
    from scipy.special import gammaincc

    if not cut >= 8.0 * c:
        raise ValueError(f"cut must be at least 8c = {8.0 * c:g}")
    below_cut = whittaker_cdf(c, cut)
    # Tail: |W|^2 ~ e^{mu} mu^{1-2c}, so D ~ mu^{2c-1} e^{-mu} / (Gamma(c) Gamma(c+1)).
    norm = math.exp(math.lgamma(2.0 * c) - math.lgamma(c) - math.lgamma(c + 1.0))
    return float(below_cut) + norm * float(gammaincc(2.0 * c, cut))


# ----------------------------------------------------------------------
# random generator
# ----------------------------------------------------------------------


def rng_from_seed(seed) -> np.random.Generator:
    """PCG64 generator; the single documented RNG used across the package."""
    return np.random.default_rng(seed)
