import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from randchain import chain, exact, specfun
from randchain.exact import (
    dos_exact,
    dyson_head,
    gamma1_coefficient,
    gamma_chain_density,
    idos_exact,
    k_alpha,
    l_alpha,
    lyapunov_exact,
    omega_exact,
    pure_chain,
    weak_disorder_idos,
)


# ----------------------------------------------------------------------
# positive-argument integrals
# ----------------------------------------------------------------------


def test_k_alpha_exponential_integral_value():
    # alpha = kappa = x = 1 reduces to e E_1(1) = 0.596347...
    oracle = math.e * sp.exp1(1.0)
    assert k_alpha(chain.Gamma(1.0, 1.0), 1.0) == pytest.approx(oracle, rel=1e-10)


def test_k1_large_x_asymptote():
    # K_1(x) = e^{1/x} E_1(1/x) -> log x - euler_gamma as x -> infinity.
    # (The expansion E_1(z) = -gamma - log z + O(z) fixes the sign of the
    # constant term.)
    x = 1e6
    got = k_alpha(chain.Gamma(1.0, 1.0), x)
    assert got == pytest.approx(math.log(x) - 0.5772156649015329, rel=1e-2)
    assert got == pytest.approx(math.e ** (1.0 / x) * sp.exp1(1.0 / x), rel=1e-9)


def test_k_alpha_monte_carlo_oracle():
    # alpha = kappa = 2, x = 1: the integral is E[(1+T)^{-2} e^{-2T}] times
    # Gamma(2)/2^2 under T ~ Gamma(2, rate 2)... sample the defining
    # integral directly as an expectation over Gamma(alpha, 1) draws:
    # K = Gamma(alpha) E[(1+T)^{-alpha} e^{-T (kappa/x - 1)}], T ~ Gamma(alpha,1).
    alpha, kappa, x = 2.0, 2.0, 1.0
    rng = np.random.default_rng(0)
    t = rng.gamma(alpha, 1.0, 10**7)
    w = (1.0 + t) ** (-alpha) * np.exp(-t * (kappa / x - 1.0))
    est = math.gamma(alpha) * w.mean()
    se = math.gamma(alpha) * w.std() / math.sqrt(w.size)
    assert abs(k_alpha(chain.Gamma(alpha, kappa), x) - est) < 3.0 * se


def test_k_alpha_small_shape_substitution():
    # alpha < 1: the integrand's t^{alpha-1} endpoint singularity, which the
    # rule takes in log t; compare against a quadrature in u = sqrt(t),
    # where it is gone.
    alpha, kappa, x = 0.5, 1.0, 1.0
    oracle = quad(
        lambda u: (1.0 + u**2) ** (-alpha) * math.exp(-kappa * u**2 / x) * 2.0 * u ** (2 * alpha - 1),
        0.0,
        30.0,
        limit=300,
    )[0]
    assert k_alpha(chain.Gamma(alpha, kappa), x) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("alpha, x", [(0.5, 0.3), (1.0, 1.0), (3.0, 2.5), (20.0, 0.1)])
def test_omega_exact_is_twice_l_over_k(alpha, x):
    p = chain.Gamma(alpha, 1.0)
    assert omega_exact(p, x) == pytest.approx(2.0 * l_alpha(p, x) / k_alpha(p, x), rel=1e-13)


def test_omega_exact_vanishes_at_zero():
    assert omega_exact(chain.Gamma(1.0, 1.0), 1e-12) == pytest.approx(0.0, abs=1e-10)


def test_omega_exact_large_alpha_hits_pure_value():
    got = omega_exact(chain.Gamma(200.0, 200.0), 2.0)
    assert abs(got - 2.0 * math.log(2.0)) < 0.01


def test_omega_exact_converges_to_pure_pointwise():
    gaps = []
    for n in (25, 50, 100, 200):
        p = chain.Gamma(float(n), float(n))
        gap = max(abs(omega_exact(p, x) - pure_chain(x).omega) for x in (0.5, 1.0, 2.0))
        gaps.append(gap * n)
    # gap <= C / alpha with a stable constant
    assert max(gaps) < 2.0 * min(gaps)


def test_stationary_density_normalised():
    p = chain.Gamma(1.5, 1.0)
    val = quad(lambda t: gamma_chain_density(p, 1.3, t), 0.0, np.inf, limit=300)[0]
    assert val == pytest.approx(1.0, abs=1e-8)


def test_stationary_density_at_large_alpha_and_small_x():
    # The numerator and K both underflow here, so the quotient is taken in logs.
    p = chain.Gamma(1000.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = gamma_chain_density(p, 1e-8, 0.7)
        val = quad(lambda t: gamma_chain_density(p, 1e-8, t), 0.0, 1e-4, points=[5e-6], limit=200)[0]
    assert math.isfinite(far) and far >= 0.0
    assert val == pytest.approx(1.0, abs=1e-8)


def _omega_mpmath(alpha: float, kappa: float, x: float) -> float:
    # Oracle: Omega(x) = -d/dc log U(c, 1, kappa/x) - log(kappa/x) at c = alpha.
    # Under the stationary law, d/dc log[Gamma(c) U(c, 1, kappa/x)] =
    # E log xi - E log(1 + xi) (DLMF 13.4.4), and xi (1 + xi') = x lambda
    # gives E log xi + E log(1 + xi) = psi(alpha) - log(kappa/x).
    with mpmath.workdps(30):
        z = mpmath.mpf(kappa) / mpmath.mpf(x)
        d = mpmath.diff(lambda c: mpmath.log(mpmath.hyperu(c, 1, z)), mpmath.mpf(alpha))
        return float(-d - mpmath.log(z))


@settings(max_examples=20, deadline=None)
@given(st.floats(math.log(0.05), math.log(100.0)), st.floats(math.log(0.1), math.log(1000.0)),
       st.floats(math.log(1e-8), math.log(1e3)))
@example(math.log(1000.0), 0.0, math.log(1e-6))
@example(math.log(1000.0), math.log(1000.0), math.log(1e-8))
@example(math.log(0.05), 0.0, math.log(1e3))
def test_omega_exact_matches_mpmath_c_derivative(log_alpha, log_kappa, log_x):
    # Log-uniform alpha, kappa and x.  mpmath's hyperu can take 45 s or fail
    # to converge at alpha past about 180, so large alpha is checked at
    # fixed points where it is fast.
    alpha, kappa, x = math.exp(log_alpha), math.exp(log_kappa), math.exp(log_x)
    got = omega_exact(chain.Gamma(alpha, kappa), x)
    assert got == pytest.approx(_omega_mpmath(alpha, kappa, x), rel=1e-12, abs=0)


def test_omega_exact_far_past_the_plateau_scale():
    # At x / kappa = 1e12 the integrand is flat over 28 units of log u,
    # where a step of 1/32 alone left Omega 6.8e-11 and 3.6e-9 off.
    for alpha, kappa in ((1.0, 1.0), (100.0, 0.5)):
        got = omega_exact(chain.Gamma(alpha, kappa), 1e12 * kappa)
        assert got == pytest.approx(_omega_mpmath(alpha, kappa, 1e12 * kappa), rel=1e-12, abs=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, np.array([]),
                                 np.array([[1.0, 2.0], [float("nan"), 3.0]])])
def test_positive_argument_integrals_refuse_bad_x(bad):
    p = chain.Gamma(1.0, 1.0)
    for f in (omega_exact, k_alpha, l_alpha, lambda p, x: gamma_chain_density(p, x, 0.5)):
        with pytest.raises(ValueError, match="x must be positive and finite"):
            f(p, bad)


def test_omega_exact_refuses_x_past_the_doubles():
    # At x / kappa = 1e307, s u overflows on the nodes; the quadrature
    # route returned NaN there.  The refusal is the only signal: with
    # warnings raised as errors the caller still gets the ValueError, not
    # a RuntimeWarning from the sum.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            omega_exact(chain.Gamma(1.0, 1.0), 1e307)


def test_positive_argument_integrals_take_arrays_bitwise():
    # The points of one call reach to different depths and, at x = 1e6,
    # take a shorter step; each keeps the bits of its own scalar call.
    p = chain.Gamma(0.7, 1.3)
    xs = np.array([[1e-8, 0.05, 3.0], [1e3, 2.0, 1e6]])
    for f in (omega_exact, k_alpha, l_alpha, lambda p, x: gamma_chain_density(p, x, 0.4)):
        assert isinstance(f(p, 2.0), float)
        got = f(p, xs)
        assert got.shape == xs.shape
        assert np.array_equal(got, [[f(p, float(x)) for x in row] for row in xs])


# ----------------------------------------------------------------------
# continuation to negative argument
# ----------------------------------------------------------------------


def _idos_mpmath(alpha: float, kappa: float, x: float) -> float:
    # Oracle: M = 1 - Im Omega / pi with Omega = 2 d/db log U(alpha, b, -kappa x - i0)
    # at b = 1, the continued characteristic function in closed form.
    with mpmath.workdps(25):
        z = mpmath.mpc(-kappa * x, -mpmath.mpf(10) ** -30)
        omega = 2 * mpmath.diff(lambda b: mpmath.log(mpmath.hyperu(alpha, b, z)), 1)
        return 1.0 - float(mpmath.im(omega)) / math.pi


def _idos_mpmath_dc(alpha: float, kappa: float, x: float) -> float:
    # Oracle: M = -Im(d/dc [Gamma(c) U(c, 1, z)] / (Gamma(c) U(c, 1, z))) / pi at
    # c = alpha, z = -kappa x + i0 (ledger D4).  The derivative is taken of
    # the product, not of its log, so no branch of the log is involved, and
    # integer alpha is served as well as any other: at alpha = 2, kappa x = 1
    # it gives 1 - 2/e to 16 digits.
    with mpmath.workdps(30):
        z = mpmath.mpc(-kappa * x, mpmath.mpf(10) ** -25)

        def scaled_u(c):
            return mpmath.gamma(c) * mpmath.hyperu(c, 1, z)

        return float(-mpmath.im(mpmath.diff(scaled_u, alpha) / scaled_u(alpha)) / mpmath.pi)


def _dos_mpmath_dc(alpha: float, kappa: float, mu: float) -> float:
    # Oracle: D = kappa d/dc [c D_c(kappa mu)] at c = alpha (ledger D4), with
    # c D_c = e^{-m} / (m |Gamma(c) U(c, 1, -m + i0)|^2) at m = kappa mu.
    with mpmath.workdps(30):
        m = kappa * mu
        z = mpmath.mpc(-m, mpmath.mpf(10) ** -25)

        def c_dens(c):
            return mpmath.exp(-m) / (m * abs(mpmath.gamma(c) * mpmath.hyperu(c, 1, z)) ** 2)

        return float(kappa * mpmath.diff(c_dens, alpha))


@pytest.mark.parametrize("alpha,kappa", [(1.0, 1.0), (2.0, 1.0), (2.5, 2.0), (0.5, 3.0)])
def test_idos_matches_mpmath_c_derivative(alpha, kappa):
    # Down to x = 1e-12, where the lip solve's anchor carries the singular head.
    xs = np.array([1e-12, 1e-8, 1e-6, 0.5, 3.0])
    ref = np.array([_idos_mpmath_dc(alpha, kappa, float(x)) for x in xs])
    np.testing.assert_allclose(idos_exact(chain.Gamma(alpha, kappa), xs), ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("alpha,kappa,x", [(1.5, 1.0, 0.01), (2.5, 2.0, 1.3), (0.5, 1.0, 3.0),
                                           (4.5, 1.0, 1.3), (7.5, 2.0, 3.0)])
def test_idos_non_integer_alpha_matches_mpmath(alpha, kappa, x):
    # The lip solve takes any alpha.
    assert abs(idos_exact(chain.Gamma(alpha, kappa), x) - _idos_mpmath(alpha, kappa, x)) <= 1e-6


def test_idos_non_integer_alpha_matches_empirical():
    p = chain.Gamma(1.5, 1.5)
    xs = np.array([0.3, 2.0, 4.5])
    hs = [chain.anderson_hopping(chain.ChainSpec(chain.TYPE_I, 2001, chain.Gamma(1.5, 1.5), seed=(650, s)))
          for s in range(10)]
    emp = chain.empirical_idos(hs, xs).mean(axis=0)
    assert np.max(np.abs(emp - idos_exact(p, xs))) < 0.01


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 5.0, 10.0, 20.0])
@pytest.mark.parametrize("kappa", [1.0, 3.0])
def test_whittaker_route_matches_contour_route(alpha, kappa):
    # M, D and gamma against the mpmath c-derivatives, at the points where
    # the lip solve agreed with the former contour route within 9.7e-8
    # (ledger D10).
    p = chain.Gamma(alpha, kappa)
    xs = np.array([1e-6, 1e-3, 0.05, 0.5, 1.5, 3.0, 4.5, 6.0])
    m_ref = np.array([_idos_mpmath_dc(alpha, kappa, float(x)) for x in xs])
    d_ref = np.array([_dos_mpmath_dc(alpha, kappa, float(x)) for x in xs])
    g_ref = np.array([_gamma_mpmath_dc(alpha, kappa, float(x)) for x in xs])
    assert np.max(np.abs(idos_exact(p, xs) - m_ref)) <= 1e-6
    assert np.max(np.abs(dos_exact(p, xs) / d_ref - 1.0)) <= 1e-5
    assert np.max(np.abs(lyapunov_exact(p, xs) - g_ref)) <= 1e-6


@pytest.mark.parametrize("mu", [700.0, 720.0, 800.0, 1000.0])
def test_dos_where_v_leaves_the_doubles(mu):
    # mu |V|^2 overflows from about mu = 709 at alpha = kappa = 1, where D
    # is taken in logs: it meets mpmath while it is a double (subnormal at
    # 720, 0 from about 746), and no overflow warning is raised.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dos_exact(chain.Gamma(1.0, 1.0), mu)
        assert idos_exact(chain.Gamma(1.0, 1.0), mu) == pytest.approx(1.0, abs=1e-14)
        assert specfun.whittaker_dc(1.0, mu)[0] == got
    assert got == pytest.approx(_dos_mpmath_dc(1.0, 1.0, mu), rel=1e-10, abs=1e-323)



def test_dos_past_the_doubles_near_zero_is_a_whittaker_error():
    # D ~ 1/(mu log^2 mu) leaves the doubles below about mu = 1e-305:
    # dos_exact and whittaker_dc refuse it, where they returned inf after
    # an overflow warning.  M stays finite there and warns no more.
    mus = np.array([1e-320, 1e-160, 1.0])
    with pytest.raises(specfun.WhittakerError, match="outside the doubles"):
        dos_exact(chain.Gamma(1.0, 1.0), mus)
    with pytest.raises(specfun.WhittakerError, match="outside the doubles"):
        specfun.whittaker_dc(1.0, mus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = idos_exact(chain.Gamma(1.0, 1.0), mus)
        d = dos_exact(chain.Gamma(1.0, 1.0), mus[1:])
    assert 0 < m[0] < m[1] < m[2] < 1
    assert np.all(np.isfinite(d) & (d > 0))

def test_routes_by_shape_and_range():
    # A scalar gives a float and an array an array of its shape.  Beyond
    # kappa x = 100 the one route takes non-integer alpha as well.
    p = chain.Gamma(1.5, 1.0)
    assert isinstance(idos_exact(p, 0.5), float) and isinstance(dos_exact(p, 0.5), float)
    xs = np.array([[0.5, 2.0], [1.0, 0.5]])
    assert idos_exact(p, xs).shape == dos_exact(p, xs).shape == xs.shape
    assert abs(idos_exact(chain.Gamma(4.5, 30.0), 4.0) - _idos_mpmath_dc(4.5, 30.0, 4.0)) <= 1e-10
    d_ref = [_dos_mpmath_dc(1.5, 1.0, 1.0), _dos_mpmath_dc(1.5, 1.0, 101.0)]
    np.testing.assert_allclose(dos_exact(p, np.array([1.0, 101.0])), d_ref, rtol=1e-10, atol=0)
    for bad in (0.0, -1.0, np.array([1.0, float("nan")])):
        with pytest.raises(ValueError):
            idos_exact(p, bad)
    # lyapunov_exact takes the same route at x = omega^2.
    assert isinstance(lyapunov_exact(p, 0.5), float)
    assert lyapunov_exact(p, xs).shape == xs.shape
    assert abs(lyapunov_exact(chain.Gamma(4.5, 30.0), 4.0) - _gamma_mpmath_dc(4.5, 30.0, 4.0)) <= 1e-10
    for bad in (0.0, -1.0, float("nan"), float("inf"), np.array([1.0, float("nan")])):
        with pytest.raises(ValueError):
            lyapunov_exact(p, bad)


def _gamma_mpmath_dc(alpha: float, kappa: float, omega_sq: float) -> float:
    # Oracle: gamma = -(1/2) d/dc log|Gamma(c) U(c, 1, z)| at c = alpha,
    # z = -kappa omega^2 + i0 (ledger D7), the real part beside
    # _idos_mpmath_dc's imaginary part.
    with mpmath.workdps(30):
        z = mpmath.mpc(-kappa * omega_sq, mpmath.mpf(10) ** -25)

        def scaled_u(c):
            return mpmath.gamma(c) * mpmath.hyperu(c, 1, z)

        return float(-mpmath.re(mpmath.diff(scaled_u, alpha) / scaled_u(alpha)) / 2)


@settings(max_examples=15, deadline=None)
@given(st.floats(math.log(0.05), math.log(50.0)), st.floats(0.0, 1.0))
def test_lip_solve_matches_mpmath(log_c, where):
    # Gamma(c)^2 |W|^2, M = Im Lambda / pi and gamma = Re Lambda / 2 from the
    # lip solve, at mu from 1e-6 to 8c + 200, log-uniform in both.
    c = math.exp(log_c)
    mu = math.exp(math.log(1e-6) + where * (math.log(8.0 * c + 200.0) - math.log(1e-6)))
    log_v, lam = specfun._lip_solve(c, mu)
    with mpmath.workdps(40):
        w = mpmath.whitw(0.5 - c, 0, mpmath.mpc(-mu, 1e-25 * mu))
        msq = float(abs(mpmath.gamma(c) * w) ** 2)
    assert mu * math.exp(2.0 * log_v.real) == pytest.approx(msq, rel=1e-12, abs=0)
    assert abs(lam.imag / math.pi - _idos_mpmath_dc(c, 1.0, mu)) <= 1e-12
    assert abs(0.5 * lam.real - _gamma_mpmath_dc(c, 1.0, mu)) <= 1e-12


@pytest.mark.parametrize("alpha,kappa", [(0.5, 1.0), (2.5, 2.0), (7.5, 7.5)])
def test_lyapunov_matches_mpmath_c_derivative(alpha, kappa):
    # In the band and beyond its edge at omega^2 = 4, at non-integer alpha.
    w2 = np.array([0.3, 2.0, 3.9, 6.0, 9.0])
    ref = np.array([_gamma_mpmath_dc(alpha, kappa, float(w)) for w in w2])
    np.testing.assert_allclose(lyapunov_exact(chain.Gamma(alpha, kappa), w2), ref, rtol=0, atol=1e-9)


def test_lyapunov_near_band_centre():
    # The exponent vanishes at the band centre and stays positive next to it.
    assert np.all(lyapunov_exact(chain.Gamma(3.0, 3.0), np.array([1e-300, 1e-100])) > 0)
    got = lyapunov_exact(chain.Gamma(1.0, 1.0), 1e-12)
    assert abs(got - _gamma_mpmath_dc(1.0, 1.0, 1e-12)) <= 1e-9


def test_idos_beyond_band_edge_at_alpha_twenty():
    # kappa x = 100, beyond the band edge.
    got = idos_exact(chain.Gamma(20.0, 20.0), 5.0)
    assert abs(got - _idos_mpmath_dc(20.0, 20.0, 5.0)) <= 1e-10


@pytest.mark.parametrize("alpha,x", [(50.0, 4.5), (100.0, 5.0)])
def test_idos_beyond_band_edge_at_large_alpha(alpha, x):
    # kappa x = 225 and 500, at a cost that does not grow with alpha.  At
    # (200, 6) mpmath takes 15 s and gives M = 1 to double precision.
    got = idos_exact(chain.Gamma(alpha, alpha), x)
    assert abs(got - _idos_mpmath_dc(alpha, alpha, x)) <= 1e-10


def test_dos_beyond_band_edge_at_alpha_twenty():
    # kappa mu = 140, where D is 3.6e-13.
    got = dos_exact(chain.Gamma(20.0, 20.0), 7.0)
    assert got == pytest.approx(_dos_mpmath_dc(20.0, 20.0, 7.0), rel=1e-10, abs=0)


@pytest.mark.parametrize("alpha,rate", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
                                        (math.inf, 1.0), (1.0, math.inf)])
def test_gamma_params_reject_nonpositive_and_nonfinite(alpha, rate):
    with pytest.raises(ValueError):
        chain.Gamma(alpha, rate)


@pytest.mark.parametrize("alpha,kappa", [(1.0, 1.0), (2.0, 2.0), (3.0, 1.5), (1.0, 3.0)])
def test_dyson_head_matches_contour_route(alpha, kappa):
    # Against the mpmath c-derivative, which shares nothing with the closed form.
    p = chain.Gamma(alpha, kappa)
    for x, bound in ((1e-4, 1e-3), (1e-6, 1e-5), (1e-8, 1e-7)):
        assert abs(dyson_head(p, x) / _idos_mpmath_dc(alpha, kappa, x) - 1.0) <= bound, x


def test_idos_large_alpha_half_at_band_centre():
    got = idos_exact(chain.Gamma(200.0, 200.0), 2.0)
    assert abs(got - 0.5) < 5e-3


def test_idos_dyson_singularity_scaling():
    p = chain.Gamma(1.0, 1.0)
    xs = np.array([1e-4, 1e-5, 1e-6])
    vals = dict(zip(xs, idos_exact(p, xs) * np.log(xs) ** 2))
    for a in vals.values():
        for b in vals.values():
            assert abs(a / b - 1.0) <= 0.25


def test_idos_monotone_and_bounded():
    p = chain.Gamma(1.0, 1.0)
    xs = np.geomspace(1e-3, 8.0, 25)
    vals = list(idos_exact(p, xs))
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_idos_clamp_magnitude_is_tiny():
    # Where M is essentially saturated the raw readout Im Lambda / pi may
    # stray past 1 by rounding only.
    raw = specfun._whittaker_lambda(1.0, np.array([30.0, 60.0]))[0].imag / math.pi
    assert np.max(np.abs(raw - np.clip(raw, 0.0, 1.0))) < 1e-6


def test_idos_matches_empirical_spot_check():
    p = chain.Gamma(1.0, 1.0)
    xs = np.array([0.5, 2.0, 5.0])
    acc = np.zeros(xs.size)
    n_real = 12
    for s in range(n_real):
        h = chain.anderson_hopping(chain.ChainSpec(chain.TYPE_I, 2001, chain.Gamma(1.0, 1.0), seed=500 + s))
        acc += chain.empirical_idos(h, xs)
    emp = acc / n_real
    ex = idos_exact(p, xs)
    assert np.max(np.abs(emp - ex)) < 0.01


def test_idos_matches_empirical_at_alpha_three():
    # The continuation handles every positive integer order of the pole;
    # spot-check a mid-range shape against diagonalization.
    p = chain.Gamma(3.0, 3.0)
    xs = np.array([0.3, 2.0, 4.5])
    acc = np.zeros(xs.size)
    n_real = 10
    for s in range(n_real):
        h = chain.anderson_hopping(chain.ChainSpec(chain.TYPE_I, 2001, chain.Gamma(3.0, 3.0), seed=(600, s)))
        acc += chain.empirical_idos(h, xs)
    emp = acc / n_real
    ex = idos_exact(p, xs)
    assert np.max(np.abs(emp - ex)) < 0.01


def test_dos_carries_unit_mass_up_to_singular_head():
    # The density integrates to one; below the cut the mass follows the
    # 1/(log x)^2 law of the integrated density, so the body accounts for
    # 1 - M(cut).  The body is an 80-node Gauss-Legendre rule in log mu.
    p = chain.Gamma(2.0, 2.0)
    cut = 1e-3
    nodes, weights = np.polynomial.legendre.leggauss(80)
    half = 0.5 * math.log(12.0 / cut)
    mus = cut * np.exp(half * (nodes + 1.0))
    body = half * float(np.sum(weights * mus * dos_exact(p, mus)))
    assert body + idos_exact(p, cut) == pytest.approx(1.0, abs=5e-3)


def test_dos_matches_idos_finite_difference():
    p = chain.Gamma(1.0, 1.0)
    h = 1e-4
    mus = np.array([0.8, 1.7, 2.9])
    m = idos_exact(p, np.concatenate([mus - h, mus + h]))
    fd = (m[3:] - m[:3]) / (2.0 * h)
    assert np.max(np.abs(dos_exact(p, mus) - fd)) < 1e-3


# ----------------------------------------------------------------------
# closed forms of the chain without disorder
# ----------------------------------------------------------------------


def test_pure_chain_values_at_two():
    v = pure_chain(2.0)
    assert v.xi == pytest.approx(1.0, abs=1e-15)
    assert v.omega == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
    assert v.dos == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-16)
    assert v.idos == pytest.approx(0.5, abs=1e-15)


def test_pure_chain_band_edges():
    assert pure_chain(4.0).idos == 1.0
    assert pure_chain(0.0).idos == 0.0
    assert pure_chain(5.0).dos == 0.0


def test_closed_forms_refuse_nan():
    with pytest.raises(ValueError):
        pure_chain(float("nan"))
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError):
            weak_disorder_idos(10, bad)


def test_weak_disorder_first_branch_value():
    got = weak_disorder_idos(10, 2.0)
    assert got == pytest.approx(0.5 + 1.0 / (20.0 * math.pi), abs=1e-12)
    assert got == pytest.approx(0.515915, abs=1e-6)


def test_weak_disorder_band_edge_value():
    got = weak_disorder_idos(12, 4.0)
    # 1 - Gamma(1/3)^{-2} with the module's own gamma
    assert got == pytest.approx(1.0 - (1.0 / sp.gamma(1.0 / 3.0)) ** 2, abs=1e-10)
    assert got == pytest.approx(0.86066, abs=2e-5)


def test_weak_disorder_outside_band_saturates():
    assert weak_disorder_idos(10**9, 6.0) == pytest.approx(1.0, abs=1e-12)


def test_gamma1_coefficient_values():
    # 1/(8 (1 - omega^2/4)).  docs/DECISIONS.md rejects 1/(8 (4/omega^2 - 1)),
    # which gives 0.125 and 0 here.
    assert gamma1_coefficient(2.0) == pytest.approx(0.25, abs=1e-15)
    assert gamma1_coefficient(1e-9) == pytest.approx(0.125, abs=1e-9)
    with pytest.raises(ValueError):
        gamma1_coefficient(4.0)


@pytest.mark.parametrize("w2", [0.5, 1.0, 3.0])
def test_gamma1_coefficient_matches_exact_solution(w2):
    # alpha * gamma from the continued Omega at alpha = 200.  The rejected
    # coefficient 1/(8 (4/omega^2 - 1)) is off here by 8x, 4x and 4/3x.
    gamma = lyapunov_exact(chain.Gamma(200.0, 200.0), w2)
    assert abs(200.0 * gamma / gamma1_coefficient(w2) - 1.0) < 0.03


def test_gamma1_agrees_with_lattice_form_near_edge():
    # Near the band edge the exact solution follows the lattice form
    # 1/(8 (1 - omega^2/4)) = 5 at omega^2 = 3.9 only once the edge
    # variable (2 alpha)^{2/3} (4 - omega^2) / 2 is large: it is 2.7 at
    # alpha = 200, where alpha * gamma is still 9 % low, and 4.3 at
    # alpha = 400, where the gap is 2 %.
    alpha = 400.0
    gamma = lyapunov_exact(chain.Gamma(alpha, alpha), 3.9)
    assert abs(alpha * gamma / gamma1_coefficient(3.9) - 1.0) < 0.03
