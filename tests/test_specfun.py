import math

import numpy as np
import pytest
import scipy.special as sp

from randchain import specfun as sf


# ----------------------------------------------------------------------
# gamma family
# ----------------------------------------------------------------------


def test_log_gamma_against_scipy():
    for z in (0.1, 1.0 / 3.0, 0.9, 1.0, 2.5, 7.7, 11.99, 12.01, 53.0, 400.0):
        assert sf.log_gamma(z) == pytest.approx(sp.gammaln(z), rel=1e-13, abs=1e-13)


def test_digamma_against_scipy():
    for z in (0.05, 0.5, 1.0, 3.3, 11.9, 12.1, 77.0):
        assert sf.digamma(z) == pytest.approx(sp.digamma(z), abs=1e-12)


def test_euler_gamma_constant():
    assert sf.euler_gamma() == pytest.approx(0.5772156649015329, abs=1e-12)


# ----------------------------------------------------------------------
# Airy functions
# ----------------------------------------------------------------------


def test_airy_at_zero_matches_series_oracle():
    # Maclaurin oracle: at x = 0 the series collapses to 3^{-2/3}/Gamma(2/3);
    # the constant is computed here from an independent gamma implementation.
    oracle = 3.0 ** (-2.0 / 3.0) / sp.gamma(2.0 / 3.0)
    assert oracle == pytest.approx(0.3550280539, abs=1e-9)
    assert sf.airy_eval(0.0).ai == pytest.approx(oracle, rel=1e-12)


def _asymptotic_ai_oracle(x: float, n_terms: int = 10) -> float:
    # Independent asymptotic-series evaluation of Ai for x >> 1.
    zeta = (2.0 / 3.0) * x**1.5
    term = 1.0
    total = 1.0
    for k in range(1, n_terms):
        term *= (6 * k - 5) * (6 * k - 1) / (72.0 * k) / zeta
        total += (-1.0) ** k * term
    return math.exp(-zeta) / (2.0 * math.sqrt(math.pi) * x**0.25) * total


def test_airy_at_five_matches_asymptotic_oracle():
    got = sf.airy_eval(5.0).ai
    assert got == pytest.approx(_asymptotic_ai_oracle(5.0), rel=1e-4)
    # The leading factor alone is only good to about a percent here.
    leading = math.exp(-(2.0 / 3.0) * 5.0**1.5) / (2.0 * math.sqrt(math.pi) * 5.0**0.25)
    assert got == pytest.approx(leading, rel=2e-2)


def test_airy_wronskian_thousand_random_points():
    rng = np.random.default_rng(7)
    target = 1.0 / math.pi
    for x in rng.uniform(-50.0, 50.0, 1000):
        w = sf.airy_eval(float(x)).wronskian()
        assert abs(w - target) / target < 1e-10


def test_airy_matches_scipy_everywhere():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(-50, 50, 300), [-7.5, -4.0, 0.0, 3.5, 7.5, 50.0, -50.0]])
    for x in xs:
        mine = sf.airy_eval(float(x))
        ai, aip, bi, bip = sp.airy(float(x))
        for got, ref in ((mine.ai, ai), (mine.ai_prime, aip), (mine.bi, bi), (mine.bi_prime, bip)):
            assert got == pytest.approx(ref, rel=2e-10, abs=1e-280)


def test_airy_range_error():
    with pytest.raises(ValueError):
        sf.airy_eval(50.5)
    with pytest.raises(ValueError):
        sf.airy_eval(float("nan"))


def test_rotated_airy_matches_scipy_complex():
    rng = np.random.default_rng(5)
    rot = np.exp(-2j * math.pi / 3.0)
    for x in np.concatenate([rng.uniform(-6, 6, 60), [4.49, 4.5, 4.51, -4.5]]):
        a, ap = sf.airy_rotated(float(x))
        ref = sp.airy(rot * float(x))
        assert a == pytest.approx(ref[0], rel=1e-10)
        assert ap == pytest.approx(ref[1], rel=1e-10)


# ----------------------------------------------------------------------
# band-edge scaling functions
# ----------------------------------------------------------------------


def test_scaling_f_at_zero_composes_airy():
    p = sf.airy_eval(0.0)
    expect = (p.ai * p.ai_prime + p.bi * p.bi_prime) / (p.ai**2 + p.bi**2)
    assert sf.scaling_f(0.0) == pytest.approx(expect, rel=1e-14)


def test_scaling_f_large_x_square_root_growth():
    assert 0.95 <= sf.scaling_f(10.0) / math.sqrt(10.0) <= 1.05


def test_scaling_dual_representations_on_grid():
    for x in np.linspace(-6.0, 6.0, 61):
        assert abs(sf.scaling_f(float(x)) - sf.scaling_f_rotated(float(x))) < 1e-8
        assert abs(sf.scaling_dos(float(x)) - sf.scaling_dos_rotated(float(x))) < 1e-8


def test_scaling_dos_at_zero_composes_airy():
    p = sf.airy_eval(0.0)
    assert sf.scaling_dos(0.0) == pytest.approx(1.0 / (math.pi * (p.ai**2 + p.bi**2)), rel=1e-14)


def test_scaling_dos_lifshitz_tail():
    x = 9.0
    leading = x**0.5 * math.exp(-4.0 * x**1.5 / 3.0)
    ratio = sf.scaling_dos(x) / leading
    assert 1.0 / 1.1 <= ratio <= 1.1


def test_scaling_dos_identity_at_one():
    assert abs(sf.scaling_dos(1.0) - sf.scaling_dos_rotated(1.0)) < 1e-8


def test_scaling_range_errors():
    with pytest.raises(ValueError):
        sf.scaling_f(30.5)
    with pytest.raises(ValueError):
        sf.scaling_dos(-31.0)


# ----------------------------------------------------------------------
# Whittaker modulus squared
# ----------------------------------------------------------------------


def test_whittaker_positive():
    for c in (0.5, 1.0, 2.0):
        for mu in (1e-4, 0.1, 1.0, 30.0):
            assert sf.whittaker_msq(c, mu) > 0.0


def test_whittaker_small_mu_law():
    # mu (log mu)^2 D within 25 percent of c at c = 1.
    c = 1.0
    mu = 1e-4
    d = 1.0 / (sf.gamma_fn(c) * sf.gamma_fn(c + 1.0) * sf.whittaker_msq(c, mu))
    ratio = mu * math.log(mu) ** 2 * d / c
    assert 0.75 <= ratio <= 1.25


def test_whittaker_density_unit_mass_c1():
    assert sf.whittaker_density_mass(1.0) == pytest.approx(1.0, abs=1e-3)


def test_whittaker_domain_errors():
    with pytest.raises(ValueError):
        sf.whittaker_msq(1.0, 0.0)
    with pytest.raises(ValueError):
        sf.whittaker_msq(1.0, 101.0)
    with pytest.raises(ValueError):
        sf.whittaker_msq(-1.0, 1.0)
    with pytest.raises(ValueError):
        sf.whittaker_msq(1.0, np.array([1.0, 101.0]))
    with pytest.raises(ValueError):
        sf.whittaker_cdf(1.0, np.array([1.0, 0.5]))


@pytest.mark.parametrize("mu", [1e-6, 1e-2, 1.0, 20.0, 40.0, 60.0, 80.0, 100.0])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_whittaker_msq_against_mpmath(c, mu):
    # Oracle: |W_{1/2-c,0}(-mu + i0)|^2 from mpmath just above the cut.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(abs(mpmath.whitw(0.5 - c, 0, mpmath.mpc(-mu, 1e-25 * max(mu, 1.0)))) ** 2)
    got = sf.whittaker_msq(c, mu)
    assert isinstance(got, float)
    assert got == pytest.approx(ref, rel=1e-7)


def test_whittaker_msq_array_matches_scalar_calls():
    # Unsorted, with a repeat, and two-dimensional: one sweep serves all.
    mus = np.array([[60.0, 1e-3, 2.5], [0.7, 60.0, 95.0]])
    got = sf.whittaker_msq(1.0, mus)
    assert got.shape == mus.shape
    expected = np.array([[sf.whittaker_msq(1.0, float(m)) for m in row] for row in mus])
    np.testing.assert_allclose(got, expected, rtol=1e-8)


def test_whittaker_cdf_increments_match_quadrature():
    # The mass the sweep carries as a fifth state against adaptive
    # quadrature of the density the same code returns.
    from scipy.integrate import quad

    c = 2.0
    grid = np.array([1e-2, 0.3, 2.0, 9.0, 30.0])
    norm = 1.0 / (sf.gamma_fn(c) * sf.gamma_fn(c + 1.0))
    steps = [
        quad(lambda m: norm / sf.whittaker_msq(c, m), a, b, epsabs=1e-12, epsrel=1e-10)[0]
        for a, b in zip(grid[:-1], grid[1:])
    ]
    np.testing.assert_allclose(np.diff(sf.whittaker_cdf(c, grid)), steps, rtol=1e-8, atol=1e-12)


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------


def test_sample_gamma_mean_three_sigma():
    x = sf.sample_gamma(2.0, 1.0, seed=1, n=10**6)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - 2.0) < 3.0 * se


def test_sample_gamma_exponential_ks():
    x = np.sort(sf.sample_gamma(1.0, 1.0, seed=2, n=10**6))
    emp = np.arange(1, x.size + 1) / x.size
    ks = np.max(np.abs(emp - (1.0 - np.exp(-x))))
    assert ks < 0.002


def test_sample_gamma_ks_several_shapes():
    for alpha in (0.5, 1.0, 2.0):
        x = np.sort(sf.sample_gamma(alpha, 1.0, seed=4, n=10**6))
        emp = np.arange(1, x.size + 1) / x.size
        ks = np.max(np.abs(emp - sp.gammainc(alpha, x)))
        assert ks < 0.002, alpha


def test_sample_gamma_deterministic():
    a = sf.sample_gamma(1.5, 2.0, seed=42, n=1000)
    b = sf.sample_gamma(1.5, 2.0, seed=42, n=1000)
    assert np.array_equal(a, b)


def test_sample_gamma_validation():
    with pytest.raises(ValueError):
        sf.sample_gamma(0.0, 1.0, 0, 10)
    with pytest.raises(ValueError):
        sf.sample_gamma(1.0, 1.0, 0, 0)
