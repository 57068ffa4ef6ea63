import math
import time
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from randchain import betaens, chain, exact
from randchain import specfun as sf


# ----------------------------------------------------------------------
# band-edge scaling functions
# ----------------------------------------------------------------------


def _mp_airy(x: float) -> tuple[float, float, float, float]:
    # Oracle: Ai, Ai', Bi, Bi' from mpmath at 40 digits.
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return tuple(float(f(x, derivative=d)) for f in (mpmath.airyai, mpmath.airybi) for d in (0, 1))


def test_scaling_f_at_zero_composes_airy():
    ai, aip, bi, bip = _mp_airy(0.0)
    expect = (ai * aip + bi * bip) / (ai**2 + bi**2)
    assert sf.scaling_f(0.0) == pytest.approx(expect, rel=1e-14)


def test_scaling_f_large_x_square_root_growth():
    assert 0.95 <= sf.scaling_f(10.0) / math.sqrt(10.0) <= 1.05


def test_scaling_dual_representations_on_grid():
    for x in np.linspace(-6.0, 6.0, 61):
        assert abs(sf.scaling_f(float(x)) - sf.scaling_f_rotated(float(x))) < 1e-8
        assert abs(sf.scaling_dos(float(x)) - sf.scaling_dos_rotated(float(x))) < 1e-8


def test_scaling_dos_at_zero_composes_airy():
    ai, _, bi, _ = _mp_airy(0.0)
    assert sf.scaling_dos(0.0) == pytest.approx(1.0 / (math.pi * (ai**2 + bi**2)), rel=1e-14)


def test_scaling_functions_match_mpmath_over_range():
    # The whole documented range, in one array call per function.
    xs = np.linspace(-sf.SCALING_RANGE, sf.SCALING_RANGE, 241)
    with mpmath.workdps(40):
        f_ref, dos_ref = [], []
        for x in xs:
            x = mpmath.mpf(float(x))
            ai, aip = mpmath.airyai(x), mpmath.airyai(x, derivative=1)
            bi, bip = mpmath.airybi(x), mpmath.airybi(x, derivative=1)
            m2 = ai**2 + bi**2
            f_ref.append(float((ai * aip + bi * bip) / m2))
            dos_ref.append(float(1 / (mpmath.pi * m2)))
    np.testing.assert_allclose(sf.scaling_f(xs), f_ref, rtol=1e-11, atol=0)
    np.testing.assert_allclose(sf.scaling_dos(xs), dos_ref, rtol=1e-11, atol=0)


def test_scaling_functions_take_scalars_and_arrays():
    xs = np.array([[-6.0, 0.5], [2.0, 6.0]])
    for f in (sf.scaling_f, sf.scaling_f_rotated, sf.scaling_dos, sf.scaling_dos_rotated):
        assert isinstance(f(0.5), float)
        got = f(xs)
        assert got.shape == xs.shape
        # Equal to rounding: numpy divides complex scalars and arrays in different ways.
        np.testing.assert_allclose(got, [[f(float(x)) for x in row] for row in xs], rtol=1e-14, atol=0)


def test_scaling_dos_lifshitz_tail():
    x = 9.0
    leading = x**0.5 * math.exp(-4.0 * x**1.5 / 3.0)
    ratio = sf.scaling_dos(x) / leading
    assert 1.0 / 1.1 <= ratio <= 1.1


def test_scaling_dos_identity_at_one():
    assert abs(sf.scaling_dos(1.0) - sf.scaling_dos_rotated(1.0)) < 1e-8


@pytest.mark.parametrize("x", [7.0, 10.0, 20.0])
def test_rotated_dos_refuses_the_far_tail(x):
    # Past ROTATED_DOS_MAX = 6 the rotated route keeps only absolute accuracy
    # (relative error 1.3e-5 at x = 7 and 886 at x = 10 against mpmath).
    with pytest.raises(ValueError):
        sf.scaling_dos_rotated(x)
    with pytest.raises(ValueError):
        sf.scaling_dos_rotated(np.array([0.0, x]))
    assert sf.scaling_dos(x) > 0.0


def test_rotated_dos_relative_accuracy_up_to_its_range():
    xs = np.array([-6.0, 0.0, 3.0, sf.ROTATED_DOS_MAX])
    np.testing.assert_allclose(sf.scaling_dos_rotated(xs), sf.scaling_dos(xs), rtol=1e-6, atol=0)


def test_scaling_range_errors():
    with pytest.raises(ValueError):
        sf.scaling_f(30.5)
    with pytest.raises(ValueError):
        sf.scaling_dos(-31.0)


def test_airy_range_error():
    # Every Airy-based scaling function refuses points beyond its range and NaN,
    # for scalars and for arrays with a single bad entry.
    for fn in (sf.scaling_f, sf.scaling_dos, sf.scaling_f_rotated, sf.scaling_dos_rotated):
        with pytest.raises(ValueError):
            fn(sf.SCALING_RANGE + 0.5)
        with pytest.raises(ValueError):
            fn(float("nan"))
        with pytest.raises(ValueError):
            fn(np.array([0.0, 40.0]))


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
    d = 1.0 / (math.gamma(c) * math.gamma(c + 1.0) * sf.whittaker_msq(c, mu))
    ratio = mu * math.log(mu) ** 2 * d / c
    assert 0.75 <= ratio <= 1.25


def test_whittaker_density_unit_mass_c1():
    assert sf.whittaker_density_mass(1.0) == pytest.approx(1.0, abs=1e-3)


def test_whittaker_domain_errors():
    with pytest.raises(ValueError):
        sf.whittaker_msq(1.0, 0.0)
    with pytest.raises(ValueError):
        sf.whittaker_msq(1.0, math.inf)
    with pytest.raises(ValueError):
        sf.whittaker_msq(-1.0, 1.0)
    with pytest.raises(ValueError):
        sf.whittaker_msq(1.0, np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        sf.whittaker_dc(1.0, np.array([1.0, math.inf]))
    # A non-finite c is refused by the checks, not by a math domain error
    # in the anchor.
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="c must be positive"):
            sf.whittaker_msq(c, 1.0)
        with pytest.raises(ValueError, match="c must be positive"):
            betaens.con_density(c, 1.0)
        with pytest.raises(ValueError, match="c must be positive"):
            sf.whittaker_cdf(c, 1.0)
    # Points the large-mu series would serve alone are checked all the same.
    with pytest.raises(ValueError):
        sf.whittaker_msq(-1.0, 60.0)
    with pytest.raises(ValueError):
        sf.whittaker_msq(float("nan"), 60.0)
    with pytest.raises(ValueError):
        sf.whittaker_msq(1.0, [60.0, math.inf])
    with pytest.raises(ValueError):
        betaens.con_density(1.0, [60.0, math.inf])


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


@pytest.mark.parametrize("mu", [1e-6, 1.0, 20.0, 60.0, 100.0])
@pytest.mark.parametrize("c", [5.0, 10.0, 30.0, 60.0])
def test_whittaker_msq_large_c_against_mpmath(c, mu):
    # Through the turning point mu = 4c - 2 and well below it, where |W|^2
    # is of order 1/Gamma(c)^2: the oracle of the test above.
    with mpmath.workdps(30):
        ref = float(abs(mpmath.whitw(0.5 - c, 0, mpmath.mpc(-mu, 1e-25 * max(mu, 1.0)))) ** 2)
    assert sf.whittaker_msq(c, mu) == pytest.approx(ref, rel=1e-8, abs=0)


def _whittaker_msq_mpmath(c, mu):
    # Oracle: |W_{1/2-c,0}(-mu + i0)|^2 from mpmath at 40 digits.
    with mpmath.workdps(40):
        return float(abs(mpmath.whitw(0.5 - c, 0, mpmath.mpc(-mu, 1e-25 * mu))) ** 2)


def _series_serves(c, mu):
    return bool(sf._large_mu_sum(c, np.array([mu]))[1][0] < sf._SERIES_EPS)


def _solve_msq(c, mu):
    log_v, _ = sf._lip_solve(c, mu)
    return mu * math.exp(2.0 * log_v.real - 2.0 * math.lgamma(c))


@pytest.mark.parametrize(
    "c,mu",
    [(0.01, 25.0), (0.01, 50.0), (0.01, 100.0), (0.5, 35.0), (0.5, 60.0), (0.5, 100.0),
     (2.0, 50.0), (2.0, 75.0), (2.0, 100.0), (5.0, 65.0), (5.0, 80.0), (5.0, 100.0)],
)
def test_whittaker_msq_series_side_against_mpmath(c, mu):
    # Past the turning point the large-mu series serves, to double precision.
    assert _series_serves(c, mu)
    assert sf.whittaker_msq(c, mu) == pytest.approx(_whittaker_msq_mpmath(c, mu), rel=1e-12, abs=0)


@pytest.mark.parametrize("mu", [700.0, 720.0, 745.0, 800.0, 1000.0])
def test_con_density_past_the_double_range_of_w(mu):
    # Gamma(c)^2 |W|^2 overflows from about mu = 709 at c = 1, where the
    # density e^{-mu}-small is taken in logs: it meets mpmath while it is
    # a double (subnormal at 720 and 745, 0 from about 746), and no
    # overflow warning is raised.  |W|^2 itself leaves the doubles there.
    with mpmath.workdps(40):
        ref = float(1 / abs(mpmath.whitw(-0.5, 0, mpmath.mpc(-mu, 1e-25 * mu))) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = betaens.con_density(1.0, mu)
        assert np.array_equal(betaens.con_density(1.0, [60.0, mu]), [betaens.con_density(1.0, 60.0), got])
        if mu > 710.0:
            with pytest.raises(sf.WhittakerError, match="outside the normal doubles"):
                sf.whittaker_msq(1.0, mu)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-323)


def test_whittaker_msq_scaled_past_the_doubles_keeps_its_range():
    # At c = 100, Gamma(c)^2 |W|^2 overflows at mu = 1500 but |W|^2 (about
    # e^45) is a normal double: it comes from the log.
    with mpmath.workdps(40):
        ref = float(abs(mpmath.whitw(0.5 - 100.0, 0, mpmath.mpc(-1500.0, 1e-25 * 1500.0))) ** 2)
    assert np.isinf(sf._scaled_msq(100.0, 1500.0)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.whittaker_msq(100.0, 1500.0) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("c", [0.01, 0.5, 1.0, 2.0, 5.0, 9.0])
def test_whittaker_msq_routes_meet_where_the_series_takes_over(c):
    # Below the first series point the lip solve serves; from it on, the
    # series, and both routes agree there.
    grid = np.arange(20.0, 100.0, 0.25)
    first = next(i for i, mu in enumerate(grid) if _series_serves(c, mu))
    assert not _series_serves(c, grid[first - 1])
    for mu in grid[first - 1 : first + 4]:
        assert sf.whittaker_msq(c, mu) == pytest.approx(_solve_msq(c, mu), rel=1e-9, abs=0)


def test_whittaker_msq_refuses_values_below_the_normal_doubles():
    # |W|^2 is about 1e-520 at c = 150, mu = 1: a WhittakerError, not 0.
    with pytest.raises(sf.WhittakerError):
        sf.whittaker_msq(150.0, 1.0)
    with pytest.raises(sf.WhittakerError):
        sf.whittaker_msq(150.0, np.array([1e-3, 50.0]))


def test_whittaker_density_mass_needs_a_cut_past_the_turning_point():
    # The tail formula holds only well past mu = 4c - 2; at c = 20 the
    # default cut of 60 is refused, and a cut of 8c serves c = 5.
    with pytest.raises(ValueError):
        sf.whittaker_density_mass(20.0)
    assert sf.whittaker_density_mass(5.0, cut=40.0) == pytest.approx(1.0, abs=1e-6)


def test_whittaker_msq_array_matches_scalar_calls():
    # Unsorted, with a repeat, and two-dimensional: one lip solve serves all.
    mus = np.array([[60.0, 1e-3, 2.5], [0.7, 60.0, 95.0]])
    got = sf.whittaker_msq(1.0, mus)
    assert got.shape == mus.shape
    expected = np.array([[sf.whittaker_msq(1.0, float(m)) for m in row] for row in mus])
    np.testing.assert_allclose(got, expected, rtol=1e-8)


# Neighbouring doubles whose logs, the variable the lip solve steps in, are
# equal: 0.1 and _ULP_01, and at rate 0.1 the points 0.1 * 1 and
# 0.1 * _ULP_1.  At rate 3 the products 3 * 0.1 and 3 * _ULP_01 are equal.
_ULP_01 = float(np.nextafter(0.1, 1.0))
_ULP_1 = float(np.nextafter(1.0, 2.0))


@pytest.mark.parametrize(
    "call, points",
    [
        (lambda m: sf.whittaker_cdf(1.0, m), [0.1, _ULP_01]),
        (lambda m: np.stack(sf.whittaker_dc(1.0, m)), [0.1, _ULP_01]),
        (lambda m: sf.whittaker_msq(1.0, m), [0.1, _ULP_01, 0.5]),
        (lambda m: betaens.con_density(1.0, m), [0.1, _ULP_01, 0.5]),
        (lambda m: exact.dos_exact(chain.Gamma(1.0, 0.1), m), [1.0, _ULP_1, 3.0]),
        (lambda m: exact.idos_exact(chain.Gamma(1.0, 0.1), m), [1.0, _ULP_1]),
        (lambda m: exact.lyapunov_exact(chain.Gamma(1.0, 0.1), m), [1.0, _ULP_1]),
        (lambda m: exact.idos_exact(chain.Gamma(1.0, 3.0), m), [0.1, _ULP_01]),
    ],
    ids=["cdf", "dc", "msq", "con_density", "dos_exact", "idos_exact", "lyapunov_exact", "idos_exact_rate3"],
)
def test_points_that_share_a_log_each_get_a_value(call, points):
    # One value per point, in the input's shape.  The first two points
    # share their solved values; where a value carries its own factor mu
    # (|W|^2 and the densities) the two differ in the last bit only.
    got = call(points)
    assert got.shape[-1] == len(points)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got[..., 0], got[..., 1], rtol=1e-15, atol=0)


def test_whittaker_cdf_and_dc_take_any_shape_and_order():
    # Unsorted, repeated and two-dimensional: the values of the sorted
    # one-dimensional call, bitwise, in the input's positions.
    grid = np.array([[30.0, 1e-3, 2.5], [0.7, 30.0, 1e-3]])
    flat = np.unique(grid)
    at = np.searchsorted(flat, grid)
    np.testing.assert_array_equal(sf.whittaker_cdf(1.5, grid), sf.whittaker_cdf(1.5, flat)[at])
    for got, ref in zip(sf.whittaker_dc(1.5, grid), sf.whittaker_dc(1.5, flat)):
        np.testing.assert_array_equal(got, ref[at])


def test_whittaker_cdf_increments_match_quadrature():
    # The mass read off the lip solve's log V against adaptive quadrature
    # of the density the same code returns.
    from scipy.integrate import quad

    c = 2.0
    grid = np.array([1e-2, 0.3, 2.0, 9.0, 30.0])
    norm = 1.0 / (math.gamma(c) * math.gamma(c + 1.0))
    steps = [
        quad(lambda m: norm / sf.whittaker_msq(c, m), a, b, epsabs=1e-12, epsrel=1e-10)[0]
        for a, b in zip(grid[:-1], grid[1:])
    ]
    np.testing.assert_allclose(np.diff(sf.whittaker_cdf(c, grid)), steps, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 10.0])
def test_whittaker_cdf_matches_mpmath_phase(c):
    # Oracle: c F_c(mu) = -arg(Gamma(c) U(c, 1, -mu + i0)) / pi, since Re V
    # and Im V have Wronskian -pi.  The principal arg wraps once c F_c
    # passes 1, so the phase is unwrapped along a path on which no step
    # turns it by as much as pi/2.  Unlike the increments above, this sees
    # the mass below the grid's first point.
    mus = np.geomspace(1e-4, 20.0, 9)
    path = np.union1d(mus, np.linspace(0.25, 20.0, 80))
    with mpmath.workdps(30):
        args = [float(mpmath.arg(mpmath.gamma(c) * mpmath.hyperu(c, 1, mpmath.mpc(-m, 1e-25)))) for m in path]
    phase = np.unwrap(args)
    assert np.all(np.abs(np.diff(phase)) < 0.5 * math.pi)
    ref = -phase[np.searchsorted(path, mus)] / (c * math.pi)
    np.testing.assert_allclose(sf.whittaker_cdf(c, mus), ref, rtol=0, atol=1e-9)


def test_whittaker_density_mass_is_one_to_nine_digits():
    assert abs(sf.whittaker_density_mass(1.0, cut=30.0) - 1.0) <= 1e-9


def test_con_density_at_huge_c_is_finite():
    # The lip solve's cost does not grow with c: at c = 1e8 it takes a few
    # intervals.
    dens = betaens.con_density(1e8, 50.0)
    assert math.isfinite(dens) and dens > 0


def test_lip_solve_at_c_1e300_ends_within_a_second():
    # It returns, or raises WhittakerError after its fixed number of halvings.
    start = time.perf_counter()
    try:
        log_v, lam = sf._lip_solve(1e300, 50.0)
        assert np.isfinite(log_v) and np.isfinite(lam)
    except sf.WhittakerError:
        pass
    assert time.perf_counter() - start < 1.0


# ----------------------------------------------------------------------
# the gamma law's sampler, on the package's seeded generator
# ----------------------------------------------------------------------


def _gamma_draws(alpha: float, rate: float, seed: int, n: int) -> np.ndarray:
    return chain.Gamma(alpha, rate).sample(sf.rng_from_seed(seed), n)


def test_sample_gamma_mean_three_sigma():
    x = _gamma_draws(2.0, 1.0, seed=1, n=10**6)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - 2.0) < 3.0 * se


def test_sample_gamma_exponential_ks():
    x = np.sort(_gamma_draws(1.0, 1.0, seed=2, n=10**6))
    emp = np.arange(1, x.size + 1) / x.size
    ks = np.max(np.abs(emp - (1.0 - np.exp(-x))))
    assert ks < 0.002


def test_sample_gamma_ks_several_shapes():
    for alpha in (0.5, 1.0, 2.0):
        x = np.sort(_gamma_draws(alpha, 1.0, seed=4, n=10**6))
        emp = np.arange(1, x.size + 1) / x.size
        ks = np.max(np.abs(emp - sp.gammainc(alpha, x)))
        assert ks < 0.002, alpha


def test_sample_gamma_deterministic():
    a = _gamma_draws(1.5, 2.0, seed=42, n=1000)
    b = _gamma_draws(1.5, 2.0, seed=42, n=1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("c", [0.5, 1.5, 3.0])
def test_whittaker_dc_matches_central_difference(c):
    # The c-derivatives read off Lambda against a central difference in c
    # of the density and the mass.  Its own error is of order h^2: at h = 1e-4 it is
    # 1.5e-7 relative in the density and 1.8e-9 in the mass, at c = 0.5.
    mus = np.geomspace(1e-4, 30.0, 12)
    h = 1e-4

    def c_dens(cc):
        return cc / (math.gamma(cc) * math.gamma(cc + 1.0) * sf.whittaker_msq(cc, mus))

    def c_mass(cc):
        return cc * sf.whittaker_cdf(cc, mus)

    dens, mass = sf.whittaker_dc(c, mus)
    np.testing.assert_allclose(dens, (c_dens(c + h) - c_dens(c - h)) / (2 * h), rtol=1e-6, atol=0)
    np.testing.assert_allclose(mass, (c_mass(c + h) - c_mass(c - h)) / (2 * h), rtol=0, atol=1e-8)


def test_log_v_routes_stay_finite_at_tiny_c():
    # Only Lambda carries the kappa-derivative that overflows at tiny c;
    # the distribution function and con_density read log V alone, and warn
    # nothing on the way (the suite turns numpy warnings into errors).
    mus = np.array([1.0, 10.0])
    assert np.all(np.isfinite(sf.whittaker_cdf(1e-300, mus)))
    assert np.all(np.isfinite(betaens.con_density(1e-300, mus)))
