import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from randchain import tridiag
from randchain.betaens import (
    BetaEnsembleSpec,
    con_cdf_grid,
    con_density,
    equal_mass_edges,
    mp_cdf,
    mp_density,
    sample_matrix,
    squared_spectrum,
)
from randchain.tridiag import AntisymTridiag, count_below_many


def test_spec_validation():
    with pytest.raises(ValueError):
        BetaEnsembleSpec(0, beta=1.0)
    with pytest.raises(ValueError):
        BetaEnsembleSpec(10)
    with pytest.raises(ValueError):
        BetaEnsembleSpec(10, beta=2.0, c=1.0)


def test_sampled_matrix_has_zero_eigenvalue():
    for s in range(5):
        m = sample_matrix(BetaEnsembleSpec(8, beta=2.0), seed=s)
        ev = tridiag.eigenvalues(m.hermitian_image()).values
        assert abs(ev[8]) < 1e-10  # middle of the 17 sorted values


def test_entry_squared_means_follow_shape_profile():
    # Entry k steps from the bottom carries gamma shape k beta/4, i.e.
    # squared mean k beta/4 (the N = 1 joint-density moment fixes this
    # parameter set).
    beta = 2.0
    n_pairs = 5
    acc = np.zeros(2 * n_pairs)
    n_draws = 30000
    for s in range(n_draws):
        m = sample_matrix(BetaEnsembleSpec(n_pairs, beta=beta), seed=(1, s))
        acc += m.sup**2
    means = acc / n_draws
    ks = np.arange(2 * n_pairs, 0, -1)
    target = ks * beta / 4.0
    se = target / math.sqrt(n_draws) * 2.0  # var of Gamma(a) is a
    assert np.all(np.abs(means - target) < 3.0 * np.sqrt(2 * target / n_draws) + 3 * se)


def test_top_block_entries_share_distribution_in_c_over_n_regime():
    # With beta ~ 1/N the top entries become i.i.d.: their shape
    # parameters agree to O(1/N).
    spec = BetaEnsembleSpec(400, c=2.0)
    beta = spec.effective_beta()
    ks = np.arange(800, 795, -1)
    shapes = ks * beta / 4.0
    assert np.max(np.abs(shapes - shapes[0])) / shapes[0] < 0.01


def test_squared_spectrum_three_by_three_closed_form():
    m = AntisymTridiag(np.array([0.7, 0.7]))
    y = squared_spectrum(m).values
    assert y == pytest.approx([2.0 * 0.7**2], abs=1e-10)


def test_squared_spectrum_batch_equals_single_calls():
    # Fixed beta and c/N samples of one size, in one batched bisection.
    for spec in (BetaEnsembleSpec(30, beta=2.0), BetaEnsembleSpec(30, c=1.0)):
        ms = [sample_matrix(spec, seed=(9, s)) for s in range(5)]
        batch = squared_spectrum(ms)
        assert len(batch) == 5
        for m, y in zip(ms, batch):
            one = squared_spectrum(m)
            assert np.array_equal(y.values.view(np.int64), one.values.view(np.int64))
            assert y.tol == one.tol
    with pytest.raises(ValueError):
        squared_spectrum([])


def test_squared_spectrum_tol_bounds_the_squares():
    # A bracket of width tol around x is one of width about 2 x tol around
    # y = x^2, so the squares' tol grows with the largest x.
    ms = [sample_matrix(BetaEnsembleSpec(100, beta=2.0), seed=(4, s)) for s in range(8)]
    for m, y in zip(ms, squared_spectrum(ms)):
        dense = np.linalg.eigvalsh(m.hermitian_image().to_dense())[-y.values.size:] ** 2
        assert np.max(np.abs(y.values - dense)) <= y.tol


def test_full_spectrum_symmetry():
    m = sample_matrix(BetaEnsembleSpec(20, beta=1.5), seed=3)
    ev = tridiag.eigenvalues(m.hermitian_image()).values
    assert np.max(np.abs(ev + ev[::-1])) < 1e-9


def test_n1_mean_matches_joint_density_quadrature():
    beta = 2.0
    num = quad(lambda y: y * y ** (3 * beta / 4 - 1) * math.exp(-y), 0, np.inf)[0]
    den = quad(lambda y: y ** (3 * beta / 4 - 1) * math.exp(-y), 0, np.inf)[0]
    target = num / den
    vals = []
    for s in range(40000):
        m = sample_matrix(BetaEnsembleSpec(1, beta=beta), seed=(2, s))
        vals.append(m.sup[0] ** 2 + m.sup[1] ** 2)
    vals = np.asarray(vals)
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - target) < 3.0 * se


def test_mp_density_values():
    assert mp_density(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert mp_density(1.0 - 1e-12) < 1e-5
    with pytest.raises(ValueError):
        mp_density(1.5)


def test_mp_density_takes_arrays():
    mus = np.array([0.01, 0.3, 0.5, 0.99])
    got = mp_density(mus)
    assert isinstance(got, np.ndarray)
    assert np.array_equal(got, [mp_density(float(m)) for m in mus])
    assert isinstance(mp_density(0.5), float)
    with pytest.raises(ValueError):
        mp_density(np.array([0.5, 1.0]))


def test_mp_density_unit_mass():
    val = quad(mp_density, 1e-12, 1.0 - 1e-12, limit=200)[0]
    assert val == pytest.approx(1.0, abs=1e-6)
    # and the closed-form CDF differentiates back to the density
    assert mp_cdf(1.0) == pytest.approx(1.0, abs=1e-12)
    h = 1e-6
    assert (mp_cdf(0.5 + h) - mp_cdf(0.5 - h)) / (2 * h) == pytest.approx(mp_density(0.5), rel=1e-6)


def test_fixed_beta_marchenko_pastur_ks():
    spec = BetaEnsembleSpec(100, beta=2.0)
    ys = squared_spectrum([sample_matrix(spec, seed=(4, s)) for s in range(30)])
    mus = np.sort(np.concatenate([y.values for y in ys]) / spec.mp_unit())
    emp = np.arange(1, mus.size + 1) / mus.size
    ks = float(np.max(np.abs(emp - mp_cdf(mus))))
    assert ks < 0.03


def test_fixed_beta_scaling_is_beta_independent():
    for beta in (1.0, 4.0):
        spec = BetaEnsembleSpec(80, beta=beta)
        ys = squared_spectrum([sample_matrix(spec, seed=(5, s)) for s in range(20)])
        mus = np.sort(np.concatenate([y.values for y in ys]) / spec.mp_unit())
        emp = np.arange(1, mus.size + 1) / mus.size
        assert float(np.max(np.abs(emp - mp_cdf(mus)))) < 0.04


def test_con_density_positive_and_small_mu_law():
    c = 1.0
    for mu in (1e-5, 1e-2, 1.0, 10.0):
        assert con_density(c, mu) > 0.0
    mu = 1e-5
    assert mu * math.log(mu) ** 2 * con_density(c, mu) == pytest.approx(c, rel=0.25)


def test_whittaker_law_crosses_over_to_marchenko_pastur():
    # At beta = 2c/N the fixed-beta unit 2 N beta is 4c, so for large c the
    # Whittaker law in mu = 4c m tends to the Marchenko-Pastur law in m;
    # at m = 0.05 the relative gap is -2.5e-2, -6.5e-3 and -1.6e-3 at
    # c = 10, 40 and 160.
    m = 0.05
    gaps = [abs(4.0 * c * con_density(c, 4.0 * c * m) / mp_density(m) - 1.0) for c in (10.0, 40.0, 160.0)]
    assert gaps[0] < 3e-2 and gaps[1] < 1e-2 and gaps[2] < 2.5e-3
    assert gaps[0] > gaps[1] > gaps[2]


def test_c_over_n_squared_spectrum_matches_whittaker_law():
    c = 1.0
    spec = BetaEnsembleSpec(150, c=c)
    grid = np.geomspace(1e-10, 80.0, 160)
    cdf = con_cdf_grid(c, grid)
    probes = np.concatenate([np.sqrt(grid), -np.sqrt(grid)])
    acc = np.zeros(grid.size)
    n_samples = 60
    for s in range(n_samples):
        h = sample_matrix(spec, seed=(6, s)).hermitian_image()
        counts = count_below_many(h, probes)
        acc += (counts[: grid.size] - counts[grid.size :] - 1) / (2.0 * spec.n_pairs)
    emp = acc / n_samples
    edges = equal_mass_edges(cdf, grid, 50)
    emp_at_edges = np.interp(edges, grid, emp)
    tgt_at_edges = np.interp(edges, grid, cdf)
    ks = float(np.max(np.abs(emp_at_edges - tgt_at_edges)))
    assert ks < 0.05


def test_c_over_n_head_mass_scales_with_c():
    # Cheap cross-check of the beta = 2c/N calibration away from c = 1:
    # the fraction of squared eigenvalues below mu0 follows the closed
    # small-argument form of the limiting law, whose amplitude carries
    # the 1/c factor.
    mu0 = 1e-6
    root = math.sqrt(mu0)
    for c in (0.5, 2.0):
        spec = BetaEnsembleSpec(150, c=c)
        total = 0.0
        n_samples = 60
        for s in range(n_samples):
            h = sample_matrix(spec, seed=(22, s)).hermitian_image()
            cnt = count_below_many(h, np.array([root, -root]))
            total += (cnt[0] - cnt[1] - 1) / (2.0 * spec.n_pairs)
        emp = total / n_samples
        const = float(mpmath.digamma(c) + 2 * mpmath.euler)
        head = (1.0 / (c * math.pi)) * (math.atan((math.log(mu0) + const) / math.pi) + math.pi / 2.0)
        assert emp == pytest.approx(head, rel=0.2), c


def test_log_exponent_gap_between_chain_and_ensemble():
    # Small-mu laws: the chain density falls like 1/(mu log^3 mu), the
    # ensemble like 1/(mu log^2 mu); the fitted log-log-log slopes must
    # differ by one within desk-scale accuracy.
    from randchain.chain import Gamma
    from randchain.exact import dos_exact

    p = Gamma(1.0, 1.0)
    mus = np.geomspace(1e-8, 1e-4, 7)
    chain_dens = dos_exact(p, mus)
    ens_dens = np.array([con_density(1.0, float(m)) for m in mus])
    ll = np.log(np.abs(np.log(mus)))

    def slope(d):
        y = np.log(d * mus)
        a = np.polyfit(ll, y, 1)[0]
        return -a

    gap = slope(chain_dens) - slope(ens_dens)
    assert gap == pytest.approx(1.0, abs=0.3)


def test_con_cdf_grid_head_beyond_small_arguments():
    # A grid that starts well above the small-argument range gets the same
    # distribution function as one that starts deep inside it.
    coarse = con_cdf_grid(1.0, np.array([0.1, 0.5, 1.0]))
    fine = con_cdf_grid(1.0, np.array([1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0]))
    assert np.max(np.abs(coarse - fine[3:])) < 1e-5
