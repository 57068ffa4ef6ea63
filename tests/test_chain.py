import logging
import math

import numpy as np
import pytest

from randchain import chain, tridiag
from randchain.betaens import squared_spectrum
from randchain.chain import (
    ANDERSON,
    TYPE_I,
    TYPE_II,
    ChainSpec,
    Constant,
    Gamma,
    GaussianPotential,
    TwoPoint,
    anderson_hopping,
    empirical_idos,
    fixed_frequency_matrix,
    frequency_matrix,
    lambda_matrix,
    realize,
)


def test_realize_constant_type1():
    r = realize(ChainSpec(TYPE_I, 2, Constant(1.0), seed=0))
    assert np.array_equal(r.lambdas, [1.0, 1.0, 1.0])


def test_realize_type2_degenerate_two_point():
    r = realize(ChainSpec(TYPE_II, 3, TwoPoint(1.0, 2.0, 1.0), spring_k=1.0, seed=1))
    assert np.array_equal(r.masses, [1.0, 1.0, 1.0])
    assert np.array_equal(r.lambdas, np.ones(5))


def test_realize_type2_pairing_invariant():
    r = realize(ChainSpec(TYPE_II, 50, TwoPoint(1.0, 2.0, 0.3), seed=5))
    lam = r.lambdas
    assert np.array_equal(lam[1:-1:2], lam[2::2])  # equal in pairs
    assert lam[0] == r.spec.spring_k / r.masses[0]


def test_realize_gamma_mean_three_sigma():
    n = 10**4
    r = realize(ChainSpec(TYPE_I, (n + 1) // 2, Gamma(1.0, 1.0), seed=3))
    lam = r.lambdas
    se = lam.std() / math.sqrt(lam.size)
    assert abs(lam.mean() - 1.0) < 3 * se


def test_realize_deterministic():
    a = realize(ChainSpec(TYPE_I, 100, Gamma(2.0, 1.0), seed=9))
    b = realize(ChainSpec(TYPE_I, 100, Gamma(2.0, 1.0), seed=9))
    assert np.array_equal(a.lambdas, b.lambdas)


def test_lambda_matrix_single_mass():
    r = realize(ChainSpec(TYPE_I, 1, Constant(1.0)))
    m = lambda_matrix(r)
    assert m.n == 1
    assert np.array_equal(m.to_dense(), [[0.0]])


def test_lambda_matrix_two_masses_spectrum():
    r = realize(ChainSpec(TYPE_I, 2, Constant(1.0)))
    h = lambda_matrix(r).hermitian_image()
    ev = tridiag.eigenvalues(h, tol=1e-13).values
    assert ev == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-12)


def test_lambda_matrix_exactly_antisymmetric():
    r = realize(ChainSpec(TYPE_I, 20, Gamma(1.0, 1.0), seed=4))
    dense = lambda_matrix(r).to_dense()
    assert np.array_equal(dense, -dense.T)


def test_frequency_matrix_two_masses():
    r = realize(ChainSpec(TYPE_II, 2, Constant(1.0), spring_k=1.0, seed=0))
    fm = frequency_matrix(r)
    assert np.array_equal(fm.to_dense(), [[1.0, 1.0], [1.0, 1.0]])
    mu = tridiag.eigenvalues(fm, tol=1e-13).values
    assert mu == pytest.approx([0.0, 2.0], abs=1e-12)


def test_frequency_matrix_single_mass():
    r = realize(ChainSpec(TYPE_I, 1, Constant(1.0)))
    assert np.array_equal(frequency_matrix(r).to_dense(), [[0.0]])


def test_spectral_duality_small_chains():
    # nonzero eigenvalues of i Lambda squared equal nonzero spectrum of -A
    for n, seed in ((2, 0), (5, 1), (12, 2), (20, 3)):
        r = realize(ChainSpec(TYPE_I, n, Gamma(1.5, 1.5), seed=seed))
        fm = frequency_matrix(r)
        mu = tridiag.eigenvalues(fm, tol=1e-14).values
        h = lambda_matrix(r).hermitian_image()
        ev = tridiag.eigenvalues(h, tol=1e-14).values
        pairs = np.sort(ev[ev > 1e-10] ** 2)
        assert abs(mu[0]) < 1e-10  # zero mode
        assert np.max(np.abs(np.sort(mu[1:]) - pairs)) < 1e-9


def test_zero_mode_free_boundary_type2():
    for seed in range(5):
        r = realize(ChainSpec(TYPE_II, 30, TwoPoint(1.0, 2.0, 0.4), seed=seed))
        mu = tridiag.eigenvalues(frequency_matrix(r)).values
        assert abs(mu[0]) < 1e-10


def test_anderson_hopping_constant_three_sites():
    h = anderson_hopping(ChainSpec(TYPE_I, 2, Constant(1.0)))
    ev = tridiag.eigenvalues(h, tol=1e-13).values
    assert ev == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-12)


def test_anderson_hopping_spectrum_symmetric():
    h = anderson_hopping(ChainSpec(TYPE_I, 30, Gamma(1.0, 1.0), seed=7))
    ev = tridiag.eigenvalues(h).values
    assert np.max(np.abs(ev + ev[::-1])) < 1e-9


def test_anderson_hopping_keeps_zero_couplings():
    # Gamma(0.01) draws underflow to exactly 0 now and then: a zero
    # coupling splits the chain, which the counts still handle.
    spec = ChainSpec(TYPE_I, 2001, Gamma(0.01, 1.0), seed=0)
    h = anderson_hopping(spec)
    assert np.count_nonzero(h.off == 0.0) > 0
    assert np.array_equal(h.off, lambda_matrix(realize(spec)).sup)
    assert empirical_idos(h, [4.0])[0] == 1.0


def test_anderson_hopping_requires_type1():
    with pytest.raises(ValueError):
        anderson_hopping(ChainSpec(TYPE_II, 5, Constant(1.0)))


def test_pure_chain_frequencies_closed_form():
    n = 101
    r = realize(ChainSpec(TYPE_I, n, Constant(1.0)))
    mu = tridiag.eigenvalues(frequency_matrix(r), tol=1e-13).values
    expect = np.sort(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n))
    assert np.max(np.abs(mu - expect)) < 1e-10


def test_pure_chain_histogram_matches_arcsine_dos():
    # coarse check of the limiting density 1/(pi sqrt(mu(4-mu)))
    h = anderson_hopping(ChainSpec(TYPE_I, 1501, Constant(1.0)))
    edges = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
    m = empirical_idos(h, edges)
    dens = np.diff(m) / np.diff(edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    target = 1.0 / (np.pi * np.sqrt(centers * (4.0 - centers)))
    assert np.max(np.abs(dens - target) / target) < 0.02


def test_empirical_idos_matches_sorted_spectrum():
    spec = ChainSpec(TYPE_I, 201, Gamma(1.0, 1.0), seed=10)
    h = anderson_hopping(spec)
    mus = np.sort(squared_spectrum(lambda_matrix(realize(spec))).values)
    xs = np.array([0.1, 0.7, 2.0, 5.0])
    got = empirical_idos(h, xs)
    expect = np.searchsorted(mus, xs) / mus.size
    assert np.array_equal(got, expect)


def test_empirical_idos_batch_rows_match_single_calls():
    hs = [anderson_hopping(ChainSpec(TYPE_I, 151, Gamma(1.5, 1.0), seed=(4, s))) for s in range(5)]
    xs = np.array([0.0, 1e-6, 0.3, 1.0, 2.5, 7.0])
    batch = empirical_idos(hs, xs)
    assert batch.shape == (5, xs.size)
    for h, row in zip(hs, batch):
        assert np.array_equal(row, empirical_idos(h, xs))


def _idos_both_signs(hs, xs):
    # The form the mirror identity replaced: one sweep with probes at both signs.
    roots = np.sqrt(np.asarray(xs, dtype=float))
    diag, off = np.stack([h.diag for h in hs]), np.stack([h.off for h in hs])
    counts = tridiag._sturm_counts(diag, off, np.concatenate([roots, -roots]))
    upper, lower = counts[:, :roots.size], counts[:, roots.size:]
    return np.maximum((upper - lower - 1) / (2.0 * ((hs[0].n - 1) // 2)), 0.0)


@pytest.mark.parametrize("off, xs, want", [
    # Probes at eigenvalues meet exact zero pivots there, and those lanes
    # are counted again at -sqrt(x): the mirror alone would give 0 at
    # x = 1 for couplings (1, 1, 1, 1), and 0.5 at x = 0 for (1, 1).
    ((1.0, 1.0), [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]),
    ((1.0,) * 4, [0.0, 1.0, 2.0], [0.0, 0.25, 0.5]),
])
def test_empirical_idos_counts_zero_pivot_lanes_again(off, xs, want, caplog):
    h = tridiag.SymTridiag(np.zeros(len(off) + 1), np.array(off))
    caplog.set_level(logging.DEBUG, logger="randchain.chain")
    got = empirical_idos(h, xs)
    assert got.tolist() == want
    assert np.array_equal(got, _idos_both_signs([h], xs)[0])
    assert caplog.messages == ["IDOS counts: 3 lanes counted once, 2 counted again at -sqrt(x)"]


def test_empirical_idos_of_a_pure_chain_at_its_eigenvalues():
    # Couplings 1 on 11 sites: eigenvalues 2 cos(k pi / 12), so the
    # squared frequencies 0, 1, 2 and 3 are probed at (or next to) exact
    # eigenvalues, where pivots vanish; batch rows with random couplings
    # beside it still equal their single calls.
    pure = anderson_hopping(ChainSpec(TYPE_I, 6, Constant(1.0)))
    xs = np.r_[0.0, 1.0, 2.0, 3.0, np.square(2.0 * np.cos(np.arange(1, 6) * np.pi / 12))]
    _, zeros = tridiag._sturm_counts(pure.diag, pure.off, np.sqrt(xs), with_zeros=True)
    assert zeros[:2].all()
    hs = [pure] + [anderson_hopping(ChainSpec(TYPE_I, 6, Gamma(1.0, 1.0), seed=s)) for s in range(3)] + [pure]
    batch = empirical_idos(hs, xs)
    assert np.array_equal(batch, _idos_both_signs(hs, xs))
    for h, row in zip(hs, batch):
        assert np.array_equal(row, empirical_idos(h, xs))
    # A probe at an eigenvalue counts it below +sqrt(x) and not below
    # -sqrt(x), half a pair; sqrt(2) rounds above its eigenvalue and
    # sqrt(3) below.
    assert np.array_equal(batch[0, :4], [0.0, 0.3, 0.6, 0.6])


def test_empirical_idos_equals_both_signs_across_loop_shapes():
    # Few lanes (float loop), many (array loop) and a long chain (verified
    # blocks, forced small) give the IDOS of one sweep at both signs.
    hs = [anderson_hopping(ChainSpec(TYPE_I, 301, Gamma(0.5, 1.0), seed=(9, s))) for s in range(4)]
    for xs in (np.array([0.0, 1e-8, 0.5]), np.linspace(0.0, 6.0, 25)):
        assert np.array_equal(empirical_idos(hs, xs), _idos_both_signs(hs, xs))
        assert np.array_equal(empirical_idos(hs[0], xs), _idos_both_signs(hs[:1], xs)[0])
    keep = tridiag._BLOCK_SITES, tridiag._BLOCK_MIN
    try:
        tridiag._BLOCK_SITES, tridiag._BLOCK_MIN = 64, 1
        xs = np.array([0.0, 1e-4, 1.0, 4.0])
        assert np.array_equal(empirical_idos(hs[1], xs), _idos_both_signs(hs[1:2], xs)[0])
    finally:
        tridiag._BLOCK_SITES, tridiag._BLOCK_MIN = keep


def test_empirical_idos_needs_zero_diagonal():
    h = anderson_hopping(ChainSpec(TYPE_I, 11, Constant(1.0)))
    with pytest.raises(ValueError):
        empirical_idos(tridiag.SymTridiag(np.full(h.n, 0.5), h.off), [1.0])


def test_empirical_idos_batch_validation():
    hs = [anderson_hopping(ChainSpec(TYPE_I, n, Constant(1.0))) for n in (11, 12)]
    with pytest.raises(ValueError):
        empirical_idos(hs, [1.0])
    with pytest.raises(ValueError):
        empirical_idos(hs[:1], [-1.0])
    with pytest.raises(ValueError, match="at least one matrix"):
        empirical_idos([], [1.0])


def test_empirical_idos_refuses_nan_probes():
    # NaN compares false with 0, so it passed the sign check and counted 0.
    h = anderson_hopping(ChainSpec(TYPE_I, 11, Constant(1.0)))
    with pytest.raises(ValueError, match="NaN"):
        empirical_idos(h, [1.0, np.nan])


@pytest.mark.parametrize("n", [1, 2])
def test_empirical_idos_refuses_chains_without_a_frequency_pair(n):
    # Fewer than 3 sites hold no pair, whose count normalises the IDOS.
    h = tridiag.SymTridiag(np.zeros(n), np.ones(n - 1))
    with pytest.raises(ValueError, match="at least 3 sites"):
        empirical_idos(h, [1.0])
    with pytest.raises(ValueError, match="at least 3 sites"):
        empirical_idos([h, h], [1.0])


def test_frequency_matrix_fixed_boundary_type2():
    r = realize(ChainSpec(TYPE_II, 4, TwoPoint(1.0, 2.0, 0.5), seed=2))
    fm = fixed_frequency_matrix(r.masses, r.spec.spring_k)
    assert np.allclose(fm.diag, 2.0 / r.masses)
    # fixed boundaries remove the zero mode
    mu = tridiag.eigenvalues(fm).values
    assert mu[0] > 1e-3


def test_fixed_frequency_matrix_is_the_free_one_tied_to_walls():
    # The walls add K/m to the two end diagonals; the couplings keep their
    # size, with the sign of the node-counting recursion.
    r = realize(ChainSpec(TYPE_II, 7, TwoPoint(1.0, 2.0, 0.3), spring_k=1.5, seed=3))
    free, fixed = frequency_matrix(r), fixed_frequency_matrix(r.masses, 1.5)
    walls = np.zeros(7)
    walls[[0, -1]] = 1.5 / r.masses[[0, -1]]
    assert np.allclose(fixed.diag, free.diag + walls, rtol=1e-15, atol=0)
    assert np.allclose(fixed.off, -free.off, rtol=1e-15, atol=0)


def test_fixed_frequency_matrix_couples_masses_whose_product_overflows():
    # 1e300 * 1e300 leaves the doubles: that coupling is K / (sqrt(m_j) sqrt(m_j+1)),
    # with no overflow warning, and the finite products keep their bits.
    masses = np.array([1e300, 1e300, 2.0, 3.0])
    fm = fixed_frequency_matrix(masses, 1.0)
    assert fm.off[0] == -1e-300
    assert fm.off[1:].tolist() == [-1.0 / math.sqrt(2e300), -1.0 / math.sqrt(6.0)]


@pytest.mark.parametrize("kind", [TYPE_I, TYPE_II])
def test_chain_spec_refuses_a_signed_law(kind):
    # Masses and couplings are drawn from the law, so they must be positive.
    with pytest.raises(ValueError, match="positive law, not a signed potential"):
        ChainSpec(kind, 5, GaussianPotential(1.0), seed=1)


def test_law_validation():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        Gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        TwoPoint(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        GaussianPotential(0.0)
    with pytest.raises(ValueError):
        ChainSpec("typeIII", 5, Constant(1.0))


def test_chain_spec_refuses_the_lattice_kind():
    # realize would store the lattice's site potentials as lambdas, which
    # lambda_matrix and frequency_matrix read as couplings; the lattice is
    # built by lyapunov.transfer_lyapunov alone.
    with pytest.raises(ValueError):
        ChainSpec(ANDERSON, 5, GaussianPotential(0.1))


_NONFINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", _NONFINITE)
@pytest.mark.parametrize(
    "make",
    [
        lambda v: Constant(v),
        lambda v: Gamma(v, 1.0),
        lambda v: Gamma(1.0, v),
        lambda v: TwoPoint(v, 2.0, 0.5),
        lambda v: TwoPoint(1.0, v, 0.5),
        lambda v: TwoPoint(1.0, 2.0, v),
        lambda v: GaussianPotential(v),
    ],
    ids=["const", "gamma-alpha", "gamma-rate", "twopoint-m", "twopoint-M", "twopoint-p", "gauss"],
)
def test_law_rejects_nonfinite_parameters(make, bad):
    with pytest.raises(ValueError):
        make(bad)


@pytest.mark.parametrize("m, big_m, p", [(1.0, 2.0, 0.3), (3.0, 0.5, 0.0), (3.0, 0.5, 1.0), (1.5, 1.5, 0.4)])
def test_two_point_sample_is_the_where_form(m, big_m, p):
    # Indexing [big_m, m] by the picks gives np.where(pick, m, big_m)
    # bit for bit, from the same draws.
    law = TwoPoint(m, big_m, p)
    got = law.sample(np.random.default_rng(5), 1000)
    pick = np.random.default_rng(5).random(1000) < p
    want = np.where(pick, m, big_m)
    assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))
    assert law.sample(np.random.default_rng(5), 0).shape == (0,)


def test_law_mean_log_and_cdf():
    g = Gamma(2.0, 3.0)
    draws = g.sample(np.random.default_rng(0), 200000)
    assert np.log(draws).mean() == pytest.approx(g.mean_log(), abs=3e-3)
    tp = TwoPoint(1.0, 2.0, 0.25)
    assert tp.mean_log() == pytest.approx(0.75 * math.log(2.0))
    assert np.array_equal(tp.cdf([0.5, 1.0, 1.5, 2.0]), [0.0, 0.25, 0.25, 1.0])
