import math

import numpy as np
import pytest

from randchain import chain, lyapunov, schmidt, tridiag
from randchain.chain import (
    ANDERSON,
    TYPE_I,
    TYPE_II,
    Constant,
    Gamma,
    GaussianPotential,
    TwoPoint,
)
from randchain.exact import GammaChainParams, lyapunov_exact
from randchain.lyapunov import (
    LyapunovEstimate,
    band_edge_collapse,
    thouless_gamma,
    transfer_lyapunov,
)
from randchain.schmidt import DensityGrid
from randchain.specfun import rng_from_seed


def test_pure_chain_rotation_zero_exponent():
    est = transfer_lyapunov(TYPE_II, Constant(1.0), 2.0, 100_000, seed=0)
    assert abs(est.gamma) < 1e-10


def test_pure_chain_hyperbolic_closed_form():
    est = transfer_lyapunov(TYPE_II, Constant(1.0), 6.0, 10**6, seed=1)
    assert abs(est.gamma - math.log(2.0 + math.sqrt(3.0))) < 1e-6


def test_gamma_nonnegative_for_disordered_chains():
    for seed, w2 in ((0, 0.5), (1, 1.0), (2, 3.0)):
        est = transfer_lyapunov(TYPE_II, TwoPoint(1.0, 2.0, 0.5), w2, 200_000, seed=seed)
        assert est.gamma >= -2.0 * est.stderr


def test_diatomic_matches_finite_chain_product_identity():
    # (1/N) log|U_{N+1}| on a single long fixed-boundary chain equals the
    # per-step exponent of the transfer product within Monte Carlo error.
    law = TwoPoint(1.0, 2.0, 0.5)
    w2 = 1.0
    n = 10**6
    rng = np.random.default_rng(7)
    masses = law.sample(rng, n)
    log_u = 0.0
    r = math.inf
    for m in masses:
        a = 2.0 - w2 * m
        r = a - (0.0 if math.isinf(r) else 1.0 / r)
        if r == 0.0:
            r = 1e-300
        log_u += math.log(abs(r))
    direct = log_u / n
    est = transfer_lyapunov(TYPE_II, law, w2, n, seed=8)
    assert abs(est.gamma - direct) < 2.5 * est.stderr + 5e-4


def test_thouless_pure_chain_zero():
    # int_0^4 log|w2 - mu| dM(mu) = 0 inside the band for the pure chain.
    from randchain.exact import pure_chain

    edges = np.linspace(0.0, 4.0, 6001)
    w = np.diff([pure_chain(float(e)).idos for e in edges])
    g = DensityGrid(0.5 * (edges[1:] + edges[:-1]), np.clip(w, 0, None), total_mass=float(np.sum(w)))
    for w2 in (0.5, 2.0, 3.0):
        got = thouless_gamma(g, w2, Constant(1.0), 1.0)
        assert abs(got) < 1e-3


def test_thouless_agrees_with_transfer_for_diatomic():
    law = TwoPoint(1.0, 2.0, 0.5)
    fms = [chain.frequency_matrix(chain.realize(chain.ChainSpec(TYPE_II, 2000, law, seed=40 + s))) for s in range(8)]
    mus = np.sort(np.concatenate([spec.values[1:] for spec in tridiag.eigenvalues_many(fms)]))
    edges = np.linspace(0.0, float(mus.max()) * 1.001, 400)
    hist, _ = np.histogram(mus, bins=edges)
    g = DensityGrid(0.5 * (edges[1:] + edges[:-1]), hist / mus.size, total_mass=1.0)
    w2 = 1.0
    th = thouless_gamma(g, w2, law, 1.0)
    est = transfer_lyapunov(TYPE_II, law, w2, 10**6, seed=9)
    assert abs(th - est.gamma) < 2.0 * est.stderr + 2e-3


def test_type2_characteristic_function_consistency():
    # The spectral route at negative squared frequency matches the
    # stationary-recursion characteristic function: the two routes to
    # Omega are tied by Omega_tilde(-1/z) = -log z + Omega(z).
    law = TwoPoint(1.0, 2.0, 0.5)
    k_spring = 1.0
    n = 4 * 10**5
    for z in (0.5, 1.0, 2.0):
        rng = np.random.default_rng(int(10 * z))
        masses = law.sample(rng, n)
        log_u = 0.0
        r = math.inf
        for m in masses:
            a = 2.0 + m / (z * k_spring)  # omega^2 = -1/z
            r = a - (0.0 if math.isinf(r) else 1.0 / r)
            log_u += math.log(abs(r))
        # (1/N) log|U| = <log(m/K)> + (1/N) sum log|w2 - mu|, so the
        # spectral average is the product rate minus the mass term.
        omega_tilde = log_u / n - law.mean_log() + math.log(k_spring)
        omega = schmidt.omega_type2_mc(law, k_spring, z, n, seed=int(100 * z))
        assert abs(omega_tilde + math.log(z) - omega) < 3e-3


def test_zero_frequency_sqrt_growth_anomaly():
    # At omega = 0 the log of the wavefunction performs a random walk:
    # sd(log|phi_n|)/sqrt(n) stabilises, while at omega = 0.5 the mean of
    # log|phi_n|/n stabilises instead.
    rng = np.random.default_rng(11)
    law = Gamma(1.0, 1.0)
    m_chains = 400
    checkpoints = (400, 1600, 6400)

    def log_phi(omega: float, n: int, seed) -> np.ndarray:
        r = np.random.default_rng(seed)
        t_prev = np.sqrt(law.sample(r, m_chains))
        u = np.ones(m_chains)
        v = np.full(m_chains, 0.5)
        acc = np.zeros(m_chains)
        out = {}
        for i in range(1, n + 1):
            t_cur = np.sqrt(law.sample(r, m_chains))
            u, v = (omega * u - t_prev * v) / t_cur, u
            t_prev = t_cur
            norm = np.sqrt(u * u + v * v)
            u /= norm
            v /= norm
            acc += np.log(norm)
            if i in checkpoints:
                out[i] = acc.copy()
        return out

    walk = log_phi(0.0, max(checkpoints), seed=12)
    sds = [walk[n].std() / math.sqrt(n) for n in checkpoints]
    assert max(sds) / min(sds) < 1.3  # sqrt(n) scaling of the spread

    loc = log_phi(0.5, max(checkpoints), seed=13)
    means = [loc[n].mean() / n for n in checkpoints]
    assert means[-1] > 0.0
    assert abs(means[-1] / means[-2] - 1.0) < 0.15  # linear growth of the mean
    # and at omega = 0 the mean drift per site vanishes comparatively
    assert abs(walk[max(checkpoints)].mean() / max(checkpoints)) < 0.2 * means[-1]


def test_band_edge_collapse_reduced_size():
    alpha = 64.0
    ss = np.array([-2.0, 0.0, 2.0, 4.0])
    energies = 2.0 + ss * (2.0 * alpha) ** (-2.0 / 3.0)
    rep = band_edge_collapse(alpha, energies, 10**6, seed=5)
    assert rep.max_rel_dev < 0.15
    assert rep.scaled_coord == pytest.approx(ss, abs=1e-12)


def test_band_edge_collapse_validation():
    with pytest.raises(ValueError):
        band_edge_collapse(4.0, [2.0], 10**4, seed=0)


def test_transfer_lyapunov_validation():
    with pytest.raises(ValueError):
        transfer_lyapunov(TYPE_II, Constant(1.0), 1.0, 100, seed=0)
    with pytest.raises(ValueError):
        LyapunovEstimate(0.0, -1.0, 10)
    with pytest.raises(ValueError):
        LyapunovEstimate(0.0, math.nan, 10)
    # a negative burn-in would count steps it never took
    with pytest.raises(ValueError):
        transfer_lyapunov(TYPE_II, Constant(1.0), 1.0, 10**4, burn_in=-5)
    # an empty or two-dimensional set of values
    for values in (np.array([]), np.ones((2, 2))):
        with pytest.raises(ValueError):
            transfer_lyapunov(ANDERSON, GaussianPotential(0.1), values, 10**4)
    # an unknown kind, a non-positive spring constant, a signed law on a
    # sprung chain
    for kind, law, spring_k in (
        ("typeIII", Constant(1.0), 1.0),
        (TYPE_II, Constant(1.0), 0.0),
        (TYPE_II, GaussianPotential(1.0), 1.0),
        (TYPE_I, GaussianPotential(1.0), 1.0),
    ):
        with pytest.raises(ValueError):
            transfer_lyapunov(kind, law, 1.0, 10**4, spring_k=spring_k)


def test_anderson_band_centre_weak_disorder():
    alpha = 64.0
    est = transfer_lyapunov(ANDERSON, GaussianPotential(1.0 / alpha), 0.0, 10**6, seed=6)
    # the band-centre anomaly keeps the ratio a few percent below one
    assert abs(est.gamma * 8.0 * alpha - 1.0) < 0.15


@pytest.mark.parametrize("w2", [1.0, 3.0])
def test_type1_gamma_chain_matches_exact_solution(w2):
    # The real part of the continued Omega gives the exponent in closed form.
    est = transfer_lyapunov(TYPE_I, Gamma(3.0, 3.0), w2, 10**6, seed=0)
    assert abs(est.gamma - lyapunov_exact(GammaChainParams(3.0, 3.0), w2)) < 4.0 * est.stderr


def test_type1_gamma_chain_exact_solution_rate():
    # A rate other than the shape enters the exponent as + log(rate) / 2.
    est = transfer_lyapunov(TYPE_I, Gamma(3.0, 1.5), 1.0, 10**6, seed=0)
    assert abs(est.gamma - lyapunov_exact(GammaChainParams(3.0, 1.5), 1.0)) < 4.0 * est.stderr


@pytest.mark.parametrize("kind, law", [(ANDERSON, GaussianPotential(0.1)), (TYPE_II, Constant(1.0))])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transfer_lyapunov_rejects_nonfinite_values(kind, law, bad):
    with pytest.raises(ValueError):
        transfer_lyapunov(kind, law, bad, 10**4)
    with pytest.raises(ValueError):
        transfer_lyapunov(kind, law, np.array([1.0, bad]), 10**4)


def test_transfer_lyapunov_nonfinite_estimate_is_an_error():
    # omega^2 m / K overflows: every step coefficient is -inf.
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError):
        transfer_lyapunov(TYPE_II, Constant(1.0), 1.0, 5000, spring_k=1e-320)


def _reference_lyapunov(kind, law, value, n_steps, seed, spring_k, n_blocks, burn_in):
    """The per-step transfer loop the chunked kernel replaced: one draw per step."""
    rng = rng_from_seed(seed)
    block_len = n_steps // n_blocks
    if kind == TYPE_I:
        t_prev = np.sqrt(law.sample(rng, n_blocks))
    u = np.ones(n_blocks)
    v = np.full(n_blocks, 0.5)
    acc = np.zeros(n_blocks)
    for i in range(block_len + burn_in):
        if kind == TYPE_II:
            u_next = (2.0 - value * law.sample(rng, n_blocks) / spring_k) * u - v
        elif kind == ANDERSON:
            u_next = (value - law.sample(rng, n_blocks)) * u - v
        else:
            t_cur = np.sqrt(law.sample(rng, n_blocks))
            u_next = (math.sqrt(value) * u - t_prev * v) / t_cur
            t_prev = t_cur
        u, v = u_next, u
        norm = np.sqrt(u * u + v * v)
        u /= norm
        v /= norm
        if i >= burn_in:
            acc += np.log(norm)
    blocks = acc / block_len
    return float(np.mean(blocks)), float(np.std(blocks, ddof=1) / math.sqrt(n_blocks))


_BIT_CASES = [
    (TYPE_II, TwoPoint(1.0, 2.0, 0.5), [0.5, 1.75, 3.0], 1.3),
    (TYPE_I, Gamma(2.0, 2.0), [0.0, 0.5, 3.0], 1.0),
    (ANDERSON, GaussianPotential(0.1), [-3.0, 0.0, 2.5], 1.0),
]


@pytest.mark.parametrize("kind, law, values, spring_k", _BIT_CASES)
@pytest.mark.parametrize("burn_in", [0, 13])
def test_array_call_equals_scalar_calls_bitwise(kind, law, values, spring_k, burn_in):
    # 1003 // 7 = 143 counted steps; with the burn-in neither 156 nor 143
    # fills the last chunk of three values, nor of one.
    n_steps, n_blocks = 1003, 7
    ests = transfer_lyapunov(kind, law, np.array(values), n_steps, seed=4,
                             spring_k=spring_k, n_blocks=n_blocks, burn_in=burn_in)
    assert len(ests) == len(values)
    for i, (value, est) in enumerate(zip(values, ests)):
        one = transfer_lyapunov(kind, law, value, n_steps, seed=(4, i),
                                spring_k=spring_k, n_blocks=n_blocks, burn_in=burn_in)
        assert (est.gamma, est.stderr, est.steps) == (one.gamma, one.stderr, one.steps)
    # a one-point array is value 0 of its seed
    (single,) = transfer_lyapunov(kind, law, np.array(values[-1:]), n_steps, seed=4,
                                  spring_k=spring_k, n_blocks=n_blocks, burn_in=burn_in)
    one = transfer_lyapunov(kind, law, values[-1], n_steps, seed=(4, 0),
                            spring_k=spring_k, n_blocks=n_blocks, burn_in=burn_in)
    assert (single.gamma, single.stderr) == (one.gamma, one.stderr)


@pytest.mark.parametrize("kind, law, values, spring_k", _BIT_CASES)
@pytest.mark.parametrize("chunk_elements", [1, 7 * 7 * 3, 256 * 7 * 3])
def test_chunked_sweep_equals_per_step_loop_bitwise(monkeypatch, kind, law, values, spring_k, chunk_elements):
    # Chunks of 1, 7 and 256 steps of three values by seven blocks: one
    # draw per step, a last chunk the steps do not fill, and one chunk.
    monkeypatch.setattr(lyapunov, "_CHUNK_ELEMENTS", chunk_elements)
    n_steps, n_blocks, burn_in = 1003, 7, 13
    ests = transfer_lyapunov(kind, law, np.array(values), n_steps, seed=6,
                             spring_k=spring_k, n_blocks=n_blocks, burn_in=burn_in)
    for i, (value, est) in enumerate(zip(values, ests)):
        ref = _reference_lyapunov(kind, law, value, n_steps, (6, i), spring_k, n_blocks, burn_in)
        assert (est.gamma, est.stderr) == ref
