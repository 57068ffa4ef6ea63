import contextlib
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from randchain import chain, schmidt, tridiag
from randchain.chain import Constant, Gamma, TwoPoint
from randchain.specfun import rng_from_seed
from randchain.schmidt import (
    AntisymRatio,
    DensityGrid,
    GridError,
    RatioTypeII,
    XiTypeI,
    density_iteration,
    idos_node_fraction,
    letac_check,
    mc_stationary,
    node_count,
    omega_mc,
    omega_type2_mc,
    sample_kummer,
)


def _block_se(values: np.ndarray, n_blocks: int = 50) -> float:
    chunks = np.array_split(values, n_blocks)
    means = np.array([c.mean() for c in chunks])
    return float(means.std(ddof=1) / math.sqrt(n_blocks))


# ----------------------------------------------------------------------
# stationary sampling
# ----------------------------------------------------------------------


def test_xi_constant_law_hits_fixed_point():
    # x = 2 with lambda = 1: fixed point of xi = 2/(1+xi) is 1.
    s = mc_stationary(XiTypeI(2.0), Constant(1.0), 100, seed=0)
    assert np.max(np.abs(s - 1.0)) < 1e-12


def test_xi_gamma_mean_matches_quadrature():
    alpha, kappa, x = 1.0, 1.0, 1.0
    norm = quad(lambda t: (1 + t) ** -alpha * t ** (alpha - 1) * np.exp(-kappa * t / x), 0, np.inf)[0]
    mean = quad(lambda t: t * (1 + t) ** -alpha * t ** (alpha - 1) * np.exp(-kappa * t / x), 0, np.inf)[0] / norm
    s = mc_stationary(XiTypeI(x), Gamma(alpha, kappa), 10**6, seed=1)
    assert abs(s.mean() - mean) < 3.0 * _block_se(s)


def test_xi_small_x_collapses_to_zero():
    s = mc_stationary(XiTypeI(1e-9), Gamma(1.0, 1.0), 2000, seed=2)
    assert np.max(s) < 1e-6


def test_mc_stationary_deterministic():
    a = mc_stationary(XiTypeI(1.0), Gamma(1.0, 1.0), 500, seed=4)
    b = mc_stationary(XiTypeI(1.0), Gamma(1.0, 1.0), 500, seed=4)
    assert np.array_equal(a, b)


def test_antisym_ratio_constant_law_stable_root():
    lam, y = 0.5, 3.0
    s = mc_stationary(AntisymRatio(y), Constant(lam), 50, seed=3)
    root = 0.5 * (-1.0 + math.sqrt(1.0 - 4.0 * lam / y**2))
    assert s[-1] == pytest.approx(root, abs=1e-12)


def test_mc_stationary_validation():
    with pytest.raises(ValueError):
        mc_stationary(XiTypeI(1.0), Gamma(1.0, 1.0), 0)
    with pytest.raises(TypeError):
        mc_stationary(object(), Gamma(1.0, 1.0), 10)


def _mc_reference(kind, law, n_samples, burn_in, seed):
    # The per-step loop on numpy scalars that mc_stationary replaced.
    draws = law.sample(rng_from_seed(seed), n_samples + burn_in)
    out = np.empty(draws.size)
    v = kind.x if isinstance(kind, XiTypeI) else (1.0 if isinstance(kind, RatioTypeII) else 0.0)
    for i in range(draws.size):
        if isinstance(kind, XiTypeI):
            v = math.inf if 1.0 + v == 0.0 else kind.x * draws[i] / (1.0 + v)
        elif isinstance(kind, RatioTypeII):
            a = 2.0 - kind.omega_sq * draws[i] / kind.spring_k
            v = a - 1.0 / v if v != 0.0 and not math.isinf(v) else a
        else:
            v = math.inf if 1.0 + v == 0.0 else -(draws[i] / (kind.y * kind.y)) / (1.0 + v)
        out[i] = v
    return out[burn_in:]


@pytest.mark.parametrize("kind, law", [
    (XiTypeI(1.0), Gamma(1.0, 1.0)),
    (XiTypeI(0.3), Gamma(2.5, 2.0)),
    (XiTypeI(2.0), Constant(1.0)),
    (RatioTypeII(1.3, 1.0), TwoPoint(1.0, 2.0, 0.3)),
    (RatioTypeII(0.7, 1.7), Gamma(1.0, 1.0)),
    (AntisymRatio(3.0), Gamma(1.0, 1.0)),
    (AntisymRatio(0.5), Constant(1.0)),
])
def test_mc_stationary_equals_numpy_scalar_loop_bitwise(kind, law):
    got = mc_stationary(kind, law, 5000, burn_in=200, seed=17)
    assert np.array_equal(got, _mc_reference(kind, law, 5000, 200, 17), equal_nan=True)


def _eta_reference(law, spring_k, x, n, burn_in, rng):
    # The eta loop on numpy scalars that _eta_samples replaced.
    lam = spring_k / law.sample(rng, n + burn_in)
    out = np.empty(lam.size)
    eta = 1.0
    for i in range(lam.size):
        xl = x * lam[i]
        denom = xl * (1.0 + eta)
        if denom == 0.0:
            eta = math.inf
        else:
            eta = (eta * (1.0 + xl) + 1.0) / denom if not math.isinf(eta) else (1.0 + xl) / xl
        out[i] = eta
    return out[burn_in:]


def _omega_type2_reference(law, spring_k, x, n, seed, burn_in):
    # omega_type2_mc's average over the reference eta samples.
    rng = rng_from_seed(seed)
    base = 1.0 + 1.0 / _eta_reference(law, spring_k, x, n, burn_in, rng)
    if isinstance(law, TwoPoint):
        return float(np.mean(law.p * np.log(base + x * spring_k / law.m)
                             + (1.0 - law.p) * np.log(base + x * spring_k / law.big_m)))
    if isinstance(law, Constant):
        return float(np.mean(np.log(base + x * spring_k / law.v)))
    return float(np.mean(np.log(base + x * spring_k / law.sample(rng, base.size))))


@pytest.mark.parametrize("law, spring_k, x", [
    (TwoPoint(1.0, 2.0, 0.3), 1.0, 1.0),
    (Gamma(1.0, 1.0), 1.0, 0.7),
    (Constant(1.5), 2.0, 3.0),
    (Constant(1.0), 1e-320, 1e-10),  # x K/m underflows to 0 at every step
])
def test_omega_type2_equals_numpy_scalar_loop_bitwise(law, spring_k, x):
    got = schmidt._eta_samples(law, spring_k, x, 5000, 100, rng_from_seed(23))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _eta_reference(law, spring_k, x, 5000, 100, rng_from_seed(23))
        want_omega = _omega_type2_reference(law, spring_k, x, 5000, 23, 100)
    assert np.array_equal(got, want, equal_nan=True)
    got_omega = omega_type2_mc(law, spring_k, x, 5000, seed=23, burn_in=100)
    assert got_omega == want_omega or (math.isnan(got_omega) and math.isnan(want_omega))


# ----------------------------------------------------------------------
# verified blocks of the stationary paths (ledger D11)
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _blocks(steps: int, rows: int, least: int = 1):
    """Short verified blocks: steps per block, rows per buffer of sweep 2, from least blocks on."""
    keep = schmidt._BLOCK_STEPS, schmidt._BLOCK_ROWS, schmidt._BLOCK_MIN
    schmidt._BLOCK_STEPS, schmidt._BLOCK_ROWS, schmidt._BLOCK_MIN = steps, rows, least
    try:
        yield
    finally:
        schmidt._BLOCK_STEPS, schmidt._BLOCK_ROWS, schmidt._BLOCK_MIN = keep


_BLOCK_LAWS = [Gamma(1.0, 1.0), Gamma(0.2, 1.0), Gamma(5.0, 5.0), TwoPoint(1.0, 2.0, 0.3)]


@st.composite
def _block_runs(draw):
    """A block length, buffer rows, path length from 1 step to several blocks plus a remainder, and burn-in."""
    steps = draw(st.integers(1, 48))
    rows = draw(st.sampled_from([1, 3, 32]))
    total = draw(st.integers(1, 6 * steps + steps - 1))
    burn_in = draw(st.integers(0, total - 1))
    return steps, rows, total - burn_in, burn_in


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["xi", "z", "s"]),
    law=st.sampled_from(_BLOCK_LAWS),
    x=st.floats(0.01, 100.0),
    run=_block_runs(),
    seed=st.integers(0, 2**16),
)
@example(kind="xi", law=Gamma(5.0, 5.0), x=100.0, run=(40, 3, 300, 7), seed=1)  # blocks shorter than coalescence
@example(kind="xi", law=Gamma(1.0, 1.0), x=1.0, run=(48, 32, 330, 0), seed=2)  # every block verifies
def test_blocked_paths_equal_the_loop_bitwise(kind, law, x, run, seed):
    steps, rows, n_samples, burn_in = run
    k = {"xi": XiTypeI(x), "z": RatioTypeII(x, 1.7), "s": AntisymRatio(math.sqrt(x))}[kind]
    with _blocks(steps, rows), np.errstate(all="ignore"):
        got = mc_stationary(k, law, n_samples, burn_in=burn_in, seed=seed)
        want = _mc_reference(k, law, n_samples, burn_in, seed)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(law=st.sampled_from(_BLOCK_LAWS), x=st.floats(0.01, 100.0), run=_block_runs(), seed=st.integers(0, 2**16))
def test_blocked_eta_paths_equal_the_loop_bitwise(law, x, run, seed):
    steps, rows, n, burn_in = run
    with _blocks(steps, rows):
        got = schmidt._eta_samples(law, 1.3, x, n, burn_in, rng_from_seed(seed))
    want = _eta_reference(law, 1.3, x, n, burn_in, rng_from_seed(seed))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _path_log(caplog, name):
    """The last path summary logged for the named variable."""
    return [m for m in caplog.messages if m.startswith(f"{name} path:")][-1]


def test_blocks_verify_and_log_what_ran(caplog):
    # x = 1 coalesces within about 40 steps (ledger D11): every block of 64
    # holds the loop's values from sweep 2.
    caplog.set_level(logging.DEBUG, logger="randchain.schmidt")
    with _blocks(64, 32):
        got = mc_stationary(XiTypeI(1.0), Gamma(1.0, 1.0), 640, burn_in=5, seed=3)
    assert np.array_equal(got, _mc_reference(XiTypeI(1.0), Gamma(1.0, 1.0), 640, 5, 3))
    assert _path_log(caplog, "xi") == "xi path: 645 steps, 10 lanes of 64-step blocks, 0 re-run, loop fallback False"


def test_blocks_that_never_coalesce_re_run_bitwise(caplog):
    # The pure chain in band: z' = a - 1/z with |a| < 2 is a rotation, so
    # two starts do not meet, and blocks re-run (all but those where the
    # float orbit happens to repeat the guess's).
    caplog.set_level(logging.DEBUG, logger="randchain.schmidt")
    kind = RatioTypeII(0.5, 1.0)
    with _blocks(50, 3):
        got = mc_stationary(kind, Constant(1.0), 480, burn_in=20, seed=0)
    assert np.array_equal(got.view(np.int64), _mc_reference(kind, Constant(1.0), 480, 20, 0).view(np.int64))
    logged = re.fullmatch(r"z path: 500 steps, 10 lanes of 50-step blocks, (\d+) re-run, loop fallback False",
                          _path_log(caplog, "z"))
    assert logged and int(logged.group(1)) >= 5
    # At omega^2 = 1 the path hits z = 0 every other step: the sweeps raise
    # on 1/0 and the whole path goes to the loop.
    kind = RatioTypeII(1.0, 1.0)
    with _blocks(50, 3), np.errstate(divide="ignore"):
        got = mc_stationary(kind, Constant(1.0), 480, burn_in=20, seed=0)
        want = _mc_reference(kind, Constant(1.0), 480, 20, 0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert _path_log(caplog, "z").endswith("loop fallback True")


def test_z_path_through_a_coefficient_of_one_runs_as_blocks(caplog):
    # twopoint:1:2:0.3 masses at omega^2 = 0.5 give a = 1 exactly on 70 %
    # of the steps, which maps z = 1 to the pole 0.  Sweep 1 starts its
    # blocks from schmidt._GUESS, which no such step sends there, so the
    # path runs as blocks (most re-run: z meets late near the band edge,
    # ledger D11) instead of falling back to the loop whole.
    caplog.set_level(logging.DEBUG, logger="randchain.schmidt")
    kind, law = RatioTypeII(0.5, 1.0), TwoPoint(1.0, 2.0, 0.3)
    got = mc_stationary(kind, law, 100000, seed=3)
    assert np.array_equal(got.view(np.int64), _mc_reference(kind, law, 100000, 1000, 3).view(np.int64))
    assert re.fullmatch(r"z path: 101000 steps, 98 lanes of 1024-step blocks, \d+ re-run, loop fallback False",
                        _path_log(caplog, "z"))
    assert not any("singular" in m for m in caplog.messages)


def test_singular_eta_steps_go_through_the_loop(caplog):
    # x K/m underflows to 0, so the first step divides by zero: the loop
    # alone handles it, and counts it.
    caplog.set_level(logging.DEBUG, logger="randchain.schmidt")
    with _blocks(16, 3):
        got = schmidt._eta_samples(Constant(1.0), 1e-320, 1e-10, 500, 100, rng_from_seed(23))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _eta_reference(Constant(1.0), 1e-320, 1e-10, 500, 100, rng_from_seed(23))
    assert np.array_equal(got, want, equal_nan=True)
    assert _path_log(caplog, "eta").endswith("loop fallback True")
    assert "eta path handled 1 singular steps" in caplog.messages


def test_block_constants_keep_the_loop_below_the_break_even():
    # Paths shorter than _BLOCK_MIN blocks run the loop (ledger D11).
    assert schmidt._BLOCK_STEPS * schmidt._BLOCK_MIN > 5000 + 200


def test_recursion_parameter_validation():
    with pytest.raises(ValueError):
        RatioTypeII(1.0, 0.0)
    with pytest.raises(ValueError):
        AntisymRatio(0.0)
    with pytest.raises(ValueError):
        AntisymRatio(1e-200)  # y**2 underflows to 0
    with pytest.raises(ValueError):
        omega_type2_mc(Constant(1.0), 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        omega_type2_mc(Constant(1.0), 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        omega_type2_mc(Constant(1.0), 1.0, float("nan"), 10)


@pytest.mark.parametrize("call", [
    lambda law: mc_stationary(XiTypeI(1.0), law, 2000),
    lambda law: omega_mc(XiTypeI(1.0), law, 2000),
    lambda law: omega_type2_mc(law, 1.0, 1.0, 2000),
    lambda law: idos_node_fraction(law, 1.0, [0.5, 1.0], 2000),
    lambda law: density_iteration(XiTypeI(1.0), law, DensityGrid.geometric(1e-3, 10.0, 20), 3),
    lambda law: density_iteration(RatioTypeII(1.0), law, DensityGrid.uniform(-5.0, 5.0, 20), 3),
], ids=["mc_stationary", "omega_mc", "omega_type2_mc", "idos_node_fraction", "density_xi", "density_ratio2"])
def test_signed_law_is_refused_before_any_draw(call):
    # Masses and couplings are drawn from the law, so a signed potential is
    # refused: omega_mc and omega_type2_mc returned NaN after numpy
    # warnings, and idos_node_fraction warned before an unrelated refusal.
    with pytest.raises(ValueError, match="sprung chains need a positive law, not a signed potential"):
        call(chain.GaussianPotential(1.0))


# ----------------------------------------------------------------------
# characteristic functions
# ----------------------------------------------------------------------


def test_omega_mc_pure_value():
    got = omega_mc(XiTypeI(2.0), Constant(1.0), 50_000, seed=0)
    assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_omega_mc_vanishes_at_zero():
    got = omega_mc(XiTypeI(1e-10), Gamma(1.0, 1.0), 10_000, seed=1)
    assert abs(got) < 1e-8


def test_omega_mc_matches_exact_route():
    from randchain.exact import omega_exact

    x = 1.0
    xi = mc_stationary(XiTypeI(x), Gamma(1.0, 1.0), 10**6, seed=5)
    got = 2.0 * np.log1p(xi).mean()
    se = 2.0 * _block_se(np.log1p(xi))
    assert abs(got - omega_exact(Gamma(1.0, 1.0), x)) < 3.0 * se


def test_omega_type2_degenerate_masses_reduce_to_monatomic():
    got = omega_type2_mc(TwoPoint(1.0, 1.0, 0.37), 1.0, 2.0, 50_000, seed=2)
    assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-10)


def test_omega_type2_pure_value():
    got = omega_type2_mc(TwoPoint(1.0, 2.0, 1.0), 1.0, 2.0, 50_000, seed=3)
    assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-10)


def test_omega_type2_matches_diagonalization_oracle():
    # Average of log(1 + x mu) over the squared frequencies of realized
    # diatomic chains, the spectral-average route to the same quantity.
    law = TwoPoint(1.0, 2.0, 0.5)
    x = 1.0
    fms = [chain.frequency_matrix(chain.realize(chain.ChainSpec(chain.TYPE_II, 1000, law, seed=100 + s)))
           for s in range(60)]
    vals = [np.log1p(x * spec.values[1:]).mean() for spec in tridiag.eigenvalues_many(fms)]
    oracle = float(np.mean(vals))
    oracle_se = float(np.std(vals) / math.sqrt(len(vals)))
    got = omega_type2_mc(law, 1.0, x, 4 * 10**5, seed=4)
    assert abs(got - oracle) < 4.0 * max(oracle_se, 1.5e-3)


# ----------------------------------------------------------------------
# node counting
# ----------------------------------------------------------------------


def test_node_fraction_zero_frequency():
    assert idos_node_fraction(TwoPoint(1.0, 2.0, 0.3), 1.0, 0.0, 1000, seed=0) == 0.0


def test_node_fraction_needs_a_chain():
    with pytest.raises(ValueError):
        idos_node_fraction(TwoPoint(1.0, 2.0, 0.3), 1.0, 1.0, 0, seed=0)


@pytest.mark.parametrize("spring_k", [0.0, -1.0, math.nan])
def test_node_fraction_needs_a_positive_spring(spring_k):
    # A spring constant that is not positive counted every mass at every
    # probe: M = 1 with no error.
    with pytest.raises(ValueError, match="spring_k must be positive"):
        idos_node_fraction(Constant(1.0), spring_k, [0.5, 1.0], 100)


def test_node_fraction_of_masses_past_the_doubles_is_refused_without_warnings():
    # K/m overflows at m = 1e-320: SymTridiag's refusal is the one report,
    # with no numpy warning before it (the suite turns warnings into errors).
    with pytest.raises(ValueError, match="finite"):
        idos_node_fraction(Constant(1e-320), 1.0, [0.1, 2.0], 100)


def test_node_fraction_pure_half_at_two():
    got = idos_node_fraction(Constant(1.0), 1.0, 2.0, 10**5, seed=1)
    assert abs(got - 0.5) < 1e-3


def _ratio_node_count(masses, spring_k, omega_sq):
    """Reference: negative displacement ratios r = a - 1/r from U_0 = 0, U_1 = 1."""
    count, r = 0, math.inf
    for m in masses.tolist():
        r = (2.0 - omega_sq * m / spring_k) - (0.0 if math.isinf(r) else 1.0 / r)
        r = r or 1e-300
        count += r < 0.0
    return count


def test_node_count_equals_sturm_count_exactly():
    rng = np.random.default_rng(6)
    for trial in range(20):
        masses = np.where(rng.random(800) < 0.3, 1.0, 2.0)
        w2 = float(rng.uniform(0.05, 4.5))
        nc = node_count(masses, 1.0, w2)
        t = tridiag.SymTridiag(2.0 / masses, -1.0 / np.sqrt(masses[:-1] * masses[1:]))
        assert nc == tridiag.count_below(t, w2)
        assert nc == _ratio_node_count(masses, 1.0, w2)


def test_node_fraction_monotone_in_omega_sq():
    law = TwoPoint(1.0, 2.0, 0.3)
    grid = np.linspace(0.1, 4.5, 20)
    vals = [idos_node_fraction(law, 1.0, float(w2), 40_000, seed=9) for w2 in grid]
    slack = 2.0 * math.sqrt(0.25 / 40_000)
    assert all(b >= a - slack for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# density iteration
# ----------------------------------------------------------------------


def _gamma_stationary_grid(alpha: float, kappa: float, x: float, lo=1e-7, hi=80.0, n=900) -> DensityGrid:
    base = DensityGrid.geometric(lo, hi, n)
    edges = base.edges()

    def cdf(e: float) -> float:
        if e <= 0:
            return 0.0
        val, _ = quad(
            lambda t: t ** (alpha - 1.0) * (1.0 + t) ** (-alpha) * math.exp(-kappa * t / x),
            0.0,
            e,
            limit=200,
        )
        return val

    w = np.clip(np.diff([cdf(float(e)) for e in edges]), 0.0, None)
    return DensityGrid(base.points, w, total_mass=float(w.sum()))


def test_gamma_density_is_fixed_point():
    g = _gamma_stationary_grid(1.0, 1.0, 1.0)
    total = g.total_mass
    _, residuals = density_iteration(XiTypeI(1.0), Gamma(1.0, 1.0), g, 1)
    assert residuals[0] / total < 1e-4


def test_constant_law_mass_concentrates():
    g0 = DensityGrid.geometric(1e-3, 10.0, 400)
    out, residuals = density_iteration(XiTypeI(2.0), Constant(1.0), g0, 40)
    mean_pt = float(np.sum(out.points * out.weights) / out.total_mass)
    assert abs(mean_pt - 1.0) < 0.02
    assert residuals[-1] < 1e-12


def test_ratio_map_single_branch_stationary():
    # Out-of-band frequency: the single-branch map is hyperbolic and the
    # grid iteration settles onto the attracting atom.
    gz = DensityGrid.uniform(-40.0, 40.0, 1601)
    out, residuals = density_iteration(RatioTypeII(5.0, 1.0), TwoPoint(1.0, 2.0, 1.0), gz, 120)
    assert residuals[-1] < 1e-6
    z_star = 0.5 * (-3.0 - math.sqrt(5.0))
    mean = float(np.sum(out.points * out.weights))
    assert abs(mean - z_star) < 0.05


def test_ratio_map_constant_law_equals_sure_two_point_law_bitwise():
    # TwoPoint(1, 2, 1) skips its p = 0 branch, so both laws do the same
    # arithmetic on the one branch of mass 1.
    gz = DensityGrid.uniform(-40.0, 40.0, 401)
    got, res = density_iteration(RatioTypeII(5.0, 1.0), Constant(1.0), gz, 30)
    ref, ref_res = density_iteration(RatioTypeII(5.0, 1.0), TwoPoint(1.0, 2.0, 1.0), gz, 30)
    assert np.array_equal(got.weights, ref.weights) and res == ref_res


def test_ratio_map_two_point_negative_mass_matches_node_fraction():
    gz = DensityGrid.uniform(-40.0, 40.0, 1601)
    out, residuals = density_iteration(RatioTypeII(1.0, 1.0), TwoPoint(1.0, 2.0, 0.5), gz, 300)
    assert residuals[-1] < 1e-6
    neg = float(np.sum(out.weights[out.points < 0.0])) / out.total_mass
    mc = idos_node_fraction(TwoPoint(1.0, 2.0, 0.5), 1.0, 1.0, 4 * 10**5, seed=9)
    assert abs(neg - mc) < 5e-3


def _step_xi_reference(grid, law, x):
    # The per-step type I map that density_iteration's kernel replaced.
    cdf_at_edges = law.cdf(grid.edges()[:, None] * ((1.0 + grid.points)[None, :] / x))
    new_w = (np.diff(cdf_at_edges, axis=0) * grid.weights[None, :]).sum(axis=1)
    return new_w, grid.total_mass - float(np.sum(new_w))


@pytest.mark.parametrize("kind, law, start", [
    (XiTypeI(1.0), Gamma(1.0, 1.0), DensityGrid.geometric(1e-6, 80.0, 200)),
    (XiTypeI(0.5), Gamma(2.5, 1.0), DensityGrid.geometric(1e-6, 80.0, 150)),
    (XiTypeI(2.0), Constant(1.0), DensityGrid.geometric(1e-3, 10.0, 120)),
    (RatioTypeII(5.0, 1.0), TwoPoint(1.0, 2.0, 1.0), DensityGrid.uniform(-40.0, 40.0, 401)),
])
def test_density_iteration_equals_chained_single_steps_bitwise(kind, law, start):
    k = 6
    many, residuals = density_iteration(kind, law, start, k)
    g, chained = start, []
    for _ in range(k):
        g, res = density_iteration(kind, law, g, 1)
        chained += res
    assert np.array_equal(many.weights, g.weights) and many.total_mass == g.total_mass
    assert residuals == chained
    if isinstance(kind, XiTypeI):
        g = start
        for _ in range(k):
            new_w, _ = _step_xi_reference(g, law, kind.x)
            g = DensityGrid(g.points, new_w, total_mass=float(np.sum(new_w)))
        assert np.array_equal(many.weights, g.weights) and many.total_mass == g.total_mass


def test_density_iteration_needs_an_iteration():
    g = DensityGrid.geometric(1e-3, 10.0, 50)
    for n_iter in (0, -1):
        with pytest.raises(ValueError):
            density_iteration(XiTypeI(1.0), Gamma(1.0, 1.0), g, n_iter)


def test_density_iteration_unsupported_kind():
    # A kind the map cannot take is the caller's type error, as in mc_stationary.
    g = DensityGrid.geometric(1e-3, 10.0, 50)
    with pytest.raises(TypeError):
        density_iteration(AntisymRatio(3.0), Constant(1.0), g, 1)


@pytest.mark.parametrize("lo", [-3.0, -1.0])
def test_density_iteration_refuses_xi_points_at_or_below_minus_one(lo):
    # There 1 + xi <= 0 reverses or empties the kernel's column.
    g = DensityGrid.uniform(lo, 2.0, 31)
    with pytest.raises(ValueError, match="above -1"):
        density_iteration(XiTypeI(1.0), Gamma(1.0, 1.0), g, 3)


def test_density_iteration_leak_error():
    # A grid that misses the stationary support entirely keeps leaking.
    g = DensityGrid.geometric(1e-4, 2e-4, 30)
    with pytest.raises(GridError):
        density_iteration(XiTypeI(2.0), Constant(1.0), g, 3)


def test_ratio_map_law_is_refused_as_an_argument_and_a_leak_as_a_numeric_failure():
    # A law the ratio map cannot branch over is a bad argument (ValueError);
    # a grid that cannot hold the mass is a failed computation (GridError).
    with pytest.raises(ValueError, match="constant and two-point laws") as info:
        density_iteration(RatioTypeII(1.0), Gamma(1.0, 1.0), DensityGrid.uniform(-5.0, 5.0, 20), 3)
    assert not isinstance(info.value, GridError)
    assert issubclass(GridError, ArithmeticError) and not issubclass(GridError, ValueError)


def test_halfline_cdf_ends_come_from_the_grid_cdf():
    # -inf holds no mass of either half line; +inf holds all of each.
    g = DensityGrid(np.linspace(-3.0, 2.0, 11), np.linspace(1.0, 2.0, 11) / 16.5)
    zero = schmidt._grid_cdf(g, np.array([0.0]))[0]
    q = np.array([-np.inf, 0.0, np.inf])
    assert schmidt._halfline_cdf(g, q, positive=True).tolist() == [0.0, 0.0, g.total_mass - zero]
    assert schmidt._halfline_cdf(g, q, positive=False).tolist() == [0.0, zero, zero]


# ----------------------------------------------------------------------
# Letac / Kummer identity
# ----------------------------------------------------------------------


def test_letac_reduces_to_fixed_point_at_beta_zero():
    res = letac_check(1.0, 0.0, 1.0, 10**5, seed=0)
    assert res.pvalue > 0.01


def test_letac_nontrivial_case():
    res = letac_check(1.0, 1.0, 1.0, 10**5, seed=1)
    assert res.statistic < 0.01


def test_gamma_envelope_scale_covariance():
    # The gamma factor of the sampler is exactly scale covariant: samples
    # at rate 2p rescaled by 2 follow the rate-p law.
    rng1 = np.random.default_rng(10)
    rng2 = np.random.default_rng(11)
    a, p = 1.5, 1.0
    g1 = np.sort(rng1.gamma(a, 1.0 / p, 10**5))
    g2 = np.sort(2.0 * rng2.gamma(a, 1.0 / (2.0 * p), 10**5))
    emp = np.arange(1, g1.size + 1) / g1.size
    ks = np.max(np.abs(emp - np.searchsorted(g2, g1) / g2.size))
    assert ks < 0.01


def test_kummer_is_not_scale_invariant():
    # The (1+x) weight breaks p-scaling: the laws K[1,1,1] and 2*K[1,1,2]
    # differ by KS distance 0.0952 (computed by quadrature of the exact
    # densities), and the sampler reproduces that gap.
    rng1 = np.random.default_rng(12)
    rng2 = np.random.default_rng(13)
    x1 = np.sort(sample_kummer(1.0, 1.0, 1.0, 10**5, rng1))
    x2 = np.sort(2.0 * sample_kummer(1.0, 1.0, 2.0, 10**5, rng2))
    emp = np.arange(1, x1.size + 1) / x1.size
    ks = np.max(np.abs(emp - np.searchsorted(x2, x1) / x2.size))
    assert ks == pytest.approx(0.0952, abs=0.02)


def test_kummer_envelope_validation():
    with pytest.raises(ValueError):
        sample_kummer(1.0, -2.0, 1.0, 100, np.random.default_rng(0))


def test_letac_parameter_validation():
    with pytest.raises(ValueError):
        letac_check(1.0, -1.0, 1.0, 100, seed=0)
