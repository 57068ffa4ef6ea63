"""The operations of one benchmark round, built from the workload seed.

A round is a fixed list of operations run back to back by one caller
(a closed loop).  Every README command is issued in-process through
``randchain.cli.run``; library functions appear only where no command
reaches them.  The same seed gives the same operations and the same
benchmark-drawn matrices, so the worker that times the round and the
parent that computes the oracles rebuild identical inputs.

This module imports numpy only, never randchain: the parent process
builds the oracles from these inputs without loading the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("chain-spectra", "transfer-mc", "beta-ensembles")


@dataclass(frozen=True)
class Sym:
    """A symmetric tridiagonal matrix the benchmark drew itself."""

    diag: np.ndarray
    off: np.ndarray


@dataclass(frozen=True)
class Antisym:
    """An anti-symmetric tridiagonal matrix, by its superdiagonal."""

    sup: np.ndarray


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command (argv) or a library call (call, args).

    ``fault`` names a known program fault the operation probes; such an
    operation is expected to fail until the fault is mended.
    """

    name: str
    argv: tuple = ()
    call: str = ""
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    fault: str = ""


@dataclass
class Workload:
    name: str
    seed: int
    quick: bool
    ops: list

    def op(self, name: str) -> Op:
        return next(o for o in self.ops if o.name == name)

    def oracle_rng(self, stream: int) -> np.random.Generator:
        return oracle_rng(self.name, self.seed, stream)


def oracle_rng(name: str, seed: int, stream: int) -> np.random.Generator:
    """A generator for the oracle's own draws, apart from every command seed."""
    return np.random.default_rng([seed, WORKLOADS.index(name), 1, stream])


def _cli(name: str, line: str, seed: int | None = None, **kw) -> Op:
    argv = line.split()
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Op(name, argv=tuple(argv), **kw)


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


# Known faults whose probes do not depend on the seed.
CONTOUR_FAULT = "idos_exact raises ContourError for alpha = kappa >= 20 beyond the band edge"
WHITTAKER_FAULT = "whittaker_msq loses accuracy for mu >= 60 within its documented mu_max = 100"

# (alpha = kappa, x) pairs outside the band where the contour fault shows.
CONTOUR_FAULT_PROBES = ((20, 5.0), (50, 4.5), (100, 5.0), (200, 6.0))
WEAK_DISORDER_ALPHAS = (50, 100, 200)
WHITTAKER_CS = (0.5, 1.0, 2.0)
WHITTAKER_FAULT_MUS = (60.0, 80.0, 100.0)
# Band-edge collapse: alpha and the scaled energies s = (2 alpha)^{2/3} (|E| - 2).
COLLAPSE_ALPHA = 64.0
COLLAPSE_S = tuple(float(s) for s in range(-4, 5))


def _chain_spectra(rng: np.random.Generator, quick: bool) -> list:
    s = _seeds(rng, 4)
    if quick:
        z = dict(r25=2, r1=2, size_tail=4001, r_tail=1, nf_grid="0.1:4.4:4", nf_samples=20000,
                 tail_grid="g1e-6:4:8", edge_grid="0.05:6:10", dos_grid="0.05:6:6", sturm_n=401, nc_n=1000)
    else:
        z = dict(r25=8, r1=20, size_tail=20001, r_tail=2, nf_grid="0.1:4.4:12", nf_samples=100000,
                 tail_grid="g1e-6:4:40", edge_grid="0.05:6:30", dos_grid="0.05:6:20", sturm_n=3001, nc_n=4000)
    ops = [
        # Many short chains with many probes.
        _cli("dos_gamma25", f"dos --law gamma:2.5:1 --size 2001 --realizations {z['r25']} --grid 0.05:6:60", s[0]),
        _cli("dos_gamma1", f"dos --law gamma:1:1 --size 4001 --realizations {z['r1']} --grid {z['edge_grid']}", s[1]),
        # Few long chains with few probes, in the Dyson tail.
        _cli("dos_tail", f"dos --law gamma:2.5:1 --size {z['size_tail']} --realizations {z['r_tail']} "
             "--grid g1e-6:1e-4:3", s[2]),
        # The scalar node-count loop, one sweep per grid point.
        _cli("nodefrac", f"schmidt --op nodefrac --law twopoint:1:2:0.3 --grid {z['nf_grid']} "
             f"--samples {z['nf_samples']}", s[3]),
        # The contour layer.
        _cli("exact_idos_tail", f"exact --alpha 1 --kappa 1 --grid {z['tail_grid']}"),
        _cli("exact_idos_edges", f"exact --alpha 1 --kappa 1 --grid {z['edge_grid']}"),
        _cli("exact_dos", f"exact --alpha 1 --kappa 1 --what dos --grid {z['dos_grid']}"),
        _cli("exact_omega", "exact --alpha 2 --kappa 1 --what omega --grid 0.1:10:10"),
    ]
    ops += [_cli(f"exact_weak_{a}", f"exact --alpha {a} --kappa {a} --grid 2:4:2") for a in WEAK_DISORDER_ALPHAS]
    ops += [
        _cli(f"exact_fault_{a}_{x:g}", f"exact --alpha {a} --kappa {a} --grid {x:g}:{x + 1:g}:1", fault=CONTOUR_FAULT)
        for a, x in CONTOUR_FAULT_PROBES
    ]
    # Exact Sturm and node counts on matrices and masses drawn here.
    n = z["sturm_n"]
    sym = Sym(rng.normal(size=n), rng.uniform(0.2, 1.5, n - 1))
    probes = np.sort(rng.uniform(-3.5, 3.5, 64))
    ops.append(Op("sturm_many", call="tridiag.count_below_many", args=(sym, probes)))
    ops += [Op(f"sturm_one_{i}", call="tridiag.count_below", args=(sym, float(x)))
            for i, x in enumerate(rng.uniform(-3.0, 3.0, 4))]
    masses = np.where(rng.random(z["nc_n"]) < 0.3, 1.0, 2.0)
    ops += [Op(f"node_count_{i}", call="schmidt.node_count", args=(masses, 1.0, float(w2)))
            for i, w2 in enumerate(rng.uniform(0.1, 4.4, 4))]
    return ops


def _transfer_mc(rng: np.random.Generator, quick: bool) -> list:
    s = _seeds(rng, 7)
    steps = 20000 if quick else 200000
    samples = 30000 if quick else 300000
    iters = 10 if quick else 50
    alpha = COLLAPSE_ALPHA
    energies = 2.0 + np.array(COLLAPSE_S) * (2.0 * alpha) ** (-2.0 / 3.0)
    ops = [
        _cli("lyap_type2", f"lyapunov --model type2 --law twopoint:1:2:0.5 --grid 0.5:3:6 --steps {steps}", s[0]),
        _cli("lyap_type1", f"lyapunov --model type1 --law gamma:2:2 --grid 0.5:3:6 --steps {steps}", s[1]),
        _cli("lyap_anderson", f"lyapunov --model anderson --law gauss:0.1 --grid=-3:3:6 --steps {steps}", s[2]),
        _cli("lyap_pure", f"lyapunov --model type2 --law const:1 --grid 2:6:2 --steps {steps}", s[3]),
        _cli("omega_mc", f"schmidt --op omega --law gamma:1:1 --x 1 --samples {samples}", s[4]),
        _cli("omega2_mc", f"schmidt --op omega2 --law twopoint:1:2:0.3 --samples {samples}", s[5]),
        _cli("density", f"schmidt --op density --law gamma:1:1 --grid g1e-6:80:400 --iters {iters}"),
        Op("band_edge", call="lyapunov.band_edge_collapse", args=(alpha, energies, steps), kwargs={"seed": s[6]}),
    ]
    return ops


def _beta_ensembles(rng: np.random.Generator, quick: bool) -> list:
    s = _seeds(rng, 2)
    if quick:
        z = dict(fixed="--pairs 40 --beta 2 --samples 4", con="--pairs 60 --c-over-n 1 --samples 3",
                 cdf_grid=(1e-4, 1e-3, 3), mass_cut=20.0, mus=3, eig_n=101, sq_pairs=40)
    else:
        z = dict(fixed="--pairs 100 --beta 2 --samples 8", con="--pairs 200 --c-over-n 1 --samples 6",
                 cdf_grid=(1e-4, 20.0, 9), mass_cut=30.0, mus=6, eig_n=401, sq_pairs=150)
    ops = [
        _cli("betaens_fixed", f"betaens {z['fixed']}", s[0]),
        _cli("betaens_con", f"betaens {z['con']}", s[1]),
        # Grid ratio below 6 per segment: each segment then costs quad's first 21-point rule.
        Op("con_cdf_grid", call="betaens.con_cdf_grid", args=(1.0, np.geomspace(*z["cdf_grid"]))),
        Op("density_mass", call="specfun.whittaker_density_mass", args=(1.0,), kwargs={"cut": z["mass_cut"]}),
    ]
    # Whittaker modulus probes: accurate up to mu = 40, faulty from mu = 60.
    for c in WHITTAKER_CS:
        ops += [Op(f"msq_{c:g}_{mu:.6g}", call="specfun.whittaker_msq", args=(c, float(mu)))
                for mu in np.geomspace(1e-6, 40.0, z["mus"])]
        ops += [Op(f"msq_{c:g}_{mu:g}", call="specfun.whittaker_msq", args=(c, mu), fault=WHITTAKER_FAULT)
                for mu in WHITTAKER_FAULT_MUS]
    # Rank-restricted bisection on matrices drawn here.
    n = z["eig_n"]
    sym = Sym(rng.normal(size=n), rng.uniform(0.2, 1.5, n - 1))
    ranks = np.sort(rng.choice(np.arange(1, n + 1), size=n // 10, replace=False))
    ops.append(Op("eigenvalues_ranks", call="tridiag.eigenvalues", args=(sym,), kwargs={"ranks": ranks}))
    k = 2 * z["sq_pairs"]
    sup = np.sqrt(rng.gamma(np.arange(k, 0, -1) * 0.5, 1.0))
    ops.append(Op("squared_spectrum", call="betaens.squared_spectrum", args=(Antisym(sup),)))
    return ops


_BUILDERS = {"chain-spectra": _chain_spectra, "transfer-mc": _transfer_mc, "beta-ensembles": _beta_ensembles}


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """The operations of one round of workload `name` for `seed`."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    return Workload(name, int(seed), quick, _BUILDERS[name](rng, quick))
