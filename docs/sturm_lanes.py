"""Tables behind docs/DECISIONS.md (ledgers D3, D9, D11, D12 and D15): cost of the Sturm loop shapes and of bisection.

Run from the repository root:

    PYTHONPATH=src python docs/sturm_lanes.py [--sites N] [--against OTHER/src/randchain/tridiag.py] [--bisect] [--hint] [--blocks] [--mirror]

It prints one markdown table of microseconds per site of
tridiag._sturm_counts on matrices of 400 sites (or --sites), from 16 to
3e4 lanes (matrix-probe pairs), for both loop shapes: the per-lane
Python-float loop and the array loop over the sites.  Each lane count runs one matrix with all its probes and a
batch of 8 matrices sharing them, the two shapes that count_below_many
and eigenvalues_many give the kernel; it lays both out alike, one matrix
as a batch of one (ledger D15).  Shapes are timed in interleaved
repeats and the median is printed; the float loop is timed up to 2000
lanes only, where it is already far behind.

With --against, the array loop of another copy of tridiag.py (say, a
checkout of an earlier commit) is timed interleaved with this one, and
the median of the per-repeat ratios (this / other) is added.  Every
timed call also checks that both copies give the same counts.

With --bisect, a second table times tridiag.eigenvalues_many on the
bisections of the beta-ensembles benchmark (the two betaens commands'
batches, the rank-restricted call and squared_spectrum), on a full
spectrum of 2000 sites and on few ranks of small and long matrices:
Sturm sweeps and milliseconds per call, and with --against the other
copy's sweeps, milliseconds and the median ratio, asserting on every
call that both copies give bitwise the same values.

With --hint, a third table times eigenvalues_many on one matrix with
and without the guards around LAPACK estimates, over sizes and sites
per wanted rank, the break-even behind tridiag._HINT_SITES_PER_RANK.

With --blocks, the script prints only a table of few lanes on long
chains (ledger D11): the float loop against verified blocks of 1024,
2048 and 4096 sites (tridiag._block_counts), on the fixed-boundary
frequency matrix of a two-point chain (schmidt --op nodefrac's matrix)
probed at the midpoints of lanes equal cells of (0.1, 4.4), asserting on
every call that both give bitwise the same counts.  Each cell gives
milliseconds and, for blocks, the blocks re-run: the break-even behind
tridiag._BLOCK_SITES and _BLOCK_MIN.

With --mirror, the script prints only a table at the shapes of the
`dos` command (ledger D12): milliseconds per realization of
chain.empirical_idos, which sweeps each hopping matrix at +sqrt(x) only
and reads the count at -sqrt(x) off the mirror identity, against one
sweep with probes at both signs (the form it replaced), for several
realizations per sweep, asserting on every call that both give bitwise
the same IDOS.  Its rows at 4001 sites are the measurement behind
cli._DOS_BLOCK_ELEMENTS.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time

import numpy as np

from randchain import betaens, chain, tridiag
from randchain.chain import TwoPoint

BATCH = 8
LANES = (16, 24, 32, 40, 48, 64, 96, 150, 300, 600, 1200, 2000, 4000, 8000, 16000, 30000)
FLOAT_LANES_MAX = 2000
REPEATS = 9
HINT_SIZES = (101, 401, 1001, 2001, 4001)
HINT_SITES_PER_RANK = (4, 16, 32, 64, 128, 512)
BLOCK_SITES = (1024, 2048, 4096)
BLOCK_CHAINS = (20001, 35001, 50001, 100001, 200001)
BLOCK_LANES = (1, 2, 4, 12, 20)
# (law, sites, edges of the grid, realizations per sweep) of the dos
# operations of the chain-spectra benchmark (perfbench/workloads.py):
# dos_gamma25, dos_gamma1 at several sweep sizes, and dos_tail.
MIRROR_SHAPES = tuple(
    [(chain.Gamma(2.5, 1.0), 2001, np.linspace(0.05, 6.0, 60), 8)]
    + [(chain.Gamma(1.0, 1.0), 4001, np.linspace(0.05, 6.0, 30), r) for r in (1, 4, 8, 16, 20, 32, 64)]
    + [(chain.Gamma(2.5, 1.0), 20001, np.geomspace(1e-6, 1e-4, 3), 2)])


def load(path: str):
    # Named inside the randchain package, so that its relative imports
    # (randchain.blocks) resolve.
    spec = importlib.util.spec_from_file_location("randchain.tridiag_other", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def inputs(sites: int, lanes: int, rows: int):
    """rows matrices of the given sites and lanes // rows probes inside their spectrum."""
    rng = np.random.default_rng(lanes)
    diag = rng.normal(size=(rows, sites))
    off = rng.uniform(0.1, 2.0, (rows, sites - 1))
    xs = rng.uniform(-3.0, 3.0, lanes // rows)
    return (diag[0], off[0], xs) if rows == 1 else (diag, off, xs)


def array_loop(module, diag, off, xs):
    keep = module._FLOAT_LOOP_LANES
    module._FLOAT_LOOP_LANES = 0
    try:
        return module._sturm_counts(diag, off, xs)
    finally:
        module._FLOAT_LOOP_LANES = keep


def float_loop(module, diag, off, xs):
    keep = module._FLOAT_LOOP_LANES
    module._FLOAT_LOOP_LANES = 10**9
    try:
        return module._sturm_counts(diag, off, xs)
    finally:
        module._FLOAT_LOOP_LANES = keep


def per_site_us(fn, module, diag, off, xs) -> tuple[float, np.ndarray]:
    start = time.perf_counter()
    counts = fn(module, diag, off, xs)
    return 1e6 * (time.perf_counter() - start) / diag.shape[-1], counts


def row(sites: int, lanes: int, rows: int, other) -> str:
    args = inputs(sites, lanes, rows)
    shapes = {"array": array_loop}
    if lanes <= FLOAT_LANES_MAX:
        shapes["float"] = float_loop
    times = {name: [] for name in shapes}
    ratios = []
    for _ in range(REPEATS):
        for name, fn in shapes.items():
            us, counts = per_site_us(fn, tridiag, *args)
            times[name].append(us)
        if other is not None:
            us_other, counts_other = per_site_us(array_loop, other, *args)
            assert np.array_equal(counts, counts_other)
            ratios.append(times["array"][-1] / us_other)
    med = {name: statistics.median(v) for name, v in times.items()}
    float_cell = f"{med['float']:.2f}" if "float" in med else "—"
    cells = [str(args[2].size * rows), str(rows), float_cell, f"{med['array']:.2f}"]
    if other is not None:
        cells.append(f"{statistics.median(ratios):.2f}")
    return "| " + " | ".join(cells) + " |"


def bisections() -> dict:
    """name -> (matrices, ranks, bounds) of the bisections timed by --bisect."""
    rng = np.random.default_rng(31)
    cases = {}
    for name, spec, samples in (("betaens --pairs 100 --beta 2 --samples 8", betaens.BetaEnsembleSpec(100, beta=2.0), 8),
                                ("betaens --pairs 200 --c-over-n 1 --samples 6", betaens.BetaEnsembleSpec(200, c=1.0), 6)):
        ms = [betaens.sample_matrix(spec, seed=(31, s)) for s in range(samples)]
        cases[name] = positive_half(ms)
    n = 401
    sym = tridiag.SymTridiag(rng.normal(size=n), rng.uniform(0.2, 1.5, n - 1))
    cases["eigenvalues, n = 401, 40 ranks"] = ([sym], np.sort(rng.choice(np.arange(1, n + 1), 40, replace=False)), None)
    sup = np.sqrt(rng.gamma(np.arange(300, 0, -1) * 0.5, 1.0))
    cases["squared_spectrum, n = 301"] = positive_half([tridiag.AntisymTridiag(sup)])
    n = 2000
    cases["eigenvalues, n = 2000, all ranks"] = (
        [tridiag.SymTridiag(rng.normal(size=n), rng.uniform(0.1, 2.0, n - 1))], None, None)
    for n, k in ((10, 1), (4001, 1), (20001, 100)):
        sym = tridiag.SymTridiag(rng.normal(size=n), rng.uniform(0.2, 1.5, n - 1))
        ranks = np.sort(rng.choice(np.arange(1, n + 1), k, replace=False))
        cases[f"eigenvalues, n = {n}, {k} rank{'s' * (k > 1)}"] = ([sym], ranks, None)
    return cases


def positive_half(ms):
    """The eigenvalues_many arguments of betaens.squared_spectrum on the matrices ms."""
    hs = [m.hermitian_image() for m in ms]
    n = hs[0].n
    return hs, np.arange(n - (n - 1) // 2 + 1, n + 1), [(0.0, h.gershgorin()[1]) for h in hs]


def bisect_ms(module, ts, ranks, bounds) -> tuple[float, int, list]:
    """Milliseconds and Sturm sweeps of one eigenvalues_many call of module, and its spectra."""
    kernel = module._sturm_counts
    sweeps = 0

    def counted(*args):
        nonlocal sweeps
        sweeps += 1
        return kernel(*args)

    module._sturm_counts = counted
    try:
        start = time.perf_counter()
        spectra = module.eigenvalues_many(ts, ranks=ranks, bounds=bounds)
        return 1e3 * (time.perf_counter() - start), sweeps, spectra
    finally:
        module._sturm_counts = kernel


def bisect_row(name: str, ts, ranks, bounds, other) -> str:
    times, other_times, ratios = [], [], []
    for _ in range(REPEATS):
        ms, sweeps, spectra = bisect_ms(tridiag, ts, ranks, bounds)
        times.append(ms)
        if other is not None:
            ms_other, sweeps_other, spectra_other = bisect_ms(other, ts, ranks, bounds)
            for a, b in zip(spectra, spectra_other):
                assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64)) and a.tol == b.tol
            other_times.append(ms_other)
            ratios.append(ms / ms_other)
    lanes = len(ts) * (ts[0].n if ranks is None else len(ranks))
    cells = [name, str(lanes), str(sweeps), f"{statistics.median(times):.1f}"]
    if other is not None:
        cells += [str(sweeps_other), f"{statistics.median(other_times):.1f}", f"{statistics.median(ratios):.2f}"]
    return "| " + " | ".join(cells) + " |"


def hint_row(n: int) -> str:
    """ms of one eigenvalues_many call on n sites with guards / without, per sites per wanted rank."""
    rng = np.random.default_rng(n)
    sym = tridiag.SymTridiag(rng.normal(size=n), rng.uniform(0.2, 1.5, n - 1))
    keep = tridiag._HINT_SITES_PER_RANK
    cells = [str(n)]
    try:
        for per_rank in HINT_SITES_PER_RANK:
            ranks = np.sort(rng.choice(np.arange(1, n + 1), max(1, n // per_rank), replace=False))
            times = {True: [], False: []}
            for _ in range(REPEATS):
                for guided in times:
                    tridiag._HINT_SITES_PER_RANK = n if guided else 0
                    start = time.perf_counter()
                    tridiag.eigenvalues_many([sym], ranks=ranks)
                    times[guided].append(1e3 * (time.perf_counter() - start))
            cells.append(f"{statistics.median(times[True]):.1f} / {statistics.median(times[False]):.1f}")
    finally:
        tridiag._HINT_SITES_PER_RANK = keep
    return "| " + " | ".join(cells) + " |"


def bisect_table(other) -> None:
    print(f"ms per tridiag.eigenvalues_many call, median of {REPEATS} interleaved repeats")
    print()
    head = ["bisection", "matrices x ranks", "sweeps", "ms"]
    if other is not None:
        head += ["other sweeps", "other ms", "ms / other"]
    print("| " + " | ".join(head) + " |")
    print("|---" * len(head) + "|")
    for name, case in bisections().items():
        print(bisect_row(name, *case, other), flush=True)


def hint_table() -> None:
    print(f"ms per eigenvalues_many call with guards / without, one matrix, median of {REPEATS} interleaved repeats")
    print()
    head = ["sites"] + [f"{k} sites per rank" for k in HINT_SITES_PER_RANK]
    print("| " + " | ".join(head) + " |")
    print("|---" * len(head) + "|")
    for n in HINT_SIZES:
        print(hint_row(n), flush=True)


def blocks_ms(sym, xs, sites: int | None) -> tuple[float, int, np.ndarray]:
    """ms, blocks re-run and counts of one count_below_many call: blocks of the given sites, or the float loop (None)."""
    keep = tridiag._BLOCK_SITES, tridiag._BLOCK_MIN, tridiag.walk_blocks
    reruns = 0

    def walk(*args):
        nonlocal reruns
        end, n = keep[2](*args)
        reruns += n
        return end, n

    tridiag._BLOCK_SITES, tridiag._BLOCK_MIN, tridiag.walk_blocks = sites or 1, 1 if sites else sym.n, walk
    try:
        start = time.perf_counter()
        counts = tridiag.count_below_many(sym, xs)
        return 1e3 * (time.perf_counter() - start), reruns, counts
    finally:
        tridiag._BLOCK_SITES, tridiag._BLOCK_MIN, tridiag.walk_blocks = keep


def blocks_row(n: int, lanes: int) -> str:
    masses = TwoPoint(1.0, 2.0, 0.3).sample(np.random.default_rng(n), n)
    sym = chain.fixed_frequency_matrix(masses, 1.0)
    xs = 0.1 + 4.3 * (np.arange(lanes) + 0.5) / lanes
    times = {sites: [] for sites in (None,) + BLOCK_SITES}
    reruns = {}
    for _ in range(REPEATS):
        for sites in times:
            ms, reruns[sites], counts = blocks_ms(sym, xs, sites)
            times[sites].append(ms)
            if sites is None:
                want = counts
            assert np.array_equal(counts, want)
    cells = [str(n), str(lanes), f"{statistics.median(times[None]):.1f}"]
    cells += [f"{statistics.median(times[s]):.1f} ({reruns[s]})" for s in BLOCK_SITES]
    return "| " + " | ".join(cells) + " |"


def blocks_table() -> None:
    print(f"ms per count_below_many call, float loop and verified blocks (blocks re-run), median of {REPEATS} interleaved repeats")
    print()
    head = ["sites", "lanes", "float loop"] + [f"blocks of {s}" for s in BLOCK_SITES]
    print("| " + " | ".join(head) + " |")
    print("|---" * len(head) + "|")
    for n in BLOCK_CHAINS:
        for lanes in BLOCK_LANES:
            print(blocks_row(n, lanes), flush=True)


def both_signs(hs, xs) -> np.ndarray:
    """empirical_idos as one sweep with probes at +sqrt(x) and -sqrt(x), the form the mirror identity replaced."""
    roots = np.sqrt(xs)
    diag, off = np.stack([h.diag for h in hs]), np.stack([h.off for h in hs])
    counts = tridiag._sturm_counts(diag, off, np.concatenate([roots, -roots]))
    upper, lower = counts[:, :roots.size], counts[:, roots.size:]
    return np.maximum((upper - lower - 1) / (2.0 * ((hs[0].n - 1) // 2)), 0.0)


def mirror_row(law, sites: int, edges: np.ndarray, realizations: int) -> str:
    hs = [chain.anderson_hopping(chain.ChainSpec(chain.TYPE_I, (sites + 1) // 2, law, seed=(701, s)))
          for s in range(realizations)]
    times = {both_signs: [], chain.empirical_idos: []}
    for _ in range(REPEATS):
        for fn in times:
            start = time.perf_counter()
            idos = fn(hs, edges)
            times[fn].append(1e3 * (time.perf_counter() - start) / realizations)
            if fn is both_signs:
                want = idos
        assert np.array_equal(idos.view(np.int64), want.view(np.int64))
    both, mirror = (statistics.median(v) for v in times.values())
    lanes = realizations * edges.size
    return f"| {sites} | {edges.size} | {realizations} | {2 * lanes} / {lanes} | {both:.2f} | {mirror:.2f} | {mirror / both:.2f} |"


def mirror_table() -> None:
    print(f"ms per realization of the dos IDOS counts, both signs swept and mirror, median of {REPEATS} interleaved repeats")
    print()
    head = ["sites", "edges", "realizations per sweep", "lanes (both / mirror)", "both signs", "mirror", "mirror / both"]
    print("| " + " | ".join(head) + " |")
    print("|---" * len(head) + "|")
    for shape in MIRROR_SHAPES:
        print(mirror_row(*shape), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, default=400, help="matrix size (default 400)")
    parser.add_argument("--against", help="path of another tridiag.py whose array loop to time alongside")
    parser.add_argument("--bisect", action="store_true", help="also time eigenvalues_many on the benchmark's bisections")
    parser.add_argument("--hint", action="store_true", help="also time eigenvalues_many with and without its guards")
    parser.add_argument("--blocks", action="store_true", help="only time few lanes on long chains, float loop against blocks")
    parser.add_argument("--mirror", action="store_true", help="only time the dos IDOS counts, both signs against mirror")
    args = parser.parse_args()
    if args.blocks:
        blocks_table()
        return
    if args.mirror:
        mirror_table()
        return
    other = None if args.against is None else load(args.against)
    print(f"us per site of tridiag._sturm_counts, {args.sites} sites, median of {REPEATS} interleaved repeats")
    print()
    head = ["lanes", "matrices", "float loop", "array loop"]
    if other is not None:
        head.append("array loop / other")
    print("| " + " | ".join(head) + " |")
    print("|---" * len(head) + "|")
    for lanes in LANES:
        for rows in (1, BATCH):
            print(row(args.sites, lanes, rows, other), flush=True)
    if args.bisect:
        print()
        bisect_table(other)
    if args.hint:
        print()
        hint_table()


if __name__ == "__main__":
    main()
