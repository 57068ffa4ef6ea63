"""Tables behind docs/DECISIONS.md (ledgers D11, D16, D17, D18 and D19): how soon the scalar recursions forget their start, and what the per-step loops cost.

Run from the repository root:

    PYTHONPATH=src python docs/coalescence.py [--horizon STEPS] [--blocks N] [--times [--against OTHER/src/randchain/lyapunov.py]]

For each recursion that runs as verified blocks (randchain/blocks.py) it
prints the coalescence distance: the steps after which a float
trajectory started from the block guess has the bits of the true
trajectory, fed the same data.  The stationary paths (xi over x lambda
of schmidt.mc_stationary, "xi paired" over x K/m taken twice per mass
of schmidt.omega_type2_mc) start from their own start value, x and 1,
as the blocks' sweeps do; the Sturm pivots of tridiag._block_counts start
as if the matrix began at the block, on the fixed-boundary frequency
matrix of a two-point chain (schmidt --op nodefrac's matrix) at the
probe omega^2.  Each row starts N blocks (default 64) at every
--horizon (default 16384) steps of one path and gives the median and
largest distance, and how many starts had not met the true trajectory
within the horizon.

With --times, it only times the per-step loops at the benchmark's call
shapes.  The first table times the stationary paths (schmidt --op omega
and --op omega2, 300000 samples after 1000 burn-in steps): the loop
against verified blocks, in interleaved repeats, asserting that both
give bitwise the same values.  The second times
lyapunov.transfer_lyapunov at the five transfer calls of the
transfer-mc benchmark (the four lyapunov commands and band_edge, 200000
steps each), in milliseconds per call and nanoseconds per lane-step (a
lane is one value of one block).  With --against, the transfer_lyapunov
of another copy of lyapunov.py (say, one with another _CHUNK_ELEMENTS) is
timed interleaved with this one, with the median of the per-repeat
ratios (this / other), asserting on every call that both copies give
bitwise the same estimates.  A copy from before ledger D17, or from
before ledger D19 (the ratio recursion), gives other bits; time it by
running --times in its own checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time

import numpy as np

from randchain import lyapunov, schmidt, tridiag
from randchain.blocks import block_view
from randchain.chain import ANDERSON, TYPE_I, TYPE_II, Gamma, GaussianPotential, TwoPoint, fixed_frequency_matrix
from randchain.cli import parse_grid, parse_law
from randchain.specfun import rng_from_seed

LAWS = {"gamma:1:1": Gamma(1.0, 1.0), "gamma:0.2:1": Gamma(0.2, 1.0), "gamma:5:5": Gamma(5.0, 5.0),
        "twopoint:1:2:0.3": TwoPoint(1.0, 2.0, 0.3)}
XS = (0.01, 1.0, 100.0)
OMEGA_SQ = (0.1, 0.5, 1.0, 2.0, 3.0, 4.4)


def first_meet(true: np.ndarray, trial: np.ndarray, first: np.ndarray, j: int) -> None:
    """Record step j + 1 for the blocks whose trial value has just met the true one."""
    hit = (first < 0) & (trial.view(np.int64) == true.view(np.int64))
    first[hit] = j + 1


def path_distances(c: np.ndarray, start: float, horizon: int, blocks: int) -> np.ndarray:
    """Coalescence distance of each block of the xi path over c after the first (-1 where it never met)."""
    c = c[:horizon * blocks]
    true = np.empty(c.size)
    schmidt._fraction_loop(memoryview(c), start, memoryview(true))
    truth = block_view(true, horizon, blocks)
    v, t = np.full(blocks, start), np.empty(blocks)
    first = np.full(blocks, -1)
    with np.errstate(all="ignore"):
        for j, row in enumerate(block_view(c, horizon, blocks)):
            schmidt._fraction_step(v, v, t, row)
            first_meet(truth[j], v, first, j)
    return first[1:]


def path_rows(horizon: int, blocks: int):
    for name, law in LAWS.items():
        for x in XS:
            draws = np.asarray(law.sample(rng_from_seed(7), horizon * blocks), dtype=float)
            yield "xi", name, f"x = {x:g}", path_distances(x * draws, x, horizon, blocks)
            yield "xi paired", name, f"x = {x:g}", path_distances(np.repeat(x * (1.0 / draws), 2), 1.0, horizon, blocks)


def sturm_rows(horizon: int, blocks: int):
    """Coalescence of the Sturm pivots at each probe, blocks started as in tridiag._block_counts."""
    masses = TwoPoint(1.0, 2.0, 0.3).sample(rng_from_seed(7), horizon * blocks + 1)
    t = fixed_frequency_matrix(masses, 1.0)
    tiny, a_sites, b2_sites = tridiag._TINY, t.diag[1:].tolist(), np.square(t.off).tolist()
    for w2 in OMEGA_SQ:
        true = np.empty(horizon * blocks)
        qi = (t.diag[0] - w2) or tiny
        for k, (ak, bk) in enumerate(zip(a_sites[:true.size], b2_sites)):  # the float loop, keeping every pivot
            qi = ((ak - w2) - bk / qi) or tiny
            true[k] = qi
        a, b = block_view(t.diag, horizon, blocks, start=1), block_view(t.off, horizon, blocks)
        truth = block_view(true, horizon, blocks)
        v = t.diag[:horizon * blocks:horizon] - w2
        v[v == 0.0] = tridiag._TINY
        first = np.full(blocks, -1)
        with np.errstate(all="ignore"):
            for j in range(horizon):
                prev = np.where(v == 0.0, tridiag._TINY, v)
                v = (a[j] - w2) - b[j] * b[j] / prev
                first_meet(truth[j], np.where(v == 0.0, tridiag._TINY, v), first, j)
        yield "Sturm pivot", "twopoint:1:2:0.3 masses", f"omega^2 = {w2:g}", first[1:]


def type2_path() -> np.ndarray:
    """omega_type2_mc's path at twopoint:1:2:0.3, K = 1, x = 1, 300000 masses after 1000: xi over x K/m in pairs."""
    masses = TwoPoint(1.0, 2.0, 0.3).sample(rng_from_seed(5), 301000)
    return schmidt._stationary_path(np.repeat(1.0 * (1.0 / masses), 2), 1.0)


TIMED = {
    "mc_stationary(XiTypeI(1), gamma:1:1, 300000)":
        lambda: schmidt.mc_stationary(schmidt.XiTypeI(1.0), Gamma(1.0, 1.0), 300000, 1000, seed=5),
    "omega_type2_mc's path (twopoint:1:2:0.3, K = 1, x = 1, 300000)": type2_path,
}


# The transfer calls of the transfer-mc benchmark (perfbench/workloads.py):
# (kind, law, values) of its four lyapunov commands and of band_edge.
TRANSFER_STEPS, TRANSFER_BLOCKS, TRANSFER_BURN_IN = 200000, 50, 1000  # transfer_lyapunov's defaults
TRANSFER = {
    "lyapunov type2 twopoint:1:2:0.5": (TYPE_II, parse_law("twopoint:1:2:0.5"), parse_grid("0.5:3:6")),
    "lyapunov type1 gamma:2:2": (TYPE_I, parse_law("gamma:2:2"), parse_grid("0.5:3:6")),
    "lyapunov anderson gauss:0.1": (ANDERSON, parse_law("gauss:0.1"), parse_grid("-3:3:6")),
    "lyapunov type2 const:1": (TYPE_II, parse_law("const:1"), parse_grid("2:6:2")),
    "band_edge_collapse alpha 64": (
        ANDERSON, GaussianPotential(1.0 / 64.0), 2.0 + np.arange(-4.0, 5.0) * 128.0 ** (-2.0 / 3.0)),
}


def load(path: str):
    # Named inside the randchain package, so that its relative imports
    # (randchain.chain) resolve.
    spec = importlib.util.spec_from_file_location("randchain.lyapunov_other", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def transfer_times(other, repeats: int = 9) -> None:
    """Second --times table: transfer_lyapunov at the benchmark's call shapes, against another copy."""
    print()
    print(f"transfer_lyapunov, {TRANSFER_STEPS} steps in {TRANSFER_BLOCKS} blocks: ms per call and "
          f"ns per lane-step, median of {repeats} interleaved repeats")
    print()
    head = "| call | lanes | ms | ns per lane-step |"
    print(head + (" other ms | ratio |" if other else ""))
    print("|---" * (head.count("|") - 1 + (2 if other else 0)) + "|")
    modules = {"this": lyapunov, **({"other": other} if other else {})}
    for name, (kind, law, values) in TRANSFER.items():
        ms = {key: [] for key in modules}
        for _ in range(repeats):
            got = {}
            for key, module in modules.items():
                start = time.perf_counter()
                ests = module.transfer_lyapunov(kind, law, values, TRANSFER_STEPS, seed=701,
                                                n_blocks=TRANSFER_BLOCKS, burn_in=TRANSFER_BURN_IN)
                ms[key].append(1e3 * (time.perf_counter() - start))
                got[key] = [(e.gamma, e.stderr, e.steps) for e in ests]
            assert got.get("other", got["this"]) == got["this"], name
        lanes = values.size * TRANSFER_BLOCKS
        lane_steps = lanes * (TRANSFER_STEPS // TRANSFER_BLOCKS + TRANSFER_BURN_IN)
        this = statistics.median(ms["this"])
        line = f"| {name} | {lanes} | {this:.1f} | {1e6 * this / lane_steps:.1f} |"
        if other:
            ratio = statistics.median(a / b for a, b in zip(ms["this"], ms["other"]))
            line += f" {statistics.median(ms['other']):.1f} | {ratio:.2f} |"
        print(line, flush=True)


def times(repeats: int = 9) -> None:
    print(f"ms per call, median of {repeats} interleaved repeats")
    print()
    print("| call | loop | verified blocks | ratio |")
    print("|---|---|---|---|")
    keep = schmidt._BLOCK_MIN
    for name, call in TIMED.items():
        ms = {"loop": [], "blocks": []}
        for _ in range(repeats):
            for shape in ms:
                schmidt._BLOCK_MIN = 10**9 if shape == "loop" else keep
                try:
                    start = time.perf_counter()
                    values = call()
                    ms[shape].append(1e3 * (time.perf_counter() - start))
                finally:
                    schmidt._BLOCK_MIN = keep
                if shape == "loop":
                    want = values
            assert np.array_equal(values.view(np.int64), want.view(np.int64))
        loop, blocks = statistics.median(ms["loop"]), statistics.median(ms["blocks"])
        print(f"| {name} | {loop:.1f} | {blocks:.1f} | {blocks / loop:.2f} |", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=16384, help="steps followed from each start")
    parser.add_argument("--blocks", type=int, default=64, help="starts per row")
    parser.add_argument("--times", action="store_true",
                        help="only time the per-step loops: stationary paths, loop against blocks, and transfer calls")
    parser.add_argument("--against", help="with --times, path of another lyapunov.py whose transfer calls to time alongside")
    args = parser.parse_args()
    if args.against and not args.times:
        parser.error("--against needs --times")
    if args.times:
        times()
        transfer_times(None if args.against is None else load(args.against))
        return
    print(f"coalescence distance in steps, {args.blocks - 1} starts per row, horizon {args.horizon}")
    print()
    print("| recursion | law | parameter | median | largest | never met |")
    print("|---|---|---|---|---|---|")
    for rows in (path_rows(args.horizon, args.blocks), sturm_rows(args.horizon, args.blocks)):
        for kind, law, param, d in rows:
            met = d[d >= 0]
            median = f"{np.median(met):.0f}" if met.size else "—"
            largest = f"{met.max()}" if met.size else "—"
            print(f"| {kind} | {law} | {param} | {median} | {largest} | {int(np.sum(d < 0))} |", flush=True)


if __name__ == "__main__":
    main()
