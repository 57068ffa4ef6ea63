"""Table behind docs/DECISIONS.md (ledger D11): how soon the scalar recursions forget their start.

Run from the repository root:

    PYTHONPATH=src python docs/coalescence.py [--horizon STEPS] [--blocks N] [--times]

For each recursion that runs as verified blocks (randchain/blocks.py) it
prints the coalescence distance: the steps after which a float
trajectory started from the block guess has the bits of the true
trajectory, fed the same data.  The stationary paths (xi, z and s of
schmidt.mc_stationary, eta of schmidt._eta_samples) start from the
kind's own start value; the Sturm pivots of tridiag._block_counts start
as if the matrix began at the block, on the fixed-boundary frequency
matrix of a two-point chain (schmidt --op nodefrac's matrix) at the
probe omega^2.  Each row starts N blocks (default 64) at every
--horizon (default 16384) steps of one path and gives the median and
largest distance, and how many starts had not met the true trajectory
within the horizon.

With --times, it only times the stationary paths at the benchmark's call
shapes (schmidt --op omega and --op omega2, 300000 samples after 1000
burn-in steps): the loop against verified blocks, in interleaved
repeats, asserting that both give bitwise the same values.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from randchain import schmidt, tridiag
from randchain.blocks import block_view
from randchain.chain import Gamma, TwoPoint, fixed_frequency_matrix
from randchain.specfun import rng_from_seed

LAWS = {"gamma:1:1": Gamma(1.0, 1.0), "gamma:0.2:1": Gamma(0.2, 1.0), "gamma:5:5": Gamma(5.0, 5.0),
        "twopoint:1:2:0.3": TwoPoint(1.0, 2.0, 0.3)}
XS = (0.01, 1.0, 100.0)
OMEGA_SQ = (0.1, 0.5, 1.0, 2.0, 3.0, 4.4)


def first_meet(true: np.ndarray, trial: np.ndarray, first: np.ndarray, j: int) -> None:
    """Record step j + 1 for the blocks whose trial value has just met the true one."""
    hit = (first < 0) & (trial.view(np.int64) == true.view(np.int64))
    first[hit] = j + 1


def path_distances(loop, step, coeffs, start: float, horizon: int, blocks: int) -> np.ndarray:
    """Coalescence distance of each block after the first (-1 where it never met)."""
    total = horizon * blocks
    coeffs = [c[:total] for c in coeffs]
    true = np.empty(total)
    loop(*(memoryview(c) for c in coeffs), start, memoryview(true))
    rows = [block_view(c, horizon, blocks) for c in coeffs]
    truth = block_view(true, horizon, blocks)
    v, t, u = np.full(blocks, start), np.empty(blocks), np.empty(blocks)
    first = np.full(blocks, -1)
    with np.errstate(all="ignore"):
        for j, row in enumerate(zip(*rows)):
            step(v, v, t, u, *row)
            first_meet(truth[j], v, first, j)
    return first[1:]


def path_rows(horizon: int, blocks: int):
    for name, law in LAWS.items():
        for x in XS:
            draws = np.asarray(law.sample(rng_from_seed(7), horizon * blocks), dtype=float)
            yield "xi", name, f"x = {x:g}", path_distances(
                schmidt._fraction_loop, schmidt._fraction_step, [x * draws], x, horizon, blocks)
            xl = x * (1.0 / draws)
            yield "eta", name, f"x = {x:g}", path_distances(
                schmidt._eta_loop, schmidt._eta_step, [xl, 1.0 + xl], 1.0, horizon, blocks)
            y = x ** -0.5
            yield "s", name, f"y = {y:.3g}", path_distances(
                schmidt._fraction_loop, schmidt._fraction_step, [-(draws / (y * y))], 0.0, horizon, blocks)
        for w2 in (0.5, 2.0, 5.0):
            draws = np.asarray(law.sample(rng_from_seed(7), horizon * blocks), dtype=float)
            yield "z", name, f"omega^2 = {w2:g}", path_distances(
                schmidt._ratio_loop, schmidt._ratio_step, [2.0 - w2 * draws], 1.0, horizon, blocks)


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


TIMED = {
    "mc_stationary(XiTypeI(1), gamma:1:1, 300000)":
        lambda: schmidt.mc_stationary(schmidt.XiTypeI(1.0), Gamma(1.0, 1.0), 300000, 1000, seed=5),
    "_eta_samples(twopoint:1:2:0.3, K = 1, x = 1, 300000)":
        lambda: schmidt._eta_samples(TwoPoint(1.0, 2.0, 0.3), 1.0, 1.0, 300000, 1000, rng_from_seed(5)),
}


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
    parser.add_argument("--times", action="store_true", help="only time the stationary paths, loop against blocks")
    args = parser.parse_args()
    if args.times:
        times()
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
