"""Table behind docs/DECISIONS.md (ledger D3): cost of the two Sturm loop shapes.

Run from the repository root:

    PYTHONPATH=src python docs/sturm_lanes.py [--sites N] [--against OTHER/src/randchain/tridiag.py]

It prints one markdown table of microseconds per site of
tridiag._sturm_counts on matrices of 400 sites (or --sites), from 16 to
3e4 lanes (matrix-probe pairs), for both loop shapes: the per-lane
Python-float loop and the array loop over the sites.  Each lane count runs one matrix with all its probes and a
batch of 8 matrices sharing them, the two layouts that count_below_many
and eigenvalues_many give the kernel.  Shapes are timed in interleaved
repeats and the median is printed; the float loop is timed up to 2000
lanes only, where it is already far behind.

With --against, the array loop of another copy of tridiag.py (say, a
checkout of an earlier commit) is timed interleaved with this one, and
the median of the per-repeat ratios (this / other) is added.  Every
timed call also checks that both copies give the same counts.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time

import numpy as np

from randchain import tridiag

BATCH = 8
LANES = (16, 24, 32, 40, 48, 64, 96, 150, 300, 600, 1200, 2000, 4000, 8000, 16000, 30000)
FLOAT_LANES_MAX = 2000
REPEATS = 9


def load(path: str):
    spec = importlib.util.spec_from_file_location("tridiag_other", path)
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, default=400, help="matrix size (default 400)")
    parser.add_argument("--against", help="path of another tridiag.py whose array loop to time alongside")
    args = parser.parse_args()
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


if __name__ == "__main__":
    main()
