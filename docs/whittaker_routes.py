"""Table behind docs/DECISIONS.md (ledgers D8, D10): which route serves |W|^2, how well and how fast.

Run from the repository root:

    python docs/whittaker_routes.py [--c 0.5 1 ...] [--mu 20 40 ...] [--repeats N]

For every (c, mu) of the grid it prints the route whittaker_msq takes
(the large-mu series of U(c, 1, z) or the lip solve along the cut), the
smallest series term over the series sum, the relative error of
whittaker_msq and of the lip solve alone against mpmath.whitw at 40
digits, and the microseconds per call of whittaker_msq and of the lip
solve alone (the best of --repeats calls).  A second table gives, for each c, the
first mu on a step-0.25 grid from 1 to 100 at which the series takes
over.  The randchain imported is the one in the src directory beside
this script.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from randchain import specfun  # noqa: E402

CS = (0.01, 0.5, 1.0, 2.0, 5.0, 9.0, 20.0)
MUS = (20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0)
REPEATS = 5


def reference(c: float, mu: float) -> float:
    """|W_{1/2-c,0}(-mu + i0)|^2 from mpmath at 40 digits, just above the cut."""
    with mpmath.workdps(40):
        return float(abs(mpmath.whitw(0.5 - c, 0, mpmath.mpc(-mu, 1e-25 * mu))) ** 2)


def solve_msq(c: float, mu: float) -> float:
    """|W|^2 from the lip solve alone, whatever route whittaker_msq takes."""
    log_v, _ = specfun._lip_solve(c, mu)
    return mu * math.exp(2.0 * float(log_v.real) - 2.0 * math.lgamma(c))


def best_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e6 * min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--c", type=float, nargs="+", default=CS, help="values of c (default %(default)s)")
    parser.add_argument("--mu", type=float, nargs="+", default=MUS, help="values of mu (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=REPEATS, help=f"timed calls per point (default {REPEATS})")
    args = parser.parse_args()
    specfun.whittaker_msq(1.0, 1.0)  # warms numpy's linear algebra before any timing
    print(f"Routes of whittaker_msq, eps = {specfun._SERIES_EPS:g}; errors against mpmath at 40 digits")
    print()
    print("| c | mu | route | smallest term / sum | rel. error | solve rel. error | us per call | solve us per call |")
    print("|---|---|---|---|---|---|---|---|")
    worst = {"series": 0.0, "solve": 0.0}
    for c in args.c:
        for mu in args.mu:
            smallest = float(specfun._large_mu_sum(c, np.array([mu]))[1][0])
            route = "series" if smallest < specfun._SERIES_EPS else "solve"
            ref = reference(c, mu)
            err = abs(specfun.whittaker_msq(c, mu) / ref - 1.0)
            solve_err = abs(solve_msq(c, mu) / ref - 1.0)
            worst[route] = max(worst[route], err)
            us = best_us(lambda: specfun.whittaker_msq(c, mu), args.repeats)
            solve_us = best_us(lambda: specfun._lip_solve(c, mu), args.repeats)
            print(f"| {c:g} | {mu:g} | {route} | {smallest:.1e} | {err:.1e} | {solve_err:.1e} | {us:.0f} | {solve_us:.0f} |")
    print()
    print(f"worst rel. error: series {worst['series']:.1e}, solve {worst['solve']:.1e}")
    print()
    print("| c | series from mu |")
    print("|---|---|")
    grid = np.arange(1.0, 100.0 + 0.125, 0.25)
    for c in args.c:
        served = specfun._large_mu_sum(c, grid)[1] < specfun._SERIES_EPS
        print(f"| {c:g} | {grid[np.argmax(served)]:g} |" if served.any() else f"| {c:g} | none up to 100 |")


if __name__ == "__main__":
    main()
