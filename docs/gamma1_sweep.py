"""Tables behind docs/DECISIONS.md: the 1/alpha Lyapunov coefficient of the type I chain.

Run from the repository root:

    PYTHONPATH=src python docs/gamma1_sweep.py

It prints two markdown tables.  The first checks the exact-solution
exponent (exact.lyapunov_exact) against transfer Monte Carlo at strong
disorder.  The second sweeps omega^2 in {0.5, 1, 2, 3} and alpha in
{50, 100, 200}, gives alpha * gamma from both routes, fits the slope of
gamma against 1/alpha through the origin (as acceptance criterion 8
does) and sets it beside the two candidate coefficients
1/(8 (1 - omega^2/4)) and 1/(8 (4/omega^2 - 1)).  All Monte Carlo runs
use transfer_lyapunov's default 50 blocks and seed (8, alpha).
"""

from __future__ import annotations

import numpy as np

from randchain.chain import TYPE_I, Gamma
from randchain.exact import gamma1_coefficient, lyapunov_exact
from randchain.lyapunov import transfer_lyapunov

CHECK_ALPHAS = (3, 10)
CHECK_OMEGA_SQ = (1.0, 3.0)
CHECK_STEPS = 4 * 10**6

SWEEP_ALPHAS = (50, 100, 200)
SWEEP_OMEGA_SQ = (0.5, 1.0, 2.0, 3.0)
SWEEP_STEPS = 2 * 10**6


def monte_carlo(alpha: int, omega_sq: float, n_steps: int):
    return transfer_lyapunov(TYPE_I, Gamma(alpha, alpha), omega_sq, n_steps, seed=(8, alpha))


def slope(alphas, gammas) -> float:
    inv = 1.0 / np.asarray(alphas, dtype=float)
    return float(np.dot(inv, gammas) / np.dot(inv, inv))


def identity_table() -> None:
    print(f"Exact-solution exponent against transfer Monte Carlo ({CHECK_STEPS:.0e} steps, seed (8, alpha))")
    print()
    print("| alpha | omega^2 | exact gamma | MC gamma | MC stderr | (MC - exact) / stderr |")
    print("|---|---|---|---|---|---|")
    for a in CHECK_ALPHAS:
        for w2 in CHECK_OMEGA_SQ:
            ex = lyapunov_exact(Gamma(a, a), w2)
            mc = monte_carlo(a, w2, CHECK_STEPS)
            print(f"| {a} | {w2:g} | {ex:.6f} | {mc.gamma:.6f} | {mc.stderr:.6f} | {(mc.gamma - ex) / mc.stderr:+.2f} |")
    print()


def sweep_table() -> None:
    print(f"alpha * gamma, exact and Monte Carlo ({SWEEP_STEPS:.0e} steps, seed (8, alpha)), and the 1/alpha slopes")
    print()
    head = " | ".join(f"alpha={a} exact / MC" for a in SWEEP_ALPHAS)
    print(f"| omega^2 | {head} | exact slope | MC slope | 1/(8(1-w2/4)) | 1/(8(4/w2-1)) | MC slope / new | MC slope / old |")
    print("|---" * (len(SWEEP_ALPHAS) + 7) + "|")
    for w2 in SWEEP_OMEGA_SQ:
        ex = [lyapunov_exact(Gamma(a, a), w2) for a in SWEEP_ALPHAS]
        mc = [monte_carlo(a, w2, SWEEP_STEPS).gamma for a in SWEEP_ALPHAS]
        cells = " | ".join(f"{a * e:.4f} / {a * m:.4f}" for a, e, m in zip(SWEEP_ALPHAS, ex, mc))
        new = gamma1_coefficient(w2)
        old = 1.0 / (8.0 * (4.0 / w2 - 1.0))
        mc_slope = slope(SWEEP_ALPHAS, mc)
        print(
            f"| {w2:g} | {cells} | {slope(SWEEP_ALPHAS, ex):.4f} | {mc_slope:.4f} | "
            f"{new:.4f} | {old:.4f} | {mc_slope / new:.2f} | {mc_slope / old:.2f} |"
        )
    print()


if __name__ == "__main__":
    identity_table()
    sweep_table()
