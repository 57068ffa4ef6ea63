"""Regenerate the Monte Carlo spreads stored in checks.py.

    python3 perfbench/calibrate.py

Runs the transfer-mc workload's two stationary-recursion commands at
full size for command seeds 1..checks.CALIBRATION_SEEDS, in-process
through randchain.cli.run (randchain from the ``src`` directory next to
``perfbench/``), and prints the standard deviation of each printed
estimate.  checks.OMEGA_MC_SD and checks.OMEGA2_MC_SD hold these values;
they set the tolerance of the omega checks, which cannot get an error
bar from the command's output.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from randchain import cli

    wl = workloads.build("transfer-mc", 0)
    for name in ("omega_mc", "omega2_mc"):
        argv = list(wl.op(name).argv)
        values = []
        for seed in range(1, checks.CALIBRATION_SEEDS + 1):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                if cli.run([*argv[: argv.index("--seed")], "--seed", str(seed)]) != 0:
                    raise SystemExit(f"{name} failed at seed {seed}")
            values.append(float(sink.getvalue().split()[-1]))
        print(f"{name}: sd {statistics.stdev(values):.3g} over {len(values)} seeds "
              f"(mean {statistics.fmean(values):.6f})")


if __name__ == "__main__":
    main()
