"""Table behind docs/DECISIONS.md (ledgers D5, D9 and D14): what importing randchain costs.

Run from the repository root:

    python docs/import_cost.py [--repeats N] [--against OTHER/src]

It prints one markdown table of import wall times, each the median over
fresh interpreters (one per import and repeat, the imports interleaved
within a repeat), with the scipy subpackages that each import leaves in
sys.modules.  The first rows are the cost of numpy, of numpy with
scipy.linalg alone (all that bisection loads, ledger D9), and of numpy
with scipy.special and then each heavier subpackage that randchain's
routes load, cumulatively; the last row is
`import randchain, randchain.cli` from the src directory beside this
script.  Only the import is timed, not the interpreter's own start.

With --against, the same import is timed from another copy's src
directory (say, a checkout of an earlier commit), interleaved with this
one, and the median of the per-repeat ratios (this / other) is added.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REPEATS = 9
STAGES = (
    ("numpy", "import numpy"),
    ("+ scipy.linalg, no scipy.special", "import numpy, scipy.linalg"),
    ("+ scipy.special", "import numpy, scipy.special"),
    ("+ scipy.linalg", "import numpy, scipy.special, scipy.linalg"),
    ("+ scipy.integrate", "import numpy, scipy.special, scipy.integrate"),
    ("+ scipy.stats", "import numpy, scipy.special, scipy.integrate, scipy.stats"),
)
RANDCHAIN = "import randchain, randchain.cli"

CHILD = """
import sys, time
start = time.perf_counter()
{stmt}
took = time.perf_counter() - start
subs = {{m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}}
print(took, " ".join(sorted(s for s in subs if not s.startswith("_") and s != "version")))
"""


def fresh(stmt: str, src: Path) -> tuple[float, str]:
    """Seconds that stmt takes in a new interpreter, and the scipy subpackages it loads."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(stmt=stmt)], env=env, capture_output=True, text=True, check=True
    ).stdout.split(maxsplit=1)
    return float(out[0]), (out[1].strip() if len(out) > 1 else "")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=REPEATS, help=f"fresh interpreters per import (default {REPEATS})")
    parser.add_argument("--against", type=Path, help="another copy's src directory to time alongside")
    args = parser.parse_args()
    rows = [(label, stmt, SRC) for label, stmt in STAGES] + [("randchain, randchain.cli", RANDCHAIN, SRC)]
    if args.against is not None:
        rows.append((f"randchain, randchain.cli from {args.against}", RANDCHAIN, args.against))
    times = {label: [] for label, _, _ in rows}
    loaded = {}
    for _ in range(args.repeats):
        for label, stmt, src in rows:
            took, loaded[label] = fresh(stmt, src)
            times[label].append(took)
    print(f"Import wall time in fresh interpreters, median of {args.repeats} interleaved repeats")
    print()
    print("| import | s | scipy subpackages loaded |")
    print("|---|---|---|")
    for label, _, _ in rows:
        subs = ", ".join(loaded[label].split()) or "—"
        print(f"| {label} | {statistics.median(times[label]):.3f} | {subs} |")
    if args.against is not None:
        ours, other = times[rows[-2][0]], times[rows[-1][0]]
        ratio = statistics.median(a / b for a, b in zip(ours, other))
        print()
        print(f"this / other: {ratio:.2f} (median of per-repeat ratios)")


if __name__ == "__main__":
    main()
