"""Smoke tests of three scripts under docs/ whose tables back the ledger.

docs/sturm_lanes.py times the loop shapes behind
tridiag._FLOAT_LOOP_LANES; with --against it loads a second tridiag.py
inside the randchain package.  docs/coalescence.py gives the
coalescence distances behind the verified blocks' lengths
(tridiag._BLOCK_SITES and _BLOCK_MIN).  docs/import_cost.py times the
imports behind ledgers D5 and D14.  Each runs here on small inputs, so
that a change that breaks one shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [
    ["docs/sturm_lanes.py", "--sites", "20", "--against", "src/randchain/tridiag.py"],
    ["docs/coalescence.py", "--horizon", "2048", "--blocks", "4"],
    ["docs/import_cost.py", "--repeats", "1"],
], ids=["sturm_lanes", "coalescence", "import_cost"])
def test_docs_script_prints_a_table(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("|")]
    # A header, its |---| rule and at least one row.
    assert len(lines) >= 3 and lines[1].startswith("|---"), proc.stdout
