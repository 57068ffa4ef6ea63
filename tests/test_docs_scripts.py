"""Smoke tests of the scripts under docs/ whose tables back the ledger.

Every docs/*.py script is imported (not run), so a name it imports that
the package no longer has fails here in seconds.  Three of them also
run on small inputs, so that a change that breaks one shows:
docs/sturm_lanes.py times the loop shapes behind
tridiag._FLOAT_LOOP_LANES; with --against it loads a second tridiag.py
inside the randchain package.  docs/coalescence.py gives the
coalescence distances behind the verified blocks' lengths
(tridiag._BLOCK_SITES and _BLOCK_MIN).  Of its --times tables, which
time the per-step loops at the benchmark's call shapes, the stationary
paths' table (ledgers D11 and D18) runs once per call, so that a stale
name inside a timed call fails here; the transfer table (D16 and D17,
with --against a second lyapunov.py loaded the same way) is only
imported, since one run takes over ten seconds.
docs/import_cost.py times the imports behind ledgers D5 and D14.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("docs/*.py"))


def _env():
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("script", SCRIPTS, ids=[path.stem for path in SCRIPTS])
def test_docs_script_imports(script):
    code = f"import runpy; runpy.run_path({str(script)!r}, run_name='docs_script')"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_coalescence_times_the_stationary_paths():
    # One repeat of each timed call, loop and blocks, asserted bitwise equal by the script.
    script = ROOT / "docs" / "coalescence.py"
    code = f"import runpy; runpy.run_path({str(script)!r}, run_name='docs_script')['times'](repeats=1)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("|")]
    assert len(rows) == 2 + 2 and "omega_type2_mc" in rows[-1], proc.stdout


@pytest.mark.parametrize("args", [
    ["docs/sturm_lanes.py", "--sites", "20", "--against", "src/randchain/tridiag.py"],
    ["docs/coalescence.py", "--horizon", "2048", "--blocks", "4"],
    ["docs/import_cost.py", "--repeats", "1"],
], ids=["sturm_lanes", "coalescence", "import_cost"])
def test_docs_script_prints_a_table(args):
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("|")]
    # A header, its |---| rule and at least one row.
    assert len(lines) >= 3 and lines[1].startswith("|---"), proc.stdout
