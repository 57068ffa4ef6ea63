"""randchain benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload chain-spectra --seed 1 --seconds 20 --trace 0

randchain is imported from the ``src`` directory next to ``perfbench/``,
and the run's files go under ``.perfbench_runs/`` beside it.  The
timed phase runs in a worker process (perfbench/worker.py) as whole
rounds of the workload's operations, back to back, for at least
--seconds.  Set-up (``import randchain`` plus building the inputs) is
timed in that worker and in two more set-up-only workers.  The parent
then computes the oracles, checks the outputs, prints a run record and,
as its last line, the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
cpu_s, peak_rss_mib); with --trace 1 the per-layer ones from a run whose
rounds alternate untraced and traced.  --quick shrinks every workload
to a few seconds for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS / OpenMP thread: set before numpy loads, and inherited by the workers.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # the timed worker plus two set-up-only workers
RUNS_DIR = ".perfbench_runs"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker(args, run_dir: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(run_dir),
           *(["--quick"] if args.quick else []), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def _versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__}


def bench(args) -> tuple[dict, dict]:
    """Run the workload; return (result line, run record)."""
    src = ROOT / "src"
    if not (src / "randchain" / "__init__.py").is_file():
        raise BenchError(f"no randchain sources under {src}")
    (ROOT / RUNS_DIR).mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / RUNS_DIR))
    try:
        setups = [json.loads(_worker(args, run_dir, "--setup-only").stdout.splitlines()[-1])
                  for _ in range(SETUP_SAMPLES - 1)]
        _worker(args, run_dir)
        result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
        return _evaluate(args, result, setups, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / RUNS_DIR).rmdir()
        except OSError:  # another run is still using it
            pass


def _evaluate(args, result: dict, setups: list, run_dir: Path) -> tuple[dict, dict]:
    import checks
    import workloads

    wl = workloads.build(args.workload, args.seed, args.quick)
    outputs = result["outputs"]
    checks.load_tables(outputs, run_dir)
    probes = {op.name: checks.probe(op, outputs[op.name]) for op in wl.ops}
    probe_failed = {name for name, (ok, _) in probes.items() if not ok}
    rounds = result["rounds"]
    failed = sum(len(probe_failed | set(r["failed"])) for r in rounds)
    verdicts = checks.run_checks(wl, outputs, probe_failed)
    steady = all(r["same_as_first"] for r in rounds)
    correct = steady and all(v.ok for v in verdicts)

    if args.trace:
        metrics = result["layers"]
    else:
        untraced = [r for r in rounds if not r["traced"]]
        metrics = {
            "wall_s": {"value": statistics.median(r["norm_wall_s"] for r in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_norm_s"] for s in [result, *setups]), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["norm_cpu_s"] for r in untraced), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS}, **_versions(),
        "import_s": [s["import_s"] for s in [result, *setups]],
        "setup_raw_s": [s["setup_s"] for s in [result, *setups]],
        "setup_scaled": [s["setup_scaled"] for s in [result, *setups]],
        "max_threads": result["max_threads"],
        "unscaled_ops": sorted({name for r in rounds for name in r["unscaled"]}),
        "rounds": [{k: r[k] for k in ("wall_s", "cpu_s", "waited_s", "norm_wall_s", "norm_cpu_s", "traced")}
                   for r in rounds],
        "op_wall_s": {op.name: statistics.median(r["op_wall_s"][i] for r in rounds) for i, op in enumerate(wl.ops)},
        "outputs_identical_across_rounds": steady,
        "failed_ops": {name: probes[name][1] for name in sorted(probe_failed)},
        "checks": [{"name": v.name, "ok": v.ok, "detail": v.detail} for v in verdicts],
        "csv_sha256": {f: h for rec in outputs.values() for f, h in rec.get("csv", {}).items()},
    }
    line = {"correct": correct, "attempted": len(rounds) * len(wl.ops), "failed": failed, "metrics": metrics}
    return line, record


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        line, record = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
