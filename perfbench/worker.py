"""Timed phase of one benchmark run, in a process of its own.

Imports randchain from the ``src`` directory next to ``perfbench/``,
builds the workload's inputs, then runs whole rounds of its operations
back to back until the requested seconds have passed.  Operation
outputs (CSV digests, printed
values, library return values) are written to ``result.json`` in the
run directory for the parent to check; nothing is checked here, so the
timed phase holds no oracle work.

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import speed
import workloads


def _plain(x):
    """JSON-ready copy of a library return value."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _bind(op, rc):
    """Convert benchmark-drawn matrices to the program's types (part of set-up)."""

    def conv(v):
        if isinstance(v, workloads.Sym):
            return rc.tridiag.SymTridiag(v.diag, v.off)
        if isinstance(v, workloads.Antisym):
            return rc.tridiag.AntisymTridiag(v.sup)
        return v

    return tuple(conv(a) for a in op.args), {k: conv(v) for k, v in op.kwargs.items()}


SRC = Path(__file__).resolve().parent.parent / "src"


def run_op(op, bound, rc, out_dir: Path) -> tuple[dict, speed.Mark, speed.Mark]:
    """Run one operation; return its record and the clocks at its start and end."""
    sink = io.StringIO()
    record: dict = {}
    start = speed.mark()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if op.argv:
                record["rc"] = rc.cli.run([*op.argv, "--out", str(out_dir), "--prefix", op.name])
            else:
                mod, fn = op.call.split(".")
                value = getattr(getattr(rc, mod), fn)(*bound[0], **bound[1])
                record["rc"] = 0
    except Exception as exc:  # a library call that raises is a failed operation
        record["rc"] = -1
        record["error"] = f"{type(exc).__name__}: {exc}"
    end = speed.mark()
    if op.argv:
        record["stdout"] = sink.getvalue()
        record["csv"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob(f"{op.name}_*.csv"))
        }
    elif record["rc"] == 0:
        record["value"] = _plain(value)
    return record, start, end


def _digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))

    with speed.SpeedSampler() as sampler:
        return _measure(args, Path(args.out), sampler)


def _measure(args, out_dir: Path, sampler: speed.SpeedSampler) -> int:
    start = speed.mark()
    import randchain as rc
    import randchain.cli  # noqa: F401  (the package does not import its CLI)

    import_s = time.perf_counter() - start.wall
    if Path(rc.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"randchain imported from {rc.__file__}, not from {SRC}")
    wl = workloads.build(args.workload, args.seed, args.quick)
    bound = [_bind(op, rc) for op in wl.ops]
    end = speed.mark()
    norm_s, _, scaled = sampler.measure(start, end)
    setup = {"setup_s": end.wall - start.wall, "import_s": import_s, "setup_norm_s": norm_s, "setup_scaled": scaled}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = spans.Tracer() if args.trace else None
    rounds = []
    outputs = None
    start = time.perf_counter()
    while True:
        # In a traced run the rounds alternate untraced / traced, so the
        # run itself measures the tracing overhead.
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        records, marks = [], []
        for op, b in zip(wl.ops, bound):
            rec, *pair = run_op(op, b, rc, out_dir)
            records.append(rec)
            marks.append(pair)
        walls = [end.wall - start.wall for start, end in marks]
        norm = [sampler.measure(start, end) for start, end in marks]
        if traced:
            tracer.uninstall()
        if outputs is None:
            outputs = records
        rounds.append({
            "wall_s": sum(walls),
            "cpu_s": sum(end.cpu - start.cpu for start, end in marks),
            "waited_s": sum(end.waited - start.waited for start, end in marks),
            "norm_wall_s": sum(w for w, _, _ in norm),
            "norm_cpu_s": sum(c for _, c, _ in norm),
            "op_wall_s": walls,
            "op_norm_wall_s": [w for w, _, _ in norm],
            "traced": traced,
            "unscaled": [op.name for op, (_, _, scaled) in zip(wl.ops, norm) if not scaled],
            "failed": [op.name for op, r in zip(wl.ops, records) if r["rc"] != 0],
            "same_as_first": all(_digest(r) == _digest(f) for r, f in zip(records, outputs)),
        })
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (tracer is None or len(rounds) >= 2):
            break
    result = {
        **setup,
        # Peak of this process plus that of its largest reaped child, if any.
        "peak_rss_mib": sum(resource.getrusage(who).ru_maxrss
                            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
        "max_threads": sampler.max_threads,
        "rounds": rounds,
        "outputs": {op.name: rec for op, rec in zip(wl.ops, outputs)},
    }
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        plain = statistics.median(r["norm_wall_s"] for r in rounds if not r["traced"])
        result["layers"] = spans.layer_metrics(
            tracer.snapshot(),
            len(traced),
            result["import_s"],
            statistics.fmean(r["wall_s"] for r in traced),
            100.0 * (statistics.median(r["norm_wall_s"] for r in traced) - plain) / plain,
        )
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
