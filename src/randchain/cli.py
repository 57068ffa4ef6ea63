"""Command-line front end: reproducible experiments with CSV/JSON output.

Each ``cmd_*`` computes its curves and returns them as ``(name, header,
columns)`` tables; ``run()`` hands them to ``_write_outputs``, the one
function that writes files.  It writes each table as CSV (comma
separated, header row naming the physical quantity), in order, and then
a JSON manifest recording the command, parameters, seed, tool version
and output files.  No file is written until every table is computed, so
a failing command leaves no output.  Identical arguments and seed
produce byte-identical CSV files.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O failure.
The library refuses each bad value itself, and run() maps the exception
class: a ValueError (a value the library refuses, or a UsageError from
the few checks only the front end can make) is a usage error, and an
ArithmeticError (a computation that fails, such as a WhittakerError, a
non-finite Lyapunov estimate or a leaking schmidt.GridError) is a
numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, betaens, chain, exact, lyapunov, schmidt, specfun, tridiag
from .specfun import scaling_dos, scaling_dos_rotated, scaling_f, scaling_f_rotated

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Sites plus probe lanes per realization (one lane per grid edge, ledger
# D12) that `dos` counts in one batched Sturm sweep.  It bounds a sweep's
# memory (about five float arrays of this many elements).  The sweep is
# bound by numpy dispatch per site, so a realization's share keeps falling
# as more share it: at 4001 sites and 30 edges, 5.9 ms alone, 1.5 ms in a
# sweep of 4, 0.77 in one of 16, 0.65 in one of 32 and 0.60 in one of 64
# (docs/sturm_lanes.py --mirror, 2-core box).  This budget sweeps 32 such
# realizations at once, in about 5 MB.
_DOS_BLOCK_ELEMENTS = 1 << 17

# Lanes times sites (per sample: wanted eigenvalues times matrix size) that
# `betaens` bisects in one batch; it bounds the batch's arrays.  The batch
# shares each Sturm sweep's numpy dispatch per site, and each sample pays
# for its own LAPACK estimates (ledger D9): at N = 100 pairs a sample costs
# 4.3 ms alone, 1.9 ms in a batch of 16 and 1.7 ms in one of 128 (2.6e6
# elements).
_BETAENS_BLOCK_ELEMENTS = 1 << 22


class UsageError(ValueError):
    """A malformed command-line value; run() maps it, as every ValueError, to EXIT_USAGE."""


def parse_grid(spec: str) -> np.ndarray:
    """Grid syntax lo:hi:n (linear); prefix 'g' for geometric spacing."""
    geometric = spec.startswith("g")
    body = spec[1:] if geometric else spec
    parts = body.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be lo:hi:n or glo:hi:n, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid {spec!r}: {exc}") from exc
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise UsageError(f"bad grid {spec!r}")
    if geometric:
        if lo <= 0:
            raise UsageError("geometric grid needs lo > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


_LAWS = {
    "const": (chain.Constant, 1),
    "gamma": (chain.Gamma, 2),
    "twopoint": (chain.TwoPoint, 3),
    "gauss": (chain.GaussianPotential, 1),
}


def parse_law(text: str) -> chain.DisorderLaw:
    """Disorder law syntax: const:v | gamma:alpha:rate | twopoint:m:M:p | gauss:var."""
    kind, *fields = text.split(":")
    if kind not in _LAWS:
        raise UsageError(f"unknown disorder law kind {kind!r}")
    law, arity = _LAWS[kind]
    if len(fields) != arity:
        raise UsageError(f"bad disorder law {text!r}: {kind} takes {arity} value(s)")
    try:
        values = [float(f) for f in fields]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("values must be finite")
        return law(*values)
    except ValueError as exc:
        raise UsageError(f"bad disorder law {text!r}: {exc}") from exc


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = len(columns[0])
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(f"{col[i]:.12g}" for col in columns) + "\n")


def _write_outputs(args, tables: list) -> None:
    """Write each (name, header, columns) table as <prefix>_<name>.csv, then the manifest."""
    if not tables:
        return
    out = Path(args.out)
    prefix = args.prefix or args.command
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for name, header, columns in tables:
        path = out / f"{prefix}_{name}.csv"
        write_csv(path, header, columns)
        files.append(str(path))
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": args.seed,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "output_files": files,
        "parallelism": 1,  # module work runs sequentially in this front end
    }
    (out / f"{prefix}_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_pure(args) -> list:
    what = args.what
    if args.x is not None:
        print(f"{getattr(exact.pure_chain(args.x), what):.12g}")
        return []
    if args.grid is None:
        raise UsageError("pure needs --x or --grid")
    xs = parse_grid(args.grid)
    col = np.array([getattr(exact.pure_chain(float(x)), what) for x in xs])
    name = {"xi": "xi", "omega": "Omega", "dos": "D", "idos": "M"}[what]
    return [(what, ["x", name], [xs, col])]


def cmd_exact(args) -> list:
    p = chain.Gamma(args.alpha, args.kappa)
    xs = parse_grid(args.grid)
    if args.what == "omega":
        return [("omega", ["x", "Omega"], [xs, exact.omega_exact(p, xs)])]
    if args.what == "dos":
        return [("dos", ["mu", "D"], [xs, exact.dos_exact(p, xs)])]
    return [("idos", ["x", "M"], [xs, exact.idos_exact(p, xs)])]


def cmd_schmidt(args) -> list:
    law = parse_law(args.law)
    # Checked for every --op: some ops never hand these to the library.
    if args.samples < 1 or args.burn_in < 0:
        raise UsageError("need --samples >= 1 and --burn-in >= 0")
    if not args.spring_k > 0:
        raise UsageError("--spring-k must be positive")
    if args.op == "density" and args.grid is None:
        raise UsageError("--op density needs --grid")
    if args.op == "omega":
        val = schmidt.omega_mc(schmidt.XiTypeI(args.x), law, args.samples, seed=args.seed, burn_in=args.burn_in)
        print(f"{val:.12g}")
        return []
    if args.op == "omega2":
        val = schmidt.omega_type2_mc(law, args.spring_k, args.x, args.samples, seed=args.seed, burn_in=args.burn_in)
        print(f"{val:.12g}")
        return []
    if args.op == "nodefrac":
        grid = parse_grid(args.grid) if args.grid else np.array([args.x])
        vals = schmidt.idos_node_fraction(law, args.spring_k, grid, args.samples, seed=args.seed)
        if not args.grid:
            print(f"{vals[0]:.12g}")
            return []
        return [("idos", ["omega_sq", "M"], [grid, vals])]
    pts = parse_grid(args.grid)
    start = schmidt.DensityGrid(pts, np.full(pts.size, 1.0 / pts.size))
    kind = schmidt.XiTypeI(args.x) if args.kind == "xi" else schmidt.RatioTypeII(args.x, args.spring_k)
    grid_out, residuals = schmidt.density_iteration(kind, law, start, args.iters)
    print(f"final L1 residual {residuals[-1]:.3g}")
    return [("density", ["point", "weight"], [grid_out.points, grid_out.weights])]


def cmd_lyapunov(args) -> list:
    law = parse_law(args.law)
    kind = {"type1": chain.TYPE_I, "type2": chain.TYPE_II, "anderson": chain.ANDERSON}[args.model]
    grid = parse_grid(args.grid)
    # Grid point i draws from the seed (seed, i).
    ests = lyapunov.transfer_lyapunov(kind, law, grid, args.steps, seed=args.seed, spring_k=args.spring_k)
    label = "E" if kind == chain.ANDERSON else "omega_sq"
    columns = [grid, np.array([e.gamma for e in ests]), np.array([e.stderr for e in ests])]
    return [("gamma", [label, "gamma", "stderr"], columns)]


def cmd_scaling(args) -> list:
    xs = parse_grid(args.grid)
    columns = [xs, scaling_f(xs), scaling_f_rotated(xs), scaling_dos(xs), scaling_dos_rotated(xs)]
    return [("scaling", ["x", "F", "F_rotated", "dos_scale", "dos_scale_rotated"], columns)]


def cmd_betaens(args) -> list:
    spec = betaens.BetaEnsembleSpec(args.pairs, beta=args.beta, c=args.c_over_n)
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    # One batched bisection per block of samples, spectra in sample order.
    block = max(1, _BETAENS_BLOCK_ELEMENTS // (spec.n_pairs * (2 * spec.n_pairs + 1)))
    ys = []
    for first in range(0, args.samples, block):
        seeds = range(first, min(first + block, args.samples))
        ms = [betaens.sample_matrix(spec, seed=(args.seed, s)) for s in seeds]
        ys += [y.values for y in betaens.squared_spectrum(ms)]
    ys = np.sort(np.concatenate(ys))
    spectrum = ("spectrum", ["y", "cdf"], [ys, np.arange(1, ys.size + 1) / ys.size])
    if args.c_over_n is None:
        scaled = np.sort(ys / spec.mp_unit())
        inside = scaled[(scaled > 0) & (scaled < 1)]
        return [spectrum, ("mp_target", ["mu", "D"], [inside, betaens.mp_density(inside)])]
    mus = np.geomspace(max(1e-6, float(ys[ys > 0].min())), float(ys.max()), 40)
    return [spectrum, ("whittaker_target", ["mu", "D"], [mus, betaens.con_density(args.c_over_n, mus)])]


def cmd_dos(args) -> list:
    law = parse_law(args.law)
    if isinstance(law, chain.GaussianPotential):
        raise UsageError("dos needs a positive --law, not a signed potential")
    if args.realizations < 1:
        raise UsageError("--realizations must be at least 1")
    if args.size < 3:
        raise UsageError("--size must be at least 3: a smaller chain has no frequency pair")
    if args.size % 2 == 0:
        raise UsageError("--size must be odd: the lattice has 2N-1 sites")
    n_masses = (args.size + 1) // 2
    edges = parse_grid(args.grid)
    if edges.size < 2:
        raise UsageError("--grid must have at least 2 edges: a single edge bounds no bin")
    centers = 0.5 * (edges[1:] + edges[:-1])
    acc = np.zeros(centers.size)
    # One Sturm sweep per block of realizations.  Rows come back in
    # realization order, so the sums are those of a plain loop.
    block = max(1, _DOS_BLOCK_ELEMENTS // (args.size + edges.size))
    for first in range(0, args.realizations, block):
        hs = [
            chain.anderson_hopping(chain.ChainSpec(chain.TYPE_I, n_masses, law, seed=(args.seed, s)))
            for s in range(first, min(first + block, args.realizations))
        ]
        for m in chain.empirical_idos(hs, edges):
            acc += np.diff(m) / np.diff(edges)
    cols = [centers, acc / args.realizations]
    header = ["mu", "D_empirical"]
    if isinstance(law, chain.Gamma):
        header.append("D_exact")
        cols.append(exact.dos_exact(law, centers))
    return [("dos", header, cols)]


def _selftest_checks():
    rng = np.random.default_rng(42)

    def scaling_duals():
        xs = np.linspace(-6, 6, 61)
        d1 = np.max(np.abs(scaling_f(xs) - scaling_f_rotated(xs)))
        d2 = np.max(np.abs(scaling_dos(xs) - scaling_dos_rotated(xs)))
        return max(d1, d2) < 1e-8, f"max diff {max(d1, d2):.2e}"

    def pure_values():
        v = exact.pure_chain(2.0)
        ok = (
            abs(v.idos - 0.5) < 1e-15
            and abs(v.omega - 2 * math.log(2)) < 1e-15
            and abs(v.dos - 1 / (2 * math.pi)) < 1e-15
        )
        return ok, "M(2), Omega(2), D(2)"

    def sturm_exact():
        t = tridiag.SymTridiag(rng.normal(size=60), rng.uniform(0.2, 1.5, 59))
        ev = np.linalg.eigvalsh(t.to_dense())
        ok = all(tridiag.count_below(t, float(x)) == int(np.sum(ev < x)) for x in rng.uniform(-3, 3, 12))
        return ok, "counts vs dense eigensolver"

    def zero_mode():
        r = chain.realize(chain.ChainSpec(chain.TYPE_II, 40, chain.TwoPoint(1, 2, 0.3), seed=5))
        fm = chain.frequency_matrix(r)
        lo = tridiag.eigenvalues(fm).values[0]
        return abs(lo) < 1e-9, f"zero mode at {lo:.1e}"

    def trace_log():
        lam = tridiag.AntisymTridiag(np.array([1.0, 1.0]))
        s, d = tridiag.tracelog_check(lam, 0.1, 40)
        return abs(s - d) < 1e-10, f"|series-direct| {abs(s - d):.1e}"

    def node_duality():
        masses = np.where(rng.random(400) < 0.3, 1.0, 2.0)
        nc = schmidt.node_count(masses, 1.0, 1.37)
        t = tridiag.SymTridiag(2.0 / masses, -1.0 / np.sqrt(masses[:-1] * masses[1:]))
        dense = int(np.sum(np.linalg.eigvalsh(t.to_dense()) < 1.37))
        return nc == dense, f"count {nc} vs dense eigensolver"

    def letac_quick():
        r = schmidt.letac_check(1.0, 1.0, 1.0, 20000, seed=11)
        return r.statistic < 0.02, f"KS {r.statistic:.4f}"

    def gamma_sampler():
        x = chain.Gamma(2.0, 1.0).sample(specfun.rng_from_seed(13), 200000)
        z = (x.mean() - 2.0) / (x.std() / math.sqrt(x.size))
        return abs(z) < 4.0, f"mean z-score {z:.2f}"

    def mp_quick():
        spec = betaens.BetaEnsembleSpec(60, beta=2.0)
        ms = [betaens.sample_matrix(spec, seed=(3, s)) for s in range(10)]
        ys = np.concatenate([y.values for y in betaens.squared_spectrum(ms)])
        mus = np.sort(ys / spec.mp_unit())
        ks = float(np.max(np.abs(np.arange(1, mus.size + 1) / mus.size - betaens.mp_cdf(mus))))
        return ks < 0.06, f"KS {ks:.4f}"

    def lip_solve_meets_series():
        # Past the turning point the large-mu series of U gives these points:
        # an independent route to Gamma(c)^2 |W|^2.
        gaps = []
        for c, mu in ((0.5, 60.0), (1.0, 80.0), (2.0, 100.0)):
            log_v, _ = specfun._lip_solve(c, mu)
            gaps.append(abs(math.log(mu) + 2.0 * log_v.real - math.log(specfun._scaled_msq(c, mu)[0])))
        return max(gaps) < 1e-12, f"max relative gap of |W|^2, lip solve to large-mu series {max(gaps):.1e}"

    def lyapunov_pure():
        est = lyapunov.transfer_lyapunov(chain.TYPE_II, chain.Constant(1.0), 6.0, 100000, seed=2)
        return abs(est.gamma - math.log(2 + math.sqrt(3))) < 1e-5, f"gamma {est.gamma:.8f}"

    return [
        ("scaling-dual-representations", scaling_duals),
        ("pure-chain-closed-forms", pure_values),
        ("sturm-count-exactness", sturm_exact),
        ("free-boundary-zero-mode", zero_mode),
        ("trace-log-identity", trace_log),
        ("node-count-duality", node_duality),
        ("letac-identity", letac_quick),
        ("gamma-sampler-mean", gamma_sampler),
        ("marchenko-pastur", mp_quick),
        ("pure-chain-lyapunov", lyapunov_pure),
        ("whittaker-solve-meets-series", lip_solve_meets_series),
    ]


def cmd_selftest(args) -> list:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not a usage error
            ok, detail = False, f"exception {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        raise ArithmeticError(f"{failures} selftest check(s) failed")
    return []


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="randchain",
        description="Disordered-chain spectra: exact formulas, Monte Carlo, and beta-ensembles.",
        allow_abbrev=False,  # _apply_config finds --config only by its full name
    )
    ap.add_argument("--config", default=None, help="flat key=value file; flags override")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--prefix", default=None, help="output file prefix")

    p = sub.add_parser("pure", help="closed forms of the chain without disorder")
    p.add_argument("--what", choices=["xi", "omega", "dos", "idos"], default="idos")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--grid", default=None)
    common(p)
    p.set_defaults(func=cmd_pure)

    p = sub.add_parser("exact", help="solvable gamma-coupling chain")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--what", choices=["idos", "dos", "omega"], default="idos")
    p.add_argument("--grid", required=True, help="lo:hi:n or glo:hi:n")
    common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("schmidt", help="stationary recursions and node counting")
    p.add_argument("--op", choices=["omega", "omega2", "nodefrac", "density"], required=True)
    p.add_argument("--law", required=True, help="const:v | gamma:a:k | twopoint:m:M:p")
    p.add_argument("--x", type=float, default=1.0, help="argument x or omega_sq")
    p.add_argument("--spring-k", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--burn-in", type=int, default=schmidt.DEFAULT_BURN_IN)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--kind", choices=["xi", "ratio2"], default="xi")
    p.add_argument("--grid", default=None)
    common(p)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("lyapunov", help="transfer-matrix Lyapunov exponents")
    p.add_argument("--model", choices=["type1", "type2", "anderson"], required=True)
    p.add_argument("--law", required=True)
    p.add_argument("--spring-k", type=float, default=1.0)
    p.add_argument("--grid", required=True, help="omega_sq or E grid")
    p.add_argument("--steps", type=int, default=1000000)
    common(p)
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("scaling", help="band-edge scaling functions")
    p.add_argument("--grid", required=True)
    common(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("betaens", help="anti-symmetric beta-ensemble spectra")
    p.add_argument("--pairs", type=int, required=True)
    regime = p.add_mutually_exclusive_group(required=True)
    regime.add_argument("--beta", type=float, default=None)
    regime.add_argument("--c-over-n", type=float, default=None)
    p.add_argument("--samples", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_betaens)

    p = sub.add_parser("dos", help="empirical density of states of a chain")
    p.add_argument("--law", required=True)
    p.add_argument("--size", type=int, default=2001, help="lattice size 2N-1 (odd)")
    p.add_argument("--realizations", type=int, default=10)
    p.add_argument("--grid", required=True, help="bin edges lo:hi:n")
    common(p)
    p.set_defaults(func=cmd_dos)

    p = sub.add_parser("selftest", help="run the quick invariant suite")
    common(p)
    p.set_defaults(func=cmd_selftest)
    return ap


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Prepend defaults from a flat key=value file, `--config PATH` or `--config=PATH`; flags override."""
    idx = next((i for i, tok in enumerate(argv) if tok.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    _, inline, path = argv[idx].partition("=")
    if not inline:
        if idx + 1 == len(argv):
            ap.error("argument --config: expected one argument")
        path = argv[idx + 1]
    pairs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        pairs.extend([f"--{key.strip()}", value.strip()])
    # Insert config pairs right after the subcommand so explicit flags win.
    head = argv[:idx] + argv[idx + (1 if inline else 2) :]
    for i, tok in enumerate(head):
        if not tok.startswith("-"):
            return head[: i + 1] + pairs + head[i + 1 :]
    return head + pairs


# Built once: building costs about 2.5 ms, and parsing leaves the parser as it was.
_PARSER = build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(_apply_config(_PARSER, list(argv)))
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _write_outputs(args, args.func(args))
        return EXIT_OK
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
