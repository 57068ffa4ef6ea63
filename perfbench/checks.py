"""Checks of the program's outputs against the oracles and known properties.

Two kinds of verdict come out of here:

* a *probe* decides whether one operation failed: a Whittaker modulus
  point outside 1e-6 of mpmath, or an out-of-band contour point that
  errors or misses its closed form.  Failed operations are counted, not
  checked further;
* a *check* compares the outputs of operations that did not fail with
  an oracle or a property.  Any check that rejects makes the run
  incorrect.

Statistical checks allow Z standard errors, with the spreads measured
on the oracle's own chains, so the tolerance follows the run's size.
No check relies on how a command derives its internal seeds, and none
compares with a stored copy of earlier output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles as orc
import workloads as wls

Z = 5.0
WHITTAKER_RTOL = 1e-6
# Standard deviations of the printed Omega estimates at 3e5 samples over
# command seeds 1..CALIBRATION_SEEDS; regenerate with
# `python3 perfbench/calibrate.py`.
CALIBRATION_SEEDS = 20
OMEGA_MC_SD = 1.25e-3
OMEGA2_MC_SD = 9.2e-5


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str


def read_csv(path: Path) -> dict:
    """Columns of a CSV written by the CLI, by header name."""
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {h: data[:, i] for i, h in enumerate(header)}


def load_tables(outputs: dict, run_dir: Path) -> None:
    """Attach the parsed CSVs of each CLI operation as record["tables"]."""
    for name, rec in outputs.items():
        if "csv" in rec:
            rec["tables"] = {f[len(name) + 1 : -4]: read_csv(run_dir / f) for f in rec["csv"]}


def _worst(dev: np.ndarray, tol) -> tuple[bool, str]:
    ratio = np.abs(dev) / np.broadcast_to(tol, np.shape(dev))
    i = int(np.argmax(ratio))
    return bool(ratio[i] <= 1.0), f"worst |dev|/tol {ratio[i]:.3f} at index {i}"


def _edges(spec: str) -> np.ndarray:
    geometric = spec.startswith("g")
    lo, hi, n = spec.lstrip("g").split(":")
    return (np.geomspace if geometric else np.linspace)(float(lo), float(hi), int(n))


def _arg(op: wls.Op, flag: str) -> str:
    for i, tok in enumerate(op.argv):
        if tok == flag:
            return op.argv[i + 1]
        if tok.startswith(flag + "="):
            return tok.split("=", 1)[1]
    raise KeyError(flag)


# ----------------------------------------------------------------------
# probes: one verdict per operation
# ----------------------------------------------------------------------


def probe(op: wls.Op, rec: dict) -> tuple[bool, str]:
    """Whether an operation delivered a result; value probes also check it."""
    if rec["rc"] != 0:
        return False, rec.get("error") or rec.get("stdout", "").strip() or f"exit {rec['rc']}"
    if op.call == "specfun.whittaker_msq":
        c, mu = op.args
        ref = orc.whittaker_msq(c, mu)
        rel = abs(rec["value"] - ref) / ref
        return rel <= WHITTAKER_RTOL, f"rel err {rel:.2e} vs mpmath"
    if op.fault == wls.CONTOUR_FAULT:
        a = float(_arg(op, "--alpha"))
        x, m = rec["tables"]["idos"]["x"][0], rec["tables"]["idos"]["M"][0]
        ref = orc.weak_disorder_idos(a, x)
        return abs(m - ref) <= 0.3 * a ** (-2.0 / 3.0), f"M {m:.6g} vs closed form {ref:.6g}"
    return True, "ok"


# ----------------------------------------------------------------------
# checks per workload
# ----------------------------------------------------------------------

CHECKS: dict[str, list] = {w: [] for w in wls.WORKLOADS}


def check(workload: str, *needs: str):
    """Register a check of `workload` that reads the outputs of the ops `needs`."""

    def reg(fn):
        CHECKS[workload].append((fn.__name__, needs, fn))
        return fn

    return reg


# chain-spectra --------------------------------------------------------


def _type1_oracle(wl, law: str, size: int, chains: int, stream: int) -> list[np.ndarray]:
    """Squared frequencies of the oracle's own type I chains."""
    rng = wl.oracle_rng(stream)
    return [orc.type1_squared_frequencies(law, size, rng) for _ in range(chains)]


def _idos_increments(table: dict, edges: np.ndarray) -> np.ndarray:
    """m(e_k) - m(e_0) from a dos CSV, D being the bin-averaged density."""
    return np.concatenate([[0.0], np.cumsum(table["D_empirical"] * np.diff(edges))])


def _chain_idos(squared: list[np.ndarray], xs) -> tuple[np.ndarray, np.ndarray]:
    """Per-chain IDOS at xs: mean over chains and the spread of one chain."""
    per = np.array([np.searchsorted(s, xs, side="right") / s.size for s in squared])
    return per.mean(axis=0), per.std(axis=0, ddof=1)


@check("chain-spectra", "dos_gamma25")
def dos_gamma25_vs_lapack(wl, out):
    op = wl.op("dos_gamma25")
    edges, reals = _edges(_arg(op, "--grid")), int(_arg(op, "--realizations"))
    size = int(_arg(op, "--size"))
    own = _type1_oracle(wl, "gamma:2.5:1", size, 16, 1)
    mean, sd = _chain_idos(own, edges)
    got = _idos_increments(out["dos_gamma25"]["tables"]["dos"], edges)
    tol = Z * sd * math.sqrt(1.0 / reals + 1.0 / len(own)) + 2.0 / size
    return _worst(got - (mean - mean[0]), tol)


@check("chain-spectra", "dos_gamma1", "exact_idos_edges")
def dos_gamma1_vs_idos_exact(wl, out):
    """The empirical IDOS within 0.01 of idos_exact at alpha = 1 (at 20 realizations)."""
    op = wl.op("dos_gamma1")
    edges, reals = _edges(_arg(op, "--grid")), int(_arg(op, "--realizations"))
    m = out["exact_idos_edges"]["tables"]["idos"]["M"]
    got = _idos_increments(out["dos_gamma1"]["tables"]["dos"], edges)
    return _worst(got - (m - m[0]), 0.01 * math.sqrt(20.0 / reals))


def _bin_density(squared: list[np.ndarray], lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Per-chain mean density over [lo, hi] and its standard error."""
    per = np.array([(np.searchsorted(s, hi, side="right") - np.searchsorted(s, lo, side="right")) / s.size
                    for s in squared]) / (hi - lo)
    return per.mean(axis=0), per.std(axis=0, ddof=1) / math.sqrt(len(squared))


@check("chain-spectra", "exact_idos_tail")
def exact_idos_vs_lapack(wl, out):
    """idos_exact monotone in [0, 1] and within the IDOS of long own chains.

    Every point is checked, the Dyson tail down to x = 1e-6 included.  The
    counts are LAPACK dstebz counts on the odd-site block of H^2, less its
    one zero mode.
    """
    t = out["exact_idos_tail"]["tables"]["idos"]
    x, m = t["x"], t["M"]
    if np.any(np.diff(m) < 0) or np.any((m < 0) | (m > 1)):
        return False, "M not monotone in [0, 1]"
    rng = wl.oracle_rng(5)
    size, chains = (12501, 16) if wl.quick else (50001, 40)
    per = []
    for _ in range(chains):
        d, e = orc.hopping_square_block(orc.draw("gamma:1:1", rng, size - 1))
        per.append([(orc.window_count(d, e, -1.0, float(v)) - 1) / (d.size - 1) for v in x])
    per = np.array(per)
    return _worst(m - per.mean(axis=0), Z * per.std(axis=0, ddof=1) / math.sqrt(chains) + 2.0 / size)


@check("chain-spectra", "exact_dos")
def exact_dos_vs_lapack(wl, out):
    t = out["exact_dos"]["tables"]["dos"]
    mu, d = t["mu"], t["D"]
    half = 0.1
    sel = mu >= 2 * half
    own = _type1_oracle(wl, "gamma:1:1", 4001, 12, 2)
    dens, se = _bin_density(own, mu[sel] - half, mu[sel] + half)
    return _worst(d[sel] - dens, Z * se + 0.05 * d[sel])


@check("chain-spectra", "dos_tail")
def dos_tail_counts(wl, out):
    """Sturm counts are integers; the tail counts agree with LAPACK's within Poisson error."""
    op = wl.op("dos_tail")
    edges, reals, size = _edges(_arg(op, "--grid")), int(_arg(op, "--realizations")), int(_arg(op, "--size"))
    n_pairs = (size - 1) // 2
    counts = out["dos_tail"]["tables"]["dos"]["D_empirical"] * np.diff(edges) * reals * n_pairs
    if np.max(np.abs(counts - np.round(counts))) > 1e-6:
        return False, f"non-integer Sturm counts {counts}"
    rng, chains = wl.oracle_rng(3), 8
    own = np.zeros(edges.size - 1)
    for _ in range(chains):
        d, e = orc.hopping_square_block(orc.draw("gamma:2.5:1", rng, size - 1))
        own += [orc.window_count(d, e, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    a, b = counts / reals, own / chains
    tol = Z * np.sqrt(counts / reals**2 + own / chains**2) + 1.0
    ok, detail = _worst(a - b, tol)
    return ok, f"{detail}; per-chain counts {a} vs LAPACK {b}"


@check("chain-spectra", "nodefrac")
def nodefrac_vs_lapack(wl, out):
    op = wl.op("nodefrac")
    t = out["nodefrac"]["tables"]["idos"]
    n_prog, n_own, chains = int(_arg(op, "--samples")), 2000, 8
    rng = wl.oracle_rng(4)
    own = [orc.spectrum(*orc.fixed_frequency_matrix(orc.draw("twopoint:1:2:0.3", rng, n_own), 1.0))
           for _ in range(chains)]
    per = np.array([np.searchsorted(s, t["omega_sq"], side="left") / n_own for s in own])
    mean, sd = per.mean(axis=0), per.std(axis=0, ddof=1)
    tol = Z * sd * math.sqrt(n_own / n_prog + 1.0 / chains) + 2.0 / n_own
    return _worst(t["M"] - mean, tol)


@check("chain-spectra", "exact_omega")
def exact_omega_vs_mpmath(wl, out):
    op = wl.op("exact_omega")
    a, k = float(_arg(op, "--alpha")), float(_arg(op, "--kappa"))
    t = out["exact_omega"]["tables"]["omega"]
    ref = np.array([orc.omega_gamma_chain(a, k, float(x)) for x in t["x"]])
    return _worst(t["Omega"] - ref, 1e-8 * np.abs(ref))


@check("chain-spectra", *(f"exact_weak_{a}" for a in wls.WEAK_DISORDER_ALPHAS))
def weak_disorder_closed_form(wl, out):
    """M(2) and M(4) against the large-alpha expansion, within its next order."""
    dev, tol = [], []
    for a in wls.WEAK_DISORDER_ALPHAS:
        t = out[f"exact_weak_{a}"]["tables"]["idos"]
        for x, m in zip(t["x"], t["M"]):
            dev.append(m - orc.weak_disorder_idos(a, x))
            tol.append(0.1 / a**2 if x < 4.0 else 0.3 * a ** (-2.0 / 3.0))
    return _worst(np.array(dev), np.array(tol))


@check("chain-spectra", "sturm_many", *(f"sturm_one_{i}" for i in range(4)))
def sturm_counts_exact(wl, out):
    """Exact counts on the benchmark's own matrix, probes at least 1e-9 from any eigenvalue."""
    sym = wl.op("sturm_many").args[0]
    ev = orc.spectrum(sym.diag, sym.off)
    got, want = [], []
    for o in (o for o in wl.ops if o.call in ("tridiag.count_below", "tridiag.count_below_many")):
        xs = np.atleast_1d(o.args[1])
        gap = np.min(np.abs(ev[:, None] - xs[None, :]), axis=0)
        keep = gap > 1e-9
        got += list(np.atleast_1d(out[o.name]["value"])[keep])
        want += list(np.searchsorted(ev, xs[keep], side="left"))
    bad = int(np.sum(np.array(got) != np.array(want)))
    return bad == 0, f"{bad} of {len(want)} counts differ from LAPACK"


@check("chain-spectra", *(f"node_count_{i}" for i in range(4)))
def node_counts_exact(wl, out):
    ops = [o for o in wl.ops if o.call == "schmidt.node_count"]
    masses, k = ops[0].args[0], ops[0].args[1]
    ev = orc.spectrum(*orc.fixed_frequency_matrix(masses, k))
    bad = 0
    for o in ops:
        w2 = o.args[2]
        if np.min(np.abs(ev - w2)) <= 1e-9:
            continue
        bad += int(out[o.name]["value"] != int(np.searchsorted(ev, w2, side="left")))
    return bad == 0, f"{bad} of {len(ops)} node counts differ from LAPACK"


# transfer-mc ------------------------------------------------------------


def _thouless_check(wl, out, name, stream, oracle):
    t = out[name]["tables"]["gamma"]
    grid, gam, se = t[next(iter(t))], t["gamma"], t["stderr"]
    rng = wl.oracle_rng(stream)
    n, chains = (50000, 4) if wl.quick else (250000, 8)
    ref = np.array([oracle(float(v), rng, n, chains) for v in grid])
    return _worst(gam - ref[:, 0], Z * np.sqrt(se**2 + ref[:, 1] ** 2))


@check("transfer-mc", "lyap_type2")
def lyap_type2_thouless(wl, out):
    return _thouless_check(wl, out, "lyap_type2", 1,
                           lambda w2, rng, n, c: orc.thouless_type2("twopoint:1:2:0.5", 1.0, w2, rng, n, c))


@check("transfer-mc", "lyap_type1")
def lyap_type1_thouless(wl, out):
    return _thouless_check(wl, out, "lyap_type1", 2,
                           lambda w2, rng, n, c: orc.thouless_hopping("gamma:2:2", math.sqrt(w2), rng, n, c))


@check("transfer-mc", "lyap_anderson")
def lyap_anderson_thouless(wl, out):
    return _thouless_check(wl, out, "lyap_anderson", 3,
                           lambda e, rng, n, c: orc.thouless_anderson("gauss:0.1", e, rng, n, c))


@check("transfer-mc", "lyap_pure")
def pure_chain_closed_form(wl, out):
    """gamma(2) = 0 inside the band and gamma(6) = log(2 + sqrt 3) above it."""
    t = out["lyap_pure"]["tables"]["gamma"]
    ref = np.array([orc.pure_gamma(w2) for w2 in t["omega_sq"]])
    return _worst(t["gamma"] - ref, np.where(ref == 0.0, 1e-3, 1e-6))


def _printed(rec) -> float:
    return float(rec["stdout"].strip().splitlines()[-1])


@check("transfer-mc", "omega_mc")
def omega_mc_vs_mpmath(wl, out):
    samples = int(_arg(wl.op("omega_mc"), "--samples"))
    ref = orc.omega_gamma_chain(1.0, 1.0, 1.0)
    return _worst(np.array([_printed(out["omega_mc"]) - ref]), Z * OMEGA_MC_SD * math.sqrt(3e5 / samples))


@check("transfer-mc", "omega2_mc")
def omega2_mc_vs_lapack(wl, out):
    samples = int(_arg(wl.op("omega2_mc"), "--samples"))
    n, chains = (50000, 4) if wl.quick else (250000, 8)
    ref, se = orc.omega_type2("twopoint:1:2:0.3", 1.0, 1.0, wl.oracle_rng(5), n, chains)
    tol = Z * math.hypot(OMEGA2_MC_SD * math.sqrt(3e5 / samples), se)
    return _worst(np.array([_printed(out["omega2_mc"]) - ref]), tol)


@check("transfer-mc", "density")
def density_vs_closed_form(wl, out):
    """Density-iteration fixed point against the stationary law e^{-t}/((1+t) K)."""
    t = out["density"]["tables"]["density"]
    pts, w = t["point"], t["weight"]
    inner = 0.5 * (pts[1:] + pts[:-1])
    edges = np.concatenate([[pts[0] - (inner[0] - pts[0])], inner, [pts[-1] + (pts[-1] - inner[-1])]])
    ref = np.diff(orc.stationary_cdf_exp(edges))
    l1 = float(np.sum(np.abs(w / np.sum(w) - ref / np.sum(ref))))
    tol = 0.02
    return l1 <= tol, f"L1 distance {l1:.2e} (tol {tol})"


@check("transfer-mc", "band_edge")
def band_edge_vs_airy(wl, out):
    """Rescaled exponents within 15% of the Airy scaling function."""
    rep = out["band_edge"]["value"]
    alpha, energies = wl.op("band_edge").args[:2]
    s = (2.0 * alpha) ** (2.0 / 3.0) * (np.abs(energies) - 2.0)
    ref = orc.airy_scaling(s)
    return _worst(np.array(rep["scaled_gamma"]) - ref, 0.15 * np.abs(ref))


# beta-ensembles ---------------------------------------------------------


@check("beta-ensembles", "betaens_fixed")
def mp_ks(wl, out):
    """Fixed-beta squared spectrum: KS distance to Marchenko-Pastur."""
    op = wl.op("betaens_fixed")
    pairs, beta, samples = int(_arg(op, "--pairs")), float(_arg(op, "--beta")), int(_arg(op, "--samples"))
    y = np.sort(out["betaens_fixed"]["tables"]["spectrum"]["y"])
    ks = orc.ks_distance(y / (2.0 * pairs * beta), orc.mp_cdf(y / (2.0 * pairs * beta)))
    bound = 1.95 / math.sqrt(y.size) + 1.0 / pairs
    return ks <= bound, f"KS {ks:.4f} (bound {bound:.4f}, n {y.size})"


@functools.lru_cache(maxsize=2)
def _whittaker_table(c: float, extra: tuple):
    return orc.whittaker_cdf_table(c, extra)


def _con_table(wl):
    """One mpmath table serves both Whittaker-law checks: it holds the con_cdf_grid points."""
    c, mus = wl.op("con_cdf_grid").args
    return _whittaker_table(c, tuple(mus))


@check("beta-ensembles", "betaens_con")
def whittaker_target_vs_mpmath(wl, out):
    t = out["betaens_con"]["tables"]["whittaker_target"]
    c = float(_arg(wl.op("betaens_con"), "--c-over-n"))
    ref = np.array([orc.whittaker_density(c, float(m)) for m in t["mu"]])
    return _worst(t["D"] - ref, WHITTAKER_RTOL * ref)


@check("beta-ensembles", "betaens_con")
def whittaker_law_ks(wl, out):
    """beta = c/N squared spectrum: KS distance to the squared-Whittaker law."""
    op = wl.op("betaens_con")
    pairs, c = int(_arg(op, "--pairs")), float(_arg(op, "--c-over-n"))
    y = np.sort(out["betaens_con"]["tables"]["spectrum"]["y"])
    ks = orc.ks_distance(y, orc.whittaker_cdf(_con_table(wl), y))
    bound = 1.95 / math.sqrt(y.size) + 2.0 / pairs
    return ks <= bound, f"KS {ks:.4f} (bound {bound:.4f}, n {y.size})"


@check("beta-ensembles", "con_cdf_grid")
def con_cdf_vs_mpmath(wl, out):
    mus = wl.op("con_cdf_grid").args[1]
    ref = orc.whittaker_cdf(_con_table(wl), mus)
    return _worst(np.array(out["con_cdf_grid"]["value"]) - ref, 1e-5)


@check("beta-ensembles", "density_mass")
def density_mass_unit(wl, out):
    mass = out["density_mass"]["value"]
    return abs(mass - 1.0) <= 1e-5, f"mass {mass:.9f}"


@check("beta-ensembles", "eigenvalues_ranks")
def eigenvalues_vs_lapack(wl, out):
    op = wl.op("eigenvalues_ranks")
    sym, ranks = op.args[0], op.kwargs["ranks"]
    ev = orc.spectrum(sym.diag, sym.off)
    got = np.array(out["eigenvalues_ranks"]["value"]["values"])
    return _worst(got - ev[ranks - 1], 1e-9 * max(1.0, float(np.max(np.abs(ev)))))


@check("beta-ensembles", "squared_spectrum")
def squared_spectrum_vs_lapack(wl, out):
    sup = wl.op("squared_spectrum").args[0].sup
    ev = orc.spectrum(np.zeros(sup.size + 1), sup)
    want = np.sort(ev[ev.size - sup.size // 2 :] ** 2)
    got = np.sort(np.array(out["squared_spectrum"]["value"]["values"]))
    return _worst(got - want, 1e-9 * max(1.0, float(want.max())))


def run_checks(wl: wls.Workload, outputs: dict, failed: set) -> list[Verdict]:
    """A verdict on the failed operations, then every check of the workload.

    Only operations that probe a known fault may fail.  A check that needs
    a failed operation is skipped; it rejects unless that operation probes
    a known fault.
    """
    faults = {o.name for o in wl.ops if o.fault}
    unexpected = sorted(failed - faults)
    verdicts = [Verdict("only_known_faults_fail", not unexpected,
                        f"failed without a known fault: {', '.join(unexpected) or 'none'}")]
    for name, needs, fn in CHECKS[wl.name]:
        missing = [n for n in needs if n in failed]
        if missing:
            verdicts.append(Verdict(name, set(missing) <= faults, f"skipped: {', '.join(missing)} failed"))
            continue
        try:
            ok, detail = fn(wl, outputs)
        except (KeyError, IndexError, ValueError) as exc:  # malformed or missing output
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        verdicts.append(Verdict(name, bool(ok), detail))
    return verdicts
