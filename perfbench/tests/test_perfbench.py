"""The benchmark's own tests: quick runs, check rejection, probes and tracing.

    python3 -m pytest perfbench/tests -q

Each workload's quick mode runs once for this module.  Every check must
accept the program's real outputs and reject the same outputs after a
perturbation that a broken program could produce.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _quick_outputs(workload: str, tmp: Path):
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--quick", "--out", str(tmp)],
        check=True, timeout=170,
    )
    outputs = json.loads((tmp / "result.json").read_text())["outputs"]
    checks.load_tables(outputs, tmp)
    return workloads.build(workload, SEED, quick=True), outputs


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def quick(request, tmp_path_factory):
    return _quick_outputs(request.param, tmp_path_factory.mktemp(request.param))


def _scale(op, table, col, f):
    def perturb(out):
        out[op]["tables"][table][col] = out[op]["tables"][table][col] * f
    return perturb


def _shift(op, table, col, d, index=slice(None)):
    def perturb(out):
        out[op]["tables"][table][col][index] += d
    return perturb


def _value(op, fn):
    def perturb(out):
        out[op]["value"] = fn(out[op]["value"])
    return perturb


def _field(op, key, fn):
    def perturb(out):
        out[op]["value"][key] = fn(np.array(out[op]["value"][key])).tolist()
    return perturb


def _printed(op, d):
    def perturb(out):
        out[op]["stdout"] = f"{float(out[op]['stdout']) + d:.12g}\n"
    return perturb


# Perturbations per check, each a plausible fault of the program.
PERTURB = {
    "dos_gamma25_vs_lapack": _scale("dos_gamma25", "dos", "D_empirical", 1.1),
    "dos_gamma1_vs_idos_exact": _scale("dos_gamma1", "dos", "D_empirical", 1.1),
    # The whole curve, and a single point of the Dyson tail (x = 1e-6, M about 0.009).
    "exact_idos_vs_lapack": (_scale("exact_idos_tail", "idos", "M", 0.9),
                             _shift("exact_idos_tail", "idos", "M", -2e-3, 0)),
    "exact_dos_vs_lapack": _scale("exact_dos", "dos", "D", 1.3),
    "dos_tail_counts": _shift("dos_tail", "dos", "D_empirical", 1e-3),
    "nodefrac_vs_lapack": _shift("nodefrac", "idos", "M", 0.05),
    "exact_omega_vs_mpmath": _scale("exact_omega", "omega", "Omega", 1.0 + 1e-6),
    "weak_disorder_closed_form": _shift("exact_weak_100", "idos", "M", 1e-3, 0),
    "sturm_counts_exact": _value("sturm_one_0", lambda v: v + 1),
    "node_counts_exact": _value("node_count_0", lambda v: v + 1),
    "lyap_type2_thouless": _shift("lyap_type2", "gamma", "gamma", 0.05),
    "lyap_type1_thouless": _shift("lyap_type1", "gamma", "gamma", 0.05),
    "lyap_anderson_thouless": _shift("lyap_anderson", "gamma", "gamma", 0.05),
    "pure_chain_closed_form": _shift("lyap_pure", "gamma", "gamma", 1e-5, 1),
    "omega_mc_vs_mpmath": _printed("omega_mc", 0.05),
    "omega2_mc_vs_lapack": _printed("omega2_mc", 0.05),
    "density_vs_closed_form": lambda out: out["density"]["tables"]["density"].update(
        weight=np.roll(out["density"]["tables"]["density"]["weight"], 20)),
    "band_edge_vs_airy": _field("band_edge", "scaled_gamma", lambda v: 1.2 * v),
    "mp_ks": _scale("betaens_fixed", "spectrum", "y", 2.0),
    "whittaker_target_vs_mpmath": _scale("betaens_con", "whittaker_target", "D", 1.0 + 1e-5),
    "whittaker_law_ks": _scale("betaens_con", "spectrum", "y", 3.0),
    "con_cdf_vs_mpmath": _value("con_cdf_grid", lambda v: (np.array(v) + 1e-4).tolist()),
    "density_mass_unit": _value("density_mass", lambda v: v + 1e-4),
    "eigenvalues_vs_lapack": _field("eigenvalues_ranks", "values", lambda v: v + 1e-6 * (np.arange(v.size) == 0)),
    "squared_spectrum_vs_lapack": _field("squared_spectrum", "values", lambda v: v * (1.0 + 1e-6)),
}


def test_every_check_has_a_perturbation():
    names = {name for regs in checks.CHECKS.values() for name, _, _ in regs}
    assert names == set(PERTURB)


def test_checks_accept_real_outputs_and_reject_perturbed_ones(quick):
    wl, outputs = quick
    for name, _, fn in checks.CHECKS[wl.name]:
        ok, detail = fn(wl, outputs)
        assert ok, f"{name} rejected the program's output: {detail}"
        perturbs = PERTURB[name] if isinstance(PERTURB[name], tuple) else (PERTURB[name],)
        for i, perturb in enumerate(perturbs):
            bad = copy.deepcopy(outputs)
            perturb(bad)
            ok, detail = fn(wl, bad)
            assert not ok, f"{name} accepted perturbed output {i}: {detail}"


def test_only_known_faults_may_fail(quick):
    wl, outputs = quick
    faults = {o.name for o in wl.ops if o.fault}
    first = next(o.name for o in wl.ops if not o.fault)
    assert all(v.ok for v in checks.run_checks(wl, outputs, faults))
    verdicts = checks.run_checks(wl, outputs, faults | {first})
    assert not verdicts[0].ok and first in verdicts[0].detail
    assert not all(v.ok for v in verdicts[1:] if first in v.detail)


def test_probes_fail_exactly_the_known_faults(quick):
    wl, outputs = quick
    for op in wl.ops:
        ok, detail = checks.probe(op, outputs[op.name])
        assert ok == (not op.fault), f"{op.name}: {detail}"


def test_whittaker_probe_rejects_a_perturbed_value():
    op = workloads.Op("msq", call="specfun.whittaker_msq", args=(1.0, 2.0))
    import oracles

    ref = oracles.whittaker_msq(1.0, 2.0)
    assert checks.probe(op, {"rc": 0, "value": ref * (1 + 1e-8)})[0]
    assert not checks.probe(op, {"rc": 0, "value": ref * (1 + 1e-5)})[0]


def test_contour_probe_passes_once_the_fault_is_mended():
    import oracles

    op = workloads.Op("p", argv=("exact", "--alpha", "50", "--kappa", "50", "--grid", "4.5:5.5:1"),
                      fault=workloads.CONTOUR_FAULT)
    mended = {"rc": 0, "tables": {"idos": {"x": np.array([4.5]), "M": np.array([oracles.weak_disorder_idos(50, 4.5)])}}}
    assert checks.probe(op, mended)[0]
    assert not checks.probe(op, {"rc": 3, "stdout": "numeric error"})[0]
    mended["tables"]["idos"]["M"] -= 0.2
    assert not checks.probe(op, mended)[0]


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    a, b, c = (workloads.build("chain-spectra", s) for s in (7, 7, 8))
    assert [o.argv for o in a.ops] == [o.argv for o in b.ops]
    assert np.array_equal(a.op("sturm_many").args[1], b.op("sturm_many").args[1])
    assert [o.argv for o in a.ops] != [o.argv for o in c.ops]


def test_fault_probes_do_not_depend_on_the_seed():
    for name in workloads.WORKLOADS:
        faults = [[(o.name, o.argv, o.args) for o in workloads.build(name, s).ops if o.fault] for s in (1, 2)]
        assert faults[0] == faults[1]


def test_quick_run_prints_a_correct_result():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "chain-spectra", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"]
    n_ops = len(workloads.build("chain-spectra", 3, quick=True).ops)
    assert res["attempted"] % n_ops == 0
    assert res["failed"] * n_ops == res["attempted"] * len(workloads.CONTOUR_FAULT_PROBES)
    assert set(res["metrics"]) == {"wall_s", "setup_s", "cpu_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_quick_run_reports_every_layer_metric():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "transfer-mc", "--seed", "3", "--seconds", "1",
         "--trace", "1", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    res = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert res["metrics"]["lyapunov.transfer_lyapunov.calls"]["value"] > 0
    assert math.isclose(res["metrics"]["trace.accounted_share"]["value"], 1.0, abs_tol=0.05)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transfer-mc", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_tracer_counts_work_and_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    import randchain.chain as chain
    import randchain.tridiag as tridiag
    import spans

    original = chain.count_below_many
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert chain.count_below_many is not original and tridiag.count_below_many is chain.count_below_many
        t = tridiag.SymTridiag(np.zeros(11), np.ones(10))
        chain.empirical_idos(t, np.array([0.5, 1.0, 2.0]))
    finally:
        tracer.uninstall()
    assert chain.count_below_many is original
    snap = tracer.snapshot()
    assert snap["chain.empirical_idos"]["calls"] == 1
    assert snap["tridiag.sturm"]["calls"] == 2
    assert snap["tridiag.sturm"]["work"] == 2 * 11 * 3
    assert snap["chain.empirical_idos"]["self_s"] >= 0.0


def test_time_shared_with_other_threads_is_not_scaled():
    import speed

    def spin(until):
        while time.perf_counter() < until:
            pass

    with speed.SpeedSampler() as sampler:
        alone = speed.mark()
        spin(alone.wall + 0.2)
        start = speed.mark()
        helper = threading.Thread(target=spin, args=(start.wall + 0.3,))
        helper.start()
        spin(start.wall + 0.3)
        helper.join()
        end = speed.mark()
    assert sampler.measure(alone, start)[2]
    assert sampler.max_threads >= 2
    assert sampler.measure(start, end) == (end.wall - start.wall, end.cpu - start.cpu, False)
